"""The relay server: admission, liveness, opaque bidirectional forwarding.

A peer that must receive connections through the relay authenticates with
a sealed-timestamp challenge, keeps the connection open and answers muxed
frames on it; clients open a bridge naming the target and every later
frame is copied verbatim with a 4-byte stream id prepended on the relay
leg only. The relay holds no session keys and never decrypts anything it
forwards.
"""
from __future__ import annotations

import random
import time
from dataclasses import dataclass
from typing import Callable

from . import identity, rvclient, wire
from .channel import Channel, Endpoint, ReverseSession, Service, Session, SessionContext
from .config import RelayConfig
from .errors import MalformedRequest, PeerUnreachable, ProtocolError
from .identity import Certificate
from .wire import Frame

KEEPALIVE_GRACE = 3  # ping intervals a relayed peer may stay silent before eviction


@dataclass
class RelaySession:
    username: str
    session: ReverseSession  # the server-peer's mux face, on the connection it keeps open
    token: bytes
    last_alive: int
    streams: int = 0


class RelayServer:
    def __init__(
        self,
        addr: str,
        config: RelayConfig | None = None,
        ca_public_key: bytes = b"",
        ca_algorithm: str = identity.DEFAULT_ALGORITHM,
        endpoint: Endpoint | None = None,
        rng: random.Random | None = None,
        clock: Callable[[], int] | None = None,
    ):
        self.addr = addr
        self.config = config or RelayConfig()
        identity.check_algorithm(ca_algorithm)  # accepted for callers that name it; not kept
        self.ca_public_key = ca_public_key
        self.endpoint = endpoint
        # Secrets are drawn from it: a CSPRNG unless the simulator injects its own.
        self.rng = rng or random.SystemRandom()
        self.clock = clock or (lambda: int(time.time() * 1000))
        self.sessions: dict[str, RelaySession] = {}
        self._by_token: dict[bytes, str] = {}
        self.admitted = 0
        self.evicted = 0
        self.closed = 0
        self.update_interval_ms: int | None = None

    # -- rendezvous registration -------------------------------------------------

    def register_with_rendezvous(self) -> int:
        if self.endpoint is None:
            raise ProtocolError("no endpoint configured")
        target = f"{self.config.rendezvous_addr}:{self.config.rendezvous_port}"
        channel = self.endpoint.connect(target)
        try:
            self.update_interval_ms = rvclient.relay_register(
                channel, self.config.port, self.config.max_connections
            )
        finally:
            channel.close()
        return self.update_interval_ms

    def send_update(self) -> None:
        if self.endpoint is None or self.update_interval_ms is None:
            return
        target = f"{self.config.rendezvous_addr}:{self.config.rendezvous_port}"
        try:
            channel = self.endpoint.connect(target)
        except PeerUnreachable:
            return
        try:
            rvclient.relay_update(
                channel, self.config.port, len(self.sessions), self.config.max_connections
            )
        except ProtocolError:
            pass
        finally:
            channel.close()

    # -- liveness ---------------------------------------------------------------

    def tick(self) -> None:
        """Evict sessions whose keepalives stopped; push a rendezvous update."""
        now = self.clock()
        horizon = self.config.ping_interval_ms * KEEPALIVE_GRACE
        for username in sorted(self.sessions):
            session = self.sessions[username]
            if now - session.last_alive > horizon:
                self._drop(username, evicted=True)
        self.send_update()

    def _drop(self, username: str, evicted: bool) -> None:
        """End a session: its token refreshes nothing more and the
        connection it took over is closed."""
        session = self.sessions.pop(username, None)
        if session is None:
            return
        self._by_token.pop(session.token, None)
        session.session.close()
        if evicted:
            self.evicted += 1
        else:
            self.closed += 1

    @property
    def load(self) -> int:
        return len(self.sessions)

    def full_for(self, username: str) -> bool:
        """No room for username: it holds no session and every slot is taken.
        A re-admission replaces the peer's own session, so it always fits."""
        return username not in self.sessions and len(self.sessions) >= self.config.max_connections

    def open_session(self, ctx: SessionContext) -> "RelayConnSession":
        return RelayConnSession(self)


class RelayConnSession:
    """One inbound connection: either a server-peer admission or a client bridge."""

    def __init__(self, server: RelayServer):
        self.server = server
        self._challenge: bytes | None = None
        self._cert: Certificate | None = None
        self._bridge: RelaySession | None = None
        self._stream_id: bytes | None = None

    def handle(self, frame: Frame, ctx: SessionContext) -> Frame | None:
        code = frame.msg_type
        handler = getattr(self, f"handle_{wire.MSG_NAMES.get(code)}", None)
        if handler is None:
            if self._bridge is not None:
                return self._forward(frame, ctx)
            return wire.err_reply(code, "malformed_request", "no bridge open")
        # Refusals that come before the request is read.
        if code == wire.CHALLENGE_REPLY and (self._challenge is None or self._cert is None):
            return wire.err_reply(wire.CHALLENGE_REPLY, "auth_error", "no challenge outstanding")
        try:
            values = wire.decode(code, frame.payload)
        except MalformedRequest:
            return _MALFORMED_REPLY.get(code) or wire.err_reply(code, "malformed_request")
        return handler(ctx, *values)

    def handle_is_server(self, ctx: SessionContext, cert: Certificate) -> Frame:
        server = self.server
        if not identity.verify_certificate(cert, server.ca_public_key):
            return wire.err_reply(wire.CHALLENGE, "auth_error", "bad certificate")
        if server.full_for(cert.username):
            return wire.err_reply(wire.CHALLENGE, "reject", "capacity reached")
        self._cert = cert
        # Fresh timestamp + nonce: a replayed reply can never match.
        self._challenge = wire.pack_fields(
            wire.pack_int(server.clock()), server.rng.randbytes(8)
        )
        sealed = identity.seal(cert.public_key, self._challenge)
        return wire.reply(wire.IS_SERVER, sealed, msg_type=wire.CHALLENGE)

    def handle_challenge_reply(self, ctx: SessionContext, value: bytes) -> Frame:
        server = self.server
        if value != self._challenge:
            return wire.err_reply(wire.CHALLENGE_REPLY, "auth_error", "challenge mismatch")
        if ctx.reverse_service is None:
            return wire.err_reply(wire.CHALLENGE_REPLY, "malformed_request", "no mux attached")
        # Others may have been admitted since the challenge went out.
        if server.full_for(self._cert.username):
            return wire.err_reply(wire.CHALLENGE_REPLY, "reject", "capacity reached")
        server._drop(self._cert.username, evicted=False)  # a re-admission replaces the session
        token = server.rng.randbytes(16)
        session = RelaySession(
            username=self._cert.username,
            session=ctx.reverse_service.open_session(ctx),
            token=token,
            last_alive=server.clock(),
        )
        server.sessions[self._cert.username] = session
        server._by_token[token] = self._cert.username
        server.admitted += 1
        self._challenge = None
        return wire.reply(wire.CHALLENGE_REPLY, server.config.ping_interval_ms, token)

    def handle_server_is_alive(self, ctx: SessionContext, token: bytes) -> Frame:
        server = self.server
        username = server._by_token.get(token)
        if username in server.sessions:
            # No resurrection: only live sessions refresh.
            server.sessions[username].last_alive = server.clock()
        return wire.reply(wire.SERVER_IS_ALIVE)

    def handle_bridge_open(self, ctx: SessionContext, username: str) -> Frame:
        session = self.server.sessions.get(username)
        if session is None:
            return wire.err_reply(wire.BRIDGE_OPEN, "peer_unreachable", "no such session")
        session.streams += 1
        self._bridge = session
        self._stream_id = session.streams.to_bytes(4, "big")
        return wire.reply(wire.BRIDGE_OPEN)

    def _forward(self, frame: Frame, ctx: SessionContext) -> Frame:
        """Copy verbatim; the stream id travels only on the relay leg."""
        bridge = self._bridge
        if bridge.username not in self.server.sessions:
            return wire.err_reply(frame.msg_type, "peer_unreachable", "session gone")
        muxed = Frame(frame.msg_type, self._stream_id + frame.payload)
        reply = bridge.session.handle(muxed, ctx)
        if reply is None:
            return wire.err_reply(frame.msg_type, "peer_unreachable")
        return Frame(reply.msg_type, reply.payload[4:])


# Requests whose malformed form gets its own reply rather than a
# malformed_request under the request's code. A keepalive is never
# refused: it only ever refreshes a live session.
_MALFORMED_REPLY = {
    wire.IS_SERVER: wire.err_reply(wire.CHALLENGE, "malformed_request"),
    wire.SERVER_IS_ALIVE: wire.ok_reply(wire.SERVER_IS_ALIVE),
}


class MuxService:
    """Server-peer side of the relay leg: demultiplex per-stream sessions."""

    def __init__(self, inner: Service):
        self._inner = inner
        self._streams: dict[bytes, Session] = {}

    def open_session(self, ctx: SessionContext) -> "MuxSession":
        return MuxSession(self)

    def stream_session(self, stream_id: bytes, ctx: SessionContext) -> Session:
        session = self._streams.get(stream_id)
        if session is None:
            session = self._inner.open_session(ctx)
            self._streams[stream_id] = session
        return session


class MuxSession:
    def __init__(self, service: MuxService):
        self._service = service

    def close(self) -> None:
        pass  # in process, the relay's reverse session holds no connection

    def handle(self, frame: Frame, ctx: SessionContext) -> Frame | None:
        if len(frame.payload) < 4:
            return wire.err_reply(frame.msg_type, "malformed_request", "missing stream id")
        stream_id, inner_payload = frame.payload[:4], frame.payload[4:]
        session = self._service.stream_session(stream_id, ctx)
        reply = session.handle(Frame(frame.msg_type, inner_payload), ctx)
        if reply is None:
            return None
        return Frame(reply.msg_type, stream_id + reply.payload)


def admit_as_server(
    channel: Channel,
    cert: Certificate,
    private_key: bytes,
    mux: MuxService,
) -> tuple[int, bytes]:
    """Client-side admission: prove key ownership, attach the mux, go live.

    Returns (keepalive interval ms, liveness token).
    """
    (sealed,) = wire.call(channel, wire.IS_SERVER, cert, expect=wire.CHALLENGE)
    value = identity.open_sealed(private_key, sealed)
    channel.attach_reverse(mux)
    return wire.call(channel, wire.CHALLENGE_REPLY, value)


def send_keepalive(channel: Channel, token: bytes) -> None:
    wire.call(channel, wire.SERVER_IS_ALIVE, token)
