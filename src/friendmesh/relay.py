"""The relay server: admission, liveness, opaque bidirectional forwarding.

A peer that must receive connections through the relay is admitted over
the one handshake of secure.py, as a rendezvous client is: the relay holds
no certificate and answers the hello with a bare session key sealed to the
peer. The peer then calls the app kind admit, which issues a liveness
token and takes the connection over; a full relay refuses the hello and
admit of a peer it holds no session for. The peer keeps that connection
open and answers muxed frames on it, and refreshes its session with
plaintext keepalives. Clients open a bridge naming the target, and every
later handshake and app frame is copied verbatim with a 4-byte stream id
prepended on the relay leg only. The relay holds the key of each admission
session, never the key of a session it forwards, and never decrypts
anything it forwards. Keepalives and bridge_open are plain requests served
by wire.serve; a malformed one is refused as malformed_request.
"""
from __future__ import annotations

import functools
import random
import time
from dataclasses import dataclass
from typing import Callable

from . import identity, rvclient, secure, wire
from .channel import Channel, Endpoint, ReverseSession, Service, Session, SessionContext
from .config import RelayConfig
from .errors import MalformedRequest, PeerUnreachable, ProtocolError
from .identity import Certificate, KeyPair
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
        return RelayConnSession(self, ctx)


class RelayConnSession:
    """One inbound connection: either a server-peer admission or a client bridge."""

    def __init__(self, server: RelayServer, ctx: SessionContext):
        self.server = server
        self._ctx = ctx
        # The handshake and APP_DATA of an admission, with no certificate of
        # the relay's own; admit is the one app kind. Capacity gates both the
        # hello and admit, so a full relay refuses a newcomer before it
        # seals a key, and once more if it filled up since.
        self._secure = secure.ResponderSession(
            None, None, server.ca_public_key, lambda username: not server.full_for(username),
            functools.partial(secure.dispatch_app, self), rng=server.rng,
        )
        self._bridge: RelaySession | None = None
        self._stream_id: bytes | None = None

    def handle(self, frame: Frame, ctx: SessionContext) -> Frame | None:
        # The handshake and APP_DATA: a bridge forwards the client's
        # verbatim, else they are an admission's.
        if frame.msg_type in (wire.REGISTER_PEER, wire.APP_DATA):
            return (self._secure.handle if self._bridge is None else self._forward)(frame, ctx)
        return wire.serve(self, frame, ctx)

    # Handlers (wire.SCHEMA): the app kind admit gets the session's client
    # certificate, the plain requests the connection's SessionContext.

    def _on_admit(self, sender: Certificate) -> tuple:
        """Serve the sender over this connection from the reply on, in place
        of any session it held; -> keepalive interval ms, liveness token."""
        server = self.server
        reverse = self._ctx.reverse_service
        if reverse is None:
            raise MalformedRequest("no mux attached")
        server._drop(sender.username, evicted=False)  # a re-admission replaces the session
        token = server.rng.randbytes(16)
        session = RelaySession(
            username=sender.username,
            session=reverse.open_session(self._ctx),
            token=token,
            last_alive=server.clock(),
        )
        server.sessions[sender.username] = session
        server._by_token[token] = sender.username
        server.admitted += 1
        return server.config.ping_interval_ms, token

    def _on_server_is_alive(self, ctx: SessionContext, token: bytes) -> tuple:
        server = self.server
        username = server._by_token.get(token)
        if username in server.sessions:
            # No resurrection: only live sessions refresh.
            server.sessions[username].last_alive = server.clock()
        return ()

    def _on_bridge_open(self, ctx: SessionContext, username: str) -> tuple | Frame:
        session = self.server.sessions.get(username)
        if session is None:
            return wire.err_reply(wire.BRIDGE_OPEN, "peer_unreachable", "no such session")
        session.streams += 1
        self._bridge = session
        self._stream_id = session.streams.to_bytes(4, "big")
        return ()

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
    keys: KeyPair,
    ca_public_key: bytes,
    mux: MuxService,
    rng: random.Random | None = None,
) -> tuple[int, bytes]:
    """Client-side admission: the one handshake, then admit with the mux
    attached, so the relay's requests are served from its reply on.

    Returns (keepalive interval ms, liveness token).
    """
    session = secure.connect_secure(channel, cert, keys, ca_public_key, rng=rng)
    channel.attach_reverse(mux)
    return session.call("admit")


def send_keepalive(channel: Channel, token: bytes) -> None:
    wire.call(channel, wire.SERVER_IS_ALIVE, token)
