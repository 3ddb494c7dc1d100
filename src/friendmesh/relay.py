"""The relay server: admission, the held leg, opaque bidirectional forwarding.

A peer that must receive connections through the relay is admitted over
the one handshake of secure.py, as a rendezvous client is: the relay holds
no certificate and answers the hello with a bare session key sealed to the
peer. The peer then calls the app kind admit, and the relay takes the
connection over: the peer holds it open (the leg) and answers muxed frames
on it. A session lives as long as its leg, with no periodic frame: it ends
when the peer re-admits, when the leg closes, or when a frame sent down it
gets no answer (the relay then closes the leg, which the peer reads). A
full relay refuses a newcomer's hello and admit, after probing the legs
it has not heard from within a ping interval, once each. Clients open a
bridge naming the target, and every later handshake and app frame is
copied verbatim with a 4-byte stream id prepended on the leg only; stream
0 is the leg itself, which the peer's mux echoes. The relay holds the key
of each admission session, never the key of a session it forwards, and
never decrypts anything it forwards. bridge_open is a plain request served
by wire.serve; a malformed one is refused as malformed_request.
"""
from __future__ import annotations

import functools
import random
import time
from contextlib import closing
from dataclasses import dataclass
from typing import Callable

from . import identity, rvclient, secure, wire
from .channel import Channel, Endpoint, ReverseSession, Service, Session, SessionContext
from .config import RelayConfig
from .errors import MalformedRequest, ProtocolError
from .identity import Certificate, KeyPair
from .wire import Frame

LEG_STREAM = bytes(4)  # the stream id of the leg itself; a bridge's streams count from 1
LEG_PROBE = Frame(wire.APP_DATA, LEG_STREAM)
MUX_STREAMS = 64  # stream sessions a relayed peer keeps, the least recently used dropped first


@dataclass
class RelaySession:
    username: str
    session: ReverseSession  # the server-peer's mux face, on the leg it keeps open
    heard: int  # when the leg last answered: the admission, a forward or a probe
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
        self.admitted = 0
        self.evicted = 0
        self.closed = 0
        self.update_interval_ms: int | None = None

    # -- rendezvous registration -------------------------------------------------

    def _rendezvous(self) -> Channel:
        return self.endpoint.connect(f"{self.config.rendezvous_addr}:{self.config.rendezvous_port}")

    def register_with_rendezvous(self) -> int:
        if self.endpoint is None:
            raise ProtocolError("no endpoint configured")
        with closing(self._rendezvous()) as channel:
            self.update_interval_ms = rvclient.relay_register(
                channel, self.config.port, self.config.max_connections
            )
        return self.update_interval_ms

    def send_update(self) -> None:
        if self.endpoint is None or self.update_interval_ms is None:
            return
        try:
            with closing(self._rendezvous()) as channel:
                rvclient.relay_update(
                    channel, self.config.port, len(self.sessions), self.config.max_connections
                )
        except ProtocolError:
            pass  # unreachable or refused: the next tick sends another

    # -- liveness ---------------------------------------------------------------

    def tick(self) -> None:
        """Drop the sessions whose leg closed; push a rendezvous update."""
        for username, held in list(self.sessions.items()):  # connection threads admit meanwhile
            if held.session.closed:
                self._drop(username, evicted=False, held=held)
        self.send_update()

    def _heard(self, held: RelaySession, reply: Frame | None) -> Frame | None:
        """Note the answer to a frame sent down held's leg: none drops it."""
        if reply is None:
            self._drop(held.username, evicted=True, held=held)
        else:
            held.heard = self.clock()
        return reply

    def _drop(self, username: str, evicted: bool, held: RelaySession | None = None) -> None:
        """End username's session, if it is still held when given, and close its leg."""
        session = self.sessions.get(username)
        if session is None or (held is not None and held is not session):
            return  # gone, or replaced by a re-admission since
        del self.sessions[username]
        session.session.close()
        if evicted:
            self.evicted += 1
        else:
            self.closed += 1

    def full_for(self, username: str) -> bool:
        """No room for username: it holds no session, and every slot is held
        by a leg that answers, probed least recently heard first. A
        re-admission replaces the peer's own session, so it always fits."""
        if username in self.sessions:
            return False
        now = self.clock()
        idle = [s for s in list(self.sessions.values()) if now - s.heard >= self.config.ping_interval_ms]
        for held in sorted(idle, key=lambda s: (s.heard, s.username)):
            if len(self.sessions) < self.config.max_connections:
                break
            self._heard(held, held.session.handle(LEG_PROBE, None))
        return len(self.sessions) >= self.config.max_connections

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
        of any session it held: the session lives as long as this leg."""
        server = self.server
        reverse = self._ctx.reverse_service
        if reverse is None:
            raise MalformedRequest("no mux attached")
        server._drop(sender.username, evicted=False)  # a re-admission replaces the session
        server.sessions[sender.username] = RelaySession(
            sender.username, reverse.open_session(self._ctx), server.clock()
        )
        server.admitted += 1
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
        """Copy verbatim; the stream id travels only on the relay leg. A leg
        that gives no answer ends its session."""
        bridge = self._bridge
        if self.server.sessions.get(bridge.username) is not bridge:
            return wire.err_reply(frame.msg_type, "peer_unreachable", "session gone")
        muxed = Frame(frame.msg_type, self._stream_id + frame.payload)
        reply = self.server._heard(bridge, bridge.session.handle(muxed, ctx))
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
        session = self._streams.pop(stream_id, None) or self._inner.open_session(ctx)
        self._streams[stream_id] = session  # the most recently used last
        if len(self._streams) > MUX_STREAMS:
            del self._streams[next(iter(self._streams))]
        return session


class MuxSession:
    closed = False  # in process, the relay's reverse session holds no connection

    def __init__(self, service: MuxService):
        self._service = service

    def close(self) -> None:
        pass

    def handle(self, frame: Frame, ctx: SessionContext) -> Frame | None:
        if len(frame.payload) < 4:
            return wire.err_reply(frame.msg_type, "malformed_request", "missing stream id")
        stream_id, inner_payload = frame.payload[:4], frame.payload[4:]
        if stream_id == LEG_STREAM:
            return frame  # the relay's probe of the leg itself
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
) -> None:
    """Client-side admission: the one handshake, then admit with the mux
    attached, so the relay's requests are served from its reply on. The
    session lasts as long as the channel stays open."""
    session = secure.connect_secure(channel, cert, keys, ca_public_key, rng=rng)
    channel.attach_reverse(mux)
    session.call("admit")
