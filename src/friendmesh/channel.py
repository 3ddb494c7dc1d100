"""Connection abstractions every component is written against.

A Channel is the client end of one connection: it sends a frame and waits
for the single reply frame, and close() ends the connection. A Service
accepts connections and hands each one a Session; a session only answers
frames, one handle() call per request, and is simply dropped when its
connection ends. The deterministic simulator and the real-socket carrier
both implement these, which is what lets identical component code run in
either world.

A relay takes over a connection one way. A carrier that can serve in
reverse offers the client's side of the connection to the server's session
as ctx.reverse_service: in process, the service the client passed to
attach_reverse(); over TCP, the socket itself. Opening a session on it
takes the connection over for good: the server writes requests down it and
the client answers them, and the server's own session reads no further
frames from it. Over TCP the serve loop stops once the current reply is
out, and the client starts answering after that reply. A relay does this
once, when it admits a server-peer. Either end's close() ends the takeover:
the server-peer's of its channel, or the relay's of the session it opened,
when a re-admission replaces that session or the relay evicts it.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Protocol

from .errors import PeerUnreachable
from .wire import Frame


@dataclass
class SessionContext:
    """What a server session may know about the connection."""

    remote_addr: str
    # The client's side, where it can serve in reverse: its sessions are ReverseSessions.
    reverse_service: "Service | None" = None


class Session(Protocol):
    def handle(self, frame: Frame, ctx: SessionContext) -> Frame | None:
        ...


class Service(Protocol):
    def open_session(self, ctx: SessionContext) -> Session:
        ...


class ReverseSession(Session, Protocol):
    """A session opened on ctx.reverse_service: it writes requests down the
    taken-over connection, and close() ends that connection."""

    def close(self) -> None:
        ...


class Channel(Protocol):
    remote_addr: str

    def request(self, frame: Frame) -> Frame:
        ...

    def attach_reverse(self, service: Service) -> None:
        ...

    def close(self) -> None:
        ...


class Endpoint(Protocol):
    """A node's view of the network: open channels, read the clock."""

    rng: random.Random

    def connect(self, addr: str) -> Channel:
        ...

    def now_ms(self) -> int:
        ...

    def local_addr(self) -> str:
        ...


class DirectChannel:
    """Channel wired straight to a service session in-process.

    Unit tests use it to drive servers without a network; the simulator
    builds on the same idea with clocks, loss and adversaries in between.
    """

    def __init__(self, service: Service, remote_addr: str = "server:0", local_addr: str = "client:0"):
        self.remote_addr = remote_addr
        self._ctx = SessionContext(remote_addr=local_addr)
        self._session = service.open_session(self._ctx)

    def request(self, frame: Frame) -> Frame:
        reply = self._session.handle(frame, self._ctx)
        if reply is None:
            raise PeerUnreachable("no reply")
        return reply

    def attach_reverse(self, service: Service) -> None:
        self._ctx.reverse_service = service

    def close(self) -> None:
        pass


class FuncService:
    """A stateless service backed by a plain handler function: its own session."""

    def __init__(self, fn: Callable[[Frame, SessionContext], Frame | None]):
        self._fn = fn

    def open_session(self, ctx: SessionContext) -> "FuncService":
        return self

    def handle(self, frame: Frame, ctx: SessionContext) -> Frame | None:
        return self._fn(frame, ctx)
