"""Connection abstractions every component is written against.

A Channel is the client end of one connection: it sends a frame and waits
for the single reply frame. A Service accepts connections and hands each
one a Session whose handle() produces the reply. The deterministic
simulator and the real-socket carriers both implement these, which is what
lets identical component code run in either world.

attach_reverse() models a full-duplex connection kept open by the client:
the attached service handles frames the *server* later pushes down the same
connection (used by relayed server-peers).
"""
from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, Protocol

from .wire import Frame


@dataclass
class SessionContext:
    """What a server session may know about the connection."""

    remote_addr: str
    local_addr: str
    now_ms: Callable[[], int]
    reverse_service: "Service | None" = None
    meta: dict = field(default_factory=dict)


class Session(Protocol):
    def handle(self, frame: Frame, ctx: SessionContext) -> Frame | None:
        ...

    def closed(self, ctx: SessionContext) -> None:
        ...


class Service(Protocol):
    def open_session(self, ctx: SessionContext) -> Session:
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

    def __init__(
        self,
        service: Service,
        remote_addr: str = "server:0",
        local_addr: str = "client:0",
        clock: Callable[[], int] = lambda: 0,
    ):
        self.remote_addr = remote_addr
        self._ctx = SessionContext(remote_addr=local_addr, local_addr=remote_addr, now_ms=clock)
        self._session = service.open_session(self._ctx)

    def request(self, frame: Frame) -> Frame:
        reply = self._session.handle(frame, self._ctx)
        if reply is None:
            from .errors import PeerUnreachable

            raise PeerUnreachable("no reply")
        return reply

    def attach_reverse(self, service: Service) -> None:
        self._ctx.reverse_service = service

    def close(self) -> None:
        self._session.closed(self._ctx)


class FuncSession:
    """Session backed by a plain handler function."""

    def __init__(self, fn: Callable[[Frame, SessionContext], Frame | None]):
        self._fn = fn

    def handle(self, frame: Frame, ctx: SessionContext) -> Frame | None:
        return self._fn(frame, ctx)

    def closed(self, ctx: SessionContext) -> None:
        pass


class FuncService:
    def __init__(self, fn: Callable[[Frame, SessionContext], Frame | None]):
        self._fn = fn

    def open_session(self, ctx: SessionContext) -> Session:
        return FuncSession(self._fn)
