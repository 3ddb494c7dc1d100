"""Discrete-event network core: virtual clocks, hosts, links, NAT, trace.

Connections are synchronous request/reply exchanges between host services;
every exchange samples link latency from the seeded generator, applies
loss, partitions and liveness, and appends structural records (time,
endpoints, message name, size) to the event trace. Identical config and
seed therefore reproduce a byte-identical trace: ciphertext bytes never
enter it, and all ciphertext encodings are length-deterministic.

Each host keeps its own clock, so hosts work side by side instead of on
one serial timeline (Lamport's receive rule). `SimNet.now` is the time of
the context that is running: run() starts each event at its scheduled
time, and an exchange first lifts `now` to the sending host's clock. The
request reaches the callee one latency later; the callee runs at that
time or at its own clock, whichever is later, and its clock is set when
its handler returns; the reply arrives one latency after that and sets
the caller's clock. A request line in the trace is stamped when the callee
takes it, a reply line when it reaches the caller, so the lines each host
receives never go back in time, while the trace as a whole is in execution
order, not time order. Partitions and liveness are judged at send time.
An event belongs to no host, so a clock read before the event's first
exchange returns the event's scheduled time, which may be earlier than
the clock of the host the event works for. After run(until), `now`
resumes at until, or where it was if that is later.

Loss below the retry budget is absorbed the way a reliable carrier
would absorb it: an attempt that loses the request or the reply
costs the caller a timeout and is retried; exhaustion raises
peer_unreachable. A request is handled once: after the callee has
answered, a retry makes it resend the reply it already has.

A connection does not outlive a close or a restart at either end: taking a
host down starts a new incarnation, and a channel opened in an earlier one
reads closed and raises peer_unreachable, as a TCP connection is reset by
the crash of its peer. A relay's leg reads closed at both ends alike.
"""
from __future__ import annotations

import heapq
import random
from dataclasses import dataclass
from types import SimpleNamespace
from typing import Callable

from ..channel import Service, SessionContext
from ..errors import PeerUnreachable
from ..nat import NatType
from ..wire import MSG_NAMES, Frame


@dataclass
class LinkModel:
    latency_base_ms: int = 5
    latency_jitter_ms: int = 5
    loss_rate: float = 0.0
    request_retries: int = 3
    retry_timeout_ms: int = 200


class SimHost:
    def __init__(self, net: "SimNet", addr: str, service: Service | None, nat: NatType):
        self.net = net
        self.addr = addr
        self.service = service
        self.nat = nat
        self.down = False
        self.incarnation = 0  # bumped each time the host goes down
        self.clock = 0  # the host's time when it last sent or answered
        self.binding_open = False  # any outbound traffic opens the NAT binding
        host, _, port = addr.rpartition(":")
        self.ip = host or addr
        self.port = int(port) if port.isdigit() else 0
        self.private_ip = f"192.168.77.{1 + len(net.hosts) % 250}"

    def endpoint(self) -> "SimEndpoint":
        return SimEndpoint(self.net, self)

    def accepts_from(self, src: "SimHost") -> bool:
        if self.nat is NatType.PUBLIC:
            return True
        if self.nat is NatType.FULL_CONE:
            return self.binding_open
        return False  # restricted cones and symmetric NATs admit no unsolicited inbound


class SimNet:
    def __init__(self, seed: int = 0, link: LinkModel | None = None):
        self.seed = seed
        self.rng = random.Random(seed)
        self.link = link or LinkModel()
        self.now = 0
        self.hosts: dict[str, SimHost] = {}
        self.partitions: list[tuple[frozenset, int, int]] = []
        self.trace: list[str] = []
        self._events: list[tuple[int, int, Callable[[], None]]] = []
        self._seq = 0

    # -- topology -----------------------------------------------------------------

    def add_host(self, addr: str, service: Service | None = None, nat: NatType = NatType.PUBLIC) -> SimHost:
        host = SimHost(self, addr, service, nat)
        self.hosts[addr] = host
        return host

    def set_service(self, addr: str, service: Service) -> None:
        self.hosts[addr].service = service

    def set_down(self, addr: str, down: bool) -> None:
        host = self.hosts[addr]
        host.down = down
        if down:
            host.incarnation += 1
        self.trace_event("churn", node=addr, down=int(down))

    # -- partitions ------------------------------------------------------------------

    def inject_partition(self, node_set, t_start: int, t_end: int) -> None:
        """No frames cross the cut during [t_start, t_end)."""
        self.partitions.append((frozenset(node_set), t_start, t_end))
        self.trace_event("partition", nodes=",".join(sorted(node_set)), start=t_start, end=t_end)

    def cut(self, a: str, b: str) -> bool:
        for nodes, start, end in self.partitions:
            if start <= self.now < end and ((a in nodes) != (b in nodes)):
                return True
        return False

    # -- clock and events ----------------------------------------------------------------

    def now_ms(self) -> int:
        return self.now

    def schedule_at(self, t: int, fn: Callable[[], None]) -> None:
        heapq.heappush(self._events, (t, self._seq, fn))
        self._seq += 1

    def schedule_every(self, interval_ms: int, fn: Callable[[], None], until_ms: int, start_ms: int = 0) -> None:
        t = start_ms if start_ms else interval_ms
        while t <= until_ms:
            self.schedule_at(t, fn)
            t += interval_ms

    def run(self, until_ms: int) -> None:
        """Run the events due by until_ms, each from its scheduled time."""
        resume = max(self.now, until_ms)
        while self._events and self._events[0][0] <= until_ms:
            self.now, _, fn = heapq.heappop(self._events)
            try:
                fn()
            except PeerUnreachable:
                pass  # scheduled actions against dead/cut nodes just fail
        self.now = resume

    # -- trace ------------------------------------------------------------------------------

    def trace_msg(self, src: str, dst: str, frame: Frame, kind: str) -> None:
        name = MSG_NAMES.get(frame.msg_type, str(frame.msg_type))
        self.trace.append(f"{self.now:010d} MSG {kind} {src} {dst} {name} {len(frame.payload)}")

    def trace_event(self, kind: str, **fields) -> None:
        parts = [f"{self.now:010d} EV {kind}"]
        for key in sorted(fields):
            parts.append(f"{key}={fields[key]}")
        self.trace.append(" ".join(parts))

    def trace_text(self) -> str:
        return "\n".join(self.trace) + "\n"

    # -- connections ------------------------------------------------------------------------

    def reachable(self, src: SimHost, dst: SimHost) -> bool:
        if src.down or dst.down:
            return False
        if self.cut(src.addr, dst.addr):
            return False
        return True

    def connect(self, src: SimHost, dst_addr: str) -> "SimChannel":
        dst = self.hosts.get(dst_addr)
        src.binding_open = True
        if dst is None or dst.service is None:
            raise PeerUnreachable(f"no host at {dst_addr}")
        self.now = max(self.now, src.clock)
        if not self.reachable(src, dst):
            self.now += self.link.retry_timeout_ms
            src.clock = self.now
            raise PeerUnreachable(f"{dst_addr} unreachable")
        if not dst.accepts_from(src):
            raise PeerUnreachable(f"{dst_addr} NAT refuses inbound")
        return SimChannel(self, src, dst)


class SimChannel:
    def __init__(self, net: SimNet, src: SimHost, dst: SimHost):
        self.net = net
        self.src = src
        self.dst = dst
        self.remote_addr = dst.addr
        self.ctx = SessionContext(remote_addr=src.addr)
        self.session = dst.service.open_session(self.ctx)
        self._incarnations = (src.incarnation, dst.incarnation)
        self._closed = False

    @property
    def closed(self) -> bool:
        return self._closed or self._incarnations != (self.src.incarnation, self.dst.incarnation)

    def _latency(self) -> int:
        link = self.net.link
        jitter = self.net.rng.randint(0, link.latency_jitter_ms) if link.latency_jitter_ms else 0
        return link.latency_base_ms + jitter

    def _lost(self) -> bool:
        link = self.net.link
        return link.loss_rate > 0 and self.net.rng.random() < link.loss_rate

    def request(self, frame: Frame) -> Frame:
        net, src, dst, link = self.net, self.src, self.dst, self.net.link
        if self.closed:
            raise PeerUnreachable(f"connection to {dst.addr} was closed or reset")
        if net.now < src.clock:
            net.now = src.clock
        reply = None  # once answered, a retry resends this instead of handling again
        try:
            for _ in range(link.request_retries):
                if not net.reachable(src, dst) or self._lost():
                    net.now += link.retry_timeout_ms
                    continue
                net.now += self._latency()
                if net.now < dst.clock:
                    net.now = dst.clock
                net.trace_msg(src.addr, dst.addr, frame, "req")
                try:
                    if reply is None:
                        reply = self.session.handle(frame, self.ctx)
                finally:
                    dst.clock = net.now  # the callee answered, or resent its answer
                if reply is None:
                    # Deliberate silence (drop behavior): costs a timeout.
                    net.now += link.retry_timeout_ms
                    continue
                if self._lost():
                    net.now += link.retry_timeout_ms
                    continue
                net.now += self._latency()
                net.trace_msg(dst.addr, src.addr, reply, "rep")
                return reply
            raise PeerUnreachable(f"{dst.addr} did not answer")
        finally:
            src.clock = net.now

    def attach_reverse(self, service: Service) -> None:
        # The client's side of the connection, for the server to take over.
        self.ctx.reverse_service = SimpleNamespace(open_session=lambda ctx: _ReverseChannel(self, service))

    def close(self) -> None:
        self._closed = True


class _ReverseChannel(SimChannel):
    """The same connection the other way, as the server's session on it.

    Every frame the server sends down the taken-over connection is a
    request from the server's host to the client's, like any other. A
    failed request answers None. It is the client's channel: a close or a
    restart at either end ends both.
    """

    def __init__(self, forward: SimChannel, service: Service):
        self.net = forward.net
        self.src, self.dst = forward.dst, forward.src
        self.remote_addr = self.dst.addr
        self.ctx = SessionContext(remote_addr=self.src.addr)
        self.session = service.open_session(self.ctx)
        self._forward = forward

    closed = property(lambda self: self._forward.closed)

    def close(self) -> None:
        self._forward.close()

    def handle(self, frame: Frame, ctx: SessionContext) -> Frame | None:
        try:
            return self.request(frame)
        except PeerUnreachable:
            return None


class SimEndpoint:
    """Endpoint protocol over the simulator for one host."""

    def __init__(self, net: SimNet, host: SimHost):
        self.net = net
        self.host = host

    def connect(self, addr: str) -> SimChannel:
        return self.net.connect(self.host, addr)

    def local_addr(self) -> str:
        return self.host.addr


class SimStunProbes:
    """Probe surface backed by the host's assigned NAT behavior."""

    def __init__(self, host: SimHost):
        self.host = host
        self._symmetric_ports: dict[int, int] = {}
        self._next_port = 40000

    def local_endpoint(self) -> tuple[str, int]:
        if self.host.nat is NatType.PUBLIC:
            return (self.host.ip, self.host.port)
        return (self.host.private_ip, self.host.port)

    def probe(self, server: int = 0, change_address: bool = False, change_port: bool = False):
        nat = self.host.nat
        if self.host.down:
            return None
        self.host.binding_open = True
        if nat is NatType.PUBLIC:
            return (self.host.ip, self.host.port)
        if nat is NatType.SYMMETRIC:
            # A different destination requires a different NAT binding.
            if server not in self._symmetric_ports:
                self._symmetric_ports[server] = self._next_port
                self._next_port += 1
            mapped = (self.host.ip, self._symmetric_ports[server])
        else:
            # Cone NATs keep one stable external binding: the host address.
            mapped = (self.host.ip, self.host.port)
        if change_address:
            return mapped if nat is NatType.FULL_CONE else None
        if change_port:
            if nat in (NatType.FULL_CONE, NatType.ADDRESS_RESTRICTED):
                return mapped
            return None
        return mapped
