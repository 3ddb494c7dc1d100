"""Discrete-event network core: virtual clock, hosts, links, NAT, trace.

Connections are synchronous request/reply exchanges between host services;
every exchange samples link latency from the seeded generator, applies
loss, partitions and liveness, and appends structural records (time,
endpoints, message name, size) to the event trace. Identical config and
seed therefore reproduce a byte-identical trace: ciphertext bytes never
enter it, and all ciphertext encodings are length-deterministic.

Loss below the retry budget is absorbed the way the reliable datagram
layer would absorb it: an attempt that loses the request or the reply
costs a timeout and is retried; exhaustion raises peer_unreachable.

A connection does not outlive a restart of either end: taking a host down
starts a new incarnation, and a channel opened in an earlier one raises
peer_unreachable, as a TCP connection is reset by the crash of its peer.
"""
from __future__ import annotations

import heapq
import random
from dataclasses import dataclass
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
        self.binding_open = False  # any outbound traffic opens the NAT binding
        self.punched: set[str] = set()  # sources this host sent coordination traffic to
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
        if self.nat in (NatType.ADDRESS_RESTRICTED, NatType.PORT_RESTRICTED):
            return src.addr in self.punched
        return False  # symmetric

    def punch_toward(self, src_addr: str) -> None:
        """Model prior outbound traffic toward src (coordination extension)."""
        self.punched.add(src_addr)
        self.binding_open = True


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
        while self._events and self._events[0][0] <= until_ms:
            t, _, fn = heapq.heappop(self._events)
            if t > self.now:
                self.now = t
            try:
                fn()
            except PeerUnreachable:
                pass  # scheduled actions against dead/cut nodes just fail
        if until_ms > self.now:
            self.now = until_ms

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
        if not self.reachable(src, dst):
            self.now += self.link.retry_timeout_ms
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

    def _latency(self) -> int:
        link = self.net.link
        jitter = self.net.rng.randint(0, link.latency_jitter_ms) if link.latency_jitter_ms else 0
        return link.latency_base_ms + jitter

    def _lost(self) -> bool:
        link = self.net.link
        return link.loss_rate > 0 and self.net.rng.random() < link.loss_rate

    def request(self, frame: Frame) -> Frame:
        if self._incarnations != (self.src.incarnation, self.dst.incarnation):
            raise PeerUnreachable(f"connection to {self.dst.addr} was reset")
        link = self.net.link
        for _ in range(link.request_retries):
            if not self.net.reachable(self.src, self.dst):
                self.net.now += link.retry_timeout_ms
                continue
            if self._lost():
                self.net.now += link.retry_timeout_ms
                continue
            self.net.now += self._latency()
            self.net.trace_msg(self.src.addr, self.dst.addr, frame, "req")
            reply = self.session.handle(frame, self.ctx)
            if reply is None:
                # Deliberate silence (drop behavior): costs a timeout.
                self.net.now += link.retry_timeout_ms
                continue
            if self._lost():
                self.net.now += link.retry_timeout_ms
                continue
            self.net.now += self._latency()
            self.net.trace_msg(self.dst.addr, self.src.addr, reply, "rep")
            return reply
        raise PeerUnreachable(f"{self.dst.addr} did not answer")

    def attach_reverse(self, service: Service) -> None:
        self.ctx.reverse_service = service

    def close(self) -> None:
        pass


class SimEndpoint:
    """Endpoint protocol over the simulator for one host."""

    def __init__(self, net: SimNet, host: SimHost):
        self.net = net
        self.host = host
        self.rng = net.rng

    def connect(self, addr: str) -> SimChannel:
        return self.net.connect(self.host, addr)

    def now_ms(self) -> int:
        return self.net.now

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
