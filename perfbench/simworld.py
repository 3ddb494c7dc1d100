"""Simulator workloads: ring_scale (global mode) and history_sync (one server).

The world is built from the program's public classes the way
friendmesh.simnet.scenario builds one, except that ring, relay and peer
upkeep run through the simulator's scheduler from the first bootstrap on,
so relays stay fresh however long set-up takes in virtual time. Every
choice comes from the seed; host time never feeds back into the world.
"""
from __future__ import annotations

import random

import checks
from common import World

from friendmesh import identity, rvclient
from friendmesh.caservice import CAService
from friendmesh.config import PeerConfig, RelayConfig, RendezvousConfig
from friendmesh.errors import ProtocolError
from friendmesh.nat import NatType
from friendmesh.peer import Peer
from friendmesh.relay import RelayServer
from friendmesh.rendezvous import RendezvousServer
from friendmesh.simnet.core import LinkModel, SimNet, SimStunProbes
from friendmesh.simnet.scenario import CA_ADDR, peer_addr, relay_addr, rendezvous_addr
from friendmesh.store import MemoryStore

STABILIZE_MS = 2000  # scenario defaults (scenarios/SCHEMA.md)
PEER_TICK_MS = 2000


class SimWorld(World):
    """One simulated deployment."""

    round_gap_ms = 250  # virtual time per round beyond the operations', so upkeep keeps its share

    def __init__(self, seed: int, n_servers: int, n_relays: int, n_peers: int,
                 global_mode: bool, nat_share: float, chords: tuple[int, ...],
                 mirror_every: int):
        super().__init__(seed, n_peers, chords, mirror_every)
        self.sim = SimNet(seed=seed, link=LinkModel(latency_base_ms=2, latency_jitter_ms=3))
        self.global_mode = global_mode
        n_nat = int(n_peers * nat_share)
        natted = self.rng.sample(self.names, 2 * n_nat)
        self.nat = {n: NatType.SYMMETRIC for n in natted[:n_nat]}
        self.nat.update({n: NatType.FULL_CONE for n in natted[n_nat:]})
        self.addr = {n: peer_addr(i) for i, n in enumerate(self.names)}
        self.upkeep_spans: list[tuple[int, int]] = []
        self.virtual_clock = self.sim.now_ms
        self._build(n_servers, n_relays)
        self.oracle = checks.SuccessorOracle(self.servers) if global_mode else None
        self.befriend_all()

    # -- build ----------------------------------------------------------------

    def _build(self, n_servers: int, n_relays: int) -> None:
        sim = self.sim
        self.ca = identity.CAState("bench-ca", identity.generate_keypair(identity.DEFAULT_ALGORITHM))
        sim.add_host(CA_ADDR, CAService(self.ca), NatType.PUBLIC)
        self.servers: dict[str, RendezvousServer] = {}
        for i in range(n_servers):
            addr = rendezvous_addr(i)
            host = sim.add_host(addr, None, NatType.PUBLIC)
            server = RendezvousServer(
                addr=addr,
                config=RendezvousConfig(ring_enabled=self.global_mode,
                                        stabilization_period_ms=STABILIZE_MS),
                ca_public_key=self.ca.public_key, ca_algorithm=self.ca.algorithm_id,
                store=MemoryStore(), endpoint=host.endpoint(),
                rng=random.Random(f"{self.seed}:rv:{addr}"), clock=sim.now_ms,
                on_event=sim.trace_event,
            )
            sim.set_service(addr, server)
            self.servers[addr] = server
        if self.global_mode and n_servers > 1:
            addrs = sorted(self.servers)
            for addr in addrs[1:]:
                self.servers[addr].join_ring(addrs[0])
                for _ in range(2):
                    for other in addrs:
                        self.servers[other].tick()
            for _ in range(3):
                for addr in addrs:
                    self.servers[addr].tick()
            for addr in addrs:
                self.servers[addr].ring.fix_fingers()
        self.relays: dict[str, RelayServer] = {}
        for i in range(n_relays):
            addr = relay_addr(i)
            host = sim.add_host(addr, None, NatType.PUBLIC)
            rv_host, rv_port = rendezvous_addr(i % n_servers).rsplit(":", 1)
            relay = RelayServer(
                addr=addr,
                config=RelayConfig(rendezvous_addr=rv_host, rendezvous_port=int(rv_port),
                                   port=7300, max_connections=16),
                ca_public_key=self.ca.public_key, ca_algorithm=self.ca.algorithm_id,
                endpoint=host.endpoint(), rng=random.Random(f"{self.seed}:relay:{addr}"),
                clock=sim.now_ms,
            )
            sim.set_service(addr, relay)
            relay.register_with_rendezvous()
            self.relays[addr] = relay
        self.peers: dict[str, Peer] = {}
        for name in self.names:
            host = sim.add_host(self.addr[name], None, self.nat.get(name, NatType.PUBLIC))
            peer = Peer(
                config=PeerConfig(username=name, port=host.port, ca_addr=CA_ADDR,
                                  rendezvous_addrs=sorted(self.servers),
                                  global_mode=self.global_mode),
                endpoint=host.endpoint(), ca_public_key=self.ca.public_key,
                ca_algorithm=self.ca.algorithm_id, probes=SimStunProbes(host),
                rng=random.Random(f"{self.seed}:peer:{name}"), clock=sim.now_ms,
                on_event=sim.trace_event,
            )
            sim.set_service(self.addr[name], peer)
            self.peers[name] = peer
        # Upkeep looks its method up on each firing, so a traced run sees it.
        for addr in sorted(self.servers):
            self._every(STABILIZE_MS, lambda s=self.servers[addr]: s.tick())
        for addr in sorted(self.relays):
            relay = self.relays[addr]
            self._every(relay.config.ping_interval_ms, lambda r=relay: r.tick())
        for name in self.names:
            self._every(PEER_TICK_MS, lambda p=self.peers[name]: p.tick())
        for name in self.names:
            self.settle()
            self.peers[name].bootstrap()

    def _every(self, period: int, fn) -> None:
        sim = self.sim

        def fire(t: int) -> None:
            sim.schedule_at(t + period, lambda: fire(t + period))
            try:
                fn()
            except ProtocolError:
                pass  # as in the scenario runner: the next period tries again

        start = sim.now + period
        sim.schedule_at(start, lambda: fire(start))

    def settle(self, gap_ms: int = 0) -> None:
        """Run the upkeep that fell due (and `gap_ms` more virtual time)."""
        first = len(self.sim.trace)
        self.sim.run(self.sim.now + gap_ms)
        self.upkeep_spans.append((first, len(self.sim.trace)))

    def traffic_mark(self) -> int:
        self.upkeep_spans.clear()
        return len(self.sim.trace)

    def traffic(self, first: int) -> dict:
        """From the MSG trace records since index `first`."""
        out = {c: [0, 0] for c in ("ring", "rendezvous", "peer", "relay")}
        requests = 0
        trace = self.sim.trace
        for line in trace[first:]:
            parts = line.split()
            if parts[1] != "MSG":
                continue
            cls = out[self.msg_class(parts[2], parts[3], parts[4], parts[5])]
            cls[0] += 1
            cls[1] += int(parts[6])
            requests += parts[2] == "req"
        maint = sum(1 for a, b in self.upkeep_spans for line in trace[a:b]
                    if " MSG " in line and line.split()[5].startswith("ring_"))
        return {"classes": out, "maint": maint, "requests": requests}

    def clock_past(self, owner: str, stamp: int) -> None:
        if self.sim.now <= stamp:
            self.sim.now = stamp + 1  # due upkeep runs at the next settle()

    def registration_servers(self, name: str) -> list[str]:
        if self.oracle is None:
            return [sorted(self.servers)[0]]
        return sorted({self.oracle.successor(checks.md5_id(name)),
                       self.oracle.successor(checks.sha1_id(name))})

    def located_address(self, name: str) -> tuple[str, set]:
        ip, port = self.addr[name].rsplit(":", 1)
        if self.nat.get(name) is NatType.SYMMETRIC:
            return ip, {(a.rsplit(":", 1)[0], int(a.rsplit(":", 1)[1])) for a in self.relays}
        return ip, {int(port)}

    def expected_rows(self, name: str) -> set:
        if self.oracle is None:
            return {(sorted(self.servers)[0], 0, False)}
        return self.oracle.expected_rows(name)

    def held_rows(self) -> dict:
        held: dict[str, set] = {}
        for addr, server in self.servers.items():
            for row in server.store.peer_rows():
                held.setdefault(row.record.username, set()).add((addr, row.ring_id, row.replica))
        return held

    # -- message accounting -------------------------------------------------------

    def msg_class(self, kind: str, src: str, dst: str, name: str) -> str:
        server_side = dst if kind == "req" else src
        if name.startswith("ring_"):
            return "ring"
        if server_side in self.relays:
            return "relay"
        if server_side in self.servers or server_side == CA_ADDR:
            return "rendezvous"
        return "peer"


class ChordAnswers:
    """Checks every chord answer a peer receives against the oracle."""

    def __init__(self):
        self.oracle = None
        self._inner = rvclient.chord_lookup

    def install(self, oracle) -> None:
        self.oracle = oracle
        inner = self._inner

        def checked(channel, ident):
            addr, hops = inner(channel, ident)
            if self.oracle is not None:
                self.oracle.check_lookup(ident, addr, hops)
            return addr, hops

        rvclient.chord_lookup = checked


def build_ring_scale(seed: int) -> SimWorld:
    return SimWorld(seed, n_servers=24, n_relays=2, n_peers=200, global_mode=True,
                    nat_share=0.1, chords=(1,), mirror_every=4)


# Entries per profile grow in batches small enough that every exchange
# stays below the 64 KiB field limit (about 68 bytes an entry).
HISTORY_BATCHES = 5
HISTORY_BATCH = 400


def build_history_sync(seed: int) -> SimWorld:
    world = SimWorld(seed, n_servers=1, n_relays=0, n_peers=6, global_mode=False,
                     nat_share=0.0, chords=(1,), mirror_every=2)
    rng = random.Random(f"history:{seed}")
    for _batch in range(HISTORY_BATCHES):
        for owner in world.names:
            for _ in range(HISTORY_BATCH + rng.randrange(8)):
                world.post(owner)
            world.settle()
            if owner in world.mirrors:
                world.peers[owner].sync_mirrors()
            for reader in sorted(world.friends[owner]):
                view, box = world.view(reader, owner)
                world.peers[reader].pull_friend_profile(owner, into=view)
                box.clear()
    return world


RING_SCALE_MIX = ("post", "register", "locate", "locate", "pull", "pull", "write", "sync")
HISTORY_SYNC_MIX = ("post", "post", "write", "write", "write", "pull", "pull", "sync",
                    "locate", "locate", "locate", "register", "register", "register")
