"""Declarative scenarios: topology, friendships, workload, faults, attacks.

A scenario builds a complete world (CA, rendezvous ring, relays, peers),
establishes friendships and mirrors synchronously, then schedules the
periodic workload: posts, pulls, mirror syncs, keepalives, stabilization,
partitions, churn and adversary activation. All times in the config are
offsets from workload start; identical config and seed reproduce a
byte-identical trace.
"""
from __future__ import annotations

import json
import random
from dataclasses import asdict, dataclass, field

from .. import identity
from ..caservice import CAService
from ..config import PeerConfig, RelayConfig, RendezvousConfig
from ..errors import ConfigError, ProtocolError
from ..nat import NatType
from ..peer import Peer
from ..profile import Profile, op_add
from ..relay import RelayServer
from ..rendezvous import RendezvousServer
from ..store import MemoryStore
from .adversary import AdversaryScript, AdversaryService, FalsifyingStore
from .core import LinkModel, SimNet, SimStunProbes
from .metrics import Metrics, metrics_from_trace

CA_ADDR = "10.0.0.1:7100"


@dataclass
class SimConfig:
    seed: int = 0
    duration_ms: int = 30_000
    n_rendezvous: int = 1
    n_relays: int = 1
    n_peers: int = 4
    global_mode: bool = False
    ring_bits: int = 128
    peer_names: list | None = None  # explicit usernames; None = user00..
    nat_assignment: dict = field(default_factory=dict)  # username -> nat value
    latency_base_ms: int = 2
    latency_jitter_ms: int = 3
    loss_rate: float = 0.0
    partitions: list = field(default_factory=list)  # {nodes:[...], start, end}
    churn: list = field(default_factory=list)  # {node, down_at, up_at}
    adversaries: list = field(default_factory=list)  # AdversaryScript dicts
    friendships: list | None = None  # [[a, b], ...]; None = ring of peers
    mirrors: list = field(default_factory=list)  # [[owner, mirror], ...]
    rebootstrap: list = field(default_factory=list)  # {peer, at}: re-run registration
    friend_writes: list = field(default_factory=list)  # {author, owner, interval}
    complaint_threshold: int = 3
    notification_threshold: int = 3
    stabilize_interval_ms: int = 2000
    post_interval_ms: int = 4000
    pull_interval_ms: int = 3000
    sync_interval_ms: int = 5000
    tick_interval_ms: int = 2000

    def canonical_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True, separators=(",", ":"))

    @classmethod
    def from_dict(cls, data: dict) -> "SimConfig":
        known = {f for f in cls.__dataclass_fields__}
        unknown = set(data) - known
        if unknown:
            raise ConfigError(f"unknown scenario fields: {sorted(unknown)}")
        return cls(**data)

    @classmethod
    def from_json(cls, text: str) -> "SimConfig":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"scenario parse error: {exc}") from exc
        return cls.from_dict(data)


def peer_name(i: int) -> str:
    return f"user{i:02d}"


def rendezvous_addr(i: int) -> str:
    return f"10.9.0.{i}:7200"


def relay_addr(i: int) -> str:
    return f"10.3.0.{i}:7300"


def peer_addr(i: int) -> str:
    return f"10.2.{i // 250}.{i % 250}:7500"


class Scenario:
    def __init__(self, config: SimConfig):
        self.config = config
        self.sim = SimNet(
            seed=config.seed,
            link=LinkModel(
                latency_base_ms=config.latency_base_ms,
                latency_jitter_ms=config.latency_jitter_ms,
                loss_rate=config.loss_rate,
            ),
        )
        self.ca = identity.CAState(
            "sim-ca", identity.generate_keypair()
        )
        self.servers: dict[str, RendezvousServer] = {}
        self.relays: dict[str, RelayServer] = {}
        self.peers: dict[str, Peer] = {}
        self.reader_views: dict[tuple[str, str], Profile] = {}
        self._post_counter = 0
        self.workload_start = 0
        self._build()

    # ------------------------------------------------------------------ build

    def _build(self) -> None:
        config = self.config
        sim = self.sim
        sim.add_host(CA_ADDR, CAService(self.ca), NatType.PUBLIC)

        for i in range(config.n_rendezvous):
            addr = rendezvous_addr(i)
            host = sim.add_host(addr, None, NatType.PUBLIC)
            server = RendezvousServer(
                addr=addr,
                config=RendezvousConfig(
                    ring_enabled=config.global_mode,
                    ring_bits=config.ring_bits,
                    complaint_threshold=config.complaint_threshold,
                    stabilization_period_ms=config.stabilize_interval_ms,
                ),
                ca_public_key=self.ca.public_key,
                store=MemoryStore(),
                endpoint=host.endpoint(),
                rng=random.Random(f"{config.seed}:rv:{addr}"),
                clock=sim.now_ms,
                on_event=sim.trace_event,
            )
            sim.set_service(addr, server)
            self.servers[addr] = server

        if config.global_mode and config.n_rendezvous > 1:
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

        for i in range(config.n_relays):
            addr = relay_addr(i)
            host = sim.add_host(addr, None, NatType.PUBLIC)
            rv = rendezvous_addr(i % config.n_rendezvous)
            rv_host, rv_port = rv.rsplit(":", 1)
            relay = RelayServer(
                addr=addr,
                config=RelayConfig(
                    rendezvous_addr=rv_host,
                    rendezvous_port=int(rv_port),
                    port=int(addr.rsplit(":", 1)[1]),
                    max_connections=16,
                ),
                ca_public_key=self.ca.public_key,
                endpoint=host.endpoint(),
                rng=random.Random(f"{config.seed}:relay:{addr}"),
                clock=sim.now_ms,
            )
            sim.set_service(addr, relay)
            relay.register_with_rendezvous()
            self.relays[addr] = relay

        server_addrs = sorted(self.servers)
        names = config.peer_names or [peer_name(i) for i in range(config.n_peers)]
        for i, username in enumerate(names):
            addr = peer_addr(i)
            nat = NatType(config.nat_assignment.get(username, "public"))
            host = sim.add_host(addr, None, nat)
            peer = Peer(
                config=PeerConfig(
                    username=username,
                    port=host.port,
                    ca_addr=CA_ADDR,
                    rendezvous_addrs=server_addrs,
                    global_mode=config.global_mode,
                    notification_threshold=config.notification_threshold,
                ),
                endpoint=host.endpoint(),
                ca_public_key=self.ca.public_key,
                probes=SimStunProbes(host),
                rng=random.Random(f"{config.seed}:peer:{username}"),
                clock=sim.now_ms,
                on_event=sim.trace_event,
            )
            peer.ring_bits = config.ring_bits
            sim.set_service(addr, peer)
            self.peers[username] = peer

        for username in sorted(self.peers):
            self.peers[username].bootstrap()

        for a, b in self._friend_edges():
            self.befriend(a, b)

        for owner, mirror in config.mirrors:
            self.peers[owner].add_mirror(mirror)

        self._apply_adversaries()
        self.workload_start = sim.now
        sim.trace_event("workload_start", t=sim.now)

    def _friend_edges(self) -> list[tuple[str, str]]:
        if self.config.friendships is not None:
            return [tuple(edge) for edge in self.config.friendships]
        names = sorted(self.peers)
        if len(names) < 2:
            return []
        return [(names[i], names[(i + 1) % len(names)]) for i in range(len(names) - (len(names) == 2))]

    def befriend(self, a: str, b: str) -> None:
        """Request, pick up at re-registration, accept, exchange keys."""
        self.peers[a].send_friend_request(b)
        self.peers[b].reregister()
        self.peers[b].accept_friend(a)

    # ------------------------------------------------------------------ adversaries

    def _apply_adversaries(self) -> None:
        for raw in self.config.adversaries:
            script = AdversaryScript(**raw) if isinstance(raw, dict) else raw
            self.spawn_adversary(script)

    def spawn_adversary(self, script: AdversaryScript) -> None:
        sim = self.sim
        offset = self.sim.now
        script.start_ms += offset
        if script.end_ms is not None:
            script.end_ms += offset
        self.sim.trace_event(
            "adversary",
            behaviors=",".join(script.behaviors),
            targets=",".join(script.targets),
            start=script.start_ms,
        )
        for target in script.targets:
            server = self.servers.get(target)
            if server is None:
                continue
            if "falsify_record" in script.behaviors:
                # Lookups read the wrapper; the ring keeps the inner store,
                # which holds the same rows (the wrapper only lies on reads).
                server.store = FalsifyingStore(server.store, sim, script)
            wire_behaviors = {"drop_lookups", "misroute", "claim_key", "eclipse_attempt"}
            if wire_behaviors & set(script.behaviors):
                sim.set_service(
                    target,
                    AdversaryService(server, sim, script, target, self.config.ring_bits),
                )
        if "sybil_spawn" in script.behaviors and script.count:
            sim.schedule_at(script.start_ms, lambda: self._spawn_sybils(script))

    def _spawn_sybils(self, script: AdversaryScript) -> None:
        """Attacker-controlled rendezvous servers join the ring."""
        sim = self.sim
        rng = random.Random(f"{self.config.seed}:sybil")
        bootstrap = sorted(self.servers)[0]
        for i in range(script.count):
            addr = f"10.66.{rng.randrange(250)}.{rng.randrange(250)}:{7000 + i}"
            if addr in sim.hosts:
                continue
            host = sim.add_host(addr, None, NatType.PUBLIC)
            server = RendezvousServer(
                addr=addr,
                config=RendezvousConfig(
                    ring_enabled=self.config.global_mode, ring_bits=self.config.ring_bits
                ),
                ca_public_key=self.ca.public_key,
                store=MemoryStore(),
                endpoint=host.endpoint(),
                rng=random.Random(f"{self.config.seed}:sybil:{addr}"),
                clock=sim.now_ms,
                on_event=sim.trace_event,
            )
            sim.set_service(addr, server)
            self.servers[addr] = server
            try:
                server.join_ring(bootstrap)
            except ProtocolError:
                continue
            interval = self.config.stabilize_interval_ms
            sim.schedule_every(
                interval,
                self._guarded(server.tick),
                self.workload_start + self.config.duration_ms,
                start_ms=sim.now + interval,
            )
        sim.trace_event("sybils_joined", count=script.count)

    # ------------------------------------------------------------------ workload

    def _guarded(self, fn, *args, **kwargs):
        def run():
            try:
                fn(*args, **kwargs)
            except ProtocolError:
                pass

        return run

    def schedule_workload(self) -> None:
        config = self.config
        sim = self.sim
        start = self.workload_start
        end = start + config.duration_ms

        for addr in sorted(self.servers):
            sim.schedule_every(
                config.stabilize_interval_ms,
                self._guarded(self.servers[addr].tick),
                end,
                start_ms=start + config.stabilize_interval_ms,
            )
        for addr in sorted(self.relays):
            relay = self.relays[addr]
            sim.schedule_every(
                relay.config.ping_interval_ms,
                self._guarded(relay.tick),
                end,
                start_ms=start + relay.config.ping_interval_ms,
            )
        for username in sorted(self.peers):
            peer = self.peers[username]
            sim.schedule_every(
                config.tick_interval_ms,
                self._guarded(self._peer_tick, peer),
                end,
                start_ms=start + config.tick_interval_ms,
            )
            sim.schedule_every(
                config.post_interval_ms,
                self._guarded(self._do_post, peer),
                end,
                start_ms=start + config.post_interval_ms,
            )
            if any(owner == username for owner, _ in self.config.mirrors):
                sim.schedule_every(
                    config.sync_interval_ms,
                    self._guarded(self._do_sync, peer),
                    end,
                    start_ms=start + config.sync_interval_ms,
                )
        for a, b in self._friend_edges():
            for reader, owner in ((a, b), (b, a)):
                sim.schedule_every(
                    config.pull_interval_ms,
                    self._make_pull(reader, owner),
                    end,
                    start_ms=start + config.pull_interval_ms,
                )

        for item in config.friend_writes:
            sim.schedule_every(
                item.get("interval", config.post_interval_ms),
                self._guarded(self._do_friend_write, item["author"], item["owner"]),
                end,
                start_ms=start + item.get("interval", config.post_interval_ms),
            )

        for part in config.partitions:
            sim.inject_partition(
                [self._node_addr(n) for n in part["nodes"]],
                start + part["start"],
                start + part["end"],
            )
        for item in config.churn:
            addr = self._node_addr(item["node"])
            sim.schedule_at(start + item["down_at"], lambda a=addr: sim.set_down(a, True))
            sim.schedule_at(start + item["up_at"], lambda a=addr: sim.set_down(a, False))

        for item in config.rebootstrap:
            sim.schedule_at(
                start + item["at"],
                self._guarded(self._do_rebootstrap, item["peer"]),
            )

        sim.schedule_at(end - 1, self._final_snapshot)

    def _do_rebootstrap(self, username: str) -> None:
        peer = self.peers[username]
        peer.bootstrap()
        self.sim.trace_event(
            "rebootstrap", peer=username, servers=",".join(peer.state.registered_at)
        )

    def _node_addr(self, name: str) -> str:
        if name in self.peers:
            return self.peers[name].endpoint.local_addr()
        return name  # already an address (servers, relays)

    def _peer_tick(self, peer: Peer) -> None:
        if self.sim.hosts[peer.endpoint.local_addr()].down:
            return
        peer.tick()

    def _do_post(self, peer: Peer) -> None:
        if self.sim.hosts[peer.endpoint.local_addr()].down:
            return
        self._post_counter += 1
        peer.profile.apply_update(
            peer.username,
            "share_board",
            op_add(f"post{self._post_counter}", b"note %d" % self._post_counter),
            timestamp=self.sim.now,
        )
        self.sim.trace_event("post", peer=peer.username, n=self._post_counter)

    def _do_friend_write(self, author: str, owner: str) -> None:
        peer = self.peers[author]
        if self.sim.hosts[peer.endpoint.local_addr()].down:
            return
        self._post_counter += 1
        try:
            peer.write_to_friend(
                owner,
                "share_board",
                op_add(f"comment{self._post_counter}", b"by %s" % author.encode()),
            )
            self.sim.trace_event("friend_write_ok", author=author, owner=owner)
        except ProtocolError as exc:
            self.sim.trace_event("friend_write_fail", author=author, owner=owner, err=exc.code)

    def _do_sync(self, peer: Peer) -> None:
        if self.sim.hosts[peer.endpoint.local_addr()].down:
            return
        peer.sync_mirrors()
        self._emit_replica_states(peer.username)

    def _emit_replica_states(self, owner: str) -> None:
        digest = self.peers[owner].profile.state_digest().hex()[:12]
        self.sim.trace_event("replica_state", owner=owner, holder=owner, digest=digest)
        for holder_name in sorted(self.peers):
            replica = self.peers[holder_name].replicas.get(owner)
            if replica is not None:
                self.sim.trace_event(
                    "replica_state",
                    owner=owner,
                    holder=holder_name,
                    digest=replica.profile.state_digest().hex()[:12],
                )

    def _make_pull(self, reader: str, owner: str):
        def pull():
            peer = self.peers[reader]
            if self.sim.hosts[peer.endpoint.local_addr()].down:
                return
            view = self.reader_views.setdefault((reader, owner), Profile(owner))
            try:
                peer.pull_friend_profile(owner, into=view)
                self.sim.trace_event("pull_ok", peer=reader, owner=owner)
            except ProtocolError as exc:
                self.sim.trace_event("pull_fail", peer=reader, owner=owner, err=exc.code)

        return pull

    def _final_snapshot(self) -> None:
        honest = [a for a in sorted(self.servers) if not a.startswith("10.66.")]
        if self.config.global_mode and honest:
            oracle = self.servers[honest[0]]
            for username in sorted(self.peers):
                ids = self.peers[username].my_ids()
                try:
                    md5_owner = oracle.ring.find_successor(ids.id_md5).addr
                    sha1_owner = oracle.ring.find_successor(ids.id_sha1).addr
                except ProtocolError:
                    continue
                self.sim.trace_event(
                    "key_owner", user=username, md5=md5_owner, sha1=sha1_owner
                )
        for owner in sorted({o for o, _ in self.config.mirrors}):
            self._emit_replica_states(owner)

    # ------------------------------------------------------------------ run

    def run(self) -> tuple[Metrics, str]:
        self.schedule_workload()
        self.sim.run(self.workload_start + self.config.duration_ms)
        trace = f"#config {self.config.canonical_json()}\n" + self.sim.trace_text()
        return metrics_from_trace(trace), trace


def run_scenario(config: SimConfig) -> tuple[Metrics, str]:
    return Scenario(config).run()
