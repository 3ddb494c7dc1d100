"""Pieces shared by every workload: timing, the update ledger, and the
adapters that turn program objects into the plain values checks.py reads."""
from __future__ import annotations

import hashlib
import random
import statistics
import time
from collections import defaultdict

import checks
from cryptography.hazmat.primitives import hashes
from cryptography.hazmat.primitives.asymmetric import ec

from friendmesh.errors import ProtocolError
from friendmesh.profile import Profile, op_add

OP_KINDS = ("register", "locate", "pull", "write", "sync")
# Friends are granted read or write on every component (peer._FRIEND_GRANTS),
# and write implies read, so a friend may read every component.
FRIEND_READABLE = set(checks.COMPONENTS)


class OpFailed(Exception):
    pass


# Every timing is host time scaled to a reference host speed. On a shared
# 2-CPU VM the host's speed switched between fast and slow phases of
# 10-40 s (a fixed block of work took 30-68 ms), which moved raw timings by
# 0.17-0.21 of their median across fresh runs. The reference block below is
# timed at the start of every round; an operation's host time is multiplied
# by REFERENCE_NS over the median block time of the rounds around it, so it
# reads as on a host where the block takes exactly 1 ms. The block does what
# the program does most (short Python calls, md5 idents, int.from_bytes,
# small objects, an ECDSA verify) without calling the program, so host
# drift cancels while a slower program still reads slower.
REFERENCE_NS = 1_000_000
SPEED_WINDOW = 4  # rounds on each side whose block times give a round's speed
SETUP_BLOCKS = 5  # blocks timed before a build, and as many after it

_CAL_KEY = ec.derive_private_key(0xB0B, ec.SECP256R1())
_CAL_MSG = b"perfbench reference block"
_CAL_SIG = _CAL_KEY.sign(_CAL_MSG, ec.ECDSA(hashes.SHA256()))
_CAL_PUB = _CAL_KEY.public_key()


def _cal_ident(text: str) -> int:
    return int.from_bytes(hashlib.md5(text.encode()).digest(), "big") >> 96


class _CalEntry:
    __slots__ = ("key", "value", "tag")

    def __init__(self, key, value, tag):
        self.key = key
        self.value = value
        self.tag = tag


def reference_block_ns() -> int:
    """Host time of one fixed block of work, 0.8-2 ms on a 2-CPU VM."""
    t0 = time.perf_counter_ns()
    acc = 0
    seen = {}
    for i in range(250):
        key = f"n{i}:{acc & 255}"
        value = _cal_ident(key)
        seen[key] = _CalEntry(key, value, (i, key))
        acc = acc + (value >> 20) if value & 1 else acc ^ len(seen)
    entries = [_CalEntry(i, str(i), (i,)) for i in range(1000)]
    acc += sum(e.key for e in entries if e.value) + sum(e.value & 7 for e in seen.values())
    _CAL_PUB.verify(_CAL_SIG, _CAL_MSG, ec.ECDSA(hashes.SHA256()))
    return time.perf_counter_ns() - t0


def timed_scaled(fn, *args):
    """(result, scaled seconds, host seconds) of fn(*args): its host time,
    and that time scaled to reference speed by the median of SETUP_BLOCKS
    reference blocks timed before it and SETUP_BLOCKS after it."""
    cal = [reference_block_ns() for _ in range(SETUP_BLOCKS)]
    t0 = time.perf_counter_ns()
    result = fn(*args)
    elapsed = time.perf_counter_ns() - t0
    cal += [reference_block_ns() for _ in range(SETUP_BLOCKS)]
    return result, elapsed * REFERENCE_NS / statistics.median(cal) / 1e9, elapsed / 1e9


class Recorder:
    """Host-time samples per operation kind plus upkeep time, in ns, each
    tagged with its round so that it can be scaled by the round's speed."""

    def __init__(self, tracer=None, virtual_clock=None):
        self.samples: dict[str, list[tuple[int, int]]] = defaultdict(list)  # (ns, round)
        self.virtual_ms: dict[str, int] = defaultdict(int)
        self.upkeep_ns: list[int] = []  # per round
        self.block_ns: list[int] = []  # the reference block, per round
        self.failed = 0
        self.tracer = tracer  # told which operation is in flight, when tracing
        self.virtual_clock = virtual_clock  # the simulator's clock, for reference figures
        self._scale: list[float] | None = None

    def start_round(self) -> None:
        self.block_ns.append(reference_block_ns())
        self.upkeep_ns.append(0)
        self._scale = None

    def time(self, kind: str, fn, *args, **kwargs):
        """Time one operation. A protocol error counts it as failed and
        raises OpFailed, which skips the operation's checks."""
        if self.tracer is not None:
            self.tracer.op_id = self.ops + self.failed + 1
        v0 = self.virtual_clock() if self.virtual_clock else 0
        t0 = time.perf_counter_ns()
        try:
            result = fn(*args, **kwargs)
        except ProtocolError as exc:
            self.failed += 1
            raise OpFailed(f"{kind}: {exc.code}") from exc
        finally:
            if self.tracer is not None:
                self.tracer.op_id = 0
        self.samples[kind].append((time.perf_counter_ns() - t0, len(self.block_ns) - 1))
        if self.virtual_clock:
            self.virtual_ms[kind] += self.virtual_clock() - v0
        return result

    def upkeep(self, fn, *args):
        t0 = time.perf_counter_ns()
        fn(*args)
        self.upkeep_ns[-1] += time.perf_counter_ns() - t0

    def scale(self) -> list[float]:
        """Per round: REFERENCE_NS over the median block time of the rounds
        within SPEED_WINDOW of it."""
        if self._scale is None:
            blocks, w = self.block_ns, SPEED_WINDOW
            self._scale = [REFERENCE_NS / statistics.median(blocks[max(0, i - w):i + w + 1])
                           for i in range(len(blocks))]
        return self._scale

    def speed_factor(self) -> float:
        """REFERENCE_NS over the run's median block time, for figures that
        are not tied to a round (per-layer self times)."""
        return REFERENCE_NS / statistics.median(self.block_ns)

    def scaled_ns(self, kind: str) -> list[float]:
        scale = self.scale()
        return sorted(ns * scale[r] for ns, r in self.samples.get(kind, ()))

    @property
    def ops(self) -> int:
        return sum(len(v) for v in self.samples.values())

    @property
    def busy_s(self) -> float:
        """Operations and upkeep, scaled to reference speed."""
        scale = self.scale()
        ops = sum(ns * scale[r] for v in self.samples.values() for ns, r in v)
        return (ops + sum(ns * f for ns, f in zip(self.upkeep_ns, scale))) / 1e9

    def ops_per_s(self) -> float:
        return self.ops / self.busy_s

    def p50_ms(self, kind: str) -> float:
        return statistics.median(self.scaled_ns(kind)) / 1e6

    def summary(self) -> dict:
        """p50, p90 and count per kind, the unscaled host p50 and the
        reference block's quartiles: the reference figures of the README."""
        out = {"block_ms_quartiles": [q / 1e6 for q in statistics.quantiles(self.block_ns, n=4)]}
        for kind in OP_KINDS:
            values = self.scaled_ns(kind)
            if values:
                out[kind] = {
                    "p50_ms": statistics.median(values) / 1e6,
                    "p90_ms": values[int(0.9 * (len(values) - 1))] / 1e6,
                    "n": len(values),
                    "host_p50_ms": statistics.median(ns for ns, _ in self.samples[kind]) / 1e6,
                }
                if self.virtual_clock:
                    out[kind]["sim_ms_mean"] = self.virtual_ms[kind] / len(values)
        return out


def entry_key(entry) -> tuple:
    return (entry.path, entry.author, entry.op, entry.timestamp)


def entry_tuple(entry) -> tuple:
    return (entry.path, entry.version, entry.author, entry.op, entry.timestamp)


def tree_of(profile) -> dict:
    """The profile's element tree in checks.replay_tree's shape."""
    out = {}

    def visit(element, path):
        perms = None
        if element.permissions is not None:
            t = element.permissions
            perms = (tuple(sorted(t.read)), tuple(sorted(t.write)), tuple(sorted(t.no_access)))
        out[path] = (element.content, perms)
        for name, child in element.children.items():
            visit(child, f"{path}/{name}")

    for component, element in profile.root.items():
        visit(element, component)
    return out


def record_fields(record) -> dict:
    return {
        "ip": record.ip,
        "port": record.port,
        "protocol": record.protocol,
        "relay_address": record.relay_address,
        "relay_port": record.relay_port,
        "passphrase": record.passphrase,
        "encrypted_mirror_list": record.encrypted_mirror_list,
        "digest": record.signed_digest.digest,
        "signature": record.signed_digest.signature,
    }


class Ledger:
    """Every content update the benchmark made, per profile owner."""

    def __init__(self):
        self.updates: dict[str, list[tuple]] = defaultdict(list)

    def add(self, owner: str, path: str, author: str, op: bytes) -> None:
        self.updates[owner].append((path, author, op))

    def readable(self, owner: str, reader: str, friends: dict) -> list[tuple]:
        if reader != owner and reader not in friends[owner]:
            return []
        return [u for u in self.updates[owner]
                if reader == owner or checks.component_of(u[0]) in FRIEND_READABLE]


class ProfileChecker:
    """Checks a kept view after each pull, replicas after each sync, and
    that every log replays to its profile."""

    def __init__(self, ledger: Ledger, friends: dict):
        self.ledger = ledger
        self.friends = friends
        self.sent_total = 0
        self.lacked_total = 0
        self.pulls = 0

    def capture(self, view):
        """Record what each merge into `view` receives (the pulled entries)."""
        box = []

        def capturing(entries):
            entries = list(entries)
            box.append(entries)
            return type(view).merge_entries(view, entries)

        view.merge_entries = capturing
        return box

    def before_pull(self, owner_profile, view) -> list:
        have = {entry_key(e) for e in view.log}
        return [entry_key(e) for e in owner_profile.log
                if checks.component_of(e.path) in FRIEND_READABLE and entry_key(e) not in have]

    def after_pull(self, owner: str, reader: str, view, box: list, lacked: list) -> None:
        sent = [entry_key(e) for e in box.pop()] if box else []
        checks.check_pull_minimal(sent, lacked, owner)
        self.sent_total += len(sent)
        self.lacked_total += len(lacked)
        self.pulls += 1
        content = [(e.path, e.author, e.op) for e in view.log if checks.op_kind(e.op) != b"perm"]
        checks.check_view(content, self.ledger.readable(owner, reader, self.friends), owner)
        perms = sum(1 for e in view.log if checks.op_kind(e.op) == b"perm")
        if perms != 5 * len(self.friends[owner]):
            raise checks.CheckFailed(
                f"view of {owner} holds {perms} permission grants, "
                f"expected {5 * len(self.friends[owner])}"
            )

    def replica(self, owner_peer, holder_peer) -> None:
        owner = owner_peer.username
        replica = holder_peer.replicas.get(owner)
        if replica is None:
            raise checks.CheckFailed(f"{holder_peer.username} holds no replica of {owner}")
        checks.check_replica(
            [entry_key(e) for e in owner_peer.profile.log],
            [entry_key(e) for e in replica.profile.log],
            owner_peer.profile.state_digest(),
            replica.profile.state_digest(),
            owner,
            holder_peer.username,
        )


def check_replays(profiles) -> None:
    for profile in profiles:
        checks.check_replay([entry_tuple(e) for e in profile.log], tree_of(profile), profile.owner)


class World:
    """The benchmark's side of a deployment: who is friends with whom, the
    ledger of updates it made, the readers' kept views, and the five timed
    operations with their checks. Subclasses build the deployment."""

    round_gap_ms = 0
    virtual_clock = None  # a simulated world's clock
    oracle = None  # a checks.SuccessorOracle where peers ask a chord ring

    def __init__(self, seed: int, n_peers: int, chords: tuple[int, ...], mirror_every: int):
        self.seed = seed
        self.rng = random.Random(f"world:{seed}")
        self.names = [f"u{i:03d}" for i in range(n_peers)]
        order = self.names[:]
        self.rng.shuffle(order)  # friendships over a seed-drawn order
        self.edges = sorted({tuple(sorted((a, order[(i + step) % len(order)])))
                             for step in chords for i, a in enumerate(order)})
        self.friends = {n: set() for n in self.names}
        for a, b in self.edges:
            self.friends[a].add(b)
            self.friends[b].add(a)
        self.mirrors = {o: sorted(self.friends[o])[0] for o in order[::mirror_every]}
        self.ledger = Ledger()
        self.checker = ProfileChecker(self.ledger, self.friends)
        self.views: dict[tuple[str, str], tuple] = {}
        self.peers: dict = {}
        self._serial = 0

    # -- what subclasses provide ----------------------------------------------

    def settle(self, gap_ms: int = 0) -> None:
        """Run the upkeep that fell due."""

    def close(self) -> None:
        """Stop whatever the world started."""

    def traffic_mark(self):
        raise NotImplementedError

    def traffic(self, mark) -> dict:
        """{"classes": {class: [frames, payload bytes]}, "maint": ring frames
        sent by upkeep, "requests": requests delivered} since `mark`."""
        raise NotImplementedError

    def clock_past(self, owner: str, stamp: int) -> None:
        """Let the owner's clock move past `stamp`, so that no two updates
        of one profile share a millisecond."""
        raise NotImplementedError

    def registration_servers(self, name: str) -> list[str]:
        raise NotImplementedError

    def located_address(self, name: str) -> tuple[str, set]:
        """The ip the benchmark gave `name`, and the ports its record may name."""
        raise NotImplementedError

    def expected_rows(self, name: str) -> set:
        raise NotImplementedError

    def held_rows(self) -> dict:
        raise NotImplementedError

    # -- inputs and the five operations ---------------------------------------

    def befriend_all(self) -> None:
        for a, b in self.edges:
            self.settle()
            self.peers[a].send_friend_request(b)
            self.peers[b].reregister()
            self.peers[b].accept_friend(a)
            self.clock_past(a, self.peers[a].clock())
            self.clock_past(b, self.peers[b].clock())
        for owner, mirror in sorted(self.mirrors.items()):
            self.settle()
            self.peers[owner].add_mirror(mirror)
        self.public_keys = {n: p.state.certificate.public_key for n, p in self.peers.items()}

    def post(self, owner: str) -> None:
        peer = self.peers[owner]
        self._serial += 1
        op = op_add(f"p{self._serial}", b"post %d by %s" % (self._serial, owner.encode()))
        stamp = peer.clock()
        peer.profile.apply_update(owner, "share_board", op, timestamp=stamp)
        self.ledger.add(owner, "share_board", owner, op)
        self.clock_past(owner, stamp)

    def view(self, reader: str, owner: str):
        key = (reader, owner)
        if key not in self.views:
            view = Profile(owner)
            self.views[key] = (view, self.checker.capture(view))
        return self.views[key]

    def do_register(self, rec, name: str) -> None:
        peer = self.peers[name]
        rec.time("register", peer.bootstrap)
        want = self.registration_servers(name)
        if sorted(peer.state.registered_at) != want:
            raise checks.CheckFailed(f"{name} registered at {peer.state.registered_at}, expected {want}")

    def do_locate(self, rec, reader: str, friend: str) -> None:
        record, _server = rec.time("locate", self.peers[reader].locate_friend, friend)
        if record.username != friend:
            raise checks.CheckFailed(f"located {record.username} for {friend}")
        ip, ports = self.located_address(friend)
        checks.check_located_record(record_fields(record), self.public_keys[friend], ip, ports)

    def do_pull(self, rec, reader: str, owner: str) -> None:
        view, box = self.view(reader, owner)
        lacked = self.checker.before_pull(self.peers[owner].profile, view)
        rec.time("pull", self.peers[reader].pull_friend_profile, owner, into=view)
        self.checker.after_pull(owner, reader, view, box, lacked)

    def do_write(self, rec, author: str, owner: str) -> None:
        self._serial += 1
        op = op_add(f"c{self._serial}", b"comment %d by %s" % (self._serial, author.encode()))
        rec.time("write", self.peers[author].write_to_friend, owner, "share_board", op)
        self.ledger.add(owner, "share_board", author, op)
        tail = self.peers[owner].profile.log[-1]
        if tail.op != op or tail.author != author:
            raise checks.CheckFailed(f"write by {author} is not the tail of {owner}'s log")
        self.clock_past(owner, tail.timestamp)

    def do_sync(self, rec, owner: str) -> None:
        rec.time("sync", self.peers[owner].sync_mirrors)
        self.checker.replica(self.peers[owner], self.peers[self.mirrors[owner]])

    def play_round(self, rng: random.Random, rec, mix: tuple[str, ...]) -> None:
        """One round: the upkeep of `round_gap_ms`, then each kind in `mix`
        on seed-drawn users, with due upkeep run (and timed) before each."""
        rec.start_round()
        rec.upkeep(self.settle, self.round_gap_ms)
        for kind in mix:
            name = rng.choice(self.names)
            if kind == "post":
                self.post(name)
                continue
            rec.upkeep(self.settle)
            try:
                if kind == "register":
                    self.do_register(rec, name)
                elif kind == "sync":
                    self.do_sync(rec, rng.choice(sorted(self.mirrors)))
                else:
                    friend = rng.choice(sorted(self.friends[name]))
                    getattr(self, f"do_{kind}")(rec, name, friend)
            except OpFailed:
                continue

    def check_final(self) -> None:
        """A final sync of every owner, the rows every store holds, and a
        replay of every profile, replica and kept view."""
        for owner in sorted(self.mirrors):
            self.settle()
            self.peers[owner].sync_mirrors()
            self.checker.replica(self.peers[owner], self.peers[self.mirrors[owner]])
        held = self.held_rows()
        for name in self.names:
            checks.check_rows(self.expected_rows(name), held.get(name, set()), name)
        profiles = [p.profile for p in self.peers.values()]
        profiles += [r.profile for p in self.peers.values() for r in p.replicas.values()]
        profiles += [view for view, _box in self.views.values()]
        check_replays(profiles)
