import itertools
import math
import random
from dataclasses import replace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from friendmesh import chord
from friendmesh.chord import dual_hash, in_interval, node_ident
from friendmesh.errors import MalformedRequest, PeerUnreachable
from friendmesh.identity import SignedDigest
from friendmesh.records import PeerRow, RegistrationRecord


def peer_row(username, ring_id, value=b"v", replica=False):
    """A stored row for user `username`; `value` rides in its certificate field."""
    record = RegistrationRecord(
        username=username, ip="10.9.9.9", port=7500, protocol="tcp",
        relay_address="", relay_port=0, passphrase=f"{username}-phrase",
        encrypted_mirror_list=b"", signed_digest=SignedDigest(digest=b"", signature=b""),
    )
    return PeerRow(record=record, certificate=value, ring_id=ring_id, replica=replica)


# Independent oracle: linear scan for the first node id at or after the key.
def oracle_successor(node_addrs, key, bits):
    pairs = sorted((node_ident(a, bits), a) for a in node_addrs)
    for ident, addr in pairs:
        if ident >= key:
            return addr
    return pairs[0][1]  # wraparound


def addr_with_ident(target, bits, taken):
    """Mine an address string whose ring id equals target (reduced spaces only)."""
    for i in range(100000):
        addr = f"10.0.{i // 250}.{i % 250}:7{i % 1000:03d}"
        if addr in taken:
            continue
        if node_ident(addr, bits) == target:
            return addr
    raise AssertionError(f"no address found for ident {target}")


# -- dual_hash ----------------------------------------------------------------


def test_dual_hash_deterministic():
    assert dual_hash("alice") == dual_hash("alice")


def test_dual_hash_components_differ_for_close_usernames():
    a = dual_hash("alice")
    b = dual_hash("alicf")
    assert a.id_md5 != b.id_md5
    assert a.id_sha1 != b.id_sha1


def test_dual_hash_empty_username_rejected():
    with pytest.raises(MalformedRequest):
        dual_hash("")


def test_dual_hash_corpus_collision_scan():
    # Collision scan over a username corpus: both components must separate.
    corpus = [f"user{i}" for i in range(500)]
    md5s = {dual_hash(u).id_md5 for u in corpus}
    sha1s = {dual_hash(u).id_sha1 for u in corpus}
    assert len(md5s) == len(corpus)
    assert len(sha1s) == len(corpus)


def test_identifiers_share_one_space():
    d = dual_hash("carol")
    assert 0 <= d.id_md5 < 2**128
    assert 0 <= d.id_sha1 < 2**128
    reduced = dual_hash("carol", bits=6)
    assert 0 <= reduced.id_md5 < 64
    assert 0 <= reduced.id_sha1 < 64


# -- interval arithmetic -------------------------------------------------------


def test_interval_wraparound_cases():
    assert in_interval(50, 42, 8, inc_hi=True)  # wraps past 0
    assert in_interval(8, 42, 8, inc_hi=True)
    assert not in_interval(42, 42, 8, inc_hi=True)
    assert in_interval(5, 60, 10)
    assert not in_interval(30, 60, 10)


def test_interval_full_circle():
    assert in_interval(13, 7, 7)
    assert not in_interval(7, 7, 7)
    assert in_interval(7, 7, 7, inc_hi=True)


def two_branch_interval(x, lo, hi, inc_lo=False, inc_hi=False):
    """in_interval as written with separate plain and wrapped branches."""
    if lo == hi:
        return True if x != lo else (inc_lo or inc_hi)
    if lo < hi:
        above = x > lo or (inc_lo and x == lo)
        below = x < hi or (inc_hi and x == hi)
        return above and below
    above = x > lo or (inc_lo and x == lo)
    below = x < hi or (inc_hi and x == hi)
    return above or below


def test_interval_matches_two_branch_form_exhaustively():
    for x, lo, hi in itertools.product(range(16), repeat=3):
        for inc_lo, inc_hi in itertools.product((False, True), repeat=2):
            assert in_interval(x, lo, hi, inc_lo, inc_hi) == two_branch_interval(
                x, lo, hi, inc_lo, inc_hi
            ), (x, lo, hi, inc_lo, inc_hi)


# -- reduced-space lookups -----------------------------------------------------


@pytest.fixture(scope="module")
def small_ring():
    bits = 6
    taken = set()
    addrs = []
    for ident in (8, 21, 42):
        addr = addr_with_ident(ident, bits, taken)
        taken.add(addr)
        addrs.append(addr)
    nodes, transport = chord.build_ring(addrs, bits=bits)
    return bits, addrs, nodes


def test_lookup_wraparound(small_ring):
    bits, addrs, nodes = small_ring
    start = nodes[addrs[0]]
    assert node_ident(start.find_successor(50).addr, bits) == 8


def test_lookup_equality_boundary(small_ring):
    bits, addrs, nodes = small_ring
    start = nodes[addrs[0]]
    assert node_ident(start.find_successor(21).addr, bits) == 21


def test_lookup_between_nodes(small_ring):
    bits, addrs, nodes = small_ring
    start = nodes[addrs[2]]
    assert node_ident(start.find_successor(9).addr, bits) == 21
    assert node_ident(start.find_successor(22).addr, bits) == 42


def test_single_node_ring():
    nodes, _ = chord.build_ring(["10.9.9.9:7000"])
    node = nodes["10.9.9.9:7000"]
    assert node.successor() == node.addr
    rng = random.Random(5)
    for _ in range(20):
        res = node.find_successor(rng.randrange(2**128))
        assert res.addr == node.addr
        assert res.hops == 0


# -- randomized ring vs oracle ---------------------------------------------------


def test_random_64_node_ring_matches_oracle_and_hop_bound():
    rng = random.Random(64)
    addrs = [f"10.1.{i}.{rng.randrange(250)}:7{i:03d}" for i in range(64)]
    nodes, _ = chord.build_ring(addrs, bits=128)
    start = nodes[addrs[0]]
    max_hops = 0
    for _ in range(1000):
        key = rng.randrange(2**128)
        res = start.find_successor(key)
        assert res.addr == oracle_successor(addrs, key, 128)
        max_hops = max(max_hops, res.hops)
    assert max_hops <= math.ceil(math.log2(64)) + 2


def walk_to_immediate_successor(nodes, start, key):
    """Reference: hops of a lookup that ends only at a node's immediate
    successor, routing as find_successor does."""
    node, hops = nodes[start], 0
    while not in_interval(key, node.ident, nodes[node.successor()].ident, inc_hi=True):
        closest = node.closest_preceding(key)
        node = nodes[closest if closest != node.addr else node.successor()]
        hops += 1
    return hops


@settings(deadline=None, max_examples=40)
@given(size=st.integers(2, 64), seed=st.integers(0, 2**32 - 1))
@example(size=9, seed=3)  # a bound read after the lookup saw the learned routes
def test_successor_list_ends_lookups_no_later_than_the_immediate_successor(size, seed):
    rng = random.Random(seed)
    addrs = [f"10.4.{seed % 250}.{i}:7{i:03d}" for i in range(size)]
    nodes, _ = chord.build_ring(addrs)
    for _ in range(16):
        start = nodes[rng.choice(addrs)]
        arc = (node_ident(start.state()[1][-1], 128) - start.ident) % 2**128 or 2**128
        # Half the keys inside the arc the start node's own list covers.
        offset = rng.randrange(1, arc + 1) if rng.random() < 0.5 else rng.randrange(2**128)
        key = (start.ident + offset) % 2**128
        # The bound reads the table the lookup routes by, before the lookup
        # learns the servers that answer it.
        bound = walk_to_immediate_successor(nodes, start.addr, key)
        result = start.find_successor(key)
        assert result.addr == oracle_successor(addrs, key, 128)
        assert result.hops <= bound
        if 0 < (key - start.ident) % 2**128 <= arc:
            assert result.hops == 0


def test_sequential_joins_match_oracle():
    rng = random.Random(16)
    addrs = [f"10.2.0.{i}:7{i:03d}" for i in range(16)]
    nodes, _ = chord.build_ring(addrs, bits=128)
    for start_addr in addrs[:4]:
        for _ in range(50):
            key = rng.randrange(2**128)
            assert nodes[start_addr].find_successor(key).addr == oracle_successor(addrs, key, 128)


# -- convergence under churn ----------------------------------------------------

CHURN_POOL = [f"10.8.0.{i}:7{i:03d}" for i in range(14)]


def assert_one_ordered_ring(nodes):
    """Each live node's successor and predecessor are its ring neighbours,
    and the live entries of its successor list are the next live nodes in
    ring order."""
    live = [addr for _, addr in sorted((n.ident, a) for a, n in nodes.items() if n.alive)]
    count = len(live)
    span = min(chord.SUCCESSOR_LIST_LEN, count - 1)
    for i, addr in enumerate(live):
        node = nodes[addr]
        assert node.successor() == live[(i + 1) % count], addr
        if count > 1:
            assert node.predecessor == live[i - 1], addr
        listed = [s for s in node.state()[1] if s != addr and nodes[s].alive]
        assert listed[:span] == [live[(i + j) % count] for j in range(1, span + 1)], addr


@settings(deadline=None, max_examples=25)
@given(data=st.data())
def test_ring_converges_after_churn(data):
    # Joins, graceful leaves and crashes, at most successor_list_len - 1
    # between quiescent phases, so every node keeps a live successor.
    first = data.draw(st.lists(st.sampled_from(CHURN_POOL), min_size=1, max_size=6, unique=True))
    nodes, transport = chord.build_ring(first)
    for _ in range(data.draw(st.integers(1, 3))):
        for _ in range(data.draw(st.integers(1, chord.SUCCESSOR_LIST_LEN - 1))):
            live = sorted(a for a, n in nodes.items() if n.alive)
            unused = [a for a in CHURN_POOL if a not in nodes]
            kinds = (["join"] if unused else []) + (["leave", "crash"] if len(live) > 1 else [])
            kind = data.draw(st.sampled_from(kinds))
            if kind == "join":
                node = chord.RingNode(data.draw(st.sampled_from(unused)), transport)
                transport.add(node)
                nodes[node.addr] = node
                try:
                    node.join(data.draw(st.sampled_from(live)))
                except chord.JoinFailed:
                    node.alive = False
            elif kind == "leave":
                nodes[data.draw(st.sampled_from(live))].leave()
            else:
                nodes[data.draw(st.sampled_from(live))].alive = False
        live = [a for a, n in nodes.items() if n.alive]
        chord.stabilize_all(nodes, rounds=len(live) + 2)
        assert_one_ordered_ring(nodes)
        rng = random.Random(data.draw(st.integers(0, 2**32)))
        for addr in live:
            for key in [rng.randrange(2**128) for _ in range(8)]:
                assert nodes[addr].find_successor(key).addr == oracle_successor(live, key, 128)


def test_join_through_a_stale_table_then_losing_the_bootstrap():
    # Shrunk from the test above. The joiner's bootstrap still names the
    # departed node as the joiner's successor, and then the bootstrap leaves
    # too: the joiner must have reached the live ring in between.
    a, b, c, d = CHURN_POOL[:4]
    nodes, transport = chord.build_ring([a, b, d])
    nodes[a].leave()
    joiner = nodes[c] = chord.RingNode(c, transport)
    transport.add(joiner)
    joiner.join(b)
    nodes[b].leave()
    chord.stabilize_all(nodes, rounds=4)
    assert_one_ordered_ring(nodes)


def test_lone_node_leaves_before_its_joiners_stabilize():
    # Shrunk from the churn test: two nodes join a lone node, which leaves
    # before either has stabilized. Each joiner names only the other as a
    # live node, through a notify, so that notify must give it a successor.
    a, b, c = CHURN_POOL[:3]
    nodes, transport = chord.build_ring([a])
    for addr in (b, c):
        nodes[addr] = chord.RingNode(addr, transport)
        transport.add(nodes[addr])
        nodes[addr].join(a)
    nodes[a].leave()
    chord.stabilize_all(nodes, rounds=4)
    assert_one_ordered_ring(nodes)



def test_crashed_node_leaves_no_successor_list_of_a_small_ring():
    # In a ring no larger than a successor list, each list laps round to its
    # own node. Past that point it names only the ring again, so a crashed
    # node kept there would be handed out by RING_STATE and RING_NOTIFY.
    addrs = [f"10.6.3.{i}:7{i:03d}" for i in range(4)]
    for victim in addrs:
        nodes, _ = chord.build_ring(addrs)
        nodes[victim].alive = False
        chord.stabilize_all(nodes, rounds=10)
        for addr, node in nodes.items():
            if node.alive:
                pred, succs = node.state()
                assert victim != pred and victim not in succs, (victim, addr)
        assert_one_ordered_ring(nodes)

# -- routing index vs a linear scan ---------------------------------------------


def scan_closest(node, ident):
    """Reference: scan fingers, successors, then learned servers, hashing
    every address. Of candidates sharing an id, the smallest address wins."""
    candidates = [f[1] for f in node._fingers if f] + [s for _, s in node._succ] + list(node._learned)
    best, best_id = node.addr, node.ident
    for addr in candidates:
        if addr in node.evicted or addr == node.addr:
            continue
        cand_id = node_ident(addr, node.bits)
        if two_branch_interval(cand_id, node.ident, ident) and (
            best == node.addr
            or two_branch_interval(cand_id, best_id, ident)
            or (cand_id == best_id and addr < best)
        ):
            best, best_id = addr, cand_id
    return best


def assert_routes_like_scan(node):
    size = 1 << node.bits
    entries = [e for e in node._fingers if e] + node._succ + list(node._learned.values())
    assert all(ident == node_ident(addr, node.bits) for ident, addr in entries)
    # Ids off the ring reach closest_preceding from remote queries.
    probes = [-(2**130), -size // 2, size + size // 3, 2**130 + 7]
    if node.bits <= 8:
        probes += range(-2, size + 2)
    else:
        ids = {ident for ident, _ in entries} | {node.ident, 0, size}
        probes += {i + d for i in ids for d in (-1, 0, 1)}
    for ident in probes:
        assert node.closest_preceding(ident) == scan_closest(node, ident), ident
        closest, succs = node.local_query(ident)
        assert closest == scan_closest(node, ident), ident
        assert succs == ([s for _, s in node._succ if s not in node.evicted] or [node.addr])
        assert succs[0] == node.successor()


class OracleTransport:
    """Answers a query with the true successor among `live`; others are down."""

    def __init__(self, live, bits):
        self.live = live
        self.pairs = sorted((node_ident(a, bits), a) for a in live)

    def query(self, addr, ident):
        if addr not in self.live:
            raise PeerUnreachable(addr)
        succ = next((a for i, a in self.pairs if i >= ident), self.pairs[0][1])
        return succ, [succ]


def colliding_pool(bits=6, groups=8, size=3):
    """`groups` x `size` addresses; those of a group share their id at `bits`."""
    by_id = {}
    for i in itertools.count():
        addr = f"10.7.{i // 250}.{i % 250}:7000"
        by_id.setdefault(node_ident(addr, bits), []).append(addr)
        full = [members[:size] for members in by_id.values() if len(members) >= size]
        if len(full) == groups:
            return [addr for members in full for addr in members]


POOL = colliding_pool()


@st.composite
def routing_tables(draw):
    bits = draw(st.sampled_from([6, 8, 128]))
    slot = st.integers(0, bits - 1)
    return {
        "bits": bits,
        "self": draw(st.sampled_from(POOL)),
        "fingers": draw(st.dictionaries(slot, st.none() | st.sampled_from(POOL), max_size=12)),
        "successors": draw(st.lists(st.sampled_from(POOL), min_size=1, max_size=6)),
        "evicted": draw(st.sets(st.sampled_from(POOL), max_size=5)),
        "learned": draw(st.lists(st.sampled_from(POOL), max_size=6)),
        "live": draw(st.sets(st.sampled_from(POOL), min_size=1)),
        "actions": draw(st.lists(
            st.tuples(st.sampled_from(["note_dead", "evict"]), st.sampled_from(POOL))
            | st.just(("fix_fingers", None)),
            max_size=4,
        )),
    }


@settings(deadline=None, max_examples=200)
@given(routing_tables())
# Two learned servers share id 22 at 6 bits; fix_fingers re-learns the
# live one, which moves it to the most recent end of the learned table.
@example({
    "bits": 6, "self": "10.7.0.7:7000", "fingers": {}, "successors": ["10.7.0.6:7000"],
    "evicted": {"10.7.0.6:7000"}, "learned": ["10.7.0.20:7000", "10.7.0.35:7000"],
    "live": {"10.7.0.20:7000"}, "actions": [("fix_fingers", None)],
})
def test_routing_index_matches_linear_scan(table):
    # At 6 bits every address shares its id with two others, the node's
    # own included, so ties and the full circle are exercised.
    bits = table["bits"]
    node = chord.RingNode(table["self"], OracleTransport(table["live"], bits), bits=bits)
    for i, addr in table["fingers"].items():
        node._fingers[i] = None if addr is None else (node_ident(addr, bits), addr)
    node._succ = [(node_ident(a, bits), a) for a in table["successors"]]
    node.evicted |= table["evicted"] - {node.addr}
    for addr in table["learned"]:
        node._learn((node_ident(addr, bits), addr))
    node._index = None
    assert_routes_like_scan(node)
    for action, addr in table["actions"]:
        if action == "fix_fingers":
            node.fix_fingers()
        else:
            getattr(node, action)(addr)
        assert_routes_like_scan(node)


def test_routing_hashes_only_remote_answers(monkeypatch):
    addrs = [f"10.6.0.{i}:7{i:03d}" for i in range(32)]
    nodes, transport = chord.build_ring(addrs, bits=128)
    hashed = []
    real = chord.node_ident
    monkeypatch.setattr(chord, "node_ident", lambda addr, bits=128: hashed.append(addr) or real(addr, bits))
    rng = random.Random(32)
    keys = [rng.randrange(2**128) for _ in range(300)]
    for node in nodes.values():
        for key in keys[:20]:
            node.closest_preceding(key)
            node.local_query(key)
    assert hashed == []
    for key in keys:
        hashed.clear()
        result = nodes[rng.choice(addrs)].find_successor(key)
        assert result.addr == oracle_successor(addrs, key, 128)
        # Per answer, its closest and at most the successor-list links the walk reads.
        bound = (chord.SUCCESSOR_LIST_LEN + 1) * result.hops
        assert len(hashed) <= bound, (len(hashed), result.hops)
    # On a converged ring, stabilize and notify reuse the ids the tables
    # hold, and a round with fix_fingers sends 115 messages: per node one
    # notify, whose reply is the successor's state, then the fingers, whose
    # lookups route through the servers that answered the 300 above (159
    # when only fingers and successors routed, 267 when a lookup ended only
    # at a node's immediate successor). No check_predecessor pings: every
    # predecessor notified during the round before (299 when each check
    # pinged).
    hashed.clear()
    chord.stabilize_all(nodes, rounds=1, fix=False)
    assert hashed == []
    before = transport.messages
    chord.stabilize_all(nodes, rounds=1)
    assert transport.messages - before == 115


# -- routes learned from answers ---------------------------------------------------


class RecordingTransport(chord.DirectTransport):
    """Keeps the address of every node that answered a query, in order."""

    def __init__(self):
        super().__init__()
        self.answered = []

    def query(self, addr, ident):
        answer = super().query(addr, ident)
        self.answered.append(addr)
        return answer


def test_learned_servers_stay_under_the_cap_least_recent_dropped_first(monkeypatch):
    monkeypatch.setattr(chord, "LEARNED_LEN", 3)
    addrs = [f"10.6.5.{i}:7{i:03d}" for i in range(32)]
    nodes, transport = chord.build_ring(addrs, transport=RecordingTransport())
    start = nodes[addrs[0]]
    start._learned.clear()
    start._index = None
    transport.answered.clear()
    rng = random.Random(5)
    for _ in range(100):
        start.find_successor(rng.randrange(2**128))
        assert len(start._learned) <= 3
    # Only the start node's queries were answered since the clear.
    recent = list(dict.fromkeys(reversed(transport.answered)))[:3]
    assert list(start._learned) == recent[::-1]
    assert all(entry == (node_ident(a, 128), a) for a, entry in start._learned.items())


def test_an_address_named_only_inside_an_answer_is_never_learned():
    addrs = [f"10.6.6.{i}:7{i:03d}" for i in range(16)]
    nodes, transport = chord.build_ring(addrs)
    fake = "10.66.0.0:9000"
    liar = nodes[addrs[5]]
    liar.local_query = lambda ident: (liar.addr, [fake])
    rng = random.Random(6)
    for start in (nodes[a] for a in addrs if a != liar.addr):
        for _ in range(40):
            start.find_successor(rng.randrange(2**128))
        assert fake not in start._learned
        assert fake not in start._routing()[0]
        assert fake not in start.contacts()
    assert any(liar.addr in nodes[a]._learned for a in addrs)


@pytest.mark.parametrize("action", ["note_dead", "evict"])
def test_note_dead_and_evict_drop_a_learned_server(action):
    addrs = [f"10.6.7.{i}:7{i:03d}" for i in range(24)]
    nodes, _ = chord.build_ring(addrs)
    start = nodes[addrs[0]]
    rng = random.Random(7)
    for _ in range(50):
        start.find_successor(rng.randrange(2**128))
    table = start.contacts()
    learned_only = [a for a in start._learned if a not in table]
    assert learned_only
    victim = learned_only[0]
    assert victim in start._routing()[0]
    getattr(start, action)(victim)
    assert victim not in start._learned
    assert victim not in start._routing()[0]
    assert all(victim != entry[1] for entry in start._routing()[2])


def test_a_second_pass_over_the_same_keys_takes_at_most_one_hop():
    rng = random.Random(64)
    addrs = [f"10.1.{i}.{rng.randrange(250)}:7{i:03d}" for i in range(64)]
    nodes, _ = chord.build_ring(addrs)
    start = nodes[addrs[0]]
    keys = [rng.randrange(2**128) for _ in range(300)]
    first = [start.find_successor(key) for key in keys]
    assert max(r.hops for r in first) > 1
    contacts = start.contacts()
    for key in keys:
        result = start.find_successor(key)
        assert result.addr == oracle_successor(addrs, key, 128)
        assert result.hops <= 1
    # The complaint fan-out is still the successors and fingers only.
    assert start.contacts() == contacts
    assert set(start._learned) - contacts


# -- periodic upkeep ---------------------------------------------------------------


class StateCountingTransport(chord.DirectTransport):
    """Counts get_state requests, the only ones check_predecessor sends."""

    def __init__(self):
        super().__init__()
        self.states = 0

    def get_state(self, addr):
        self.states += 1
        return super().get_state(addr)


def upkeep_period(nodes):
    """One stabilization period: every live node ticks as a rendezvous server does."""
    for addr in sorted(nodes):
        node = nodes[addr]
        if node.alive:
            node.check_predecessor()
            node.stabilize()
            node.fix_finger()


def test_steady_ring_sends_no_ring_state():
    addrs = [f"10.6.1.{i}:7{i:03d}" for i in range(16)]
    transport = StateCountingTransport()
    nodes, _ = chord.build_ring(addrs, transport=transport)
    transport.states = 0
    for _ in range(10):
        upkeep_period(nodes)
    assert transport.states == 0
    assert_one_ordered_ring(nodes)


def test_crashed_predecessor_cleared_within_two_periods():
    addrs = [f"10.6.2.{i}:7{i:03d}" for i in range(16)]
    for victim in addrs:
        nodes, _ = chord.build_ring(addrs)
        upkeep_period(nodes)
        ring = [a for _, a in sorted((n.ident, a) for a, n in nodes.items())]
        at = ring.index(victim)
        pred, succ = ring[at - 1], ring[(at + 1) % len(ring)]
        nodes[victim].alive = False
        for _ in range(2):
            upkeep_period(nodes)
        assert nodes[succ].predecessor == pred, victim
        assert nodes[pred].successor() == succ, victim
        live = [a for a in ring if a != victim]
        for i, addr in enumerate(live):
            assert nodes[addr].successor() == live[(i + 1) % len(live)], (victim, addr)
            assert nodes[addr].predecessor == live[i - 1], (victim, addr)


def finger_oracle(node, addrs):
    size = 1 << node.bits
    return [oracle_successor(addrs, (node.ident + (1 << i)) % size, node.bits) for i in range(node.bits)]


def test_one_finger_per_tick_builds_the_full_table():
    addrs = [f"10.6.3.{i}:7{i:03d}" for i in range(32)]
    nodes, _ = chord.build_ring(addrs)
    full = {addr: list(node._fingers) for addr, node in nodes.items()}
    for node in nodes.values():
        assert [e[1] for e in full[node.addr]] == finger_oracle(node, addrs)
        for i in range(node.bits):
            node._set_finger(i, None)
    ticks = dict.fromkeys(nodes, 0)
    pending = set(nodes)
    while pending:
        for addr in sorted(pending):
            ticks[addr] += 1
            if nodes[addr].fix_finger():
                pending.discard(addr)
    for addr, node in nodes.items():
        assert node._fingers == full[addr], addr
        # One lookup per distinct finger, not one per finger.
        assert ticks[addr] == len(set(full[addr])), addr


# -- key movement on join/leave ----------------------------------------------


def _store_keys(nodes, keys, bits):
    """Place each key at its owner via lookup, as a registration would."""
    start = next(iter(nodes.values()))
    for name, ident in keys:
        owner = nodes[start.find_successor(ident).addr]
        owner.put_primary(peer_row(name, ident))


def _primary_homes(nodes):
    homes = {}
    for addr, node in nodes.items():
        for row in node.store.peer_rows():
            if not row.replica:
                homes[(row.ring_id, row.record.username)] = addr
    return homes


def test_leave_moves_only_leaver_keys():
    rng = random.Random(7)
    bits = 128
    addrs = [f"10.3.0.{i}:7{i:03d}" for i in range(12)]
    nodes, transport = chord.build_ring(addrs, bits=bits)
    keys = [(f"user{i}", rng.randrange(2**bits)) for i in range(300)]
    _store_keys(nodes, keys, bits)
    before = _primary_homes(nodes)

    leaver = addrs[5]
    leaver_keys = {k for k, home in before.items() if home == leaver}
    nodes[leaver].leave()
    del nodes[leaver]
    chord.stabilize_all(nodes)
    after = _primary_homes(nodes)

    moved = {k for k in before if after.get(k) != before[k]}
    assert moved == leaver_keys
    succ = oracle_successor(list(nodes), next(iter(leaver_keys))[0], bits) if leaver_keys else None
    for k in leaver_keys:
        assert after[k] == oracle_successor(list(nodes), k[0], bits)


def test_join_moves_only_affected_arc():
    rng = random.Random(11)
    bits = 128
    addrs = [f"10.4.0.{i}:7{i:03d}" for i in range(12)]
    nodes, transport = chord.build_ring(addrs, bits=bits)
    keys = [(f"key{i}", rng.randrange(2**bits)) for i in range(300)]
    _store_keys(nodes, keys, bits)
    before = _primary_homes(nodes)

    newcomer = "10.4.1.99:7999"
    node = chord.RingNode(newcomer, transport, bits=bits)
    transport.add(node)
    nodes[newcomer] = node
    node.join(addrs[0])
    chord.stabilize_all(nodes)
    after = _primary_homes(nodes)

    expected_moved = {
        k for k in before if oracle_successor(list(nodes), k[0], bits) == newcomer
    }
    moved = {k for k in before if after.get(k) != before[k]}
    assert moved == expected_moved
    for k in moved:
        assert after[k] == newcomer


# -- replication ----------------------------------------------------------------


def test_replicate_verified_before_storing():
    # verify_row rejects rows whose certificate bytes fail the check,
    # mirroring the verification each server performs before replicating.
    def verify(row):
        return row.certificate.startswith(b"good")

    addrs = [f"10.5.0.{i}:7{i:03d}" for i in range(4)]
    nodes, transport = chord.build_ring(addrs, bits=128, verify_row=verify)
    node = nodes[addrs[0]]
    succ = nodes[node.successor()]

    good = peer_row("alice", node.ident, b"good-record")
    assert node.put_primary(good)
    assert any(r.record.username == "alice" and r.replica for r in succ.store.peer_rows())

    bad = peer_row("mallory", node.ident, b"evil-record")
    assert not node.put_primary(bad)
    assert not any(r.record.username == "mallory" for r in node.store.peer_rows())
    assert not succ.accept_replica(bad)
    assert not any(r.record.username == "mallory" for r in succ.store.peer_rows())

    # Re-replication of an identical record is an idempotent accept.
    assert succ.accept_replica(peer_row("alice", node.ident, b"good-record", replica=True))
    copies = [r for r in succ.store.peer_rows() if r.record.username == "alice"]
    assert len(copies) == 1


def counting_replicates(transport):
    """Wrap transport.replicate; returns the list of (successor, username)
    it appends each push to."""
    pushes = []
    real = transport.replicate

    def replicate(addr, rows):
        pushes.extend((addr, row.record.username) for row in rows)
        return real(addr, rows)

    transport.replicate = replicate
    return pushes


def test_an_unchanged_row_is_pushed_to_a_successor_that_joined_since():
    # A node joins between the owner and its successor. It adopts the owner
    # as its predecessor while the ring stabilizes, and the owner pushes its
    # rows to it then, so the unchanged registrations after that send nothing.
    addrs = [f"10.5.1.{i}:7{i:03d}" for i in range(4)]
    nodes, transport = chord.build_ring(addrs, bits=128)
    owner = nodes[addrs[0]]
    old_succ = owner.successor()
    row = peer_row("alice", owner.ident)
    assert owner.put_primary(row)
    pushes = counting_replicates(transport)
    assert owner.put_primary(row) and pushes == []

    joiner = next(
        a for a in (f"10.5.2.{i}:7000" for i in range(1000))
        if in_interval(node_ident(a), owner.ident, nodes[old_succ].ident)
    )
    nodes[joiner] = chord.RingNode(joiner, transport, bits=128)
    transport.add(nodes[joiner])
    nodes[joiner].join(addrs[0])
    chord.stabilize_all(nodes)
    assert owner.successor() == joiner
    assert pushes == [(joiner, "alice")]
    assert nodes[joiner].store.peer_rows() == [replace(row, replica=True)]

    assert owner.put_primary(row)
    assert owner.put_primary(row)
    assert pushes == [(joiner, "alice")]


def test_a_join_handoff_costs_one_replicate_back():
    # The successor hands a joiner the rows of its arc and keeps replica
    # copies. The joiner, adopted, sends them back in the one push that
    # follows the notify's reply, and not once more per row as it takes
    # them over.
    addrs = [f"10.5.8.{i}:7{i:03d}" for i in range(4)]
    nodes, transport = chord.build_ring(addrs, bits=128)
    succ = nodes[addrs[0]]
    pred = nodes[succ.predecessor]
    joiner = next(  # its id and the two below it fall in the successor's arc
        a for a in (f"10.5.9.{i}:7000" for i in range(1000))
        if all(in_interval(node_ident(a) - i, pred.ident, succ.ident) for i in range(3))
    )
    rows = [peer_row(f"user{i}", node_ident(joiner) - i) for i in range(3)]
    for row in rows:
        assert succ.put_primary(row)
    pushes = []
    real = transport.replicate
    transport.replicate = lambda addr, batch: pushes.append((addr, len(batch))) or real(addr, batch)
    nodes[joiner] = chord.RingNode(joiner, transport, bits=128)
    transport.add(nodes[joiner])
    nodes[joiner].join(addrs[0])
    chord.stabilize_all(nodes)
    assert succ.predecessor == joiner
    assert [push for push in pushes if push[0] == succ.addr] == [(succ.addr, 3)]
    by_id = lambda rows: sorted(rows, key=lambda row: row.ring_id)  # noqa: E731
    assert by_id(nodes[joiner].store.peer_rows()) == by_id(rows)
    assert by_id(succ.store.peer_rows()) == by_id(replace(row, replica=True) for row in rows)


@pytest.mark.parametrize("failure", ["unreachable", "refused"])
def test_a_push_that_failed_is_not_remembered(failure):
    # The successor is down, or refuses the row, at the first push: the
    # next unchanged registration pushes to it again, and once it has
    # accepted, the one after that sends nothing.
    addrs = [f"10.5.3.{i}:7{i:03d}" for i in range(4)]
    nodes, transport = chord.build_ring(addrs, bits=128)
    owner = nodes[addrs[0]]
    succ = nodes[owner.successor()]
    pushes = counting_replicates(transport)
    row = peer_row("alice", owner.ident)
    if failure == "unreachable":
        succ.alive = False
        assert owner.put_primary(row)
        succ.alive = True
        chord.stabilize_all(nodes)
        assert owner.successor() == succ.addr
    else:
        succ.verify_row = lambda row: False
        assert owner.put_primary(row)
        succ.verify_row = lambda row: True
    assert pushes == [(succ.addr, "alice")]
    assert not succ.store.peer_rows()

    assert owner.put_primary(row)
    assert pushes == [(succ.addr, "alice")] * 2
    assert succ.store.peer_rows() == [replace(row, replica=True)]
    assert owner.put_primary(row)
    assert len(pushes) == 2


def test_a_successor_restarted_empty_at_its_address_is_refilled_within_one_period():
    # The owner's successor restarts with an empty store at the same address
    # and joins again. Within one stabilization period it adopts the owner
    # as its predecessor, and the owner pushes it every primary row in one
    # message, with no registration: before, the owner still took that
    # address for the holder of each unchanged row and never pushed it.
    addrs = [f"10.5.7.{i}:7{i:03d}" for i in range(4)]
    nodes, transport = chord.build_ring(addrs, bits=128)
    owner = nodes[addrs[0]]
    rows = [peer_row(name, owner.ident) for name in ("alice", "bob")]
    for row in rows:
        assert owner.put_primary(row)
    succ = owner.successor()
    assert {r.record.username for r in nodes[succ].store.peer_rows()} == {"alice", "bob"}

    nodes[succ] = chord.RingNode(succ, transport, bits=128)
    transport.add(nodes[succ])
    nodes[succ].join(next(a for a in addrs if a not in (succ, owner.addr)))
    pushes = counting_replicates(transport)
    before = transport.messages
    chord.stabilize_all(nodes, rounds=1, fix=False)
    assert owner.successor() == succ
    assert nodes[succ].store.peer_rows() == [replace(row, replica=True) for row in rows]
    assert pushes == [(succ, "alice"), (succ, "bob")]
    assert transport.messages - before == len(nodes) + 1  # a notify each, and the push


def test_a_converged_ring_answers_every_notify_unchanged():
    # Each node names the state it last took from its successor, which has
    # not changed: every reply is "unchanged", and no node adopts another.
    addrs = [f"10.5.8.{i}:7{i:03d}" for i in range(16)]
    nodes, transport = chord.build_ring(addrs, bits=128)
    answers = []
    real = transport.notify

    def notify(addr, candidate, tag):
        answers.append((tag, *real(addr, candidate, tag)))
        return answers[-1][1:]

    transport.notify = notify
    states = {addr: node.state() for addr, node in nodes.items()}
    chord.stabilize_all(nodes, rounds=1, fix=False)
    assert len(answers) == len(nodes)
    assert all(len(tag) == 8 and (adopted, state) == (False, None) for tag, adopted, state in answers)
    assert {addr: node.state() for addr, node in nodes.items()} == states


def test_a_successor_answers_unchanged_only_to_its_current_state_tag():
    addrs = [f"10.5.9.{i}:7{i:03d}" for i in range(4)]
    nodes, _ = chord.build_ring(addrs, bits=128)
    node = nodes[addrs[0]]
    pred = node.predecessor
    current = node.state()
    assert node.notified(pred, chord.state_tag(current)) == (False, None)
    for tag in (b"", bytes(8), chord.state_tag((None, current[1])),
                chord.state_tag((pred, current[1][:-1])), chord.state_tag(current) + b"\x00"):
        assert node.notified(pred, tag) == (False, current)


def test_unchanged_to_a_notify_that_named_no_state_is_refused():
    # The successor answers "unchanged" when the notifier holds no state of
    # its: the reply is refused, and the successor list stays as it was.
    addrs = [f"10.5.10.{i}:7{i:03d}" for i in range(4)]
    nodes, transport = chord.build_ring(addrs, bits=128)
    node = nodes[addrs[0]]
    before = node.state()

    class Unchanged:
        def notify(self, addr, candidate, tag):
            return False, None

        def __getattr__(self, name):
            return getattr(transport, name)

    node.transport = Unchanged()
    node._taken = None  # as after a restart
    with pytest.raises(MalformedRequest):
        node.stabilize()
    assert node.state() == before


def test_lookup_failed_when_every_route_lies():
    # Every remote node claims itself as successor of everything: after
    # bounded route-arounds the lookup gives up instead of looping.
    from friendmesh.errors import LookupFailed

    addrs = [f"10.5.5.{i}:7{i:03d}" for i in range(6)]
    nodes, transport = chord.build_ring(addrs, bits=128)

    class LyingTransport:
        def __init__(self, inner):
            self.inner = inner

        def query(self, addr, ident):
            return addr, [addr]  # unverifiable self-claim

        def __getattr__(self, name):
            return getattr(self.inner, name)

    start = nodes[addrs[0]]
    start.transport = LyingTransport(transport)
    # Just past the local successor list: resolvable only through remote answers.
    foreign_key = (node_ident(start.state()[1][-1], 128) + 1) % (1 << 128)
    with pytest.raises(LookupFailed):
        start.find_successor(foreign_key)


# -- statistical properties -----------------------------------------------------


def test_load_balance_bound():
    addrs = [f"10.9.0.{i}:7{i:03d}" for i in range(32)]
    counts = {a: 0 for a in addrs}
    for i in range(10000):
        key = chord.ident_md5(f"member{i}")
        counts[oracle_successor(addrs, key, 128)] += 1
    mean = 10000 / 32
    assert max(counts.values()) / mean <= 4


def test_dual_path_independence():
    addrs = [f"10.9.0.{i}:7{i:03d}" for i in range(32)]
    distinct = 0
    total = 2000
    for i in range(total):
        d = dual_hash(f"person{i}")
        if oracle_successor(addrs, d.id_md5, 128) != oracle_successor(addrs, d.id_sha1, 128):
            distinct += 1
    assert distinct / total >= 0.95


def test_maintenance_message_trend():
    # Messages per join grow no faster than c * log^2 N across ring sizes.
    per_n = {}
    for n in (8, 16, 32, 64):
        addrs = [f"10.8.{n}.{i}:7{i:03d}" for i in range(n)]
        nodes, transport = chord.build_ring(addrs, bits=128)
        newcomer = f"10.8.{n}.250:7999"
        node = chord.RingNode(newcomer, transport, bits=128)
        transport.add(node)
        before = transport.messages
        node.join(addrs[0])
        succ = nodes[node.successor()]
        for _ in range(3):
            node.stabilize()
            succ.stabilize()
        node.fix_fingers()
        per_n[n] = transport.messages - before
    c = per_n[8] / math.log2(8) ** 2
    for n in (16, 32, 64):
        assert per_n[n] <= max(4 * c, 4) * math.log2(n) ** 2, per_n
