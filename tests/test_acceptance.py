"""Acceptance suite: every criterion at its stated tolerance, one
pass/fail line each (run with -s to see them inline)."""
import hashlib
import math
import random

import pytest

from friendmesh import chord, identity, secure, wire
from friendmesh.channel import DirectChannel
from friendmesh.chord import dual_hash, node_ident
from friendmesh.errors import AuthError, NotFound, StorageAttack, Unavailable
from friendmesh.identity import SignedDigest
from friendmesh.profile import Profile, encode_vector, op_add, op_perm
from friendmesh.records import PeerRow, RegistrationRecord, make_registration_record
from friendmesh.relay import MuxService, RelayServer, admit_as_server
from friendmesh.secure import pack_app
from friendmesh.sentinel import ComplaintLedger, check_peer_record, make_complaint
from friendmesh.simnet.scenario import Scenario, SimConfig, rendezvous_addr, run_scenario

RESULTS = []


def verdict(number: int, text: str) -> None:
    line = f"criterion {number:2d} PASS  {text}"
    RESULTS.append(line)
    print(line)


def ring_row(username, ring_id):
    """A stored row for user `username`, placed at `ring_id` (criterion 2)."""
    record = RegistrationRecord(
        username=username, ip="10.9.9.9", port=7500, protocol="tcp",
        relay_address="", relay_port=0, passphrase=f"{username}-phrase",
        encrypted_mirror_list=b"", signed_digest=SignedDigest(digest=b"", signature=b""),
    )
    return PeerRow(record=record, certificate=b"v", ring_id=ring_id)


def oracle_for(addrs, bits=128):
    pairs = sorted((node_ident(a, bits), a) for a in addrs)

    def oracle(key):
        for ident, a in pairs:
            if ident >= key:
                return a
        return pairs[0][1]

    return oracle


def events(trace, name):
    out = []
    for line in trace.splitlines():
        parts = line.split()
        if len(parts) >= 3 and parts[1] == "EV" and parts[2] == name:
            fields = dict(p.split("=", 1) for p in parts[3:] if "=" in p)
            out.append((int(parts[0]), fields))
    return out


# -- 1. chord oracle equivalence -------------------------------------------------------


def test_criterion_1_chord_oracle_equivalence():
    rng = random.Random(1001)
    worst = {}
    for n in (1, 2, 8, 32, 64):
        addrs = [f"10.30.{n}.{i % 250}:7{i:03d}" for i in range(n)]
        nodes, _ = chord.build_ring(addrs, bits=128)
        oracle = oracle_for(addrs)
        start = nodes[addrs[0]]
        mismatches = 0
        max_hops = 0
        for _ in range(1000):
            key = rng.randrange(2**128)
            result = start.find_successor(key)
            if result.addr != oracle(key):
                mismatches += 1
            max_hops = max(max_hops, result.hops)
        assert mismatches == 0, f"N={n}: {mismatches} mismatches"
        bound = math.ceil(math.log2(n)) + 2 if n > 1 else 2
        assert max_hops <= bound, f"N={n}: {max_hops} hops > {bound}"
        worst[n] = max_hops
    verdict(1, f"0 mismatches over 5x1000 lookups; max hops per N: {worst}")


# -- 2. key movement bound ----------------------------------------------------------------


def test_criterion_2_key_movement_bound():
    n = 32
    n_keys = 5000
    join_fractions = []
    leave_fractions = []
    for seed in range(20):
        rng = random.Random(2000 + seed)
        addrs = [f"10.31.{seed}.{i}:7{rng.randrange(100, 999)}" for i in range(n)]
        oracle = oracle_for(addrs)
        keys = [rng.randrange(2**128) for _ in range(n_keys)]
        homes = {k: oracle(k) for k in keys}

        newcomer = f"10.31.{seed}.250:7{rng.randrange(100, 999)}"
        oracle_after_join = oracle_for(addrs + [newcomer])
        homes_join = {k: oracle_after_join(k) for k in keys}
        moved_join = {k for k in keys if homes_join[k] != homes[k]}
        # Only keys in the newcomer's arc move, and they move to it.
        assert all(homes_join[k] == newcomer for k in moved_join)
        join_fractions.append(len(moved_join) / n_keys)

        leaver = addrs[seed % n]
        oracle_after_leave = oracle_for([a for a in addrs if a != leaver])
        homes_leave = {k: oracle_after_leave(k) for k in keys}
        moved_leave = {k for k in keys if homes_leave[k] != homes[k]}
        assert moved_leave == {k for k in keys if homes[k] == leaver}
        leave_fractions.append(len(moved_leave) / n_keys)

    bound = 3 / n
    assert sum(join_fractions) / len(join_fractions) <= bound
    assert sum(leave_fractions) / len(leave_fractions) <= bound

    # The live ring moves exactly those keys too (one seed, end to end).
    rng = random.Random(2100)
    addrs = [f"10.32.0.{i}:7{i:03d}" for i in range(n)]
    nodes, transport = chord.build_ring(addrs, bits=128)
    oracle = oracle_for(addrs)
    sample = [rng.randrange(2**128) for _ in range(400)]
    for i, key in enumerate(sample):
        owner = nodes[oracle(key)]
        owner.put_primary(ring_row(f"k{i}", key))
    newcomer = "10.32.1.9:7999"
    node = chord.RingNode(newcomer, transport, bits=128)
    transport.add(node)
    nodes[newcomer] = node
    node.join(addrs[0])
    chord.stabilize_all(nodes)
    oracle_joined = oracle_for(list(nodes))
    for addr, ring_node in nodes.items():
        for row in ring_node.store.peer_rows():
            if not row.replica:
                assert oracle_joined(row.ring_id) == addr
    verdict(
        2,
        f"mean moved fraction join={sum(join_fractions)/20:.4f} "
        f"leave={sum(leave_fractions)/20:.4f} <= {bound:.4f}; arcs exact",
    )


# -- 3. tamper detection -------------------------------------------------------------------


def test_criterion_3_tamper_detection():
    ca = identity.CAState("acc-ca", identity.generate_keypair("ec-p256"))
    rng = random.Random(3001)

    def fresh_record(i):
        pair = identity.generate_keypair("ec-p256")
        cert = ca.issue(f"acc3-user{i}", pair.public_key)
        record = make_registration_record(
            username=cert.username,
            ip=f"10.0.{rng.randrange(255)}.{rng.randrange(255)}",
            port=rng.randrange(1024, 65535),
            protocol=rng.choice(["tcp", "udp"]),
            relay_address="10.3.0.1" if rng.random() < 0.5 else "",
            relay_port=7300 if rng.random() < 0.5 else 0,
            passphrase=identity.generate_passphrase(rng),
            encrypted_mirror_list=rng.randbytes(rng.randrange(1, 64)),
            private_key=pair.private_key,
        )
        return record, cert

    false_positives = 0
    for i in range(1000):
        record, cert = fresh_record(i)
        if check_peer_record(record, cert) != "ok":
            false_positives += 1
    assert false_positives == 0

    mutations = {
        "ip": lambda r: "6.6.6.6",
        "port": lambda r: r.port ^ 1,
        "protocol": lambda r: "udp" if r.protocol == "tcp" else "tcp",
        "relay_address": lambda r: "6.6.6.1",
        "relay_port": lambda r: r.relay_port + 1,
        "passphrase": lambda r: r.passphrase[:-1] + ("A" if r.passphrase[-1] != "A" else "B"),
        "encrypted_mirror_list": lambda r: r.encrypted_mirror_list + b"\x00",
    }
    # Every field but the username (the certificate's) and the signature:
    # each steers a connection or a lookup.
    unbound = {"username", "signed_digest"}
    assert set(mutations) == set(RegistrationRecord.LAYOUT.names) - unbound
    missed = 0
    total = 0
    for i in range(60):
        record, cert = fresh_record(1000 + i)
        for field_name, mutate in mutations.items():
            bad = type(record)(**{**record.__dict__, field_name: mutate(record)})
            total += 1
            if check_peer_record(bad, cert) != "storage_attack":
                missed += 1
    assert missed == 0
    verdict(3, f"{total} single-field mutations all flagged; 0/1000 false positives")


# -- 4. complaint semantics ------------------------------------------------------------------


def test_criterion_4_complaint_semantics():
    ca = identity.CAState("acc4-ca", identity.generate_keypair("ec-p256"))
    accused = "10.9.0.0:7200"

    def user(name):
        pair = identity.generate_keypair("ec-p256")
        return pair, ca.issue(name, pair.public_key)

    registered = {f"reg{i}": True for i in range(4)}

    def is_registered(username, _accused):
        return registered.get(username, False)

    def add(ledger, name, now=1000):
        pair, cert = users[name]
        complaint = make_complaint(accused, cert, pair.private_key, now)
        return ledger.add(complaint, ca.public_key, now, 60_000, is_registered)

    users = {}
    for i in range(4):
        users[f"reg{i}"] = user(f"reg{i}")
    for i in range(3):
        users[f"out{i}"] = user(f"out{i}")
        registered[f"out{i}"] = False

    # Goal: eviction at exactly 3 distinct registered complainants, never 2.
    ledger = ComplaintLedger(threshold=3)
    add(ledger, "reg0")
    add(ledger, "reg1")
    assert ledger.adjudicate(accused) == "retain"
    add(ledger, "reg1", now=1005)  # duplicate complainant counts once
    assert ledger.distinct_complainants(accused) == 2
    assert ledger.adjudicate(accused) == "retain"
    add(ledger, "reg2")
    assert ledger.adjudicate(accused) == "evict"

    # Non-registered complainants never count.
    ledger2 = ComplaintLedger(threshold=3)
    for i in range(3):
        assert not add(ledger2, f"out{i}")
    assert ledger2.adjudicate(accused) == "retain"

    # Server-originated complaints carry no peer signature: never valid.
    ledger3 = ComplaintLedger(threshold=3)
    server_key = identity.generate_keypair("ec-p256")
    for i in range(3):
        _, cert = users[f"reg{i}"]
        forged = make_complaint(accused, cert, server_key.private_key, 1000)
        assert not ledger3.add(
            forged, ca.public_key, 1000, 60_000, is_registered
        )
    assert ledger3.adjudicate(accused) == "retain"

    # Replayed (stale-timestamp) complaints are dropped.
    ledger4 = ComplaintLedger(threshold=3)
    pair, cert = users["reg0"]
    stale = make_complaint(accused, cert, pair.private_key, now=1000)
    assert not ledger4.add(stale, ca.public_key, 999_999, 60_000, is_registered)

    # End to end: the ring evicts when three victims registered with the
    # lying server each accumulate enough friend notifications.
    victims = ["victim000", "victim002", "victim098"]
    buddies = ["buddy000", "buddy001", "buddy002"]
    config = SimConfig(
        seed=6, duration_ms=25000, n_rendezvous=4, n_relays=1,
        n_peers=6, peer_names=victims + buddies, global_mode=True,
        friendships=[[v, b] for v in victims for b in buddies],
        complaint_threshold=3, notification_threshold=3,
        adversaries=[{
            "behaviors": ["falsify_record"], "targets": [rendezvous_addr(0)],
            "victims": victims, "start_ms": 1000,
        }],
    )
    scenario = Scenario(config)
    metrics, trace = scenario.run()
    evictions = events(trace, "eviction")
    assert {f["accused"] for _, f in evictions} == {rendezvous_addr(0)}
    evicting_nodes = {f["node"] for _, f in evictions}
    honest = {rendezvous_addr(i) for i in (1, 2, 3)}
    assert evicting_nodes == honest  # ring-wide, never the accused itself
    first_eviction = min(t for t, _ in evictions)
    distinct_before = {
        f["complainant"]
        for t, f in events(trace, "complaint")
        if t <= first_eviction and f["node"] in honest
    }
    assert len(distinct_before) >= 3
    verdict(4, "evict at exactly 3 distinct registered complainants; duplicates, "
               "outsiders, forgeries and replays never count; ring-wide end to end")


# -- 5. verification procedure ----------------------------------------------------------------


def _verification_run(seed, kind):
    adversaries = [{
        "behaviors": ["claim_key"], "targets": [rendezvous_addr(0)],
        "victims": ["user02"], "start_ms": 500,
    }]
    expected = {rendezvous_addr(0)}
    if kind == "r2":
        adversaries = [
            {"behaviors": ["misroute"], "targets": [rendezvous_addr(0)],
             "victims": ["user02"], "accomplice": rendezvous_addr(1), "start_ms": 500},
            {"behaviors": ["claim_key"], "targets": [rendezvous_addr(1)],
             "victims": ["user02"], "start_ms": 500},
        ]
        expected = {rendezvous_addr(0), rendezvous_addr(1)}
    config = SimConfig(
        seed=seed, duration_ms=8000, n_rendezvous=4, n_relays=0, n_peers=4,
        global_mode=True, adversaries=adversaries,
        rebootstrap=[{"peer": "user02", "at": 1500}],
    )
    scenario = Scenario(config)
    metrics, trace = scenario.run()
    suspects = events(trace, "suspect")
    assert suspects, f"{kind} seed {seed}: no suspicion raised"
    implicated = set(suspects[-1][1]["implicated"].split(","))
    assert implicated == expected, f"{kind} seed {seed}: {implicated} != {expected}"
    oracle = oracle_for([rendezvous_addr(i) for i in range(4)])
    ids = dual_hash("user02")
    assert set(scenario.peers["user02"].state.registered_at) == {
        oracle(ids.id_md5), oracle(ids.id_sha1)
    }, f"{kind} seed {seed}: registered at wrong servers"


def test_criterion_5_verification_procedure():
    for seed in range(5000, 5010):
        _verification_run(seed, "r3")
    for seed in range(5100, 5110):
        _verification_run(seed, "r2")
    verdict(5, "R.2/R.3 x 10 seeds each: implicated == script, "
               "registration always lands at oracle-correct servers")


# -- 6. handshake and relay opacity --------------------------------------------------------------


class _Tap:
    """Records every byte crossing the observed leg."""

    def __init__(self, inner):
        self.inner = inner
        self.seen = bytearray()

    def open_session(self, ctx):
        tap = self
        inner_session = self.inner.open_session(ctx)

        class _S:
            def handle(self, frame, c):
                tap.seen += frame.encode()
                reply = inner_session.handle(frame, c)
                if reply is not None:
                    tap.seen += reply.encode()
                return reply

            def closed(self, c):
                inner_session.closed(c)

        return _S()


def test_criterion_6_opacity_and_transparency():
    ca = identity.CAState("acc6-ca", identity.generate_keypair("ec-p256"))

    def user(name):
        pair = identity.generate_keypair("ec-p256")
        return pair, ca.issue(name, pair.public_key)

    skeys, scert = user("acc6-server")
    ckeys, ccert = user("acc6-client")
    transcripts = {"direct": [], "relay": []}

    def responder_service(label):
        def app(body, peer):
            kind, fields = secure.unpack_app(body)
            transcripts[label].append((kind, tuple(fields)))
            return wire.pack_fields(*fields)

        class _Service:
            def open_session(self, ctx):
                return secure.ResponderSession(
                    scert, skeys, ca.public_key, lambda u: True, app
                )

        return _Service()

    n_messages = 10_000
    rng = random.Random(6001)
    payloads = [rng.randbytes(rng.randrange(1, 96)) for _ in range(n_messages)]
    markers = [b"MARKER-" + p for p in payloads[:200]]

    # Direct: observer taps the wire in front of the responder.
    direct_tap = _Tap(responder_service("direct"))
    direct_ch = DirectChannel(direct_tap, remote_addr="srv:1", local_addr="cli:1")
    direct = secure.connect_secure(direct_ch, ccert, ckeys, ca.public_key)
    direct_replies = []
    for i, payload in enumerate(payloads):
        body = markers[i % len(markers)] + payload
        direct_replies.append(direct.request_app("m", body))

    # Relayed: observer is the relay leg itself.
    relay = RelayServer(
        addr="10.40.0.1:7300", ca_public_key=ca.public_key,
        rng=random.Random(6002), clock=lambda: 0,
    )
    relay_tap = _Tap(MuxService(responder_service("relay")))
    admit_ch = DirectChannel(relay, remote_addr=relay.addr, local_addr="srv:2")
    admit_as_server(admit_ch, scert, skeys, ca.public_key, relay_tap)
    bridge = DirectChannel(relay, remote_addr=relay.addr, local_addr="cli:2")
    wire.open_reply(bridge.request(wire.Frame(wire.BRIDGE_OPEN, wire.pack_fields(b"acc6-server"))))
    relayed = secure.connect_secure(bridge, ccert, ckeys, ca.public_key)
    relay_replies = []
    for i, payload in enumerate(payloads):
        body = markers[i % len(markers)] + payload
        relay_replies.append(relayed.request_app("m", body))

    for observer in (bytes(direct_tap.seen), bytes(relay_tap.seen)):
        for marker in markers[:32]:
            assert marker not in observer
        assert direct.session_key.key not in observer
        assert relayed.session_key.key not in observer
    assert direct_replies == relay_replies
    assert transcripts["direct"] == transcripts["relay"]
    assert len(transcripts["direct"]) == n_messages
    verdict(6, f"{n_messages} fuzzed messages x2 paths: observers saw no plaintext "
               "markers or keys; endpoint transcripts byte-identical")


# -- 7. revocation completeness --------------------------------------------------------------------


def test_criterion_7_revocation_completeness():
    friends = [f"user{i:02d}" for i in range(1, 11)]
    config = SimConfig(
        seed=7001, duration_ms=5000, n_rendezvous=1, n_relays=0, n_peers=12,
        friendships=[["user00", f] for f in friends],
    )
    scenario = Scenario(config)
    owner = scenario.peers["user00"]
    outsider = scenario.peers["user11"]  # never befriended
    ex = "user01"
    old_passphrase = owner.state.passphrase
    owner.revoke_friend(ex)

    located = []
    for name in friends:
        if name == ex:
            continue
        record, _ = scenario.peers[name].locate_friend("user00")
        located.append(record.passphrase == owner.state.passphrase)
    assert located == [True] * 9

    with pytest.raises((NotFound, StorageAttack, Unavailable)):
        scenario.peers[ex].locate_friend("user00")

    # Non-friends and the ex-friend find nothing under the old passphrase.
    server = scenario.servers[sorted(scenario.servers)[0]]
    assert server.store.peer_by_passphrase(old_passphrase) is None
    with pytest.raises(NotFound):
        outsider.locate_friend("user00")

    # Replayed old channel credentials refused at admission.
    with pytest.raises((AuthError, Unavailable)):
        scenario.peers[ex].connect_friend("user00")
    verdict(7, "after revoke: locate succeeds for exactly the 9 remaining "
               "friends; ex-friend and non-friends locked out")


# -- 8. pull minimality -------------------------------------------------------------------------------


def test_criterion_8_pull_minimality():
    from friendmesh.profile import COMPONENTS

    host = Profile("olive")
    host.apply_update("olive", "share_board", op_perm("read", ["rita"]), timestamp=1)
    for i in range(6):
        host.apply_update("olive", "share_board", op_add(f"p{i}", b"x" * 20), timestamp=2 + i)

    # Up-to-date pull: request header + empty reply, per element budget.
    vector = host.vector()
    digests = {c: host.prefix_digest(c, v) for c, v in vector.items()}
    reader = Profile.replay("olive", host.log)
    request = pack_app("pull", b"olive", encode_vector(reader))
    batch = host.pull_updates("rita", vector, digests)
    assert batch == []
    reply = wire.OK + wire.encode("pull", batch, reply=True)
    per_element = (len(request) + len(reply)) / len(COMPONENTS)
    assert per_element <= 64, per_element

    # Two-entry delta: transferred batch within 1.5x of the raw entries.
    behind_vector = dict(vector)
    behind_vector["share_board"] -= 2
    behind_digests = dict(digests)
    behind_digests["share_board"] = host.prefix_digest("share_board", behind_vector["share_board"])
    delta = host.pull_updates("rita", behind_vector, behind_digests)
    assert len(delta) == 2
    serialized = sum(len(e.encode()) for e in delta)
    transferred = len(wire.OK + wire.encode("pull", delta, reply=True))
    assert transferred <= 1.5 * serialized, (transferred, serialized)
    verdict(8, f"up-to-date pull {per_element:.1f} B/element (<=64); "
               f"2-entry delta {transferred} B <= 1.5x{serialized} B")


# -- 9. partition self-healing ---------------------------------------------------------------------------


def test_criterion_9_partition_self_healing():
    owner, m1, m2, f1, f2 = ["isle000", "isle005", "isle007", "isle008", "isle013"]
    sync_interval = 4000
    config = SimConfig(
        seed=8, duration_ms=30000, n_rendezvous=2, n_relays=0, n_peers=5,
        peer_names=[owner, m1, m2, f1, f2], global_mode=True,
        friendships=[[owner, m1], [owner, m2], [owner, f1], [owner, f2]],
        mirrors=[[owner, m1], [owner, m2]],
        friend_writes=[{"author": f2, "owner": owner, "interval": 4000}],
        partitions=[{"nodes": ["10.9.0.0:7200", owner, m1, f1], "start": 5000, "end": 18000}],
        sync_interval_ms=sync_interval,
    )
    metrics, trace = run_scenario(config)
    start, end = metrics.partition_windows[0]
    island_a = {owner, m1, f1}

    # Intra-island pairs: reader and a server of the owner share an island.
    expect_ok = {(m1, owner), (f1, owner), (owner, m1), (owner, f1), (f2, owner)}
    for name in ("pull_ok", "pull_fail"):
        for t, fields in events(trace, name):
            if not start <= t < end:
                continue
            pair = (fields["peer"], fields["owner"])
            if pair in expect_ok:
                assert name == "pull_ok", f"intra-island pull failed: {pair} at {t}"

    # The island-B friend's writes landed at the island-B mirror.
    writes_during = [t for t, f in events(trace, "friend_write_ok") if start <= t < end]
    assert writes_during

    convergence = metrics.convergence_after_ms(end)
    assert convergence is not None and convergence <= sync_interval
    verdict(9, f"intra-island pulls 100% during cut; replicas replay-equivalent "
               f"{convergence} ms after heal (<= one {sync_interval} ms sync round)")


# -- 10. determinism -----------------------------------------------------------------------------------------


def test_criterion_10_determinism():
    config_dict = dict(
        seed=10001, duration_ms=10000, n_rendezvous=3, n_relays=1, n_peers=5,
        global_mode=True, latency_jitter_ms=7, loss_rate=0.02,
        nat_assignment={"user02": "symmetric"},
        mirrors=[["user00", "user01"]],
    )
    _, trace_a = run_scenario(SimConfig(**config_dict))
    _, trace_b = run_scenario(SimConfig(**config_dict))
    digest_a = hashlib.sha256(trace_a.encode()).hexdigest()
    digest_b = hashlib.sha256(trace_b.encode()).hexdigest()
    assert digest_a == digest_b
    _, trace_c = run_scenario(SimConfig(**{**config_dict, "seed": 10002}))
    assert trace_c != trace_a
    verdict(10, f"identical seed -> identical trace hash {digest_a[:12]}..; "
                "different seed diverges")
