import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from friendmesh.chord import dual_hash, node_ident
from friendmesh.errors import ConfigError
from friendmesh.simnet.metrics import metric_records, metrics_from_trace, summary_table, type_table
from friendmesh.simnet.scenario import (
    Scenario,
    SimConfig,
    rendezvous_addr,
    run_scenario,
)


def oracle_for(addrs):
    pairs = sorted((node_ident(a, 128), a) for a in addrs)

    def oracle(key):
        for ident, a in pairs:
            if ident >= key:
                return a
        return pairs[0][1]

    return oracle


# -- determinism ------------------------------------------------------------------


def test_sim_nat_models_classify_correctly():
    from friendmesh.nat import NatType, stun_classify
    from friendmesh.simnet.core import SimNet, SimStunProbes

    sim = SimNet(seed=1)
    for i, nat in enumerate(NatType):
        host = sim.add_host(f"10.50.0.{i}:7500", None, nat)
        assert stun_classify(SimStunProbes(host)) is nat


def test_sim_nat_admission():
    from friendmesh.channel import FuncService
    from friendmesh.errors import PeerUnreachable
    from friendmesh.nat import NatType
    from friendmesh.simnet.core import SimNet
    from friendmesh.wire import Frame

    sim = SimNet(seed=2)
    echo = FuncService(lambda frame, ctx: frame)
    caller = sim.add_host("10.51.0.1:7500", echo, NatType.PUBLIC)
    restricted = sim.add_host("10.51.0.2:7500", echo, NatType.PORT_RESTRICTED)
    symmetric = sim.add_host("10.51.0.3:7500", echo, NatType.SYMMETRIC)
    cone = sim.add_host("10.51.0.4:7500", echo, NatType.FULL_CONE)

    with pytest.raises(PeerUnreachable):
        sim.connect(caller, restricted.addr)
    with pytest.raises(PeerUnreachable):
        sim.connect(caller, symmetric.addr)

    # Full cone accepts once its binding opened via any outbound traffic.
    cone.binding_open = False
    with pytest.raises(PeerUnreachable):
        sim.connect(caller, cone.addr)
    sim.connect(cone, caller.addr)  # outbound opens the binding
    assert sim.connect(caller, cone.addr).request(Frame(1, b"x")) == Frame(1, b"x")

    # Restricted cones and symmetric NATs never open, even with a binding open.
    other = sim.add_host("10.51.0.9:7500", echo, NatType.PUBLIC)
    for host in (restricted, symmetric):
        host.binding_open = True
        with pytest.raises(PeerUnreachable):
            sim.connect(other, host.addr)


def test_identical_seed_identical_trace():
    config = SimConfig(seed=42, duration_ms=8000, n_peers=4, n_rendezvous=2, global_mode=True)
    _, trace_a = run_scenario(config)
    _, trace_b = run_scenario(SimConfig(**{**config.__dict__}))
    assert hashlib.sha256(trace_a.encode()).hexdigest() == hashlib.sha256(
        trace_b.encode()
    ).hexdigest()


def test_different_seed_different_trace():
    base = dict(duration_ms=6000, n_peers=3, latency_jitter_ms=9)
    _, trace_a = run_scenario(SimConfig(seed=1, **base))
    _, trace_b = run_scenario(SimConfig(seed=2, **base))
    assert trace_a != trace_b


def test_invalid_config_rejected():
    with pytest.raises(ConfigError):
        SimConfig.from_dict({"seed": 1, "banana": True})


# -- baseline ---------------------------------------------------------------------


def test_baseline_honest_no_failures():
    config = SimConfig(seed=3, duration_ms=12000, n_rendezvous=4, n_relays=2, n_peers=8,
                       global_mode=True)
    metrics, _ = run_scenario(config)
    assert metrics.pulls_failed == 0
    assert metrics.pulls_ok > 0
    assert metrics.lookup_success_rate == 1.0
    assert metrics.evictions == []
    assert metrics.detections == []


def test_honest_path_conservation():
    # Meta-suite: after a full honest run, every module's invariant holds
    # over the world's final state.
    config = SimConfig(
        seed=99, duration_ms=15000, n_rendezvous=4, n_relays=2, n_peers=6,
        global_mode=True,
        nat_assignment={"user02": "symmetric", "user04": "full_cone"},
        mirrors=[["user00", "user01"]],
    )
    scenario = Scenario(config)
    metrics, _ = scenario.run()
    assert metrics.pulls_failed == 0

    oracle = oracle_for(sorted(scenario.servers))
    for addr, server in scenario.servers.items():
        # Every stored registration verifies under its own certificate.
        for row in server.store.peer_rows():
            assert row.verified(scenario.ca.public_key)
            # Primary rows sit at their oracle home.
            if not row.replica:
                assert oracle(row.ring_id) == addr
        # Ring pointers match the hash-order oracle.
        order = sorted(scenario.servers, key=lambda a: node_ident(a, 128))
        i = order.index(addr)
        assert server.ring.successor() == order[(i + 1) % len(order)]
        assert server.ring.predecessor == order[(i - 1) % len(order)]
        # Nothing plaintext-sensitive in the store.
        for peer in scenario.peers.values():
            for row in server.store.peer_rows():
                assert peer.state.passphrase.encode() not in row.record.encrypted_mirror_list

    for addr, relay in scenario.relays.items():
        assert len(relay.sessions) == relay.admitted - relay.evicted - relay.closed

    for username, peer in scenario.peers.items():
        allowed = (
            set(peer.state.friend_list)
            | set(peer.state.pending_incoming)
            | set(peer.state.pending_outgoing)
        )
        for other in scenario.peers:
            if other == username:
                continue
            expect = other in allowed or any(
                r.may_access(other) for r in peer.replicas.values()
            )
            assert peer.admission_gate(other) == expect
        # Profile replay equivalence survives the run.
        replayed = peer.profile.replay(username, peer.profile.log)
        assert replayed.canonical_encode() == peer.profile.canonical_encode()


def test_metrics_records_and_table():
    config = SimConfig(seed=4, duration_ms=5000, n_peers=3)
    metrics, trace = run_scenario(config)
    reparsed = metrics_from_trace(trace)
    assert reparsed.pulls_ok == metrics.pulls_ok
    records = metric_records(metrics)
    assert any(r.startswith("metric messages=") for r in records)
    table = summary_table(metrics)
    assert "availability" in table


def test_frames_and_bytes_per_message_type_come_from_the_msg_lines():
    trace = "\n".join([
        "#config {}",
        "0000000001 MSG req 10.0.0.1:1 10.0.0.2:2 register_peer 36",
        "0000000002 MSG rep 10.0.0.2:2 10.0.0.1:1 session_key 206",
        "0000000003 MSG req 10.0.0.1:1 10.0.0.2:2 app_data 100",
        "0000000004 MSG rep 10.0.0.2:2 10.0.0.1:1 app_data 50",
        "0000000005 EV pull_ok owner=a reader=b",
    ])
    m = metrics_from_trace(trace)
    assert m.messages == 4
    assert m.type_frames == {"register_peer": 1, "session_key": 1, "app_data": 2}
    assert m.type_bytes == {"register_peer": 36, "session_key": 206, "app_data": 150}
    rows = [line.split() for line in type_table(m).splitlines()]
    assert rows == [
        ["message", "type", "frames", "bytes", "B/frame"],
        ["session_key", "1", "206", "206.0"],
        ["app_data", "2", "150", "75.0"],
        ["register_peer", "1", "36", "36.0"],
        ["total", "4", "392", "98.0"],
    ]
    _, run = run_scenario(SimConfig(seed=4, duration_ms=5000, n_peers=3))
    m = metrics_from_trace(run)
    sizes = [int(line.split()[6]) for line in run.splitlines() if " MSG " in line]
    assert sum(m.type_frames.values()) == m.messages == len(sizes)
    assert sum(m.type_bytes.values()) == sum(sizes)


# -- partitions ----------------------------------------------------------------------


def test_empty_partition_is_noop():
    config = SimConfig(seed=5, duration_ms=6000, n_peers=3,
                       partitions=[{"nodes": [], "start": 1000, "end": 4000}])
    metrics, _ = run_scenario(config)
    assert metrics.pulls_failed == 0


def test_full_partition_blocks_and_recovers():
    # All peers cut from every server mid-run: lookups fail during the
    # window and recover afterwards.
    config = SimConfig(
        seed=6, duration_ms=20000, n_rendezvous=1, n_relays=0, n_peers=3,
        partitions=[{"nodes": ["10.9.0.0:7200"], "start": 4000, "end": 12000}],
        pull_interval_ms=2000,
    )
    metrics, trace = run_scenario(config)
    start, end = metrics.partition_windows[0]
    during_fail = during_ok = after_ok = after_fail = 0
    for line in trace.splitlines():
        parts = line.split()
        if len(parts) < 3 or parts[1] != "EV":
            continue
        t, name = int(parts[0]), parts[2]
        if name == "pull_fail" and start <= t < end:
            during_fail += 1
        if name == "pull_ok" and start <= t < end:
            during_ok += 1
        if name == "pull_ok" and t >= end:
            after_ok += 1
        if name == "pull_fail" and t >= end:
            after_fail += 1
    assert during_fail > 0 and during_ok == 0
    assert after_ok > 0 and after_fail == 0


def test_churn_down_and_up():
    config = SimConfig(
        seed=7, duration_ms=16000, n_peers=3,
        churn=[{"node": "user01", "down_at": 3000, "up_at": 9000}],
        pull_interval_ms=2000,
    )
    metrics, trace = run_scenario(config)
    failed_during = [
        line for line in trace.splitlines()
        if " EV pull_fail" in line and "owner=user01" in line
    ]
    assert failed_during  # offline peer was missed
    assert metrics.pulls_ok > 0  # and traffic resumed


# -- adversaries --------------------------------------------------------------------------


def test_r1_drop_lookups_peer_retries_next_server():
    # The first bootstrap server refuses to answer lookups; registration
    # still completes through another server.
    config = SimConfig(
        seed=8, duration_ms=6000, n_rendezvous=3, n_peers=2, global_mode=True,
        adversaries=[{
            "behaviors": ["drop_lookups"],
            "targets": [rendezvous_addr(0)],
            "start_ms": 0,
        }],
        rebootstrap=[{"peer": "user00", "at": 1000}],
    )
    scenario = Scenario(config)
    metrics, trace = scenario.run()
    assert scenario.peers["user00"].state.registered_at
    oracle = oracle_for(sorted(scenario.servers))
    ids = dual_hash("user00")
    assert set(scenario.peers["user00"].state.registered_at) == {
        oracle(ids.id_md5), oracle(ids.id_sha1)
    }


def test_t1_detection_events():
    config = SimConfig(
        seed=9, duration_ms=10000, n_rendezvous=4, n_peers=4, global_mode=True,
        adversaries=[{
            "behaviors": ["falsify_record"],
            "targets": [rendezvous_addr(i) for i in range(4)],
            "victims": ["user01"],
            "start_ms": 1000,
        }],
    )
    metrics, _ = run_scenario(config)
    assert metrics.detections
    assert metrics.detection_latency_ms is not None
    assert metrics.detection_latency_ms >= 0


def _sim_sybil_addrs(seed, count):
    # Exactly the generation the scenario uses; this is the oracle's input.
    import random as _random

    rng = _random.Random(f"{seed}:sybil")
    return [f"10.66.{rng.randrange(250)}.{rng.randrange(250)}:{7000 + i}" for i in range(count)]


def test_s1_monte_carlo_takeover_matches_coverage_fraction():
    # 100 sybil servers target one username. Takeover happens iff a sybil id
    # lands between the key and its honest successor; across 50 seeds the
    # empirical rate must track that coverage fraction and never reach
    # certainty, because the attacker cannot invert the hash to choose ids.
    space = 2**128
    n_sybil = 100
    honest = [rendezvous_addr(i) for i in range(8)]
    honest_ids = sorted(node_ident(a, 128) for a in honest)
    target = "carol0034"  # mined so the coverage fraction is mid-range
    key = dual_hash(target).id_md5

    def arc(k):
        for ident in honest_ids:
            if ident >= k:
                return ident - k
        return honest_ids[0] + space - k

    coverage = 1 - (1 - arc(key) / space) ** n_sybil
    assert 0.3 < coverage < 0.7

    def taken_over(seed):
        ids = [node_ident(a, 128) for a in _sim_sybil_addrs(seed, n_sybil)]
        return any((i - key) % space < arc(key) for i in ids)

    hits = sum(taken_over(seed) for seed in range(50))
    rate = hits / 50
    assert abs(rate - coverage) <= 0.2
    assert 0.0 < rate < 1.0  # never deterministic success (or failure)

    # Ground the oracle: full simulations on sampled seeds end with exactly
    # the ownership geometry the oracle predicts.
    for seed in (0, 1, 2):
        config = SimConfig(
            seed=seed, duration_ms=10000, n_rendezvous=8, n_peers=2,
            peer_names=[target, "carol-friend"], global_mode=True,
            stabilize_interval_ms=1000,
            adversaries=[{
                "behaviors": ["sybil_spawn"], "count": n_sybil,
                "key_target": target, "start_ms": 500,
            }],
        )
        scenario = Scenario(config)
        metrics, _ = scenario.run()
        union = honest + _sim_sybil_addrs(seed, n_sybil)
        oracle = oracle_for(union)
        ids = dual_hash(target)
        assert metrics.key_owners[target] == (oracle(ids.id_md5), oracle(ids.id_sha1))
        assert taken_over(seed) == metrics.key_owners[target][0].startswith("10.66.")


def test_s1_sybils_join_but_cannot_choose_position():
    config = SimConfig(
        seed=10, duration_ms=12000, n_rendezvous=4, n_peers=3, global_mode=True,
        adversaries=[{
            "behaviors": ["sybil_spawn"],
            "count": 20,
            "key_target": "user00",
            "start_ms": 500,
        }],
        stabilize_interval_ms=1000,
    )
    scenario = Scenario(config)
    metrics, trace = scenario.run()
    sybils = [a for a in scenario.servers if a.startswith("10.66.")]
    assert len(sybils) == 20
    # Geometry is hash-determined: the takeover outcome equals the oracle
    # over all live node addresses, never an attacker's free choice.
    oracle = oracle_for(sorted(scenario.servers))
    ids = dual_hash("user00")
    assert metrics.key_owners["user00"] == (oracle(ids.id_md5), oracle(ids.id_sha1))


def test_e1_eclipse_attempt_cannot_warp_ring_structure():
    # Positions are address hashes: poisoned ring-state replies never move
    # an honest node's predecessor/successor off the true hash order.
    config = SimConfig(
        seed=11, duration_ms=12000, n_rendezvous=5, n_peers=4, global_mode=True,
        adversaries=[{
            "behaviors": ["eclipse_attempt"],
            "targets": [rendezvous_addr(4)],
            "start_ms": 1000,
        }],
        pull_interval_ms=2000,
    )
    scenario = Scenario(config)
    scenario.run()
    order = sorted(scenario.servers, key=lambda a: node_ident(a, 128))
    for i, addr in enumerate(order):
        if addr == rendezvous_addr(4):
            continue  # the attacker's own pointers are its business
        node = scenario.servers[addr].ring
        true_succ = order[(i + 1) % len(order)]
        true_pred = order[(i - 1) % len(order)]
        assert node.successor() == true_succ
        assert node.predecessor == true_pred


def test_adversary_selectivity_time_window():
    config = SimConfig(
        seed=12, duration_ms=16000, n_rendezvous=2, n_peers=3, global_mode=True,
        adversaries=[{
            "behaviors": ["falsify_record"],
            "targets": [rendezvous_addr(0), rendezvous_addr(1)],
            "victims": ["user01"],
            "start_ms": 4000,
            "end_ms": 8000,
        }],
        pull_interval_ms=1500,
    )
    metrics, trace = run_scenario(config)
    window = [t for t in metrics.detections]
    start = metrics.adversary_starts[0]
    assert window
    assert all(t >= start for t in window)
    # Before the window and after it, pulls of user01 succeed.
    ok_before = [
        line for line in trace.splitlines()
        if " EV pull_ok" in line and "owner=user01" in line and int(line.split()[0]) < start
    ]
    assert ok_before


# -- host clocks ------------------------------------------------------------------------


def _echo_hosts(sim, count):
    from friendmesh.channel import FuncService

    echo = FuncService(lambda frame, ctx: frame)
    return [sim.add_host(f"10.60.0.{i}:7200", echo) for i in range(count)]


def _msg_lines(trace):
    """(stamp, kind, from, to, name) of every MSG line, in trace order."""
    out = []
    for line in trace:
        parts = line.split()
        if parts[1] == "MSG":
            out.append((int(parts[0]), parts[2], parts[3], parts[4], parts[5]))
    return out


def test_upkeep_scheduled_together_runs_side_by_side():
    # Two hosts' upkeep due at the same time both start then: the second
    # does not wait for the first one's round trips.
    from friendmesh.simnet.core import LinkModel, SimNet
    from friendmesh.wire import Frame

    sim = SimNet(seed=1, link=LinkModel(latency_base_ms=5, latency_jitter_ms=0))
    a, b, server_a, server_b = _echo_hosts(sim, 4)
    for src, dst in ((a, server_a), (b, server_b)):
        def upkeep(src=src, dst=dst):
            channel = sim.connect(src, dst.addr)
            for _ in range(3):
                channel.request(Frame(1, b"tick"))
        sim.schedule_at(1000, upkeep)
    sim.run(2000)
    first = {}
    for stamp, kind, src, _dst, _name in _msg_lines(sim.trace):
        if kind == "req":
            first.setdefault(src, stamp)
    assert first == {a.addr: 1005, b.addr: 1005}
    assert a.clock == b.clock == 1030  # three round trips of 10 ms each
    assert sim.now == 2000  # the driver resumes where it asked to


def test_callee_busy_later_answers_at_its_own_time():
    # A request that reaches a host whose clock is ahead waits for it, and
    # its reply carries that delay back to the caller.
    from friendmesh.simnet.core import LinkModel, SimNet
    from friendmesh.wire import Frame

    sim = SimNet(seed=1, link=LinkModel(latency_base_ms=5, latency_jitter_ms=0))
    caller, server = _echo_hosts(sim, 2)
    server.clock = 1500
    sim.schedule_at(1000, lambda: sim.connect(caller, server.addr).request(Frame(1, b"x")))
    sim.run(1000)
    assert [line[0] for line in _msg_lines(sim.trace)] == [1500, 1505]
    assert (server.clock, caller.clock) == (1500, 1505)


def test_lost_reply_is_resent_not_handled_again():
    # On a lossy link every request is handled exactly once; a retry after
    # a lost reply gets the reply the callee already has.
    from friendmesh.simnet.core import LinkModel, SimNet
    from friendmesh.wire import Frame

    sim = SimNet(seed=3, link=LinkModel(loss_rate=0.3, request_retries=40))
    handled = []

    class Counting:
        def open_session(self, ctx):
            return self

        def handle(self, frame, ctx):
            handled.append(frame.payload)
            return Frame(frame.msg_type, b"re:" + frame.payload)

    caller = sim.add_host("10.62.0.1:7500")
    server = sim.add_host("10.62.0.2:7200", Counting())
    channel = sim.connect(caller, server.addr)
    payloads = [b"%d" % i for i in range(60)]
    for payload in payloads:
        assert channel.request(Frame(1, payload)) == Frame(1, b"re:" + payload)
    assert handled == payloads
    lines = _msg_lines(sim.trace)
    requests = sum(kind == "req" for _, kind, *_ in lines)
    assert requests > len(payloads)  # some replies were lost and resent
    assert sum(kind == "rep" for _, kind, *_ in lines) == len(payloads)


def _nested_run(n_hosts, events, loss_rate):
    """Events of nested requests: each hop's handler sends to the next hop.
    Returns the trace and, per host, the times its code saw at each
    exchange (on taking a request, and when its own request ended)."""
    from friendmesh.errors import PeerUnreachable
    from friendmesh.simnet.core import LinkModel, SimNet
    from friendmesh.wire import Frame

    sim = SimNet(seed=7, link=LinkModel(latency_base_ms=2, latency_jitter_ms=3,
                                        loss_rate=loss_rate))
    addrs = [f"10.61.0.{i}:7200" for i in range(n_hosts)]
    seen = {addr: [] for addr in addrs}

    def send(src, path):
        """src asks addrs[path[0]] to carry the rest of the path on."""
        try:
            sim.connect(sim.hosts[src], addrs[path[0]]).request(Frame(1, bytes(path[1:])))
        except PeerUnreachable:
            pass
        seen[src].append(sim.now)

    class Hop:
        def __init__(self, addr):
            self.addr = addr

        def open_session(self, ctx):
            return self

        def handle(self, frame, ctx):
            seen[self.addr].append(sim.now)
            if frame.payload:
                send(self.addr, list(frame.payload))
            return Frame(1, b"")

    for addr in addrs:
        sim.add_host(addr, Hop(addr))
    for t, path in events:
        sim.schedule_at(t, lambda path=path: send(addrs[path[0]], path[1:]))
    sim.run(100_000)
    return sim.trace, seen


@settings(deadline=None, max_examples=60)
@given(st.data())
def test_each_host_clock_never_goes_back(data):
    n_hosts = data.draw(st.integers(2, 5))
    hop = st.integers(0, n_hosts - 1)
    events = data.draw(st.lists(
        st.tuples(st.integers(0, 400), st.lists(hop, min_size=2, max_size=6)),
        min_size=1, max_size=12,
    ))
    loss_rate = data.draw(st.sampled_from([0.0, 0.25]))
    trace, seen = _nested_run(n_hosts, events, loss_rate)
    for times in seen.values():
        assert times == sorted(times)
    # A line is stamped when its receiver gets it: each host receives in order.
    received = {}
    for stamp, _kind, _src, dst, _name in _msg_lines(trace):
        assert stamp >= received.get(dst, 0)
        received[dst] = stamp
    assert _nested_run(n_hosts, events, loss_rate) == (trace, seen)


def _idle_ring_upkeep(n_servers, rounds=40, gap_ms=250):
    """Ring requests per server per virtual second, and the virtual span,
    of an idle ring driven in steps of gap_ms as the benchmark drives its
    worlds: each server's tick reschedules itself every period."""
    from friendmesh.errors import ProtocolError

    scenario = Scenario(SimConfig(seed=1, n_rendezvous=n_servers, n_relays=0, n_peers=0,
                                  global_mode=True, latency_base_ms=5))
    sim = scenario.sim
    period = scenario.config.stabilize_interval_ms

    def every(server, t):
        def fire():
            sim.schedule_at(t + period, every(server, t + period))
            try:
                server.tick()
            except ProtocolError:
                pass
        return fire

    start = sim.now
    for addr in sorted(scenario.servers):
        sim.schedule_at(start + period, every(scenario.servers[addr], start + period))
    mark = len(sim.trace)
    for _ in range(rounds):
        sim.run(sim.now + gap_ms)
    ring = sum(1 for _, kind, _, _, name in _msg_lines(sim.trace[mark:])
               if kind == "req" and name.startswith("ring_"))
    return ring / n_servers / (rounds * gap_ms / 1000), sim.now - start


def test_idle_ring_upkeep_per_server_does_not_grow_with_the_ring():
    # On one serial clock a period's upkeep costs the sum of every server's
    # round trips, so the driver's steps overrun and a fixed span carries
    # more upkeep per server as the ring grows (about 9x from 8 to 32
    # servers). With a clock per host each step ends where it was asked to.
    small, small_span = _idle_ring_upkeep(8)
    large, large_span = _idle_ring_upkeep(32)
    assert small_span == large_span == 40 * 250
    assert max(small, large) / min(small, large) <= 1.5
