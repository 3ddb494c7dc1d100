import json

import pytest

from friendmesh.errors import AuthError, NotFound, StorageAttack, Unavailable
from friendmesh.nat import NatType
from friendmesh.peer import Peer, load_state, save_state
from friendmesh.profile import Profile, encode_vector, op_add, op_set
from friendmesh.simnet.adversary import AdversaryScript
from friendmesh.simnet.scenario import Scenario, SimConfig


def small_world(**kw):
    defaults = dict(seed=11, duration_ms=5000, n_rendezvous=1, n_relays=1, n_peers=3)
    defaults.update(kw)
    return Scenario(SimConfig(**defaults))


# -- bootstrap ----------------------------------------------------------------


def test_public_peer_has_no_relay_fields():
    world = small_world()
    peer = world.peers["user00"]
    assert peer.state.nat_type is NatType.PUBLIC
    assert peer.state.relay_endpoint is None
    record = peer.build_record()
    assert record.relay_address == ""
    assert record.relay_port == 0
    assert record.route == (f"{record.ip}:{record.port}", False)
    assert record.port == peer.state.mapped_port != 0


def test_natted_peer_admitted_at_relay_before_registration():
    world = small_world(nat_assignment={"user01": "symmetric"})
    peer = world.peers["user01"]
    assert peer.state.nat_type is NatType.SYMMETRIC
    assert peer.state.relay_endpoint is not None
    record = peer.build_record()
    assert record.port == 0
    assert record.route == (f"{record.relay_address}:{record.relay_port}", True)
    assert record.relay_address
    relay = world.relays[f"{record.relay_address}:{record.relay_port}"]
    assert "user01" in relay.sessions


@pytest.mark.parametrize("relay_state", ["down", "full"])
def test_peer_its_relay_cannot_admit_registers_outbound_only(relay_state):
    # The directory still lists the relay: the peer degrades as when it
    # lists none, and registers all the same.
    world = small_world(nat_assignment={"user01": "symmetric"})
    peer = world.peers["user01"]
    (relay_addr, relay), = world.relays.items()
    if relay_state == "down":
        world.sim.set_down(relay_addr, True)  # a restart: the leg is reset
    else:
        relay._drop("user01", evicted=False)  # the relay ends the session and closes the leg
        relay.config.max_connections = 0
    assert peer._relay_channel.closed
    mark = len(world.sim.trace)
    peer.bootstrap()
    assert any(" EV no_relay peer=user01" in line for line in world.sim.trace[mark:])
    assert peer.state.relay_endpoint is None and peer._relay_channel is None
    record = peer.build_record()
    assert record.relay_address == "" and record.port == 0
    assert record.route == ("", False)
    assert peer.state.registered_at
    # A friend finds no route in the record, and never dials the NAT's
    # mapped address, which would refuse.
    friend = world.peers["user00"]
    dialled = []
    connect = friend.endpoint.connect
    friend.endpoint.connect = lambda addr: dialled.append(addr) or connect(addr)
    with pytest.raises(Unavailable):
        friend.connect_friend("user01")
    assert f"{peer.state.mapped_ip}:{peer.state.mapped_port}" not in dialled


def test_global_mode_registers_at_both_dual_hash_successors():
    # Oracle ring successor check on an 8-server ring.
    world = small_world(seed=12, n_rendezvous=8, global_mode=True)
    addrs = sorted(world.servers)
    from friendmesh.chord import dual_hash, node_ident

    pairs = sorted((node_ident(a, 128), a) for a in addrs)

    def oracle(key):
        for ident, a in pairs:
            if ident >= key:
                return a
        return pairs[0][1]

    for username, peer in world.peers.items():
        ids = dual_hash(username)
        expected = sorted({oracle(ids.id_md5), oracle(ids.id_sha1)})
        assert sorted(peer.state.registered_at) == expected


def test_rebootstrap_after_nat_improves_drops_relay():
    world = small_world(nat_assignment={"user01": "symmetric"})
    peer = world.peers["user01"]
    assert peer.state.relay_endpoint is not None
    from friendmesh.simnet.core import SimStunProbes

    host = world.sim.hosts[peer.endpoint.local_addr()]
    host.nat = NatType.PUBLIC
    peer.probes = SimStunProbes(host)
    peer.bootstrap()
    assert peer.state.relay_endpoint is None
    assert peer.build_record().relay_address == ""


def test_registration_idempotence():
    world = small_world()
    peer = world.peers["user00"]
    rows_before = [
        r for r in world.servers[peer.state.registered_at[0]].store.peer_rows()
        if r.record.username == "user00"
    ]
    peer.reregister()
    peer.reregister()
    rows_after = [
        r for r in world.servers[peer.state.registered_at[0]].store.peer_rows()
        if r.record.username == "user00"
    ]
    assert len(rows_before) == len(rows_after) == 1


# -- locate / connect ----------------------------------------------------------


def test_locate_and_connect_direct():
    world = small_world()
    alice, bob = world.peers["user00"], world.peers["user01"]
    record, server = alice.locate_friend("user01")
    assert record.username == "user01"
    channel, served_by = alice.connect_friend("user01")
    assert served_by == "user01"
    assert channel.peer_cert.username == "user01"
    channel.close()


def test_locate_unknown_friend():
    world = small_world()
    with pytest.raises(NotFound):
        world.peers["user00"].locate_friend("stranger")


def test_connect_via_relay_for_symmetric_responder():
    world = small_world(nat_assignment={"user01": "symmetric"})
    channel, served_by = world.peers["user00"].connect_friend("user01")
    assert served_by == "user01"
    assert channel.request_app("ping") == []  # round trip through the bridge
    channel.close()


def test_relayed_peer_that_is_down_does_not_answer_through_its_relay():
    # The relay's leg to the peer is a simulated exchange: liveness applies.
    from friendmesh.errors import PeerUnreachable

    world = small_world(nat_assignment={"user01": "symmetric"})
    channel, served_by = world.peers["user00"].connect_friend("user01")
    assert served_by == "user01" and channel.request_app("ping") == []
    world.sim.set_down(world.peers["user01"].endpoint.local_addr(), True)
    with pytest.raises(PeerUnreachable):
        channel.request_app("ping")
    channel.close()


def test_a_peer_its_relay_dropped_is_readmitted_at_the_next_tick(monkeypatch):
    world = small_world(n_peers=2, nat_assignment={"user01": "symmetric"})
    peer = world.peers["user01"]
    (relay,) = world.relays.values()
    leg = peer._relay_channel
    relay._drop("user01", evicted=True)  # as when a frame down the leg gets no answer
    assert leg.closed  # the relay's close reads at the peer's end
    reregistered = []
    real = peer.reregister
    monkeypatch.setattr(peer, "reregister", lambda: reregistered.append(1) or real())
    peer.tick()
    assert "user01" in relay.sessions and peer._relay_channel is not leg
    assert reregistered == []  # the same relay: the registered record still routes to it
    channel, served_by = world.peers["user00"].connect_friend("user01")
    assert served_by == "user01" and channel.request_app("ping") == []
    channel.close()


def test_a_readmission_at_another_relay_reregisters():
    world = small_world(n_peers=2, n_relays=2, nat_assignment={"user01": "symmetric"})
    peer = world.peers["user01"]
    old = f"{peer.state.relay_endpoint[0]}:{peer.state.relay_endpoint[1]}"
    world.relays[old]._drop("user01", evicted=True)  # closes the leg
    world.relays[old].config.max_connections = 0  # the old relay now refuses it
    assert peer._relay_channel.closed
    mark = len(world.sim.trace)
    peer.tick()
    new = f"{peer.state.relay_endpoint[0]}:{peer.state.relay_endpoint[1]}"
    assert new != old and "user01" in world.relays[new].sessions
    record, _server = world.peers["user00"].locate_friend("user01")
    assert record.route == (new, True)
    channel, served_by = world.peers["user00"].connect_friend("user01")
    assert served_by == "user01"
    channel.close()
    assert not any(" EV no_relay " in line for line in world.sim.trace[mark:])


def test_a_peer_whose_readmission_failed_is_admitted_at_a_later_tick():
    world = small_world(n_peers=2, nat_assignment={"user01": "symmetric"})
    peer = world.peers["user01"]
    (addr, relay), = world.relays.items()
    world.sim.set_down(addr, True)  # a relay restart resets the leg
    peer.tick()
    assert peer.state.relay_endpoint is None and peer._relay_channel is None
    world.sim.set_down(addr, False)
    peer.tick()
    host, port = addr.rsplit(":", 1)
    assert peer.state.relay_endpoint == (host, int(port))
    record, _server = world.peers["user00"].locate_friend("user01")
    assert record.route == (addr, True)  # re-registered: the relay came back into the record
    channel, served_by = world.peers["user00"].connect_friend("user01")
    assert served_by == "user01" and channel.request_app("ping") == []
    channel.close()


def relay_frames(world, operation) -> int:
    """Frames to or from a relay while operation runs."""
    mark = len(world.sim.trace)
    operation()
    return sum(" MSG " in line and any(f" {addr} " in line for addr in world.relays)
               for line in world.sim.trace[mark:])


def test_a_relayed_peer_with_an_open_leg_sends_no_frame_at_a_tick():
    world = small_world(n_peers=2, nat_assignment={"user01": "symmetric"})
    peer = world.peers["user01"]

    def ten_ticks():
        for _ in range(10):
            world.sim.now += 2000
            peer.tick()

    assert relay_frames(world, ten_ticks) == 0
    channel, served_by = world.peers["user00"].connect_friend("user01")
    assert served_by == "user01" and channel.request_app("ping") == []
    channel.close()


def test_a_rebootstrap_keeps_the_open_leg(monkeypatch):
    from friendmesh import identity

    world = small_world(n_peers=2, nat_assignment={"user01": "symmetric"})
    peer = world.peers["user01"]
    leg = peer._relay_channel
    signs = []
    real_sign = identity.sign
    monkeypatch.setattr(identity, "sign", lambda *args: signs.append(args) or real_sign(*args))
    assert relay_frames(world, peer.bootstrap) == 0
    assert signs == [] and peer._relay_channel is leg
    (relay,) = world.relays.values()
    assert relay.admitted == 1


def test_a_relayed_peer_that_restarted_is_readmitted_at_its_next_tick():
    # The leg is pinned to both ends' incarnations, as every channel is.
    world = small_world(n_peers=2, nat_assignment={"user01": "symmetric"})
    peer = world.peers["user01"]
    (relay,) = world.relays.values()
    addr = peer.endpoint.local_addr()
    world.sim.set_down(addr, True)
    world.sim.set_down(addr, False)
    assert peer._relay_channel.closed
    relay.tick()
    assert "user01" not in relay.sessions and relay.closed == 1  # the relay reads the end too
    peer.tick()
    assert "user01" in relay.sessions and relay.admitted == 2
    channel, served_by = world.peers["user00"].connect_friend("user01")
    assert served_by == "user01" and channel.request_app("ping") == []
    channel.close()


def test_storage_attack_surfaced_when_all_paths_lie():
    world = small_world(
        adversaries=[{
            "behaviors": ["falsify_record"],
            "targets": ["10.9.0.0:7200"],
            "victims": ["user01"],
            "start_ms": 0,
        }]
    )
    with pytest.raises(StorageAttack):
        world.peers["user00"].locate_friend("user01")
    # The detection queued a notification for the record owner.
    assert world.peers["user00"].state.queued_updates.get("user01")


def test_a_tampered_record_met_twice_queues_one_note():
    # The one server rewrote user01's stored port: every locate of user01
    # meets the same tampered record, and the owner needs one note of it.
    from dataclasses import replace

    world = small_world()
    (server_addr, server), = world.servers.items()
    (row,) = [r for r in server.store.peer_rows() if r.record.username == "user01"]
    server.store.upsert_peer(replace(row, record=replace(row.record, port=row.record.port + 1)))
    reader = world.peers["user00"]
    with pytest.raises(Unavailable):
        reader.connect_friend("user01")
    with pytest.raises(StorageAttack):
        reader.locate_friend("user01")
    assert reader.state.queued_updates["user01"] == [("note_bad_server", server_addr)]


def test_one_honest_dual_path_still_serves():
    # MD5-path server lies, SHA-1-path honest: verified record via the
    # honest path, notification queued for the friend.
    from friendmesh.chord import dual_hash, node_ident

    config = SimConfig(seed=13, n_rendezvous=4, n_peers=5, global_mode=True)
    world = Scenario(config)
    addrs = sorted(world.servers)
    pairs = sorted((node_ident(a, 128), a) for a in addrs)

    def oracle(key):
        for ident, a in pairs:
            if ident >= key:
                return a
        return pairs[0][1]

    # user04's two identifiers land on distinct servers for these addresses.
    ids = dual_hash("user04")
    md5_home = oracle(ids.id_md5)
    sha1_home = oracle(ids.id_sha1)
    assert md5_home != sha1_home
    world.spawn_adversary(
        AdversaryScript(
            behaviors=["falsify_record"], targets=[md5_home], victims=["user04"]
        )
    )
    record, server = world.peers["user03"].locate_friend("user04")
    assert server != md5_home
    assert record.username == "user04"
    assert world.peers["user03"].state.queued_updates.get("user04")


def dual_path_world(monkeypatch):
    """A 4-server global world where user04's identifiers land on two
    servers, with every chord lookup of the reader user03 recorded."""
    from friendmesh.chord import dual_hash, node_ident

    world = Scenario(SimConfig(seed=13, n_rendezvous=4, n_peers=5, global_mode=True))
    pairs = sorted((node_ident(a, 128), a) for a in world.servers)

    def oracle(key):
        return next((a for ident, a in pairs if ident >= key), pairs[0][1])

    ids = dual_hash("user04")
    homes = oracle(ids.id_md5), oracle(ids.id_sha1)
    assert homes[0] != homes[1]
    reader = world.peers["user03"]
    lookups = []
    real = reader._chord_lookup
    monkeypatch.setattr(reader, "_chord_lookup",
                        lambda server, ident: lookups.append(ident) or real(server, ident))
    return world, reader, homes, ids, lookups


def test_locate_at_an_honest_md5_server_does_one_lookup(monkeypatch):
    world, reader, (md5_home, _), ids, lookups = dual_path_world(monkeypatch)
    record, server = reader.locate_friend("user04")
    assert (record.username, server) == ("user04", md5_home)
    assert lookups == [ids.id_md5]


def test_locate_falls_through_to_sha1_when_md5_server_has_no_record(monkeypatch):
    world, reader, (md5_home, sha1_home), ids, lookups = dual_path_world(monkeypatch)
    store = world.servers[md5_home].store
    for row in store.peer_rows():
        if row.record.username == "user04":
            store.remove_peer("user04", row.ring_id)
    record, server = reader.locate_friend("user04")
    assert (record.username, server) == ("user04", sha1_home)
    assert lookups == [ids.id_md5, ids.id_sha1]


def test_locate_falls_through_to_sha1_when_md5_server_tampers(monkeypatch):
    world, reader, (md5_home, sha1_home), ids, lookups = dual_path_world(monkeypatch)
    world.spawn_adversary(
        AdversaryScript(behaviors=["falsify_record"], targets=[md5_home], victims=["user04"])
    )
    record, server = reader.locate_friend("user04")
    assert (record.username, server) == ("user04", sha1_home)
    assert lookups == [ids.id_md5, ids.id_sha1]


def test_locate_raises_storage_attack_when_both_servers_tamper(monkeypatch):
    world, reader, homes, ids, lookups = dual_path_world(monkeypatch)
    world.spawn_adversary(
        AdversaryScript(behaviors=["falsify_record"], targets=list(homes), victims=["user04"])
    )
    mark = len(world.sim.trace)
    with pytest.raises(StorageAttack):
        reader.locate_friend("user04")
    # Neither preceding server's answer gave a record that verifies, so each
    # id is asked once more through the reader's registration servers. They
    # name the same two servers, so no record is fetched twice.
    assert lookups == [ids.id_md5, ids.id_sha1, ids.id_md5, ids.id_sha1]
    reported = [line for line in world.sim.trace[mark:] if " EV storage_attack_detected" in line]
    assert [line.rsplit("server=", 1)[1] for line in reported] == list(homes)


def test_a_locate_asks_the_server_preceding_the_key_and_takes_no_ring_hop():
    # On 16 servers a successor list (4 long) does not cover the ring, so a
    # lookup through user03's registration server walks it; the configured
    # server preceding user04's md5 id answers from its own successor list.
    from friendmesh.chord import dual_hash, node_ident

    world = Scenario(SimConfig(seed=13, n_rendezvous=16, n_peers=5, global_mode=True))
    ring = sorted((node_ident(a, 128), a) for a in world.servers)
    md5 = dual_hash("user04").id_md5
    mark = len(world.sim.trace)
    record, server = world.peers["user03"].locate_friend("user04")
    assert (record.username, server) == ("user04", next(a for ident, a in ring if ident >= md5))
    lines = world.sim.trace[mark:]
    assert [line for line in lines if " ring_closest " in line] == []
    lookups = [line.split(" EV ")[1] for line in lines if " EV chord_lookup " in line]
    preceding = ([a for ident, a in ring if ident < md5] or [ring[-1][1]])[-1]
    assert lookups == [f"chord_lookup hops=0 node={preceding}"]


def test_friend_request_falls_back_to_bootstrap_servers_when_no_lookup_resolves(monkeypatch):
    from friendmesh.errors import LookupFailed

    world = Scenario(SimConfig(seed=13, n_rendezvous=4, n_peers=5, global_mode=True, friendships=[]))
    sender = world.peers["user00"]

    def unresolved(server, ident):
        raise LookupFailed("no route")

    deposited = []
    real = sender._rendezvous
    monkeypatch.setattr(sender, "_chord_lookup", unresolved)
    monkeypatch.setattr(sender, "_rendezvous", lambda server, fn: deposited.append(server) or real(server, fn))
    sender.send_friend_request("user01")
    assert deposited and set(deposited) <= set(sender._bootstrap_servers())
    assert "user01" in sender.state.pending_outgoing


def test_mirror_fallback_preference_order():
    world = small_world(
        seed=14,
        n_peers=4,
        friendships=[["user00", "user01"], ["user00", "user02"], ["user00", "user03"]],
        mirrors=[["user00", "user01"], ["user00", "user02"]],
    )
    owner = world.peers["user00"]
    owner.profile.apply_update("user00", "share_board", op_add("p1", b"hello"), timestamp=1)
    owner.sync_mirrors()
    world.sim.set_down(owner.endpoint.local_addr(), True)

    reader = world.peers["user03"]
    channel, served_by = reader.connect_friend("user00")
    assert served_by == "user01"  # first mirror in preference order
    channel.close()

    # Fixed liveness: the choice is a pure function of the sorted table.
    for _ in range(3):
        repeat_channel, repeat_served = reader.connect_friend("user00")
        assert repeat_served == "user01"
        repeat_channel.close()

    world.sim.set_down(world.peers["user01"].endpoint.local_addr(), True)
    channel, served_by = reader.connect_friend("user00")
    assert served_by == "user02"
    channel.close()

    world.sim.set_down(world.peers["user02"].endpoint.local_addr(), True)
    with pytest.raises(Unavailable):
        reader.connect_friend("user00")


def homes(world, username):
    """The servers of username's md5 and sha1 identifiers."""
    from friendmesh.chord import dual_hash, node_ident

    pairs = sorted((node_ident(a, 128), a) for a in world.servers)
    ids = dual_hash(username)
    return tuple(next((a for ident, a in pairs if ident >= key), pairs[0][1])
                 for key in (ids.id_md5, ids.id_sha1))


def test_mirror_is_served_by_its_sha1_server_when_its_md5_server_falsifies():
    # On 8 servers user01's identifiers land on two servers; on 4 they share one.
    world = Scenario(SimConfig(seed=13, n_rendezvous=8, n_peers=3, global_mode=True,
                               friendships=[["user00", "user01"], ["user00", "user02"]],
                               mirrors=[["user00", "user01"]]))
    md5_home, sha1_home = homes(world, "user01")
    assert md5_home != sha1_home
    world.spawn_adversary(
        AdversaryScript(behaviors=["falsify_record"], targets=[md5_home], victims=["user01"])
    )
    world.sim.set_down(world.peers["user00"].endpoint.local_addr(), True)
    channel, served_by = world.peers["user02"].connect_friend("user00")
    assert served_by == "user01" and channel.call("ping") == ()
    channel.close()


def test_one_sync_round_converges_every_mirror():
    # A write lands only at the second mirror while the owner and the first
    # mirror are down. One sync round hands it to the owner and to the first
    # mirror, which was reconciled before the owner had it.
    world = small_world(
        seed=14,
        n_peers=4,
        friendships=[["user00", "user01"], ["user00", "user02"], ["user00", "user03"]],
        mirrors=[["user00", "user01"], ["user00", "user02"]],
    )
    owner = world.peers["user00"]
    owner.sync_mirrors()
    down = [owner.endpoint.local_addr(), world.peers["user01"].endpoint.local_addr()]
    for addr in down:
        world.sim.set_down(addr, True)
    world.peers["user03"].write_to_friend("user00", "share_board", op_add("late", b"at mirror two"))
    for addr in down:
        world.sim.set_down(addr, False)
    assert not world.peers["user01"].replicas["user00"].profile.has_element("share_board/late")
    assert world.peers["user02"].replicas["user00"].profile.has_element("share_board/late")

    owner.sync_mirrors()
    expected = owner.profile.canonical_encode()
    assert owner.profile.element("share_board/late").content == b"at mirror two"
    for mirror in ("user01", "user02"):
        assert world.peers[mirror].replicas["user00"].profile.canonical_encode() == expected


def test_mirror_serves_replica_reads():
    world = small_world(
        seed=15,
        n_peers=3,
        friendships=[["user00", "user01"], ["user00", "user02"]],
        mirrors=[["user00", "user01"]],
    )
    owner = world.peers["user00"]
    owner.profile.apply_update("user00", "share_board", op_add("p1", b"from owner"), timestamp=1)
    owner.sync_mirrors()
    world.sim.set_down(owner.endpoint.local_addr(), True)
    # user02 is a friend of user00 but NOT of user01; trust-as-replica
    # admits them for user00's replica only.
    view = world.peers["user02"].pull_friend_profile("user00")
    assert view.element("share_board/p1").content == b"from owner"


def test_a_50000_entry_history_is_pulled_and_mirrored_whole():
    # 2.7 MB of entries: a batch is bounded by the frame, not by one
    # field's 65,535 bytes.
    world = small_world(
        seed=15,
        n_peers=3,
        friendships=[["user00", "user01"], ["user00", "user02"]],
        mirrors=[["user00", "user01"]],
    )
    owner = world.peers["user00"]
    for i in range(50_000):
        owner.profile.apply_update("user00", "share_board", op_add(f"p{i}", b"x"), timestamp=i + 2)
    expected = owner.profile.state_digest()
    assert world.peers["user02"].pull_friend_profile("user00").state_digest() == expected
    owner.sync_mirrors()
    assert world.peers["user01"].replicas["user00"].profile.state_digest() == expected


# -- friendship lifecycle ----------------------------------------------------------


def test_friend_request_accept_symmetric():
    world = small_world(seed=16, n_peers=3, friendships=[])
    a, b = world.peers["user00"], world.peers["user01"]
    a.send_friend_request("user01")
    b.reregister()
    assert "user00" in b.state.pending_incoming
    b.accept_friend("user00")
    # Both directions locate and connect.
    ch1, _ = a.connect_friend("user01")
    ch2, _ = b.connect_friend("user00")
    assert ch1.peer_cert.username == "user01"
    assert ch2.peer_cert.username == "user00"
    assert a.state.friend_list["user01"].friend_key == b.state.friend_key
    assert b.state.friend_list["user00"].friend_key == a.state.friend_key


def test_accept_while_requester_offline_unwinds():
    world = small_world(seed=26, n_peers=3, friendships=[])
    a, b = world.peers["user00"], world.peers["user01"]
    a.send_friend_request("user01")
    b.reregister()
    world.sim.set_down(a.endpoint.local_addr(), True)
    from friendmesh.errors import PeerUnreachable

    with pytest.raises((Unavailable, PeerUnreachable)):
        b.accept_friend("user00")
    assert "user00" not in b.state.friend_list
    assert "user00" in b.state.pending_incoming
    # Second attempt succeeds once the requester is back.
    world.sim.set_down(a.endpoint.local_addr(), False)
    b.accept_friend("user00")
    assert "user00" in b.state.friend_list


def test_accept_verifies_the_requester_record_and_falls_through_to_sha1():
    world = Scenario(SimConfig(seed=13, n_rendezvous=8, n_peers=3, global_mode=True, friendships=[]))
    a, b = world.peers["user00"], world.peers["user01"]
    a.send_friend_request("user01")
    b.reregister()
    md5_home, sha1_home = homes(world, "user00")
    assert md5_home != sha1_home
    world.spawn_adversary(
        AdversaryScript(behaviors=["falsify_record"], targets=[md5_home], victims=["user00"])
    )
    b.accept_friend("user00")
    assert "user01" in a.state.friend_list
    assert b.state.friend_list["user00"].friend_key == a.state.friend_key


def test_declined_request_leaks_nothing():
    world = small_world(seed=17, n_peers=3, friendships=[])
    a, b = world.peers["user00"], world.peers["user01"]
    a.send_friend_request("user01")
    b.reregister()  # delivered but never accepted
    with pytest.raises(NotFound):
        a.locate_friend("user01")
    assert "user01" not in a.state.friend_list


def test_admission_gate_exact():
    world = small_world(seed=18, n_peers=4, friendships=[["user00", "user01"]])
    gate = world.peers["user00"].admission_gate
    assert gate("user01")
    assert not gate("user02")
    world.peers["user02"].send_friend_request("user00")
    world.peers["user00"].reregister()
    assert gate("user02")  # a friend requester
    world.peers["user00"].send_friend_request("user03")
    assert gate("user03")  # a requested friend
    assert not gate("nobody")


def test_revoke_friend_completeness():
    world = small_world(
        seed=19,
        n_peers=4,
        friendships=[["user00", "user01"], ["user00", "user02"], ["user00", "user03"]],
    )
    owner = world.peers["user00"]
    ex = world.peers["user01"]
    old_passphrase = owner.state.passphrase
    owner.revoke_friend("user01")
    assert owner.state.passphrase != old_passphrase

    # Remaining friends locate with the rotated passphrase.
    for name in ("user02", "user03"):
        record, _ = world.peers[name].locate_friend("user00")
        assert record.passphrase == owner.state.passphrase

    # The ex-friend's stored passphrase no longer matches any row.
    with pytest.raises((NotFound, StorageAttack)):
        ex.locate_friend("user00")

    # Replayed old credentials refused at channel admission.
    with pytest.raises((AuthError, Unavailable)):
        ex.connect_friend("user00")

    assert not owner.admission_gate("user01")


def test_passphrase_rotation_queued_for_offline_friend():
    world = small_world(
        seed=20,
        n_peers=3,
        friendships=[["user00", "user01"], ["user00", "user02"]],
    )
    owner = world.peers["user00"]
    world.sim.set_down(world.peers["user02"].endpoint.local_addr(), True)
    owner.revoke_friend("user01")
    assert owner.state.queued_updates.get("user02")
    world.sim.set_down(world.peers["user02"].endpoint.local_addr(), False)
    owner.flush_queues()
    assert not owner.state.queued_updates.get("user02")
    record, _ = world.peers["user02"].locate_friend("user00")
    assert record.passphrase == owner.state.passphrase


def restart(world, peer, path):
    """Save the peer's state, and serve its address from a new Peer loaded
    from it; the restart ends every connection the address held."""
    save_state(peer, str(path))
    restarted = Peer(peer.config, peer.endpoint, peer.ca_public_key, clock=peer.clock)
    load_state(restarted, str(path))
    addr = peer.endpoint.local_addr()
    world.sim.set_down(addr, True)
    world.sim.set_service(addr, restarted)
    world.sim.set_down(addr, False)
    return restarted


def test_state_file_round_trips_every_saved_field(tmp_path):
    world = small_world(
        seed=21,
        n_peers=4,
        nat_assignment={"user00": "symmetric"},
        friendships=[["user00", "user01"], ["user00", "user02"], ["user00", "user03"]],
        mirrors=[["user00", "user01"], ["user01", "user00"]],
    )
    peer = world.peers["user00"]
    peer.profile.apply_update("user00", "share_board", op_add("p", b"kept"), timestamp=1)
    world.sim.set_down(world.peers["user02"].endpoint.local_addr(), True)
    peer.revoke_friend("user03")
    peer._queue_for("user02", ("note_bad_server", "10.0.0.9:7200"))
    peer.state.pending_outgoing.add("user09")
    peer.state.pending_incoming["user08"] = "a passphrase"
    assert peer.state.relay_endpoint and peer.state.mirror_table and peer.replicas["user01"]
    assert len(peer.state.queued_updates["user02"]) == 2

    restarted = restart(world, peer, tmp_path / "state.json")
    assert restarted.state == peer.state  # every PeerState field
    # A profile reads back replayed: the same entries and tree, the log in replay order.
    for loaded, saved in [(restarted.profile, peer.profile),
                          (restarted.replicas["user01"].profile, peer.replicas["user01"].profile)]:
        assert set(loaded.log) == set(saved.log) and len(loaded.log) == len(saved.log)
        assert loaded.canonical_encode() == saved.canonical_encode()
    (owner, replica), = restarted.replicas.items()
    assert owner == replica.owner == "user01"
    assert replica.allowed_users == peer.replicas["user01"].allowed_users

    # A file written before queues and replicas were saved loads with neither.
    path = tmp_path / "state.json"
    doc = json.loads(path.read_text())
    del doc["queued_updates"], doc["replicas"]
    path.write_text(json.dumps(doc))
    load_state(restarted, str(path))
    assert restarted.state.queued_updates == {} and restarted.replicas == {}


def test_a_state_file_keeps_no_relay_token_and_one_that_holds_it_still_loads(tmp_path):
    world = small_world(n_peers=2, nat_assignment={"user01": "symmetric"})
    peer = world.peers["user01"]
    path = tmp_path / "state.json"
    save_state(peer, str(path))
    doc = json.loads(path.read_text())
    assert doc["relay_endpoint"] and "relay_token" not in doc and "relay_interval_ms" not in doc
    # A file in the former layout, with the keepalive token and interval.
    doc.update(relay_token="AAECAwQFBgcICQoLDA0ODw==", relay_interval_ms=2000)
    path.write_text(json.dumps(doc))
    loaded = Peer(peer.config, peer.endpoint, peer.ca_public_key)
    load_state(loaded, str(path))
    assert loaded.state == peer.state


def test_passphrase_update_queued_before_a_restart_is_delivered_after_it(tmp_path):
    world = small_world(
        seed=20,
        n_peers=3,
        friendships=[["user00", "user01"], ["user00", "user02"]],
    )
    owner, offline = world.peers["user00"], world.peers["user02"]
    world.sim.set_down(offline.endpoint.local_addr(), True)
    owner.revoke_friend("user01")
    restarted = restart(world, owner, tmp_path / "state.json")
    assert restarted.state.queued_updates.get("user02")
    world.sim.set_down(offline.endpoint.local_addr(), False)
    restarted.tick()
    assert not restarted.state.queued_updates.get("user02")
    assert offline.state.friend_list["user00"].passphrase == owner.state.passphrase
    record, _ = offline.locate_friend("user00")
    assert record.passphrase == owner.state.passphrase


def test_mirror_serves_its_replica_after_a_restart(tmp_path):
    world = small_world(
        seed=15,
        n_peers=3,
        friendships=[["user00", "user01"], ["user00", "user02"]],
        mirrors=[["user00", "user01"]],
    )
    owner = world.peers["user00"]
    mirror = restart(world, world.peers["user01"], tmp_path / "state.json")
    owner.profile.apply_update("user00", "share_board", op_add("p1", b"after restart"), timestamp=1)
    owner.sync_mirrors()
    assert mirror.replicas["user00"].profile.canonical_encode() == owner.profile.canonical_encode()
    world.sim.set_down(owner.endpoint.local_addr(), True)
    view = world.peers["user02"].pull_friend_profile("user00")
    assert view.element("share_board/p1").content == b"after restart"


# -- profile over channels ------------------------------------------------------------


def test_friend_write_and_pull_roundtrip():
    world = small_world(seed=21, n_peers=3, friendships=[["user00", "user01"]])
    writer = world.peers["user01"]
    version = writer.write_to_friend("user00", "share_board", op_add("c1", b"hi there"))
    assert version >= 1
    view = writer.pull_friend_profile("user00")
    assert view.element("share_board/c1").content == b"hi there"


def test_a_write_whose_log_entry_outgrows_one_field_is_refused_before_it_applies():
    # The op fits one field; its log entry (path, version, author, op,
    # timestamp) would not, and every later pull and sync would then fail.
    from friendmesh.errors import MalformedRequest

    world = small_world(seed=15, n_peers=3, friendships=[["user00", "user01"], ["user00", "user02"]],
                        mirrors=[["user00", "user02"]])
    owner, writer = world.peers["user00"], world.peers["user01"]
    log = list(owner.profile.log)
    with pytest.raises(MalformedRequest):
        writer.write_to_friend("user00", "share_board", op_add("big", b"x" * 65500))
    assert owner.profile.log == log and owner.profile.element("share_board").children == {}
    view = writer.pull_friend_profile("user00")
    assert view.element("share_board").children == {}
    owner.sync_mirrors()
    replica = world.peers["user02"].replicas["user00"].profile
    assert replica.canonical_encode() == owner.profile.canonical_encode()


def test_pull_respects_permissions():
    world = small_world(seed=22, n_peers=3, friendships=[["user00", "user01"]])
    owner = world.peers["user00"]
    owner.profile.apply_update(
        "user00", "private_messages", op_add("m1", b"sealed-bytes"), timestamp=5
    )
    owner.profile.apply_update("user00", "info", op_set(b"public bio"), timestamp=6)
    view = world.peers["user01"].pull_friend_profile("user00")
    assert view.element("info").content == b"public bio"


def test_private_messages_reach_mirror_only_as_ciphertext():
    world = small_world(
        seed=24,
        n_peers=3,
        friendships=[["user00", "user01"], ["user00", "user02"]],
        mirrors=[["user00", "user01"]],
    )
    owner = world.peers["user00"]
    sender = world.peers["user02"]
    from friendmesh import identity as ident
    from friendmesh.profile import op_add

    secret = b"meet behind the library at nine"
    sealed = ident.seal(owner.state.keypair.public_key, secret)
    sender.write_to_friend("user00", "private_messages", op_add("pm1", sealed))
    owner.sync_mirrors()

    replica = world.peers["user01"].replicas["user00"]
    assert secret not in replica.profile.canonical_encode()
    stored = replica.profile.element("private_messages/pm1").content
    assert ident.open_sealed(owner.state.keypair.private_key, stored) == secret


def test_trust_as_replica_is_one_directional():
    # user02 is a friend of the owner but not of the mirror: the replica is
    # reachable, the mirror's own profile is not.
    world = small_world(
        seed=25,
        n_peers=3,
        friendships=[["user00", "user01"], ["user00", "user02"]],
        mirrors=[["user00", "user01"]],
    )
    world.peers["user00"].sync_mirrors()
    world.sim.set_down(world.peers["user00"].endpoint.local_addr(), True)
    reader = world.peers["user02"]
    channel, served_by = reader.connect_friend("user00")
    assert served_by == "user01"
    # Replica access works...
    channel.request_app("pull", b"user00", encode_vector(Profile("user00")))
    # ...but the mirror's own profile refuses this non-friend.
    from friendmesh.errors import AccessDenied

    with pytest.raises((AuthError, AccessDenied)):
        channel.request_app("op", b"user01", b"share_board", op_add("x", b"nope"))
    channel.close()


def test_mirror_writeback_to_owner():
    # Friend writes a comment at the mirror while the owner is offline;
    # the owner pulls it back on the next sync.
    world = small_world(
        seed=23,
        n_peers=3,
        friendships=[["user00", "user01"], ["user00", "user02"]],
        mirrors=[["user00", "user01"]],
    )
    owner = world.peers["user00"]
    owner.sync_mirrors()
    world.sim.set_down(owner.endpoint.local_addr(), True)
    world.peers["user02"].write_to_friend("user00", "share_board", op_add("away", b"missed you"))
    world.sim.set_down(owner.endpoint.local_addr(), False)
    owner.sync_mirrors()
    assert owner.profile.element("share_board/away").content == b"missed you"


# -- channel lifetime ------------------------------------------------------------


@pytest.fixture
def open_sim_channels(monkeypatch):
    """Simulator channels opened and not yet closed. A relayed peer's
    admission channel is left out: the relay serves the peer over it."""
    from friendmesh.simnet.core import SimChannel

    still_open = set()
    init, close, attach = SimChannel.__init__, SimChannel.close, SimChannel.attach_reverse

    def tracked_init(self, *args):
        init(self, *args)
        still_open.add(self)

    def tracked_close(self):
        close(self)
        still_open.discard(self)

    def tracked_attach(self, service):
        attach(self, service)
        still_open.discard(self)

    monkeypatch.setattr(SimChannel, "__init__", tracked_init)
    monkeypatch.setattr(SimChannel, "close", tracked_close)
    monkeypatch.setattr(SimChannel, "attach_reverse", tracked_attach)
    return still_open


def kept_sim_channels(world) -> set:
    """The simulator channels under what the peers keep: at most one channel
    per friend and one session per rendezvous server."""
    kept = []
    for peer in world.peers.values():
        friends = [user for user, _addr in peer._kept if user]
        servers = [addr for user, addr in peer._kept if not user]
        assert len(set(friends)) == len(friends) and set(friends) <= set(peer.state.friend_list)
        assert set(servers) <= set(world.servers)
        kept += [channel._channel for channel in peer._kept.values()]
    assert len(set(kept)) == len(kept)
    return set(kept)


def close_peers(world) -> None:
    for peer in world.peers.values():
        peer.close()


def test_every_channel_a_peer_opens_is_closed(open_sim_channels):
    # Connects against closes across a whole simulated run.
    world = small_world(
        seed=31,
        n_rendezvous=4,
        n_peers=6,
        global_mode=True,
        nat_assignment={"user03": "symmetric"},
        mirrors=[["user00", "user01"]],
        churn=[{"node": "user02", "down_at": 2000, "up_at": 6000}],
        duration_ms=10_000,
    )
    world.run()
    assert len(world.relays[next(iter(world.relays))].sessions) == 1
    assert open_sim_channels == kept_sim_channels(world)
    close_peers(world)
    assert not open_sim_channels


def test_failed_routes_close_their_channels(open_sim_channels):
    world = small_world(seed=32, nat_assignment={"user01": "symmetric"})
    alice = world.peers["user00"]
    # A queued update the friend refuses.
    alice._queue_for("user01", ("mirror_init", "user02", "", []))
    with pytest.raises(Unavailable):
        alice.connect_friend("user01")
    # A handshake the friend refuses.
    world.peers["user02"].state.friend_list.pop("user00")
    with pytest.raises(Unavailable):
        alice.connect_friend("user02")
    # A bridge the relay refuses: it dropped user01's session and closed its leg.
    relay = world.relays[next(iter(world.relays))]
    relay._drop("user01", evicted=True)
    with pytest.raises(Unavailable):
        alice.connect_friend("user01")
    assert open_sim_channels == kept_sim_channels(world)
    close_peers(world)
    assert not open_sim_channels


def test_rebootstrap_keeps_one_admission_channel(monkeypatch):
    from friendmesh.simnet.core import SimChannel, SimStunProbes

    attached = set()
    attach, close = SimChannel.attach_reverse, SimChannel.close

    def tracked_attach(self, service):
        attach(self, service)
        attached.add(self)

    def tracked_close(self):
        close(self)
        attached.discard(self)

    monkeypatch.setattr(SimChannel, "attach_reverse", tracked_attach)
    monkeypatch.setattr(SimChannel, "close", tracked_close)
    world = small_world(nat_assignment={"user01": "symmetric"})
    peer = world.peers["user01"]
    peer.bootstrap()
    peer.bootstrap()
    assert len(attached) == 1
    channel, served_by = world.peers["user00"].connect_friend("user01")
    assert served_by == "user01" and channel.request_app("ping") == []
    # The NAT improved: the relay is let go.
    host = world.sim.hosts[peer.endpoint.local_addr()]
    host.nat = NatType.PUBLIC
    peer.probes = SimStunProbes(host)
    peer.bootstrap()
    assert not attached


# -- kept channels and sessions --------------------------------------------------------


def frames_of(world, operation) -> int:
    """Frames on the simulated wire (requests and replies) while operation runs."""
    mark = len(world.sim.trace)
    operation()
    return sum(" MSG " in line for line in world.sim.trace[mark:])


def test_warm_operations_message_counts():
    # Warm, every operation is its locate (one request to the one server)
    # plus its own requests on the kept channel: no handshake.
    world = small_world(seed=24, n_peers=2, friendships=[["user00", "user01"]],
                        mirrors=[["user00", "user01"]])
    owner, reader = world.peers["user00"], world.peers["user01"]
    operations = {
        "locate": (lambda: reader.locate_friend("user00"), 2),
        "pull": (lambda: reader.pull_friend_profile("user00"), 4),
        "write": (lambda: reader.write_to_friend("user00", "share_board", op_add("w", b"x")), 4),
        "sync": (owner.sync_mirrors, 8),
    }
    for operation, _ in operations.values():
        operation()
    owner.profile.apply_update("user00", "share_board", op_add("p", b"y"), timestamp=world.sim.now + 1)
    for name, (operation, frames) in operations.items():
        assert frames_of(world, operation) == frames, name
    assert reader.pull_friend_profile("user00").element("share_board/p").content == b"y"


def test_flushing_a_queue_for_a_downed_friend_costs_only_its_locate():
    # user01 is down, with user02 as its mirror: a mirror cannot take the
    # queue, so the flush neither locates nor reaches it.
    world = small_world(seed=28, mirrors=[["user01", "user02"]])
    alice = world.peers["user00"]
    alice.locate_friend("user01")
    world.sim.set_down(world.peers["user01"].endpoint.local_addr(), True)
    alice._queue_for("user01", ("ping",))
    assert frames_of(world, alice.flush_queues) == 2
    assert alice.state.queued_updates["user01"] == [("ping",)]


def test_syncing_with_a_downed_mirror_costs_only_its_locate():
    # user00's mirror user01 is down, with user02 as its own mirror: only
    # user01 itself can reconcile, so the sync neither locates nor reaches user02.
    world = small_world(seed=29, mirrors=[["user00", "user01"], ["user01", "user02"]])
    owner = world.peers["user00"]
    owner.locate_friend("user01")
    world.sim.set_down(world.peers["user01"].endpoint.local_addr(), True)
    assert frames_of(world, owner.sync_mirrors) == 2


def test_every_operation_still_locates_and_verifies(monkeypatch):
    from friendmesh import peer as peer_module

    world = small_world(seed=25, n_peers=2, friendships=[["user00", "user01"]])
    reader = world.peers["user01"]
    reader.pull_friend_profile("user00")
    checks = []
    real_check = peer_module.check_peer_record
    monkeypatch.setattr(peer_module, "check_peer_record",
                        lambda record, cert: checks.append(record.username) or real_check(record, cert))
    reader.pull_friend_profile("user00")
    reader.write_to_friend("user00", "share_board", op_add("w", b"x"))
    assert checks == ["user00", "user00"]


def test_revoked_friend_is_refused_on_a_channel_it_holds():
    world = small_world(seed=26, n_peers=3,
                        friendships=[["user00", "user01"], ["user00", "user02"]])
    owner, ex = world.peers["user00"], world.peers["user01"]
    held, _ = ex.connect_friend("user00")
    ex.pull_friend_profile("user00")  # and one the ex-friend keeps
    authored = [e for e in owner.profile.log if e.author == "user01"]
    owner.revoke_friend("user01")
    with pytest.raises(AuthError):
        held.call("ping")
    with pytest.raises(AuthError):
        held.call("op", "user00", "share_board", op_add("late", b"after revoke"))
    # Even with the rotated passphrase, which routes to the kept channel.
    ex.state.friend_list["user00"].passphrase = owner.state.passphrase
    key = ("user00", owner.endpoint.local_addr())
    kept = ex._kept[key]
    with pytest.raises((AuthError, Unavailable)):
        ex.pull_friend_profile("user00")
    with pytest.raises((AuthError, Unavailable)):
        ex.write_to_friend("user00", "share_board", op_add("later", b"after revoke"))
    assert ex._kept[key] is kept
    assert [e for e in owner.profile.log if e.author == "user01"] == authored


def test_restart_resets_channels_and_the_next_operation_reconnects():
    from friendmesh.errors import PeerUnreachable

    world = small_world(seed=27, n_peers=2, friendships=[["user00", "user01"]])
    owner, reader = world.peers["user00"], world.peers["user01"]
    held, _ = reader.connect_friend("user00")
    reader.pull_friend_profile("user00")
    friend_key = ("user00", owner.endpoint.local_addr())
    kept = reader._kept[friend_key]
    server = owner.state.registered_at[0]
    session = reader._kept[("", server)]
    for addr in (owner.endpoint.local_addr(), server):
        world.sim.set_down(addr, True)
        world.sim.set_down(addr, False)
    with pytest.raises(PeerUnreachable):
        held.call("ping")
    owner.profile.apply_update("user00", "share_board", op_add("p", b"back"), timestamp=world.sim.now + 1)
    view = reader.pull_friend_profile("user00")
    assert view.element("share_board/p").content == b"back"
    assert reader._kept[friend_key] is not kept
    assert reader._kept[("", server)] is not session


def test_a_kept_channel_that_fails_the_queue_flush_is_replaced():
    world = small_world(seed=27, n_peers=2, friendships=[["user00", "user01"]])
    owner, reader = world.peers["user00"], world.peers["user01"]
    reader.pull_friend_profile("user00")
    key = ("user00", owner.endpoint.local_addr())
    kept = reader._kept[key]
    world.sim.set_down(key[1], True)
    world.sim.set_down(key[1], False)
    reader._queue_for("user00", ("ping",))
    reader.pull_friend_profile("user00")
    assert reader._kept[key] is not kept
    assert not reader.state.queued_updates.get("user00")


# -- registration reuses what the peer holds --------------------------------------------


def ring_world(**kw):
    """A small global world whose re-registrations run the sentinel's check."""
    defaults = dict(seed=41, n_rendezvous=4, n_peers=3, global_mode=True)
    defaults.update(kw)
    return small_world(**defaults)


@pytest.fixture
def handshakes(monkeypatch):
    """Secure channels opened by connect_secure, as a list of expected usernames."""
    from friendmesh import secure

    opened = []
    real = secure.connect_secure

    def counted(*args, **kw):
        opened.append(kw.get("expected_username"))
        return real(*args, **kw)

    monkeypatch.setattr(secure, "connect_secure", counted)
    return opened


@pytest.fixture
def outcomes(monkeypatch):
    """The sentinel outcome of each registration check a peer runs."""
    seen = []
    real = Peer._verify_targets

    def recorded(self, *args):
        outcome = real(self, *args)
        seen.append(outcome)
        return outcome

    monkeypatch.setattr(Peer, "_verify_targets", recorded)
    return seen


@pytest.mark.parametrize("nat", ["public", "symmetric"])
def test_a_warm_rebootstrap_does_no_handshake(handshakes, outcomes, nat):
    # user01 is user00's first friend, reached directly or through its relay.
    world = ring_world(nat_assignment={"user01": nat})
    peer = world.peers["user00"]
    peer.bootstrap()
    assert ("user01", peer.locate_friend("user01")[0].route[0]) in peer._kept
    handshakes.clear()
    peer.bootstrap()
    assert handshakes == []
    assert [o.status for o in outcomes] == ["verified", "verified"]


def test_a_pull_after_the_first_bootstrap_does_no_handshake(handshakes):
    world = ring_world()
    peer = world.peers["user00"]
    peer.close()  # nothing kept: the bootstrap starts cold
    peer.bootstrap()
    assert "user01" in handshakes  # the probe's one handshake to the friend
    handshakes.clear()
    peer.pull_friend_profile("user01")
    assert handshakes == []


def test_after_the_friend_restarts_the_probe_verifies_on_a_fresh_channel(handshakes, outcomes):
    world = ring_world()
    peer, friend = world.peers["user00"], world.peers["user01"]
    peer.bootstrap()
    key = ("user01", friend.endpoint.local_addr())
    kept = peer._kept[key]
    world.sim.set_down(key[1], True)
    world.sim.set_down(key[1], False)
    handshakes.clear()
    peer.bootstrap()
    assert outcomes[-1].status == "verified"
    assert handshakes == ["user01"]
    assert peer._kept[key] is not kept and peer._kept[key].established


def test_the_probe_of_a_downed_friend_fails():
    from friendmesh.peer import _Probe

    world = ring_world()
    peer, friend = world.peers["user00"], world.peers["user01"]
    peer.bootstrap()  # the friend's channel is kept
    record, _server = peer.locate_friend("user01")
    probe = _Probe(peer, exclude=set())
    assert probe.try_connect(record)
    world.sim.set_down(friend.endpoint.local_addr(), True)
    assert not probe.try_connect(record)


def test_registration_verifies_through_a_later_friend_when_the_first_is_down(outcomes):
    # user00's friends are user01 (first in name order) and user02.
    world = ring_world(friendships=[["user00", "user01"], ["user00", "user02"]])
    peer = world.peers["user00"]
    world.sim.set_down(world.peers["user01"].endpoint.local_addr(), True)
    peer.bootstrap()
    assert outcomes[-1].status == "verified"
    assert peer.state.registered_at


def test_registration_fails_as_before_when_every_friend_is_down(outcomes):
    world = ring_world(friendships=[["user00", "user01"], ["user00", "user02"]])
    peer = world.peers["user00"]
    for name in ("user01", "user02"):
        world.sim.set_down(world.peers[name].endpoint.local_addr(), True)
    with pytest.raises(Unavailable):
        peer.bootstrap()
    assert outcomes and {o.status for o in outcomes} == {"inconclusive"}


@pytest.fixture
def sent_records(monkeypatch):
    """Every record a peer sends in a register request."""
    from friendmesh import rvclient

    sent = []
    real = rvclient.register_peer
    monkeypatch.setattr(rvclient, "register_peer",
                        lambda session, record: sent.append(record) or real(session, record))
    return sent


def test_an_unchanged_rebootstrap_resends_the_record_unsigned_again(monkeypatch, sent_records):
    from friendmesh import identity
    from friendmesh.records import RegistrationRecord

    world = ring_world()
    peer = world.peers["user00"]
    sent_records.clear()
    peer.bootstrap()
    first = [RegistrationRecord.LAYOUT.values(r) for r in sent_records]
    assert first
    sent_records.clear()
    signs = []
    real_sign = identity.sign
    monkeypatch.setattr(identity, "sign", lambda *args: signs.append(args) or real_sign(*args))
    peer.bootstrap()
    assert [RegistrationRecord.LAYOUT.values(r) for r in sent_records] == first
    assert signs == []


def test_each_input_change_signs_a_new_record_that_verifies(sent_records):
    from friendmesh.records import verify_registration_record

    world = ring_world(friendships=[["user00", "user01"], ["user00", "user02"]])
    peer = world.peers["user00"]
    cert = peer.state.certificate

    def new_record_after(change):
        before = peer.build_record()
        assert peer.build_record() is before
        change()
        after = peer.build_record()
        assert after.signed_digest != before.signed_digest
        assert verify_registration_record(after, cert)
        return after

    def revoke():
        sent_records.clear()
        peer.revoke_friend("user02")
        assert sent_records and {r.signed_digest for r in sent_records} == {
            peer.build_record().signed_digest}

    after = new_record_after(revoke)
    assert after.passphrase == peer.state.passphrase
    new_record_after(lambda: peer.add_mirror("user01"))

    def move_relay():
        peer.state.relay_endpoint = ("10.9.9.9", 7300)
    assert new_record_after(move_relay).relay_address == "10.9.9.9"

    def move_address():
        peer.state.mapped_port += 1
    assert new_record_after(move_address).port == peer.state.mapped_port


def test_a_reused_record_still_fails_verification_when_any_signed_field_is_altered():
    from dataclasses import replace

    from friendmesh.records import verify_registration_record

    world = ring_world()
    peer = world.peers["user00"]
    record = peer.build_record()
    assert peer.build_record() is record
    cert = peer.state.certificate
    assert verify_registration_record(record, cert)
    mutations = {
        "ip": "6.6.6.6",
        "port": 6666,
        "protocol": "udp",
        "relay_address": "6.6.6.1",
        "relay_port": 1,
        "passphrase": "stolen",
        "encrypted_mirror_list": b"\xff",
    }
    for name, bad in mutations.items():
        assert not verify_registration_record(replace(record, **{name: bad}), cert), name
