import random
from dataclasses import replace

import pytest

from friendmesh import identity, records, rvclient, store, wire
from friendmesh.channel import DirectChannel
from friendmesh.config import RendezvousConfig
from friendmesh.errors import IntegrityError, NotFound
from friendmesh.records import (
    FriendshipRequestRecord,
    PeerRow,
    RelayRecord,
    make_registration_record,
    verify_registration_record,
)
from friendmesh.rendezvous import RendezvousServer


class Clock:
    def __init__(self):
        self.now = 0

    def __call__(self):
        return self.now

    def advance(self, ms):
        self.now += ms


@pytest.fixture(scope="module")
def ca():
    pair = identity.generate_keypair("ec-p256")
    return identity.CAState("rvca", pair)


@pytest.fixture()
def clock():
    return Clock()


@pytest.fixture()
def server(ca, clock):
    return RendezvousServer(
        addr="10.0.0.1:7200",
        config=RendezvousConfig(),
        ca_public_key=ca.public_key,
        ca_algorithm=ca.algorithm_id,
        clock=clock,
        rng=random.Random(1),
    )


def make_user(ca, name):
    pair = identity.generate_keypair("ec-p256")
    cert = ca.issue(name, pair.public_key, pair.algorithm_id)
    return pair, cert


def make_record(pair, cert, passphrase="PASS-" + "X" * 20, ip="10.0.5.5", port=7500, **kw):
    args = dict(
        username=cert.username,
        ip=ip,
        port=port,
        nat_kind="public",
        protocol="tcp",
        relay_address="",
        relay_port=0,
        passphrase=passphrase,
        encrypted_mirror_list=b"\x01\x02",
    )
    args.update(kw)
    return make_registration_record(
        private_key=pair.private_key, algorithm_id=pair.algorithm_id, **args
    )


def secure_client(server, pair, cert, remote="10.0.9.9:5000"):
    channel = DirectChannel(server, remote_addr=server.addr, local_addr=remote)
    return rvclient.open_secure(channel, cert, pair)


# -- peer registration ------------------------------------------------------------


def test_register_then_locate(server, ca):
    pair, cert = make_user(ca, "reg-alice")
    record = make_record(pair, cert, passphrase="k3q-alice-phrase")
    client = secure_client(server, pair, cert)
    pending = rvclient.register_peer(client, record)
    assert pending == []

    qpair, qcert = make_user(ca, "reg-bob")
    qclient = secure_client(server, qpair, qcert)
    found, cert_bytes = rvclient.locate_peer(qclient, "k3q-alice-phrase")
    assert found.username == "reg-alice"
    assert verify_registration_record(found, identity.Certificate.decode(cert_bytes))


def test_register_tampered_port_rejected(server, ca):
    # Mutation oracle: server must reject any record whose digest fails.
    pair, cert = make_user(ca, "reg-carol")
    record = make_record(pair, cert, passphrase="carol-phrase")
    # Keep the original digest while changing the port: in-flight tampering.
    broken = type(record)(
        username=record.username,
        ip=record.ip,
        port=record.port + 1,
        nat_kind=record.nat_kind,
        protocol=record.protocol,
        relay_address=record.relay_address,
        relay_port=record.relay_port,
        passphrase=record.passphrase,
        encrypted_mirror_list=record.encrypted_mirror_list,
        signed_digest=record.signed_digest,
    )
    client = secure_client(server, pair, cert)
    with pytest.raises(IntegrityError):
        rvclient.register_peer(client, broken)
    assert server.store.peer_by_passphrase("carol-phrase") is None


def test_reregistration_replaces_row(server, ca):
    pair, cert = make_user(ca, "reg-dave")
    first = make_record(pair, cert, passphrase="dave-one", ip="10.0.5.5")
    client = secure_client(server, pair, cert)
    rvclient.register_peer(client, first)
    second = make_record(pair, cert, passphrase="dave-two", ip="10.0.6.6")
    client2 = secure_client(server, pair, cert)
    rvclient.register_peer(client2, second)

    rows = [r for r in server.store.peer_rows() if r.record.username == "reg-dave"]
    assert len(rows) == 1
    assert rows[0].record.ip == "10.0.6.6"
    # Stale passphrase after rotation: old row overwritten.
    qpair, qcert = make_user(ca, "reg-erin")
    qclient = secure_client(server, qpair, qcert)
    with pytest.raises(NotFound):
        rvclient.locate_peer(qclient, "dave-one")
    assert rvclient.locate_peer(qclient, "dave-two")[0].ip == "10.0.6.6"


def test_locate_by_username_never_matches(server, ca):
    # Namespace separation: lookup is keyed strictly by passphrase.
    pair, cert = make_user(ca, "reg-frank")
    record = make_record(pair, cert, passphrase="frank-secret")
    client = secure_client(server, pair, cert)
    rvclient.register_peer(client, record)
    with pytest.raises(NotFound):
        rvclient.locate_peer(client, "reg-frank")


def test_unknown_passphrase_not_found(server, ca):
    pair, cert = make_user(ca, "reg-gina")
    client = secure_client(server, pair, cert)
    with pytest.raises(NotFound):
        rvclient.locate_peer(client, "no-such-phrase")


# -- friendship requests ------------------------------------------------------------


def test_friend_request_flow(server, ca):
    tpair, tcert = make_user(ca, "fr-bob")
    client = secure_client(server, tpair, tcert)
    rvclient.register_peer(client, make_record(tpair, tcert, passphrase="fr-bob-phrase"))

    rpair, rcert = make_user(ca, "fr-alice")
    rclient = secure_client(server, rpair, rcert)
    got_cert = rvclient.friend_request(rclient, "fr-bob")
    assert got_cert.username == "fr-bob"
    blob = rvclient.seal_request_blob(got_cert, "fr-alice", "fr-alice-phrase")
    rvclient.submit_passphrase_blob(rclient, blob)

    # The blob is stored verbatim: server state must contain only ciphertext.
    stored = server.store.pop_friend_requests("fr-bob")
    assert len(stored) == 1
    assert stored[0].requester_username == "fr-alice"
    assert stored[0].sealed_passphrase == blob
    assert b"fr-alice-phrase" not in stored[0].sealed_passphrase
    assert rvclient.open_request_blob(tpair, stored[0]) == "fr-alice-phrase"


def test_friend_request_unknown_target(server, ca):
    rpair, rcert = make_user(ca, "fr-zed-asker")
    rclient = secure_client(server, rpair, rcert)
    with pytest.raises(NotFound):
        rvclient.friend_request(rclient, "zed")


def test_pending_requests_delivered_at_registration(server, ca):
    tpair, tcert = make_user(ca, "fr-carol")
    client = secure_client(server, tpair, tcert)
    rvclient.register_peer(client, make_record(tpair, tcert, passphrase="fr-carol-1"))

    rpair, rcert = make_user(ca, "fr-dan")
    rclient = secure_client(server, rpair, rcert)
    got = rvclient.friend_request(rclient, "fr-carol")
    rvclient.submit_passphrase_blob(
        rclient, rvclient.seal_request_blob(got, "fr-dan", "fr-dan-phrase")
    )

    client2 = secure_client(server, tpair, tcert)
    pending = rvclient.register_peer(client2, make_record(tpair, tcert, passphrase="fr-carol-2"))
    assert [p.requester_username for p in pending] == ["fr-dan"]
    # Delivered-then-deleted.
    client3 = secure_client(server, tpair, tcert)
    again = rvclient.register_peer(client3, make_record(tpair, tcert, passphrase="fr-carol-3"))
    assert again == []


# -- relay directory ------------------------------------------------------------------


def relay_channel(server, addr):
    return DirectChannel(server, remote_addr=server.addr, local_addr=addr)


def test_relay_register_ack_interval(server):
    interval = rvclient.relay_register(relay_channel(server, "10.0.2.1:9000"), 7300, 10)
    assert interval == 2000


def test_relay_eviction_after_age(server, clock, ca):
    rvclient.relay_register(relay_channel(server, "10.0.2.1:9000"), 7300, 10)
    clock.advance(server.config.age_ms + 1)
    pair, cert = make_user(ca, "relay-user")
    assert rvclient.request_relay(relay_channel(server, "10.0.9.1:5000")) is None


def test_relay_selection_least_ratio(server):
    a = relay_channel(server, "10.0.2.1:9000")
    b = relay_channel(server, "10.0.2.2:9000")
    rvclient.relay_register(a, 7300, 10)
    rvclient.relay_register(b, 7300, 10)
    rvclient.relay_update(a, 7300, 2, 10)
    rvclient.relay_update(b, 7300, 1, 10)
    assert rvclient.request_relay(relay_channel(server, "10.0.9.1:5000")) == ("10.0.2.2", 7300)


def test_relay_selection_tie_lexicographic(server):
    a = relay_channel(server, "10.0.2.1:9000")
    b = relay_channel(server, "10.0.2.2:9000")
    rvclient.relay_register(a, 7300, 10)
    rvclient.relay_register(b, 7300, 2)
    rvclient.relay_update(a, 7300, 5, 10)
    rvclient.relay_update(b, 7300, 1, 2)
    # 0.5 == 0.5: tie broken toward the lexicographically smaller address.
    assert rvclient.request_relay(relay_channel(server, "10.0.9.1:5000")) == ("10.0.2.1", 7300)


def test_zero_capacity_relay_never_selected(server):
    rvclient.relay_register(relay_channel(server, "10.0.2.9:9000"), 7300, 0)
    assert rvclient.request_relay(relay_channel(server, "10.0.9.1:5000")) is None


def test_relay_balance_property(server):
    # Equal capacities: across k requests, assignment counts differ by <= 1.
    for i in range(4):
        rvclient.relay_register(relay_channel(server, f"10.0.2.{i}:9000"), 7300, 8)
    counts = {}
    for i in range(12):
        got = rvclient.request_relay(relay_channel(server, f"10.0.9.{i}:5000"))
        counts[got] = counts.get(got, 0) + 1
    assert max(counts.values()) - min(counts.values()) <= 1


def test_no_relay_available(server):
    assert rvclient.request_relay(relay_channel(server, "10.0.9.1:5000")) is None


# -- store contract & need-to-know --------------------------------------------------------


@pytest.mark.parametrize("backend", ["memory", "sqlite"])
def test_store_contract_equivalence(backend, ca, tmp_path):
    st = store.MemoryStore() if backend == "memory" else store.SqliteStore(str(tmp_path / "db.sqlite"))
    pair, cert = make_user(ca, f"store-user-{backend}")
    record = make_record(pair, cert, passphrase=f"store-phrase-{backend}")
    row = PeerRow(record=record, certificate=cert.encode(), ring_id=7, replica=False)
    st.upsert_peer(row)
    assert st.peer_by_passphrase(f"store-phrase-{backend}") == row
    assert st.peer_by_username(f"store-user-{backend}") == row
    assert st.peer_by_passphrase(f"store-user-{backend}") is None
    assert st.peer_rows() == [row]
    replica = replace(row, replica=True)
    st.upsert_peer(replica)  # a replica never downgrades a primary
    assert st.peer_rows() == [row]
    st.remove_peer(f"store-user-{backend}", 7)
    assert st.peer_rows() == []
    st.upsert_peer(replica)
    assert st.peer_rows() == [replica]
    st.upsert_peer(row)  # a primary upgrades a replica
    assert st.peer_rows() == [row]
    st.remove_peer(f"store-user-{backend}", 7)
    assert st.peer_rows() == []

    req = FriendshipRequestRecord("t", "r", b"blob")
    st.put_friend_request(req)
    st.put_friend_request(req)  # duplicate pair overwrites
    assert st.pop_friend_requests("t") == [req]
    assert st.pop_friend_requests("t") == []

    relay = RelayRecord(address="10.0.2.1", port=7300, capacity=4, load=1, last_update=5)
    st.upsert_relay(relay)
    assert st.relay_rows() == [relay]
    st.remove_relay("10.0.2.1", 7300)
    assert st.relay_rows() == []


def test_need_to_know_no_plaintext_secrets(server, ca):
    # After arbitrary operations the server state never holds a plaintext
    # mirror list or a friend's plaintext passphrase.
    pair, cert = make_user(ca, "ntk-owner")
    friend_key = identity.generate_friend_key(random.Random(5))
    mirror_plain = b"mirror-bob,mirror-carol"
    enc = identity.friend_key_encrypt(friend_key, mirror_plain)
    record = make_record(pair, cert, passphrase="ntk-phrase", encrypted_mirror_list=enc)
    client = secure_client(server, pair, cert)
    rvclient.register_peer(client, record)

    rpair, rcert = make_user(ca, "ntk-requester")
    rclient = secure_client(server, rpair, rcert)
    got = rvclient.friend_request(rclient, "ntk-owner")
    rvclient.submit_passphrase_blob(
        rclient, rvclient.seal_request_blob(got, "ntk-requester", "ntk-requester-phrase")
    )

    for row in server.store.peer_rows():
        assert mirror_plain not in row.record.encrypted_mirror_list
    for req in server.store.pop_friend_requests("ntk-owner"):
        assert b"ntk-requester-phrase" not in req.sealed_passphrase


def test_every_stored_record_verifies(server, ca):
    for name in ("inv-a", "inv-b", "inv-c"):
        pair, cert = make_user(ca, name)
        client = secure_client(server, pair, cert)
        rvclient.register_peer(client, make_record(pair, cert, passphrase=f"{name}-phrase"))
    for row in server.store.peer_rows():
        assert row.verified(ca.public_key, ca.algorithm_id)


def test_ring_replicate_decodes_row_once(ca, clock, monkeypatch):
    # Accepting one RING_REPLICATE costs one PeerRow.decode: the row is
    # decoded off the wire, verified and stored without re-encoding.
    server = RendezvousServer(
        addr="10.0.0.2:7200",
        config=RendezvousConfig(ring_enabled=True),
        ca_public_key=ca.public_key,
        ca_algorithm=ca.algorithm_id,
        endpoint=object(),  # never dialled: accepting a replica sends nothing
        clock=clock,
        rng=random.Random(1),
    )
    pair, cert = make_user(ca, "gate-user")
    row = PeerRow(record=make_record(pair, cert), certificate=cert.encode(), ring_id=42)
    decodes = []
    real_decode = records.PeerRow.decode.__func__

    def counting_decode(cls, data):
        decodes.append(data)
        return real_decode(cls, data)

    monkeypatch.setattr(records.PeerRow, "decode", classmethod(counting_decode))
    ring_row = wire.pack_fields(b"2a", row.encode(), b"1")
    reply = DirectChannel(server).request(
        wire.Frame(wire.RING_REPLICATE, wire.pack_fields(ring_row))
    )
    assert wire.open_reply(reply) == [b"1"]
    assert len(decodes) == 1
    assert server.store.peer_rows() == [replace(row, replica=True)]


@pytest.mark.parametrize("ring", [False, True])
def test_register_verifies_row_once(ca, clock, monkeypatch, ring):
    # One certificate and record signature check per registration, with or
    # without a ring: a ring node verifies the row it stores as primary.
    server = RendezvousServer(
        addr="10.0.0.3:7200",
        config=RendezvousConfig(ring_enabled=ring),
        ca_public_key=ca.public_key,
        ca_algorithm=ca.algorithm_id,
        endpoint=object() if ring else None,  # a one-node ring replicates to nobody
        clock=clock,
        rng=random.Random(1),
    )
    checks = []
    real_verified = records.PeerRow.verified

    def counting_verified(row, *args):
        checks.append(row.record.username)
        return real_verified(row, *args)

    monkeypatch.setattr(records.PeerRow, "verified", counting_verified)
    pair, cert = make_user(ca, f"once-{ring}")
    rvclient.register_peer(secure_client(server, pair, cert), make_record(pair, cert))
    assert checks == [cert.username]
    assert [row.record.username for row in server.store.peer_rows()] == [cert.username]
