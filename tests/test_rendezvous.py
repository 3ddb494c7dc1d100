import itertools
import random
import sys
import threading
import time
from dataclasses import replace

import pytest

from friendmesh import identity, records, rvclient, secure, sentinel, store, wire
from friendmesh.channel import DirectChannel
from friendmesh.chord import dual_hash
from friendmesh.config import RendezvousConfig
from friendmesh.errors import HandshakeError, IntegrityError, MalformedRequest, NotFound
from friendmesh.records import (
    FriendshipRequestRecord,
    PeerRow,
    RelayRecord,
    make_registration_record,
    verify_registration_record,
)
from friendmesh.rendezvous import RendezvousServer
from friendmesh.simnet.core import SimNet


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
        clock=clock,
        rng=random.Random(1),
    )


def make_user(ca, name):
    pair = identity.generate_keypair("ec-p256")
    cert = ca.issue(name, pair.public_key)
    return pair, cert


def make_record(pair, cert, passphrase="PASS-" + "X" * 20, ip="10.0.5.5", port=7500, **kw):
    args = dict(
        username=cert.username,
        ip=ip,
        port=port,
       
        protocol="tcp",
        relay_address="",
        relay_port=0,
        passphrase=passphrase,
        encrypted_mirror_list=b"\x01\x02",
    )
    args.update(kw)
    return make_registration_record(
        private_key=pair.private_key, **args
    )


def secure_client(server, pair, cert, remote="10.0.9.9:5000"):
    channel = DirectChannel(server, remote_addr=server.addr, local_addr=remote)
    return secure.connect_secure(channel, cert, pair, server.ca_public_key)


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


def test_kept_session_blob_needs_its_own_friend_request(server, ca):
    # A session serves many requests: a blob is filed only right after an
    # accepted friend request, for that request's target.
    tpair, tcert = make_user(ca, "fr-erin")
    rvclient.register_peer(secure_client(server, tpair, tcert),
                           make_record(tpair, tcert, passphrase="fr-erin-phrase"))
    rpair, rcert = make_user(ca, "fr-finn")
    client = secure_client(server, rpair, rcert)
    got = rvclient.friend_request(client, "fr-erin")
    rvclient.submit_passphrase_blob(client, rvclient.seal_request_blob(got, "fr-finn", "p1"))
    with pytest.raises(MalformedRequest):
        rvclient.submit_passphrase_blob(client, rvclient.seal_request_blob(got, "fr-finn", "p2"))
    rvclient.friend_request(client, "fr-erin")
    with pytest.raises(NotFound):
        rvclient.friend_request(client, "fr-nobody")
    with pytest.raises(MalformedRequest):
        rvclient.submit_passphrase_blob(client, rvclient.seal_request_blob(got, "fr-finn", "p3"))
    stored = server.store.pop_friend_requests("fr-erin")
    assert [rvclient.open_request_blob(tpair, r) for r in stored] == ["p1"]


def test_established_session_is_not_rekeyed(server, ca):
    # Sessions are kept across requests: a second hello on one is refused
    # and leaves the session in step.
    pair, cert = make_user(ca, "kept-gina")
    client = secure_client(server, pair, cert)
    hello = wire.encode(wire.REGISTER_PEER, cert, b"n" * secure.NONCE_LEN)
    again = client._channel.request(wire.Frame(wire.REGISTER_PEER, hello))
    with pytest.raises(HandshakeError):
        wire.open_reply(again)
    with pytest.raises(NotFound):
        rvclient.locate_peer(client, "no such passphrase")


class TapChannel:
    """A channel that records the code of every frame it carries, both ways."""

    def __init__(self, inner):
        self.inner = inner
        self.remote_addr = inner.remote_addr
        self.codes = []

    def request(self, frame):
        self.codes.append(frame.msg_type)
        reply = self.inner.request(frame)
        self.codes.append(reply.msg_type)
        return reply

    def close(self):
        self.inner.close()


def test_rendezvous_session_hides_its_operation(server, ca):
    # An on-path observer sees the handshake and then app data frames only:
    # no frame code names the operation or says whether it was refused.
    tpair, tcert = make_user(ca, "tap-tess")
    rvclient.register_peer(secure_client(server, tpair, tcert), make_record(tpair, tcert))
    pair, cert = make_user(ca, "tap-uma")
    tap = TapChannel(DirectChannel(server, remote_addr=server.addr, local_addr="10.0.9.7:5000"))
    session = secure.connect_secure(tap, cert, pair, server.ca_public_key)
    rvclient.register_peer(session, make_record(pair, cert, passphrase="tap-uma-phrase"))
    assert rvclient.locate_peer(session, "tap-uma-phrase")[0].username == "tap-uma"
    with pytest.raises(NotFound):
        rvclient.locate_peer(session, "no such passphrase")
    got = rvclient.friend_request(session, "tap-tess")
    rvclient.submit_passphrase_blob(session, rvclient.seal_request_blob(got, "tap-uma", "p"))
    assert len(server.store.pop_friend_requests("tap-tess")) == 1
    assert tap.codes[:2] == [wire.REGISTER_PEER, wire.SESSION_KEY]
    assert tap.codes[2:] == [wire.APP_DATA] * 10


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
    path = str(tmp_path / "db.sqlite")
    st = store.MemoryStore() if backend == "memory" else store.SqliteStore(path)
    pair, cert = make_user(ca, f"store-user-{backend}")
    record = make_record(pair, cert, passphrase=f"store-phrase-{backend}")
    row = PeerRow(record=record, certificate=cert.encode(), ring_id=7, replica=False)
    assert st.upsert_peer(row) is True  # upsert_peer says whether it stored the row
    assert st.peer_by_passphrase(f"store-phrase-{backend}") == row
    assert st.peer_by_username(f"store-user-{backend}") == row
    assert st.peer_by_passphrase(f"store-user-{backend}") is None
    assert st.peer_rows() == [row]
    assert st.upsert_peer(PeerRow.decode(row.encode())) is False  # an equal row
    assert st.holds_peer(row) and not st.holds_peer(replace(row, ring_id=8))
    replica = replace(row, replica=True)
    assert st.upsert_peer(replica) is False  # a replica never downgrades a primary
    assert st.peer_rows() == [row] and not st.holds_peer(replica)
    st.remove_peer(f"store-user-{backend}", 7)
    assert st.peer_rows() == [] and not st.holds_peer(row)
    st.upsert_peer(replica)
    assert st.peer_rows() == [replica]
    assert st.upsert_peer(row) is True  # a primary upgrades a replica
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

    # A reopened file holds what the store held; what it dropped stays gone.
    other = replace(replica, record=replace(record, username="other"), ring_id=9)
    for peer in (row, replica, other, replace(other, ring_id=10)):
        st.upsert_peer(peer)
    st.remove_peer("other", 10)
    st.put_friend_request(req)
    st.put_friend_request(FriendshipRequestRecord("t2", "r", b"blob2"))
    assert len(st.pop_friend_requests("t2")) == 1
    st.upsert_relay(replace(relay, port=7301))
    st.upsert_relay(relay)
    st.remove_relay("10.0.2.1", 7301)
    reopen = (lambda: st) if backend == "memory" else (lambda: store.SqliteStore(path))
    st = reopen()
    assert st.peer_rows() == [row, other]
    st.upsert_peer(replica)  # the reopened primary still outranks a replica
    assert st.peer_rows() == [row, other]
    assert st.relay_rows() == [relay]
    assert st.pop_friend_requests("t2") == []
    assert st.pop_friend_requests("t") == [req]
    assert reopen().pop_friend_requests("t") == []

    if backend == "memory":
        # Writers and a scanning reader share one store: nothing sees a dict
        # change size under its iteration.
        for i in range(2000):
            st.upsert_peer(replace(other, ring_id=100 + i))
        errors = []
        stop = threading.Event()

        def churn():
            try:
                for i in itertools.count(10**6):
                    if stop.is_set():
                        return
                    st.upsert_peer(replace(other, ring_id=i))
                    st.remove_peer("other", i)
            except Exception as exc:
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-4)
        writer = threading.Thread(target=churn)
        writer.start()
        try:
            deadline = time.monotonic() + 0.5
            while time.monotonic() < deadline and not errors:
                st.peer_by_passphrase("no such phrase")
        finally:
            stop.set()
            writer.join(timeout=5)
            sys.setswitchinterval(interval)
        assert not writer.is_alive()
        assert errors == []


def test_sqlite_store_commits_outside_the_store_lock(ca, tmp_path):
    # While a register's commit waits on the disk, a lookup on another
    # thread completes; the register returns once its change is committed.
    path = str(tmp_path / "db.sqlite")
    st = store.SqliteStore(path)
    committing, release = threading.Event(), threading.Event()

    class HeldCommit:
        def __init__(self, db):
            self.db = db

        def executemany(self, *args):
            return self.db.executemany(*args)

        def commit(self):
            committing.set()
            release.wait(timeout=5)
            self.db.commit()

    st._db = HeldCommit(st._db)
    pair, cert = make_user(ca, "held-user")
    row = PeerRow(record=make_record(pair, cert, passphrase="held-phrase"), certificate=cert.encode(), ring_id=7)
    writer = threading.Thread(target=st.upsert_peer, args=(row,))
    writer.start()
    found = []
    try:
        assert committing.wait(timeout=5)
        reader = threading.Thread(target=lambda: found.append(st.peer_by_passphrase("held-phrase")))
        reader.start()
        reader.join(timeout=2)
        assert not reader.is_alive() and found == [row]
        assert writer.is_alive()  # its change is not committed yet
    finally:
        release.set()
        writer.join(timeout=5)
    assert not writer.is_alive()
    assert store.SqliteStore(path).peer_rows() == [row]


def writes(st):
    """What st writes from now on, as a list that grows: ("changed", kind)
    per table change and ("sql", statement) per statement sent to sqlite."""
    seen = []
    changed = st._changed

    def spy(kind, *records, removed=False):
        seen.append(("changed", kind))
        changed(kind, *records, removed=removed)

    st._changed = spy
    if isinstance(st, store.SqliteStore):
        st._db.set_trace_callback(lambda sql: seen.append(("sql", sql)))
    return seen


@pytest.mark.parametrize("backend", ["memory", "sqlite"])
def test_a_store_call_that_changes_nothing_writes_nothing(backend, ca, tmp_path):
    path = str(tmp_path / "db.sqlite")
    st = store.MemoryStore() if backend == "memory" else store.SqliteStore(path)
    pair, cert = make_user(ca, f"noop-user-{backend}")
    row = PeerRow(record=make_record(pair, cert), certificate=cert.encode(), ring_id=7)
    request = FriendshipRequestRecord("t", "r", b"blob")
    relay = RelayRecord(address="10.0.2.1", port=7300, capacity=4, load=1, last_update=5)
    st.upsert_peer(row)
    st.put_friend_request(request)
    st.upsert_relay(relay)

    seen = writes(st)
    st.upsert_peer(PeerRow.decode(row.encode()))  # equal, not the same object
    st.upsert_peer(replace(row, replica=True))  # a replica over a primary
    st.put_friend_request(FriendshipRequestRecord("t", "r", b"blob"))
    st.upsert_relay(replace(relay))
    assert st.pop_friend_requests("nobody") == []
    st.remove_peer(row.record.username, 8)
    st.remove_peer("nobody", 7)
    st.remove_relay("10.0.2.1", 7301)
    assert seen == []
    assert st.peer_rows() == [row] and st.relay_rows() == [relay]

    st.upsert_relay(replace(relay, load=2))  # a real change is still written
    assert seen[0] == ("changed", "relay")
    assert (("sql", "COMMIT") in seen) == (backend == "sqlite")


def test_an_unchanged_reregistration_writes_nothing_to_the_file(ca, clock, tmp_path):
    path = str(tmp_path / "db.sqlite")
    server = RendezvousServer(
        addr="10.0.0.1:7200", config=RendezvousConfig(), ca_public_key=ca.public_key,
        store=store.SqliteStore(path), clock=clock, rng=random.Random(1),
    )
    pair, cert = make_user(ca, "file-alice")
    first = make_record(pair, cert, passphrase="file-alice-1")
    session = secure_client(server, pair, cert)
    rvclient.register_peer(session, first)
    rpair, rcert = make_user(ca, "file-bob")
    rvclient.register_peer(secure_client(server, rpair, rcert), make_record(rpair, rcert, passphrase="file-bob-1"))
    rvclient.relay_register(relay_channel(server, "10.0.2.1:9000"), 7300, 10)

    seen = writes(server.store)
    clock.advance(60_000)  # the owner's refresh, a minute on: the same signed record
    assert rvclient.register_peer(session, first) == []
    assert rvclient.register_peer(secure_client(server, pair, cert), first) == []
    assert seen == []

    def commits():
        return [sql for kind, sql in seen if kind == "sql" and sql == "COMMIT"]

    second = make_record(pair, cert, passphrase="file-alice-2")
    assert rvclient.register_peer(session, second) == []
    assert commits() == ["COMMIT"]
    rclient = secure_client(server, rpair, rcert)
    target = rvclient.friend_request(rclient, "file-alice")
    rvclient.submit_passphrase_blob(rclient, rvclient.seal_request_blob(target, "file-bob", "file-bob-1"))
    rvclient.relay_update(relay_channel(server, "10.0.2.1:9000"), 7300, 3, 10)
    del seen[:]
    (delivered,) = rvclient.register_peer(session, second)  # the same row; a request popped
    assert delivered.requester_username == "file-bob"
    assert [w for w in seen if w[0] == "changed"] == [("changed", "request")]
    assert commits() == ["COMMIT"]
    rvclient.friend_request(rclient, "file-alice")
    rvclient.submit_passphrase_blob(rclient, rvclient.seal_request_blob(target, "file-bob", "file-bob-2"))

    # The reopened file holds exactly what the server acknowledged.
    reopened = store.SqliteStore(path)
    assert reopened._tables == server.store._tables
    assert reopened.peer_rows() == server.store.peer_rows()  # in the same order
    assert reopened.peer_by_username("file-alice").record == second
    assert reopened.relay_rows()[0].load == 3
    assert [r.requester_username for r in reopened.pop_friend_requests("file-alice")] == ["file-bob"]


def test_an_unchanged_upsert_returns_once_an_equal_change_is_committed(ca, tmp_path):
    # A call that changes nothing must still not return while the equal
    # change it found, made by another thread, is not yet committed.
    path = str(tmp_path / "db.sqlite")
    st = store.SqliteStore(path)
    pair, cert = make_user(ca, "equal-user")
    row = PeerRow(record=make_record(pair, cert), certificate=cert.encode(), ring_id=7)
    writers = [threading.Thread(target=st.upsert_peer, args=(row,)) for _ in range(2)]
    with st._file_lock:  # the file is busy: the first writer's change waits, queued
        writers[0].start()
        deadline = time.monotonic() + 5
        while not st.peer_rows() and time.monotonic() < deadline:
            time.sleep(0.001)
        writers[1].start()
        writers[1].join(timeout=0.5)
        assert writers[1].is_alive()
    for writer in writers:
        writer.join(timeout=5)
    assert not any(writer.is_alive() for writer in writers)
    assert store.SqliteStore(path).peer_rows() == [row]


# PeerRows as a server wrote them in older record layouts; the rest is
# today's layout. One from while the registration record still carried a NAT
# kind ("full_cone", after the port) and the server's last_refresh stamp; one
# from while it carried only the stamp ("1234", its last field).
OLD_LAYOUT_PEER_ROWS = {
    "nat_kind": wire.pack_fields(
        wire.pack_fields(b"alice", b"10.0.0.1", b"7500", b"full_cone", b"udp", b"10.0.0.9", b"7300",
                         b"phrase", b"mirrors", b"\x01" * 4, b"sig", b"1234"),
        b"cert", b"abc", b"1",
    ),
    "last_refresh": wire.pack_fields(
        wire.pack_fields(b"alice", b"10.0.0.1", b"7500", b"udp", b"10.0.0.9", b"7300",
                         b"phrase", b"mirrors", b"\x01" * 4, b"sig", b"1234"),
        b"cert", b"abc", b"1",
    ),
}


def sqlite_file(path, *rows):
    import sqlite3

    db = sqlite3.connect(path)
    db.execute("CREATE TABLE records (kind TEXT NOT NULL, key TEXT NOT NULL, value BLOB NOT NULL,"
               " PRIMARY KEY (kind, key))")
    db.executemany("INSERT INTO records VALUES (?, ?, ?)", rows)
    db.commit()
    return db


@pytest.mark.parametrize("layout", sorted(OLD_LAYOUT_PEER_ROWS))
def test_sqlite_store_drops_a_peer_row_of_an_older_layout(tmp_path, layout):
    # A registration is soft state its owner re-sends: the restarted server
    # opens, forgets the row, and keeps everything else.
    path = str(tmp_path / "db.sqlite")
    relay = RelayRecord(address="10.0.2.1", port=7300, capacity=4, load=1, last_update=5)
    request = FriendshipRequestRecord("alice", "bob", b"blob")
    db = sqlite_file(
        path,
        ("peer", repr(("alice", 0xABC)), OLD_LAYOUT_PEER_ROWS[layout]),
        ("relay", repr(("10.0.2.1", 7300)), relay.encode()),
        ("request", repr(("alice", "bob")), request.encode()),
    )
    st = store.SqliteStore(path)
    assert st.peer_rows() == [] and st.relay_rows() == [relay]
    assert db.execute("SELECT kind FROM records").fetchall() == [("relay",), ("request",)]
    assert st.pop_friend_requests("alice") == [request]
    db.close()


@pytest.mark.parametrize("kind", ["request", "relay"])
def test_sqlite_store_refuses_a_malformed_row_of_other_kinds(tmp_path, kind):
    path = str(tmp_path / "db.sqlite")
    sqlite_file(path, (kind, "key", b"\x00\x01x")).close()
    with pytest.raises(MalformedRequest):
        store.SqliteStore(path)


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
        assert row.verified(ca.public_key)


def test_ring_replicate_decodes_row_once(ca, clock, monkeypatch):
    # Accepting one RING_REPLICATE costs one PeerRow.decode: the row, which
    # travels as its own layout, is decoded off the wire, verified and
    # stored without re-encoding.
    server = RendezvousServer(
        addr="10.0.0.2:7200",
        config=RendezvousConfig(ring_enabled=True),
        ca_public_key=ca.public_key,
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
    replica = replace(row, replica=True)
    reply = DirectChannel(server).request(
        wire.Frame(wire.RING_REPLICATE, wire.pack_fields(replica.encode()))
    )
    assert wire.open_reply(reply) == [b"1"]
    assert len(decodes) == 1
    assert server.store.peer_rows() == [replica]


@pytest.mark.parametrize("ring", [False, True])
def test_register_verifies_row_once(ca, clock, monkeypatch, ring):
    # One certificate and record signature check per registration, with or
    # without a ring: a ring node verifies the row it stores as primary.
    server = RendezvousServer(
        addr="10.0.0.3:7200",
        config=RendezvousConfig(ring_enabled=ring),
        ca_public_key=ca.public_key,
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


def test_server_never_records_evicting_itself(ca, clock):
    # Complaints about a ring server that reach that server pass its
    # threshold like any others, but it evicts nobody and records nothing.
    events = []
    server = RendezvousServer(
        addr="10.0.0.5:7200",
        config=RendezvousConfig(ring_enabled=True, complaint_threshold=3),
        ca_public_key=ca.public_key,
        endpoint=object(),  # a one-node ring spreads complaints to nobody
        clock=clock,
        rng=random.Random(1),
        on_event=lambda kind, **fields: events.append(kind),
    )
    for i in range(5):
        pair, cert = make_user(ca, f"self-accuser-{i}")
        assert server.handle_complaint(sentinel.make_complaint(server.addr, cert, pair.private_key, 0))
    assert server.ledger.distinct_complainants(server.addr) == 5
    assert server.evictions == []
    assert "eviction" not in events
    assert server.ring.evicted == set()


def sim_ring(ca, count):
    """`count` ring servers, built as the CLI builds them, joined and
    stabilized on a simulated network: (the network, address -> server)."""
    sim = SimNet(seed=5)
    servers = {}
    for i in range(count):
        addr = f"10.2.0.{i + 1}:7200"
        host = sim.add_host(addr)
        servers[addr] = RendezvousServer(
            addr, RendezvousConfig(ring_enabled=True), ca.public_key,
            endpoint=host.endpoint(), clock=sim.now_ms, rng=random.Random(i),
        )
        sim.set_service(addr, servers[addr])
    addrs = sorted(servers)
    for addr in addrs[1:]:
        servers[addr].join_ring(addrs[0])
        for _ in range(3):
            for server in servers.values():
                server.tick()
    for server in servers.values():
        server.ring.fix_fingers()
    return sim, servers


def test_an_unchanged_reregistration_at_a_ring_server_is_neither_verified_nor_pushed(ca, monkeypatch):
    # On a simulated ring of 3, a re-registration of the same signed record
    # sends no ring_replicate frame and checks no signature. A changed
    # record is verified by the owner and the successor and pushed once.
    sim, servers = sim_ring(ca, 3)
    pair, cert = make_user(ca, "unchanged-user")
    owner = servers[sorted(servers)[0]].ring.find_successor(dual_hash(cert.username).id_md5).addr
    session = secure_client(servers[owner], pair, cert)
    record = make_record(pair, cert)
    rvclient.register_peer(session, record)
    successor = servers[servers[owner].ring.successor()]
    assert [row.replica for row in successor.store.peer_rows()] == [True]
    checks = []
    real_verified = records.PeerRow.verified
    monkeypatch.setattr(records.PeerRow, "verified",
                        lambda row, key: checks.append(row.replica) or real_verified(row, key))

    def pushes(register):
        before = len(sim.trace)
        register()
        return [line.split()[3:5] for line in sim.trace[before:] if " MSG req " in line
                and line.split()[5] == "ring_replicate"]

    assert pushes(lambda: rvclient.register_peer(session, record)) == []
    assert checks == []
    changed = make_record(pair, cert, passphrase="PASS-" + "Y" * 20)
    assert pushes(lambda: rvclient.register_peer(session, changed)) == [[owner, successor.addr]]
    assert checks == [False, True]
    assert [row.record for row in successor.store.peer_rows()] == [changed]


def test_a_cli_servers_adjudication_evicts_at_the_third_complainant_with_no_frame(ca, monkeypatch):
    # Servers built as the CLI builds them, with no threshold given, on a
    # simulated ring of 6 that holds registrations. The accused is evicted
    # ring-wide at the 3rd distinct complainant registered with it, and
    # adjudicating a complaint sends no frame: the threshold is a count,
    # not an estimate of the accused's registrants.
    sim, servers = sim_ring(ca, 6)
    addrs = sorted(servers)
    by_owner = {}
    for i in range(18):
        pair, cert = make_user(ca, f"cli-adj-{i}")
        owner = servers[addrs[0]].ring.find_successor(dual_hash(cert.username).id_md5).addr
        rvclient.register_peer(secure_client(servers[owner], pair, cert), make_record(pair, cert))
        by_owner.setdefault(owner, []).append((pair, cert))
    accused, registrants = max(by_owner.items(), key=lambda item: len(item[1]))
    assert len(registrants) >= 3
    assert all(server.store.peer_rows() for server in servers.values())
    frames = []
    adjudicate = RendezvousServer._adjudicate

    def counting(server, accused):
        before = len(sim.trace)
        adjudicate(server, accused)
        frames.append(sum(" MSG " in line for line in sim.trace[before:]))

    monkeypatch.setattr(RendezvousServer, "_adjudicate", counting)
    judges = [addr for addr in addrs if addr != accused]
    channel = DirectChannel(servers[judges[0]])
    for n, (pair, cert) in enumerate(registrants[:3], start=1):
        complaint = sentinel.make_complaint(accused, cert, pair.private_key, sim.now_ms())
        rvclient.submit_complaint(channel, complaint.encode())
        evicted = [addr for addr in judges if accused in servers[addr].ring.evicted]
        assert evicted == (judges if n == 3 else []), n
    assert frames == [0] * (3 * len(judges))


def ring_closest(channel, ident):
    return wire.call(channel, wire.RING_CLOSEST, ident)


@pytest.mark.parametrize("lookup", [rvclient.chord_lookup, ring_closest], ids=["chord_lookup", "ring_closest"])
def test_off_ring_identifier_refused(ca, clock, lookup):
    # An id outside Z_{2^bits} is refused, not routed as its residue. The
    # refusal travels under the frame code of the reply (chord_reply for a
    # chord lookup), so the client's call raises its coded error.
    server = RendezvousServer(
        addr="10.0.0.4:7200",
        config=RendezvousConfig(ring_enabled=True),
        ca_public_key=ca.public_key,
        endpoint=object(),  # a one-node ring dials nobody
        clock=clock,
        rng=random.Random(1),
    )
    top = (1 << server.ring.bits) - 1
    channel = DirectChannel(server)
    lookup(channel, top)
    with pytest.raises(MalformedRequest):
        lookup(channel, top + 1)
