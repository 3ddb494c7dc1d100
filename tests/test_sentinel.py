import random

import pytest

from friendmesh import identity, sentinel
from friendmesh.chord import dual_hash
from friendmesh.errors import PeerUnreachable
from friendmesh.records import make_registration_record
from friendmesh.sentinel import (
    Complaint,
    ComplaintLedger,
    NotificationBook,
    VerificationOutcome,
    check_peer_record,
    make_complaint,
    verify_complaint,
    verify_registration_targets,
)


@pytest.fixture(scope="module")
def ca():
    pair = identity.generate_keypair("ec-p256")
    return identity.CAState("sentca", pair)


def make_user(ca, name):
    pair = identity.generate_keypair("ec-p256")
    cert = ca.issue(name, pair.public_key)
    return pair, cert


def make_record(pair, cert, **kw):
    args = dict(
        username=cert.username,
        ip="10.0.5.5",
        port=7500,
       
        protocol="tcp",
        relay_address="",
        relay_port=0,
        passphrase="phrase-" + cert.username,
        encrypted_mirror_list=b"\x09\x08",
    )
    args.update(kw)
    return make_registration_record(
        private_key=pair.private_key, **args
    )


# -- check_peer_record ------------------------------------------------------------


def test_intact_record_ok(ca):
    pair, cert = make_user(ca, "cpr-alice")
    assert check_peer_record(make_record(pair, cert), cert) == "ok"


def test_field_mutations_flagged(ca):
    # Mutation oracle: every single-field substitution must be flagged.
    pair, cert = make_user(ca, "cpr-bob")
    record = make_record(pair, cert)
    mutations = {
        "ip": "6.6.6.6",
        "port": 6666,
        "protocol": "udp",
        "relay_address": "6.6.6.1",
        "relay_port": 1,
        "passphrase": "stolen",
        "encrypted_mirror_list": b"\xff",
    }
    for field_name, bad_value in mutations.items():
        mutated = type(record)(**{**record.__dict__, field_name: bad_value})
        assert check_peer_record(mutated, cert) == "storage_attack", field_name


def test_stale_but_intact_record_ok(ca):
    # An old signed version verifies at this layer; staleness is handled by
    # friend notifications, not the digest check.
    pair, cert = make_user(ca, "cpr-carol")
    old = make_record(pair, cert, passphrase="old-phrase")
    assert check_peer_record(old, cert) == "ok"


# -- complaints ----------------------------------------------------------------------


def test_complaint_roundtrip_and_verify(ca):
    pair, cert = make_user(ca, "cm-alice")
    c = make_complaint("10.0.0.9:7200", cert, pair.private_key, now=1000)
    decoded = Complaint.decode(c.encode())
    assert decoded == c
    assert verify_complaint(decoded, ca.public_key, now=1500, freshness_ms=5000)


def test_complaint_replay_dropped(ca):
    pair, cert = make_user(ca, "cm-bob")
    c = make_complaint("10.0.0.9:7200", cert, pair.private_key, now=1000)
    assert not verify_complaint(c, ca.public_key, now=99_999, freshness_ms=5000)


def test_complaint_without_peer_key_invalid(ca):
    # Goal 1: a server cannot fabricate a valid complaint; it holds no peer
    # key, and an unsigned or self-signed complaint fails verification.
    pair, cert = make_user(ca, "cm-carol")
    rogue = identity.generate_keypair("ec-p256")
    forged = Complaint(
        accused="10.0.0.9:7200",
        complainant="cm-carol",
        timestamp=1000,
        signature=identity.sign(rogue.private_key, b"whatever"),
        certificate=cert.encode(),
    )
    assert not verify_complaint(forged, ca.public_key, 1000, 5000)


def test_complaint_wrong_username_in_cert(ca):
    pair, cert = make_user(ca, "cm-dan")
    c = make_complaint("10.0.0.9:7200", cert, pair.private_key, now=1000)
    other_pair, other_cert = make_user(ca, "cm-erin")
    spoofed = Complaint(
        accused=c.accused,
        complainant="cm-erin",
        timestamp=c.timestamp,
        signature=c.signature,
        certificate=other_cert.encode(),
    )
    assert not verify_complaint(spoofed, ca.public_key, 1000, 5000)


def add_complaint(ledger, ca, name_pair_cert, accused, now=1000, registered=lambda u, a: True):
    pair, cert = name_pair_cert
    c = make_complaint(accused, cert, pair.private_key, now=now)
    return ledger.add(c, ca.public_key, now, 5000, registered)


def test_ledger_eviction_at_exactly_r(ca):
    ledger = ComplaintLedger(threshold=3)
    accused = "10.0.0.9:7200"
    users = [make_user(ca, f"lg-a{i}") for i in range(3)]
    assert ledger.adjudicate(accused) == "retain"
    add_complaint(ledger, ca, users[0], accused)
    add_complaint(ledger, ca, users[1], accused)
    assert ledger.adjudicate(accused) == "retain"  # 2 < r
    add_complaint(ledger, ca, users[2], accused)
    assert ledger.adjudicate(accused) == "evict"  # exactly r


def test_ledger_duplicates_count_once(ca):
    ledger = ComplaintLedger(threshold=3)
    accused = "10.0.0.9:7200"
    users = [make_user(ca, f"lg-b{i}") for i in range(2)]
    add_complaint(ledger, ca, users[0], accused, now=1000)
    add_complaint(ledger, ca, users[0], accused, now=1001)  # same complainant again
    add_complaint(ledger, ca, users[1], accused, now=1000)
    assert ledger.distinct_complainants(accused) == 2
    assert ledger.adjudicate(accused) == "retain"


def test_ledger_rejects_non_registered_complainants(ca):
    # Goal 2: only a peer registered with the server may complain about it.
    ledger = ComplaintLedger(threshold=3)
    accused = "10.0.0.9:7200"
    users = [make_user(ca, f"lg-c{i}") for i in range(3)]
    for user in users:
        assert not add_complaint(ledger, ca, user, accused, registered=lambda u, a: False)
    assert ledger.distinct_complainants(accused) == 0
    assert ledger.adjudicate(accused) == "retain"


def test_ledger_auto_threshold_formula():
    ledger = ComplaintLedger(threshold=None)
    assert ledger.effective_threshold("x", registered_count=0) == 3
    assert ledger.effective_threshold("x", registered_count=10) == 3
    assert ledger.effective_threshold("x", registered_count=40) == 8


def test_notification_book_threshold():
    book = NotificationBook(threshold=3)
    accused = "10.0.0.9:7200"
    assert book.note(accused, "f1") == 1
    assert not book.should_complain(accused)  # benefit still outdoes harm
    book.note(accused, "f2")
    book.note(accused, "f2")  # duplicates from one friend count once
    assert not book.should_complain(accused)
    book.note(accused, "f3")
    assert book.should_complain(accused)
    book.mark_filed(accused)
    assert not book.should_complain(accused)


# -- registration verification procedure ---------------------------------------------


class ScriptedRing:
    """Fake probe: an honest id->server map plus per-server lies."""

    def __init__(self, ca, honest_servers, friend):
        self.ca = ca
        self.honest = honest_servers  # list of addrs
        self.lies = {}  # via_addr -> addr it names for every id
        self.unreachable = set()
        self.lookups = []  # (via, ident) of every locate
        self.friend_pair, self.friend_cert = friend
        self.friend_record = make_record(self.friend_pair, self.friend_cert)
        self.record_holders = set(honest_servers)
        self.falsifiers = set()  # servers returning corrupt records
        self.alternates = []
        self.connect_ok = {self.friend_record.ip}

    def _honest_successor(self, ident):
        # Stand-in ring geometry: stable pick by ident.
        return self.honest[ident % len(self.honest)]

    def locate(self, via, ident):
        self.lookups.append((via, ident))
        if via in self.unreachable:
            raise PeerUnreachable(via)
        return self.lies.get(via) or self._honest_successor(ident)

    def fetch_record(self, server, passphrase):
        if server in self.unreachable:
            raise PeerUnreachable(server)
        if server not in self.record_holders:
            return None
        if passphrase != self.friend_record.passphrase:
            return None
        record = self.friend_record
        if server in self.falsifiers:
            record = type(record)(**{**record.__dict__, "ip": "6.6.6.6"})
        return record, self.friend_cert.encode()

    def try_connect(self, record):
        return record.ip in self.connect_ok

    def next_alternate(self):
        return self.alternates.pop(0) if self.alternates else None


@pytest.fixture()
def scripted(ca):
    friend = make_user(ca, f"vr-friend-{random.randrange(10**9)}")
    servers = [f"10.0.1.{i}:7200" for i in range(4)]
    return ScriptedRing(ca, servers, friend)


def run_procedure(ring, x, y, z):
    my_ids = dual_hash("vr-peer")
    friend_ids = dual_hash(ring.friend_cert.username)
    return verify_registration_targets(
        ring,
        x,
        y,
        z,
        ring.friend_cert.username,
        ring.friend_record.passphrase,
        ring.friend_cert,
        my_ids,
        friend_ids,
    )


def first_candidate(ring):
    """The server y and z name first for the friend: y's md5 answer."""
    return ring._honest_successor(dual_hash(ring.friend_cert.username).id_md5)


def test_honest_ring_verified(scripted):
    my_ids = dual_hash("vr-peer")
    y = scripted._honest_successor(my_ids.id_md5)
    z = scripted._honest_successor(my_ids.id_sha1)
    outcome = run_procedure(scripted, "10.0.1.0:7200", y, z)
    assert outcome.status == "verified"
    assert outcome.targets == (y, z)
    assert outcome.witness == first_candidate(scripted)
    assert outcome.implicated == ()


def test_honest_ring_resolves_only_the_first_witness(scripted):
    # y's md5 answer for the friend is a correct witness, so neither y's
    # sha1 answer nor z's are resolved: 3 lookups, where resolving every
    # candidate first made 6. The witness then rechecks both of the
    # caller's ids.
    my_ids = dual_hash("vr-peer")
    friend_ids = dual_hash(scripted.friend_cert.username)
    y = scripted._honest_successor(my_ids.id_md5)
    z = scripted._honest_successor(my_ids.id_sha1)
    outcome = run_procedure(scripted, "10.0.1.0:7200", y, z)
    witness = outcome.witness
    assert scripted.lookups == [
        (y, friend_ids.id_md5),
        (witness, my_ids.id_md5),
        (witness, my_ids.id_sha1),
    ]


def test_colluding_fake_md5_server_detected(scripted):
    # X named a fake Y' for the MD5 key while the SHA-1 answer is honest;
    # the witness recheck implicates X and Y'.
    my_ids = dual_hash("vr-peer")
    x = "10.0.9.66:7200"
    fake_y = "10.0.9.99:7200"
    z = scripted._honest_successor(my_ids.id_sha1)
    outcome = run_procedure(scripted, x, fake_y, z)
    assert outcome.status == "suspect"
    assert set(outcome.implicated) == {x, fake_y}
    assert outcome.witness == first_candidate(scripted)
    # Corrected targets point at the honest servers.
    assert outcome.targets == (
        scripted._honest_successor(my_ids.id_md5),
        scripted._honest_successor(my_ids.id_sha1),
    )


def test_friend_offline_retries_another_server(scripted):
    # No returned record connects: pick another rendezvous server, restart.
    scripted.connect_ok = set()
    my_ids = dual_hash("vr-peer")
    y = scripted._honest_successor(my_ids.id_md5)
    z = scripted._honest_successor(my_ids.id_sha1)

    # After the restart through an alternate, the friend comes back.
    restore = {"done": False}
    original_fetch = scripted.fetch_record

    def fetch_with_recovery(server, passphrase):
        if restore["done"]:
            scripted.connect_ok = {scripted.friend_record.ip}
        return original_fetch(server, passphrase)

    scripted.fetch_record = fetch_with_recovery
    scripted.alternates = ["10.0.1.3:7200"]

    real_locate = scripted.locate

    def locate(via, ident):
        if via == "10.0.1.3:7200":
            restore["done"] = True
        return real_locate(via, ident)

    scripted.locate = locate

    outcome = run_procedure(scripted, "10.0.1.0:7200", y, z)
    assert outcome.status == "verified"
    assert outcome.witness == first_candidate(scripted)
    assert outcome.implicated == ()


def test_everything_unreachable_is_inconclusive(scripted):
    scripted.unreachable = set(scripted.honest)
    my_ids = dual_hash("vr-peer")
    y = scripted._honest_successor(my_ids.id_md5)
    z = scripted._honest_successor(my_ids.id_sha1)
    outcome = run_procedure(scripted, "10.0.1.0:7200", y, z)
    assert outcome == VerificationOutcome(status="inconclusive")


def test_falsified_record_not_used_as_witness(scripted):
    # A server returning a corrupt record can never become the witness.
    my_ids = dual_hash("vr-peer")
    friend_ids = dual_hash(scripted.friend_cert.username)
    y = scripted._honest_successor(my_ids.id_md5)
    z = scripted._honest_successor(my_ids.id_sha1)
    candidates = [
        scripted._honest_successor(friend_ids.id_md5),
        scripted._honest_successor(friend_ids.id_sha1),
    ]
    honest_one = candidates[-1]
    scripted.falsifiers = set(scripted.honest) - {honest_one}
    outcome = run_procedure(scripted, "10.0.1.0:7200", y, z)
    assert outcome.status in ("verified", "suspect")
    assert outcome.witness == honest_one
