import random
import sys
import threading
from dataclasses import replace

import pytest
from cryptography.hazmat.primitives.asymmetric import ec
from hypothesis import given, settings, strategies as st

from friendmesh import identity
from friendmesh.errors import (
    AuthError,
    HandshakeError,
    IntegrityError,
    MalformedRequest,
    UsernameTaken,
)
from friendmesh.profile import op_add
from friendmesh.records import make_registration_record, verify_registration_record
from friendmesh.simnet.scenario import Scenario, SimConfig


@pytest.fixture(scope="module")
def ca():
    pair = identity.generate_keypair("ec-p256")
    return identity.CAState("testca", pair)


def make_user(ca, username):
    pair = identity.generate_keypair("ec-p256")
    cert = ca.issue(username, pair.public_key, pair.algorithm_id)
    return pair, cert


# -- generate_keypair --------------------------------------------------------


@pytest.mark.parametrize("algo", ["rsa-2048", "ec-p256"])
def test_seal_open_roundtrip(algo):
    pair = identity.generate_keypair(algo)
    blob = identity.seal(pair.public_key, b"x", algo)
    assert identity.open_sealed(pair.private_key, blob, algo) == b"x"


def test_successive_keypairs_are_distinct():
    a = identity.generate_keypair("ec-p256")
    b = identity.generate_keypair("ec-p256")
    assert a.public_key != b.public_key


def test_unsupported_algorithm_rejected():
    with pytest.raises(MalformedRequest):
        identity.generate_keypair("no-such-alg")


def test_public_key_derivable_from_private():
    for algo in ("rsa-2048", "ec-p256"):
        pair = identity.generate_keypair(algo)
        assert identity.derive_public(pair.private_key, algo) == pair.public_key


def test_large_payload_hybrid_seal():
    pair = identity.generate_keypair("rsa-2048")
    data = bytes(range(256)) * 40  # far beyond one RSA block
    blob = identity.seal(pair.public_key, data, "rsa-2048")
    assert identity.open_sealed(pair.private_key, blob, "rsa-2048") == data


# -- ca_issue ----------------------------------------------------------------


def test_ca_issue_nominal(ca):
    pair = identity.generate_keypair("ec-p256")
    request = identity.build_cert_request(
        "alice", pair.public_key, pair.algorithm_id, ca.public_key, ca.algorithm_id
    )
    reply = identity.ca_issue(request, ca)
    cert = identity.open_cert_reply(reply, pair, ca.public_key, ca.algorithm_id)
    assert cert.username == "alice"
    assert identity.verify_certificate(cert, ca.public_key, ca.algorithm_id)


def test_ca_issue_duplicate_username(ca):
    pair = identity.generate_keypair("ec-p256")
    request = identity.build_cert_request(
        "bob", pair.public_key, pair.algorithm_id, ca.public_key, ca.algorithm_id
    )
    identity.ca_issue(request, ca)
    second = identity.build_cert_request(
        "bob", pair.public_key, pair.algorithm_id, ca.public_key, ca.algorithm_id
    )
    with pytest.raises(UsernameTaken):
        identity.ca_issue(second, ca)


def test_ca_issue_flipped_byte_detected(ca):
    # Mutation oracle: flipping any single payload byte must be rejected,
    # tamper-detected flips as integrity errors.
    rng = random.Random(7)
    pair = identity.generate_keypair("ec-p256")
    request = identity.build_cert_request(
        "carol", pair.public_key, pair.algorithm_id, ca.public_key, ca.algorithm_id
    )
    for _ in range(24):
        pos = rng.randrange(len(request))
        mutated = bytearray(request)
        mutated[pos] ^= 1 << rng.randrange(8)
        with pytest.raises((IntegrityError, MalformedRequest)):
            identity.ca_issue(bytes(mutated), ca)
    assert "carol" not in ca.usernames()


def test_ca_issue_digest_flip_is_integrity_error(ca):
    pair = identity.generate_keypair("ec-p256")
    request = identity.build_cert_request(
        "dave", pair.public_key, pair.algorithm_id, ca.public_key, ca.algorithm_id
    )
    mutated = bytearray(request)
    mutated[-1] ^= 0x01  # digest is the trailing field
    with pytest.raises(IntegrityError):
        identity.ca_issue(bytes(mutated), ca)


def test_ca_refuses_unknown_algorithm_before_taking_the_username(ca):
    # A request naming an algorithm the CA cannot use does not burn the
    # username: the corrected retry gets its certificate.
    pair = identity.generate_keypair("ec-p256")
    bad = identity.build_cert_request(
        "algo-retry", pair.public_key, "ec-p257", ca.public_key, ca.algorithm_id
    )
    with pytest.raises(MalformedRequest):
        identity.ca_issue(bad, ca)
    assert "algo-retry" not in ca.usernames()
    good = identity.build_cert_request(
        "algo-retry", pair.public_key, pair.algorithm_id, ca.public_key, ca.algorithm_id
    )
    cert = identity.open_cert_reply(identity.ca_issue(good, ca), pair, ca.public_key, ca.algorithm_id)
    assert cert.username == "algo-retry"


def test_unknown_algorithm_verifies_false(ca):
    pair, cert = make_user(ca, "algo-check")
    signature = identity.sign(pair.private_key, b"data", pair.algorithm_id)
    assert identity.verify(pair.public_key, b"data", signature, pair.algorithm_id)
    assert not identity.verify(pair.public_key, b"data", signature, "ec-p257")
    record = make_registration_record(
        username="algo-check", ip="10.0.0.9", port=7000, nat_kind="public", protocol="tcp",
        relay_address="", relay_port=0, passphrase="p" * 32, encrypted_mirror_list=b"",
        private_key=pair.private_key, algorithm_id=pair.algorithm_id,
    )
    assert verify_registration_record(record, cert)
    assert not verify_registration_record(record, replace(cert, algorithm_id="ec-p257"))


def test_certificate_uniqueness_invariant():
    pair = identity.generate_keypair("ec-p256")
    fresh = identity.CAState("uniq", pair)
    for i in range(20):
        user = identity.generate_keypair("ec-p256")
        fresh.issue(f"user{i}", user.public_key, user.algorithm_id)
    assert len(fresh.usernames()) == 20
    dup = identity.generate_keypair("ec-p256")
    with pytest.raises(UsernameTaken):
        fresh.issue("user3", dup.public_key, dup.algorithm_id)
    assert len(fresh.usernames()) == 20


def test_ca_log_survives_restart(tmp_path):
    log = str(tmp_path / "ca.log")
    pair = identity.generate_keypair("ec-p256")
    first = identity.CAState("persist", pair, log_path=log)
    user = identity.generate_keypair("ec-p256")
    first.issue("erin", user.public_key, user.algorithm_id)
    reloaded = identity.CAState("persist", pair, log_path=log)
    with pytest.raises(UsernameTaken):
        reloaded.issue("erin", user.public_key, user.algorithm_id)


# -- verify_certificate ------------------------------------------------------


def test_certificate_mutation_fails(ca):
    _, cert = make_user(ca, "frank")
    forged = identity.Certificate(
        username="frankk",
        public_key=cert.public_key,
        issuer=cert.issuer,
        algorithm_id=cert.algorithm_id,
        signature=cert.signature,
    )
    assert identity.verify_certificate(cert, ca.public_key, ca.algorithm_id)
    assert not identity.verify_certificate(forged, ca.public_key, ca.algorithm_id)


def test_certificate_wrong_ca_key(ca):
    _, cert = make_user(ca, "grace")
    other = identity.generate_keypair("ec-p256")
    assert not identity.verify_certificate(cert, other.public_key, "ec-p256")


# -- sign_record / verify_record ---------------------------------------------


def test_sign_verify_roundtrip():
    pair = identity.generate_keypair("ec-p256")
    sd = identity.sign_record(b"10.0.0.1|7000|udp", pair.private_key)
    assert identity.verify_record(b"10.0.0.1|7000|udp", sd, pair.public_key)


def test_single_byte_mutations_all_detected():
    # Exhaustive over positions at desk scale.
    pair = identity.generate_keypair("ec-p256")
    payload = b"10.0.0.1|7000|udp|relay:9|phrase"
    sd = identity.sign_record(payload, pair.private_key)
    for pos in range(len(payload)):
        mutated = bytearray(payload)
        mutated[pos] ^= 0x01
        assert not identity.verify_record(bytes(mutated), sd, pair.public_key)


def test_verify_with_substituted_key_fails():
    pair = identity.generate_keypair("ec-p256")
    attacker = identity.generate_keypair("ec-p256")
    sd = identity.sign_record(b"payload", pair.private_key)
    assert not identity.verify_record(b"payload", sd, attacker.public_key)


def test_sign_empty_payload_rejected():
    pair = identity.generate_keypair("ec-p256")
    with pytest.raises(MalformedRequest):
        identity.sign_record(b"", pair.private_key)


# -- seal_session_key / open_session_key --------------------------------------


def test_session_key_roundtrip():
    sender = identity.generate_keypair("ec-p256")
    receiver = identity.generate_keypair("ec-p256")
    sk = identity.generate_session_key()
    blob = identity.seal_session_key(sk, receiver.public_key, sender.private_key)
    opened = identity.open_session_key(blob, sender.public_key, receiver.private_key)
    assert opened == sk


def test_session_key_wrong_receiver_key():
    sender = identity.generate_keypair("ec-p256")
    receiver = identity.generate_keypair("ec-p256")
    wrong = identity.generate_keypair("ec-p256")
    sk = identity.generate_session_key()
    blob = identity.seal_session_key(sk, receiver.public_key, sender.private_key)
    with pytest.raises(HandshakeError):
        identity.open_session_key(blob, sender.public_key, wrong.private_key)


def test_session_key_adversary_strategies_fail():
    # Adversary harness: replay under the wrong sender identity, truncation,
    # and reseal-under-own-key must all fail at the opener.
    sender = identity.generate_keypair("ec-p256")
    receiver = identity.generate_keypair("ec-p256")
    mallory = identity.generate_keypair("ec-p256")
    sk = identity.generate_session_key()
    blob = identity.seal_session_key(sk, receiver.public_key, sender.private_key)

    # Replay presented as coming from mallory: signature check fails.
    with pytest.raises(HandshakeError):
        identity.open_session_key(blob, mallory.public_key, receiver.private_key)

    # Truncation: AEAD fails.
    with pytest.raises(HandshakeError):
        identity.open_session_key(blob[:-4], sender.public_key, receiver.private_key)

    # Reseal under mallory's own key while claiming to be the sender.
    resealed = identity.seal_session_key(sk, receiver.public_key, mallory.private_key)
    with pytest.raises(HandshakeError):
        identity.open_session_key(resealed, sender.public_key, receiver.private_key)


def test_session_cipher_directions():
    sk = identity.generate_session_key()
    initiator = identity.SessionCipher(sk, direction=0)
    responder = identity.SessionCipher(sk, direction=1)
    ct = initiator.encrypt(b"hello")
    assert ct != b"hello"
    assert responder.decrypt(ct) == b"hello"
    back = responder.encrypt(b"world")
    assert initiator.decrypt(back) == b"world"


def test_session_cipher_tamper_detected():
    sk = identity.generate_session_key()
    a = identity.SessionCipher(sk, direction=0)
    b = identity.SessionCipher(sk, direction=1)
    ct = bytearray(a.encrypt(b"payload"))
    ct[0] ^= 0xFF
    with pytest.raises(IntegrityError):
        b.decrypt(bytes(ct))


# -- passphrases and friend keys ----------------------------------------------


def test_passphrase_seeded_and_unlinkable():
    rng = random.Random(99)
    p1 = identity.generate_passphrase(rng)
    p2 = identity.generate_passphrase(random.Random(99))
    assert p1 == p2
    assert len(p1) >= 40
    assert "alice" not in p1.lower()


def test_friend_key_roundtrip_and_tamper():
    key = identity.generate_friend_key(random.Random(3))
    blob = identity.friend_key_encrypt(key, b"mirror-list")
    assert identity.friend_key_decrypt(key, blob) == b"mirror-list"
    bad = bytearray(blob)
    bad[-1] ^= 1
    with pytest.raises(IntegrityError):
        identity.friend_key_decrypt(key, bytes(bad))


def test_certificate_file_roundtrip(tmp_path, ca):
    _, cert = make_user(ca, "heidi")
    path = str(tmp_path / "heidi.cert")
    identity.save_certificate(cert, path)
    assert identity.load_certificate(path) == cert


def test_keypair_file_roundtrip(tmp_path):
    pair = identity.generate_keypair("ec-p256")
    path = str(tmp_path / "key.bin")
    identity.save_keypair(pair, path)
    assert identity.load_keypair(path) == pair


# -- the verification and key caches -------------------------------------------


@pytest.fixture(scope="module")
def signed(ca):
    pair, cert = make_user(ca, "cache-user")
    payload = b"10.0.0.1|7000|udp|relay:9|phrase"
    return pair, cert, payload, identity.sign_record(payload, pair.private_key)


def _flip(value, pos: int, xor: int):
    """value with one byte XOR-ed; a str stays ASCII (xor < 128)."""
    raw = bytearray(value.encode("ascii") if isinstance(value, str) else value)
    raw[pos % len(raw)] ^= xor
    return raw.decode("ascii") if isinstance(value, str) else bytes(raw)


def _accepted(check, *args) -> bool:
    try:
        return check(*args)
    except MalformedRequest:  # an unsupported algorithm
        return False


def _uncached_certificate(cert, ca_pub, ca_algorithm) -> bool:
    if not cert.username or len(cert.username.encode("utf-8")) > identity.MAX_USERNAME_BYTES:
        return False
    return identity._algo(ca_algorithm).verify(ca_pub, cert.signed_bytes(), cert.signature)


def _uncached_record(payload, sd, pub, algorithm_id) -> bool:
    if identity.sha256(payload) != sd.digest:
        return False
    return identity._algo(algorithm_id).verify(pub, sd.digest, sd.signature)


CERT_MUTATIONS = ("username", "public_key", "issuer", "algorithm_id", "signature", "ca_key", "ca_algorithm")
RECORD_MUTATIONS = ("payload", "digest", "signature", "public_key", "algorithm_id")


@settings(deadline=None, max_examples=150)
@given(
    target=st.sampled_from([("cert", m) for m in CERT_MUTATIONS] + [("record", m) for m in RECORD_MUTATIONS]),
    pos=st.integers(min_value=0, max_value=255),
    xor=st.integers(min_value=1, max_value=127),
)
def test_cached_verification_agrees_with_uncached(ca, signed, target, pos, xor):
    # Each check runs first on the valid input, so the mutation meets a
    # cached entry; every input of the signature check is in the cache key.
    pair, cert, payload, sd = signed
    assert identity.verify_certificate(cert, ca.public_key, ca.algorithm_id)
    assert identity.verify_record(payload, sd, pair.public_key, pair.algorithm_id)
    kind, field = target
    if kind == "cert":
        ca_pub, ca_algorithm = ca.public_key, ca.algorithm_id
        if field == "ca_key":
            ca_pub = _flip(ca_pub, pos, xor)
        elif field == "ca_algorithm":
            ca_algorithm = _flip(ca_algorithm, pos, xor)
        else:
            cert = replace(cert, **{field: _flip(getattr(cert, field), pos, xor)})
        got = identity.verify_certificate(cert, ca_pub, ca_algorithm)
        want = _accepted(_uncached_certificate, cert, ca_pub, ca_algorithm)
    else:
        pub, algorithm_id = pair.public_key, pair.algorithm_id
        if field == "payload":  # re-digested, as a forger would
            payload = _flip(payload, pos, xor)
            sd = replace(sd, digest=identity.sha256(payload))
        elif field in ("digest", "signature"):
            sd = replace(sd, **{field: _flip(getattr(sd, field), pos, xor)})
        elif field == "public_key":
            pub = _flip(pub, pos, xor)
        else:
            algorithm_id = _flip(algorithm_id, pos, xor)
        got = _accepted(identity.verify_record, payload, sd, pub, algorithm_id)
        want = _accepted(_uncached_record, payload, sd, pub, algorithm_id)
    assert got is want is False


def test_caches_stay_within_their_bounds():
    pair = identity.generate_keypair("ec-p256")
    for i in range(identity.VERIFIED_CACHED + 16):
        data = b"flood %d" % i
        assert identity.verify_record(data, identity.sign_record(data, pair.private_key), pair.public_key)
    for _ in range(identity.KEYS_CACHED + 16):
        other = identity.generate_keypair("ec-p256")
        sd = identity.sign_record(b"flood", other.private_key)
        assert identity.verify_record(b"flood", sd, other.public_key)
    assert len(identity._VERIFIED) == identity.VERIFIED_CACHED
    assert identity._EcAlgo._load_priv.cache_info().currsize == identity.KEYS_CACHED
    assert identity._EcAlgo._load_pub.cache_info().currsize == identity.KEYS_CACHED
    for load in (identity._RsaAlgo._load_priv, identity._RsaAlgo._load_pub):
        assert load.cache_info().maxsize == identity.KEYS_CACHED


def test_verified_signatures_bounded_under_threads():
    table = identity._VerifiedSignatures(8)
    pair = identity.generate_keypair("ec-p256")
    signed = [(b"t%d" % i, identity.sign(pair.private_key, b"t%d" % i)) for i in range(64)]
    results = []

    def work(part):
        results.extend(table.verify(pair.public_key, data, sig, pair.algorithm_id) for data, sig in part * 3)

    threads = [threading.Thread(target=work, args=(signed[k::4],)) for k in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert len(results) == 64 * 3 and all(results)
    assert len(table) == table.maxsize


def test_warm_friend_operations_do_no_repeated_public_key_work(monkeypatch):
    # After one pull the certificates, the stored record and every long-lived
    # key are known, and the channel to the friend and the session to the
    # server are kept: a pull, a write or a locate verifies nothing new and
    # derives no key.
    world = Scenario(SimConfig(seed=21, duration_ms=5000, n_rendezvous=1, n_relays=1, n_peers=2,
                               friendships=[["user00", "user01"]]))
    reader = world.peers["user01"]
    reader.pull_friend_profile("user00")
    counts = {"verify": 0, "derive": 0}
    real_verify, real_derive = identity._EcAlgo.verify, ec.derive_private_key

    def counting_verify(self, *args):
        counts["verify"] += 1
        return real_verify(self, *args)

    def counting_derive(*args):
        counts["derive"] += 1
        return real_derive(*args)

    monkeypatch.setattr(identity._EcAlgo, "verify", counting_verify)
    monkeypatch.setattr(ec, "derive_private_key", counting_derive)
    operations = [
        ("pull", lambda: reader.pull_friend_profile("user00"), {"verify": 0, "derive": 0}),
        ("write", lambda: reader.write_to_friend("user00", "share_board", op_add("c1", b"hi")),
         {"verify": 0, "derive": 0}),
        ("locate", lambda: reader.locate_friend("user00"), {"verify": 0, "derive": 0}),
    ]
    for name, operation, expected in operations:
        counts.update(verify=0, derive=0)
        operation()
        assert counts == expected, name
