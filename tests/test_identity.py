import random
import sys
import threading
from dataclasses import replace

import pytest
from cryptography.hazmat.primitives.asymmetric import ec
from hypothesis import given, settings, strategies as st

from friendmesh import identity, secure, wire
from friendmesh.channel import DirectChannel, FuncService
from friendmesh.errors import (
    AuthError,
    HandshakeError,
    IntegrityError,
    MalformedRequest,
    UsernameTaken,
)
from friendmesh.profile import op_add
from friendmesh.records import PeerRow, make_registration_record, verify_registration_record
from friendmesh.simnet.scenario import Scenario, SimConfig


@pytest.fixture(scope="module")
def ca():
    pair = identity.generate_keypair("ec-p256")
    return identity.CAState("testca", pair)


def make_user(ca, username):
    pair = identity.generate_keypair("ec-p256")
    cert = ca.issue(username, pair.public_key)
    return pair, cert


# -- generate_keypair --------------------------------------------------------


@pytest.mark.parametrize("algo", ["ec-p256"])
def test_seal_open_roundtrip(algo):
    pair = identity.generate_keypair(algo)
    blob = identity.seal(pair.public_key, b"x")
    assert identity.open_sealed(pair.private_key, blob) == b"x"


def test_successive_keypairs_are_distinct():
    a = identity.generate_keypair("ec-p256")
    b = identity.generate_keypair("ec-p256")
    assert a.public_key != b.public_key


def test_unsupported_algorithm_rejected():
    with pytest.raises(MalformedRequest):
        identity.generate_keypair("no-such-alg")


def test_large_payload_hybrid_seal():
    pair = identity.generate_keypair("ec-p256")
    data = bytes(range(256)) * 40  # 10 KiB under the one AEAD layer
    blob = identity.seal(pair.public_key, data)
    assert identity.open_sealed(pair.private_key, blob) == data


# -- the certificate request ---------------------------------------------------


def test_ca_issue_nominal(ca):
    pair = identity.generate_keypair("ec-p256")
    request = identity.build_cert_request("alice", pair.public_key, ca.public_key)
    reply = ca.handle_request(request)
    cert = identity.open_cert_reply(reply, pair, ca.public_key)
    assert cert.username == "alice"
    assert identity.verify_certificate(cert, ca.public_key)


def test_ca_issue_duplicate_username(ca):
    pair = identity.generate_keypair("ec-p256")
    request = identity.build_cert_request("bob", pair.public_key, ca.public_key)
    ca.handle_request(request)
    second = identity.build_cert_request("bob", pair.public_key, ca.public_key)
    with pytest.raises(UsernameTaken):
        ca.handle_request(second)


def test_ca_issue_flipped_byte_detected(ca):
    # Mutation oracle: flipping any single payload byte must be rejected,
    # tamper-detected flips as integrity errors.
    rng = random.Random(7)
    pair = identity.generate_keypair("ec-p256")
    request = identity.build_cert_request("carol", pair.public_key, ca.public_key)
    for _ in range(24):
        pos = rng.randrange(len(request))
        mutated = bytearray(request)
        mutated[pos] ^= 1 << rng.randrange(8)
        with pytest.raises((IntegrityError, MalformedRequest)):
            ca.handle_request(bytes(mutated))
    assert "carol" not in ca.usernames()


def test_ca_issue_digest_flip_is_integrity_error(ca):
    pair = identity.generate_keypair("ec-p256")
    request = identity.build_cert_request("dave", pair.public_key, ca.public_key)
    mutated = bytearray(request)
    mutated[-1] ^= 0x01  # digest is the trailing field
    with pytest.raises(IntegrityError):
        ca.handle_request(bytes(mutated))


def test_ca_refuses_unknown_algorithm_before_taking_the_username(ca):
    # A request naming an algorithm the CA cannot use does not burn the
    # username: the corrected retry gets its certificate.
    pair = identity.generate_keypair("ec-p256")
    body = identity._CERT_REQUEST_BODY.pack(("algo-retry", pair.public_key, "ec-p257"))
    bad = identity._CERT_REQUEST.pack(
        (identity.seal(ca.public_key, body), len(body), identity.sha256(body))
    )
    with pytest.raises(MalformedRequest):
        ca.handle_request(bad)
    assert "algo-retry" not in ca.usernames()
    good = identity.build_cert_request("algo-retry", pair.public_key, ca.public_key)
    cert = identity.open_cert_reply(ca.handle_request(good), pair, ca.public_key)
    assert cert.username == "algo-retry"


def test_unknown_algorithm_verifies_false(ca):
    pair, cert = make_user(ca, "algo-check")
    signature = identity.sign(pair.private_key, b"data")
    assert identity.verify(pair.public_key, b"data", signature)
    record = make_registration_record(
        username="algo-check", ip="10.0.0.9", port=7000, protocol="tcp",
        relay_address="", relay_port=0, passphrase="p" * 32, encrypted_mirror_list=b"",
        private_key=pair.private_key,
    )
    assert verify_registration_record(record, cert)
    assert PeerRow(record, cert).verified(ca.public_key)
    renamed = replace(cert, algorithm_id="ec-p257")
    assert not identity.verify_certificate(renamed, ca.public_key)
    assert not PeerRow(record, renamed).verified(ca.public_key)


def test_certificate_for_another_algorithm_does_not_verify(ca):
    # Signed by the CA over every field, so only the tag refuses it.
    pair = identity.generate_keypair("ec-p256")
    unsigned = identity.Certificate("rsa-user", pair.public_key, ca.name, "rsa-2048", b"")
    cert = replace(unsigned, signature=identity.sign(ca.keypair.private_key, unsigned.signed_bytes()))
    assert identity.verify(ca.public_key, cert.signed_bytes(), cert.signature)
    assert not identity.verify_certificate(cert, ca.public_key)


def test_certificate_uniqueness_invariant():
    pair = identity.generate_keypair("ec-p256")
    fresh = identity.CAState("uniq", pair)
    for i in range(20):
        user = identity.generate_keypair("ec-p256")
        fresh.issue(f"user{i}", user.public_key)
    assert len(fresh.usernames()) == 20
    dup = identity.generate_keypair("ec-p256")
    with pytest.raises(UsernameTaken):
        fresh.issue("user3", dup.public_key)
    assert len(fresh.usernames()) == 20


def test_ca_log_survives_restart(tmp_path):
    log = str(tmp_path / "ca.log")
    pair = identity.generate_keypair("ec-p256")
    first = identity.CAState("persist", pair, log_path=log)
    user = identity.generate_keypair("ec-p256")
    first.issue("erin", user.public_key)
    reloaded = identity.CAState("persist", pair, log_path=log)
    with pytest.raises(UsernameTaken):
        reloaded.issue("erin", user.public_key)


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
    assert identity.verify_certificate(cert, ca.public_key)
    assert not identity.verify_certificate(forged, ca.public_key)


def test_certificate_wrong_ca_key(ca):
    _, cert = make_user(ca, "grace")
    other = identity.generate_keypair("ec-p256")
    assert not identity.verify_certificate(cert, other.public_key)


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


# -- the session key reply of the handshake (secure.py) -------------------------
#
# Each case answers an initiator's hello with a key reply built here, as a
# responder (or an adversary) would seal it.


def answer_with(build):
    """A channel whose responder answers a hello with build(hello) sealed."""
    def handle(frame, ctx):
        return wire.reply(wire.REGISTER_PEER, build(frame.payload))

    return DirectChannel(FuncService(handle))


def test_session_key_roundtrip(ca):
    ipair, icert = make_user(ca, "sk-init")
    rpair, rcert = make_user(ca, "sk-resp")
    sk = identity.generate_session_key()
    channel = answer_with(lambda hello: secure.seal_key_reply(icert.public_key, hello, sk, rcert, rpair))
    session = secure.connect_secure(channel, icert, ipair, ca.public_key, expected_username="sk-resp")
    assert session.session_key == sk
    assert session.peer_cert == rcert


def test_session_key_wrong_receiver_key(ca):
    ipair, icert = make_user(ca, "sk-init2")
    rpair, rcert = make_user(ca, "sk-resp2")
    wrong = identity.generate_keypair("ec-p256")
    sk = identity.generate_session_key()
    channel = answer_with(lambda hello: secure.seal_key_reply(wrong.public_key, hello, sk, rcert, rpair))
    with pytest.raises(HandshakeError):
        secure.connect_secure(channel, icert, ipair, ca.public_key)


def test_session_key_adversary_strategies_fail(ca):
    # Adversary harness: Mallory answering as herself, a truncated reply, and
    # Mallory signing under the responder's certificate must all fail at the
    # initiator, which named the responder.
    ipair, icert = make_user(ca, "sk-init3")
    rpair, rcert = make_user(ca, "sk-resp3")
    mpair, mcert = make_user(ca, "sk-mallory")
    sk = identity.generate_session_key()

    def connect(build):
        return secure.connect_secure(
            answer_with(build), icert, ipair, ca.public_key, expected_username="sk-resp3"
        )

    # Mallory's own certificate and signature: not the user named.
    with pytest.raises(AuthError):
        connect(lambda hello: secure.seal_key_reply(icert.public_key, hello, sk, mcert, mpair))

    # Truncation: AEAD fails.
    with pytest.raises(HandshakeError):
        connect(lambda hello: secure.seal_key_reply(icert.public_key, hello, sk, rcert, rpair)[:-4])

    # Resealed by Mallory, who signs while claiming to be the responder.
    with pytest.raises(HandshakeError):
        connect(lambda hello: secure.seal_key_reply(icert.public_key, hello, sk, rcert, mpair))


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


def _uncached_certificate(cert, ca_pub) -> bool:
    if not cert.username or len(cert.username.encode("utf-8")) > identity.MAX_USERNAME_BYTES:
        return False
    if cert.algorithm_id != identity.DEFAULT_ALGORITHM:
        return False
    return identity.verify(ca_pub, cert.signed_bytes(), cert.signature)


def _uncached_record(payload, sd, pub) -> bool:
    if identity.sha256(payload) != sd.digest:
        return False
    return identity.verify(pub, sd.digest, sd.signature)


CERT_MUTATIONS = ("username", "public_key", "issuer", "algorithm_id", "signature", "ca_key")
RECORD_MUTATIONS = ("payload", "digest", "signature", "public_key")


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
    assert identity.verify_certificate(cert, ca.public_key)
    assert identity.verify_record(payload, sd, pair.public_key)
    kind, field = target
    if kind == "cert":
        ca_pub = ca.public_key
        if field == "ca_key":
            ca_pub = _flip(ca_pub, pos, xor)
        else:
            cert = replace(cert, **{field: _flip(getattr(cert, field), pos, xor)})
        got = identity.verify_certificate(cert, ca_pub)
        want = _uncached_certificate(cert, ca_pub)
    else:
        pub = pair.public_key
        if field == "payload":  # re-digested, as a forger would
            payload = _flip(payload, pos, xor)
            sd = replace(sd, digest=identity.sha256(payload))
        elif field in ("digest", "signature"):
            sd = replace(sd, **{field: _flip(getattr(sd, field), pos, xor)})
        else:
            pub = _flip(pub, pos, xor)
        got = identity.verify_record(payload, sd, pub)
        want = _uncached_record(payload, sd, pub)
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
    assert identity._private_key.cache_info().currsize == identity.KEYS_CACHED
    assert identity._public_key.cache_info().currsize == identity.KEYS_CACHED


def test_verified_signatures_bounded_under_threads():
    table = identity._VerifiedSignatures(8)
    pair = identity.generate_keypair("ec-p256")
    signed = [(b"t%d" % i, identity.sign(pair.private_key, b"t%d" % i)) for i in range(64)]
    results = []

    def work(part):
        results.extend(table.verify(pair.public_key, data, sig) for data, sig in part * 3)

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
    real_verify, real_derive = identity.verify, ec.derive_private_key

    def counting_verify(*args):
        counts["verify"] += 1
        return real_verify(*args)

    def counting_derive(*args):
        counts["derive"] += 1
        return real_derive(*args)

    monkeypatch.setattr(identity, "verify", counting_verify)
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
