from dataclasses import replace

import pytest

from friendmesh import identity, secure, wire
from friendmesh.channel import DirectChannel, FuncService, SessionContext
from friendmesh.config import RendezvousConfig
from friendmesh.errors import AuthError, HandshakeError, IntegrityError, MalformedRequest, NotFound
from friendmesh.rendezvous import RendezvousServer
from friendmesh.records import record_tag
from friendmesh.secure import ResponderSession, connect_secure, seal_key_reply
from friendmesh.wire import Frame


@pytest.fixture(scope="module")
def ca():
    return identity.CAState("hs-ca", identity.generate_keypair("ec-p256"))


def user(ca, name):
    pair = identity.generate_keypair("ec-p256")
    return pair, ca.issue(name, pair.public_key)


def certificate_tag(cert):
    """The tag a friend's hello names a certificate by."""
    return record_tag(cert.encode())[0]


class ResponderService:
    def __init__(self, ca, cert, pair, admission=lambda u: True, captured=None, holds=()):
        self.args = (cert, pair, ca.public_key)
        self.admission = admission
        self.captured = captured
        self.holds = list(holds)  # the certificates it holds, as a peer holds its friends'
        self.sessions = []

    def held(self, tag):
        return next((cert for cert in self.holds if certificate_tag(cert) == tag), None)

    def open_session(self, ctx):
        session = ResponderSession(
            *self.args, self.admission,
            lambda body, u: wire.pack_fields(*secure.unpack_app(body)[1]),
            held=self.held,
        )
        self.sessions.append(session)
        if self.captured is None:
            return session
        outer = self

        class _Cap:
            def handle(self, frame, c):
                outer.captured += frame.encode()
                reply = session.handle(frame, c)
                if reply is not None:
                    outer.captured += reply.encode()
                return reply

            def closed(self, c):
                pass

        return _Cap()


def test_nominal_handshake_identical_session_keys(ca):
    ipair, icert = user(ca, "hs-init")
    rpair, rcert = user(ca, "hs-resp")
    service = ResponderService(ca, rcert, rpair)
    channel = DirectChannel(service)
    sc = connect_secure(channel, icert, ipair, ca.public_key)
    assert sc.peer_cert.username == "hs-resp"
    # Both sides hold the byte-identical session key.
    responder = service.sessions[0]
    assert responder._cipher is not None
    assert sc.request_app("m", b"payload") == [b"payload"]


def test_responder_bad_certificate_auth_error(ca):
    ipair, icert = user(ca, "hs-init2")
    rogue_ca = identity.CAState("rogue", identity.generate_keypair("ec-p256"))
    rpair = identity.generate_keypair("ec-p256")
    fake_cert = rogue_ca.issue("hs-fake", rpair.public_key)
    service = ResponderService(ca, fake_cert, rpair)
    channel = DirectChannel(service)
    with pytest.raises(AuthError):
        connect_secure(channel, icert, ipair, ca.public_key)


def test_initiator_rejected_by_admission_gate(ca):
    ipair, icert = user(ca, "hs-unwanted")
    rpair, rcert = user(ca, "hs-picky")
    service = ResponderService(ca, rcert, rpair, admission=lambda u: u == "somebody-else")
    channel = DirectChannel(service)
    with pytest.raises(AuthError):
        connect_secure(channel, icert, ipair, ca.public_key)


def test_expected_username_mismatch(ca):
    ipair, icert = user(ca, "hs-init3")
    rpair, rcert = user(ca, "hs-actual")
    service = ResponderService(ca, rcert, rpair)
    channel = DirectChannel(service)
    with pytest.raises(AuthError):
        connect_secure(
            channel, icert, ipair, ca.public_key,
            expected_username="hs-expected",
        )


def test_no_half_open_channels(ca):
    # Agreement: a hello that does not parse (here, one without its nonce)
    # leaves the responder with no cipher, so it refuses app traffic instead
    # of guessing at one.
    ipair, icert = user(ca, "hs-init4")
    rpair, rcert = user(ca, "hs-resp4")
    session = ResponderSession(
        rcert, rpair, ca.public_key, lambda u: True,
        lambda body, u: body,
    )
    ctx = SessionContext(remote_addr="x")
    reply = session.handle(Frame(wire.REGISTER_PEER, wire.pack_fields(icert.encode())), ctx)
    with pytest.raises(MalformedRequest):
        wire.open_reply(reply)
    assert session._cipher is None
    reply = session.handle(Frame(wire.APP_DATA, b"\x00" * 32), ctx)
    with pytest.raises(HandshakeError):
        wire.open_reply(reply)


def test_friend_handshake_refuses_a_rendezvous_style_answer(ca):
    # A responder that answers the hello as a rendezvous server does, with a
    # bare session key sealed to the initiator, presents no certificate and
    # no signature: the initiator must not take the key as a session with
    # the friend it named.
    ipair, icert = user(ca, "hs-init-rv")
    key = identity.generate_session_key()

    def answer(frame, ctx):
        sealed = seal_key_reply(icert.public_key, frame.payload, key, None, None)
        return wire.reply(wire.REGISTER_PEER, sealed)

    with pytest.raises(HandshakeError):
        connect_secure(
            DirectChannel(FuncService(answer)), icert, ipair, ca.public_key,
            expected_username="hs-friend",
        )


def test_rendezvous_session_has_no_peer_certificate(ca):
    ipair, icert = user(ca, "hs-init-rv2")
    server = RendezvousServer("10.0.0.1:7200", RendezvousConfig(), ca.public_key)
    session = connect_secure(DirectChannel(server), icert, ipair, ca.public_key)
    assert session.peer_cert is None
    assert session.established


def test_session_key_for_another_cipher_gets_a_coded_reply(ca):
    # Signed by a certified responder, so only the cipher tag refuses it:
    # the initiator takes no key it could not use.
    ipair, icert = user(ca, "hs-cipher-init")
    rpair, rcert = user(ca, "hs-cipher-resp")
    odd = identity.SessionKey(b"k" * 16, "aes-128-ocb")

    def answer(frame, ctx):
        sealed = seal_key_reply(icert.public_key, frame.payload, odd, rcert, rpair)
        return wire.reply(wire.REGISTER_PEER, sealed)

    with pytest.raises(HandshakeError):
        connect_secure(DirectChannel(FuncService(answer)), icert, ipair, ca.public_key)


def test_admission_checked_on_every_app_frame(ca):
    # A kept channel outlives the handshake: once its sender is no longer
    # admitted, the next app frame is refused, and the channel stays in step.
    ipair, icert = user(ca, "hs-kept")
    rpair, rcert = user(ca, "hs-gate")
    admitted = {"hs-kept"}
    service = ResponderService(ca, rcert, rpair, admission=lambda u: u in admitted)
    sc = connect_secure(DirectChannel(service), icert, ipair, ca.public_key)
    assert sc.request_app("m", b"one") == [b"one"]
    admitted.clear()
    with pytest.raises(AuthError):
        sc.request_app("m", b"two")
    assert sc.established
    admitted.add("hs-kept")
    assert sc.request_app("m", b"three") == [b"three"]


def test_channel_out_of_step_is_not_established(ca):
    ipair, icert = user(ca, "hs-step")
    rpair, rcert = user(ca, "hs-step-resp")
    service = ResponderService(ca, rcert, rpair)
    sc = connect_secure(DirectChannel(service), icert, ipair, ca.public_key)
    service.sessions[0]._cipher = None  # the responder lost the session
    with pytest.raises(IntegrityError):  # its plain refusal does not decrypt
        sc.request_app("m", b"x")
    assert not sc.established
    with pytest.raises(HandshakeError):
        sc.request_app("m", b"y")


def test_established_channel_is_not_rekeyed(ca):
    ipair, icert = user(ca, "hs-rekey")
    rpair, rcert = user(ca, "hs-rekey-resp")
    channel = DirectChannel(ResponderService(ca, rcert, rpair))
    sc = connect_secure(channel, icert, ipair, ca.public_key)
    with pytest.raises(HandshakeError):
        connect_secure(channel, icert, ipair, ca.public_key)
    assert sc.request_app("m", b"still in step") == [b"still in step"]


def test_transcript_hides_responder_certificate(ca):
    # After message 1, a passive observer must not see the responder's
    # certificate bytes (nor its username) anywhere in the transcript.
    ipair, icert = user(ca, "hs-init5")
    rpair, rcert = user(ca, "hs-hidden-responder")
    captured = bytearray()
    service = ResponderService(ca, rcert, rpair, captured=captured)
    channel = DirectChannel(service)
    sc = connect_secure(channel, icert, ipair, ca.public_key)
    sc.request_app("m", b"x")
    transcript = bytes(captured)
    assert rcert.encode() not in transcript
    assert b"hs-hidden-responder" not in transcript
    # The initiator's certificate is the one thing sent in the clear.
    assert icert.encode() in transcript


class Recorder:
    """A channel that records every request it carries and its reply."""

    def __init__(self, inner):
        self.inner = inner
        self.remote_addr = inner.remote_addr
        self.frames = []  # (request, reply)

    def request(self, frame):
        reply = self.inner.request(frame)
        self.frames.append((frame, reply))
        return reply

    def close(self):
        self.inner.close()


def test_friend_handshake_is_one_round_trip(ca):
    ipair, icert = user(ca, "hs-tap")
    rpair, rcert = user(ca, "hs-tap-resp")
    tap = Recorder(DirectChannel(ResponderService(ca, rcert, rpair)))
    sc = connect_secure(tap, icert, ipair, ca.public_key, expected_username="hs-tap-resp")
    assert sc.request_app("op", b"x") == [b"x"]
    codes = [code for request, reply in tap.frames for code in (request.msg_type, reply.msg_type)]
    assert codes == [wire.REGISTER_PEER, wire.SESSION_KEY, wire.APP_DATA, wire.APP_DATA]


def test_replayed_friend_session_runs_its_request_once(ca):
    # A passive observer records a friend session (hello, key, one op) and
    # replays its requests to the responder: the hello gets a fresh key, so
    # the recorded app frame does not decrypt and nothing runs again.
    ipair, icert = user(ca, "hs-replay-init")
    rpair, rcert = user(ca, "hs-replay-resp")
    served = []

    class Counting:
        def open_session(self, ctx):
            return ResponderSession(
                rcert, rpair, ca.public_key, lambda u: True,
                lambda body, u: served.append(body) or b"",
            )

    tap = Recorder(DirectChannel(Counting()))
    sc = connect_secure(tap, icert, ipair, ca.public_key)
    sc.request_app("op", b"owner", b"path", b"operation")
    assert len(served) == 1
    replay = DirectChannel(Counting())
    for request, _ in tap.frames:
        replay.request(request)
    assert len(served) == 1


def test_replayed_responder_reply_fails_the_nonce_bound_signature(ca):
    # An active forger answers a new hello with a recorded answer (every
    # recorded reply, in order): the signature covers the old nonce.
    ipair, icert = user(ca, "hs-replay2-init")
    rpair, rcert = user(ca, "hs-replay2-resp")
    tap = Recorder(DirectChannel(ResponderService(ca, rcert, rpair)))
    connect_secure(tap, icert, ipair, ca.public_key, expected_username="hs-replay2-resp")
    replies = iter([reply for _, reply in tap.frames])
    forger = DirectChannel(FuncService(lambda frame, ctx: next(replies)))
    with pytest.raises(HandshakeError):
        connect_secure(forger, icert, ipair, ca.public_key, expected_username="hs-replay2-resp")


# -- friends that hold each other's certificates ---------------------------------------


def open_reply_blob(reply, pair):
    """The key reply inside a hello's answer: session key, certificate, signature."""
    (sealed,) = wire.open_reply(reply, wire.REGISTER_PEER)
    return secure._KEY_REPLY.unpack(identity.open_sealed(pair.private_key, sealed))


def reissued(ca, cert):
    """Another CA-signed certificate for cert's user, under a new key. The
    CA issues one per user; this stands for one whose state was reset."""
    pair = identity.generate_keypair("ec-p256")
    unsigned = replace(cert, public_key=pair.public_key, signature=b"")
    return pair, replace(unsigned, signature=identity.sign(ca.keypair.private_key, unsigned.signed_bytes()))


def test_a_friend_handshake_sends_no_certificate_either_way(ca):
    # The hello names the initiator's certificate by its 16-byte tag: 36
    # bytes with the nonce. The answer's certificate field is empty, and
    # its signature, over the responder's certificate, checks against the
    # one the initiator holds.
    ipair, icert = user(ca, "hs-kk-init")
    rpair, rcert = user(ca, "hs-kk-resp")
    tap = Recorder(DirectChannel(ResponderService(ca, rcert, rpair, holds=[icert])))
    sc = connect_secure(tap, icert, ipair, ca.public_key, expected_username="hs-kk-resp", held=rcert)
    assert sc.peer_cert == rcert
    assert sc.request_app("op", b"x") == [b"x"]
    (hello, answer), _ = tap.frames
    assert len(hello.payload) == 36
    assert wire.decode(wire.REGISTER_PEER, hello.payload)[0] == certificate_tag(icert)
    session_key, cert, signature = open_reply_blob(answer, ipair)
    assert cert == b"" and len(signature) == 64
    assert session_key == sc.session_key
    # 158 bytes shorter than the answer that carries the certificate.
    full = Recorder(DirectChannel(ResponderService(ca, rcert, rpair)))
    connect_secure(full, icert, ipair, ca.public_key)
    assert len(full.frames[0][1].payload) - len(answer.payload) == len(rcert.encode())


def test_no_field_of_a_friend_handshake_names_either_side_in_the_clear(ca):
    ipair, icert = user(ca, "hs-kk-quiet-init")
    rpair, rcert = user(ca, "hs-kk-quiet-resp")
    captured = bytearray()
    service = ResponderService(ca, rcert, rpair, captured=captured, holds=[icert])
    sc = connect_secure(DirectChannel(service), icert, ipair, ca.public_key, held=rcert)
    sc.request_app("m", b"x")
    transcript = bytes(captured)
    for name, cert in (("hs-kk-quiet-init", icert), ("hs-kk-quiet-resp", rcert)):
        assert name.encode() not in transcript
        assert cert.encode() not in transcript
    assert certificate_tag(rcert) not in transcript  # would name the responder
    assert certificate_tag(icert) in transcript  # the hello's one name


@pytest.mark.parametrize("case", ["not_held", "revoked", "initiator_changed"])
def test_a_tag_the_responder_does_not_hold_costs_one_hello_with_the_certificate(ca, case):
    # The responder refuses a tag it holds no certificate for with a coded
    # error, before it seals anything; the initiator sends its certificate
    # once, on the same channel, and admission decides as for any hello.
    ipair, icert = user(ca, f"hs-kk-{case}")
    rpair, rcert = user(ca, f"hs-kk-{case}-resp")
    holds, admitted = {
        "not_held": ([], True),  # a friend that never learned the certificate
        "revoked": ([], False),  # the friend revoked the initiator
        "initiator_changed": ([icert], True),  # holds the initiator's old certificate
    }[case]
    if case == "initiator_changed":
        ipair, icert = reissued(ca, icert)
    service = ResponderService(ca, rcert, rpair, admission=lambda u: admitted, holds=holds)
    tap = Recorder(DirectChannel(service))
    if admitted:
        sc = connect_secure(tap, icert, ipair, ca.public_key, expected_username=rcert.username, held=rcert)
        assert sc.request_app("m", b"x") == [b"x"]
    else:
        with pytest.raises(AuthError):
            connect_secure(tap, icert, ipair, ca.public_key, held=rcert)
    (tag_hello, refusal), (hello, answer) = tap.frames[:2]
    assert len(tap.frames) == (3 if admitted else 2)
    assert len(service.sessions) == 1  # one connection
    assert refusal.msg_type == wire.SESSION_KEY
    with pytest.raises(NotFound):
        wire.open_reply(refusal)
    assert wire.decode(wire.REGISTER_PEER, tag_hello.payload)[0] == certificate_tag(icert)
    assert wire.decode(wire.REGISTER_PEER, hello.payload)[0] == icert.encode()


def test_a_friend_whose_certificate_changed_fails_the_held_signature(ca):
    # The responder's answer to a tag hello is signed under its new key and
    # covers its new certificate: the initiator, checking it against the
    # old one it holds, refuses the session as any bad signature, after one
    # hello on one connection.
    ipair, icert = user(ca, "hs-kk-stale")
    _, old_rcert = user(ca, "hs-kk-moved")
    rpair, rcert = reissued(ca, old_rcert)
    service = ResponderService(ca, rcert, rpair, holds=[icert])
    tap = Recorder(DirectChannel(service))
    with pytest.raises(HandshakeError, match="signature"):
        connect_secure(tap, icert, ipair, ca.public_key, expected_username="hs-kk-moved", held=old_rcert)
    assert len(service.sessions) == 1 and len(tap.frames) == 1


def test_only_the_named_friends_key_opens_the_answer_to_a_tag_hello(ca):
    # Anyone may send the tag of a friend's certificate, which servers hand
    # out; the answer is sealed to that certificate's key.
    ipair, icert = user(ca, "hs-kk-named")
    rpair, rcert = user(ca, "hs-kk-named-resp")
    mallory = identity.generate_keypair("ec-p256")
    service = ResponderService(ca, rcert, rpair, holds=[icert])
    with pytest.raises(HandshakeError):
        connect_secure(DirectChannel(service), icert, mallory, ca.public_key, held=rcert)


def test_a_replayed_tag_hello_opens_a_new_session_its_app_frames_do_not_decrypt_in(ca):
    ipair, icert = user(ca, "hs-kk-replay-init")
    rpair, rcert = user(ca, "hs-kk-replay-resp")
    served = []

    class Counting:
        def open_session(self, ctx):
            return ResponderSession(
                rcert, rpair, ca.public_key, lambda u: True,
                lambda body, u: served.append(body) or b"",
                held=lambda tag: icert if tag == certificate_tag(icert) else None,
            )

    tap = Recorder(DirectChannel(Counting()))
    sc = connect_secure(tap, icert, ipair, ca.public_key, held=rcert)
    sc.request_app("op", b"owner", b"path", b"operation")
    assert len(served) == 1
    (hello, answer), (app, _) = tap.frames
    replay = DirectChannel(Counting())
    fresh = replay.request(hello)
    assert open_reply_blob(fresh, ipair)[0] != open_reply_blob(answer, ipair)[0]
    with pytest.raises(IntegrityError):
        wire.open_reply(replay.request(app))
    assert len(served) == 1
