import pytest

from friendmesh import identity, secure, wire
from friendmesh.channel import DirectChannel, FuncService, SessionContext
from friendmesh.config import RendezvousConfig
from friendmesh.errors import AuthError, HandshakeError, IntegrityError, MalformedRequest
from friendmesh.rendezvous import RendezvousServer
from friendmesh.secure import ResponderSession, connect_secure, seal_key_reply
from friendmesh.wire import Frame


@pytest.fixture(scope="module")
def ca():
    return identity.CAState("hs-ca", identity.generate_keypair("ec-p256"))


def user(ca, name):
    pair = identity.generate_keypair("ec-p256")
    return pair, ca.issue(name, pair.public_key)


class ResponderService:
    def __init__(self, ca, cert, pair, admission=lambda u: True, captured=None):
        self.args = (cert, pair, ca.public_key)
        self.admission = admission
        self.captured = captured
        self.sessions = []

    def open_session(self, ctx):
        session = ResponderSession(
            *self.args, self.admission,
            lambda body, u: wire.pack_fields(*secure.unpack_app(body)[1]),
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
        return wire.reply(wire.REGISTER_PEER, sealed, msg_type=wire.SESSION_KEY)

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
        return wire.reply(wire.REGISTER_PEER, sealed, msg_type=wire.SESSION_KEY)

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
