import pytest

from friendmesh import identity, secure, wire
from friendmesh.channel import DirectChannel, FuncService, SessionContext
from friendmesh.config import RendezvousConfig
from friendmesh.errors import AuthError, HandshakeError, IntegrityError, MalformedRequest
from friendmesh.rendezvous import RendezvousServer
from friendmesh.secure import ResponderSession, connect_rendezvous, connect_secure
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
    # Agreement: a responder that never gets the session key refuses app
    # traffic instead of guessing at one.
    ipair, icert = user(ca, "hs-init4")
    rpair, rcert = user(ca, "hs-resp4")
    session = ResponderSession(
        rcert, rpair, ca.public_key, lambda u: True,
        lambda body, u: body,
    )
    ctx = SessionContext(remote_addr="x")
    session.handle(Frame(wire.REGISTER_PEER, wire.pack_fields(icert.encode())), ctx)
    reply = session.handle(Frame(wire.APP_DATA, b"\x00" * 32), ctx)
    with pytest.raises(HandshakeError):
        wire.open_reply(reply)


def test_friend_handshake_refuses_a_rendezvous_style_answer(ca):
    # A responder that answers the hello as a rendezvous server does, with a
    # session key sealed to the initiator, presents no certificate: the
    # initiator must not take the key as a session with the friend it named.
    ipair, icert = user(ca, "hs-init-rv")
    key = identity.generate_session_key()

    def answer(frame, ctx):
        sealed = identity.seal(icert.public_key, key.encode())
        return wire.reply(wire.REGISTER_PEER, sealed, msg_type=wire.SESSION_KEY)

    with pytest.raises(HandshakeError):
        connect_secure(
            DirectChannel(FuncService(answer)), icert, ipair, ca.public_key,
            expected_username="hs-friend",
        )


def test_rendezvous_session_has_no_peer_certificate(ca):
    ipair, icert = user(ca, "hs-init-rv2")
    server = RendezvousServer("10.0.0.1:7200", RendezvousConfig(), ca.public_key)
    session = connect_rendezvous(DirectChannel(server), icert, ipair)
    assert session.peer_cert is None
    assert session.established


def test_session_key_for_another_cipher_gets_a_coded_reply(ca):
    # Signed by a certified initiator, so only the cipher tag refuses it.
    ipair, icert = user(ca, "hs-cipher-init")
    rpair, rcert = user(ca, "hs-cipher-resp")
    session = ResponderSession(rcert, rpair, ca.public_key, lambda u: True, lambda body, u: body)
    ctx = SessionContext(remote_addr="x")
    session.handle(Frame(wire.REGISTER_PEER, wire.pack_fields(icert.encode())), ctx)
    odd = identity.SessionKey(b"k" * 16, "aes-128-ocb")
    blob = identity.seal_session_key(odd, rpair.public_key, ipair.private_key)
    reply = session.handle(Frame(wire.SESSION_KEY, wire.encode(wire.SESSION_KEY, blob)), ctx)
    with pytest.raises(MalformedRequest):
        wire.open_reply(reply)
    assert session._cipher is None


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
