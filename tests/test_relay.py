import dataclasses
import random

import pytest

from friendmesh import identity, relay, secure, wire
from friendmesh.channel import DirectChannel
from friendmesh.config import RelayConfig
from friendmesh.errors import AuthError, IntegrityError, NotFound, PeerUnreachable
from friendmesh.relay import MuxService, RelayServer, admit_as_server, send_keepalive
from friendmesh.wire import Frame


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
    return identity.CAState("relayca", pair)


def make_user(ca, name):
    pair = identity.generate_keypair("ec-p256")
    cert = ca.issue(name, pair.public_key)
    return pair, cert


@pytest.fixture()
def clock():
    return Clock()


@pytest.fixture()
def server(ca, clock):
    return RelayServer(
        addr="10.0.3.1:7300",
        config=RelayConfig(max_connections=2, ping_interval_ms=1000),
        ca_public_key=ca.public_key,
        rng=random.Random(4),
        clock=clock,
    )


class TapMux:
    """Wraps the mux service recording every byte the relay leg carries."""

    def __init__(self, inner):
        self.inner = inner
        self.seen = bytearray()
        self.codes = []

    def open_session(self, ctx):
        outer = self

        class _Tap:
            def __init__(self, session):
                self.session = session

            def handle(self, frame, ctx_):
                outer.codes.append(frame.msg_type)
                outer.seen += frame.payload
                reply = self.session.handle(frame, ctx_)
                if reply is not None:
                    outer.seen += reply.payload
                return reply

            def closed(self, ctx_):
                pass

        return _Tap(self.inner.open_session(ctx))


def make_responder_service(ca, cert, pair, app_handler=None):
    handler = app_handler or (lambda body, peer: wire.pack_fields(body))

    class _Service:
        def open_session(self, ctx):
            return secure.ResponderSession(
                cert, pair, ca.public_key, lambda u: True, handler
            )

    return _Service()


def admit(server, ca, name, mux=None, user=None):
    pair, cert = user or make_user(ca, name)
    mux = mux or MuxService(make_responder_service(ca, cert, pair))
    channel = DirectChannel(server, remote_addr=server.addr, local_addr=f"10.0.7.{name[-1]}:6000")
    interval, token = admit_as_server(channel, cert, pair, ca.public_key, mux)
    return pair, cert, token, interval


class Recorder:
    """A channel that records every request it carries and its reply."""

    def __init__(self, inner):
        self.inner = inner
        self.frames = []  # (request, reply)

    def request(self, frame):
        reply = self.inner.request(frame)
        self.frames.append((frame, reply))
        return reply

    def attach_reverse(self, service):
        self.inner.attach_reverse(service)


def test_admit_valid_peer(server, ca):
    _, _, token, interval = admit(server, ca, "srv-a1")
    assert interval == 1000
    assert server.load == 1
    assert token


def test_replayed_challenge_reply_rejected(server, ca):
    # The challenge is the session key sealed to the peer, and admit,
    # encrypted under it, the reply. A replayed hello gets a fresh key, so
    # the replayed admit does not decrypt and admits no one.
    pair, cert = make_user(ca, "srv-replay")
    mux = MuxService(make_responder_service(ca, cert, pair))
    tap = Recorder(DirectChannel(server, remote_addr=server.addr, local_addr="10.0.7.8:6000"))
    admit_as_server(tap, cert, pair, ca.public_key, mux)
    (hello, key_reply), (admit_request, _) = tap.frames
    replay = DirectChannel(server, remote_addr=server.addr, local_addr="10.0.7.9:6000")
    replay.attach_reverse(mux)
    fresh = replay.request(hello)
    assert fresh.msg_type == wire.SESSION_KEY and fresh.payload != key_reply.payload
    with pytest.raises(IntegrityError):
        wire.open_reply(replay.request(admit_request))
    assert server.admitted == 1 and list(server.sessions) == ["srv-replay"]


@pytest.mark.parametrize("forgery", ["other_ca", "renamed"])
def test_uncertified_or_forged_certificate_refused(server, ca, forgery):
    if forgery == "other_ca":
        pair = identity.generate_keypair("ec-p256")
        cert = identity.CAState("otherca", identity.generate_keypair("ec-p256")).issue("srv-x1", pair.public_key)
    else:
        pair, issued = make_user(ca, "srv-x2")
        cert = dataclasses.replace(issued, username="srv-x9")  # the CA signed another name
    channel = DirectChannel(server, remote_addr=server.addr, local_addr="10.0.7.7:6000")
    with pytest.raises(AuthError):
        admit_as_server(channel, cert, pair, ca.public_key, MuxService(make_responder_service(ca, cert, pair)))
    assert server.sessions == {} and server.admitted == 0


def test_capacity_reached_rejected(server, ca):
    admit(server, ca, "cap-a1")
    admit(server, ca, "cap-b2")
    # The hello is refused: the relay seals no key for a newcomer it cannot take.
    pair, cert = make_user(ca, "cap-c3")
    channel = DirectChannel(server, remote_addr=server.addr, local_addr="10.0.7.5:6000")
    with pytest.raises(AuthError):
        secure.connect_secure(channel, cert, pair, ca.public_key)
    assert sorted(server.sessions) == ["cap-a1", "cap-b2"] and server.admitted == 2


def test_full_relay_readmits_a_peer_it_holds(server, ca):
    first = make_user(ca, "full-a1")
    admit(server, ca, "full-a1", user=first)
    admit(server, ca, "full-b2")
    old_token = server.sessions["full-a1"].token
    # A re-admission replaces the peer's own session, so it fits a full relay.
    _, _, token, _ = admit(server, ca, "full-a1", user=first)
    assert token != old_token
    assert server.load == 2
    with pytest.raises(AuthError):
        admit(server, ca, "full-c3")
    assert sorted(server.sessions) == ["full-a1", "full-b2"]


def test_capacity_checked_again_at_the_challenge_reply(server, ca):
    # The relay filled up between a newcomer's handshake and its admit.
    pair, cert = make_user(ca, "late-c3")
    channel = DirectChannel(server, remote_addr=server.addr, local_addr="10.0.7.6:6000")
    session = secure.connect_secure(channel, cert, pair, ca.public_key)
    admit(server, ca, "late-a1")
    admit(server, ca, "late-b2")
    channel.attach_reverse(MuxService(make_responder_service(ca, cert, pair)))
    with pytest.raises(AuthError):
        session.call("admit")
    assert sorted(server.sessions) == ["late-a1", "late-b2"]


def test_keepalive_keeps_session_alive(server, ca, clock):
    _, _, token, interval = admit(server, ca, "ka-a1")
    for _ in range(10):
        clock.advance(interval)
        channel = DirectChannel(server, remote_addr=server.addr, local_addr="10.0.7.2:6001")
        send_keepalive(channel, token)
        server.tick()
    assert server.load == 1


def test_silence_evicts_and_no_resurrection(server, ca, clock):
    _, _, token, interval = admit(server, ca, "ka-b2")
    clock.advance(interval * 3 + 1)
    server.tick()
    assert server.load == 0
    assert server.evicted == 1
    # A keepalive after eviction is refused, and revives nothing.
    channel = DirectChannel(server, remote_addr=server.addr, local_addr="10.0.7.2:6002")
    with pytest.raises(NotFound):
        send_keepalive(channel, token)
    server.tick()
    assert server.load == 0


def test_liveness_accounting(server, ca, clock):
    _, _, _, interval = admit(server, ca, "acct-1")
    admit(server, ca, "acct-2")
    clock.advance(interval * 3 + 1)
    server.tick()
    assert len(server.sessions) == server.admitted - server.evicted - server.closed


class ClosedCount:
    """A reverse service whose sessions answer nothing and count closes."""

    def __init__(self):
        self.closes = 0

    def open_session(self, ctx):
        return self

    def handle(self, frame, ctx):
        return None

    def close(self):
        self.closes += 1


def test_readmission_retires_the_old_token_and_closes_the_old_session(server, ca, clock):
    pair, cert = make_user(ca, "readmit-1")
    first, second = ClosedCount(), ClosedCount()
    old_channel = DirectChannel(server, remote_addr=server.addr, local_addr="10.0.7.3:6000")
    interval, old_token = admit_as_server(old_channel, cert, pair, ca.public_key, first)
    new_channel = DirectChannel(server, remote_addr=server.addr, local_addr="10.0.7.3:6001")
    admit_as_server(new_channel, cert, pair, ca.public_key, second)
    assert (first.closes, second.closes) == (1, 0)
    assert len(server.sessions) == server.admitted - server.evicted - server.closed == 1
    # The old token refreshes nothing: the new session, silent since its
    # admission, is evicted on time, and its connection closed.
    clock.advance(interval * 2)
    with pytest.raises(NotFound):
        send_keepalive(DirectChannel(server, remote_addr=server.addr, local_addr="10.0.7.3:6002"), old_token)
    clock.advance(interval + 1)
    server.tick()
    assert server.load == 0
    assert second.closes == 1


def test_bridge_handshake_and_opacity(server, ca):
    # The two peers handshake through the relay; both ends derive one key,
    # the relay leg carries no plaintext payload and no session key bytes.
    spair, scert = make_user(ca, "brg-srv")
    received = []

    def app(body, peer):
        kind, fields = secure.unpack_app(body)
        received.append((kind, fields[0]))
        return wire.pack_fields(b"got:" + fields[0])

    tap = TapMux(MuxService(make_responder_service(ca, scert, spair, app)))
    channel = DirectChannel(server, remote_addr=server.addr, local_addr="10.0.7.3:6000")
    admit_as_server(channel, scert, spair, ca.public_key, tap)

    cpair, ccert = make_user(ca, "brg-cli")
    client_ch = DirectChannel(server, remote_addr=server.addr, local_addr="10.0.8.1:5000")
    wire.open_reply(client_ch.request(Frame(wire.BRIDGE_OPEN, wire.pack_fields(b"brg-srv"))))
    sc = secure.connect_secure(
        client_ch, ccert, cpair, ca.public_key, expected_username="brg-srv"
    )
    marker = b"TOP-SECRET-PAYLOAD-MARKER"
    (reply,) = sc.request_app("post", marker)
    assert reply == b"got:" + marker
    assert received == [("post", marker)]

    seen = bytes(tap.seen)
    assert marker not in seen
    assert sc.session_key.key not in seen


def test_bridged_handshake_reaches_the_relayed_peer_not_the_relay(server, ca):
    # The bridge is checked before the relay's own admission session: a
    # bridged client's hello and app frames go to the relayed peer verbatim.
    spair, scert = make_user(ca, "fwd-srv")
    tap = TapMux(MuxService(make_responder_service(ca, scert, spair)))
    admit_as_server(DirectChannel(server, local_addr="10.0.7.3:6000"), scert, spair, ca.public_key, tap)
    cpair, ccert = make_user(ca, "fwd-cli")
    bridge = DirectChannel(server, remote_addr=server.addr, local_addr="10.0.8.6:5000")
    wire.call(bridge, wire.BRIDGE_OPEN, "fwd-srv")
    sc = secure.connect_secure(bridge, ccert, cpair, ca.public_key, expected_username="fwd-srv")
    assert sc.request_app("post", b"x") == [secure.pack_app("post", b"x")]  # echoed
    assert tap.codes == [wire.REGISTER_PEER, wire.APP_DATA]
    assert bridge._session._secure._cipher is None  # the relay keyed no session here


def test_bridge_to_unknown_or_evicted_session(server, ca, clock):
    client_ch = DirectChannel(server, remote_addr=server.addr, local_addr="10.0.8.2:5000")
    with pytest.raises(PeerUnreachable):
        wire.open_reply(client_ch.request(Frame(wire.BRIDGE_OPEN, wire.pack_fields(b"ghost"))))

    _, _, _, interval = admit(server, ca, "evict-9")
    clock.advance(interval * 3 + 1)
    server.tick()
    late = DirectChannel(server, remote_addr=server.addr, local_addr="10.0.8.3:5000")
    with pytest.raises(PeerUnreachable):
        wire.open_reply(late.request(Frame(wire.BRIDGE_OPEN, wire.pack_fields(b"evict-9"))))


def test_bridge_transparency_matches_direct(server, ca):
    # Identical application transcript whether direct or relayed.
    spair, scert = make_user(ca, "tr-srv")
    transcripts = {"direct": [], "relay": []}

    def make_app(label):
        def app(body, peer):
            kind, fields = secure.unpack_app(body)
            transcripts[label].append((kind, tuple(fields)))
            return wire.pack_fields(fields[0] if fields else b"")

        return app

    cpair, ccert = make_user(ca, "tr-cli")

    direct_ch = DirectChannel(
        make_responder_service(ca, scert, spair, make_app("direct")),
        remote_addr="10.0.9.9:7500",
        local_addr="10.0.8.4:5000",
    )
    direct = secure.connect_secure(direct_ch, ccert, cpair, ca.public_key)

    mux = MuxService(make_responder_service(ca, scert, spair, make_app("relay")))
    admit_ch = DirectChannel(server, remote_addr=server.addr, local_addr="10.0.7.4:6000")
    admit_as_server(admit_ch, scert, spair, ca.public_key, mux)
    relay_ch = DirectChannel(server, remote_addr=server.addr, local_addr="10.0.8.5:5000")
    wire.open_reply(relay_ch.request(Frame(wire.BRIDGE_OPEN, wire.pack_fields(b"tr-srv"))))
    relayed = secure.connect_secure(relay_ch, ccert, cpair, ca.public_key)

    payloads = [b"one", b"", b"three" * 100]
    direct_replies = [direct.request_app("msg", p) for p in payloads]
    relay_replies = [relayed.request_app("msg", p) for p in payloads]
    assert direct_replies == relay_replies
    assert transcripts["direct"] == transcripts["relay"]
