"""Hostile input: every service answers any frame with a reply or silence,
keeps serving, and a client facing a hostile reply raises a ProtocolError.
"""
import itertools
import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from friendmesh import identity, rvclient, secure, wire
from friendmesh.caservice import CAService, request_certificate
from friendmesh.channel import DirectChannel, FuncService, SessionContext
from friendmesh.config import RelayConfig, RendezvousConfig
from friendmesh.errors import MalformedRequest, NotFound, PeerUnreachable, ProtocolError
from friendmesh.identity import SessionCipher
from friendmesh.records import make_registration_record
from friendmesh.relay import MuxService, RelayServer, admit_as_server
from friendmesh.rendezvous import RendezvousServer, WireRingTransport
from friendmesh.simnet.scenario import Scenario, SimConfig
from friendmesh.wire import Frame

# Request field count of every peer app kind.
APP_ARITY = {
    "ping": 0,
    "friend_accept": 3,
    "passphrase_update": 2,
    "note_bad_server": 1,
    "mirror_init": 3,
    "sync_vec": 1,
    "sync_push": 3,
    "pull": 2,
    "op": 3,
    "read": 2,
}

FUZZ = settings(
    max_examples=120, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


class Conn:
    """One client connection wired straight to a server session."""

    def __init__(self, service, remote="10.0.9.9:5000"):
        self.remote_addr = "server:0"
        self.ctx = SessionContext(remote_addr=remote, local_addr="server:0", now_ms=lambda: 0)
        self.session = service.open_session(self.ctx)

    def send(self, code, payload):
        reply = self.session.handle(Frame(code, payload), self.ctx)
        assert reply is None or isinstance(reply, Frame)
        return reply

    def request(self, frame):
        reply = self.send(frame.msg_type, frame.payload)
        if reply is None:
            raise PeerUnreachable("no reply")
        return reply

    def attach_reverse(self, service):
        self.ctx.reverse_service = service

    def close(self):
        self.session.closed(self.ctx)


@pytest.fixture(scope="module")
def ca():
    return identity.CAState("hostile-ca", identity.generate_keypair("ec-p256"))


@pytest.fixture(scope="module")
def user(ca):
    pair = identity.generate_keypair("ec-p256")
    return pair, ca.issue("hostile-user", pair.public_key, pair.algorithm_id)


def field_values(cert):
    """Plausible field contents: empty, numbers, identifiers, text, a real
    certificate, and bytes that are none of these."""
    return st.one_of(
        st.sampled_from([b"", b"0", b"1", b"7300", b"-5", b"ff", b"zz", b"x:1", b"\xff\xfe", cert.encode()]),
        st.binary(max_size=40),
    )


def payloads(cert):
    return st.one_of(
        st.binary(max_size=80),
        st.lists(field_values(cert), max_size=12).map(lambda fields: wire.pack_fields(*fields)),
    )


CODES = st.one_of(st.integers(0, 40), st.integers(0, 255))
FRESH = itertools.count()
SEALED = {wire.REGISTRATION_PAYLOAD, wire.LOCATE_PEER, wire.FRIEND_REQUEST, wire.PASSPHRASE_BLOB}


# -- (a) app kinds with one field too few or too many -----------------------------


@pytest.fixture(scope="module")
def friends():
    world = Scenario(SimConfig(seed=11, duration_ms=5000, n_rendezvous=1, n_relays=1, n_peers=3))
    return world.peers["user00"], world.peers["user01"]


@pytest.mark.parametrize("kind", sorted(APP_ARITY))
def test_app_kind_with_wrong_field_count_is_malformed(friends, kind):
    alice, _ = friends
    channel, served_by = alice.connect_friend("user01")
    assert served_by == "user01"
    counts = [APP_ARITY[kind] + 1] + ([APP_ARITY[kind] - 1] if APP_ARITY[kind] else [])
    for count in counts:
        with pytest.raises(MalformedRequest):
            channel.request_app(kind, *[b""] * count)
        assert channel.request_app("ping") == []
    channel.close()


# -- (b) any frame, before and after the handshake ----------------------------------


@pytest.fixture(scope="module")
def rendezvous(ca):
    class NoNetwork:
        def connect(self, addr):
            raise PeerUnreachable(addr)

    return RendezvousServer(
        addr="10.0.0.1:7200",
        config=RendezvousConfig(ring_enabled=True),
        ca_public_key=ca.public_key,
        ca_algorithm=ca.algorithm_id,
        endpoint=NoNetwork(),
        clock=lambda: 0,
        rng=random.Random(3),
    )


@FUZZ
@given(data=st.data(), established=st.booleans())
def test_rendezvous_serves_after_any_frame(rendezvous, user, data, established):
    pair, cert = user
    conn = Conn(rendezvous)
    client = rvclient.open_secure(conn, cert, pair) if established else None
    for code, payload in data.draw(st.lists(st.tuples(CODES, payloads(cert)), max_size=5)):
        # Session-encrypted requests: the server decrypts them, in sequence.
        sealed = client is not None and code in SEALED and data.draw(st.booleans())
        reply = conn.send(code, client._cipher.encrypt(payload) if sealed else payload)
        if sealed and reply is not None:
            outer = wire.unpack_fields(reply.payload)
            if outer[:1] == [b"enc"]:
                client._cipher.decrypt(outer[1])  # keep the reply sequence in step
    wire.open_reply(conn.request(Frame(wire.RING_STATE)))
    if client is not None:
        with pytest.raises(NotFound):
            rvclient.locate_peer(client, "no such passphrase")


@FUZZ
@given(data=st.data(), admitted=st.booleans())
def test_relay_serves_after_any_frame(ca, user, data, admitted):
    pair, cert = user
    server = RelayServer(
        addr="10.0.3.1:7300",
        config=RelayConfig(max_connections=4),
        ca_public_key=ca.public_key,
        ca_algorithm=ca.algorithm_id,
        rng=random.Random(4),
        clock=lambda: 0,
    )
    conn = Conn(server, remote="10.0.7.1:6000")
    mux = MuxService(FuncService(lambda frame, ctx: None))
    token = admit_as_server(conn, cert, pair.private_key, mux)[1] if admitted else None
    for code, payload in data.draw(st.lists(st.tuples(CODES, payloads(cert)), max_size=5)):
        conn.send(code, payload)
    if token is not None:
        wire.open_reply(conn.request(Frame(wire.SERVER_IS_ALIVE, wire.pack_fields(token))))
    else:
        fresh = Conn(server, remote="10.0.7.2:6000")
        assert admit_as_server(fresh, cert, pair.private_key, mux)[0] > 0


@FUZZ
@given(data=st.data())
def test_ca_serves_after_any_frame(ca, user, data):
    pair, cert = user
    conn = Conn(CAService(ca))
    for code, payload in data.draw(st.lists(st.tuples(CODES, payloads(cert)), max_size=5)):
        conn.send(code, payload)
    name = f"fresh-user-{next(FRESH)}"  # the CA issues each name once
    issued = request_certificate(conn, name, pair, ca.public_key, ca.algorithm_id)
    assert issued.username == name


@FUZZ
@given(data=st.data(), established=st.booleans())
def test_peer_responder_serves_after_any_frame(friends, data, established):
    alice, bob = friends
    cert, keys = alice.state.certificate, alice.state.keypair
    conn = Conn(bob)
    channel = None
    if established:
        channel = secure.connect_secure(
            conn, cert, keys, alice.ca_public_key, alice.ca_algorithm, expected_username="user01"
        )
    for code, payload in data.draw(st.lists(st.tuples(CODES, payloads(cert)), max_size=4)):
        conn.send(code, payload)
        if channel is not None:
            kind = data.draw(st.sampled_from(sorted(APP_ARITY) + ["", "err", "nope"]))
            fields = data.draw(st.lists(field_values(cert), max_size=4))
            try:
                channel.request_app(kind, *fields)
            except ProtocolError:
                pass
    if channel is not None:
        assert channel.request_app("ping") == []
    else:
        channel = secure.connect_secure(conn, cert, keys, alice.ca_public_key, alice.ca_algorithm)
        assert channel.request_app("ping") == []


# -- (c) a client facing a hostile reply ----------------------------------------------


def test_ring_query_rejects_short_reply():
    short = FuncService(lambda frame, ctx: wire.ok_reply(frame.msg_type, b"10.0.0.5:7200"))

    class Endpoint:
        def connect(self, addr):
            return DirectChannel(short)

    with pytest.raises(ProtocolError):
        WireRingTransport(Endpoint()).query("10.0.0.5:7200", 42)


def test_locate_peer_rejects_short_reply(ca, user):
    # A server that answers a located record without its certificate.
    pair, cert = user
    record = make_registration_record(
        username="hostile-user", ip="10.0.5.5", port=7500, nat_kind="public", protocol="tcp",
        relay_address="", relay_port=0, passphrase="hostile-phrase",
        encrypted_mirror_list=b"\x01", private_key=pair.private_key, algorithm_id=pair.algorithm_id,
    )
    key = identity.generate_session_key(rng=random.Random(5))
    server_cipher = SessionCipher(key, direction=1)

    def handle(frame, ctx):
        if frame.msg_type == wire.REGISTER_PEER:
            sealed = identity.seal(cert.public_key, key.encode(), cert.algorithm_id)
            return wire.ok_reply(wire.SESSION_KEY, sealed)
        server_cipher.decrypt(frame.payload)
        inner = wire.pack_fields(b"ok", record.encode())
        return Frame(wire.PEER_INFO, wire.pack_fields(b"enc", server_cipher.encrypt(inner)))

    client = rvclient.open_secure(DirectChannel(FuncService(handle)), cert, pair)
    with pytest.raises(ProtocolError):
        rvclient.locate_peer(client, "hostile-phrase")


def test_pull_rejects_two_field_reply(friends, monkeypatch):
    alice, bob = friends
    monkeypatch.setattr(bob, "_handle_app", lambda body, peer, ctx: secure.pack_app("entries", b"", b""))
    with pytest.raises(ProtocolError):
        alice.pull_friend_profile("user01")
