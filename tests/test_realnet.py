"""Honest-path suite over real loopback sockets: identical component code,
the real TCP carrier."""
import random

import pytest

from friendmesh import identity, secure, wire
from friendmesh.caservice import CAService
from friendmesh.channel import DirectChannel, FuncService
from friendmesh.config import PeerConfig, RelayConfig, RendezvousConfig
from friendmesh.netio import TcpChannel, TcpEndpoint, TcpServer
from friendmesh.peer import Peer
from friendmesh.profile import op_add
from friendmesh.relay import MuxService, RelayServer, admit_as_server
from friendmesh.rendezvous import RendezvousServer
from friendmesh.wire import Frame


def echo_service():
    return FuncService(lambda frame, ctx: Frame(frame.msg_type, frame.payload))


def test_tcp_carrier_roundtrip():
    server = TcpServer(echo_service()).start()
    try:
        channel = TcpChannel(server.addr)
        payload = bytes(range(256)) * 8
        reply = channel.request(Frame(wire.APP_DATA, payload))
        assert reply == Frame(wire.APP_DATA, payload)
        channel.close()
    finally:
        server.stop()


@pytest.fixture()
def ca_world(tmp_path):
    ca = identity.CAState("loop-ca", identity.generate_keypair("ec-p256"))
    ca_server = TcpServer(CAService(ca)).start()
    rv = RendezvousServer(
        addr="pending",
        config=RendezvousConfig(db_url=str(tmp_path / "rv.sqlite")),
        ca_public_key=ca.public_key,
    )
    rv_server = TcpServer(rv).start()
    rv.addr = rv_server.addr
    yield ca, ca_server, rv, rv_server
    ca_server.stop()
    rv_server.stop()


def make_real_peer(ca_server, rv_server, username):
    peer = Peer(
        config=PeerConfig(
            username=username,
            ca_addr=ca_server.addr,
            rendezvous_addrs=[rv_server.addr],
        ),
        endpoint=TcpEndpoint(),
        ca_public_key=ca_server.service.ca.public_key,
        rng=random.Random(username),
    )
    listener = TcpServer(peer).start()
    peer.endpoint = TcpEndpoint(local_addr=listener.addr, rng=peer.rng)
    return peer, listener


def test_full_flow_over_tcp(ca_world):
    ca, ca_server, rv, rv_server = ca_world
    alice, alice_srv = make_real_peer(ca_server, rv_server, "alice")
    bob, bob_srv = make_real_peer(ca_server, rv_server, "bob")
    try:
        alice.bootstrap()
        bob.bootstrap()
        assert alice.state.certificate.username == "alice"

        alice.send_friend_request("bob")
        bob.reregister()
        assert "alice" in bob.state.pending_incoming
        bob.accept_friend("alice")

        bob.profile.apply_update("bob", "share_board", op_add("hello", b"over tcp"), timestamp=1)
        view = alice.pull_friend_profile("bob")
        assert view.element("share_board/hello").content == b"over tcp"

        channel, served_by = alice.connect_friend("bob")
        assert served_by == "bob"
        assert channel.request_app("ping") == []
        channel.close()
    finally:
        alice_srv.stop()
        bob_srv.stop()


def test_relay_bridge_over_tcp(ca_world):
    ca, ca_server, rv, rv_server = ca_world
    relay = RelayServer(
        addr="pending",
        config=RelayConfig(max_connections=4, ping_interval_ms=60_000),
        ca_public_key=ca.public_key,
        rng=random.Random(7),
    )
    relay_srv = TcpServer(relay).start()
    relay.addr = relay_srv.addr
    try:
        srv_keys = identity.generate_keypair("ec-p256")
        srv_cert = ca.issue("relayed-srv", srv_keys.public_key)

        def app(body, peer):
            kind, fields = secure.unpack_app(body)
            return wire.pack_fields(b"saw:" + (fields[0] if fields else b""))

        class _Responder:
            def open_session(self, ctx):
                return secure.ResponderSession(
                    srv_cert, srv_keys, ca.public_key, lambda u: True, app
                )

        admit_channel = TcpChannel(relay_srv.addr)
        interval, token = admit_as_server(
            admit_channel, srv_cert, srv_keys.private_key, MuxService(_Responder())
        )
        assert token

        cli_keys = identity.generate_keypair("ec-p256")
        cli_cert = ca.issue("relayed-cli", cli_keys.public_key)
        bridge = TcpChannel(relay_srv.addr)
        wire.open_reply(bridge.request(Frame(wire.BRIDGE_OPEN, wire.pack_fields(b"relayed-srv"))))
        channel = secure.connect_secure(
            bridge, cli_cert, cli_keys, ca.public_key,
            expected_username="relayed-srv",
        )
        (reply,) = channel.request_app("post", b"through the relay")
        assert reply == b"saw:through the relay"
        channel.close()
    finally:
        relay_srv.stop()


def test_closing_a_taken_over_connection_ends_it():
    # A relayed peer that re-admits or shuts down closes its admission
    # channel; the server side then gets no more answers over it.
    taken = []

    class TakeOver:
        def open_session(self, ctx):
            return self

        def handle(self, frame, ctx):
            taken.append(ctx.reverse_service.open_session(ctx))
            return frame

    server = TcpServer(TakeOver()).start()
    try:
        channel = TcpChannel(server.addr)
        channel.attach_reverse(echo_service())
        channel.request(Frame(wire.APP_DATA, b"take over"))
        reverse = taken[0]
        assert reverse.handle(Frame(wire.APP_DATA, b"served"), None) == Frame(wire.APP_DATA, b"served")
        channel.close()
        assert reverse.handle(Frame(wire.APP_DATA, b"gone"), None) is None
    finally:
        server.stop()


def test_kept_sessions_over_tcp(ca_world, monkeypatch):
    ca, ca_server, rv, rv_server = ca_world
    alice, alice_srv = make_real_peer(ca_server, rv_server, "alice")
    bob, bob_srv = make_real_peer(ca_server, rv_server, "bob")
    try:
        alice.bootstrap()
        bob.bootstrap()
        alice.send_friend_request("bob")
        bob.reregister()
        bob.accept_friend("alice")
        alice.pull_friend_profile("bob")
        dialed = []
        connect = TcpEndpoint.connect
        monkeypatch.setattr(TcpEndpoint, "connect", lambda self, addr: dialed.append(addr) or connect(self, addr))
        bob.profile.apply_update("bob", "share_board", op_add("warm", b"no dial"), timestamp=1)
        assert alice.pull_friend_profile("bob").element("share_board/warm").content == b"no dial"
        alice.write_to_friend("bob", "share_board", op_add("c", b"hi"))
        assert dialed == []
        # Bob moves: the kept channel no longer matches his record.
        bob_srv.stop()
        bob_srv = TcpServer(bob).start()
        bob.endpoint = TcpEndpoint(local_addr=bob_srv.addr, rng=bob.rng)
        bob.bootstrap()
        alice.pull_friend_profile("bob")
        assert dialed == [bob_srv.addr]
        assert [key for key in alice._kept if key[0] == "bob"] == [("bob", bob_srv.addr)]
        alice.close()
        alice.pull_friend_profile("bob")
        assert dialed == [bob_srv.addr, rv_server.addr, bob_srv.addr]
    finally:
        alice.close()
        bob.close()
        alice_srv.stop()
        bob_srv.stop()


def test_components_without_an_rng_draw_secrets_from_a_csprng(monkeypatch):
    # Real mode injects no rng, so passphrases, friend keys, session keys and
    # relay challenges come from os.urandom, not from Mersenne Twister.
    draws = []
    real_randbytes = random.SystemRandom.randbytes

    def counting_randbytes(self, n):
        draws.append(n)
        return real_randbytes(self, n)

    monkeypatch.setattr(random.SystemRandom, "randbytes", counting_randbytes)
    ca = identity.CAState("csprng-ca", identity.generate_keypair())
    pair = identity.generate_keypair()
    cert = ca.issue("alice", pair.public_key)
    endpoint = TcpEndpoint()
    peer = Peer(PeerConfig(username="alice"), endpoint, ca.public_key)
    assert draws == [32, 16]  # passphrase, friend key
    rendezvous = RendezvousServer("127.0.0.1:1", RendezvousConfig(), ca.public_key)
    secure.connect_secure(DirectChannel(rendezvous), cert, pair, ca.public_key)
    assert draws[2:] == [16]  # session key
    relay = RelayServer("127.0.0.1:2", ca_public_key=ca.public_key)
    wire.call(DirectChannel(relay), wire.IS_SERVER, cert, expect=wire.CHALLENGE)
    assert draws[3:] == [8]  # challenge nonce
    for component in (endpoint, peer, rendezvous, relay):
        assert type(component.rng) is random.SystemRandom
