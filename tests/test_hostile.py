"""Hostile input: every service answers any frame with a reply or silence,
keeps serving, and a client facing a hostile reply raises a ProtocolError.
"""
import itertools
import queue
import random
import socket
import struct
import threading
from dataclasses import replace

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import example
from hypothesis import strategies as st

from friendmesh import chord, errors, identity, rvclient, secure, wire
from friendmesh.caservice import CAService, request_certificate
from friendmesh.channel import DirectChannel, FuncService, SessionContext
from friendmesh.config import RelayConfig, RendezvousConfig
from friendmesh.errors import (
    IntegrityError, LookupFailed, MalformedRequest, NotFound, PeerUnreachable, ProtocolError,
)
from friendmesh.identity import SessionCipher
from friendmesh.netio import TcpChannel, TcpServer
from friendmesh.profile import LogEntry, Profile, decode_vector, encode_vector, op_add
from friendmesh import records
from friendmesh.records import _CANONICAL, PeerRow, RegistrationRecord, make_registration_record
from friendmesh.relay import LEG_PROBE, MuxService, RelayServer, admit_as_server
from friendmesh.rendezvous import RendezvousServer, WireRingTransport
from friendmesh.simnet.scenario import Scenario, SimConfig
from friendmesh.wire import Frame

# Request field count of every peer app kind. A kind whose request ends in a
# batch (a mirror table or log entries, any number of fields) counts the
# fields before it, so one field more is a batch field that decodes as no
# entry of it.
APP_ARITY = {
    "ping": 0,
    "friend_accept": 2,
    "passphrase_update": 2,
    "note_bad_server": 1,
    "mirror_init": 2,
    "sync_push": 3,
    "pull": 2,
    "op": 3,
}
BATCH_KINDS = {"friend_accept", "mirror_init", "sync_push"}
# Kinds whose first field names the owner, who alone may send them: a peer
# refuses any other sender before it reads the rest.
OWNER_ONLY = {"mirror_init", "sync_push"}

FUZZ = settings(
    max_examples=120, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


class Conn:
    """One client connection wired straight to a server session."""

    def __init__(self, service, remote="10.0.9.9:5000"):
        self.remote_addr = "server:0"
        self.ctx = SessionContext(remote_addr=remote)
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
        pass


@pytest.fixture(scope="module")
def ca():
    return identity.CAState("hostile-ca", identity.generate_keypair("ec-p256"))


@pytest.fixture(scope="module")
def user(ca):
    pair = identity.generate_keypair("ec-p256")
    return pair, ca.issue("hostile-user", pair.public_key)


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


def assert_coded(reply):
    """A reply to a plain frame carries ok or an error code a client
    reads as its own error class; no_relay_available carries no status."""
    if reply is not None and reply.msg_type != wire.NO_RELAY_AVAILABLE:
        status = wire.read_field(reply.payload)[0].decode("ascii", "replace")
        assert status == "ok" or status in errors._BY_CODE, (reply, status)
FRESH = itertools.count()
# The kinds a rendezvous session serves, and kinds it does not.
RENDEZVOUS_KINDS = ["register", "locate", "friend_request", "passphrase_blob", "ping", "", "nope"]


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
    # The sender's own name as the owner, so the codec is what answers.
    first = [b"user00"] if kind in OWNER_ONLY else []
    for count in counts:
        with pytest.raises(MalformedRequest):
            channel.request_app(kind, *(first + [b""] * count)[:count])
        assert channel.request_app("ping") == []
    if kind in BATCH_KINDS:
        # An empty batch is well-formed: a check, not the codec, refuses it.
        with pytest.raises(errors.AuthError):
            channel.request_app(kind, *[b""] * APP_ARITY[kind])
        assert channel.request_app("ping") == []
    channel.close()


@pytest.mark.parametrize("kind", sorted(OWNER_ONLY))
def test_a_batch_for_another_owner_is_refused_before_any_entry_is_decoded(friends, monkeypatch, kind):
    # About 4 MiB of log entries from an admitted friend, naming user02 as
    # the owner: the peer refuses it without decoding one entry.
    alice, _ = friends
    entry = alice.profile.log[0].encode()
    entries = [entry] * (4 * 1024 * 1024 // (2 + len(entry)))
    head = [b"user02", b""] + ([encode_vector(Profile("user02"))] if kind == "sync_push" else [])
    decodes = []
    real = LogEntry.decode.__func__
    monkeypatch.setattr(LogEntry, "decode", classmethod(lambda cls, data: decodes.append(1) or real(cls, data)))
    channel, served_by = alice.connect_friend("user01")
    assert served_by == "user01"
    with pytest.raises(errors.AuthError):
        channel.request_app(kind, *head, *entries)
    assert decodes == []
    assert channel.request_app("ping") == []
    channel.close()


def test_a_friends_read_request_is_refused_and_the_channel_still_serves(friends):
    # Friends get content only by pull; read is no kind a peer serves.
    alice, _ = friends
    channel, served_by = alice.connect_friend("user01")
    assert served_by == "user01"
    with pytest.raises(MalformedRequest):
        channel.request_app("read", b"user01", b"info")
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
        endpoint=NoNetwork(),
        clock=lambda: 0,
        rng=random.Random(3),
    )


@FUZZ
@given(data=st.data(), established=st.booleans())
def test_rendezvous_serves_after_any_frame(rendezvous, user, data, established):
    pair, cert = user
    conn = Conn(rendezvous)
    session = secure.connect_secure(conn, cert, pair, rendezvous.ca_public_key) if established else None
    for code, payload in data.draw(st.lists(st.tuples(CODES, payloads(cert)), max_size=5)):
        assert_coded(conn.send(code, payload))
        if session is not None:
            # Session-encrypted: any kind with any fields, decrypted in sequence.
            kind = data.draw(st.sampled_from(RENDEZVOUS_KINDS))
            fields = data.draw(st.lists(field_values(cert), max_size=4))
            try:
                session.request_app(kind, *fields)
            except ProtocolError:
                pass
            assert session.established  # every answer came back authenticated
    wire.open_reply(conn.request(Frame(wire.RING_STATE)))
    if session is not None:
        with pytest.raises(NotFound):
            rvclient.locate_peer(session, "no such passphrase")


@FUZZ
@given(data=st.data(), admitted=st.booleans())
def test_relay_serves_after_any_frame(ca, user, data, admitted):
    pair, cert = user
    server = RelayServer(
        addr="10.0.3.1:7300",
        config=RelayConfig(max_connections=4),
        ca_public_key=ca.public_key,
        rng=random.Random(4),
        clock=lambda: 0,
    )
    conn = Conn(server, remote="10.0.7.1:6000")
    mux = MuxService(FuncService(lambda frame, ctx: None))
    if admitted:
        admit_as_server(conn, cert, pair, ca.public_key, mux)
    for code, payload in data.draw(st.lists(st.tuples(CODES, payloads(cert)), max_size=5)):
        assert_coded(conn.send(code, payload))
    if not admitted:
        admit_as_server(Conn(server, remote="10.0.7.2:6000"), cert, pair, ca.public_key, mux)
    # The connection still serves, and the session is held.
    wire.call(conn, wire.BRIDGE_OPEN, cert.username)


@FUZZ
@given(data=st.data())
def test_ca_serves_after_any_frame(ca, user, data):
    pair, cert = user
    conn = Conn(CAService(ca))
    for code, payload in data.draw(st.lists(st.tuples(CODES, payloads(cert)), max_size=5)):
        assert_coded(conn.send(code, payload))
    name = f"fresh-user-{next(FRESH)}"  # the CA issues each name once
    issued = request_certificate(conn, name, pair, ca.public_key)
    assert issued.username == name


@pytest.mark.parametrize("code, payload", [
    (wire.RELAY_REGISTER, wire.pack_fields(b"7300")),
    (wire.RELAY_REGISTER, wire.pack_fields(b"port", b"4")),
    (wire.BRIDGE_OPEN, b""),
    (wire.BRIDGE_OPEN, wire.pack_fields(b"someone", b"more")),
], ids=["relay_register_short", "relay_register_not_int", "bridge_open_empty", "bridge_open_long"])
def test_malformed_plain_request_is_refused_as_malformed(rendezvous, ca, code, payload):
    server = rendezvous if code == wire.RELAY_REGISTER else RelayServer("10.0.3.1:7300", ca_public_key=ca.public_key)
    reply = Conn(server).send(code, payload)
    assert reply.msg_type == code
    with pytest.raises(MalformedRequest):
        wire.open_reply(reply)


@pytest.mark.parametrize("payload", [b"", bytes(16), wire.pack_fields(bytes(16))], ids=["empty", "raw", "token"])
@pytest.mark.parametrize("service", ["rendezvous", "relay", "ca"])
def test_the_retired_keepalive_code_is_refused_as_malformed(rendezvous, ca, service, payload):
    # Code 8 was the relay keepalive; no service serves it now.
    server = {"rendezvous": rendezvous, "relay": RelayServer("10.0.3.1:7300", ca_public_key=ca.public_key),
              "ca": CAService(ca)}[service]
    conn = Conn(server)
    reply = conn.send(8, payload)
    assert_coded(reply)
    assert reply.msg_type == 8
    with pytest.raises(MalformedRequest):
        wire.open_reply(reply)
    assert conn.send(8, payload) == reply  # and it keeps serving


# -- (b2) a full relay probes the legs it holds before refusing a newcomer ----------


class Clock:
    def __init__(self):
        self.now = 0

    def __call__(self):
        return self.now


class Leg:
    """A relayed peer's end of its leg: counts the relay's probes, and
    answers them unless the peer is down."""

    closed = False

    def __init__(self, down=False):
        self.down, self.probes = down, 0

    def open_session(self, ctx):
        return self

    def handle(self, frame, ctx):
        self.probes += frame == LEG_PROBE
        return None if self.down else frame

    def close(self):
        self.closed = True


def full_relay(ca, legs):
    """A relay filled by one peer per leg, the i-th at time i; -> the relay,
    its clock, the peers' names."""
    clock = Clock()
    server = RelayServer("10.0.3.1:7300", RelayConfig(max_connections=len(legs), ping_interval_ms=1000),
                         ca.public_key, rng=random.Random(5), clock=clock)
    names = [f"held-{next(FRESH)}" for _ in legs]
    for i, (name, leg) in enumerate(zip(names, legs)):
        clock.now = i
        pair = identity.generate_keypair("ec-p256")
        admit_as_server(Conn(server), ca.issue(name, pair.public_key), pair, ca.public_key, leg)
    return server, clock, names


def test_a_full_relay_whose_peers_all_answer_probes_each_leg_at_most_once_per_interval(ca, user):
    pair, cert = user
    legs = [Leg(), Leg()]
    server, clock, names = full_relay(ca, legs)
    # Heard from within the interval: refused with no probe at all.
    with pytest.raises(errors.AuthError):
        secure.connect_secure(Conn(server), cert, pair, ca.public_key)
    assert [leg.probes for leg in legs] == [0, 0]
    clock.now = 1001
    for _ in range(3):  # each hello is refused; only the first probes
        with pytest.raises(errors.AuthError):
            secure.connect_secure(Conn(server), cert, pair, ca.public_key)
        assert [leg.probes for leg in legs] == [1, 1]
    clock.now = 2001
    with pytest.raises(errors.AuthError):
        secure.connect_secure(Conn(server), cert, pair, ca.public_key)
    assert [leg.probes for leg in legs] == [2, 2]
    assert list(server.sessions) == names and server.evicted == 0


def test_a_full_relay_with_one_downed_peer_admits_the_newcomer(ca, user):
    pair, cert = user
    legs = [Leg(), Leg(down=True), Leg()]
    server, clock, names = full_relay(ca, legs)
    clock.now = 1002
    admit_as_server(Conn(server), cert, pair, ca.public_key, Leg())
    assert list(server.sessions) == [names[0], names[2], cert.username]
    assert server.evicted == 1 and legs[1].closed
    assert [leg.probes for leg in legs] == [1, 1, 0]  # least recently heard first, until a slot freed


@pytest.mark.parametrize("subject_key", [b"junk", b"\x04" + b"\x01" * 64], ids=["short", "off_curve"])
def test_ca_refuses_a_subject_key_that_is_not_a_point(ca, user, subject_key):
    # A correctly sealed request for a key the CA could not seal its reply
    # to gets a coded reply, and the username stays free for a valid key.
    pair, _ = user
    name = f"keyless-user-{next(FRESH)}"
    conn = Conn(CAService(ca))
    request = identity.build_cert_request(name, subject_key, ca.public_key)
    reply = conn.send(wire.CERT_REPLY, wire.encode(wire.CERT_REPLY, request))
    with pytest.raises(MalformedRequest):
        wire.open_reply(reply)
    assert name not in ca.usernames()
    assert request_certificate(conn, name, pair, ca.public_key).username == name


@FUZZ
@given(data=st.data(), established=st.booleans())
def test_peer_responder_serves_after_any_frame(friends, data, established):
    alice, bob = friends
    cert, keys = alice.state.certificate, alice.state.keypair
    conn = Conn(bob)
    channel = None
    if established:
        channel = secure.connect_secure(
            conn, cert, keys, alice.ca_public_key, expected_username="user01"
        )
    for code, payload in data.draw(st.lists(st.tuples(CODES, payloads(cert)), max_size=4)):
        conn.send(code, payload)
        if channel is not None:
            kind = data.draw(st.sampled_from(sorted(APP_ARITY) + ["", "err", "nope", "read"]))
            fields = data.draw(st.lists(field_values(cert), max_size=4))
            try:
                channel.request_app(kind, *fields)
            except ProtocolError:
                pass
    if channel is not None:
        assert channel.request_app("ping") == []
    else:
        channel = secure.connect_secure(conn, cert, keys, alice.ca_public_key)
        assert channel.request_app("ping") == []


def certificate_tag(cert):
    """The tag a friend's hello names a certificate by."""
    return records.record_tag(cert.encode())[0]


def hello_names(cert, friend_cert):
    """What a hello's first field may hold: a certificate or its tag, the
    tag of a certificate the responder holds or does not, 16 bytes that tag
    nothing, and bytes that are neither."""
    encoded = cert.encode()
    return st.one_of(
        st.sampled_from([
            b"", encoded, encoded[:-1], encoded + b"x", certificate_tag(cert),
            certificate_tag(friend_cert), friend_cert.encode(),
        ]),
        st.binary(min_size=16, max_size=16),
        st.binary(max_size=200),
    )


@FUZZ
@given(data=st.data())
def test_any_hello_name_gets_a_coded_answer_and_the_responder_serves_on(friends, ca, user, rendezvous, data):
    # A peer (which holds its friends' certificates), a rendezvous server and
    # a relay (which hold none) answer a hello whatever its first field
    # names: a sealed key or a coded refusal, never an exception.
    alice, bob = friends
    stranger = user[1]
    relay = RelayServer(addr="10.0.3.2:7300", config=RelayConfig(max_connections=4),
                        ca_public_key=ca.public_key, rng=random.Random(5), clock=lambda: 0)
    service = data.draw(st.sampled_from([bob, rendezvous, relay]))
    names = hello_names(stranger, alice.state.certificate)
    for named, nonce in data.draw(st.lists(
            st.tuples(names, st.one_of(st.just(b"n" * secure.NONCE_LEN), st.binary(max_size=20))),
            min_size=1, max_size=4)):
        reply = Conn(service).send(wire.REGISTER_PEER, wire.pack_fields(named, nonce))
        assert reply is not None and reply.msg_type == wire.SESSION_KEY
        assert_coded(reply)
    if service is bob:
        cert, keys = alice.state.certificate, alice.state.keypair
        channel = secure.connect_secure(Conn(bob), cert, keys, ca.public_key, expected_username="user01",
                                        held=bob.state.certificate)
        assert channel.request_app("ping") == []


@pytest.mark.parametrize("responder", ["peer", "rendezvous", "relay"])
def test_a_hello_naming_a_certificate_the_responder_does_not_hold_is_refused_not_found(
        friends, ca, user, rendezvous, responder):
    # Refused before the responder seals anything: the answer is plain.
    alice, bob = friends
    service = {
        "peer": bob,
        "rendezvous": rendezvous,
        "relay": RelayServer(addr="10.0.3.3:7300", config=RelayConfig(max_connections=4),
                             ca_public_key=ca.public_key, rng=random.Random(6), clock=lambda: 0),
    }[responder]
    tags = [certificate_tag(user[1]), bytes(16)]
    if responder != "peer":
        tags.append(certificate_tag(alice.state.certificate))  # a server holds none
    for tag in tags:
        reply = Conn(service).send(wire.REGISTER_PEER, wire.pack_fields(tag, b"n" * secure.NONCE_LEN))
        assert reply.msg_type == wire.SESSION_KEY
        with pytest.raises(NotFound):
            wire.open_reply(reply)


@pytest.mark.parametrize("count", [0, 9, 11, 15])
def test_a_version_vector_with_the_wrong_field_count_is_malformed(friends, count):
    # Two fields per component: 10. Fifteen is a vector that still names
    # its components.
    alice, _ = friends
    channel, _ = alice.connect_friend("user01")
    for kind, head in (("pull", [b"user01"]), ("sync_push", [b"user00", b""])):
        with pytest.raises(MalformedRequest):
            channel.request_app(kind, *head, wire.pack_fields(*[b""] * count))
    assert channel.request_app("ping") == []
    channel.close()


@pytest.fixture(scope="module")
def mirrored():
    """user01 mirrors user00 and hosts its replica; user02, a friend of
    user00 only, may read it; user03 has asked user01 to be its friend."""
    world = Scenario(SimConfig(seed=23, duration_ms=5000, n_rendezvous=1, n_relays=1, n_peers=4,
                               friendships=[["user00", "user01"], ["user00", "user02"]],
                               mirrors=[["user00", "user01"]]))
    world.peers["user03"].send_friend_request("user01")
    world.peers["user01"].reregister()
    return world


@pytest.mark.parametrize("stranger", ["user02", "user03"], ids=["replica_reader", "pending_requester"])
def test_no_admitted_non_owner_gets_the_version_vector_of_the_host_profile(mirrored, stranger):
    host, guest = mirrored.peers["user01"], mirrored.peers[stranger]
    assert host.admission_gate(stranger) and stranger not in host.state.friend_list
    assert stranger in host.state.pending_incoming or host.replicas["user00"].may_access(stranger)
    own = host.profile
    secrets = [own.prefix_digest(c, v) for c, v in own.versions.items() if v]
    assert secrets
    tags = [records.record_tag(encode_vector(own))[0], bytes(records.TAG_LEN)]
    probes = [("sync_vec", b""), ("sync_vec", b"user01"), ("pull", b"", encode_vector(Profile("user01")))]
    for owner in (b"", b"user01", b"user00", stranger.encode()):
        probes += [("sync_push", owner, b"", tag) for tag in tags]
    channel = guest._open(("user01", host.endpoint.local_addr()))
    answered = []
    for kind, *fields in probes:
        try:
            reply = b"".join(channel.request_app(kind, *fields))
        except ProtocolError:
            continue
        answered.append(kind)
        assert not any(secret in reply for secret in secrets), kind
    assert answered == ["pull"]  # a read of what the stranger may read: nothing
    assert channel.request_app("ping") == []
    channel.close()


@FUZZ
@given(data=st.data())
def test_a_tagged_push_with_any_base_gets_the_replica_vector_or_the_valid_merge(mirrored, data):
    # The owner's push names any 0-40 bytes as its base: 16 that are the
    # tag of the replica's vector, of the owner's (which the replica leaves
    # once it merges entries the owner lacks) or of none, the owner's
    # vector, or other bytes.
    owner, mirror = mirrored.peers["user00"], mirrored.peers["user01"]
    replica = mirror.replicas["user00"]
    before = (list(replica.profile.log), replica.profile.state_digest(), set(replica.allowed_users))
    extra = Profile("user00")
    for i in range(data.draw(st.integers(0, 3))):
        extra.apply_update("user00", "share_board", op_add(f"h{i}", b"x"), timestamp=data.draw(st.integers(1, 9)))
    entries = data.draw(st.lists(st.sampled_from(owner.profile.log + extra.log), max_size=4))
    base = data.draw(st.one_of(
        st.sampled_from([records.record_tag(encode_vector(profile))[0] for profile in (replica.profile, owner.profile)]
                        + [encode_vector(owner.profile)]),
        st.binary(min_size=records.TAG_LEN, max_size=records.TAG_LEN),
        st.binary(max_size=40),
    ))
    allowed = data.draw(st.sampled_from(["", "user02", "user01,user02"]))
    channel = owner._open(("user01", mirror.endpoint.local_addr()))
    try:
        theirs, back = channel.call("sync_push", "user00", allowed, base, entries)
    except ProtocolError:
        theirs, back = None, None
    if theirs is None or theirs:
        # A coded error, or the replica's vector: the replica is as it was.
        assert theirs is None or (theirs == encode_vector(replica.profile) and back == [])
        assert (list(replica.profile.log), replica.profile.state_digest(), replica.allowed_users) == before
    else:
        expected = Profile.replay("user00", before[0])
        expected.merge_entries(entries)
        assert replica.profile.log == expected.log
        assert replica.profile.state_digest() == expected.state_digest()
        assert replica.allowed_users == ({u for u in allowed.split(",") if u} if allowed else before[2])
        if len(base) != records.TAG_LEN:  # the owner's vector: what the owner lacks comes back
            assert back == replica.profile.pull_updates("user00", *decode_vector(base), filtered=False)
        else:
            assert back == []
    assert channel.request_app("ping") == []
    channel.close()


# -- (c) a client facing a hostile reply ----------------------------------------------


class OneServiceEndpoint:
    """Connects every address to one service."""

    def __init__(self, service):
        self.service = service

    def connect(self, addr):
        return DirectChannel(self.service)


def test_ring_query_rejects_short_reply():
    # No successor, or an empty successor list: one and the same bytes, as
    # the reply's layout holds the list's first address as a field of its own.
    for fields in [(), (b"10.0.0.5:7200",)]:
        short = FuncService(lambda frame, ctx: wire.ok_reply(frame.msg_type, *fields))
        with pytest.raises(ProtocolError):
            WireRingTransport(OneServiceEndpoint(short)).query("10.0.0.5:7200", 42)


NOTIFY_FIELDS = st.one_of(
    st.sampled_from([b"", b"0", b"1", b"10.0.0.5:7200", b"10.0.0.1:7200", b"\xff\xfe", b"t" * 8]),
    st.binary(max_size=24),
)


@FUZZ
@given(fields=st.lists(NOTIFY_FIELDS, max_size=4))
def test_a_ring_notify_with_any_fields_gets_a_coded_reply(rendezvous, fields):
    # Any candidate and tag, or any other field count: ok or a coded error.
    assert_coded(Conn(rendezvous).send(wire.RING_NOTIFY, wire.pack_fields(*fields)))
    wire.open_reply(Conn(rendezvous).request(Frame(wire.RING_STATE)))


@FUZZ
@given(fields=st.lists(NOTIFY_FIELDS, max_size=5), held=st.booleans())
def test_a_notify_reply_with_any_fields_costs_stabilize_a_protocol_error_at_most(fields, held):
    # A successor answering any fields: the notifier either reads a state,
    # or "unchanged" to a notify that named one, or raises a ProtocolError;
    # it keeps a successor list either way.
    succ = "10.0.0.5:7200"
    service = FuncService(lambda frame, ctx: wire.ok_reply(frame.msg_type, *fields))
    node = chord.RingNode("10.0.0.1:7200", WireRingTransport(OneServiceEndpoint(service)))
    node._set_successors([(chord.node_ident(succ), succ)])
    if held:
        node._taken = (succ, b"t" * 8, (None, [succ]))
    try:
        adopted, state = node.transport.notify(succ, node.addr, b"t" * 8)
    except ProtocolError:
        pass
    else:
        assert isinstance(adopted, bool) and (state is None or state[1])
    try:
        node.stabilize()
    except ProtocolError:
        pass
    assert node.state()[1]


def test_ring_answer_listing_many_addresses_costs_at_most_a_list_of_hashes(monkeypatch):
    # The node a lookup asks first answers with itself as closest and a list
    # of 1,000 addresses. The first SUCCESSOR_LIST_LEN are unreachable and
    # lie just past it, so no arc among them covers the key; every later one
    # would, were the walk to read it. The answering node stays the first
    # hop of every restart, so the lookup can only give up.
    addrs = [f"10.6.4.{i}:7{i:03d}" for i in range(16)]
    nodes, transport = chord.build_ring(addrs)
    start = nodes[addrs[0]]
    span = chord.SUCCESSOR_LIST_LEN
    size = 1 << 128
    real = chord.node_ident
    pool = {a: real(a) for a in (f"10.66.{i // 250}.{i % 250}:9000" for i in range(3000))}
    pairs = sorted((real(a), a) for a in addrs)
    hashed = []
    monkeypatch.setattr(chord, "node_ident", lambda addr, bits=128: hashed.append(addr) or real(addr, bits))
    rng = random.Random(4)
    tried = 0
    while tried < 8:
        key = rng.randrange(size)
        hostile = start.closest_preceding(key)
        if hostile == start.addr:
            continue
        hostile_id = real(hostile)
        near = sorted(pool, key=lambda a: (pool[a] - hostile_id) % size)[:span]
        last_id = pool[near[-1]]
        if chord.in_interval(key, hostile_id, last_id, inc_hi=True):
            continue
        traps = [a for a in pool if a not in near and chord.in_interval(key, last_id, pool[a], inc_hi=True)]
        listed = near + traps[: 1000 - span]
        assert len(listed) == 1000
        service = FuncService(lambda frame, ctx: wire.reply(wire.RING_CLOSEST, hostile, listed[0], listed[1:]))
        replies = []

        class HostileTransport:
            def query(self, addr, ident):
                if addr != hostile:
                    return transport.query(addr, ident)
                replies.append(addr)
                return WireRingTransport(OneServiceEndpoint(service)).query(addr, ident)

        start.transport = HostileTransport()
        hashed.clear()
        try:
            result = start.find_successor(key)
        except LookupFailed:
            pass
        else:
            assert result.addr == next((a for i, a in pairs if i >= key), pairs[0][1])
        tried += 1
        assert replies
        assert len([a for a in hashed if a in pool]) <= span * len(replies)
        assert not set(hashed) & set(traps)


def hostile_record(pair):
    return make_registration_record(
        username="hostile-user", ip="10.0.5.5", port=7500, protocol="tcp",
        relay_address="", relay_port=0, passphrase="hostile-phrase",
        encrypted_mirror_list=b"\x01", private_key=pair.private_key,
    )


def scripted_session(ca, cert, pair, *fields):
    """A rendezvous session whose server answers every app request, under
    the session key, with an ok reply of the fields given."""
    key = identity.generate_session_key(rng=random.Random(5))
    server_cipher = SessionCipher(key, direction=1)

    def handle(frame, ctx):
        if frame.msg_type == wire.REGISTER_PEER:
            sealed = secure.seal_key_reply(cert.public_key, frame.payload, key, None, None)
            return wire.ok_reply(wire.SESSION_KEY, sealed)
        server_cipher.decrypt(frame.payload)
        return Frame(wire.APP_DATA, server_cipher.encrypt(wire.pack_fields(b"ok", *fields)))

    return secure.connect_secure(DirectChannel(FuncService(handle)), cert, pair, ca.public_key)


def test_locate_peer_rejects_short_reply(ca, user):
    # A server that answers a located record alone, with no certificate field.
    pair, cert = user
    session = scripted_session(ca, cert, pair, hostile_record(pair).encode())
    with pytest.raises(ProtocolError):
        rvclient.locate_peer(session, "hostile-phrase")


def malformed_records(pair):
    """A record field no record decodes from: cut short, overlong, with a
    field that is not UTF-8, or the valid encoding with bytes changed."""
    good = hostile_record(pair).encode()
    fixed = st.sampled_from([
        b"\x00", good[:-1], good + b"\x00", b"\x00\x02\xff\xfe" + good[14:],
        wire.pack_fields(*[b"x"] * 10),
    ])
    flipped = st.tuples(st.integers(0, len(good) - 1), st.integers(1, 255)).map(
        lambda flip: good[:flip[0]] + bytes([good[flip[0]] ^ flip[1]]) + good[flip[0] + 1:]
    )
    return st.one_of(fixed, flipped, st.binary(min_size=1, max_size=64))


@FUZZ
@given(data=st.data())
@example(data=None)
def test_a_malformed_record_in_a_locate_reply_is_a_protocol_error(ca, user, data):
    pair, cert = user
    field = b"\x00" if data is None else data.draw(malformed_records(pair))
    session = scripted_session(ca, cert, pair, field, b"")
    held = hostile_record(pair)
    try:
        record, _cert = rvclient.locate_peer(session, "hostile-phrase", False, held)
    except ProtocolError:
        return
    # A changed byte can still leave a record that decodes; its signature
    # then fails, as the locating peer checks.
    assert record.encode() == field


def test_unchanged_without_the_held_record_proof_is_a_protocol_error(ca, user):
    # A server without the row answers "unchanged": with nothing, by echoing
    # the tag the locator sent, or with another record's proof. Whether or
    # not a record is held, no record is taken; only the held record's own
    # proof gets it.
    pair, cert = user
    held = hostile_record(pair)
    tag, proof = records.record_tag(held.encode())
    other = replace(held, ip="10.0.6.6")
    for answer in (b"", tag, records.record_tag(other.encode())[1], bytes(16)):
        session = scripted_session(ca, cert, pair, answer, b"")
        for holding in (None, held):
            with pytest.raises(errors.MalformedRequest):
                rvclient.locate_peer(session, "hostile-phrase", False, holding)
    session = scripted_session(ca, cert, pair, proof, b"")
    with pytest.raises(errors.MalformedRequest):
        rvclient.locate_peer(session, "hostile-phrase")  # a proof is no record
    assert rvclient.locate_peer(session, "hostile-phrase", False, held) == (held, b"")


# Every field of a registration record a server could rewrite to steer a
# connection: all but the username (bound by the certificate) and the
# signature.
STEERING_FIELDS = [
    name for name in RegistrationRecord.LAYOUT.names
    if name not in ("username", "signed_digest")
]


def rewritten(value):
    """A different value of the same type: a redirect, not a corruption."""
    if isinstance(value, bytes):
        return value + b"\x00"
    if isinstance(value, int):
        return value + 1
    return value + "0"


@pytest.mark.parametrize("via, tamper", [
    ("ring_replicate", "signature"), ("ring_replicate", "certificate"),
    ("ring_transfer", "signature"), ("ring_transfer", "certificate"),
    ("register", "signature"),
])
def test_a_row_differing_from_the_stored_one_is_verified_and_refused(ca, user, monkeypatch, via, tamper):
    # A server skips verification only for a row equal to the one it
    # stores, so a row that differs in one byte is checked and refused, and
    # the stored row stays: one with a flipped signature byte, or one with
    # another user's certificate under the same (username, ring id). A
    # registration carries its sender's certificate, so it is tampered by
    # its signature alone, on a server without a ring.
    pair, cert = user
    record = make_registration_record(
        username="hostile-user", ip="10.0.5.5", port=7500, protocol="tcp",
        relay_address="", relay_port=0, passphrase="hostile-stored",
        encrypted_mirror_list=b"\x01", private_key=pair.private_key,
    )
    if tamper == "signature":
        signature = bytearray(record.signed_digest.signature)
        signature[-1] ^= 1
        bad_record = replace(record, signed_digest=replace(record.signed_digest, signature=bytes(signature)))
        certificate = cert
    else:
        bad_record = record
        certificate = ca.issue(f"hostile-other-{via}", identity.generate_keypair("ec-p256").public_key)
    server = RendezvousServer(
        addr="10.0.0.9:7200",
        config=RendezvousConfig(ring_enabled=via != "register"),
        ca_public_key=ca.public_key,
        endpoint=object(),  # a one-node ring dials nobody
        clock=lambda: 0,
        rng=random.Random(3),
    )
    good = PeerRow(record, cert, ring_id=0 if via == "register" else 5,
                   replica=via == "ring_replicate")
    bad = replace(good, record=bad_record, certificate=certificate)
    if via == "register":
        session = secure.connect_secure(DirectChannel(server), cert, pair, ca.public_key)

        def send(row):
            try:
                rvclient.register_peer(session, row.record)
            except IntegrityError:
                return False
            return True
    else:
        def send(row):
            if via == "ring_replicate":
                return wire.call(DirectChannel(server), wire.RING_REPLICATE, [row]) == ([True],)
            return bool(wire.call(DirectChannel(server), wire.RING_TRANSFER, "", [row])[0])

    assert send(good)
    checks = []
    real_verified = records.PeerRow.verified
    monkeypatch.setattr(records.PeerRow, "verified",
                        lambda row, key: checks.append(row) or real_verified(row, key))
    assert send(good) and checks == []  # the same bytes again: not verified
    assert not send(bad)
    assert checks == [bad]
    assert server.store.peer_rows() == [good]


# -- a tagged register: an unchanged re-registration named by its record's tag ------------


def refresh_server(ca, ring=False):
    return RendezvousServer(
        addr="10.0.0.8:7200",
        config=RendezvousConfig(ring_enabled=ring),
        ca_public_key=ca.public_key,
        endpoint=object() if ring else None,  # a one-node ring dials nobody
        clock=lambda: 0,
        rng=random.Random(3),
    )


def counted_session(server, cert, pair):
    """A session to server, and what each register on it named the record
    by, in order: "tag" or "record"."""
    session = secure.connect_secure(DirectChannel(server), cert, pair, server.ca_public_key)
    forms = []
    real = session.call

    def call(kind, *values):
        assert kind == "register"
        forms.append("tag" if len(values[0]) == records.TAG_LEN else "record")
        return real(kind, *values)

    session.call = call
    return session, forms


def user_record(pair, cert, passphrase="hostile-phrase"):
    return make_registration_record(
        username=cert.username, ip="10.0.5.5", port=7500, protocol="tcp",
        relay_address="", relay_port=0, passphrase=passphrase,
        encrypted_mirror_list=b"\x01", private_key=pair.private_key,
    )


@pytest.mark.parametrize("case", ["another_user", "wrong_tag", "older_record", "restarted_empty"])
def test_a_refresh_of_a_record_the_server_does_not_hold_is_refused_then_registered(ca, user, case):
    # A register naming a record by its tag is refused with not_found and
    # stores nothing: from another user's session, with a tag of no record,
    # with the tag of the user's record before the one the server holds, or
    # at a server restarted empty. The registration then sends the record,
    # once, on the same session, and its row is stored.
    pair, cert = user
    record = user_record(pair, cert)
    server = refresh_server(ca)
    session, forms = counted_session(server, cert, pair)
    rvclient.register_peer(session, record)
    tag = records.record_tag(record.encode())[0]
    if case == "another_user":
        pair = identity.generate_keypair("ec-p256")
        cert = ca.issue("hostile-refresher", pair.public_key)
        session, forms = counted_session(server, cert, pair)
        record = user_record(pair, cert)
    elif case == "wrong_tag":
        tag = bytes(16)
    elif case == "older_record":
        rvclient.register_peer(session, user_record(pair, cert, passphrase="hostile-newer"))
    else:
        server = refresh_server(ca)
        session, forms = counted_session(server, cert, pair)
    before = server.store.peer_rows()
    with pytest.raises(NotFound):
        session.call("register", tag)
    assert session.established
    assert server.store.peer_rows() == before
    forms.clear()
    rvclient.register_peer(session, record, tag)
    assert forms == ["tag", "record"]
    assert server.store.peer(cert.username, 0) == PeerRow(record, cert)


def test_a_refresh_promotes_a_row_held_as_a_replica(ca, user):
    # As a register sending the same record would: the replica row becomes
    # the primary one, with no record sent.
    pair, cert = user
    record = user_record(pair, cert)
    server = refresh_server(ca, ring=True)
    ring_id = chord.dual_hash(cert.username, server.config.ring_bits).id_md5
    server.store.upsert_peer(PeerRow(record, cert, ring_id, replica=True))
    session, forms = counted_session(server, cert, pair)
    rvclient.register_peer(session, record, records.record_tag(record.encode())[0])
    assert forms == ["tag"]
    assert server.store.peer_rows() == [PeerRow(record, cert, ring_id, replica=False)]


def register_fields(record, other):
    """What a register's one field may hold, by case: nothing, around a
    tag's length, the packed record cut short or followed by a byte, and
    the tag of another user's record the server holds."""
    packed = records.REGISTERED.encode(record)
    return {
        "empty": b"",
        "15_bytes": bytes(15),
        "16_bytes": bytes(16),
        "17_bytes": bytes(17),
        "truncated": packed[:-1],
        "over_long": packed + b"\x00",
        "another_users_tag": records.record_tag(other.encode())[0],
    }


@pytest.fixture(scope="module")
def other_user(ca):
    """Another user, and the record of theirs a server holds."""
    pair = identity.generate_keypair("ec-p256")
    cert = ca.issue("hostile-other", pair.public_key)
    return pair, cert, user_record(pair, cert, passphrase="hostile-other-phrase")


def register_answer(ca, user, record, other_user, field) -> str:
    """Send field as the user's register at a server holding other_user's
    row: "refused" when a coded error came back and nothing changed,
    "stored" when the row stored is the one the register of record stores.
    Either way the session then registers record."""
    pair, cert = user
    other_pair, other_cert, other_record = other_user
    server = refresh_server(ca)
    rvclient.register_peer(counted_session(server, other_cert, other_pair)[0], other_record)
    session, _ = counted_session(server, cert, pair)
    try:
        session.call("register", field)
    except ProtocolError as exc:
        assert exc.code in errors._BY_CODE
        assert server.store.peer_rows() == [PeerRow(other_record, other_cert)]
        answer = "refused"
    else:
        assert len(server.store.peer_rows()) == 2
        assert server.store.peer(cert.username, 0) == PeerRow(record, cert)
        answer = "stored"
    assert session.established
    rvclient.register_peer(session, record)
    assert server.store.peer(cert.username, 0) == PeerRow(record, cert)
    return answer


@pytest.mark.parametrize("case", ["empty", "15_bytes", "16_bytes", "17_bytes", "truncated", "over_long",
                                  "another_users_tag"])
def test_a_register_field_that_is_no_tag_of_the_row_nor_a_record_is_refused(ca, user, other_user, case):
    record = user_record(*user)
    field = register_fields(record, other_user[2])[case]
    assert register_answer(ca, user, record, other_user, field) == "refused"


@FUZZ
@given(data=st.data())
def test_a_register_field_of_any_bytes_gets_a_coded_error_or_the_valid_row(ca, user, other_user, data):
    record = user_record(*user)
    packed = records.REGISTERED.encode(record)
    cut = data.draw(st.integers(0, len(packed)))
    field = data.draw(st.one_of(
        st.just(packed),
        st.binary(max_size=40),
        st.sampled_from(sorted(register_fields(record, other_user[2]).values())),
        st.binary(max_size=4).map(lambda extra: packed[:cut] + extra),
        st.integers(0, len(packed) - 1).map(lambda i: packed[:i] + bytes([packed[i] ^ 1]) + packed[i + 1:]),
    ))
    try:
        carries_record = RegistrationRecord(record.username, *records.REGISTERED.unpack(field)) == record
    except MalformedRequest:
        carries_record = False
    assert register_answer(ca, user, record, other_user, field) == ("stored" if carries_record else "refused")


def test_every_field_that_steers_a_connection_is_signed():
    assert set(STEERING_FIELDS) <= set(_CANONICAL.names)


@pytest.mark.parametrize("field_name", STEERING_FIELDS)
def test_a_rewritten_record_field_is_detected_as_tampering(field_name, monkeypatch):
    # A 4-server global world: user04's md5 server rewrites one field of its
    # stored row and serves it to locates by user04's passphrase.
    world = Scenario(SimConfig(seed=13, n_rendezvous=4, n_peers=5, global_mode=True))
    pairs = sorted((chord.node_ident(a, 128), a) for a in world.servers)
    md5_home, sha1_home = (
        next((a for i, a in pairs if i >= ident), pairs[0][1])
        for ident in chord.dual_hash("user04").both()
    )
    assert md5_home != sha1_home
    store = world.servers[md5_home].store
    passphrase = world.peers["user04"].state.passphrase
    (row,) = [r for r in store.peer_rows() if r.record.username == "user04"]
    record = row.record
    bad = replace(row, record=replace(record, **{field_name: rewritten(getattr(record, field_name))}))
    store.upsert_peer(bad)
    monkeypatch.setattr(store, "peer_by_passphrase", lambda p: bad if p == passphrase else None)
    reader = world.peers["user03"]
    located, server = reader.locate_friend("user04")
    assert server == sha1_home
    assert located.canonical_payload() == record.canonical_payload()
    assert ("note_bad_server", md5_home) in reader.state.queued_updates["user04"]


def test_a_misrouting_preceding_server_costs_one_lookup_per_id_not_the_locate(monkeypatch):
    # A 16-server global world where the servers preceding user04's two ids
    # answer its lookups with a dead address: the locate falls back to the
    # reader's registration servers, one more lookup per id at most.
    from friendmesh.simnet.adversary import AdversaryScript

    world = Scenario(SimConfig(seed=13, n_rendezvous=16, n_peers=5, global_mode=True))
    ring = sorted((chord.node_ident(a, 128), a) for a in world.servers)
    ids = chord.dual_hash("user04").both()
    liars = [([a for i, a in ring if i < ident] or [ring[-1][1]])[-1] for ident in ids]
    reader = world.peers["user03"]
    assert not set(liars) & set(reader.state.registered_at)
    world.spawn_adversary(AdversaryScript(behaviors=["misroute"], targets=liars, victims=["user04"]))
    lookups = []
    real = reader._chord_lookup
    monkeypatch.setattr(reader, "_chord_lookup",
                        lambda server, ident: lookups.append((server, ident)) or real(server, ident))
    record, server = reader.locate_friend("user04")
    assert (record.username, server) == ("user04", next(a for i, a in ring if i >= ids[0]))
    assert lookups == list(zip(liars, ids)) + [(reader.state.registered_at[0], ids[0])]


def forged_plain_reply(ca, cert, pair, reply):
    """A rendezvous session whose server answers every request with the
    plain reply given, not encrypted under the session key."""
    key = identity.generate_session_key(rng=random.Random(6))

    def handle(frame, ctx):
        if frame.msg_type == wire.REGISTER_PEER:
            sealed = secure.seal_key_reply(cert.public_key, frame.payload, key, None, None)
            return wire.ok_reply(wire.SESSION_KEY, sealed)
        return reply

    return secure.connect_secure(DirectChannel(FuncService(handle)), cert, pair, ca.public_key)


@pytest.mark.parametrize("status", [b"ok", b"not_found", b"auth_error"])
def test_forged_plain_reply_is_not_taken_as_authenticated(ca, user, status):
    # An on-path forger without the session key answers a locate in the
    # clear: neither its record nor its refusal is believed.
    pair, cert = user
    record = make_registration_record(
        username="forged-user", ip="10.0.5.6", port=7501, protocol="tcp",
        relay_address="", relay_port=0, passphrase="forged-phrase",
        encrypted_mirror_list=b"\x01", private_key=pair.private_key,
    )
    forged = Frame(wire.APP_DATA, wire.pack_fields(status, record.encode(), cert.encode()))
    session = forged_plain_reply(ca, cert, pair, forged)
    with pytest.raises(IntegrityError):
        rvclient.locate_peer(session, "forged-phrase")
    assert not session.established


def test_plain_peer_unreachable_is_believed_and_drops_the_session(ca, user):
    pair, cert = user
    session = forged_plain_reply(ca, cert, pair, wire.err_reply(wire.APP_DATA, "peer_unreachable"))
    with pytest.raises(PeerUnreachable):
        rvclient.locate_peer(session, "any-phrase")
    assert not session.established


def test_pull_rejects_two_field_reply(friends, monkeypatch):
    alice, bob = friends
    monkeypatch.setattr(bob, "_handle_app", lambda body, peer: wire.pack_fields(b"", b""))
    with pytest.raises(ProtocolError):
        alice.pull_friend_profile("user01")


# -- (d) raw bytes through the loopback carrier: no server or client thread dies --------

LOOPBACK_FUZZ = settings(
    max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
OVERSIZED = struct.pack(">IB", wire.MAX_FRAME_PAYLOAD + 1, wire.RING_STATE)


def refused_bridge(channel):
    with pytest.raises(PeerUnreachable):
        wire.call(channel, wire.BRIDGE_OPEN, "nobody")  # the relay holds no such session


# One valid request per service, answered whatever came before: ok, or the
# relay's coded refusal of a bridge to a peer it does not hold.
VALID = {
    "rendezvous": lambda channel: wire.call(channel, wire.RELAY_UPDATE, 7300, 0, 4),
    "relay": refused_bridge,
}


def streams():
    """Byte streams that are, or almost are, frames: headers announcing any
    length, among arbitrary bytes."""
    lengths = st.sampled_from([0, 1, 40, wire.MAX_FRAME_PAYLOAD + 1, 2**32 - 1])
    header = st.builds(lambda n, code: struct.pack(">IB", n, code), lengths, CODES)
    return st.lists(st.one_of(header, st.binary(max_size=60)), max_size=4).map(b"".join)


@pytest.fixture(scope="module")
def served():
    """What each TCP connection thread ended with: None, or the exception
    that escaped it."""
    outcomes = queue.Queue()
    serve = TcpServer._serve_conn

    def watched(self, conn, peer):
        try:
            serve(self, conn, peer)
        except Exception as exc:
            outcomes.put(exc)
        else:
            outcomes.put(None)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(TcpServer, "_serve_conn", watched)
        yield outcomes


@pytest.fixture(scope="module")
def loopback(ca, served):
    rendezvous = RendezvousServer("127.0.0.1:0", RendezvousConfig(), ca.public_key)
    relay = RelayServer("127.0.0.1:0", ca_public_key=ca.public_key)
    servers = {}
    for name, service in (("rendezvous", rendezvous), ("relay", relay)):
        servers[name, "tcp"] = TcpServer(service).start()
    yield servers
    for server in servers.values():
        server.stop()


@LOOPBACK_FUZZ
@given(stream=streams(), target=st.sampled_from(sorted(VALID)))
@example(stream=OVERSIZED, target="rendezvous")
@example(stream=OVERSIZED, target="relay")
def test_tcp_server_survives_any_byte_stream(loopback, served, stream, target):
    server = loopback[target, "tcp"]
    with socket.create_connection((server.host, server.port), timeout=5) as raw:
        try:
            raw.sendall(stream)
            raw.shutdown(socket.SHUT_WR)
            while raw.recv(65536):
                pass  # replies, then the server ends the connection
        except OSError:
            pass  # the server ended it first
    assert served.get(timeout=5) is None
    channel = TcpChannel(server.addr)
    VALID[target](channel)
    channel.close()
    assert served.get(timeout=5) is None


def test_reverse_serving_client_survives_an_oversized_frame(loopback, served, ca, user, monkeypatch):
    # The relay's end of a taken-over connection announces too large a
    # frame: the relayed peer's serving thread ends without raising.
    pair, cert = user
    relay = loopback["relay", "tcp"].service
    escaped = []
    monkeypatch.setattr(threading, "excepthook", lambda args: escaped.append(args.exc_value))
    before = set(threading.enumerate())
    channel = TcpChannel(loopback["relay", "tcp"].addr)
    admit_as_server(channel, cert, pair, ca.public_key, MuxService(FuncService(lambda f, c: None)))
    assert served.get(timeout=5) is None  # the relay's serve loop hands the connection over
    relay.sessions[cert.username].session._sock.sendall(OVERSIZED)
    for thread in set(threading.enumerate()) - before:
        thread.join(timeout=5)
        assert not thread.is_alive()
    assert escaped == []


def test_relay_survives_a_relayed_peer_answering_an_oversized_frame(loopback, served, ca, user):
    pair, cert = user
    server = loopback["relay", "tcp"]
    # Admitted with no mux attached, so the test holds the relayed peer's end of the connection.
    admitted = TcpChannel(server.addr)
    secure.connect_secure(admitted, cert, pair, ca.public_key).call("admit")
    assert served.get(timeout=5) is None
    admitted._sock.sendall(OVERSIZED)  # the reply to the next forwarded frame
    bridge = TcpChannel(server.addr)
    wire.call(bridge, wire.BRIDGE_OPEN, cert.username)
    with pytest.raises(PeerUnreachable):
        wire.open_reply(bridge.request(Frame(wire.APP_DATA, b"hello")))
    refused_bridge(bridge)  # the bridge's connection still serves
    bridge.close()
    admitted.close()
    assert served.get(timeout=5) is None
