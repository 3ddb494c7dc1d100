import dataclasses
import io
import os
import struct
from itertools import chain, repeat

import pytest
from hypothesis import given, settings, strategies as st

from friendmesh import chord, identity, profile, records, rvclient, secure, sentinel, wire
from friendmesh.errors import MalformedRequest, NotFound
from friendmesh.identity import Certificate, KeyPair, SessionKey, SignedDigest
from friendmesh.profile import LogEntry
from friendmesh.records import FriendshipRequestRecord, MirrorEntry, PeerRow, RegistrationRecord, RelayRecord
from friendmesh.sentinel import Complaint


@given(st.integers(min_value=0, max_value=255), st.binary(max_size=4096))
def test_frame_roundtrip(msg_type, payload):
    frame = wire.Frame(msg_type, payload)
    assert wire.frame_from_stream(io.BytesIO(frame.encode()).read) == frame


def test_frame_header_layout():
    frame = wire.Frame(wire.APP_DATA, b"abc")
    raw = frame.encode()
    assert raw[:4] == (3).to_bytes(4, "big")
    assert raw[4] == 21
    assert raw[5:] == b"abc"


@given(st.lists(st.binary(max_size=300), max_size=12))
def test_fields_roundtrip(fields):
    packed = wire.pack_fields(*fields)
    assert wire.unpack_fields(packed) == fields


def test_field_length_prefix_is_two_byte_big_endian():
    packed = wire.pack_fields(b"hi", b"")
    assert packed == b"\x00\x02hi\x00\x00"


def test_field_too_large():
    with pytest.raises(MalformedRequest):
        wire.pack_fields(b"x" * 70000)


@given(st.integers(min_value=0, max_value=2**63))
def test_int_field_roundtrip(value):
    assert wire.unpack_int(wire.pack_int(value)) == value


def test_empty_int_field_reads_zero():
    assert wire.unpack_int(b"") == 0


@pytest.mark.parametrize(
    "field",
    [b"+5", b" 5", b"5 ", b"1_0", b"5\n", pytest.param(b"9" * 5000, id="5000-digits")],
)
def test_int_field_accepts_only_pack_int_output(field):
    with pytest.raises(MalformedRequest):
        wire.unpack_int(field)


@pytest.mark.parametrize(
    "field", [b"", b"-ff", b"+ff", b"0xff", b" ff", b"ff ", b"f_f", b"FF", b"fF", b"ff\n", b"g"],
)
def test_ident_field_accepts_only_pack_ident_output(field):
    with pytest.raises(MalformedRequest):
        wire.unpack_ident(field)


def test_reply_status_convention():
    reply = wire.ok_reply(wire.APP_DATA, b"body")
    assert wire.open_reply(reply) == [b"body"]
    err = wire.err_reply(wire.APP_DATA, "not_found", "no such passphrase")
    with pytest.raises(NotFound):
        wire.open_reply(err)


# -- serving requests by name ----------------------------------------------------------


class RingHandler:
    """Serves two plain requests, one by raising."""

    def _on_ring_state(self, who, *values):
        assert values == ()
        return who, ["b:2", "c:3"]

    def _on_ring_notify(self, who, candidate, tag):
        raise NotFound(candidate)

    def _on_request_relay(self, who):
        return wire.Frame(wire.NO_RELAY_AVAILABLE)


def test_serve_answers_with_the_handler_reply_values():
    reply = wire.serve(RingHandler(), wire.Frame(wire.RING_STATE), "a:1")
    assert reply == wire.reply(wire.RING_STATE, "a:1", ["b:2", "c:3"])
    assert wire.open_reply(reply, wire.RING_STATE) == ("a:1", ["b:2", "c:3"])
    # A frame the handler returns goes out as it is.
    reply = wire.serve(RingHandler(), wire.Frame(wire.REQUEST_RELAY, b"anything"), None)
    assert reply == wire.Frame(wire.NO_RELAY_AVAILABLE)


@pytest.mark.parametrize("frame, refusal", [
    (wire.Frame(wire.RING_CLOSEST, wire.pack_fields(b"ff")), ("malformed_request", "unexpected message")),
    (wire.Frame(99), ("malformed_request", "unexpected message")),
    (wire.Frame(wire.RING_NOTIFY, b"\x00"), ("malformed_request",)),
    (wire.Frame(wire.RING_NOTIFY, wire.pack_fields(b"x:1", b"", b"y:2")), ("malformed_request",)),
    (wire.Frame(wire.RING_NOTIFY, wire.pack_fields(b"x:1", b"")), ("not_found",)),
], ids=["no_handler", "undeclared_code", "truncated", "extra_field", "handler_raises"])
def test_serve_refuses_with_a_coded_error(frame, refusal):
    assert wire.serve(RingHandler(), frame, None) == wire.err_reply(frame.msg_type, *refusal)


@pytest.mark.parametrize("key, name", [
    (200, "register"), (201, "ring_state"), ("ring_state", "ring_state"), (wire.RING_STATE, "fresh"),
], ids=["app_kind_name", "plain_name", "name_as_app_kind", "code"])
def test_define_refuses_a_message_declared_twice(key, name):
    # A plain code named as an app kind would hand a plain frame to a
    # handler written for a certified sender.
    before = dict(wire.SCHEMA)
    with pytest.raises(ValueError):
        wire._define(key, name, (), ())
    assert wire.SCHEMA == before


def test_every_handler_names_a_schema_entry():
    from friendmesh.caservice import CAService
    from friendmesh.peer import Peer
    from friendmesh.relay import RelayConnSession
    from friendmesh.rendezvous import RendezvousSession

    names = {message.name for message in wire.SCHEMA.values()}
    for cls in (RendezvousSession, RelayConnSession, CAService, Peer):
        handlers = [attr[len("_on_"):] for attr in dir(cls) if attr.startswith("_on_")]
        assert handlers, cls
        assert set(handlers) <= names, (cls, set(handlers) - names)


# -- record layouts ------------------------------------------------------------------
#
# GOLDEN holds the bytes of one fixed instance of every record layout, as the
# hand-written encoders produced them before the layouts were declared. The
# handshake's hello and sealed key reply are pinned as they were declared.
# registration_record, peer_row and registration_made were re-recorded when
# the registration record lost its unsigned NAT kind, and again when it lost
# the server's last_refresh stamp (its last field, and the 6 bytes of it
# inside peer_row); canonical_payload, what the owner signs, did not move.
# peer_row's instance came to carry the certificate pinned below, not the
# bytes b"cert", when a row came to hold its certificate decoded: the row's
# layout is as it was, with the certificate's encoding in that field.
# seal, key_reply, cert_request and passphrase_blob were re-recorded when a
# seal came to encrypt its payload under the ECDH-derived key itself: the
# sealed blob lost its wrapped data key (60 bytes under real keys; 32 here,
# where the faked agreement returns no ciphertext of a key).
# tag_hello and tag_key_reply, a friend's hello naming its certificate by
# its tag and the answer that leaves the responder's certificate out, were
# added when friends came to stop sending each other certificates; the
# certificate-carrying hello and key_reply did not move.
# ring_notify_tagged, a notify naming the state its sender last took, was
# added as it stood when every tag came to be records.record_tag's (the
# notify's 8 bytes are the first 8 of that tag), and did not move; so did
# tag_hello. register_record and register_tag, the two forms of a
# register's one field, were added then too.
# sync_push_warm, a warm mirror sync's one request (the tag of the vector
# the owner left on the replica, the allowed users kept, one entry past
# that vector), and its answer, sync_push_warm_reply, were added when a
# warm sync came to be that one exchange.

RECORDS = [
    Certificate, SignedDigest, SessionKey, KeyPair, RegistrationRecord, PeerRow, MirrorEntry,
    FriendshipRequestRecord, RelayRecord, Complaint, LogEntry,
]
LAYOUTS = [cls.LAYOUT for cls in RECORDS] + [
    identity._CERT_SIGNED, identity._SEALED, secure._KEY_REPLY, secure._TRANSCRIPT, identity._CERT_REQUEST,
    identity._CERT_REQUEST_BODY, records._CANONICAL, sentinel._COMPLAINT_SIGNED,
    profile._DIGESTED, profile._EXPORT, profile._VECTOR, records.MIRROR_TABLE, rvclient._REQUEST_BLOB,
]

GOLDEN = {
    'signed_digest': '0004010101010003736967',
    'registration_record': (
        '0005616c696365000831302e302e302e310004373530300003756470000831302e302e302e390004'
        '37333030000670687261736500076d6972726f72730004010101010003736967'
    ),
    'canonical_payload': (
        '000831302e302e302e310004373530300003756470000831302e302e302e39000437333030000670'
        '687261736500076d6972726f7273'
    ),
    'peer_row': (
        '00480005616c696365000831302e302e302e310004373530300003756470000831302e302e302e39'
        '000437333030000670687261736500076d6972726f72730004010101010003736967001e0005616c'
        '696365000350554200026361000765632d703235360003534947'
        '0003616263000131'
    ),
    'mirror_entry': '0003626f62000a626f622d706872617365',
    'mirror_table': '00090003626f6200027031000b00056361726f6c00027032',
    'friendship_request': '00056361726f6c0005616c6963650004626c6f62',
    'relay_record': '000831302e302e302e39000437333030000138000133000431323334',
    'certificate': '0005616c696365000350554200026361000765632d703235360003534947',
    'certificate_signed': '0005616c696365000350554200026361000765632d70323536',
    'session_key': '00106b6b6b6b6b6b6b6b6b6b6b6b6b6b6b6b000b6165732d3132382d67636d',
    'complaint': (
        '000d31302e302e302e323a373230300005616c6963650002393900046373696700056363657274'
    ),
    'complaint_signed': '000d31302e302e302e323a373230300005616c69636500023939',
    'log_entry': '000b73686172655f626f6172640001330005616c69636500026f7000023737',
    'log_entry_digest': '6f6ab2282ba6935bc54030a6895085bcf7dbf3c72d93d35af08eb38602ef223b',
    'entries': (
        '001f000b73686172655f626f6172640001330005616c69636500026f700002373700140004696e66'
        '6f0001310003626f62000000022d35'
    ),
    'export_log': (
        '0005616c696365001f0004696e666f0001310005616c696365000900037365740002686900023130'
        '0029000b73686172655f626f6172640001310005616c696365000c00036164640002703100017800'
        '023131'
    ),
    'seal': (
        '000457505542000c0101010101010101010101010014c37e2ed9e9020c609064066f12854f340401'
        'fc38'
    ),
    'hello': (
        '001e0005616c696365000350554200026361000765632d70323536000353494700106e6e6e6e6e6e'
        '6e6e6e6e6e6e6e6e6e6e'
    ),
    'key_reply': (
        '000457505542000c0101010101010101010101010058a7005aa848f11869eaac92ee959839776c09'
        'dd74923a39ed38fa7de79fc00acdc90e3c0bca2db3deffaada67d5d06a48603597ad2b2e97c7d177'
        '9facb030f5088244d75f6625b74ff3bba127d5f4346feca98824d9db8245'
    ),
    'ring_notify_tagged': '000d31302e302e302e323a3732303000086a2568fef669f1de',
    'register_record': (
        '000872656769737465720041000831302e302e302e310004373530300003756470000831302e302e302e39'
        '000437333030000670687261736500076d6972726f72730004010101010003736967'
    ),
    'register_tag': '0008726567697374657200100ad602d8133e5e2e066fac9a7b57436d',
    'sync_push_warm': (
        '000973796e635f707573680005616c6963650000001020cd0d9734de7988f349e17dcc37b824001f'
        '000b73686172655f626f6172640001330005616c69636500026f7000023737'
    ),
    'sync_push_warm_reply': '00026f6b0000',
    'tag_hello': '001018dfc0ce18306820ab54df75a10dd61400106e6e6e6e6e6e6e6e6e6e6e6e6e6e6e6e',
    'tag_key_reply': (
        '000457505542000c010101010101010101010101003aa7005aa848f11869eaac92ee959839776c09'
        'dd74923a39ed38fa7de79fc00acdc90e220bca1f77a57d62a58a9c6a86c5e492ef947a889f61f8a9'
    ),
    'cert_request': (
        '003d0006574341505542000c0101010101010101010101010025a71a3bd44af916028297acc7fef4'
        '377f2a12842aa45b4f685a4d757f53425119be9f89f7fb000232310020916fc69f7d89857d861e2a'
        '15849fcec8a8368d4b0d9d04f664da5324ebf64740'
    ),
    'passphrase_blob': (
        '000457505542000c010101010101010101010101001fa71a3bd44af9160287b791f79f80374d0b19'
        '9a75d4a8486f735b3a4249e2c2'
    ),
    'key_file': '0003505542000450524956000765632d70323536',
    'issued_certificate': '0005616c696365000350554200026361000765632d70323536000553d7a607d6',
    'complaint_made': (
        '000d31302e302e302e323a373230300005616c69636500023939000553568ef211001e0005616c69'
        '6365000350554200026361000765632d703235360003534947'
    ),
    'registration_made': (
        '0005616c696365000831302e302e302e310004373530300003756470000000013000067068726173'
        '6500016d00209974ed8b9e307cdb99f2eb63d88dc7713abd720d6bafd5c9d94f9dd727e56bca0005'
        '53ccab9913'
    ),
}


@pytest.fixture()
def fixed_crypto(monkeypatch):
    """Seal and sign without randomness, so sealed and signed layouts have fixed bytes."""
    counter = [0]

    def urandom(n):
        counter[0] += 1
        return bytes([counter[0]]) * n

    monkeypatch.setattr(os, "urandom", urandom)
    monkeypatch.setattr(identity, "_agree", lambda pub: (b"W" + pub, b"K" * 32))
    monkeypatch.setattr(identity, "sign", lambda priv, data: b"S" + identity.sha256(priv + data)[:4])
    monkeypatch.setattr(identity, "check_public_key", lambda pub: pub)  # placeholder keys
    return counter


def fixed_instances(counter, tmp_path) -> dict[str, bytes]:
    sd = SignedDigest(b"\x01" * 4, b"sig")
    rec = RegistrationRecord("alice", "10.0.0.1", 7500, "udp", "10.0.0.9", 7300,
                             "phrase", b"mirrors", sd)
    cert = Certificate("alice", b"PUB", "ca", "ec-p256", b"SIG")
    row = PeerRow(rec, cert, ring_id=0xABC, replica=True)
    complaint = Complaint("10.0.0.2:7200", "alice", 99, b"csig", b"ccert")
    e1 = LogEntry("share_board", 3, "alice", b"op", 77)
    e2 = LogEntry("info", 1, "bob", b"", -5)
    p = profile.Profile("alice")
    p.apply_update("alice", "info", profile.op_set(b"hi"), timestamp=10)
    p.apply_update("alice", "share_board", profile.op_add("p1", b"x"), timestamp=11)
    out = {
        "signed_digest": sd.encode(),
        "registration_record": rec.encode(),
        "canonical_payload": rec.canonical_payload(),
        "peer_row": row.encode(),
        "mirror_entry": MirrorEntry("bob", "bob-phrase").encode(),
        "mirror_table": records.MIRROR_TABLE.pack(([MirrorEntry("bob", "p1"), MirrorEntry("carol", "p2")],)),
        "friendship_request": FriendshipRequestRecord("carol", "alice", b"blob").encode(),
        "relay_record": RelayRecord("10.0.0.9", 7300, 8, 3, 1234).encode(),
        "certificate": cert.encode(),
        "certificate_signed": cert.signed_bytes(),
        "session_key": SessionKey(b"k" * 16).encode(),
        "complaint": complaint.encode(),
        "complaint_signed": complaint.signed_bytes(),
        "log_entry": e1.encode(),
        "log_entry_digest": e1.digest(),
        "entries": wire.encode("pull", [e1, e2], reply=True),
        "export_log": p.export_log(),
    }
    state = ("10.0.0.1:7200", ["10.0.0.3:7200", "10.0.0.4:7200"])
    out["ring_notify_tagged"] = wire.encode(wire.RING_NOTIFY, "10.0.0.2:7200", chord.state_tag(state))
    register = secure.pack_app("register")
    out["register_record"] = register + wire.encode("register", records.REGISTERED.encode(rec))
    out["register_tag"] = register + wire.encode("register", records.record_tag(rec.encode())[0])
    vector_tag = records.record_tag(profile.encode_vector(p))[0]
    out["sync_push_warm"] = secure.pack_app("sync_push") + wire.encode("sync_push", "alice", "", vector_tag, [e1])
    out["sync_push_warm_reply"] = wire.OK + wire.encode("sync_push", b"", [], reply=True)
    hello = out["hello"] = wire.encode(wire.REGISTER_PEER, cert.encode(), b"n" * secure.NONCE_LEN)
    tag_hello = out["tag_hello"] = wire.encode(
        wire.REGISTER_PEER, records.record_tag(cert.encode())[0], b"n" * secure.NONCE_LEN
    )
    keys = KeyPair(b"PUB", b"PRIV", "ec-p256")
    for name, make in [
        ("seal", lambda: identity.seal(b"PUB", b"data")),
        ("key_reply", lambda: secure.seal_key_reply(b"PUB", hello, SessionKey(b"k" * 16), cert, keys)),
        ("tag_key_reply", lambda: secure.seal_key_reply(
            b"PUB", tag_hello, SessionKey(b"k" * 16), cert, keys, send_cert=False)),
        ("cert_request", lambda: identity.build_cert_request("alice", b"PUB", b"CAPUB")),
        ("passphrase_blob", lambda: rvclient.seal_request_blob(cert, "alice", "phrase")),
    ]:
        counter[0] = 0
        out[name] = make()
    path = str(tmp_path / "key")
    identity.save_keypair(KeyPair(b"PUB", b"PRIV", "ec-p256"), path)
    with open(path, "rb") as fh:
        out["key_file"] = fh.read()
    ca = identity.CAState("ca", KeyPair(b"CAPUB", b"CAPRIV", "ec-p256"))
    out["issued_certificate"] = ca.issue("alice", b"PUB").encode()
    out["complaint_made"] = sentinel.make_complaint("10.0.0.2:7200", cert, b"PRIV", 99).encode()
    out["registration_made"] = records.make_registration_record(
        "alice", "10.0.0.1", 7500, "udp", "", 0, "phrase", b"m", b"PRIV"
    ).encode()
    return out


def test_record_bytes_are_pinned(fixed_crypto, tmp_path):
    got = {name: data.hex() for name, data in fixed_instances(fixed_crypto, tmp_path).items()}
    assert got == GOLDEN


def _profiles() -> list[profile.Profile]:
    grown = profile.Profile("alice")
    grown.apply_update("alice", "info", profile.op_set(b"hi"), timestamp=10)
    grown.apply_update("alice", "events", profile.op_add("e1", b"x"), timestamp=11)
    return [profile.Profile("bob"), grown]


PROFILES = _profiles()


def value_of(t):
    """A strategy for values of field type t."""
    if isinstance(t, wire.many):
        return st.lists(value_of(t.type), max_size=3)
    if isinstance(t, wire.spread):
        return value_of(t.type)
    if isinstance(t, type):  # a record
        return st.builds(t, *[value_of(f) for f in t.LAYOUT.fields])
    if t is profile.VECTOR:
        return st.sampled_from(PROFILES)
    return {
        wire.STR: st.text(max_size=12),
        wire.INT: st.integers(-(2**64), 2**64),
        wire.IDENT: st.integers(0, 2**160),
        wire.RAW: st.binary(max_size=24),
        wire.FLAG: st.booleans(),
    }[t]


@pytest.mark.parametrize("layout", LAYOUTS, ids=lambda layout: layout.name)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_layout_roundtrip(layout, data):
    values = data.draw(st.tuples(*[value_of(t) for t in layout.fields]))
    assert tuple(layout.unpack(layout.pack(values))) == values


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_record_roundtrip(cls, data):
    value = data.draw(value_of(cls))
    assert cls.decode(value.encode()) == value


DECODERS = [cls.decode for cls in RECORDS] + [layout.unpack for layout in LAYOUTS]
# Arbitrary bytes, and well-framed fields of arbitrary content.
HOSTILE = st.one_of(
    st.binary(max_size=200),
    st.lists(st.binary(max_size=24), max_size=14).map(lambda fields: wire.pack_fields(*fields)),
)


@settings(max_examples=300, deadline=None)
@given(data=HOSTILE)
def test_record_decoders_raise_only_malformed_request(data):
    for decode in DECODERS:
        try:
            decode(data)
        except MalformedRequest:
            pass


# -- the generated codec against the field loop it replaced ---------------------------
#
# reference_pack and reference_unpack are the generic loop that Layout.pack and
# Layout.unpack ran before each layout generated its own code, kept as the
# reference the generated functions must agree with. A nested record is packed
# and read by the reference too.


def _reference_types(fields: tuple) -> tuple[list, object, list]:
    tail = None
    if fields and isinstance(fields[-1], wire.many):
        fields, tail = fields[:-1], fields[-1].type
    types, spreads = [], []  # spreads: (value index, record type, field count)
    for i, t in enumerate(fields):
        if isinstance(t, wire.spread):
            spreads.append((i, t.type, len(t.type.LAYOUT.fields)))
            types.extend(t.type.LAYOUT.fields)
        else:
            types.append(t)
    return types, tail, spreads


def _reference_encode(t, value) -> bytes:
    if isinstance(t, type):  # a record
        return reference_pack(t.LAYOUT.fields, t.LAYOUT.values(value))
    return t.encode(value)


def _reference_decode(t, field: bytes):
    if isinstance(t, type):
        return t(*reference_unpack(t.LAYOUT.fields, field))
    return t.decode(field)


def reference_pack(fields: tuple, values) -> bytes:
    types, tail, spreads = _reference_types(fields)
    if len(values) != len(fields):
        raise TypeError(f"{len(fields)} values expected, got {len(values)}")
    values = list(values)
    for i, cls, _ in reversed(spreads):
        values[i:i + 1] = cls.LAYOUT.values(values[i])
    pairs = zip(types, values)
    if tail is not None:
        pairs = chain(pairs, zip(repeat(tail), values[-1]))
    parts = []
    try:
        for t, value in pairs:
            field = _reference_encode(t, value)
            parts.append(struct.pack(">H", len(field)))
            parts.append(field)
    except struct.error as exc:
        raise MalformedRequest("field exceeds 65535 bytes") from exc
    return b"".join(parts)


def reference_unpack(fields: tuple, data: bytes) -> list:
    types, tail, spreads = _reference_types(fields)
    values, pos, n = [], 0, len(data)
    try:
        for t in types:
            end = pos + 2 + (data[pos] << 8 | data[pos + 1])
            if end > n:
                raise MalformedRequest("truncated field")
            values.append(_reference_decode(t, data[pos + 2:end]))
            pos = end
        if tail is not None:
            rest = []
            while pos < n:
                end = pos + 2 + (data[pos] << 8 | data[pos + 1])
                if end > n:
                    raise MalformedRequest("truncated field")
                rest.append(_reference_decode(tail, data[pos + 2:end]))
                pos = end
            values.append(rest)
    except (ValueError, IndexError) as exc:
        raise MalformedRequest(f"{len(types)} fields expected") from exc
    if pos != n:
        raise MalformedRequest(f"more than {len(types)} fields")
    for i, cls, count in spreads:
        values[i:i + count] = [cls(*values[i:i + count])]
    return values


# Every layout: each schema request and reply, each record's and its views,
# and the module-level ones, as (fields, its pack, its unpack); and a batch of
# log entries as wire.encode and wire.decode carry it by message name.
SCHEMA_LAYOUTS = {
    f"{message.name}.{side}": layout
    for message in wire.SCHEMA.values()
    for side, layout in (("request", message.request), ("reply", message.reply))
    if layout is not None
}
ALL_LAYOUTS = {**SCHEMA_LAYOUTS, **{layout.name: layout for layout in LAYOUTS}}
CODECS = {
    name: (layout.fields, layout.pack, layout.unpack) for name, layout in ALL_LAYOUTS.items()
} | {
    "entries": ((wire.many(LogEntry),), lambda v: wire.encode("pull", *v, reply=True),
                lambda data: wire.decode("pull", data, reply=True)),
}


def test_every_schema_layout_is_covered():
    assert len(SCHEMA_LAYOUTS) == sum(
        (m.request is not None) + (m.reply is not None) for m in wire.SCHEMA.values()
    )
    assert len(ALL_LAYOUTS) == len(SCHEMA_LAYOUTS) + len(LAYOUTS)


@pytest.mark.parametrize("name", CODECS)
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_generated_pack_matches_the_reference(name, data):
    fields, pack, _ = CODECS[name]
    values = data.draw(st.tuples(*[value_of(t) for t in fields]))
    assert pack(values) == reference_pack(fields, values)
    if name in ALL_LAYOUTS:
        for wrong in (values + (None,), values[:-1]):
            if len(wrong) != len(values):
                with pytest.raises(TypeError):
                    pack(wrong)


def _read(unpack, data):
    try:
        return tuple(unpack(data))
    except MalformedRequest:
        return MalformedRequest


@settings(max_examples=300, deadline=None)
@given(data=HOSTILE)
def test_generated_unpack_matches_the_reference_on_hostile_input(data):
    for fields, _, unpack in CODECS.values():
        assert _read(unpack, data) == _read(lambda d: reference_unpack(fields, d), data)


# Per layout, the index of each value that can carry a field over 65535 bytes:
# a STR or RAW field, or a many tail of them or of records that hold one.
def _oversizable(t) -> bool:
    if isinstance(t, wire.many):
        t = t.type
    if isinstance(t, type):  # a record, in a batch or as one field
        return any(_oversizable(u) for u in t.LAYOUT.fields)
    return t in (wire.STR, wire.RAW)


OVERSIZED = {
    name: [i for i, t in enumerate(layout.fields) if _oversizable(t)] for name, layout in ALL_LAYOUTS.items()
}


def _big(t, data):
    """A value of field type t that carries a field over 65535 bytes."""
    if isinstance(t, wire.many):
        return [_big(t.type, data)]
    if isinstance(t, type):  # a record: its first field that can carry one made big
        name, u = next((n, u) for n, u in zip(t.LAYOUT.names, t.LAYOUT.fields) if _oversizable(u))
        return dataclasses.replace(data.draw(value_of(t)), **{name: _big(u, data)})
    return "x" * 65536 if t is wire.STR else b"x" * 65536


@pytest.mark.parametrize("name", [name for name, where in OVERSIZED.items() if where])
@settings(max_examples=5, deadline=None)
@given(data=st.data())
def test_generated_pack_refuses_a_field_over_65535_bytes(name, data):
    # A batch tail is bounded only by the frame, but each of its entries is one field.
    layout = ALL_LAYOUTS[name]
    values = list(data.draw(st.tuples(*[value_of(t) for t in layout.fields])))
    for i in OVERSIZED[name]:
        changed = values[:i] + [_big(layout.fields[i], data)] + values[i + 1:]
        with pytest.raises(MalformedRequest):
            layout.pack(changed)
