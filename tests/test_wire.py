import io
import os
import struct
from itertools import chain, repeat

import pytest
from hypothesis import given, settings, strategies as st

from friendmesh import identity, profile, records, rvclient, secure, sentinel, wire
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

    def _on_ring_notify(self, who, candidate):
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
    (wire.Frame(wire.RING_NOTIFY, wire.pack_fields(b"x:1", b"y:2")), ("malformed_request",)),
    (wire.Frame(wire.RING_NOTIFY, wire.pack_fields(b"x:1")), ("not_found",)),
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
# the registration record lost its unsigned NAT kind; canonical_payload, what
# the owner signs, did not move.

RECORDS = [
    Certificate, SignedDigest, SessionKey, KeyPair, RegistrationRecord, PeerRow, MirrorEntry,
    FriendshipRequestRecord, RelayRecord, Complaint, LogEntry,
]
LAYOUTS = [cls.LAYOUT for cls in RECORDS] + [
    identity._CERT_SIGNED, identity._SEALED, secure._KEY_REPLY, secure._TRANSCRIPT, identity._CERT_REQUEST,
    identity._CERT_REQUEST_BODY, records._CANONICAL, sentinel._COMPLAINT_SIGNED,
    profile._DIGESTED, profile._EXPORT, rvclient._REQUEST_BLOB,
]
FIELDS = [records.MIRROR_TABLE, profile._ENTRIES]

GOLDEN = {
    'signed_digest': '0004010101010003736967',
    'registration_record': (
        '0005616c696365000831302e302e302e310004373530300003756470000831302e302e302e390004'
        '37333030000670687261736500076d6972726f72730004010101010003736967000431323334'
    ),
    'canonical_payload': (
        '000831302e302e302e310004373530300003756470000831302e302e302e39000437333030000670'
        '687261736500076d6972726f7273'
    ),
    'peer_row': (
        '004e0005616c696365000831302e302e302e310004373530300003756470000831302e302e302e39'
        '000437333030000670687261736500076d6972726f72730004010101010003736967000431323334'
        '0004636572740003616263000131'
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
        '0024575055420101010101010101010101010101010101010101010101010101010101010101000c'
        '020202020202020202020202001463b7bd2888de28273466cf0f6b9473e852bf1539'
    ),
    'hello': (
        '001e0005616c696365000350554200026361000765632d70323536000353494700106e6e6e6e6e6e'
        '6e6e6e6e6e6e6e6e6e6e'
    ),
    'key_reply': (
        '0024575055420101010101010101010101010101010101010101010101010101010101010101000c'
        '020202020202020202020202005807c9c959213caa96b8a7d7a337cca9d9c9deba84ebbaec14aeaa'
        'd1c940d6131c1a7f0037680ecf86244b52eacf721e7ba816bfd7a03fbe0bbb71868463371ec333e4'
        '94b1f5f6b07b15d116d0892ba690b29f3e709293a1e8'
    ),
    'cert_request': (
        '005d0026574341505542010101010101010101010101010101010101010101010101010101010101'
        '0101000c020202020202020202020202002507d3a8252334a4fdd09ce98a5ca0a7d18fc5e3dadda7'
        '48fa19830160f3daa1b469fa6d8dfc000232310020916fc69f7d89857d861e2a15849fcec8a8368d'
        '4b0d9d04f664da5324ebf64740'
    ),
    'passphrase_blob': (
        '0024575055420101010101010101010101010101010101010101010101010101010101010101000c'
        '020202020202020202020202001f07d3a8252334a4fdd5bcd4ba3dd4a70352213d115025883e4b7d'
        'd9234c8b43'
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
        '53ccab9913000130'
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
    monkeypatch.setattr(identity, "_wrap_key", lambda pub, key: b"W" + pub + key)
    monkeypatch.setattr(identity, "sign", lambda priv, data: b"S" + identity.sha256(priv + data)[:4])
    monkeypatch.setattr(identity, "check_public_key", lambda pub: pub)  # placeholder keys
    return counter


def fixed_instances(counter, tmp_path) -> dict[str, bytes]:
    sd = SignedDigest(b"\x01" * 4, b"sig")
    rec = RegistrationRecord("alice", "10.0.0.1", 7500, "udp", "10.0.0.9", 7300,
                             "phrase", b"mirrors", sd, last_refresh=1234)
    row = PeerRow(rec, b"cert", ring_id=0xABC, replica=True)
    cert = Certificate("alice", b"PUB", "ca", "ec-p256", b"SIG")
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
        "mirror_table": records.MIRROR_TABLE.encode([MirrorEntry("bob", "p1"),
                                                     MirrorEntry("carol", "p2")]),
        "friendship_request": FriendshipRequestRecord("carol", "alice", b"blob").encode(),
        "relay_record": RelayRecord("10.0.0.9", 7300, 8, 3, 1234).encode(),
        "certificate": cert.encode(),
        "certificate_signed": cert.signed_bytes(),
        "session_key": SessionKey(b"k" * 16).encode(),
        "complaint": complaint.encode(),
        "complaint_signed": complaint.signed_bytes(),
        "log_entry": e1.encode(),
        "log_entry_digest": e1.digest(),
        "entries": profile.encode_entries([e1, e2]),
        "export_log": p.export_log(),
    }
    hello = out["hello"] = wire.encode(wire.REGISTER_PEER, cert, b"n" * secure.NONCE_LEN)
    keys = KeyPair(b"PUB", b"PRIV", "ec-p256")
    for name, make in [
        ("seal", lambda: identity.seal(b"PUB", b"data")),
        ("key_reply", lambda: secure.seal_key_reply(b"PUB", hello, SessionKey(b"k" * 16), cert, keys)),
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
    if t is records.MIRROR_TABLE:
        return st.lists(value_of(MirrorEntry), max_size=3)
    if t is profile._ENTRIES:
        return st.lists(value_of(LogEntry), max_size=3)
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


@pytest.mark.parametrize("field", FIELDS, ids=["mirror_table", "entries"])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_record_field_roundtrip(field, data):
    value = data.draw(value_of(field))
    assert field.decode(field.encode(value)) == value


DECODERS = (
    [cls.decode for cls in RECORDS]
    + [layout.unpack for layout in LAYOUTS]
    + [field.decode for field in FIELDS]
    + [profile.decode_entries]
)
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
# the module-level ones, and each list_of field as (fields, its encode, its decode).
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
    "mirror_table": ((wire.many(MirrorEntry),), lambda v: records.MIRROR_TABLE.encode(v[0]),
                     lambda data: [records.MIRROR_TABLE.decode(data)]),
    "entries": ((wire.many(LogEntry),), lambda v: profile._ENTRIES.encode(v[0]),
                lambda data: [profile._ENTRIES.decode(data)]),
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
# a STR or RAW field, or a many(STR) or many(RAW) tail.
OVERSIZED = {
    name: [i for i, t in enumerate(layout.fields)
           if t in (wire.STR, wire.RAW) or (isinstance(t, wire.many) and t.type in (wire.STR, wire.RAW))]
    for name, layout in ALL_LAYOUTS.items()
}


@pytest.mark.parametrize("name", [name for name, where in OVERSIZED.items() if where])
@settings(max_examples=5, deadline=None)
@given(data=st.data())
def test_generated_pack_refuses_a_field_over_65535_bytes(name, data):
    layout = ALL_LAYOUTS[name]
    values = list(data.draw(st.tuples(*[value_of(t) for t in layout.fields])))
    for i in OVERSIZED[name]:
        t = layout.fields[i]
        big = "x" * 65536 if wire.STR in (t, getattr(t, "type", None)) else b"x" * 65536
        changed = values[:i] + [[big] if isinstance(t, wire.many) else big] + values[i + 1:]
        with pytest.raises(MalformedRequest):
            layout.pack(changed)
