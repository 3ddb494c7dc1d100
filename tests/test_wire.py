import pytest
from hypothesis import given, strategies as st

from friendmesh import wire
from friendmesh.errors import MalformedRequest, NotFound


@given(st.integers(min_value=0, max_value=255), st.binary(max_size=4096))
def test_frame_roundtrip(msg_type, payload):
    frame = wire.Frame(msg_type, payload)
    assert wire.decode_frame(frame.encode()) == frame


def test_frame_header_layout():
    frame = wire.Frame(wire.APP_DATA, b"abc")
    raw = frame.encode()
    assert raw[:4] == (3).to_bytes(4, "big")
    assert raw[4] == 21
    assert raw[5:] == b"abc"


def test_decode_rejects_length_mismatch():
    raw = wire.Frame(1, b"xy").encode()
    with pytest.raises(MalformedRequest):
        wire.decode_frame(raw + b"z")
    with pytest.raises(MalformedRequest):
        wire.decode_frame(raw[:-1])


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


def test_reply_status_convention():
    reply = wire.ok_reply(wire.PEER_INFO, b"body")
    assert wire.open_reply(reply) == [b"body"]
    err = wire.err_reply(wire.PEER_INFO, "not_found", "no such passphrase")
    with pytest.raises(NotFound):
        wire.open_reply(err)
