"""Binary framing and field packing shared by every component.

Frame layout (bit-exact, identical over TCP and UDP carriers):

    4 bytes  big-endian payload length
    1 byte   message type code
    N bytes  payload

Structured payloads concatenate fields, each prefixed with a 2-byte
big-endian length; integers travel as ASCII decimal, addresses as
"host:port" strings, absent optional fields as zero-length fields.
Replies put a status field first: b"ok" or an error code from errors.py.
"""
from __future__ import annotations

import struct
from dataclasses import dataclass

from .errors import MalformedRequest, error_for_code

# Message type codes. 1-21 form the public protocol map; 32-40 are ring
# maintenance / bridging plumbing that the public map does not name.
RELAY_REGISTER = 1
RELAY_UPDATE = 2
REQUEST_RELAY = 3
NO_RELAY_AVAILABLE = 4
IS_SERVER = 5
CHALLENGE = 6
CHALLENGE_REPLY = 7
SERVER_IS_ALIVE = 8
REGISTER_PEER = 9
SESSION_KEY = 10
REGISTRATION_PAYLOAD = 11
PEER_REGISTERED = 12
LOCATE_PEER = 13
PEER_INFO = 14
FRIEND_REQUEST = 15
CERT_REPLY = 16
PASSPHRASE_BLOB = 17
CHORD_LOOKUP = 18
CHORD_REPLY = 19
COMPLAINT = 20
APP_DATA = 21

RING_STATE = 32
RING_CLOSEST = 33
RING_NOTIFY = 34
RING_REPLICATE = 35
RING_TRANSFER = 36
PUNCH_COORDINATE = 37
BRIDGE_OPEN = 38

MSG_NAMES = {
    1: "relay_register",
    2: "relay_update",
    3: "request_relay",
    4: "no_relay_available",
    5: "is_server",
    6: "challenge",
    7: "challenge_reply",
    8: "server_is_alive",
    9: "register_peer",
    10: "session_key",
    11: "registration_payload",
    12: "peer_registered",
    13: "locate_peer",
    14: "peer_info",
    15: "friend_request",
    16: "cert_reply",
    17: "passphrase_blob",
    18: "chord_lookup",
    19: "chord_reply",
    20: "complaint",
    21: "app_data",
    32: "ring_state",
    33: "ring_closest",
    34: "ring_notify",
    35: "ring_replicate",
    36: "ring_transfer",
    37: "punch_coordinate",
    38: "bridge_open",
}

MAX_FIELD = 0xFFFF
MAX_FRAME_PAYLOAD = 16 * 1024 * 1024

_HEADER = struct.Struct(">IB")


@dataclass(frozen=True)
class Frame:
    msg_type: int
    payload: bytes = b""

    def encode(self) -> bytes:
        if not 0 <= self.msg_type <= 255:
            raise MalformedRequest(f"msg_type out of range: {self.msg_type}")
        if len(self.payload) > MAX_FRAME_PAYLOAD:
            raise MalformedRequest("frame payload too large")
        return _HEADER.pack(len(self.payload), self.msg_type) + self.payload


def decode_frame(data: bytes) -> Frame:
    """Decode one complete frame; the inverse of Frame.encode."""
    if len(data) < _HEADER.size:
        raise MalformedRequest("short frame header")
    length, msg_type = _HEADER.unpack_from(data)
    if len(data) != _HEADER.size + length:
        raise MalformedRequest("frame length mismatch")
    return Frame(msg_type, data[_HEADER.size:])


def frame_from_stream(read) -> Frame:
    """Read one frame from a callable read(n) that returns exactly n bytes."""
    header = read(_HEADER.size)
    length, msg_type = _HEADER.unpack(header)
    if length > MAX_FRAME_PAYLOAD:
        raise MalformedRequest("frame payload too large")
    payload = read(length) if length else b""
    return Frame(msg_type, payload)


def pack_fields(*fields: bytes) -> bytes:
    """Concatenate fields, each with a 2-byte big-endian length prefix."""
    out = bytearray()
    for field in fields:
        if len(field) > MAX_FIELD:
            raise MalformedRequest("field exceeds 65535 bytes")
        out += len(field).to_bytes(2, "big")
        out += field
    return bytes(out)


def unpack_fields(data: bytes, expect: int | None = None) -> list[bytes]:
    """Split a pack_fields buffer back into its fields."""
    fields: list[bytes] = []
    pos = 0
    n = len(data)
    while pos < n:
        if pos + 2 > n:
            raise MalformedRequest("truncated field length")
        length = int.from_bytes(data[pos:pos + 2], "big")
        pos += 2
        if pos + length > n:
            raise MalformedRequest("truncated field body")
        fields.append(data[pos:pos + length])
        pos += length
    if expect is not None and len(fields) != expect:
        raise MalformedRequest(f"expected {expect} fields, got {len(fields)}")
    return fields


def pack_str(value: str) -> bytes:
    return value.encode("utf-8")


def unpack_str(field: bytes) -> str:
    try:
        return field.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise MalformedRequest("invalid utf-8 field") from exc


def pack_int(value: int) -> bytes:
    return str(int(value)).encode("ascii")


def unpack_int(field: bytes) -> int:
    """Inverse of pack_int: ASCII decimal, optional leading minus; b"" reads 0."""
    if field == b"":
        return 0
    digits = field[1:] if field[:1] == b"-" else field
    if not digits.isdigit():  # bytes.isdigit is ASCII-only
        raise MalformedRequest("invalid integer field")
    try:
        return int(field)
    except ValueError as exc:  # longer than the interpreter's digit limit
        raise MalformedRequest("invalid integer field") from exc


def ok_reply(msg_type: int, *fields: bytes) -> Frame:
    return Frame(msg_type, pack_fields(b"ok", *fields))


def err_reply(msg_type: int, code: str, message: str = "") -> Frame:
    return Frame(msg_type, pack_fields(code.encode("ascii"), message.encode("utf-8")))


def open_reply(frame: Frame) -> list[bytes]:
    """Unpack a reply; raise the reported error unless status is ok.

    Returns the fields after the status field.
    """
    fields = unpack_fields(frame.payload)
    if not fields:
        raise MalformedRequest("empty reply")
    status = fields[0]
    if status == b"ok":
        return fields[1:]
    message = unpack_str(fields[1]) if len(fields) > 1 else ""
    raise error_for_code(status.decode("ascii", "replace"), message)
