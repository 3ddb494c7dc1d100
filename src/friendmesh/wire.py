"""Binary framing, field packing and the message schema of every component.

Frame layout (bit-exact, identical over TCP and UDP carriers):

    4 bytes  big-endian payload length
    1 byte   message type code
    N bytes  payload

Structured payloads concatenate fields, each prefixed with a 2-byte
big-endian length; integers travel as ASCII decimal, addresses as
"host:port" strings. Replies put a status field first: b"ok" or an error
code from errors.py.

The schema at the end of this module declares every layout once: each
message code (1-21 the public protocol, 32-38 ring and bridging plumbing)
and each peer app kind (the plaintext inside APP_DATA) with the typed
fields of its request and of its reply after the status field (after the
kind, for an app reply). A field type has encode(value) -> bytes and
decode(bytes) -> value: STR, INT (strict decimal), IDENT (hexadecimal),
RAW, FLAG, a record class or a record codec. The last type of a layout may
be many(T): zero or more T fields, carried as one list value. A layout of
None is a payload the schema does not read: ciphertext, a request served
whatever it carries, or a code that only names a reply.

decode() is the one decoder. It checks the field count and every field's
type and raises MalformedRequest on any mismatch, never IndexError or
ValueError, so a server answers a hostile request with a coded error and
a client meets a hostile reply as a ProtocolError.
"""
from __future__ import annotations

import struct
from dataclasses import dataclass
from itertools import chain, repeat
from typing import Any, Callable, NamedTuple

from .errors import MalformedRequest, ProtocolError, error_for_code

MAX_FIELD = 0xFFFF
MAX_FRAME_PAYLOAD = 16 * 1024 * 1024

_HEADER = struct.Struct(">IB")
_LENGTH = struct.Struct(">H")


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
    parts = []
    try:
        for field in fields:
            parts.append(_LENGTH.pack(len(field)))
            parts.append(field)
    except struct.error as exc:  # longer than MAX_FIELD
        raise MalformedRequest("field exceeds 65535 bytes") from exc
    return b"".join(parts)


def unpack_fields(data: bytes, expect: int | None = None) -> list[bytes]:
    """Split a pack_fields buffer back into its fields."""
    fields: list[bytes] = []
    pos = 0
    n = len(data)
    while pos < n:
        if pos + 2 > n:
            raise MalformedRequest("truncated field length")
        length = data[pos] << 8 | data[pos + 1]
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


def pack_ident(ident: int) -> bytes:
    return format(ident, "x").encode("ascii")


def unpack_ident(field: bytes) -> int:
    """Inverse of pack_ident; accepts what int(text, 16) accepts."""
    try:
        return int(field, 16)
    except ValueError as exc:
        raise MalformedRequest("bad identifier") from exc


def ok_reply(msg_type: int, *fields: bytes) -> Frame:
    return Frame(msg_type, pack_fields(b"ok", *fields))


def err_reply(msg_type: int, code: str, message: str = "") -> Frame:
    return Frame(msg_type, pack_fields(code.encode("ascii"), message.encode("utf-8")))


def read_field(data: bytes, pos: int = 0) -> tuple[bytes, int]:
    """The field starting at pos, and the position after it."""
    end = pos + 2
    if end > len(data):
        raise MalformedRequest("truncated field length")
    end += data[pos] << 8 | data[pos + 1]
    if end > len(data):
        raise MalformedRequest("truncated field body")
    return data[pos + 2:end], end


def open_reply(frame: Frame, key: int | str | None = None) -> list[bytes] | tuple:
    """Unpack a reply; raise the reported error unless status is ok.

    Returns the fields after the status field, or, given the request's
    SCHEMA key, the values its reply layout reads from them.
    """
    data = frame.payload
    status, pos = read_field(data)
    if status == b"ok":
        return unpack_fields(data)[1:] if key is None else decode(key, data, pos, reply=True)
    fields = unpack_fields(data)
    message = unpack_str(fields[1]) if len(fields) > 1 else ""
    raise error_for_code(status.decode("ascii", "replace"), message)


# -- the message schema ---------------------------------------------------------


class Field(NamedTuple):
    """A field type: the two converters of one field's value."""

    encode: Callable[[Any], bytes]
    decode: Callable[[bytes], Any]


def _same(data: bytes) -> bytes:
    return data


STR = Field(pack_str, unpack_str)
INT = Field(pack_int, unpack_int)
IDENT = Field(pack_ident, unpack_ident)
RAW = Field(_same, _same)
FLAG = Field(lambda value: b"1" if value else b"0", lambda field: field == b"1")


class many(NamedTuple):
    """A layout's variadic tail: zero or more fields of one type."""

    type: Any


class Message(NamedTuple):
    name: str
    request: tuple | None  # (field types, tail type or None); None: not read
    reply: tuple | None
    reply_kind: str  # app kinds: the kind an ok reply carries


SCHEMA: dict[int | str, Message] = {}


def _layout(types: tuple | None) -> tuple | None:
    if types and isinstance(types[-1], many):
        return types[:-1], types[-1].type
    return None if types is None else (types, None)


def _define(key: int | str, name: str, request: tuple | None, reply: tuple | None,
            reply_kind: str = "ok") -> int | str:
    SCHEMA[key] = Message(name, _layout(request), _layout(reply), reply_kind)
    return key


def _app(kind: str, request: tuple, reply: tuple, reply_kind: str = "ok") -> None:
    _define(kind, kind, request, reply, reply_kind)


def encode(key: int | str, *values: Any, reply: bool = False) -> bytes:
    """The packed fields of key's request (or reply) carrying values, in
    order; a variadic tail is passed as one iterable."""
    message = SCHEMA[key]
    types, tail = (message.reply if reply else message.request) or ((), None)
    if len(values) != len(types) + (tail is not None):
        raise TypeError(f"{message.name} takes {len(types)} values, got {len(values)}")
    pairs = zip(types, values)
    if tail is not None:
        pairs = chain(pairs, zip(repeat(tail), values[-1]))
    parts = []
    try:
        for t, value in pairs:
            field = t.encode(value)
            parts.append(_LENGTH.pack(len(field)))
            parts.append(field)
    except struct.error as exc:  # longer than MAX_FIELD
        raise MalformedRequest(f"{message.name}: field exceeds 65535 bytes") from exc
    return b"".join(parts)


def decode(key: int | str, data: bytes, pos: int = 0, reply: bool = False) -> tuple:
    """The values of key's request (or reply) read from data[pos:]."""
    message = SCHEMA.get(key)
    if message is None:
        raise MalformedRequest(f"unknown message {key!r}")
    layout = message.reply if reply else message.request
    if layout is None:
        return ()
    types, tail = layout
    values = []
    n = len(data)
    try:
        for t in types:  # read_field, inlined: this loop runs for every message
            end = pos + 2 + (data[pos] << 8 | data[pos + 1])  # IndexError: no field left
            if end > n:
                raise MalformedRequest(f"{message.name}: truncated field")
            values.append(t.decode(data[pos + 2:end]))
            pos = end
        if tail is not None:
            rest = []
            while pos < n:
                field, pos = read_field(data, pos)
                rest.append(tail.decode(field))
            values.append(rest)
    except (ValueError, IndexError) as exc:  # too few fields, or a record decoder's slip
        raise MalformedRequest(f"{message.name}: {len(types)} fields expected") from exc
    if pos != n:
        raise MalformedRequest(f"{message.name}: more than {len(types)} fields")
    return tuple(values)


def call(channel, code: int, *values: Any, expect: int | None = None) -> tuple:
    """Send code's request; return its reply's values. expect: the only reply code accepted."""
    frame = channel.request(Frame(code, encode(code, *values)))
    if expect is not None and frame.msg_type != expect:
        raise ProtocolError(f"expected {SCHEMA[expect].name}, got {frame.msg_type}")
    return open_reply(frame, code)


_OK = pack_fields(b"ok")


def reply(code: int, *values: Any, msg_type: int | None = None) -> Frame:
    """The ok reply to code's request; msg_type overrides the frame's code."""
    return Frame(code if msg_type is None else msg_type, _OK + encode(code, *values, reply=True))


# The record types import this module's primitives; the package imports
# this module first, so those exist by the time these lines run.
from .identity import Certificate  # noqa: E402
from .profile import VECTOR  # noqa: E402
from .records import MIRROR_TABLE, RING_ROW, FriendshipRequestRecord, RegistrationRecord  # noqa: E402

# Each line: code = (code, name, request fields, reply fields after "ok").
# A comment names the fields; "(as X)" is the reply's frame code when it
# differs from the request's; "sealed" marks a session-encrypted request.
RELAY_REGISTER = _define(1, "relay_register", (INT, INT), (INT,))  # port, capacity -> refresh ms
RELAY_UPDATE = _define(2, "relay_update", (INT, INT, INT), ())  # port, load, capacity
REQUEST_RELAY = _define(3, "request_relay", None, (STR, INT))  # -> host, port
NO_RELAY_AVAILABLE = _define(4, "no_relay_available", None, None)  # the reply to 3 when none
IS_SERVER = _define(5, "is_server", (Certificate,), (RAW,))  # -> sealed challenge (as 6)
CHALLENGE = _define(6, "challenge", None, None)
CHALLENGE_REPLY = _define(7, "challenge_reply", (RAW,), (INT, RAW))  # opened -> ping ms, token
SERVER_IS_ALIVE = _define(8, "server_is_alive", (RAW,), ())  # token
# certificate -> sealed session key (rendezvous, as 10) or responder certificate (peer, as 16)
REGISTER_PEER = _define(9, "register_peer", (Certificate,), (RAW,))
SESSION_KEY = _define(10, "session_key", (RAW,), ())  # signed-then-sealed session key (peer)
# sealed: the RegistrationRecord's fields in order, less username and
# last_refresh, with the signed digest as two fields -> pending requests (as 12)
REGISTRATION_PAYLOAD = _define(
    11, "registration_payload",
    (STR, INT, STR, STR, STR, INT, STR, RAW, RAW, RAW), (many(FriendshipRequestRecord),),
)
PEER_REGISTERED = _define(12, "peer_registered", None, None)
# sealed: passphrase -> record, owner certificate (as 14)
LOCATE_PEER = _define(13, "locate_peer", (STR,), (RegistrationRecord, RAW))
PEER_INFO = _define(14, "peer_info", None, None)
FRIEND_REQUEST = _define(15, "friend_request", (STR,), (RAW,))  # sealed: user -> certificate (as 16)
CERT_REPLY = _define(16, "cert_reply", (RAW,), (RAW,))  # sealed certificate request -> certificate
PASSPHRASE_BLOB = _define(17, "passphrase_blob", (RAW,), ())  # sealed: blob for the last target
CHORD_LOOKUP = _define(18, "chord_lookup", (IDENT,), (STR, INT))  # -> successor, hops (as 19)
CHORD_REPLY = _define(19, "chord_reply", None, None)
# accused, complainant, timestamp, signature, complainant certificate
COMPLAINT = _define(20, "complaint", (STR, STR, INT, RAW, RAW), ())
APP_DATA = _define(21, "app_data", None, None)  # ciphertext of an app body
RING_STATE = _define(32, "ring_state", None, (STR, many(STR)))  # -> predecessor or "", successors
RING_CLOSEST = _define(33, "ring_closest", (IDENT,), (STR, STR))  # -> closest preceding, successor
RING_NOTIFY = _define(34, "ring_notify", (STR,), ())  # candidate predecessor
RING_REPLICATE = _define(35, "ring_replicate", (RING_ROW,), (FLAG,))  # -> accepted
RING_TRANSFER = _define(36, "ring_transfer", (STR, many(RING_ROW)), (INT,))  # departing or "" -> accepted
PUNCH_COORDINATE = _define(37, "punch_coordinate", None, None)
BRIDGE_OPEN = _define(38, "bridge_open", (STR,), ())  # target username

MSG_NAMES = {code: message.name for code, message in SCHEMA.items() if isinstance(code, int)}

# Peer app kinds. Log entries travel as profile.encode_entries() bytes:
# the peer counts their size, and decodes them once it knows the sender.
_app("ping", (), (), "pong")
# passphrase, friend key, mirror table -> friend key, mirror table
_app("friend_accept", (STR, RAW, MIRROR_TABLE), (RAW, MIRROR_TABLE))
_app("passphrase_update", (STR, RAW), ())  # passphrase, friend key (b"": keep the old one)
_app("note_bad_server", (STR,), ())  # accused server
_app("mirror_init", (STR, STR, RAW), ())  # owner, allowed users, entries
_app("sync_vec", (STR,), (VECTOR,), "vec")  # owner -> version vector
_app("sync_push", (STR, RAW, STR), ())  # owner, entries, allowed users ("": keep them)
_app("pull", (STR, VECTOR), (RAW,), "entries")  # owner, version vector -> entries
_app("op", (STR, STR, RAW), (INT,))  # owner, path, operation -> version
_app("read", (STR, STR), (RAW,))  # owner, path -> content
