"""Binary framing, field packing and the message schema of every component.

Frame layout (bit-exact, identical over TCP and in the simulator):

    4 bytes  big-endian payload length
    1 byte   message type code
    N bytes  payload

Structured payloads concatenate fields, each prefixed with a 2-byte
big-endian length; integers travel as ASCII decimal, addresses as
"host:port" strings. Replies put a status field first: b"ok" or an error
code from errors.py.

The schema at the end of this module declares every message layout once:
each message code (1-21 the public protocol, 32-38 ring and bridging
plumbing) and each app kind with the typed fields of its request and of
its reply after the status field. An app kind is an operation on an
established secure session (secure.py), a friend's or a rendezvous
server's: the plaintext inside APP_DATA is pack(kind) and then the
request's fields, and a reply's plaintext is laid out as a plain reply. A field type has encode(value) -> bytes and
decode(bytes) -> value: STR, INT (strict decimal), IDENT (hexadecimal),
RAW, FLAG, a record class, list_of(T) (one field holding zero or more T
fields) or another codec. The last type of a layout may be many(T): zero
or more T fields, carried as one list value. A layout of None is a payload
the schema does not read: ciphertext, a request served whatever it
carries, or a code that only names a reply.

Records (certificates, registration rows, complaints, log entries, ...)
declare their layout once too, with @record(field types) over their
dataclass fields in order. The class gets LAYOUT, encode() and decode()
from that one declaration and is itself a field type. Layouts that are not
classes (a sealed blob, a certificate request) are Layout objects. A
layout's spread(R) stands for record R's fields, in place and flat on the
wire, and reads back as one R value: a RegistrationRecord carries its
SignedDigest this way. A view of a record's layout packs some of its fields,
for example what a signature or a digest covers.

Layout.unpack is the one loop that reads fields, for messages and records
alike; decode() reads a message through it. It checks the field count and
every field's type and raises MalformedRequest on any mismatch, never
IndexError or ValueError, so a server answers a hostile request with a
coded error and a client meets a hostile reply as a ProtocolError.
"""
from __future__ import annotations

import dataclasses
import struct
from dataclasses import dataclass
from itertools import chain, repeat
from operator import attrgetter
from typing import Any, Callable, NamedTuple

from .errors import MalformedRequest, ProtocolError, error_for_code

MAX_FIELD = 0xFFFF
MAX_FRAME_PAYLOAD = 16 * 1024 * 1024

_HEADER = struct.Struct(">IB")
_LENGTH = struct.Struct(">H")


@dataclass(slots=True)
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
    """Inverse of pack_ident: lower-case hex digits only, so no sign, prefix,
    space or underscore that int(text, 16) would accept."""
    if not field or field.translate(None, b"0123456789abcdef"):
        raise MalformedRequest("bad identifier")
    return int(field, 16)


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


# -- layouts ------------------------------------------------------------------


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


class spread(NamedTuple):
    """A record type whose own fields stand in place, read back as one value."""

    type: Any


class Layout:
    """One declared field sequence, and the one loop that packs and reads it.

    fields: field types in order. The last may be many(T); spread(R) stands
    for record type R's fields. A record's layout (or a view of it) also
    holds the attribute names its values come from.
    """

    __slots__ = ("name", "fields", "types", "tail", "names", "values", "_spreads")

    def __init__(self, name: str, fields: tuple, names: tuple | None = None):
        self.name = name
        self.fields = fields = tuple(fields)
        self.tail = None
        if fields and isinstance(fields[-1], many):
            fields, self.tail = fields[:-1], fields[-1].type
        types: list = []
        spreads = []  # (value index, record type, field count)
        for i, t in enumerate(fields):
            if isinstance(t, spread):
                inner = t.type.LAYOUT
                if inner.tail is not None or inner._spreads:
                    raise TypeError(f"{name}: only a flat record spreads")
                spreads.append((i, t.type, len(inner.types)))
                types.extend(inner.types)
            else:
                types.append(t)
        self.types = tuple(types)  # one per field, spreads expanded
        self._spreads = tuple(spreads)
        self.names = names
        self.values = attrgetter(*names) if names else None  # record -> its values, in order

    def view(self, *names: str) -> "Layout":
        """The layout of some of this record's fields, in the order named."""
        by_name = dict(zip(self.names, self.fields))
        return Layout(f"{self.name}({', '.join(names)})", [by_name[n] for n in names], names)

    def encode(self, obj) -> bytes:
        """A record's named fields, packed."""
        return self.pack(self.values(obj))

    def pack(self, values) -> bytes:
        """The packed fields carrying values, in order; a variadic tail is
        passed as one iterable and a spread record as one value."""
        if len(values) != len(self.fields):
            raise TypeError(f"{self.name} takes {len(self.fields)} values, got {len(values)}")
        if self._spreads:
            values = list(values)
            for i, cls, _ in reversed(self._spreads):
                values[i:i + 1] = cls.LAYOUT.values(values[i])
        pairs = zip(self.types, values)
        if self.tail is not None:
            pairs = chain(pairs, zip(repeat(self.tail), values[-1]))
        parts = []
        try:
            for t, value in pairs:
                field = t.encode(value)
                parts.append(_LENGTH.pack(len(field)))
                parts.append(field)
        except struct.error as exc:  # longer than MAX_FIELD
            raise MalformedRequest(f"{self.name}: field exceeds 65535 bytes") from exc
        return b"".join(parts)

    def unpack(self, data: bytes, pos: int = 0) -> list:
        """The values read from data[pos:]; MalformedRequest unless the
        fields there are exactly this layout's."""
        values = []
        n = len(data)
        try:
            for t in self.types:  # read_field, inlined: this loop runs for every field
                end = pos + 2 + (data[pos] << 8 | data[pos + 1])  # IndexError: no field left
                if end > n:
                    raise MalformedRequest(f"{self.name}: truncated field")
                values.append(t.decode(data[pos + 2:end]))
                pos = end
            if self.tail is not None:
                tail, rest = self.tail, []
                while pos < n:
                    end = pos + 2 + (data[pos] << 8 | data[pos + 1])
                    if end > n:
                        raise MalformedRequest(f"{self.name}: truncated field")
                    rest.append(tail.decode(data[pos + 2:end]))
                    pos = end
                values.append(rest)
        except (ValueError, IndexError) as exc:  # too few fields, or a decoder's slip
            raise MalformedRequest(f"{self.name}: {len(self.types)} fields expected") from exc
        if pos != n:
            raise MalformedRequest(f"{self.name}: more than {len(self.types)} fields")
        for i, cls, count in self._spreads:
            values[i:i + count] = [cls(*values[i:i + count])]
        return values


def record(*fields):
    """Class decorator: a dataclass's init fields travel, in order, as fields.

    Gives the class its LAYOUT, encode() and the classmethod decode(data),
    so the class itself is a field type.
    """

    def declare(cls):
        names = tuple(f.name for f in dataclasses.fields(cls) if f.init)
        if len(names) != len(fields):
            raise TypeError(f"{cls.__name__}: {len(names)} fields, {len(fields)} types")
        layout = cls.LAYOUT = Layout(cls.__name__, fields, names)

        def encode(self) -> bytes:
            return layout.pack(layout.values(self))

        def decode(cls, data: bytes):
            return cls(*layout.unpack(data))

        cls.encode = encode
        cls.decode = classmethod(decode)
        return cls

    return declare


def list_of(t, name: str) -> Field:
    """A field type: one field holding zero or more t fields, as a list."""
    layout = Layout(name, (many(t),))

    def encode(items) -> bytes:
        return layout.pack((items,))

    def decode(data: bytes) -> list:
        return layout.unpack(data)[0]

    return Field(encode, decode)


# -- the message schema ---------------------------------------------------------


class Message(NamedTuple):
    name: str
    request: Layout | None  # None: not read
    reply: Layout | None


SCHEMA: dict[int | str, Message] = {}
_NOTHING = Layout("nothing", ())


def _define(key: int | str, name: str, request: tuple | None, reply: tuple | None) -> int | str:
    SCHEMA[key] = Message(
        name,
        None if request is None else Layout(name, request),
        None if reply is None else Layout(name, reply),
    )
    return key


def _app(kind: str, request: tuple, reply: tuple) -> None:
    _define(kind, kind, request, reply)


def encode(key: int | str, *values: Any, reply: bool = False) -> bytes:
    """The packed fields of key's request (or reply) carrying values, in
    order; a variadic tail is passed as one iterable."""
    message = SCHEMA[key]
    return ((message.reply if reply else message.request) or _NOTHING).pack(values)


def decode(key: int | str, data: bytes, pos: int = 0, reply: bool = False) -> tuple:
    """The values of key's request (or reply) read from data[pos:]."""
    message = SCHEMA.get(key)
    if message is None:
        raise MalformedRequest(f"unknown message {key!r}")
    layout = message.reply if reply else message.request
    return () if layout is None else tuple(layout.unpack(data, pos))


def call(channel, code: int, *values: Any, expect: int | None = None) -> tuple:
    """Send code's request; return its reply's values. expect: the only reply code accepted."""
    frame = channel.request(Frame(code, encode(code, *values)))
    if expect is not None and frame.msg_type != expect:
        raise ProtocolError(f"expected {SCHEMA[expect].name}, got {frame.msg_type}")
    return open_reply(frame, code)


OK = pack_fields(b"ok")  # the status field of every ok reply


def reply(code: int, *values: Any, msg_type: int | None = None) -> Frame:
    """The ok reply to code's request; msg_type overrides the frame's code."""
    return Frame(code if msg_type is None else msg_type, OK + encode(code, *values, reply=True))


# The record types import this module's primitives; the package imports
# this module first, so those exist by the time these lines run.
from .identity import Certificate  # noqa: E402
from .profile import VECTOR  # noqa: E402
from .records import MIRROR_TABLE, RING_ROW, FriendshipRequestRecord, RegistrationRecord  # noqa: E402
from .sentinel import Complaint  # noqa: E402

# Each line: code = (code, name, request fields, reply fields after "ok").
# A comment names the fields; "(as X)" is the reply's frame code when it
# differs from the request's.
RELAY_REGISTER = _define(1, "relay_register", (INT, INT), (INT,))  # port, capacity -> refresh ms
RELAY_UPDATE = _define(2, "relay_update", (INT, INT, INT), ())  # port, load, capacity
REQUEST_RELAY = _define(3, "request_relay", None, (STR, INT))  # -> host, port
NO_RELAY_AVAILABLE = _define(4, "no_relay_available", None, None)  # the reply to 3 when none
IS_SERVER = _define(5, "is_server", (Certificate,), (RAW,))  # -> sealed challenge (as 6)
CHALLENGE = _define(6, "challenge", None, None)
CHALLENGE_REPLY = _define(7, "challenge_reply", (RAW,), (INT, RAW))  # opened -> ping ms, token
SERVER_IS_ALIVE = _define(8, "server_is_alive", (RAW,), ())  # token
# The one handshake (secure.py): certificate, nonce -> the session key
# reply sealed to the initiator (as 10)
REGISTER_PEER = _define(9, "register_peer", (Certificate, RAW), (RAW,))
SESSION_KEY = _define(10, "session_key", None, None)  # only names the reply to 9
# 11, 13, 15 and 17 are the app kinds register, locate, friend_request and
# passphrase_blob below; 12 and 14 are unused.
# The CA's one exchange: sealed certificate request -> sealed certificate
CERT_REPLY = _define(16, "cert_reply", (RAW,), (RAW,))
CHORD_LOOKUP = _define(18, "chord_lookup", (IDENT,), (STR, INT))  # -> successor, hops (as 19)
CHORD_REPLY = _define(19, "chord_reply", None, None)
COMPLAINT = _define(20, "complaint", (spread(Complaint),), ())  # the complaint's fields
APP_DATA = _define(21, "app_data", None, None)  # ciphertext of an app request or reply
RING_STATE = _define(32, "ring_state", None, (STR, many(STR)))  # -> predecessor or "", successors
# -> closest preceding, the successor list: its first entry, then the rest
RING_CLOSEST = _define(33, "ring_closest", (IDENT,), (STR, STR, many(STR)))
# candidate predecessor -> the notified node's predecessor or "", successors
# after the notify: stabilize takes its successor's state from this reply
RING_NOTIFY = _define(34, "ring_notify", (STR,), (STR, many(STR)))
RING_REPLICATE = _define(35, "ring_replicate", (RING_ROW,), (FLAG,))  # -> accepted
RING_TRANSFER = _define(36, "ring_transfer", (STR, many(RING_ROW)), (INT,))  # departing or "" -> accepted
BRIDGE_OPEN = _define(38, "bridge_open", (STR,), ())  # target username

MSG_NAMES = {code: message.name for code, message in SCHEMA.items() if isinstance(code, int)}

# Rendezvous app kinds, each on a rendezvous session.
# The RegistrationRecord's fields in order, less username and last_refresh
# (the signed digest spread as two) -> pending friendship requests
_app("register", RegistrationRecord.LAYOUT.fields[1:-1], (many(FriendshipRequestRecord),))
_app("locate", (STR,), (RegistrationRecord, RAW))  # passphrase -> record, owner certificate
_app("friend_request", (STR,), (RAW,))  # username -> certificate
_app("passphrase_blob", (RAW,), ())  # sealed blob for the last friend_request's user

# Peer app kinds, each on a friend channel. Log entries travel as
# profile.encode_entries() bytes: the peer counts their size, and decodes
# them once it knows the sender.
_app("ping", (), ())
# passphrase, friend key, mirror table -> friend key, mirror table
_app("friend_accept", (STR, RAW, MIRROR_TABLE), (RAW, MIRROR_TABLE))
_app("passphrase_update", (STR, RAW), ())  # passphrase, friend key (b"": keep the old one)
_app("note_bad_server", (STR,), ())  # accused server
_app("mirror_init", (STR, STR, RAW), ())  # owner, allowed users, entries
_app("sync_vec", (STR,), (VECTOR,))  # owner -> version vector
_app("sync_push", (STR, RAW, STR), ())  # owner, entries, allowed users ("": keep them)
_app("pull", (STR, VECTOR), (RAW,))  # owner, version vector -> entries
_app("op", (STR, STR, RAW), (INT,))  # owner, path, operation -> version
_app("read", (STR, STR), (RAW,))  # owner, path -> content
