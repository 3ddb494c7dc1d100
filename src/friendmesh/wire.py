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
its reply after the status field, and the frame code that reply and any
refusal travel under: the request's own, but for a handshake hello
(answered as session_key), a chord lookup (as chord_reply) and an app
kind (inside app_data). An app kind is an operation on an established
secure session (secure.py), a friend's, a rendezvous server's or a
relay's: the plaintext inside APP_DATA is pack(kind) and then the
request's fields, and a reply's plaintext is laid out as a plain reply.
A field type has encode(value) -> bytes and decode(bytes) -> value:
STR, INT (strict decimal), IDENT (hexadecimal), RAW, FLAG, a record
class or another codec. The last type of a layout may be many(T): zero or
more T fields, carried as one list value, so a batch (log entries, a mirror
table) is bounded by the frame, not by one field. A layout of None is a
payload the schema does not read: ciphertext, a request served whatever it
carries, or a code that only names a reply.

A request is served by name: serve(handler, frame, who) answers a plain
frame with handler._on_<name>(who, *request values) -> reply values, who
being the connection's SessionContext, and secure.dispatch_app an app kind
the same way, who being the sender's certificate. Each name is declared
once, so one object serves both from one _on_ namespace and a plain frame
never reaches an app kind's handler.

Records (certificates, registration rows, complaints, log entries, ...)
declare their layout once too, with @record(field types) over their
dataclass fields in order. The class gets LAYOUT, encode() and decode()
from that one declaration and is itself a field type. Layouts that are not
classes (a sealed blob, a certificate request) are Layout objects. A
layout's spread(R) stands for record R's fields, in place and flat on the
wire, and reads back as one R value: a RegistrationRecord carries its
SignedDigest this way. A view of a record's layout packs some of its fields,
for example what a signature or a digest covers.

Each Layout generates its pack and unpack once, when it is declared, as
straight-line code with one step per field (the way dataclasses and
namedtuple generate their methods). The schema stays the one declaration,
and no loop walks the field types per message. encode(), decode(), call()
and reply() use them for messages, and a record's encode() and decode()
are its layout's generated functions. An unpack checks the field count and
every field's type and raises MalformedRequest on any mismatch, never
IndexError or ValueError, so a server answers a hostile request with a
coded error and a client meets a hostile reply as a ProtocolError.
"""
from __future__ import annotations

import dataclasses
import struct
from dataclasses import dataclass
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


def unpack_fields(data: bytes) -> list[bytes]:
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
    return fields


def pack_str(value: str) -> bytes:
    return value.encode("utf-8")


def unpack_str(field: bytes) -> str:
    try:
        return field.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise MalformedRequest("invalid utf-8 field") from exc


def pack_int(value: int) -> bytes:
    return b"%d" % value


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
    """The refusal of a msg_type request, under the reply code SCHEMA declares for it."""
    declared = SCHEMA.get(msg_type)
    reply_code = msg_type if declared is None else declared.reply_code
    return Frame(reply_code, pack_fields(code.encode("ascii"), message.encode("utf-8")))


def read_field(data: bytes, pos: int = 0) -> tuple[bytes, int]:
    """The field starting at pos, and the position after it."""
    end = pos + 2
    if end > len(data):
        raise MalformedRequest("truncated field length")
    end += data[pos] << 8 | data[pos + 1]
    if end > len(data):
        raise MalformedRequest("truncated field body")
    return data[pos + 2:end], end


OK = pack_fields(b"ok")  # the status field of every ok reply


def open_reply(frame: Frame, key: int | str | None = None) -> list[bytes] | tuple:
    """Unpack a reply; raise the reported error unless status is ok.

    Returns the fields after the status field, or, given the request's
    SCHEMA key, the values its reply layout reads from them; then a reply
    under another frame code than the key's reply code is a ProtocolError.
    """
    if key is not None and frame.msg_type != SCHEMA[key].reply_code:
        raise ProtocolError(f"{SCHEMA[key].name}: reply under frame code {frame.msg_type}")
    data = frame.payload
    if data.startswith(OK):
        return unpack_fields(data)[1:] if key is None else decode(key, data, len(OK), reply=True)
    status, _ = read_field(data)
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
    """One declared field sequence, and its pack and unpack, generated once.

    fields: field types in order. The last may be many(T); spread(R) stands
    for record type R's fields. A record's layout (or a view of it) also
    holds the attribute names its values come from, and gets encode(obj),
    those attributes packed. A record's own layout (record=True) also gets
    decode(cls, data), the record built from the values read.

    pack(values) -> bytes: the packed fields carrying values, in order; a
    variadic tail is passed as one iterable and a spread record as one
    value. TypeError on a wrong value count, MalformedRequest on a field
    over 65535 bytes.
    unpack(data, pos=0) -> tuple: the values read from data[pos:];
    MalformedRequest unless the fields there are exactly this layout's.
    """

    __slots__ = ("name", "fields", "names", "values", "pack", "unpack", "encode", "decode")

    def __init__(self, name: str, fields: tuple, names: tuple | None = None, record: bool = False):
        self.name = name
        self.fields = tuple(fields)
        self.names = names
        self.values = attrgetter(*names) if names else None  # record -> its values, in order
        code = _generate(name, self.fields, names, record)
        self.pack, self.unpack = code["pack"], code["unpack"]
        self.encode, self.decode = code.get("encode"), code.get("decode")

    def view(self, *names: str) -> "Layout":
        """The layout of some of this record's fields, in the order named."""
        by_name = dict(zip(self.names, self.fields))
        return Layout(f"{self.name}({', '.join(names)})", [by_name[n] for n in names], names)


def _generate(name: str, fields: tuple, names: tuple | None, record: bool) -> dict:
    """A layout's functions, compiled from straight-line source.

    Each field is its own statements, in order, as dataclasses and
    namedtuple generate their methods. The RAW, STR and INT encoders and
    the RAW and STR decoders are written in place; a record type's encode
    and decode are looked up on its class at call time (so a patched one
    is used); any other field type's converters are called directly.
    """
    tail = None
    if fields and isinstance(fields[-1], many):
        fields, tail = fields[:-1], fields[-1].type
    ns: dict = {"MalformedRequest": MalformedRequest, "_H": _LENGTH.pack, "_StructError": struct.error}

    def converter(t, key: str) -> tuple[str, str]:
        """Source of t's encoder and decoder, each with {} for its argument."""
        if t is RAW:
            return "{}", "{}"
        if t is STR:
            return "{}.encode()", "{}.decode()"
        if isinstance(t, type):  # a record
            ns[key] = t
            return f"{key}.encode({{}})", f"{key}.decode({{}})"
        ns[f"{key}e"], ns[f"{key}d"] = t.encode, t.decode
        return ('b"%d" % {}' if t is INT else f"{key}e({{}})"), f"{key}d({{}})"

    flat = []  # per field on the wire, spreads expanded: (value source, encoder, decoder)
    results = []  # per value: its source from the fields read
    for i, t in enumerate(fields):
        if isinstance(t, spread):
            inner = t.type.LAYOUT
            if any(isinstance(u, (many, spread)) for u in inner.fields):
                raise TypeError(f"{name}: only a flat record spreads")
            ns[f"_s{i}"] = t.type
            first = len(flat)
            for n, u in zip(inner.names, inner.fields):
                flat.append((f"v{i}.{n}", *converter(u, f"_t{len(flat)}")))
            results.append(f"_s{i}({', '.join(f'w{j}' for j in range(first, len(flat)))})")
        else:
            results.append(f"w{len(flat)}")
            flat.append((f"v{i}", *converter(t, f"_t{len(flat)}")))
    count = len(flat)
    ns["_TOO_LONG"] = f"{name}: field exceeds 65535 bytes"
    ns["_TRUNCATED"] = f"{name}: truncated field"
    ns["_NOT_UTF8"] = "invalid utf-8 field"
    ns["_EXPECTED"] = f"{name}: {count} fields expected"
    ns["_MORE"] = f"{name}: more than {count} fields"
    ns["_COUNT"] = f"{name} takes {len(fields) + (tail is not None)} values, got {{}}"
    values = [f"v{i}" for i in range(len(fields))]
    if tail is not None:
        values.append("items")
        results.append("rest")
        tail_encoder, tail_decoder = converter(tail, "_tail")

    # pack's and encode's body, once the values are named v0, v1, ...
    body = ["    try:"]
    body += [f"        f{j} = {encoder.format(value)}" for j, (value, encoder, _) in enumerate(flat)]
    parts = "".join(f"_H(len(f{j})), f{j}, " for j in range(count))
    if tail is None:
        body.append(f"        return b\"\".join(({parts}))")
    else:
        body += [
            f"        parts = [{parts}]",
            "        for item in items:",
            f"            f = {tail_encoder.format('item')}",
            "            parts.append(_H(len(f)))",
            "            parts.append(f)",
            "        return b\"\".join(parts)",
        ]
    body += ["    except _StructError as exc:", "        raise MalformedRequest(_TOO_LONG) from exc"]
    source = [
        "def pack(values):",
        "    try:",
        f"        ({''.join(v + ', ' for v in values)}) = values",
        "    except ValueError:",
        "        raise TypeError(_COUNT.format(len(values))) from None",
        *body,
    ]
    if names:
        source.append("def encode(self):")
        source += [f"    {v} = self.{n}" for v, n in zip(values, names)]
        source += body

    # unpack's and decode's body: read_field, once per field
    read = []
    for j, (_, _, decoder) in enumerate(flat):
        read += [
            "        end = pos + 2 + (data[pos] << 8 | data[pos + 1])",  # IndexError: no field left
            "        if end > n:",
            "            raise MalformedRequest(_TRUNCATED)",
            f"        w{j} = {decoder.format('data[pos + 2:end]')}",
            "        pos = end",
        ]
    if tail is not None:
        read += [
            "        rest = []",
            "        while pos < n:",
            "            end = pos + 2 + (data[pos] << 8 | data[pos + 1])",
            "            if end > n:",
            "                raise MalformedRequest(_TRUNCATED)",
            f"            rest.append({tail_decoder.format('data[pos + 2:end]')})",
            "            pos = end",
        ]
    if read:
        read = [
            "    try:",
            *read,
            "    except UnicodeDecodeError as exc:",  # a STR field's, as unpack_str raises it
            "        raise MalformedRequest(_NOT_UTF8) from exc",
            "    except (ValueError, IndexError) as exc:",  # too few fields, or a decoder's slip
            "        raise MalformedRequest(_EXPECTED) from exc",
        ]
    read = ["    n = len(data)", *read, "    if pos != n:", "        raise MalformedRequest(_MORE)"]
    source += ["def unpack(data, pos=0):", *read, f"    return ({''.join(r + ', ' for r in results)})"]
    if record:
        source += ["def decode(cls, data):", "    pos = 0", *read, f"    return cls({', '.join(results)})"]
    exec(compile("\n".join(source), f"<layout {name}>", "exec"), ns)
    return ns


def record(*fields):
    """Class decorator: a dataclass's init fields travel, in order, as fields.

    Gives the class its LAYOUT, encode() (unless the class defines its own)
    and the classmethod decode(data), so the class itself is a field type.
    """

    def declare(cls):
        names = tuple(f.name for f in dataclasses.fields(cls) if f.init)
        if len(names) != len(fields):
            raise TypeError(f"{cls.__name__}: {len(names)} fields, {len(fields)} types")
        layout = cls.LAYOUT = Layout(cls.__name__, fields, names, record=True)
        if "encode" not in vars(cls):
            cls.encode = layout.encode
        cls.decode = classmethod(layout.decode)
        return cls

    return declare


# -- the message schema ---------------------------------------------------------


class Message(NamedTuple):
    name: str
    request: Layout | None  # None: not read
    reply: Layout | None
    reply_code: int  # the frame code its replies and refusals travel under


SCHEMA: dict[int | str, Message] = {}
_NOTHING = Layout("nothing", ())


def _define(key: int | str, name: str, request: tuple | None, reply: tuple | None,
            reply_code: int | None = None) -> int | str:
    # One name, one message: a plain code never reaches a handler of an app kind.
    if key in SCHEMA or any(message.name == name for message in SCHEMA.values()):
        raise ValueError(f"message {key!r} ({name}) declared twice")
    SCHEMA[key] = Message(
        name,
        None if request is None else Layout(name, request),
        None if reply is None else Layout(name, reply),
        key if reply_code is None else reply_code,
    )
    return key


def _app(kind: str, request: tuple, reply: tuple) -> None:
    _define(kind, kind, request, reply, reply_code=APP_DATA)


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
    return () if layout is None else layout.unpack(data, pos)


def call(channel, code: int, *values: Any) -> tuple:
    """Send code's request; return its reply's values."""
    return open_reply(channel.request(Frame(code, (SCHEMA[code].request or _NOTHING).pack(values))), code)


def reply(code: int, *values: Any) -> Frame:
    """The ok reply to code's request, under the reply code SCHEMA declares."""
    message = SCHEMA[code]
    return Frame(message.reply_code, OK + (message.reply or _NOTHING).pack(values))


def serve(handler, frame: Frame, who: Any) -> Frame:
    """Serve a plain request by handler._on_<name>(who, *request values).

    The handler returns the reply values, sent as code's ok reply, or a
    Frame sent as it is. A code it has no method for, a payload that does
    not decode and a ProtocolError it raises are refused with a coded error.
    """
    code = frame.msg_type
    method = getattr(handler, f"_on_{MSG_NAMES.get(code)}", None)
    if method is None:
        return err_reply(code, "malformed_request", "unexpected message")
    try:
        values = method(who, *decode(code, frame.payload))
    except ProtocolError as exc:
        return err_reply(code, exc.code)
    return values if isinstance(values, Frame) else reply(code, *values)


# The record types import this module's primitives; the package imports
# this module first, so those exist by the time these lines run.
from .profile import VECTOR, LogEntry  # noqa: E402
from .records import FriendshipRequestRecord, MirrorEntry, PeerRow  # noqa: E402
from .sentinel import Complaint  # noqa: E402

# Each line: code = (code, name, request fields, reply fields after "ok"),
# and the reply's frame code where it differs from the request's.
# A comment names the fields.
RELAY_REGISTER = _define(1, "relay_register", (INT, INT), (INT,))  # port, capacity -> refresh ms
RELAY_UPDATE = _define(2, "relay_update", (INT, INT, INT), ())  # port, load, capacity
REQUEST_RELAY = _define(3, "request_relay", None, (STR, INT))  # -> host, port
NO_RELAY_AVAILABLE = _define(4, "no_relay_available", None, None)  # the reply to 3 when none
# The one handshake (secure.py): the initiator's certificate, or its tag
# (records.record_tag) to a responder that holds it, and a nonce -> the
# session key reply sealed to the initiator
REGISTER_PEER = _define(9, "register_peer", (RAW, RAW), (RAW,), reply_code=10)
SESSION_KEY = _define(10, "session_key", None, None)  # only names the reply to 9
# 11, 13, 15 and 17 are the app kinds register, locate, friend_request and
# passphrase_blob below; 5-8, 12 and 14 are unused.
# The CA's one exchange: sealed certificate request -> sealed certificate
CERT_REPLY = _define(16, "cert_reply", (RAW,), (RAW,))
CHORD_LOOKUP = _define(18, "chord_lookup", (IDENT,), (STR, INT), reply_code=19)  # -> successor, hops
CHORD_REPLY = _define(19, "chord_reply", None, None)
COMPLAINT = _define(20, "complaint", (spread(Complaint),), ())  # the complaint's fields
APP_DATA = _define(21, "app_data", None, None)  # ciphertext of an app request or reply
RING_STATE = _define(32, "ring_state", None, (STR, many(STR)))  # -> predecessor or "", successors
# -> closest preceding, the successor list: its first entry, then the rest
RING_CLOSEST = _define(33, "ring_closest", (IDENT,), (STR, STR, many(STR)))
# candidate predecessor, the 8-byte tag of the state the notifier last took
# from this node (chord.state_tag; b"" for none) -> whether the notify made the
# candidate the predecessor, then the notified node's predecessor or "" and
# successors after the notify; stabilize takes its successor's state from
# this reply. A state names at least one successor (the node itself when it
# has none), so a reply naming none is "unchanged": the state has the tag.
RING_NOTIFY = _define(34, "ring_notify", (STR, RAW), (FLAG, STR, many(STR)))
RING_REPLICATE = _define(35, "ring_replicate", (many(PeerRow),), (many(FLAG),))  # -> accepted, per row
RING_TRANSFER = _define(36, "ring_transfer", (STR, many(PeerRow)), (INT,))  # departing or "" -> accepted
BRIDGE_OPEN = _define(38, "bridge_open", (STR,), ())  # target username

MSG_NAMES = {code: message.name for code, message in SCHEMA.items() if isinstance(code, int)}

# Rendezvous app kinds, each on a rendezvous session.
# the record's fields less the username, the certificate's, as one field
# (records.REGISTERED), or the tag (records.record_tag) of the record the
# server last accepted from the sender, refused not_found unless the
# sender's row holds it -> pending friendship requests
_app("register", (RAW,), (many(FriendshipRequestRecord),))
# passphrase, the tag of the record the locator holds (records.record_tag;
# b"" for none), whether the owner's certificate is wanted -> the record's
# encoding, or its proof when it has that tag (unchanged), and that
# certificate or b"" (a locator that holds it asks for none)
_app("locate", (STR, RAW, FLAG), (RAW, RAW))
_app("friend_request", (STR,), (RAW,))  # username -> certificate
_app("passphrase_blob", (RAW,), ())  # sealed blob for the last friend_request's user

# The relay app kind, on a relay session. The relay then takes the
# connection over (channel.py) to forward bridged clients' frames to the
# admitted peer, for as long as the connection stays open.
_app("admit", (), ())

# Peer app kinds, each on a friend channel. A batch of log entries or a
# mirror table is its layout's tail, decoded before the handler runs. The
# owner named first in mirror_init and sync_push must be the sender, which
# a peer checks before it decodes the batch (peer.Peer._handle_app).
_app("ping", (), ())
# passphrase, friend key, mirror table -> friend key, mirror table
_app("friend_accept", (STR, RAW, many(MirrorEntry)), (RAW, many(MirrorEntry)))
_app("passphrase_update", (STR, RAW), ())  # passphrase, friend key (b"": keep the old one)
_app("note_bad_server", (STR,), ())  # accused server
_app("mirror_init", (STR, STR, many(LogEntry)), ())  # owner, allowed users, entries
# A mirror sync is one exchange while the replica holds the version vector
# the owner last left on it, two otherwise (peer.Peer._sync_over).
# owner, allowed users ("": keep them), base, entries -> the replica's
# version vector or b"", entries the owner lacks. The base is the tag
# (records.record_tag) of a vector's encoding (profile.encode_vector),
# with the entries past that vector: a replica whose vector has that tag
# merges them and answers b"" and no entries, any other merges nothing
# and answers its vector. Or the base is the owner's vector itself, with
# the entries past the replica's: the replica merges them and answers b""
# and the entries past the owner's vector.
_app("sync_push", (STR, STR, RAW, many(LogEntry)), (RAW, many(LogEntry)))
_app("pull", (STR, VECTOR), (many(LogEntry),))  # a reader's read: owner, version vector -> entries
_app("op", (STR, STR, RAW), (INT,))  # owner, path, operation -> version
