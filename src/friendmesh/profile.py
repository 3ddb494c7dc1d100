"""Versioned profile trees, permissions, update logs, and reconciliation.

A profile is a tree of elements under five components: info, share_board,
events, groups, private_messages. Every component carries an integer
version incremented on each change, and the update log holds every
operation so that replay from an empty profile reproduces the tree
exactly. Synchronization pulls only entries beyond the requester's
version vector; a per-component prefix digest detects post-merge version
renumbering and falls back to a full component resync when it happens.

Each component keeps an index: its entries in version order, whether they
are already in merge order, and a running prefix digest per entry. A pull
or sync therefore costs time in proportion to the delta per component: the
vector and its digests are read off the index, a pull slices from the
requester's version, and a merge that only adds entries after a component's
tail appends them. A component is rebuilt by replay only when new entries
truly interleave with what it holds (or its log was never in merge order).

Permission tables have read/write/no-access member sets holding usernames
or group names; evaluation is deepest element first, individual entries
before group entries, no_access over grants, and default deny. The owner
is an implicit superuser. Private-message payloads are sealed under the
owner's public key by their authors, so mirrors only ever hold ciphertext.
"""
from __future__ import annotations

import hashlib
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from itertools import chain
from operator import attrgetter
from typing import Iterable

from .errors import AccessDenied, InvalidPath, MalformedRequest
from .wire import (
    INT, MAX_FIELD, RAW, STR, Field, Layout, many, pack_fields, pack_str, record, unpack_fields, unpack_str,
)

COMPONENTS = ("info", "share_board", "events", "groups", "private_messages")

READ = "read"
WRITE = "write"
PERMISSION_SETS = ("read", "write", "no_access")


@dataclass
class PermissionTable:
    read: set[str] = field(default_factory=set)
    write: set[str] = field(default_factory=set)
    no_access: set[str] = field(default_factory=set)

    def mentions(self, name: str) -> bool:
        return name in self.read or name in self.write or name in self.no_access

    def grants(self, name: str, mode: str) -> bool:
        if mode == READ:
            return name in self.read or name in self.write
        return name in self.write

    def assign(self, set_name: str, members: set[str]) -> None:
        if set_name not in PERMISSION_SETS:
            raise MalformedRequest(f"unknown permission set {set_name}")
        # Keep the three sets pairwise disjoint: the newest assignment wins.
        for other in (self.read, self.write, self.no_access):
            other.difference_update(members)
        getattr(self, set_name).update(members)


@dataclass
class Element:
    name: str
    content: bytes = b""
    permissions: PermissionTable | None = None
    children: dict[str, "Element"] = field(default_factory=dict)


@record(STR, INT, STR, RAW, INT)
@dataclass(frozen=True, slots=True)
class LogEntry:
    path: str
    version: int
    author: str
    op: bytes
    timestamp: int
    # The digest, computed on first use. It does not cover the version, so
    # a renumbered copy carries it over (see _renumbered).
    _digest: bytes | None = field(default=None, init=False, repr=False, compare=False)
    # The encoding, packed on first use. It covers the version, so a
    # renumbered copy packs its own.
    _encoded: bytes | None = field(default=None, init=False, repr=False, compare=False)

    def content_key(self) -> tuple:
        return (self.timestamp, self.author, self.path, self.op)

    def encode(self) -> bytes:
        encoded = self._encoded
        if encoded is None:
            encoded = _ENCODE(self)
            object.__setattr__(self, "_encoded", encoded)
        return encoded

    def digest(self) -> bytes:
        if self._digest is None:
            object.__setattr__(self, "_digest", hashlib.sha256(_DIGESTED.encode(self)).digest())
        return self._digest


_ENCODE = LogEntry.LAYOUT.encode
# The most decimal digits a version takes: a signed 64-bit count.
_VERSION_DIGITS = 19
# What a log entry's digest covers: every field but the version.
_DIGESTED = LogEntry.LAYOUT.view("path", "author", "op", "timestamp")


# -- operations ---------------------------------------------------------------


def op_set(value: bytes) -> bytes:
    return pack_fields(b"set", value)


def op_add(child_id: str, value: bytes = b"") -> bytes:
    return pack_fields(b"add", pack_str(child_id), value)


def op_remove(child_id: str) -> bytes:
    return pack_fields(b"remove", pack_str(child_id))


def op_perm(set_name: str, members: Iterable[str]) -> bytes:
    return pack_fields(b"perm", pack_str(set_name), pack_str(",".join(sorted(members))))


# Fewest fields each op kind needs, its kind included.
_OP_FIELDS = {b"set": 1, b"add": 2, b"remove": 2, b"perm": 3}


def _decode_op(path: str, op: bytes) -> tuple:
    """Check an op at `path` in full and return it as (kind, *arguments).

    Every failure that depends only on the entry is raised here, so that
    applying the result with create_missing=True cannot fail.
    """
    fields = unpack_fields(op)
    if not fields:
        raise MalformedRequest("empty op")
    kind = fields[0]
    if kind not in _OP_FIELDS:
        raise MalformedRequest(f"unknown op kind {kind!r}")
    if len(fields) < _OP_FIELDS[kind]:
        raise MalformedRequest(f"{kind.decode()} op has {len(fields)} fields")
    if kind == b"set":
        step = (kind, fields[1] if len(fields) > 1 else b"")
    elif kind == b"add":
        child_id = unpack_str(fields[1])
        if not child_id or "/" in child_id:
            raise InvalidPath(child_id)
        step = (kind, child_id, fields[2] if len(fields) > 2 else b"")
    elif kind == b"remove":
        step = (kind, unpack_str(fields[1]))
    else:
        set_name = unpack_str(fields[1])
        if set_name not in PERMISSION_SETS:
            raise MalformedRequest(f"unknown permission set {set_name}")
        step = (kind, set_name, {m for m in unpack_str(fields[2]).split(",") if m})
    if "" in path.split("/")[1:]:
        raise InvalidPath(path)
    return step


def _merge_key(entry: LogEntry) -> tuple:
    return (entry.timestamp, entry.author, entry.digest())


_version = attrgetter("version")


def _renumbered(entry: LogEntry, version: int) -> LogEntry:
    if entry.version == version:
        return entry
    copy = LogEntry(entry.path, version, entry.author, entry.op, entry.timestamp)
    object.__setattr__(copy, "_digest", entry._digest)
    return copy


def _merge_component(entries: list[LogEntry]) -> list[LogEntry]:
    """One component of `merge_logs`: content-dedup (first copy wins), order
    by (timestamp, author, digest), versions renumbered 1..n."""
    unique: dict[tuple, LogEntry] = {}
    for entry in entries:
        unique.setdefault(entry.content_key(), entry)
    ordered = sorted(unique.values(), key=_merge_key)
    return [_renumbered(entry, i) for i, entry in enumerate(ordered, start=1)]


# 16 bytes is plenty for renumber detection and keeps pull headers small.
PREFIX_DIGEST_LEN = 16
_EMPTY_PREFIX = hashlib.sha256().digest()[:PREFIX_DIGEST_LEN]


class _ComponentLog:
    """One component's entries in log (= version) order, and its index.

    `ordered` holds while the entries are strictly sorted by merge key with
    versions 1..n, that is while `merge_logs` would leave them as they are.
    `_prefixes` holds the prefix digest after each entry, 16 bytes apiece.
    """

    __slots__ = ("entries", "ordered", "_hasher", "_prefixes")

    def __init__(self):
        self.entries: list[LogEntry] = []
        self.ordered = True
        self._hasher = hashlib.sha256()
        self._prefixes = bytearray()

    def append(self, entry: LogEntry) -> None:
        entries = self.entries
        self.ordered = (
            self.ordered
            and entry.version == len(entries) + 1
            and (not entries or _merge_key(entries[-1]) < _merge_key(entry))
        )
        entries.append(entry)
        self._hasher.update(entry.digest())
        self._prefixes += self._hasher.copy().digest()[:PREFIX_DIGEST_LEN]

    def prefix_digest(self, upto_version: int) -> bytes:
        # Versions never decrease along the log, so the entries at or below
        # upto_version are a prefix of it.
        count = bisect_right(self.entries, upto_version, key=_version)
        if count == 0:
            return _EMPTY_PREFIX
        return bytes(self._prefixes[(count - 1) * PREFIX_DIGEST_LEN : count * PREFIX_DIGEST_LEN])

    def after(self, version: int) -> list[LogEntry]:
        return self.entries[bisect_right(self.entries, version, key=_version) :]

    def fresh_tail(self, foreign: list[LogEntry]) -> list[LogEntry] | None:
        """The foreign entries not held yet, in merge order, when they all
        sort after the tail; None when this log needs a merge rebuild."""
        if not self.ordered:
            return None
        entries = self.entries
        tail = _merge_key(entries[-1]) if entries else None
        fresh: dict[tuple, LogEntry] = {}
        for entry in foreign:
            key = _merge_key(entry)
            if tail is None or key > tail:
                fresh.setdefault(entry.content_key(), entry)
                continue
            held = entries[bisect_left(entries, key, key=_merge_key)]
            if held.content_key() != entry.content_key():
                return None  # interleaves with what is held
        return sorted(fresh.values(), key=_merge_key)


class Profile:
    def __init__(self, owner: str):
        self.owner = owner
        self.root: dict[str, Element] = {name: Element(name) for name in COMPONENTS}
        self.versions: dict[str, int] = {name: 0 for name in COMPONENTS}
        self.log: list[LogEntry] = []
        self._components = {name: _ComponentLog() for name in COMPONENTS}

    # -- tree access ------------------------------------------------------------

    @staticmethod
    def component_of(path: str) -> str:
        head = path.split("/", 1)[0]
        if head not in COMPONENTS:
            raise InvalidPath(path)
        return head

    def _walk(self, path: str, create: bool = False) -> Element:
        parts = path.split("/")
        if parts[0] not in self.root:
            raise InvalidPath(path)
        node = self.root[parts[0]]
        for part in parts[1:]:
            if not part:
                raise InvalidPath(path)
            child = node.children.get(part)
            if child is None:
                if not create:
                    raise InvalidPath(path)
                child = Element(part)
                node.children[part] = child
            node = child
        return node

    def element(self, path: str) -> Element:
        return self._walk(path)

    def has_element(self, path: str) -> bool:
        try:
            self._walk(path)
            return True
        except InvalidPath:
            return False

    def group_members(self, group_name: str) -> set[str]:
        group = self.root["groups"].children.get(group_name)
        if group is None or not group.content:
            return set()
        return {m for m in group.content.decode("utf-8", "replace").split(",") if m}

    # -- permissions ----------------------------------------------------------------

    def check_permission(self, user: str, element_path: str, mode: str) -> bool:
        """Deterministic evaluation; the owner is an implicit superuser."""
        if user == self.owner:
            return True
        try:
            chain = self._element_chain(element_path)
        except InvalidPath:
            return False
        for element in reversed(chain):  # deepest first
            table = element.permissions
            if table is None:
                continue
            if user in table.no_access:
                return False
            if table.grants(user, mode):
                return True
            if table.mentions(user):
                # Individually mentioned without a grant for this mode.
                return False
            group_no = False
            group_grant = False
            for group_name in table.no_access:
                if user in self.group_members(group_name):
                    group_no = True
            for mode_set in (table.write, table.read):
                for group_name in mode_set:
                    if user in self.group_members(group_name) and table.grants(group_name, mode):
                        group_grant = True
            if group_no:
                return False
            if group_grant:
                return True
        return False  # default deny

    def _element_chain(self, path: str) -> list[Element]:
        parts = path.split("/")
        if parts[0] not in self.root:
            raise InvalidPath(path)
        chain = [self.root[parts[0]]]
        node = chain[0]
        for part in parts[1:]:
            child = node.children.get(part)
            if child is None:
                raise InvalidPath(path)
            chain.append(child)
            node = child
        return chain

    # -- updates ------------------------------------------------------------------------

    def apply_update(self, author: str, element_path: str, op: bytes, timestamp: int = 0) -> int:
        """Permission-checked mutate + version bump + log append."""
        component = self.component_of(element_path)
        if author != self.owner and not self.check_permission(author, element_path, WRITE):
            raise AccessDenied(f"{author} may not write {element_path}")
        step = _decode_op(element_path, op)
        version = self.versions[component] + 1
        entry = LogEntry(path=element_path, version=version, author=author, op=op, timestamp=timestamp)
        # A batch carries each entry as one field, whatever version a merge
        # renumbers it to: an entry that could outgrow one is refused here.
        if len(entry.encode()) - len(str(version)) + _VERSION_DIGITS > MAX_FIELD:
            raise MalformedRequest(f"log entry at {element_path} exceeds one field")
        self._apply_op(element_path, step, create_missing=False)
        self.versions[component] = version
        self.log.append(entry)
        self._components[component].append(entry)
        return version

    def _apply_op(self, path: str, step: tuple, create_missing: bool) -> None:
        """Apply an op checked by `_decode_op`. What can still fail (a
        missing element, without create_missing) fails before any change."""
        node = self._walk(path, create=create_missing)
        kind = step[0]
        if kind == b"set":
            node.content = step[1]
        elif kind == b"add":
            child = node.children.get(step[1])
            if child is None:
                child = node.children[step[1]] = Element(step[1])
            child.content = step[2]
        elif kind == b"remove":
            node.children.pop(step[1], None)
        else:
            if node.permissions is None:
                node.permissions = PermissionTable()
            node.permissions.assign(step[1], step[2])

    # -- pull ------------------------------------------------------------------------------

    def vector(self) -> dict[str, int]:
        return dict(self.versions)

    def prefix_digest(self, component: str, upto_version: int) -> bytes:
        return self._components[component].prefix_digest(upto_version)

    def pull_updates(
        self,
        requester: str,
        vector: dict[str, int],
        digests: dict[str, bytes] | None = None,
        filtered: bool = True,
    ) -> list[LogEntry]:
        """Exactly the entries beyond the requester's vector it may read.

        When the requester's prefix digest for a component disagrees (the
        host merged and renumbered), the whole component is resent.
        """
        out: list[LogEntry] = []
        for component in COMPONENTS:
            log = self._components[component]
            since = vector.get(component, 0)
            if digests is not None and since > 0:
                if digests.get(component, b"") != log.prefix_digest(since):
                    since = 0
            for entry in log.after(since):
                if filtered and not self.check_permission(requester, entry.path, READ):
                    continue
                out.append(entry)
        return out

    # -- replay and merge ---------------------------------------------------------------------

    @classmethod
    def replay(cls, owner: str, log: Iterable[LogEntry]) -> "Profile":
        profile = cls(owner)
        for entry in sorted(log, key=lambda e: (COMPONENTS.index(cls.component_of(e.path)), e.version)):
            # Replay trusts the log (checks ran at append time); missing
            # parents from foreign merges become placeholders.
            profile._apply_op(entry.path, _decode_op(entry.path, entry.op), create_missing=True)
            component = cls.component_of(entry.path)
            profile.versions[component] = max(profile.versions[component], entry.version)
            profile.log.append(entry)
            profile._components[component].append(entry)
        return profile

    def merge_entries(self, entries: Iterable[LogEntry]) -> bool:
        """Reconcile foreign entries into this profile; True when it changed.

        The result is what `merge_logs` and `replay` give. A component in
        merge order whose new entries all sort after its tail appends them;
        any other component is rebuilt by replay. Every new op is checked
        before anything changes, so a batch that raises changes nothing.
        """
        foreign: dict[str, list[LogEntry]] = {c: [] for c in COMPONENTS}
        for entry in entries:
            foreign[self.component_of(entry.path)].append(entry)
        appends: dict[str, list[tuple[LogEntry, tuple]]] = {}
        diverged: list[str] = []
        for component, theirs in foreign.items():
            log = self._components[component]
            fresh = log.fresh_tail(theirs)
            if fresh is None:
                diverged.append(component)
            elif fresh:
                n = len(log.entries)
                appends[component] = [
                    (_renumbered(e, n + i), _decode_op(e.path, e.op)) for i, e in enumerate(fresh, start=1)
                ]
        if diverged:
            rebuilt = Profile.replay(
                self.owner,
                [e for c in diverged for e in _merge_component(self._components[c].entries + foreign[c])],
            )
        # Everything is checked; nothing below raises.
        for component, batch in appends.items():
            for entry, step in batch:
                self._apply_op(entry.path, step, create_missing=True)
                self._components[component].append(entry)
            self.versions[component] = batch[-1][0].version
        for component in diverged:
            self.root[component] = rebuilt.root[component]
            self.versions[component] = rebuilt.versions[component]
            self._components[component] = rebuilt._components[component]
        merged = list(chain.from_iterable(self._components[c].entries for c in COMPONENTS))
        if merged == self.log:
            return False
        self.log = merged
        return True

    def state_digest(self) -> bytes:
        return hashlib.sha256(self.canonical_encode()).digest()

    # -- canonical text encoding -------------------------------------------------------------------

    def canonical_encode(self) -> bytes:
        """Deterministic, field-order-normalized text form of the tree."""
        lines = [f"profile owner={self.owner}"]
        for component in COMPONENTS:
            lines.append(f"component {component} version={self.versions[component]}")
            lines.extend(self._encode_element(self.root[component], component))
        return ("\n".join(lines) + "\n").encode("utf-8")

    def _encode_element(self, element: Element, path: str) -> list[str]:
        lines = []
        parts = [f"element {path}"]
        if element.content:
            parts.append(f"content={element.content.hex()}")
        if element.permissions is not None:
            table = element.permissions
            parts.append(
                "perm=r:%s;w:%s;n:%s"
                % (
                    ",".join(sorted(table.read)),
                    ",".join(sorted(table.write)),
                    ",".join(sorted(table.no_access)),
                )
            )
        lines.append(" ".join(parts))
        for name in sorted(element.children):
            lines.extend(self._encode_element(element.children[name], f"{path}/{name}"))
        return lines

    def export_log(self) -> bytes:
        return _EXPORT.pack((self.owner, self.log))

    @classmethod
    def import_log(cls, data: bytes) -> "Profile":
        return cls.replay(*_EXPORT.unpack(data))


def merge_logs(*logs: list[LogEntry]) -> list[LogEntry]:
    """Deterministic merge: content-dedup, order by (timestamp, author,
    digest) per component, versions renumbered densely. Commutative and
    idempotent; nothing is ever dropped."""
    by_component: dict[str, list[LogEntry]] = {c: [] for c in COMPONENTS}
    for log in logs:
        for entry in log:
            by_component[Profile.component_of(entry.path)].append(entry)
    return [entry for c in COMPONENTS for entry in _merge_component(by_component[c])]


def reconcile(owner: str, *logs: list[LogEntry]) -> Profile:
    """Merged, replay-equivalent profile from divergent replica logs."""
    return Profile.replay(owner, merge_logs(*logs))


# -- wire forms for sync ------------------------------------------------------------


# A version vector: each component's name, version and prefix digest (b""
# at version 0), in COMPONENTS order.
_VECTOR = Layout("vector", (STR, INT, RAW) * len(COMPONENTS))


def encode_vector(profile: Profile) -> bytes:
    values = []
    for component in COMPONENTS:
        version = profile.versions[component]
        values += (component, version, profile.prefix_digest(component, version) if version else b"")
    return _VECTOR.pack(values)


def decode_vector(data: bytes) -> tuple[dict[str, int], dict[str, bytes]]:
    values = _VECTOR.unpack(data)
    names = values[0::3]
    return dict(zip(names, values[1::3])), dict(zip(names, values[2::3]))


# A profile export: the owner, then every log entry.
_EXPORT = Layout("profile_export", (STR, many(LogEntry)))

# Message field type (wire.SCHEMA): sent from the profile it describes,
# read back as (versions, prefix digests).
VECTOR = Field(encode_vector, decode_vector)


@dataclass
class MirrorReplica:
    """A friend's profile replica served while they are offline."""

    owner: str
    profile: Profile
    allowed_users: set[str] = field(default_factory=set)

    def may_access(self, username: str) -> bool:
        return username == self.owner or username in self.allowed_users
