"""Chord ring of rendezvous servers with dual identifiers per username.

Identifiers live on Z_{2^bits}; production uses bits=128 (MD5 as-is,
SHA-1 truncated to its top 128 bits so both map to the same space) and
tests may shrink the space behind the same interface. A node's id is the
hash of its "host:port" address. Key k belongs to successor(k): the first
node at or clockwise after k.

RingNode is a pure state machine over a pluggable transport, so the same
code runs against an in-process node table, the deterministic simulator,
or real sockets. Rows are PeerRows in a store.MemoryStore, which the
node reads and writes directly; each row carries the identifier it was
registered under so join/leave moves exactly the affected arc, and every
row received from another server is verified before it is stored or
re-replicated, unless the store already holds those very bytes: they were
verified when stored. A row moves between servers only when it or its
replica holder changed: a node remembers which successor last accepted
each primary row's replica, and pushes an unchanged row again only when
its first live successor is another one, or when that successor adopts
the node as its predecessor. A notify's reply says so, and a node that
adopted its notifier may hold none of the notifier's rows, as after a
restart at the same address: every primary row goes to it, in one push.

Stabilization is one notify per period, and conditional, by the held-bytes
rule (records.record_tag): the notify names, by an 8-byte tag (state_tag),
the state the node last took from its successor, and a successor whose
state after the notify has that tag answers "unchanged" in place of its
predecessor and successor list. On a converged ring every reply is
"unchanged".

The predecessor, the successor list and the fingers hold (id, address)
entries, so an address is hashed once, when it enters the table: beyond
its own and its bootstrap's, a node hashes only new addresses that remote
messages hand it. Routing reads an
index of the distinct live fingers, successors and learned servers sorted
by clockwise distance from the node, rebuilt after the table or the evicted
set changes: closest_preceding is a bisect over it. The learned servers
are the last LEARNED_LEN servers that answered one of this node's lookup
queries (an address only named inside an answer is never learned), so on
a ring of up to that many servers a lookup soon asks a node whose
successor list covers the key: one hop (Gupta, Liskov and Rodrigues,
NSDI 2004, with entries taken from lookup traffic as in Rhea et al.,
USENIX ATC 2004).

A ring query is answered with the closest preceding entry and the successor
list, and a lookup (a joiner's too) ends at the first node whose list, read
up to SUCCESSOR_LIST_LEN, covers the key (Stoica et al., SIGCOMM 2001).
"""
from __future__ import annotations

import hashlib
from bisect import bisect_left
from dataclasses import dataclass, replace
from itertools import chain
from typing import Callable, Iterable, Iterator, Protocol

from .errors import JoinFailed, LookupFailed, MalformedRequest, PeerUnreachable
from .records import PeerRow, record_tag
from .store import MemoryStore
from .wire import pack_fields

BITS_FULL = 128
SUCCESSOR_LIST_LEN = 4
# Servers that answered this node's lookups, kept as routing candidates;
# the one that answered least recently is dropped first.
LEARNED_LEN = 128


def ident_md5(name: str, bits: int = BITS_FULL) -> int:
    value = int.from_bytes(hashlib.md5(name.encode("utf-8")).digest(), "big")
    return value >> (BITS_FULL - bits)


def ident_sha1(name: str, bits: int = BITS_FULL) -> int:
    # Top 128 bits of SHA-1 keep both hashes on one ring.
    value = int.from_bytes(hashlib.sha1(name.encode("utf-8")).digest()[:16], "big")
    return value >> (BITS_FULL - bits)


@dataclass(frozen=True)
class DualId:
    id_md5: int
    id_sha1: int

    def both(self) -> tuple[int, int]:
        return (self.id_md5, self.id_sha1)


def dual_hash(username: str, bits: int = BITS_FULL) -> DualId:
    if not username:
        raise MalformedRequest("empty username")
    return DualId(id_md5=ident_md5(username, bits), id_sha1=ident_sha1(username, bits))


def node_ident(addr: str, bits: int = BITS_FULL) -> int:
    return ident_md5(addr, bits)


def in_interval(x: int, lo: int, hi: int, inc_lo: bool = False, inc_hi: bool = False) -> bool:
    """Ring interval membership with wraparound.

    lo == hi denotes the full circle (a node that is its own successor owns
    every key); the shared endpoint itself is in only when inclusive.
    """
    if lo == hi:
        return x != lo or inc_lo or inc_hi
    above = x > lo or (inc_lo and x == lo)
    below = x < hi or (inc_hi and x == hi)
    return (above and below) if lo < hi else (above or below)


# A node's state as a notify reply gives it: its predecessor (None for
# none) and its successors.
State = tuple[str | None, list[str]]


def state_tag(state: State) -> bytes:
    """The first 8 bytes of the tag (records.record_tag) of a state's
    addresses, each length-prefixed. The tag looks for change between
    honest nodes: a lying successor can lie about its state anyway, so 8
    bytes are enough."""
    pred, succs = state
    return record_tag(pack_fields(*(a.encode() for a in (pred or "", *succs))))[0][:8]


class RingTransport(Protocol):
    """Remote queries RingNode makes; every call counts as one message."""

    def get_state(self, addr: str) -> State: ...
    # The closest preceding entry and the successor list, never empty.
    def query(self, addr: str, ident: int) -> tuple[str, list[str]]: ...
    # Whether the notify made candidate the notified node's predecessor, and
    # that node's state after it, as get_state gives it but with at least
    # one successor, or None ("unchanged") when that state has the tag.
    def notify(self, addr: str, candidate: str, tag: bytes) -> tuple[bool, State | None]: ...
    # Whether each row was accepted as a replica.
    def replicate(self, addr: str, rows: list[PeerRow]) -> list[bool]: ...
    def transfer(self, addr: str, rows: list[PeerRow], departing: str | None) -> None: ...


@dataclass
class LookupResult:
    addr: str
    hops: int
    ident: int  # node_ident(addr)


# A routing table entry: a node's id and its address.
Entry = tuple[int, str]


class RingNode:
    """One chord participant: successor list, predecessor, finger table, rows."""

    def __init__(
        self,
        addr: str,
        transport: RingTransport,
        bits: int = BITS_FULL,
        store: MemoryStore | None = None,
        verify_row: Callable[[PeerRow], bool] | None = None,
    ):
        self.addr = addr
        self.bits = bits
        self.ident = node_ident(addr, bits)
        self.transport = transport
        self.store = store if store is not None else MemoryStore()
        self.verify_row = verify_row or (lambda row: True)
        self._self: Entry = (self.ident, addr)
        self._succ: list[Entry] = [self._self]
        self._pred: Entry | None = None
        self._fingers: list[Entry | None] = [None] * bits
        self._finger_cursor = 0  # the finger fix_finger resolves next
        # Servers that answered a lookup query, least recent first.
        self._learned: dict[str, Entry] = {}
        # The predecessor notified since the last check_predecessor.
        self._pred_heard = False
        self.evicted: set[str] = set()
        self.alive = True
        # (username, ring id) of a primary row -> the successor that last
        # accepted its replica; dropped when the row is handed over.
        self._replicated: dict[tuple[str, int], str] = {}
        # (successor, tag, state) of the last state a notify reply sent.
        self._taken: tuple[str, bytes, State] | None = None
        # (addr -> ident over fingers, successors and learned servers, sorted
        # clockwise distances of the live candidates, their entries). Set to
        # None when any of those or evicted change; rebuilt at the next read.
        self._index: tuple[dict[str, int], list[int], list[Entry]] | None = None

    # -- table ---------------------------------------------------------------

    def _routing(self) -> tuple[dict[str, int], list[int], list[Entry]]:
        if self._index is None:
            ids: dict[str, int] = {}
            for entry in chain(self._fingers, self._succ, self._learned.values()):
                if entry is not None and entry[1] not in ids:
                    ids[entry[1]] = entry[0]
            # One candidate per distance: of the addresses sharing an id, the
            # smallest, whatever order the tables hold them in. Distance 0 is
            # this node, or an id colliding with it.
            first: dict[int, Entry] = {}
            size = 1 << self.bits
            for addr, ident in sorted(ids.items()):
                dist = (ident - self.ident) % size
                if dist and addr not in self.evicted:
                    first.setdefault(dist, (ident, addr))
            dists = sorted(first)
            self._index = (ids, dists, [first[d] for d in dists])
        return self._index

    def _entry(self, addr: str) -> Entry:
        """(ident, addr), hashing addr only if the table does not hold it."""
        ident = self._routing()[0].get(addr)
        if ident is None:
            pred = self._pred
            ident = pred[0] if pred is not None and pred[1] == addr else node_ident(addr, self.bits)
        return ident, addr

    def _set_successors(self, entries: list[Entry]) -> None:
        if entries != self._succ:
            self._succ = entries
            self._index = None

    def _set_finger(self, i: int, entry: Entry | None) -> None:
        if entry != self._fingers[i]:
            self._fingers[i] = entry
            self._index = None

    def _learn(self, entry: Entry) -> None:
        """Keep a server that answered a query, as the most recent."""
        if self._learned.pop(entry[1], None) is None:
            self._index = None
            if len(self._learned) >= LEARNED_LEN:
                del self._learned[next(iter(self._learned))]
        self._learned[entry[1]] = entry

    # -- local views ---------------------------------------------------------

    @property
    def predecessor(self) -> str | None:
        return None if self._pred is None else self._pred[1]

    def contacts(self) -> set[str]:
        """Every address among the successors and fingers, evicted ones too."""
        return {e[1] for e in chain(self._fingers, self._succ) if e is not None}

    def successor(self) -> str:
        return next((s for _, s in self._succ if s not in self.evicted), self.addr)

    def state(self) -> State:
        pred = self.predecessor
        if pred in self.evicted:
            pred = None
        return pred, [s for _, s in self._succ if s not in self.evicted]

    def owns(self, ident: int) -> bool:
        if self._pred is None or self._pred[1] == self.addr:
            return True
        return in_interval(ident, self._pred[0], self.ident, inc_hi=True)

    def _closest(self, ident: int) -> Entry:
        """The live candidate closest before ident: strictly inside (self, ident)."""
        _, dists, entries = self._routing()
        size = 1 << self.bits
        # ident == self.ident is the full circle. An id off the ring (a
        # remote may send any integer) bounds the arc as id 0 does.
        limit = (ident - self.ident) % size if 0 <= ident < size else -self.ident % size
        i = bisect_left(dists, limit or size)
        return entries[i - 1] if i else self._self

    def closest_preceding(self, ident: int) -> str:
        """Best local routing step strictly inside (self, ident)."""
        return self._closest(ident)[1]

    def local_query(self, ident: int) -> tuple[str, list[str]]:
        """The closest preceding entry and the live successors (this node when none)."""
        return self.closest_preceding(ident), self.state()[1] or [self.addr]

    # -- lookup ---------------------------------------------------------------

    def find_successor(self, ident: int) -> LookupResult:
        """Iterative search, ending at the first link of a successor chain
        (this node's own list, then each answer's) whose arc covers ident;
        else the next hop is the closest preceding entry or the first
        successor. A remote node claiming itself as its own successor would
        own every key, so such answers are unverifiable and routed around
        (bounded restarts)."""
        hops = 0
        excluded: set[str] = set()
        for _ in range(6):
            node, node_id = self.addr, self.ident
            closest, chain = self._closest(ident), self._succ
            seen: set[str] = set()
            stuck_at: str | None = None
            for _ in range(2 * self.bits + 8):
                found, first = self._walk((node_id, node), chain, ident)
                if found is not None:
                    if found[1] == node and node != self.addr:
                        stuck_at = node
                        break
                    return LookupResult(found[1], hops, found[0])
                nxt = closest if closest[1] != node else first
                if nxt is None or nxt[1] in seen or nxt[1] in excluded or nxt[1] in self.evicted:
                    stuck_at = node if node != self.addr else None
                    break
                seen.add(node)
                node_id, node = nxt
                try:
                    closest_addr, succs = self.transport.query(node, ident)
                    hops += 1
                except PeerUnreachable:
                    self.note_dead(node)
                    stuck_at = None
                    break
                self._learn((node_id, node))
                closest, chain = self._entry(closest_addr), self._chain(succs)
            if stuck_at is None and node == self.addr:
                break
            if stuck_at is not None:
                excluded.add(stuck_at)
        raise LookupFailed(f"no route to successor of {ident:x}")

    def _chain(self, addrs: list[str]) -> Iterator[Entry]:
        """A remote answer's successors up to SUCCESSOR_LIST_LEN; the walk
        hashes only the addresses it reads."""
        return (self._entry(addr) for addr in addrs[:SUCCESSOR_LIST_LEN])

    def _walk(self, node: Entry, chain: Iterable[Entry], ident: int) -> tuple[Entry | None, Entry | None]:
        """(The first link of node's successor chain whose arc covers ident,
        the first link), each None if there is none. A link's arc runs from
        the link before it, or from node: node as its own first link covers
        every key. The walk stops at an evicted link or a lap back to node."""
        first, prev = None, node[0]
        for entry in chain:
            if entry[1] in self.evicted or (first is not None and entry[1] == node[1]):
                break
            first = first or entry
            if in_interval(ident, prev, entry[0], inc_hi=True):
                return entry, first
            prev = entry[0]
        return None, first

    # -- membership -----------------------------------------------------------

    def join(self, bootstrap_addr: str) -> None:
        if bootstrap_addr == self.addr:
            return
        try:
            found = self._resolve_via(bootstrap_addr, self.ident)
        except (PeerUnreachable, LookupFailed) as exc:
            raise JoinFailed(f"bootstrap {bootstrap_addr} unreachable") from exc
        bootstrap = (node_ident(bootstrap_addr, self.bits), bootstrap_addr)
        if found[1] == self.addr:
            found = bootstrap
        self._pred = None
        # The bootstrap stays on as a backup: a successor found through a
        # stale table may be gone, and then this node would be left alone.
        self._set_successors(list(dict.fromkeys([found, bootstrap])))
        self.stabilize()

    def _resolve_via(self, via: str, ident: int) -> Entry:
        node = (node_ident(via, self.bits), via)
        for _ in range(2 * self.bits + 8):
            closest, succs = self.transport.query(node[1], ident)
            found, first = self._walk(node, self._chain(succs), ident)
            if found is not None:
                return found
            nxt = self._entry(closest) if closest != node[1] else first
            if nxt is None:
                break
            node = nxt
        raise LookupFailed("join lookup did not converge")

    def leave(self) -> None:
        """Graceful departure: hand every primary row to the successor."""
        succ = self.successor()
        if succ != self.addr:
            rows = [r for r in self.store.peer_rows() if not r.replica]
            try:
                self.transport.transfer(succ, rows, departing=self.addr)
            except PeerUnreachable:
                pass
        self.alive = False

    def stabilize(self) -> None:
        # One exchange: the notify's reply is the successor's state after it.
        # A successor that does not answer is dropped for the next one.
        while True:
            succ = self._first_live_successor()
            if succ is None:
                # Alone, or every successor died: close the ring through the
                # predecessor if one is known (two-node bootstrap case).
                pred = self._pred
                if pred and pred[1] != self.addr and pred[1] not in self.evicted:
                    self._set_successors([pred])
                    succ = pred
                else:
                    self._set_successors([self._self])
                    return
            try:
                pred_of_succ, succ_list = self._notify(succ[1])
                break
            except PeerUnreachable:
                self.note_dead(succ[1])
        if pred_of_succ and pred_of_succ != self.addr and pred_of_succ not in self.evicted:
            closer = self._entry(pred_of_succ)
            if in_interval(closer[0], self.ident, succ[0]):
                # The closer node is this node's successor from now on: rows
                # it hands over during the notify are replicated back to it.
                self._set_successors([closer] + self._succ)
                try:
                    _, probe_list = self._notify(pred_of_succ)
                    succ, succ_list = closer, probe_list
                except PeerUnreachable:
                    self.note_dead(pred_of_succ)
        # The claimed list ends where it laps round to this node: past it
        # come only this node's own successors again, dead ones too. A list
        # that did not lap is topped up with current backups, so a successor
        # reporting a degenerate list (dead or lying) cannot strip them.
        lapped = self.addr in succ_list
        if lapped:
            succ_list = succ_list[: succ_list.index(self.addr)]
        chain_addrs = [succ[1]] + [s for s in succ_list if s not in self.evicted]
        if not lapped:
            chain_addrs += [s for _, s in self._succ if s not in self.evicted]
        kept = list(dict.fromkeys(chain_addrs))[:SUCCESSOR_LIST_LEN]
        self._set_successors([succ if addr == succ[1] else self._entry(addr) for addr in kept])

    def _notify(self, addr: str) -> State:
        """Notify addr that this node may be its predecessor, naming the
        state last taken from addr; addr's state after the notify. When
        addr adopted this node, every primary row goes to it as a replica."""
        taken = self._taken if self._taken is not None and self._taken[0] == addr else None
        adopted, state = self.transport.notify(addr, self.addr, taken[1] if taken else b"")
        if state is None:
            if taken is None:
                raise MalformedRequest("unchanged: the notify named no state")
            state = taken[2]
        else:
            self._taken = (addr, state_tag(state), state)
        if adopted:
            self._push(addr, [row for row in self.store.peer_rows() if not row.replica])
        return state

    def _first_live_successor(self) -> Entry | None:
        for entry in self._succ:
            if entry[1] != self.addr and entry[1] not in self.evicted:
                return entry
        return None

    def notified(self, candidate: str, tag: bytes) -> tuple[bool, State | None]:
        """Handle a notify: adopt a closer predecessor, hand over its arc.
        Returns whether the candidate was adopted, and the state after it,
        which the notifier stabilizes on, with this node as its successor
        when it has none, or None when that state has the tag."""
        adopted = False
        if candidate != self.addr and candidate not in self.evicted:
            cand = self._entry(candidate)
            if self._first_live_successor() is None:  # alone: the notifier is the ring
                self._set_successors([cand])
            old = self._pred
            if (
                old is not None and old[1] != candidate and not self._pred_heard
                and not in_interval(cand[0], old[0], self.ident)
            ):
                # The notifier passed over a predecessor not heard from since
                # the last check: one that crashed is dropped now, and the
                # notifier adopted, instead of a period later.
                self._ping_predecessor()
                old = self._pred
            if old is None or old[1] in self.evicted or in_interval(cand[0], old[0], self.ident):
                self._pred = cand
                adopted = True
                self._handoff_to_predecessor(cand)
            if self.predecessor == candidate:
                self._pred_heard = True
        pred, succs = self.state()
        state = (pred, succs or [self.addr])
        return adopted, None if tag and state_tag(state) == tag else state

    def _handoff_to_predecessor(self, cand: Entry) -> None:
        cand_id, candidate = cand
        moving = [
            row for row in self.store.peer_rows()
            if not row.replica and not in_interval(row.ring_id, cand_id, self.ident, inc_hi=True)
        ]
        if not moving:
            return
        try:
            self.transport.transfer(candidate, moving, departing=None)
        except PeerUnreachable:
            self.note_dead(candidate)
            return
        # This node stays the new owner's successor, so keep replica copies
        # (removed first: a primary row never downgrades in place).
        for row in moving:
            self.store.remove_peer(row.record.username, row.ring_id)
            self.store.upsert_peer(replace(row, replica=True))
            self._replicated.pop((row.record.username, row.ring_id), None)

    def fix_finger(self) -> bool:
        """Resolve the finger at the cursor and every later finger its answer
        covers, then move the cursor past them; True when it wrapped.

        Finger j starts 2**j past this node, so the successor found for the
        cursor's start is also finger j's for every 2**j up to its distance.
        """
        i = self._finger_cursor
        try:
            result = self.find_successor((self.ident + (1 << i)) % (1 << self.bits))
        except LookupFailed:
            end = i + 1
        else:
            entry = (result.ident, result.addr)
            # Distance 0 is this node: it follows every later start too.
            dist = (entry[0] - self.ident) % (1 << self.bits) or 1 << self.bits
            # An answer short of the start (a stale or lying table) still
            # fills this one finger and moves the cursor on.
            end = min(self.bits, max(i + 1, dist.bit_length()))
            span = [entry] * (end - i)
            if self._fingers[i:end] != span:
                self._fingers[i:end] = span
                self._index = None
        self._finger_cursor = end % self.bits
        return self._finger_cursor == 0

    def fix_fingers(self) -> None:
        """Refresh the whole finger table, from the first finger on."""
        self._finger_cursor = 0
        while not self.fix_finger():
            pass

    def check_predecessor(self) -> None:
        """Ping the predecessor unless it notified since the last check."""
        heard, self._pred_heard = self._pred_heard, False
        if not heard:
            self._ping_predecessor()

    def _ping_predecessor(self) -> None:
        if self._pred is None or self._pred[1] == self.addr:
            return
        try:
            self.transport.get_state(self._pred[1])
        except PeerUnreachable:
            self._pred = None

    def note_dead(self, addr: str) -> None:
        self._set_successors([e for e in self._succ if e[1] != addr] or [self._self])
        if self._learned.pop(addr, None) is not None:
            self._index = None
        for i, entry in enumerate(self._fingers):
            if entry is not None and entry[1] == addr:
                self._set_finger(i, None)
        if self.predecessor == addr:
            self._pred = None

    def evict(self, addr: str) -> None:
        """Locally drop an adjudicated-malicious node from all structures."""
        if addr == self.addr:
            return
        self.evicted.add(addr)
        self.note_dead(addr)  # drops addr from the table, so from the index
        # Keys the evicted node held are taken over by its successor: this
        # node promotes any replicas it keeps for arcs it now owns.
        if self._pred is None:
            return
        pred_id = self._pred[0]
        for row in self.store.peer_rows():
            if row.replica and in_interval(row.ring_id, pred_id, self.ident, inc_hi=True):
                self.store.upsert_peer(replace(row, replica=False))

    # -- rows ------------------------------------------------------------------

    def put_primary(self, row: PeerRow) -> bool:
        """Store a row this node owns and push a replica to the successor.

        A row moves between servers only when it or its replica holder
        changed: a row equal to the stored primary is not verified again,
        as the same bytes passed verify_row when they were stored, and its
        replica is pushed only when the first live successor is not the one
        that last accepted it."""
        row = replace(row, replica=False)
        if not self._known_or_verified(row):
            return False
        self.replicate_out(row, self.store.upsert_peer(row))
        return True

    def _known_or_verified(self, row: PeerRow) -> bool:
        """True for a row equal to the stored one, whose bytes passed
        verify_row when they were stored, else verify_row's answer."""
        return self.store.holds_peer(row) or self.verify_row(row)

    def replicate_out(self, row: PeerRow, changed: bool) -> None:
        """Push row's replica to the first live successor, unless the row is
        unchanged and that successor already accepted it."""
        succ = self.successor()
        if succ == self.addr or (
            not changed and self._replicated.get((row.record.username, row.ring_id)) == succ
        ):
            return
        self._push(succ, [row])

    def _push(self, succ: str, rows: list[PeerRow]) -> None:
        """Push rows to succ as replicas, in one message, and remember
        which it accepted."""
        if not rows:
            return
        try:
            accepted = self.transport.replicate(succ, [replace(row, replica=True) for row in rows])
        except PeerUnreachable:
            self.note_dead(succ)
            accepted = []
        for i, row in enumerate(rows):
            key = (row.record.username, row.ring_id)
            if i < len(accepted) and accepted[i]:
                self._replicated[key] = succ
            else:
                self._replicated.pop(key, None)

    def accept_replica(self, row: PeerRow) -> bool:
        """Verify before replicating; invalid rows are never stored or forwarded."""
        row = replace(row, replica=True)
        if not self._known_or_verified(row):
            return False
        self.store.upsert_peer(row)
        return True

    def accept_transfer(self, rows: list[PeerRow], departing: str | None) -> int:
        """Take rows over as primaries. Rows a departing node hands over are
        pushed to this node's successor one by one; rows a successor hands
        over while it adopts this node (departing None) are not: that
        successor keeps replica copies, and this node pushes it every
        primary row once the notify's reply says it was adopted."""
        accepted = 0
        for row in rows:
            row = replace(row, replica=False)
            if not self._known_or_verified(row):
                continue
            changed = self.store.upsert_peer(row)
            if departing is not None:
                self.replicate_out(row, changed)
            accepted += 1
        if departing is not None:
            self.note_dead(departing)
        return accepted


# ---------------------------------------------------------------------------
# In-process transport for tests and desk-scale oracles
# ---------------------------------------------------------------------------


class DirectTransport:
    """Routes ring calls straight to node objects; counts every message."""

    def __init__(self) -> None:
        self.nodes: dict[str, RingNode] = {}
        self.messages = 0

    def add(self, node: RingNode) -> None:
        self.nodes[node.addr] = node

    def _node(self, addr: str) -> RingNode:
        node = self.nodes.get(addr)
        if node is None or not node.alive:
            raise PeerUnreachable(addr)
        return node

    def get_state(self, addr: str) -> State:
        self.messages += 1
        return self._node(addr).state()

    def query(self, addr: str, ident: int) -> tuple[str, list[str]]:
        self.messages += 1
        return self._node(addr).local_query(ident)

    def notify(self, addr: str, candidate: str, tag: bytes) -> tuple[bool, State | None]:
        self.messages += 1
        return self._node(addr).notified(candidate, tag)

    def replicate(self, addr: str, rows: list[PeerRow]) -> list[bool]:
        self.messages += 1
        node = self._node(addr)
        return [node.accept_replica(row) for row in rows]

    def transfer(self, addr: str, rows: list[PeerRow], departing: str | None) -> None:
        self.messages += 1
        self._node(addr).accept_transfer(rows, departing)


def build_ring(
    addrs: list[str],
    bits: int = BITS_FULL,
    transport: DirectTransport | None = None,
    rounds: int | None = None,
    verify_row: Callable[[PeerRow], bool] | None = None,
) -> tuple[dict[str, RingNode], DirectTransport]:
    """Sequentially join nodes and stabilize to convergence (tests/oracles)."""
    transport = transport or DirectTransport()
    nodes: dict[str, RingNode] = {}
    for addr in addrs:
        node = RingNode(addr, transport, bits=bits, verify_row=verify_row)
        transport.add(node)
        nodes[addr] = node
        if len(nodes) > 1:
            node.join(addrs[0])
        stabilize_all(nodes, rounds=2, fix=False)
    stabilize_all(nodes, rounds=rounds)
    return nodes, transport


def stabilize_all(nodes: dict[str, RingNode], rounds: int | None = None, fix: bool = True) -> None:
    count = rounds if rounds is not None else max(4, len(nodes))
    order = sorted(nodes)
    for _ in range(count):
        for addr in order:
            node = nodes[addr]
            if node.alive:
                node.check_predecessor()
                node.stabilize()
    if fix:
        for addr in order:
            if nodes[addr].alive:
                nodes[addr].fix_fingers()
