"""Malicious-rendezvous detection and collaborative eviction.

Three pieces: the registration-time verification procedure (cross-check
the servers a bootstrap server named against a correct witness reached
through a friend), the storage-attack check on located records, and the
distinct-complaint ledger that evicts a server once enough of its own
registrants have signed complaints against it.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable, Iterator, Protocol

from . import identity
from .chord import DualId
from .errors import PeerUnreachable
from .identity import Certificate
from .records import RegistrationRecord, verify_registration_record
from .wire import INT, RAW, STR, record

OK = "ok"
STORAGE_ATTACK = "storage_attack"

VERIFIED = "verified"
SUSPECT = "suspect"
INCONCLUSIVE = "inconclusive"


def check_peer_record(record: RegistrationRecord, cert: Certificate) -> str:
    """Detect falsified registration data in a located record.

    A stale-but-intact record still verifies; staleness is the friends'
    notification problem, not a storage attack.
    """
    return OK if verify_registration_record(record, cert) else STORAGE_ATTACK


# ---------------------------------------------------------------------------
# Registration-time verification (routing-attack detection)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class VerificationOutcome:
    status: str  # verified | suspect | inconclusive
    implicated: tuple[str, ...] = ()
    witness: str | None = None  # the correct server the conclusion rests on
    targets: tuple[str, str] | None = None  # correct (md5, sha1) servers for the caller


class RegistrationProbe(Protocol):
    """Network actions the verification procedure needs from the peer."""

    def locate(self, via_addr: str, ident: int) -> str:
        """Ask via_addr which server owns ident; it may lie."""
        ...

    def fetch_record(
        self, server_addr: str, passphrase: str
    ) -> tuple[RegistrationRecord, bytes] | None:
        ...

    def try_connect(self, record: RegistrationRecord) -> bool:
        """True when the record's owner, authenticated by a secure channel,
        answers a ping at the address the record routes to. The channel may
        be one already held for that owner."""
        ...

    def next_alternate(self) -> str | None:
        """Another publicly known rendezvous server, or None when exhausted."""
        ...


def _witness_candidates(
    probe: RegistrationProbe, vias: tuple[str, str], ids: DualId
) -> Iterator[str]:
    """The servers each via names for ids, resolved one at a time as the
    caller asks for the next, each named once. An unreachable via is left
    for the next."""
    seen: set[str] = set()
    for via in dict.fromkeys(vias):
        for ident in ids.both():
            try:
                server = probe.locate(via, ident)
            except PeerUnreachable:
                break
            if server not in seen:
                seen.add(server)
                yield server


def verify_registration_targets(
    probe: RegistrationProbe,
    x_addr: str,
    y_addr: str,
    z_addr: str,
    friend_username: str,
    friend_passphrase: str,
    friend_cert: Certificate,
    my_ids: DualId,
    friend_ids: DualId,
    max_restarts: int = 4,
) -> VerificationOutcome:
    """Check whether (y, z) really own the caller's identifiers.

    x named (y, z); y and z each name the servers responsible for a
    friend's identifiers; the first of those four (y's md5 and sha1
    answers, then z's) that yields a verifiable, connectable record for
    the friend is a correct witness, and its answer for the caller's own
    identifiers is compared against (y, z). A candidate is resolved only
    when every earlier one failed. Requires at least one friend, by
    construction.
    """
    for _ in range(max_restarts):
        witness: str | None = None
        for server in _witness_candidates(probe, (y_addr, z_addr), friend_ids):
            fetched = None
            try:
                fetched = probe.fetch_record(server, friend_passphrase)
            except PeerUnreachable:
                continue
            if fetched is None:
                continue
            record, _cert_bytes = fetched
            if check_peer_record(record, friend_cert) != OK:
                continue
            if probe.try_connect(record):
                witness = server
                break
        if witness is None:
            # None of the returned addresses for the friend was correct:
            # restart through another rendezvous server.
            alternate = probe.next_alternate()
            if alternate is None:
                return VerificationOutcome(status=INCONCLUSIVE)
            x_addr = alternate
            try:
                y_addr = probe.locate(x_addr, my_ids.id_md5)
                z_addr = probe.locate(x_addr, my_ids.id_sha1)
            except PeerUnreachable:
                continue
            continue
        try:
            a = probe.locate(witness, my_ids.id_md5)
            b = probe.locate(witness, my_ids.id_sha1)
        except PeerUnreachable:
            continue
        implicated: list[str] = []
        if a != y_addr:
            implicated.extend([x_addr, y_addr])
        if b != z_addr:
            implicated.extend([x_addr, z_addr])
        if implicated:
            return VerificationOutcome(
                status=SUSPECT,
                implicated=tuple(dict.fromkeys(implicated)),
                witness=witness,
                targets=(a, b),
            )
        return VerificationOutcome(status=VERIFIED, witness=witness, targets=(a, b))
    return VerificationOutcome(status=INCONCLUSIVE)


# ---------------------------------------------------------------------------
# Complaints
# ---------------------------------------------------------------------------


@record(STR, STR, INT, RAW, RAW)  # also the COMPLAINT request
@dataclass(frozen=True)
class Complaint:
    accused: str  # rendezvous node address
    complainant: str  # username
    timestamp: int
    signature: bytes
    certificate: bytes  # complainant's certificate

    def signed_bytes(self) -> bytes:
        return _COMPLAINT_SIGNED.encode(self)


# What the complainant's signature covers.
_COMPLAINT_SIGNED = Complaint.LAYOUT.view("accused", "complainant", "timestamp")


def make_complaint(accused: str, cert: Certificate, private_key: bytes, now: int) -> Complaint:
    unsigned = Complaint(accused, cert.username, now, b"", cert.encode())
    signature = identity.sign(private_key, unsigned.signed_bytes())
    return replace(unsigned, signature=signature)


def verify_complaint(
    complaint: Complaint,
    ca_public_key: bytes,
    now: int,
    freshness_ms: int,
) -> bool:
    """Signature, certified identity and timestamp freshness."""
    if abs(now - complaint.timestamp) > freshness_ms:
        return False
    try:
        cert = Certificate.decode(complaint.certificate)
    except Exception:
        return False
    if cert.username != complaint.complainant:
        return False
    if not identity.verify_certificate(cert, ca_public_key):
        return False
    return identity.verify(cert.public_key, complaint.signed_bytes(), complaint.signature)


# Is the complainant actually registered with the accused server?
RegisteredCheck = Callable[[str, str], bool]


class ComplaintLedger:
    """Per-accused set of distinct valid complainants with latest timestamps."""

    def __init__(self, threshold: int | None = None):
        self.threshold = threshold
        self._by_accused: dict[str, dict[str, int]] = {}

    def add(
        self,
        complaint: Complaint,
        ca_public_key: bytes,
        now: int,
        freshness_ms: int,
        registered_with: RegisteredCheck,
    ) -> bool:
        """Record a complaint; True when it is new and valid for counting."""
        if not verify_complaint(complaint, ca_public_key, now, freshness_ms):
            return False
        if not registered_with(complaint.complainant, complaint.accused):
            return False
        entries = self._by_accused.setdefault(complaint.accused, {})
        known = entries.get(complaint.complainant)
        if known is not None and known >= complaint.timestamp:
            return False  # duplicate or replay: counts once
        fresh = complaint.complainant not in entries
        entries[complaint.complainant] = complaint.timestamp
        return fresh

    def distinct_complainants(self, accused: str) -> int:
        return len(self._by_accused.get(accused, {}))

    def effective_threshold(self, accused: str, registered_count: int | None = None) -> int:
        if self.threshold is not None:
            return self.threshold
        base = registered_count if registered_count is not None else 0
        return max(3, math.ceil(0.2 * base))

    def adjudicate(self, accused: str, registered_count: int | None = None) -> str:
        """'evict' iff distinct valid registered complainants meet the threshold."""
        needed = self.effective_threshold(accused, registered_count)
        return "evict" if self.distinct_complainants(accused) >= needed else "retain"


@dataclass
class NotificationBook:
    """Friend notifications about a suspect server, distinct per reporter."""

    threshold: int = 3
    notes: dict[str, set[str]] = field(default_factory=dict)
    filed: set[str] = field(default_factory=set)

    def note(self, accused: str, reporter: str) -> int:
        reporters = self.notes.setdefault(accused, set())
        reporters.add(reporter)
        return len(reporters)

    def should_complain(self, accused: str) -> bool:
        """Complain only once enough distinct friends reported the server."""
        if accused in self.filed:
            return False
        return len(self.notes.get(accused, ())) >= self.threshold

    def mark_filed(self, accused: str) -> None:
        self.filed.add(accused)
