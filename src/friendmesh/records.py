"""Registration, relay, friendship-request and mirror records and their wire forms.

Each record's wire layout is declared once, with wire.record over its
fields in order; its encode() and decode() come from that declaration. A
RegistrationRecord carries its signed digest spread over two fields
(digest, signature), and the rendezvous app kind register reuses its
layout. A server's sqlite file (store.SqliteStore) holds PeerRows,
FriendshipRequestRecords and RelayRecords in their layouts too.

The signed digest covers the canonical payload, a view of the record's
layout: IP, port, protocol, relay address, relay port, passphrase,
encrypted mirror list, each field 2-byte length prefixed, integers as
ASCII decimal. Every field but the username (bound by the certificate)
and last_refresh (set by the server) is inside it, so a record routes
only through what its owner signed: to its relay when it names one, else
to ip:port when the port is non-zero, else nowhere.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

from . import identity
from .identity import Certificate, SignedDigest
from .wire import FLAG, IDENT, INT, RAW, STR, list_of, record, spread


@record(STR, STR, INT, STR, STR, INT, STR, RAW, spread(SignedDigest), INT)
@dataclass(frozen=True)
class RegistrationRecord:
    username: str
    ip: str
    port: int  # 0 when the owner accepts no inbound connection
    protocol: str  # tcp | udp
    relay_address: str  # empty when none
    relay_port: int  # 0 when none
    passphrase: str
    encrypted_mirror_list: bytes
    signed_digest: SignedDigest
    last_refresh: int = 0

    def canonical_payload(self) -> bytes:
        return _CANONICAL.encode(self)

    @property
    def route(self) -> tuple[str, bool]:
        """The address to dial for the owner ("" for none), and whether it
        is their relay's."""
        if self.relay_address:
            return f"{self.relay_address}:{self.relay_port}", True
        if self.port:
            return f"{self.ip}:{self.port}", False
        return "", False


# What the owner's signed digest covers.
_CANONICAL = RegistrationRecord.LAYOUT.view(
    "ip", "port", "protocol", "relay_address", "relay_port", "passphrase", "encrypted_mirror_list"
)


def make_registration_record(
    username: str,
    ip: str,
    port: int,
    protocol: str,
    relay_address: str,
    relay_port: int,
    passphrase: str,
    encrypted_mirror_list: bytes,
    private_key: bytes,
) -> RegistrationRecord:
    unsigned = RegistrationRecord(
        username, ip, port, protocol, relay_address, relay_port, passphrase,
        encrypted_mirror_list, SignedDigest(b"", b""),
    )
    signed = identity.sign_record(unsigned.canonical_payload(), private_key)
    return replace(unsigned, signed_digest=signed)


def verify_registration_record(record: RegistrationRecord, cert: Certificate) -> bool:
    """True iff the owner-signed digest covers the record as presented."""
    if record.username != cert.username:
        return False
    return identity.verify_record(record.canonical_payload(), record.signed_digest, cert.public_key)


@record(RegistrationRecord, RAW, IDENT, FLAG)
@dataclass(frozen=True)
class PeerRow:
    """A stored registration: the record, its owner certificate, ring id and
    replica flag. Ring replication and handoff carry it as it is."""

    record: RegistrationRecord
    certificate: bytes
    ring_id: int = 0
    replica: bool = False

    def verified(self, ca_public_key: bytes) -> bool:
        try:
            cert = Certificate.decode(self.certificate)
        except Exception:
            return False
        if not identity.verify_certificate(cert, ca_public_key):
            return False
        return verify_registration_record(self.record, cert)


@record(STR, STR)
@dataclass
class MirrorEntry:
    username: str
    passphrase: str


# Message field type (wire.SCHEMA): a peer's mirrors, in preference order.
MIRROR_TABLE = list_of(MirrorEntry, "mirror_table")


@record(STR, INT, INT, INT, INT)
@dataclass
class RelayRecord:
    address: str
    port: int
    capacity: int
    load: int = 0
    last_update: int = 0

    @property
    def endpoint(self) -> str:
        return f"{self.address}:{self.port}"


@record(STR, STR, RAW)
@dataclass(frozen=True)
class FriendshipRequestRecord:
    target_username: str
    requester_username: str
    sealed_passphrase: bytes  # opaque to the server; only the target opens it
