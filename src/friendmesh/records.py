"""Registration, relay, friendship-request and mirror records and their wire forms.

Each record's wire layout is declared once, with wire.record over its
fields in order; its encode() and decode() come from that declaration. A
RegistrationRecord carries its signed digest spread over two fields
(digest, signature), and the rendezvous app kind register carries a view
of its layout (REGISTERED). A server's sqlite file (store.SqliteStore)
holds PeerRows, FriendshipRequestRecords and RelayRecords in their
layouts too. record_tag states the one rule of every conditional
exchange: bytes the other side holds are named, not sent.

The signed digest covers the canonical payload, a view of the record's
layout: IP, port, protocol, relay address, relay port, passphrase,
encrypted mirror list, each field 2-byte length prefixed, integers as
ASCII decimal. Every field but the username (bound by the certificate)
is inside it, so a record routes only through what its owner signed: to
its relay when it names one, else to ip:port when the port is non-zero,
else nowhere. A server adds nothing to the record, so a re-registration
of the same signed record stores a row equal to the one it replaces.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

from . import identity
from .identity import Certificate, SignedDigest
from .wire import FLAG, IDENT, INT, RAW, STR, Layout, many, record, spread


@record(STR, STR, INT, STR, STR, INT, STR, RAW, spread(SignedDigest))
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


TAG_LEN = 16


def record_tag(encoding: bytes) -> tuple[bytes, bytes]:
    """The tag and the proof of an encoding: the two TAG_LEN-byte halves of
    sha256 over the bytes as they travel (not a signed digest, which a
    server that rewrites a field can keep).

    The held-bytes rule, the one rule of every conditional exchange (RFC
    9110 section 13, If-None-Match): bytes the other side already holds
    are named by their tag, not sent.

    - a locate names the record the locator holds, and a server whose
      record has the tag answers "unchanged" with the proof in place of
      the record; the tag does not reveal the proof, so only a server
      that has the bytes can answer so (rvclient.locate_peer);
    - a register names the record the server last accepted from the peer,
      and a server whose row under the peer's name holds that record
      under the session's certificate serves it as the register that
      sends the record (rendezvous.RendezvousSession._on_register);
    - a friend's hello names the initiator's certificate, which the
      friend holds, and the answer leaves out the responder's, which the
      initiator holds, but signs over it (secure.connect_secure);
    - a ring notify names the state the notifier last took from its
      successor, by the tag's first 8 bytes, and a successor whose state
      has it answers "unchanged" (chord.state_tag);
    - a mirror sync names the version vector the owner and the replica
      both held after their last sync, and a mirror whose replica's vector
      has the tag merges the entries past it, which the push carries
      (peer.Peer._sync_over).

    Where the tag does not match, the bytes go after all, once: a locate's,
    a notify's or a mirror sync's reply carries them (a sync then pushes
    once more, against the vector it got), and a register or a hello, whose
    tag stands in for bytes the receiver needs, is refused not_found and
    sent again with the bytes on the same session. A tag is no secret, and
    nothing is padded, so a frame's size shows whether bytes were held."""
    digest = identity.sha256(encoding)
    return digest[:TAG_LEN], digest[TAG_LEN:]


# What the owner's signed digest covers.
_CANONICAL = RegistrationRecord.LAYOUT.view(
    "ip", "port", "protocol", "relay_address", "relay_port", "passphrase", "encrypted_mirror_list"
)
# What a register sends of the record: every field but the username, the
# session certificate's.
REGISTERED = RegistrationRecord.LAYOUT.view(*RegistrationRecord.LAYOUT.names[1:])


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


@record(RegistrationRecord, Certificate, IDENT, FLAG)
@dataclass(frozen=True)
class PeerRow:
    """A stored registration: the record, its owner certificate, ring id and
    replica flag. Ring replication and handoff carry it as it is. The
    certificate is held decoded, as the row is built from the session's or
    read off the wire, and travels and is saved as its encoding."""

    record: RegistrationRecord
    certificate: Certificate
    ring_id: int = 0
    replica: bool = False

    def verified(self, ca_public_key: bytes) -> bool:
        if not identity.verify_certificate(self.certificate, ca_public_key):
            return False
        return verify_registration_record(self.record, self.certificate)


@record(STR, STR)
@dataclass
class MirrorEntry:
    username: str
    passphrase: str


# A peer's mirrors, in preference order, as its registration record seals them.
MIRROR_TABLE = Layout("mirror_table", (many(MirrorEntry),))


@record(STR, INT, INT, INT, INT)
@dataclass
class RelayRecord:
    address: str
    port: int
    capacity: int
    load: int = 0
    last_update: int = 0


@record(STR, STR, RAW)
@dataclass(frozen=True)
class FriendshipRequestRecord:
    target_username: str
    requester_username: str
    sealed_passphrase: bytes  # opaque to the server; only the target opens it
