"""Registration, relay, friendship-request and mirror records and their wire forms.

The signed digest covers the canonical item serialization in this fixed
order: IP, port, protocol, relay address, relay port, passphrase,
encrypted mirror list; each field 2-byte length prefixed, integers as
ASCII decimal. The NAT kind travels with the record but is outside the
digest.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

from . import identity
from .identity import Certificate, SignedDigest
from .wire import Field, pack_fields, pack_ident, pack_int, pack_str
from .wire import unpack_fields, unpack_ident, unpack_int, unpack_str


@dataclass(frozen=True)
class RegistrationRecord:
    username: str
    ip: str
    port: int
    nat_kind: str  # public | full_cone | non_full_cone
    protocol: str  # tcp | udp
    relay_address: str  # empty when none
    relay_port: int  # 0 when none
    passphrase: str
    encrypted_mirror_list: bytes
    signed_digest: SignedDigest
    last_refresh: int = 0

    def canonical_payload(self) -> bytes:
        return canonical_payload(
            self.ip,
            self.port,
            self.protocol,
            self.relay_address,
            self.relay_port,
            self.passphrase,
            self.encrypted_mirror_list,
        )

    @property
    def has_relay(self) -> bool:
        return bool(self.relay_address)

    def encode(self) -> bytes:
        return pack_fields(
            pack_str(self.username),
            pack_str(self.ip),
            pack_int(self.port),
            pack_str(self.nat_kind),
            pack_str(self.protocol),
            pack_str(self.relay_address),
            pack_int(self.relay_port),
            pack_str(self.passphrase),
            self.encrypted_mirror_list,
            self.signed_digest.digest,
            self.signed_digest.signature,
            pack_int(self.last_refresh),
        )

    @classmethod
    def decode(cls, data: bytes) -> "RegistrationRecord":
        (
            username,
            ip,
            port,
            nat_kind,
            protocol,
            relay_address,
            relay_port,
            passphrase,
            mirror_list,
            digest,
            signature,
            last_refresh,
        ) = unpack_fields(data, expect=12)
        return cls(
            username=unpack_str(username),
            ip=unpack_str(ip),
            port=unpack_int(port),
            nat_kind=unpack_str(nat_kind),
            protocol=unpack_str(protocol),
            relay_address=unpack_str(relay_address),
            relay_port=unpack_int(relay_port),
            passphrase=unpack_str(passphrase),
            encrypted_mirror_list=mirror_list,
            signed_digest=SignedDigest(digest=digest, signature=signature),
            last_refresh=unpack_int(last_refresh),
        )


def canonical_payload(
    ip: str,
    port: int,
    protocol: str,
    relay_address: str,
    relay_port: int,
    passphrase: str,
    encrypted_mirror_list: bytes,
) -> bytes:
    return pack_fields(
        pack_str(ip),
        pack_int(port),
        pack_str(protocol),
        pack_str(relay_address),
        pack_int(relay_port),
        pack_str(passphrase),
        encrypted_mirror_list,
    )


def make_registration_record(
    username: str,
    ip: str,
    port: int,
    nat_kind: str,
    protocol: str,
    relay_address: str,
    relay_port: int,
    passphrase: str,
    encrypted_mirror_list: bytes,
    private_key: bytes,
    algorithm_id: str,
) -> RegistrationRecord:
    payload = canonical_payload(
        ip, port, protocol, relay_address, relay_port, passphrase, encrypted_mirror_list
    )
    return RegistrationRecord(
        username=username,
        ip=ip,
        port=port,
        nat_kind=nat_kind,
        protocol=protocol,
        relay_address=relay_address,
        relay_port=relay_port,
        passphrase=passphrase,
        encrypted_mirror_list=encrypted_mirror_list,
        signed_digest=identity.sign_record(payload, private_key, algorithm_id),
    )


def verify_registration_record(record: RegistrationRecord, cert: Certificate) -> bool:
    """True iff the owner-signed digest covers the record as presented."""
    if record.username != cert.username:
        return False
    return identity.verify_record(
        record.canonical_payload(), record.signed_digest, cert.public_key, cert.algorithm_id
    )


@dataclass(frozen=True)
class PeerRow:
    """A stored registration: the record plus its owner certificate and ring id."""

    record: RegistrationRecord
    certificate: bytes
    ring_id: int = 0
    replica: bool = False

    def encode(self) -> bytes:
        return pack_fields(
            self.record.encode(),
            self.certificate,
            pack_ident(self.ring_id),
            b"1" if self.replica else b"0",
        )

    @classmethod
    def decode(cls, data: bytes) -> "PeerRow":
        rec, cert, ring_id, replica = unpack_fields(data, expect=4)
        return cls(
            record=RegistrationRecord.decode(rec),
            certificate=cert,
            ring_id=unpack_ident(ring_id) if ring_id else 0,
            replica=replica == b"1",
        )

    def verified(self, ca_public_key: bytes, ca_algorithm: str) -> bool:
        try:
            cert = Certificate.decode(self.certificate)
        except Exception:
            return False
        if not identity.verify_certificate(cert, ca_public_key, ca_algorithm):
            return False
        return verify_registration_record(self.record, cert)


def encode_ring_row(row: PeerRow) -> bytes:
    return pack_fields(pack_ident(row.ring_id), row.encode(), b"1" if row.replica else b"0")


def decode_ring_row(data: bytes) -> PeerRow:
    ring_id, value, replica = unpack_fields(data, expect=3)
    return replace(PeerRow.decode(value), ring_id=unpack_ident(ring_id), replica=replica == b"1")


# Message field type (wire.SCHEMA): a row as ring replication carries it.
RING_ROW = Field(encode_ring_row, decode_ring_row)


@dataclass
class MirrorEntry:
    username: str
    passphrase: str

    def encode(self) -> bytes:
        return pack_fields(pack_str(self.username), pack_str(self.passphrase))

    @classmethod
    def decode(cls, data: bytes) -> "MirrorEntry":
        name, phrase = unpack_fields(data, expect=2)
        return cls(username=unpack_str(name), passphrase=unpack_str(phrase))


def encode_mirror_table(table: list[MirrorEntry]) -> bytes:
    return pack_fields(*[m.encode() for m in table])


def decode_mirror_table(data: bytes) -> list[MirrorEntry]:
    return [MirrorEntry.decode(f) for f in unpack_fields(data)]


# Message field type (wire.SCHEMA): a peer's mirrors, in preference order.
MIRROR_TABLE = Field(encode_mirror_table, decode_mirror_table)


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


@dataclass(frozen=True)
class FriendshipRequestRecord:
    target_username: str
    requester_username: str
    sealed_passphrase: bytes  # opaque to the server; only the target opens it

    def encode(self) -> bytes:
        return pack_fields(
            pack_str(self.target_username),
            pack_str(self.requester_username),
            self.sealed_passphrase,
        )

    @classmethod
    def decode(cls, data: bytes) -> "FriendshipRequestRecord":
        target, requester, blob = unpack_fields(data, expect=3)
        return cls(
            target_username=unpack_str(target),
            requester_username=unpack_str(requester),
            sealed_passphrase=blob,
        )
