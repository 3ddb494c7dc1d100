"""Key pairs, certificates, signed digests, session keys and the CA.

There is one key algorithm, ec-p256 (NIST P-256):

  - a private key is its 32-byte scalar, a public key its 65-byte
    uncompressed point;
  - signatures are ECDSA over SHA-256 in fixed 64-byte raw form (r || s);
  - sealing is hybrid: the payload goes under a fresh AES-256-GCM data key,
    and only that key is wrapped to the receiver (ECDH with an ephemeral
    key, HKDF-SHA256, AES-GCM), so payload size is unbounded. The size of
    every ciphertext and signature is a pure function of the plaintext
    length.

Certificates, certificate requests, key files and session keys still carry
the strings "ec-p256" and "aes-128-gcm", so their bytes stay as they were.
They are format tags, not choices: a certificate with any other tag does
not verify, and a key pair, a certificate request or a session key with
another is refused with MalformedRequest.

Public-key work that repeats is done once per process:

  - a long-lived key (an identity's private key, a certificate's or the
    CA's public key) is loaded once, in a bounded LRU cache; loading a
    private key re-derives its public point, an EC scalar multiplication;
  - a certificate or record signature that verified is remembered in one
    bounded, thread-safe table keyed by every input of the check (public
    key, signed bytes, signature), so a hit answers exactly what the check
    would answer again. The username-length, tag and payload-digest checks
    still run on every call, and a failed check is not remembered, so
    unauthenticated garbage cannot evict an entry.

Fresh material is not cached: the ephemeral key inside a sealed blob, and
handshake and complaint signatures, are new on every use, so an entry
for them would only cost memory. A registration record's signature is not
fresh: a peer signs its record once per content and re-sends it on each
re-registration, so a holder that verified it once hits the table. The
caches are sized to the identities one process serves (a simulated world
of a few hundred users); a miss costs what the check cost before.
"""
from __future__ import annotations

import base64
import functools
import hashlib
import os
import random
import threading
from collections import OrderedDict
from dataclasses import dataclass, replace

from cryptography.exceptions import InvalidTag
from cryptography.hazmat.primitives import hashes, serialization
from cryptography.hazmat.primitives.asymmetric import ec
from cryptography.hazmat.primitives.asymmetric.utils import (
    decode_dss_signature,
    encode_dss_signature,
)
from cryptography.hazmat.primitives.ciphers.aead import AESGCM
from cryptography.hazmat.primitives.kdf.hkdf import HKDF

from .errors import (
    AuthError,
    IntegrityError,
    MalformedRequest,
    UsernameTaken,
)
from .wire import INT, RAW, STR, Layout, record

MAX_USERNAME_BYTES = 64

DEFAULT_ALGORITHM = "ec-p256"  # the one key algorithm's tag
DEFAULT_CIPHER = "aes-128-gcm"  # the one session cipher's tag
SESSION_KEY_LEN = 16

# Bounds of the per-process caches (see the module docstring).
KEYS_CACHED = 256  # private and public keys each
VERIFIED_CACHED = 1024

_CURVE = ec.SECP256R1()


def sha256(data: bytes) -> bytes:
    return hashlib.sha256(data).digest()


def check_algorithm(algorithm_id: str) -> None:
    """Refuse every key algorithm tag but ec-p256."""
    if algorithm_id != DEFAULT_ALGORITHM:
        raise MalformedRequest(f"unsupported algorithm: {algorithm_id}")


# ---------------------------------------------------------------------------
# Key pairs and primitive operations
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=KEYS_CACHED)
def _private_key(priv: bytes) -> ec.EllipticCurvePrivateKey:
    return ec.derive_private_key(int.from_bytes(priv, "big"), _CURVE)


@functools.lru_cache(maxsize=KEYS_CACHED)
def _public_key(pub: bytes) -> ec.EllipticCurvePublicKey:
    return ec.EllipticCurvePublicKey.from_encoded_point(_CURVE, pub)


def _point(key: ec.EllipticCurvePublicKey) -> bytes:
    return key.public_bytes(
        serialization.Encoding.X962, serialization.PublicFormat.UncompressedPoint
    )


def check_public_key(pub: bytes) -> bytes:
    """pub, if it loads as a P-256 point; MalformedRequest otherwise."""
    try:
        _public_key(pub)
    except (TypeError, ValueError):
        raise MalformedRequest("not a P-256 public key") from None
    return pub


@record(RAW, RAW, STR)  # also the key file's layout
@dataclass(frozen=True)
class KeyPair:
    public_key: bytes
    private_key: bytes
    algorithm_id: str


def generate_keypair(algorithm_id: str = DEFAULT_ALGORITHM) -> KeyPair:
    """A fresh key pair; algorithm_id may only name the one algorithm."""
    check_algorithm(algorithm_id)
    key = ec.generate_private_key(_CURVE)
    private = key.private_numbers().private_value.to_bytes(32, "big")
    return KeyPair(_point(key.public_key()), private, algorithm_id)


# A sealed blob: the wrapped data key, the nonce, the ciphertext.
_SEALED = Layout("sealed", (RAW, RAW, RAW))


def _wrap_key(pub: bytes, dek: bytes) -> bytes:
    """The ephemeral point, a nonce, and dek under the key ECDH agreed.

    Apart from seal so that a test can fake it and pin sealed layouts."""
    eph = ec.generate_private_key(_CURVE)
    shared = eph.exchange(ec.ECDH(), _public_key(pub))
    kek = HKDF(hashes.SHA256(), 32, None, b"seal-kek").derive(shared)
    nonce = os.urandom(12)
    return _point(eph.public_key()) + nonce + AESGCM(kek).encrypt(nonce, dek, None)


def seal(pub: bytes, data: bytes) -> bytes:
    """Hybrid-seal data so only the holder of the private key can read it."""
    dek = os.urandom(32)
    wrapped = _wrap_key(pub, dek)
    nonce = os.urandom(12)
    ct = AESGCM(dek).encrypt(nonce, data, None)
    return _SEALED.pack((wrapped, nonce, ct))


def open_sealed(priv: bytes, blob: bytes) -> bytes:
    wrapped, nonce, ct = _SEALED.unpack(blob)
    try:
        eph = ec.EllipticCurvePublicKey.from_encoded_point(_CURVE, wrapped[:65])  # fresh: not cached
        shared = _private_key(priv).exchange(ec.ECDH(), eph)
        kek = HKDF(hashes.SHA256(), 32, None, b"seal-kek").derive(shared)
        dek = AESGCM(kek).decrypt(wrapped[65:77], wrapped[77:], None)
        return AESGCM(dek).decrypt(nonce, ct, None)
    except Exception as exc:
        raise IntegrityError("sealed payload failed to open") from exc


def sign(priv: bytes, data: bytes) -> bytes:
    r, s = decode_dss_signature(_private_key(priv).sign(data, ec.ECDSA(hashes.SHA256())))
    return r.to_bytes(32, "big") + s.to_bytes(32, "big")


def verify(pub: bytes, data: bytes, sig: bytes) -> bool:
    """False for a bad signature and for a key that is not a P-256 point."""
    if len(sig) != 64:
        return False
    try:
        der = encode_dss_signature(
            int.from_bytes(sig[:32], "big"), int.from_bytes(sig[32:], "big")
        )
        _public_key(pub).verify(der, data, ec.ECDSA(hashes.SHA256()))
        return True
    except Exception:
        return False


class _VerifiedSignatures:
    """Bounded, thread-safe LRU set of signatures that verified.

    Keyed by every input of `verify`; only successes are added, and the
    check and the insert each hold the lock, so concurrent callers never
    push the set past its bound.
    """

    def __init__(self, maxsize: int):
        self.maxsize = maxsize
        self._seen: OrderedDict[tuple, None] = OrderedDict()
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return len(self._seen)

    def verify(self, pub: bytes, data: bytes, sig: bytes) -> bool:
        key = (pub, data, sig)
        with self._lock:
            if key in self._seen:
                self._seen.move_to_end(key)
                return True
        if not verify(pub, data, sig):
            return False
        with self._lock:
            self._seen[key] = None
            if len(self._seen) > self.maxsize:
                self._seen.popitem(last=False)
        return True


# Certificate and record signatures: the same few recur on every operation.
_VERIFIED = _VerifiedSignatures(VERIFIED_CACHED)


# ---------------------------------------------------------------------------
# Signed digests
# ---------------------------------------------------------------------------


@record(RAW, RAW)
@dataclass(frozen=True)
class SignedDigest:
    digest: bytes
    signature: bytes


def sign_record(payload: bytes, priv: bytes) -> SignedDigest:
    if not payload:
        raise MalformedRequest("empty payload")
    digest = sha256(payload)
    return SignedDigest(digest=digest, signature=sign(priv, digest))


def verify_record(payload: bytes, sd: SignedDigest, pub: bytes) -> bool:
    if sha256(payload) != sd.digest:
        return False
    return _VERIFIED.verify(pub, sd.digest, sd.signature)


# ---------------------------------------------------------------------------
# Session keys
# ---------------------------------------------------------------------------


@record(RAW, STR)
@dataclass(frozen=True)
class SessionKey:
    key: bytes
    cipher_id: str = DEFAULT_CIPHER


def random_bytes(n: int, rng: random.Random | None = None) -> bytes:
    """n fresh secret bytes: from rng when one is injected, else the OS CSPRNG."""
    return rng.randbytes(n) if rng is not None else os.urandom(n)


def generate_session_key(rng: random.Random | None = None) -> SessionKey:
    return SessionKey(key=random_bytes(SESSION_KEY_LEN, rng))


class SessionCipher:
    """Per-direction AES-GCM stream with counter nonces.

    Each endpoint encrypts with its own direction tag so nonces never
    collide; sequence numbers double as replay protection within a channel.
    """

    def __init__(self, sk: SessionKey, direction: int):
        if sk.cipher_id != DEFAULT_CIPHER or len(sk.key) != SESSION_KEY_LEN:
            raise MalformedRequest(f"unsupported cipher: {sk.cipher_id}")
        self._aead = AESGCM(sk.key)
        self._send_dir = direction & 0xFF
        self._recv_dir = 1 - (direction & 0xFF)
        self._send_seq = 0
        self._recv_seq = 0

    @staticmethod
    def _nonce(direction: int, seq: int) -> bytes:
        return direction.to_bytes(4, "big") + seq.to_bytes(8, "big")

    def encrypt(self, data: bytes) -> bytes:
        nonce = self._nonce(self._send_dir, self._send_seq)
        self._send_seq += 1
        return self._aead.encrypt(nonce, data, None)

    def decrypt(self, data: bytes) -> bytes:
        nonce = self._nonce(self._recv_dir, self._recv_seq)
        try:
            plain = self._aead.decrypt(nonce, data, None)
        except InvalidTag as exc:
            raise IntegrityError("session frame failed authentication") from exc
        self._recv_seq += 1
        return plain


# ---------------------------------------------------------------------------
# Certificates and the certificate authority
# ---------------------------------------------------------------------------


@record(STR, RAW, STR, STR, RAW)
@dataclass(frozen=True)
class Certificate:
    username: str
    public_key: bytes
    issuer: str
    algorithm_id: str
    signature: bytes

    def signed_bytes(self) -> bytes:
        return _CERT_SIGNED.encode(self)


# What the CA's signature covers: every field before it.
_CERT_SIGNED = Certificate.LAYOUT.view("username", "public_key", "issuer", "algorithm_id")


def verify_certificate(cert: Certificate, ca_public_key: bytes) -> bool:
    """True iff the signature covers the unmodified fields under the CA key."""
    try:
        if not cert.username or len(cert.username.encode("utf-8")) > MAX_USERNAME_BYTES:
            return False
        if cert.algorithm_id != DEFAULT_ALGORITHM:
            return False
        return _VERIFIED.verify(ca_public_key, cert.signed_bytes(), cert.signature)
    except Exception:
        return False


def build_cert_request(username: str, pub: bytes, ca_pub: bytes) -> bytes:
    """Assemble the sealed certificate request a new user sends the CA.

    The body is sealed so an observer watching CA traffic cannot learn who
    is signing up.
    """
    body = _CERT_REQUEST_BODY.pack((username, pub, DEFAULT_ALGORITHM))
    return _CERT_REQUEST.pack((seal(ca_pub, body), len(body), sha256(body)))


# The request: the sealed body, the body's plain length, its digest.
_CERT_REQUEST = Layout("cert_request", (RAW, INT, RAW))
_CERT_REQUEST_BODY = Layout("cert_request_body", (STR, RAW, STR))  # username, public key, algorithm


class CAState:
    """Certificate authority: issues one certificate per unique username.

    The username log is append-only; with a path configured every issued
    certificate is persisted as one line-delimited record and reloaded on
    construction, so uniqueness survives restarts.
    """

    def __init__(self, name: str, keypair: KeyPair, log_path: str | None = None):
        self.name = name
        self.keypair = keypair
        self.log_path = log_path
        self._issued: dict[str, Certificate] = {}
        if log_path and os.path.exists(log_path):
            with open(log_path, "r", encoding="ascii") as fh:
                for line in fh:
                    line = line.strip()
                    if not line:
                        continue
                    cert = Certificate.decode(base64.b64decode(line))
                    self._issued[cert.username] = cert

    @property
    def public_key(self) -> bytes:
        return self.keypair.public_key

    @property
    def algorithm_id(self) -> str:
        return self.keypair.algorithm_id

    def usernames(self) -> set[str]:
        return set(self._issued)

    def _record(self, cert: Certificate) -> None:
        self._issued[cert.username] = cert
        if self.log_path:
            with open(self.log_path, "a", encoding="ascii") as fh:
                fh.write(base64.b64encode(cert.encode()).decode("ascii") + "\n")

    def issue(self, username: str, public_key: bytes) -> Certificate:
        """Uniqueness check and insert are one atomic step; a malformed
        username or key is refused before the username is taken."""
        if not username or len(username.encode("utf-8")) > MAX_USERNAME_BYTES:
            raise MalformedRequest("username empty or too long")
        check_public_key(public_key)
        if username in self._issued:
            raise UsernameTaken(username)
        unsigned = Certificate(username, public_key, self.name, DEFAULT_ALGORITHM, b"")
        cert = replace(unsigned, signature=sign(self.keypair.private_key, unsigned.signed_bytes()))
        self._record(cert)
        return cert

    def handle_request(self, request: bytes) -> bytes:
        """Process one sealed certificate request; reply sealed to the requester.

        Raises UsernameTaken / IntegrityError / MalformedRequest.
        """
        sealed, claimed_len, digest = _CERT_REQUEST.unpack(request)
        body = open_sealed(self.keypair.private_key, sealed)
        if len(body) != claimed_len or sha256(body) != digest:
            raise IntegrityError("certificate request digest mismatch")
        username, pub, algorithm_id = _CERT_REQUEST_BODY.unpack(body)
        check_algorithm(algorithm_id)
        return seal(pub, self.issue(username, pub).encode())


def open_cert_reply(blob: bytes, keypair: KeyPair, ca_public_key: bytes) -> Certificate:
    cert = Certificate.decode(open_sealed(keypair.private_key, blob))
    if not verify_certificate(cert, ca_public_key):
        raise AuthError("issued certificate failed verification")
    if cert.public_key != keypair.public_key:
        raise AuthError("issued certificate is for a different key")
    return cert


# ---------------------------------------------------------------------------
# Passphrases and symmetric friend keys
# ---------------------------------------------------------------------------


def generate_passphrase(rng: random.Random | None = None) -> str:
    """32 random bytes, base32, no padding; carries no trace of the username."""
    return base64.b32encode(random_bytes(32, rng)).decode("ascii").rstrip("=")


def generate_friend_key(rng: random.Random | None = None) -> bytes:
    return random_bytes(16, rng)


def friend_key_encrypt(key: bytes, data: bytes) -> bytes:
    nonce = os.urandom(12)
    return nonce + AESGCM(key).encrypt(nonce, data, None)


def friend_key_decrypt(key: bytes, blob: bytes) -> bytes:
    if len(blob) < 12 + 16:
        raise IntegrityError("short friend-key blob")
    try:
        return AESGCM(key).decrypt(blob[:12], blob[12:], None)
    except InvalidTag as exc:
        raise IntegrityError("friend-key blob failed authentication") from exc


def save_keypair(pair: KeyPair, path: str) -> None:
    with open(path, "wb") as fh:
        fh.write(pair.encode())


def load_keypair(path: str) -> KeyPair:
    with open(path, "rb") as fh:
        pair = KeyPair.decode(fh.read())
    check_algorithm(pair.algorithm_id)
    return pair
