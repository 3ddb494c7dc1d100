"""Client-side orchestration: bootstrap, friends, mirrors, access gating.

A peer signs up once with the CA, classifies its NAT, obtains and keeps a
relay when it cannot accept inbound traffic, registers its signed
connection record (at one server locally, at both dual-hash successors
globally, with the sentinel verification run first once a friend exists),
and from then on locates friends by passphrase, connects through the one
route the owner signed (records.RegistrationRecord.route), falls back to
their mirrors in preference order, and replicates its own profile to
mirrors it appointed. A peer whose NAT needs a relay registers port 0, so
its record routes to its relay, or nowhere when it got none. It holds its
admission connection (the leg) open with no periodic frame; a tick re-admits
once the leg reads closed, or while it has none, re-registering only if the
relay moved.

A user is located one way, whether a friend, a friend's mirror or a friend
requester: the record from the md5 server, else the sha1 server's, the
first that verifies against the user's certificate, the one the peer holds
or else the one the server sent. Each server is first asked of the
configured server preceding its id on the ring, then, only when neither
record verifies, of the peer's registration servers (see _servers_for).

A peer's own record is signed once per content: while its address,
relay, passphrase, mirror table, friend key and signing key stay as
they were, a re-registration sends the record it signed before.

Every secure channel a peer opens, to a rendezvous server or to a user,
comes from one opener, and the ones it reuses sit in one keep, by (friend,
or "" for a rendezvous server; address dialled): at most one per server and
one per friend, so a warm operation costs no handshake. The sentinel's
reachability probe of a friend runs on that friend's kept channel too, so
a re-registration costs it no handshake and leaves the channel warm. Every
friend operation still locates the friend and verifies the record it gets;
a kept channel is used only while that record routes to it. A channel is
dropped once it falls out of step (a transport or crypto failure); a kept
one that finds its peer unreachable, as after a restart, or fails the
friend's queue flush, is replaced once by a new one. Mirror channels are
never kept. close() ends all of them and the relay admission channel.

Inbound channels are admitted only for friends, friend requesters,
requested friends, or users allowed on a hosted replica, and the check
runs on every request, so a revoked friend's open channel is refused too.
"""
from __future__ import annotations

import base64
import json
import random
import time
from bisect import bisect_left
from contextlib import closing
from dataclasses import dataclass, field
from itertools import chain
from typing import Callable, Iterator, TypeVar

from . import caservice, identity, rvclient, secure, sentinel, wire
from .channel import Channel, Endpoint, FuncService, SessionContext
from .chord import DualId, dual_hash, node_ident
from .config import PeerConfig
from .errors import (
    AuthError,
    NotFound,
    PeerUnreachable,
    ProtocolError,
    StorageAttack,
    Unavailable,
)
from .identity import Certificate, KeyPair
from .nat import NatType, needs_relay, stun_classify
from .profile import LogEntry, MirrorReplica, Profile, op_perm
from .records import MIRROR_TABLE, MirrorEntry, RegistrationRecord, make_registration_record
from .relay import MuxService, admit_as_server
from .secure import SecureChannel
from .sentinel import NotificationBook, VerificationOutcome, check_peer_record

# What a peer serves before it has a certificate: a refusal that reveals nothing.
_NOT_READY = FuncService(
    lambda frame, ctx: wire.err_reply(frame.msg_type, "unavailable", "not ready")
)

T = TypeVar("T")


@dataclass
class FriendEntry:
    username: str
    passphrase: str
    friend_key: bytes = b""
    certificate: Certificate | None = None  # decoded once; saved as its encoding
    mirror_table: list[MirrorEntry] = field(default_factory=list)


@dataclass
class PeerState:
    username: str
    keypair: KeyPair
    certificate: Certificate | None = None
    passphrase: str = ""
    friend_key: bytes = b""
    mirror_table: list[MirrorEntry] = field(default_factory=list)  # my mirrors, by preference
    friend_list: dict[str, FriendEntry] = field(default_factory=dict)
    pending_outgoing: set[str] = field(default_factory=set)
    pending_incoming: dict[str, str] = field(default_factory=dict)
    queued_updates: dict[str, list[tuple]] = field(default_factory=dict)
    nat_type: NatType = NatType.PUBLIC
    mapped_ip: str = ""
    mapped_port: int = 0
    relay_endpoint: tuple[str, int] | None = None
    registered_at: list[str] = field(default_factory=list)


class Peer:
    def __init__(
        self,
        config: PeerConfig,
        endpoint: Endpoint,
        ca_public_key: bytes,
        ca_algorithm: str = identity.DEFAULT_ALGORITHM,
        probes=None,
        rng: random.Random | None = None,
        clock: Callable[[], int] | None = None,
        keypair: KeyPair | None = None,
        on_event: Callable[..., None] | None = None,
    ):
        self.config = config
        self.endpoint = endpoint
        identity.check_algorithm(ca_algorithm)  # accepted for callers that name it; not kept
        self.ca_public_key = ca_public_key
        self.probes = probes
        # Secrets are drawn from it: a CSPRNG unless the simulator injects its own.
        self.rng = rng or random.SystemRandom()
        self.clock = clock or (lambda: int(time.time() * 1000))
        self.on_event = on_event or (lambda kind, **fields: None)
        self.username = config.username
        self.state = PeerState(
            username=config.username,
            keypair=keypair or identity.generate_keypair(),
            passphrase=identity.generate_passphrase(self.rng),
            friend_key=identity.generate_friend_key(self.rng),
        )
        self.profile = Profile(config.username)
        self.replicas: dict[str, MirrorReplica] = {}
        self.notifications = NotificationBook(threshold=config.notification_threshold)
        self.ring_bits = 128
        self._relay_channel: Channel | None = None  # kept open: the relay serves us over it
        self._witness: str | None = None  # last verified-correct server
        # Kept secure channels, by (friend, or "" for a rendezvous server; address dialled).
        self._kept: dict[tuple[str, str], SecureChannel] = {}
        # The last signed record, with the inputs it was built from; not saved.
        self._signed: tuple[tuple, RegistrationRecord] | None = None
        # ((the configured servers, ring_bits), their sorted ring ids, their
        # addresses in that order); rebuilt when the configuration changes.
        self._ring: tuple[tuple, list[int], list[str]] | None = None

    def close(self) -> None:
        """Close every kept channel and the relay admission channel."""
        for kept in self._kept.values():
            kept.close()
        self._kept.clear()
        self._close_relay_channel()

    def _close_relay_channel(self) -> None:
        if self._relay_channel is not None:
            self._relay_channel.close()
            self._relay_channel = None

    # ------------------------------------------------------------------ service

    def open_session(self, ctx: SessionContext):
        if self.state.certificate is None:
            return _NOT_READY
        return secure.ResponderSession(
            self.state.certificate,
            self.state.keypair,
            self.ca_public_key,
            self.admission_gate,
            self._handle_app,
            rng=self.rng,
        )

    def admission_gate(self, username: str) -> bool:
        """A friend, a friend requester, a requested friend, or a user
        allowed on a replica hosted here."""
        state = self.state
        if username in state.friend_list or username in state.pending_incoming:
            return True
        if username in state.pending_outgoing:
            return True
        return any(r.may_access(username) for r in self.replicas.values())

    # ------------------------------------------------------------------ bootstrap

    def bootstrap(self) -> None:
        state = self.state
        if state.certificate is None:
            self._obtain_certificate()
        state.nat_type = stun_classify(self.probes) if self.probes else NatType.PUBLIC
        mapped = self.probes.probe() if self.probes else None
        if mapped is None:
            host, _, port = self.endpoint.local_addr().rpartition(":")
            mapped = (host, int(port) if port.isdigit() else self.config.port)
        state.mapped_ip, state.mapped_port = mapped[0], int(mapped[1])
        if not needs_relay(state.nat_type):
            # NAT may have improved since the last run: drop stale relay state.
            self._close_relay_channel()
            state.relay_endpoint = None
        elif self._relay_channel is None or self._relay_channel.closed:
            self._obtain_relay()  # an open leg is kept
        targets = self._registration_targets()
        record = self.build_record()
        registered = []
        for server in targets:
            try:
                self._register_at(server, record)
                registered.append(server)
            except ProtocolError as exc:
                self.on_event("register_failed", peer=self.username, server=server, err=exc.code)
        if not registered:
            raise Unavailable("registration failed at every target server")
        state.registered_at = registered
        self.on_event("bootstrapped", peer=self.username, servers=",".join(registered))

    def _obtain_certificate(self) -> None:
        with closing(self.endpoint.connect(self.config.ca_addr)) as channel:
            self.state.certificate = caservice.request_certificate(
                channel, self.username, self.state.keypair, self.ca_public_key
            )

    def _obtain_relay(self) -> None:
        state = self.state
        self._close_relay_channel()  # a re-admission replaces the old one
        got = None
        for server in self._bootstrap_servers():
            try:
                with closing(self.endpoint.connect(server)) as channel:
                    got = rvclient.request_relay(channel)
                if got:
                    break
            except PeerUnreachable:
                continue
        if got:
            try:
                self._relay_channel = self.endpoint.connect(f"{got[0]}:{got[1]}")
                admit_as_server(self._relay_channel, state.certificate, state.keypair,
                                self.ca_public_key, MuxService(self), rng=self.rng)
                state.relay_endpoint = got
                return
            except ProtocolError:  # the relay is down, full or refusing
                self._close_relay_channel()
        # Degraded: outbound-only operation.
        self.on_event("no_relay", peer=self.username)
        state.relay_endpoint = None

    def _bootstrap_servers(self) -> list[str]:
        return list(self.config.rendezvous_addrs)

    def my_ids(self) -> DualId:
        return dual_hash(self.username, self.ring_bits)

    def _registration_targets(self) -> list[str]:
        if not self.config.global_mode:
            return self._bootstrap_servers()[:1]
        ids = self.my_ids()
        last_error: ProtocolError | None = None
        for x_addr in self._bootstrap_servers():
            try:
                y = self._chord_lookup(x_addr, ids.id_md5)
                z = self._chord_lookup(x_addr, ids.id_sha1)
            except ProtocolError as exc:
                last_error = exc
                continue
            targets = (y, z)
            if self.state.friend_list:
                outcome = self._verify_targets(x_addr, y, z)
                if outcome.status == sentinel.SUSPECT:
                    self.on_event(
                        "suspect",
                        peer=self.username,
                        implicated=",".join(outcome.implicated),
                        witness=outcome.witness or "",
                    )
                    targets = outcome.targets
                    self._witness = outcome.witness
                elif outcome.status == sentinel.VERIFIED:
                    self._witness = outcome.witness
                    targets = outcome.targets
                else:
                    continue  # inconclusive: try the next bootstrap server
            return sorted(set(targets))
        if last_error is not None:
            raise last_error
        raise Unavailable("no bootstrap server reachable")

    def _verify_targets(self, x_addr: str, y: str, z: str) -> VerificationOutcome:
        """The sentinel's check of (y, z) through each friend in name order,
        each with a fresh probe, until one is conclusive."""
        outcome = VerificationOutcome(status=sentinel.INCONCLUSIVE)
        for friend_name, entry in sorted(self.state.friend_list.items()):
            if entry.certificate is None:
                continue  # nothing to check a witness's record against
            outcome = sentinel.verify_registration_targets(
                _Probe(self, exclude={x_addr}),
                x_addr,
                y,
                z,
                friend_name,
                entry.passphrase,
                entry.certificate,
                self.my_ids(),
                dual_hash(friend_name, self.ring_bits),
            )
            if outcome.status != sentinel.INCONCLUSIVE:
                break
        return outcome

    def _chord_lookup(self, server: str, ident: int) -> str:
        with closing(self.endpoint.connect(server)) as channel:
            addr, _hops = rvclient.chord_lookup(channel, ident)
            return addr

    def build_record(self) -> RegistrationRecord:
        """The signed registration record: the last one built while every
        input is unchanged, so a record is signed once per content. Its
        mirror-list ciphertext is reused only with the same plaintext and
        key, so no nonce is used for a second message."""
        state = self.state
        relay_address, relay_port = state.relay_endpoint or ("", 0)
        fields = dict(
            username=self.username,
            ip=state.mapped_ip,
            port=0 if needs_relay(state.nat_type) else state.mapped_port,
            protocol="tcp",
            relay_address=relay_address,
            relay_port=relay_port,
            passphrase=state.passphrase,
        )
        mirrors = MIRROR_TABLE.pack((state.mirror_table,))
        inputs = (fields, mirrors, state.friend_key, state.keypair.private_key)
        if self._signed is None or self._signed[0] != inputs:
            record = make_registration_record(
                **fields,
                encrypted_mirror_list=identity.friend_key_encrypt(state.friend_key, mirrors),
                private_key=state.keypair.private_key,
            )
            self._signed = (inputs, record)
        return self._signed[1]

    def _rendezvous(self, server: str, fn: Callable[[SecureChannel], T]) -> T:
        """Run fn on the kept session to a rendezvous server, or on a new one."""
        return self._keep(("", server), fn)

    def _open(self, key: tuple[str, str], relayed: bool = False) -> SecureChannel:
        """A new secure channel to key's address: to the user key names, through
        the relay at that address when relayed, or to a rendezvous server."""
        expected, addr = key
        if not addr:
            raise Unavailable(f"no route to {expected}")
        channel = self.endpoint.connect(addr)
        try:
            if relayed:
                wire.call(channel, wire.BRIDGE_OPEN, expected)
            return secure.connect_secure(
                channel,
                self.state.certificate,
                self.state.keypair,
                self.ca_public_key,
                expected_username=expected or None,
                rng=self.rng,
            )
        except ProtocolError:
            channel.close()
            raise

    def _keep(self, key: tuple[str, str], fn: Callable[[SecureChannel], T], relayed: bool = False,
              ready: Callable[[SecureChannel], None] = lambda channel: None,
              fallback: Callable[[], T] | None = None) -> T:
        """Run fn on the channel kept under key, else on a new one; either
        stays kept while it is in step. ready runs on it first, as a
        friend's queue flush does. A kept channel that finds its peer
        unreachable, or fails ready, is replaced once by a new one. When no
        new one opens and gets ready, fallback answers instead, or the
        failure is raised. Other failures of fn are not retried: a reply
        that failed may follow a request that was served, and a write must
        not apply twice. An authenticated refusal, such as not_found, leaves
        the channel in step."""
        if key[0]:
            self._close_kept(key[0], but=key[1])  # kept from before the friend moved
        kept = self._kept.pop(key, None)
        if kept is not None:
            try:
                ready(kept)
            except ProtocolError:
                kept.close()
            else:
                try:
                    return self._run(key, kept, fn)
                except PeerUnreachable:
                    pass  # the connection went away: once more on a new channel
        try:
            channel = self._open(key, relayed)
            try:
                ready(channel)
            except ProtocolError:
                channel.close()
                raise
        except ProtocolError:
            if fallback is None:
                raise
            return fallback()
        return self._run(key, channel, fn)

    def _close_kept(self, username: str, but: str = "") -> None:
        """Close the channels kept to username, but one to address but."""
        for key in [k for k in self._kept if k[0] == username and k[1] != but]:
            self._kept.pop(key).close()

    def _run(self, key: tuple[str, str] | None, channel: SecureChannel,
             fn: Callable[[SecureChannel], T]) -> T:
        """fn(channel); then the channel is kept under key while in step, or
        closed. A channel fn returns is handed to the caller; key None (a
        mirror's channel) is never kept."""
        result = None
        try:
            result = fn(channel)
            return result
        finally:
            if result is channel:
                pass
            elif key is not None and channel.established:
                self._kept[key] = channel
            else:
                channel.close()

    def _register_at(self, server: str, record: RegistrationRecord) -> None:
        pending = self._rendezvous(server, lambda session: rvclient.register_peer(session, record))
        for request in pending:
            passphrase = rvclient.open_request_blob(self.state.keypair, request)
            if passphrase is not None:
                self.state.pending_incoming[request.requester_username] = passphrase
                self.on_event(
                    "friend_request_received",
                    peer=self.username,
                    requester=request.requester_username,
                )

    def reregister(self) -> None:
        record = self.build_record()
        for server in self.state.registered_at or self._registration_targets():
            try:
                self._register_at(server, record)
            except ProtocolError:
                continue

    # ------------------------------------------------------------------ locate / connect

    def _servers_for(self, username: str) -> Iterator[str]:
        """The servers that hold username's record, each resolved only when
        the caller asks for the next: the md5 server, then the sha1 server.
        Each id is first asked of the configured server that precedes it on
        the ring, which answers from its own successor list with no ring
        hop. Only a caller still asking after both (no record verified) gets
        the servers that the peer's registration servers, or else the first
        bootstrap server that answers, name for each id: a lying or stale
        preceding server costs lookups, not the locate. No (server, id) is
        asked twice, and a server is named once."""
        if not self.config.global_mode:
            yield from self._bootstrap_servers()[:1]
            return
        ids = dual_hash(username, self.ring_bits).both()
        vias = self.state.registered_at or self._bootstrap_servers()
        # Each round asks its id of the first of its servers that answers.
        rounds = [(ident, self._preceding_server(ident)) for ident in ids]
        rounds += [(ident, vias) for ident in ids]
        asked: set[tuple[str, int]] = set()
        named: set[str] = set()
        for ident, servers in rounds:
            for via in servers:
                if (via, ident) in asked:
                    continue
                asked.add((via, ident))
                try:
                    server = self._chord_lookup(via, ident)
                except ProtocolError:
                    continue
                if server not in named:
                    named.add(server)
                    yield server
                break

    def _preceding_server(self, ident: int) -> list[str]:
        """The configured rendezvous server whose ring id most closely
        precedes ident, as a list of one, or none when none is configured.
        The servers' ids are hashed once per server list."""
        addrs = tuple(self.config.rendezvous_addrs)
        if self._ring is None or self._ring[0] != (addrs, self.ring_bits):
            ring = sorted((node_ident(addr, self.ring_bits), addr) for addr in set(addrs))
            self._ring = ((addrs, self.ring_bits), [i for i, _ in ring], [a for _, a in ring])
        _, ring_ids, ring_addrs = self._ring
        return [ring_addrs[bisect_left(ring_ids, ident) - 1]] if ring_addrs else []

    def _fetch_record(self, server: str, passphrase: str) -> tuple[RegistrationRecord, bytes] | None:
        try:
            return self._rendezvous(server, lambda session: rvclient.locate_peer(session, passphrase))
        except NotFound:
            return None

    def _locate(self, username: str, passphrase: str,
                cert: Certificate | None = None) -> tuple[RegistrationRecord, str]:
        """username's first record, with its server, that verifies against
        cert, or else against the certificate the server sent: the md5
        server's first, then the sha1 server's. A record that fails, or
        whose certificate does not decode, is reported: an event, and a note
        queued for its owner, which reaches them if they are a friend."""
        attack_seen = False
        for server in self._servers_for(username):
            try:
                fetched = self._fetch_record(server, passphrase)
            except ProtocolError:
                continue
            if fetched is None:
                continue
            record, cert_bytes = fetched
            try:
                check_cert = cert or Certificate.decode(cert_bytes)
            except ProtocolError:
                check_cert = None
            if check_cert is not None and check_peer_record(record, check_cert) == sentinel.OK:
                return record, server
            attack_seen = True
            self.on_event("storage_attack_detected", peer=self.username, server=server, owner=username)
            self._queue_for(username, ("note_bad_server", server))
        if attack_seen:
            raise StorageAttack(f"all located records for {username} failed verification")
        raise NotFound(f"{username} offline or rotated passphrase")

    def locate_friend(self, friend_username: str) -> tuple[RegistrationRecord, str]:
        """Try both dual-hash paths; verify each record before trusting it."""
        entry = self.state.friend_list.get(friend_username)
        if entry is None:
            raise NotFound(f"{friend_username} is not a friend")
        return self._locate(friend_username, entry.passphrase, entry.certificate)

    def _open_route(self, record: RegistrationRecord, expected: str) -> SecureChannel:
        addr, relayed = record.route
        return self._open((expected, addr), relayed)

    def connect_friend(self, friend_username: str) -> tuple[SecureChannel, str]:
        """Channel to the friend, or to one of their mirrors in preference
        order; returns (channel, serving username). The caller owns the
        channel: a kept one is taken out of the keep."""
        channel = self._with_friend(friend_username, lambda channel, served_by: channel)
        return channel, channel.peer_cert.username

    def _with_friend(self, friend: str, fn: Callable[[SecureChannel, str], T],
                     mirrors: bool = True) -> T:
        """Run fn(channel, serving username) on the friend's channel, with
        their queue flushed first: the kept one while the record this
        operation located routes to it, else a new one. Failing that, fn
        runs on a channel to one of their mirrors, unless mirrors is off;
        the mirror table comes from the located record."""
        entry = self.state.friend_list.get(friend)
        if entry is None:
            raise NotFound(f"{friend} is not a friend")
        try:
            record, _server = self.locate_friend(friend)
        except (NotFound, StorageAttack):
            record = None
        if record is not None and entry.friend_key:
            try:
                (entry.mirror_table,) = MIRROR_TABLE.unpack(
                    identity.friend_key_decrypt(entry.friend_key, record.encrypted_mirror_list)
                )
            except ProtocolError:
                pass
        addr, relayed = record.route if record is not None else ("", False)
        return self._keep(
            (friend, addr),
            lambda channel: fn(channel, friend),
            relayed,
            ready=lambda channel: self._flush_queue(channel, friend),
            fallback=(lambda: self._with_mirror(friend, fn)) if mirrors else None,
        )

    def _with_mirror(self, friend: str, fn: Callable[[SecureChannel, str], T]) -> T:
        """fn(channel, mirror) on a channel, not kept, to the first of the
        friend's mirrors that a verified record routes to."""
        for mirror in self.state.friend_list[friend].mirror_table:
            if mirror.username == self.username:
                continue
            try:
                record, _server = self._locate(mirror.username, mirror.passphrase)
                channel = self._open_route(record, mirror.username)
            except ProtocolError:
                continue
            return self._run(None, channel, lambda channel: fn(channel, mirror.username))
        raise Unavailable(f"{friend} and all mirrors unreachable")

    # ------------------------------------------------------------------ friendship lifecycle

    def send_friend_request(self, target_username: str) -> None:
        def deposit(session: SecureChannel) -> None:
            target_cert = rvclient.friend_request(session, target_username)
            blob = rvclient.seal_request_blob(target_cert, self.username, self.state.passphrase)
            rvclient.submit_passphrase_blob(session, blob)

        last: ProtocolError | None = None
        servers = self._servers_for(target_username)
        first = next(servers, None)  # None: no dual-hash server resolved
        for server in self._bootstrap_servers() if first is None else chain((first,), servers):
            try:
                self._rendezvous(server, deposit)
                self.state.pending_outgoing.add(target_username)
                self.on_event("friend_request_sent", peer=self.username, target=target_username)
                return
            except ProtocolError as exc:
                last = exc
        raise last or NotFound(target_username)

    def accept_friend(self, requester: str) -> None:
        passphrase = self.state.pending_incoming.pop(requester, None)
        if passphrase is None:
            raise NotFound(f"no pending request from {requester}")
        entry = FriendEntry(username=requester, passphrase=passphrase)
        self.state.friend_list[requester] = entry
        try:
            record, _server = self._locate(requester, passphrase)
            with closing(self._open_route(record, requester)) as channel:
                entry.certificate = channel.peer_cert
                entry.friend_key, entry.mirror_table = channel.call(
                    "friend_accept", self.state.passphrase, self.state.friend_key,
                    self.state.mirror_table,
                )
        except ProtocolError:
            # Nothing was exchanged: unwind so the request stays acceptable.
            self.state.friend_list.pop(requester, None)
            self.state.pending_incoming[requester] = passphrase
            raise
        self._grant_friend(requester)
        self.on_event("friend_accepted", peer=self.username, requester=requester)

    def revoke_friend(self, ex_friend: str) -> None:
        state = self.state
        if ex_friend not in state.friend_list:
            raise NotFound(ex_friend)
        del state.friend_list[ex_friend]
        state.pending_incoming.pop(ex_friend, None)
        state.pending_outgoing.discard(ex_friend)
        state.mirror_table = [m for m in state.mirror_table if m.username != ex_friend]
        self.replicas.pop(ex_friend, None)
        self._close_kept(ex_friend)
        state.passphrase = identity.generate_passphrase(self.rng)
        state.friend_key = identity.generate_friend_key(self.rng)
        self._grant_friend(ex_friend, granted=False)
        self.reregister()
        for friend in sorted(state.friend_list):
            self._queue_for(friend, ("passphrase_update", state.passphrase, state.friend_key))
        self.flush_queues()
        self.on_event("revoked", peer=self.username, ex=ex_friend)

    # Friends get read and write access to the profile; private messages
    # stay append-only ciphertext and group definitions read-only.
    _FRIEND_GRANTS = (
        ("info", "read"),
        ("share_board", "write"),
        ("events", "write"),
        ("groups", "read"),
        ("private_messages", "write"),
    )

    def _grant_friend(self, username: str, granted: bool = True) -> None:
        """Give a friend these grants, or (granted False) no access to the same components."""
        for component, mode in self._FRIEND_GRANTS:
            mode = mode if granted else "no_access"
            self.profile.apply_update(
                self.username, component, op_perm(mode, {username}), timestamp=self.clock()
            )

    def _queue_for(self, friend: str, message: tuple) -> None:
        """Queue an app message, (kind, *values), for the friend's next
        channel, unless the same message is already queued: each kind
        queued is idempotent, so a second copy would only be sent twice."""
        queue = self.state.queued_updates.setdefault(friend, [])
        if message not in queue:
            queue.append(message)

    def flush_queues(self) -> None:
        """Deliver queued updates to every friend currently reachable."""
        for friend in sorted(self.state.queued_updates):
            if not self.state.queued_updates.get(friend):
                continue
            if friend not in self.state.friend_list:
                self.state.queued_updates.pop(friend, None)
                continue
            try:
                # Reaching the friend themself delivers the queue; a mirror cannot take it.
                self._with_friend(friend, lambda channel, served_by: None, mirrors=False)
            except ProtocolError:
                continue

    def _flush_queue(self, channel: SecureChannel, friend: str) -> None:
        queue = self.state.queued_updates.get(friend, [])
        while queue:
            channel.call(*queue[0])
            queue.pop(0)
        self.state.queued_updates.pop(friend, None)

    # ------------------------------------------------------------------ mirrors and sync

    def add_mirror(self, friend_username: str) -> None:
        """Appoint a friend as a mirror and seed their replica."""
        entry = self.state.friend_list.get(friend_username)
        if entry is None:
            raise NotFound(friend_username)

        def seed(channel: SecureChannel, served_by: str) -> None:
            allowed = ",".join(sorted(self.state.friend_list))
            channel.call("mirror_init", self.username, allowed, self.profile.log)

        # Only the friend themself can take the replica, not one of their mirrors.
        self._with_friend(friend_username, seed, mirrors=False)
        if all(m.username != friend_username for m in self.state.mirror_table):
            self.state.mirror_table.append(
                MirrorEntry(username=friend_username, passphrase=entry.passphrase)
            )
        self.reregister()

    def sync_mirrors(self) -> None:
        """Reconcile with every mirror that serves itself; one that cannot be
        reached or fails is skipped until the next round. When a mirror
        hands the owner entries, the mirrors already reconciled this round
        are reconciled again, so each leaves the round with them."""
        done: list[MirrorEntry] = []
        for mirror in self.state.mirror_table:
            if self._sync_mirror(mirror):
                for earlier in done:
                    self._sync_mirror(earlier)
            done.append(mirror)

    def _sync_mirror(self, mirror: MirrorEntry) -> bool:
        """Reconcile with one mirror; True when it handed the owner entries."""

        try:
            # Not with one of the mirror's own mirrors.
            return self._with_friend(mirror.username, lambda channel, _: self._sync_over(channel), mirrors=False)
        except ProtocolError:
            return False

    def _sync_over(self, channel: SecureChannel) -> bool:
        """Bidirectional reconcile of this peer's profile with a mirror over
        one channel; True when the pull changed the local copy."""
        owner, mine = self.username, self.profile
        ((their_vector, their_digests),) = channel.call("sync_vec", owner)
        missing = mine.pull_updates("", their_vector, their_digests, filtered=False)
        channel.call("sync_push", owner, ",".join(sorted(self.state.friend_list)), missing)
        pushed = sum(2 + len(entry.encode()) for entry in missing)  # encodings the push kept
        pulled, changed = self._pull(channel, owner, mine)
        self.on_event("sync", peer=self.username, owner=owner, bytes=pushed + pulled)
        return changed

    def _pull(self, channel: SecureChannel, owner: str, into: Profile) -> tuple[int, bool]:
        """Merge owner's entries that into lacks; returns their encoded size
        and whether into changed."""
        (entries,) = channel.call("pull", owner, into)
        return channel.reply_size, into.merge_entries(entries)

    def pull_friend_profile(self, friend_username: str, into: Profile | None = None) -> Profile:
        """Pull-based read of a friend's profile (owner or mirror serves)."""
        local = into if into is not None else Profile(friend_username)

        def pull(channel: SecureChannel, served_by: str) -> None:
            pulled, _ = self._pull(channel, friend_username, local)
            self.on_event(
                "pull",
                peer=self.username,
                owner=friend_username,
                served_by=served_by,
                bytes=pulled,
            )

        self._with_friend(friend_username, pull)
        return local

    def write_to_friend(self, friend_username: str, path: str, op: bytes) -> int:
        (version,) = self._with_friend(
            friend_username, lambda channel, served_by: channel.call("op", friend_username, path, op)
        )
        return version

    # ------------------------------------------------------------------ periodic upkeep

    def tick(self) -> None:
        """Re-admit once the relay leg reads closed, or while a needed relay
        is missing; flush queues; file complaints."""
        leg = self._relay_channel
        if needs_relay(self.state.nat_type) and (leg is None or leg.closed):
            before = self.state.relay_endpoint
            self._obtain_relay()
            if self.state.relay_endpoint != before:
                self.reregister()
        self.flush_queues()
        self.maybe_file_complaints()

    # ------------------------------------------------------------------ complaints

    def maybe_file_complaints(self) -> None:
        for accused in sorted(self.notifications.notes):
            if not self.notifications.should_complain(accused):
                continue
            self.file_complaint(accused)

    def file_complaint(self, accused: str) -> None:
        complaint = sentinel.make_complaint(
            accused, self.state.certificate, self.state.keypair.private_key, self.clock()
        )
        targets = [self._witness] if self._witness and self._witness != accused else []
        targets += [s for s in self.state.registered_at if s != accused]
        targets += [s for s in self._bootstrap_servers() if s != accused]
        for server in dict.fromkeys(targets):
            try:
                with closing(self.endpoint.connect(server)) as channel:
                    rvclient.submit_complaint(channel, complaint.encode())
                self.notifications.mark_filed(accused)
                self.on_event("complaint_filed", peer=self.username, accused=accused, via=server)
                return
            except ProtocolError:
                continue

    # ------------------------------------------------------------------ app handler

    def _handle_app(self, body: bytes, sender: Certificate) -> bytes:
        return secure.dispatch_app(self, body, sender)

    def _profile_for(self, owner: str, requester: str) -> Profile:
        if owner in ("", self.username):
            return self.profile
        replica = self.replicas.get(owner)
        if replica is None:
            raise NotFound(f"no replica for {owner}")
        if not replica.may_access(requester):
            raise AuthError(f"{requester} may not access {owner}'s replica")
        return replica.profile

    # App handlers, one per app kind: (sender's certificate, *request values) -> reply values.

    def _on_ping(self, sender: Certificate) -> tuple:
        return ()

    def _on_friend_accept(self, sender: Certificate, passphrase: str, friend_key: bytes,
                          mirror_table: list[MirrorEntry]) -> tuple:
        peer = sender.username
        if peer not in self.state.pending_outgoing:
            raise AuthError("no outstanding request to this user")
        self.state.pending_outgoing.discard(peer)
        self.state.friend_list[peer] = FriendEntry(
            username=peer,
            passphrase=passphrase,
            friend_key=friend_key,
            certificate=sender,
            mirror_table=mirror_table,
        )
        self._grant_friend(peer)
        self.on_event("friendship_established", peer=self.username, friend=peer)
        return self.state.friend_key, self.state.mirror_table

    def _on_passphrase_update(self, sender: Certificate, passphrase: str,
                              friend_key: bytes) -> tuple:
        entry = self.state.friend_list.get(sender.username)
        if entry is None:
            raise AuthError("not a friend")
        entry.passphrase = passphrase
        if friend_key:
            entry.friend_key = friend_key
        return ()

    def _on_note_bad_server(self, sender: Certificate, accused: str) -> tuple:
        self.notifications.note(accused, sender.username)
        self.maybe_file_complaints()
        return ()

    def _on_mirror_init(self, sender: Certificate, owner: str, allowed: str,
                        entries: list[LogEntry]) -> tuple:
        if owner != sender.username:
            raise AuthError("only the owner may seed a replica")
        self.replicas[owner] = MirrorReplica(
            owner=owner,
            profile=Profile.replay(owner, entries),
            allowed_users={u for u in allowed.split(",") if u},
        )
        self.on_event("replica_seeded", peer=self.username, owner=owner)
        return ()

    def _on_sync_vec(self, sender: Certificate, owner: str) -> tuple:
        return (self._profile_for(owner, sender.username),)

    def _on_sync_push(self, sender: Certificate, owner: str, allowed: str,
                      entries: list[LogEntry]) -> tuple:
        peer = sender.username
        if owner == peer:
            replica = self.replicas.get(owner)
            if replica is None:
                raise NotFound(f"no replica for {owner}")
            replica.profile.merge_entries(entries)
            if allowed:
                replica.allowed_users = {u for u in allowed.split(",") if u}
        elif owner in ("", self.username):
            # A mirror returning entries collected while this peer was away.
            if not self._is_my_mirror(peer):
                raise AuthError("not one of this peer's mirrors")
            self.profile.merge_entries(entries)
        else:
            raise AuthError("cannot push for a third party")
        return ()

    def _on_pull(self, sender: Certificate, owner: str, vector: tuple) -> tuple:
        peer = sender.username
        versions, digests = vector
        profile = self._profile_for(owner, peer)
        trusted = peer == owner or (owner in ("", self.username) and self._is_my_mirror(peer))
        return (profile.pull_updates(peer, versions, digests, filtered=not trusted),)

    def _is_my_mirror(self, username: str) -> bool:
        return any(m.username == username for m in self.state.mirror_table)

    def _on_op(self, sender: Certificate, owner: str, path: str, op: bytes) -> tuple:
        peer = sender.username
        profile = self._profile_for(owner, peer)
        return (profile.apply_update(peer, path, op, timestamp=self.clock()),)


def save_state(peer: Peer, path: str) -> None:
    """Persist everything a later CLI invocation needs, JSON with base64 blobs."""
    def b64(data: bytes) -> str:
        return base64.b64encode(data).decode("ascii")

    state = peer.state
    doc = {
        "username": state.username,
        "keypair": {
            "public": b64(state.keypair.public_key),
            "private": b64(state.keypair.private_key),
            "algorithm": state.keypair.algorithm_id,
        },
        "certificate": b64(state.certificate.encode()) if state.certificate else "",
        "passphrase": state.passphrase,
        "friend_key": b64(state.friend_key),
        "nat_type": state.nat_type.value,
        "mapped_ip": state.mapped_ip,
        "mapped_port": state.mapped_port,
        "relay_endpoint": list(state.relay_endpoint) if state.relay_endpoint else None,
        "registered_at": state.registered_at,
        "mirror_table": [[m.username, m.passphrase] for m in state.mirror_table],
        "pending_outgoing": sorted(state.pending_outgoing),
        "pending_incoming": dict(state.pending_incoming),
        "friend_list": {
            name: {
                "passphrase": entry.passphrase,
                "friend_key": b64(entry.friend_key),
                "certificate": b64(entry.certificate.encode()) if entry.certificate else "",
                "mirror_table": [[m.username, m.passphrase] for m in entry.mirror_table],
            }
            for name, entry in state.friend_list.items()
        },
        "profile_log": b64(peer.profile.export_log()),
        # Each queued app message as its kind and its request's packed fields.
        "queued_updates": {
            friend: [[kind, b64(wire.encode(kind, *values))] for kind, *values in queue]
            for friend, queue in state.queued_updates.items()
        },
        "replicas": {
            owner: {"allowed_users": sorted(replica.allowed_users), "log": b64(replica.profile.export_log())}
            for owner, replica in peer.replicas.items()
        },
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)


def load_state(peer: Peer, path: str) -> None:
    def unb64(text: str) -> bytes:
        return base64.b64decode(text) if text else b""

    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    identity.check_algorithm(doc["keypair"]["algorithm"])
    state = peer.state
    state.username = doc["username"]
    peer.username = doc["username"]
    state.keypair = KeyPair(
        public_key=unb64(doc["keypair"]["public"]),
        private_key=unb64(doc["keypair"]["private"]),
        algorithm_id=doc["keypair"]["algorithm"],
    )
    state.certificate = (
        Certificate.decode(unb64(doc["certificate"])) if doc["certificate"] else None
    )
    state.passphrase = doc["passphrase"]
    state.friend_key = unb64(doc["friend_key"])
    state.nat_type = NatType(doc["nat_type"])
    state.mapped_ip = doc["mapped_ip"]
    state.mapped_port = doc["mapped_port"]
    state.relay_endpoint = tuple(doc["relay_endpoint"]) if doc["relay_endpoint"] else None
    state.registered_at = list(doc["registered_at"])
    state.mirror_table = [MirrorEntry(u, p) for u, p in doc["mirror_table"]]
    state.pending_outgoing = set(doc["pending_outgoing"])
    state.pending_incoming = dict(doc["pending_incoming"])
    state.friend_list = {
        name: FriendEntry(
            username=name,
            passphrase=entry["passphrase"],
            friend_key=unb64(entry["friend_key"]),
            certificate=Certificate.decode(unb64(entry["certificate"])) if entry["certificate"] else None,
            mirror_table=[MirrorEntry(u, p) for u, p in entry["mirror_table"]],
        )
        for name, entry in doc["friend_list"].items()
    }
    if doc.get("profile_log"):
        peer.profile = Profile.import_log(unb64(doc["profile_log"]))
    # Absent from a file written before they were saved.
    state.queued_updates = {
        friend: [(kind, *wire.decode(kind, unb64(data))) for kind, data in queue]
        for friend, queue in doc.get("queued_updates", {}).items()
    }
    peer.replicas = {
        owner: MirrorReplica(owner, Profile.import_log(unb64(replica["log"])), set(replica["allowed_users"]))
        for owner, replica in doc.get("replicas", {}).items()
    }


class _Probe:
    """sentinel.RegistrationProbe over a live peer."""

    def __init__(self, peer: Peer, exclude: set[str]):
        self.peer = peer
        self._alternates = [s for s in peer._bootstrap_servers() if s not in exclude]

    def locate(self, via_addr: str, ident: int) -> str:
        return self.peer._chord_lookup(via_addr, ident)

    def fetch_record(self, server_addr: str, passphrase: str):
        try:
            return self.peer._fetch_record(server_addr, passphrase)
        except PeerUnreachable:
            raise
        except ProtocolError:
            return None

    def try_connect(self, record: RegistrationRecord) -> bool:
        # On the friend's kept channel, which stays kept for the friend
        # operations that follow. _keep closes the friend's channels kept
        # under other addresses; a server serving a stale signed record can
        # already cause that close through _with_friend's locate.
        addr, relayed = record.route
        try:
            self.peer._keep((record.username, addr), lambda channel: channel.call("ping"), relayed)
            return True
        except ProtocolError:
            return False

    def next_alternate(self) -> str | None:
        return self._alternates.pop(0) if self._alternates else None
