"""Client-side orchestration: bootstrap, friends, mirrors, access gating.

A peer signs up once with the CA, classifies its NAT, obtains and keeps a
relay when it cannot accept inbound traffic, registers its signed
connection record (at one server locally, at both dual-hash successors
globally, with the sentinel verification run first once a friend exists),
and from then on locates friends by passphrase, connects direct /
hole-punch / relayed, falls back to their mirrors in preference order, and
replicates its own profile to mirrors it appointed.

Inbound channels are admitted only for friends, friend requesters,
requested friends, or users allowed on a hosted replica.
"""
from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from typing import Callable

from . import caservice, identity, rvclient, secure, sentinel, wire
from .channel import Endpoint, FuncSession, SessionContext
from .chord import DualId, dual_hash
from .config import PeerConfig
from .errors import (
    AuthError,
    MalformedRequest,
    NotFound,
    PeerUnreachable,
    ProtocolError,
    StorageAttack,
    Unavailable,
)
from .identity import Certificate, KeyPair
from .nat import NatType, Route, needs_relay, route_for_record, stun_classify, wire_nat_kind
from .profile import MirrorReplica, Profile, decode_entries, encode_entries
from .records import (
    MirrorEntry,
    RegistrationRecord,
    decode_mirror_table,
    encode_mirror_table,
    make_registration_record,
)
from .relay import MuxService, admit_as_server, send_keepalive
from .secure import SecureChannel, pack_app, read_app_kind
from .sentinel import NotificationBook, VerificationOutcome, check_peer_record


@dataclass
class FriendEntry:
    username: str
    passphrase: str
    friend_key: bytes = b""
    certificate: bytes = b""
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
    relay_token: bytes = b""
    relay_interval_ms: int = 0
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
        self.ca_public_key = ca_public_key
        self.ca_algorithm = ca_algorithm
        self.probes = probes
        self.rng = rng or random.Random()
        self.clock = clock or (lambda: int(time.time() * 1000))
        self.on_event = on_event or (lambda kind, **fields: None)
        self.username = config.username
        self.state = PeerState(
            username=config.username,
            keypair=keypair or identity.generate_keypair(identity.DEFAULT_ALGORITHM),
            passphrase=config.passphrase or identity.generate_passphrase(self.rng),
            friend_key=identity.generate_friend_key(self.rng),
        )
        self.profile = Profile(config.username)
        self.replicas: dict[str, MirrorReplica] = {}
        self.notifications = NotificationBook(threshold=config.notification_threshold)
        self.ring_bits = 128
        self._mux: MuxService | None = None
        self._witness: str | None = None  # last verified-correct server

    # ------------------------------------------------------------------ service

    def open_session(self, ctx: SessionContext):
        if self.state.certificate is None:
            # Not bootstrapped yet: refuse without revealing anything.
            return FuncSession(
                lambda frame, c: wire.err_reply(frame.msg_type, "unavailable", "not ready")
            )
        return secure.ResponderSession(
            self.state.certificate,
            self.state.keypair,
            self.ca_public_key,
            self.ca_algorithm,
            self.admission_gate,
            self._handle_app,
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
        if needs_relay(state.nat_type):
            self._obtain_relay()
        else:
            # NAT may have improved since the last run: drop stale relay state.
            state.relay_endpoint = None
            state.relay_token = b""
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
        channel = self.endpoint.connect(self.config.ca_addr)
        try:
            self.state.certificate = caservice.request_certificate(
                channel, self.username, self.state.keypair, self.ca_public_key, self.ca_algorithm
            )
        finally:
            channel.close()

    def _obtain_relay(self) -> None:
        state = self.state
        got = None
        for server in self._bootstrap_servers():
            try:
                channel = self.endpoint.connect(server)
                try:
                    got = rvclient.request_relay(channel)
                finally:
                    channel.close()
                if got:
                    break
            except PeerUnreachable:
                continue
        if not got:
            # Degraded: outbound-only operation.
            self.on_event("no_relay", peer=self.username)
            state.relay_endpoint = None
            return
        relay_addr = f"{got[0]}:{got[1]}"
        self._mux = MuxService(self)
        channel = self.endpoint.connect(relay_addr)
        interval, token = admit_as_server(
            channel, state.certificate, state.keypair.private_key, self._mux
        )
        state.relay_endpoint = got
        state.relay_token = token
        state.relay_interval_ms = interval

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
        friend_name = sorted(self.state.friend_list)[0]
        entry = self.state.friend_list[friend_name]
        probe = _Probe(self, exclude={x_addr})
        return sentinel.verify_registration_targets(
            probe,
            x_addr,
            y,
            z,
            friend_name,
            entry.passphrase,
            Certificate.decode(entry.certificate),
            self.my_ids(),
            dual_hash(friend_name, self.ring_bits),
        )

    def _chord_lookup(self, server: str, ident: int) -> str:
        channel = self.endpoint.connect(server)
        try:
            addr, _hops = rvclient.chord_lookup(channel, ident)
            return addr
        finally:
            channel.close()

    def build_record(self) -> RegistrationRecord:
        state = self.state
        enc_mirrors = identity.friend_key_encrypt(
            state.friend_key, encode_mirror_table(state.mirror_table)
        )
        relay_addr = state.relay_endpoint[0] if state.relay_endpoint else ""
        relay_port = state.relay_endpoint[1] if state.relay_endpoint else 0
        return make_registration_record(
            username=self.username,
            ip=state.mapped_ip,
            port=state.mapped_port,
            nat_kind=wire_nat_kind(state.nat_type),
            protocol="tcp",
            relay_address=relay_addr,
            relay_port=relay_port,
            passphrase=state.passphrase,
            encrypted_mirror_list=enc_mirrors,
            private_key=state.keypair.private_key,
            algorithm_id=state.keypair.algorithm_id,
        )

    def _register_at(self, server: str, record: RegistrationRecord) -> None:
        channel = self.endpoint.connect(server)
        client = rvclient.open_secure(channel, self.state.certificate, self.state.keypair)
        try:
            pending = rvclient.register_peer(client, record)
        finally:
            client.close()
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

    def _servers_for(self, username: str) -> list[str]:
        if not self.config.global_mode:
            return self._bootstrap_servers()[:1]
        ids = dual_hash(username, self.ring_bits)
        servers: list[str] = []
        vias = self.state.registered_at or self._bootstrap_servers()
        for ident in ids.both():
            for via in vias:
                try:
                    servers.append(self._chord_lookup(via, ident))
                    break
                except ProtocolError:
                    continue
        return list(dict.fromkeys(servers))

    def _fetch_record(self, server: str, passphrase: str) -> tuple[RegistrationRecord, bytes] | None:
        channel = self.endpoint.connect(server)
        client = rvclient.open_secure(channel, self.state.certificate, self.state.keypair)
        try:
            return rvclient.locate_peer(client, passphrase)
        except NotFound:
            return None
        finally:
            client.close()

    def locate_friend(self, friend_username: str) -> tuple[RegistrationRecord, str]:
        """Try both dual-hash paths; verify each record before trusting it."""
        entry = self.state.friend_list.get(friend_username)
        if entry is None:
            raise NotFound(f"{friend_username} is not a friend")
        cert = Certificate.decode(entry.certificate) if entry.certificate else None
        attack_seen = False
        found_any = False
        for server in self._servers_for(friend_username):
            try:
                fetched = self._fetch_record(server, entry.passphrase)
            except ProtocolError:
                continue
            if fetched is None:
                continue
            found_any = True
            record, cert_bytes = fetched
            check_cert = cert or Certificate.decode(cert_bytes)
            if check_peer_record(record, check_cert) != sentinel.OK:
                attack_seen = True
                self.on_event(
                    "storage_attack_detected",
                    peer=self.username,
                    server=server,
                    owner=friend_username,
                )
                self._queue_for(friend_username, ("note_bad_server", server))
                continue
            return record, server
        if attack_seen:
            raise StorageAttack(f"all located records for {friend_username} failed verification")
        raise NotFound(f"{friend_username} offline or rotated passphrase")

    def _open_route(self, record: RegistrationRecord, expected: str) -> SecureChannel:
        route = route_for_record(self.state.nat_type, record.nat_kind, record.has_relay)
        if route in (Route.DIRECT, Route.HOLE_PUNCH):
            channel = self.endpoint.connect(f"{record.ip}:{record.port}")
        elif route is Route.RELAY:
            channel = self.endpoint.connect(f"{record.relay_address}:{record.relay_port}")
            wire.call(channel, wire.BRIDGE_OPEN, expected)
        else:
            raise Unavailable(f"no route to {expected}")
        return secure.connect_secure(
            channel,
            self.state.certificate,
            self.state.keypair,
            self.ca_public_key,
            self.ca_algorithm,
            expected_username=expected,
            rng=self.rng,
        )

    def connect_friend(self, friend_username: str) -> tuple[SecureChannel, str]:
        """Channel to the friend, or to one of their mirrors in preference
        order; returns (channel, serving username)."""
        entry = self.state.friend_list.get(friend_username)
        if entry is None:
            raise NotFound(f"{friend_username} is not a friend")
        mirror_table = list(entry.mirror_table)
        try:
            record, _server = self.locate_friend(friend_username)
        except (NotFound, StorageAttack):
            record = None
        if record is not None:
            if entry.friend_key:
                try:
                    mirror_table = decode_mirror_table(
                        identity.friend_key_decrypt(entry.friend_key, record.encrypted_mirror_list)
                    )
                    entry.mirror_table = mirror_table
                except ProtocolError:
                    pass
            try:
                channel = self._open_route(record, friend_username)
                self._flush_queue(channel, friend_username)
                return channel, friend_username
            except ProtocolError:
                pass
        for mirror in mirror_table:
            if mirror.username == self.username:
                continue
            try:
                fetched = None
                for server in self._servers_for(mirror.username):
                    fetched = self._fetch_record(server, mirror.passphrase)
                    if fetched is not None:
                        break
                if fetched is None:
                    continue
                mirror_record, mirror_cert = fetched
                if check_peer_record(mirror_record, Certificate.decode(mirror_cert)) != sentinel.OK:
                    continue
                channel = self._open_route(mirror_record, mirror.username)
                return channel, mirror.username
            except ProtocolError:
                continue
        raise Unavailable(f"{friend_username} and all mirrors unreachable")

    # ------------------------------------------------------------------ friendship lifecycle

    def send_friend_request(self, target_username: str) -> None:
        last: ProtocolError | None = None
        for server in self._servers_for(target_username) or self._bootstrap_servers():
            try:
                channel = self.endpoint.connect(server)
                client = rvclient.open_secure(channel, self.state.certificate, self.state.keypair)
                try:
                    target_cert = rvclient.friend_request(client, target_username)
                    blob = rvclient.seal_request_blob(
                        target_cert, self.username, self.state.passphrase
                    )
                    rvclient.submit_passphrase_blob(client, blob)
                finally:
                    client.close()
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
            record = None
            for server in self._servers_for(requester):
                try:
                    record = self._fetch_record(server, passphrase)
                except ProtocolError:
                    continue
                if record is not None:
                    break
            if record is None:
                raise Unavailable(f"{requester} not currently registered")
            channel = self._open_route(record[0], requester)
            entry.certificate = channel.peer_cert.encode()
            entry.friend_key, entry.mirror_table = channel.call(
                "friend_accept", self.state.passphrase, self.state.friend_key, self.state.mirror_table
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
        state.passphrase = identity.generate_passphrase(self.rng)
        state.friend_key = identity.generate_friend_key(self.rng)
        self._ungrant_friend(ex_friend)
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

    def _grant_friend(self, username: str) -> None:
        from .profile import op_perm

        for component, mode in self._FRIEND_GRANTS:
            self.profile.apply_update(
                self.username, component, op_perm(mode, {username}), timestamp=self.clock()
            )

    def _ungrant_friend(self, username: str) -> None:
        from .profile import op_perm

        for component, _ in self._FRIEND_GRANTS:
            self.profile.apply_update(
                self.username, component, op_perm("no_access", {username}), timestamp=self.clock()
            )

    def _queue_for(self, friend: str, message: tuple) -> None:
        """Queue an app message, (kind, *values), for the friend's next channel."""
        self.state.queued_updates.setdefault(friend, []).append(message)

    def flush_queues(self) -> None:
        """Deliver queued updates to every friend currently reachable."""
        for friend in sorted(self.state.queued_updates):
            if not self.state.queued_updates.get(friend):
                continue
            if friend not in self.state.friend_list:
                self.state.queued_updates.pop(friend, None)
                continue
            try:
                channel, served_by = self.connect_friend(friend)
            except ProtocolError:
                continue
            if served_by != friend:
                channel.close()
                continue  # only the friend themself can take these
            self._flush_queue(channel, friend)
            channel.close()

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
        channel, served_by = self.connect_friend(friend_username)
        if served_by != friend_username:
            channel.close()
            raise Unavailable(f"{friend_username} not directly reachable")
        channel.call(
            "mirror_init",
            self.username,
            ",".join(sorted(self.state.friend_list)),
            encode_entries(self.profile.log),
        )
        channel.close()
        if all(m.username != friend_username for m in self.state.mirror_table):
            self.state.mirror_table.append(
                MirrorEntry(username=friend_username, passphrase=entry.passphrase)
            )
        self.reregister()

    def sync_mirrors(self) -> None:
        for mirror in self.state.mirror_table:
            try:
                channel, served_by = self.connect_friend(mirror.username)
            except ProtocolError:
                continue
            if served_by != mirror.username:
                channel.close()
                continue
            try:
                self._sync_over(channel, self.username)
            finally:
                channel.close()

    def _sync_over(self, channel: SecureChannel, owner: str) -> None:
        """Bidirectional reconcile of owner's profile over one channel."""
        mine = self.profile if owner == self.username else self.replicas[owner].profile
        ((their_vector, their_digests),) = channel.call("sync_vec", owner)
        missing = mine.pull_updates("", their_vector, their_digests, filtered=False)
        allowed = ",".join(sorted(self.state.friend_list)) if owner == self.username else ""
        pushed = encode_entries(missing)
        channel.call("sync_push", owner, pushed, allowed)
        pulled = self._pull(channel, owner, mine)
        self.on_event("sync", peer=self.username, owner=owner, bytes=len(pushed) + pulled)

    def _pull(self, channel: SecureChannel, owner: str, into: Profile) -> int:
        """Merge owner's entries that into lacks; returns their encoded size."""
        (entries,) = channel.call("pull", owner, into)
        into.merge_entries(decode_entries(entries))
        return len(entries)

    def pull_friend_profile(self, friend_username: str, into: Profile | None = None) -> Profile:
        """Pull-based read of a friend's profile (owner or mirror serves)."""
        channel, served_by = self.connect_friend(friend_username)
        try:
            local = into if into is not None else Profile(friend_username)
            pulled = self._pull(channel, friend_username, local)
            self.on_event(
                "pull",
                peer=self.username,
                owner=friend_username,
                served_by=served_by,
                bytes=pulled,
            )
            return local
        finally:
            channel.close()

    def write_to_friend(self, friend_username: str, path: str, op: bytes) -> int:
        channel, served_by = self.connect_friend(friend_username)
        try:
            (version,) = channel.call("op", friend_username, path, op)
            return version
        finally:
            channel.close()

    # ------------------------------------------------------------------ periodic upkeep

    def tick(self) -> None:
        state = self.state
        if state.relay_endpoint is not None and state.relay_token:
            try:
                channel = self.endpoint.connect(
                    f"{state.relay_endpoint[0]}:{state.relay_endpoint[1]}"
                )
                try:
                    send_keepalive(channel, state.relay_token)
                finally:
                    channel.close()
            except ProtocolError:
                pass
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
                channel = self.endpoint.connect(server)
                try:
                    rvclient.submit_complaint(channel, complaint.encode())
                finally:
                    channel.close()
                self.notifications.mark_filed(accused)
                self.on_event("complaint_filed", peer=self.username, accused=accused, via=server)
                return
            except ProtocolError:
                continue

    # ------------------------------------------------------------------ app handler

    def _handle_app(self, body: bytes, peer_username: str, ctx: SessionContext) -> bytes:
        kind, pos = read_app_kind(body)
        handler = getattr(self, f"_on_{kind}", None) if kind in wire.SCHEMA else None
        if handler is None:
            raise MalformedRequest(f"unknown app kind {kind}")
        values = handler(peer_username, ctx, *wire.decode(kind, body, pos))
        return pack_app(wire.SCHEMA[kind].reply_kind) + wire.encode(kind, *values, reply=True)

    def _profile_for(self, owner: str, requester: str, write: bool) -> Profile:
        if owner in ("", self.username):
            return self.profile
        replica = self.replicas.get(owner)
        if replica is None:
            raise NotFound(f"no replica for {owner}")
        if not replica.may_access(requester):
            raise AuthError(f"{requester} may not access {owner}'s replica")
        return replica.profile

    # App handlers, one per app kind: (sender, ctx, *request values) -> reply values.

    def _on_ping(self, peer: str, ctx: SessionContext) -> tuple:
        return ()

    def _on_friend_accept(self, peer: str, ctx: SessionContext, passphrase: str, friend_key: bytes,
                          mirror_table: list[MirrorEntry]) -> tuple:
        if peer not in self.state.pending_outgoing:
            raise AuthError("no outstanding request to this user")
        self.state.pending_outgoing.discard(peer)
        peer_cert = ctx.meta.get("peer_cert")
        self.state.friend_list[peer] = FriendEntry(
            username=peer,
            passphrase=passphrase,
            friend_key=friend_key,
            certificate=peer_cert.encode() if peer_cert is not None else b"",
            mirror_table=mirror_table,
        )
        self._grant_friend(peer)
        self.on_event("friendship_established", peer=self.username, friend=peer)
        return self.state.friend_key, self.state.mirror_table

    def _on_passphrase_update(self, peer: str, ctx: SessionContext, passphrase: str,
                              friend_key: bytes) -> tuple:
        entry = self.state.friend_list.get(peer)
        if entry is None:
            raise AuthError("not a friend")
        entry.passphrase = passphrase
        if friend_key:
            entry.friend_key = friend_key
        return ()

    def _on_note_bad_server(self, peer: str, ctx: SessionContext, accused: str) -> tuple:
        self.notifications.note(accused, peer)
        self.maybe_file_complaints()
        return ()

    def _on_mirror_init(self, peer: str, ctx: SessionContext, owner: str, allowed: str,
                        entries: bytes) -> tuple:
        if owner != peer:
            raise AuthError("only the owner may seed a replica")
        self.replicas[owner] = MirrorReplica(
            owner=owner,
            profile=Profile.replay(owner, decode_entries(entries)),
            allowed_users={u for u in allowed.split(",") if u},
        )
        self.on_event("replica_seeded", peer=self.username, owner=owner)
        return ()

    def _on_sync_vec(self, peer: str, ctx: SessionContext, owner: str) -> tuple:
        return (self._profile_for(owner, peer, write=False),)

    def _on_sync_push(self, peer: str, ctx: SessionContext, owner: str, pushed: bytes,
                      allowed: str) -> tuple:
        entries = decode_entries(pushed)
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

    def _on_pull(self, peer: str, ctx: SessionContext, owner: str, vector: tuple) -> tuple:
        versions, digests = vector
        profile = self._profile_for(owner, peer, write=False)
        trusted = peer == owner or (owner in ("", self.username) and self._is_my_mirror(peer))
        return (encode_entries(profile.pull_updates(peer, versions, digests, filtered=not trusted)),)

    def _is_my_mirror(self, username: str) -> bool:
        return any(m.username == username for m in self.state.mirror_table)

    def _on_op(self, peer: str, ctx: SessionContext, owner: str, path: str, op: bytes) -> tuple:
        profile = self._profile_for(owner, peer, write=True)
        return (profile.apply_update(peer, path, op, timestamp=self.clock()),)

    def _on_read(self, peer: str, ctx: SessionContext, owner: str, path: str) -> tuple:
        profile = self._profile_for(owner, peer, write=False)
        if peer != profile.owner and not profile.check_permission(peer, path, "read"):
            raise AuthError(f"{peer} may not read {path}")
        return (profile.element(path).content,)


def save_state(peer: Peer, path: str) -> None:
    """Persist everything a later CLI invocation needs, JSON with base64 blobs."""
    import base64
    import json

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
        "relay_token": b64(state.relay_token),
        "relay_interval_ms": state.relay_interval_ms,
        "registered_at": state.registered_at,
        "mirror_table": [[m.username, m.passphrase] for m in state.mirror_table],
        "pending_outgoing": sorted(state.pending_outgoing),
        "pending_incoming": dict(state.pending_incoming),
        "friend_list": {
            name: {
                "passphrase": entry.passphrase,
                "friend_key": b64(entry.friend_key),
                "certificate": b64(entry.certificate),
                "mirror_table": [[m.username, m.passphrase] for m in entry.mirror_table],
            }
            for name, entry in state.friend_list.items()
        },
        "profile_log": b64(peer.profile.export_log()),
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)


def load_state(peer: Peer, path: str) -> None:
    import base64
    import json

    def unb64(text: str) -> bytes:
        return base64.b64decode(text) if text else b""

    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
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
    state.relay_token = unb64(doc["relay_token"])
    state.relay_interval_ms = doc["relay_interval_ms"]
    state.registered_at = list(doc["registered_at"])
    state.mirror_table = [MirrorEntry(u, p) for u, p in doc["mirror_table"]]
    state.pending_outgoing = set(doc["pending_outgoing"])
    state.pending_incoming = dict(doc["pending_incoming"])
    state.friend_list = {
        name: FriendEntry(
            username=name,
            passphrase=entry["passphrase"],
            friend_key=unb64(entry["friend_key"]),
            certificate=unb64(entry["certificate"]),
            mirror_table=[MirrorEntry(u, p) for u, p in entry["mirror_table"]],
        )
        for name, entry in doc["friend_list"].items()
    }
    if doc.get("profile_log"):
        peer.profile = Profile.import_log(unb64(doc["profile_log"]))


class _Probe:
    """sentinel.RegistrationProbe over a live peer."""

    def __init__(self, peer: Peer, exclude: set[str]):
        self.peer = peer
        self._alternates = [s for s in peer._bootstrap_servers() if s not in exclude]

    def locate_rendezvous_servers(self, via_addr: str, ids: DualId) -> tuple[str, str]:
        return (
            self.peer._chord_lookup(via_addr, ids.id_md5),
            self.peer._chord_lookup(via_addr, ids.id_sha1),
        )

    def fetch_record(self, server_addr: str, passphrase: str):
        try:
            return self.peer._fetch_record(server_addr, passphrase)
        except PeerUnreachable:
            raise
        except ProtocolError:
            return None

    def try_connect(self, record: RegistrationRecord) -> bool:
        try:
            channel = self.peer._open_route(record, record.username)
        except ProtocolError:
            return False
        try:
            channel.call("ping")
            return True
        except ProtocolError:
            return False
        finally:
            channel.close()

    def next_alternate(self) -> str | None:
        return self._alternates.pop(0) if self._alternates else None
