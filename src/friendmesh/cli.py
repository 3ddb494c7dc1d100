"""Command line entry points.

Servers (run until interrupted, calling their periodic upkeep: the
rendezvous server every stabilization period, the relay every ping or
rendezvous update interval, whichever is longer, and a serving peer every
relay interval, or 2 s when it is not relayed):
    friendmesh ca --port 7100 --name myca --state ca.log --key ca.key
    friendmesh rendezvous --port 7200 --db rv.sqlite --ca-cert ca.pub
    friendmesh relay --port 7300 --rendezvous 127.0.0.1:7200 --ca-cert ca.pub

Peer operations (state persisted between invocations):
    friendmesh peer bootstrap|locate|connect|friend-request|accept|revoke|status|serve
Profile operations:
    friendmesh profile post|read|perms|sync|reconcile
Simulator:
    friendmesh sim run|replay|report  (also: friendmesh-sim)
"""
from __future__ import annotations

import argparse
import os
import sys
import time

from . import identity
from .caservice import CAService
from .config import PeerConfig, RelayConfig, RendezvousConfig
from .errors import MalformedRequest, ProtocolError
from .netio import TcpEndpoint, TcpServer
from .peer import Peer, load_state, save_state
from .profile import Profile, op_add, op_perm, reconcile
from .relay import RelayServer
from .rendezvous import RendezvousServer
from .simnet import cli as sim_cli


def _ca_public_key(path: str) -> bytes:
    """The CA's public point, as `friendmesh ca` writes it to ca.pub."""
    try:
        with open(path, "rb") as fh:
            return identity.check_public_key(fh.read())
    except (OSError, MalformedRequest) as exc:
        raise argparse.ArgumentTypeError(f"{path}: not a CA public key file ({exc})") from None


def _run_upkeep(label: str, tick=lambda: None, period_ms: int = 3_600_000) -> None:
    """Call tick() every period_ms until interrupted. A ProtocolError from one
    tick is dropped, as the simulator drops it, and the next tick runs."""
    print(f"{label} running; ctrl-c to stop")
    try:
        while True:
            time.sleep(period_ms / 1000)
            try:
                tick()
            except ProtocolError:
                pass
    except KeyboardInterrupt:
        pass


# -- servers -----------------------------------------------------------------


def cmd_ca(args) -> int:
    if os.path.exists(args.key):
        pair = identity.load_keypair(args.key)
    else:
        pair = identity.generate_keypair()
        identity.save_keypair(pair, args.key)
    pub_path = os.path.join(os.path.dirname(args.key), "ca.pub")
    with open(pub_path, "wb") as fh:
        fh.write(pair.public_key)
    ca = identity.CAState(args.name, pair, log_path=args.state)
    server = TcpServer(CAService(ca), host=args.bind, port=args.port, backlog=args.backlog).start()
    print(f"certificate authority {args.name} on {server.addr}, public key in {pub_path}")
    _run_upkeep("ca")
    server.stop()
    return 0


def cmd_rendezvous(args) -> int:
    config = RendezvousConfig(
        port=args.port,
        db_url=args.db,
        age_ms=args.age,
        refresh_interval_ms=args.refresh_interval,
        ring_enabled=bool(args.join or args.ring),
    )
    server = RendezvousServer(
        addr=f"{args.bind}:{args.port}", config=config, ca_public_key=args.ca_cert,
        endpoint=TcpEndpoint(local_addr=f"{args.bind}:{args.port}"),
    )
    listener = TcpServer(server, host=args.bind, port=args.port).start()
    server.addr = listener.addr
    if args.join:
        server.join_ring(args.join)
    print(f"rendezvous server on {listener.addr} (db: {args.db})")
    _run_upkeep("rendezvous", server.tick, config.stabilization_period_ms)
    listener.stop()
    return 0


def cmd_relay(args) -> int:
    rv_host, _, rv_port = args.rendezvous.rpartition(":")
    config = RelayConfig(
        rendezvous_addr=rv_host,
        rendezvous_port=int(rv_port),
        port=args.port,
        max_connections=args.max_connections,
        ping_interval_ms=args.ping_interval,
    )
    relay = RelayServer(
        addr=f"{args.bind}:{args.port}", config=config, ca_public_key=args.ca_cert,
        endpoint=TcpEndpoint(local_addr=f"{args.bind}:{args.port}"),
    )
    listener = TcpServer(relay, host=args.bind, port=args.port).start()
    relay.addr = listener.addr
    interval = relay.register_with_rendezvous()
    print(f"relay on {listener.addr}, rendezvous update interval {interval} ms")
    _run_upkeep("relay", relay.tick, max(interval, config.ping_interval_ms))
    listener.stop()
    return 0


# -- peer ---------------------------------------------------------------------


def _make_peer(args) -> Peer:
    config = PeerConfig(
        username=args.username,
        ca_addr=args.ca,
        rendezvous_addrs=args.rendezvous.split(",") if args.rendezvous else [],
        global_mode=args.global_mode,
    )
    if args.bootstrap_list and os.path.exists(args.bootstrap_list):
        with open(args.bootstrap_list, "r", encoding="utf-8") as fh:
            extra = [line.strip() for line in fh if line.strip()]
        config.rendezvous_addrs = list(dict.fromkeys(config.rendezvous_addrs + extra))
    peer = Peer(
        config=config,
        endpoint=TcpEndpoint(local_addr=f"127.0.0.1:{args.port}"),
        ca_public_key=args.ca_cert,
    )
    if args.state and os.path.exists(args.state):
        load_state(peer, args.state)
    return peer


def _save(peer: Peer, args) -> None:
    if args.state:
        save_state(peer, args.state)


def cmd_peer(args) -> int:
    peer = _make_peer(args)
    action = args.action
    try:
        if action == "bootstrap":
            peer.bootstrap()
            print(f"registered at: {', '.join(peer.state.registered_at)}")
        elif action == "locate":
            record, server = peer.locate_friend(args.target)
            addr, relayed = record.route
            print(f"{args.target} @ {addr or 'no route'}{' (relay)' if relayed else ''} via {server}")
        elif action == "connect":
            channel, served_by = peer.connect_friend(args.target)
            channel.call("ping")
            channel.close()
            print(f"connected to {args.target} (served by {served_by})")
        elif action == "friend-request":
            peer.send_friend_request(args.target)
            print(f"friendship request deposited for {args.target}")
        elif action == "accept":
            peer.accept_friend(args.target)
            print(f"{args.target} accepted; passphrases exchanged")
        elif action == "revoke":
            peer.revoke_friend(args.target)
            print(f"{args.target} revoked; passphrase rotated and friends notified")
        elif action == "status":
            state = peer.state
            print(f"username:    {state.username}")
            print(f"certificate: {'yes' if state.certificate else 'no'}")
            print(f"nat:         {state.nat_type.value}")
            print(f"relay:       {state.relay_endpoint or '-'}")
            print(f"registered:  {', '.join(state.registered_at) or '-'}")
            print(f"friends:     {', '.join(sorted(state.friend_list)) or '-'}")
            print(f"pending in:  {', '.join(sorted(state.pending_incoming)) or '-'}")
            print(f"pending out: {', '.join(sorted(state.pending_outgoing)) or '-'}")
        elif action == "serve":
            listener = TcpServer(peer, host="127.0.0.1", port=args.port).start()
            peer.endpoint = TcpEndpoint(local_addr=listener.addr)
            print(f"peer {peer.username} serving on {listener.addr}")
            # Relay keepalives (when relayed), queued writes and complaints.
            _run_upkeep("peer", peer.tick, peer.state.relay_interval_ms or 2000)
            listener.stop()
    except ProtocolError as exc:
        print(f"error: {exc.code}: {exc}", file=sys.stderr)
        _save(peer, args)
        return 1
    finally:
        peer.close()
    _save(peer, args)
    return 0


# -- profile ---------------------------------------------------------------------


def cmd_profile(args) -> int:
    peer = _make_peer(args)
    try:
        if args.action == "post":
            if args.target:
                version = peer.write_to_friend(
                    args.target, args.path, op_add(args.id, args.text.encode("utf-8"))
                )
            else:
                version = peer.profile.apply_update(
                    peer.username, args.path, op_add(args.id, args.text.encode("utf-8")),
                    timestamp=peer.clock(),
                )
            print(f"version {version}")
        elif args.action == "read":
            if args.target:
                view = peer.pull_friend_profile(args.target)
            else:
                view = peer.profile
            print(view.canonical_encode().decode("utf-8"), end="")
        elif args.action == "perms":
            version = peer.profile.apply_update(
                peer.username, args.path, op_perm(args.set, args.members.split(",")),
                timestamp=peer.clock(),
            )
            print(f"version {version}")
        elif args.action == "sync":
            peer.sync_mirrors()
            print("mirrors synchronized")
        elif args.action == "reconcile":
            logs = []
            for path in args.logs:
                with open(path, "rb") as fh:
                    logs.append(Profile.import_log(fh.read()).log)
            merged = reconcile(peer.username, peer.profile.log, *logs)
            peer.profile = merged
            print(f"merged {len(args.logs)} logs; versions: {merged.versions}")
    except ProtocolError as exc:
        print(f"error: {exc.code}: {exc}", file=sys.stderr)
        _save(peer, args)
        return 1
    finally:
        peer.close()
    _save(peer, args)
    return 0


# -- parser ------------------------------------------------------------------------


_CA_CERT_HELP = "the CA's public key file (friendmesh ca writes ca.pub beside its --key)"


def _add_peer_common(parser) -> None:
    parser.add_argument("--username", required=True)
    parser.add_argument("--state", default="peer_state.json")
    parser.add_argument("--ca", default="127.0.0.1:7100")
    parser.add_argument("--ca-cert", default="ca.pub", type=_ca_public_key, help=_CA_CERT_HELP)
    parser.add_argument("--rendezvous", default="127.0.0.1:7200", help="comma-separated")
    parser.add_argument("--bootstrap-list", default=None, help="file of known rendezvous addresses")
    parser.add_argument("--port", type=int, default=7500)
    parser.add_argument("--global-mode", action="store_true")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="friendmesh", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    ca_p = sub.add_parser("ca", help="run the certificate authority")
    ca_p.add_argument("--port", type=int, default=7100)
    ca_p.add_argument("--backlog", type=int, default=16)
    ca_p.add_argument("--bind", default="127.0.0.1")
    ca_p.add_argument("--name", default="friendmesh-ca")
    ca_p.add_argument("--key", default="ca.key")
    ca_p.add_argument("--state", default="ca.log")
    ca_p.set_defaults(fn=cmd_ca)

    rv_p = sub.add_parser("rendezvous", help="run a rendezvous server")
    rv_p.add_argument("--port", type=int, default=7200)
    rv_p.add_argument("--bind", default="127.0.0.1")
    rv_p.add_argument("--db", default="rendezvous.sqlite")
    rv_p.add_argument("--ca-cert", default="ca.pub", type=_ca_public_key, help=_CA_CERT_HELP)
    rv_p.add_argument("--age", type=int, default=6000)
    rv_p.add_argument("--refresh-interval", type=int, default=2000)
    rv_p.add_argument("--ring", action="store_true", help="enable the server ring")
    rv_p.add_argument("--join", default=None, help="bootstrap ring node address")
    rv_p.set_defaults(fn=cmd_rendezvous)

    relay_p = sub.add_parser("relay", help="run a relay server")
    relay_p.add_argument("--port", type=int, default=7300)
    relay_p.add_argument("--bind", default="127.0.0.1")
    relay_p.add_argument("--rendezvous", default="127.0.0.1:7200")
    relay_p.add_argument("--ca-cert", default="ca.pub", type=_ca_public_key, help=_CA_CERT_HELP)
    relay_p.add_argument("--max-connections", type=int, default=32)
    relay_p.add_argument("--ping-interval", type=int, default=2000)
    relay_p.set_defaults(fn=cmd_relay)

    peer_p = sub.add_parser("peer", help="peer operations")
    peer_p.add_argument(
        "action",
        choices=["bootstrap", "locate", "connect", "friend-request", "accept", "revoke",
                 "status", "serve"],
    )
    peer_p.add_argument("target", nargs="?", default=None)
    _add_peer_common(peer_p)
    peer_p.set_defaults(fn=cmd_peer)

    prof_p = sub.add_parser("profile", help="profile operations")
    prof_p.add_argument("action", choices=["post", "read", "perms", "sync", "reconcile"])
    prof_p.add_argument("--target", default=None, help="friend username (default: own profile)")
    prof_p.add_argument("--path", default="share_board")
    prof_p.add_argument("--id", default="post")
    prof_p.add_argument("--text", default="")
    prof_p.add_argument("--set", default="read", choices=["read", "write", "no_access"])
    prof_p.add_argument("--members", default="")
    prof_p.add_argument("logs", nargs="*", default=[])
    _add_peer_common(prof_p)
    prof_p.set_defaults(fn=cmd_profile)

    sim_p = sub.add_parser("sim", help="deterministic simulator (see friendmesh-sim)")
    sim_p.add_argument("sim_args", nargs=argparse.REMAINDER)
    sim_p.set_defaults(fn=lambda args: sim_cli.main(args.sim_args))
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    raise SystemExit(main())
