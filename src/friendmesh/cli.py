"""Command line entry points.

Servers (run until interrupted):
    friendmesh ca --port 7100 --name myca --state ca.log --key ca.key
    friendmesh rendezvous --port 7200 --db rv.sqlite --ca-cert ca.pub
    friendmesh relay --port 7300 --rendezvous 127.0.0.1:7200 --ca-cert ca.pub
    friendmesh stun --primary 127.0.0.1 --secondary 127.0.0.2

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
from .config import PeerConfig, RelayConfig, RendezvousConfig, StunConfig
from .errors import ProtocolError
from .netio import TcpEndpoint, TcpServer
from .peer import Peer, load_state, save_state
from .profile import Profile, op_add, op_perm, reconcile
from .relay import RelayServer
from .rendezvous import RendezvousServer
from .simnet import cli as sim_cli
from .stun import StunServer


def _load_ca_public(path: str) -> tuple[bytes, str]:
    pair = identity.load_keypair(path)
    return pair.public_key, pair.algorithm_id


def _run_forever(label: str) -> None:
    print(f"{label} running; ctrl-c to stop")
    try:
        while True:
            time.sleep(3600)
    except KeyboardInterrupt:
        pass


# -- servers -----------------------------------------------------------------


def cmd_ca(args) -> int:
    if os.path.exists(args.key):
        pair = identity.load_keypair(args.key)
    else:
        pair = identity.generate_keypair(args.algorithm)
        identity.save_keypair(pair, args.key)
    ca = identity.CAState(args.name, pair, log_path=args.state)
    server = TcpServer(CAService(ca), host=args.bind, port=args.port, backlog=args.backlog).start()
    print(f"certificate authority {args.name} on {server.addr}")
    _run_forever("ca")
    server.stop()
    return 0


def cmd_rendezvous(args) -> int:
    ca_pub, ca_algo = _load_ca_public(args.ca_cert)
    config = RendezvousConfig(
        port=args.port,
        db_url=args.db,
        age_ms=args.age,
        refresh_interval_ms=args.refresh_interval,
        ring_enabled=bool(args.join or args.ring),
    )
    server = RendezvousServer(
        addr=f"{args.bind}:{args.port}", config=config,
        ca_public_key=ca_pub, ca_algorithm=ca_algo,
        endpoint=TcpEndpoint(local_addr=f"{args.bind}:{args.port}"),
    )
    listener = TcpServer(server, host=args.bind, port=args.port).start()
    server.addr = listener.addr
    if args.join:
        server.join_ring(args.join)
    print(f"rendezvous server on {listener.addr} (db: {args.db})")
    _run_forever("rendezvous")
    listener.stop()
    return 0


def cmd_relay(args) -> int:
    ca_pub, ca_algo = _load_ca_public(args.ca_cert)
    rv_host, _, rv_port = args.rendezvous.rpartition(":")
    config = RelayConfig(
        rendezvous_addr=rv_host,
        rendezvous_port=int(rv_port),
        port=args.port,
        max_connections=args.max_connections,
        ping_interval_ms=args.ping_interval,
    )
    relay = RelayServer(
        addr=f"{args.bind}:{args.port}", config=config,
        ca_public_key=ca_pub, ca_algorithm=ca_algo,
        endpoint=TcpEndpoint(local_addr=f"{args.bind}:{args.port}"),
    )
    listener = TcpServer(relay, host=args.bind, port=args.port).start()
    relay.addr = listener.addr
    interval = relay.register_with_rendezvous()
    print(f"relay on {listener.addr}, rendezvous update interval {interval} ms")
    try:
        while True:
            time.sleep(max(interval, config.ping_interval_ms) / 1000)
            relay.tick()
    except KeyboardInterrupt:
        pass
    listener.stop()
    return 0


def cmd_stun(args) -> int:
    config = StunConfig(
        primary_addr=args.primary, primary_port=args.primary_port,
        secondary_addr=args.secondary, secondary_port=args.secondary_port,
    )
    server = StunServer(config).start()
    print(f"stun server on {args.primary}:{args.primary_port} / {args.secondary}:{args.secondary_port}")
    _run_forever("stun")
    server.stop()
    return 0


# -- peer ---------------------------------------------------------------------


def _make_peer(args) -> Peer:
    ca_pub, ca_algo = _load_ca_public(args.ca_cert)
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
        ca_public_key=ca_pub,
        ca_algorithm=ca_algo,
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
            print(f"{args.target} @ {record.ip}:{record.port} nat={record.nat_kind}"
                  f" relay={record.relay_address or '-'} via {server}")
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
            _run_forever("peer")
            listener.stop()
    except ProtocolError as exc:
        print(f"error: {exc.code}: {exc}", file=sys.stderr)
        _save(peer, args)
        return 1
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
    _save(peer, args)
    return 0


# -- parser ------------------------------------------------------------------------


def _add_peer_common(parser) -> None:
    parser.add_argument("--username", required=True)
    parser.add_argument("--state", default="peer_state.json")
    parser.add_argument("--ca", default="127.0.0.1:7100")
    parser.add_argument("--ca-cert", default="ca.key", help="CA key file (public part used)")
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
    ca_p.add_argument("--algorithm", default="ec-p256")
    ca_p.set_defaults(fn=cmd_ca)

    rv_p = sub.add_parser("rendezvous", help="run a rendezvous server")
    rv_p.add_argument("--port", type=int, default=7200)
    rv_p.add_argument("--bind", default="127.0.0.1")
    rv_p.add_argument("--db", default="rendezvous.sqlite")
    rv_p.add_argument("--ca-cert", default="ca.key")
    rv_p.add_argument("--age", type=int, default=6000)
    rv_p.add_argument("--refresh-interval", type=int, default=2000)
    rv_p.add_argument("--ring", action="store_true", help="enable the server ring")
    rv_p.add_argument("--join", default=None, help="bootstrap ring node address")
    rv_p.set_defaults(fn=cmd_rendezvous)

    relay_p = sub.add_parser("relay", help="run a relay server")
    relay_p.add_argument("--port", type=int, default=7300)
    relay_p.add_argument("--bind", default="127.0.0.1")
    relay_p.add_argument("--rendezvous", default="127.0.0.1:7200")
    relay_p.add_argument("--ca-cert", default="ca.key")
    relay_p.add_argument("--max-connections", type=int, default=32)
    relay_p.add_argument("--ping-interval", type=int, default=2000)
    relay_p.set_defaults(fn=cmd_relay)

    stun_p = sub.add_parser("stun", help="run the NAT discovery server")
    stun_p.add_argument("--primary", default="127.0.0.1")
    stun_p.add_argument("--primary-port", type=int, default=7400)
    stun_p.add_argument("--secondary", default="127.0.0.2")
    stun_p.add_argument("--secondary-port", type=int, default=7402)
    stun_p.set_defaults(fn=cmd_stun)

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
