"""loopback: the CA, one rendezvous server and public peers over real TCP.

Everything is wired as the CLI wires it (friendmesh.cli): the CA and the
rendezvous server behind TcpServer, the rendezvous rows in a sqlite file,
and each peer serving on its own listener as `friendmesh peer serve` does.
The rendezvous server has no ring, because the CLI server never runs
tick(); no peer is relayed, because `peer serve` sends no relay keepalives.
Frames are counted at the carrier, from the benchmark side.
"""
from __future__ import annotations

import os
import shutil
import time

from common import World

from friendmesh import identity, netio
from friendmesh.caservice import CAService
from friendmesh.config import PeerConfig, RendezvousConfig
from friendmesh.netio import TcpEndpoint, TcpServer
from friendmesh.peer import Peer
from friendmesh.rendezvous import RendezvousServer

N_PEERS = 8


class Carrier:
    """Counts frames and payload bytes crossing TcpChannel.request."""

    def __init__(self):
        self.by_addr: dict[str, list[int]] = {}
        inner = netio.TcpChannel.request
        counts = self.by_addr

        def counted(channel, frame):
            reply = inner(channel, frame)
            slot = counts.setdefault(channel.remote_addr, [0, 0])
            slot[0] += 2
            slot[1] += len(frame.payload) + len(reply.payload)
            return reply

        netio.TcpChannel.request = counted


class LoopbackWorld(World):
    def __init__(self, seed: int, workdir: str, carrier: Carrier):
        super().__init__(seed, N_PEERS, chords=(1,), mirror_every=2)
        self.workdir = workdir
        self.carrier = carrier
        self.listeners: list[TcpServer] = []
        os.makedirs(workdir, exist_ok=True)
        try:
            self._build()
            self.befriend_all()
        except BaseException:
            self.close()
            raise

    def _build(self) -> None:
        ca_pair = identity.generate_keypair(identity.DEFAULT_ALGORITHM)
        ca = identity.CAState("bench-ca", ca_pair, log_path=os.path.join(self.workdir, "ca.log"))
        self.ca_addr = self._listen(CAService(ca)).addr
        self.server = RendezvousServer(
            addr="127.0.0.1:0",
            config=RendezvousConfig(port=0, db_url=os.path.join(self.workdir, "rv.sqlite")),
            ca_public_key=ca.public_key, ca_algorithm=ca.algorithm_id,
            endpoint=TcpEndpoint(local_addr="127.0.0.1:0"),
        )
        self.server.addr = self._listen(self.server).addr
        self.addr: dict[str, str] = {}
        for name in self.names:
            peer = Peer(
                config=PeerConfig(username=name, ca_addr=self.ca_addr,
                                  rendezvous_addrs=[self.server.addr]),
                endpoint=TcpEndpoint(local_addr="127.0.0.1:0"),
                ca_public_key=ca.public_key, ca_algorithm=ca.algorithm_id,
            )
            self.addr[name] = self._listen(peer).addr
            peer.endpoint = TcpEndpoint(local_addr=self.addr[name])
            peer.bootstrap()
            self.peers[name] = peer

    def _listen(self, service) -> TcpServer:
        listener = TcpServer(service, host="127.0.0.1", port=0).start()
        self.listeners.append(listener)
        return listener

    def close(self) -> None:
        for listener in self.listeners:
            listener.stop()
        for listener in self.listeners:
            listener._thread.join(timeout=5)
        self.listeners.clear()
        shutil.rmtree(self.workdir, ignore_errors=True)

    def clock_past(self, owner: str, stamp: int) -> None:
        clock = self.peers[owner].clock
        while clock() <= stamp:
            time.sleep(0.0002)

    def registration_servers(self, name: str) -> list[str]:
        return [self.server.addr]

    def located_address(self, name: str) -> tuple[str, set]:
        ip, port = self.addr[name].rsplit(":", 1)
        return ip, {int(port)}

    def expected_rows(self, name: str) -> set:
        return {(self.server.addr, 0, False)}

    def held_rows(self) -> dict:
        held: dict[str, set] = {}
        for row in self.server.store.peer_rows():
            held.setdefault(row.record.username, set()).add((self.server.addr, row.ring_id, row.replica))
        return held

    def traffic_mark(self) -> dict:
        return {addr: list(v) for addr, v in self.carrier.by_addr.items()}

    def traffic(self, mark: dict) -> dict:
        out = {c: [0, 0] for c in ("ring", "rendezvous", "peer", "relay")}
        for addr, (frames, payload) in self.carrier.by_addr.items():
            before = mark.get(addr, [0, 0])
            cls = out["rendezvous" if addr in (self.server.addr, self.ca_addr) else "peer"]
            cls[0] += frames - before[0]
            cls[1] += payload - before[1]
        return {"classes": out, "maint": 0, "requests": 0}


LOOPBACK_MIX = ("post", "register", "locate", "pull", "pull", "write", "sync")
