"""Dual-homed NAT-discovery server and its UDP probe client.

A minimal three-test binding protocol, not a standards implementation:
the client asks the server (or its alternate address / alternate port) to
echo the source endpoint it observed. The server needs two addresses;
loopback deployments can bind 127.0.0.1 and 127.0.0.2.
"""
from __future__ import annotations

import socket
import threading

from . import wire
from .config import StunConfig
from .errors import ProtocolError
from .wire import FLAG, INT, STR, Frame, Layout

STUN_BIND = 39  # extension code: binding request/response
_REQUEST = Layout("stun_request", (FLAG, FLAG))  # change address, change port
_REPLY = Layout("stun_reply", (STR, INT))  # the endpoint the server saw


class StunServer:
    """Four sockets: two addresses x two ports, replying per change flags."""

    def __init__(self, config: StunConfig):
        self.config = config
        self._socks: dict[tuple[int, int], socket.socket] = {}
        endpoints = {
            (0, 0): (config.primary_addr, config.primary_port),
            (0, 1): (config.primary_addr, config.primary_port + 1),
            (1, 0): (config.secondary_addr, config.secondary_port),
            (1, 1): (config.secondary_addr, config.secondary_port + 1),
        }
        for key, (host, port) in endpoints.items():
            sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
            sock.bind((host, port))
            sock.settimeout(0.2)
            self._socks[key] = sock
        self._stop = threading.Event()
        self._threads = [
            threading.Thread(target=self._serve, args=(key,), daemon=True) for key in self._socks
        ]

    def start(self) -> "StunServer":
        for thread in self._threads:
            thread.start()
        return self

    def _serve(self, key: tuple[int, int]) -> None:
        sock = self._socks[key]
        addr_index, port_index = key
        while not self._stop.is_set():
            try:
                data, peer = sock.recvfrom(2048)
            except socket.timeout:
                continue
            except OSError:
                break
            try:
                frame = wire.decode_frame(data)
                change_addr, change_port = _REQUEST.unpack(frame.payload)
            except ProtocolError:
                continue
            if frame.msg_type != STUN_BIND:
                continue
            reply_sock = self._socks.get((addr_index ^ change_addr, port_index ^ change_port), sock)
            reply = Frame(STUN_BIND, _REPLY.pack(peer))
            try:
                reply_sock.sendto(reply.encode(), peer)
            except OSError:
                pass

    def stop(self) -> None:
        self._stop.set()
        for sock in self._socks.values():
            try:
                sock.close()
            except OSError:
                pass


class StunClient:
    """StunProbes implementation over a UDP socket."""

    def __init__(self, primary: tuple[str, int], secondary: tuple[str, int], timeout_s: float = 0.8):
        self.servers = (primary, secondary)
        self._sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        self._sock.bind(("0.0.0.0", 0))
        self._sock.settimeout(timeout_s)

    def local_endpoint(self) -> tuple[str, int]:
        host, port = self._sock.getsockname()
        if host == "0.0.0.0":
            host = "127.0.0.1"
        return (host, port)

    def probe(self, server: int = 0, change_address: bool = False, change_port: bool = False):
        request = Frame(STUN_BIND, _REQUEST.pack((change_address, change_port)))
        try:
            self._sock.sendto(request.encode(), self.servers[server])
            data, _ = self._sock.recvfrom(2048)
            return tuple(_REPLY.unpack(wire.decode_frame(data).payload))
        except (OSError, ProtocolError):  # timeout, or a reply that is not one
            return None

    def close(self) -> None:
        self._sock.close()
