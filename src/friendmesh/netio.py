"""The real-socket carrier: TCP.

The same Channel/Service contracts the simulator provides, over actual
sockets: one connection carries one session. A connection can be taken
over one way (see channel.py): on the client, attach_reverse() starts
answering frames after the next reply, and close() ends that; on the
server, opening a session on ctx.reverse_service ends the serve loop once
the current reply is out. Bytes that are not a frame end the connection
silently.
"""
from __future__ import annotations

import random
import socket
import threading
import time

from .channel import Service, SessionContext
from .errors import PeerUnreachable, ProtocolError
from .wire import Frame, frame_from_stream


def now_ms() -> int:
    return int(time.monotonic() * 1000)


def _read_exact(sock: socket.socket, n: int) -> bytes:
    buf = b""
    while len(buf) < n:
        chunk = sock.recv(n - len(buf))
        if not chunk:
            raise PeerUnreachable("connection closed")
        buf += chunk
    return buf


class TcpChannel:
    def __init__(self, addr: str, timeout: float = 5.0):
        host, _, port = addr.rpartition(":")
        self.remote_addr = addr
        try:
            self._sock = socket.create_connection((host, int(port)), timeout=timeout)
        except OSError as exc:
            raise PeerUnreachable(f"connect to {addr} failed: {exc}") from exc
        self._lock = threading.Lock()
        self._reverse: Service | None = None
        self._serving = False

    def request(self, frame: Frame) -> Frame:
        with self._lock:
            try:
                self._sock.sendall(frame.encode())
                reply = frame_from_stream(lambda n: _read_exact(self._sock, n))
            except OSError as exc:
                raise PeerUnreachable(str(exc)) from exc
        if self._reverse is not None and not self._serving:
            self._start_reverse()
        return reply

    def attach_reverse(self, service: Service) -> None:
        self._reverse = service

    def _start_reverse(self) -> None:
        self._serving = True
        self._sock.settimeout(None)
        ctx = SessionContext(remote_addr=self.remote_addr)
        session = self._reverse.open_session(ctx)

        def loop():
            try:
                while True:
                    frame = frame_from_stream(lambda n: _read_exact(self._sock, n))
                    reply = session.handle(frame, ctx)
                    if reply is not None:
                        self._sock.sendall(reply.encode())
            except (ProtocolError, OSError):
                self._sock.close()  # the connection ended, or carried bytes that are not a frame

        threading.Thread(target=loop, daemon=True).start()

    def close(self) -> None:
        try:
            self._sock.shutdown(socket.SHUT_RDWR)  # also wakes a reverse loop blocked reading
        except OSError:
            pass
        self._sock.close()


class TcpEndpoint:
    def __init__(self, local_addr: str = "127.0.0.1:0", rng: random.Random | None = None):
        self._local = local_addr
        # Secrets are drawn from it: a CSPRNG unless the simulator injects its own.
        self.rng = rng or random.SystemRandom()

    def connect(self, addr: str) -> TcpChannel:
        return TcpChannel(addr)

    def now_ms(self) -> int:
        return now_ms()

    def local_addr(self) -> str:
        return self._local


class TcpServer:
    """Thread-per-connection server sharing the sim's Service contract."""

    def __init__(self, service: Service, host: str = "127.0.0.1", port: int = 0, backlog: int = 16):
        self.service = service
        self._sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._sock.bind((host, port))
        self._sock.listen(backlog)
        self._sock.settimeout(0.2)  # here, not in the thread: stop() may close it first
        self.host, self.port = self._sock.getsockname()
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._accept_loop, daemon=True)

    @property
    def addr(self) -> str:
        return f"{self.host}:{self.port}"

    def start(self) -> "TcpServer":
        self._thread.start()
        return self

    def _accept_loop(self) -> None:
        while not self._stop.is_set():
            try:
                conn, peer = self._sock.accept()
            except socket.timeout:
                continue
            except OSError:
                break
            threading.Thread(target=self._serve_conn, args=(conn, peer), daemon=True).start()

    def _serve_conn(self, conn: socket.socket, peer) -> None:
        reverse = _SocketReverse(conn)
        ctx = SessionContext(remote_addr=f"{peer[0]}:{peer[1]}", reverse_service=reverse)
        session = self.service.open_session(ctx)
        try:
            while not self._stop.is_set():
                frame = frame_from_stream(lambda n: _read_exact(conn, n))
                reply = session.handle(frame, ctx)
                if reply is not None:
                    conn.sendall(reply.encode())
                if reverse.taken:
                    break  # the connection now carries requests the other way
        except (ProtocolError, OSError):
            pass
        finally:
            if not reverse.taken:
                conn.close()

    def stop(self) -> None:
        self._stop.set()
        try:
            self._sock.close()
        except OSError:
            pass


class _SocketReverse:
    """Service/Session facade writing requests down a taken-over connection."""

    def __init__(self, sock: socket.socket):
        self._sock = sock
        self._lock = threading.Lock()
        self.taken = False

    def open_session(self, ctx: SessionContext) -> "_SocketReverse":
        self.taken = True
        return self

    def handle(self, frame: Frame, ctx: SessionContext) -> Frame | None:
        with self._lock:
            try:
                self._sock.sendall(frame.encode())
                return frame_from_stream(lambda n: _read_exact(self._sock, n))
            except (ProtocolError, OSError):
                self._sock.close()  # the client closed its side, or broke the framing
                return None

    def close(self) -> None:
        try:
            self._sock.shutdown(socket.SHUT_RDWR)  # the client's serving loop reads the end
        except OSError:
            pass
        self._sock.close()
