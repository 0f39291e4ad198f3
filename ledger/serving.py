"""The ``repro serve`` subprocess and the one keep-alive client that
talks to it."""

from __future__ import annotations

import json
import os
import signal
import socket
import subprocess
import sys
import time


def free_port() -> int:
    """A port nothing listens on right now (bind to 0, read it back)."""
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


class Client:
    """One keep-alive HTTP/1.1 connection over a plain socket: request
    bytes in, ``(status, body bytes)`` out.  Responses always carry
    Content-Length (``repro.serve.http`` never chunks)."""

    def __init__(self, port: int, timeout_s: float = 30.0):
        self.sock = socket.create_connection(("127.0.0.1", port),
                                             timeout=timeout_s)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._buffer = b""

    @staticmethod
    def frame(method: str, path: str, payload=None) -> bytes:
        body = b"" if payload is None else json.dumps(payload).encode()
        head = (f"{method} {path} HTTP/1.1\r\nHost: ledger\r\n"
                f"Content-Type: application/json\r\n"
                f"Content-Length: {len(body)}\r\n\r\n")
        return head.encode("latin-1") + body

    def _read_until(self, done) -> bytes:
        """Receive until ``done(buffer)`` is true; returns the buffer."""
        buffer = self._buffer
        while not done(buffer):
            chunk = self.sock.recv(65536)
            if not chunk:
                raise ConnectionError("server closed the connection")
            buffer += chunk
        return buffer

    def exchange(self, request: bytes) -> tuple[int, bytes]:
        self.sock.sendall(request)
        self._buffer = self._read_until(lambda data: b"\r\n\r\n" in data)
        end = self._buffer.index(b"\r\n\r\n")
        head = self._buffer[:end].decode("latin-1")
        status = int(head[9:12])
        length = 0
        for line in head.split("\r\n")[1:]:
            name, _, value = line.partition(":")
            if name.lower() == "content-length":
                length = int(value)
        total = end + 4 + length
        buffer = self._read_until(lambda data: len(data) >= total)
        self._buffer = buffer[total:]
        return status, buffer[end + 4:total]

    def close(self) -> None:
        self.sock.close()


class ServerProcess:
    """``python -m repro.cli serve`` as a direct child on a free port.

    :meth:`stop` always ends the child — SIGTERM (the server drains and
    exits 0), then SIGKILL if it has not gone within the grace period —
    and waits for it.
    """

    def __init__(self, db_dir, src_dir, log_path, workers: int = 1):
        self.port = free_port()
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(src_dir)] + ([env["PYTHONPATH"]]
                              if env.get("PYTHONPATH") else []))
        self._log = open(log_path, "wb")
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", "--db", str(db_dir),
             "--port", str(self.port), "--workers", str(workers)],
            env=env, stdout=self._log, stderr=subprocess.STDOUT,
            stdin=subprocess.DEVNULL)

    def wait_healthy(self, timeout_s: float = 120.0) -> None:
        deadline = time.monotonic() + timeout_s
        probe = Client.frame("GET", "/healthz")
        while time.monotonic() < deadline:
            if self.process.poll() is not None:
                raise RuntimeError(
                    f"repro serve exited with {self.process.returncode} "
                    f"before becoming healthy; see {self._log.name}")
            try:
                client = Client(self.port, timeout_s=2.0)
            except OSError:
                time.sleep(0.05)
                continue
            try:
                status, _ = client.exchange(probe)
            except OSError:
                status = 0
            finally:
                client.close()
            if status == 200:
                return
            time.sleep(0.05)
        raise TimeoutError(f"repro serve not healthy after {timeout_s}s")

    def stop(self, grace_s: float = 10.0) -> None:
        process = self.process
        if process.poll() is None:
            process.send_signal(signal.SIGTERM)
            try:
                process.wait(timeout=grace_s)
            except subprocess.TimeoutExpired:
                process.kill()
        process.wait()
        self._log.close()
