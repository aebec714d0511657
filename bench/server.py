"""Run ``python -m repro.serve`` the way an operator would, in its own process.

The benchmark owns the server's whole life: a private WAL directory under
``bench/out/`` (removed by the caller), an environment with every ``REPRO_*``
variable stripped except the three the benchmark sets, stderr captured to a
log file, the ephemeral port parsed from the ``listening on`` line, and a
stop that escalates from ``SIGTERM`` to ``SIGKILL``.

Known issue, logged not fixed: on ``SIGTERM`` ``repro.serve`` prints a
``CancelledError`` traceback to stderr while draining.  It lands in the
captured log and does not affect the exit.
"""

from __future__ import annotations

import os
import signal
import socket
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, Optional, Tuple

__all__ = ["ROOT", "OUT", "server_env", "stray_env", "ServerProcess"]

ROOT = Path(__file__).resolve().parent.parent
OUT = Path(__file__).resolve().parent / "out"

_HEALTH = b"GET /health HTTP/1.1\r\nContent-Length: 0\r\n\r\n"


def stray_env() -> Dict[str, str]:
    """``REPRO_*`` variables present in the caller's environment."""
    return {k: v for k, v in os.environ.items() if k.startswith("REPRO_")}


def server_env(wal_dir: str) -> Dict[str, str]:
    """The server's environment: the caller's, minus ``REPRO_*``, plus ours."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(ROOT / "src")
    env["REPRO_DURABLE"] = "on"
    env["REPRO_WAL_FSYNC"] = "commit"
    env["REPRO_WAL_DIR"] = wal_dir
    return env


class ServerProcess:
    """One ``repro.serve`` process bound to an ephemeral port."""

    def __init__(self, accounts: int, wal_dir: str, log_path: Path, seed: int):
        self.accounts = accounts
        self.wal_dir = wal_dir
        self.log_path = log_path
        self.seed = seed
        self.env = server_env(wal_dir)
        self.process: Optional[subprocess.Popen] = None
        self.address: Tuple[str, int] = ("127.0.0.1", 0)

    @property
    def effective_env(self) -> Dict[str, str]:
        return {k: v for k, v in self.env.items() if k.startswith("REPRO_")}

    def start(self, timeout: float = 120.0) -> None:
        """Spawn, and return once ``/health`` has answered 200."""
        begun = time.perf_counter()
        with open(self.log_path, "ab") as log:
            self.process = subprocess.Popen(
                [
                    sys.executable, "-m", "repro.serve", "--port", "0",
                    "--accounts", str(self.accounts), "--edges-per", "6",
                    "--seed", str(self.seed),
                ],
                cwd=str(ROOT), env=self.env, stdout=subprocess.PIPE, stderr=log,
            )
        deadline = begun + timeout
        line = self.process.stdout.readline().decode("utf-8", "replace")
        if "listening on" not in line:
            self.stop()
            raise RuntimeError(
                f"server did not start (first line {line!r}); see {self.log_path}"
            )
        host, _, port = line.split("listening on ", 1)[1].split(" ", 1)[0].rpartition(":")
        self.address = (host, int(port))
        while True:
            try:
                with socket.create_connection(self.address, timeout=5.0) as sock:
                    sock.sendall(_HEALTH)
                    if sock.recv(4096).startswith(b"HTTP/1.1 200"):
                        return
            except OSError:
                pass
            if time.perf_counter() > deadline or self.process.poll() is not None:
                self.stop()
                raise RuntimeError(f"server never became healthy; see {self.log_path}")
            time.sleep(0.01)

    def peak_rss_mb(self) -> float:
        """The running process's ``VmHWM`` (peak resident set) in MB."""
        with open(f"/proc/{self.process.pid}/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM line in /proc/<pid>/status")

    def _reap(self, timeout: float) -> bool:
        try:
            self.process.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            return False
        self.process.stdout.close()
        self.process = None
        return True

    def kill(self) -> None:
        """``SIGKILL`` — the crash the recovery figure is measured from."""
        if self.process is None:
            return
        self.process.kill()
        self._reap(30.0)

    def stop(self) -> None:
        """``SIGTERM``, then ``SIGKILL`` if the drain does not finish in 10 s."""
        if self.process is None:
            return
        self.process.send_signal(signal.SIGTERM)
        if not self._reap(10.0):
            self.process.kill()
            self._reap(30.0)
