"""Launch and stop ``repro serve`` subprocesses; read their /proc cost."""

from __future__ import annotations

import ctypes
import os
import re
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

from .client import Connection
from .stats import parse_proc_ppid, parse_pss_kb

_BANNER = re.compile(r"repro serving on http://([^:\s]+):(\d+)")


def process_cpu_clock(pid: int) -> int:
    """The clock id of ``pid``'s CPU time: utime + stime of all its
    threads, live or exited, in nanoseconds rather than 10 ms ticks
    (``clock_getcpuclockid``: ``CPUCLOCK_SCHED`` on the whole process)."""
    return ((~pid) << 3) | 2


def _die_with_parent() -> None:
    """In the child before exec: SIGTERM it if the benchmark dies, so a
    killed run leaves no server behind (Linux ``PR_SET_PDEATHSIG``)."""
    libc = ctypes.CDLL(None, use_errno=True)
    libc.prctl.argtypes = [ctypes.c_int, ctypes.c_ulong, ctypes.c_ulong,
                           ctypes.c_ulong, ctypes.c_ulong]
    libc.prctl.restype = ctypes.c_int
    libc.prctl(1, signal.SIGTERM, 0, 0, 0)  # 1 == PR_SET_PDEATHSIG


class Server:
    """One ``repro serve`` process at default flags.

    Only deployment settings are passed: the bundle, an ephemeral port
    and, when given, the journal directory.  With ``spans`` set the
    process starts through ``traced_serve.py``, which records spans
    around module calls and writes them to that file on exit.
    """

    def __init__(self, root: Path, bundle: Path, journal: Path | None,
                 spans: Path | None = None):
        args = ["serve", "--artifacts", str(bundle), "--port", "0"]
        if journal is not None:
            args += ["--journal-dir", str(journal)]
        if spans is None:
            command = [sys.executable, "-m", "repro.cli", *args]
        else:
            command = [sys.executable,
                       str(root / "servebench" / "traced_serve.py"),
                       str(spans), *args]
        env = dict(os.environ)
        env["PYTHONPATH"] = str(root / "src")
        env["PYTHONUNBUFFERED"] = "1"
        self.proc = subprocess.Popen(
            command, cwd=str(root), env=env, stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT, text=True,
            preexec_fn=_die_with_parent)
        self.output: list[str] = []
        self.port = None
        found = threading.Event()

        def drain():
            for line in self.proc.stdout:
                self.output.append(line)
                match = _BANNER.search(line)
                if match and self.port is None:
                    self.port = int(match.group(2))
                    found.set()
            found.set()

        self._drain = threading.Thread(target=drain, daemon=True)
        self._drain.start()
        if not found.wait(120) or self.port is None:
            self.stop()
            raise RuntimeError("server did not start:\n"
                               + "".join(self.output[-30:]))

    def connect(self) -> Connection:
        return Connection("127.0.0.1", self.port)

    def wait_healthy(self, timeout: float = 60.0) -> None:
        """Poll ``/v1/healthz`` until it answers 200."""
        deadline = time.perf_counter() + timeout
        conn = self.connect()
        try:
            while True:
                try:
                    status, _ = conn.get("/v1/healthz")
                    if status == 200:
                        return
                except OSError:
                    conn.close()
                if time.perf_counter() > deadline:
                    raise RuntimeError("server never became healthy")
                time.sleep(0.005)
        finally:
            conn.close()

    def pids(self) -> list[int]:
        """The server and every descendant process."""
        children: dict[int, list[int]] = {}
        for entry in os.listdir("/proc"):
            if not entry.isdigit():
                continue
            try:
                text = Path(f"/proc/{entry}/stat").read_text()
            except OSError:
                continue
            children.setdefault(parse_proc_ppid(text), []).append(int(entry))
        tree, frontier = [], [self.proc.pid]
        while frontier:
            pid = frontier.pop()
            tree.append(pid)
            frontier.extend(children.get(pid, ()))
        return tree

    def cpu_seconds(self) -> float:
        """utime + stime of the server and every live descendant."""
        total = 0.0
        for pid in self.pids():
            try:
                total += time.clock_gettime(process_cpu_clock(pid))
            except OSError:
                pass  # exited between listing and reading
        return total

    def pss_mb(self) -> float:
        kb = 0
        for pid in self.pids():
            try:
                kb += parse_pss_kb(
                    Path(f"/proc/{pid}/smaps_rollup").read_text())
            except OSError:
                pass
        return kb / 1024.0

    def environ(self) -> dict:
        """BLAS/OMP thread variables as the server process sees them."""
        raw = Path(f"/proc/{self.proc.pid}/environ").read_bytes()
        pairs = (item.partition(b"=") for item in raw.split(b"\0") if item)
        return {k.decode(): v.decode() for k, _, v in pairs
                if re.match(rb"(OPENBLAS|OMP|MKL|BLIS|GOTO|VECLIB)_", k)}

    def stop(self, timeout: float = 60.0) -> int:
        """SIGTERM, wait for the graceful drain, SIGKILL as a last resort.

        Idempotent: a server that already exited returns its exit code.
        """
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        try:
            code = self.proc.wait(timeout)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            code = self.proc.wait()
        self._drain.join(timeout=10)
        return code
