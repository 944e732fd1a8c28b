"""Keep-alive HTTP load generator: closed-loop slices, open-loop stretches.

One process sends all the load.  Every connection is a raw socket that
sends a prepared request and reads one ``Content-Length`` response, so the
generator spends as little CPU per request as it can.  All times are
``time.perf_counter()``, which is CLOCK_MONOTONIC on Linux and therefore
comparable with span times recorded in the server process.
"""

from __future__ import annotations

import itertools
import json
import socket
import threading
import time
from dataclasses import dataclass

from .inputs import SUGGEST_K


class Connection:
    """One keep-alive connection; reconnects after the server closes it."""

    def __init__(self, host: str, port: int):
        self.address = (host, port)
        self._sock = None
        self._buffer = b""

    def _connect(self) -> None:
        self._sock = socket.create_connection(self.address, timeout=60)
        self._sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._buffer = b""

    def close(self) -> None:
        if self._sock is not None:
            self._sock.close()
            self._sock = None

    def _fill(self) -> None:
        chunk = self._sock.recv(262144)
        if not chunk:
            raise ConnectionError("server closed the connection")
        self._buffer += chunk

    def exchange(self, raw: bytes) -> tuple[int, bytes]:
        """Send one prepared request; return ``(status, body)``."""
        if self._sock is None:
            self._connect()
        try:
            self._sock.sendall(raw)
            while b"\r\n\r\n" not in self._buffer:
                self._fill()
            head, self._buffer = self._buffer.split(b"\r\n\r\n", 1)
            lines = head.decode("latin-1").split("\r\n")
            status = int(lines[0].split()[1])
            length, close = 0, False
            for line in lines[1:]:
                name, _, value = line.partition(":")
                name = name.strip().lower()
                if name == "content-length":
                    length = int(value)
                elif name == "connection":
                    close = value.strip().lower() == "close"
            while len(self._buffer) < length:
                self._fill()
            body, self._buffer = (self._buffer[:length],
                                  self._buffer[length:])
        except (OSError, ValueError, IndexError):
            self.close()
            raise
        if close:
            self.close()
        return status, body

    def get(self, path: str) -> tuple[int, bytes]:
        return self.exchange(f"GET {path} HTTP/1.1\r\nHost: bench\r\n\r\n"
                             .encode())


def check_response(request, status: int, body: bytes):
    """The failure message for one response, or ``None`` when it is right.

    Returns ``(error, payload)``; the payload is kept only where the run
    needs it later (checked scores, ingest reports).
    """
    expected = 202 if request.kind == "ingest" else 200
    if status != expected:
        return f"{request.kind}: HTTP {status}: {body[:200]!r}", None
    try:
        payload = json.loads(body)
    except ValueError:
        return f"{request.kind}: body is not JSON", None
    if request.kind == "score":
        probs = payload.get("probabilities")
        if (not isinstance(probs, list) or len(probs) != len(request.pairs)
                or [tuple(p) for p in payload.get("pairs", ())]
                != request.pairs):
            return "score: pairs or probabilities do not match", None
        return None, (probs if request.check else None)
    if request.kind == "suggest":
        candidates = payload.get("candidates") or []
        probs = [c.get("probability") for c in candidates]
        if len(candidates) != SUGGEST_K:
            return (f"suggest: {len(candidates)} candidates for "
                    f"k={SUGGEST_K}"), None
        if any(a < b for a, b in zip(probs, probs[1:])):
            return "suggest: candidates not sorted by probability", None
        return None, None
    report = payload.get("report")
    if not isinstance(report, dict) or "attached_edges" not in report:
        return "ingest: sync ingest returned no report", None
    return None, report


@dataclass
class Result:
    """One sent request: times, outcome, and kept payload."""

    request: object
    due: float
    sent: float
    done: float
    error: str | None
    payload: object = None


def _send(conn: Connection, request, due: float) -> Result:
    sent = time.perf_counter()
    try:
        status, body = conn.exchange(request.raw)
    except (OSError, ValueError, IndexError) as error:
        return Result(request, due, sent, time.perf_counter(),
                      f"{request.kind}: transport error {error!r}")
    done = time.perf_counter()
    try:
        error, payload = check_response(request, status, body)
    except (AttributeError, KeyError, TypeError) as error_:
        error, payload = f"{request.kind}: malformed body {error_!r}", None
    return Result(request, due, sent, done, error, payload)


def _run_threads(targets) -> None:
    threads = [threading.Thread(target=t, daemon=True) for t in targets]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=120)
    if any(thread.is_alive() for thread in threads):
        raise RuntimeError("load generator thread did not finish")


def _pace(due: float) -> None:
    delay = due - time.perf_counter()
    if delay > 0:
        time.sleep(delay)


def closed_slice(conns, supply, duration: float):
    """Send back-to-back on every connection for ``duration`` seconds.

    Returns ``(results, end, ran_dry)``; only requests completed by
    ``end`` count toward throughput, and ``ran_dry`` is set when the
    prepared supply ended before the window did.
    """
    counter = itertools.count()
    results: list[Result] = []
    dry = threading.Event()
    end = time.perf_counter() + duration

    def worker(conn):
        local = []
        while time.perf_counter() < end:
            index = next(counter)
            if index >= len(supply):
                dry.set()
                break
            local.append(_send(conn, supply[index], time.perf_counter()))
        results.extend(local)

    _run_threads([lambda c=c: worker(c) for c in conns])
    return results, end, dry.is_set()


def open_stretch(conns, reads):
    """Send ``reads`` (``[(due offset, request)]``) on schedule.

    Each read goes out on the first free connection at or after its due
    time; latency counts from the due time, so a stall also charges the
    requests queued behind it.  Returns the results in due order.
    """
    counter = itertools.count()
    results: list[Result] = []
    t0 = time.perf_counter() + 0.005

    def reader(conn):
        local = []
        while True:
            index = next(counter)
            if index >= len(reads):
                break
            offset, request = reads[index]
            due = t0 + offset
            _pace(due)
            local.append(_send(conn, request, due))
        results.extend(local)

    _run_threads([lambda c=c: reader(c) for c in conns])
    results.sort(key=lambda r: r.due)
    return results


def sequential(conn, requests):
    """Send ``requests`` one after another; latency from each send."""
    results = []
    for request in requests:
        now = time.perf_counter()
        results.append(_send(conn, request, now))
    return results
