"""Serving benchmark: seeded workloads against real ``repro serve`` processes.

Usage (from the repository root):

    python3 servebench/run.py --workload score-hot --seed 1 --seconds 32 \\
        --trace 0

A run launches one measured server and drives rounds at it: a closed-loop
slice on ``nproc`` connections, an open-loop stretch at the workload's
fixed rate and, on suggest-ingest, a few sync ingests sent one after
another.  Evenly over the run, set-up probes launch and warm a fresh
server.  suggest-ingest ends with SIGTERM and a restart of the measured
server on its journal.  Every timing metric is a median over rounds or
set-ups, never a percentile pooled over the run.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` spends half
the time untraced and half with spans recorded around each layer (see
``traced_serve.py``), and reports the per-layer metrics plus the tracing
overhead.  The last stdout line is the result object; the line before it
holds the full report: host fingerprint, every round's values, every
set-up and restart time, the run's own spread, and the first failures.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy

ROOT = Path(__file__).resolve().parent.parent
if __name__ == "__main__":
    sys.path[0] = str(ROOT)  # run as a script: import the package

from servebench.bundle import ensure_bundle, source_digest  # noqa: E402
from servebench.client import (  # noqa: E402
    closed_slice, open_stretch, sequential,
)
from servebench.inputs import WORKLOADS, build_inputs  # noqa: E402
from servebench.layers import PER_LAYER_UNITS, per_layer  # noqa: E402
from servebench.server import Server  # noqa: E402
from servebench.stats import (  # noqa: E402
    median_over_rounds, parse_metrics, percentile, spread,
)

UNITS = {"setup_s": "s", "throughput_rps": "1/s", "p50_ms": "ms",
         "p90_ms": "ms", "cpu_ms_per_req": "ms", "server_pss_mb": "MB"}
#: a run fails its generator check when, in the median round, the
#: generator's own lateness at p90 exceeds this share of the read p50:
#: its figures would then be the generator's rather than the server's
MAX_LATENESS = 0.5


def log(message: str) -> None:
    print(f"[servebench] {message}", file=sys.stderr, flush=True)


def fingerprint(server_env: dict) -> dict:
    """The host and software the numbers were taken on."""
    model = "unknown"
    for line in Path("/proc/cpuinfo").read_text().splitlines():
        if line.startswith("model name"):
            model = line.split(":", 1)[1].strip()
            break
    blas = {}
    try:
        config = numpy.show_config(mode="dicts")
        blas = {key: config["Build Dependencies"]["blas"].get(key)
                for key in ("name", "version")}
    except (TypeError, KeyError):
        pass
    commit = None
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "blas": blas,
        "server_blas_env": server_env,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "commit": commit,
        "source_sha256": source_digest(ROOT),
    }


class Run:
    """One measured phase: its servers, requests, samples and failures."""

    def __init__(self, inputs, bundle_dir, work_dir, traced):
        self.workload = inputs.workload
        self.inputs = inputs
        self.bundle_dir = bundle_dir
        self.work_dir = work_dir
        self.traced = traced
        self.nproc = len(os.sched_getaffinity(0))
        self.attempted = 0
        self.failures: list[str] = []
        #: every launch: role, spans file and the window its layer spans
        #: are taken from (None: only its load/recover spans are used)
        self.launches: list[dict] = []
        self.servers: list = []
        #: server -> (launch record, /v1/metrics, start) while observed
        self.watched: dict = {}
        #: (/v1/metrics before, after) for every observed window
        self.counters: list[tuple[dict, dict]] = []
        #: client results inside observed windows
        self.reads: list = []
        self.ingests: list = []

    # -- bookkeeping ---------------------------------------------------
    def tally(self, results) -> list:
        self.attempted += len(results)
        self.failures += [r.error for r in results if r.error is not None]
        return results

    def check(self, ok: bool, message: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(message)

    # -- servers -------------------------------------------------------
    def launch(self, role: str, journal: Path | None):
        record = {"role": role, "spans": None, "window": None}
        if self.traced:
            record["spans"] = self.work_dir / \
                f"spans-{len(self.launches)}.json"
        self.launches.append(record)
        server = Server(ROOT, self.bundle_dir, journal, record["spans"])
        self.servers.append(server)
        return server, record

    def close(self) -> None:
        """Stop every server this phase launched that is still running."""
        for server in self.servers:
            server.stop()

    def setup(self):
        """Launch -> healthz 200 -> warm-up done, on a fresh journal when
        the workload ingests.  Returns ``(server, launch record, journal
        or None, seconds)``."""
        journal = None
        if self.workload.round_ingests:
            journal = self.work_dir / f"journal-{int(self.traced)}-" \
                                      f"{len(self.launches)}"
        start = time.perf_counter()
        server, record = self.launch("setup", journal)
        server.wait_healthy()
        self.send(server, self.inputs.warmup)
        return server, record, journal, time.perf_counter() - start

    def stop(self, server) -> None:
        """SIGTERM ``server``; a graceful drain exits 0."""
        self.check(server.stop() == 0,
                   "server did not exit cleanly on SIGTERM")

    def send(self, server, requests) -> list:
        """``requests`` one after another on a fresh connection."""
        conn = server.connect()
        try:
            return self.tally(sequential(conn, requests))
        finally:
            conn.close()

    def observe(self, server, record) -> None:
        """Start the window whose spans and counters feed the layers."""
        self.watched[server] = (record, self.metrics(server),
                                time.perf_counter())

    def retire(self, server) -> None:
        """Close ``server``'s observed window."""
        record, before, start = self.watched.pop(server)
        record["window"] = (start, time.perf_counter())
        self.counters.append((before, self.metrics(server)))

    def restart(self, server, journal):
        """SIGTERM, then restart on the same journal -> healthz 200.

        Checks the exit code and that the taxonomy edge set survived.
        Returns ``(new server, seconds from restart to ready)``.
        """
        expected = self.edges(server)
        self.stop(server)
        start = time.perf_counter()
        server, _ = self.launch("recover", journal)
        server.wait_healthy()
        seconds = time.perf_counter() - start
        self.check(self.edges(server) == expected,
                   "taxonomy differs after SIGTERM and restart")
        return server, seconds

    def get(self, server, path):
        conn = server.connect()
        try:
            status, body = conn.get(path)
        finally:
            conn.close()
        if status != 200:
            raise RuntimeError(f"GET {path}: HTTP {status}")
        return body

    def metrics(self, server) -> dict:
        return parse_metrics(self.get(server, "/v1/metrics").decode())

    def edges(self, server) -> set:
        state = json.loads(self.get(server, "/v1/taxonomy"))
        return {tuple(edge) for edge in state.get("edges", [])}

    # -- phases ----------------------------------------------------------
    def round(self, server, conns, rnd, ingest_conn) -> dict:
        """A closed-loop slice, an open-loop stretch, then any ingests."""
        workload = self.workload
        results, end, dry = closed_slice(conns, rnd.closed,
                                         workload.closed_s)
        self.tally(results)
        self.check(not dry, "closed slice ran out of prepared requests")
        completed = sum(1 for r in results
                        if r.error is None and r.done <= end)
        cpu0 = server.cpu_seconds()
        reads = self.tally(open_stretch(conns, rnd.open_reads))
        cpu1 = server.cpu_seconds()
        self.reads += results + reads
        latencies = [1000.0 * (r.done - r.due) if r.error is None
                     else float("inf") for r in reads]
        p50, _ = percentile(latencies, 50)
        p90, beyond = percentile(latencies, 90)
        served = sum(1 for r in reads if r.error is None)
        values = {
            "throughput_rps": completed / workload.closed_s,
            "p50_ms": p50, "p90_ms": p90, "p90_beyond": beyond,
            "cpu_ms_per_req": 1000.0 * (cpu1 - cpu0) / max(served, 1),
            "late_p90_ms": percentile(
                [1000.0 * (r.sent - r.due) for r in reads], 90)[0],
            # where the percentiles sit: reads far above the median are
            # the ones caught in a stall or a slow spell
            "stalled_share": sum(x > 3 * p50 for x in latencies)
            / len(latencies),
        }
        if rnd.ingests:
            ingests = self.tally(sequential(ingest_conn, rnd.ingests))
            self.ingests += ingests
            values["ingest_p50_ms"] = statistics.median(
                1000.0 * (r.done - r.sent) if r.error is None
                else float("inf") for r in ingests)
        return values

    def probe(self) -> float:
        """A set-up sample: a fresh server launched, warmed and stopped."""
        server, _, _, seconds = self.setup()
        self.stop(server)
        return seconds

    def measure(self) -> dict:
        inputs = self.inputs
        server, record, journal, setup_s = self.setup()
        env = server.environ()
        self.observe(server, record)
        n = len(inputs.rounds)
        # set-up probes spread evenly over the rounds
        probe_after = [(2 * j + 1) * n // (2 * inputs.probes)
                       for j in range(inputs.probes)]
        conns = [server.connect() for _ in range(self.nproc)]
        ingest_conn = server.connect() if journal else None
        rounds, probes = [], []
        for index, rnd in enumerate(inputs.rounds):
            rounds.append(self.round(server, conns, rnd, ingest_conn))
            for _ in range(probe_after.count(index)):
                probes.append(self.probe())
        pss = server.pss_mb()
        for conn in conns + [ingest_conn] * bool(journal):
            conn.close()
        self.retire(server)
        lateness = statistics.median(r["late_p90_ms"] / r["p50_ms"]
                                     for r in rounds)
        self.check(lateness <= MAX_LATENESS,
                   f"generator late by {lateness:.2f} x p50 at p90 in the "
                   f"median round: the figures are the generator's")
        final_s = None
        if journal:
            # suggest-ingest ends with SIGTERM and a restart on its journal
            server, final_s = self.restart(server, journal)
        self.stop(server)
        return {"rounds": rounds, "setups": [setup_s] + probes,
                "final_restart_s": final_s, "pss_mb": pss, "env": env}

    def check_scores(self) -> None:
        """Served scores equal the in-process bundle within tolerance."""
        checked = [r for r in self.reads if r.request.check and r.payload]
        if not checked:
            return
        from repro.nn import SCORE_TOLERANCE
        from repro.serving import ArtifactBundle

        bundle = ArtifactBundle.load(str(self.bundle_dir))
        for result in checked:
            reference = bundle.score_pairs(result.request.pairs)
            worst = max(abs(float(a) - float(b))
                        for a, b in zip(result.payload, reference))
            self.check(worst <= SCORE_TOLERANCE,
                       f"score differs from the bundle by {worst:.2e}")

    def layer_metrics(self, untraced: dict, traced: dict) -> dict:
        """Per-layer metrics from this (traced) phase's spans."""
        spans, load_s, recover_s = [], [], []
        for record in self.launches:
            recorded = json.loads(record["spans"].read_text())
            load_s += [e - s for n, _, s, e in recorded
                       if n == "artifacts.load"]
            if record["role"] == "recover":
                recover_s += [e - s for n, _, s, e in recorded
                              if n == "service.recover"]
            if record["window"] is not None:
                low, high = record["window"]
                spans += [s for s in recorded
                          if s[2] >= low and s[3] <= high]
        values = per_layer(spans, [r for r in self.reads if r.error is None],
                           self.ingests, self.counters, load_s, recover_s)
        values["trace.overhead_p50_ms"] = traced["p50_ms"] - untraced["p50_ms"]
        values["trace.overhead_cpu_ms_per_req"] = (
            traced["cpu_ms_per_req"] - untraced["cpu_ms_per_req"])
        return values


def summarise(phase: dict) -> dict:
    """End-to-end metrics: medians over rounds and set-ups.

    suggest-ingest also gets its ingest latency and its one restart's
    recovery time, which are reported but carry no bound.
    """
    rounds = phase["rounds"]
    metrics = {
        "setup_s": statistics.median(phase["setups"]),
        "throughput_rps": median_over_rounds(rounds, "throughput_rps"),
        "p50_ms": median_over_rounds(rounds, "p50_ms"),
        "p90_ms": median_over_rounds(rounds, "p90_ms"),
        "cpu_ms_per_req": median_over_rounds(rounds, "cpu_ms_per_req"),
        "server_pss_mb": phase["pss_mb"],
    }
    if "ingest_p50_ms" in rounds[0]:
        metrics["ingest_p50_ms"] = median_over_rounds(rounds,
                                                      "ingest_p50_ms")
        metrics["recovery_s"] = phase["final_restart_s"]
    return metrics


def within_run_spread(phase) -> dict:
    """Each per-round value's spread across the run, and the set-ups'."""
    spreads = {key: spread([r[key] for r in phase["rounds"]])
               for key in phase["rounds"][0]}
    spreads["setup_s"] = spread(phase["setups"])
    return spreads


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "cli.py").is_file():
        log(f"no program to measure: {ROOT / 'src' / 'repro'} is missing")
        return 2
    sys.path.insert(1, str(ROOT / "src"))

    if args.workload not in WORKLOADS:
        log(f"unknown workload {args.workload!r}; "
            f"choose from {sorted(WORKLOADS)}")
        return 2
    workload = WORKLOADS[args.workload]
    bundle_dir, info = ensure_bundle(ROOT, log)
    seconds = args.seconds / 2 if args.trace else args.seconds
    inputs = build_inputs(workload, args.seed, seconds, info)
    work_dir = bundle_dir.parent.parent / f"run-{os.getpid()}"
    shutil.rmtree(work_dir, ignore_errors=True)
    work_dir.mkdir(parents=True)
    generator_cpu = time.process_time()
    # SIGTERM unwinds through the finally below, which stops the servers
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    runs, phases = [], []
    try:
        for traced in ([False, True] if args.trace else [False]):
            run = Run(inputs, bundle_dir, work_dir, traced)
            runs.append(run)
            phases.append(run.measure())
            run.check_scores()
        phase = phases[0]
        metrics = summarise(phase)
        if args.trace:
            values = runs[1].layer_metrics(metrics, summarise(phases[1]))
            reported = {name: {"value": values[name], "unit": unit}
                        for name, unit in PER_LAYER_UNITS.items()}
        else:
            reported = {name: {"value": metrics[name], "unit": UNITS[name]}
                        for name in UNITS}
        failures = [f for run in runs for f in run.failures]
        report = {
            "workload": workload.name, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace,
            "host": fingerprint(phase["env"]),
            "counts": inputs.counts(),
            "end_to_end": metrics,
            "rounds": phase["rounds"],
            "setups_s": phase["setups"],
            "within_run_spread": within_run_spread(phase),
            "generator_cpu_s": time.process_time() - generator_cpu,
            "failures": failures[:20],
        }
        print(json.dumps({"report": report}))
        print(json.dumps({"correct": not failures,
                          "attempted": sum(r.attempted for r in runs),
                          "failed": len(failures), "metrics": reported}))
        return 0
    finally:
        for run in runs:
            run.close()
        shutil.rmtree(work_dir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
