"""Pure helpers: percentiles, round medians, span arithmetic, /proc and
/v1/metrics parsing.  Nothing here touches a socket or a process."""

from __future__ import annotations

import bisect
import math
import re
import statistics


def percentile(samples, q: float) -> tuple[float, int]:
    """Nearest-rank ``q``-th percentile and the count of samples above it.

    The value is always one of the samples; ``beyond`` counts the samples
    strictly greater than it, which is how many observations the tail
    estimate rests on.
    """
    if not samples:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(samples)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    value = ordered[rank - 1]
    return value, len(ordered) - bisect.bisect_right(ordered, value)


def median_over_rounds(rounds, key: str) -> float:
    """Median of every round's ``key``; a few slow rounds cannot move it."""
    return statistics.median(r[key] for r in rounds)


def spread(values) -> float | None:
    """Interquartile range over median (``statistics.quantiles``); None
    for fewer than two values or a zero median."""
    if len(values) < 2:
        return None
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median if median else None


def covered(intervals, start: float, end: float) -> float:
    """Length of ``[start, end]`` covered by the union of ``intervals``."""
    clipped = sorted((max(lo, start), min(hi, end))
                     for lo, hi in intervals if hi > start and lo < end)
    total = 0.0
    run_lo = run_hi = None
    for lo, hi in clipped:
        if run_hi is None or lo > run_hi:
            if run_hi is not None:
                total += run_hi - run_lo
            run_lo, run_hi = lo, hi
        else:
            run_hi = max(run_hi, hi)
    if run_hi is not None:
        total += run_hi - run_lo
    return total


def self_time(span: tuple[float, float], children) -> float:
    """A span's duration minus the part of it that its child spans cover.

    Children may nest or overlap each other; overlapping time is counted
    once, and child time outside the parent is ignored.
    """
    start, end = span
    return (end - start) - covered(children, start, end)


def parse_proc_ppid(text: str) -> int:
    """Parent pid (field 4) from /proc/PID/stat.

    The command name (field 2) may hold spaces and parentheses, so the
    fields are counted from its closing parenthesis.
    """
    return int(text[text.rindex(")") + 2:].split()[1])


def parse_pss_kb(text: str) -> int:
    """The ``Pss:`` line of /proc/PID/smaps_rollup, in kB."""
    for line in text.splitlines():
        if line.startswith("Pss:"):
            return int(line.split()[1])
    raise ValueError("no Pss line in smaps_rollup")


_METRIC_LINE = re.compile(
    r"^([A-Za-z_:][A-Za-z0-9_:]*(?:\{[^}]*\})?)\s+(\S+)$")


def parse_metrics(text: str) -> dict[str, float]:
    """Prometheus text exposition -> ``{name{labels}: value}``."""
    values = {}
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        match = _METRIC_LINE.match(line.strip())
        if match:
            values[match.group(1)] = float(match.group(2))
    return values


def metric_delta(before: dict, after: dict, name: str) -> float:
    """Counter growth of ``name`` summed over every label set.

    A series absent at ``before`` (created lazily, e.g. retrieval
    counters) counts from zero.
    """
    total = 0.0
    for key, value in after.items():
        if key == name or key.startswith(name + "{"):
            total += value - before.get(key, 0.0)
    return total


def ratio(numerator: float, denominator: float) -> float:
    """``numerator / denominator``, or 0.0 when nothing was counted."""
    return numerator / denominator if denominator else 0.0
