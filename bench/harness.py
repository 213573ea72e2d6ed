"""Measurement: timed passes, set-up samples, checks, the traced pass, metrics.

``measure`` runs one workload in the calling process: it repeats passes
until ``seconds`` have elapsed (at least ``MIN_PASSES``), records peak
memory, runs the untimed reference the workload may have, makes every
output check, and, when asked, profiles one more pass under ``cProfile``.
``setup_metric``, ``run_metrics`` and ``per_layer`` turn the results into
named metrics.
"""

from __future__ import annotations

import cProfile
import gc
import math
import os
import platform
import pstats
import resource
import statistics
import subprocess
import time
from dataclasses import dataclass
from pathlib import Path

from . import checks, layers

MIN_PASSES = 3

#: End-to-end metric -> (unit, better, bound).  All are host-side.
END_TO_END = {
    "setup_s": ("s", "lower", 0.25),
    "jobs_per_s": ("1/s", "higher", 0.25),
    "op_p50_us": ("us", "lower", 0.25),
    "op_p90_us": ("us", "lower", 0.25),
    "peak_rss_mb": ("MB", "lower", 0.16),
}

#: Per-layer counts read from the program's result objects -> unit.
COUNTS = {
    "sim.engine.events": "count",
    "sim.network.bytes_sent": "B",
    "sim.network.pfc_pause_events": "count",
    "sim.network.ecn_marks": "count",
    "serve.cache.lookups": "count",
    "serve.cache.hit_ratio": "ratio",
    "serve.cache.invalidations": "count",
    "serve.admission.queued": "count",
    "serve.admission.queue_share": "ratio",
    "serve.state.switch_updates": "count",
    "control.full_repeels": "count",
    "control.replans": "count",
    "shard.windows": "count",
}


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric -> unit, in report order.

    Times from the traced pass are shares: a layer's self time over all
    profiled self time, an entry point's busy time over the traced pass's
    wall.  Shares compare across boxes; ``trace.wall_s`` converts back.
    """
    units = {f"{b}.self_share": "ratio" for b in (*layers.LAYERS, *layers.EXT_BUCKETS)}
    for entry in layers.ENTRY_POINTS:
        units[f"{entry}.calls"] = "count"
        units[f"{entry}.busy_share"] = "ratio"
    units.update(COUNTS)
    units.update({
        "sim.engine.events_per_s": "1/s",
        "shard.speedup_vs_serial": "ratio",
        "trace.wall_s": "s",
        "trace.overhead": "ratio",
        "trace.coverage": "ratio",
    })
    return units


@dataclass
class Measurement:
    workload: str
    passes: list
    #: Host seconds of each pass's run phase (set-up excluded).
    walls: list[float]
    #: Host seconds of each pass's set-up plus run phase.
    totals: list[float]
    peak_rss_mb: float
    reference: object | None
    failures: list[checks.CheckFailed]
    #: ``layers.attribute`` of the traced pass, when one ran.
    profile: dict | None = None
    traced_wall_s: float | None = None


def peak_rss_mb() -> float:
    """This process's peak RSS plus its largest reaped child's (the shard
    workers of ``pod_sharded``; zero for the other workloads)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024  # ru_maxrss is in KiB on Linux


def setup_sample(workload, seed: int) -> float:
    """Host seconds to build the topology and set up, inputs excluded."""
    t0 = time.perf_counter()
    topo = workload.topology(seed)
    t1 = time.perf_counter()
    inputs = workload.inputs(topo, seed)
    t2 = time.perf_counter()
    state = workload.setup(topo, inputs)
    t3 = time.perf_counter()
    workload.close(state)
    return (t1 - t0) + (t3 - t2)


def measure(
    workload,
    seed: int,
    seconds: float,
    trace: bool = False,
    min_passes: int = MIN_PASSES,
) -> Measurement:
    topo = workload.topology(seed)
    inputs = workload.inputs(topo, seed)
    passes, walls, totals = [], [], []
    started = time.perf_counter()
    while len(passes) < min_passes or time.perf_counter() - started < seconds:
        gc.collect()  # don't bill the previous pass's garbage to this one
        t0 = time.perf_counter()
        state = workload.setup(topo, inputs)
        t1 = time.perf_counter()
        passes.append(workload.run(state, inputs))
        t2 = time.perf_counter()
        walls.append(t2 - t1)
        totals.append(t2 - t0)
        # Unbound before the next collect, so it frees this pass's simulator
        # and the next set-up (and any worker it forks) runs without it.
        state = None
    # Before the reference and the traced pass, which are not measured.
    peak = peak_rss_mb()
    reference = workload.reference(topo, inputs)
    m = Measurement(
        workload=workload.name,
        passes=passes,
        walls=walls,
        totals=totals,
        peak_rss_mb=peak,
        reference=reference,
        failures=checks.run_all(workload.name, passes, reference),
    )
    if trace:
        m.profile, m.traced_wall_s = traced_pass(workload, topo, inputs)
    return m


def traced_pass(workload, topo, inputs) -> tuple[dict, float]:
    """One set-up plus pass under ``cProfile``; returns the attribution and
    the traced wall time.  Forked shard workers stop profiling at once:
    only the coordinator is attributed, and workers run at full speed."""
    gc.collect()
    profiler = cProfile.Profile()
    os.register_at_fork(after_in_child=profiler.disable)
    t0 = time.perf_counter()
    profiler.enable()
    try:
        workload.run(workload.setup(topo, inputs), inputs)
    finally:
        profiler.disable()
    wall = time.perf_counter() - t0
    return layers.attribute(pstats.Stats(profiler)), wall


def percentile(values: list[float], q: float) -> float:
    """Linear-interpolated percentile of sorted ``values`` (inclusive)."""
    pos = (len(values) - 1) * q / 100
    lo = math.floor(pos)
    hi = min(lo + 1, len(values) - 1)
    return values[lo] + (values[hi] - values[lo]) * (pos - lo)


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def setup_metric(setup_samples: list[float]) -> dict:
    """``setup_s``: the median of the set-up samples."""
    return {"setup_s": _metric(statistics.median(setup_samples), END_TO_END["setup_s"][0])}


def run_metrics(m: Measurement) -> dict:
    """The end-to-end metrics other than ``setup_s``.

    ``jobs_per_s`` and ``op_p50_us`` are medians over the passes of each
    pass's own value.  ``op_p90_us`` is taken over the requests of all
    passes together: a pass of ``paper_broadcast`` has only 12 requests,
    and over ten seeds the pooled p90 spread less than the median of
    per-pass p90s on every workload, while the median of per-pass p50s
    spread less than the pooled p50 (``bench/README.md``)."""
    ops = [sorted(p.op_s) for p in m.passes]
    values = {
        "jobs_per_s": statistics.median(
            p.jobs / wall for p, wall in zip(m.passes, m.walls)
        ),
        "op_p50_us": statistics.median(percentile(o, 50) for o in ops) * 1e6,
        "op_p90_us": percentile(sorted(t for o in ops for t in o), 90) * 1e6,
        "peak_rss_mb": m.peak_rss_mb,
    }
    return {name: _metric(value, END_TO_END[name][0]) for name, value in values.items()}


def per_layer(m: Measurement) -> dict:
    """Per-layer metrics: counts from the first pass, the rest from the
    traced pass.  Layers a workload does not exercise read zero."""
    units = per_layer_units()
    values = dict.fromkeys(units, 0.0)
    first = m.passes[0]
    if m.reference is not None:
        values.update(m.reference.counts)
    values.update(first.counts)
    values["sim.engine.events"] = first.events
    values["sim.engine.events_per_s"] = first.events / statistics.median(m.walls)
    if m.reference is not None:
        values["shard.speedup_vs_serial"] = (
            m.reference.wall_s / statistics.median(m.totals)
        )
    profile = m.profile
    if profile is not None:
        total = profile["total_s"] or 1.0
        for bucket, seconds in profile["self_s"].items():
            values[f"{bucket}.self_share"] = seconds / total
        for entry, seconds in profile["busy_s"].items():
            values[f"{entry}.busy_share"] = seconds / m.traced_wall_s
            values[f"{entry}.calls"] = profile["calls"][entry]
        values["trace.wall_s"] = m.traced_wall_s
        values["trace.overhead"] = m.traced_wall_s / statistics.median(m.totals)
        values["trace.coverage"] = profile["coverage"]
    return {name: _metric(values[name], unit) for name, unit in units.items()}


def calib_mops(n: int = 200_000, repeats: int = 5) -> float:
    """A fixed pure-Python loop, in million iterations per second (best of
    ``repeats``): how fast this box runs the interpreter right now."""
    best = math.inf
    for _ in range(repeats):
        t0 = time.perf_counter()
        acc = 0
        for i in range(n):
            acc = (acc + i * 7) % 1_000_003
        best = min(best, time.perf_counter() - t0)
    return n / best / 1e6


def git_commit(root: Path) -> str | None:
    """The checkout's commit, or ``None`` outside a git working tree."""
    if not (root / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
            text=True, timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def box_record(root: Path, seed: int) -> dict:
    """Diagnostics that say which box and tree produced a result; not gated."""
    return {
        "calib_mops": calib_mops(),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "seed": seed,
        "git_commit": git_commit(root),
    }
