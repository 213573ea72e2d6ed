"""Serving sweep: PEEL vs Orca vs IP multicast under offered load 0.1-0.9.

The figure experiments launch a fixed batch of jobs; this experiment runs
the :mod:`repro.serve` runtime instead — jobs are *admitted* (TCAM- and
link-load-aware), queue when the fabric or switch budgets are full, and
overlap freely on the shared fabric.  The sweep varies offered load and
reports the serving SLOs the paper's §3 argument predicts: PEEL holds its
tail with zero switch updates and a warming plan cache, while the
per-group schemes pay controller churn (Orca also pays per-collective
setup latency) and start queueing when a small commodity TCAM fills.

A second mode replays the highest-load point with mid-stream link failures
(``with_failures=True``): the fault flaps a loaded spine link, the plan
cache invalidates through the observer layer, and re-peeling carries the
affected collectives to completion.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..api import segment_bytes_for
from ..faults import FaultSchedule
from ..serve import CompositeAdmission, LinkLoadAdmission, ServeRuntime, TcamAdmission
from ..sim import SimConfig
from ..topology import FatTree
from ..workloads import generate_jobs
from .parallel import ProgressFn, SweepPoint, run_sweep

KB = 1024
DEFAULT_LOADS = (0.1, 0.3, 0.5, 0.7, 0.9)
DEFAULT_SCHEMES = ("peel", "orca", "ip-multicast", "elmo", "bert")


@dataclass(frozen=True)
class ServingRow:
    """One (scheme, offered load) point of the serving sweep."""

    scheme: str
    load: float
    p50_ms: float
    p99_ms: float
    mean_queue_ms: float
    reject_rate: float
    cache_hit_rate: float
    switch_updates: int
    peak_entries: int
    queued_jobs: int
    repeels: int = 0


def serving_fattree() -> FatTree:
    """A k=8 fat-tree small enough to sweep many loads quickly."""
    return FatTree(8, hosts_per_tor=4)


def _serve_one(
    topo: FatTree,
    scheme: str,
    jobs,
    config: SimConfig,
    tcam_capacity: int,
    max_link_outstanding: int,
    check_invariants: bool,
    fault_schedule=None,
) -> tuple:
    runtime = ServeRuntime(
        topo,
        scheme,
        config,
        admission=CompositeAdmission(
            TcamAdmission(), LinkLoadAdmission(max_link_outstanding)
        ),
        tcam_capacity=tcam_capacity,
        check_invariants=check_invariants,
        fault_schedule=fault_schedule,
    )
    runtime.submit_all(jobs)
    runtime.run()
    violations = runtime.finalize_checks()
    if violations:
        raise RuntimeError(f"invariant violations: {violations}")
    return runtime.report(), runtime


def _flap_schedule(topo: FatTree, jobs) -> FaultSchedule:
    """The deterministic mid-stream core-link flap for the failure replay."""
    midpoint = jobs[len(jobs) // 2].arrival_s
    span = jobs[-1].arrival_s
    core = sorted(n for n in topo.graph.nodes if n.startswith("core"))[0]
    agg = sorted(topo.graph.neighbors(core))[0]
    return FaultSchedule().link_flap(
        core, agg, down_at_s=midpoint, up_at_s=span * 2 + 1.0
    )


def _point(
    load: float,
    scheme: str,
    num_jobs: int,
    num_gpus: int,
    message_bytes: int,
    tcam_capacity: int,
    check_invariants: bool,
    seed: int,
    with_failure: bool = False,
) -> ServingRow:
    """One (offered load, scheme) serving point; everything rebuilt from
    the seed so the point reproduces identically in any process."""
    topo = serving_fattree()
    config = SimConfig(segment_bytes=segment_bytes_for(message_bytes))
    jobs = generate_jobs(
        topo, num_jobs, num_gpus, message_bytes,
        offered_load=load, gpus_per_host=1, seed=seed,
    )
    schedule = _flap_schedule(topo, jobs) if with_failure else None
    report, runtime = _serve_one(
        topo, scheme, jobs, config, tcam_capacity,
        8 * message_bytes, check_invariants, fault_schedule=schedule,
    )
    repeels = 0
    if with_failure and runtime.env.fault_injector is not None:
        repeels = len(runtime.env.fault_injector.repeels)
    return _row(
        scheme, -1.0 if with_failure else load, report, runtime,
        repeels=repeels,
    )


def grid(
    loads: tuple[float, ...] = DEFAULT_LOADS,
    schemes: tuple[str, ...] = DEFAULT_SCHEMES,
    num_jobs: int = 150,
    num_gpus: int = 16,
    message_bytes: int = 256 * KB,
    tcam_capacity: int = 24,
    check_invariants: bool = False,
    with_failures: bool = False,
    seed: int = 11,
) -> list[SweepPoint]:
    shared = dict(
        num_jobs=num_jobs, num_gpus=num_gpus, message_bytes=message_bytes,
        tcam_capacity=tcam_capacity, check_invariants=check_invariants,
        seed=seed,
    )
    points = [
        SweepPoint(
            _point,
            dict(load=load, scheme=scheme, **shared),
            label=f"serve load={load:.2f} scheme={scheme}",
        )
        for load in loads
        for scheme in schemes
    ]
    if with_failures:
        points.extend(
            SweepPoint(
                _point,
                dict(load=max(loads), scheme=scheme, with_failure=True,
                     **shared),
                label=f"serve load=fault scheme={scheme}",
            )
            for scheme in schemes
        )
    return points


def run(
    loads: tuple[float, ...] = DEFAULT_LOADS,
    schemes: tuple[str, ...] = DEFAULT_SCHEMES,
    num_jobs: int = 150,
    num_gpus: int = 16,
    message_bytes: int = 256 * KB,
    tcam_capacity: int = 24,
    check_invariants: bool = False,
    with_failures: bool = False,
    seed: int = 11,
    jobs: int | None = 1,
    progress: ProgressFn | None = None,
) -> list[ServingRow]:
    """The serving sweep; one row per (scheme, load) point.

    ``tcam_capacity`` is deliberately small (a slice of a shared commodity
    TCAM): Orca's per-group entries hit it at moderate load while PEEL's
    seven prefix rules never come close.  ``with_failures`` appends rows
    (load tagged ``-1``) replaying the highest load with a mid-stream
    spine-link flap.
    """
    return run_sweep(
        grid(
            loads, schemes, num_jobs, num_gpus, message_bytes,
            tcam_capacity, check_invariants, with_failures, seed,
        ),
        jobs=jobs,
        progress=progress,
    )


def run_with_failures(
    schemes: tuple[str, ...] = DEFAULT_SCHEMES,
    num_jobs: int = 150,
    num_gpus: int = 16,
    message_bytes: int = 256 * KB,
    tcam_capacity: int = 24,
    load: float = 0.9,
    check_invariants: bool = False,
    seed: int = 11,
    jobs: int | None = 1,
    progress: ProgressFn | None = None,
) -> list[ServingRow]:
    """The highest-load point with a mid-stream core-link flap.

    Rows carry ``load = -1`` so tables can mark them as the failure run.
    """
    points = [
        SweepPoint(
            _point,
            dict(
                load=load, scheme=scheme, num_jobs=num_jobs,
                num_gpus=num_gpus, message_bytes=message_bytes,
                tcam_capacity=tcam_capacity,
                check_invariants=check_invariants, seed=seed,
                with_failure=True,
            ),
            label=f"serve load=fault scheme={scheme}",
        )
        for scheme in schemes
    ]
    return run_sweep(points, jobs=jobs, progress=progress)


def _row(scheme, load, report, runtime, repeels: int = 0) -> ServingRow:
    return ServingRow(
        scheme=scheme,
        load=load,
        p50_ms=report.total.cct.p50_s * 1e3,
        p99_ms=report.total.cct.p99_s * 1e3,
        mean_queue_ms=report.total.mean_queue_s * 1e3,
        reject_rate=report.total.reject_rate,
        cache_hit_rate=report.cache_hit_rate,
        switch_updates=report.switch_updates,
        peak_entries=report.peak_entries_per_switch,
        queued_jobs=report.queued_jobs,
        repeels=repeels,
    )


def format_table(rows: list[ServingRow]) -> str:
    header = (
        f"{'scheme':<14}{'load':>6}{'p50(ms)':>9}{'p99(ms)':>9}"
        f"{'queue(ms)':>11}{'rej%':>6}{'hit%':>6}{'updates':>9}"
        f"{'peak':>6}{'queued':>8}{'repeels':>9}"
    )
    lines = [header, "-" * len(header)]
    for r in rows:
        load = "fault" if r.load < 0 else f"{r.load:.2f}"
        lines.append(
            f"{r.scheme:<14}{load:>6}{r.p50_ms:>9.3f}{r.p99_ms:>9.3f}"
            f"{r.mean_queue_ms:>11.3f}{r.reject_rate * 100:>6.1f}"
            f"{r.cache_hit_rate * 100:>6.1f}{r.switch_updates:>9}"
            f"{r.peak_entries:>6}{r.queued_jobs:>8}{r.repeels:>9}"
        )
    return "\n".join(lines)


if __name__ == "__main__":  # pragma: no cover
    print(format_table(run(with_failures=True)))
