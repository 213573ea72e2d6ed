#!/usr/bin/env python
"""Standing perf-trajectory benchmark: canonical scenarios -> BENCH_<tag>.json.

Runs the repo's headline simulation scenarios and records wall time and
simulator events/sec so every PR leaves a comparable perf sample behind:

* ``headline``  — one paper-scale Broadcast batch on the 1024-NIC 8-ary
  fat-tree (the single-sim bench the >=2x speedup target applies to);
* ``fig1_point`` — the analytic fig1 bandwidth-accounting computation;
* ``serving``   — a multi-tenant serving stream through ``repro.serve``;
* ``failure``   — a mid-Broadcast link flap with re-peel recovery;
* ``sweep``     — a small fig5-style grid run serially and with 4 workers
  through :mod:`repro.experiments.parallel` (skipped automatically when the
  executor is not available, so the script also runs on older checkouts);
* ``obs``       — the headline Broadcast batch run bare and again with the
  :mod:`repro.obs` observability layer attached, recording the
  enabled/disabled events-per-second delta (skipped on pre-obs checkouts);
* ``sched_ops`` — a pure calendar-queue microbenchmark: scheduler churn
  (schedule/post/cancel/pop) under dense, sparse, and bimodal timer-delay
  regimes, with no fabric attached;
* ``shard_scaleup`` — a pod-local batch run serially and again across
  shard worker processes (``repro.shard``), recording the wall-time ratio
  and asserting the sharded run byte-identical to serial (skipped on
  pre-shard checkouts).

Usage::

    python scripts/bench_report.py                    # full run -> BENCH_report.json
    python scripts/bench_report.py --quick            # CI smoke (seconds, not minutes)
    python scripts/bench_report.py --tag baseline     # -> BENCH_baseline.json
    python scripts/bench_report.py --compare BENCH_baseline.json

Timing numbers are best-of-N wall clock; event counts are asserted
identical across repeats (the simulator is deterministic, so any drift is
a bug worth failing loudly on).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(REPO_ROOT, "src"))

from repro.collectives import CollectiveEnv, resolve_scheme  # noqa: E402
from repro.faults import FaultSchedule  # noqa: E402
from repro.serve import (  # noqa: E402
    CompositeAdmission,
    LinkLoadAdmission,
    ServeRuntime,
    TcamAdmission,
)
from repro.sim import SimConfig  # noqa: E402
from repro.topology import FatTree, LeafSpine  # noqa: E402
from repro.workloads import generate_jobs  # noqa: E402

MB = 2**20
KB = 1024


def _segment_bytes_for(message_bytes: int) -> int:
    from repro.api import segment_bytes_for

    return segment_bytes_for(message_bytes)


def _timed(fn, repeats: int) -> dict:
    """Best-of-``repeats`` wall time; event counts must not drift."""
    walls = []
    events = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        n = fn()
        walls.append(time.perf_counter() - t0)
        if events is None:
            events = n
        elif n != events:
            raise AssertionError(
                f"non-deterministic event count: {n} != {events}"
            )
    wall = min(walls)
    out = {"wall_s": round(wall, 4), "repeats": repeats}
    if events:
        out["events"] = events
        out["events_per_sec"] = round(events / wall, 1)
    return out


# -- scenarios ---------------------------------------------------------------


def bench_headline(quick: bool):
    """Single-sim Broadcast batch: the >=2x events/sec target applies here."""
    if quick:
        topo = FatTree(8, hosts_per_tor=4)
        num_jobs, num_gpus, msg = 4, 64, 8 * MB
    else:
        topo = FatTree(8, hosts_per_tor=32)  # the paper's 1024-NIC fabric
        num_jobs, num_gpus, msg = 12, 512, 32 * MB
    cfg = SimConfig(segment_bytes=_segment_bytes_for(msg))
    jobs = generate_jobs(
        topo, num_jobs, num_gpus, msg, offered_load=0.3, gpus_per_host=1, seed=7
    )
    scheme = resolve_scheme("peel")

    def once() -> int:
        env = CollectiveEnv(topo, cfg)
        handles = [
            scheme.launch(env, j.group, j.message_bytes, j.arrival_s)
            for j in jobs
        ]
        env.run()
        assert all(h.complete for h in handles)
        return env.sim.processed

    return once


def bench_fig1_point(quick: bool):
    """The analytic fig1 computation (no simulation; wall time only)."""
    del quick
    from repro.experiments import fig1_bandwidth

    def once() -> int:
        rows = fig1_bandwidth.run()
        assert len(rows) == 3
        return 0

    return once


def bench_serving(quick: bool):
    """Admission + queueing + plan cache: the repro.serve hot path."""
    topo = FatTree(8, hosts_per_tor=4)
    message_bytes = 256 * KB
    num_jobs, load = (150, 0.5) if quick else (1000, 0.7)
    cfg = SimConfig(segment_bytes=_segment_bytes_for(message_bytes))
    jobs = generate_jobs(
        topo, num_jobs, 16, message_bytes,
        offered_load=load, gpus_per_host=1, seed=11,
    )

    def once() -> int:
        runtime = ServeRuntime(
            topo, "peel", cfg,
            admission=CompositeAdmission(
                TcamAdmission(), LinkLoadAdmission(8 * message_bytes)
            ),
            tcam_capacity=24,
        )
        runtime.submit_all(jobs)
        runtime.run()
        return runtime.env.sim.processed

    return once


def bench_failure(quick: bool):
    """Mid-Broadcast link flap: fault injection + re-peel + repair loop."""
    from repro.experiments.faults_demo import pick_loaded_link

    topo = LeafSpine(4, 8, 4)
    msg = (4 if quick else 32) * MB
    cfg = SimConfig(segment_bytes=_segment_bytes_for(msg), seed=3)
    jobs = generate_jobs(topo, 1, 24, msg, gpus_per_host=1, seed=3)
    job = jobs[0]
    scheme = resolve_scheme("peel")

    # Clean run to locate a loaded link and calibrate the flap window.
    env = CollectiveEnv(topo, cfg)
    handle = scheme.launch(env, job.group, job.message_bytes, job.arrival_s)
    env.run()
    clean_cct = handle.cct_s
    link = pick_loaded_link(topo, "peel", job.group.source.host,
                            job.group.receiver_hosts)
    schedule = (
        FaultSchedule()
        .link_down(*link, at_s=job.arrival_s + 0.4 * clean_cct)
        .link_up(*link, at_s=job.arrival_s + 2.0 * clean_cct)
    )

    def once() -> int:
        env = CollectiveEnv(topo.copy(), cfg, fault_schedule=schedule)
        h = scheme.launch(env, job.group, job.message_bytes, job.arrival_s)
        env.run()
        assert h.complete
        return env.sim.processed

    return once


def bench_sweep(quick: bool) -> dict | None:
    """fig5-style grid, serial vs 4 workers; byte-identity is asserted.

    ``parallel_over_serial`` < 1 means the pool won; the <=0.4 scaling
    target only applies with >= 4 CPUs (``cpu_count`` is recorded — on a
    one-core runner the ratio is expectedly >= 1, and only the
    byte-identity assertion is meaningful).
    """
    try:
        from repro.experiments import fig5_message_size
        from repro.experiments.common import format_cct_table
        from repro.experiments.parallel import resolve_jobs  # noqa: F401
    except ImportError:
        return None  # pre-executor checkout: skip the scaling sample

    if quick:
        params = dict(sizes_mb=(2,), schemes=("optimal", "peel"),
                      num_jobs=4, num_gpus=64)
        workers = 2
    else:
        params = dict(sizes_mb=(2, 8), schemes=("ring", "tree", "optimal", "peel"),
                      num_jobs=6, num_gpus=128)
        workers = 4

    t0 = time.perf_counter()
    serial_rows = fig5_message_size.run(jobs=1, **params)
    serial_wall = time.perf_counter() - t0
    t0 = time.perf_counter()
    parallel_rows = fig5_message_size.run(jobs=workers, **params)
    parallel_wall = time.perf_counter() - t0

    serial_table = format_cct_table(serial_rows, "msg (MB)")
    parallel_table = format_cct_table(parallel_rows, "msg (MB)")
    if serial_table != parallel_table:
        raise AssertionError("parallel sweep diverged from serial results")
    return {
        "points": len(serial_rows),
        "workers": workers,
        "cpu_count": os.cpu_count(),
        "serial_wall_s": round(serial_wall, 4),
        "parallel_wall_s": round(parallel_wall, 4),
        "parallel_over_serial": round(parallel_wall / serial_wall, 4),
        "byte_identical": True,
    }


def bench_shard_scaleup(quick: bool) -> dict | None:
    """Sharded core scale-up: one pod-local batch run serially, then again
    across shard worker processes.  ``sharded_over_serial`` < 1 means the
    shards won (only expected with enough CPUs and a non-quick workload —
    ``cpu_count`` is recorded); ``byte_identical`` is asserted
    unconditionally, because a sharded run that isn't byte-identical to
    serial is a correctness bug, not a perf datum (skipped on pre-shard
    checkouts)."""
    try:
        from repro.api import ScenarioSpec
        from repro.experiments.parallel import shard_speedup
        from repro.shard import pod_local_jobs
    except ImportError:
        return None  # pre-shard checkout: skip the scale-up sample

    if quick:
        topo = FatTree(4)
        shards, jobs_per_pod, msg = 2, 6, 256 * KB
    else:
        topo = FatTree(8, hosts_per_tor=4)
        shards, jobs_per_pod, msg = 8, 32, 1 * MB
    # ECN marking band pushed out of reach: probabilistic marks draw from
    # the fabric RNG, which a sharded run refuses (per-shard draws could
    # not interleave like the serial run's).  The bench measures the
    # sharded core, so it runs the deterministic regime sharding supports.
    cfg = SimConfig(
        segment_bytes=_segment_bytes_for(msg),
        ecn_kmin_bytes=1 << 30,
        ecn_kmax_bytes=1 << 31,
    )
    jobs = pod_local_jobs(topo, jobs_per_pod, 4, msg, seed=7)
    spec = ScenarioSpec(
        topology=topo, scheme="peel", jobs=tuple(jobs), config=cfg,
        shards=shards,
    )
    result = shard_speedup(spec, processes=True)
    if not result.byte_identical:
        raise AssertionError("sharded run diverged from serial")
    return {
        "shards": result.shards,
        "cpu_count": os.cpu_count(),
        "jobs": len(jobs),
        "events": result.events,
        "serial_wall_s": round(result.serial_wall_s, 4),
        "sharded_wall_s": round(result.sharded_wall_s, 4),
        "sharded_over_serial": round(
            result.sharded_wall_s / max(result.serial_wall_s, 1e-9), 4
        ),
        "byte_identical": result.byte_identical,
    }


def bench_obs(quick: bool) -> dict | None:
    """Observability overhead on the headline scenario: the same Broadcast
    batch run bare and with ``repro.obs`` attached (metrics + spans +
    periodic sampling).  ``enabled_over_disabled`` < 1 means enabling obs
    cost wall time; the disabled run must stay within 5% of the committed
    headline events/sec (that's the acceptance bar — disabled-mode cost is
    zero by construction, since nothing registers on the observer layer).
    """
    try:
        from repro.obs import Observability
    except ImportError:
        return None  # pre-obs checkout: skip the overhead sample

    # Same workload as bench_headline, so the disabled leg is directly
    # comparable to the committed headline events/sec.
    if quick:
        topo = FatTree(8, hosts_per_tor=4)
        num_jobs, num_gpus, msg = 4, 64, 8 * MB
    else:
        topo = FatTree(8, hosts_per_tor=32)
        num_jobs, num_gpus, msg = 12, 512, 32 * MB
    cfg = SimConfig(segment_bytes=_segment_bytes_for(msg))
    jobs = generate_jobs(
        topo, num_jobs, num_gpus, msg, offered_load=0.3, gpus_per_host=1, seed=7
    )
    scheme = resolve_scheme("peel")

    def once(with_obs: bool) -> tuple[int, float]:
        import gc

        gc.collect()  # don't bill prior scenarios' garbage to this leg
        t0 = time.perf_counter()
        env = CollectiveEnv(topo, cfg)
        obs = None
        if with_obs:
            obs = Observability(sample_interval_s=100e-6)
            obs.attach(env.network)
        handles = [
            scheme.launch(env, j.group, j.message_bytes, j.arrival_s)
            for j in jobs
        ]
        if obs is not None:
            for h in handles:
                obs.track_collective(h)
        env.run()
        assert all(h.complete for h in handles)
        if obs is not None:
            obs.finalize()
        return env.sim.processed, time.perf_counter() - t0

    # Interleave the legs so box-speed drift over the scenario's wall
    # time hits both the same way (the ratio is the gated quantity).
    repeats = 1 if quick else 3
    disabled = []
    enabled = []
    for _ in range(repeats):
        disabled.append(once(False))
        enabled.append(once(True))
    dis_events = disabled[0][0]
    en_events = enabled[0][0]
    dis_wall = min(w for _, w in disabled)
    en_wall = min(w for _, w in enabled)
    dis_eps = dis_events / dis_wall
    en_eps = en_events / en_wall
    return {
        "disabled_events": dis_events,
        "enabled_events": en_events,
        "disabled_events_per_sec": round(dis_eps, 1),
        "enabled_events_per_sec": round(en_eps, 1),
        "enabled_over_disabled": round(en_eps / dis_eps, 4),
        "disabled_wall_s": round(dis_wall, 4),
        "enabled_wall_s": round(en_wall, 4),
        "repeats": repeats,
    }


def bench_sched_ops(quick: bool) -> dict:
    """Pure scheduler churn: the calendar queue with no fabric attached.

    Three timer-delay regimes stress different queue shapes:

    * ``dense``   — delays within a few bucket widths (serialization
      timers; the active-bucket insort and post fast paths dominate);
    * ``sparse``  — delays spread across half a second of mostly-empty
      buckets (timeout timers; bucket-index heap churn dominates);
    * ``bimodal`` — a near/far mix, the fabric's realistic shape
      (per-segment tx timers plus occasional protocol timeouts).

    Each regime interleaves ``schedule``/``schedule_at`` (handle-
    allocating), the ``post``/``post1``/``post2`` fast paths, cancels of
    roughly one in seven handles, and periodic budgeted partial drains
    (the checked run loop), then drains to empty (the fast run loop).
    Ops = inserts + cancels + fired events; the per-regime op totals are
    deterministic and asserted identical across repeats.
    """
    from random import Random

    from repro.sim.engine import Simulator

    n_inserts = 20_000 if quick else 200_000
    repeats = 2 if quick else 3

    def churn(mode: str) -> tuple[int, float]:
        rng = Random(0x5EED)
        rand = rng.random
        sink = [0]

        def cb() -> None:
            sink[0] += 1

        def cb1(a) -> None:
            sink[0] += a

        def cb2(a, b) -> None:
            sink[0] += a + b

        sim = Simulator()
        handles: list = []
        pop_handle = handles.pop
        push_handle = handles.append
        cancels = 0
        t0 = time.perf_counter()
        for i in range(n_inserts):
            r = rand()
            if mode == "dense":
                delay = r * 2e-5
            elif mode == "sparse":
                delay = r * 0.5
            else:  # bimodal: 3/4 near, 1/4 far
                delay = r * 2e-5 if i & 3 else 0.25 + r * 0.25
            k = i % 6
            if k == 0:
                push_handle(sim.schedule(delay, cb))
            elif k == 1:
                push_handle(sim.schedule_at(sim.now + delay, cb1, 1))
            elif k == 2:
                sim.post1(delay, cb1, 1)
            elif k == 3:
                sim.post2(delay, cb2, 1, 2)
            else:
                sim.post(delay, cb)
            if i % 7 == 0 and handles:
                # Cancelling an already-fired handle is a no-op, so this
                # exercises both live cancellation and the fired path.
                pop_handle().cancel()
                cancels += 1
            if i & 1023 == 1023:
                sim.run(max_events=256)  # budgeted partial drain
        sim.run()  # drain to empty via the fast loop
        wall = time.perf_counter() - t0
        assert sim.pending == 0
        return n_inserts + cancels + sim.processed, wall

    out: dict = {"inserts": n_inserts, "repeats": repeats}
    for mode in ("dense", "sparse", "bimodal"):
        ops = None
        best = float("inf")
        for _ in range(repeats):
            n, wall = churn(mode)
            best = min(best, wall)
            if ops is None:
                ops = n
            elif n != ops:
                raise AssertionError(
                    f"non-deterministic {mode} op count: {n} != {ops}"
                )
        out[f"{mode}_ops"] = ops
        out[f"{mode}_wall_s"] = round(best, 4)
        out[f"{mode}_ops_per_sec"] = round(ops / best, 1)
    return out


SCENARIOS = (
    "headline", "fig1_point", "serving", "failure", "sweep", "obs",
    "sched_ops", "shard_scaleup",
)


def run_report(quick: bool, repeats: int, only: list[str] | None = None) -> dict:
    scenarios: dict[str, dict] = {}
    for name in SCENARIOS:
        if only and name not in only:
            continue
        t0 = time.perf_counter()
        if name == "sweep":
            result = bench_sweep(quick)
            if result is None:
                print("  sweep: executor unavailable, skipped", file=sys.stderr)
                continue
        elif name == "obs":
            result = bench_obs(quick)
            if result is None:
                print("  obs: repro.obs unavailable, skipped", file=sys.stderr)
                continue
        elif name == "sched_ops":
            result = bench_sched_ops(quick)
        elif name == "shard_scaleup":
            result = bench_shard_scaleup(quick)
            if result is None:
                print("  shard_scaleup: repro.shard unavailable, skipped",
                      file=sys.stderr)
                continue
        else:
            builder = globals()[f"bench_{name}"]
            result = _timed(builder(quick), repeats)
        scenarios[name] = result
        print(f"  {name}: {json.dumps(result)} "
              f"[{time.perf_counter() - t0:.1f}s total]", file=sys.stderr)
    return {
        "quick": quick,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "cpu_count": os.cpu_count(),
        "scenarios": scenarios,
    }


def compare(report: dict, baseline_path: str) -> None:
    with open(baseline_path, encoding="utf-8") as fh:
        base = json.load(fh)
    print(f"\nvs {baseline_path}:")
    for name, now in report["scenarios"].items():
        then = base.get("scenarios", {}).get(name)
        if not then:
            continue
        if "events_per_sec" in now and "events_per_sec" in then:
            ratio = now["events_per_sec"] / then["events_per_sec"]
            print(f"  {name:<12} {then['events_per_sec']:>12.0f} -> "
                  f"{now['events_per_sec']:>12.0f} ev/s  ({ratio:.2f}x)")
        elif "wall_s" in now and "wall_s" in then:
            ratio = then["wall_s"] / max(now["wall_s"], 1e-9)
            print(f"  {name:<12} {then['wall_s']:>8.3f}s -> "
                  f"{now['wall_s']:>8.3f}s  ({ratio:.2f}x)")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="small scenarios for CI smoke (seconds)")
    parser.add_argument("--tag", default="report",
                        help="output name: BENCH_<tag>.json")
    parser.add_argument("--output", metavar="PATH",
                        help="explicit output path (overrides --tag)")
    parser.add_argument("--repeats", type=int, default=None,
                        help="wall-time repeats per scenario "
                             "(default 3, 1 with --quick)")
    parser.add_argument("--only", nargs="+", choices=SCENARIOS,
                        help="run a subset of scenarios")
    parser.add_argument("--compare", metavar="BASELINE_JSON",
                        help="print speedups vs an earlier report")
    args = parser.parse_args(argv)

    repeats = args.repeats or (1 if args.quick else 3)
    print(f"bench_report: quick={args.quick} repeats={repeats}",
          file=sys.stderr)
    report = run_report(args.quick, repeats, args.only)

    out_path = args.output or os.path.join(REPO_ROOT, f"BENCH_{args.tag}.json")
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {out_path}")
    if args.compare:
        compare(report, args.compare)
    return 0


if __name__ == "__main__":
    sys.exit(main())
