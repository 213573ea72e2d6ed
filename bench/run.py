#!/usr/bin/env python3
"""Run the benchmark: every metric by name and unit, outputs checked.

Usage::

    python3 bench/run.py                              # all five workloads
    python3 bench/run.py --workload paper_broadcast --seed 3
    python3 bench/run.py --workload control_churn --trace 1
    python3 bench/run.py --out results.json

Each workload runs in fresh child processes, one after another: a few
set-up probes (each times ``import repro`` plus set-up once), one
measuring child that repeats passes for ``--seconds`` (by default
``run_seconds`` from ``BENCHMARK.json``), checks every output and, with
``--trace 1``, profiles one more pass, then a few more set-up probes;
``setup_s`` is the median of all probes.  The last line of standard output
is one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``
(the end-to-end metrics, or with ``--trace 1`` the per-layer ones).  ``--out`` gets the
full record: both metric sets, sample counts and the box record.

A failed output check names the workload and the check on standard error
and exits 1.  Without ``src/repro`` beside ``bench/`` it exits 2.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = (
    "paper_broadcast",
    "serve_fresh_groups",
    "serve_recurring_groups",
    "control_churn",
    "pod_sharded",
)
#: Set-up probes before, and again after, a workload's measuring child;
#: ``setup_s`` is the median of all of them.
PROBES = 4
#: Each workload's children must end within this many seconds.
DEADLINE_S = 170.0


class BenchError(Exception):
    """The benchmark cannot produce a result (exit 2)."""


def run_seconds() -> int:
    """``run_seconds`` from ``BENCHMARK.json``: one number sets how long a
    run measures, whether or not ``--seconds`` passes it along."""
    try:
        return json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    except (OSError, ValueError, KeyError) as exc:
        raise BenchError(f"no run_seconds in {ROOT / 'BENCHMARK.json'}: {exc}") from exc


def _use_checkout_source() -> None:
    """Import ``repro`` from this checkout's ``src`` and nowhere else."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise BenchError(f"no package source at {SRC / 'repro'}")
    sys.path[:0] = [str(SRC), str(ROOT)]


def _check_origin() -> None:
    import repro

    origin = Path(repro.__file__).resolve()
    if not origin.is_relative_to(SRC):
        raise BenchError(f"repro imported from {origin}, not {SRC}")


# -- child roles ---------------------------------------------------------------


def _probe(name: str, seed: int) -> dict:
    t0 = time.perf_counter()
    from bench import workloads  # imports repro: timed as set-up

    import_s = time.perf_counter() - t0
    _check_origin()
    from bench import harness

    return {"setup_s": import_s + harness.setup_sample(workloads.WORKLOADS[name](), seed)}


def _measure(name: str, seed: int, seconds: float, trace: bool) -> dict:
    from bench import harness, workloads

    _check_origin()
    m = harness.measure(workloads.WORKLOADS[name](), seed, seconds, trace)
    return {
        "correct": not m.failures,
        "attempted": sum(p.attempted for p in m.passes),
        "failed": sum(p.failed for p in m.passes),
        "failures": [str(f) for f in m.failures],
        # ``setup_s`` is added by the parent, which runs the probes.
        "metrics": harness.run_metrics(m),
        # Without a traced pass only the counts are filled in.
        "per_layer": harness.per_layer(m),
        "samples": {
            "passes": len(m.passes),
            "ops": sum(len(p.op_s) for p in m.passes),
            "run_walls_s": m.walls,
        },
    }


# -- parent --------------------------------------------------------------------


def _child(args: list[str], deadline: float) -> dict:
    """Run this script in a fresh interpreter; returns its JSON line."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time before starting a child")
    # A session of its own, so that ending the child also ends the shard
    # workers it forked: they never see their pipe close.
    proc = subprocess.Popen(
        [sys.executable, str(Path(__file__).resolve()), *args],
        stdout=subprocess.PIPE, text=True, cwd=ROOT, start_new_session=True,
    )
    try:
        stdout, _ = proc.communicate(timeout=timeout)
    except BaseException as exc:
        with contextlib.suppress(ProcessLookupError):
            os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        if isinstance(exc, subprocess.TimeoutExpired):
            raise BenchError(f"child {' '.join(args)} timed out") from exc
        raise
    if proc.returncode != 0:
        raise BenchError(f"child {' '.join(args)} exited {proc.returncode}")
    return json.loads(stdout.strip().splitlines()[-1])


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    from bench import harness

    deadline = time.monotonic() + DEADLINE_S
    base = ["--workload", name, "--seed", str(seed)]

    def probes() -> list[float]:
        return [
            _child(["--role", "probe", *base], deadline)["setup_s"]
            for _ in range(PROBES)
        ]

    # Probes before and after the measuring child, so that a slow spell of
    # the box at either moment moves the median little.
    setups = probes()
    result = _child(
        ["--role", "measure", *base, "--seconds", str(seconds),
         "--trace", str(int(trace))],
        deadline,
    )
    setups += probes()
    result["metrics"] = {**harness.setup_metric(setups), **result["metrics"]}
    result["samples"]["setup_s"] = setups
    return result


def _print_metrics(name: str, metrics: dict) -> None:
    for metric, m in metrics.items():
        print(f"{name:<24} {metric:<40} {m['value']:>16.6g} {m['unit']}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES,
                        help="run one workload (default: all five)")
    parser.add_argument("--seed", type=int, default=1,
                        help="input seed: the same seed gives the same inputs")
    parser.add_argument("--seconds", type=float,
                        help="measure passes for this long per workload "
                             "(default: run_seconds in BENCHMARK.json)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1),
                        help="1: also profile one pass and report per-layer "
                             "metrics")
    parser.add_argument("--out", type=Path, default=ROOT / "bench" / "last_run.json",
                        help="where to write the full JSON record")
    parser.add_argument("--role", choices=("probe", "measure"),
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    try:
        if args.seconds is None:
            args.seconds = run_seconds()
        _use_checkout_source()
        if args.role == "probe":
            print(json.dumps(_probe(args.workload, args.seed)))
            return 0
        if args.role == "measure":
            print(json.dumps(_measure(
                args.workload, args.seed, args.seconds, bool(args.trace)
            )))
            return 0
        names = [args.workload] if args.workload else list(WORKLOAD_NAMES)
        results = {
            name: run_workload(name, args.seed, args.seconds, bool(args.trace))
            for name in names
        }
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2

    from bench import harness

    record = {
        "box": harness.box_record(ROOT, args.seed),
        "seconds": args.seconds,
        "trace": args.trace,
        "workloads": results,
    }
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(record, indent=2) + "\n")

    key = "per_layer" if args.trace else "metrics"
    for name, result in results.items():
        _print_metrics(name, result[key])
        for failure in result["failures"]:
            print(f"bench: {failure}", file=sys.stderr)
    correct = all(r["correct"] for r in results.values())
    if args.workload:
        metrics = results[args.workload][key]
    else:
        metrics = {
            f"{name}.{metric}": value
            for name, result in results.items()
            for metric, value in result[key].items()
        }
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
