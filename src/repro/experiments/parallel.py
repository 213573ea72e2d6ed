"""Process-pool sweep executor for the figure experiments.

Every §4 figure replays dozens of independent (scheme × x-value) scenario
points, each a self-contained simulation on its own fabric.  This module
fans those points out over a pool of worker processes:

* a :class:`SweepPoint` is a picklable work item — a module-level function
  plus keyword arguments, including every seed the point needs, so a
  worker process reproduces the point bit-for-bit with no shared state;
* :func:`run_sweep` executes a list of points with ``jobs`` workers,
  **preserving point order** in the returned results regardless of
  completion order, and reporting progress as points finish;
* ``jobs=1`` (the library default) runs the points in-process with no
  executor at all, so serial and parallel sweeps of the same grid are
  byte-identical — the parallel path only changes *where* a point runs,
  never *what* it computes.

Worker processes are plain ``ProcessPoolExecutor`` children; a point that
raises propagates its exception to the caller after the pool shuts down.
"""

from __future__ import annotations

import os
import sys
import time
from collections.abc import Iterable, Sequence
from concurrent.futures import ProcessPoolExecutor, as_completed
from dataclasses import dataclass, field
from typing import Any, Callable

ProgressFn = Callable[[int, int, "SweepPoint"], None]


@dataclass(frozen=True)
class SweepPoint:
    """One picklable grid point: ``fn(**kwargs)`` in some process.

    ``fn`` must be importable at module level (pickling sends a reference,
    not code) and ``kwargs`` must carry everything the point depends on —
    in particular its deterministic seed.  ``label`` is only for progress
    reporting.
    """

    fn: Callable[..., Any]
    kwargs: dict = field(default_factory=dict)
    label: str = ""

    def __call__(self) -> Any:
        return self.fn(**self.kwargs)


def resolve_jobs(jobs: int | None) -> int:
    """Worker count for a sweep: ``None`` means one per CPU."""
    if jobs is None:
        return os.cpu_count() or 1
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    return jobs


def stderr_progress(prefix: str = "") -> ProgressFn:
    """A progress reporter printing one line per finished point."""
    started = time.perf_counter()

    def report(done: int, total: int, point: SweepPoint) -> None:
        elapsed = time.perf_counter() - started
        label = f" {point.label}" if point.label else ""
        print(
            f"{prefix}[{done}/{total}]{label} ({elapsed:.1f}s elapsed)",
            file=sys.stderr,
            flush=True,
        )

    return report


def _run_point(point: SweepPoint) -> Any:
    return point()


def run_sweep(
    points: Iterable[SweepPoint],
    jobs: int | None = 1,
    progress: ProgressFn | None = None,
) -> list[Any]:
    """Execute every point; results come back in point order.

    ``jobs=1`` runs in-process (no pool, no pickling — the byte-identical
    serial path); ``jobs=None`` uses one worker per CPU.  Exceptions from
    worker points propagate to the caller.
    """
    points = list(points)
    jobs = resolve_jobs(jobs)
    total = len(points)
    if jobs == 1 or total <= 1:
        results = []
        for i, point in enumerate(points):
            results.append(point())
            if progress is not None:
                progress(i + 1, total, point)
        return results

    results: list[Any] = [None] * total
    with ProcessPoolExecutor(max_workers=min(jobs, total)) as pool:
        futures = {
            pool.submit(_run_point, point): i for i, point in enumerate(points)
        }
        done = 0
        for future in as_completed(futures):
            index = futures[future]
            results[index] = future.result()  # re-raises worker exceptions
            done += 1
            if progress is not None:
                progress(done, total, points[index])
    return results


@dataclass(frozen=True)
class ShardSpeedup:
    """One serial-vs-sharded measurement: walls, and the identity proof."""

    shards: int
    serial_wall_s: float
    sharded_wall_s: float
    #: Facts where the sharded result differs from the serial one.
    differing: tuple[str, ...]
    events: int
    trace_digest: str | None

    @property
    def byte_identical(self) -> bool:
        return not self.differing

    @property
    def speedup(self) -> float:
        return self.serial_wall_s / max(self.sharded_wall_s, 1e-9)


def shard_speedup(spec: Any, processes: bool = True) -> ShardSpeedup:
    """Run ``spec`` serially and sharded, compare byte-for-byte, time both.

    The identity proof compares the scenario kind's whole fact set
    (:mod:`repro.replay.facts`: CCTs, digests, fabric accounting, fault
    handling), so a bench run that reports a speedup also *proves* the
    sharded result is the serial result.
    """
    import dataclasses

    from ..api import run
    from ..replay.facts import diff_facts, scenario_facts
    from ..shard import run_sharded

    spec = dataclasses.replace(spec, record_trace=True, event_digest=True)
    t0 = time.perf_counter()
    serial = run(dataclasses.replace(spec, shards=1))
    serial_wall = time.perf_counter() - t0
    t0 = time.perf_counter()
    sharded = run_sharded(spec, processes=processes)
    sharded_wall = time.perf_counter() - t0
    return ShardSpeedup(
        shards=spec.shards,
        serial_wall_s=serial_wall,
        sharded_wall_s=sharded_wall,
        differing=tuple(
            diff_facts(scenario_facts(serial), scenario_facts(sharded))
        ),
        events=serial.replay.events_processed,
        trace_digest=serial.trace_digest,
    )


def flatten(results: Sequence[Any]) -> list[Any]:
    """Concatenate per-point results that are themselves lists of rows."""
    out: list[Any] = []
    for result in results:
        if isinstance(result, list):
            out.extend(result)
        else:
            out.append(result)
    return out
