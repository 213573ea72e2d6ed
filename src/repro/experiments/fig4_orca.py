"""Figure 4: Orca's SDN flow-setup delay inflates collective completion time.

The paper models the controller's flow setup as N(10 ms, 5 ms) on an 8-ary
fat-tree with 1024 GPUs and shows the 99th-percentile CCT of a 32 MB
Broadcast rising ~8x with controller overhead versus without.
"""

from __future__ import annotations

from ..api import ScenarioSpec
from ..api import run as run_scenario
from ..workloads import generate_jobs
from .common import MB, CctRow, paper_fattree, sim_config
from .parallel import ProgressFn, SweepPoint, run_sweep

DEFAULT_SIZES_MB = (2, 8, 32, 128)
SCHEMES = ("orca", "orca:controller_overhead=false")


def _point(
    size_mb: int,
    scheme: str,
    num_jobs: int,
    num_gpus: int,
    offered_load: float,
    seed: int,
) -> CctRow:
    """One (message size, orca variant) grid point on a fresh fabric."""
    topo = paper_fattree()
    msg = size_mb * MB
    jobs = generate_jobs(
        topo, num_jobs, num_gpus, msg, offered_load=offered_load,
        gpus_per_host=1, seed=seed,
    )
    result = run_scenario(
        ScenarioSpec(
            topology=topo, scheme=scheme, jobs=tuple(jobs),
            config=sim_config(msg),
        )
    )
    return CctRow(result.scheme, size_mb, result.stats.mean_s, result.stats.p99_s)


def grid(
    sizes_mb: tuple[int, ...] = DEFAULT_SIZES_MB,
    num_jobs: int = 12,
    num_gpus: int = 1024,
    offered_load: float = 0.3,
    seed: int = 7,
) -> list[SweepPoint]:
    return [
        SweepPoint(
            _point,
            dict(
                size_mb=size_mb, scheme=scheme, num_jobs=num_jobs,
                num_gpus=num_gpus, offered_load=offered_load, seed=seed,
            ),
            label=f"fig4 size={size_mb}MB scheme={scheme}",
        )
        for size_mb in sizes_mb
        for scheme in SCHEMES
    ]


def run(
    sizes_mb: tuple[int, ...] = DEFAULT_SIZES_MB,
    num_jobs: int = 12,
    num_gpus: int = 1024,
    offered_load: float = 0.3,
    seed: int = 7,
    jobs: int | None = 1,
    progress: ProgressFn | None = None,
) -> list[CctRow]:
    return run_sweep(
        grid(sizes_mb, num_jobs, num_gpus, offered_load, seed),
        jobs=jobs,
        progress=progress,
    )


def tail_inflation(rows: list[CctRow], size_mb: int) -> float:
    """p99 CCT with controller overhead over p99 without, at one size."""
    with_ctrl = next(r for r in rows if r.scheme == "orca" and r.x == size_mb)
    without = next(
        r for r in rows if r.scheme == "orca-nosetup" and r.x == size_mb
    )
    return with_ctrl.p99_s / without.p99_s


if __name__ == "__main__":  # pragma: no cover
    from .common import format_cct_table

    rows = run()
    print(format_cct_table(rows, "msg (MB)"))
    print(f"\np99 inflation at 32 MB: {tail_inflation(rows, 32):.1f}x")
