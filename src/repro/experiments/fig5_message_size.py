"""Figure 5: mean and tail CCT vs message size, 512-GPU Broadcasts at 30%
offered load on the paper's 8-ary fat-tree.

The paper's claims at this figure: PEEL tracks the bandwidth-optimal
baseline across sizes, beats Ring/Tree/Orca, and PEEL+programmable-cores
closes most of the remaining gap for large messages.
"""

from __future__ import annotations

from ..api import ScenarioSpec
from ..api import run as run_scenario
from ..workloads import generate_jobs
from .common import MB, CctRow, paper_fattree, sim_config
from .parallel import ProgressFn, SweepPoint, run_sweep

DEFAULT_SIZES_MB = (2, 8, 32, 128, 512)
DEFAULT_SCHEMES = (
    "ring", "tree", "optimal", "orca", "peel", "peel:programmable_cores=true",
)


def _point(
    size_mb: int,
    scheme: str,
    num_jobs: int,
    num_gpus: int,
    offered_load: float,
    seed: int,
    check_invariants: bool,
) -> CctRow:
    """One (message size, scheme) grid point on a fresh fabric."""
    topo = paper_fattree()
    msg = size_mb * MB
    jobs = generate_jobs(
        topo, num_jobs, num_gpus, msg, offered_load=offered_load,
        gpus_per_host=1, seed=seed,
    )
    result = run_scenario(
        ScenarioSpec(
            topology=topo, scheme=scheme, jobs=tuple(jobs),
            config=sim_config(msg), check_invariants=check_invariants,
        )
    )
    return CctRow(result.scheme, size_mb, result.stats.mean_s, result.stats.p99_s)


def grid(
    sizes_mb: tuple[int, ...] = DEFAULT_SIZES_MB,
    schemes: tuple[str, ...] = DEFAULT_SCHEMES,
    num_jobs: int = 12,
    num_gpus: int = 512,
    offered_load: float = 0.3,
    seed: int = 7,
    check_invariants: bool = False,
) -> list[SweepPoint]:
    return [
        SweepPoint(
            _point,
            dict(
                size_mb=size_mb, scheme=scheme, num_jobs=num_jobs,
                num_gpus=num_gpus, offered_load=offered_load, seed=seed,
                check_invariants=check_invariants,
            ),
            label=f"fig5 size={size_mb}MB scheme={scheme}",
        )
        for size_mb in sizes_mb
        for scheme in schemes
    ]


def run(
    sizes_mb: tuple[int, ...] = DEFAULT_SIZES_MB,
    schemes: tuple[str, ...] = DEFAULT_SCHEMES,
    num_jobs: int = 12,
    num_gpus: int = 512,
    offered_load: float = 0.3,
    seed: int = 7,
    check_invariants: bool = False,
    jobs: int | None = 1,
    progress: ProgressFn | None = None,
) -> list[CctRow]:
    return run_sweep(
        grid(
            sizes_mb, schemes, num_jobs, num_gpus, offered_load, seed,
            check_invariants,
        ),
        jobs=jobs,
        progress=progress,
    )


if __name__ == "__main__":  # pragma: no cover
    from .common import format_cct_table

    print(format_cct_table(run(), "msg (MB)"))
