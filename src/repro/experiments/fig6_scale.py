"""Figure 6: scale independence — CCT vs Broadcast scale at fixed 64 MB.

The paper varies the group from 32 to 1024 GPUs on the 8-ary fat-tree and
reports PEEL below Ring/Tree/Orca across the whole range (at 256 GPUs:
5x vs Ring, 13x vs Tree, 2.5x vs Orca in mean CCT).
"""

from __future__ import annotations

from ..api import ScenarioSpec
from ..api import run as run_scenario
from ..workloads import generate_jobs
from .common import MB, CctRow, paper_fattree, sim_config
from .parallel import ProgressFn, SweepPoint, run_sweep

DEFAULT_SCALES = (32, 128, 256, 1024)
DEFAULT_SCHEMES = (
    "ring", "tree", "optimal", "orca", "peel", "peel:programmable_cores=true",
)


def _point(
    scale: int,
    scheme: str,
    message_mb: int,
    num_jobs: int,
    offered_load: float,
    seed: int,
    check_invariants: bool,
) -> CctRow:
    """One (group scale, scheme) grid point on a fresh fabric."""
    topo = paper_fattree()
    msg = message_mb * MB
    jobs = generate_jobs(
        topo, num_jobs, scale, msg, offered_load=offered_load,
        gpus_per_host=1, seed=seed,
    )
    result = run_scenario(
        ScenarioSpec(
            topology=topo, scheme=scheme, jobs=tuple(jobs),
            config=sim_config(msg), check_invariants=check_invariants,
        )
    )
    return CctRow(result.scheme, scale, result.stats.mean_s, result.stats.p99_s)


def grid(
    scales: tuple[int, ...] = DEFAULT_SCALES,
    schemes: tuple[str, ...] = DEFAULT_SCHEMES,
    message_mb: int = 64,
    num_jobs: int = 12,
    offered_load: float = 0.3,
    seed: int = 7,
    check_invariants: bool = False,
) -> list[SweepPoint]:
    return [
        SweepPoint(
            _point,
            dict(
                scale=scale, scheme=scheme, message_mb=message_mb,
                num_jobs=num_jobs, offered_load=offered_load, seed=seed,
                check_invariants=check_invariants,
            ),
            label=f"fig6 scale={scale} scheme={scheme}",
        )
        for scale in scales
        for scheme in schemes
    ]


def run(
    scales: tuple[int, ...] = DEFAULT_SCALES,
    schemes: tuple[str, ...] = DEFAULT_SCHEMES,
    message_mb: int = 64,
    num_jobs: int = 12,
    offered_load: float = 0.3,
    seed: int = 7,
    check_invariants: bool = False,
    jobs: int | None = 1,
    progress: ProgressFn | None = None,
) -> list[CctRow]:
    return run_sweep(
        grid(
            scales, schemes, message_mb, num_jobs, offered_load, seed,
            check_invariants,
        ),
        jobs=jobs,
        progress=progress,
    )


if __name__ == "__main__":  # pragma: no cover
    from .common import format_cct_table

    print(format_cct_table(run(), "GPUs"))
