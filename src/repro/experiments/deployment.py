"""§3.4 "Incremental deployment": which tier is worth upgrading?

Frames the schemes as deployment stages on the same workload:

* ``unicast``  — no multicast support anywhere (Ring, today's baseline);
* ``static``   — PEEL prefix rules at aggregation switches only (§3.2);
* ``cores``    — plus programmable cores doing two-stage refinement (§3.3);
* ``full``     — per-group state everywhere (the Steiner-optimal ideal).

Reports mean/p99 CCT and total fabric bytes per stage, i.e. the return on
each additional investment.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..api import ScenarioSpec
from ..api import run as run_scenario
from ..workloads import generate_jobs
from .common import MB, paper_fattree, sim_config

STAGES = (
    ("unicast", "ring"),
    ("static", "peel"),
    ("cores", "peel:programmable_cores=true"),
    ("full", "optimal"),
)


@dataclass(frozen=True)
class DeploymentRow:
    stage: str
    scheme: str
    mean_s: float
    p99_s: float
    fabric_bytes: int


def run(
    message_mb: int = 64,
    num_gpus: int = 256,
    num_jobs: int = 8,
    offered_load: float = 0.3,
    seed: int = 7,
) -> list[DeploymentRow]:
    topo = paper_fattree()
    msg = message_mb * MB
    jobs = generate_jobs(
        topo, num_jobs, num_gpus, msg, offered_load=offered_load,
        gpus_per_host=1, seed=seed,
    )
    cfg = sim_config(msg)
    rows = []
    for stage, scheme in STAGES:
        result = run_scenario(
            ScenarioSpec(
                topology=topo, scheme=scheme, jobs=tuple(jobs), config=cfg
            )
        )
        rows.append(
            DeploymentRow(
                stage, result.scheme, result.stats.mean_s, result.stats.p99_s,
                result.total_bytes,
            )
        )
    return rows


def format_table(rows: list[DeploymentRow]) -> str:
    header = (
        f"{'stage':<10}{'scheme':<12}{'mean (ms)':>11}{'p99 (ms)':>10}"
        f"{'fabric GiB':>12}"
    )
    lines = [header, "-" * len(header)]
    for r in rows:
        lines.append(
            f"{r.stage:<10}{r.scheme:<12}{r.mean_s * 1e3:>11.2f}"
            f"{r.p99_s * 1e3:>10.2f}{r.fabric_bytes / 2**30:>12.1f}"
        )
    return "\n".join(lines)


if __name__ == "__main__":  # pragma: no cover
    print(format_table(run()))
