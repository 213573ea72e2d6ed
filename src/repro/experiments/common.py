"""Shared experiment plumbing: canonical fabrics, sweeps, and table output."""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from dataclasses import dataclass

from ..api import segment_bytes_for
from ..sim import SimConfig
from ..topology import FatTree, LeafSpine

MB = 2**20

#: The paper's §4 fat-tree: 8-ary, 4 servers/ToR, 8 GPUs each with its own
#: NIC = 32 endpoints per ToR (8:1 oversubscribed), 1024 GPU NICs total.
def paper_fattree() -> FatTree:
    return FatTree(8, hosts_per_tor=32)


#: The paper's §4 failure fabric: 16 spines, 48 leaves, 2 servers x 8 GPU
#: NICs per leaf (768 endpoints; leaf radix is balanced 16 up / 16 down).
def paper_leafspine() -> LeafSpine:
    return LeafSpine(16, 48, 16)


def sim_config(message_bytes: int, **overrides) -> SimConfig:
    """Simulation config with granularity matched to the message size."""
    params = dict(segment_bytes=segment_bytes_for(message_bytes))
    params.update(overrides)
    return SimConfig(**params)


@dataclass(frozen=True)
class CctRow:
    """One point of a CCT figure."""

    scheme: str
    x: float  # message MB, GPU count, or failure %
    mean_s: float
    p99_s: float


def format_cct_table(rows: Sequence[CctRow], x_label: str) -> str:
    header = f"{'scheme':<14}{x_label:>12}{'mean CCT (ms)':>16}{'p99 CCT (ms)':>16}"
    lines = [header, "-" * len(header)]
    for row in rows:
        lines.append(
            f"{row.scheme:<14}{row.x:>12g}{row.mean_s * 1e3:>16.3f}"
            f"{row.p99_s * 1e3:>16.3f}"
        )
    return "\n".join(lines)


def rows_for(rows: Iterable[CctRow], scheme: str) -> list[CctRow]:
    return [r for r in rows if r.scheme == scheme]


def mean_ratio(rows: Sequence[CctRow], a: str, b: str) -> float:
    """Average of scheme-a mean CCT over scheme-b mean CCT across x values."""
    a_rows = {r.x: r for r in rows_for(rows, a)}
    b_rows = {r.x: r for r in rows_for(rows, b)}
    shared = sorted(set(a_rows) & set(b_rows))
    if not shared:
        raise ValueError(f"no shared x values between {a!r} and {b!r}")
    ratios = [a_rows[x].mean_s / b_rows[x].mean_s for x in shared]
    return sum(ratios) / len(ratios)
