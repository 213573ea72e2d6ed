"""Experiment reproductions: one module per paper figure/table.

Each module exposes ``run(...) -> rows`` with quick defaults (suitable for
CI and pytest-benchmark) and a ``__main__`` entry printing the table; pass
larger parameters for paper-scale sweeps.  See DESIGN.md for the
experiment-to-module index and EXPERIMENTS.md for measured results.
"""

from .common import CctRow, format_cct_table, mean_ratio, rows_for
from .parallel import (
    ShardSpeedup,
    SweepPoint,
    flatten,
    resolve_jobs,
    run_sweep,
    shard_speedup,
    stderr_progress,
)

__all__ = [
    "CctRow",
    "format_cct_table",
    "mean_ratio",
    "rows_for",
    "ShardSpeedup",
    "SweepPoint",
    "flatten",
    "resolve_jobs",
    "run_sweep",
    "shard_speedup",
    "stderr_progress",
]
