"""Deterministic checkpoint/replay for the simulator (see DESIGN.md).

The simulator is deterministic and — after the groundwork of keeping every
scheduled callable picklable — its entire live object graph serializes at
any safe point (between ``run()`` calls).  This package turns that into
four tools:

* :class:`Snapshot` — a versioned, checksummed container around one
  pickled run (a :class:`repro.api.ScenarioRun`, a sharded run, a
  :class:`repro.serve.ServeRuntime` or a control plane), restorable in the
  same or a fresh process;
* :mod:`repro.replay.facts` — what "the same run" means, once per run
  kind, and the one comparator every identity proof goes through;
* :func:`verify_scenario_replay` / :func:`verify_cut_points` — run a
  scenario (or a loaded serving runtime) straight through, then again
  with a mid-run checkpoint+restore, and compare the fact sets; on
  mismatch, locate the first diverging fabric event;
* :class:`SoakRunner` — the one soak loop: ``scenario``, ``control`` and
  ``shard`` epochs through checkpoint/restore in bounded memory, with a
  resumable on-disk status manifest (``repro soak`` / ``scripts/soak.py``).
"""

from .snapshot import SNAPSHOT_VERSION, Snapshot, SnapshotError
from .soak import SoakConfig, SoakRunner, format_manifest
from .verify import (
    ReplayReport,
    verify_cut_points,
    verify_scenario_replay,
    verify_serve_replay,
)

__all__ = [
    "SNAPSHOT_VERSION",
    "Snapshot",
    "SnapshotError",
    "ReplayReport",
    "verify_cut_points",
    "verify_scenario_replay",
    "verify_serve_replay",
    "SoakConfig",
    "SoakRunner",
    "format_manifest",
]
