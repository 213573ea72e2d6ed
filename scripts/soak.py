#!/usr/bin/env python
"""Run the soak loop (wrapper over ``repro soak``).

Each epoch runs a reference copy of a ``(seed, epoch)``-keyed workload,
runs a second copy to a cut, snapshots it to disk and finishes it from the
snapshot file; the resumed run must match the reference on its run kind's
whole fact set with invariants clean.  ``--target`` picks randomized
scenarios, the control-plane churn campaign or pod-local specs on 2 shards
against their serial run.  Progress persists to
``--state-dir/soak.json`` after every step, so a killed run — SIGKILL
included — resumes where it left off; ``--kill-after-cut`` dies on
purpose once the first snapshot is durable::

    python scripts/soak.py --target control --epochs 2 --state-dir /tmp/s \
        --kill-after-cut                                  # rc 137
    python scripts/soak.py --target control --epochs 2 --state-dir /tmp/s
"""

from __future__ import annotations

import os
import sys

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(REPO_ROOT, "src"))

from repro.cli import main  # noqa: E402

if __name__ == "__main__":
    sys.exit(main(["soak", *sys.argv[1:]]))
