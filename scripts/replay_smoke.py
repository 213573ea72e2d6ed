#!/usr/bin/env python
"""Replay-determinism smoke (wrapper over ``repro replay --scenario all``).

For each golden scenario (headline broadcast batch, mid-collective link
flap, two-tenant serving stream): run it straight through, then checkpoint
it at three cut points, resume each checkpoint from serialized snapshot
bytes, and require the run kind's whole fact set (CCTs, accounting,
golden-trace and fired-event digests; the report for serving) to match
exactly.  Exits non-zero — naming every differing fact — if any resumed
run drifts.  CI runs this on every push::

    python scripts/replay_smoke.py
"""

from __future__ import annotations

import os
import sys

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(REPO_ROOT, "src"))

from repro.cli import main  # noqa: E402

if __name__ == "__main__":
    sys.exit(main(["replay", "--scenario", "all"]))
