"""Soak harness: randomized checkpoint/replay epochs in bounded memory.

Each *epoch* builds a fresh randomized scenario (topology size, scheme,
job mix, optional mid-run link flap — all derived from ``seed`` + the
epoch index, so every epoch is reproducible), runs it to a random cut
point, snapshots it to disk, restores the snapshot, and finishes **both**
copies: the straight-through continuation and the restored one.  The two
must agree byte-for-byte (CCTs, golden-trace digest, fired-event digest)
and the invariant checker must stay clean — any disagreement aborts the
soak with the offending epoch's seed in hand.

State rotates: the env, both run copies and the snapshot are dropped at
epoch end, so a thousand-epoch soak holds one epoch's worth of memory.

Progress persists: after every epoch the manifest (``soak.json`` in the
state directory) is rewritten atomically.  Kill the process at any point
— even SIGKILL mid-epoch — and rerunning with the same arguments resumes
at the first unfinished epoch (a half-run epoch simply replays from its
seed).
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from ..api import ScenarioRun, ScenarioSpec, segment_bytes_for
from ..faults import FaultSchedule
from ..sim import SimConfig
from ..topology import LeafSpine
from ..workloads import generate_jobs
from .snapshot import Snapshot

MANIFEST_VERSION = 1

KB = 1024

#: Schemes the soak draws from.  Orca is excluded on purpose: its
#: rack-local relay legs are not fault-recoverable (by design — see
#: repro.faults), so a random flap can legitimately strand a collective.
SOAK_SCHEMES = ("peel", "peel:programmable_cores=true", "optimal")


@dataclass(frozen=True)
class SoakConfig:
    """Knobs for one soak campaign (all deterministic given ``seed``)."""

    epochs: int = 3
    seed: int = 0
    state_dir: str | Path = "soak-state"
    spines: int = 2
    leaves: int = 4
    hosts_per_leaf: int = 2
    max_jobs_per_epoch: int = 3
    message_kb_choices: tuple[int, ...] = (128, 256, 512)
    fault_probability: float = 0.6
    keep_snapshots: int = 2

    def __post_init__(self) -> None:
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if not 0.0 <= self.fault_probability <= 1.0:
            raise ValueError("fault_probability must be in [0, 1]")


class SoakRunner:
    """Drives a resumable soak campaign (see module docstring)."""

    def __init__(
        self,
        config: SoakConfig,
        progress: Callable[[str], None] | None = None,
    ) -> None:
        self.config = config
        self.state_dir = Path(config.state_dir)
        self.manifest_path = self.state_dir / "soak.json"
        self._progress = progress or (lambda line: None)

    # -- scenario generation ----------------------------------------------------

    def epoch_spec(self, epoch: int) -> tuple[ScenarioSpec, float]:
        """The (spec, cut_time) for one epoch — pure function of config
        seed + epoch index, so a killed epoch replays identically."""
        cfg = self.config
        # String seeding is deterministic (sha512-based), unlike str hash.
        rng = random.Random(f"soak:{cfg.seed}:{epoch}")
        topo = LeafSpine(cfg.spines, cfg.leaves, cfg.hosts_per_leaf)
        scheme = rng.choice(SOAK_SCHEMES)
        message_bytes = rng.choice(cfg.message_kb_choices) * KB
        num_jobs = rng.randint(1, cfg.max_jobs_per_epoch)
        num_gpus = rng.choice((4, 6, 8))
        jobs = generate_jobs(
            topo,
            num_jobs,
            num_gpus,
            message_bytes,
            offered_load=0.4,
            gpus_per_host=1,
            seed=rng.randrange(2**31),
        )
        first_arrival = min(job.arrival_s for job in jobs)

        schedule = None
        if rng.random() < cfg.fault_probability:
            from ..experiments.faults_demo import pick_loaded_link

            job = jobs[0]
            link = pick_loaded_link(
                topo, scheme, job.group.source.host, job.group.receiver_hosts
            )
            down_at = job.arrival_s + rng.uniform(10e-6, 30e-6)
            up_at = down_at + rng.uniform(50e-6, 200e-6)
            schedule = FaultSchedule().link_flap(*link, down_at, up_at)

        spec = ScenarioSpec(
            topology=topo,
            scheme=scheme,
            jobs=tuple(jobs),
            config=SimConfig(
                segment_bytes=segment_bytes_for(message_bytes),
                seed=rng.randrange(2**31),
            ),
            check_invariants=True,
            fault_schedule=schedule,
            record_trace=True,
            event_digest=True,
        )
        cut_at_s = first_arrival + rng.uniform(5e-6, 40e-6)
        return spec, cut_at_s

    # -- one epoch --------------------------------------------------------------

    def run_epoch(self, epoch: int) -> dict:
        """Run, checkpoint, restore and cross-verify one epoch."""
        spec, cut_at_s = self.epoch_spec(epoch)
        straight = ScenarioRun(spec)
        straight.run_until(cut_at_s)

        snap_path = self.state_dir / f"epoch-{epoch:04d}.snap"
        snapshot = straight.snapshot()
        snapshot.save(snap_path)
        resumed = Snapshot.load(snap_path).restore()

        resumed_result = resumed.finish()
        straight_result = straight.finish()

        mismatches = [
            name
            for name, a, b in (
                ("ccts", straight_result.ccts, resumed_result.ccts),
                (
                    "trace_digest",
                    straight_result.trace_digest,
                    resumed_result.trace_digest,
                ),
                (
                    "event_digest",
                    straight_result.replay.event_digest,
                    resumed_result.replay.event_digest,
                ),
                ("repeels", straight_result.repeels, resumed_result.repeels),
            )
            if a != b
        ]
        if mismatches:
            raise RuntimeError(
                f"soak epoch {epoch} (seed {self.config.seed}): restored run "
                f"diverged from straight-through run in {mismatches}"
            )
        violations = len(straight_result.invariant_violations) + len(
            resumed_result.invariant_violations
        )
        if violations:
            raise RuntimeError(
                f"soak epoch {epoch} (seed {self.config.seed}): "
                f"{violations} invariant violations"
            )
        return {
            "epoch": epoch,
            "scheme": straight_result.scheme,
            "num_jobs": len(spec.jobs),
            "faulted": spec.fault_schedule is not None,
            "repeels": len(straight_result.repeels),
            "cut_at_s": cut_at_s,
            "events": straight_result.replay.events_processed,
            "snapshot_bytes": len(snapshot.payload),
            "trace_digest": straight_result.trace_digest,
            "event_digest": straight_result.replay.event_digest,
            "violations": 0,
            "resumed_identical": True,
        }

    # -- manifest ---------------------------------------------------------------

    def _load_manifest(self) -> dict:
        if not self.manifest_path.exists():
            return {
                "version": MANIFEST_VERSION,
                "seed": self.config.seed,
                "epochs_total": self.config.epochs,
                "epochs": [],
            }
        with open(self.manifest_path, encoding="utf-8") as fh:
            manifest = json.load(fh)
        if manifest.get("version") != MANIFEST_VERSION:
            raise RuntimeError(
                f"soak manifest {self.manifest_path} has version "
                f"{manifest.get('version')}, expected {MANIFEST_VERSION}"
            )
        if manifest.get("seed") != self.config.seed:
            raise RuntimeError(
                f"soak manifest {self.manifest_path} was produced with seed "
                f"{manifest.get('seed')}; rerun with that seed or point "
                f"--state-dir elsewhere"
            )
        manifest["epochs_total"] = max(
            manifest.get("epochs_total", 0), self.config.epochs
        )
        return manifest

    def _save_manifest(self, manifest: dict) -> None:
        tmp = self.manifest_path.with_suffix(".json.tmp")
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(manifest, fh, indent=2, sort_keys=True)
            fh.write("\n")
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, self.manifest_path)

    def _rotate_snapshots(self, epoch: int) -> None:
        stale = epoch - self.config.keep_snapshots
        if stale >= 0:
            path = self.state_dir / f"epoch-{stale:04d}.snap"
            if path.exists():
                path.unlink()

    # -- campaign ---------------------------------------------------------------

    def run(self) -> dict:
        """Run (or resume) the campaign; returns the final manifest."""
        self.state_dir.mkdir(parents=True, exist_ok=True)
        manifest = self._load_manifest()
        done = len(manifest["epochs"])
        if done:
            self._progress(
                f"resuming soak at epoch {done} "
                f"({done}/{manifest['epochs_total']} already verified)"
            )
        for epoch in range(done, manifest["epochs_total"]):
            record = self.run_epoch(epoch)
            manifest["epochs"].append(record)
            self._save_manifest(manifest)
            self._rotate_snapshots(epoch)
            self._progress(
                f"epoch {epoch}: {record['scheme']}"
                f"{' +fault' if record['faulted'] else ''}, "
                f"{record['events']} events, "
                f"{record['repeels']} re-peels, replay identical, "
                f"invariants clean"
            )
        return manifest


def format_manifest(manifest: dict) -> str:
    """Human summary of a (possibly partial) soak manifest."""
    epochs = manifest["epochs"]
    lines = [
        f"soak: {len(epochs)}/{manifest['epochs_total']} epochs verified "
        f"(seed {manifest['seed']})"
    ]
    for rec in epochs:
        lines.append(
            f"  epoch {rec['epoch']}: {rec['scheme']:<10} "
            f"{'fault' if rec['faulted'] else 'clean':<6} "
            f"events={rec['events']:<7} re-peels={rec['repeels']} "
            f"digest={rec['event_digest'][:16]}"
        )
    return "\n".join(lines)
