"""Soak harness: checkpoint/replay epochs in bounded memory, one loop for
every target.

Each *epoch* derives a workload from ``(seed, epoch)`` alone, runs a
reference copy to completion, runs a second copy to a cut point, snapshots
it to disk and finishes it *from the on-disk snapshot*; its run kind's
fact set (:mod:`repro.replay.facts`) must match the reference's, with
invariants clean.  Targets: ``scenario`` (randomized specs on a small
leaf-spine, optional mid-run link flap), ``control`` (the ``repro
control`` churn campaign; every job must complete) and ``shard``
(pod-local specs on :data:`SHARDS` in-process shards; the reference is
their serial run).

Only the last ``keep_snapshots`` snapshots stay on disk.  One manifest
(``soak.json``) records each epoch's status atomically after every step —
``reference`` (its per-fact digests), ``cut`` (the snapshot is durable),
``done`` — so a killed soak (SIGKILL included) rerun with the same
arguments resumes where it died, finishing a cut epoch from its snapshot
without rerunning the reference.  ``kill_after_cut`` SIGKILLs the process
once the first snapshot is durable, to drive that path.
"""

from __future__ import annotations

import json
import os
import random
import signal
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable

from ..api import ScenarioSpec, segment_bytes_for
from ..faults import FaultSchedule
from ..sim import SimConfig
from ..topology import LeafSpine
from ..workloads import generate_jobs
from .facts import advance, diff_facts, fact_digests, finish, start
from .snapshot import Snapshot, atomic_write

#: Version 2: one status manifest for every target (version 1 held only
#: finished scenario epochs).
MANIFEST_VERSION = 2

KB = 1024

#: Schemes the scenario target draws from.  Orca is excluded on purpose:
#: its rack-local relay legs are not fault-recoverable (by design — see
#: repro.faults), so a random flap can legitimately strand a collective.
SOAK_SCHEMES = ("peel", "peel:programmable_cores=true", "optimal")

#: Collectives in each control-target campaign, and where it is cut: at
#: this fraction of the campaign's last scheduled operation.
CONTROL_JOBS = 24
CONTROL_CUT_FRACTION = 0.4

#: Shards the shard target runs each epoch on.
SHARDS = 2


@dataclass(frozen=True)
class SoakConfig:
    """Knobs for one soak campaign (all deterministic given ``seed``)."""

    epochs: int = 3
    seed: int = 0
    state_dir: str | Path = "soak-state"
    #: Chance a ``scenario`` epoch includes a mid-run link flap.
    fault_probability: float = 0.6
    keep_snapshots: int = 2
    target: str = "scenario"
    #: SIGKILL the process once the first epoch's snapshot is durable.
    kill_after_cut: bool = False

    def __post_init__(self) -> None:
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if not 0.0 <= self.fault_probability <= 1.0:
            raise ValueError("fault_probability must be in [0, 1]")
        if self.target not in TARGETS:
            raise ValueError(f"unknown soak target {self.target!r}; pick one of {TARGETS}")


# -- targets: (config, epoch) -> (spec, cut_at_s), pure in (seed, epoch) -------


def _scenario_epoch(cfg: SoakConfig, epoch: int) -> tuple[ScenarioSpec, float]:
    # String seeding is deterministic (sha512-based), unlike str hash.
    rng = random.Random(f"soak:{cfg.seed}:{epoch}")
    topo = LeafSpine(2, 4, 2)
    scheme = rng.choice(SOAK_SCHEMES)
    message_bytes = rng.choice((128, 256, 512)) * KB
    num_jobs = rng.randint(1, 3)
    num_gpus = rng.choice((4, 6, 8))
    jobs = generate_jobs(
        topo, num_jobs, num_gpus, message_bytes,
        offered_load=0.4, gpus_per_host=1, seed=rng.randrange(2**31),
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


def _shard_epoch(cfg: SoakConfig, epoch: int) -> tuple[ScenarioSpec, float]:
    from ..experiments.scenarios import shard_scenario

    spec, (_, mid, _) = shard_scenario(SHARDS, seed=cfg.seed * 10007 + epoch)
    return spec, mid


def _control_epoch(cfg: SoakConfig, epoch: int):
    """The control target's spec is the loaded service itself."""
    from ..experiments.control_churn import load_campaign

    control, last_op_s = load_campaign(CONTROL_JOBS, cfg.seed + epoch)
    return control, CONTROL_CUT_FRACTION * last_op_s


_EPOCHS = {"scenario": _scenario_epoch, "control": _control_epoch, "shard": _shard_epoch}
TARGETS = tuple(_EPOCHS)


def _label(spec) -> str:
    if not isinstance(spec, ScenarioSpec):
        return f"control campaign, {CONTROL_JOBS} jobs"
    fault = " +fault" if spec.fault_schedule is not None else ""
    shards = f" on {spec.shards} shards" if spec.shards > 1 else ""
    return f"{spec.scheme_name}{fault}{shards}, {len(spec.jobs)} jobs"


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

    def epoch_spec(self, epoch: int):
        """The (spec, cut_time) for one epoch — pure function of config
        seed + epoch index, so a killed epoch replays identically."""
        return _EPOCHS[self.config.target](self.config, epoch)

    def _snapshot_path(self, epoch: int) -> Path:
        return self.state_dir / f"epoch-{epoch:04d}.snap"

    # -- one epoch --------------------------------------------------------------

    def _run_epoch(self, record: dict, save: Callable[[], None]) -> None:
        """Take one epoch's record to ``done``, saving after every step."""
        epoch = record["epoch"]
        where = f"soak epoch {epoch} ({self.config.target}, seed {self.config.seed})"
        spec, cut_at_s = self.epoch_spec(epoch)
        path = self._snapshot_path(epoch)
        if record["status"] == "new":
            # A sharded spec's reference is its serial run.
            serial = isinstance(spec, ScenarioSpec)
            facts = finish(start(replace(spec, shards=1) if serial else spec))
            record.update(
                status="reference",
                label=_label(spec),
                cut_at_s=cut_at_s,
                events=facts["events_processed"],
                event_digest=facts["event_digest"],
                reference=fact_digests(facts),
            )
            save()
        if record["status"] == "reference":
            run = start(spec)
            advance(run, cut_at_s)
            snapshot = run.snapshot()
            snapshot.save(path)
            record.update(status="cut", snapshot_bytes=len(snapshot.payload))
            save()
            if self.config.kill_after_cut:
                self._progress(f"epoch {epoch}: snapshot durable, SIGKILLing self")
                os.kill(os.getpid(), signal.SIGKILL)
        # status "cut": always finish from the durable on-disk snapshot (an
        # invariant checker raises on a violation, so a finished run is clean).
        facts = finish(Snapshot.load(path).restore())
        differing = diff_facts(record["reference"], fact_digests(facts))
        if differing:
            raise RuntimeError(f"{where}: resumed run diverged from the reference in {differing}")
        report = facts.get("report")
        if report is not None and report.total.completed != CONTROL_JOBS:
            raise RuntimeError(
                f"{where}: {report.total.completed}/{CONTROL_JOBS} jobs completed"
            )
        record.update(status="done", resumed_identical=True, violations=0)
        save()

    # -- manifest ---------------------------------------------------------------

    def _load_manifest(self) -> dict:
        cfg = self.config
        if not self.manifest_path.exists():
            return {
                "version": MANIFEST_VERSION,
                "target": cfg.target,
                "seed": cfg.seed,
                "epochs_total": cfg.epochs,
                "epochs": [],
            }
        with open(self.manifest_path, encoding="utf-8") as fh:
            manifest = json.load(fh)
        if manifest.get("version") != MANIFEST_VERSION:
            raise RuntimeError(
                f"soak manifest {self.manifest_path} has version "
                f"{manifest.get('version')}, expected {MANIFEST_VERSION}"
            )
        for key in ("target", "seed"):
            if manifest.get(key) != getattr(cfg, key):
                raise RuntimeError(
                    f"soak manifest {self.manifest_path} was produced with "
                    f"{key} {manifest.get(key)!r}; rerun with that {key} or "
                    f"point --state-dir elsewhere"
                )
        manifest["epochs_total"] = max(manifest["epochs_total"], cfg.epochs)
        return manifest

    def _save_manifest(self, manifest: dict) -> None:
        text = json.dumps(manifest, indent=2, sort_keys=True) + "\n"
        atomic_write(self.manifest_path, text.encode("utf-8"))

    def _rotate_snapshots(self, epoch: int) -> None:
        stale = epoch - self.config.keep_snapshots
        if stale >= 0:
            path = self._snapshot_path(stale)
            if path.exists():
                path.unlink()

    # -- campaign ---------------------------------------------------------------

    def run(self) -> dict:
        """Run (or resume) the campaign; returns the final manifest."""
        self.state_dir.mkdir(parents=True, exist_ok=True)
        manifest = self._load_manifest()
        records = manifest["epochs"]
        done = sum(record["status"] == "done" for record in records)
        if records:
            self._progress(
                f"resuming soak at epoch {done} "
                f"({done}/{manifest['epochs_total']} already verified)"
            )
        for epoch in range(done, manifest["epochs_total"]):
            if epoch == len(records):
                records.append({"epoch": epoch, "status": "new"})
            record = records[epoch]
            self._run_epoch(record, lambda: self._save_manifest(manifest))
            self._rotate_snapshots(epoch)
            self._progress(
                f"epoch {epoch}: {record['label']}, {record['events']} "
                f"events, replay identical, invariants clean"
            )
        return manifest


def format_manifest(manifest: dict) -> str:
    """Human summary of a (possibly partial) soak manifest."""
    epochs = manifest["epochs"]
    done = sum(rec["status"] == "done" for rec in epochs)
    lines = [
        f"soak: {done}/{manifest['epochs_total']} epochs verified "
        f"({manifest['target']}, seed {manifest['seed']})"
    ]
    for rec in epochs:  # a saved record has passed its reference step
        lines.append(
            f"  epoch {rec['epoch']}: {rec['label']:<34} "
            f"events={rec['events']:<7} digest={rec['event_digest'][:16]}"
            + ("" if rec["status"] == "done" else f" ({rec['status']})")
        )
    return "\n".join(lines)
