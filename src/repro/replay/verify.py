"""Replay verification: prove a resumed run equals an uninterrupted one.

:func:`verify_scenario_replay` runs a :class:`~repro.api.ScenarioSpec`
twice — straight through, and checkpointed at a cut time, serialized
through the full :class:`~repro.replay.snapshot.Snapshot` byte format and
restored — and names every fact (:mod:`repro.replay.facts`) that differs,
plus the *first* diverging fabric event from the kept event logs
(:func:`repro.sim.trace.diff_traces`).  A loaded, not-yet-run serving
runtime works in place of the spec, compared on the serve fact set.

The spec's ``obs`` is deliberately dropped for verification: a shared
``Observability`` would accumulate across both runs and fake a divergence.
The spec runs serially, with trace recording, kept event logs and the
event digest forced on.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterable, Sequence

from ..api import ScenarioResult, ScenarioRun, ScenarioSpec
from ..sim import diff_traces
from .facts import advance, diff_facts, finish, scenario_facts, start
from .snapshot import Snapshot


@dataclass(frozen=True)
class ReplayReport:
    """Outcome of one checkpoint-at-``cut_at_s`` replay verification."""

    cut_at_s: float
    identical: bool
    mismatches: tuple[str, ...]
    first_divergence: tuple[str, ...]  # readable event diff, empty if clean
    event_digest: str | None  # the (shared) digest when identical
    trace_digest: str | None
    events_at_cut: int
    events_total: int
    snapshot_bytes: int

    def describe(self) -> str:
        """One human line per fact; multi-line on failure."""
        if self.identical:
            return (
                f"cut at {self.cut_at_s * 1e6:.1f} us "
                f"({self.events_at_cut}/{self.events_total} events, "
                f"{self.snapshot_bytes} snapshot bytes): resumed run "
                f"identical (digest {self.event_digest})"
            )
        lines = [f"cut at {self.cut_at_s * 1e6:.1f} us: REPLAY DIVERGED"]
        lines += [f"  {m}" for m in self.mismatches]
        lines += [f"  {d}" for d in self.first_divergence]
        return "\n".join(lines)


def _instrumented(subject):
    """A spec run serially, every comparison channel on, shared state off."""
    if not isinstance(subject, ScenarioSpec):
        return subject  # a loaded serving runtime
    return replace(
        subject, record_trace=True, keep_trace_events=True, event_digest=True,
        obs=None, shards=1,
    )


def _verify(subject, cut_at_s: float, base_run, base_facts: dict, divergence_limit: int = 5):
    """Checkpoint a fresh run at ``cut_at_s``, resume it from snapshot
    bytes, and compare its facts against the uninterrupted run's."""
    cut_run = start(subject)
    advance(cut_run, cut_at_s)
    blob = cut_run.snapshot().to_bytes()  # full wire format round-trip
    resumed_run = Snapshot.from_bytes(blob).restore()
    facts = finish(resumed_run)
    differing = diff_facts(base_facts, facts)
    divergence = ()
    if differing and isinstance(subject, ScenarioSpec):
        divergence = tuple(
            diff_traces(base_run.env.trace, resumed_run.env.trace, divergence_limit)
        )
    return ReplayReport(
        cut_at_s=cut_at_s,
        identical=not differing,
        mismatches=tuple(
            f"{name}: straight-through {base_facts.get(name)!r} != "
            f"resumed {facts.get(name)!r}"
            for name in differing
        ),
        first_divergence=divergence,
        event_digest=base_facts["event_digest"],
        trace_digest=base_facts["trace_digest"],
        events_at_cut=cut_run.env.sim.processed,
        events_total=base_facts["events_processed"],
        snapshot_bytes=len(blob),
    )


def verify_scenario_replay(
    spec: ScenarioSpec,
    cut_at_s: float,
    baseline: tuple[ScenarioRun, ScenarioResult] | None = None,
    divergence_limit: int = 5,
) -> ReplayReport:
    """Checkpoint ``spec`` at ``cut_at_s``, resume from the serialized
    snapshot, and compare against an uninterrupted run.

    ``baseline`` lets callers verifying several cut points reuse one
    straight-through scenario run (see :func:`verify_cut_points`).
    """
    subject = _instrumented(spec)
    if baseline is None:
        base_run = start(subject)
        base_facts = finish(base_run)
    else:
        base_run, base_result = baseline
        base_facts = scenario_facts(base_result)
    return _verify(subject, cut_at_s, base_run, base_facts, divergence_limit)


def verify_cut_points(
    spec: ScenarioSpec, cuts: Sequence[float] | Iterable[float]
) -> list[ReplayReport]:
    """One :class:`ReplayReport` per cut time, sharing a single baseline."""
    subject = _instrumented(spec)
    base_run = start(subject)
    base_facts = finish(base_run)
    return [_verify(subject, cut, base_run, base_facts) for cut in cuts]


def verify_serve_replay(runtime_factory, cut_at_s: float) -> ReplayReport:
    """:func:`verify_scenario_replay` of the loaded, not-yet-run
    :class:`~repro.serve.ServeRuntime` that ``runtime_factory`` builds."""
    return verify_scenario_replay(runtime_factory(), cut_at_s)
