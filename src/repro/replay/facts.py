"""What "the same run" means: one fact set per run kind.

Every identity proof — resumed vs straight, sharded vs serial — compares
these facts through :func:`diff_facts`.  Scenario kinds (``ScenarioRun``,
``ShardedScenarioRun``): every :class:`~repro.api.ScenarioResult` field but
the derived ``stats``, with ``replay`` minus its :data:`PROVENANCE`, plus
the obs metrics export when the run carries an Observability.  Serve kinds
(``ServeRuntime``, ``ControlPlane``, ``ShardedServeResult``): the report,
golden-trace digest, event digest and events processed, plus the obs
metrics and trace exports when one is attached.  :func:`start`,
:func:`advance` and :func:`finish` drive a run of either kind alike.
"""

from __future__ import annotations

import pickle
from dataclasses import fields
from hashlib import blake2b
from typing import Any, Mapping

from ..api import ReplayInfo, ScenarioResult, ScenarioRun, ScenarioSpec

#: ReplayInfo fields saying how a result was produced (whether, where and
#: how often it was checkpointed), not what it is.
PROVENANCE = ("resumed", "resumed_at_s", "snapshots_taken")
_RESULT_FACTS = tuple(
    f.name for f in fields(ScenarioResult) if f.name not in ("replay", "stats")
)
_REPLAY_FACTS = tuple(f.name for f in fields(ReplayInfo) if f.name not in PROVENANCE)
SCENARIO_FACTS = _RESULT_FACTS + _REPLAY_FACTS
SERVE_FACTS = ("report", "trace_digest", "event_digest", "events_processed")


def scenario_facts(result: ScenarioResult, obs=None) -> dict[str, Any]:
    """The facts of a finished scenario run, serial or sharded."""
    facts = {name: getattr(result, name) for name in _RESULT_FACTS}
    facts.update((name, getattr(result.replay, name)) for name in _REPLAY_FACTS)
    if obs is not None:
        facts["obs_metrics"] = obs.metrics_json()
    return facts


def serve_facts(subject) -> dict[str, Any]:
    """The facts of a drained ``ServeRuntime`` or ``ControlPlane``, or of a
    ``ShardedServeResult``."""
    from ..shard import ShardedServeResult

    if isinstance(subject, ShardedServeResult):
        return {name: getattr(subject, name) for name in SERVE_FACTS}
    runtime = getattr(subject, "runtime", subject)  # a ControlPlane's
    env = runtime.env
    digest = env.sim.event_digest
    facts = {
        "report": runtime.report(),  # first: folds serve counters into obs
        "trace_digest": env.trace.digest() if env.trace is not None else None,
        "event_digest": digest.hexdigest() if digest is not None else None,
        "events_processed": env.sim.processed,
    }
    if runtime.obs is not None:
        facts["obs_metrics"] = runtime.obs.metrics_json()
        facts["obs_trace"] = runtime.obs.trace_json()
    return facts


def diff_facts(reference: Mapping[str, Any], candidate: Mapping[str, Any]) -> list[str]:
    """Every fact whose value differs (one side lacking it counts), in
    reference order; empty means identical.  Takes values or
    :func:`fact_digests`, the same on both sides."""
    gone = object()
    names = list(reference) + [n for n in candidate if n not in reference]
    return [n for n in names if reference.get(n, gone) != candidate.get(n, gone)]


def fact_digests(facts: Mapping[str, Any]) -> dict[str, str]:
    """One short BLAKE2b digest per fact's ``repr`` (floats round-trip), so a
    soak manifest can keep a reference run's facts as JSON."""
    return {
        name: blake2b(repr(value).encode("utf-8"), digest_size=8).hexdigest()
        for name, value in facts.items()
    }


def start(subject):
    """A fresh run of ``subject``: a spec's ``ScenarioRun`` (in-process
    ``ShardedScenarioRun`` when sharded, so it snapshots), or a copy of a
    loaded, unrun ``ServeRuntime``/``ControlPlane`` digesting every event."""
    if isinstance(subject, ScenarioSpec):
        if subject.shards > 1:
            from ..shard import ShardedScenarioRun

            return ShardedScenarioRun(subject)
        return ScenarioRun(subject)
    runtime = pickle.loads(pickle.dumps(subject, protocol=pickle.HIGHEST_PROTOCOL))
    runtime.env.sim.attach_digest()
    return runtime


def advance(run, until: float) -> None:
    """Process a run's events up to ``until`` (a safe point after)."""
    if hasattr(run, "run_until"):  # the scenario kinds
        run.run_until(until)
    else:
        getattr(run, "runtime", run).run(until=until)


def finish(run) -> dict[str, Any]:
    """Drain a run (fresh or restored from its snapshot) into its facts."""
    if hasattr(run, "run_until"):
        return scenario_facts(run.finish(), run.spec.obs)
    getattr(run, "runtime", run).run()
    run.finalize_checks()  # an attached checker raises on violation
    return serve_facts(run)
