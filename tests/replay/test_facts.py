"""The one fact set per run kind, and the one comparator over it.

Each fact is pinned by name: two results differing in that fact alone must
make :func:`diff_facts` name exactly it, so dropping a fact from a kind's
set (or adding a field the comparator ignores) fails here.
"""

import dataclasses

import pytest

from repro.api import run
from repro.experiments.scenarios import headline_scenario, serve_runtime
from repro.faults import Repeel
from repro.obs import Observability
from repro.replay import Snapshot, verify_serve_replay
from repro.replay.facts import (
    SCENARIO_FACTS,
    SERVE_FACTS,
    diff_facts,
    fact_digests,
    scenario_facts,
    serve_facts,
)
from repro.shard import ShardedServeResult
from repro.sim import Violation

SCENARIO_FACT_NAMES = (
    "scheme",
    "ccts",
    "total_bytes",
    "wasted_bytes",
    "pfc_pause_events",
    "invariant_violations",
    "trace_digest",
    "failure_drops",
    "repeels",
    "failovers",
    "protection",
    "backup_tcam_entries",
    "backup_tcam_peak_per_switch",
    "static_rule_budget",
    "header_overhead_bytes",
    "per_group_tcam_peak",
    "events_processed",
    "event_digest",
)
SERVE_FACT_NAMES = ("report", "trace_digest", "event_digest", "events_processed")


def _other(value):
    """A value of the same shape that differs from ``value``."""
    if isinstance(value, bool):
        return not value
    if isinstance(value, (int, float)):
        return value + 1
    if isinstance(value, str):
        return value + "x"
    if value is None:
        return "x"
    if isinstance(value, list):
        return value + [value[0] if value else Violation("x", 0.0, "x")]
    raise TypeError(type(value))


@pytest.fixture(scope="module")
def result():
    spec, _ = headline_scenario()
    return run(dataclasses.replace(spec, event_digest=True))


class TestScenarioFacts:
    def test_fact_set_is_pinned(self, result):
        assert SCENARIO_FACTS == SCENARIO_FACT_NAMES
        assert tuple(scenario_facts(result)) == SCENARIO_FACT_NAMES

    @pytest.mark.parametrize("name", SCENARIO_FACT_NAMES)
    def test_each_fact_is_named_alone(self, result, name):
        if name in ("events_processed", "event_digest"):
            value = getattr(result.replay, name)
            replay = dataclasses.replace(result.replay, **{name: _other(value)})
            other = dataclasses.replace(result, replay=replay)
        else:
            value = getattr(result, name)
            if name == "repeels":
                value = [Repeel(0.0, "t", ("a", "b"))]
                result = dataclasses.replace(result, repeels=[])
            other = dataclasses.replace(result, **{name: _other(value)})
        a, b = scenario_facts(result), scenario_facts(other)
        assert diff_facts(a, b) == [name]
        assert diff_facts(fact_digests(a), fact_digests(b)) == [name]

    @pytest.mark.parametrize(
        "name", ["resumed", "resumed_at_s", "snapshots_taken"]
    )
    def test_provenance_is_not_a_fact(self, result, name):
        replay = dataclasses.replace(
            result.replay, **{name: _other(getattr(result.replay, name))}
        )
        other = dataclasses.replace(result, replay=replay)
        assert diff_facts(scenario_facts(result), scenario_facts(other)) == []

    def test_obs_metrics_join_when_attached(self, result):
        class FakeObs:
            def __init__(self, text):
                self.text = text

            def metrics_json(self):
                return self.text

        a = scenario_facts(result, FakeObs("{}"))
        b = scenario_facts(result, FakeObs('{"x": 1}'))
        assert list(a)[-1] == "obs_metrics"
        assert diff_facts(a, b) == ["obs_metrics"]
        assert diff_facts(scenario_facts(result), a) == ["obs_metrics"]


class TestServeFacts:
    @pytest.fixture(scope="class")
    def sharded(self):
        runtime, _ = serve_runtime()
        runtime.env.sim.attach_digest()
        runtime.run()
        facts = serve_facts(runtime)
        return ShardedServeResult(
            report=facts["report"],
            shards=2,
            windows=1,
            events_processed=facts["events_processed"],
            trace_digest=facts["trace_digest"],
            event_digest=facts["event_digest"],
        ), facts

    def test_runtime_and_sharded_result_agree(self, sharded):
        result, facts = sharded
        assert SERVE_FACTS == SERVE_FACT_NAMES
        assert tuple(facts) == SERVE_FACT_NAMES
        assert diff_facts(facts, serve_facts(result)) == []

    @pytest.mark.parametrize("name", SERVE_FACT_NAMES)
    def test_each_fact_is_named_alone(self, sharded, name):
        result, _ = sharded
        if name == "report":
            other = dataclasses.replace(
                result,
                report=dataclasses.replace(
                    result.report, queued_jobs=result.report.queued_jobs + 1
                ),
            )
        else:
            other = dataclasses.replace(
                result, **{name: _other(getattr(result, name))}
            )
        assert diff_facts(serve_facts(result), serve_facts(other)) == [name]

    def test_obs_exports_join_when_attached(self):
        runtime, _ = serve_runtime(obs=Observability())
        runtime.run()
        facts = serve_facts(runtime)
        assert tuple(facts) == SERVE_FACT_NAMES + ("obs_metrics", "obs_trace")
        for name in ("obs_metrics", "obs_trace"):
            other = dict(facts, **{name: facts[name] + " "})
            assert diff_facts(facts, other) == [name]


class TestServeDivergence:
    def test_resumed_serve_divergence_names_report(self, monkeypatch):
        """A resumed serving run whose report drifts (one extra queued job
        counted, every event unchanged) is caught and named."""
        restore = Snapshot.restore

        def tampered(self):
            runtime = restore(self)
            runtime.total_queued += 1
            return runtime

        monkeypatch.setattr(Snapshot, "restore", tampered)
        _, cuts = serve_runtime()
        report = verify_serve_replay(lambda: serve_runtime()[0], cuts[1])
        assert not report.identical
        assert [m.split(":")[0] for m in report.mismatches] == ["report"]
        assert "DIVERGED" in report.describe()
