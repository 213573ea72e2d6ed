"""Golden traces: deterministic replay digests and trace diffing."""

import pytest

from repro.collectives import Gpu, Group
from repro.api import ScenarioSpec, run
from repro.sim import SimConfig, TraceRecorder, diff_traces
from repro.sim.trace import TraceRecorder as _TraceRecorder
from repro.topology import LeafSpine
from repro.workloads import CollectiveJob

MB = 2**20


def make_job(topo, n=8, message=MB, arrival=0.0):
    members = tuple(Gpu(h, 0) for h in topo.hosts[:n])
    return CollectiveJob(arrival, Group(members[0], members), message)


def run_once(seed=0, scheme="peel"):
    topo = LeafSpine(2, 4, 2)
    cfg = SimConfig(segment_bytes=64 * 1024, seed=seed)
    return run(ScenarioSpec(topology=topo, scheme=scheme,
                        jobs=(make_job(topo),), config=cfg,
                        record_trace=True))


class TestDeterministicReplay:
    def test_same_scenario_same_digest(self):
        a = run_once(seed=0)
        b = run_once(seed=0)
        assert a.trace_digest is not None
        assert a.trace_digest == b.trace_digest
        assert a.ccts == b.ccts

    def test_different_seed_different_digest(self):
        """Seeds drive placement/arrivals; different seeds, different trace
        (a fixed single-job scenario is seed-independent by design)."""
        from repro.workloads import generate_jobs

        def run_workload(seed):
            topo = LeafSpine(2, 4, 2)
            jobs = generate_jobs(
                topo, 2, 4, MB, gpus_per_host=1, seed=seed
            )
            cfg = SimConfig(segment_bytes=64 * 1024, seed=seed)
            return run(ScenarioSpec(topology=topo, scheme="peel",
                                jobs=tuple(jobs), config=cfg,
                                record_trace=True))

        assert run_workload(0).trace_digest != run_workload(1).trace_digest

    def test_different_scheme_different_digest(self):
        assert (
            run_once(scheme="peel").trace_digest
            != run_once(scheme="optimal").trace_digest
        )

    def test_no_trace_by_default(self):
        topo = LeafSpine(2, 4, 2)
        result = run(ScenarioSpec(topology=topo, scheme="peel",
                                  jobs=(make_job(topo),)))
        assert result.trace_digest is None


class TestRecorderApi:
    def run_env(self, keep_events=False):
        from repro.collectives import CollectiveEnv, resolve_scheme

        topo = LeafSpine(2, 4, 2)
        env = CollectiveEnv(topo, SimConfig(segment_bytes=64 * 1024))
        recorder = TraceRecorder(env.network, keep_events=keep_events)
        members = tuple(Gpu(h, 0) for h in topo.hosts[:8])
        resolve_scheme("peel").launch(env, Group(members[0], members), MB, 0.0)
        env.run()
        return recorder

    def test_save_and_match_roundtrip(self, tmp_path):
        golden = tmp_path / "golden.json"
        a = self.run_env()
        a.save(golden)
        b = self.run_env()
        assert b.matches(golden)
        assert a.num_events == b.num_events

    def test_match_fails_on_changed_run(self, tmp_path):
        golden = tmp_path / "golden.json"
        self.run_env().save(golden)
        topo = LeafSpine(2, 4, 2)
        from repro.collectives import CollectiveEnv, resolve_scheme

        env = CollectiveEnv(topo, SimConfig(segment_bytes=64 * 1024, seed=9))
        recorder = TraceRecorder(env.network)
        members = tuple(Gpu(h, 0) for h in topo.hosts[:6])  # different group
        resolve_scheme("peel").launch(env, Group(members[0], members), MB, 0.0)
        env.run()
        assert not recorder.matches(golden)

    def test_diff_identical_runs_is_empty(self):
        a = self.run_env(keep_events=True)
        b = self.run_env(keep_events=True)
        assert diff_traces(a, b) == []
        assert a.events  # something was recorded

    def test_diff_requires_kept_events(self):
        a = self.run_env(keep_events=False)
        b = self.run_env(keep_events=False)
        with pytest.raises(ValueError):
            diff_traces(a, b)

    def test_snapshot_shape(self):
        recorder = self.run_env()
        snap = recorder.snapshot()
        assert snap["digest"] == recorder.digest()
        assert snap["num_events"] == recorder.num_events > 0

    def test_reexported_from_sim(self):
        assert TraceRecorder is _TraceRecorder
