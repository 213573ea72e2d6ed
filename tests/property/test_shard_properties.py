"""Differential battery: sharded runs are byte-identical to serial.

The central claim of ``repro.shard`` is not "close" but *equal*: for any
spec the partition accepts, running it across N lockstep shards yields
the same golden-trace chain, the same fired-event digest, the same CCTs
and the same observability export as the serial engine, byte for byte.
These properties draw random pod-local workloads — topology size, shard
count in {2, 4, 8}, scheme, faults, membership churn, protection level,
seeds — and check exactly that, plus the invariants the equality rests
on: no shard fires beyond the window edge, the edges strictly advance,
and the stream merge is associative over any window decomposition.

A drawn workload may queue past the ECN band, where ramp marking draws
the shared fabric RNG.  The sharded run then refuses with its documented
``ShardError``; the battery accepts that refusal only when the serial run
of the same spec did move its network RNG.
"""

import dataclasses
import random

from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from repro.api import ScenarioRun, ScenarioSpec, run
from repro.control import ChurnEvent, ChurnSchedule
from repro.experiments.common import sim_config
from repro.faults import FaultSchedule
from repro.obs import Observability
from repro.shard import GlobalSequencer, ShardError, pod_local_jobs
from repro.topology import FatTree

from tests.shard.specs import ecn_drawing_spec

KB = 1024


def _fresh_obs() -> Observability:
    # Periodic sampling schedules wall-clock-free *sampler* events in the
    # simulator, which the shard runner refuses (they are not fabric work
    # and would differ per shard); everything else is compared.
    return Observability(periodic_sampling=False)


def _result_facts(result, obs):
    """Every comparable fact of one run, obs export included."""
    return {
        "ccts": list(result.ccts),
        "trace": result.trace_digest,
        "events": result.replay.event_digest,
        "processed": result.replay.events_processed,
        "total_bytes": result.total_bytes,
        "wasted_bytes": result.wasted_bytes,
        "pfc_pause_events": result.pfc_pause_events,
        "failure_drops": result.failure_drops,
        "repeels": list(result.repeels),
        "failovers": list(result.failovers),
        "membership": dict(result.membership),
        "backup_entries": result.backup_tcam_entries,
        "header_overhead": result.header_overhead_bytes,
        "group_tcam_peak": result.per_group_tcam_peak,
        "metrics": obs.metrics_json() if obs is not None else None,
    }


def _assert_identical(spec: ScenarioSpec, with_obs: bool) -> None:
    serial_obs = _fresh_obs() if with_obs else None
    serial_run = ScenarioRun(dataclasses.replace(spec, shards=1, obs=serial_obs))
    network_rng = serial_run.env.network.rng
    rng_before = network_rng.getstate()
    serial = serial_run.finish()
    shard_obs = _fresh_obs() if with_obs else None
    try:
        sharded = run(dataclasses.replace(spec, obs=shard_obs))
    except ShardError as exc:
        if "drew from the network RNG" not in str(exc):
            raise
        event("refused: network RNG drawn")
        assert network_rng.getstate() != rng_before, (
            "sharded run refused a network RNG draw the serial run never made"
        )
        return
    event("byte-identical")
    base = _result_facts(serial, serial_obs)
    other = _result_facts(sharded, shard_obs)
    for key, expect in base.items():
        assert other[key] == expect, f"{key} diverged on {spec.shards} shards"


@st.composite
def shard_cases(draw):
    shards = draw(st.sampled_from((2, 4, 8)))
    # A k-ary fat-tree partitions into k pod components plus the core, so
    # 8 shards need the k=8 fabric; the small fabric keeps most examples
    # fast.  hosts_per_tor=2 bounds the event count.
    k = 8 if shards == 8 else 4
    topo = FatTree(k, hosts_per_tor=2)
    seed = draw(st.integers(min_value=0, max_value=9999))
    variant = draw(st.sampled_from(("plain", "fault", "churn", "protection")))
    # Churn grafting and protection planning are PEEL mechanisms; the
    # plain and fault variants also exercise the optimal scheme, the
    # per-job-ECMP host relays (ring/tree) and the source-routed schemes
    # (header bytes + strip-at-hop accounting must merge byte-identically).
    scheme = (
        draw(st.sampled_from((
            "peel", "optimal", "ring", "tree",
            "elmo", "bert", "rsbf", "lipsin", "ip-multicast",
        )))
        if variant in ("plain", "fault")
        else "peel"
    )
    jobs_per_pod = draw(st.integers(min_value=1, max_value=1 if k == 8 else 2))
    message_bytes = draw(st.sampled_from((64 * KB, 128 * KB)))
    with_obs = draw(st.booleans())
    jobs = pod_local_jobs(
        topo, jobs_per_pod, 3, message_bytes, offered_load=0.4, seed=seed
    )
    arrivals = sorted(job.arrival_s for job in jobs)
    fault_schedule = None
    churn = None
    protection = 0
    rng = random.Random(seed + 77)
    if variant == "fault":
        pod = rng.randrange(k)
        tor = topo.tors_in_pod(pod)[0]
        agg = topo.aggs_in_pod(pod)[0]
        down_at = arrivals[0] + rng.choice((5e-6, 15e-6, 40e-6))
        fault_schedule = FaultSchedule().link_flap(
            tor, agg, down_at, down_at + 150e-6
        )
    elif variant == "churn":
        g = rng.randrange(len(jobs))
        group = jobs[g].group
        members = {gpu.host for gpu in group.members}
        pod_hosts = {
            h for h in topo.hosts
            if h.split(":")[1] == group.source.host.split(":")[1]
        }
        outside = sorted(pod_hosts - members)
        leavers = sorted(members - {group.source.host})
        events = []
        at = jobs[g].arrival_s + rng.choice((5e-6, 20e-6))
        if outside and rng.random() < 0.7:
            events.append(ChurnEvent(at, g, "join", host=outside[0]))
        if not events or rng.random() < 0.5:
            events.append(
                ChurnEvent(at + 10e-6, g, "leave", host=leavers[0])
            )
        churn = ChurnSchedule(tuple(events))
    elif variant == "protection":
        protection = 1
    spec = ScenarioSpec(
        topology=topo,
        scheme=scheme,
        jobs=tuple(jobs),
        config=sim_config(message_bytes, seed=seed),
        record_trace=True,
        event_digest=True,
        fault_schedule=fault_schedule,
        churn=churn,
        protection=protection,
        shards=shards,
    )
    return spec, with_obs


class TestShardedEqualsSerial:
    @given(shard_cases())
    @example((ecn_drawing_spec(), False))
    @settings(max_examples=12, deadline=None)
    def test_byte_identical(self, case):
        spec, with_obs = case
        _assert_identical(spec, with_obs)


class TestWindowInvariance:
    def test_window_size_is_a_pure_pacing_knob(self, monkeypatch):
        """Any initial window width yields the same merged bytes."""
        from repro.experiments.scenarios import shard_scenario
        from repro.shard import runner

        spec, _ = shard_scenario(shards=2)
        digests = set()
        for window in (3e-6, 1e-4, 5e-3):
            monkeypatch.setattr(runner, "_INITIAL_WINDOW_S", window)
            result = run(spec)
            digests.add((result.trace_digest, result.replay.event_digest))
        assert len(digests) == 1


# -- window lockstep (the shards' barrier) ----------------------------------


def _stepped_windows(monkeypatch, shards: int, window_s: float):
    """Step the golden sharded scenario one lockstep window at a time,
    yielding the run and its committed edge after each window."""
    from repro.experiments.scenarios import shard_scenario
    from repro.shard import ShardedScenarioRun, runner

    monkeypatch.setattr(runner, "_INITIAL_WINDOW_S", window_s)
    sharded = ShardedScenarioRun(shard_scenario(shards=shards)[0])
    while not sharded.drained:
        sharded.advance_window()
        yield sharded, sharded.driver.committed_edge


class TestBarrierProtocol:
    """The lockstep window is the only barrier between shards: each runs
    to a common edge, then the coordinator merges what they fired."""

    def test_no_fire_beyond_open_window(self, monkeypatch):
        """After each window every merged event lies at or before the
        common edge and every shard's next event beyond it — the property
        the stream merge rests on."""
        for shards, window_s in ((2, 3e-6), (4, 3e-6), (2, 1e-4)):
            for sharded, edge in _stepped_windows(monkeypatch, shards, window_s):
                assert sharded.sequencer.last_time <= edge
                for shard in sharded.shards:
                    peek = shard.state.sim.peek_time()
                    assert peek is None or peek > edge

    def test_window_must_advance(self, monkeypatch):
        """Window edges strictly advance, one edge per window run."""
        steps = list(_stepped_windows(monkeypatch, 2, 3e-6))
        edges = [edge for _, edge in steps]
        assert edges == sorted(set(edges))
        assert len(edges) == steps[-1][0].windows_run > 1


# -- merge associativity ------------------------------------------------------


@st.composite
def merge_programs(draw):
    """Two shards' fired-record streams plus a random window decomposition.

    Times come from a coarse grid so cross-shard ties are common — the
    merge must break them by global seq, identically however the stream
    is chunked.
    """
    streams = []
    for _ in range(2):
        n = draw(st.integers(min_value=1, max_value=6))
        times = sorted(
            draw(st.integers(min_value=0, max_value=8)) * 1e-6
            for _ in range(n)
        )
        streams.append([(t, i, 0, 0, None) for i, t in enumerate(times)])
    cut_grid = sorted({r[0] for s in streams for r in s})
    cuts = draw(st.sets(st.sampled_from(cut_grid))) if cut_grid else set()
    edges = sorted(cuts | {cut_grid[-1]}) if cut_grid else [0.0]
    first_shard = draw(st.sampled_from((0, 1)))
    return streams, edges, first_shard


def _merged_digest(streams, edges, first_shard):
    seq = GlobalSequencer(2, event_digest=True)
    for shard, stream in enumerate(streams):
        seq.push_setup(shard, len(stream), [], None)
    cursor = [0, 0]
    order = (first_shard, 1 - first_shard)
    for edge in edges:
        for shard in order:
            stream = streams[shard]
            start = cursor[shard]
            stop = start
            while stop < len(stream) and stream[stop][0] <= edge:
                stop += 1
            seq.feed(shard, stream[start:stop], [])
            cursor[shard] = stop
        seq.merge_available()
    seq.assert_drained()
    assert seq.merged_events == sum(len(s) for s in streams)
    return seq.digest.hexdigest()


class TestMergeAssociativity:
    @given(merge_programs())
    @settings(max_examples=80, deadline=None)
    def test_any_window_decomposition_merges_identically(self, program):
        streams, edges, first_shard = program
        one_shot = _merged_digest(streams, [edges[-1]], 0)
        chunked = _merged_digest(streams, edges, first_shard)
        assert chunked == one_shot

    def test_fire_before_schedule_rejected(self):
        seq = GlobalSequencer(2)
        seq.push_setup(0, 1, [], None)
        seq.feed(0, [(1e-6, 5, 0, 0, None)], [])  # lseq 5 never scheduled
        try:
            seq.merge_available()
        except ShardError as exc:
            assert "before its" in str(exc)
        else:
            raise AssertionError("unscheduled lseq merged")
