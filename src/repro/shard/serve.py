"""Sharded serving: one :class:`~repro.serve.runtime.ServeRuntime` per
shard, lockstep windows, a serially-recomputed :class:`ServeReport`.

Serving shards the same way scenarios do — the partition must be
traffic-closed over the submitted jobs — but the per-job state lives in
the runtime, not in collective handles, so the merge differs:

* every shard runs a full private ``ServeRuntime`` (own admission policy,
  TCAM tables, plan cache) and submits only its own jobs.  Group demand,
  route edges and plan-cache keys all name hosts/switches inside the
  shard's territory, so per-switch occupancy, admission decisions and
  cache hit patterns are *identical* to the serial run's — per-shard
  counters sum exactly;
* job records ship back as :class:`~repro.serve.runtime.JobRow` tuples
  tagged with the global submit index; the coordinator folds them in
  global order through the same :func:`~repro.serve.runtime.summarize_tenants`
  as serial ``report()``, so the report is byte-identical;
* a populated FIFO queue would couple admission order across shards, so a
  sharded serve *requires* an admit-on-arrival regime and errors out if
  any shard ever queued a job (``total_queued != 0``).

The proof artifacts — golden-trace digest and fired-event digest — come
from the shared :class:`~repro.shard.sequencer.GlobalSequencer`; the
serial comparator is a ``ServeRuntime(record_trace=True)`` with
``env.sim.attach_digest()``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..collectives import SchemeSpec, resolve_scheme
from ..serve.runtime import (
    DATAPLANE,
    ServeReport,
    ServeRuntime,
    resolve_serving_scheme,
    summarize_tenants,
)
from .errors import ShardError
from .partition import ShardPlan, plan_partition
from .record import RecordingSimulator, ShardTraceRecorder
from .runner import LocalShard, LockstepDriver, ProcessShard, ShardState
from .sequencer import GlobalSequencer

__all__ = [
    "SHARDABLE_SERVE_SCHEMES",
    "ServeShardSpec",
    "ShardedServe",
    "ShardedServeResult",
    "serve_sharded",
]

#: Serving schemes whose dataplane declares ``shardable = True`` (RNG-free
#: planning and launch; cf. ``repro.shard.runner.shardable_schemes`` for
#: the rationale — ip-multicast launches the ``optimal`` dataplane, and
#: the source-routed schemes encode their trees without shared RNG draws).
SHARDABLE_SERVE_SCHEMES = tuple(
    name
    for name, dataplane in DATAPLANE.items()
    if resolve_scheme(SchemeSpec.parse(dataplane)).shardable
)


@dataclass(frozen=True)
class ServeShardSpec:
    """Frozen description of one sharded serve campaign (fork-inherited
    by worker processes; all attached objects must be picklable)."""

    topology: object
    #: A SERVE_SCHEMES name, registry spec string, or SchemeSpec.
    scheme: object
    jobs: tuple
    shards: int
    config: object = None
    admission: object = None
    tcam_capacity: int | None = None
    max_queue: int = 4096
    check_invariants: bool = False
    record_trace: bool = False
    protection: int = 0
    event_digest: bool = False
    #: Per-shard plan-cache capacity.  Size it so the campaign never
    #: evicts: LRU eviction order depends on *global* access recency,
    #: which disjoint per-shard caches cannot reproduce, so a shard that
    #: evicts fails its finalize.  ``None`` keeps the runtime default.
    plan_cache_size: int | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "jobs", tuple(self.jobs))


class ServeShardState(ShardState):
    """One shard's live serve runtime plus its submit segments."""

    label = "serve shard"

    def __init__(self, index: int, runtime: ServeRuntime, job_indices) -> None:
        super().__init__(index)
        self.runtime = runtime
        self.env = runtime.env
        self.sim = runtime.env.sim
        #: global submit index per local record (record i of this runtime
        #: is global job ``job_indices[i]``).
        self.job_indices = list(job_indices)
        self.segments = [(1, g, 1, [], None) for g in self.job_indices]


def build_serve_shard(
    sspec: ServeShardSpec, plan: ShardPlan, shard_index: int
) -> ServeShardState:
    from ..serve.cache import PlanCache
    from ..state import DEFAULT_CAPACITY

    sim = RecordingSimulator()
    cache = (
        PlanCache(sspec.plan_cache_size)
        if sspec.plan_cache_size is not None
        else True
    )
    runtime = ServeRuntime(
        sspec.topology,
        sspec.scheme,
        sspec.config,
        admission=sspec.admission,
        tcam_capacity=(
            sspec.tcam_capacity
            if sspec.tcam_capacity is not None
            else DEFAULT_CAPACITY
        ),
        plan_cache=cache,
        max_queue=sspec.max_queue,
        check_invariants=sspec.check_invariants,
        record_trace=False,
        protection=sspec.protection,
        sim=sim,
        invariant_watchdog=False,
    )
    if sim._seq != 0:  # pragma: no cover - preinstall is sim-silent today
        raise ShardError(
            "runtime construction scheduled simulator events; the sharded "
            "submit interleave cannot account for them"
        )
    if sspec.record_trace:
        ShardTraceRecorder(runtime.env.network, sim.lines)
    sim.watch_transfers(runtime.env.network.transfers)
    job_indices = plan.jobs_for(shard_index)
    state = ServeShardState(shard_index, runtime, job_indices)
    for g in job_indices:
        seq0 = sim._seq
        runtime.submit(sspec.jobs[g])
        if sim._seq - seq0 != 1:  # pragma: no cover - submit is 1 schedule
            raise ShardError("submit scheduled an unexpected event count")
    state.mark(plan.nodes_for(shard_index, sspec.topology))
    return state


def finalize_serve_shard(state: ServeShardState) -> dict:
    runtime = state.runtime
    if runtime.total_queued:
        raise ShardError(
            f"serve shard {state.index} queued {runtime.total_queued} jobs; "
            "cross-shard FIFO order is not reproducible — raise capacity or "
            "run serially"
        )
    cache = runtime.env.plan_cache
    if cache is not None and cache.evictions:
        raise ShardError(
            f"serve shard {state.index} evicted {cache.evictions} plan-cache "
            "entries; LRU eviction order depends on global access recency, "
            "which per-shard caches cannot reproduce — raise plan_cache_size "
            "past the campaign's working set or run serially"
        )
    state.prove()
    violations = runtime.finalize_checks()
    if violations:
        raise RuntimeError(
            f"invariant violations on serve shard {state.index}: {violations}"
        )
    records = []
    for g, record in zip(state.job_indices, runtime.records):
        if record.status not in ("done", "rejected"):
            raise ShardError(
                f"job {g} on shard {state.index} ended {record.status!r}"
            )
        records.append(record.row()._replace(index=g))
    return {
        "records": records,
        "cache": (
            (cache.hits, cache.misses, cache.invalidations)
            if cache is not None
            else (0, 0, 0)
        ),
        "switch_updates": runtime.state.total_updates,
        "peak_entries": runtime.state.peak_entries_per_switch,
        "overflow_events": runtime.state.overflow_events,
        "processed": state.sim.processed,
    }


@dataclass
class ShardedServeResult:
    """A sharded campaign's outcome plus its byte-identity proof artifacts."""

    report: ServeReport
    shards: int
    windows: int
    events_processed: int
    trace_digest: str | None = None
    event_digest: str | None = None
    job_rows: list = field(default_factory=list, repr=False)


class ShardedServe:
    """Serve a job campaign across ``shards`` lockstep workers."""

    def __init__(self, sspec: ServeShardSpec, processes: bool = False) -> None:
        if sspec.shards < 2:
            raise ShardError(f"sharded serve needs shards >= 2, got {sspec.shards}")
        self.scheme_name, dataplane = resolve_serving_scheme(sspec.scheme)
        if not dataplane.shardable:
            raise ShardError(
                f"serving scheme {self.scheme_name!r} is not shardable "
                "(its dataplane draws a shared RNG); shardable serve "
                f"schemes include {SHARDABLE_SERVE_SCHEMES}"
            )
        self.sspec = sspec
        self.plan = plan_partition(sspec.topology, sspec.jobs, sspec.shards)
        self.processes = processes
        self.sequencer = GlobalSequencer(
            sspec.shards,
            event_digest=sspec.event_digest,
            trace=sspec.record_trace,
        )
        if processes:
            shard_list: list = [
                ProcessShard(("serve", sspec, self.plan, s), s)
                for s in range(sspec.shards)
            ]
        else:
            shard_list = [
                LocalShard(
                    build_serve_shard(sspec, self.plan, s), finalize_serve_shard
                )
                for s in range(sspec.shards)
            ]
        self.driver = LockstepDriver(shard_list, self.sequencer)
        self.finished = False

    def run(self) -> ShardedServeResult:
        if self.finished:
            raise RuntimeError("campaign already run")
        self.finished = True
        self.driver.drain()
        payloads = self.driver.finalize_all()
        rows = sorted(row for p in payloads for row in p["records"])
        report = self._rebuild_report(rows, payloads)
        return ShardedServeResult(
            report=report,
            shards=self.sspec.shards,
            windows=self.driver.windows_run,
            events_processed=sum(p["processed"] for p in payloads),
            trace_digest=(
                self.sequencer.trace_digest() if self.sspec.record_trace else None
            ),
            event_digest=(
                self.sequencer.digest.hexdigest()
                if self.sequencer.digest is not None
                else None
            ),
            job_rows=rows,
        )

    def _rebuild_report(self, rows: list, payloads: list) -> ServeReport:
        """Serial ``ServeRuntime.report()`` over globally-ordered rows."""
        tenants, total = summarize_tenants(rows)
        return ServeReport(
            scheme=self.scheme_name,
            tenants=tenants,
            total=total,
            queued_jobs=0,  # finalize_serve_shard rejects any queueing
            cache_hits=sum(p["cache"][0] for p in payloads),
            cache_misses=sum(p["cache"][1] for p in payloads),
            cache_invalidations=sum(p["cache"][2] for p in payloads),
            switch_updates=sum(p["switch_updates"] for p in payloads),
            peak_entries_per_switch=max(p["peak_entries"] for p in payloads),
            tcam_overflow_events=sum(p["overflow_events"] for p in payloads),
        )


def serve_sharded(
    sspec: ServeShardSpec, processes: bool = False
) -> ShardedServeResult:
    """One-shot: build the sharded campaign, drain it, rebuild the report."""
    return ShardedServe(sspec, processes=processes).run()
