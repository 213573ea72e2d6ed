"""The always-on serving runtime: admit, queue, run, account, report.

:class:`ServeRuntime` layers a multi-tenant job service on one
:class:`~repro.collectives.env.CollectiveEnv`.  Jobs submitted from a
:mod:`repro.workloads` stream arrive as simulator events; each arrival is
put before the :mod:`admission <repro.serve.admission>` policy and either
launched immediately, parked in a FIFO queue until capacity frees up, or
rejected.  Admitted collectives run *concurrently* on the shared fabric —
their trees contend for links, DCQCN and PFC exactly like the figure
experiments — while the runtime mirrors each group's switch-state demand
into per-switch :class:`~repro.state.tcam.TcamTable` models and tracks
per-link outstanding bytes for load-aware admission.

Completion of any collective frees its state and link budget and re-drains
the queue head-first, so queueing delay is an emergent property of the
admission policy, not a modelled constant.  :meth:`ServeRuntime.report`
folds everything into per-tenant SLO rows (p50/p99 CCT, queueing delay,
goodput, reject rate) plus fabric-level counters (plan-cache hit rate,
switch updates, TCAM peaks/overflows).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, NamedTuple

from ..collectives import (
    BroadcastScheme,
    CollectiveEnv,
    CollectiveHandle,
    SchemeSpec,
    resolve_scheme,
)
from ..collectives.multicast import _steiner_tree
from ..metrics import SloSummary, summarize_slo
from ..sim import SimConfig
from ..state import DEFAULT_CAPACITY
from ..topology import Topology
from ..workloads import CollectiveJob
from .admission import AdmissionPolicy, Decision, FifoAdmission
from .cache import PlanCache
from .state import Demand, Entries, FabricState, policy_for, tree_switch_fanouts

if TYPE_CHECKING:  # pragma: no cover
    from ..core.peel import PeelPlan

#: Serving scheme -> the dataplane realization it launches, as a canonical
#: registry spec string.  IP multicast forwards single copies along a
#: per-group tree (same dataplane as the optimal baseline) but pays
#: per-subset switch state for it — the runtime's state ledger charges the
#: subsets, so its dataplane must not double-charge them.  The
#: source-routed schemes (elmo/bert/rsbf/lipsin) launch themselves: their
#: header bytes and residual state ride the collectives layer.
DATAPLANE = {
    "peel": "peel",
    "orca": "orca",
    "ip-multicast": "optimal",
    "elmo": "elmo",
    "bert": "bert",
    "rsbf": "rsbf",
    "lipsin": "lipsin",
}

SERVE_SCHEMES = tuple(DATAPLANE)


def resolve_serving_scheme(scheme) -> tuple[str, BroadcastScheme]:
    """Resolve a serving-scheme argument to ``(report_name, dataplane)``.

    Accepts a :data:`SERVE_SCHEMES` name (kept as the report name, so
    ``"ip-multicast"`` reports read as before), or anything the scheme
    registry resolves — a :class:`SchemeSpec`, a ``"name:param=value"``
    string, or a live scheme instance.
    """
    if isinstance(scheme, str) and scheme in DATAPLANE:
        return scheme, resolve_scheme(SchemeSpec.parse(DATAPLANE[scheme]))
    if isinstance(scheme, BroadcastScheme):
        return scheme.name, scheme
    spec = SchemeSpec.coerce(scheme)
    return str(spec), resolve_scheme(spec)


class JobRow(NamedTuple):
    """A finished job as the SLO summary reads it: plain and picklable, so
    sharded serving ships rows from worker processes."""

    index: int
    tenant: str
    status: str
    arrival_s: float
    completed_s: float | None
    cct_s: float | None
    queue_delay_s: float
    delivered_bytes: int


def summarize_tenants(rows: list[JobRow]) -> tuple[list[SloSummary], SloSummary]:
    """Per-tenant SLO rows (sorted by tenant) and the TOTAL row over
    ``rows`` in submit order; anything not ``done`` counts as rejected."""
    if not rows:
        raise RuntimeError("nothing submitted; cannot summarize SLOs")
    done = [r for r in rows if r.status == "done"]
    first = min(r.arrival_s for r in rows)
    end = max((r.completed_s for r in done), default=first)
    span = max(end - first, 1e-9)

    def summary(tag: str, records: list[JobRow], rejected: int) -> SloSummary:
        return summarize_slo(
            tag,
            [r.cct_s for r in records],
            [r.queue_delay_s for r in records],
            rejected,
            sum(r.delivered_bytes for r in records),
            span,
        )

    tenants: dict[str, list[JobRow]] = {}
    rejects: dict[str, int] = {}
    for row in rows:
        tenants.setdefault(row.tenant, [])
        rejects.setdefault(row.tenant, 0)
        if row.status == "done":
            tenants[row.tenant].append(row)
        else:
            rejects[row.tenant] += 1
    tenant_rows = [
        summary(tenant, records, rejects[tenant])
        for tenant, records in sorted(tenants.items())
    ]
    return tenant_rows, summary("TOTAL", done, len(rows) - len(done))


@dataclass
class JobRecord:
    """One submitted job's lifecycle inside the runtime."""

    index: int
    job: CollectiveJob
    status: str = "pending"  # pending -> queued? -> running -> done|rejected
    admitted_s: float | None = None
    completed_s: float | None = None
    cct_s: float | None = None
    handle: CollectiveHandle | None = None
    _demand: Demand | Entries | None = field(default=None, repr=False)
    _route_edges: tuple | None = field(default=None, repr=False)
    #: The peel plan behind ``_demand`` and ``_route_edges``, held only
    #: until launch.
    _plan: "PeelPlan | None" = field(default=None, repr=False)

    @property
    def queue_delay_s(self) -> float:
        if self.admitted_s is None:
            return 0.0
        return self.admitted_s - self.job.arrival_s

    @property
    def delivered_bytes(self) -> int:
        """Payload bytes this job put onto receiver NICs."""
        return self.job.message_bytes * len(self.job.group.receiver_hosts)

    def row(self) -> JobRow:
        return JobRow(
            self.index,
            self.job.tenant,
            self.status,
            self.job.arrival_s,
            self.completed_s,
            self.cct_s,
            self.queue_delay_s,
            self.delivered_bytes,
        )


class _JobCompletion:
    """Picklable ``on_complete`` binding for an admitted job's handle
    (a lambda here would break :mod:`repro.replay` checkpoints)."""

    __slots__ = ("runtime", "record")

    def __init__(self, runtime: "ServeRuntime", record: JobRecord) -> None:
        self.runtime = runtime
        self.record = record

    def __call__(self, handle: CollectiveHandle, now: float) -> None:
        del handle  # the record already holds it
        self.runtime._on_collective_done(self.record, now)


@dataclass(frozen=True)
class ServeReport:
    """End-of-run summary: per-tenant SLOs plus fabric-level accounting."""

    scheme: str
    tenants: list[SloSummary]
    total: SloSummary
    queued_jobs: int
    cache_hits: int
    cache_misses: int
    cache_invalidations: int
    switch_updates: int
    peak_entries_per_switch: int
    tcam_overflow_events: int

    @property
    def cache_hit_rate(self) -> float:
        lookups = self.cache_hits + self.cache_misses
        return self.cache_hits / lookups if lookups else 0.0


class ServeRuntime:
    """Multi-tenant collective serving on one shared simulated fabric."""

    def __init__(
        self,
        topo: Topology,
        scheme: "str | SchemeSpec | BroadcastScheme" = "peel",
        config: SimConfig | None = None,
        admission: AdmissionPolicy | None = None,
        tcam_capacity: int = DEFAULT_CAPACITY,
        plan_cache: PlanCache | bool = True,
        max_queue: int = 4096,
        check_invariants: bool = False,
        record_trace: bool = False,
        fault_schedule=None,
        raise_on_violation: bool = True,
        obs=None,
        protection: int = 0,
        sim=None,
        invariant_watchdog: bool = True,
    ) -> None:
        if max_queue < 0:
            raise ValueError("max_queue must be non-negative")
        self.scheme_name, self.scheme = resolve_serving_scheme(scheme)
        #: Resilience level F: peel plans carry pre-installed backup
        #: subtrees whose fast-failover entries join each group's TCAM
        #: demand (and therefore its admission cost).
        self.protection = protection
        self.admission = admission or FifoAdmission()
        self.max_queue = max_queue
        if plan_cache is True:
            plan_cache = PlanCache()
        elif plan_cache is False:
            plan_cache = None
        if fault_schedule is not None:
            topo = topo.copy()  # dynamic faults mutate the planning topology
        self.env = CollectiveEnv(
            topo,
            config,
            fault_schedule=fault_schedule,
            check_invariants=check_invariants,
            record_trace=record_trace,
            raise_on_violation=raise_on_violation,
            plan_cache=plan_cache,
            protection=protection,
            sim=sim,
            invariant_watchdog=invariant_watchdog,
        )
        self.state_policy = policy_for(self.scheme_name)
        self.state = FabricState(capacity=tcam_capacity, strict=False)
        if self.state_policy.static_rules:
            self._preinstall_static_rules()
        #: Admitted-but-unfinished message bytes per directed link.
        self.link_outstanding: dict[tuple[str, str], int] = {}
        self.records: list[JobRecord] = []
        self._queue: deque[JobRecord] = deque()
        self.peak_queue_len = 0
        self.total_queued = 0
        self.running = 0
        #: Optional :class:`repro.obs.Observability`: fabric metrics + span
        #: tracing plus a periodic serve-level snapshot (queue length,
        #: running collectives, TCAM occupancy) on the sampler cadence.
        self.obs = obs
        #: One dict per sampler tick when ``obs`` is attached.
        self.obs_snapshots: list[dict] = []
        self._obs_folded = False
        #: Optional hook fired as ``on_job_done(record, now)`` after a job's
        #: accounting is released and before the queue re-drains — the
        #: control plane uses it to retire group state and stream completion
        #: events to subscribers.  Must be picklable (a bound method of a
        #: picklable object) to survive :mod:`repro.replay` checkpoints.
        self.on_job_done = None
        if obs is not None:
            obs.attach(self.env.network)
            obs.add_sample_hook(self._obs_sample)

    def _obs_sample(self, now: float) -> None:
        """Periodic serve-level snapshot, exported into metrics + timeline."""
        obs = self.obs
        snapshot = {
            "t_s": now,
            "queue_len": len(self._queue),
            "running": self.running,
            "peak_tcam_entries": self.state.peak_entries_per_switch,
            "outstanding_links": len(self.link_outstanding),
        }
        self.obs_snapshots.append(snapshot)
        obs.registry.gauge("serve.queue_len.peak", "max").set(len(self._queue))
        obs.registry.gauge("serve.running.peak", "max").set(self.running)
        obs.registry.gauge("serve.tcam.peak_entries", "max").set(
            self.state.peak_entries_per_switch
        )
        tracer = obs.tracer
        tracer.sample("serve_queue_len", now, len(self._queue), "serve")
        tracer.sample("serve_running", now, self.running, "serve")
        tracer.sample(
            "serve_outstanding_links", now, len(self.link_outstanding), "serve"
        )

    # -- static state ----------------------------------------------------------

    def _preinstall_static_rules(self) -> None:
        """Deploy-once PEEL prefix rules on every switch; churn counters are
        zeroed afterwards so serving-time updates start at zero."""
        try:
            width = self.env.peel().identifier_width
        except (TypeError, ValueError):
            return  # fabric PEEL cannot plan on: no static rules to model
        keys = [
            ("prefix", value, length)
            for length in range(width + 1)
            for value in range(1 << length)
        ]
        self.state.preinstall(self.env.topo.switches, keys)
        self.state.reset_counters()

    # -- job intake ------------------------------------------------------------

    def submit(self, job: CollectiveJob) -> JobRecord:
        """Register one job; its admission decision happens at arrival time
        inside the simulation."""
        record = JobRecord(index=len(self.records), job=job)
        self.records.append(record)
        at = max(job.arrival_s, self.env.sim.now)
        self.env.sim.schedule_at(at, self._on_arrival, record)
        return record

    def submit_all(self, jobs: list[CollectiveJob]) -> list[JobRecord]:
        return [self.submit(job) for job in jobs]

    def run(self, until: float | None = None, max_events: int | None = None) -> int:
        """Drive the simulation (arrivals, collectives, completions)."""
        return self.env.run(until=until, max_events=max_events)

    def snapshot(self) -> "object":
        """Freeze the whole runtime — fabric, queue, records, TCAM state —
        into a :class:`repro.replay.Snapshot` at a safe point (between
        :meth:`run` calls); restore resumes the exact event sequence."""
        from ..replay import Snapshot

        return Snapshot.capture(self, sim=self.env.sim)

    # -- admission plumbing ----------------------------------------------------

    def demand_for(self, record: JobRecord) -> Demand | Entries:
        """The per-switch entries this job's group needs (cached)."""
        if record._demand is None:
            if not self.state_policy.per_group:
                record._demand = self._protection_demand(record)
            else:
                # The controller-view tree per-group schemes install along.
                group = record.job.group
                tree = _steiner_tree(
                    self.env, group.source.host, group.receiver_hosts
                )
                record._demand = self.state_policy.demand(
                    record.index, tree_switch_fanouts(tree)
                )
        return record._demand

    def _protection_demand(self, record: JobRecord) -> Demand | Entries:
        """Fast-failover entries a protected peel group pre-installs; the
        only *per-group* state a static-rule scheme has, so it rides the
        install/remove lifecycle (and admission cost) like per-group rules.
        Each group holds its own copy, so they are private entries."""
        if not self.protection or not self.scheme_name.startswith("peel"):
            return {}
        if not record.job.group.receiver_hosts:
            return {}
        protection = self._plan_for(record).protection
        if protection is None:
            return {}
        return Demand(private=protection.entry_counts)

    def _plan_for(self, record: JobRecord) -> "PeelPlan":
        """The job's peel plan, looked up once for its demand and its route
        edges."""
        if record._plan is None:
            group = record.job.group
            record._plan = self.env.plan_broadcast(
                group.source.host, group.receiver_hosts
            )
        return record._plan

    def route_edges_for(self, record: JobRecord) -> tuple:
        """Directed links this job's copies will cross (cached)."""
        if record._route_edges is None:
            group = record.job.group
            receivers = group.receiver_hosts
            if not receivers:
                record._route_edges = ()
            elif self.scheme_name.startswith("peel"):
                record._route_edges = self._plan_for(record).route_edges
            else:
                tree = _steiner_tree(self.env, group.source.host, receivers)
                record._route_edges = tuple(tree.edges)
        return record._route_edges

    # -- event handlers --------------------------------------------------------

    def _on_arrival(self, record: JobRecord) -> None:
        if not record.job.group.receiver_hosts:
            # Degenerate single-host group: nothing crosses the network.
            record.status = "done"
            record.admitted_s = self.env.sim.now
            record.completed_s = self.env.sim.now
            record.cct_s = 0.0
            return
        decision = self.admission.decide(record, self)
        if decision is Decision.ADMIT:
            self._launch(record)
        elif decision is Decision.QUEUE:
            if len(self._queue) >= self.max_queue:
                self._reject(record)
            else:
                record.status = "queued"
                self._queue.append(record)
                self.total_queued += 1
                self.peak_queue_len = max(self.peak_queue_len, len(self._queue))
        else:
            self._reject(record)

    def _launch(self, record: JobRecord) -> None:
        now = self.env.sim.now
        record.status = "running"
        record.admitted_s = now
        demand = self.demand_for(record)
        if demand:
            self.state.install_group(record.index, demand)
        msg = record.job.message_bytes
        for edge in self.route_edges_for(record):
            self.link_outstanding[edge] = self.link_outstanding.get(edge, 0) + msg
        record._plan = None  # the demand and route edges are all it served
        # Per-job ECMP streams key on the submit index, not launch order.
        self.env.job_seq = record.index
        handle = self.scheme.launch(self.env, record.job.group, msg, now)
        record.handle = handle
        self.running += 1
        if self.obs is not None:
            self.obs.track_collective(
                handle, f"{record.job.tenant}/job-{record.index}"
            )
        if handle.complete:
            self._on_collective_done(record, now)
        else:
            handle.on_complete = _JobCompletion(self, record)

    def _on_collective_done(self, record: JobRecord, now: float) -> None:
        record.status = "done"
        record.completed_s = now
        record.cct_s = record.handle.cct_s if record.handle is not None else 0.0
        self.running -= 1
        if self.obs is not None:
            tenant = record.job.tenant
            registry = self.obs.registry
            registry.histogram(f"serve.cct_s.{tenant}").observe(record.cct_s)
            registry.histogram(f"serve.queue_delay_s.{tenant}").observe(
                record.queue_delay_s
            )
            registry.counter(f"serve.completed.{tenant}").inc()
        if record._demand:
            self.state.remove_group(record.index)
        msg = record.job.message_bytes
        for edge in self.route_edges_for(record):
            remaining = self.link_outstanding.get(edge, 0) - msg
            if remaining > 0:
                self.link_outstanding[edge] = remaining
            else:
                self.link_outstanding.pop(edge, None)
        if self.on_job_done is not None:
            self.on_job_done(record, now)
        self._drain_queue()

    def _reject(self, record: JobRecord) -> None:
        record.status = "rejected"
        record._plan = None
        if self.obs is not None:
            self.obs.registry.counter(
                f"serve.rejected.{record.job.tenant}"
            ).inc()

    def _drain_queue(self) -> None:
        """Head-of-line retry: admit in FIFO order until the head must keep
        waiting (strict ordering, no overtaking)."""
        while self._queue:
            record = self._queue[0]
            decision = self.admission.decide(record, self)
            if decision is Decision.ADMIT:
                self._queue.popleft()
                self._launch(record)
            elif decision is Decision.REJECT:
                self._queue.popleft()
                self._reject(record)
            else:
                break

    # -- reporting -------------------------------------------------------------

    def finalize_checks(self) -> list:
        return self.env.finalize_checks()

    def report(self) -> ServeReport:
        """Per-tenant SLO summaries plus fabric accounting for the run."""
        stuck = [
            r for r in self.records if r.status in ("pending", "running", "queued")
        ]
        if stuck:
            raise RuntimeError(
                f"{len(stuck)} jobs still in flight; run() the simulation to "
                "completion (or reject them) before reporting"
            )
        tenants, total = summarize_tenants([r.row() for r in self.records])
        cache = self.env.plan_cache  # careful: an empty cache is falsy
        if self.obs is not None and not self._obs_folded:
            self._obs_folded = True  # report() may run more than once
            self.obs.observe_plan_cache(cache)
            registry = self.obs.registry
            registry.counter("serve.switch_updates").inc(self.state.total_updates)
            registry.counter("serve.tcam.overflow_events").inc(
                self.state.overflow_events
            )
            registry.gauge("serve.tcam.peak_entries", "max").set(
                self.state.peak_entries_per_switch
            )
            self.obs.finalize()
        return ServeReport(
            scheme=self.scheme_name,
            tenants=tenants,
            total=total,
            queued_jobs=self.total_queued,
            cache_hits=cache.hits if cache is not None else 0,
            cache_misses=cache.misses if cache is not None else 0,
            cache_invalidations=cache.invalidations if cache is not None else 0,
            switch_updates=self.state.total_updates,
            peak_entries_per_switch=self.state.peak_entries_per_switch,
            tcam_overflow_events=self.state.overflow_events,
        )


def serve_jobs(
    topo: Topology,
    scheme: str,
    jobs: list[CollectiveJob],
    config: SimConfig | None = None,
    **runtime_kwargs,
) -> tuple[ServeReport, ServeRuntime]:
    """Convenience one-shot: build a runtime, serve a job list, report."""
    runtime = ServeRuntime(topo, scheme, config, **runtime_kwargs)
    runtime.submit_all(jobs)
    runtime.run()
    violations = runtime.finalize_checks()
    if violations:
        raise RuntimeError(f"invariant violations during serving: {violations}")
    return runtime.report(), runtime
