"""Unified scenario facade: one spec object, one ``run()`` call.

Every way of running a scenario in this repo — the figure scripts, the
CLI subcommands, the observability demo, the soak harness — goes through
this small, typed surface:

* :class:`ScenarioSpec` — a frozen description of *what* to run: fabric,
  scheme, jobs, simulator config, and the optional correctness tooling
  (invariants, fault schedule, golden trace, observability).
* :func:`run` — ``run(spec) -> ScenarioResult``, the one-call entry point.
* :class:`ScenarioRun` — the launched-but-unfinished middle state, exposed
  because it is the checkpoint seam: ``prepare -> run_until -> snapshot``
  lets :mod:`repro.replay` freeze a scenario mid-flight and resume it in
  another process (see DESIGN.md "Checkpoint/replay").

>>> from repro.api import ScenarioSpec, run
>>> from repro.collectives import SchemeSpec
>>> spec = ScenarioSpec(
...     topology=fabric, scheme=SchemeSpec("elmo", header_bytes=64), jobs=jobs
... )
>>> result = run(spec)
>>> result.stats.p99

``scheme`` accepts any form the scheme registry resolves: a
:class:`~repro.collectives.SchemeSpec`, a ``"name:param=value"`` string,
a bare registered name, or a live scheme instance.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from .collectives import BroadcastScheme, CollectiveEnv, SchemeSpec, resolve_scheme
from .faults import Failover, FaultSchedule, Repeel
from .metrics import CctStats, summarize_ccts
from .sim import SimConfig, Violation
from .topology import Topology
from .workloads import CollectiveJob

if TYPE_CHECKING:  # pragma: no cover
    from .obs import Observability
    from .replay import Snapshot

__all__ = [
    "MIN_SEGMENT_BYTES",
    "ReplayInfo",
    "ScenarioResult",
    "ScenarioRun",
    "ScenarioSpec",
    "run",
    "segment_bytes_for",
]

#: Below one MTU the simulator cannot segment (store-and-forward floor).
MIN_SEGMENT_BYTES = 1500


@dataclass(frozen=True)
class ScenarioSpec:
    """Everything one scenario run needs, as a frozen value.

    The spec itself is immutable (safe to share, hash by identity, stash in
    sweep points); the attached objects are *used*, not copied — except the
    topology, which is copied per-run whenever a ``fault_schedule`` is set,
    because dynamic faults mutate the planning graph.

    ``scheme`` takes anything the scheme registry resolves: a
    :class:`~repro.collectives.BroadcastScheme` instance, a frozen
    :class:`~repro.collectives.SchemeSpec`, or a string — a bare name
    (``"peel"``) or the parameterized ``"name:param=value"`` syntax
    (``"elmo:header_bytes=64"``); see
    :func:`repro.collectives.resolve_scheme`.

    ``event_digest`` additionally folds every fired simulator event into a
    rolling :class:`~repro.sim.engine.EventDigest` — the replay tests use
    it to prove a resumed run is event-for-event identical; it never
    changes behaviour, only observes it.

    Membership changes to running groups go through the control plane
    (:class:`repro.control.ControlPlane`), not through a scenario spec.
    """

    topology: Topology
    scheme: BroadcastScheme | SchemeSpec | str
    jobs: tuple[CollectiveJob, ...]
    config: SimConfig | None = None
    max_events: int | None = None
    check_invariants: bool = False
    fault_schedule: FaultSchedule | None = None
    record_trace: bool = False
    keep_trace_events: bool = False
    obs: "Observability | None" = None
    event_digest: bool = False
    #: Resilience level F: every protected link of a peel tree gets F
    #: pre-installed edge-disjoint backup subtrees; cuts on protected links
    #: fail over locally instead of waiting out the detection window.
    protection: int = 0
    #: Run the scenario across N parallel shards (see :mod:`repro.shard`):
    #: the fabric and workload are partitioned into traffic-closed slices
    #: advanced in lockstep windows, and the merged run is byte-identical
    #: to ``shards=1`` — same golden trace, same digests, same metrics
    #: exports.  Requires a partitionable spec (``run`` raises
    #: :class:`repro.shard.ShardError` otherwise, never degrades silently).
    shards: int = 1
    #: The invariant checker's deadlock watchdog schedules real simulator
    #: events; sharded runs (and their serial comparators) set this False so
    #: both sides fire the same event stream.
    invariant_watchdog: bool = True

    def __post_init__(self) -> None:
        # Accept any iterable of jobs; store the canonical tuple.
        object.__setattr__(self, "jobs", tuple(self.jobs))

    @property
    def scheme_name(self) -> str:
        """The scheme's registry name (canonical ``name:param=value`` form
        for a parameterized :class:`~repro.collectives.SchemeSpec`)."""
        if isinstance(self.scheme, str):
            return self.scheme
        if isinstance(self.scheme, SchemeSpec):
            return str(self.scheme)
        return self.scheme.name


@dataclass(frozen=True)
class ReplayInfo:
    """How a result was produced, checkpoint-wise.

    Attached to every :class:`ScenarioResult`: ``resumed`` is False for a
    straight-through run; after a :class:`~repro.replay.Snapshot` restore
    it records where the run picked back up.  ``event_digest`` is the hex
    digest of the fired-event sequence when the spec asked for one.
    """

    resumed: bool = False
    resumed_at_s: float | None = None
    snapshots_taken: int = 0
    events_processed: int = 0
    event_digest: str | None = None


@dataclass
class ScenarioResult:
    """Outcome of one scenario: CCT samples plus fabric-level accounting."""

    scheme: str
    ccts: list[float]
    total_bytes: int
    wasted_bytes: int
    pfc_pause_events: int
    invariant_violations: list[Violation] = field(default_factory=list)
    trace_digest: str | None = None
    failure_drops: int = 0
    repeels: list[Repeel] = field(default_factory=list)
    replay: ReplayInfo | None = None
    failovers: list[Failover] = field(default_factory=list)
    protection: int = 0
    #: Fast-failover entries pre-installed across the fabric, reported
    #: against the per-switch static-rule budget (the paper's k−1 bound).
    backup_tcam_entries: int = 0
    backup_tcam_peak_per_switch: int = 0
    static_rule_budget: int = 0
    #: Header bytes the scheme charged on the wire (source-routed schemes:
    #: encoding bytes × segments sent, retransmissions included); zero for
    #: schemes that carry no multicast encoding in the packet.
    header_overhead_bytes: int = 0
    #: Peak per-switch *per-group* forwarding entries any switch held
    #: (ip-multicast subsets, Elmo s-rule fallback, Orca group entries
    #: under serving); zero for stateless-dataplane schemes — the Fig 3
    #: switch-state axis.
    per_group_tcam_peak: int = 0
    stats: CctStats = field(init=False)

    def __post_init__(self) -> None:
        self.stats = summarize_ccts(self.ccts)


class ScenarioRun:
    """A scenario after launch, before completion — the checkpoint seam.

    Constructing one performs the whole setup sequence (copy topology
    under faults, build the env, attach observability, launch every job,
    track the handles), then stops at a safe point without processing any
    events.  From there:

    * :meth:`finish` drains the event queue and builds the result —
      ``ScenarioRun(spec).finish()`` is exactly :func:`run`;
    * :meth:`run_until` advances the clock partway, after which
      :meth:`snapshot` pickles the whole live object graph (simulator
      heap, fabric, transfers, RNGs, observers) for
      :class:`repro.replay.Snapshot` to resume — in this process or a
      fresh one.

    A run is single-use: :meth:`finish` may only be called once.
    """

    def __init__(self, spec: ScenarioSpec) -> None:
        self.spec = spec
        scheme = resolve_scheme(spec.scheme)
        self.scheme = scheme
        topo = spec.topology
        if spec.fault_schedule is not None:
            topo = topo.copy()  # dynamic faults mutate the planning topology
        self.env = CollectiveEnv(
            topo,
            spec.config,
            fault_schedule=spec.fault_schedule,
            check_invariants=spec.check_invariants,
            record_trace=spec.record_trace,
            keep_trace_events=spec.keep_trace_events,
            protection=spec.protection,
            invariant_watchdog=spec.invariant_watchdog,
        )
        if spec.event_digest:
            self.env.sim.attach_digest()
        obs = spec.obs
        if obs is not None:
            obs.attach(self.env.network)
        self.handles = []
        for i, job in enumerate(spec.jobs):
            # Per-job ECMP streams key on this index, not launch order.
            self.env.job_seq = i
            self.handles.append(
                scheme.launch(self.env, job.group, job.message_bytes, job.arrival_s)
            )
        if obs is not None:
            for handle in self.handles:
                obs.track_collective(handle)
        self.resumed_at_s: float | None = None
        self.snapshots_taken = 0
        self.finished = False

    # -- stepping ---------------------------------------------------------------

    def run_until(self, until: float) -> int:
        """Process events up to ``until`` (inclusive); returns the count.

        Leaves the run at a safe point — callable any number of times
        before :meth:`finish`, with a :meth:`snapshot` between any two.
        """
        if self.finished:
            raise RuntimeError("scenario already finished")
        return self.env.run(until=until)

    def snapshot(self) -> "Snapshot":
        """Freeze the entire run into a :class:`repro.replay.Snapshot`."""
        from .replay import Snapshot

        if self.finished:
            raise RuntimeError("cannot snapshot a finished scenario")
        self.snapshots_taken += 1
        return Snapshot.capture(self)

    def mark_resumed(self, at_s: float) -> None:
        """Called by :meth:`repro.replay.Snapshot.restore`: records where
        this run picked back up (surfaces in the result's ReplayInfo)."""
        self.resumed_at_s = at_s

    # -- completion -------------------------------------------------------------

    def finish(self) -> ScenarioResult:
        """Drain remaining events, finalize checks, build the result.

        Any ``max_events`` budget counts events processed *across* checkpoints
        (a resumed run inherits the simulator's processed count).
        """
        if self.finished:
            raise RuntimeError("scenario already finished")
        self.finished = True
        spec = self.spec
        env = self.env
        remaining = None
        if spec.max_events is not None:
            remaining = max(0, spec.max_events - env.sim.processed)
        env.run(max_events=remaining)
        obs = spec.obs
        if obs is not None:
            obs.observe_plan_cache(env.plan_cache)
            obs.finalize()
        violations = env.finalize_checks()
        unfinished = [h for h in self.handles if not h.complete]
        if unfinished:
            raise RuntimeError(
                f"{len(unfinished)} of {len(self.handles)} collectives never "
                f"completed ({self.scheme.name}); simulation stalled or "
                f"max_events too low"
            )
        digest = env.sim.event_digest
        return ScenarioResult(
            scheme=self.scheme.name,
            ccts=[h.cct_s for h in self.handles],
            invariant_violations=list(violations),
            trace_digest=env.trace.digest() if env.trace is not None else None,
            replay=ReplayInfo(
                resumed=self.resumed_at_s is not None,
                resumed_at_s=self.resumed_at_s,
                snapshots_taken=self.snapshots_taken,
                events_processed=env.sim.processed,
                event_digest=(
                    digest.hexdigest() if digest is not None else None
                ),
            ),
            protection=env.protection,
            **fabric_accounting(env, self.handles),
        )


#: :class:`ScenarioResult` fields that :func:`fabric_accounting` reports as
#: per-switch maxima; every other scalar it reports is a sum over the fabric.
PEAK_FIELDS = frozenset(
    ("backup_tcam_peak_per_switch", "static_rule_budget", "per_group_tcam_peak")
)


def fabric_accounting(env: CollectiveEnv, handles) -> dict:
    """The :class:`ScenarioResult` fields read off a finished environment:
    traffic counters, fault handling, header bytes and switch state.

    Scalars are sums over the fabric, except the :data:`PEAK_FIELDS`
    maxima, so traffic-closed shards merge their accounts field by field.
    """
    injector = env.fault_injector
    backups = env.protection_state
    return {
        "total_bytes": env.network.total_bytes_sent(),
        "wasted_bytes": env.network.wasted_bytes,
        "pfc_pause_events": env.network.pfc_pause_events,
        "failure_drops": env.network.failure_drops,
        "repeels": list(injector.repeels) if injector is not None else [],
        "failovers": list(injector.failovers) if injector is not None else [],
        "backup_tcam_entries": (
            sum(len(t) for t in backups.tables.values())
            if backups is not None
            else 0
        ),
        "backup_tcam_peak_per_switch": (
            backups.peak_entries_per_switch if backups is not None else 0
        ),
        "static_rule_budget": env.static_rule_budget() if env.protection else 0,
        "header_overhead_bytes": sum(
            t.header_bytes * (t.num_segments + t.retransmissions)
            for h in handles
            for t in h.transfers
            if t.header_bytes
        ),
        "per_group_tcam_peak": (
            env.group_state.peak_entries_per_switch
            if env.group_state is not None
            else 0
        ),
    }


def run(spec: ScenarioSpec) -> ScenarioResult:
    """Run every job in ``spec`` under its scheme on a fresh fabric.

    All jobs share the fabric, so concurrent collectives contend — this is
    how the Poisson-load experiments produce queueing and tail effects.
    Returns all CCTs plus fabric accounting; see :class:`ScenarioSpec` for
    the correctness tooling the spec can switch on.

    ``spec.shards > 1`` routes through :mod:`repro.shard`: the same
    scenario partitioned across parallel shard simulators, with a
    byte-identical result or a loud :class:`~repro.shard.ShardError`.
    """
    if spec.shards > 1:
        from .shard import run_sharded

        return run_sharded(spec)
    return ScenarioRun(spec).finish()


def segment_bytes_for(message_bytes: int, target_segments: int = 64) -> int:
    """Pick a store-and-forward granularity bounding event counts.

    Mid-sized messages use 64 KiB segments; large ones are split into about
    ``target_segments`` pieces so simulated event counts stay flat across
    the paper's 2 MB - 512 MB sweep (see DESIGN.md on granularity).  The
    granularity never exceeds the message itself (a 1 KiB message is one
    1 KiB segment, not a 64 KiB one) except for the one-MTU floor
    :class:`~repro.sim.config.SimConfig` requires — sub-MTU messages still
    travel as a single short segment.
    """
    if message_bytes <= 0:
        raise ValueError("message_bytes must be positive")
    granularity = max(65536, message_bytes // target_segments)
    return max(MIN_SEGMENT_BYTES, min(granularity, message_bytes))
