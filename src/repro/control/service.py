"""The persistent multicast control plane: groups that outlive collectives.

:class:`ControlPlane` wraps a :class:`~repro.serve.runtime.ServeRuntime`
with the piece the one-shot serving path lacks: *named, long-lived groups*
whose membership changes over time.  Tenants create a group once, then
submit collectives against it and join/leave hosts — including while a
collective is in flight.  The simulator is the service's clock: every
operation either applies at the current frontier or is scheduled as a
simulator event, so campaigns are byte-deterministic and the whole service
(groups, queue, fabric, in-flight transfers) checkpoints through the
:mod:`repro.replay` snapshot machinery.

Membership changes are *incremental* against the installed trees
(:func:`~repro.control.membership.graft_host` /
:func:`~repro.control.membership.prune_host`), falling back to a full
re-peel when the accumulated delta crosses the
:class:`~repro.control.membership.ChurnPolicy` threshold.  Each change
bumps the group's epoch, drops the affected
:class:`~repro.serve.cache.PlanCache` entries, and re-points per-group
TCAM state through :meth:`~repro.serve.state.FabricState.update_group`
so switch-update accounting reflects the true delta.

Not supported: ``protection > 0`` — fast-failover backup subtrees are
planned against launch-time trees, and grafted trees would silently void
the resilience guarantee, so the constructor refuses the combination.
"""

from __future__ import annotations

import dataclasses

from ..collectives.base import Gpu, Group
from ..serve.admission import AdmissionPolicy
from ..serve.runtime import JobRecord, ServeReport, ServeRuntime
from ..sim import SimConfig
from ..state import DEFAULT_CAPACITY
from ..topology import Topology
from ..workloads import CollectiveJob
from .membership import (
    MEMBERSHIP_COUNTERS,
    ChurnPolicy,
    graft_host,
    prune_host,
)


class ControlError(ValueError):
    """A control-plane request that cannot be honored."""


class ManagedGroup:
    """One long-lived multicast group the service manages."""

    __slots__ = ("gid", "tenant", "source", "members", "epoch", "active")

    def __init__(self, gid: int, tenant: str, source: str, members: set[str]):
        self.gid = gid
        self.tenant = tenant
        self.source = source
        #: Receiver hosts (source excluded).
        self.members = members
        #: Bumped on every join/leave; keys cache/state invalidation.
        self.epoch = 0
        #: Record indices of unfinished collectives submitted to this group.
        self.active: set[int] = set()

    def snapshot(self) -> dict:
        return {
            "gid": self.gid,
            "tenant": self.tenant,
            "source": self.source,
            "members": sorted(self.members),
            "epoch": self.epoch,
            "active": len(self.active),
        }


class ControlPlane:
    """Deterministic in-simulator multicast control-plane service.

    Synchronous core: every public method is safe to call between
    simulator events (the line-protocol server and the in-process client
    both funnel through here).  The object graph is picklable — scheduled
    callbacks are bound methods — so :meth:`snapshot` freezes a running
    campaign for SIGKILL-resume soaks.
    """

    def __init__(
        self,
        topo: Topology,
        scheme="peel",  # str | SchemeSpec | BroadcastScheme (see registry)
        config: SimConfig | None = None,
        admission: AdmissionPolicy | None = None,
        tcam_capacity: int = DEFAULT_CAPACITY,
        plan_cache=True,
        check_invariants: bool = False,
        obs=None,
        churn_policy: ChurnPolicy | None = None,
        protection: int = 0,
        replanner=None,
    ) -> None:
        if protection > 0:
            raise ControlError(
                "the control plane does not support protection > 0: "
                "fast-failover slots are bound to launch-time trees and "
                "membership grafts would void the F-resilience guarantee"
            )
        self.runtime = ServeRuntime(
            topo,
            scheme,
            config,
            admission=admission,
            tcam_capacity=tcam_capacity,
            plan_cache=plan_cache,
            check_invariants=check_invariants,
            obs=obs,
        )
        self.env = self.runtime.env
        # Mid-flight grafts backfill missed segments, which needs the
        # per-receiver bitmaps; must be set before any transfer exists.
        self.env.network.fault_tolerant = True
        self.policy = churn_policy or ChurnPolicy()
        self.groups: dict[int, ManagedGroup] = {}
        self._next_gid = 0
        #: record index -> owning gid (records submitted through a group).
        self._record_group: dict[int, int] = {}
        #: record index -> [ops_since_plan, branch_grafts] re-peel pressure.
        self._pressure: dict[int, list[int]] = {}
        self.counters = dict.fromkeys(
            MEMBERSHIP_COUNTERS + ("submits", "graft_rejects"), 0
        )
        #: Completion/operation stream, drained by protocol subscribers.
        self.events: list[dict] = []
        self.runtime.on_job_done = self._job_done
        self.replanner = replanner
        if replanner is not None:
            replanner.bind(self)

    # -- small plumbing ---------------------------------------------------------

    @property
    def sim(self):
        return self.env.sim

    @property
    def now(self) -> float:
        return self.env.sim.now

    def _count(self, name: str) -> None:
        self.counters[name] += 1
        if self.runtime.obs is not None:
            self.runtime.obs.registry.counter(f"membership.{name}").inc()

    def _emit(self, event: str, **fields) -> None:
        self.events.append({"event": event, "t_s": self.now, **fields})

    def _group(self, gid: int) -> ManagedGroup:
        group = self.groups.get(gid)
        if group is None:
            raise ControlError(f"unknown group {gid}")
        return group

    def _check_host(self, host: str) -> None:
        if host not in self.env.topo.hosts:
            raise ControlError(f"unknown host {host!r}")

    def _group_of(self, group: ManagedGroup) -> Group:
        members = [Gpu(group.source, 0)]
        members.extend(Gpu(h, 0) for h in sorted(group.members))
        return Group(source=Gpu(group.source, 0), members=tuple(members))

    # -- group lifecycle --------------------------------------------------------

    def create_group(
        self, tenant: str, source: str, members=()
    ) -> int:
        """Register a long-lived group; returns its id.  ``members`` are
        the initial receiver hosts (the source is implicit)."""
        self._check_host(source)
        receivers = set(members) - {source}
        for host in sorted(receivers):
            self._check_host(host)
        gid = self._next_gid
        self._next_gid += 1
        self.groups[gid] = ManagedGroup(gid, tenant, source, receivers)
        self._emit("group_created", group=gid, tenant=tenant, source=source,
                   members=sorted(receivers))
        return gid

    def submit(self, gid: int, message_bytes: int, at_s: float | None = None) -> int:
        """Submit one collective against the group's *current* membership;
        returns the runtime job index.  Until the job's arrival event fires,
        later membership changes still re-shape it."""
        group = self._group(gid)
        if message_bytes <= 0:
            raise ControlError("message_bytes must be positive")
        at = self.now if at_s is None else max(at_s, self.now)
        job = CollectiveJob(
            arrival_s=at,
            group=self._group_of(group),
            message_bytes=message_bytes,
            tenant=group.tenant,
        )
        record = self.runtime.submit(job)
        group.active.add(record.index)
        self._record_group[record.index] = gid
        self.counters["submits"] += 1
        self._emit("submitted", group=gid, job=record.index,
                   message_bytes=message_bytes, arrival_s=at)
        if self.replanner is not None:
            self.replanner.start()
        return record.index

    def join(self, gid: int, host: str, at_s: float | None = None) -> None:
        """Add ``host`` to the group, now or at a scheduled time.  Running
        collectives graft it mid-flight and backfill what it missed."""
        self._membership_op(gid, host, "join", at_s)

    def leave(self, gid: int, host: str, at_s: float | None = None) -> None:
        """Remove ``host``, now or at a scheduled time.  Running
        collectives prune it and stop waiting for its delivery."""
        self._membership_op(gid, host, "leave", at_s)

    def _membership_op(
        self, gid: int, host: str, op: str, at_s: float | None
    ) -> None:
        self._group(gid)  # fail fast on unknown groups
        self._check_host(host)
        if at_s is not None and at_s > self.now:
            self.sim.schedule_at(at_s, self._apply_membership, gid, host, op)
        else:
            self._apply_membership(gid, host, op)

    # -- membership application -------------------------------------------------

    def _apply_membership(self, gid: int, host: str, op: str) -> None:
        group = self._group(gid)
        if op == "join":
            if host == group.source or host in group.members:
                return  # idempotent
            group.members.add(host)
            self._count("joins")
        else:
            if host not in group.members:
                return  # idempotent
            group.members.discard(host)
            self._count("leaves")
        group.epoch += 1
        cache = self.env.plan_cache
        if cache is not None:
            # Folded into the obs `cache.invalidations` counter at report
            # time through observe_plan_cache, like fault-driven ones.
            cache.invalidate_hosts({host})
        self._emit(op, group=gid, host=host, epoch=group.epoch)
        # Scrub finished/rejected records, then re-shape the live ones.
        for index in sorted(group.active):
            record = self.runtime.records[index]
            if record.status in ("done", "rejected"):
                group.active.discard(index)
                continue
            if record.status in ("pending", "queued"):
                self._reshape_waiting(record, group)
            elif op == "join":
                self._graft_running(record, group, host)
            else:
                self._prune_running(record, host)

    def _reshape_waiting(self, record: JobRecord, group: ManagedGroup) -> None:
        """A not-yet-launched job simply gets the new group shape; its
        cached plan and the demand/route derivations from it are stale and
        recompute lazily."""
        record.job = dataclasses.replace(record.job, group=self._group_of(group))
        record._plan = None
        record._demand = None
        record._route_edges = None

    def _graft_running(
        self, record: JobRecord, group: ManagedGroup, host: str
    ) -> None:
        handle = record.handle
        if handle is None or handle.complete:
            return
        for transfer in handle.transfers:
            if (
                transfer.complete
                or host in transfer.receivers
                or host == transfer.src_host
            ):
                continue
            trees, kind = graft_host(
                self.env.topo, transfer.static_trees, transfer.src_host, host
            )
            pressure = self._pressure.setdefault(record.index, [0, 0])
            pressure[0] += 1
            if kind == "branch":
                pressure[1] += 1
            if self.policy.needs_full_repeel(
                pressure[0], pressure[1], len(transfer.receivers) + 1
            ):
                remaining = sorted(
                    (transfer.receivers - transfer.finished_hosts) | {host}
                )
                # Bypass the plan cache: these trees are transfer-specific
                # (remaining receivers only) and must not seed entries a
                # fresh full-group lookup could alias.
                trees = self.env.peel().plan(
                    transfer.src_host, remaining
                ).static_trees
                self._pressure[record.index] = [0, 0]
                self._count("full_repeels")
            else:
                self._count("grafts")
            if not self._charge_state(record, trees):
                # The graft's switch entries don't fit: this in-flight
                # collective completes to its old receiver set; the join
                # still shapes every subsequent submit.
                self.counters["graft_rejects"] += 1
                self._emit("graft_rejected", group=group.gid,
                           job=record.index, host=host)
                continue
            transfer.add_receiver(host)
            handle.add_pending(host)
            transfer.set_route_trees(trees)
            transfer.catch_up(host)

    def _prune_running(self, record: JobRecord, host: str) -> None:
        handle = record.handle
        if handle is None or handle.complete:
            return
        now = self.now
        for transfer in handle.transfers:
            if transfer.complete or host not in transfer.receivers:
                continue
            trees, changed = prune_host(transfer.static_trees, host)
            transfer.remove_receiver(host)
            if changed:
                self._count("prunes")
            self._charge_state(record, trees)
            if trees and not transfer.complete:
                transfer.set_route_trees(trees)
            # Last: may complete the collective (and free its accounting).
            handle.drop_pending(host, now)

    def _charge_state(self, record: JobRecord, trees) -> bool:
        """Re-point the record's per-group TCAM entries at the new trees.

        Per-group schemes (orca, ip-multicast) pay for the delta through
        :meth:`FabricState.update_group`; returns False when the fresh
        entries would overflow a switch.  Deploy-once schemes (peel) have
        nothing to charge.
        """
        runtime = self.runtime
        if not runtime.state_policy.per_group:
            return True
        from ..serve.state import tree_switch_fanouts

        fanouts = []
        for tree in trees:
            fanouts.extend(tree_switch_fanouts(tree))
        demand = runtime.state_policy.demand(record.index, fanouts)
        if not runtime.state.update_group(record.index, demand):
            return False
        record._demand = demand
        return True

    # -- job retirement ---------------------------------------------------------

    def _job_done(self, record: JobRecord, now: float) -> None:
        gid = self._record_group.get(record.index)
        self._pressure.pop(record.index, None)
        if gid is None:
            return
        group = self.groups.get(gid)
        if group is not None:
            group.active.discard(record.index)
        self._emit("job_done", group=gid, job=record.index,
                   tenant=record.job.tenant, cct_s=record.cct_s)

    # -- driving / reporting ----------------------------------------------------

    def advance(self, until: float | None = None, max_events: int | None = None) -> int:
        """Process simulator events (arrivals, transfers, churn, ticks)."""
        return self.runtime.run(until=until, max_events=max_events)

    def run(self) -> int:
        """Drain the simulation completely."""
        return self.runtime.run()

    def finalize_checks(self) -> list:
        return self.runtime.finalize_checks()

    def report(self) -> ServeReport:
        return self.runtime.report()

    def stats(self) -> dict:
        """Introspection snapshot for the ``stats`` protocol op."""
        out = {
            "t_s": self.now,
            "groups": [self.groups[g].snapshot() for g in sorted(self.groups)],
            "counters": dict(self.counters),
            "jobs": len(self.runtime.records),
            "running": self.runtime.running,
            "queued": len(self.runtime._queue),
        }
        if self.replanner is not None:
            out["replans"] = self.replanner.replans
        return out

    def drain_events(self, cursor: int = 0) -> tuple[list[dict], int]:
        """Event-stream entries at/after ``cursor`` plus the new cursor."""
        events = self.events[cursor:]
        return events, cursor + len(events)

    def snapshot(self):
        """Freeze the whole service (groups, queue, fabric, transfers) into
        a :class:`repro.replay.Snapshot` at a safe point."""
        from ..replay import Snapshot

        return Snapshot.capture(self, sim=self.sim)
