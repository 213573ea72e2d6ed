"""Shared runtime for collectives: the simulated fabric plus planners."""

from __future__ import annotations

import random
from typing import TYPE_CHECKING

from ..core import ControllerModel, Peel
from ..sim import InvariantChecker, Network, SimConfig, Simulator, TraceRecorder, UnicastRouter
from ..topology import Topology

if TYPE_CHECKING:  # pragma: no cover
    from ..core.peel import PeelPlan
    from ..faults import FaultInjector, FaultSchedule
    from ..serve.cache import PlanCache


class CollectiveEnv:
    """One simulation environment: network, router, PEEL planner, controller.

    All schemes launched into the same env share the fabric (and therefore
    contend for it), which is how the Poisson-arrival experiments create
    background load.

    Correctness tooling (all optional, see DESIGN.md "Correctness tooling"):

    * ``fault_schedule`` — a :class:`repro.faults.FaultSchedule` of dynamic
      link/switch faults, installed as :attr:`fault_injector` before any
      transfer exists (multicast schemes then self-register for re-peeling);
    * ``check_invariants`` — attach an
      :class:`~repro.sim.invariants.InvariantChecker` (:attr:`invariants`);
    * ``record_trace`` — attach a
      :class:`~repro.sim.trace.TraceRecorder` (:attr:`trace`) producing a
      deterministic golden-trace digest; ``keep_trace_events`` implies it
      and additionally retains the readable event log (what
      :func:`repro.replay.verify_scenario_replay` diffs to localize a
      divergence).

    ``plan_cache`` attaches a :class:`repro.serve.PlanCache`:
    :meth:`plan_broadcast` then reuses plans across repeated group shapes,
    and dynamic faults invalidate the cache through the observer layer.
    """

    def __init__(
        self,
        topo: Topology,
        config: SimConfig | None = None,
        controller: ControllerModel | None = None,
        fault_schedule: "FaultSchedule | None" = None,
        check_invariants: bool = False,
        record_trace: bool = False,
        keep_trace_events: bool = False,
        raise_on_violation: bool = True,
        plan_cache: "PlanCache | None" = None,
        protection: int = 0,
        sim: Simulator | None = None,
        invariant_watchdog: bool = True,
    ) -> None:
        if protection < 0:
            raise ValueError(f"protection must be >= 0, got {protection}")
        self.topo = topo
        #: Resilience level F: PEEL plans carry F edge-disjoint backup
        #: subtrees per protected link (0 = reactive recovery only).
        self.protection = protection
        #: Lazily-created :class:`repro.serve.state.FabricState` holding the
        #: fast-failover entries of every protected group (TCAM accounting).
        self.protection_state = None
        #: Lazily-created :class:`repro.serve.state.FabricState` holding
        #: *per-group* forwarding entries schemes install (ip-multicast
        #: subsets, Elmo's s-rule fallback).  Stays ``None`` for schemes
        #: that keep the fabric stateless — the Fig 3 axis.
        self.group_state = None
        self.config = config or SimConfig()
        self.network = Network(topo, self.config, sim)
        self.sim: Simulator = self.network.sim
        self.rng = random.Random(self.config.seed + 0x5EED)
        self.router = UnicastRouter(topo, random.Random(self.config.seed + 1))
        self.controller = controller or ControllerModel(
            rng=random.Random(self.config.seed + 2)
        )
        self._peel_planners: dict[int | None, Peel] = {}
        self._transfer_counter = 0
        #: Global index of the job currently being launched.  Every
        #: launcher (``ScenarioRun``, the shard builder, ``ServeRuntime``)
        #: sets it before ``scheme.launch`` so :meth:`ecmp_rng` streams
        #: depend only on ``(seed, job)`` — never on launch order.
        self.job_seq = 0

        self.invariants: InvariantChecker | None = None
        if check_invariants:
            self.invariants = InvariantChecker(
                self.network,
                raise_immediately=raise_on_violation,
                watchdog=invariant_watchdog,
            )
        self.trace: TraceRecorder | None = None
        if record_trace or keep_trace_events:
            self.trace = TraceRecorder(
                self.network, keep_events=keep_trace_events
            )
        self.plan_cache: "PlanCache | None" = None
        if plan_cache is not None:
            # Registered as an observer so dynamic faults invalidate it.
            self.plan_cache = plan_cache.attach(self.network)
        self.fault_injector: "FaultInjector | None" = None
        if fault_schedule is not None:
            from ..faults import FaultInjector

            self.fault_injector = FaultInjector(self, fault_schedule)

    def peel(self, max_prefixes_per_fanout: int | None = None) -> Peel:
        planner = self._peel_planners.get(max_prefixes_per_fanout)
        if planner is None:
            planner = Peel(
                self.topo, max_prefixes_per_fanout, resilience=self.protection
            )
            self._peel_planners[max_prefixes_per_fanout] = planner
        return planner

    def plan_broadcast(
        self,
        source: str,
        receivers: list[str],
        max_prefixes_per_fanout: int | None = None,
    ) -> "PeelPlan":
        """A PEEL plan for this group, via the plan cache when one is
        attached (repeated group shapes amortize planning cost)."""
        planner = self.peel(max_prefixes_per_fanout)
        if self.plan_cache is not None and max_prefixes_per_fanout is None:
            return self.plan_cache.get(planner, source, receivers)
        return planner.plan(source, receivers)

    def ecmp_rng(self) -> random.Random:
        """A fresh per-job RNG stream for ECMP tie-breaks.

        Seeded ``f"ecmp:{seed}:{job}"`` (string seeding hashes through
        SHA-512 — deterministic across processes), so the paths a job draws
        are identical whether it runs beside 0 or 10,000 other jobs.  This
        is what makes the ECMP-routed baselines (ring/tree/orca's relays)
        shardable: the shared router RNG stays untouched.
        """
        return random.Random(f"ecmp:{self.config.seed}:{self.job_seq}")

    def account_group_state(self, group_id: str, demand: dict) -> None:
        """Charge a scheme's *per-group* forwarding entries to the lazily
        created group-state ledger (plain switch tables, non-strict).
        Empty demand is free — the ledger is only materialized when a
        scheme actually installs state, so ``group_state is None`` is the
        honest zero for source-routed schemes."""
        if not demand:
            return
        from ..serve.state import FabricState

        if self.group_state is None:
            self.group_state = FabricState(strict=False)
        self.group_state.install_group(group_id, demand)

    def account_protection(self, group_id: str, protection) -> None:
        """Charge a protected group's fast-failover entries (its plan's
        per-switch counts) to the per-switch TCAM accounting (lazily
        created; plain switch tables, non-strict)."""
        from ..serve.state import Demand, FabricState

        if self.protection_state is None:
            self.protection_state = FabricState(strict=False)
        self.protection_state.install_group(
            group_id, Demand(private=protection.entry_counts)
        )

    def static_rule_budget(self) -> int:
        """The paper's per-switch static-rule budget (2^(w+1) − 1 prefix
        rules, i.e. the k−1 bound): the yardstick backup entries are
        reported against.  0 when the topology has no PEEL id space."""
        try:
            width = self.peel().identifier_width
        except (ValueError, AttributeError):
            return 0
        return (1 << (width + 1)) - 1

    def next_transfer_name(self, prefix: str) -> str:
        self._transfer_counter += 1
        return f"{prefix}-{self._transfer_counter}"

    def run(self, until: float | None = None, max_events: int | None = None) -> int:
        return self.sim.run(until=until, max_events=max_events)

    def finalize_checks(self) -> list:
        """Run the invariant checker's end-of-run sweep (no-op otherwise)."""
        if self.invariants is None:
            return []
        return self.invariants.finalize()
