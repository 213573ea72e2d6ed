"""In-network multicast broadcasts: the Optimal baseline and PEEL.

* :class:`OptimalBroadcast` — bandwidth-optimal Steiner-tree multicast
  (constructive optimum on symmetric fabrics, exact DP on small asymmetric
  groups, metric-closure otherwise).  An idealized scheme: no setup cost,
  single copy everywhere.
* :class:`PeelBroadcast` — PEEL static mode: one copy per prefix packet,
  zero setup (§3.2); optionally PEEL + programmable cores (§3.3): static
  start, then single-copy refined trees once the modelled controller
  finishes, at ``arrival + N(10ms, 5ms)``.
"""

from __future__ import annotations

from ..sim import Transfer
from ..steiner import MAX_EXACT_TERMINALS, exact_steiner_tree, metric_closure_tree
from .base import BroadcastScheme, CollectiveHandle, Group
from .env import CollectiveEnv
from .registry import register_scheme


def steiner_tree(topo, source: str, receivers: list[str]):
    """Best available multicast tree on ``topo`` (pass an env's *current*
    topology): the single-tree schemes' planner."""
    if topo.is_symmetric:
        from ..core import optimal_symmetric_tree

        return optimal_symmetric_tree(topo, source, receivers)
    if len(receivers) + 1 <= MAX_EXACT_TERMINALS:
        return exact_steiner_tree(topo.graph, source, receivers)
    return metric_closure_tree(topo.graph, source, receivers)


class SteinerReplan:
    """Fault replanner for single-tree multicast (picklable, no closure —
    replanners live in the fault injector's recovery registry, which must
    survive :mod:`repro.replay` checkpoints)."""

    __slots__ = ("env", "source")

    def __init__(self, env: CollectiveEnv, source: str) -> None:
        self.env = env
        self.source = source

    def __call__(self, remaining: list[str]) -> list:
        return [steiner_tree(self.env.topo, self.source, remaining)]


class PeelReplan:
    """Re-peel replanner: fresh static prefix trees for the unfinished
    receivers on the (already degraded) topology (§2.3)."""

    __slots__ = ("env", "source", "max_prefixes")

    def __init__(
        self, env: CollectiveEnv, source: str, max_prefixes: int | None
    ) -> None:
        self.env = env
        self.source = source
        self.max_prefixes = max_prefixes

    def __call__(self, remaining: list[str]) -> list:
        plan = self.env.peel(self.max_prefixes).plan(self.source, remaining)
        return plan.static_trees


@register_scheme(
    "optimal",
    description="bandwidth-optimal Steiner-tree multicast (idealized)",
)
class OptimalBroadcast(BroadcastScheme):
    """Bandwidth-optimal Steiner-tree multicast (idealized baseline)."""
    name = "optimal"
    shardable = True  # Steiner planning is RNG-free

    def launch(
        self,
        env: CollectiveEnv,
        group: Group,
        message_bytes: int,
        arrival_s: float,
    ) -> CollectiveHandle:
        handle = self._handle(env, group, message_bytes, arrival_s)
        receivers = group.receiver_hosts
        if not receivers:
            return handle
        source = group.source.host
        tree = steiner_tree(env.topo, source, receivers)
        transfer = Transfer(
            env.network,
            env.next_transfer_name("optimal"),
            source,
            message_bytes,
            [tree],
            start_at=arrival_s,
            on_host_done=handle.host_done,
        )
        handle.transfers.append(transfer)
        if env.fault_injector is not None:
            env.fault_injector.register(transfer, SteinerReplan(env, source))
        transfer.start()
        return handle


@register_scheme(
    "peel",
    params=("programmable_cores", "max_prefixes_per_fanout"),
    description="PEEL static prefix multicast (optionally + programmable cores)",
)
class PeelBroadcast(BroadcastScheme):
    """PEEL multicast; set ``programmable_cores=True`` for §3.3's two-stage
    refinement."""

    def __init__(
        self,
        programmable_cores: bool = False,
        max_prefixes_per_fanout: int | None = None,
    ) -> None:
        self.programmable_cores = programmable_cores
        self.max_prefixes_per_fanout = max_prefixes_per_fanout
        self.name = "peel+cores" if programmable_cores else "peel"

    @property
    def shardable(self) -> bool:
        # Refinement readiness draws the shared controller RNG at launch.
        return not self.programmable_cores

    def launch(
        self,
        env: CollectiveEnv,
        group: Group,
        message_bytes: int,
        arrival_s: float,
    ) -> CollectiveHandle:
        handle = self._handle(env, group, message_bytes, arrival_s)
        receivers = group.receiver_hosts
        if not receivers:
            return handle
        source = group.source.host
        plan = env.plan_broadcast(source, receivers, self.max_prefixes_per_fanout)

        refined_tree = None
        refinement_ready_at = None
        if self.programmable_cores:
            refined_tree = plan.refined_tree
            refinement_ready_at = arrival_s + env.controller.setup_delay()

        transfer = Transfer(
            env.network,
            env.next_transfer_name(self.name),
            source,
            message_bytes,
            plan.static_trees,
            refined_tree=refined_tree,
            refinement_ready_at=refinement_ready_at,
            receivers=set(receivers),
            start_at=arrival_s,
            on_host_done=handle.host_done,
        )
        handle.transfers.append(transfer)
        if env.fault_injector is not None:
            env.fault_injector.register(
                transfer, PeelReplan(env, source, self.max_prefixes_per_fanout)
            )
        if plan.protection is not None and plan.protection.entries:
            handle.protection = plan.protection
            if env.fault_injector is not None:
                env.fault_injector.protect(transfer, plan.protection)
        transfer.start()
        return handle
