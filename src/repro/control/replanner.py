"""Congestion-aware replanning: move running groups off hot links.

:class:`CongestionReplanner` is the control plane's built-in app.  On a
fixed simulated-time cadence (the :class:`~repro.obs.fabric.PeriodicSampler`
pattern — the tick reschedules itself only while other events remain, so it
never keeps the loop alive on its own) it reads windowed link utilization
and ECN deltas straight off the fabric's port counters, flags switch-switch
links above threshold, and re-plans the trees of running collectives that
cross them: the hot links are masked out of the *planning* topology (the
live fabric is untouched), the remaining receivers are re-planned, and the
transfer adopts the new trees via
:meth:`~repro.sim.transfer.Transfer.set_route_trees` — copies already in
flight finish on the old path (nothing was lost, unlike a fault), while
every not-yet-injected segment rides the cold links.

Replans are charged like admissions: per-group schemes must fit the new
trees' switch entries through
:meth:`~repro.serve.state.FabricState.update_group`, and a delta that would
overflow a switch cancels the replan.  A per-group cooldown stops the app
from thrashing a group between two equally loaded paths.
"""

from __future__ import annotations

import networkx as nx

from ..topology.addressing import NodeKind, kind_of


class CongestionReplanner:
    """Watches port counters, re-plans running groups around hot links."""

    def __init__(
        self,
        interval_s: float = 200e-6,
        utilization_threshold: float = 0.7,
        ecn_threshold: int = 32,
        max_hot_links: int = 2,
        cooldown_s: float = 2e-3,
        persistence: int = 2,
    ) -> None:
        if interval_s <= 0:
            raise ValueError("interval_s must be positive")
        if not 0 < utilization_threshold <= 1:
            raise ValueError("utilization_threshold must be in (0, 1]")
        if persistence < 1:
            raise ValueError("persistence must be >= 1")
        self.interval_s = interval_s
        self.utilization_threshold = utilization_threshold
        self.ecn_threshold = ecn_threshold
        self.max_hot_links = max_hot_links
        self.cooldown_s = cooldown_s
        #: Consecutive hot scans required before a link is acted on.  One
        #: window over threshold is routinely a transient burst; replanning
        #: on it ping-pongs groups between equally loaded paths.
        self.persistence = persistence
        self.control = None
        self.replans = 0
        self.rejected = 0
        self.ticks = 0
        self._started = False
        self._last_scan_s = 0.0
        self._last_bytes: dict[tuple[str, str], int] = {}
        self._last_ecn: dict[tuple[str, str], int] = {}
        self._last_replan: dict[int, float] = {}
        self._hot_streak: dict[tuple[str, str], int] = {}

    def bind(self, control) -> None:
        """Attach to a :class:`~repro.control.service.ControlPlane`."""
        self.control = control

    # -- self-terminating tick --------------------------------------------------

    def start(self) -> None:
        """(Re)arm the tick; idempotent, called on every submit so the app
        wakes whenever there is work and dies with the event queue."""
        if self.control is None:
            raise RuntimeError("replanner is not bound to a control plane")
        if not self._started:
            self._started = True
            self.control.sim.post(self.interval_s, self._tick)

    def _tick(self) -> None:
        sim = self.control.sim
        self.ticks += 1
        self._scan(sim.now)
        # Stop on "no unresolved jobs" rather than "no pending events": the
        # obs sampler uses the latter, and two self-rescheduling tickers
        # each seeing the other's pending entry would keep an idle loop
        # alive forever.  Every submit re-arms us via start().
        if any(
            r.status in ("pending", "queued", "running")
            for r in self.control.runtime.records
        ):
            sim.post(self.interval_s, self._tick)
        else:
            self._started = False

    # -- hot-link detection -----------------------------------------------------

    def _scan(self, now: float) -> None:
        window = now - self._last_scan_s
        self._last_scan_s = now
        network = self.control.env.network
        hot: list[tuple[float, int, tuple[str, str]]] = []
        for key in sorted(network.ports):
            port = network.ports[key]
            delta_bytes = port.bytes_sent - self._last_bytes.get(key, 0)
            delta_ecn = port.ecn_marks - self._last_ecn.get(key, 0)
            self._last_bytes[key] = port.bytes_sent
            self._last_ecn[key] = port.ecn_marks
            if window <= 0:
                continue
            # Only inter-switch links are avoidable; a congested host
            # attachment has no alternative path to route around.
            if (
                kind_of(key[0]) is NodeKind.HOST
                or kind_of(key[1]) is NodeKind.HOST
            ):
                continue
            utilization = delta_bytes * 8 / (port.capacity_bps * window)
            if (
                utilization >= self.utilization_threshold
                or delta_ecn >= self.ecn_threshold
            ):
                streak = self._hot_streak.get(key, 0) + 1
                self._hot_streak[key] = streak
                if streak >= self.persistence:
                    hot.append((utilization, delta_ecn, key))
            else:
                self._hot_streak.pop(key, None)
        if not hot or window <= 0:
            return
        hot.sort(key=lambda item: (-item[0], -item[1], item[2]))
        hot_links = [key for _, _, key in hot[: self.max_hot_links]]
        self._replan_groups(now, hot_links)

    # -- replanning -------------------------------------------------------------

    def _replan_groups(self, now: float, hot_links: list[tuple[str, str]]) -> None:
        control = self.control
        hot_set = set(hot_links)
        for gid in sorted(control.groups):
            group = control.groups[gid]
            if now - self._last_replan.get(gid, -1.0) < self.cooldown_s:
                continue
            for index in sorted(group.active):
                record = control.runtime.records[index]
                if record.status != "running" or record.handle is None:
                    continue
                for transfer in record.handle.transfers:
                    if transfer.complete:
                        continue
                    edges = {
                        e for tree in transfer.static_trees for e in tree.edges
                    }
                    if not edges & hot_set:
                        continue
                    if self._replan_transfer(record, transfer, hot_links):
                        self._last_replan[gid] = now
                        self._note(gid, transfer, hot_links, now)

    def _replan_transfer(self, record, transfer, hot_links) -> bool:
        control = self.control
        env = control.env
        remaining = sorted(transfer.receivers - transfer.finished_hosts)
        if not remaining:
            return False
        topo = env.topo
        masked: list[tuple[str, str]] = []
        # Mask hot links out of the *planning* graph only — the live fabric
        # keeps forwarding, and no observer (so no plan-cache invalidation)
        # fires.  Nothing else runs inside this callback, and the planner is
        # called directly (never through the cache), so the degraded graph
        # cannot leak into a cached plan.
        for u, v in hot_links:
            if topo.graph.has_edge(u, v):
                topo.fail_link(u, v)
                masked.append((u, v))
        try:
            if control.runtime.scheme_name.startswith("peel"):
                trees = env.peel().plan(transfer.src_host, remaining).static_trees
            else:
                from ..collectives.multicast import steiner_tree

                trees = [steiner_tree(env.topo, transfer.src_host, remaining)]
        except (ValueError, nx.NetworkXNoPath, nx.NodeNotFound):
            self.rejected += 1
            return False
        finally:
            for u, v in masked:
                topo.restore_link(u, v)
        if not control._charge_state(record, trees):
            self.rejected += 1
            return False
        # set_route_trees, not reroute: nothing was lost — copies already in
        # flight on the hot path still arrive, only not-yet-injected segments
        # move to the cold links.  reroute's re-multicast of every injected
        # segment is for blackholes and would double the load we're relieving.
        transfer.set_route_trees(trees)
        self.replans += 1
        return True

    def _note(self, gid: int, transfer, hot_links, now: float) -> None:
        control = self.control
        control._emit(
            "replanned",
            group=gid,
            transfer=transfer.name,
            avoided=[list(link) for link in hot_links],
        )
        obs = control.runtime.obs
        if obs is not None:
            obs.registry.counter("control.replans").inc()
            obs.tracer.instant(
                f"replan {transfer.name} avoiding "
                + ", ".join(f"{u}--{v}" for u, v in hot_links),
                now,
                "control",
            )
