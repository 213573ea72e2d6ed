"""Dynamic fault injection: failing the fabric *while* collectives run.

:mod:`repro.topology.failures` removes links before a scenario starts; this
module breaks things mid-collective, which is where multicast dataplanes
actually earn their keep (§2.3, Fig. 7).  A :class:`FaultSchedule` is a
timeline of :class:`FaultEvent` actions — link down/up flaps, whole-switch
drains (DoR maintenance), transient segment drops — and a
:class:`FaultInjector` installs it on a
:class:`~repro.collectives.env.CollectiveEnv`:

* at each event time the runtime network is updated (downed ports blackhole
  traffic; queued and on-the-wire copies die) and the planning topology is
  kept in sync, so any tree built after the event routes around the damage;
* transfers registered for recovery (the multicast schemes register
  automatically) are *re-peeled*: after a detection delay the scheme's
  planner rebuilds trees for the still-unfinished receivers on the degraded
  topology, and :meth:`repro.sim.transfer.Transfer.reroute` re-multicasts
  whatever the failure ate;
* transient drops are repaired by the transfers' selective-repeat machinery
  (tracking is forced on for every transfer while an injector is
  installed).

Ring and binary-tree relay chains are *not* registered — a broken relay
pipeline is exactly the fragility the paper's multicast argument is about —
so a schedule that severs a relay path will surface as an unfinished
collective rather than being silently papered over.

Schedules serialize to/from JSON (see :meth:`FaultSchedule.from_json`)::

    [{"at_ms": 2.0, "action": "link_down", "link": ["spine:0", "leaf:3"]},
     {"at_ms": 5.0, "action": "link_up",   "link": ["spine:0", "leaf:3"]},
     {"at_ms": 1.0, "action": "switch_down", "switch": "spine:1"},
     {"at_ms": 3.0, "action": "drop", "link": ["leaf:0", "spine:1"], "count": 2}]
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, NamedTuple

if TYPE_CHECKING:  # pragma: no cover
    from .collectives.env import CollectiveEnv
    from .core.protection import ProtectionPlan
    from .sim.transfer import Transfer
    from .steiner import MulticastTree

LINK_DOWN = "link_down"
LINK_UP = "link_up"
SWITCH_DOWN = "switch_down"
SWITCH_UP = "switch_up"
DROP = "drop"

ACTIONS = frozenset({LINK_DOWN, LINK_UP, SWITCH_DOWN, SWITCH_UP, DROP})

#: Replans routes to the still-unfinished receivers on the (already
#: degraded) topology; returns the new route trees.
ReplanFn = Callable[[list[str]], "list[MulticastTree]"]


class Repeel(NamedTuple):
    """One successful mid-run re-peel.

    Tuple-compatible with the historical ``(time_s, transfer, link)``
    entries — existing unpacking code keeps working — but with named,
    typed fields for :class:`repro.api.ScenarioResult`.
    """

    time_s: float
    transfer: str
    link: tuple[str, str]


class Failover(NamedTuple):
    """One successful *local* fast-failover: a protected link died and the
    affected transfer flipped to its pre-installed backup subtree at the cut
    event itself — zero detection delay, no re-plan (cf. :class:`Repeel`,
    the reactive path)."""

    time_s: float
    transfer: str
    link: tuple[str, str]


class _ProtectedTransfer:
    """Fast-failover group state for one transfer (picklable, no closures —
    this lives in the fault injector, which must survive replay snapshots).

    One *slot* per static tree of the transfer's plan: ``[tree,
    primary_index, entry_key]`` where ``entry_key`` is ``None`` while the
    slot still runs its primary tree and the owning
    ``(tree_index, protected_link)`` key once it switched to a backup.
    """

    __slots__ = ("transfer", "plan", "slots")

    def __init__(self, transfer: "Transfer", plan: "ProtectionPlan") -> None:
        self.transfer = transfer
        self.plan = plan
        self.slots: list[list] = [
            [tree, index, None]
            for index, tree in enumerate(transfer.static_trees)
        ]

    @staticmethod
    def _uses(tree: "MulticastTree", u: str, v: str) -> bool:
        return tree.parent.get(v) == u or tree.parent.get(u) == v

    def try_failover(self, u: str, v: str, ports) -> "list[MulticastTree] | None":
        """The transfer's new tree list if *every* slot crossing the dead
        link has a healthy pre-installed backup; ``None`` hands the cut to
        the reactive re-peel path."""
        if self.transfer.complete:
            return None
        affected = [s for s in self.slots if self._uses(s[0], u, v)]
        if not affected:
            return None
        flips: list[tuple[list, tuple, "MulticastTree"]] = []
        for slot in affected:
            _tree, primary, entry_key = slot
            if entry_key is None:
                entry = self.plan.entry_for(primary, u, v)
                key = None if entry is None else (primary, entry.link)
            else:
                # Already on a backup: the same fast-failover group's next
                # live bucket takes over (no new watch entry for backups).
                entry = self.plan.entries.get(entry_key)
                key = entry_key
            backup = None
            if entry is not None:
                for candidate in entry.backups:
                    if all(not ports[edge].down for edge in candidate.edges):
                        backup = candidate
                        break
            if backup is None:
                return None  # some slot is unprotected: reactive fallback
            flips.append((slot, key, backup))
        for slot, key, backup in flips:
            slot[0] = backup
            slot[2] = key
        return [slot[0] for slot in self.slots]


@dataclass(frozen=True, order=True)
class FaultEvent:
    """One scheduled fabric fault (times are simulated seconds)."""

    at_s: float
    action: str
    target: tuple[str, ...]  # (u, v) for link actions, (switch,) for drains
    count: int = 1  # DROP only: how many copies to kill

    def __post_init__(self) -> None:
        if self.at_s < 0:
            raise ValueError(f"fault time must be >= 0, got {self.at_s}")
        if self.action not in ACTIONS:
            raise ValueError(
                f"unknown fault action {self.action!r}; choose from "
                f"{sorted(ACTIONS)}"
            )
        want = 1 if self.action in (SWITCH_DOWN, SWITCH_UP) else 2
        if len(self.target) != want:
            raise ValueError(
                f"{self.action} needs {want} target node(s), got {self.target}"
            )
        if self.count < 1:
            raise ValueError("count must be >= 1")

    def to_dict(self) -> dict:
        out: dict = {"at_ms": self.at_s * 1e3, "action": self.action}
        if self.action in (SWITCH_DOWN, SWITCH_UP):
            out["switch"] = self.target[0]
        else:
            out["link"] = list(self.target)
        if self.action == DROP and self.count != 1:
            out["count"] = self.count
        return out

    @classmethod
    def from_dict(cls, raw: dict) -> "FaultEvent":
        """One event from its JSON form; any malformed event raises
        ValueError."""
        if not isinstance(raw, dict):
            raise ValueError(f"fault event must be a JSON object: {raw!r}")
        try:
            if "at_s" in raw:
                at_s = float(raw["at_s"])
            elif "at_ms" in raw:
                at_s = float(raw["at_ms"]) / 1e3
            else:
                raise ValueError(f"fault event needs at_s or at_ms: {raw!r}")
            action = raw.get("action")
            if action in (SWITCH_DOWN, SWITCH_UP):
                target = (str(raw["switch"]),)
            else:
                link = raw.get("link")
                if not link or len(link) != 2:
                    raise ValueError(f"fault event needs a 2-node link: {raw!r}")
                target = (str(link[0]), str(link[1]))
            count = int(raw.get("count", 1))
        except (KeyError, TypeError) as exc:
            raise ValueError(f"malformed fault event {raw!r}: {exc!r}") from exc
        return cls(at_s, str(action), target, count)


class FaultTargetError(ValueError):
    """A fault schedule names a link or switch the fabric lacks."""


@dataclass
class FaultSchedule:
    """An ordered timeline of fabric faults."""

    events: list[FaultEvent] = field(default_factory=list)

    def __post_init__(self) -> None:
        self.events = sorted(self.events)

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self):
        return iter(self.events)

    # -- builders -------------------------------------------------------------

    def add(self, event: FaultEvent) -> "FaultSchedule":
        self.events.append(event)
        self.events.sort()
        return self

    def link_down(self, u: str, v: str, at_s: float) -> "FaultSchedule":
        return self.add(FaultEvent(at_s, LINK_DOWN, (u, v)))

    def link_up(self, u: str, v: str, at_s: float) -> "FaultSchedule":
        return self.add(FaultEvent(at_s, LINK_UP, (u, v)))

    def link_flap(
        self, u: str, v: str, down_at_s: float, up_at_s: float
    ) -> "FaultSchedule":
        """Down at ``down_at_s``, back up at ``up_at_s``."""
        if up_at_s <= down_at_s:
            raise ValueError("link must come back up after it goes down")
        return self.link_down(u, v, down_at_s).link_up(u, v, up_at_s)

    def switch_drain(self, switch: str, at_s: float) -> "FaultSchedule":
        """DoR-style maintenance: every link of ``switch`` goes down."""
        return self.add(FaultEvent(at_s, SWITCH_DOWN, (switch,)))

    def switch_restore(self, switch: str, at_s: float) -> "FaultSchedule":
        return self.add(FaultEvent(at_s, SWITCH_UP, (switch,)))

    def drop_segments(
        self, u: str, v: str, at_s: float, count: int = 1
    ) -> "FaultSchedule":
        """Transient fault: the next ``count`` copies on ``u -> v`` die."""
        return self.add(FaultEvent(at_s, DROP, (u, v), count))

    def validate(self, topo) -> None:
        """Raise :class:`FaultTargetError` if an event names what ``topo`` lacks."""
        for event in self.events:
            if event.action in (SWITCH_DOWN, SWITCH_UP):
                if event.target[0] not in topo.graph:
                    raise FaultTargetError(f"unknown switch {event.target[0]!r}")
            elif not topo.graph.has_edge(*event.target):
                raise FaultTargetError("no such link: {!r} -- {!r}".format(*event.target))

    # -- (de)serialization ----------------------------------------------------

    def to_json(self) -> str:
        return json.dumps([e.to_dict() for e in self.events], indent=2)

    @classmethod
    def from_json(cls, text: str) -> "FaultSchedule":
        raw = json.loads(text)
        if not isinstance(raw, list):
            raise ValueError("fault schedule JSON must be a list of events")
        return cls([FaultEvent.from_dict(item) for item in raw])

    @classmethod
    def load(cls, path) -> "FaultSchedule":
        with open(path, encoding="utf-8") as fh:
            return cls.from_json(fh.read())

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.to_json())
            fh.write("\n")


class FaultInjector:
    """Binds a :class:`FaultSchedule` to a running collective environment.

    Created by :class:`~repro.collectives.env.CollectiveEnv` when a schedule
    is supplied; not normally constructed directly.  ``detection_delay_s``
    models the gap between a link dying and the control plane reacting
    (BFD/LLDP-scale, default 100 µs).
    """

    def __init__(
        self,
        env: "CollectiveEnv",
        schedule: FaultSchedule,
        detection_delay_s: float = 100e-6,
    ) -> None:
        if detection_delay_s < 0:
            raise ValueError("detection_delay_s must be >= 0")
        self.env = env
        self.schedule = schedule
        self.detection_delay_s = detection_delay_s
        self._recovery: list[tuple["Transfer", ReplanFn]] = []
        self._protection: list[_ProtectedTransfer] = []
        #: One :class:`Repeel` per successful re-peel.
        self.repeels: list[Repeel] = []
        #: One :class:`Failover` per successful local fast-failover.
        self.failovers: list[Failover] = []
        self.events_fired = 0
        # Transfers must track per-receiver segments from birth so a
        # mid-stream loss is repairable.
        env.network.fault_tolerant = True
        schedule.validate(env.topo)
        for event in schedule:
            env.sim.schedule_at(event.at_s, self._fire, event)

    # -- recovery registry -----------------------------------------------------

    def register(self, transfer: "Transfer", replan: ReplanFn) -> None:
        """Arrange for ``transfer`` to be re-peeled when a fault hits its
        route trees; ``replan`` maps unfinished receivers to fresh trees."""
        self._recovery.append((transfer, replan))

    def protect(self, transfer: "Transfer", plan: "ProtectionPlan | None") -> None:
        """Arm ``transfer`` with pre-installed backup subtrees: cuts hitting
        a protected link of its trees flip to the backup locally, at the cut
        event, instead of waiting out the detection delay."""
        if plan is None or not plan.entries:
            return
        self._protection.append(_ProtectedTransfer(transfer, plan))

    # -- event firing ----------------------------------------------------------

    def _fire(self, event: FaultEvent) -> None:
        self.events_fired += 1
        if event.action == LINK_DOWN:
            self._link_down(*event.target)
        elif event.action == LINK_UP:
            self._link_up(*event.target)
        elif event.action == SWITCH_DOWN:
            for nbr in self._switch_links(event.target[0]):
                self._link_down(event.target[0], nbr)
        elif event.action == SWITCH_UP:
            for nbr in self._switch_links(event.target[0]):
                self._link_up(event.target[0], nbr)
        elif event.action == DROP:
            self.env.network.drop_next_segments(*event.target, count=event.count)

    def _switch_links(self, switch: str) -> list[str]:
        """All physical neighbors of a switch (from the static port map)."""
        return sorted(
            dst for (src, dst) in self.env.network.ports if src == switch
        )

    def _link_down(self, u: str, v: str) -> None:
        network = self.env.network
        if network.ports[u, v].down:
            return
        network.set_link_down(u, v)
        topo = self.env.topo
        if topo.graph.has_edge(u, v):
            topo.fail_link(u, v)
        self._local_failover(u, v)
        self.env.sim.schedule(self.detection_delay_s, self._replan_around, (u, v))

    def _local_failover(self, u: str, v: str) -> None:
        """Fast-failover at the cut event itself: protected transfers whose
        trees cross the dead link flip to pre-installed backups with zero
        replan latency.  The detection-delayed :meth:`_replan_around` still
        fires but skips them (their new trees avoid the link), so protected
        cuts never show up as re-peels."""
        network = self.env.network
        for prot in self._protection:
            trees = prot.try_failover(u, v, network.ports)
            if trees is None:
                continue
            prot.transfer.reroute(trees)
            self.failovers.append(
                Failover(self.env.sim.now, prot.transfer.name, (u, v))
            )
            if network.observers:
                for ob in network.observers:
                    ob.on_failover(prot.transfer, (u, v))

    def _link_up(self, u: str, v: str) -> None:
        network = self.env.network
        if not network.ports[u, v].down:
            return
        network.set_link_up(u, v)
        if not self.env.topo.graph.has_edge(u, v):
            self.env.topo.restore_link(u, v)
        for transfer, _replan in self._recovery:
            transfer.nudge()

    def _replan_around(self, link: tuple[str, str]) -> None:
        u, v = link
        if not self.env.network.ports[u, v].down:
            return  # flapped back up before detection
        for transfer, replan in self._recovery:
            if transfer.complete or not self._routes_use(transfer, u, v):
                continue
            remaining = sorted(transfer.receivers - transfer.finished_hosts)
            if not remaining:
                continue
            transfer.reroute(replan(remaining))
            self.repeels.append(Repeel(self.env.sim.now, transfer.name, (u, v)))

    @staticmethod
    def _routes_use(transfer: "Transfer", u: str, v: str) -> bool:
        trees = list(transfer.static_trees)
        if transfer.refined_tree is not None:
            trees.append(transfer.refined_tree)
        return any(
            tree.parent.get(v) == u or tree.parent.get(u) == v for tree in trees
        )
