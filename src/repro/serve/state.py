"""Fabric-wide switch-state accounting for concurrent multicast groups.

One :class:`~repro.state.tcam.TcamTable` per switch, plus the refcounting
and per-scheme installation policies the serving runtime and the
``state_churn`` experiment share.  Capacity, churn (``updates``) and
overflow accounting all live in :class:`TcamTable`; this module only
decides *which* entries each scheme needs:

* **peel** — ``k - 1`` prefix rules per switch, installed once at boot and
  never touched again (zero updates under any churn); a protected group
  adds its plan's fast-failover entries;
* **orca** — one per-group entry at every switch of the group's multicast
  tree, installed at admission and removed at completion;
* **ip-multicast** — one entry per *distinct* receiver subset a switch
  serves, refcounted across groups (best case for IP multicast).

An entry is *private* when its key names its group (Orca's and Elmo's
``("group", id)``; a protected group's fast-failover entries, which arrive
already counted): no other group can ever reference it, so it is counted
per switch rather than keyed.  Only *shared* entries (IP multicast's
``("subset", ...)``) keep their keys, refcounted across groups.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping

from ..state import DEFAULT_CAPACITY, TcamTable

#: Keyed entries of one group: switch -> entry keys to install there.
Entries = Mapping[str, Iterable[object]]


def _names_group(key: object) -> bool:
    return type(key) is tuple and len(key) > 1 and key[0] == "group"


@dataclass(frozen=True)
class Demand:
    """The switch entries one group needs.

    ``private`` counts, per switch, the entries only this group holds;
    ``shared`` lists, per switch, the keys other groups may hold too.
    Both mappings are read-only: groups on one plan share them.
    """

    private: Mapping[str, int] = field(default_factory=dict)
    shared: Mapping[str, frozenset] = field(default_factory=dict)

    def __bool__(self) -> bool:
        return bool(self.private or self.shared)

    @classmethod
    def of(cls, entries: "Demand | Entries") -> "Demand":
        """Split keyed entries: keys that name a group are private."""
        if isinstance(entries, Demand):
            return entries
        private: dict[str, int] = {}
        shared: dict[str, frozenset] = {}
        for switch, keys in entries.items():
            keys = frozenset(keys)
            mine = frozenset(key for key in keys if _names_group(key))
            if mine:
                private[switch] = len(mine)
            if keys - mine:
                shared[switch] = keys - mine
        return cls(private, shared)

    def per_switch(self) -> dict[str, int]:
        """Entries per switch, private and shared together."""
        out = dict(self.private)
        for switch, keys in self.shared.items():
            out[switch] = out.get(switch, 0) + len(keys)
        return out


class FabricState:
    """Per-switch TCAM tables holding every installed group's entries.

    Private entries are per-switch counts on the tables.  Shared entries
    are refcounted by ``(switch, key)``, so they install on the first
    reference and remove on the last.  ``install_group`` records each
    group's :class:`Demand` so ``remove_group`` can undo it without the
    caller re-deriving it.  Every method that takes a demand also takes
    keyed :data:`Entries`.
    """

    def __init__(self, capacity: int = DEFAULT_CAPACITY, strict: bool = False) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self.strict = strict
        self.tables: dict[str, TcamTable] = {}
        self._refs: dict[tuple[str, object], int] = {}
        self._groups: dict[object, Demand] = {}
        #: switch -> deploy-once entries that never leave (:meth:`preinstall`).
        self._static: dict[str, int] = {}

    def table(self, switch: str) -> TcamTable:
        try:
            return self.tables[switch]
        except KeyError:
            table = TcamTable(capacity=self.capacity, strict=self.strict)
            self.tables[switch] = table
            return table

    def preinstall(self, switches: Iterable[str], keys: Iterable[object]) -> None:
        """Install deploy-once entries on every switch.  They stay for the
        fabric's lifetime, so :meth:`feasible` leaves room for them."""
        keys = tuple(dict.fromkeys(keys))
        for switch in switches:
            table = self.table(switch)
            for key in keys:
                table.install(key)
            self._static[switch] = self._static.get(switch, 0) + len(keys)

    # -- group lifecycle -------------------------------------------------------

    def new_entries(self, demand: Demand | Entries) -> dict[str, int]:
        """Per-switch count of entries the demand would actually install
        (already-referenced shared entries are free)."""
        demand = Demand.of(demand)
        out = dict(demand.private)
        for switch, keys in demand.shared.items():
            fresh = sum(1 for k in keys if (switch, k) not in self._refs)
            if fresh:
                out[switch] = out.get(switch, 0) + fresh
        return out

    def fits(self, demand: Demand | Entries) -> bool:
        """Whether installing ``demand`` stays within every switch's TCAM."""
        for switch, count in self.new_entries(demand).items():
            if not self.table(switch).would_fit(count):
                return False
        return True

    def feasible(self, demand: Demand | Entries) -> bool:
        """Whether the demand could fit an *empty* fabric, one holding only
        its deploy-once entries (admission's distinction between "queue and
        wait" and "reject outright")."""
        return all(
            count <= self.capacity - self._static.get(switch, 0)
            for switch, count in Demand.of(demand).per_switch().items()
        )

    def install_group(self, group_id: object, demand: Demand | Entries) -> None:
        if group_id in self._groups:
            raise ValueError(f"group {group_id!r} already installed")
        demand = Demand.of(demand)
        self._install(demand)
        self._groups[group_id] = demand

    def update_group(self, group_id: object, demand: Demand | Entries) -> bool:
        """Re-point an installed group at a new demand, applying only the
        delta (entries that survive the change are never touched, so TCAM
        ``updates`` counts real churn, not a remove+reinstall).  Every
        increase is applied before any decrease, so ``peak`` sees the
        transient high-water mark.

        Returns False — leaving the old demand installed — when the fresh
        entries the new demand needs would not fit some switch; the caller
        treats that like a rejected admission.  Installing an unknown group
        is allowed (equivalent to :meth:`install_group`).
        """
        old = self._groups.get(group_id)
        if old is None:
            if not self.fits(demand):
                return False
            self.install_group(group_id, demand)
            return True
        new = Demand.of(demand)
        grown = _beyond(new, old)
        if not self.fits(grown):
            return False
        self._install(grown)
        self._remove(_beyond(old, new))
        self._groups[group_id] = new
        return True

    def remove_group(self, group_id: object) -> None:
        demand = self._groups.pop(group_id, None)
        if demand is not None:
            self._remove(demand)

    def _install(self, demand: Demand) -> None:
        for switch, count in demand.private.items():
            self.table(switch).install_counted(count)
        refs = self._refs
        for switch, keys in demand.shared.items():
            for key in keys:
                count = refs.get((switch, key), 0)
                if count == 0:
                    self.table(switch).install(key)
                refs[(switch, key)] = count + 1

    def _remove(self, demand: Demand) -> None:
        for switch, count in demand.private.items():
            self.tables[switch].remove_counted(count)
        refs = self._refs
        for switch, keys in demand.shared.items():
            for key in keys:
                refs[(switch, key)] -= 1
                if refs[(switch, key)] == 0:
                    del refs[(switch, key)]
                    self.tables[switch].remove(key)

    def reset_counters(self) -> None:
        """Zero churn counters (after boot-time pre-installs: deploy-once
        rules should not count as serving-time updates)."""
        for table in self.tables.values():
            table.updates = 0
            table.overflow_events = 0

    # -- aggregates ------------------------------------------------------------

    @property
    def peak_entries_per_switch(self) -> int:
        return max((t.peak for t in self.tables.values()), default=0)

    @property
    def total_updates(self) -> int:
        return sum(t.updates for t in self.tables.values())

    @property
    def overflow_events(self) -> int:
        return sum(t.overflow_events for t in self.tables.values())

    @property
    def overflowed(self) -> bool:
        return any(t.overflowed for t in self.tables.values())


def _beyond(demand: Demand, other: Demand) -> Demand:
    """The entries ``demand`` holds beyond ``other``, switch by switch."""
    private = {
        switch: count - other.private.get(switch, 0)
        for switch, count in demand.private.items()
        if count > other.private.get(switch, 0)
    }
    shared = {
        switch: keys - other.shared.get(switch, frozenset())
        for switch, keys in demand.shared.items()
        if not keys <= other.shared.get(switch, frozenset())
    }
    return Demand(private, shared)


# -- per-scheme policies -------------------------------------------------------


@dataclass(frozen=True)
class StatePolicy:
    """How a scheme maps one group onto switch entries.

    ``per_group`` distinguishes deploy-once schemes (PEEL: empty demand,
    nothing ever installed or removed per group) from per-group state
    (Orca, IP multicast).  ``static_rules`` marks the schemes whose
    deploy-once rules are PEEL prefix rules the runtime pre-installs at
    boot; source-routed schemes (Elmo, Bert, the Bloom-filter headers)
    are also ``per_group=False`` but carry their tree in the packet, so
    nothing is pre-installed for them.
    """

    name: str
    per_group: bool = True
    static_rules: bool = False

    def demand(self, group_id: object, tree_switch_fanouts) -> Entries:
        """Entries for one group given ``(switch, downstream-subset)`` pairs
        of its multicast tree (see :func:`tree_switch_fanouts`)."""
        raise NotImplementedError


class PeelStatePolicy(StatePolicy):
    """Deploy-once prefix rules: no per-group entries, ever.

    Also models any scheme without in-network group state (ring/tree host
    relays, the idealized optimal baseline) — pass the scheme's name.
    """

    def __init__(self, name: str = "peel") -> None:
        # Only actual peel variants pre-install prefix rules; stateless
        # dataplanes (relays, source routing) have nothing to deploy.
        super().__init__(
            name=name, per_group=False, static_rules=name.startswith("peel")
        )

    def demand(self, group_id: object, tree_switch_fanouts) -> Entries:
        return {}


class OrcaStatePolicy(StatePolicy):
    """One per-group entry at every switch the group's tree branches at."""

    def __init__(self) -> None:
        super().__init__(name="orca")

    def demand(self, group_id: object, tree_switch_fanouts) -> Entries:
        return {
            switch: [("group", group_id)]
            for switch, _subset in tree_switch_fanouts
        }


class IpMulticastStatePolicy(StatePolicy):
    """One entry per distinct downstream subset, shared across groups."""

    def __init__(self) -> None:
        super().__init__(name="ip-multicast")

    def demand(self, group_id: object, tree_switch_fanouts) -> Entries:
        out: dict[str, list] = {}
        for switch, subset in tree_switch_fanouts:
            out.setdefault(switch, []).append(("subset", subset))
        return out


def tree_switch_fanouts(tree) -> list[tuple[str, frozenset[str]]]:
    """(switch, frozenset-of-children) pairs for every replicating switch of
    a multicast tree — the entries a per-group dataplane would install."""
    from ..topology.addressing import NodeKind, kind_of

    out: list[tuple[str, frozenset[str]]] = []
    for node in sorted(tree.nodes):
        if kind_of(node) is NodeKind.HOST:
            continue
        children = tree.children(node)
        if children:
            out.append((node, frozenset(children)))
    return out


def policy_for(scheme: str) -> StatePolicy:
    """The switch-state policy a serving scheme implies."""
    if scheme.startswith("peel"):
        return PeelStatePolicy()
    if scheme.startswith("orca"):
        return OrcaStatePolicy()
    if scheme == "ip-multicast":
        return IpMulticastStatePolicy()
    # Host-relay schemes (ring, tree), the idealized optimal baseline and
    # the source-routed schemes (elmo, bert, rsbf, lipsin) keep no
    # per-group entries in this ledger; source-routed residual state (the
    # Elmo s-rule fallback) is charged to ``CollectiveEnv.group_state``
    # by the scheme itself at launch.
    return PeelStatePolicy(name=scheme)
