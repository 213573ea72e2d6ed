"""Cutting one scenario into traffic-closed shards.

The unit of partitioning is a *zone*: every pod of a fat-tree (or leaf of
a leaf-spine) is one zone, and the core/spine tier is one more.  A job's
traffic is confined to the zones its group touches (plus the core when it
spans pods), a fault couples the zones on either side of its link, and a
churn event couples the joining/leaving host's zone to its job's zones.
Union-find over those couplings yields *traffic-closed components*: sets
of zones between which no simulated event ever needs to cross during the
run.  Components are dealt round-robin onto shards.

Because components are closed, no event ever needs another shard's
state: shards never wait on each other, and the lockstep windows that
advance them only pace the stream merge.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..topology.addressing import NodeKind, parse

__all__ = ["CORE_ZONE", "ShardPlan", "plan_partition", "zone_of"]

#: The single zone holding every core/spine switch.
CORE_ZONE = ("core", 0)

_CORE_KINDS = (NodeKind.CORE, NodeKind.SPINE)


def zone_of(name: str) -> tuple:
    """The partition zone a node name belongs to.

    Pods (fat-tree) and leaves (leaf-spine) map to ``("pod", i)``; every
    core or spine switch maps to the shared :data:`CORE_ZONE`.
    """
    addr = parse(name)
    kind = addr.kind
    if kind in _CORE_KINDS:
        return CORE_ZONE
    if kind is NodeKind.HOST:
        pod = addr.pod if addr.pod is not None else addr.tor
        return ("pod", pod)
    if kind in (NodeKind.AGG, NodeKind.TOR):
        return ("pod", addr.pod)
    if kind is NodeKind.LEAF:
        return ("pod", addr.index)
    raise ValueError(f"cannot zone node {name!r}")  # pragma: no cover


class _UnionFind:
    def __init__(self) -> None:
        self.parent: dict = {}

    def add(self, x) -> None:
        self.parent.setdefault(x, x)

    def find(self, x):
        parent = self.parent
        root = x
        while parent[root] != root:
            root = parent[root]
        while parent[x] != root:
            parent[x], x = root, parent[x]
        return root

    def union(self, a, b) -> None:
        self.add(a)
        self.add(b)
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[rb] = ra


@dataclass(frozen=True)
class ShardPlan:
    """Where every zone, job, fault and churn event runs.

    ``components`` lists the traffic-closed zone sets in canonical order
    (sorted by smallest zone); component ``i`` runs on shard
    ``i % shards``, so the assignment is a pure function of the spec —
    two runs of the same spec shard identically.
    """

    shards: int
    components: tuple[frozenset, ...]
    zone_shard: dict
    job_shard: tuple[int, ...]
    fault_shard: tuple[int, ...]
    churn_shard: tuple[int, ...]

    def shard_of_node(self, name: str) -> int:
        return self.zone_shard[zone_of(name)]

    def nodes_for(self, shard: int, topo) -> set[str]:
        """Every topology node whose zone is assigned to ``shard``."""
        zs = self.zone_shard
        return {n for n in topo.graph.nodes if zs[zone_of(n)] == shard}

    def jobs_for(self, shard: int) -> list[int]:
        return [g for g, s in enumerate(self.job_shard) if s == shard]


def _job_zones(job) -> set[tuple]:
    group = job.group
    zones = {zone_of(group.source.host)}
    for host in group.receiver_hosts:
        zones.add(zone_of(host))
    if len(zones) > 1:
        # A multi-pod group's trees climb through the core tier.
        zones.add(CORE_ZONE)
    return zones


def plan_partition(
    topo,
    jobs,
    shards: int,
    fault_schedule=None,
    churn=None,
) -> ShardPlan:
    """Assign zones/jobs/faults/churn to ``shards`` traffic-closed shards.

    Raises :class:`ShardPartitionError` when the coupling structure leaves
    fewer closed components than requested shards, or a churn event
    references a host no partition rule can co-locate with its job.
    """
    from .errors import ShardPartitionError

    if shards < 1:
        raise ShardPartitionError(f"shards must be >= 1, got {shards}")
    uf = _UnionFind()
    for node in topo.graph.nodes:
        uf.add(zone_of(node))

    job_anchor: list[tuple] = []
    for job in jobs:
        zones = sorted(_job_zones(job))
        anchor = zones[0]
        job_anchor.append(anchor)
        for other in zones[1:]:
            uf.union(anchor, other)

    fault_anchor: list[tuple] = []
    fault_events = tuple(fault_schedule) if fault_schedule is not None else ()
    for event in fault_events:
        target = event.target
        if len(target) == 1:
            # A switch drain downs every adjacent link: couple the
            # switch's zone with each neighbour's.
            anchor = zone_of(target[0])
            for neighbour in topo.graph.neighbors(target[0]):
                uf.union(anchor, zone_of(neighbour))
        else:
            anchor = zone_of(target[0])
            uf.union(anchor, zone_of(target[1]))
        fault_anchor.append(anchor)

    churn_events = tuple(churn) if churn is not None else ()
    churn_anchor: list[tuple] = []
    for event in churn_events:
        if not 0 <= event.group < len(job_anchor):
            raise ShardPartitionError(
                f"churn event targets job {event.group}, but the scenario "
                f"has {len(job_anchor)} jobs"
            )
        anchor = job_anchor[event.group]
        if event.host is not None:
            uf.union(anchor, zone_of(event.host))
        churn_anchor.append(anchor)

    groups: dict = {}
    for zone in uf.parent:
        groups.setdefault(uf.find(zone), set()).add(zone)
    components = tuple(
        frozenset(zones)
        for zones in sorted(groups.values(), key=lambda zs: min(zs))
    )
    if len(components) < shards:
        raise ShardPartitionError(
            f"workload couples the fabric into {len(components)} "
            f"traffic-closed component(s); cannot run {shards} shards. "
            "Sharding needs jobs confined to disjoint pods (multi-pod "
            "groups, core faults and spine-sharing leaf-spine fabrics all "
            "merge components)."
        )
    zone_shard: dict = {}
    for i, comp in enumerate(components):
        for zone in comp:
            zone_shard[zone] = i % shards
    return ShardPlan(
        shards=shards,
        components=components,
        zone_shard=zone_shard,
        job_shard=tuple(zone_shard[a] for a in job_anchor),
        fault_shard=tuple(zone_shard[a] for a in fault_anchor),
        churn_shard=tuple(zone_shard[a] for a in churn_anchor),
    )

