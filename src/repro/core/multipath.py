"""Multicast vs multipath (§2.3's open question).

A single Steiner tree funnels the whole transfer onto one set of links,
while load balancers want bytes striped across many paths.  This module
explores the reconciliation the paper proposes: build several near-optimal
trees that overlap as little as possible and stripe segments across them.

On a symmetric fabric the trees are exact optima that differ in their
upper-tier choices (different aggregation group / core / spine per tree) —
same cost, disjoint trunks.  On asymmetric fabrics the greedy is re-run on
one residual adjacency with each tree's switch-to-switch links cut out
before the next (:func:`~repro.core.layer_peeling.peel_disjoint`, the loop
protection backups use too), so the trees share no switch-to-switch link.
"""

from __future__ import annotations

from ..steiner import MulticastTree, validate_tree
from ..topology import FatTree, LeafSpine, Topology
from ..topology import addressing as addr
from .layer_peeling import peel_disjoint, residual_adjacency


def diverse_trees(
    topo: Topology, source: str, destinations: list[str], count: int
) -> list[MulticastTree]:
    """Up to ``count`` near-optimal multicast trees with diverse cores.

    Always returns at least one tree; fewer than ``count`` when the fabric
    has less upper-tier diversity than requested.
    """
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    dests = [d for d in dict.fromkeys(destinations) if d != source]
    if not dests:
        return [MulticastTree(source, {})]
    if not topo.is_symmetric:
        return peel_disjoint(residual_adjacency(topo), source, dests, count)
    if isinstance(topo, LeafSpine):
        trees = _leafspine_variants(topo, source, dests, count)
    elif isinstance(topo, FatTree):
        trees = _fattree_variants(topo, source, dests, count)
    else:
        raise TypeError(f"unsupported topology: {type(topo).__name__}")
    for tree in trees:
        validate_tree(tree, topo.graph, source, dests)
    return trees


def tree_overlap(trees: list[MulticastTree]) -> float:
    """Fraction of (undirected) links used by more than one tree."""
    seen: dict[frozenset, int] = {}
    for tree in trees:
        for u, v in tree.edges:
            key = frozenset((u, v))
            seen[key] = seen.get(key, 0) + 1
    if not seen:
        return 0.0
    shared = sum(1 for n in seen.values() if n > 1)
    return shared / len(seen)


def _leafspine_variants(
    topo: LeafSpine, source: str, dests: list[str], count: int
) -> list[MulticastTree]:
    src_leaf = topo.tor_of(source)
    remote_leaves = sorted(
        {topo.tor_of(d) for d in dests if topo.tor_of(d) != src_leaf}
    )
    trees = []
    for spine in topo.spines[: max(1, count)]:
        parent: dict[str, str] = {src_leaf: source}
        for dest in dests:
            leaf = topo.tor_of(dest)
            parent[dest] = leaf
        if remote_leaves:
            if not all(topo.graph.has_edge(spine, l) for l in remote_leaves):
                continue
            if not topo.graph.has_edge(spine, src_leaf):
                continue
            parent[spine] = src_leaf
            for leaf in remote_leaves:
                parent[leaf] = spine
        trees.append(MulticastTree(source, parent))
        if len(trees) == count:
            break
    return trees or [MulticastTree(source, {})]


def _fattree_variants(
    topo: FatTree, source: str, dests: list[str], count: int
) -> list[MulticastTree]:
    """Vary the aggregation group (and the core within it) per tree."""
    src = addr.parse(source)
    src_tor = addr.tor_name(src.pod, src.tor)

    same_tor: list[str] = []
    pod_tors: dict[int, set[str]] = {}
    parent_base: dict[str, str] = {}
    for dest in dests:
        info = addr.parse(dest)
        tor = addr.tor_name(info.pod, info.tor)
        parent_base[dest] = tor
        if tor == src_tor:
            same_tor.append(dest)
        else:
            pod_tors.setdefault(info.pod, set()).add(tor)

    half = topo.k // 2
    trees = []
    for variant in range(min(count, half * half)):
        group, core_idx = divmod(variant, half)
        parent = dict(parent_base)
        parent[src_tor] = source
        remote_pods = [p for p in pod_tors if p != src.pod]
        local_tors = pod_tors.get(src.pod, set())
        if local_tors or remote_pods:
            src_agg = addr.agg_name(src.pod, group)
            parent[src_agg] = src_tor
            for tor in sorted(local_tors):
                parent[tor] = src_agg
            if remote_pods:
                core = addr.core_name(group, core_idx)
                parent[core] = src_agg
                for pod in sorted(remote_pods):
                    agg = addr.agg_name(pod, group)
                    parent[agg] = core
                    for tor in sorted(pod_tors[pod]):
                        parent[tor] = agg
        trees.append(MulticastTree(source, parent))
    return trees
