"""Optimal multicast trees in symmetric Clos fabrics (§2.1, Lemma 2.1).

In a failure-free fabric every edge switch reaches every upper-tier switch
with identical cost, so the upper tiers collapse into logical super-nodes
and the Steiner problem becomes multicast on a tree — solved by attaching
each destination edge switch to the super-node, in ``O(|D|)`` time.

For a two-tier leaf-spine the super-node is any single spine.  For a k-ary
fat-tree the same argument applies recursively: one aggregation switch per
pod and one core switch suffice, which is the paper's announced extension to
deeper fabrics.
"""

from __future__ import annotations

import zlib
from collections.abc import Iterable

from ..steiner import MulticastTree, validate_tree
from ..topology import FatTree, LeafSpine, Topology
from ..topology import addressing as addr


def _spread(source: str, buckets: int) -> int:
    """Deterministic per-source bucket choice (crc32, not the salted builtin
    ``hash``), so concurrent groups spread across equivalent aggs/cores/
    spines instead of funnelling through index 0."""
    if buckets <= 1:
        return 0
    return zlib.crc32(source.encode()) % buckets


class SymmetryError(ValueError):
    """Raised when an optimal-symmetric builder hits a failed link."""


def optimal_symmetric_tree(
    topo: Topology, source: str, destinations: Iterable[str]
) -> MulticastTree:
    """Dispatch to the right constructive builder for ``topo``.

    Only valid on symmetric (failure-free) fabrics: raises
    :class:`SymmetryError` if any link the construction needs is missing.
    """
    dests = [d for d in dict.fromkeys(destinations) if d != source]
    if isinstance(topo, LeafSpine):
        tree = _leafspine_tree(topo, source, dests)
    elif isinstance(topo, FatTree):
        tree = _fattree_tree(topo, source, dests)
    else:
        raise TypeError(f"unsupported topology type: {type(topo).__name__}")
    validate_tree(tree, topo.graph, source, dests)
    return tree


def _require_edge(topo: Topology, u: str, v: str) -> None:
    if not topo.graph.has_edge(u, v):
        raise SymmetryError(
            f"link {u!r} -- {v!r} missing; fabric is asymmetric, "
            "use the layer-peeling builder instead"
        )


def _pick_spine(topo: LeafSpine, leaves: set[str], source: str) -> str:
    """A spine with intact links to all needed leaves, chosen per-source so
    concurrent groups spread over the spine tier."""
    spines = topo.spines
    start = _spread(source, len(spines))
    for offset in range(len(spines)):
        spine = spines[(start + offset) % len(spines)]
        if all(topo.graph.has_edge(spine, leaf) for leaf in leaves):
            return spine
    raise SymmetryError("no spine reaches all destination leaves; asymmetric fabric")


def _leafspine_tree(
    topo: LeafSpine, source: str, dests: list[str]
) -> MulticastTree:
    src_leaf = topo.tor_of(source)
    parent: dict[str, str] = {}
    remote_leaves: set[str] = set()
    for dest in dests:
        leaf = topo.tor_of(dest)
        if leaf == src_leaf:
            parent[dest] = src_leaf
        else:
            remote_leaves.add(leaf)
            parent[dest] = leaf
    if source not in topo.graph:
        raise ValueError(f"unknown source {source!r}")
    parent[src_leaf] = source
    if remote_leaves:
        spine = _pick_spine(topo, remote_leaves | {src_leaf}, source)
        parent[spine] = src_leaf
        # Sorted, so the tree's edge order (which callers such as the fault
        # demos scan for a loaded link) does not vary with the hash seed.
        for leaf in sorted(remote_leaves):
            _require_edge(topo, spine, leaf)
            parent[leaf] = spine
    return MulticastTree(source, parent)


def _fattree_tree(topo: FatTree, source: str, dests: list[str]) -> MulticastTree:
    src = addr.parse(source)
    src_tor = addr.tor_name(src.pod, src.tor)
    parent: dict[str, str] = {src_tor: source}

    # Group destinations by pod and ToR.
    same_tor: list[str] = []
    pod_tors: dict[int, set[str]] = {}
    for dest in dests:
        info = addr.parse(dest)
        tor = addr.tor_name(info.pod, info.tor)
        if tor == src_tor:
            same_tor.append(dest)
        else:
            pod_tors.setdefault(info.pod, set()).add(tor)
        parent[dest] = tor

    remote_pods = [p for p in pod_tors if p != src.pod]
    local_tors = pod_tors.get(src.pod, set())

    # One aggregation group serves the whole tree: ToR -> agg g of the
    # source pod, core (g, j) across pods, agg g down in each pod.  In a
    # symmetric fabric every (g, j) choice is equivalent (Lemma 2.1's
    # super-node), so pick per source to spread concurrent groups.
    half = topo.k // 2
    group = _spread(source, half)
    if local_tors or remote_pods:
        src_agg = addr.agg_name(src.pod, group)
        _require_edge(topo, src_tor, src_agg)
        parent[src_agg] = src_tor
        for tor in sorted(local_tors):
            _require_edge(topo, src_agg, tor)
            parent[tor] = src_agg
        if remote_pods:
            core = addr.core_name(group, _spread(source + "#core", half))
            _require_edge(topo, core, src_agg)
            parent[core] = src_agg
            for pod in sorted(remote_pods):
                agg = addr.agg_name(pod, group)
                _require_edge(topo, core, agg)
                parent[agg] = core
                for tor in sorted(pod_tors[pod]):
                    _require_edge(topo, agg, tor)
                    parent[tor] = agg
    return MulticastTree(source, parent)


def optimal_symmetric_cost(
    topo: Topology, source: str, destinations: Iterable[str]
) -> int:
    """Cost (link count) of the optimal symmetric tree."""
    return optimal_symmetric_tree(topo, source, destinations).cost
