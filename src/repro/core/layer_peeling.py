"""The layer-peeling greedy Steiner heuristic for asymmetric Clos (§2.3).

Hop layers are peeled from the outside in.  On each layer the algorithm
greedily adds the switch that attaches the most still-unconnected tree nodes
of the layer above — mimicking the classical set-cover heuristic while
preserving a layered, loop-free structure.  Approximation factor:
``O(min(F, |D|))`` where ``F`` is the farthest destination's hop distance
(Theorem 2.5).

The greedy reads nothing but a ``node -> neighbours`` mapping, so planners
that need several trees which avoid each other (protection backups, diverse
trees) never copy the fabric: they cut links out of one residual adjacency
and peel again on it (:func:`peel_disjoint`).
"""

from __future__ import annotations

from collections.abc import Iterable

import networkx as nx

from ..steiner import MulticastTree, validate_tree
from ..topology import Topology, hop_layers
from ..topology.addressing import NodeKind, kind_of
from ..topology.layers import Adjacency, adjacency


def layer_peeling_tree(
    topo: Topology | nx.Graph | Adjacency,
    source: str,
    destinations: Iterable[str],
) -> MulticastTree:
    """Build an approximate multicast tree from ``source`` to the group.

    Works on any connected graph, symmetric or not, given as a topology, a
    networkx graph or a ``node -> neighbours`` mapping; the tree depends on
    the edge set alone.  Destinations must be reachable.  Hosts never act
    as transit nodes (only the source, the destinations, and switches may
    join the tree).
    """
    adj = adjacency(topo.graph if isinstance(topo, Topology) else topo)
    dests = [d for d in dict.fromkeys(destinations) if d != source]
    if not dests:
        return MulticastTree(source, {})

    layers = hop_layers(adj, source)
    depth = {node: j for j, layer in enumerate(layers) for node in layer}
    for d in dests:
        if d not in depth:
            raise ValueError(f"destination {d!r} unreachable from {source!r}")
    farthest = max(depth[d] for d in dests)

    in_tree: set[str] = {source, *dests}
    parent: dict[str, str] = {}

    for level in range(farthest - 1, -1, -1):
        layer = layers[level]
        anchors = layer & in_tree
        uncovered: set[str] = set()
        for node in sorted(layers[level + 1] & in_tree):
            hits = anchors.intersection(adj[node]) if anchors else None
            if hits:
                parent[node] = min(hits)
            else:
                uncovered.add(node)
        if uncovered:
            _cover(adj, layer, uncovered, parent, in_tree)

    tree = MulticastTree(source, parent)
    validate_tree(tree, adj, source, dests)
    return tree


def _cover(
    adj: Adjacency,
    layer: set[str],
    uncovered: set[str],
    parent: dict[str, str],
    in_tree: set[str],
) -> None:
    """Attach ``uncovered`` to nodes on ``layer``, greedy set cover (§2.3
    step 4a): take the switch adjacent to the most uncovered nodes, ties
    broken by name, until none is left.

    Every uncovered node has a BFS parent on ``layer``, so a cover always
    exists.  A host covers only where no switch can, which never happens
    while hosts are single-homed.
    """
    reach: dict[str, set[str]] = {}
    for node in uncovered:
        for cand in layer.intersection(adj[node]):
            reach.setdefault(cand, set()).add(node)
    switches = sorted(n for n in reach if kind_of(n) is not NodeKind.HOST)
    hosts = sorted(n for n in reach if kind_of(n) is NodeKind.HOST)
    while uncovered:
        best, covered = None, set()
        for cand in switches:
            hit = reach[cand] & uncovered
            if len(hit) > len(covered):
                best, covered = cand, hit
        if best is None:
            best = next(h for h in hosts if reach[h] & uncovered)
            covered = reach[best] & uncovered
        in_tree.add(best)
        for node in sorted(covered):
            parent[node] = best
        uncovered -= covered


def switch_links(tree: MulticastTree) -> list[tuple[str, str]]:
    """``tree``'s switch-to-switch edges, parent first.

    The only links another tree can route around: hosts are single-homed.
    """
    return [
        (u, v)
        for u, v in tree.edges
        if kind_of(u) is not NodeKind.HOST and kind_of(v) is not NodeKind.HOST
    ]


def residual_adjacency(topo: Topology) -> dict[str, set[str]]:
    """A ``node -> neighbour set`` copy of ``topo``'s links that
    :func:`peel_disjoint` cuts links out of (and restores)."""
    return {node: set(nbrs) for node, nbrs in topo.graph.adjacency()}


def peel_disjoint(
    residual: dict[str, set[str]],
    source: str,
    destinations: list[str],
    count: int,
    cut: Iterable[tuple[str, str]] = (),
) -> list[MulticastTree]:
    """Up to ``count`` peeled trees whose switch-to-switch links are
    pairwise disjoint.

    The ``cut`` links leave ``residual`` first; every tree's switch links
    then leave it before the next peel, so each tree avoids all of them.
    A first peel that misses a destination raises ``ValueError``; a later
    one ends the list (the residual's diversity is spent).  Every cut is
    restored on the way out, whatever happens.
    """
    trees: list[MulticastTree] = []
    removed: list[tuple[str, str]] = []
    try:
        while True:
            for u, v in cut:
                if v in residual.get(u, ()):
                    residual[u].remove(v)
                    residual[v].remove(u)
                    removed.append((u, v))
            try:
                trees.append(layer_peeling_tree(residual, source, destinations))
            except ValueError:
                if not trees:
                    raise
                return trees
            if len(trees) == count:
                return trees
            cut = switch_links(trees[-1])
    finally:
        for u, v in removed:
            residual[u].add(v)
            residual[v].add(u)


def peeled_tree_bound(tree: MulticastTree, destinations: Iterable[str]) -> int:
    """Lemma 2.3's upper bound ``|D| * F`` on the peeled tree size."""
    dests = list(dict.fromkeys(destinations))
    farthest = max((tree.depth_of(d) for d in dests if d in tree.nodes), default=0)
    return len(dests) * max(farthest, 1)
