"""Hop-layer computation for the layer-peeling heuristic (§2.3).

Layer ``l_j`` holds every node at BFS distance ``j`` from the source host.
Even in an asymmetric Clos, every node at distance ``j > 0`` has at least one
neighbor at distance ``j - 1`` (its BFS parent), which is the invariant the
greedy peeling relies on.

Both functions take a networkx graph or a plain ``node -> neighbours``
mapping, so planners can peel on a residual adjacency they cut links out
of without copying the fabric.
"""

from __future__ import annotations

from collections.abc import Collection, Iterable, Mapping

import networkx as nx

#: ``node -> neighbours``: the graph form every function here reads.
Adjacency = Mapping[str, Collection[str]]


def adjacency(graph: nx.Graph | Adjacency) -> Adjacency:
    """``graph`` as a ``node -> neighbours`` mapping: a networkx graph's own
    neighbour dicts (neither copied nor cached on the graph), any other
    mapping as it is."""
    return dict(graph.adjacency()) if isinstance(graph, nx.Graph) else graph


def hop_layers(graph: nx.Graph | Adjacency, source: str) -> list[set[str]]:
    """Concentric hop layers around ``source``.

    Returns ``layers`` with ``layers[j] = {v | dist(source, v) = j}``;
    unreachable nodes appear in no layer.  ``layers[0] == {source}``.
    """
    adj = adjacency(graph)
    if source not in adj:
        raise nx.NodeNotFound(f"Source {source} is not in G")
    seen = {source}
    layers = [{source}]
    while True:
        frontier: set[str] = set()
        for node in layers[-1]:
            frontier.update(adj[node])
        frontier -= seen
        if not frontier:
            return layers
        seen |= frontier
        layers.append(frontier)


def farthest_destination_layer(
    graph: nx.Graph | Adjacency, source: str, destinations: Iterable[str]
) -> int:
    """``F`` from §2.3: the hop distance of the farthest destination.

    Raises ``ValueError`` if any destination is unreachable from the source.
    """
    dist = {n: j for j, layer in enumerate(hop_layers(graph, source)) for n in layer}
    farthest = 0
    for d in destinations:
        if d not in dist:
            raise ValueError(f"destination {d!r} unreachable from {source!r}")
        farthest = max(farthest, dist[d])
    return farthest
