"""Multicast tree validation: every builder's output goes through these."""

from __future__ import annotations

from collections.abc import Collection, Iterable, Mapping

import networkx as nx

from .tree import MulticastTree


class InvalidTreeError(ValueError):
    """Raised when a multicast tree violates a structural invariant."""


def validate_tree(
    tree: MulticastTree,
    graph: nx.Graph | Mapping[str, Collection[str]],
    source: str,
    destinations: Iterable[str],
) -> None:
    """Check that ``tree`` is a valid multicast tree for the group.

    ``graph`` is a networkx graph or a ``node -> neighbours`` mapping (the
    residual adjacency a planner peeled the tree on).

    Invariants:
    * rooted at ``source``;
    * every edge exists in the physical ``graph`` (no teleporting over
      failed links);
    * spans every destination;
    * acyclic and connected (enforced by :class:`MulticastTree` itself).

    Raises :class:`InvalidTreeError` on any violation.
    """
    if tree.root != source:
        raise InvalidTreeError(f"tree rooted at {tree.root!r}, expected {source!r}")
    has_edge = (
        graph.has_edge
        if isinstance(graph, nx.Graph)
        else lambda u, v: v in graph.get(u, ())
    )
    for u, v in tree.edges:
        if not has_edge(u, v):
            raise InvalidTreeError(f"tree uses non-existent link {u!r} -- {v!r}")
    nodes = tree.nodes
    missing = [d for d in destinations if d not in nodes]
    if missing:
        raise InvalidTreeError(f"tree misses destinations: {missing}")


def is_valid_tree(
    tree: MulticastTree,
    graph: nx.Graph | Mapping[str, Collection[str]],
    source: str,
    destinations: Iterable[str],
) -> bool:
    """Boolean form of :func:`validate_tree`."""
    try:
        validate_tree(tree, graph, source, destinations)
    except InvalidTreeError:
        return False
    return True


def prune_tree(tree: MulticastTree, keep: Iterable[str]) -> MulticastTree:
    """Drop branches that serve none of ``keep`` (the root always stays).

    Useful after a builder over-approximates: the result is the minimal
    subtree of ``tree`` spanning the root and ``keep``.
    """
    keep_set = set(keep)
    needed: set[str] = set()
    for node in keep_set:
        if node not in tree.nodes:
            raise InvalidTreeError(f"cannot keep {node!r}: not in tree")
        for step in tree.path_from_root(node):
            needed.add(step)
    parent = {n: p for n, p in tree.parent.items() if n in needed}
    return MulticastTree(tree.root, parent)
