"""Incremental multicast-tree maintenance under membership churn.

The paper's elasticity story (§3.2) is that PEEL's static prefix rules make
group membership *cheap*: a joining ToR is usually already covered by some
prefix-packet tree, so the controller grafts the host locally instead of
re-planning.  This module is that controller logic, factored as pure
functions over :class:`~repro.steiner.tree.MulticastTree` lists: the
:class:`~repro.control.service.ControlPlane` applies them to running
collectives, and the hypothesis property test compares them against a
from-scratch re-peel directly:

* :func:`graft_host` — attach a joining host under its ToR when any
  installed tree already reaches it (the free case), else merge a shortest
  source path into a tree, else add an auxiliary unicast branch;
* :func:`prune_host` — detach a leaving host and strip the now-childless
  switch chain above it (other receivers' paths are never touched);
* :class:`ChurnPolicy` — when accumulated deltas warrant a full re-peel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import networkx as nx

from ..steiner import MulticastTree
from ..topology.addressing import NodeKind, kind_of

if TYPE_CHECKING:  # pragma: no cover
    from ..topology import Topology


class MembershipError(ValueError):
    """A membership operation that cannot be realized on the fabric."""


# -- tree surgery ---------------------------------------------------------------


def covered_hosts(trees: list[MulticastTree]) -> set[str]:
    """Every receiver host some tree currently delivers to."""
    out: set[str] = set()
    for tree in trees:
        out.update(
            n
            for n in tree.parent
            if kind_of(n) is NodeKind.HOST and n != tree.root
        )
    return out


def graft_host(
    topo: "Topology",
    trees: list[MulticastTree],
    source: str,
    host: str,
) -> tuple[list[MulticastTree], str]:
    """Attach ``host`` to the installed trees; returns ``(trees, kind)``.

    ``kind`` reports the cost class of the graft:

    * ``"noop"`` — some tree already delivers to the host;
    * ``"covered"`` — its ToR is on a tree, so the graft is one
      host-attachment edge (the paper's free case: the prefix rule at the
      ToR already matches);
    * ``"branch"`` — no tree reaches the ToR; a shortest source→host path
      is merged into the first conflict-free tree, or appended as an
      auxiliary unicast branch.  Branches accumulate toward the
      :class:`ChurnPolicy` full re-peel threshold.

    The input list is never mutated; modified trees are rebuilt.
    """
    if host == source:
        raise MembershipError("the source host cannot join its own group")
    if kind_of(host) is not NodeKind.HOST:
        raise MembershipError(f"{host!r} is not a host")
    for tree in trees:
        if host in tree.parent:
            return trees, "noop"
    try:
        tor = topo.tor_of(host)
    except ValueError as exc:  # detached from its ToR entirely
        raise MembershipError(
            f"joining host {host!r} is disconnected from the fabric"
        ) from exc
    for i, tree in enumerate(trees):
        if tor in tree.nodes:
            parent = dict(tree.parent)
            parent[host] = tor
            out = list(trees)
            out[i] = MulticastTree(tree.root, parent)
            return out, "covered"
    try:
        path = nx.shortest_path(topo.graph, source, host)
    except (nx.NetworkXNoPath, nx.NodeNotFound) as exc:
        raise MembershipError(
            f"no path from {source!r} to joining host {host!r} on the "
            "current fabric"
        ) from exc
    for i, tree in enumerate(trees):
        parent = dict(tree.parent)
        compatible = True
        for par, child in zip(path, path[1:]):
            if child == tree.root:
                compatible = False
                break
            existing = parent.get(child)
            if existing is not None and existing != par:
                compatible = False
                break
            parent[child] = par
        if compatible:
            out = list(trees)
            out[i] = MulticastTree(tree.root, parent)
            return out, "branch"
    branch = MulticastTree(
        source, {child: par for par, child in zip(path, path[1:])}
    )
    return [*trees, branch], "branch"


def prune_host(
    trees: list[MulticastTree], host: str
) -> tuple[list[MulticastTree], bool]:
    """Detach ``host`` from every tree; returns ``(trees, changed)``.

    The switch chain above the departed host is stripped exactly as far as
    it serves nobody else — nodes with surviving children (or the root)
    stop the walk, so concurrent receivers keep their paths bit-identical.
    Trees reduced to a bare root are dropped from the list entirely.
    """
    out: list[MulticastTree] = []
    changed = False
    for tree in trees:
        if host == tree.root:
            raise MembershipError("cannot prune a tree's source")
        if host not in tree.parent:
            out.append(tree)
            continue
        changed = True
        parent = dict(tree.parent)
        children: dict[str, set[str]] = {}
        for child, par in parent.items():
            children.setdefault(par, set()).add(child)
        if children.get(host):
            raise MembershipError(
                f"{host!r} relays to downstream nodes; only leaf receivers "
                "can be pruned"
            )
        node = parent.pop(host)
        children[node].discard(host)
        while (
            node != tree.root
            and not children.get(node)
            and kind_of(node) is not NodeKind.HOST
        ):
            par = parent.pop(node)
            children[par].discard(node)
            node = par
        if parent:
            out.append(MulticastTree(tree.root, parent))
    return out, changed


# -- re-peel policy -------------------------------------------------------------


@dataclass(frozen=True)
class ChurnPolicy:
    """When incremental maintenance should give way to a full re-peel.

    ``max_delta_fraction`` bounds accumulated grafts+prunes relative to the
    group size (0.5 → re-peel once half the group has churned since the
    last plan); ``max_branch_grafts`` bounds the expensive out-of-cover
    grafts, which degrade the trees toward unicast, independently of size.
    """

    max_delta_fraction: float = 0.5
    max_branch_grafts: int = 2

    def __post_init__(self) -> None:
        if self.max_delta_fraction <= 0:
            raise ValueError("max_delta_fraction must be positive")
        if self.max_branch_grafts < 0:
            raise ValueError("max_branch_grafts must be >= 0")

    def needs_full_repeel(
        self, ops_since_plan: int, branch_grafts: int, group_size: int
    ) -> bool:
        if branch_grafts > self.max_branch_grafts:
            return True
        budget = max(1, math.ceil(self.max_delta_fraction * max(group_size, 1)))
        return ops_since_plan > budget


MEMBERSHIP_COUNTERS = ("joins", "leaves", "grafts", "prunes", "full_repeels")
