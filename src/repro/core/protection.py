"""Proactive F-resilient protection: pre-computed backup subtrees per link.

The reactive recovery story (:mod:`repro.faults`) detects a failure ~100 µs
after the fact and re-peels; this module moves the work to *plan time*, in
the style of OpenFlow Fast-Failover group tables.  For every protected link
of a primary peel tree the planner computes up to ``F`` mutually
edge-disjoint backup subtrees and records the extra per-switch entries they
cost.  When a protected link dies, the affected transfer flips to the first
healthy backup *at the cut event itself* — no detection delay, no
controller round trip — while unprotected cuts keep falling back to the
reactive re-peel.

A *protected link* is a switch-to-switch link of the primary tree: host
attachments are single-homed, so no backup subtree can route around them.
Backups are peeled on one residual adjacency per plan: the protected link
is cut out of it, :func:`~repro.core.layer_peeling.peel_disjoint` (the
loop :func:`repro.core.multipath.diverse_trees` uses too) peels and cuts
the alternatives, and every cut is restored before the next link.  Backup
computation is best effort — a fabric without enough residual diversity
simply leaves that link unprotected (reactive recovery still covers it).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..steiner import MulticastTree
from ..topology import Topology
from ..topology.addressing import NodeKind, kind_of
from .layer_peeling import peel_disjoint, residual_adjacency, switch_links


def _link_key(u: str, v: str) -> tuple[str, str]:
    """Canonical (sorted) undirected identity of a link."""
    return (u, v) if u <= v else (v, u)


@dataclass(frozen=True)
class BackupEntry:
    """Pre-installed fast-failover alternatives for one protected link.

    ``backups`` are ordered like the buckets of an OpenFlow Fast-Failover
    group: on a cut, the first alternative whose links are all healthy
    wins.  Alternatives are mutually edge-disjoint on switch-to-switch
    links and never use the protected link itself.
    """

    tree_index: int
    link: tuple[str, str]  # canonical (sorted) endpoints
    backups: tuple[MulticastTree, ...]


@dataclass
class ProtectionPlan:
    """Every backup subtree one peel plan pre-installs, plus its TCAM cost."""

    resilience: int
    #: ``(tree index, canonical link) -> BackupEntry``
    entries: dict[tuple[int, tuple[str, str]], BackupEntry] = field(
        default_factory=dict
    )
    #: switch -> fast-failover entries one group on this plan pre-installs
    #: there.  Derived from ``entries`` when the plan is built, so a cached
    #: plan carries the same counts as a fresh one.  Read-only: every group
    #: sharing the plan shares this dict.
    entry_counts: dict[str, int] = field(init=False)

    def __post_init__(self) -> None:
        self.entry_counts = _entry_counts(self.entries)

    def entry_for(self, tree_index: int, u: str, v: str) -> BackupEntry | None:
        return self.entries.get((tree_index, _link_key(u, v)))

    @property
    def protected_links(self) -> set[tuple[str, str]]:
        return {link for _idx, link in self.entries}

    def protects(self, u: str, v: str) -> bool:
        key = _link_key(u, v)
        return any(link == key for _idx, link in self.entries)

    # -- TCAM accounting -------------------------------------------------------

    def total_entries(self) -> int:
        return sum(self.entry_counts.values())

    def peak_entries_per_switch(self) -> int:
        return max(self.entry_counts.values(), default=0)


def _entry_counts(
    entries: dict[tuple[int, tuple[str, str]], BackupEntry],
) -> dict[str, int]:
    """One entry per replication point of every backup alternative: the
    granularity a fast-failover group table needs to flip one watched link
    without touching any other group's state.  Each group holds its own
    copy of these entries, so they are private to the group."""
    counts: dict[str, int] = {}
    for _key, entry in sorted(entries.items()):
        for backup in entry.backups:
            for switch in sorted(backup.children_map):
                if kind_of(switch) is not NodeKind.HOST:
                    counts[switch] = counts.get(switch, 0) + 1
    return counts


def build_protection(
    topo: Topology,
    trees: list[MulticastTree],
    source: str,
    resilience: int,
) -> ProtectionPlan:
    """Backup subtrees for every protectable link of the primary trees.

    Alternative ``j`` of a protected link is peeled toward the tree's own
    receivers on the fabric minus the protected link and the
    switch-to-switch links of alternatives ``0..j-1`` — so alternatives are
    mutually edge-disjoint and each avoids the link it protects.  Links
    whose removal disconnects some receiver get no (or fewer) backups.
    """
    if resilience < 1:
        raise ValueError(f"resilience must be >= 1, got {resilience}")
    residual = residual_adjacency(topo)
    entries: dict[tuple[int, tuple[str, str]], BackupEntry] = {}
    for index, tree in enumerate(trees):
        hosts = sorted(
            n for n in tree.nodes if kind_of(n) is NodeKind.HOST and n != source
        )
        if not hosts:
            continue
        for link in sorted(switch_links(tree)):
            try:
                backups = peel_disjoint(
                    residual, source, hosts, resilience, cut=[link]
                )
            except ValueError:
                continue  # the cut strands a receiver: reactive recovery only
            key = (index, _link_key(*link))
            entries[key] = BackupEntry(
                tree_index=index, link=key[1], backups=tuple(backups)
            )
    return ProtectionPlan(resilience=resilience, entries=entries)
