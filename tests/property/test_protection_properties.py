"""Property tests: proactive protection plans are sound for random fabrics.

Two families, per the protection design (DESIGN.md "Protection"):

* *structural* — for random topologies and F in {1, 2}, every protected
  link has at least one pre-installed backup subtree; each backup avoids
  the link it protects, spans the primary tree's receivers from the
  source, and distinct alternatives are mutually edge-disjoint on
  switch-to-switch links;
* *behavioural* — cutting any fully-protected link mid-broadcast with the
  InvariantChecker in raise mode still delivers exactly-once to every
  receiver, recovers by local failover (no re-peel), and never trips a
  conservation/exactly-once invariant;
* *identity* — backups and diverse trees peeled on one residual adjacency
  equal those of a reference that peels each alternative with the
  networkx greedy on a fresh copy of the fabric.
"""

import random

import networkx as nx
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from repro.api import ScenarioSpec, run
from repro.collectives import Gpu, Group
from repro.core import Peel, diverse_trees
from repro.faults import FaultSchedule
from repro.sim import SimConfig
from repro.steiner import MulticastTree
from repro.topology import FatTree, LeafSpine, asymmetric
from repro.topology.addressing import NodeKind, kind_of
from repro.workloads import CollectiveJob

KB = 1024


def build_topo(kind):
    # Small fabrics with >= 2 disjoint spine/core paths, so any single
    # switch-to-switch link has residual diversity to protect with.
    if kind == "leafspine":
        return LeafSpine(2, 4, 2)
    return FatTree(4, hosts_per_tor=2)


def core_edges(tree):
    """Canonical switch-to-switch edges of a tree."""
    return {
        tuple(sorted((u, v)))
        for u, v in tree.edges
        if kind_of(u) is not NodeKind.HOST and kind_of(v) is not NodeKind.HOST
    }


def tree_uses(tree, link):
    u, v = link
    return tree.parent.get(v) == u or tree.parent.get(u) == v


@st.composite
def protected_plans(draw):
    """A random broadcast group planned with protection F in {1, 2}."""
    kind = draw(st.sampled_from(["leafspine", "fattree"]))
    resilience = draw(st.integers(min_value=1, max_value=2))
    seed = draw(st.integers(min_value=0, max_value=499))
    topo = build_topo(kind)
    rng = random.Random(seed)
    n = rng.randint(3, min(10, len(topo.hosts)))
    hosts = rng.sample(topo.hosts, n)
    planner = Peel(topo, resilience=resilience)
    plan = planner.plan(hosts[0], hosts[1:])
    return kind, topo, hosts, plan, resilience, seed


class TestProtectionStructure:
    @given(protected_plans())
    @settings(max_examples=15, deadline=None)
    def test_backups_edge_disjoint_and_spanning(self, case):
        _kind, _topo, hosts, plan, resilience, _seed = case
        protection = plan.protection
        assert protection is not None
        assert protection.resilience == resilience
        source, receivers = hosts[0], set(hosts[1:])
        for (tree_index, link), entry in protection.entries.items():
            primary = plan.static_trees[tree_index]
            assert tree_uses(primary, link) or tree_uses(
                primary, (link[1], link[0])
            )
            assert 1 <= len(entry.backups) <= resilience
            primary_hosts = {
                n for n in primary.nodes
                if kind_of(n) is NodeKind.HOST and n != source
            }
            seen_core: set = set()
            for backup in entry.backups:
                edges = core_edges(backup)
                # Edge-disjoint with the protected link itself...
                assert tuple(sorted(link)) not in edges
                # ...and with every earlier alternative (core links only).
                assert not (edges & seen_core)
                seen_core |= edges
                # Still spans the primary tree's receivers from the source.
                assert source in backup.nodes
                assert primary_hosts <= set(backup.nodes)
                assert primary_hosts <= receivers

    @given(protected_plans())
    @settings(max_examples=15, deadline=None)
    def test_every_core_link_of_these_fabrics_is_protected(self, case):
        # These reference fabrics always leave >= 1 residual disjoint path
        # around any single switch-to-switch link, so best-effort
        # protection must cover every core link of every primary tree.
        _kind, _topo, _hosts, plan, _resilience, _seed = case
        protection = plan.protection
        for index, tree in enumerate(plan.static_trees):
            for edge in core_edges(tree):
                assert protection.entry_for(index, *edge) is not None


@st.composite
def protected_cuts(draw):
    """A protected broadcast plus one cuttable fully-protected link."""
    kind, topo, hosts, plan, resilience, seed = draw(protected_plans())
    protection = plan.protection
    assume(protection.entries)
    # A link is fully protected when every primary tree crossing it has an
    # entry — only then is the failover all-or-nothing flip guaranteed.
    fully = []
    for link in sorted(protection.protected_links):
        using = [
            i for i, t in enumerate(plan.static_trees) if tree_uses(t, link)
        ]
        if using and all(
            protection.entry_for(i, *link) is not None for i in using
        ):
            fully.append(link)
    assume(fully)
    link = fully[draw(st.integers(min_value=0, max_value=len(fully) - 1))]
    return kind, hosts, link, resilience, seed


class TestProtectedCutDelivery:
    @given(protected_cuts())
    @settings(max_examples=12, deadline=None)
    def test_single_protected_cut_delivers_exactly_once(self, case):
        kind, hosts, link, resilience, seed = case
        topo = build_topo(kind)
        message = 512 * KB
        members = tuple(Gpu(h, 0) for h in hosts)
        job = CollectiveJob(0.0, Group(members[0], members), message)
        schedule = FaultSchedule().link_down(*link, at_s=15e-6)
        result = run(ScenarioSpec(
            topology=topo,
            scheme="peel",
            jobs=(job,),
            config=SimConfig(segment_bytes=64 * KB, seed=seed),
            check_invariants=True,
            fault_schedule=schedule,
            protection=resilience,
        ))
        # run() already raises unless every receiver finished; the checker
        # (raise mode) vetoes duplicate delivery — exactly-once both ways.
        assert result.invariant_violations == []
        assert len(result.ccts) == 1
        # The cut took the local path, never the detection-delayed re-peel.
        assert result.repeels == []
        assert [f.link for f in result.failovers] == [link]


# -- identity against a copy-based reference ----------------------------------
#
# The reference below is the planner as it was before peeling moved onto a
# residual adjacency: the §2.3 greedy over a networkx graph, and backup and
# diverse loops that peel each alternative on a fresh copy of the fabric.


def is_core_link(u, v):
    return kind_of(u) is not NodeKind.HOST and kind_of(v) is not NodeKind.HOST


def reference_peel(graph, source, dests):
    dests = [d for d in dict.fromkeys(dests) if d != source]
    if not dests:
        return MulticastTree(source, {})
    dist = nx.single_source_shortest_path_length(graph, source)
    layers = [set() for _ in range(max(dist.values()) + 1)]
    for node, d in dist.items():
        layers[d].add(node)
    for d in dests:
        if d not in dist:
            raise ValueError(f"destination {d!r} unreachable from {source!r}")
    in_tree = {source, *dests}
    parent = {}
    for level in range(max(dist[d] for d in dests) - 1, -1, -1):
        uncovered = set()
        for node in [n for n in layers[level + 1] if n in in_tree]:
            existing = [
                v for v in graph.neighbors(node)
                if v in layers[level] and v in in_tree
            ]
            if existing:
                parent.setdefault(node, min(existing))
            else:
                uncovered.add(node)
        while uncovered:
            best, best_cover = None, 0
            for node in sorted(layers[level]):
                if kind_of(node) is NodeKind.HOST:
                    continue
                cover = sum(1 for v in graph.neighbors(node) if v in uncovered)
                if cover > best_cover:
                    best, best_cover = node, cover
            if best is None:
                best = next(
                    n for n in sorted(layers[level])
                    if any(v in uncovered for v in graph.neighbors(n))
                )
            in_tree.add(best)
            for node in sorted(uncovered & set(graph.neighbors(best))):
                parent[node] = best
                uncovered.discard(node)
    return MulticastTree(source, parent)


def reference_backups(topo, source, hosts, protected, resilience):
    scratch = topo.copy()
    if scratch.graph.has_edge(*protected):
        scratch.graph.remove_edge(*protected)
    backups = []
    for _ in range(resilience):
        try:
            backup = reference_peel(scratch.graph, source, hosts)
        except ValueError:
            break
        backups.append(backup)
        for u, v in backup.edges:
            if is_core_link(u, v) and scratch.graph.has_edge(u, v):
                scratch.graph.remove_edge(u, v)
    return backups


def reference_protection(topo, trees, source, resilience):
    """``(tree index, link) -> backup parent maps`` for every entry."""
    entries = {}
    for index, tree in enumerate(trees):
        hosts = sorted(
            n for n in tree.nodes if kind_of(n) is NodeKind.HOST and n != source
        )
        if not hosts:
            continue
        for u, v in sorted(tree.edges):
            if not is_core_link(u, v):
                continue
            backups = reference_backups(topo, source, hosts, (u, v), resilience)
            if backups:
                entries[index, tuple(sorted((u, v)))] = [b.parent for b in backups]
    return entries


def reference_diverse(topo, source, dests, count):
    trees = [reference_peel(topo.graph, source, dests)]
    scratch = topo.copy()
    for _ in range(count - 1):
        for u, v in trees[-1].edges:
            if is_core_link(u, v) and scratch.graph.has_edge(u, v):
                scratch.graph.remove_edge(u, v)
        try:
            trees.append(reference_peel(scratch.graph, source, dests))
        except ValueError:
            break
    return trees


def stranding_leafspine():
    """``leaf:1`` keeps one spine link, so cutting it strands its hosts."""
    topo = LeafSpine(2, 4, 2)
    topo.fail_link("spine:0", "leaf:1")
    return topo


@st.composite
def asymmetric_groups(draw):
    """A random group on a randomly failed leaf-spine or fat-tree."""
    if draw(st.sampled_from(["leafspine", "fattree"])) == "leafspine":
        base = LeafSpine(
            draw(st.integers(2, 4)), draw(st.integers(2, 6)), draw(st.integers(1, 2))
        )
        # Up to half the spine links: some leaves keep one uplink, whose cut
        # strands every receiver under them.
        fraction = draw(st.sampled_from([0.15, 0.3, 0.5]))
    else:
        base = FatTree(4, hosts_per_tor=draw(st.integers(1, 2)))
        fraction = draw(st.sampled_from([0.1, 0.25, 0.4]))
    seed = draw(st.integers(0, 2**16))
    topo, _ = asymmetric(base, fraction, seed=seed)
    assume(not topo.is_symmetric)
    rng = random.Random(seed)
    hosts = rng.sample(topo.hosts, rng.randint(2, min(10, len(topo.hosts))))
    return topo, hosts[0], hosts[1:]


class TestResidualPlanningIdentity:
    @given(asymmetric_groups(), st.integers(1, 2))
    @example((stranding_leafspine(), "host:l0:0", ["host:l1:0", "host:l2:1"]), 1)
    @example((stranding_leafspine(), "host:l1:1", ["host:l0:0", "host:l3:0"]), 2)
    @settings(max_examples=40, deadline=None)
    def test_plan_matches_copy_based_reference(self, case, resilience):
        topo, source, dests = case
        plan = Peel(topo, resilience=resilience).plan(source, dests)
        assert plan.base_tree.parent == reference_peel(topo.graph, source, dests).parent
        got = {
            key: [b.parent for b in entry.backups]
            for key, entry in plan.protection.entries.items()
        }
        want = reference_protection(topo, plan.static_trees, source, resilience)
        assert got == want
        assert list(got) == list(want)

    @given(asymmetric_groups(), st.integers(1, 4))
    @example((stranding_leafspine(), "host:l0:0", ["host:l1:0", "host:l2:1"]), 3)
    @settings(max_examples=40, deadline=None)
    def test_diverse_trees_match_copy_based_reference(self, case, count):
        topo, source, dests = case
        got = [t.parent for t in diverse_trees(topo, source, dests, count)]
        want = [t.parent for t in reference_diverse(topo, source, dests, count)]
        assert got == want

    def test_stranding_cut_leaves_the_link_unprotected(self):
        """The reference fabric really strands: its single uplink gets no
        backup, both ways, while the other core links do."""
        topo = stranding_leafspine()
        source, dests = "host:l0:0", ["host:l1:0", "host:l2:1"]
        plan = Peel(topo, resilience=1).plan(source, dests)
        want = reference_protection(topo, plan.static_trees, source, 1)
        assert {key: [b.parent for b in e.backups]
                for key, e in plan.protection.entries.items()} == want
        stranded = ("leaf:1", "spine:1")
        assert any(
            tree_uses(t, stranded) for t in plan.static_trees
        )
        assert not plan.protection.protects(*stranded)
        assert plan.protection.entries
