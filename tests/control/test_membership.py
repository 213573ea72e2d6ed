"""Pure membership machinery: graft/prune tree surgery, churn policy."""

import pytest

from repro.control import (
    ChurnPolicy,
    MembershipError,
    covered_hosts,
    graft_host,
    prune_host,
)
from repro.core import Peel
from repro.steiner import MulticastTree
from repro.topology import LeafSpine


def topo8() -> LeafSpine:
    return LeafSpine(2, 4, 2)


def plan_trees(topo, source, receivers):
    return Peel(topo).plan(source, sorted(receivers)).static_trees


class TestGraft:
    def test_existing_receiver_is_a_noop(self):
        topo = topo8()
        h = topo.hosts
        trees = plan_trees(topo, h[0], [h[1], h[2]])
        out, kind = graft_host(topo, trees, h[0], h[1])
        assert kind == "noop"
        assert out is trees

    def test_covered_graft_attaches_under_the_tor(self):
        # host:l1:1's ToR (leaf:1) is already on the tree serving host:l1:0,
        # so the graft is exactly one host-attachment edge (the free case).
        topo = topo8()
        h = topo.hosts
        trees = plan_trees(topo, h[0], [h[2]])  # reaches leaf:1
        out, kind = graft_host(topo, trees, h[0], "host:l1:1")
        assert kind == "covered"
        assert "host:l1:1" in covered_hosts(out)
        joined = next(t for t in out if "host:l1:1" in t.parent)
        assert joined.parent["host:l1:1"] == topo.tor_of("host:l1:1")
        # The input list was not mutated.
        assert "host:l1:1" not in covered_hosts(trees)

    def test_branch_graft_merges_a_source_path(self):
        topo = topo8()
        h = topo.hosts
        trees = plan_trees(topo, h[0], [h[1]])  # stays inside leaf:0
        out, kind = graft_host(topo, trees, h[0], "host:l3:0")
        assert kind == "branch"
        assert covered_hosts(out) == {h[1], "host:l3:0"}
        # Every grafted edge exists on the fabric.
        for tree in out:
            for child, par in tree.parent.items():
                assert topo.graph.has_edge(par, child)

    def test_graft_source_rejected(self):
        topo = topo8()
        h = topo.hosts
        trees = plan_trees(topo, h[0], [h[1]])
        with pytest.raises(MembershipError):
            graft_host(topo, trees, h[0], h[0])

    def test_graft_non_host_rejected(self):
        topo = topo8()
        h = topo.hosts
        trees = plan_trees(topo, h[0], [h[1]])
        with pytest.raises(MembershipError):
            graft_host(topo, trees, h[0], "leaf:2")

    def test_graft_unreachable_host_raises(self):
        topo = topo8()
        h = topo.hosts
        trees = plan_trees(topo, h[0], [h[1]])
        # Cut every path to host:l3:1 by failing its only attachment.
        topo.fail_link("leaf:3", "host:l3:1")
        with pytest.raises(MembershipError):
            graft_host(topo, trees, h[0], "host:l3:1")


class TestPrune:
    def test_prune_leaf_keeps_other_paths_identical(self):
        topo = topo8()
        h = topo.hosts
        trees = plan_trees(topo, h[0], [h[1], h[2], h[4]])
        before = {
            r: next(t for t in trees if r in t.parent).path_from_root(r)
            for r in (h[1], h[4])
        }
        out, changed = prune_host(trees, h[2])
        assert changed
        assert covered_hosts(out) == {h[1], h[4]}
        for r, path in before.items():
            tree = next(t for t in out if r in t.parent)
            assert tree.path_from_root(r) == path

    def test_prune_strips_childless_switch_chain(self):
        topo = topo8()
        h = topo.hosts
        trees = plan_trees(topo, h[0], [h[1], h[2]])
        out, changed = prune_host(trees, h[2])  # sole receiver under leaf:1
        assert changed
        nodes = set().union(*(t.nodes for t in out))
        assert "leaf:1" not in nodes  # the chain above it served nobody else

    def test_prune_absent_host_is_a_noop(self):
        topo = topo8()
        h = topo.hosts
        trees = plan_trees(topo, h[0], [h[1]])
        out, changed = prune_host(trees, h[5])
        assert not changed
        assert out == list(trees)

    def test_prune_root_rejected(self):
        topo = topo8()
        h = topo.hosts
        trees = plan_trees(topo, h[0], [h[1]])
        with pytest.raises(MembershipError):
            prune_host(trees, h[0])

    def test_prune_relay_host_rejected(self):
        tree = MulticastTree(
            "host:l0:0",
            {"host:l0:1": "host:l0:0", "host:l1:0": "host:l0:1"},
        )
        with pytest.raises(MembershipError):
            prune_host([tree], "host:l0:1")

    def test_prune_last_receiver_drops_the_tree(self):
        topo = topo8()
        h = topo.hosts
        trees = plan_trees(topo, h[0], [h[2]])
        out, changed = prune_host(trees, h[2])
        assert changed
        assert out == []


class TestChurnPolicy:
    def test_branch_grafts_trigger_independently_of_size(self):
        policy = ChurnPolicy(max_branch_grafts=1)
        assert policy.needs_full_repeel(1, 2, group_size=100)
        assert not policy.needs_full_repeel(1, 1, group_size=100)

    def test_delta_fraction_scales_with_group_size(self):
        policy = ChurnPolicy(max_delta_fraction=0.5, max_branch_grafts=99)
        assert not policy.needs_full_repeel(2, 0, group_size=4)
        assert policy.needs_full_repeel(3, 0, group_size=4)

    def test_validation(self):
        with pytest.raises(ValueError):
            ChurnPolicy(max_delta_fraction=0)
        with pytest.raises(ValueError):
            ChurnPolicy(max_branch_grafts=-1)
