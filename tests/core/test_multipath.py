"""Diverse trees and segment striping (§2.3 open question)."""

import pytest

from repro.core import diverse_trees, optimal_symmetric_tree, tree_overlap
from repro.steiner import validate_tree
from repro.topology import FatTree, LeafSpine, asymmetric


class TestDiverseTrees:
    def test_single_tree_matches_optimal(self):
        ft = FatTree(4)
        src = ft.hosts[0]
        dests = ft.hosts[4:8]
        trees = diverse_trees(ft, src, dests, 1)
        assert len(trees) == 1
        assert trees[0].cost == optimal_symmetric_tree(ft, src, dests).cost

    def test_all_trees_same_cost_on_symmetric(self):
        ft = FatTree(8, hosts_per_tor=4)
        src = ft.hosts[0]
        dests = [h for h in ft.hosts if h.startswith("host:p3")][:8]
        trees = diverse_trees(ft, src, dests, 4)
        assert len(trees) == 4
        assert len({t.cost for t in trees}) == 1

    def test_trees_use_distinct_cores(self):
        ft = FatTree(8, hosts_per_tor=4)
        src = ft.hosts[0]
        dests = [h for h in ft.hosts if h.startswith("host:p5")][:4]
        trees = diverse_trees(ft, src, dests, 4)
        cores = [
            next(n for n in t.nodes if n.startswith("core")) for t in trees
        ]
        assert len(set(cores)) == 4

    def test_leafspine_distinct_spines(self):
        ls = LeafSpine(4, 4, 2)
        src = ls.hosts[0]
        dests = [h for h in ls.hosts if not h.startswith("host:l0")]
        trees = diverse_trees(ls, src, dests, 4)
        spines = [
            next(n for n in t.nodes if n.startswith("spine")) for t in trees
        ]
        assert len(set(spines)) == 4

    def test_validity_everywhere(self):
        ls = LeafSpine(4, 6, 2)
        src = ls.hosts[0]
        dests = ls.hosts[3:9]
        for tree in diverse_trees(ls, src, dests, 3):
            validate_tree(tree, ls.graph, src, dests)

    def test_asymmetric_trees_valid_and_diverse(self):
        topo, _ = asymmetric(LeafSpine(4, 8, 2), 0.15, seed=2)
        src = topo.hosts[0]
        dests = topo.hosts[4:10]
        trees = diverse_trees(topo, src, dests, 3)
        assert len(trees) >= 2
        for tree in trees:
            validate_tree(tree, topo.graph, src, dests)

    def test_capped_by_fabric_diversity(self):
        ls = LeafSpine(2, 3, 1)
        src = ls.hosts[0]
        dests = ls.hosts[1:]
        trees = diverse_trees(ls, src, dests, 10)
        assert 1 <= len(trees) <= 2

    def test_empty_group(self):
        ls = LeafSpine(2, 2, 1)
        trees = diverse_trees(ls, ls.hosts[0], [], 3)
        assert len(trees) == 1
        assert trees[0].cost == 0

    def test_rejects_bad_count(self):
        ls = LeafSpine(2, 2, 1)
        with pytest.raises(ValueError):
            diverse_trees(ls, ls.hosts[0], [ls.hosts[1]], 0)


class TestOverlap:
    def test_overlap_below_one_for_diverse_trees(self):
        ft = FatTree(8, hosts_per_tor=4)
        src = ft.hosts[0]
        dests = [h for h in ft.hosts if h.startswith("host:p2")][:8]
        trees = diverse_trees(ft, src, dests, 4)
        # Host links are necessarily shared; trunks must not all be.
        assert tree_overlap(trees) < 1.0

    def test_single_tree_has_zero_shared_fraction(self):
        ft = FatTree(4)
        trees = diverse_trees(ft, ft.hosts[0], ft.hosts[4:6], 1)
        assert tree_overlap(trees) == 0.0

    def test_empty(self):
        from repro.steiner import MulticastTree

        assert tree_overlap([MulticastTree("host:l0:0", {})]) == 0.0


class TestStripedScheme:
    def test_striped_delivers_everything(self):
        from repro.collectives import CollectiveEnv, Gpu, Group, resolve_scheme
        from repro.sim import SimConfig

        ls = LeafSpine(4, 4, 4)
        env = CollectiveEnv(ls, SimConfig(segment_bytes=65536))
        hosts = ls.hosts[:10]
        gpus = tuple(Gpu(h, 0) for h in hosts)
        handle = resolve_scheme("striped").launch(
            env, Group(gpus[0], gpus), 8 * 2**20, 0.0
        )
        env.run()
        assert handle.complete

    def test_striping_spreads_core_load(self):
        from repro.collectives import (
            CollectiveEnv,
            Gpu,
            Group,
            OptimalBroadcast,
            StripedMulticastBroadcast,
        )
        from repro.sim import SimConfig

        def spine_byte_spread(scheme):
            ls = LeafSpine(4, 4, 4)
            env = CollectiveEnv(ls, SimConfig(segment_bytes=65536))
            hosts = [h for h in ls.hosts]
            gpus = tuple(Gpu(h, 0) for h in hosts)
            handle = scheme.launch(env, Group(gpus[0], gpus), 8 * 2**20, 0.0)
            env.run()
            assert handle.complete
            loads = [
                p.bytes_sent
                for (u, v), p in env.network.ports.items()
                if u.startswith("spine") or v.startswith("spine")
            ]
            used = [b for b in loads if b]
            return max(used) if used else 0

        single = spine_byte_spread(OptimalBroadcast())
        striped = spine_byte_spread(StripedMulticastBroadcast(num_trees=4))
        assert striped < single  # hottest spine link carries fewer bytes

    def test_stripe_refinement_conflict_rejected(self):
        from repro.sim import Network, SimConfig, Transfer

        ls = LeafSpine(2, 2, 2)
        net = Network(ls, SimConfig())
        tree = optimal_symmetric_tree(ls, "host:l0:0", ["host:l1:0"])
        with pytest.raises(ValueError):
            Transfer(net, "t", "host:l0:0", 2**20, [tree],
                     refined_tree=tree, refinement_ready_at=0.0, stripe=True)
