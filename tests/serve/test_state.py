"""FabricState: refcounted TCAM entries and per-scheme state policies."""

import pytest

from repro.serve import (
    FabricState,
    IpMulticastStatePolicy,
    OrcaStatePolicy,
    PeelStatePolicy,
    policy_for,
    tree_switch_fanouts,
)

SW = "agg:p0:0"


class TestFabricState:
    def test_shared_entries_are_refcounted(self):
        state = FabricState(capacity=4)
        key = ("subset", frozenset({"tor:p0:0"}))
        state.install_group("a", {SW: [key]})
        state.install_group("b", {SW: [key]})
        assert len(state.table(SW)) == 1
        state.remove_group("a")
        assert len(state.table(SW)) == 1  # still referenced by "b"
        state.remove_group("b")
        assert len(state.table(SW)) == 0
        # One physical install + one physical remove, despite two groups.
        assert state.total_updates == 2

    def test_new_entries_ignores_already_referenced(self):
        state = FabricState(capacity=4)
        state.install_group("a", {SW: [("x",)]})
        assert state.new_entries({SW: [("x",)], "agg:p0:1": [("x",)]}) == {
            "agg:p0:1": 1
        }

    def test_fits_and_feasible(self):
        state = FabricState(capacity=1)
        state.install_group("a", {SW: [("x",)]})
        assert not state.fits({SW: [("y",)]})
        assert state.feasible({SW: [("y",)]})  # would fit an empty fabric
        assert not state.feasible({SW: [("y",), ("z",)]})

    def test_double_install_rejected(self):
        state = FabricState(capacity=4)
        state.install_group("a", {SW: [("x",)]})
        with pytest.raises(ValueError):
            state.install_group("a", {SW: [("y",)]})

    def test_remove_unknown_group_is_noop(self):
        FabricState(capacity=4).remove_group("ghost")

    def test_peak_tracks_concurrency_not_total(self):
        state = FabricState(capacity=16)
        for i in range(3):
            state.install_group(i, {SW: [("g", i)]})
        for i in range(3):
            state.remove_group(i)
        assert state.peak_entries_per_switch == 3
        assert state.total_updates == 6

    def test_reset_counters_keeps_entries(self):
        state = FabricState(capacity=4)
        state.install_group("boot", {SW: [("static",)]})
        state.reset_counters()
        assert state.total_updates == 0
        assert len(state.table(SW)) == 1


class TestUpdateGroup:
    """Membership-delta re-pointing: the control plane's TCAM accounting."""

    def test_applies_only_the_delta(self):
        state = FabricState(capacity=4)
        state.install_group("g", {SW: [("a",), ("b",)]})
        updates = state.total_updates
        assert state.update_group("g", {SW: [("b",), ("c",)]})
        # ("b",) survived untouched: one install for ("c",), one remove
        # for ("a",) — not a full remove+reinstall.
        assert state.total_updates == updates + 2
        assert len(state.table(SW)) == 2

    def test_reject_leaves_old_demand_installed(self):
        state = FabricState(capacity=2)
        state.install_group("g", {SW: [("a",), ("b",)]})
        assert not state.update_group("g", {SW: [("a",), ("b",), ("c",)]})
        assert len(state.table(SW)) == 2  # untouched

    def test_shared_entries_survive_the_other_group(self):
        state = FabricState(capacity=4)
        key = ("shared",)
        state.install_group("g", {SW: [key]})
        state.install_group("h", {SW: [key]})
        assert state.update_group("g", {SW: [("solo",)]})
        assert key in state.table(SW)  # "h" still references it

    def test_unknown_group_installs_fresh(self):
        state = FabricState(capacity=1)
        assert state.update_group("g", {SW: [("a",)]})
        assert not state.update_group("h", {SW: [("b",)]})


class TestPolicies:
    FANOUTS = [
        ("agg:p0:0", frozenset({"tor:p0:0", "tor:p0:1"})),
        ("tor:p0:0", frozenset({"host:p0:t0:0"})),
    ]

    def test_peel_demands_nothing(self):
        assert PeelStatePolicy().demand(7, self.FANOUTS) == {}
        assert not PeelStatePolicy().per_group

    def test_orca_demands_one_entry_per_tree_switch(self):
        demand = OrcaStatePolicy().demand(7, self.FANOUTS)
        assert demand == {
            "agg:p0:0": [("group", 7)],
            "tor:p0:0": [("group", 7)],
        }

    def test_ip_multicast_keys_on_the_subset(self):
        demand = IpMulticastStatePolicy().demand(7, self.FANOUTS)
        # Two groups with the same fanout share these keys (no group id).
        assert demand == IpMulticastStatePolicy().demand(8, self.FANOUTS)

    def test_policy_for_names(self):
        assert policy_for("peel").name == "peel"
        assert policy_for("peel:programmable_cores=true").per_group is False
        assert policy_for("orca").name == "orca"
        assert policy_for("ip-multicast").name == "ip-multicast"
        ring = policy_for("ring")
        assert ring.name == "ring" and ring.per_group is False

    def test_tree_switch_fanouts_skips_hosts(self):
        from repro.core import optimal_symmetric_tree
        from repro.topology import FatTree

        topo = FatTree(4, hosts_per_tor=2)
        hosts = sorted(topo.hosts)
        tree = optimal_symmetric_tree(topo, hosts[0], hosts[1:5])
        fanouts = tree_switch_fanouts(tree)
        assert fanouts, "a spanning tree must branch somewhere"
        for switch, children in fanouts:
            assert not switch.startswith("host")
            assert children
