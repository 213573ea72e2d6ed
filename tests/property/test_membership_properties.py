"""Property tests: incremental graft/prune is equivalent to re-peeling.

Two layers:

* pure tree surgery — after *any* join/leave sequence, the incrementally
  maintained trees deliver to exactly the membership a from-scratch
  re-peel of the surviving set would, and every tree stays a valid
  fabric-realizable arborescence;
* end-to-end — the same sequences applied to a live collective through the
  control plane keep the exactly-once/conservation invariants (the checker
  runs in raise mode), every surviving receiver finishes, and no switch
  rule is updated.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.control import (
    ControlPlane,
    LocalClient,
    covered_hosts,
    graft_host,
    prune_host,
)
from repro.core import Peel
from repro.sim import SimConfig
from repro.topology import LeafSpine

KB = 1024


def topo8() -> LeafSpine:
    return LeafSpine(2, 4, 2)


HOSTS = topo8().hosts  # 8 hosts, stable order


@st.composite
def churn_sequences(draw):
    """(source, initial receivers, [(op, host), ...]) with every join
    targeting a non-member and every leave a current member — mirroring the
    control plane, whose idempotence filter drops no-op churn anyway."""
    source = HOSTS[draw(st.integers(min_value=0, max_value=len(HOSTS) - 1))]
    pool = [h for h in HOSTS if h != source]
    seed = draw(st.integers(min_value=0, max_value=10_000))
    rng = random.Random(seed)
    members = set(rng.sample(pool, draw(st.integers(min_value=1, max_value=4))))
    ops = []
    current = set(members)
    for _ in range(draw(st.integers(min_value=0, max_value=8))):
        candidates = sorted(set(pool) - current)
        if current and (not candidates or rng.random() < 0.5):
            if len(current) <= 1:
                continue  # keep at least one receiver alive
            host = rng.choice(sorted(current))
            current.discard(host)
            ops.append(("leave", host))
        elif candidates:
            host = rng.choice(candidates)
            current.add(host)
            ops.append(("join", host))
    return source, members, ops, current


def assert_valid_trees(topo, trees, source):
    for tree in trees:
        assert tree.root == source
        for child, par in tree.parent.items():
            assert topo.graph.has_edge(par, child)
        # Every node reaches the root: the parent map is a rooted tree.
        for node in tree.parent:
            assert tree.path_from_root(node)[0] == source


class TestTreeSurgeryEquivalence:
    @given(churn_sequences())
    @settings(max_examples=60, deadline=None)
    def test_incremental_delivery_set_matches_repeel(self, case):
        source, members, ops, final = case
        topo = topo8()
        planner = Peel(topo)
        trees = list(planner.plan(source, sorted(members)).static_trees)
        for op, host in ops:
            if op == "join":
                trees, kind = graft_host(topo, trees, source, host)
                assert kind in ("noop", "covered", "branch")
            else:
                trees, _changed = prune_host(trees, host)
        assert covered_hosts(trees) == final
        assert_valid_trees(topo, trees, source)
        # The from-scratch re-peel of the surviving membership reaches the
        # exact same receiver set.
        repeeled = planner.plan(source, sorted(final)).static_trees
        assert covered_hosts(repeeled) == final

    @given(churn_sequences())
    @settings(max_examples=40, deadline=None)
    def test_pruned_receivers_keep_bit_identical_paths(self, case):
        source, members, ops, _final = case
        topo = topo8()
        trees = list(Peel(topo).plan(source, sorted(members)).static_trees)
        for op, host in ops:
            if op == "join":
                trees, _ = graft_host(topo, trees, source, host)
                continue
            survivors = covered_hosts(trees) - {host}
            before = {
                r: next(t for t in trees if r in t.parent).path_from_root(r)
                for r in survivors
            }
            trees, _ = prune_host(trees, host)
            for r, path in before.items():
                tree = next(t for t in trees if r in t.parent)
                assert tree.path_from_root(r) == path


class TestLiveChurnInvariants:
    @given(churn_sequences())
    @settings(max_examples=60, deadline=None)
    def test_churned_collective_stays_exactly_once_and_finishes(self, case):
        """The full stack through the control plane: timed joins graft +
        backfill, leaves prune, and the raise-mode invariant checker would
        fail the example on any double delivery, conservation breach, or
        unfinished receiver.  Membership changes only what the source
        emits: PEEL's switches see no rule update (§3.2)."""
        source, members, ops, final = case
        control = ControlPlane(
            topo8(), "peel", SimConfig(segment_bytes=32 * KB),
            check_invariants=True,
        )
        client = LocalClient(control)
        gid = client.create_group("t", source, members)
        client.submit(gid, 512 * KB)
        for i, (op, host) in enumerate(ops):
            apply = client.join if op == "join" else client.leave
            apply(gid, host, at_s=20e-6 + 15e-6 * i)
        client.run()
        report = client.report()
        assert report["violations"] == []
        assert report["completed"] == 1
        assert report["switch_updates"] == 0
        assert control.groups[gid].members == final
