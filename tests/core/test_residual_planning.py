"""Backups and diverse trees are peeled on one residual adjacency: planning
never copies the fabric, leaves no cut behind, and gives the same plans
whatever the interpreter's string-hash seed."""

import os
import subprocess
import sys

import networkx as nx
import pytest

import repro
import repro.core.layer_peeling as layer_peeling
from repro.core import Peel, diverse_trees
from repro.topology import FatTree, LeafSpine, Topology, asymmetric

SRC_DIR = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))

FABRICS = {
    "leafspine": lambda: asymmetric(LeafSpine(4, 8, 2), 0.2, seed=3)[0],
    "fattree": lambda: asymmetric(FatTree(4, hosts_per_tor=2), 0.1, seed=1)[0],
}


def fabric_state(topo):
    return (
        sorted(tuple(sorted(e)) for e in topo.graph.edges),
        list(topo.failed_links),
    )


def group(topo):
    hosts = topo.hosts
    return hosts[0], hosts[3:13]


def fail_on_call(monkeypatch, n):
    """Make the ``n``-th peel inside :func:`peel_disjoint` raise."""
    calls = []
    real = layer_peeling.layer_peeling_tree

    def peel(*args, **kwargs):
        calls.append(args)
        if len(calls) == n:
            raise RuntimeError("peel failed mid-loop")
        return real(*args, **kwargs)

    monkeypatch.setattr(layer_peeling, "layer_peeling_tree", peel)
    return calls


@pytest.mark.parametrize("kind", sorted(FABRICS))
class TestNoFabricCopy:
    def test_planning_never_copies(self, kind, monkeypatch):
        topo = FABRICS[kind]()
        before = fabric_state(topo)
        source, dests = group(topo)

        def refuse(*_args, **_kwargs):
            raise AssertionError("planner copied the fabric")

        monkeypatch.setattr(Topology, "copy", refuse)
        monkeypatch.setattr(nx.Graph, "copy", refuse)
        plan = Peel(topo, resilience=2).plan(source, dests)
        trees = diverse_trees(topo, source, dests, 3)
        assert plan.protection.entries
        assert any(len(e.backups) == 2 for e in plan.protection.entries.values())
        assert len(trees) > 1
        assert fabric_state(topo) == before

    def test_mid_loop_failure_leaves_fabric_as_it_was(self, kind, monkeypatch):
        topo = FABRICS[kind]()
        before = fabric_state(topo)
        source, dests = group(topo)
        calls = fail_on_call(monkeypatch, 2)
        with pytest.raises(RuntimeError):
            Peel(topo, resilience=2).plan(source, dests)
        assert len(calls) == 2
        assert fabric_state(topo) == before
        calls.clear()
        with pytest.raises(RuntimeError):
            diverse_trees(topo, source, dests, 3)
        assert fabric_state(topo) == before


class TestResidualRestored:
    """:func:`peel_disjoint` hands its residual back as it found it."""

    def setup_method(self):
        self.topo = asymmetric(LeafSpine(6, 8, 2), 0.2, seed=3)[0]
        self.source, self.dests = group(self.topo)
        self.residual = layer_peeling.residual_adjacency(self.topo)
        self.pristine = {n: set(nbrs) for n, nbrs in self.residual.items()}
        primary = layer_peeling.layer_peeling_tree(self.topo, self.source, self.dests)
        self.link = layer_peeling.switch_links(primary)[0]

    def peel(self, count, cut=()):
        return layer_peeling.peel_disjoint(
            self.residual, self.source, self.dests, count, cut=cut
        )

    def test_after_a_full_run(self):
        trees = self.peel(3, cut=[self.link])
        assert len(trees) == 3
        assert self.residual == self.pristine

    def test_after_a_peel_raises_mid_loop(self, monkeypatch):
        fail_on_call(monkeypatch, 2)
        with pytest.raises(RuntimeError):
            self.peel(3, cut=[self.link])
        assert self.residual == self.pristine

    def test_first_unreachable_peel_raises_and_restores(self):
        leaf = self.topo.tor_of(self.dests[0])
        uplinks = [(leaf, v) for v in sorted(self.residual[leaf])
                   if v.startswith("spine:")]
        with pytest.raises(ValueError, match="unreachable"):
            self.peel(2, cut=uplinks)
        assert self.residual == self.pristine

    def test_trees_avoid_the_cut_and_each_other(self):
        seen = {frozenset(self.link)}
        for tree in self.peel(3, cut=[self.link]):
            links = {frozenset(e) for e in layer_peeling.switch_links(tree)}
            assert not links & seen
            seen |= links


#: Plans a fixed corpus and prints one digest over every parent map, in
#: insertion order, so iteration order counts too.
CORPUS_CHILD = """
import hashlib, random
from repro.core import Peel, diverse_trees
from repro.topology import FatTree, LeafSpine, asymmetric

def parents(trees):
    return [list(t.parent.items()) for t in trees]

h = hashlib.blake2b(digest_size=16)
for base in (LeafSpine(4, 8, 2), FatTree(4, hosts_per_tor=2)):
    for seed in range(3):
        topo, _ = asymmetric(base, 0.25, seed=seed)
        rng = random.Random(seed)
        for _ in range(3):
            hosts = rng.sample(topo.hosts, 8)
            plan = Peel(topo, resilience=2).plan(hosts[0], hosts[1:])
            h.update(repr(parents([plan.base_tree, *plan.static_trees])).encode())
            h.update(repr([(key, parents(entry.backups))
                           for key, entry in plan.protection.entries.items()]).encode())
            h.update(repr(plan.route_edges).encode())
            trees = diverse_trees(topo, hosts[0], hosts[1:], 3)
            h.update(repr(parents(trees)).encode())
print(h.hexdigest())
"""


def corpus_digest(hash_seed: str) -> str:
    env = dict(os.environ, PYTHONPATH=SRC_DIR, PYTHONHASHSEED=hash_seed)
    proc = subprocess.run(
        [sys.executable, "-c", CORPUS_CHILD],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


def test_plans_do_not_depend_on_the_hash_seed():
    assert corpus_digest("0") == corpus_digest("1")
