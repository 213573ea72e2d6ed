"""The fault demo's loaded link comes from the schemes' own planners."""

import os
import subprocess
import sys

import pytest

import repro
from repro.collectives import CollectiveEnv, Group, resolve_scheme
from repro.experiments.faults_demo import RECOVERABLE_SCHEMES, pick_loaded_link
from repro.topology import LeafSpine
from repro.topology.failures import fail_random_uplinks
from repro.workloads import generate_jobs

SRC_DIR = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))

PICK = """
from repro.experiments.faults_demo import pick_loaded_link
from repro.topology import LeafSpine
from repro.workloads import generate_jobs

topo = LeafSpine(4, 8, 4)
for seed in range(8):
    group = generate_jobs(topo, 1, 32, 1 << 20, gpus_per_host=1, seed=seed)[0].group
    for scheme in ("optimal", "orca"):
        print(pick_loaded_link(topo, scheme, group.source.host, group.receiver_hosts))
"""


def _launched_links(scheme: str, topo, group: Group) -> set[tuple[str, str]]:
    """Every (parent, child) edge of the multicast trees the scheme
    launches (Orca's agent relay legs left out)."""
    env = CollectiveEnv(topo)
    resolve_scheme(scheme).launch(env, group, 1 << 20, 0.0)
    return {
        (parent, child)
        for transfer in env.network.transfers
        if not transfer.name.startswith("orca-agent")
        for tree in transfer.static_trees
        for child, parent in tree.parent.items()
        if parent is not None
    }


@pytest.mark.parametrize("scheme", RECOVERABLE_SCHEMES)
@pytest.mark.parametrize("asymmetric", [False, True])
def test_picked_link_is_one_the_scheme_launches(scheme, asymmetric):
    topo = LeafSpine(4, 8, 2)
    if asymmetric:
        fail_random_uplinks(topo, 0.1, seed=0)
    for job in generate_jobs(topo, 3, 8, 1 << 20, gpus_per_host=1, seed=7):
        group = job.group
        link = pick_loaded_link(
            topo, scheme, group.source.host, group.receiver_hosts
        )
        assert link in _launched_links(scheme, topo, group)


def test_pick_does_not_depend_on_the_hash_seed():
    """Epoch specs and demo runs rebuild the link in fresh processes."""
    outputs = set()
    for hash_seed in ("0", "3"):
        env = dict(os.environ, PYTHONPATH=SRC_DIR, PYTHONHASHSEED=hash_seed)
        proc = subprocess.run(
            [sys.executable, "-c", PICK],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        outputs.add(proc.stdout)
    assert len(outputs) == 1
