"""Shard specs shared by the shard tests and the differential battery."""

from repro.api import ScenarioSpec
from repro.experiments.common import sim_config
from repro.shard import pod_local_jobs
from repro.topology import FatTree

KB = 1024


def ecn_drawing_spec() -> ScenarioSpec:
    """Two elmo shards whose serial run draws the network RNG for ECN ramp
    marking (176 events, no mark made), so the sharded run must refuse."""
    topo = FatTree(4, hosts_per_tor=2)
    jobs = pod_local_jobs(topo, 2, 3, 128 * KB, offered_load=0.4, seed=1)
    return ScenarioSpec(
        topology=topo,
        scheme="elmo",
        jobs=tuple(jobs),
        config=sim_config(128 * KB, seed=1),
        record_trace=True,
        event_digest=True,
        shards=2,
    )
