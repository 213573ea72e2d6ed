"""The three golden scenarios as replayable specs (``repro replay``).

A PEEL broadcast batch, a mid-collective link flap, and a two-tenant
serving stream (the shapes :mod:`repro.experiments.obs_demo` observes),
exposed as :class:`repro.api.ScenarioSpec` values (plus a ServeRuntime
factory) with suggested checkpoint cut times, so the replay-determinism
smoke (:func:`repro.replay.verify_cut_points`, ``scripts/replay_smoke.py``,
CI) and the replay test-suite all exercise identical workloads.

Cut times are chosen to land somewhere interesting: right after launch,
mid-contention, and — for the fault scenario — *inside* the re-peel
window (link already down, detection timer still pending in the heap).
"""

from __future__ import annotations

import dataclasses

from ..api import ScenarioSpec
from ..faults import FaultSchedule
from ..serve import ServeRuntime, TcamAdmission
from ..shard import pod_local_jobs
from ..topology import FatTree, LeafSpine
from ..workloads import TenantSpec, generate_jobs, generate_tenant_jobs
from .common import sim_config

KB = 1024

REPLAY_SCENARIOS = ("headline", "fault", "serve")


def headline_scenario() -> tuple[ScenarioSpec, tuple[float, ...]]:
    """Three concurrent PEEL broadcasts on a 2x4 leaf-spine."""
    topo = LeafSpine(2, 4, 2)
    message_bytes = 256 * KB
    jobs = generate_jobs(
        topo, 3, 6, message_bytes, offered_load=0.4, gpus_per_host=1, seed=1
    )
    spec = ScenarioSpec(
        topology=topo,
        scheme="peel",
        jobs=tuple(jobs),
        config=sim_config(message_bytes, seed=1),
        record_trace=True,
    )
    first = jobs[0].arrival_s
    last = jobs[-1].arrival_s
    return spec, (first + 5e-6, first + 20e-6, last + 10e-6)


def fault_scenario() -> tuple[ScenarioSpec, tuple[float, ...]]:
    """One broadcast with a loaded spine link flapping mid-collective.

    The middle cut time falls between the link going down and the
    injector's detection delay expiring, so the checkpoint carries a
    pending re-peel — the hardest state to get byte-identical on resume.
    """
    from .faults_demo import pick_loaded_link

    topo = LeafSpine(2, 4, 2)
    message_bytes = 512 * KB
    job = generate_jobs(
        topo, 1, 8, message_bytes, gpus_per_host=1, seed=5
    )[0]
    link = pick_loaded_link(
        topo, "peel", job.group.source.host, job.group.receiver_hosts
    )
    down_at = job.arrival_s + 15e-6
    schedule = FaultSchedule().link_flap(
        *link, down_at, job.arrival_s + 120e-6
    )
    spec = ScenarioSpec(
        topology=topo,
        scheme="peel",
        jobs=(job,),
        config=sim_config(message_bytes, seed=5),
        check_invariants=True,
        fault_schedule=schedule,
        record_trace=True,
    )
    # Detection fires 100 us after down_at: cut inside that window.
    cuts = (job.arrival_s + 5e-6, down_at + 50e-6, down_at + 110e-6)
    return spec, cuts


def protected_fault_scenario(
    protection: int = 1,
) -> tuple[ScenarioSpec, tuple[float, ...]]:
    """The golden fault scenario with proactive protection switched on.

    Identical workload, fabric, cut link and cut times as
    :func:`fault_scenario` — only ``protection`` differs — so a pair of
    runs isolates local fast-failover against the reactive re-peel.
    """
    spec, cuts = fault_scenario()
    return dataclasses.replace(spec, protection=protection), cuts


def shard_scenario(shards: int = 2) -> tuple[ScenarioSpec, tuple[float, ...]]:
    """The golden *sharded* scenario: pod-local broadcasts on a fat-tree.

    A k=4 fat-tree with three 3-host broadcasts per pod — every group (and
    so every PEEL tree) pod-local, which is exactly the traffic-closure
    :func:`repro.shard.plan_partition` needs.  Running the returned spec
    with ``shards`` rewound to 1 gives the serial comparator; CI's
    shard-smoke job and the unit suite pin the two byte-identical.  Cut
    times land mid-stream for sharded snapshot/resume checks.
    """
    topo = FatTree(4)
    message_bytes = 128 * KB
    jobs = pod_local_jobs(
        topo, jobs_per_pod=3, group_hosts=3, message_bytes=message_bytes,
        offered_load=0.4, seed=11,
    )
    spec = ScenarioSpec(
        topology=topo,
        scheme="peel",
        jobs=tuple(jobs),
        config=sim_config(message_bytes, seed=11),
        record_trace=True,
        event_digest=True,
        shards=shards,
    )
    arrivals = sorted(job.arrival_s for job in jobs)
    mid = arrivals[len(arrivals) // 2]
    return spec, (arrivals[0] + 5e-6, mid, arrivals[-1] + 10e-6)


def serve_runtime(record_trace: bool = True) -> tuple[ServeRuntime, tuple[float, ...]]:
    """The two-tenant serving stream, submitted but not yet run.

    Serving runs live in a :class:`~repro.serve.ServeRuntime`, not a
    ScenarioSpec; callers drive ``runtime.run(until=...)`` /
    ``runtime.snapshot()`` themselves.  Returns the loaded runtime plus
    suggested cut times (mid-stream, while jobs are queued and running).
    """
    topo = LeafSpine(2, 4, 2)
    tenants = [
        TenantSpec("train", num_jobs=6, num_gpus=6, message_bytes=128 * KB,
                   offered_load=0.5),
        TenantSpec("infer", num_jobs=8, num_gpus=4, message_bytes=64 * KB,
                   offered_load=0.5),
    ]
    jobs = generate_tenant_jobs(topo, tenants, gpus_per_host=1, seed=9)
    runtime = ServeRuntime(
        topo,
        "ip-multicast",
        sim_config(128 * KB, seed=9),
        admission=TcamAdmission(),
        tcam_capacity=16,
        record_trace=record_trace,
    )
    runtime.submit_all(jobs)
    arrivals = sorted(job.arrival_s for job in jobs)
    mid = arrivals[len(arrivals) // 2]
    return runtime, (arrivals[0] + 5e-6, mid, arrivals[-1] + 5e-6)
