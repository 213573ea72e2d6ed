"""The benchmark's five workloads: inputs from a seed, set-up, one pass.

Every workload has the same four steps, so the harness treats them alike:

* ``topology(seed)`` builds the fabric (timed, part of set-up);
* ``inputs(topo, seed)`` generates the jobs or requests (untimed: this is
  the benchmark's own input generation; ``serve_recurring_groups`` also
  warms the plan cache here, the steady state that workload measures);
* ``setup(topo, inputs)`` constructs the environment, runtime or control
  plane and launches what is launched up front (timed, part of set-up);
* ``run(state, inputs)`` drives one pass to completion and returns a
  :class:`PassResult` read from the program's own result objects.

Sizes are constructor arguments, so the tests run this exact code on tiny
inputs.  The program is reached only through public ``repro`` APIs.

Each workload also defines its *request*, the unit ``op_p50_us`` and
``op_p90_us`` time: a control request (``control_churn``), a job submit up
to its admission decision (the serve workloads), a collective launch
(``paper_broadcast``) and a whole sharded run (``pod_sharded``).
"""

from __future__ import annotations

import dataclasses
import multiprocessing
import random
import time
from dataclasses import dataclass, field
from hashlib import blake2b

from repro.api import ScenarioRun, ScenarioSpec, segment_bytes_for
from repro.collectives import CollectiveEnv, Gpu, Group, resolve_scheme
from repro.control import CongestionReplanner, ControlPlane, LocalClient
from repro.core import Peel
from repro.obs import Observability
from repro.serve import (
    CompositeAdmission,
    LinkLoadAdmission,
    PlanCache,
    ServeRuntime,
    TcamAdmission,
)
from repro.shard import ShardedScenarioRun, pod_local_jobs
from repro.sim import SimConfig
from repro.topology import FatTree, LeafSpine, fail_random_uplinks
from repro.workloads import (
    CollectiveJob,
    arrival_rate_for_load,
    fixed_count_arrivals,
    generate_jobs,
    locality_ordered_hosts,
    place_job,
)

KB = 1 << 10
MB = 1 << 20
#: Offered load of the Poisson arrivals in every open-loop workload.
OFFERED_LOAD = 0.3


@dataclass
class PassResult:
    """What one pass produced, read from the program's result objects."""

    #: Collectives completed.
    jobs: int
    #: Collectives submitted.
    submitted: int
    #: Jobs submitted, or requests issued (``control_churn``).
    attempted: int
    #: Jobs rejected or never finished, plus requests answered ``ok: false``.
    failed: int
    #: Simulator events fired.
    events: int
    #: blake2b over the exact completion-time list.
    cct_digest: str
    violations: int
    #: Host seconds of every request round trip in the pass.
    op_s: list[float]
    #: Per-layer counts (metric name -> value); they must repeat exactly.
    counts: dict[str, float]
    first_error: str | None = None
    #: ``pod_sharded`` only: what must match the serial run byte for byte.
    identity: dict | None = None


@dataclass
class Reference:
    """An untimed serial run of the same spec (``pod_sharded`` only)."""

    wall_s: float
    identity: dict
    counts: dict[str, float] = field(default_factory=dict)


def cct_digest(ccts) -> str:
    return blake2b(repr(list(ccts)).encode(), digest_size=16).hexdigest()


def _network_counts(network) -> dict[str, float]:
    return {
        "sim.network.bytes_sent": network.total_bytes_sent(),
        "sim.network.pfc_pause_events": network.pfc_pause_events,
        "sim.network.ecn_marks": sum(p.ecn_marks for p in network.ports.values()),
    }


def _cache_counters(runtime) -> tuple[int, int, int]:
    cache = runtime.env.plan_cache
    return cache.hits, cache.misses, cache.invalidations


def _serve_counts(runtime, report, start: tuple[int, int, int]) -> dict[str, float]:
    """Serve-layer counts; cache counters count from ``start`` (a plan
    cache can outlive one pass)."""
    hits, misses, invalidations = (
        now - then for now, then in zip(_cache_counters(runtime), start)
    )
    lookups = hits + misses
    # Simulated time: the share of a job's latency spent in the admission
    # queue rather than on the fabric.
    queued_s = report.total.mean_queue_s
    latency_s = queued_s + report.total.cct.mean_s
    return {
        "serve.cache.lookups": lookups,
        "serve.cache.hit_ratio": hits / lookups if lookups else 0.0,
        "serve.cache.invalidations": invalidations,
        "serve.admission.queued": report.queued_jobs,
        "serve.admission.queue_share": queued_s / latency_s if latency_s else 0.0,
        "serve.state.switch_updates": report.switch_updates,
    }


class Workload:
    """The four steps every workload implements (see the module docstring)."""

    name = "abstract"

    def topology(self, seed: int):
        raise NotImplementedError

    def inputs(self, topo, seed: int):
        raise NotImplementedError

    def setup(self, topo, inputs):
        raise NotImplementedError

    def run(self, state, inputs) -> PassResult:
        raise NotImplementedError

    def reference(self, topo, inputs) -> Reference | None:
        """An untimed run the passes must match; ``None`` when there is none."""
        return None

    def close(self, state) -> None:
        """Release a set-up that is not run (set-up probes)."""


class PaperBroadcast(Workload):
    """The paper's 1024-NIC fat-tree: peel Broadcasts, Poisson arrivals."""

    name = "paper_broadcast"

    def __init__(
        self,
        num_jobs: int = 12,
        num_gpus: int = 512,
        message_bytes: int = 32 * MB,
        hosts_per_tor: int = 32,
    ) -> None:
        self.num_jobs = num_jobs
        self.num_gpus = num_gpus
        self.message_bytes = message_bytes
        self.hosts_per_tor = hosts_per_tor

    def topology(self, seed: int):
        return FatTree(8, hosts_per_tor=self.hosts_per_tor)

    def inputs(self, topo, seed: int):
        return generate_jobs(
            topo, self.num_jobs, self.num_gpus, self.message_bytes,
            offered_load=OFFERED_LOAD, gpus_per_host=1, seed=seed,
        )

    def setup(self, topo, jobs):
        env = CollectiveEnv(
            topo, SimConfig(segment_bytes=segment_bytes_for(self.message_bytes))
        )
        scheme = resolve_scheme("peel")
        handles = []
        op_s = []
        for job in jobs:
            t0 = time.perf_counter()
            handles.append(
                scheme.launch(env, job.group, job.message_bytes, job.arrival_s)
            )
            op_s.append(time.perf_counter() - t0)
        return env, handles, op_s

    def run(self, state, jobs) -> PassResult:
        env, handles, op_s = state
        env.run()
        done = sum(1 for h in handles if h.complete)
        return PassResult(
            jobs=done,
            submitted=len(handles),
            attempted=len(handles),
            failed=len(handles) - done,
            events=env.sim.processed,
            cct_digest=cct_digest(h.cct_s for h in handles),
            violations=len(env.finalize_checks()),
            op_s=op_s,
            counts=_network_counts(env.network),
        )


@dataclass(frozen=True)
class ServeInputs:
    jobs: list[CollectiveJob]
    #: A warm plan cache every pass shares, or ``None`` for a fresh one each.
    plan_cache: PlanCache | None = None


class _Serve(Workload):
    """``ServeRuntime`` with F=1 protection on an asymmetric leaf-spine.

    Simulated arrivals are open-loop Poisson.  The host drives them
    closed-loop: advance the clock to a job's arrival, submit it, and run
    the arrival event, so each request is timed up to its admission
    decision (plan, protection, admission, launch).
    """

    protection = 1
    message_bytes = 64 * KB

    def __init__(
        self,
        num_jobs: int,
        num_gpus: int = 24,
        fail_fraction: float = 0.04,
        spines: int = 16,
        leaves: int = 48,
    ) -> None:
        self.num_jobs = num_jobs
        self.num_gpus = num_gpus
        self.fail_fraction = fail_fraction
        self.spines = spines
        self.leaves = leaves

    def groups(self, rng: random.Random, topo) -> list[Group]:
        """One group per job."""
        raise NotImplementedError

    def topology(self, seed: int):
        topo = LeafSpine(self.spines, self.leaves, 2)
        # The failed links are part of the fabric, not of the inputs:
        # every seed serves on the same asymmetric fabric.
        fail_random_uplinks(topo, self.fail_fraction, seed=0)
        return topo

    def inputs(self, topo, seed: int):
        rng = random.Random(f"{self.name}:{seed}")
        rate = arrival_rate_for_load(
            OFFERED_LOAD, self.message_bytes, self.num_gpus - 1,
            len(topo.hosts), topo.link_bps,
        )
        times = fixed_count_arrivals(rate, self.num_jobs, rng)
        groups = self.groups(rng, topo)
        jobs = [
            CollectiveJob(t, group, self.message_bytes)
            for t, group in zip(times, groups)
        ]
        return ServeInputs(jobs, self.warm_cache(topo, groups))

    def warm_cache(self, topo, groups) -> PlanCache | None:
        return None

    def setup(self, topo, inputs: ServeInputs):
        msg = self.message_bytes
        cache = inputs.plan_cache
        return ServeRuntime(
            topo,
            "peel",
            SimConfig(segment_bytes=segment_bytes_for(msg)),
            admission=CompositeAdmission(
                TcamAdmission(), LinkLoadAdmission(8 * msg)
            ),
            plan_cache=cache if cache is not None else True,
            protection=self.protection,
        )

    def run(self, runtime, inputs: ServeInputs) -> PassResult:
        jobs = inputs.jobs
        start = _cache_counters(runtime)
        op_s = []
        for job in jobs:
            runtime.run(until=job.arrival_s)
            t0 = time.perf_counter()
            runtime.submit(job)
            runtime.run(until=job.arrival_s)
            op_s.append(time.perf_counter() - t0)
        runtime.run()
        violations = runtime.finalize_checks()
        done = sum(1 for r in runtime.records if r.status == "done")
        counts = _network_counts(runtime.env.network)
        if done == len(runtime.records):  # report() refuses unfinished runs
            counts.update(_serve_counts(runtime, runtime.report(), start))
        return PassResult(
            jobs=done,
            submitted=len(jobs),
            attempted=len(jobs),
            failed=len(jobs) - done,
            events=runtime.env.sim.processed,
            cct_digest=cct_digest(r.cct_s for r in runtime.records),
            violations=len(violations),
            op_s=op_s,
            counts=counts,
        )


class ServeFreshGroups(_Serve):
    """A freshly placed group per job: every plan misses a fresh cache."""

    name = "serve_fresh_groups"

    def __init__(self, num_jobs: int = 50, **kwargs) -> None:
        super().__init__(num_jobs, **kwargs)

    def groups(self, rng, topo):
        """Bin-packed runs of hosts, each with a random source.

        Unlike ``repro.workloads.place_job``, the offsets are spread evenly
        over the fabric, shifted and shuffled by the seed, so every seed
        plans the same mix of positions.  In two comparisons over seeds
        1-10 this cut the seed-to-seed spread of ``jobs_per_s`` from 6.9%
        and 7.7% to 3.0% and 6.5% (see ``bench/README.md``).
        """
        hosts = locality_ordered_hosts(topo)
        positions = len(hosts) - self.num_gpus + 1
        shift = rng.randrange(positions)
        offsets = [
            (shift + i * positions // self.num_jobs) % positions
            for i in range(self.num_jobs)
        ]
        rng.shuffle(offsets)
        groups = []
        for start in offsets:
            chosen = hosts[start : start + self.num_gpus]
            source = rng.choice(chosen)
            members = (Gpu(source, 0),) + tuple(
                Gpu(h, 0) for h in chosen if h != source
            )
            groups.append(Group(source=members[0], members=members))
        return groups


class ServeRecurringGroups(_Serve):
    """Jobs cycle through a few fixed groups, like training steps
    re-broadcasting to the same group: plans come from the cache."""

    name = "serve_recurring_groups"

    def __init__(self, num_jobs: int = 1500, num_groups: int = 16, **kwargs) -> None:
        super().__init__(num_jobs, **kwargs)
        self.num_groups = num_groups

    def groups(self, rng, topo):
        fixed = [
            place_job(topo, self.num_gpus, gpus_per_host=1, rng=rng)
            for _ in range(self.num_groups)
        ]
        return [fixed[i % self.num_groups] for i in range(self.num_jobs)]

    def warm_cache(self, topo, groups) -> PlanCache:
        """Recurring groups were planned long before the measured window:
        a plan cache that every pass shares holds that steady state."""
        cache = PlanCache()
        planner = Peel(topo, resilience=self.protection)
        for group in groups[: self.num_groups]:
            cache.get(planner, group.source.host, group.receiver_hosts)
        return cache


#: Control tenants: (message bytes, mean gap between submits in seconds).
CONTROL_TENANTS = {"train": (4 * MB, 120e-6), "infer": (512 * KB, 60e-6)}


@dataclass(frozen=True)
class ControlCampaign:
    seed: int
    #: (tenant, source, receivers) per long-lived group.
    groups: tuple
    #: (op, group index, message bytes or host, due time in seconds).
    ops: tuple


class ControlChurn(Workload):
    """Two tenants share four long-lived groups on ``LeafSpine(2, 4, 2)``
    through ``ControlPlane`` with the congestion replanner, obs sampling
    and invariants on.  A join or leave follows every ``churn_every``-th
    submit.  The loop is closed through ``LocalClient``: advance the
    simulated clock to an op's due time, then issue the op with no
    ``at_s``, so grafts and prunes run inside the request."""

    name = "control_churn"
    churn_every = 4
    #: Stretches every gap between submits: at 8 even a spine link that
    #: all groups share stays below line rate (subcritical).
    gap_scale = 8.0

    def __init__(self, num_submits: int = 600) -> None:
        self.num_submits = num_submits

    def topology(self, seed: int):
        return LeafSpine(2, 4, 2)

    def inputs(self, topo, seed: int) -> ControlCampaign:
        h = sorted(topo.hosts)
        groups = (
            ("train", h[0], (h[1], h[2], h[4])),
            ("train", h[3], (h[2], h[5], h[6])),
            ("infer", h[7], (h[0], h[5])),
            ("infer", h[4], (h[1], h[6], h[7])),
        )
        rng = random.Random(f"{self.name}:{seed}")
        # The generator tracks membership so every join targets a
        # non-member and every leave a member: no-op churn measures nothing.
        members = [set(m) for _, _, m in groups]
        clocks = dict.fromkeys(CONTROL_TENANTS, 0.0)
        ops = []
        for index in range(self.num_submits):
            gid = index % len(groups)
            tenant = groups[gid][0]
            message_bytes, mean_gap = CONTROL_TENANTS[tenant]
            clocks[tenant] += rng.expovariate(1.0 / (mean_gap * self.gap_scale))
            ops.append(("submit", gid, message_bytes, clocks[tenant]))
            if index % self.churn_every != self.churn_every - 1:
                continue
            # Churn hits the group just submitted to, alternating join and
            # leave.  With four groups that is one infer group; churning the
            # 4 MB train groups mid-flight leaves grafted receivers that
            # never finish, and the run never drains.
            source = groups[gid][1]
            due = clocks[tenant] + rng.uniform(10e-6, 80e-6)
            outside = sorted(set(h) - members[gid] - {source})
            if (index // self.churn_every) % 2 == 0 and outside:
                host = rng.choice(outside)
                members[gid].add(host)
                ops.append(("join", gid, host, due))
            elif len(members[gid]) > 2:
                host = rng.choice(sorted(members[gid]))
                members[gid].discard(host)
                ops.append(("leave", gid, host, due))
        # The two tenants' clocks interleave; the closed loop needs time order.
        ops.sort(key=lambda op: op[3])
        return ControlCampaign(seed, groups, tuple(ops))

    def setup(self, topo, campaign: ControlCampaign):
        control = ControlPlane(
            # A copy: the replanner masks and restores links on the planning
            # graph, which reorders its adjacency and with it later plans.
            topo.copy(),
            "peel",
            SimConfig(segment_bytes=64 * KB, seed=campaign.seed),
            check_invariants=True,
            obs=Observability(sample_interval_s=100e-6),
            replanner=CongestionReplanner(),
        )
        client = LocalClient(control)
        gids = []
        op_s = []
        for tenant, source, receivers in campaign.groups:
            t0 = time.perf_counter()
            resp = client.request(
                "create", tenant=tenant, source=source, members=list(receivers)
            )
            op_s.append(time.perf_counter() - t0)
            if not resp.get("ok"):
                raise RuntimeError(f"create failed: {resp.get('error')}")
            gids.append(resp["group"])
        return control, client, gids, op_s

    def run(self, state, campaign: ControlCampaign) -> PassResult:
        control, client, gids, op_s = state
        start = _cache_counters(control.runtime)
        op_s = list(op_s)
        failed_requests = 0
        first_error = None
        submits = 0
        for kind, gid, arg, due in campaign.ops:
            client.advance(until_s=due)
            t0 = time.perf_counter()
            if kind == "submit":
                resp = client.request("submit", group=gids[gid], message_bytes=arg)
                submits += 1
            else:
                resp = client.request(kind, group=gids[gid], host=arg)
            op_s.append(time.perf_counter() - t0)
            if not resp.get("ok"):
                failed_requests += 1
                first_error = first_error or f"{kind}: {resp.get('error')}"
        client.run()
        violations = control.finalize_checks()
        records = control.runtime.records
        done = sum(1 for r in records if r.status == "done")
        counts = _network_counts(control.env.network)
        counts["control.full_repeels"] = control.counters["full_repeels"]
        counts["control.replans"] = control.replanner.replans
        if done == len(records):
            counts.update(_serve_counts(control.runtime, control.report(), start))
        return PassResult(
            jobs=done,
            submitted=submits,
            attempted=len(op_s),
            failed=failed_requests + (submits - done),
            events=control.sim.processed,
            cct_digest=cct_digest(r.cct_s for r in records),
            violations=len(violations),
            op_s=op_s,
            counts=counts,
            first_error=first_error,
        )


class PodSharded(Workload):
    """Pod-local jobs on ``FatTree(8, hosts_per_tor=4)`` across shard worker
    processes.  The ECN band is kept out of reach: ECN ramp marking draws
    the shared fabric RNG, which a sharded run refuses."""

    name = "pod_sharded"

    #: Worker processes: ``nproc`` on the 2-CPU bench box.
    shards = 2

    def __init__(self, jobs_per_pod: int = 64, message_bytes: int = 1 * MB) -> None:
        self.jobs_per_pod = jobs_per_pod
        self.message_bytes = message_bytes

    def topology(self, seed: int):
        return FatTree(8, hosts_per_tor=4)

    def inputs(self, topo, seed: int) -> ScenarioSpec:
        jobs = pod_local_jobs(topo, self.jobs_per_pod, 4, self.message_bytes, seed=seed)
        config = SimConfig(
            segment_bytes=segment_bytes_for(self.message_bytes),
            ecn_kmin_bytes=1 << 30,
            ecn_kmax_bytes=1 << 31,
        )
        return ScenarioSpec(
            topology=topo, scheme="peel", jobs=tuple(jobs), config=config,
            shards=self.shards, record_trace=True, event_digest=True,
        )

    def setup(self, topo, spec):
        return ShardedScenarioRun(spec, processes=True)

    def run(self, sharded, spec) -> PassResult:
        # The request is the whole run: a pass has only a handful of
        # barrier windows, of sizes that grow geometrically.
        t0 = time.perf_counter()
        result = sharded.finish()
        op_s = [time.perf_counter() - t0]
        done = sum(1 for cct in result.ccts if cct is not None)
        return PassResult(
            jobs=done,
            submitted=len(spec.jobs),
            attempted=len(spec.jobs),
            failed=len(spec.jobs) - done,
            events=result.replay.events_processed,
            cct_digest=cct_digest(result.ccts),
            violations=len(result.invariant_violations),
            op_s=op_s,
            counts={
                "sim.network.bytes_sent": result.total_bytes,
                "sim.network.pfc_pause_events": result.pfc_pause_events,
                "shard.windows": sharded.windows_run,
            },
            identity=_identity(result),
        )

    def reference(self, topo, spec) -> Reference:
        t0 = time.perf_counter()
        serial = ScenarioRun(dataclasses.replace(spec, shards=1))
        result = serial.finish()
        wall = time.perf_counter() - t0
        network = serial.env.network
        return Reference(
            wall_s=wall,
            identity=_identity(result),
            counts={
                "sim.network.ecn_marks": sum(
                    p.ecn_marks for p in network.ports.values()
                )
            },
        )

    def close(self, sharded) -> None:
        # Closing a shard's pipe never reaches its worker, which holds a
        # forked copy of the coordinator's end, so the shard's own close()
        # waits out a 10 s join per worker.  End the workers directly.
        for worker in multiprocessing.active_children():
            worker.terminate()
            worker.join()


def _identity(result) -> dict:
    return {
        "trace_digest": result.trace_digest,
        "event_digest": result.replay.event_digest,
        "cct_digest": cct_digest(result.ccts),
    }


#: Workload name -> class; each class's defaults are the benchmark sizes.
WORKLOADS = {
    cls.name: cls
    for cls in (
        PaperBroadcast,
        ServeFreshGroups,
        ServeRecurringGroups,
        ControlChurn,
        PodSharded,
    )
}
