"""Instrumented reference runs for the observability layer (``repro obs``).

Three tiny, fully deterministic scenarios — a PEEL broadcast batch, a
mid-collective link flap, and a two-tenant serving stream — each run with
:class:`repro.obs.Observability` attached and exported as a metrics JSON
plus a Chrome-trace timeline.  The exact serialized bytes of each scenario
are committed as golden fixtures under ``tests/golden/`` and re-generated
on every test run (serially and through the process-pool sweep executor),
so any behavioural drift in serialization, queueing, ECN/PFC/DCQCN
dynamics or span structure fails loudly instead of silently moving a
figure.

The point functions are module-level and picklable on purpose: the golden
suite pushes them through :func:`repro.experiments.parallel.run_sweep`
with ``jobs=1`` and ``jobs=4`` and asserts byte-identical output.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..api import ScenarioSpec
from ..api import run as run_scenario
from ..faults import FaultSchedule
from ..obs import Observability
from ..serve import ServeRuntime, TcamAdmission
from ..topology import LeafSpine
from ..workloads import TenantSpec, generate_jobs, generate_tenant_jobs
from .common import sim_config

KB = 1024

SCENARIOS = ("headline", "fault", "serve", "elmo", "bert")


@dataclass(frozen=True)
class ObsResult:
    """One instrumented run: serialized artifacts plus headline numbers."""

    scenario: str
    metrics_json: str
    trace_json: str
    summary: str
    num_spans: int


def _observability(sample_interval_s: float, detail: str) -> Observability:
    return Observability(sample_interval_s=sample_interval_s, detail=detail)


def run_headline(
    sample_interval_s: float = 50e-6, detail: str = "segment"
) -> ObsResult:
    """Tiny PEEL broadcast batch (the headline bench, shrunk to fixture
    size): 3 concurrent collectives on a 2x4 leaf-spine."""
    topo = LeafSpine(2, 4, 2)
    message_bytes = 256 * KB
    cfg = sim_config(message_bytes, seed=1)
    jobs = generate_jobs(
        topo, 3, 6, message_bytes, offered_load=0.4, gpus_per_host=1, seed=1
    )
    obs = _observability(sample_interval_s, detail)
    run_scenario(
        ScenarioSpec(
            topology=topo, scheme="peel", jobs=tuple(jobs), config=cfg,
            obs=obs,
        )
    )
    return _result("headline", obs)


def run_fault(
    sample_interval_s: float = 50e-6, detail: str = "transfer"
) -> ObsResult:
    """One broadcast with a spine link flapping mid-collective: the trace
    shows the re-peel instant and the repair traffic it triggers."""
    from .faults_demo import pick_loaded_link

    topo = LeafSpine(2, 4, 2)
    message_bytes = 512 * KB
    cfg = sim_config(message_bytes, seed=5)
    jobs = generate_jobs(topo, 1, 8, message_bytes, gpus_per_host=1, seed=5)
    job = jobs[0]
    link = pick_loaded_link(
        topo, "peel", job.group.source.host, job.group.receiver_hosts
    )
    schedule = (
        FaultSchedule()
        .link_down(*link, at_s=job.arrival_s + 15e-6)
        .link_up(*link, at_s=job.arrival_s + 120e-6)
    )
    obs = _observability(sample_interval_s, detail)
    run_scenario(
        ScenarioSpec(
            topology=topo, scheme="peel", jobs=(job,), config=cfg,
            fault_schedule=schedule, obs=obs,
        )
    )
    return _result("fault", obs)


def run_serve(
    sample_interval_s: float = 50e-6, detail: str = "transfer"
) -> ObsResult:
    """Two-tenant serving stream under a TCAM admission budget: per-tenant
    SLO histograms plus periodic queue/TCAM snapshots on the timeline."""
    topo = LeafSpine(2, 4, 2)
    tenants = [
        TenantSpec("train", num_jobs=6, num_gpus=6, message_bytes=128 * KB,
                   offered_load=0.5),
        TenantSpec("infer", num_jobs=8, num_gpus=4, message_bytes=64 * KB,
                   offered_load=0.5),
    ]
    jobs = generate_tenant_jobs(topo, tenants, gpus_per_host=1, seed=9)
    cfg = sim_config(128 * KB, seed=9)
    obs = _observability(sample_interval_s, detail)
    runtime = ServeRuntime(
        topo, "ip-multicast", cfg, admission=TcamAdmission(),
        tcam_capacity=16, obs=obs,
    )
    runtime.submit_all(jobs)
    runtime.run()
    runtime.report()  # folds cache/TCAM counters into the registry
    return _result("serve", obs)


def _run_sourcerouted(
    scenario: str, scheme: str, sample_interval_s: float, detail: str
) -> ObsResult:
    """A source-routed broadcast batch: headers charged per segment show
    up in the byte counters, per-group switch state stays (near) zero."""
    topo = LeafSpine(2, 4, 2)
    message_bytes = 256 * KB
    cfg = sim_config(message_bytes, seed=3)
    jobs = generate_jobs(
        topo, 3, 6, message_bytes, offered_load=0.4, gpus_per_host=1, seed=3
    )
    obs = _observability(sample_interval_s, detail)
    run_scenario(
        ScenarioSpec(
            topology=topo, scheme=scheme, jobs=tuple(jobs), config=cfg,
            obs=obs,
        )
    )
    return _result(scenario, obs)


def run_elmo(
    sample_interval_s: float = 50e-6, detail: str = "segment"
) -> ObsResult:
    """Elmo bitmap headers under a budget tight enough that some trees
    spill into default-to-spine s-rules."""
    return _run_sourcerouted(
        "elmo", "elmo:header_bytes=8", sample_interval_s, detail
    )


def run_bert(
    sample_interval_s: float = 50e-6, detail: str = "segment"
) -> ObsResult:
    """Bert label stacks: every hop strips its own label, zero TCAM."""
    return _run_sourcerouted("bert", "bert", sample_interval_s, detail)


def _result(scenario: str, obs: Observability) -> ObsResult:
    obs.finalize()
    return ObsResult(
        scenario=scenario,
        metrics_json=obs.metrics_json(),
        trace_json=obs.trace_json(),
        summary=obs.summary(),
        num_spans=len(obs.tracer.spans),
    )


RUNNERS = {
    "headline": run_headline,
    "fault": run_fault,
    "serve": run_serve,
    "elmo": run_elmo,
    "bert": run_bert,
}


def run(scenario: str = "headline", **kwargs) -> ObsResult:
    """Run one named scenario with observability attached."""
    try:
        runner = RUNNERS[scenario]
    except KeyError:
        raise ValueError(
            f"unknown obs scenario {scenario!r}; choose from {SCENARIOS}"
        ) from None
    return runner(**kwargs)
