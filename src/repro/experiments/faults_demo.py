"""Dynamic-fault demo: fail a loaded spine link mid-Broadcast and watch
PEEL re-peel around it (§2.3) with the invariant checker attached.

Unlike :mod:`.fig7_failures` — which fails links *before* planning — this
scenario injects the fault while bytes are in flight: queued and in-flight
copies on the dead link are blackholed, the fault injector re-plans the
multicast trees for the still-unfinished receivers on the degraded
topology, and selective-repeat repair re-multicasts whatever was lost.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..api import ScenarioSpec
from ..api import run as run_scenario
from ..collectives import locality_key, resolve_scheme
from ..collectives.multicast import steiner_tree
from ..collectives.orca import rack_agents
from ..core import Peel
from ..faults import FaultSchedule
from ..topology import LeafSpine
from ..workloads import generate_jobs
from .common import MB, sim_config

#: Schemes that register a replanner with the fault injector.  Orca's
#: controller re-installs the trunk tree; its rack-local relay legs (like
#: ring/tree relay chains) are not fault-recoverable.
RECOVERABLE_SCHEMES = (
    "peel", "peel:programmable_cores=true", "optimal", "orca",
    "elmo", "bert", "rsbf", "lipsin", "ip-multicast",
)


@dataclass(frozen=True)
class FaultDemoResult:
    scheme: str
    link: tuple[str, str] | None  # None when an explicit schedule was given
    down_at_s: float | None
    up_at_s: float | None
    num_events: int
    clean_cct_s: float
    faulted_cct_s: float
    repeels: list  # (time_s, transfer_name, link) tuples
    failure_drops: int
    violations: list
    trace_digest: str | None


def pick_loaded_link(topo, scheme_name: str, source: str, receivers: list[str]):
    """A spine-leaf link the scheme's own planner puts in its plan (so
    failing it mid-run forces a re-plan rather than a no-op)."""
    if scheme_name.startswith("peel"):
        trees = Peel(topo).plan(source, receivers).static_trees
    elif scheme_name == "orca":
        hosts = sorted({source, *receivers}, key=locality_key)
        _, agents = rack_agents(topo, source, hosts)
        remote = sorted(a for a in agents.values() if a != source)
        trees = [steiner_tree(topo, source, remote)]
    else:
        trees = [steiner_tree(topo, source, receivers)]
    for tree in trees:
        for child, parent in tree.parent.items():
            if parent is not None and parent.startswith("spine"):
                return (parent, child)
    raise RuntimeError("plan uses no spine links; group too local for the demo")


def run(
    scheme: str = "peel",
    num_gpus: int = 32,
    message_mb: int = 8,
    schedule: FaultSchedule | None = None,
    restore: bool = True,
    seed: int = 3,
    spines: int = 4,
    leaves: int = 8,
    hosts_per_leaf: int = 4,
    record_trace: bool = False,
) -> FaultDemoResult:
    """Run the same Broadcast clean and faulted; invariants are always on.

    Without an explicit ``schedule``, a spine-leaf link carrying the
    collective goes down at 40% of the clean CCT (and comes back after the
    clean CCT would have elapsed, unless ``restore=False``).  A schedule
    naming a link or switch the fabric lacks raises ``FaultTargetError``.
    """
    if scheme not in RECOVERABLE_SCHEMES:
        raise ValueError(
            f"scheme {scheme!r} does not re-plan on faults; "
            f"pick one of {RECOVERABLE_SCHEMES}"
        )
    scheme_obj = resolve_scheme(scheme)
    topo = LeafSpine(spines, leaves, hosts_per_leaf)
    if schedule is not None:
        schedule.validate(topo)
    msg = message_mb * MB
    cfg = sim_config(msg, seed=seed)
    jobs = generate_jobs(topo, 1, num_gpus, msg, gpus_per_host=1, seed=seed)
    job = jobs[0]

    clean = run_scenario(
        ScenarioSpec(
            topology=topo, scheme=scheme_obj, jobs=(job,), config=cfg,
            check_invariants=True,
        )
    )
    clean_cct = clean.stats.mean_s

    down_at = up_at = link = None
    if schedule is None:
        source = job.group.source.host
        link = pick_loaded_link(topo, scheme, source, job.group.receiver_hosts)
        down_at = job.arrival_s + 0.4 * clean_cct
        schedule = FaultSchedule().link_down(*link, at_s=down_at)
        if restore:
            up_at = job.arrival_s + 2.0 * clean_cct
            schedule.link_up(*link, at_s=up_at)

    faulted = run_scenario(
        ScenarioSpec(
            topology=topo,
            scheme=scheme_obj,
            jobs=(job,),
            config=cfg,
            check_invariants=True,
            fault_schedule=schedule,
            record_trace=record_trace,
        )
    )
    return FaultDemoResult(
        scheme=faulted.scheme,
        link=link,
        down_at_s=down_at,
        up_at_s=up_at,
        num_events=len(schedule),
        clean_cct_s=clean_cct,
        faulted_cct_s=faulted.stats.mean_s,
        repeels=list(faulted.repeels),
        failure_drops=faulted.failure_drops,
        violations=list(faulted.invariant_violations),
        trace_digest=faulted.trace_digest,
    )


def format_result(r: FaultDemoResult) -> str:
    lines = [f"scheme            {r.scheme}"]
    if r.link is not None:
        lines.append(
            f"failed link       {r.link[0]} -- {r.link[1]} "
            f"(down at {r.down_at_s * 1e3:.3f} ms)"
        )
    else:
        lines.append(f"fault schedule    {r.num_events} explicit event(s)")
    lines += [
        f"clean CCT         {r.clean_cct_s * 1e3:.3f} ms",
        f"faulted CCT       {r.faulted_cct_s * 1e3:.3f} ms "
        f"({r.faulted_cct_s / r.clean_cct_s:.2f}x)",
        f"copies blackholed {r.failure_drops}",
        f"re-plans          {len(r.repeels)}",
    ]
    for t, name, link in r.repeels:
        lines.append(f"  {t * 1e3:9.3f} ms  {name} re-planned around "
                     f"{link[0]} -- {link[1]}")
    lines.append(
        f"invariants        "
        f"{'OK (0 violations)' if not r.violations else r.violations}"
    )
    if r.trace_digest:
        lines.append(f"trace digest      {r.trace_digest}")
    return "\n".join(lines)


if __name__ == "__main__":  # pragma: no cover
    print(format_result(run()))
