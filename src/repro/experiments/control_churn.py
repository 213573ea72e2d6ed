"""Control-plane churn campaign: membership elasticity + congestion replans.

A multi-tenant serving campaign driven *through the control-plane service*
(`repro.control`): two tenants share four long-lived groups on a two-spine
leaf-spine fabric, submit a stream of collectives against them, and churn
membership the whole time — joins graft mid-flight receivers onto the
installed peel trees (with segment backfill), leaves prune them.  The
sweep runs the identical campaign with the congestion replanner off and
on: with every group's static trees initially sharing spine links, the
replanner's windowed utilization/ECN watch moves running groups onto cold
spines, which is where the p99 CCT delta comes from.

Rows carry a blake2b digest over the exact obs metrics+trace bytes; the
parallel-sweep test compares serial vs ``jobs=4`` digests byte-for-byte
(the campaign is a pure function of ``(replan, num_jobs, seed)``).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from hashlib import blake2b

from ..control import CongestionReplanner, ControlPlane, LocalClient
from ..obs import Observability
from ..serve import LinkLoadAdmission
from ..sim import SimConfig
from ..topology import LeafSpine
from .parallel import ProgressFn, SweepPoint, run_sweep

DEFAULT_NUM_JOBS = 60
DEFAULT_SEED = 11

#: Tenant workload shapes: (message_bytes, mean interarrival seconds).
#: Messages are sized so transfers span many replanner scan windows —
#: sub-millisecond collectives finish before congestion is even measurable,
#: leaving the replanner nothing to improve.
TENANTS = {
    "train": (4 << 20, 120e-6),
    "infer": (1 << 19, 60e-6),
}

#: One membership op (join or leave alternating per group) every N submits.
CHURN_EVERY = 4


@dataclass(frozen=True)
class ControlChurnRow:
    """One (replan on/off) campaign outcome."""

    replan: bool
    num_jobs: int
    completed: int
    rejected: int
    mean_cct_s: float
    p50_cct_s: float
    p99_cct_s: float
    joins: int
    leaves: int
    grafts: int
    prunes: int
    full_repeels: int
    graft_rejects: int
    replans: int
    cache_invalidations: int
    violations: int
    #: blake2b over the exact metrics+trace export bytes.
    digest: str


def _build_campaign(num_jobs: int, seed: int, gap_scale: float = 1.0):
    """The deterministic op script: groups, submits, joins, leaves.

    The generator tracks each group's membership itself so every join
    targets a current non-member and every leave a removable member —
    no-op churn would understate the elasticity being measured.

    ``gap_scale`` stretches every interarrival gap.  At 1.0 the offered
    load is ~3x fabric capacity — deliberately supercritical so the
    congestion replanner has a tail to cut, but the backlog (and
    simulation cost) then grows superlinearly in ``num_jobs``.  The
    replanner-*off* baseline keeps static trees sharing spine links, so
    long campaigns must pace until even a fully shared spine stays below
    line rate: 8.0 puts the worst-case shared load at ~0.87 (thousands
    of jobs run in linear time there); 4.0 is only subcritical per
    uplink and still melts shared spines.
    """
    topo = LeafSpine(2, 4, 2)
    hosts = topo.hosts
    rng = random.Random(f"control-churn:{seed}")
    groups = [
        ("train", hosts[0], {hosts[1], hosts[2], hosts[4]}),
        ("train", hosts[3], {hosts[2], hosts[5], hosts[6]}),
        ("infer", hosts[7], {hosts[0], hosts[5]}),
        ("infer", hosts[4], {hosts[1], hosts[6], hosts[7]}),
    ]
    ops = []
    members = {gid: set(m) for gid, (_, _, m) in enumerate(groups)}
    sources = {gid: src for gid, (_, src, _) in enumerate(groups)}
    clocks = dict.fromkeys(TENANTS, 0.0)
    for index in range(num_jobs):
        gid = index % len(groups)
        tenant = groups[gid][0]
        message_bytes, mean_gap = TENANTS[tenant]
        clocks[tenant] += rng.expovariate(1.0 / (mean_gap * gap_scale))
        at = clocks[tenant]
        ops.append(("submit", gid, message_bytes, at))
        if index % CHURN_EVERY != CHURN_EVERY - 1:
            continue
        churn_at = at + rng.uniform(10e-6, 80e-6)
        candidates = sorted(set(hosts) - members[gid] - {sources[gid]})
        if (index // CHURN_EVERY) % 2 == 0 and candidates:
            host = rng.choice(candidates)
            members[gid].add(host)
            ops.append(("join", gid, host, churn_at))
        elif len(members[gid]) > 2:
            host = rng.choice(sorted(members[gid]))
            members[gid].discard(host)
            ops.append(("leave", gid, host, churn_at))
    return topo, groups, ops


def load_campaign(
    num_jobs: int, seed: int, gap_scale: float = 1.0, **control_kwargs
) -> tuple[ControlPlane, float]:
    """The campaign's service, every group created and every op scheduled
    but nothing run, plus the last op's time.  ``control_kwargs`` (e.g.
    admission, replanner) reach the :class:`ControlPlane`."""
    topo, groups, ops = _build_campaign(num_jobs, seed, gap_scale)
    control = ControlPlane(
        topo,
        "peel",
        SimConfig(segment_bytes=65536, seed=seed),
        check_invariants=True,
        obs=Observability(sample_interval_s=100e-6),
        **control_kwargs,
    )
    client = LocalClient(control)
    gids = [
        client.create_group(tenant, source, members)
        for tenant, source, members in groups
    ]
    for op, gid, arg, at in ops:  # submit(bytes), join(host), leave(host)
        getattr(client, op)(gids[gid], arg, at_s=at)
    return control, max(op[-1] for op in ops)


def _point(
    replan: bool,
    num_jobs: int,
    seed: int,
    admit_mb: int | None = None,
    gap_scale: float = 1.0,
) -> ControlChurnRow:
    """Run one full campaign through the service (module-level and pure so
    the process-pool sweep can pickle it and digests stay byte-stable).

    ``admit_mb`` caps outstanding admitted bytes per link
    (:class:`LinkLoadAdmission`) — the service's admission gate, traded
    tail latency (head-of-line queueing) for bounded fabric occupancy.
    ``gap_scale`` paces the arrival clocks (see :func:`_build_campaign`);
    large campaigns should pace to a subcritical load.
    """
    replanner = CongestionReplanner() if replan else None
    admission = (
        LinkLoadAdmission(admit_mb << 20) if admit_mb is not None else None
    )
    control, _ = load_campaign(
        num_jobs, seed, gap_scale, admission=admission, replanner=replanner
    )
    obs = control.runtime.obs
    control.run()
    violations = control.finalize_checks()
    report = control.report()
    counters = control.counters
    digest = blake2b(digest_size=16)
    digest.update(obs.metrics_json().encode("utf-8"))
    digest.update(obs.trace_json().encode("utf-8"))
    cache = control.env.plan_cache
    return ControlChurnRow(
        replan=replan,
        num_jobs=num_jobs,
        completed=report.total.completed,
        rejected=report.total.rejected,
        mean_cct_s=report.total.cct.mean_s,
        p50_cct_s=report.total.cct.p50_s,
        p99_cct_s=report.total.cct.p99_s,
        joins=counters["joins"],
        leaves=counters["leaves"],
        grafts=counters["grafts"],
        prunes=counters["prunes"],
        full_repeels=counters["full_repeels"],
        graft_rejects=counters["graft_rejects"],
        replans=replanner.replans if replanner is not None else 0,
        cache_invalidations=cache.invalidations if cache is not None else 0,
        violations=len(violations),
        digest=digest.hexdigest(),
    )


def grid(
    num_jobs: int = DEFAULT_NUM_JOBS,
    seed: int = DEFAULT_SEED,
    replan_levels: tuple[bool, ...] = (False, True),
    admit_mb: int | None = None,
    gap_scale: float = 1.0,
) -> list[SweepPoint]:
    return [
        SweepPoint(
            _point,
            dict(replan=replan, num_jobs=num_jobs, seed=seed,
                 admit_mb=admit_mb, gap_scale=gap_scale),
            label=f"control replan={'on' if replan else 'off'}",
        )
        for replan in replan_levels
    ]


def run(
    num_jobs: int = DEFAULT_NUM_JOBS,
    seed: int = DEFAULT_SEED,
    jobs: int | None = 1,
    progress: ProgressFn | None = None,
    admit_mb: int | None = None,
    gap_scale: float = 1.0,
) -> list[ControlChurnRow]:
    return run_sweep(
        grid(num_jobs, seed, admit_mb=admit_mb, gap_scale=gap_scale),
        jobs=jobs,
        progress=progress,
    )


def format_table(rows: list[ControlChurnRow]) -> str:
    """Replanner off vs on: tail CCT next to churn/replan accounting."""
    lines = [
        f"{'replan':>7} {'jobs':>5} {'done':>5} {'p50_us':>8} {'p99_us':>8} "
        f"{'joins':>6} {'leaves':>7} {'grafts':>7} {'prunes':>7} "
        f"{'repeels':>8} {'replans':>8} {'viol':>5}",
    ]
    for row in rows:
        lines.append(
            f"{'on' if row.replan else 'off':>7} {row.num_jobs:>5} "
            f"{row.completed:>5} {row.p50_cct_s * 1e6:>8.1f} "
            f"{row.p99_cct_s * 1e6:>8.1f} {row.joins:>6} {row.leaves:>7} "
            f"{row.grafts:>7} {row.prunes:>7} {row.full_repeels:>8} "
            f"{row.replans:>8} {row.violations:>5}"
        )
    return "\n".join(lines)


if __name__ == "__main__":  # pragma: no cover
    print(format_table(run()))
