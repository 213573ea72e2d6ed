"""Scenario: an always-on multicast service shared by two tenants.

A k=8 fat-tree serves a 1,000-job stream of concurrent broadcasts from two
tenants — a training tenant pushing 16-GPU 256 KB collectives and an
inference tenant fanning 64 KB weights to 8 GPUs.  Every job passes through
admission (TCAM-budget- and link-load-aware), queues when the fabric is
busy, and runs overlapped with everything else already in flight.

The serving SLOs make the paper's deploy-once argument (§3) concrete:

* **peel** serves the whole stream with **zero** switch updates — the k-1
  prefix rules were installed once, before the first job — and its plan
  cache absorbs most planning work because schedulers keep producing the
  same group shapes;
* **orca** installs and removes per-group entries the whole time; with a
  small commodity TCAM slice the admission policy has to park most of the
  stream in the queue until entries free up, and every job also pays the
  controller's flow-setup delay in its tail;
* **ip-multicast** shares per-subset entries (cheaper than Orca) but still
  churns the control plane on every group arrival and departure.

Run:  python examples/serving_demo.py [--jobs 1000] [--check-invariants]
"""

import argparse

from repro.api import segment_bytes_for
from repro.metrics import format_slo_table
from repro.serve import (
    SERVE_SCHEMES,
    CompositeAdmission,
    LinkLoadAdmission,
    TcamAdmission,
    serve_jobs,
)
from repro.sim import SimConfig
from repro.topology import FatTree
from repro.workloads import TenantSpec, generate_tenant_jobs

KB = 1024
TCAM_CAPACITY = 16  # multicast slice of a shared commodity TCAM
SCHEMES = ("peel", "orca", "ip-multicast")


def tenant_stream(topo, num_jobs: int, seed: int):
    """Two tenants sharing the fabric: training broadcasts + weight pushes."""
    train = (num_jobs * 3) // 5
    tenants = (
        TenantSpec("train", train, num_gpus=16, message_bytes=256 * KB,
                   offered_load=0.5),
        TenantSpec("infer", num_jobs - train, num_gpus=8, message_bytes=64 * KB,
                   offered_load=0.3),
    )
    return generate_tenant_jobs(topo, tenants, gpus_per_host=1, seed=seed)


def serve(topo, scheme, jobs, check_invariants):
    config = SimConfig(segment_bytes=segment_bytes_for(256 * KB))
    report, _runtime = serve_jobs(
        topo, scheme, jobs, config,
        admission=CompositeAdmission(
            TcamAdmission(), LinkLoadAdmission(8 * 256 * KB)
        ),
        tcam_capacity=TCAM_CAPACITY,
        check_invariants=check_invariants,
    )
    return report


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--jobs", type=int, default=1000,
                        help="stream length (default 1000)")
    parser.add_argument("--schemes", nargs="+", default=list(SCHEMES),
                        choices=SERVE_SCHEMES)
    parser.add_argument("--check-invariants", action="store_true",
                        help="attach the fabric invariant checker (slower)")
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args()

    topo = FatTree(8, hosts_per_tor=4)
    jobs = tenant_stream(topo, args.jobs, args.seed)
    print(f"serving {len(jobs)} jobs from {len(set(j.tenant for j in jobs))} "
          f"tenants on a k=8 fat-tree ({len(topo.hosts)} hosts), "
          f"TCAM slice = {TCAM_CAPACITY} entries/switch\n")

    reports = {}
    for scheme in args.schemes:
        report = reports[scheme] = serve(topo, scheme, jobs, args.check_invariants)
        print(f"=== {scheme} ===")
        print(format_slo_table(report.tenants + [report.total]))
        print(f"switch updates: {report.switch_updates}, "
              f"peak entries/switch: {report.peak_entries_per_switch}, "
              f"queued: {report.queued_jobs}, "
              f"plan-cache hit rate: {report.cache_hit_rate:.1%}"
              + (" (invariants OK)" if args.check_invariants else ""))
        print()

    if "peel" in reports:
        peel = reports["peel"]
        assert peel.switch_updates == 0, "PEEL must never touch a switch"
        assert peel.cache_hit_rate > 0.5, "plan cache should absorb repeats"
        print(f"peel: zero switch updates across {len(jobs)} jobs; "
              f"{peel.cache_hit_rate:.1%} of plans served from cache")
    if "orca" in reports:
        orca = reports["orca"]
        parked = orca.queued_jobs + orca.total.rejected
        assert parked > 0, "small TCAM should have throttled orca"
        line = (f"orca: TCAM pressure queued/rejected {parked} jobs and "
                f"installed {orca.switch_updates} rule updates; "
                f"p99 CCT {orca.total.cct.p99_s * 1e3:.2f} ms")
        if "peel" in reports:
            line += (f" vs {reports['peel'].total.cct.p99_s * 1e3:.2f} ms "
                     f"for peel")
        print(line)


if __name__ == "__main__":
    main()
