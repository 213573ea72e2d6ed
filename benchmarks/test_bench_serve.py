"""Serving-runtime throughput: sustained jobs/sec on a shared k=8 fat-tree.

Unlike the figure benches (one batch, one scheme at a time) this measures
the always-on path: a 600-job stream flowing through admission, the plan
cache, per-switch TCAM accounting and concurrent collectives on one fabric.
"""

import time

from repro.api import segment_bytes_for
from repro.serve import (
    CompositeAdmission,
    LinkLoadAdmission,
    TcamAdmission,
    serve_jobs,
)
from repro.sim import SimConfig
from repro.topology import FatTree
from repro.workloads import generate_jobs

KB = 1024
NUM_JOBS = 600
MESSAGE = 256 * KB


def _serve(scheme: str):
    topo = FatTree(8, hosts_per_tor=4)
    jobs = generate_jobs(
        topo, NUM_JOBS, 16, MESSAGE, offered_load=0.5, gpus_per_host=1, seed=5
    )
    config = SimConfig(segment_bytes=segment_bytes_for(MESSAGE))
    start = time.perf_counter()
    report, _ = serve_jobs(
        topo, scheme, jobs, config,
        admission=CompositeAdmission(
            TcamAdmission(), LinkLoadAdmission(8 * MESSAGE)
        ),
        tcam_capacity=24,
    )
    return report, NUM_JOBS / (time.perf_counter() - start)


def test_bench_serve_peel_stream(once):
    report, jobs_per_s = once(lambda: _serve("peel"))
    print()
    print(f"peel: {jobs_per_s:8.0f} jobs/s, "
          f"cache hit rate {report.cache_hit_rate:.1%}, "
          f"p99 CCT {report.total.cct.p99_s * 1e3:.3f} ms")
    assert report.total.submitted == NUM_JOBS
    assert report.switch_updates == 0  # deploy-once: serving never touches a switch
    assert report.cache_hit_rate > 0.5  # schedulers repeat group shapes


def test_bench_serve_scheme_sweep(once):
    def sweep():
        return {name: _serve(name) for name in ("peel", "orca", "ip-multicast")}

    results = once(sweep)
    print()
    for name, (report, jobs_per_s) in results.items():
        print(f"{name:<14} {jobs_per_s:8.0f} jobs/s  "
              f"updates={report.switch_updates:<6} "
              f"queued={report.queued_jobs:<5} "
              f"p99={report.total.cct.p99_s * 1e3:8.3f} ms")
    peel = results["peel"][0]
    orca = results["orca"][0]
    # The control-plane gap the paper's §3 predicts, end to end.
    assert peel.switch_updates == 0 < orca.switch_updates
    assert orca.total.cct.p99_s > peel.total.cct.p99_s
