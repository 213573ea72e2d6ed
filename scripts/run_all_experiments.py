"""Run every experiment at paper-representative scale and dump the tables.

Used to regenerate EXPERIMENTS.md's measured numbers:
    python scripts/run_all_experiments.py > experiments_results.txt
    python scripts/run_all_experiments.py --workers 8   # parallel sweeps

``-j/--workers N`` fans each simulation sweep's grid out over N worker
processes (default: one per CPU); tables are byte-identical to a serial
``--workers 1`` run.
"""

import argparse
import time

from repro.experiments import (
    deployment,
    fig1_bandwidth,
    fig3_rsbf,
    fig4_orca,
    fig5_message_size,
    fig6_scale,
    fig7_failures,
    format_cct_table,
    fragmentation,
    guard_timer,
    headline,
    state_churn,
    tree_quality,
)
from repro.experiments.parallel import resolve_jobs, stderr_progress


def section(title):
    print(f"\n{'=' * 70}\n{title}\n{'=' * 70}", flush=True)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "-j", "--workers", type=int, default=None, metavar="N",
        help="worker processes per sweep (default: one per CPU; 1 = serial)")
    args = parser.parse_args()
    workers = resolve_jobs(args.workers)
    sweep = dict(
        jobs=workers,
        progress=stderr_progress() if workers > 1 else None,
    )
    t0 = time.time()

    section("Fig 1: bandwidth accounting (leaf-spine 2x2x4)")
    print(fig1_bandwidth.format_table(fig1_bandwidth.run()))

    section("Fig 3: RSBF header size vs k")
    print(fig3_rsbf.format_table(fig3_rsbf.run()))

    section("Headline: state table + bandwidth")
    print(headline.format_state_table(headline.state_table()))
    bw = headline.bandwidth_headline(num_gpus=64, trials=30)
    print(f"\nring={bw.ring_traversals} peel={bw.peel_static_traversals} "
          f"optimal={bw.optimal_traversals}")
    print(f"PEEL saves {bw.peel_saving_vs_ring:.1%} vs ring; "
          f"{bw.peel_overhead_vs_optimal:.1%} above optimal")

    section("Tree quality: greedy vs exact Steiner")
    print(tree_quality.format_table(tree_quality.run(trials=20)))

    section("Fig 4: Orca controller overhead (1024 GPUs)")
    rows = fig4_orca.run(sizes_mb=(2, 8, 32, 128), num_jobs=12, **sweep)
    print(format_cct_table(rows, "msg (MB)"))
    for size in (2, 8, 32, 128):
        print(f"p99 inflation at {size} MB: "
              f"{fig4_orca.tail_inflation(rows, size):.1f}x")

    section("Fig 5: CCT vs message size (512 GPUs, 30% load)")
    rows = fig5_message_size.run(sizes_mb=(2, 8, 32, 128, 512), num_jobs=10,
                                 **sweep)
    print(format_cct_table(rows, "msg (MB)"))

    section("Fig 6: CCT vs scale (64 MB)")
    rows = fig6_scale.run(scales=(32, 64, 128, 256, 512, 1024), num_jobs=8,
                          **sweep)
    print(format_cct_table(rows, "GPUs"))

    section("Fig 7: CCT vs failure rate (leaf-spine 16x48)")
    rows = fig7_failures.run(failure_pcts=(1, 2, 4, 8, 10), num_jobs=12,
                             **sweep)
    print(format_cct_table(rows, "failed %"))

    section("Guard-timer ablation (64-GPU, 32 MB)")
    rows = guard_timer.run(num_jobs=16)
    for r in rows:
        print(f"{r.variant:<12} mean={r.mean_s * 1e3:8.2f}ms "
              f"p99={r.p99_s * 1e3:8.2f}ms")
    print(f"tail improvement: {guard_timer.tail_improvement(rows):.1f}x")

    section("Fragmentation / adaptive packing")
    print(fragmentation.format_table(fragmentation.run()))

    section("Incremental deployment")
    print(deployment.format_table(deployment.run()))

    section("State under churn")
    print(state_churn.format_table(state_churn.run()))

    print(f"\ntotal wall time: {time.time() - t0:.0f}s")


if __name__ == "__main__":
    main()
