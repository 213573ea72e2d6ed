"""Scenario: broadcasting model weights to a 512-GPU training job.

Reproduces the paper's motivating workload on its §4 fabric (8-ary
fat-tree, 4 servers/ToR, 8 GPUs each with a dedicated 100 Gb/s NIC) and
compares every collective scheme on the same Poisson workload.

Run:  python examples/training_job_broadcast.py [--gpus N] [--mb SIZE]
"""

import argparse

from repro import ScenarioSpec, run
from repro.experiments.common import MB, paper_fattree, sim_config
from repro.workloads import generate_jobs

SCHEMES = (
    "optimal", "peel", "peel:programmable_cores=true", "orca", "ring", "tree",
)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--gpus", type=int, default=512, help="job scale")
    parser.add_argument("--mb", type=int, default=64, help="message size (MB)")
    parser.add_argument("--jobs", type=int, default=8, help="collectives to run")
    parser.add_argument("--load", type=float, default=0.3, help="offered load")
    args = parser.parse_args()

    fabric = paper_fattree()
    message = args.mb * MB
    jobs = generate_jobs(
        fabric, args.jobs, args.gpus, message,
        offered_load=args.load, gpus_per_host=1, seed=7,
    )
    cfg = sim_config(message)

    print(f"{args.gpus}-GPU broadcast, {args.mb} MB messages, "
          f"{args.jobs} Poisson arrivals at {args.load:.0%} load\n")
    print(f"{'scheme':<12}{'mean CCT (ms)':>15}{'p99 CCT (ms)':>15}"
          f"{'fabric GiB':>12}")
    print("-" * 54)
    baseline = None
    for scheme in SCHEMES:
        result = run(ScenarioSpec(
            topology=fabric, scheme=scheme, jobs=tuple(jobs), config=cfg,
        ))
        if scheme == "optimal":
            baseline = result.stats.mean_s
        print(f"{result.scheme:<12}{result.stats.mean_s * 1e3:>15.2f}"
              f"{result.stats.p99_s * 1e3:>15.2f}"
              f"{result.total_bytes / 2**30:>12.1f}")
    print(f"\n(optimal mean = {baseline * 1e3:.2f} ms is the bandwidth floor)")


if __name__ == "__main__":
    main()
