"""Scenario: where did the bytes go?  Telemetry behind the CCT numbers.

Runs the same 128-GPU, 32 MB broadcast under Ring, Binary Tree and PEEL and
prints each run's per-tier utilization and hottest links — making visible
*why* the unicast schemes lose: they hammer the edge-up and core tiers the
multicast tree barely touches.

Run:  python examples/fabric_telemetry.py
"""

from repro.collectives import CollectiveEnv, Gpu, Group, resolve_scheme
from repro.sim import SimConfig, fabric_summary, format_summary
from repro.topology import FatTree

MB = 2**20


def main() -> None:
    for name in ("ring", "tree", "peel"):
        fabric = FatTree(8, hosts_per_tor=32)
        env = CollectiveEnv(fabric, SimConfig(segment_bytes=262144))
        hosts = sorted(fabric.hosts)[:128]
        gpus = tuple(Gpu(h, 0) for h in hosts)
        handle = resolve_scheme(name).launch(
            env, Group(gpus[0], gpus), 32 * MB, arrival_s=0.0
        )
        env.run()
        print(f"\n=== {name}: CCT {handle.cct_s * 1e3:.2f} ms ===")
        print(format_summary(fabric_summary(env.network, top_links=3)))


if __name__ == "__main__":
    main()
