"""Allgather: the multi-group extension (each rank multicasts its shard)."""

from repro.collectives import CollectiveEnv, Gpu, Group, resolve_scheme
from repro.sim import SimConfig
from repro.topology import FatTree


def _run_allgather(name: str, num_hosts: int, message_bytes: int):
    topo = FatTree(8, hosts_per_tor=4)
    env = CollectiveEnv(topo, SimConfig(segment_bytes=262144))
    hosts = sorted(topo.hosts)[:num_hosts]
    gpus = tuple(Gpu(h, 0) for h in hosts)
    handle = resolve_scheme(name).launch(env, Group(gpus[0], gpus), message_bytes, 0.0)
    env.run()
    assert handle.complete
    return handle.cct_s, env.network.total_bytes_sent()


def test_bench_allgather_ring_vs_peel(once):
    def pair():
        return {
            name: _run_allgather(name, 32, 64 * 2**20)
            for name in ("allgather-ring", "allgather-peel")
        }

    results = once(pair)
    print()
    for name, (cct, total) in results.items():
        print(f"{name:<16} cct={cct * 1e3:8.2f}ms fabric={total / 2**30:6.2f} GiB")
    ring_cct, ring_bytes = results["allgather-ring"]
    peel_cct, peel_bytes = results["allgather-peel"]
    # Allgather's floor is each NIC receiving (N-1)/N of the message, so
    # CCTs are comparable — the win is fabric bytes (freed core capacity).
    assert peel_bytes < 0.7 * ring_bytes
    assert peel_cct < 2.0 * ring_cct


def test_bench_allreduce_ring_vs_peel(once):
    def pair():
        return {
            name: _run_allgather(name, 32, 64 * 2**20)
            for name in ("allreduce-ring", "allreduce-peel")
        }

    results = once(pair)
    print()
    for name, (cct, total) in results.items():
        print(f"{name:<16} cct={cct * 1e3:8.2f}ms fabric={total / 2**30:6.2f} GiB")
    ring_cct, ring_bytes = results["allreduce-ring"]
    peel_cct, peel_bytes = results["allreduce-peel"]
    # The allgather half rides PEEL multicast: fewer fabric bytes at
    # comparable CCT (reduce-scatter dominates and is identical).
    assert peel_bytes < ring_bytes
    assert peel_cct < 1.5 * ring_cct
