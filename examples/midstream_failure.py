"""Scenario: a spine link dies while a Broadcast is in flight.

A 32-GPU, 8 MB PEEL Broadcast on a leaf-spine fabric; 40% of the way
through, a spine-leaf link the multicast trees depend on goes down.  The
fault injector blackholes every copy queued on or crossing the dead link,
re-peels the prefix-packet trees for the still-unfinished receivers on the
now-asymmetric topology, and selective-repeat repair re-multicasts whatever
the failure ate.  The collective completes, and the attached
InvariantChecker confirms the fabric never mis-accounted a byte along the
way (conservation, PFC quotas, exactly-once delivery, no deadlock).

Run:  python examples/midstream_failure.py
"""

from repro.collectives import CollectiveEnv, Gpu, Group, resolve_scheme
from repro.core import Peel
from repro.faults import FaultSchedule
from repro.sim import SimConfig
from repro.topology import LeafSpine

MB = 2**20
MESSAGE = 8 * MB


def build_group(hosts: list[str]) -> Group:
    members = tuple(Gpu(h, 0) for h in hosts)
    return Group(source=members[0], members=members)


def spine_link_in_plan(topo, source, receivers):
    """A spine-leaf link the static prefix-packet trees actually traverse."""
    for tree in Peel(topo).plan(source, receivers).static_trees:
        for child, parent in tree.parent.items():
            if parent is not None and parent.startswith("spine"):
                return parent, child
    raise RuntimeError("no spine link in plan")


def run(fault_schedule=None, label="clean"):
    topo = LeafSpine(4, 8, 4)
    group = build_group(topo.hosts[:32])
    env = CollectiveEnv(
        topo,
        SimConfig(segment_bytes=64 * 1024),
        fault_schedule=fault_schedule,
        check_invariants=True,
    )
    handle = resolve_scheme("peel").launch(env, group, MESSAGE, 0.0)
    env.run()
    violations = env.finalize_checks()

    print(f"--- {label} ---")
    print(f"completed:        {handle.complete}  (CCT {handle.cct_s * 1e3:.3f} ms)")
    print(f"blackholed copies: {env.network.failure_drops}")
    if env.fault_injector is not None:
        for t, name, link in env.fault_injector.repeels:
            print(f"re-peeled:        {name} at {t * 1e3:.3f} ms around "
                  f"{link[0]} -- {link[1]}")
    print(f"invariants:       {'OK' if not violations else violations}")
    print(env.invariants.summary())
    print()
    return handle.cct_s


def main() -> None:
    # Dry run: how long does the Broadcast take on a healthy fabric, and
    # which spine link does PEEL lean on?
    clean_cct = run(label="clean fabric")

    topo = LeafSpine(4, 8, 4)
    hosts = topo.hosts[:32]
    link = spine_link_in_plan(topo, hosts[0], hosts[1:])

    # Same Broadcast, but the link dies mid-flight and comes back much too
    # late to matter — PEEL must re-peel around it to finish.
    schedule = (
        FaultSchedule()
        .link_down(*link, at_s=0.4 * clean_cct)
        .link_up(*link, at_s=3.0 * clean_cct)
    )
    print(f"failing {link[0]} -- {link[1]} at {0.4 * clean_cct * 1e3:.3f} ms "
          f"(40% of clean CCT)\n")
    faulted_cct = run(fault_schedule=schedule, label="mid-stream spine failure")

    print(f"slowdown from mid-stream failure: {faulted_cct / clean_cct:.2f}x")


if __name__ == "__main__":
    main()
