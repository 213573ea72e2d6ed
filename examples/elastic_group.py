"""Scenario: an elastic training job growing and shrinking its group.

The job's group lives in a :class:`~repro.control.ControlPlane`.  While a
weight broadcast is in flight the job scales out to its whole pod, bursts
into two more pods and then loses one of them to preemption.  Every join
grafts the host onto the running broadcast's PEEL trees and backfills
what it missed; every leave prunes it.  Only the source's trees change:
the switches' power-of-two rule set is never touched, the "deploy-once,
touch-never" property that makes PEEL operable (§3.2).

Run:  python examples/elastic_group.py
"""

from repro.control import ControlPlane, LocalClient
from repro.sim import SimConfig
from repro.topology import FatTree

KB = 1024
MB = 1024 * KB
SOURCE = "host:p2:t0:0"


def describe(tag: str, control: ControlPlane, gid: int, job: int) -> None:
    group = control.groups[gid]
    pods = sorted({h.split(":")[1] for h in group.members | {group.source}})
    counters = control.counters
    status = control.runtime.records[job].status
    print(f"{tag:<22} t={control.now * 1e6:5.0f} us  "
          f"members={len(group.members) + 1:>3}  pods={pods}  "
          f"broadcast {status:<7}  grafts={counters['grafts']:>2}  "
          f"prunes={counters['prunes']}")


def main() -> None:
    control = ControlPlane(
        FatTree(8, hosts_per_tor=4),
        "peel",
        SimConfig(segment_bytes=64 * KB),
        check_invariants=True,
    )
    client = LocalClient(control)

    # A job starts on one rack and broadcasts its weights...
    gid = client.create_group(
        "train", SOURCE, [f"host:p2:t0:{i}" for i in range(1, 4)]
    )
    job = client.submit(gid, 4 * MB)
    client.advance(until_s=20e-6)
    describe("start (one rack)", control, gid, job)

    # ...scales out to its whole pod while the broadcast is in flight...
    for host in [f"host:p2:t{t}:{i}" for t in range(1, 4) for i in range(4)]:
        client.join(gid, host, at_s=50e-6)
    client.advance(until_s=60e-6)
    describe("scale-out (whole pod)", control, gid, job)

    # ...bursts into two more pods...
    for host in [f"host:p{p}:t{t}:0" for p in (4, 5) for t in range(4)]:
        client.join(gid, host, at_s=100e-6)
    client.advance(until_s=110e-6)
    describe("burst (pods 2,4,5)", control, gid, job)

    # ...then shrinks back as preemptions hit, still mid-broadcast.
    for host in [f"host:p5:t{t}:0" for t in range(4)]:
        client.leave(gid, host, at_s=150e-6)
    client.advance(until_s=160e-6)
    describe("after preemption", control, gid, job)

    client.run()
    report = client.report()
    counters = control.counters
    cct_s = control.runtime.records[job].cct_s
    print(f"\nbroadcast CCT:        {cct_s * 1e6:.0f} us")
    print(f"joins / leaves:       {counters['joins']} / {counters['leaves']} "
          f"({counters['full_repeels']} full re-peels at the source)")
    print(f"switch rule updates:  {report['switch_updates']} (always)")
    print(f"invariant violations: {len(report['violations'])}")
    if report["switch_updates"] or report["violations"]:
        raise SystemExit("churn touched switch rules or broke an invariant")


if __name__ == "__main__":
    main()
