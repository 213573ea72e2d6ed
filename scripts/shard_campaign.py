#!/usr/bin/env python
"""Acceptance campaign for the sharded core: a million-job serve stream
across shard worker processes, proven byte-identical to a serial run.

Builds a pod-local multi-tenant workload on a fat-tree, serves it through
:class:`repro.shard.ShardedServe` (one forked worker per shard, lockstep
conservative windows), then serves the *same* submit stream through a
single serial :class:`repro.serve.ServeRuntime` and compares the serve
fact set (:mod:`repro.replay.facts`): the chained golden-trace digest
(every fabric event, renamed to global transfer spellings, hashed in
global order), the fired-event digest chain, events processed, and the
full per-tenant :class:`ServeReport` (SLO rows, goodput, cache and TCAM
counters).

Invariant cleanliness is enforced on both sides: every shard runs
``finalize_checks()`` and raises on any violation, as does the serial
comparator.  Exit status 1 on any byte difference.

    python scripts/shard_campaign.py --num-jobs 1000000 --shards 8
    python scripts/shard_campaign.py --quick            # CI-sized smoke
    python scripts/shard_campaign.py --skip-serial      # sharded half only
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(REPO_ROOT, "src"))

from repro.metrics import format_slo_table  # noqa: E402
from repro.replay.facts import diff_facts, serve_facts  # noqa: E402
from repro.serve import ServeRuntime  # noqa: E402
from repro.serve.cache import PlanCache  # noqa: E402
from repro.shard import ServeShardSpec, pod_local_jobs, serve_sharded  # noqa: E402
from repro.sim import SimConfig  # noqa: E402
from repro.topology import FatTree  # noqa: E402

KB = 1024

TENANTS = ("train", "infer", "eval", "batch")


def build_workload(args: argparse.Namespace):
    topo = FatTree(args.pods, hosts_per_tor=args.hosts_per_tor)
    jobs_per_pod = -(-args.num_jobs // args.pods)  # ceil
    jobs = pod_local_jobs(
        topo,
        jobs_per_pod,
        args.group_hosts,
        args.message_kb * KB,
        offered_load=args.load,
        seed=args.seed,
        tenants=TENANTS,
    )
    # The ECN marking band is pushed out of reach: probabilistic marks
    # draw from the fabric RNG, which the sharded runner refuses (see
    # repro/shard/runner.py) — the campaign runs the deterministic
    # regime sharding supports.
    config = SimConfig(
        segment_bytes=64 * KB,
        seed=args.seed,
        ecn_kmin_bytes=1 << 30,
        ecn_kmax_bytes=1 << 31,
    )
    return topo, jobs, config


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--num-jobs", type=int, default=1_000_000,
                        help="total jobs across all pods (default: 1M)")
    parser.add_argument("--shards", type=int, default=8)
    parser.add_argument("--pods", type=int, default=8,
                        help="fat-tree arity k = pod count (even)")
    parser.add_argument("--hosts-per-tor", type=int, default=4)
    parser.add_argument("--group-hosts", type=int, default=3)
    parser.add_argument("--message-kb", type=int, default=64)
    parser.add_argument("--load", type=float, default=0.25,
                        help="offered load per pod")
    parser.add_argument("--scheme", default="peel")
    parser.add_argument("--seed", type=int, default=2026)
    parser.add_argument("--plan-cache-size", type=int, default=1 << 16,
                        help="plan-cache capacity on BOTH sides; must "
                             "exceed the distinct-shape working set (LRU "
                             "eviction is not shardable, and a shard that "
                             "evicts refuses to finalize)")
    parser.add_argument("--quick", action="store_true",
                        help="CI smoke: 2000 jobs on 2 shards")
    parser.add_argument("--skip-serial", action="store_true",
                        help="run only the sharded half (no identity proof)")
    parser.add_argument("--in-process", action="store_true",
                        help="lockstep windows in one process (debugging)")
    parser.add_argument("--summary-out", metavar="PATH",
                        help="write a JSON summary here")
    args = parser.parse_args(argv)
    if args.quick:
        args.num_jobs = min(args.num_jobs, 2000)
        args.shards = 2
        args.pods = 4

    topo, jobs, config = build_workload(args)
    print(f"workload: {len(jobs)} jobs, {len(topo.hosts)} hosts, "
          f"{args.pods} pods, scheme {args.scheme}", file=sys.stderr)

    sspec = ServeShardSpec(
        topology=topo,
        scheme=args.scheme,
        jobs=tuple(jobs),
        shards=args.shards,
        config=config,
        record_trace=True,
        event_digest=True,
        plan_cache_size=args.plan_cache_size,
    )
    t0 = time.perf_counter()
    sharded = serve_sharded(sspec, processes=not args.in_process)
    sharded_wall = time.perf_counter() - t0
    print(f"sharded: {sharded.events_processed} events over "
          f"{sharded.windows} windows in {sharded_wall:.1f}s "
          f"({args.shards} workers)", file=sys.stderr)
    print(format_slo_table(sharded.report.tenants + [sharded.report.total]))

    summary = {
        "num_jobs": len(jobs),
        "shards": args.shards,
        "windows": sharded.windows,
        "events": sharded.events_processed,
        "sharded_wall_s": round(sharded_wall, 2),
        "trace_digest": sharded.trace_digest,
        "event_digest": sharded.event_digest,
    }
    identical = None
    if not args.skip_serial:
        t0 = time.perf_counter()
        serial = ServeRuntime(
            topo, args.scheme, config, record_trace=True,
            plan_cache=PlanCache(args.plan_cache_size),
        )
        serial.env.sim.attach_digest()
        serial.submit_all(jobs)
        serial.run()
        serial_facts = serve_facts(serial)
        serial_wall = time.perf_counter() - t0
        print(f"serial: {serial.env.sim.processed} events in "
              f"{serial_wall:.1f}s", file=sys.stderr)
        mismatches = diff_facts(serial_facts, serve_facts(sharded))
        identical = not mismatches
        summary.update(
            serial_wall_s=round(serial_wall, 2),
            byte_identical=identical,
        )
        verdict = ("byte-identical" if identical
                   else f"DIVERGED ({', '.join(mismatches)})")
        print(f"serial vs {args.shards}-shard: {verdict}")
    if args.summary_out:
        with open(args.summary_out, "w", encoding="utf-8") as fh:
            json.dump(summary, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"summary written to {args.summary_out}", file=sys.stderr)
    return 0 if identical in (None, True) else 1


if __name__ == "__main__":
    sys.exit(main())
