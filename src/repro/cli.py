"""Command-line interface: run any reproduced experiment from a shell.

    python -m repro fig1
    python -m repro fig5 --sizes 2 8 32 --num-jobs 8 --check-invariants
    python -m repro fig5 --workers 4         # sweep on 4 worker processes
    python -m repro faults --scheme peel --trace /tmp/golden.trace
    python -m repro faults --schedule my_faults.json
    python -m repro churn --num-jobs 1000
    python -m repro replay --scenario fault
    python -m repro soak --target control --epochs 5 --state-dir /tmp/soak
    python -m repro list

Flag conventions: ``--num-jobs`` is always *simulated collectives per
scenario point*; ``-j``/``--workers`` is always *worker processes* for a
sweep (default: one per CPU; 1 = serial in-process, byte-identical
results).
"""

from __future__ import annotations

import argparse
import sys
from collections.abc import Callable

from .experiments import (
    control_churn,
    deployment,
    failover,
    faults_demo,
    fig1_bandwidth,
    fig3_frontier,
    fig3_rsbf,
    fig4_orca,
    fig5_message_size,
    fig6_scale,
    fig7_failures,
    fig_serving,
    format_cct_table,
    fragmentation,
    guard_timer,
    headline,
    obs_demo,
    state_churn,
    tree_quality,
)
from .collectives import resolve_scheme
from .experiments.parallel import resolve_jobs, stderr_progress
from .faults import FaultSchedule, FaultTargetError
from .replay.soak import TARGETS as SOAK_TARGETS

EXPERIMENTS = {
    "fig1": "unicast vs multicast bandwidth (analytic)",
    "fig3": "RSBF Bloom header size sweep (analytic)",
    "frontier": "header bytes vs switch state frontier, all schemes "
                "(simulation)",
    "fig4": "Orca controller setup delay (simulation)",
    "fig5": "CCT vs message size, all schemes (simulation)",
    "fig6": "CCT vs scale at 64 MB (simulation)",
    "fig7": "CCT vs failure rate (simulation)",
    "faults": "mid-Broadcast link failure + re-peel demo (simulation)",
    "failover": "proactive fast-failover vs reactive re-peel (simulation)",
    "headline": "state table + aggregate-bandwidth headline",
    "trees": "layer-peeling quality vs exact Steiner",
    "guard": "DCQCN guard-timer ablation",
    "frag": "fragmentation / adaptive prefix packing",
    "deploy": "incremental deployment stages",
    "churn": "switch state under group churn",
    "control": "control-plane service: membership churn + congestion replans",
    "serve": "multi-tenant serving sweep: admission, queueing, plan cache",
    "obs": "instrumented run: metrics registry + Chrome-trace timeline",
    "replay": "checkpoint/replay determinism smoke on a golden scenario",
    "soak": "randomized checkpoint/replay soak epochs (resumable)",
    "shard": "sharded parallel run, proven byte-identical to serial",
}


def scheme_spec(text: str) -> str:
    """argparse ``type=`` for a registry scheme spec: resolve it while
    parsing, so an unknown scheme or parameter is a usage error."""
    try:
        resolve_scheme(text)
    except (TypeError, ValueError) as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc
    return text


def at_least(minimum: int) -> Callable[[str], int]:
    """argparse ``type=`` for a count or size flag: a value under the
    command's own ``minimum`` is a usage error while parsing."""

    def parse(text: str) -> int:
        value = int(text)
        if value < minimum:
            raise argparse.ArgumentTypeError(
                f"must be at least {minimum}, got {value}"
            )
        return value

    parse.__name__ = "int"  # argparse names it in "invalid int value"
    return parse


def positive(text: str) -> float:
    """argparse ``type=`` for a rate, load or interval: above zero."""
    value = float(text)
    if not value > 0:
        raise argparse.ArgumentTypeError(f"must be above 0, got {value}")
    return value


def probability(text: str) -> float:
    """argparse ``type=`` for a probability: within [0, 1]."""
    value = float(text)
    if not 0 <= value <= 1:
        raise argparse.ArgumentTypeError(f"must be in [0, 1], got {value}")
    return value


def pod_count(text: str) -> int:
    """argparse ``type=`` for ``shard --pods``, the fat-tree's ``k``: PEEL
    needs ``k/2`` to be a power of two, and the demo's 3-host pod-local
    groups need ``k >= 4`` (a pod has ``k*k/4`` hosts)."""
    value = int(text)
    if value < 4 or value & (value - 1):
        raise argparse.ArgumentTypeError(
            f"must be a power of two of at least 4, got {value}"
        )
    return value


def fault_schedule(path: str) -> FaultSchedule:
    """argparse ``type=`` for a JSON fault schedule: load it while parsing,
    so a missing or malformed file is a usage error."""
    try:
        return FaultSchedule.load(path)
    except (OSError, ValueError) as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduce the PEEL paper's experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("list", help="list available experiments")

    for name in ("fig1", "fig3", "headline", "trees"):
        sub.add_parser(name, help=EXPERIMENTS[name])

    def add_workers_flag(parser_: argparse.ArgumentParser) -> None:
        parser_.add_argument(
            "-j", "--workers", dest="workers", type=at_least(1), default=None,
            metavar="N",
            help="worker processes for the sweep (default: one per CPU; "
                 "1 = serial in-process)")

    p = sub.add_parser("frontier", help=EXPERIMENTS["frontier"])
    p.add_argument("--sizes", type=at_least(1), nargs="+",
                   default=list(fig3_frontier.DEFAULT_SIZES),
                   help="group sizes (hosts per group) to sweep")
    p.add_argument("--fanouts", type=at_least(1), nargs="+",
                   default=list(fig3_frontier.DEFAULT_FANOUTS),
                   help="rack fanouts (racks per group) to sweep")
    p.add_argument("--schemes", nargs="+", type=scheme_spec,
                   default=list(fig3_frontier.DEFAULT_SCHEMES),
                   help="registry schemes to sweep (name or name:param=value)")
    p.add_argument("--message-kb", type=at_least(1), default=64,
                   help="message size per collective (KB)")
    p.add_argument("--shards", type=at_least(1), default=1,
                   help="simulation shards per point (byte-identical to 1)")
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--check-invariants", action="store_true",
                   help="assert fabric invariants throughout (slower)")
    add_workers_flag(p)

    p = sub.add_parser("fig4", help=EXPERIMENTS["fig4"])
    p.add_argument("--sizes", type=at_least(1), nargs="+", default=[2, 8, 32])
    p.add_argument("--num-jobs", type=at_least(1), default=8,
                   help="concurrent collectives per scenario point")
    add_workers_flag(p)

    p = sub.add_parser("fig5", help=EXPERIMENTS["fig5"])
    p.add_argument("--sizes", type=at_least(1), nargs="+",
                   default=[2, 16, 64])
    p.add_argument("--num-jobs", type=at_least(1), default=8,
                   help="concurrent collectives per scenario point")
    p.add_argument("--gpus", type=at_least(2), default=512)
    p.add_argument("--check-invariants", action="store_true",
                   help="assert fabric invariants throughout (slower)")
    add_workers_flag(p)

    p = sub.add_parser("fig6", help=EXPERIMENTS["fig6"])
    p.add_argument("--scales", type=at_least(2), nargs="+", default=[64, 256])
    p.add_argument("--num-jobs", type=at_least(1), default=6,
                   help="concurrent collectives per scenario point")
    p.add_argument("--check-invariants", action="store_true",
                   help="assert fabric invariants throughout (slower)")
    add_workers_flag(p)

    p = sub.add_parser("fig7", help=EXPERIMENTS["fig7"])
    p.add_argument("--failures", type=at_least(0), nargs="+",
                   default=[1, 4, 10])
    p.add_argument("--num-jobs", type=at_least(1), default=20,
                   help="concurrent collectives per scenario point")
    p.add_argument("--check-invariants", action="store_true",
                   help="assert fabric invariants throughout (slower)")
    add_workers_flag(p)

    p = sub.add_parser("faults", help=EXPERIMENTS["faults"])
    p.add_argument("--scheme", default="peel",
                   choices=faults_demo.RECOVERABLE_SCHEMES)
    p.add_argument("--gpus", type=at_least(2), default=32)
    p.add_argument("--message-mb", type=at_least(1), default=8)
    p.add_argument("--schedule", metavar="PATH", type=fault_schedule,
                   help="JSON fault schedule (see repro.faults); default "
                        "flaps a loaded spine link mid-Broadcast")
    p.add_argument("--no-restore", action="store_true",
                   help="leave the default failed link down for good")
    p.add_argument("--trace", metavar="PATH",
                   help="save the run's golden-trace digest to PATH")
    p.add_argument("--seed", type=int, default=3)
    # Only the built fabric can tell a schedule names a link it lacks.
    p.set_defaults(usage_error=p.error)

    p = sub.add_parser("failover", help=EXPERIMENTS["failover"])
    p.add_argument("--protection", type=at_least(0), nargs="+", default=[0, 1],
                   metavar="F",
                   help="resilience levels to sweep (0 = reactive re-peel "
                        "only; F >= 1 pre-installs F backup subtrees per "
                        "protected link)")
    add_workers_flag(p)

    p = sub.add_parser("guard", help=EXPERIMENTS["guard"])
    p.add_argument("--num-jobs", type=at_least(1), default=12,
                   help="concurrent collectives in the ablation")

    sub.add_parser("frag", help=EXPERIMENTS["frag"])

    p = sub.add_parser("deploy", help=EXPERIMENTS["deploy"])
    p.add_argument("--num-jobs", type=at_least(1), default=6,
                   help="concurrent collectives per deployment stage")

    p = sub.add_parser("churn", help=EXPERIMENTS["churn"])
    p.add_argument("--num-jobs", type=at_least(1), default=1500)

    p = sub.add_parser("control", help=EXPERIMENTS["control"])
    p.add_argument("--num-jobs", type=at_least(1),
                   default=control_churn.DEFAULT_NUM_JOBS,
                   help="collectives submitted through the service")
    p.add_argument("--seed", type=int, default=control_churn.DEFAULT_SEED)
    p.add_argument("--admit-mb", type=at_least(1), default=None, metavar="MB",
                   help="cap outstanding admitted bytes per link "
                        "(LinkLoadAdmission): bounded fabric occupancy, "
                        "head-of-line queueing in the tail")
    p.add_argument("--gap-scale", type=positive, default=1.0, metavar="X",
                   help="stretch interarrival gaps; 1.0 offers ~3x fabric "
                        "capacity (replanner headline), 8.0 keeps even "
                        "fully shared spine links subcritical for "
                        "thousand-job campaigns")
    add_workers_flag(p)

    p = sub.add_parser("serve", help=EXPERIMENTS["serve"])
    p.add_argument("--loads", type=positive, nargs="+",
                   default=list(fig_serving.DEFAULT_LOADS))
    p.add_argument("--schemes", nargs="+",
                   default=list(fig_serving.DEFAULT_SCHEMES),
                   choices=fig_serving.DEFAULT_SCHEMES)
    p.add_argument("--num-jobs", type=at_least(1), default=150,
                   help="submitted jobs per (load, scheme) point")
    p.add_argument("--gpus", type=at_least(2), default=16)
    add_workers_flag(p)
    p.add_argument("--tcam", type=at_least(1), default=24,
                   help="per-switch TCAM entries available to multicast")
    p.add_argument("--failures", action="store_true",
                   help="replay the highest load with a mid-stream link flap")
    p.add_argument("--check-invariants", action="store_true",
                   help="assert fabric invariants throughout (slower)")
    p.add_argument("--seed", type=int, default=11)

    p = sub.add_parser("obs", help=EXPERIMENTS["obs"])
    p.add_argument("--scenario", default="headline",
                   choices=obs_demo.SCENARIOS,
                   help="which instrumented reference run to execute")
    p.add_argument("--trace-out", metavar="PATH",
                   help="write the Chrome-trace JSON timeline here "
                        "(open in chrome://tracing or ui.perfetto.dev)")
    p.add_argument("--metrics-out", metavar="PATH",
                   help="write the metrics-registry snapshot JSON here")
    p.add_argument("--sample-interval", type=positive, default=None,
                   metavar="SECONDS",
                   help="periodic sampler cadence in simulated seconds "
                        "(default: per-scenario, 50-200 us)")
    p.add_argument("--detail", default=None,
                   choices=("transfer", "segment"),
                   help="span granularity: per transfer (default) or down "
                        "to per-receiver segment spans")

    p = sub.add_parser("replay", help=EXPERIMENTS["replay"])
    p.add_argument("--scenario", default="headline",
                   choices=("headline", "fault", "serve", "all"),
                   help="golden scenario to checkpoint+resume (default: "
                        "headline; 'all' runs every one)")

    p = sub.add_parser("soak", help=EXPERIMENTS["soak"])
    p.add_argument("--target", default="scenario", choices=SOAK_TARGETS,
                   help="randomized scenarios, the control-plane churn "
                        "campaign, or 2-shard pod-local specs vs serial")
    p.add_argument("--epochs", type=at_least(1), default=3,
                   help="epochs to verify (resumes where a killed run "
                        "left off)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--state-dir", default="soak-state", metavar="DIR",
                   help="manifest + snapshot directory (survives kills)")
    p.add_argument("--fault-probability", type=probability, default=0.6,
                   help="chance a scenario epoch includes a mid-run link "
                        "flap")
    p.add_argument("--kill-after-cut", action="store_true",
                   help="SIGKILL self once the first unfinished epoch's "
                        "snapshot is durable (exercises resume-from-disk)")

    p = sub.add_parser("shard", help=EXPERIMENTS["shard"])
    p.add_argument("--shards", type=at_least(2), default=4,
                   help="worker shards (each a full simulator)")
    p.add_argument("--pods", type=pod_count, default=4,
                   help="fat-tree arity k = pod count (even)")
    p.add_argument("--jobs-per-pod", type=at_least(1), default=8,
                   help="pod-local broadcasts per pod")
    p.add_argument("--message-kb", type=at_least(1), default=128)
    p.add_argument("--seed", type=int, default=11)
    p.add_argument("--serve", action="store_true",
                   help="run a sharded *serving* campaign (ServeRuntime "
                        "per shard) instead of a scenario batch")
    p.add_argument("--in-process", action="store_true",
                   help="lockstep windows in one process (debugging; "
                        "default forks one worker per shard)")
    return parser


def _sweep_kwargs(args: argparse.Namespace) -> dict:
    """Worker-pool arguments for a sweep subcommand's ``--workers`` flag."""
    workers = resolve_jobs(args.workers)
    return {
        "jobs": workers,
        "progress": stderr_progress() if workers > 1 else None,
    }


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "list":
        width = max(len(n) for n in EXPERIMENTS)
        for name, blurb in EXPERIMENTS.items():
            print(f"{name:<{width}}  {blurb}")
    elif args.command == "fig1":
        print(fig1_bandwidth.format_table(fig1_bandwidth.run()))
    elif args.command == "fig3":
        print(fig3_rsbf.format_table(fig3_rsbf.run()))
    elif args.command == "frontier":
        rows = fig3_frontier.run(
            sizes=tuple(args.sizes), fanouts=tuple(args.fanouts),
            schemes=tuple(args.schemes),
            message_bytes=args.message_kb * 1024, seed=args.seed,
            shards=args.shards, check_invariants=args.check_invariants,
            **_sweep_kwargs(args),
        )
        print(fig3_frontier.format_table(rows))
    elif args.command == "fig4":
        rows = fig4_orca.run(
            sizes_mb=tuple(args.sizes), num_jobs=args.num_jobs,
            **_sweep_kwargs(args),
        )
        print(format_cct_table(rows, "msg (MB)"))
        for size in args.sizes:
            print(f"p99 inflation at {size} MB: "
                  f"{fig4_orca.tail_inflation(rows, size):.1f}x")
    elif args.command == "fig5":
        rows = fig5_message_size.run(
            sizes_mb=tuple(args.sizes), num_jobs=args.num_jobs,
            num_gpus=args.gpus, check_invariants=args.check_invariants,
            **_sweep_kwargs(args),
        )
        print(format_cct_table(rows, "msg (MB)"))
    elif args.command == "fig6":
        rows = fig6_scale.run(
            scales=tuple(args.scales), num_jobs=args.num_jobs,
            check_invariants=args.check_invariants,
            **_sweep_kwargs(args),
        )
        print(format_cct_table(rows, "GPUs"))
    elif args.command == "fig7":
        rows = fig7_failures.run(
            failure_pcts=tuple(args.failures), num_jobs=args.num_jobs,
            check_invariants=args.check_invariants,
            **_sweep_kwargs(args),
        )
        print(format_cct_table(rows, "failed %"))
    elif args.command == "faults":
        try:
            result = faults_demo.run(
                scheme=args.scheme,
                num_gpus=args.gpus,
                message_mb=args.message_mb,
                schedule=args.schedule,
                restore=not args.no_restore,
                seed=args.seed,
                record_trace=args.trace is not None,
            )
        except FaultTargetError as exc:
            args.usage_error(f"argument --schedule: {exc}")
        print(faults_demo.format_result(result))
        if args.trace:
            with open(args.trace, "w", encoding="utf-8") as fh:
                fh.write(result.trace_digest + "\n")
            print(f"trace digest written to {args.trace}")
    elif args.command == "failover":
        rows = failover.run(
            protection_levels=tuple(args.protection),
            **_sweep_kwargs(args),
        )
        print(failover.format_table(rows))
    elif args.command == "headline":
        print(headline.format_state_table(headline.state_table()))
        bw = headline.bandwidth_headline()
        print(f"\nPEEL saves {bw.peel_saving_vs_ring:.1%} of ring bytes; "
              f"{bw.peel_overhead_vs_optimal:.1%} above optimal")
    elif args.command == "trees":
        print(tree_quality.format_table(tree_quality.run()))
    elif args.command == "guard":
        rows = guard_timer.run(num_jobs=args.num_jobs)
        for r in rows:
            print(f"{r.variant:<12} mean={r.mean_s * 1e3:8.2f}ms "
                  f"p99={r.p99_s * 1e3:8.2f}ms")
        print(f"tail improvement: {guard_timer.tail_improvement(rows):.1f}x")
    elif args.command == "frag":
        print(fragmentation.format_table(fragmentation.run()))
    elif args.command == "deploy":
        print(deployment.format_table(deployment.run(num_jobs=args.num_jobs)))
    elif args.command == "churn":
        print(state_churn.format_table(state_churn.run(num_jobs=args.num_jobs)))
    elif args.command == "control":
        rows = control_churn.run(
            num_jobs=args.num_jobs, seed=args.seed,
            admit_mb=args.admit_mb, gap_scale=args.gap_scale,
            **_sweep_kwargs(args),
        )
        print(control_churn.format_table(rows))
    elif args.command == "serve":
        rows = fig_serving.run(
            loads=tuple(args.loads),
            schemes=tuple(args.schemes),
            num_jobs=args.num_jobs,
            num_gpus=args.gpus,
            tcam_capacity=args.tcam,
            check_invariants=args.check_invariants,
            with_failures=args.failures,
            seed=args.seed,
            **_sweep_kwargs(args),
        )
        print(fig_serving.format_table(rows))
    elif args.command == "obs":
        kwargs = {}
        if args.sample_interval is not None:
            kwargs["sample_interval_s"] = args.sample_interval
        if args.detail is not None:
            kwargs["detail"] = args.detail
        result = obs_demo.run(args.scenario, **kwargs)
        print(f"scenario {args.scenario}: {result.summary}")
        if args.trace_out:
            with open(args.trace_out, "w", encoding="utf-8") as fh:
                fh.write(result.trace_json)
            print(f"trace timeline written to {args.trace_out}")
        if args.metrics_out:
            with open(args.metrics_out, "w", encoding="utf-8") as fh:
                fh.write(result.metrics_json)
            print(f"metrics snapshot written to {args.metrics_out}")
    elif args.command == "replay":
        return _replay_smoke(args.scenario)
    elif args.command == "soak":
        from .replay import SoakConfig, SoakRunner, format_manifest

        runner = SoakRunner(
            SoakConfig(
                epochs=args.epochs,
                seed=args.seed,
                state_dir=args.state_dir,
                fault_probability=args.fault_probability,
                target=args.target,
                kill_after_cut=args.kill_after_cut,
            ),
            progress=_stderr_line,
        )
        print(format_manifest(runner.run()))
    elif args.command == "shard":
        return _shard_demo(args)
    return 0


def _stderr_line(line: str) -> None:
    print(line, file=sys.stderr)


def _replay_smoke(scenario: str) -> int:
    """Checkpoint each requested golden scenario at its canonical cut
    points, resume from serialized snapshots, and compare fact sets."""
    from .experiments import scenarios
    from .replay import verify_cut_points

    names = scenarios.REPLAY_SCENARIOS if scenario == "all" else (scenario,)
    failed = 0
    for name in names:
        subject, cuts = scenarios.REPLAY_SCENARIOS[name]()
        for report in verify_cut_points(subject, cuts):
            print(f"{name}: {report.describe()}")
            failed += not report.identical
    if failed:
        print(f"{failed} replay verification(s) DIVERGED", file=sys.stderr)
        return 1
    return 0


def _shard_demo(args: argparse.Namespace) -> int:
    """Run a pod-local workload serially and sharded; prove them equal.

    Scenario mode times both runs and reports the speedup alongside the
    identity proof; ``--serve`` mode compares a sharded serving campaign
    against a serial ``ServeRuntime`` over the same submit stream.  Both
    compare their run kind's whole fact set (:mod:`repro.replay.facts`).
    Exit 1 on any difference.
    """
    from .api import ScenarioSpec
    from .experiments.common import sim_config
    from .shard import pod_local_jobs
    from .topology import FatTree

    topo = FatTree(args.pods)
    message_bytes = args.message_kb * 1024
    processes = not args.in_process

    if args.serve:
        from .metrics import format_slo_table
        from .replay.facts import diff_facts, finish, serve_facts, start
        from .serve import ServeRuntime
        from .shard import ServeShardSpec, serve_sharded

        jobs = pod_local_jobs(
            topo, args.jobs_per_pod, 3, message_bytes,
            seed=args.seed, tenants=("train", "infer"),
        )
        config = sim_config(message_bytes, seed=args.seed)
        sspec = ServeShardSpec(
            topology=topo, scheme="peel", jobs=tuple(jobs),
            shards=args.shards, config=config,
            record_trace=True, event_digest=True,
        )
        sharded = serve_sharded(sspec, processes=processes)
        serial = ServeRuntime(topo, "peel", config, record_trace=True)
        serial.submit_all(jobs)
        differing = diff_facts(finish(start(serial)), serve_facts(sharded))
        print(format_slo_table(sharded.report.tenants + [sharded.report.total]))
        print(
            f"{len(jobs)} jobs on {sharded.shards} shards, "
            f"{sharded.windows} windows, {sharded.events_processed} events"
        )
    else:
        from .experiments.parallel import shard_speedup

        jobs = pod_local_jobs(
            topo, args.jobs_per_pod, 3, message_bytes, seed=args.seed
        )
        spec = ScenarioSpec(
            topology=topo, scheme="peel", jobs=tuple(jobs),
            config=sim_config(message_bytes, seed=args.seed),
            shards=args.shards,
        )
        result = shard_speedup(spec, processes=processes)
        differing = result.differing
        print(
            f"{len(jobs)} jobs, {result.events} events: serial "
            f"{result.serial_wall_s:.3f}s, {result.shards} shards "
            f"{result.sharded_wall_s:.3f}s ({result.speedup:.2f}x)"
        )
    verdict = f"DIVERGED in {differing}" if differing else "byte-identical"
    print(f"serial vs sharded: {verdict}")
    return 1 if differing else 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
