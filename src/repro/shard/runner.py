"""The sharded scenario runner: build, lockstep-drive, merge, prove.

``run_sharded(spec)`` is to a ``ScenarioSpec(shards=N)`` what
:func:`repro.api.run` is to a serial spec, with a byte-identical result:
golden-trace digest, fired-event digest, CCTs and obs exports all match
the serial run of the same spec.  How:

* :func:`repro.shard.partition.plan_partition` cuts the fabric+workload
  into traffic-closed shards (or refuses, loudly);
* every shard builds a full private copy of the environment — topology,
  config, seeds — but launches only its own jobs and faults, on a
  :class:`~repro.shard.record.RecordingSimulator`;
* a :class:`LockstepDriver` advances all shards in lockstep windows —
  pure pacing, since no event crosses a traffic-closed shard, but the
  windows bound how many records the merge holds at once; each window's
  records stream into the :class:`~repro.shard.sequencer.GlobalSequencer`,
  which re-derives the serial ``(time, seq)`` numbering, transfer names,
  digests and traces;
* post-run determinism proofs: every fabric RNG state untouched (no
  shard took an ECN/loss draw the serial run would have interleaved
  differently), every multicast tree confined to its shard's territory,
  every queue drained.

``processes=True`` forks one worker per shard (fork start method; the
streamed chunks keep coordinator memory bounded).  In-process sharded
runs snapshot/resume through :class:`repro.replay.Snapshot` exactly like
serial ones — capture between windows, restore anywhere, finish, same
digests.
"""

from __future__ import annotations

from ..api import PEAK_FIELDS, ReplayInfo, ScenarioResult, ScenarioSpec, fabric_accounting
from ..collectives import CollectiveEnv, registered_schemes, resolve_scheme
from ..faults import FaultSchedule
from .errors import ShardError, ShardPartitionError
from .obs_merge import ShardObservability, extract_obs, merge_observability
from .partition import ShardPlan, plan_partition
from .record import RecordingSimulator, ShardTraceRecorder
from .sequencer import GlobalSequencer

__all__ = [
    "ShardedScenarioRun",
    "run_sharded",
    "shardable_schemes",
]


def shardable_schemes() -> tuple[str, ...]:
    """Registered scheme names whose default construction declares
    ``shardable = True`` (planning and launch draw no shared RNG).
    ECMP-routed baselines qualify since they draw from per-job streams
    (:meth:`~repro.collectives.CollectiveEnv.ecmp_rng`).  PEEL with
    programmable cores and ``orca`` do not — they sample controller setup
    latency from the shared controller RNG, whose draw *order* couples
    jobs."""
    return tuple(
        name for name in registered_schemes() if resolve_scheme(name).shardable
    )


#: Initial window span in simulated seconds; adapted per round toward a
#: records-per-window target that bounds merge memory (pacing, never
#: correctness — the battery proves window-size invariance).
_INITIAL_WINDOW_S = 1e-4
_WINDOW_TARGET_LO = 16_384
_WINDOW_TARGET_HI = 262_144


def validate_spec(spec: ScenarioSpec) -> None:
    """Reject specs whose serial behaviour a sharded run cannot reproduce."""
    scheme = resolve_scheme(spec.scheme)
    if not scheme.shardable:
        raise ShardError(
            f"scheme {scheme.name!r} is not shardable (its planning or "
            "launch draws a shared RNG whose order couples jobs); "
            f"shardable schemes: {shardable_schemes()}"
        )
    if spec.max_events is not None:
        raise ShardError(
            "max_events budgets cannot be partitioned across shards; "
            "run serially or drop the budget"
        )
    if spec.check_invariants and spec.invariant_watchdog:
        raise ShardError(
            "the invariant deadlock watchdog schedules simulator events; "
            "set ScenarioSpec(invariant_watchdog=False) so serial and "
            "sharded runs fire the same event stream"
        )
    if spec.obs is not None and spec.obs.periodic_sampling:
        raise ShardError(
            "periodic sampling schedules simulator events; build the spec "
            "with Observability(periodic_sampling=False) for sharded runs"
        )
    config = spec.config
    if config is not None and config.loss_probability > 0:
        raise ShardError(
            "loss_probability > 0 draws from the shared fabric RNG per "
            "transmitted segment; unshardable"
        )


class ShardState:
    """One shard's live half-world (in-process or inside a worker).

    Scenario shards fill ``handle_pairs`` and ``obs``;
    serve shards (:class:`repro.shard.serve.ServeShardState`) hold a
    runtime instead.  Both owe the coordinator the same determinism proofs.
    """

    #: How refusals name this kind of shard.
    label = "shard"

    def __init__(self, index: int) -> None:
        self.index = index
        self.sim: RecordingSimulator | None = None
        self.env: CollectiveEnv | None = None
        self.handle_pairs: list[tuple[int, object]] = []
        self.obs: ShardObservability | None = None
        #: (phase, global index, n_sched, lines, names) setup segments.
        self.segments: list[tuple] = []
        self.territory: set[str] = set()
        self._rng_marks: tuple = ()

    def take_pauses(self) -> dict:
        if self.obs is None:
            return {}
        return self.obs.observer.take_pauses()

    # -- determinism proofs ------------------------------------------------

    def _rng_states(self) -> tuple:
        env = self.env
        return (
            env.network.rng.getstate(),
            env.rng.getstate(),
            env.router.rng.getstate(),
            env.controller.rng.getstate(),
        )

    def mark(self, territory: set[str]) -> None:
        """End of setup: record the shard's territory and RNG states."""
        self.territory = territory
        self._rng_marks = self._rng_states()

    def prove(self) -> None:
        """A drained shard ran exactly as its slice of the serial run: no
        event left, no fabric RNG drawn since :meth:`mark`, and every
        transfer tree inside the shard's territory."""
        if self.sim.peek_time() is not None:
            raise ShardError(f"{self.label} {self.index} still has pending events")
        names = ("network", "env", "router", "controller")
        for name, before, after in zip(names, self._rng_marks, self._rng_states()):
            if before != after:
                raise ShardError(
                    f"{self.label} {self.index} drew from the {name} RNG "
                    "during the run (ECN ramp marking or random routing); "
                    "the serial run would interleave these draws globally — "
                    "result not byte-identical, run it serially"
                )
        for transfer in self.env.network.transfers:
            trees = list(transfer.static_trees)
            if transfer.refined_tree is not None:
                trees.append(transfer.refined_tree)
            for tree in trees:
                stray = tree.nodes - self.territory
                if stray:
                    raise ShardPartitionError(
                        f"transfer {transfer.name} on {self.label} "
                        f"{self.index} routed through foreign nodes "
                        f"{sorted(stray)[:4]}; the partition is not "
                        "traffic-closed"
                    )


def build_scenario_shard(
    spec: ScenarioSpec, plan: ShardPlan, shard_index: int
) -> ShardState:
    """Construct one shard's environment, mirroring the serial setup order
    (faults at env construction, then jobs in spec order) while capturing
    per-action segments for the sequencer's setup interleave."""
    scheme = resolve_scheme(spec.scheme)
    state = ShardState(shard_index)
    sim = state.sim = RecordingSimulator()
    topo = spec.topology
    fault_pairs: list[tuple] = []
    shard_faults = None
    if spec.fault_schedule is not None:
        topo = topo.copy()  # dynamic faults mutate the planning topology
        fault_pairs = [
            (g, event)
            for g, event in enumerate(spec.fault_schedule)
            if plan.fault_shard[g] == shard_index
        ]
        shard_faults = FaultSchedule([event for _, event in fault_pairs])
    env = state.env = CollectiveEnv(
        topo,
        spec.config,
        fault_schedule=shard_faults,
        check_invariants=spec.check_invariants,
        record_trace=False,
        protection=spec.protection,
        sim=sim,
        invariant_watchdog=False,
    )
    if sim._seq != len(fault_pairs):  # pragma: no cover - engine invariant
        raise ShardError(
            f"env construction scheduled {sim._seq} events for "
            f"{len(fault_pairs)} faults; setup interleave unknown"
        )
    # The fault injector schedules exactly one entry per event, in
    # schedule order, with no trace lines or transfers.
    state.segments = [(0, g, 1, [], None) for g, _ in fault_pairs]
    if spec.record_trace or spec.keep_trace_events:
        ShardTraceRecorder(env.network, sim.lines)
    sim.watch_transfers(env.network.transfers)
    if spec.obs is not None:
        state.obs = ShardObservability(spec.obs).attach(env.network)
    transfers = env.network.transfers
    for g, job in enumerate(spec.jobs):
        if plan.job_shard[g] != shard_index:
            continue
        seq0, lines0, created0 = sim._seq, len(sim.lines), len(transfers)
        env.job_seq = g  # per-job ECMP streams key on the *global* index
        handle = scheme.launch(env, job.group, job.message_bytes, job.arrival_s)
        names = [t.name for t in transfers[created0:]] or None
        state.segments.append(
            (1, g, sim._seq - seq0, sim.lines[lines0:], names)
        )
        state.handle_pairs.append((g, handle))
    sim.lines.clear()  # setup lines now live in the segments
    state.mark(plan.nodes_for(shard_index, spec.topology))
    return state


def finalize_scenario_shard(state: ShardState) -> dict:
    """Drained-shard epilogue: determinism proofs + result contribution."""
    env = state.env
    state.prove()
    violations = env.finalize_checks()
    handles = [handle for _, handle in state.handle_pairs]
    unfinished = [h for h in handles if not h.complete]
    if unfinished:
        raise RuntimeError(
            f"{len(unfinished)} of {len(handles)} collectives never "
            f"completed on shard {state.index}; simulation stalled"
        )
    return {
        "ccts": [(g, handle.cct_s) for g, handle in state.handle_pairs],
        "violations": list(violations),
        "accounting": fabric_accounting(env, handles),
        "obs": (
            extract_obs(state.obs, env.network, handles)
            if state.obs is not None
            else None
        ),
        "processed": state.sim.processed,
    }


class _Chunk:
    __slots__ = ("records", "lines", "pauses", "peek")

    def __init__(self, records, lines, pauses, peek) -> None:
        self.records = records
        self.lines = lines
        self.pauses = pauses
        self.peek = peek


class LocalShard:
    """In-process shard adapter (snapshot-friendly).

    ``finalize_fn(state)`` is the epilogue matching how ``state`` was
    built (scenario or serve) — both expose ``sim``, ``segments`` and
    ``take_pauses()``.
    """

    def __init__(self, state, finalize_fn) -> None:
        self.index = state.index
        self.state = state
        self._finalize = finalize_fn
        self._edge: float | None = None

    def setup_segments(self) -> list[tuple]:
        return self.state.segments

    def initial_peek(self) -> float | None:
        return self.state.sim.peek_time()

    def start_advance(self, edge: float) -> None:
        self._edge = edge

    def collect(self) -> _Chunk:
        sim = self.state.sim
        sim.run_window(self._edge)
        self._edge = None
        records, lines = sim.take_chunk()
        return _Chunk(records, lines, self.state.take_pauses(), sim.peek_time())

    def finalize(self) -> dict:
        return self._finalize(self.state)

    def close(self) -> None:
        pass


class ProcessShard:
    """Worker-process shard adapter (fork + pipe, streamed chunks)."""

    def __init__(self, build_request: tuple, index: int) -> None:
        import multiprocessing as mp

        from .worker import COORDINATOR_CONNS, shard_worker_main

        self.index = index
        ctx = mp.get_context("fork")
        self._conn, child_conn = ctx.Pipe()
        COORDINATOR_CONNS.add(self._conn)
        self._proc = ctx.Process(
            target=shard_worker_main,
            args=(child_conn, build_request),
            daemon=True,
        )
        self._proc.start()
        child_conn.close()
        kind, self._segments, self._peek = self._recv("setup")

    def _recv(self, expect: str):
        reply = self._conn.recv()
        if reply[0] == "error":
            self.close()
            raise ShardError(f"shard {self.index} worker failed: {reply[1]}")
        if reply[0] != expect:  # pragma: no cover - protocol bug
            raise ShardError(f"expected {expect!r}, got {reply[0]!r}")
        return reply

    def setup_segments(self) -> list[tuple]:
        return self._segments

    def initial_peek(self) -> float | None:
        return self._peek

    def start_advance(self, edge: float) -> None:
        self._conn.send(("advance", edge))

    def collect(self) -> _Chunk:
        _, records, lines, pauses, peek = self._recv("chunk")
        return _Chunk(records, lines, pauses, peek)

    def finalize(self) -> dict:
        self._conn.send(("finalize",))
        _, payload = self._recv("final")
        self.close()
        return payload

    def close(self) -> None:
        try:
            self._conn.close()
        except OSError:  # pragma: no cover
            pass
        if self._proc.is_alive():
            self._proc.join(timeout=10)
            if self._proc.is_alive():  # pragma: no cover
                self._proc.kill()


class LockstepDriver:
    """Drives N shard adapters through lockstep windows into a sequencer.

    Shared by scenario and serve sharding: owns the peeks, the adaptive
    window span, and the advance→collect→feed→merge round.  Pickles whole
    (with in-process shards) for sharded snapshots.
    """

    def __init__(self, shards: list, sequencer: GlobalSequencer) -> None:
        self.shards = shards
        self.sequencer = sequencer
        #: Every shard has fired all its events at or before this time.
        self.committed_edge = 0.0
        # Serial setup interleave: segments sort by (phase, global index)
        # across shards — faults, then jobs/submits.
        merged_setup: list[tuple[int, tuple]] = []
        for shard in shards:
            merged_setup.extend(
                (shard.index, segment) for segment in shard.setup_segments()
            )
        merged_setup.sort(key=lambda item: (item[1][0], item[1][1]))
        for shard_index, (_, _, n_sched, lines, names) in merged_setup:
            sequencer.push_setup(shard_index, n_sched, lines, names or [])
        self._peeks: list[float | None] = [
            shard.initial_peek() for shard in shards
        ]
        self._window_s = _INITIAL_WINDOW_S
        self.windows_run = 0

    @property
    def drained(self) -> bool:
        return all(peek is None for peek in self._peeks)

    def advance_window(self) -> int:
        """Simulate one window on every live shard up to a common edge and
        merge its records.  Returns records merged (0 when drained)."""
        live = [peek for peek in self._peeks if peek is not None]
        if not live:
            return 0
        edge = min(live) + self._window_s
        for shard in self.shards:
            if self._peeks[shard.index] is not None:
                shard.start_advance(edge)
        total = 0
        for shard in self.shards:
            if self._peeks[shard.index] is None:
                continue
            chunk = shard.collect()
            self.sequencer.feed(
                shard.index, chunk.records, chunk.lines, chunk.pauses
            )
            self._peeks[shard.index] = chunk.peek
            total += len(chunk.records)
        self.committed_edge = edge
        merged = self.sequencer.merge_available()
        if merged != total:  # pragma: no cover - sequencer invariant
            raise ShardError(f"merged {merged} of {total} window records")
        self.windows_run += 1
        # Window sizing bounds merge memory; correctness is window-invariant.
        if total < _WINDOW_TARGET_LO:
            self._window_s *= 4.0
        elif total > _WINDOW_TARGET_HI:
            self._window_s *= 0.5
        return total

    def drain(self) -> None:
        while not self.drained:
            self.advance_window()
        self.sequencer.assert_drained()

    def finalize_all(self) -> list[dict]:
        return [shard.finalize() for shard in self.shards]


class ShardedScenarioRun:
    """A sharded scenario mid-flight — the sharded checkpoint seam.

    The in-process form pickles whole (shard states + sequencer + driver),
    so :class:`repro.replay.Snapshot` SIGKILL-resume works sharded: capture
    between windows, restore in a fresh process, :meth:`finish`, and every
    digest matches the uninterrupted run.
    """

    def __init__(self, spec: ScenarioSpec, processes: bool = False) -> None:
        shards = spec.shards
        if shards < 2:
            raise ShardError(f"sharded run needs shards >= 2, got {shards}")
        validate_spec(spec)
        self.spec = spec
        self.plan = plan_partition(
            spec.topology, spec.jobs, shards, spec.fault_schedule
        )
        self.processes = processes
        self.sequencer = GlobalSequencer(
            shards,
            event_digest=spec.event_digest,
            trace=spec.record_trace or spec.keep_trace_events,
            keep_lines=spec.keep_trace_events,
        )
        if processes:
            shard_list: list = [
                ProcessShard(("scenario", spec, self.plan, s), s)
                for s in range(shards)
            ]
        else:
            shard_list = [
                LocalShard(
                    build_scenario_shard(spec, self.plan, s),
                    finalize_scenario_shard,
                )
                for s in range(shards)
            ]
        self.driver = LockstepDriver(shard_list, self.sequencer)
        self.resumed_at_s: float | None = None
        self.snapshots_taken = 0
        self.finished = False

    # -- stepping ----------------------------------------------------------

    @property
    def shards(self) -> list:
        return self.driver.shards

    @property
    def windows_run(self) -> int:
        return self.driver.windows_run

    @property
    def drained(self) -> bool:
        return self.driver.drained

    def advance_window(self) -> int:
        return self.driver.advance_window()

    def run_until(self, until: float) -> None:
        """Advance windows until the committed edge passes ``until`` (or
        the run drains); leaves the run at a snapshot-safe point."""
        while not self.drained and self.driver.committed_edge < until:
            self.advance_window()

    def snapshot(self):
        """Freeze the whole sharded run into a :class:`repro.replay.Snapshot`."""
        from ..replay import Snapshot

        if self.processes:
            raise ShardError(
                "snapshotting is supported for in-process sharded runs only"
            )
        if self.finished:
            raise RuntimeError("cannot snapshot a finished scenario")
        self.snapshots_taken += 1
        return Snapshot.capture(
            self, sim=self.shards[0].state.sim, kind="ShardedScenarioRun"
        )

    def mark_resumed(self, at_s: float) -> None:
        self.resumed_at_s = at_s

    # -- completion --------------------------------------------------------

    def finish(self) -> ScenarioResult:
        if self.finished:
            raise RuntimeError("scenario already finished")
        self.finished = True
        self.driver.drain()
        payloads = self.driver.finalize_all()
        spec = self.spec
        sequencer = self.sequencer
        ccts: list = [None] * len(spec.jobs)
        for payload in payloads:
            for g, cct in payload["ccts"]:
                ccts[g] = cct
        violations = [v for payload in payloads for v in payload["violations"]]
        violations.sort(key=lambda v: v.time_s)
        obs = spec.obs
        if obs is not None:
            merged = merge_observability(
                [payload["obs"] for payload in payloads],
                sequencer,
                ccts,
            )
            obs.registry.merge(merged)
            obs._finalized = True  # exports serve the merged registry as-is
        digest = sequencer.digest
        return ScenarioResult(
            scheme=resolve_scheme(spec.scheme).name,
            ccts=ccts,
            invariant_violations=violations,
            trace_digest=(
                sequencer.trace_digest()
                if (spec.record_trace or spec.keep_trace_events)
                else None
            ),
            replay=ReplayInfo(
                resumed=self.resumed_at_s is not None,
                resumed_at_s=self.resumed_at_s,
                snapshots_taken=self.snapshots_taken,
                events_processed=sum(p["processed"] for p in payloads),
                event_digest=(
                    digest.hexdigest() if digest is not None else None
                ),
            ),
            protection=spec.protection,
            **self._merge_accounts(payloads),
        )

    def _merge_accounts(self, payloads: list[dict]) -> dict:
        """Fold the shards' :func:`~repro.api.fabric_accounting` into the
        serial run's: fault-handling events renamed to their global
        transfer names and time-sorted, scalars summed or maxed."""
        accounts = [payload["accounting"] for payload in payloads]
        merged = {}
        for key in ("repeels", "failovers"):
            events = [
                event._replace(transfer=self.sequencer.rename(shard.index, event.transfer))
                for shard, account in zip(self.shards, accounts)
                for event in account[key]
            ]
            merged[key] = sorted(events, key=lambda event: event.time_s)
        for key in accounts[0].keys() - merged.keys():
            fold = max if key in PEAK_FIELDS else sum
            merged[key] = fold(account[key] for account in accounts)
        return merged

    @property
    def trace_events(self) -> list[str] | None:
        """Merged, globally-renamed golden-trace lines when the spec asked
        for ``keep_trace_events`` (the serial ``env.trace.events``)."""
        return self.sequencer.kept_lines


def run_sharded(spec: ScenarioSpec, processes: bool = False) -> ScenarioResult:
    """Run ``spec`` across ``spec.shards`` workers, byte-identical to
    :func:`repro.api.run` of the same spec with ``shards=1``."""
    return ShardedScenarioRun(spec, processes=processes).finish()
