"""Re-sequencing merged shard streams into the serial event order.

The serial engine assigns sequence numbers in *schedule* order and fires
in global ``(time, seq)`` order; callbacks run atomically, so the k-th
schedule action of the run gets seq k.  The sequencer reproduces that
numbering without ever seeing a callback:

* **Setup segments** replay the serial setup interleave (sorted faults,
  then jobs in spec/submit order) and assign global
  seqs to each segment's schedule actions.
* **Fired records** merge by ``(time, gseq)`` via a heap over per-shard
  streams.  Each shard's stream is already ``(time, local_seq)``-sorted
  and local→global relabeling is monotone, so the heap pop order *is*
  the serial fired order.  Popping a record assigns global seqs to the
  entries it scheduled (contiguous, in callback order — exactly the
  serial counter), folds ``(time, gseq)`` into the merged
  :class:`~repro.sim.engine.EventDigest`, renames any transfers the
  callback created with the global transfer counter, and chains the
  record's golden-trace lines (names rewritten) exactly as the serial
  :class:`~repro.sim.trace.TraceRecorder` would have.

Cancelled entries burn a seq on both sides and never fire on either, so
they need no handling.  The merge is associative: feeding chunks in any
window decomposition yields identical digests (a battery property).
"""

from __future__ import annotations

from collections import deque
from hashlib import blake2b
from heapq import heappop, heappush

from ..sim.engine import EventDigest
from .errors import ShardError

__all__ = ["GlobalSequencer"]


class GlobalSequencer:
    """Merges per-shard event streams back into the serial order."""

    def __init__(
        self,
        num_shards: int,
        *,
        event_digest: bool = False,
        trace: bool = False,
        keep_lines: bool = False,
    ) -> None:
        self.num_shards = num_shards
        self.digest: EventDigest | None = EventDigest() if event_digest else None
        self.trace_enabled = trace or keep_lines
        self._trace_state = b"\x00" * 16
        self.num_trace_events = 0
        self.kept_lines: list[str] | None = [] if keep_lines else None
        # local seq -> global seq for not-yet-fired entries (delete-on-fire;
        # entries for cancelled events are retained — they are few and the
        # mapping has no other way to learn of a cancellation).
        self._gseq_of: list[dict[int, int]] = [dict() for _ in range(num_shards)]
        # How many schedule actions of each shard have been relabeled; this
        # mirrors the shard engine's ``_seq`` counter exactly.
        self._lseq_cursor = [0] * num_shards
        self._next_gseq = 0
        self._records: list[deque] = [deque() for _ in range(num_shards)]
        self._lines: list[deque] = [deque() for _ in range(num_shards)]
        # shard -> {fired-record index -> [pause seconds, ...]}
        self._pauses: list[dict[int, list[float]]] = [dict() for _ in range(num_shards)]
        self._fired_idx = [0] * num_shards
        # shard-local transfer name -> global name.
        self.name_map: list[dict[str, str]] = [dict() for _ in range(num_shards)]
        self._names_assigned = 0
        #: (shard, shard-local creation index) per transfer, in global
        #: creation order — the obs merge replays per-transfer metrics in
        #: exactly this interleave.
        self.creation_order: list[tuple[int, int]] = []
        self._local_created = [0] * num_shards
        #: PFC pause durations in serial resume-event order.
        self.pause_values: list[float] = []
        self.merged_events = 0
        #: Simulated time of the last merged event (the serial run's final
        #: clock after a drain-to-empty).
        self.last_time = 0.0

    # -- numbering ---------------------------------------------------------

    def _assign_gseqs(self, shard: int, count: int) -> None:
        mapping = self._gseq_of[shard]
        cursor = self._lseq_cursor[shard]
        base = self._next_gseq
        for k in range(count):
            mapping[cursor + k] = base + k
        self._lseq_cursor[shard] = cursor + count
        self._next_gseq = base + count

    def _assign_names(self, shard: int, names: list[str]) -> None:
        mapping = self.name_map[shard]
        created = self._local_created[shard]
        for local in names:
            self._names_assigned += 1
            prefix, _, _ = local.rpartition("-")
            mapping[local] = f"{prefix}-{self._names_assigned}"
            self.creation_order.append((shard, created))
            created += 1
        self._local_created[shard] = created

    def rename(self, shard: int, name: str) -> str:
        """Global spelling of a shard-local transfer name."""
        return self.name_map[shard].get(name, name)

    # -- trace chaining ----------------------------------------------------

    def _chain_line(self, shard: int, line: str) -> None:
        mapping = self.name_map[shard]
        if mapping:
            parts = line.split(" ")
            changed = False
            for i in range(2, len(parts)):
                repl = mapping.get(parts[i])
                if repl is not None:
                    parts[i] = repl
                    changed = True
            if changed:
                line = " ".join(parts)
        h = blake2b(self._trace_state, digest_size=16)
        h.update(line.encode())
        self._trace_state = h.digest()
        self.num_trace_events += 1
        if self.kept_lines is not None:
            self.kept_lines.append(line)

    def trace_digest(self) -> str:
        return self._trace_state.hex()

    # -- setup -------------------------------------------------------------

    def push_setup(
        self, shard: int, n_sched: int, lines: list[str], names: list[str]
    ) -> None:
        """One serial-order setup action (fault install, job launch):
        relabel its schedules, name its transfers, chain its trace lines.
        Callers must invoke this in the serial interleave."""
        if names:
            self._assign_names(shard, names)
        if n_sched:
            self._assign_gseqs(shard, n_sched)
        if self.trace_enabled:
            for line in lines:
                self._chain_line(shard, line)

    # -- run-phase merging -------------------------------------------------

    def feed(
        self,
        shard: int,
        records: list[tuple],
        lines: list[str],
        pauses: dict[int, list[float]] | None = None,
    ) -> None:
        """Queue one shard's chunk (records/lines since the last window)."""
        self._records[shard].extend(records)
        self._lines[shard].extend(lines)
        if pauses:
            self._pauses[shard].update(pauses)

    def _push_head(self, heap: list, shard: int) -> None:
        queue = self._records[shard]
        if queue:
            head = queue[0]
            try:
                gseq = self._gseq_of[shard][head[1]]
            except KeyError:  # pragma: no cover - invariant violation
                raise ShardError(
                    f"shard {shard} fired local seq {head[1]} before its "
                    "scheduling event was merged"
                ) from None
            heappush(heap, (head[0], gseq, shard))

    def merge_available(self) -> int:
        """Merge every queued record.  Correct whenever the caller has
        advanced all shards to a common window edge (all records at or
        before the edge are present) — the window property."""
        heap: list = []
        for shard in range(self.num_shards):
            self._push_head(heap, shard)
        merged = 0
        while heap:
            _, _, shard = heappop(heap)
            self._pop_record(shard)
            merged += 1
            self._push_head(heap, shard)
        self.merged_events += merged
        return merged

    def _pop_record(self, shard: int) -> None:
        time, lseq, n_sched, n_lines, names = self._records[shard].popleft()
        gseq = self._gseq_of[shard].pop(lseq)
        if time > self.last_time:
            self.last_time = time
        if self.digest is not None:
            self.digest.update(time, gseq)
        if names:
            self._assign_names(shard, names)
        if n_sched:
            self._assign_gseqs(shard, n_sched)
        if n_lines:
            lines = self._lines[shard]
            if self.trace_enabled:
                for _ in range(n_lines):
                    self._chain_line(shard, lines.popleft())
            else:
                for _ in range(n_lines):
                    lines.popleft()
        fired = self._fired_idx[shard]
        self._fired_idx[shard] = fired + 1
        pause = self._pauses[shard].pop(fired, None)
        if pause is not None:
            self.pause_values.extend(pause)

    def assert_drained(self) -> None:
        for shard in range(self.num_shards):
            if self._records[shard] or self._lines[shard]:
                raise ShardError(
                    f"shard {shard} left {len(self._records[shard])} records "
                    f"and {len(self._lines[shard])} trace lines unmerged"
                )
