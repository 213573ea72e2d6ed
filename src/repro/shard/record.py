"""Per-shard event recording: what the coordinator needs to re-sequence.

A shard runs a :class:`RecordingSimulator` — the stock calendar-queue
engine plus one record per fired event::

    (time, local_seq, n_scheduled, n_trace_lines, new_transfer_names)

``local_seq`` is the shard-local sequence number the engine assigned at
schedule time; ``n_scheduled`` is how many new entries the callback
scheduled (the coordinator relabels them with global sequence numbers in
merge order, reproducing the serial engine's counter exactly);
``n_trace_lines`` consumes that many golden-trace lines from the shard's
line stream; ``new_transfer_names`` lists transfers the callback created
(the coordinator renames them with the global counter).  Nothing about
event *execution* changes — ordering, tie-breaks, retuning and the
calendar structure are byte-for-byte the serial engine's.

:class:`ShardTraceRecorder` is a :class:`~repro.sim.trace.TraceRecorder`
that appends raw lines to the shard's stream instead of hashing them:
the digest chain is a global, order-sensitive fold, so only the
coordinator may run it.
"""

from __future__ import annotations

from ..sim.engine import _RETUNE_EVERY, Simulator
from ..sim.trace import TraceRecorder

__all__ = ["RecordingSimulator", "ShardTraceRecorder"]


class RecordingSimulator(Simulator):
    """A :class:`~repro.sim.engine.Simulator` that records fired events.

    ``records`` and ``lines`` are drained per lockstep window with
    :meth:`take_chunk` (bounded memory on long campaigns);
    ``recorded_total`` never resets, so observers can tag side-channel
    data (PFC pause durations) with the index of the currently firing
    record.
    """

    __slots__ = ("records", "lines", "recorded_total", "_watched")

    def __init__(self) -> None:
        super().__init__()
        self.records: list[tuple] = []
        self.lines: list[str] = []
        self.recorded_total = 0
        self._watched: list | None = None

    def watch_transfers(self, transfers: list) -> None:
        """Report names of transfers appended to ``transfers`` (the
        network's creation-ordered registry) by each fired event."""
        self._watched = transfers

    def take_chunk(self) -> tuple[list[tuple], list[str]]:
        records, self.records = self.records, []
        # ``lines`` must drain in place: a ShardTraceRecorder aliases the
        # list as its sink for the simulator's whole lifetime.
        lines = self.lines[:]
        del self.lines[:]
        return records, lines

    def peek_time(self) -> float | None:
        """Lower bound on the next event's time (``None`` when drained).

        A tombstone at the head still gives a valid lower bound — the
        coordinator only uses this to size the next window."""
        if not self._activate():
            return None
        return self._cur[self._cur_i][0]

    def run_window(self, until: float) -> int:
        """The engine's checked loop (``run(until=...)``) plus recording.

        Kept as a verbatim copy of the hot loop rather than a callback
        hook so the *serial* engine pays nothing for sharding support;
        the differential battery pins the two loops to each other.
        """
        processed = 0
        records = self.records
        lines = self.lines
        watched = self._watched
        wlen = len(watched) if watched is not None else 0
        fired = self._fired
        retune_at = fired + _RETUNE_EVERY
        while True:
            cur = self._cur
            i = self._cur_i
            if i >= len(cur):
                if not self._activate():
                    break
                continue
            entry = cur[i]
            time = entry[0]
            if time > until:
                break
            self._cur_i = i + 1
            fn = entry[2]
            if fn is None:
                self._cancelled -= 1
                continue
            self._live -= 1
            self.now = time
            lseq = entry[1]
            seq0 = self._seq
            lines0 = len(lines)
            length = len(entry)
            if length == 4:
                fn(entry[3])
            elif length == 5:
                fn(entry[3], entry[4])
            elif length == 3:
                fn()
            else:
                entry[2] = None  # fired: handle.active goes False, refs drop
                fn(*entry[5])
            new_names = None
            if watched is not None and len(watched) > wlen:
                new_names = [t.name for t in watched[wlen:]]
                wlen = len(watched)
            records.append(
                (time, lseq, self._seq - seq0, len(lines) - lines0, new_names)
            )
            # Kept on the instance (not a loop local) because observers read
            # it *mid-window*: a PFC pause resumed during record k's callback
            # must be tagged k, and ``recorded_total`` is exactly k while k's
            # callback runs.
            self.recorded_total += 1
            processed += 1
            fired = self._fired = self._fired + 1
            if fired >= retune_at:
                self._maybe_retune()
                retune_at = fired + _RETUNE_EVERY
        self._processed += processed
        if not self._activate() or self._cur[self._cur_i][0] > until:
            self.now = max(self.now, until)
        return processed


class ShardTraceRecorder(TraceRecorder):
    """Streams raw golden-trace lines into the shard's line buffer.

    The line *format* is byte-for-byte :class:`TraceRecorder`'s; only the
    chaining moves to the coordinator (which also rewrites shard-local
    transfer names to their global spellings before hashing).
    """

    def __init__(self, network, sink: list[str]) -> None:
        self.sink = sink
        super().__init__(network)

    def _record(self, kind: str, *fields: object) -> None:
        parts = [kind, self.network.sim.now.hex()]
        parts += [str(f) for f in fields]
        self.sink.append(" ".join(parts))
        self.num_events += 1
