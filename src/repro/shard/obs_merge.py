"""Byte-identical observability for sharded runs.

A serial run's exported metrics registry is a pure function of (a) live
int counters, (b) end-of-run folds over fabric counters and sorted port
walks, and (c) per-collective/per-transfer histogram observations made
in a fixed serial order.  The registry snapshot is name-sorted, so metric
*creation* order never matters — only values and, for histograms, the
observation order of the (order-sensitive) float sum.

Shards therefore keep only the live parts (a), tagged where needed with
the firing record's index, and the coordinator rebuilds (b) and (c) in
the serial order the :class:`~repro.shard.sequencer.GlobalSequencer`
reconstructed: PFC pause durations in resume-event order, CCTs in global
job order, transfer durations in global creation order, port folds over
the sorted union of per-shard active ports.  ``metrics_json`` then
matches the serial run byte for byte.

Periodic sampling is unsupported sharded (the sampler schedules real
simulator events, which would perturb the fired-event stream); sharded
specs must carry ``Observability(periodic_sampling=False)`` — and the
serial leg of any differential comparison must do the same.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..obs.fabric import FabricMetricsObserver, Observability
from ..obs.metrics import (
    BYTES_BOUNDS,
    RATIO_BOUNDS,
    SECONDS_BOUNDS,
    MetricsRegistry,
)
from ..sim.stats import _tier as link_tier
from .errors import ShardError

__all__ = [
    "ShardFabricObserver",
    "ShardObsExtract",
    "ShardObservability",
    "extract_obs",
    "merge_observability",
]


class ShardFabricObserver(FabricMetricsObserver):
    """Shard-side metrics observer.

    Identical to the serial observer except PFC pause durations are not
    summed locally (float accumulation order is global): each resume's
    duration is recorded against the index of the currently firing event
    record, and the coordinator folds them in merge order.
    """

    def __init__(self, obs: "ShardObservability", network) -> None:
        super().__init__(obs, network)
        #: (fired-record index, pause seconds), in shard event order.
        self.pause_records: list[tuple[int, float]] = []

    def on_pfc_resume(self, switch, port) -> None:
        started = self._open_pauses.pop((switch.name, port.src), None)
        if started is not None:
            sim = self.network.sim
            self.pause_records.append(
                (sim.recorded_total, sim.now - started)
            )

    def take_pauses(self) -> dict[int, list[float]]:
        """Drain pause records, grouped by fired-record index."""
        if not self.pause_records:
            return {}
        out: dict[int, list[float]] = {}
        for idx, seconds in self.pause_records:
            out.setdefault(idx, []).append(seconds)
        self.pause_records = []
        return out


class ShardObservability(Observability):
    """Per-shard :class:`Observability`: no sampler, shard observer."""

    def __init__(self, template: Observability) -> None:
        super().__init__(
            sample_interval_s=template.sample_interval_s,
            detail=template.detail,
            periodic_sampling=False,
        )

    def attach(self, network) -> "ShardObservability":
        if self.network is not None:
            raise RuntimeError("Observability is already attached")
        self.network = network
        self.observer = ShardFabricObserver(self, network)
        return self


@dataclass
class ShardObsExtract:
    """Everything one finished shard contributes to the merged registry."""

    registry: MetricsRegistry
    copy_counts: dict
    pfc_pause_events: int
    wasted_bytes: int
    lost_segments: int
    failure_drops: int
    #: still-open (switch, ingress) -> pause start time.
    open_pauses: dict
    #: (src, dst) -> (bytes_sent, ecn_marks, peak_queue_bytes, capacity_bps)
    #: for ports that carried traffic or queued bytes.
    ports: dict
    #: (dcqcn reactions, dcqcn notifications, retransmissions) sums.
    dcqcn: tuple
    #: transfer span durations in shard creation order (finalize's rule).
    durations: list


def extract_obs(obs: Observability, network, handles) -> ShardObsExtract:
    """Collect a drained shard's observability contribution."""
    observer = obs.observer
    arrivals = {id(h): h.arrival_s for h in handles}
    durations: list[float] = []
    for transfer in network.transfers:
        start = observer.first_inject.get(transfer.name, transfer.start_at)
        if not transfer.complete:  # pragma: no cover - runner rejects earlier
            raise ShardError(f"transfer {transfer.name} incomplete at merge")
        end = transfer.complete_at
        parent_arrival = arrivals.get(
            id(getattr(transfer.on_host_done, "__self__", None))
        )
        if parent_arrival is not None:
            start = max(start, parent_arrival)
        durations.append(max(end, start) - start)
    ports = {}
    for key, port in network.ports.items():
        if port.bytes_sent or port.peak_queue_bytes:
            ports[key] = (
                port.bytes_sent,
                port.ecn_marks,
                port.peak_queue_bytes,
                port.capacity_bps,
            )
    return ShardObsExtract(
        registry=obs.registry,
        copy_counts=observer.copy_counts(),
        pfc_pause_events=network.pfc_pause_events,
        wasted_bytes=network.wasted_bytes,
        lost_segments=network.lost_segments,
        failure_drops=network.failure_drops,
        open_pauses=dict(observer._open_pauses),
        ports=ports,
        dcqcn=(
            sum(t.dcqcn.reactions for t in network.transfers),
            sum(t.dcqcn.notifications for t in network.transfers),
            sum(t.retransmissions for t in network.transfers),
        ),
        durations=durations,
    )


def _disjoint_union(dicts, what: str) -> dict:
    out: dict = {}
    for d in dicts:
        for key, value in d.items():
            if key in out:
                raise ShardError(f"{what} {key!r} is active on two shards")
            out[key] = value
    return out


def merge_observability(
    extracts: list[ShardObsExtract],
    sequencer,
    ccts: list[float],
) -> MetricsRegistry:
    """Rebuild the serial run's metrics registry from shard extracts.

    ``ccts`` must be in global job order; ``sequencer`` supplies merged
    pause order, transfer creation order, and the final clock.
    """
    merged = MetricsRegistry()
    # (a) live counters (link events, reroutes, failovers) sum exactly.
    for extract in extracts:
        merged.merge(extract.registry)
    # (b) the serial fold_counters(), over merged state.
    for kind in ("accepted", "delivered", "forked", "injected", "lost", "wasted"):
        merged.counter(f"fabric.copies.{kind}").inc(
            sum(e.copy_counts[kind] for e in extracts)
        )
    merged.counter("fabric.pfc.pause_events").inc(
        sum(e.pfc_pause_events for e in extracts)
    )
    now = sequencer.last_time
    pause_seconds = 0.0
    for value in sequencer.pause_values:
        pause_seconds += value
    open_pauses = _disjoint_union((e.open_pauses for e in extracts), "PFC pause")
    for key in sorted(open_pauses):
        pause_seconds += now - open_pauses[key]
    merged.counter("fabric.pfc.pause_seconds").inc(pause_seconds)
    merged.counter("fabric.wasted_bytes").inc(sum(e.wasted_bytes for e in extracts))
    merged.counter("fabric.lost_segments").inc(
        sum(e.lost_segments for e in extracts)
    )
    merged.counter("fabric.failure_drops").inc(
        sum(e.failure_drops for e in extracts)
    )
    ports = _disjoint_union((e.ports for e in extracts), "port")
    total_bytes = 0
    total_marks = 0
    for key in sorted(ports):
        bytes_sent, ecn_marks, peak_queue_bytes, capacity_bps = ports[key]
        total_bytes += bytes_sent
        total_marks += ecn_marks
        tier = link_tier(key[0], key[1])
        if now > 0:
            merged.histogram(f"link.utilization.{tier}", RATIO_BOUNDS).observe(
                bytes_sent * 8 / (capacity_bps * now)
            )
        merged.histogram("link.peak_queue_bytes", BYTES_BOUNDS).observe(
            peak_queue_bytes
        )
    merged.counter("fabric.bytes_sent").inc(total_bytes)
    merged.counter("fabric.ecn_marks").inc(total_marks)
    merged.counter("dcqcn.rate_updates").inc(sum(e.dcqcn[0] for e in extracts))
    merged.counter("dcqcn.notifications").inc(sum(e.dcqcn[1] for e in extracts))
    merged.counter("fabric.retransmissions").inc(sum(e.dcqcn[2] for e in extracts))
    # (c) histogram observations in serial order.
    cct_hist = merged.histogram("collective.cct_s", SECONDS_BOUNDS)
    for cct in ccts:
        cct_hist.observe(cct)
    duration_hist = merged.histogram("transfer.duration_s", SECONDS_BOUNDS)
    for shard, local_index in sequencer.creation_order:
        duration_hist.observe(extracts[shard].durations[local_index])
    return merged
