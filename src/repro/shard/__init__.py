"""Sharded parallel simulation with byte-identical serial semantics.

``repro.shard`` partitions a scenario or serve campaign across worker
shards — each a full calendar-queue :class:`~repro.sim.engine.Simulator`
over a traffic-closed slice of the fabric — advanced in lockstep windows
(which bound merge memory; no event crosses a shard) and re-sequenced by
a :class:`GlobalSequencer` so the merged fired-event stream, golden-trace
chain, event digest and observability exports are *byte-identical* to a
serial run of the same spec.  The differential battery in
``tests/property/test_shard_properties.py`` is the proof.

Entry points:

* ``ScenarioSpec(shards=N)`` + :func:`repro.api.run` (dispatches here);
* :func:`run_sharded` / :class:`ShardedScenarioRun` for explicit control
  (windowed stepping, sharded snapshots);
* :class:`ShardedServe` for serving campaigns.

Anything a shard cannot reproduce byte-identically is refused with a
:class:`ShardError` — up front where the spec shows it (RNG-coupled
schemes, wire loss, periodic sampling), after the fact where only the
run can (a mid-run fabric RNG draw, a tree crossing shard territory, a
queued serve job).  Sharding never silently degrades to "close enough".
"""

from .errors import ShardError, ShardPartitionError
from .partition import CORE_ZONE, ShardPlan, plan_partition, zone_of
from .record import RecordingSimulator, ShardTraceRecorder
from .runner import ShardedScenarioRun, run_sharded, shardable_schemes, validate_spec
from .sequencer import GlobalSequencer
from .serve import (
    SHARDABLE_SERVE_SCHEMES,
    ServeShardSpec,
    ShardedServe,
    ShardedServeResult,
    serve_sharded,
)
from .workload import pod_local_jobs

__all__ = [
    "CORE_ZONE",
    "SHARDABLE_SERVE_SCHEMES",
    "GlobalSequencer",
    "RecordingSimulator",
    "ServeShardSpec",
    "ShardError",
    "ShardPartitionError",
    "ShardPlan",
    "ShardTraceRecorder",
    "ShardedScenarioRun",
    "ShardedServe",
    "ShardedServeResult",
    "plan_partition",
    "pod_local_jobs",
    "run_sharded",
    "serve_sharded",
    "shardable_schemes",
    "validate_spec",
    "zone_of",
]
