"""Typed failures raised by the sharded simulation core."""

from __future__ import annotations


class ShardError(RuntimeError):
    """A sharded run cannot proceed (or cannot be proven byte-identical).

    Raised for unshardable specs (schemes that consume shared RNG streams,
    ``max_events`` budgets that cannot be partitioned) and for runtime
    determinism violations (a shard drew from a fabric RNG, a transfer tree
    escaped its shard's territory, a serve shard queued a job).  Callers
    should treat it as "run this scenario serially instead", never as a
    result to silently degrade.
    """


class ShardPartitionError(ShardError, ValueError):
    """The fabric/workload cannot be cut into the requested shards.

    Typical causes: fewer traffic-closed components than shards (every
    job in a leaf-spine fabric shares the spine tier), or a transfer tree
    routed outside its shard's territory.
    """
