"""Broadcast collective schemes behind the open scheme registry.

Every scheme module registers itself with ``@register_scheme`` at import
time; :func:`resolve_scheme` turns a name, a ``"name:param=value"`` string,
or a :class:`SchemeSpec` into a live instance.
"""

from .allgather import PeelAllgather, RingAllgather, shard_bytes
from .allreduce import PeelAllReduce, RingAllReduce
from .base import BroadcastScheme, CollectiveHandle, Gpu, Group, locality_key
from .env import CollectiveEnv
from .multicast import OptimalBroadcast, PeelBroadcast
from .multipath import StripedMulticastBroadcast
from .orca import OrcaBroadcast
from .registry import (
    SchemeSpec,
    register_scheme,
    registered_schemes,
    resolve_scheme,
)
from .ring import RingBroadcast
from .sourcerouted import (
    BertBroadcast,
    ElmoBroadcast,
    IpMulticastBroadcast,
    LipsinBroadcast,
    RsbfBroadcast,
    SourceRoutedBroadcast,
)
from .tree import BinaryTreeBroadcast

__all__ = [
    "PeelAllgather",
    "RingAllgather",
    "PeelAllReduce",
    "RingAllReduce",
    "shard_bytes",
    "BroadcastScheme",
    "CollectiveHandle",
    "Gpu",
    "Group",
    "locality_key",
    "CollectiveEnv",
    "OptimalBroadcast",
    "PeelBroadcast",
    "StripedMulticastBroadcast",
    "OrcaBroadcast",
    "RingBroadcast",
    "BinaryTreeBroadcast",
    "SourceRoutedBroadcast",
    "ElmoBroadcast",
    "BertBroadcast",
    "RsbfBroadcast",
    "LipsinBroadcast",
    "IpMulticastBroadcast",
    "SchemeSpec",
    "register_scheme",
    "registered_schemes",
    "resolve_scheme",
]
