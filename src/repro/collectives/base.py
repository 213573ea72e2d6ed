"""Collective abstractions: GPU groups, completion tracking, scheme ABC.

A *collective* here is one Broadcast instance: a source GPU and a set of
member GPUs spread over hosts.  Hosts are the network endpoints (one NIC per
server, §4); GPUs on a delivered host finish after one NVLink/NVSwitch hop.
The collective-completion time (CCT) is measured "from collective initiation
until the message has reached all GPUs" — including any controller setup
delay a scheme pays.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

from ..topology import addressing as addr

if TYPE_CHECKING:  # pragma: no cover
    from .env import CollectiveEnv


@dataclass(frozen=True, order=True)
class Gpu:
    host: str
    index: int


@dataclass(frozen=True)
class Group:
    """A collective group: the source GPU plus all members (source included)."""

    source: Gpu
    members: tuple[Gpu, ...]

    def __post_init__(self) -> None:
        if self.source not in self.members:
            raise ValueError("source GPU must be a group member")
        # Derived once: the group is frozen, and serving asks on every job.
        hosts = tuple(sorted({g.host for g in self.members}, key=locality_key))
        object.__setattr__(self, "_hosts", hosts)
        object.__setattr__(
            self, "_receivers", tuple(h for h in hosts if h != self.source.host)
        )

    @property
    def size(self) -> int:
        return len(self.members)

    @property
    def hosts(self) -> list[str]:
        """Distinct hosts in locality order."""
        return list(self._hosts)

    @property
    def receiver_hosts(self) -> list[str]:
        """Hosts that must receive over the network (everyone but the
        source's own server)."""
        return list(self._receivers)

    def gpus_on(self, host: str) -> list[Gpu]:
        return [g for g in self.members if g.host == host]


def locality_key(host: str) -> tuple[int, int, int]:
    """Sort key grouping hosts by pod, then rack, then slot."""
    info = addr.parse(host)
    return (info.pod if info.pod is not None else -1, info.tor or 0, info.index)


class CollectiveHandle:
    """Tracks one collective to completion and computes its CCT."""

    def __init__(
        self,
        scheme_name: str,
        group: Group,
        message_bytes: int,
        arrival_s: float,
        nvlink_s: float,
        pending_hosts: set[str] | None = None,
    ) -> None:
        self.scheme_name = scheme_name
        self.group = group
        self.message_bytes = message_bytes
        self.arrival_s = arrival_s
        self.nvlink_s = nvlink_s
        # Broadcast completes when every non-source host has the message;
        # all-to-all collectives (Allgather) pass an explicit pending set
        # because the source's host must receive too.
        if pending_hosts is None:
            pending_hosts = set(group.receiver_hosts)
        self.pending_hosts = pending_hosts
        self.host_done_at: dict[str, float] = {}
        #: The network transfers realizing this collective, in launch order.
        #: Tree-based schemes (PEEL, the optimal baseline) populate it so
        #: the control plane can graft/prune live membership changes; relay
        #: schemes leave it empty (no mid-flight membership support).
        self.transfers: list = []
        #: The launched PEEL plan's fast-failover ``ProtectionPlan``, if any.
        self.protection = None
        self.network_complete_s: float | None = None
        #: Optional hook fired once, at network completion, with
        #: ``(handle, now)`` — the serving runtime uses it to free admission
        #: resources.  Set it right after ``launch`` returns; degenerate
        #: groups (no network receivers) complete before it can be set, so
        #: callers must check :attr:`complete` first.
        self.on_complete: "Callable[[CollectiveHandle, float], None] | None" = None
        if not self.pending_hosts:
            self.network_complete_s = arrival_s

    def host_done(self, host: str, now: float) -> None:
        if host not in self.pending_hosts:
            return
        self.pending_hosts.discard(host)
        self.host_done_at[host] = now
        if not self.pending_hosts:
            self.network_complete_s = now
            if self.on_complete is not None:
                self.on_complete(self, now)

    # -- dynamic membership -----------------------------------------------------

    def add_pending(self, host: str) -> None:
        """A mid-collective join: completion now also waits for ``host``."""
        if self.complete:
            raise RuntimeError(
                "collective already complete; membership changes must target "
                "the next collective"
            )
        self.pending_hosts.add(host)

    def drop_pending(self, host: str, now: float) -> None:
        """A mid-collective leave: stop waiting for ``host``.  Unlike
        :meth:`host_done` no delivery is recorded, but removing the last
        pending host does complete the collective."""
        if host not in self.pending_hosts:
            return
        self.pending_hosts.discard(host)
        if not self.pending_hosts and self.network_complete_s is None:
            self.network_complete_s = now
            if self.on_complete is not None:
                self.on_complete(self, now)

    @property
    def complete(self) -> bool:
        return self.network_complete_s is not None

    @property
    def cct_s(self) -> float:
        """Collective-completion time including the intra-host NVLink hop."""
        if self.network_complete_s is None:
            raise RuntimeError("collective has not completed")
        return self.network_complete_s + self.nvlink_s - self.arrival_s


#: NCCL-style pipelining: "each message is divided into eight chunks" (§4).
NCCL_CHUNKS = 8


def nccl_chunk_bytes(message_bytes: int, mtu_bytes: int, chunks: int = NCCL_CHUNKS) -> int:
    """Relay granularity for Ring/Tree: an eighth of the message, but never
    below one MTU."""
    return max(mtu_bytes, -(-message_bytes // chunks))


class BroadcastScheme(ABC):
    """A way of realizing a Broadcast collective on the fabric."""

    name: str = "abstract"
    #: True when planning and launch draw no shared RNG (router/controller
    #: draws whose *order* couples jobs): such schemes produce identical
    #: per-job work regardless of which other jobs run beside them, the
    #: property ``repro.shard`` needs for pods-as-shards execution.
    #: Schemes with per-instance behavior override this as a property.
    shardable: bool = False

    @abstractmethod
    def launch(
        self,
        env: "CollectiveEnv",
        group: Group,
        message_bytes: int,
        arrival_s: float,
    ) -> CollectiveHandle:
        """Create the transfers for one Broadcast; returns its handle."""

    def _handle(
        self, env: "CollectiveEnv", group: Group, message_bytes: int, arrival_s: float
    ) -> CollectiveHandle:
        # An NVLink stage only exists when several GPUs share an endpoint;
        # in the per-GPU-NIC model (one GPU per host) delivery to the NIC
        # *is* delivery to the GPU.
        if len(group.members) > len(group.hosts):
            nvlink_s = message_bytes / env.config.nvlink_bytes_per_s
        else:
            nvlink_s = 0.0
        return CollectiveHandle(self.name, group, message_bytes, arrival_s, nvlink_s)
