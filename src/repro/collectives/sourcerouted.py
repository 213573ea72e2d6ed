"""Source-routed multicast schemes: the header-bytes side of Fig 3.

PEEL's frontier (Fig 3) trades per-switch TCAM state against packet-header
overhead.  The schemes here occupy the header-heavy end: the *packet*
carries the multicast tree, so switches keep (near-)zero per-group entries
— and every segment honestly pays the encoding in bytes on the wire:

* :class:`ElmoBroadcast` — Elmo (SIGCOMM'19): bitmap-encoded p-rules
  packed into a bounded header budget, one rule per tree switch.  Rules
  that do not fit default to per-group s-rules at those switches (Elmo's
  default-to-spine fallback), charged to :attr:`CollectiveEnv.group_state`.
  Each switch strips its own p-rule, so copies shrink hop by hop.
* :class:`BertBroadcast` — label-stack source routing: the header carries
  one label per (switch, child) branch.  A ToR forwarding to *every* host
  under it uses one shared, pre-installed subtree label instead — static
  O(1) state, zero per-group entries.
* :class:`RsbfBroadcast` / :class:`LipsinBroadcast` — in-packet Bloom
  filters (§2.2's stateless baselines): a fixed or FPR-sized header that
  travels intact (nothing to strip), zero switch state.
* :class:`IpMulticastBroadcast` — the inverse corner: zero header, one
  per-group subset entry at every replicating switch.

All of these plan on the same precise Steiner tree as the optimal
baseline; what differs is who pays — the header (via
``Transfer(header_bytes=...)``, which inflates every segment) or the
switch tables (via :meth:`CollectiveEnv.account_group_state`).
"""

from __future__ import annotations

import math
from typing import NamedTuple

from ..sim import Transfer
from ..state.rsbf import bloom_header_bits
from ..topology.addressing import NodeKind, kind_of
from .base import BroadcastScheme, CollectiveHandle, Group
from .env import CollectiveEnv
from .multicast import steiner_tree
from .registry import register_scheme


class Encoding(NamedTuple):
    """How one multicast tree maps onto header bytes and switch state."""

    #: Total header bytes prepended to every segment of the transfer.
    header_bytes: int
    #: ``switch -> bytes`` that switch strips from passing segments (its
    #: own consumed p-rule / labels); empty for travel-intact headers.
    strip_bytes: dict[str, int]
    #: Per-group entries the fabric must install (``switch -> keys``);
    #: empty is the honest zero of a fully source-routed group.
    demand: dict[str, list]


def _tree_switches(tree) -> list[tuple[str, list[str]]]:
    """(switch, children) for every forwarding switch, in (depth, name)
    order — shallow switches first, which is the order Elmo packs p-rules
    (upstream rules matter most; leftovers default to s-rules)."""
    out = [
        (node, tree.children(node))
        for node in tree.nodes
        if kind_of(node) is not NodeKind.HOST and tree.children(node)
    ]
    out.sort(key=lambda item: (tree.depth_of(item[0]), item[0]))
    return out


class SourceRoutedReplan:
    """Fault replanner for source-routed schemes (picklable, no closure).

    Re-plans the Steiner tree for the unfinished receivers and re-encodes
    it.  The in-flight segments were sized for the *original* header, so
    the fresh strip map is only attached when no root-to-leaf path strips
    more than the transfer carries; otherwise the repair copies deliver
    unstripped (conservative — the invariant checker expects full-size
    deliveries on strip-less routes).
    """

    __slots__ = ("env", "scheme", "source", "header_bytes")

    def __init__(
        self,
        env: CollectiveEnv,
        scheme: "SourceRoutedBroadcast",
        source: str,
        header_bytes: int,
    ) -> None:
        self.env = env
        self.scheme = scheme
        self.source = source
        self.header_bytes = header_bytes

    def __call__(self, remaining: list[str]) -> list:
        tree = steiner_tree(self.env.topo, self.source, remaining)
        enc = self.scheme._encode(self.env, tree, group_id=None)
        if enc.strip_bytes:
            worst = max(
                (
                    sum(enc.strip_bytes.get(n, 0) for n in tree.path_from_root(leaf))
                    for leaf in tree.leaves
                ),
                default=0,
            )
            if worst <= self.header_bytes:
                tree.strip_bytes = enc.strip_bytes
        return [tree]


class SourceRoutedBroadcast(BroadcastScheme):
    """Steiner-tree multicast where the tree rides in the packet header.

    Subclasses define :meth:`_encode`; launch charges the encoding's header
    bytes to every segment (so CCTs pay for it) and its residual state (if
    any) to the per-group ledger.
    """

    shardable = True  # Steiner planning and encoding are RNG-free

    def _encode(self, env: CollectiveEnv, tree, group_id: str | None) -> Encoding:
        """Map ``tree`` onto (header bytes, per-switch strips, state demand).

        ``group_id`` is ``None`` on fault re-encodes — per-group demand is
        only charged for the initial plan.
        """
        raise NotImplementedError

    def launch(
        self,
        env: CollectiveEnv,
        group: Group,
        message_bytes: int,
        arrival_s: float,
    ) -> CollectiveHandle:
        handle = self._handle(env, group, message_bytes, arrival_s)
        receivers = group.receiver_hosts
        if not receivers:
            return handle
        source = group.source.host
        tree = steiner_tree(env.topo, source, receivers)
        name = env.next_transfer_name(self.name)
        enc = self._encode(env, tree, group_id=name)
        if enc.strip_bytes:
            tree.strip_bytes = enc.strip_bytes
        transfer = Transfer(
            env.network,
            name,
            source,
            message_bytes,
            [tree],
            start_at=arrival_s,
            on_host_done=handle.host_done,
            header_bytes=enc.header_bytes,
        )
        handle.transfers.append(transfer)
        if env.fault_injector is not None:
            env.fault_injector.register(
                transfer,
                SourceRoutedReplan(env, self, source, enc.header_bytes),
            )
        env.account_group_state(name, enc.demand)
        transfer.start()
        return handle


@register_scheme(
    "elmo",
    params=("header_bytes",),
    description="Elmo bitmap p-rules in a bounded header, s-rule fallback",
)
class ElmoBroadcast(SourceRoutedBroadcast):
    """Elmo: per-switch bitmap p-rules packed into ``header_bytes``.

    One p-rule per forwarding switch — a one-byte rule id plus an output
    bitmap of ``ceil(degree / 8)`` bytes.  Rules pack shallowest-first
    until the budget is spent; switches whose rule does not fit fall back
    to a per-group s-rule installed in their tables (the accounting the
    frontier experiment measures as Elmo leaving the zero-state corner).
    """

    def __init__(self, header_bytes: int = 64) -> None:
        if header_bytes < 0:
            raise ValueError(f"header_bytes must be >= 0, got {header_bytes}")
        self.header_bytes = header_bytes
        self.name = "elmo"

    def _rule_bytes(self, env: CollectiveEnv, switch: str) -> int:
        degree = env.topo.graph.degree(switch)
        return 1 + math.ceil(degree / 8)

    def _encode(self, env: CollectiveEnv, tree, group_id: str | None) -> Encoding:
        total = 0
        strip: dict[str, int] = {}
        demand: dict[str, list] = {}
        for switch, _children in _tree_switches(tree):
            cost = self._rule_bytes(env, switch)
            if total + cost <= self.header_bytes:
                total += cost
                strip[switch] = cost
            elif group_id is not None:
                demand[switch] = [("group", group_id)]
        return Encoding(total, strip, demand)


@register_scheme(
    "bert",
    params=("label_bytes",),
    description="label-stack source routing with shared sub-tree labels",
)
class BertBroadcast(SourceRoutedBroadcast):
    """Label-stack source routing: one label per tree branch.

    A switch forwarding to ``c`` children consumes ``label_bytes * c`` of
    header — except a ToR whose children are *all* the hosts under it,
    which matches one shared "whole rack" subtree label (``label_bytes``
    in the header, pre-installed once per ToR: static O(1) state that is
    never per-group, so the per-group ledger stays empty).
    """

    def __init__(self, label_bytes: int = 2) -> None:
        if label_bytes < 1:
            raise ValueError(f"label_bytes must be >= 1, got {label_bytes}")
        self.label_bytes = label_bytes
        self.name = "bert"

    def _encode(self, env: CollectiveEnv, tree, group_id: str | None) -> Encoding:
        total = 0
        strip: dict[str, int] = {}
        for switch, children in _tree_switches(tree):
            hosts_under = [
                n
                for n in env.topo.graph.neighbors(switch)
                if kind_of(n) is NodeKind.HOST
            ]
            if hosts_under and set(children) == set(hosts_under):
                cost = self.label_bytes  # shared whole-rack subtree label
            else:
                cost = self.label_bytes * len(children)
            total += cost
            strip[switch] = cost
        return Encoding(total, strip, {})


@register_scheme(
    "rsbf",
    params=("fpr",),
    description="rack-scoped Bloom-filter header sized to the tree and FPR",
)
class RsbfBroadcast(SourceRoutedBroadcast):
    """In-packet Bloom filter sized for the tree's directed links at a
    target false-positive ratio (§2.2).  The header travels intact —
    every switch tests it, none consumes it — and no switch state exists.
    False-positive *traffic* is not simulated; the scheme pays the
    header's bandwidth everywhere instead."""

    def __init__(self, fpr: float = 0.01) -> None:
        if not 0 < fpr < 1:
            raise ValueError(f"fpr must be in (0, 1), got {fpr}")
        self.fpr = fpr
        self.name = "rsbf"

    def _encode(self, env: CollectiveEnv, tree, group_id: str | None) -> Encoding:
        bits = bloom_header_bits(len(tree.parent), self.fpr)
        return Encoding(-(-bits // 8), {}, {})


@register_scheme(
    "lipsin",
    params=("header_bytes",),
    description="LIPSIN fixed-size in-packet Bloom filter",
)
class LipsinBroadcast(SourceRoutedBroadcast):
    """LIPSIN (SIGCOMM'09): a fixed-width link-ID Bloom filter (256 bits
    by default) regardless of group size — cheap headers for small trees,
    rising false positives (not simulated) for large ones."""

    def __init__(self, header_bytes: int = 32) -> None:
        if header_bytes < 1:
            raise ValueError(f"header_bytes must be >= 1, got {header_bytes}")
        self.header_bytes = header_bytes
        self.name = "lipsin"

    def _encode(self, env: CollectiveEnv, tree, group_id: str | None) -> Encoding:
        return Encoding(self.header_bytes, {}, {})


@register_scheme(
    "ip-multicast",
    description="classic IP multicast: zero header, per-group subset entries",
)
class IpMulticastBroadcast(SourceRoutedBroadcast):
    """Classic IP multicast on the same Steiner tree: no header overhead,
    but one (refcount-shared) receiver-subset entry at every replicating
    switch — the state-heavy corner of the frontier."""

    name = "ip-multicast"

    def _encode(self, env: CollectiveEnv, tree, group_id: str | None) -> Encoding:
        if group_id is None:
            return Encoding(0, {}, {})
        from ..serve.state import tree_switch_fanouts

        demand: dict[str, list] = {}
        for switch, subset in tree_switch_fanouts(tree):
            demand.setdefault(switch, []).append(("subset", subset))
        return Encoding(0, {}, demand)
