"""PEEL planner: turn a multicast group into prefix packets and trees.

A :class:`PeelPlan` has two operating modes mirroring §3.2/§3.3:

* **static** — the sender emits one copy of the message per selected cover
  prefix; pre-installed power-of-two rules at every *downward* branch tier
  (§3.2: "the same principles apply to other downward segments") steer and
  replicate it.  On a fat-tree that means cores match a pod-prefix and
  aggregation switches match a ToR-prefix, so a bin-packed job spanning
  aligned pods needs a single packet.  Fragmented or unaligned placements
  need several packets (one per cover prefix) and may over-cover when the
  per-fanout packet budget is bounded.  Zero control-plane latency.
* **refined** — once a (modelled) controller programs the cores with
  per-group rules ("typically one rule per destination pod", §3.3), a
  single copy crosses the core regardless of alignment; this is simply
  multicast on the underlying tree.

The underlying tree is the §2.1 optimal construction on symmetric fabrics
and the §2.3 layer-peeling greedy on asymmetric ones.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..steiner import MulticastTree
from ..topology import FatTree, LeafSpine, Topology
from ..topology import addressing as addr
from .header import PeelHeader
from .layer_peeling import layer_peeling_tree
from .prefix import Prefix, bounded_cover, exact_cover
from .protection import ProtectionPlan, build_protection
from .symmetric import optimal_symmetric_tree

_EDGE_KINDS = {addr.NodeKind.TOR, addr.NodeKind.LEAF}
_UPPER_KINDS = {addr.NodeKind.AGG, addr.NodeKind.SPINE, addr.NodeKind.CORE}


@dataclass(frozen=True)
class PrefixPacket:
    """One packet class the sender emits in static mode.

    ``pod_prefix`` is the core-tier cover block on fat-trees (``None`` on
    single-tier fabrics such as a leaf-spine, and in asymmetric mode where
    packets are planned per fan-out switch).
    """

    prefix: Prefix
    width: int
    tree: MulticastTree
    covered_edge_switches: tuple[str, ...]
    wasted_edge_switches: tuple[str, ...]  # over-covered; ToRs discard
    pod_prefix: Prefix | None = None
    pods: tuple[int, ...] = ()
    fanout_switch: str | None = None

    @property
    def header(self) -> PeelHeader:
        return PeelHeader(self.prefix, self.width)


@dataclass
class PeelPlan:
    """Everything needed to run one multicast group under PEEL."""

    source: str
    destinations: tuple[str, ...]
    base_tree: MulticastTree
    packets: list[PrefixPacket]
    local_tree: MulticastTree | None  # only when no prefix packet exists
    header_bytes: int
    #: Pre-computed fast-failover backup subtrees (``resilience >= 1`` only).
    protection: ProtectionPlan | None = None
    #: Directed links the static-mode copies cross, each once, in tree
    #: order.  Derived when the plan is built, like the protection counts.
    route_edges: tuple[tuple[str, str], ...] = field(init=False)

    def __post_init__(self) -> None:
        self.route_edges = tuple(
            dict.fromkeys(e for t in self.static_trees for e in t.edges)
        )

    @property
    def static_trees(self) -> list[MulticastTree]:
        """One distribution tree per copy the sender emits in static mode."""
        trees = [p.tree for p in self.packets]
        if self.local_tree is not None:
            trees.append(self.local_tree)
        return trees

    @property
    def refined_tree(self) -> MulticastTree:
        return self.base_tree

    @property
    def num_prefixes(self) -> int:
        return len(self.packets)

    @property
    def wasted_edge_switches(self) -> set[str]:
        return {t for p in self.packets for t in p.wasted_edge_switches}

    def static_cost(self) -> int:
        """Total link traversals per message byte in static mode."""
        return sum(t.cost for t in self.static_trees)

    def refined_cost(self) -> int:
        return self.base_tree.cost

    def link_loads(self, mode: str = "static") -> dict[tuple[str, str], int]:
        """Copies of the message crossing each directed link."""
        if mode not in ("static", "refined"):
            raise ValueError(f"unknown mode {mode!r}")
        trees = self.static_trees if mode == "static" else [self.base_tree]
        loads: dict[tuple[str, str], int] = {}
        for tree in trees:
            for edge in tree.edges:
                loads[edge] = loads.get(edge, 0) + 1
        return loads


@dataclass
class Peel:
    """PEEL planner bound to one fabric.

    ``max_prefixes_per_fanout`` bounds the ToR-level packet count per pod
    (``None`` = exact cover, no redundant traffic); bounding it trades
    up-funnel copies for over-covered ToRs (§3.4's fragmentation knob).

    ``resilience`` (``F``) switches on proactive protection: every plan
    additionally carries up to ``F`` mutually edge-disjoint backup subtrees
    per protected (switch-to-switch) link of its static trees, ready for
    local fast-failover (see :mod:`repro.core.protection`).
    """

    topo: Topology
    max_prefixes_per_fanout: int | None = None
    resilience: int = 0
    _width: int = field(init=False)
    _pod_width: int = field(init=False)

    def __post_init__(self) -> None:
        if isinstance(self.topo, FatTree):
            half = self.topo.k // 2
            if half & (half - 1):
                raise ValueError("fat-tree k/2 must be a power of two for PEEL")
            self._width = half.bit_length() - 1
            self._pod_width = max((self.topo.k - 1).bit_length(), 1)
        elif isinstance(self.topo, LeafSpine):
            leaves = self.topo.num_leaves
            self._width = max((leaves - 1).bit_length(), 1)
            self._pod_width = 0
        else:
            raise TypeError(f"unsupported topology: {type(self.topo).__name__}")
        if self.max_prefixes_per_fanout is not None and self.max_prefixes_per_fanout < 1:
            raise ValueError("max_prefixes_per_fanout must be >= 1")
        if self.resilience < 0:
            raise ValueError("resilience must be >= 0")

    @property
    def identifier_width(self) -> int:
        return self._width

    @property
    def pod_identifier_width(self) -> int:
        return self._pod_width

    def plan(self, source: str, destinations: list[str]) -> PeelPlan:
        dests = tuple(d for d in dict.fromkeys(destinations) if d != source)
        if self.topo.is_symmetric:
            tree = optimal_symmetric_tree(self.topo, source, dests)
        else:
            tree = layer_peeling_tree(self.topo, source, dests)
        if isinstance(self.topo, FatTree) and self.topo.is_symmetric:
            drafts = self._fattree_hierarchical_drafts(tree, source)
        else:
            drafts = self._per_fanout_drafts(tree, source)
        packets, local = self._finalize(tree, source, drafts)
        header_nbytes = packets[0].header.nbytes if packets else 0
        plan = PeelPlan(
            source=source,
            destinations=dests,
            base_tree=tree,
            packets=packets,
            local_tree=local,
            header_bytes=header_nbytes,
        )
        if self.resilience:
            plan.protection = build_protection(
                self.topo, plan.static_trees, source, self.resilience
            )
        return plan

    # -- shared internals ------------------------------------------------------

    def _edge_switch_id(self, node: str) -> int:
        if isinstance(self.topo, FatTree):
            return self.topo.tor_identifier(node)
        return self.topo.leaf_identifier(node)

    def _existing_edge_switch(self, fanout: str, ident: int) -> str | None:
        """The edge switch named ``ident`` in ``fanout``'s scope, if both it
        and the connecting link exist (a rule port to a failed link carries
        no traffic)."""
        if isinstance(self.topo, FatTree):
            pod = addr.parse(fanout).pod
            if ident >= self.topo.tors_per_pod:
                return None
            name = addr.tor_name(pod, ident)
        else:
            if ident >= self.topo.num_leaves:
                return None
            name = addr.leaf_name(ident)
        return name if self.topo.graph.has_edge(fanout, name) else None

    def _cover(self, ids: set[int]) -> list[Prefix]:
        if self.max_prefixes_per_fanout is None:
            return exact_cover(ids, self._width)
        return bounded_cover(ids, self._width, self.max_prefixes_per_fanout)

    def _finalize(
        self, tree: MulticastTree, source: str, drafts: list[dict]
    ) -> tuple[list[PrefixPacket], MulticastTree | None]:
        local_parent = self._attach_trunk_hosts(tree, drafts)
        packets = [
            PrefixPacket(
                prefix=d["prefix"],
                width=self._width,
                tree=MulticastTree(source, d["parent"]),
                covered_edge_switches=tuple(d["covered"]),
                wasted_edge_switches=tuple(d["wasted"]),
                pod_prefix=d.get("pod_prefix"),
                pods=tuple(d.get("pods", ())),
                fanout_switch=d.get("fanout"),
            )
            for d in drafts
        ]
        local = MulticastTree(source, local_parent) if local_parent else None
        return packets, local

    # -- symmetric fat-tree: hierarchical (pod x ToR) covers --------------------

    def _fattree_hierarchical_drafts(
        self, tree: MulticastTree, source: str
    ) -> list[dict]:
        assert isinstance(self.topo, FatTree)
        src = addr.parse(source)
        src_tor = addr.tor_name(src.pod, src.tor)

        # Needed ToR ids per pod, read off the optimal tree's agg fan-outs.
        needed: dict[int, dict[int, str]] = {}
        for node in tree.nodes:
            if addr.kind_of(node) is not addr.NodeKind.AGG:
                continue
            pod = addr.parse(node).pod
            for child in tree.children(node):
                if addr.kind_of(child) is addr.NodeKind.TOR:
                    needed.setdefault(pod, {})[self._edge_switch_id(child)] = child

        # The source's own ToR sits on the up-funnel and already sees every
        # packet, so its id may be folded into the source pod's needed set
        # for free.  Do so when it lets the source pod share a ToR prefix
        # (hence a packet) with other pods; both variants are exact covers.
        variants = [needed]
        if src.pod in needed and src.tor not in needed[src.pod]:
            folded = {pod: dict(by_id) for pod, by_id in needed.items()}
            folded[src.pod][src.tor] = src_tor
            variants.append(folded)

        best_drafts: list[dict] | None = None
        for variant in variants:
            drafts = self._drafts_for_needed(tree, source, src_tor, src.pod, variant)
            if best_drafts is None or len(drafts) < len(best_drafts):
                best_drafts = drafts
        assert best_drafts is not None
        return best_drafts

    def _tree_upper_nodes(
        self, tree: MulticastTree
    ) -> tuple[dict[int, str], str | None]:
        """The agg switch the base tree uses in each pod, plus its core."""
        agg_by_pod: dict[int, str] = {}
        core = None
        for node in tree.nodes:
            kind = addr.kind_of(node)
            if kind is addr.NodeKind.AGG:
                agg_by_pod[addr.parse(node).pod] = node
            elif kind is addr.NodeKind.CORE:
                core = node
        return agg_by_pod, core

    def _drafts_for_needed(
        self,
        tree: MulticastTree,
        source: str,
        src_tor: str,
        src_pod: int,
        needed: dict[int, dict[int, str]],
    ) -> list[dict]:
        # Per-pod ToR covers, then group pods sharing a ToR prefix and cover
        # the pod sets with power-of-two pod blocks (core-tier rules).
        prefix_pods: dict[Prefix, list[int]] = {}
        pod_waste: dict[tuple[int, Prefix], list[int]] = {}
        for pod, by_id in sorted(needed.items()):
            for prefix in self._cover(set(by_id)):
                prefix_pods.setdefault(prefix, []).append(pod)
                waste_ids = [
                    i for i in prefix.block(self._width) if i not in by_id
                ]
                if waste_ids:
                    pod_waste[pod, prefix] = waste_ids

        drafts: list[dict] = []
        for tor_prefix in sorted(prefix_pods):
            pods = set(prefix_pods[tor_prefix])
            for pod_prefix in exact_cover(pods, self._pod_width):
                block_pods = [
                    p for p in pod_prefix.block(self._pod_width) if p in pods
                ]
                drafts.append(
                    self._hierarchical_draft(
                        tree, source, src_tor, src_pod,
                        tor_prefix, pod_prefix, block_pods, needed, pod_waste,
                    )
                )
        return drafts

    def _hierarchical_draft(
        self,
        tree: MulticastTree,
        source: str,
        src_tor: str,
        src_pod: int,
        tor_prefix: Prefix,
        pod_prefix: Prefix,
        block_pods: list[int],
        needed: dict[int, dict[int, str]],
        pod_waste: dict[tuple[int, Prefix], list[int]],
    ) -> dict:
        # Ride exactly the agg group / core the base tree chose (the
        # symmetric builder spreads those per source).
        agg_by_pod, core = self._tree_upper_nodes(tree)
        src_agg = agg_by_pod.get(src_pod)
        if src_agg is None:
            # Source pod has no fan-out of its own: reuse the tree's agg
            # group for the trunk hop toward the core.
            group = addr.parse(next(iter(agg_by_pod.values()))).index
            src_agg = addr.agg_name(src_pod, group)
        parent: dict[str, str] = {src_tor: source, src_agg: src_tor}
        covered: list[str] = []
        wasted: list[str] = []

        remote = [p for p in block_pods if p != src_pod]
        if remote:
            assert core is not None, "multi-pod group without a core in tree"
            parent[core] = src_agg
            for pod in remote:
                parent[agg_by_pod[pod]] = core

        for pod in block_pods:
            agg = src_agg if pod == src_pod else agg_by_pod[pod]
            by_id = needed[pod]
            for ident in sorted(tor_prefix.block(self._width)):
                tor = by_id.get(ident)
                if tor == src_tor:
                    # Already on the trunk (the fold-in variant); the agg's
                    # duplicate copy back to it is discarded, no new edge.
                    continue
                if tor is not None:
                    covered.append(tor)
                    parent[tor] = agg
                    for host in tree.children(tor):
                        if addr.kind_of(host) is addr.NodeKind.HOST:
                            parent[host] = tor
                elif ident in pod_waste.get((pod, tor_prefix), ()):
                    extra = self._existing_edge_switch(agg, ident)
                    # The source's own ToR sits on the trunk; a duplicate
                    # copy to it is physically possible but structurally a
                    # parent conflict, so we skip that one edge.
                    if extra is not None and extra not in parent:
                        wasted.append(extra)
                        parent[extra] = agg
        return {
            "prefix": tor_prefix,
            "pod_prefix": pod_prefix,
            "pods": block_pods,
            "parent": parent,
            "covered": covered,
            "wasted": wasted,
        }

    # -- generic decomposition (leaf-spine, asymmetric fabrics) -----------------

    def _per_fanout_drafts(self, tree: MulticastTree, source: str) -> list[dict]:
        """One packet per (fan-out switch, ToR-prefix).

        Used whenever hierarchical core rules do not apply: leaf-spine
        fabrics (one downward tier) and asymmetric fabrics, where the
        layer-peeling tree dictates structure.
        """
        drafts: list[dict] = []
        for node in sorted(tree.nodes):
            if addr.kind_of(node) not in _UPPER_KINDS:
                continue
            edge_children = [
                c for c in tree.children(node) if addr.kind_of(c) in _EDGE_KINDS
            ]
            if not edge_children:
                continue
            by_id = {self._edge_switch_id(c): c for c in edge_children}
            for prefix in self._cover(set(by_id)):
                covered: list[str] = []
                wasted: list[str] = []
                parent: dict[str, str] = {}
                trunk = tree.path_from_root(node)
                for par, child in zip(trunk, trunk[1:]):
                    parent[child] = par
                for ident in sorted(prefix.block(self._width)):
                    if ident in by_id:
                        edge_sw = by_id[ident]
                        covered.append(edge_sw)
                        parent[edge_sw] = node
                        for host in tree.children(edge_sw):
                            if addr.kind_of(host) is addr.NodeKind.HOST:
                                parent[host] = edge_sw
                    else:
                        extra = self._existing_edge_switch(node, ident)
                        if extra is not None and extra not in parent:
                            wasted.append(extra)
                            parent[extra] = node
                drafts.append(
                    {
                        "fanout": node,
                        "prefix": prefix,
                        "parent": parent,
                        "covered": covered,
                        "wasted": wasted,
                    }
                )
        return drafts

    def _attach_trunk_hosts(
        self, tree: MulticastTree, drafts: list[dict]
    ) -> dict[str, str]:
        """Attach hosts not yet served by any packet; returns a standalone
        local parent map only when no packet can carry them.

        Hosts hanging off edge switches on a packet's trunk (e.g. receivers
        under the source's own ToR) ride whichever packet already traverses
        that switch — no extra copy is emitted for them.
        """
        served: set[str] = set()
        for d in drafts:
            for edge_sw in d["covered"]:
                served.update(
                    h
                    for h in tree.children(edge_sw)
                    if addr.kind_of(h) is addr.NodeKind.HOST
                )
        local_parent: dict[str, str] = {}
        for node in sorted(tree.nodes):
            if addr.kind_of(node) not in _EDGE_KINDS:
                continue
            hosts = [
                c
                for c in tree.children(node)
                if addr.kind_of(c) is addr.NodeKind.HOST and c not in served
            ]
            if not hosts:
                continue
            # A wasted ToR discards the packet, so it cannot carry hosts;
            # the switch must sit on the trunk or be genuinely covered.
            carrier = next(
                (
                    d
                    for d in drafts
                    if node in d["parent"] and node not in d["wasted"]
                ),
                None,
            )
            if carrier is not None:
                for host in hosts:
                    carrier["parent"][host] = node
                continue
            trunk = tree.path_from_root(node)
            for par, child in zip(trunk, trunk[1:]):
                local_parent.setdefault(child, par)
            for host in hosts:
                local_parent[host] = node
        return local_parent
