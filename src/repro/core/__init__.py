"""PEEL — the paper's primary contribution.

Tree construction (§2): :func:`optimal_symmetric_tree` for failure-free Clos
and :func:`layer_peeling_tree` for asymmetric fabrics.  State/header
co-design (§3): power-of-two prefix covers, the ``⟨prefix, length⟩`` header,
pre-installed rule tables, and the :class:`Peel` planner tying it together.
"""

from .header import (
    PeelHeader,
    header_bits,
    header_bytes,
    hierarchical_header_bits,
    hierarchical_header_bytes,
    tor_id_bits,
)
from .layer_peeling import layer_peeling_tree, peeled_tree_bound
from .multipath import diverse_trees, tree_overlap
from .peel import Peel, PeelPlan, PrefixPacket
from .prefix import (
    Prefix,
    bounded_cover,
    cover_waste,
    covered_ids,
    exact_cover,
)
from .protection import BackupEntry, ProtectionPlan, build_protection
from .refinement import ControllerModel, RefinementSchedule, core_rules_needed
from .rules import ForwardingRule, PrefixRuleTable, preinstalled_rules, rule_count
from .symmetric import SymmetryError, optimal_symmetric_cost, optimal_symmetric_tree

__all__ = [
    "Peel",
    "PeelPlan",
    "PrefixPacket",
    "Prefix",
    "PeelHeader",
    "exact_cover",
    "bounded_cover",
    "cover_waste",
    "covered_ids",
    "header_bits",
    "header_bytes",
    "hierarchical_header_bits",
    "hierarchical_header_bytes",
    "tor_id_bits",
    "layer_peeling_tree",
    "peeled_tree_bound",
    "diverse_trees",
    "tree_overlap",
    "BackupEntry",
    "ProtectionPlan",
    "build_protection",
    "optimal_symmetric_tree",
    "optimal_symmetric_cost",
    "SymmetryError",
    "ForwardingRule",
    "PrefixRuleTable",
    "preinstalled_rules",
    "rule_count",
    "ControllerModel",
    "RefinementSchedule",
    "core_rules_needed",
]
