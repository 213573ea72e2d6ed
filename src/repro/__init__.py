"""PEEL: scalable datacenter multicast for AI collectives.

A from-scratch reproduction of "One to Many: Closing the Bandwidth Gap in
AI Datacenters with Scalable Multicast" (HotNets '25): near-optimal
multicast trees in polynomial time (layer peeling, §2), power-of-two prefix
state/header co-design (§3), and a discrete-event RDMA-fabric simulator
that regenerates the paper's evaluation (§4).

Typical entry points:

>>> from repro import FatTree, Peel
>>> fabric = FatTree(8, hosts_per_tor=4)
>>> plan = Peel(fabric).plan("host:p0:t0:0", ["host:p1:t0:0"])
>>> plan.num_prefixes
1

Scenarios run through one facade: build a
:class:`~repro.api.ScenarioSpec`, call :func:`repro.api.run`:

>>> from repro import ScenarioSpec, run
>>> result = run(ScenarioSpec(topology=fabric, scheme="peel", jobs=jobs))

Subpackages: :mod:`repro.topology` (fabrics), :mod:`repro.steiner`
(tree oracles), :mod:`repro.core` (PEEL itself), :mod:`repro.state`
(switch-state models), :mod:`repro.sim` (event simulator),
:mod:`repro.collectives` (broadcast schemes), :mod:`repro.workloads`,
:mod:`repro.metrics`, :mod:`repro.api` (scenario facade),
:mod:`repro.replay` (checkpoint/replay + soak), :mod:`repro.serve`
(multi-tenant serving), :mod:`repro.obs` (metrics registry + span
tracing/timeline export) and :mod:`repro.experiments` (paper figures).
"""

from .api import (
    ReplayInfo,
    ScenarioResult,
    ScenarioRun,
    ScenarioSpec,
    run,
)
from .collectives import (
    BroadcastScheme,
    CollectiveEnv,
    Gpu,
    Group,
    resolve_scheme,
)
from .core import (
    Peel,
    PeelPlan,
    layer_peeling_tree,
    optimal_symmetric_tree,
)
from .faults import FaultEvent, FaultInjector, FaultSchedule, Repeel
from .obs import MetricsRegistry, Observability, SpanTracer
from .replay import (
    Snapshot,
    SnapshotError,
    SoakConfig,
    SoakRunner,
    verify_scenario_replay,
)
from .serve import ServeReport, ServeRuntime
from .sim import (
    FabricObserver,
    InvariantChecker,
    InvariantViolation,
    Network,
    SimConfig,
    Simulator,
    TraceRecorder,
    Transfer,
)
from .steiner import MulticastTree, exact_steiner_tree, metric_closure_tree
from .topology import FatTree, LeafSpine, Topology, asymmetric

__version__ = "1.0.0"

__all__ = [
    "ScenarioSpec",
    "ScenarioResult",
    "ScenarioRun",
    "ReplayInfo",
    "run",
    "BroadcastScheme",
    "CollectiveEnv",
    "Gpu",
    "Group",
    "resolve_scheme",
    "Peel",
    "PeelPlan",
    "layer_peeling_tree",
    "optimal_symmetric_tree",
    "FaultEvent",
    "FaultInjector",
    "FaultSchedule",
    "Repeel",
    "Snapshot",
    "SnapshotError",
    "SoakConfig",
    "SoakRunner",
    "verify_scenario_replay",
    "ServeReport",
    "ServeRuntime",
    "MetricsRegistry",
    "Observability",
    "SpanTracer",
    "FabricObserver",
    "InvariantChecker",
    "InvariantViolation",
    "Network",
    "SimConfig",
    "Simulator",
    "TraceRecorder",
    "Transfer",
    "MulticastTree",
    "exact_steiner_tree",
    "metric_closure_tree",
    "FatTree",
    "LeafSpine",
    "Topology",
    "asymmetric",
    "__version__",
]
