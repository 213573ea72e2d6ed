"""Multi-tenant collective serving runtime.

The paper's deploy-once argument (§3) only fully materializes under
sustained multi-tenant churn — thousands of groups joining and leaving on
one shared fabric, the regime Elmo and Bert evaluate against.  This package
provides that regime: :class:`ServeRuntime` admits a stream of
:class:`~repro.workloads.CollectiveJob` requests through pluggable
:mod:`admission <repro.serve.admission>` policies, runs admitted
collectives concurrently on one :class:`~repro.collectives.env.CollectiveEnv`,
mirrors per-group switch state into :class:`~repro.state.tcam.TcamTable`
models (:mod:`repro.serve.state`), amortizes planning with a fault-aware
:class:`PlanCache`, and reports per-tenant SLOs through
:mod:`repro.metrics`.
"""

from .admission import (
    AdmissionPolicy,
    CompositeAdmission,
    Decision,
    FifoAdmission,
    LinkLoadAdmission,
    TcamAdmission,
)
from .cache import DEFAULT_CACHE_SIZE, PlanCache, PlanKey
from .runtime import (
    DATAPLANE,
    SERVE_SCHEMES,
    JobRecord,
    ServeReport,
    ServeRuntime,
    serve_jobs,
)
from .state import (
    Demand,
    FabricState,
    IpMulticastStatePolicy,
    OrcaStatePolicy,
    PeelStatePolicy,
    StatePolicy,
    policy_for,
    tree_switch_fanouts,
)

__all__ = [
    "AdmissionPolicy",
    "CompositeAdmission",
    "Decision",
    "FifoAdmission",
    "LinkLoadAdmission",
    "TcamAdmission",
    "DEFAULT_CACHE_SIZE",
    "PlanCache",
    "PlanKey",
    "DATAPLANE",
    "SERVE_SCHEMES",
    "JobRecord",
    "ServeReport",
    "ServeRuntime",
    "serve_jobs",
    "Demand",
    "FabricState",
    "IpMulticastStatePolicy",
    "OrcaStatePolicy",
    "PeelStatePolicy",
    "StatePolicy",
    "policy_for",
    "tree_switch_fanouts",
]
