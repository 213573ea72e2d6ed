"""repro.control: the persistent multicast control-plane service.

The paper's deployment story needs more than one-shot experiment runs: a
*service* that owns long-lived multicast groups, absorbs membership churn
with incremental tree maintenance (graft/prune against the installed peel
trees, full re-peel past a delta threshold), and re-plans around measured
congestion — all while staying byte-deterministic under the repo's golden
and checkpoint/replay infrastructure.  See DESIGN.md "Control plane".

Layering:

* :mod:`~repro.control.membership` — pure tree surgery + the re-peel policy;
* :mod:`~repro.control.service` — :class:`ControlPlane` over the serving
  runtime (groups, epochs, cache/TCAM invalidation);
* :mod:`~repro.control.replanner` — the congestion-watching app;
* :mod:`~repro.control.protocol` / :mod:`~repro.control.server` /
  :mod:`~repro.control.client` — the JSON line protocol, its asyncio unix
  socket front end, and the two client transports.
"""

from .client import (
    ControlPlaneRequestError,
    ControlRequestError,
    LocalClient,
    MembershipRequestError,
    ProtocolRequestError,
    SocketClient,
)
from .membership import (
    ChurnPolicy,
    MembershipError,
    covered_hosts,
    graft_host,
    prune_host,
)
from .protocol import ProtocolError
from .replanner import CongestionReplanner
from .server import ControlServer, Dispatcher
from .service import ControlError, ControlPlane, ManagedGroup

__all__ = [
    "ChurnPolicy",
    "CongestionReplanner",
    "ControlError",
    "ControlPlane",
    "ControlPlaneRequestError",
    "ControlRequestError",
    "ControlServer",
    "Dispatcher",
    "LocalClient",
    "ManagedGroup",
    "MembershipError",
    "MembershipRequestError",
    "ProtocolError",
    "ProtocolRequestError",
    "SocketClient",
    "covered_hosts",
    "graft_host",
    "prune_host",
]
