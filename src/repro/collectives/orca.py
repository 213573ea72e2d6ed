"""Orca-style server-assisted multicast (the paper's §3.1/§4 baseline).

Orca installs per-group rules on demand through an SDN controller — every
collective pays a flow-setup delay drawn from ``N(10 ms, 5 ms)`` — and
offloads the last-hop fan-out to a host-side agent: the network multicasts
one copy to an agent per rack; the agent unicasts one copy to each other
*server* in its rack (through the ToR) and the receiving server spreads the
message across its own GPUs over NVLink.  ``controller_overhead=False``
gives the idealized variant Figure 4 compares against.

Endpoint model: group members are GPU NICs; ``gpus_per_server`` consecutive
endpoints under a ToR belong to one physical server and share its NVLink
domain (see DESIGN.md).
"""

from __future__ import annotations

from ..sim import Transfer
from ..topology import addressing as addr
from .base import BroadcastScheme, CollectiveHandle, Group
from .env import CollectiveEnv
from .multicast import SteinerReplan, steiner_tree
from .registry import register_scheme

GPUS_PER_SERVER = 8


def server_of(endpoint: str, gpus_per_server: int = GPUS_PER_SERVER) -> tuple:
    """The physical server an endpoint NIC belongs to."""
    info = addr.parse(endpoint)
    return (info.pod, info.tor, info.index // gpus_per_server)


def rack_agents(topo, source: str, hosts, gpus_per_server: int = GPUS_PER_SERVER):
    """``(racks, agents)``: ``hosts`` by rack and server, and each rack's agent
    — the source for its own rack, else its lowest server's first host."""
    racks: dict[str, dict[tuple, list[str]]] = {}
    for endpoint in hosts:
        rack = topo.tor_of(endpoint)
        server = server_of(endpoint, gpus_per_server)
        racks.setdefault(rack, {}).setdefault(server, []).append(endpoint)
    src_rack = topo.tor_of(source)
    agents = {
        rack: source if rack == src_rack else servers[min(servers)][0]
        for rack, servers in sorted(racks.items())
    }
    return racks, agents


# The per-transfer callbacks below are callable classes rather than
# closures: they end up inside transfers and the fault injector's recovery
# registry, all of which must pickle for repro.replay checkpoints.


class NvlinkSpread:
    """Server-internal distribution once the representative NIC has the
    message: the representative completes, its siblings follow one NVLink
    hop later."""

    __slots__ = ("sim", "handle", "nvlink_s", "others")

    def __init__(self, sim, handle: CollectiveHandle, nvlink_s: float,
                 others: list[str]) -> None:
        self.sim = sim
        self.handle = handle
        self.nvlink_s = nvlink_s
        self.others = others

    def __call__(self, host: str, now: float) -> None:
        self.handle.host_done(host, now)
        done_at = now + self.nvlink_s
        for sibling in self.others:
            self.sim.schedule_at(done_at, self.handle.host_done, sibling, done_at)


class AgentFanout:
    """Trunk completion router: each agent NIC's delivery triggers that
    rack's :class:`NvlinkSpread`."""

    __slots__ = ("callbacks",)

    def __init__(self, callbacks: dict) -> None:
        self.callbacks = callbacks

    def __call__(self, host: str, now: float) -> None:
        self.callbacks[host](host, now)


@register_scheme(
    "orca",
    params=("controller_overhead", "gpus_per_server"),
    description="Orca: SDN-installed multicast with per-rack host agents",
)
class OrcaBroadcast(BroadcastScheme):
    """Orca: SDN-installed multicast with per-rack host agents (§3.1)."""
    def __init__(
        self,
        controller_overhead: bool = True,
        gpus_per_server: int = GPUS_PER_SERVER,
    ) -> None:
        self.controller_overhead = controller_overhead
        self.gpus_per_server = gpus_per_server
        self.name = "orca" if controller_overhead else "orca-nosetup"

    @property
    def shardable(self) -> bool:
        # The setup delay draws the shared controller RNG at launch; its
        # draw *order* couples jobs, so only the no-setup variant shards.
        return not self.controller_overhead

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
        start = arrival_s
        if self.controller_overhead:
            start += env.controller.setup_delay()
        nvlink_s = message_bytes / env.config.nvlink_bytes_per_s

        racks, agents = rack_agents(
            env.topo, source, group.hosts, self.gpus_per_server
        )
        remote_agents = sorted(a for a in agents.values() if a != source)
        trunk: Transfer | None = None
        if remote_agents:
            # The controller computes a proper multicast tree to the agents.
            tree = steiner_tree(env.topo, source, remote_agents)
            agent_callbacks = {}
            for rack, servers in racks.items():
                agent = agents[rack]
                if agent == source:
                    continue
                server = server_of(agent, self.gpus_per_server)
                siblings = [e for e in servers[server] if e != agent]
                agent_callbacks[agent] = NvlinkSpread(
                    env.sim, handle, nvlink_s, siblings
                )

            trunk = Transfer(
                env.network,
                env.next_transfer_name("orca-trunk"),
                source,
                message_bytes,
                [tree],
                start_at=start,
                on_host_done=AgentFanout(agent_callbacks),
            )
            if env.fault_injector is not None:
                # Orca's controller reacts to fabric faults by recomputing
                # and re-installing the trunk tree for the agents still
                # waiting (the per-rack relay legs stay rack-local and are
                # not registered, like other host-relay chains).
                env.fault_injector.register(trunk, SteinerReplan(env, source))

        # Per-rack fan-out: the agent unicasts to one representative NIC of
        # every other server in its rack; NVLink covers that server's rest.
        ecmp = env.ecmp_rng()
        for rack, servers in sorted(racks.items()):
            agent = agents[rack]
            agent_server = server_of(agent, self.gpus_per_server)
            for server, endpoints in sorted(servers.items()):
                if server == agent_server:
                    if agent == source:
                        # Source server: its other GPUs fill over NVLink.
                        others = [e for e in endpoints if e != source]
                        for sibling in others:
                            env.sim.schedule_at(
                                start + nvlink_s,
                                handle.host_done,
                                sibling,
                                start + nvlink_s,
                            )
                    continue
                rep, rest = endpoints[0], endpoints[1:]
                relay = Transfer(
                    env.network,
                    env.next_transfer_name(f"orca-agent-{agent}"),
                    agent,
                    message_bytes,
                    [env.router.path_tree(agent, rep, ecmp)],
                    start_at=start,
                    is_relay=agent != source,
                    on_host_done=NvlinkSpread(env.sim, handle, nvlink_s, rest),
                )
                if agent != source:
                    assert trunk is not None
                    trunk.add_relay_child(agent, relay)
                relay.start()

        if trunk is not None:
            trunk.start()
        return handle
