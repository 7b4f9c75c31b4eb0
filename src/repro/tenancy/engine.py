"""Multi-tenant simulation engine: concurrent applications, one cluster.

The single-application :class:`~repro.simulator.engine.SparkSimulator`
owns the whole cluster.  This engine runs *N* applications against one
shared set of worker nodes, on the same
:class:`~repro.simulator.loop.SlotLoop` a standalone run uses (a
standalone run is its one-application case).  What is tenancy-specific
lives here:

* **arrivals** — an :class:`~repro.tenancy.arrivals.ArrivalProcess`
  streams the applications in over simulated time;
* **the arbitrated shared cluster** — one memory/disk store and one
  disk I/O channel per node, with an
  :class:`~repro.tenancy.arbitration.ArbitratedNodePolicy` deciding
  *which application* yields cache space under pressure;
* **per-app drivers** — each application keeps its own driver state
  (DAGScheduler position, cache scheme, control plane, block managers)
  in an :class:`_AppDriver`, a ``SparkSimulator`` whose overrides
  register its tenant policies and eviction routers on the shared
  nodes;
* **teardown** — when an application finishes, its metrics are
  collected first, then every block in its RDD namespace is dropped
  from the shared stores and its tenant policies are deregistered: a
  finished tenant neither holds cache nor participates in arbitration.

With a single application this reproduces the standalone engine
exactly — the equivalence suite asserts the full ``RunMetrics`` are
byte-identical across all workloads and schemes.

Elastic membership
------------------
A shared cluster changes size at simulated *times*:
:class:`TimedNodeJoin` and :class:`TimedNodeDecommission` fire from the
loop's heap, mid-stage if need be, through the same membership path a
standalone run's stage-indexed events take.  A join registers the node
with every active application (each driver sends its own §4.4
``WorkerRegister``, receiving the current distance table); a
decommission hands each active application's resident blocks on that
node to its :class:`~repro.cluster.rebalance.RebalancePolicy`, re-homes
the node's queued tasks through each owner's placement, and retires the
slot.  Applications arriving later build their block-manager masters
over the then-current live set.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cluster.block import Block
from repro.cluster.block_manager import BlockManager
from repro.cluster.block_manager_master import BlockManagerMaster
from repro.cluster.cluster import Cluster, ClusterConfig, build_cluster, make_worker
from repro.cluster.node import WorkerNode
from repro.cluster.placement import PLACEMENTS
from repro.cluster.rebalance import REBALANCES
from repro.control.messages import ControlMessage, StageBoundary
from repro.control.plane import RpcConfig
from repro.dag.dag_builder import build_dag
from repro.policies.base import EvictionPolicy
from repro.simulator.engine import SparkSimulator
from repro.simulator.loop import SlotLoop
from repro.simulator.metrics import RunMetrics
from repro.sweep.schemes import SchemeLike, resolve_scheme
from repro.tenancy.arbitration import (
    RDD_NAMESPACE_STRIDE,
    ArbitratedNodePolicy,
    ArbitrationPolicy,
    build_arbitration,
    namespace_of,
    owner_of,
)
from repro.tenancy.arrivals import ArrivalProcess, FixedArrivals
from repro.tenancy.metrics import MultiTenantMetrics
from repro.workloads.base import WorkloadParams
from repro.workloads.registry import build_workload


@dataclass(frozen=True)
class TimedNodeJoin:
    """Grow the shared cluster at simulated time ``at``.

    ``node_id`` pins the joining node's id (a decommissioned slot may
    rejoin); ``None`` opens the next fresh slot.
    """

    at: float
    node_id: int | None = None

    def __post_init__(self) -> None:
        if self.at < 0:
            raise ValueError("at must be non-negative")
        if self.node_id is not None and self.node_id < 0:
            raise ValueError("node_id must be non-negative")


@dataclass(frozen=True)
class TimedNodeDecommission:
    """Permanently remove a shared node at simulated time ``at``.

    ``None`` sheds the highest live node id (the autoscaler shape).
    """

    at: float
    node_id: int | None = None

    def __post_init__(self) -> None:
        if self.at < 0:
            raise ValueError("at must be non-negative")
        if self.node_id is not None and self.node_id < 0:
            raise ValueError("node_id must be non-negative")


TimedMembershipEvent = TimedNodeJoin | TimedNodeDecommission


@dataclass(frozen=True)
class AppSpec:
    """One application submitted to the shared cluster."""

    workload: str
    scheme: SchemeLike = "LRU"
    scale: float = 1.0
    iterations: int | None = None
    partitions: int = 8
    seed: int = 0
    #: Cache share weight under share-based arbitration (static/maxmin).
    share: float = 1.0

    def __post_init__(self) -> None:
        if self.share <= 0:
            raise ValueError("share must be positive")
        # Fail fast on unknown scheme names (before any simulation).
        resolve_scheme(self.scheme)

    def params(self) -> WorkloadParams:
        return WorkloadParams(
            scale=self.scale,
            iterations=self.iterations,
            partitions=self.partitions,
            seed=self.seed,
        )


class _AppDriver(SparkSimulator):
    """Per-application simulator state, driven by the shared slot loop.

    Overrides only what tenancy changes: the cluster it builds (a
    per-app master over the shared nodes, with this application's
    tenant policies registered on every node's composite), its block
    managers' eviction routing, the blocks a decommission rebalances
    (its own namespace), distance-table delivery (routed to its own
    tenant policy), and teardown when it finishes.
    """

    def __init__(
        self, sim: MultiTenantSimulator, app_index: int, share: float,
        *args, **kwargs,
    ) -> None:
        super().__init__(*args, **kwargs)
        self._sim = sim
        self.app_id = app_index
        self._metrics_app_id = app_index
        self._share = share
        #: This application's per-node eviction policies (registered as
        #: tenants of the shared nodes' composite policies).
        self._tenant_policies: list[EvictionPolicy] = []
        #: This application's master while it runs (eviction routing).
        self._master: BlockManagerMaster | None = None

    def _build_cluster(self) -> Cluster:
        loop = self._sim._state
        assert loop is not None
        self._register_tenant(loop.nodes)
        master = BlockManagerMaster(loop.nodes, placement=self.placement)
        # A late arrival joins the cluster as it is *now*: nodes already
        # decommissioned are dead slots from this application's first
        # breath (they never take placement, never run its tasks).
        for node_id in sorted(loop.dead):
            master.decommission_node(node_id)
        self._master = master
        return Cluster(config=self.cluster_config, nodes=loop.nodes, master=master)

    def _register_tenant(self, nodes: list[WorkerNode]) -> None:
        """Register a tenant policy on every shared node not yet covered.

        A rejoining slot keeps the (emptied) policy it had, exactly like
        a standalone run reuses a decommissioned node's policy.
        """
        policies = self._tenant_policies
        while len(policies) < len(nodes):
            node = nodes[len(policies)]
            policy = self.scheme.policy_factory(node.node_id)
            policies.append(policy)
            composite = node.policy
            assert isinstance(composite, ArbitratedNodePolicy)
            composite.register_tenant(
                self.app_id, policy, share=self._share,
                distance_of=self.scheme.reference_distance,
            )

    def _adopt_manager(self, mgr: BlockManager) -> None:
        super()._adopt_manager(mgr)
        mgr.eviction_router = self._sim._router_for(mgr.node.node_id)

    def _join_node(self, node: WorkerNode, now: float) -> None:
        assert self.cluster is not None
        self._register_tenant(self.cluster.nodes)
        super()._join_node(node, now)

    def _resident_blocks(self, node: WorkerNode) -> list[Block]:
        lo, hi = namespace_of(self.app_id)
        return [b for b in node.memory.blocks() if lo <= b.id.rdd_id < hi]

    def _deliver_table(self, msg: ControlMessage, t: float) -> bool:
        assert isinstance(msg, StageBoundary)
        applied = self._tenant_policies[msg.node_id].on_table_update(
            msg.seq, msg.distances
        )
        return applied is False

    def _finish_run(self, now: float) -> RunMetrics:
        metrics = super()._finish_run(now)
        # In-flight prefetches are abandoned, exactly as a standalone
        # run ends with transfers still on the wire (the channel time
        # they reserved stays reserved — the I/O physically happened).
        master = self._master
        assert master is not None
        for mgr in master.managers:
            mgr.inflight_prefetch.clear()
        # Teardown: the namespace leaves memory and disk, then the
        # tenant leaves arbitration.  Removal order matters — dropping
        # blocks first keeps on_remove routing to a live tenant.
        lo, hi = namespace_of(self.app_id)
        master.drop_rdd_range(lo, hi)
        for node in master.nodes:
            composite = node.policy
            assert isinstance(composite, ArbitratedNodePolicy)
            composite.deregister_tenant(self.app_id)
        self._master = None
        return metrics

    def run(self) -> RunMetrics:  # pragma: no cover - misuse guard
        raise RuntimeError(
            "_AppDriver is driven by MultiTenantSimulator; call its run()"
        )


class MultiTenantSimulator:
    """Runs several applications concurrently on one shared cluster."""

    def __init__(
        self,
        apps: list[AppSpec] | tuple[AppSpec, ...],
        cluster_config: ClusterConfig,
        arrivals: ArrivalProcess | None = None,
        arbitration: str | ArbitrationPolicy = "static",
        control_plane: str = "instant",
        control_config: RpcConfig | None = None,
        promote_on_miss: bool = True,
        placement: str = "stride",
        memberships: list[TimedMembershipEvent] | tuple[TimedMembershipEvent, ...] = (),
        rebalance: str = "drop",
    ) -> None:
        if not apps:
            raise ValueError("a multi-tenant run needs at least one application")
        if placement not in PLACEMENTS:
            raise ValueError(f"unknown placement {placement!r} (choose from {PLACEMENTS})")
        if rebalance not in REBALANCES:
            raise ValueError(f"unknown rebalance {rebalance!r} (choose from {REBALANCES})")
        for event in memberships:
            if not isinstance(event, (TimedNodeJoin, TimedNodeDecommission)):
                raise TypeError(
                    "memberships must be TimedNodeJoin/TimedNodeDecommission, "
                    f"got {event!r}"
                )
        _check_joins(memberships, cluster_config.num_nodes)
        self.apps = tuple(apps)
        self.cluster_config = cluster_config
        self.arrivals = arrivals if arrivals is not None else FixedArrivals()
        self.arbitration = build_arbitration(arbitration)
        self.control_plane = control_plane
        self.control_config = control_config
        self.promote_on_miss = promote_on_miss
        self.placement = placement
        self.memberships = tuple(memberships)
        self.rebalance = rebalance
        #: The slot loop of the latest run, kept drained for inspection.
        self._state: SlotLoop | None = None
        self._drivers: list[_AppDriver] = []

    # ------------------------------------------------------------------
    def run(self) -> MultiTenantMetrics:
        """Simulate every application; returns the aggregate metrics."""
        times = self._arrival_times()
        loop = self._setup()
        loop.run(times, [
            (event.at, isinstance(event, TimedNodeJoin), event.node_id)
            for event in self.memberships
        ])
        apps = tuple(app.metrics for app in loop.apps)
        assert all(m is not None for m in apps)
        makespan = max((app.finish for app in loop.apps), default=0.0)
        # The drained loop is kept around for post-run inspection (the
        # isolation tests assert stores are empty and tenants gone); a
        # subsequent run() rebuilds everything from scratch in _setup().
        return MultiTenantMetrics(
            arbitration=self.arbitration.name,
            arrival_process=self.arrivals.name,
            makespan=makespan,
            apps=apps,
        )

    def _arrival_times(self) -> list[float]:
        """The arrival process's times, checked before any set-up."""
        times = self.arrivals.times(len(self.apps))
        if len(times) != len(self.apps):
            raise ValueError(
                f"arrival process gave {len(times)} times for {len(self.apps)} apps"
            )
        for i, t in enumerate(times):
            if t < 0:
                raise ValueError(
                    f"arrival times must be non-negative: app {i} arrives at {t}"
                )
            if i and t < times[i - 1]:
                raise ValueError(
                    f"arrival times must be non-decreasing: app {i} arrives at "
                    f"{t}, before app {i - 1} at {times[i - 1]}"
                )
        return times

    # ------------------------------------------------------------------
    # setup
    # ------------------------------------------------------------------
    def _setup(self) -> SlotLoop:
        # Shared nodes with one composite (arbitrated) policy each; the
        # base cluster's own master is discarded — block routing happens
        # through each application's private master over the same nodes.
        def arbitrated(node_id: int) -> ArbitratedNodePolicy:
            return ArbitratedNodePolicy(self.arbitration)

        base = build_cluster(self.cluster_config, arbitrated)
        drivers: list[_AppDriver] = []
        for index, spec in enumerate(self.apps):
            application = build_workload(
                spec.workload,
                spec.params(),
                first_rdd_id=index * RDD_NAMESPACE_STRIDE,
            )
            drivers.append(_AppDriver(
                self,
                index,
                spec.share,
                build_dag(application),
                self.cluster_config,
                resolve_scheme(spec.scheme).build(),
                promote_on_miss=self.promote_on_miss,
                control_plane=self.control_plane,
                control_config=self.control_config,
                placement=self.placement,
                rebalance=self.rebalance,
            ))
        self._drivers = drivers
        self._state = SlotLoop(
            drivers,
            lambda node_id: make_worker(self.cluster_config, node_id, arbitrated),
            nodes=base.nodes,
        )
        return self._state

    def _router_for(self, node_id: int):
        """Eviction router: charge an evicted block to its owner app."""

        def route(block_id) -> BlockManager | None:
            owner = owner_of(block_id.rdd_id)
            if 0 <= owner < len(self._drivers):
                master = self._drivers[owner]._master
                if master is not None:
                    return master.managers[node_id]
            return None

        return route


def _check_joins(memberships, num_nodes: int) -> None:
    """Reject a pinned join that can never extend the cluster.

    Only fresh joins grow the node set, so the next free id at each
    event is known up front; events fire in ``(at, index)`` order.
    """
    next_free = num_nodes
    for i, event in sorted(enumerate(memberships), key=lambda e: (e[1].at, e[0])):
        if not isinstance(event, TimedNodeJoin):
            continue
        node_id = next_free if event.node_id is None else event.node_id
        if node_id > next_free:
            raise ValueError(
                f"memberships[{i}]: join of node {node_id} at t={event.at} does "
                f"not extend the cluster (next free id is {next_free})"
            )
        if node_id == next_free:
            next_free += 1


def simulate_multi_tenant(
    apps: list[AppSpec] | tuple[AppSpec, ...],
    cluster_config: ClusterConfig,
    **kwargs,
) -> MultiTenantMetrics:
    """One-shot convenience wrapper around :class:`MultiTenantSimulator`."""
    return MultiTenantSimulator(apps, cluster_config, **kwargs).run()
