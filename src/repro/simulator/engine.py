"""Event-driven execution engine.

Replays an :class:`ApplicationDAG` on a simulated cluster under a
pluggable :class:`CacheScheme`:

* active stages execute in sequence (stage barrier, like Spark's
  DAGScheduler for a single app);
* within a stage, tasks queue on per-node executor slots and are
  processed in global start-time order, so cache state (insertions,
  evictions, prefetch completions) evolves *during* the stage and is
  observed consistently by later tasks;
* cached-block reads hit memory, wait for an in-flight prefetch, or
  synchronously re-read the spilled copy through the home node's
  serialized disk channel;
* prefetch orders issued at a stage boundary occupy the same disk
  channel and complete asynchronously — the overlap of this I/O with
  computation is exactly the mechanism the paper credits for MRD's
  prefetching gains.

Two schedulers implement the start-time order (see
``docs/performance.md``):

* ``"event"`` (default) — the run is the one-application case of the
  global-heap :class:`~repro.simulator.loop.SlotLoop` the multi-tenant
  engine also runs on, plus a time-ordered prefetch-completion heap;
  O(log slots) per task and O(log inflight) per completion.
* ``"reference"`` — the original per-stage loop (a ``min()`` over every
  node per task, a scan of every manager's in-flight dict per task),
  kept as the executable specification: the equivalence suite asserts
  both produce identical :class:`RunMetrics` on every registered
  workload, and the ``repro bench`` harness measures the speedup
  between them.

Membership changes (joins, decommissions) go through the loop in both
cases: it owns the node-level step, and each application runs the
per-app join/decommission bodies defined here.

Every driver↔worker interaction — purge orders, prefetch orders, table
broadcasts, cache-status reports, worker (de)registration — travels
through a :class:`~repro.control.plane.ControlPlane` as a typed
:mod:`~repro.control.messages` message.  The default ``"instant"``
plane delivers synchronously in send order and reproduces the old
direct-call semantics exactly; the ``"rpc"`` plane delays delivery by
modeled network latency (plus optional jitter and loss), so workers act
on possibly-stale reference-distance state — see the "Control plane"
section of ``docs/architecture.md``.
"""

from __future__ import annotations

import heapq
import math
from collections import deque

from repro.cluster.block import Block, BlockId, block_of
from repro.cluster.block_manager import AccessOutcome, BlockManager
from repro.cluster.cluster import Cluster, ClusterConfig, build_cluster, make_worker
from repro.cluster.node import WorkerNode
from repro.cluster.placement import PLACEMENTS
from repro.cluster.rebalance import RebalancePolicy, build_rebalance
from repro.control.messages import (
    CacheStatusReport,
    ControlMessage,
    PrefetchOrder,
    PurgeOrder,
    StageBoundary,
    WorkerDeregister,
    WorkerRegister,
)
from repro.control.plane import (
    CONTROL_PLANES,
    ControlPlane,
    RpcConfig,
    build_control_plane,
)
from repro.dag.dag_builder import ApplicationDAG
from repro.dag.rdd import RDD, ShuffleDependency
from repro.dag.structures import Stage
from repro.policies.scheme import CacheScheme, StageOrders
from repro.simulator.costmodel import CostModel
from repro.simulator.failures import (
    FailurePlan,
    MembershipEvent,
    NodeDecommission,
    NodeJoin,
)
from repro.simulator.loop import SlotLoop
from repro.simulator.metrics import RunMetrics, StageRecord
from repro.trace.events import (
    BlockMigrate,
    JobStart,
    PrefetchCancel,
    PrefetchComplete,
    PrefetchIssue,
    StageEnd,
    StageStart,
    WorkerDeregisterEvent,
    WorkerRegisterEvent,
)
from repro.trace.recorder import NULL_RECORDER, TraceRecorder


class SimulationError(RuntimeError):
    """Internal inconsistency (a referenced block that nowhere exists)."""


#: Scheduling cores understood by :class:`SparkSimulator`.
SCHEDULERS = ("event", "reference")

class SparkSimulator:
    """Runs one application under one cache-management scheme."""

    def __init__(
        self,
        dag: ApplicationDAG,
        cluster_config: ClusterConfig,
        scheme: CacheScheme,
        cost_model: CostModel | None = None,
        promote_on_miss: bool = True,
        failure_plan: FailurePlan | None = None,
        recorder: TraceRecorder | None = None,
        scheduler: str = "event",
        control_plane: str | ControlPlane = "instant",
        control_config: RpcConfig | None = None,
        placement: str = "stride",
        rebalance: str | RebalancePolicy = "drop",
    ) -> None:
        if scheduler not in SCHEDULERS:
            raise ValueError(
                f"scheduler must be one of {SCHEDULERS}, got {scheduler!r}"
            )
        if isinstance(control_plane, str) and control_plane not in CONTROL_PLANES:
            raise ValueError(
                f"control_plane must be one of {CONTROL_PLANES}, got {control_plane!r}"
            )
        if placement not in PLACEMENTS:
            raise ValueError(
                f"placement must be one of {PLACEMENTS}, got {placement!r}"
            )
        self.dag = dag
        self.cluster_config = cluster_config
        self.scheme = scheme
        self.scheduler = scheduler
        #: Structured-event sink; the shared no-op recorder by default,
        #: so an unrecorded run constructs no event objects at all.
        self.recorder = recorder if recorder is not None else NULL_RECORDER
        self.cost = cost_model or CostModel(
            network=cluster_config.network,
            disk=cluster_config.disk,
            cpu_speed=cluster_config.cpu_speed,
        )
        self.promote_on_miss = promote_on_miss
        self.failure_plan = failure_plan
        #: Partition → node scheme ("stride" legacy, "rendezvous" sticky).
        self.placement = placement
        #: What happens to a decommissioned node's cache (drop/migrate).
        self.rebalance: RebalancePolicy = (
            rebalance
            if isinstance(rebalance, RebalancePolicy)
            else build_rebalance(rebalance)
        )
        self.cluster: Cluster | None = None
        #: The run's control-plane transport (reset at every run start).
        self.control_config = control_config
        self.control: ControlPlane = (
            control_plane
            if isinstance(control_plane, ControlPlane)
            else build_control_plane(
                control_plane, control_config, cluster_config.network
            )
        )
        #: Active-stage seq the driver is currently processing; receiver
        #: callbacks compare it against a message's ``issued_seq`` to
        #: judge staleness.
        self._current_seq = 0
        #: Time-ordered prefetch completions: ``(done, seq, node_id,
        #: block_id)``.  ``seq`` is a monotone issue counter so entries
        #: with equal completion times pop in issue order and block ids
        #: are never compared.  Entries are invalidated lazily — a
        #: prefetch completed early (a task waited on it) or cancelled
        #: (node failure) no longer matches the manager's in-flight dict
        #: and is dropped on pop.
        self._prefetch_heap: list[tuple[float, int, int, BlockId]] = []
        self._prefetch_seq = 0
        self._unpersist_by_job: dict[int, list[int]] = {}
        for ev in dag.app.ctx.unpersist_events:
            self._unpersist_by_job.setdefault(ev.after_job_id, []).append(ev.rdd.id)
        #: Memoized per-partition recompute costs (failure-recovery path).
        self._recompute_cost: dict[int, float] = {}
        #: One-entry memo of the current stage's compiled task plan
        #: (per-partition read/write lists); plans themselves are cached
        #: on the DAG so repeated runs skip replanning entirely.
        self._plan_stage: Stage | None = None
        self._plan: tuple[list, list, bool] | None = None
        #: Application id stamped on every control message; 0 for the
        #: single-application engine, per-app under the tenancy layer.
        self.app_id = 0
        #: ``RunMetrics.app_id`` value (None marks a standalone run).
        self._metrics_app_id: int | None = None
        # Per-run state initialized by _start_run().
        self._records: list[StageRecord] = []
        self._lost_blocks = 0
        self._current_job = -1
        self._last_seq = 0
        self._t_origin = 0.0
        #: Per-run compiled plans for dynamic membership, keyed
        #: ``(stage.seq, epoch)``.  Sticky placement is a function of
        #: the run's membership *history*, so these plans must never be
        #: shared across runs the way ``dag.engine_plans`` is.
        self._plan_cache: dict[tuple[int, int], tuple[list, list, bool]] = {}
        # Membership churn accounting (all zero for static runs).
        self._membership_changed = False
        self._nodes_joined = 0
        self._nodes_decommissioned = 0
        self._rebalanced_blocks = 0
        self._rebalanced_mb = 0.0
        self._decommission_dropped = 0
        self._live_since: list[float] = []
        self._live_time: list[float] = []
        #: The slot loop running this application (owns membership).
        self._loop: SlotLoop | None = None

    # ------------------------------------------------------------------
    def run(self) -> RunMetrics:
        """Simulate the whole application; returns the collected metrics."""
        loop = SlotLoop([self], self._make_worker)
        if self.scheduler == "event":
            loop.run([0.0])
            metrics = loop.apps[0].metrics
            assert metrics is not None
            return metrics
        # The reference scheduler: the executable spec, stage by stage.
        loop.admit(loop.apps[0], 0.0)
        now = 0.0
        for stage in self.dag.active_stages:
            self._begin_stage(stage, now)
            start = now
            now = self._run_stage_reference(stage, start)
            self._end_stage(stage, start, now)
        return self._finish_run(now)

    # ------------------------------------------------------------------
    # run lifecycle (each phase is driven by the slot loop, per app)
    # ------------------------------------------------------------------
    def _start_run(self, now: float) -> None:
        """(Re)initialize per-run state; ``now`` is the application's
        start time (0.0 standalone, the arrival time under tenancy)."""
        self.scheme.prepare(self.dag)
        rec = self.recorder
        if rec.enabled:
            rec.now = now
            rec.distance_of = self.scheme.reference_distance
        self.cluster = self._build_cluster()
        self._prefetch_heap = []
        self._prefetch_seq = 0
        self._current_seq = 0
        self._records = []
        self._lost_blocks = 0
        self._current_job = -1
        self._last_seq = 0
        self._t_origin = now
        self._plan_stage = None
        self._plan = None
        self._plan_cache = {}
        # A late tenant's master starts without the nodes already gone.
        self._membership_changed = self.cluster.master.epoch > 0
        self._nodes_joined = 0
        self._nodes_decommissioned = 0
        self._rebalanced_blocks = 0
        self._rebalanced_mb = 0.0
        self._decommission_dropped = 0
        self._live_since = [now] * self.cluster.num_nodes
        self._live_time = [0.0] * self.cluster.num_nodes
        for mgr in self.cluster.master.managers:
            self._adopt_manager(mgr)
        control = self.control
        control.reset()
        control.recorder = rec
        plan = self.failure_plan
        control.outage_loss = (
            (lambda msg: plan.control_loss(self._current_seq, msg.node_id))
            if plan is not None and plan.outages
            else None
        )
        if plan is not None and plan.autoscaler is not None:
            plan.autoscaler.reset()
        self._register_workers(now)

    def _build_cluster(self) -> Cluster:
        """Cluster for this run (tenancy overrides with a shared view)."""
        return build_cluster(
            self.cluster_config, self.scheme.policy_factory,
            placement=self.placement,
        )

    def _make_worker(self, node_id: int) -> WorkerNode:
        """Node for an elastic join of a standalone run."""
        return make_worker(self.cluster_config, node_id, self.scheme.policy_factory)

    def _adopt_manager(self, mgr: BlockManager) -> None:
        """Wire one of this application's block managers to the run."""
        # Eviction trace events resolve reference distances through the
        # scheme owning this manager's blocks (correct per-app tables
        # under tenancy, where each app has its own managers).
        mgr.distance_source = self.scheme.reference_distance
        if self.recorder.enabled:
            mgr.recorder = self.recorder

    def _register_workers(self, now: float) -> None:
        # Initial worker registration is synchronous on every plane:
        # Spark blocks on executor registration before scheduling work.
        for node in self.cluster.nodes:
            self.control.send_local(
                WorkerRegister(sent_at=now, node_id=node.node_id, app_id=self.app_id),
                self._deliver_register,
            )

    def _begin_stage(self, stage: Stage, now: float) -> None:
        """Stage-boundary driver work: job submits, failures, reports,
        control pump, and the scheme's purge/prefetch orders."""
        rec = self.recorder
        control = self.control
        self._current_seq = self._last_seq = stage.seq
        if stage.job_id != self._current_job:
            # Previous jobs finished: apply their unpersist events.
            for j in range(max(self._current_job, 0), stage.job_id):
                self._apply_unpersists(j)
            # Newly submitted jobs reveal their DAGs to the scheme.
            for j in range(self._current_job + 1, stage.job_id + 1):
                self.scheme.on_job_submit(j)
                if rec.enabled:
                    rec.emit(JobStart(t=now, job_id=j))
            self._current_job = stage.job_id
        plan = self.failure_plan
        if plan is not None and plan.elastic:
            # Membership first: a failure scheduled against a node that
            # just decommissioned is skipped by the plan's liveness guard.
            self._apply_memberships(stage, now)
        if plan is not None:
            failed = plan.failures_at(stage.seq)
            self._lost_blocks += plan.apply(stage.seq, self.cluster)
            # The replacement re-registers through the control plane;
            # on (possibly delayed) delivery the driver re-issues the
            # distance-table snapshot (paper §4.4).
            for failure in failed:
                control.send(
                    WorkerDeregister(
                        sent_at=now, node_id=failure.node_id, app_id=self.app_id
                    ),
                    self._deliver_deregister,
                )
                control.send(
                    WorkerRegister(
                        sent_at=now, node_id=failure.node_id,
                        reason="replacement", app_id=self.app_id,
                    ),
                    self._deliver_register,
                )
        # Reports are sent before the pump so a zero-latency rpc
        # plane delivers them (deliver_at == now) before the scheme
        # plans the boundary — exactly the instant plane's ordering.
        self._send_status_reports(now)
        control.pump(now)
        if rec.enabled:
            rec.now = now
            rec.emit(StageStart(
                t=now, seq=stage.seq, stage_id=stage.id,
                job_id=stage.job_id, num_tasks=stage.num_tasks,
            ))
        orders = self.scheme.on_stage_start(stage.seq, self.cluster)
        self._dispatch_stage_orders(stage.seq, orders, now)

    def _end_stage(self, stage: Stage, start: float, end: float) -> None:
        """The stage barrier: its cached RDDs exist, its record is kept."""
        for rdd in stage.cache_writes:
            self.scheme.on_block_created(rdd.id)
        rec = self.recorder
        if rec.enabled:
            rec.now = end
            rec.emit(StageEnd(
                t=end, seq=stage.seq, stage_id=stage.id, job_id=stage.job_id,
            ))
        self._records.append(
            StageRecord(
                seq=stage.seq,
                stage_id=stage.id,
                job_id=stage.job_id,
                start=start,
                end=end,
                num_tasks=stage.num_tasks,
            )
        )

    def _finish_run(self, now: float) -> RunMetrics:
        """Drain the control plane, finalize the scheme, collect metrics.

        JCT is measured from the run's start time, so under tenancy it
        is the application's *sojourn* (completion − arrival)."""
        # Drain messages still in flight when the application ended, so
        # sent == delivered + dropped and late orders are counted stale.
        self._current_seq = self._last_seq + 1
        self.control.pump(math.inf)
        self._loop = None  # the run is over; drop the driver <-> loop cycle
        self._apply_unpersists(self._current_job)
        self.scheme.finalize()
        master = self.cluster.master
        # Presence fractions stay empty for static runs, keeping their
        # metrics byte-identical to the pre-elastic engine.
        per_node_presence: list[float] = []
        if self._membership_changed:
            duration = now - self._t_origin
            for i in master.live_node_ids:
                self._live_time[i] += now - self._live_since[i]
                self._live_since[i] = now
            per_node_presence = [
                min(t / duration, 1.0) if duration > 0 else 1.0
                for t in self._live_time
            ]
        return RunMetrics(
            scheme=self.scheme.name,
            workload=self.dag.app.signature,
            jct=now - self._t_origin,
            stats=master.total_stats(),
            stage_records=self._records,
            per_node_hit_ratio=[m.stats.hit_ratio for m in master.managers],
            cache_mb_per_node=self.cluster_config.cache_mb_per_node,
            failure_lost_blocks=self._lost_blocks,
            control_plane=self.control.name,
            control=self.control.stats,
            app_id=self._metrics_app_id,
            arrival_time=self._t_origin,
            nodes_joined=self._nodes_joined,
            nodes_decommissioned=self._nodes_decommissioned,
            rebalanced_blocks=self._rebalanced_blocks,
            rebalanced_mb=self._rebalanced_mb,
            decommission_dropped_blocks=self._decommission_dropped,
            per_node_presence=per_node_presence,
        )

    # ------------------------------------------------------------------
    # elastic membership
    # ------------------------------------------------------------------
    def _apply_memberships(self, stage: Stage, now: float) -> None:
        """Scheduled joins/decommissions first, then the autoscaler.

        The autoscaler sees the *post-event* live set and the upcoming
        stage's slot pressure (runnable tasks / live slots), so a
        scheduled decommission can immediately provoke a reactive join
        at the next boundary — but never at the same one (cooldown
        semantics belong to the scaler, ordering to the engine).
        """
        assert self.cluster is not None
        plan = self.failure_plan
        assert plan is not None
        events: list[MembershipEvent] = list(plan.memberships_at(stage.seq))
        scaler = plan.autoscaler
        if scaler is not None:
            master = self.cluster.master
            nodes = self.cluster.nodes
            slots = sum(nodes[i].num_slots for i in master.live_node_ids)
            pressure = stage.num_tasks / slots if slots else math.inf
            action = scaler.decide(stage.seq, pressure, len(master.live_node_ids))
            if action == "join":
                events.append(NodeJoin(at_seq=stage.seq))
            elif action == "decommission":
                events.append(NodeDecommission(at_seq=stage.seq))
        loop = self._loop
        assert loop is not None
        for event in events:
            if isinstance(event, NodeJoin):
                loop.join_node(event.node_id, now)
            else:
                loop.decommission_node(event.node_id, now)

    def _join_node(self, node: WorkerNode, now: float) -> None:
        """This application's half of a join (the loop chose the node):
        grow its live set; the node registers through the §4.4 path."""
        assert self.cluster is not None
        master = self.cluster.master
        mgr = master.add_node(node)
        self._adopt_manager(mgr)
        while len(self._live_time) < master.num_nodes:
            self._live_time.append(0.0)
            self._live_since.append(now)
        self._live_since[node.node_id] = now
        self._membership_changed = True
        self._nodes_joined += 1
        # Placement may have moved: drop the current-stage plan memo.
        self._plan_stage = None
        self._plan = None
        # On (possibly delayed) delivery the driver re-issues the current
        # distance table to the new worker, exactly like a replacement.
        self.control.send(
            WorkerRegister(
                sent_at=now, node_id=node.node_id, reason="join", app_id=self.app_id
            ),
            self._deliver_register,
        )

    def _resident_blocks(self, node: WorkerNode) -> list[Block]:
        """This application's blocks in ``node``'s memory (all of them
        standalone; tenancy narrows to the app's RDD namespace)."""
        return list(node.memory.blocks())

    def _decommission_node(self, node_id: int, now: float) -> None:
        """This application's half of a decommission: shrink its live
        set, rebalancing its resident blocks on the way out.  The run's
        :class:`RebalancePolicy` picks which are worth copying to their
        new homes (priced through the destination's storage channel);
        the rest die with the node when the loop wipes its stores."""
        assert self.cluster is not None
        master = self.cluster.master
        mgr = master.managers[node_id]
        rec = self.recorder
        if rec.enabled:
            rec.now = now
        # In-flight prefetches die with the node.
        for bid in list(mgr.inflight_prefetch):
            mgr.cancel_inflight(bid, reason="decommissioned")
        resident = self._resident_blocks(mgr.node)
        master.decommission_node(node_id)  # placement now excludes the node
        selected = self.rebalance.select(
            resident, lambda b: self.scheme.reference_distance(b.id.rdd_id)
        )
        network = self.cost.network
        for block in selected:
            dest_id = master.home_node_id(block.id)
            dest = master.managers[dest_id]
            # The copy crosses the network and lands through the
            # destination's serialized storage channel, delaying that
            # node's subsequent disk reads and prefetches — migration
            # is priced, not free.
            dest.node.io_free_at = (
                max(dest.node.io_free_at, now) + network.transfer_time(block.size_mb)
            )
            dest.insert_cached(block)
            self._rebalanced_blocks += 1
            self._rebalanced_mb += block.size_mb
            if rec.enabled:
                rec.emit(BlockMigrate(
                    t=now, rdd_id=block.id.rdd_id, partition=block.id.partition,
                    from_node=node_id, to_node=dest_id, size_mb=block.size_mb,
                ))
        self._decommission_dropped += len(resident) - len(selected)
        self._live_time[node_id] += now - self._live_since[node_id]
        self._membership_changed = True
        self._nodes_decommissioned += 1
        self._plan_stage = None
        self._plan = None
        self.control.send(
            WorkerDeregister(
                sent_at=now, node_id=node_id,
                reason="decommission", app_id=self.app_id,
            ),
            self._deliver_deregister,
        )

    # ------------------------------------------------------------------
    # stage execution
    # ------------------------------------------------------------------
    def _stage_costs(self, stage: Stage) -> list[float]:
        """Cache-independent per-node task cost: I/O shares are
        cluster-wide, compute scales with the node's CPU factor."""
        fixed_io = (
            self.cost.task_overhead_s
            + self.cost.shuffle_read_time(stage)
            + self.cost.input_read_time(stage)
        )
        base_compute = self.cost.compute_time(stage)
        return [
            fixed_io + base_compute / node.cpu_factor for node in self.cluster.nodes
        ]

    def _pending_by_node(self, stage: Stage) -> list[deque[int]]:
        master = self.cluster.master
        pending: list[deque[int]] = [deque() for _ in range(master.num_nodes)]
        for p in range(stage.num_tasks):
            pending[master.task_node_id(p)].append(p)
        return pending

    def _run_stage_reference(self, stage: Stage, start: float) -> float:
        """Reference core: per-node slot heaps + a ``min()`` over all
        nodes per task — O(tasks × nodes), the executable specification
        the event core is verified against."""
        num_nodes = self.cluster.master.num_nodes
        per_node_fixed = self._stage_costs(stage)
        pending = self._pending_by_node(stage)
        slots: list[list[float]] = [
            [start] * node.num_slots for node in self.cluster.nodes
        ]
        for heap in slots:
            heapq.heapify(heap)

        stage_end = start
        remaining = stage.num_tasks
        while remaining:
            # Next task = node with pending work whose earliest slot frees first.
            node_id = min(
                (n for n in range(num_nodes) if pending[n]),
                key=lambda n: slots[n][0],
            )
            t0 = heapq.heappop(slots[node_id])
            self.control.pump(t0)
            self._apply_due_prefetches(t0)
            p = pending[node_id].popleft()
            t_end = self._run_task(stage, p, node_id, t0, per_node_fixed[node_id])
            heapq.heappush(slots[node_id], t_end)
            stage_end = max(stage_end, t_end)
            remaining -= 1
        return stage_end

    def _stage_plan(self, stage: Stage) -> tuple[list, list, bool]:
        """Compiled per-partition block plan for one stage.

        Reads stride partitions exactly like writes: task ``p`` of a
        T-task stage touches blocks ``p, p+T, p+2T, …`` of every read
        RDD, so a stage with fewer tasks than an input RDD has
        partitions still accesses (and accounts) the tail partitions.
        The plan resolves block ids, home-node indices and sizes once
        per (stage, cluster size) — cached on the DAG while membership
        is static, so repeated runs (bench repeats, sweep cells) reuse
        it — instead of rebuilding ``BlockId``/``Block`` objects inside
        every task.  Once membership changed (or under sticky
        placement, which depends on this run's membership *history*),
        plans move to a per-run cache keyed by membership epoch: they
        would poison other runs on the shared DAG.
        """
        master = self.cluster.master
        if master.static_members:
            key = (stage.seq, master.num_nodes)
            plan = self.dag.engine_plans.get(key)
            if plan is None:
                plan = self._compile_plan(stage)
                self.dag.engine_plans[key] = plan
            return plan
        dyn_key = (stage.seq, master.epoch)
        plan = self._plan_cache.get(dyn_key)
        if plan is None:
            plan = self._compile_plan(stage)
            self._plan_cache[dyn_key] = plan
        return plan

    def _compile_plan(self, stage: Stage) -> tuple[list, list, bool]:
        place = self.cluster.master.placement.place
        num_tasks = stage.num_tasks
        reads: list[tuple] = []
        writes: list[tuple] = []
        for p in range(num_tasks):
            task_reads = [
                (BlockId(rdd.id, q), place(q), rdd.partition_size_mb)
                for rdd in stage.cache_reads
                for q in range(p, rdd.num_partitions, num_tasks)
            ]
            task_writes = [
                (block_of(rdd, q), place(q))
                for rdd in stage.cache_writes
                for q in range(p, rdd.num_partitions, num_tasks)
            ]
            reads.append(tuple(task_reads))
            writes.append(tuple(task_writes))
        return (reads, writes, bool(stage.cache_writes))

    def _run_task(
        self, stage: Stage, partition: int, node_id: int, t0: float, fixed: float
    ) -> float:
        assert self.cluster is not None
        plan = self._plan
        if plan is None or stage is not self._plan_stage:
            plan = self._stage_plan(stage)
            self._plan = plan
            self._plan_stage = stage
        reads, writes, has_writes = plan
        managers = self.cluster.master.managers
        t = t0 + fixed
        protect: set[BlockId] = set()

        task_reads = reads[partition]
        if task_reads:
            acquire = self._acquire_block
            remote = self.cost.remote_transfer_time
            for bid, home, size in task_reads:
                mgr = managers[home]
                t = acquire(mgr, bid, size, t, protect)
                if home != node_id:
                    t += remote(size)
                protect.add(bid)

        if has_writes:
            if self.recorder.enabled:
                self.recorder.now = t
            for block, home in writes[partition]:
                managers[home].insert_cached(block, protect)
        return t

    def _acquire_block(
        self,
        mgr: BlockManager,
        bid: BlockId,
        size_mb: float,
        t: float,
        protect: set[BlockId],
    ) -> float:
        """Make ``bid`` readable at the returned time; accounts hit/miss."""
        if self.recorder.enabled:
            self.recorder.now = t
        inflight = mgr.inflight_prefetch.get(bid)
        if inflight is not None:
            # Wait for the in-flight prefetch, then complete it.  Even
            # if cache admission refuses the block, the transfer already
            # happened — the task consumes it from the fetch buffer.
            t = max(t, inflight)
            self._complete_prefetch(mgr, bid)
            if bid in mgr.node.memory:
                mgr.access(bid)
            else:
                mgr.record_buffered_hit(bid)
            return t
        outcome = mgr.access(bid)
        if outcome is AccessOutcome.MEMORY_HIT:
            return t
        if outcome is AccessOutcome.DISK_READ:
            t = mgr.node.reserve_io(t, size_mb)
            if self.promote_on_miss:
                block = mgr.node.disk.get(bid)
                assert block is not None
                mgr.promote_from_disk(block, protect)
            return t
        # Neither in memory nor on disk.  Without failure injection or
        # membership churn this is a DAG-contract violation; with lost
        # disks or decommissioned nodes it is Spark's lineage-recovery
        # path: recompute the partition and re-persist.  (Tenancy churn
        # arrives outside any failure plan, hence the second gate.)
        if self.failure_plan is None and not self._membership_changed:
            raise SimulationError(
                f"block {bid} referenced but neither in memory nor on disk "
                f"on node {mgr.node.node_id}"
            )
        return self._recompute_block(mgr, bid, size_mb, t, protect)

    def _recompute_block(
        self,
        mgr: BlockManager,
        bid: BlockId,
        size_mb: float,
        t: float,
        protect: set[BlockId],
    ) -> float:
        """Lineage recovery: rebuild a lost partition and re-persist it.

        The cost approximates recomputing the narrow pipeline above the
        RDD: CPU for every narrow ancestor, a storage read for input
        ancestors and a network fetch for each crossed shuffle (shuffle
        files survive node loss on the paper's clusters because they are
        spread over all nodes).
        """
        rdd = self.dag.app.rdd_by_id(bid.rdd_id)
        t += self._partition_recompute_time(rdd)
        block = Block(id=bid, size_mb=size_mb, rdd_name=rdd.name)
        # Re-persist through the manager so recovery-driven insertions
        # and the evictions they force are counted, recorded, and kept
        # consistent with the prefetched-unread bookkeeping.
        if self.recorder.enabled:
            self.recorder.now = t
        mgr.insert_cached(block, protect)
        return t

    def _partition_recompute_time(self, rdd: RDD) -> float:
        cached = self._recompute_cost.get(rdd.id)
        if cached is not None:
            return cached
        cpu = 0.0
        io = 0.0
        for ancestor in rdd.narrow_ancestors():
            cpu += ancestor.compute_cost
            if ancestor.is_input:
                io += self.cost.disk.read_time(ancestor.partition_size_mb)
            for dep in ancestor.deps:
                if isinstance(dep, ShuffleDependency):
                    share = dep.parent.size_mb / max(ancestor.num_partitions, 1)
                    io += self.cost.network.transfer_time(share)
        total = cpu / self.cost.cpu_speed + io
        self._recompute_cost[rdd.id] = total
        return total

    # ------------------------------------------------------------------
    # control-plane dispatch and delivery
    # ------------------------------------------------------------------
    def _dispatch_stage_orders(
        self, seq: int, orders: StageOrders, now: float
    ) -> None:
        """Turn a scheme's stage-boundary orders into control messages.

        Send order (which under instant is also apply order, matching
        the old direct-call path exactly): the table broadcast first —
        workers must evict against post-advance distances — then purge
        orders fanned out one message per (rdd, node) in node order,
        then prefetch orders in the scheme's selection order.
        """
        assert self.cluster is not None
        control = self.control
        master = self.cluster.master
        snap = orders.table_snapshot
        if snap is not None:
            for node in master.live_nodes():
                control.send(
                    StageBoundary(
                        sent_at=now, node_id=node.node_id, seq=seq,
                        distances=snap, app_id=self.app_id,
                    ),
                    self._deliver_table,
                )
        for rdd_id in orders.purge_rdds:
            for node_id in master.live_node_ids:
                control.send(
                    PurgeOrder(
                        sent_at=now, node_id=node_id, rdd_id=rdd_id,
                        issued_seq=seq, app_id=self.app_id,
                    ),
                    self._deliver_purge,
                )
        for block in orders.prefetches:
            control.send(
                PrefetchOrder(
                    sent_at=now,
                    node_id=master.home_node_id(block.id),
                    rdd_id=block.id.rdd_id,
                    partition=block.id.partition,
                    size_mb=block.size_mb,
                    rdd_name=block.rdd_name,
                    issued_seq=seq,
                    app_id=self.app_id,
                ),
                self._deliver_prefetch,
            )

    def _send_status_reports(self, now: float) -> None:
        """Every worker reports its cache status (``reportCacheStatus``).

        Sent before ``on_stage_start`` each boundary: under the instant
        plane the manager therefore selects prefetches from exactly the
        live free-memory values it used to read directly; under rpc the
        report lands a boundary late and the driver plans on stale data.
        """
        for mgr in self.cluster.master.live_managers():
            node = mgr.node
            self.control.send(
                CacheStatusReport(
                    sent_at=now,
                    node_id=node.node_id,
                    used_mb=node.memory.used_mb,
                    free_mb=node.memory.free_mb,
                    hit_ratio=mgr.stats.hit_ratio,
                    num_blocks=len(node.memory),
                    app_id=self.app_id,
                ),
                self._deliver_status,
            )

    def _deliver_status(self, msg: ControlMessage, t: float) -> bool:
        assert isinstance(msg, CacheStatusReport)
        self.scheme.on_cache_status(msg)
        return False  # out-of-order reports are ignored, not stale-counted

    def _deliver_purge(self, msg: ControlMessage, t: float) -> bool:
        assert isinstance(msg, PurgeOrder)
        # Stale when the RDD's distance turned finite again after the
        # order was issued (new references resurrected it, ad-hoc mode):
        # the worker refuses to purge live data.
        dist = self.scheme.reference_distance(msg.rdd_id)
        if dist is not None and not math.isinf(dist):
            return True
        rec = self.recorder
        if rec.enabled:
            rec.now = t
        assert self.cluster is not None
        self.cluster.master.purge_rdd_on(
            msg.node_id, msg.rdd_id, drop_disk=msg.drop_disk
        )
        return False

    def _deliver_prefetch(self, msg: ControlMessage, t: float) -> bool:
        assert isinstance(msg, PrefetchOrder)
        block = Block(
            id=BlockId(msg.rdd_id, msg.partition),
            size_mb=msg.size_mb,
            rdd_name=msg.rdd_name,
        )
        # A late order (its boundary already passed) is stale but still
        # attempted: the block may serve a later stage.
        stale = self._current_seq > msg.issued_seq
        self._issue_one_prefetch(block, t)
        return stale

    def _deliver_table(self, msg: ControlMessage, t: float) -> bool:
        assert isinstance(msg, StageBoundary)
        assert self.cluster is not None
        policy = self.cluster.nodes[msg.node_id].policy
        applied = policy.on_table_update(msg.seq, msg.distances)
        return applied is False  # an older-than-held broadcast is stale

    def _deliver_register(self, msg: ControlMessage, t: float) -> bool:
        assert isinstance(msg, WorkerRegister)
        rec = self.recorder
        if rec.enabled and msg.reason != "startup":
            # Startup registrations are not traced: they happen the same
            # way in every run, before simulated time starts.
            rec.now = t
            rec.emit(WorkerRegisterEvent(t=t, node_id=msg.node_id, reason=msg.reason))
        # Fault-tolerance story (§4.4): the driver re-issues its current
        # distance table to the (re-)registered worker.
        snap = self.scheme.table_snapshot()
        if snap is not None:
            self.control.send(
                StageBoundary(
                    sent_at=t,
                    node_id=msg.node_id,
                    seq=self._current_seq,
                    distances=snap,
                    app_id=self.app_id,
                ),
                self._deliver_table,
            )
        return False

    def _deliver_deregister(self, msg: ControlMessage, t: float) -> bool:
        assert isinstance(msg, WorkerDeregister)
        rec = self.recorder
        if rec.enabled:
            rec.now = t
            rec.emit(WorkerDeregisterEvent(
                t=t, node_id=msg.node_id, reason=msg.reason,
            ))
        self.scheme.on_worker_deregister(msg.node_id)
        return False

    # ------------------------------------------------------------------
    # prefetching
    # ------------------------------------------------------------------
    def _issue_one_prefetch(self, block: Block, now: float) -> None:
        assert self.cluster is not None
        mgr = self.cluster.master.manager_for(block.id)
        if block.id in mgr.node.memory or block.id in mgr.inflight_prefetch:
            return
        if block.id not in mgr.node.disk:
            return  # nothing to fetch from (defensive)
        done = mgr.node.reserve_io(now, block.size_mb)
        mgr.inflight_prefetch[block.id] = done
        self._prefetch_seq += 1
        heapq.heappush(
            self._prefetch_heap,
            (done, self._prefetch_seq, mgr.node.node_id, block.id),
        )
        mgr.stats.prefetches_issued += 1
        rec = self.recorder
        if rec.enabled:
            rec.emit(PrefetchIssue(
                t=now, rdd_id=block.id.rdd_id, partition=block.id.partition,
                node_id=mgr.node.node_id, size_mb=block.size_mb, eta=done,
            ))

    def _apply_due_prefetches(self, t: float) -> None:
        assert self.cluster is not None
        if self.scheduler == "reference":
            for mgr in self.cluster.master.managers:
                if not mgr.inflight_prefetch:
                    continue
                due = [bid for bid, done in mgr.inflight_prefetch.items() if done <= t]
                for bid in due:
                    self._complete_prefetch(mgr, bid)
            return
        heap = self._prefetch_heap
        managers = self.cluster.master.managers
        while heap and heap[0][0] <= t:
            done, _, node_id, bid = heapq.heappop(heap)
            mgr = managers[node_id]
            # Lazy invalidation: skip entries whose transfer was already
            # consumed by a waiting task or cancelled by a node failure.
            if mgr.inflight_prefetch.get(bid) == done:
                self._complete_prefetch(mgr, bid)

    def _complete_prefetch(self, mgr: BlockManager, bid: BlockId) -> None:
        done = mgr.inflight_prefetch.pop(bid, None)
        block = mgr.node.disk.get(bid)
        rec = self.recorder
        if rec.enabled and done is not None:
            rec.now = done
        if block is None:
            # Unpersisted while in flight: the transfer is abandoned.
            if rec.enabled:
                rec.emit(PrefetchCancel(
                    t=rec.now, rdd_id=bid.rdd_id, partition=bid.partition,
                    node_id=mgr.node.node_id, reason="unpersisted",
                ))
            return
        admitted = mgr.promote_from_disk(block, prefetch=True)
        if rec.enabled:
            rec.emit(PrefetchComplete(
                t=rec.now, rdd_id=bid.rdd_id, partition=bid.partition,
                node_id=mgr.node.node_id, admitted=admitted,
            ))

    # ------------------------------------------------------------------
    def _apply_unpersists(self, job_id: int) -> None:
        assert self.cluster is not None
        for rdd_id in self._unpersist_by_job.get(job_id, ()):
            self.cluster.master.purge_rdd(rdd_id, drop_disk=True)


def simulate(
    dag: ApplicationDAG,
    cluster_config: ClusterConfig,
    scheme: CacheScheme,
    **kwargs,
) -> RunMetrics:
    """One-shot convenience wrapper around :class:`SparkSimulator`."""
    return SparkSimulator(dag, cluster_config, scheme, **kwargs).run()
