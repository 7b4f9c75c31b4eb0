"""The slot-scheduling loop: one global event heap for every run.

A standalone :class:`~repro.simulator.engine.SparkSimulator` run is the
one-application case of this loop; the multi-tenant engine runs *N*
applications through it over one shared set of worker nodes.

One heap orders four event kinds: cluster **membership** changes,
stage **barriers** (an application's active stage completed),
application **arrivals**, and executor **slot** frees.  Ties resolve
membership < barrier < arrival < slot, then by application index /
node id, so the interleaving is fully deterministic.

Executor slots are continuous shared resources.  Each node keeps a FIFO
queue of *chunks*, one ``(app, stage, partitions, fixed)`` per
(application, stage, node); any free slot of the node runs the head
chunk's next partition, and a slot that finds no work parks until the
next enqueue wakes it.  Before each task every active
application's control plane and due prefetches are pumped (in arrival
order, peek-guarded).

A popped slot *runs until preempted*: after each task it keeps going at
``t_end`` while the heap's head is strictly later than ``(t_end, SLOT,
node_id)`` — exactly the entry it would otherwise push and pop straight
back.  See ``docs/performance.md`` for why this is equivalent.

Membership is written once.  The loop owns the node-level step (id
choice, a fresh or reused :class:`~repro.cluster.node.WorkerNode`,
the dead set, wiping a retiring node's stores, re-homing its queued
tasks); every active application then runs its own per-app join or
decommission body (``SparkSimulator._join_node`` /
``_decommission_node``).  Standalone runs fire these at stage barriers
(from the failure plan), the tenancy layer at simulated times.
"""

from __future__ import annotations

import heapq
from collections import deque
from collections.abc import Callable, Sequence
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - annotation-only imports
    from repro.cluster.node import WorkerNode
    from repro.dag.structures import Stage
    from repro.simulator.engine import SparkSimulator
    from repro.simulator.metrics import RunMetrics

#: Event-kind priorities at equal times: change the cluster first, then
#: finish/advance stages, then admit new applications, then dispatch
#: tasks.
MEMBER, BARRIER, ARRIVAL, SLOT = 0, 1, 2, 3

#: A timed membership change: ``(at, join, node_id)``; ``join`` False
#: is a decommission, ``node_id`` None lets the loop pick the node.
TimedMember = tuple[float, bool, "int | None"]


class LoopApp:
    """One application's cursor inside the loop."""

    __slots__ = (
        "index", "driver", "run_task", "stages", "stage_idx", "chunks",
        "stage_start", "stage_end", "finish", "metrics",
    )

    def __init__(self, index: int, driver: SparkSimulator) -> None:
        self.index = index
        self.driver = driver
        self.run_task = driver._run_task
        self.stages: list[Stage] = list(driver.dag.active_stages)
        self.stage_idx = 0
        #: Queued chunks of the current stage not yet drained.
        self.chunks = 0
        self.stage_start = 0.0
        self.stage_end = 0.0
        self.finish = 0.0
        self.metrics: RunMetrics | None = None


class SlotLoop:
    """Runs applications over shared executor slots, event by event.

    ``nodes`` is the shared node list; ``None`` adopts the first
    arriving application's own cluster (the standalone case).
    ``make_node`` builds the worker for a fresh join.
    """

    def __init__(
        self,
        drivers: Sequence[SparkSimulator],
        make_node: Callable[[int], WorkerNode],
        nodes: list[WorkerNode] | None = None,
    ) -> None:
        self.apps = [LoopApp(i, d) for i, d in enumerate(drivers)]
        self.make_node = make_node
        self.nodes: list[WorkerNode] = []
        self.heap: list[tuple[float, int, int]] = []
        #: Per-node FIFO of ``(app, stage, partitions, fixed)`` chunks.
        self.queues: list[deque[tuple]] = []
        #: Free times of idle (parked) executor slots, per node.
        self.parked: list[list[float]] = []
        self.active: list[LoopApp] = []
        #: Node ids decommissioned so far (slots persist; liveness does not).
        self.dead: set[int] = set()
        #: Per active app: (pump, control heap, apply-due, prefetch heap).
        self._pumps: list[tuple] = []
        if nodes is not None:
            self._adopt(nodes, 0.0)

    def _adopt(self, nodes: list[WorkerNode], t: float) -> None:
        self.nodes = nodes
        for node in nodes:
            self.queues.append(deque())
            self.parked.append([t] * node.num_slots)

    # ------------------------------------------------------------------
    def run(
        self, arrivals: Sequence[float], memberships: Sequence[TimedMember] = ()
    ) -> None:
        """Drain the heap: arrivals at ``arrivals[i]`` (one per app),
        timed membership changes, every stage and task they lead to."""
        heap = self.heap
        for app, t in zip(self.apps, arrivals):
            heap.append((t, ARRIVAL, app.index))
        for i, (at, _, _) in enumerate(memberships):
            heap.append((at, MEMBER, i))
        heapq.heapify(heap)
        heappop, heappush = heapq.heappop, heapq.heappush
        apps, queues, parked = self.apps, self.queues, self.parked
        pumps = self._pumps  # updated in place as apps come and go
        slot = SLOT
        solo = False
        while heap:
            t0, kind, key = heappop(heap)
            if kind != slot:
                if kind == MEMBER:
                    _, join, node_id = memberships[key]
                    if join:
                        self.join_node(node_id, t0)
                    else:
                        self.decommission_node(node_id, t0)
                elif kind == BARRIER:
                    self._on_barrier(apps[key], t0)
                else:
                    self._on_arrival(apps[key], t0)
                # One active application (every standalone run): its
                # pumps live in locals, saving a loop per task.
                solo = len(pumps) == 1
                if solo:
                    pump, control_heap, apply_due, prefetch_heap = pumps[0]
                continue
            node_id = key
            queue = queues[node_id]
            if not queue:
                parked[node_id].append(t0)
                continue
            app, stage, parts, fixed = queue[0]
            run_task = app.run_task
            while True:  # the slot runs until preempted
                # Control deliveries first: a delivered prefetch order
                # may push an already-due completion.
                if solo:
                    if control_heap and control_heap[0][0] <= t0:
                        pump(t0)
                    if prefetch_heap and prefetch_heap[0][0] <= t0:
                        apply_due(t0)
                else:
                    for pump_, control_, apply_, prefetch_ in pumps:
                        if control_ and control_[0][0] <= t0:
                            pump_(t0)
                        if prefetch_ and prefetch_[0][0] <= t0:
                            apply_(t0)
                t_end = run_task(stage, parts.popleft(), node_id, t0, fixed)
                if t_end > app.stage_end:
                    app.stage_end = t_end
                if not parts:  # chunk drained
                    queue.popleft()
                    app.chunks -= 1
                    if not app.chunks:
                        heappush(heap, (app.stage_end, BARRIER, app.index))
                    if not queue:
                        parked[node_id].append(t_end)
                        break
                    app, stage, parts, fixed = queue[0]
                    run_task = app.run_task
                if heap:
                    head = heap[0]
                    ht = head[0]
                    if ht < t_end or (
                        ht == t_end and (head[1] != slot or head[2] < node_id)
                    ):
                        # Something is due before (t_end, SLOT, node_id).
                        heappush(heap, (t_end, slot, node_id))
                        break
                t0 = t_end

    # ------------------------------------------------------------------
    # applications
    # ------------------------------------------------------------------
    def admit(self, app: LoopApp, t: float) -> None:
        """Start ``app``'s run at ``t`` and make it an active tenant."""
        self.active.append(app)
        driver = app.driver
        driver._loop = self
        driver._start_run(t)
        assert driver.cluster is not None
        if not self.nodes:
            # Standalone: the application's own cluster is the shared one.
            self._adopt(driver.cluster.nodes, t)
        self._set_pumps()

    def _set_pumps(self) -> None:
        self._pumps[:] = [
            (a.driver.control.pump, a.driver.control.heap,
             a.driver._apply_due_prefetches, a.driver._prefetch_heap)
            for a in self.active
        ]

    def _on_arrival(self, app: LoopApp, t: float) -> None:
        self.admit(app, t)
        if not app.stages:
            self._finish(app, t)
            return
        first = app.stages[0]
        app.driver._begin_stage(first, t)
        self._enqueue(app, first, t)

    def _on_barrier(self, app: LoopApp, t: float) -> None:
        driver = app.driver
        driver._end_stage(app.stages[app.stage_idx], app.stage_start, t)
        app.stage_idx += 1
        if app.stage_idx < len(app.stages):
            nxt = app.stages[app.stage_idx]
            driver._begin_stage(nxt, t)
            self._enqueue(app, nxt, t)
        else:
            self._finish(app, t)

    def _enqueue(self, app: LoopApp, stage: Stage, now: float) -> None:
        driver = app.driver
        fixed = driver._stage_costs(stage)
        app.chunks = 0
        app.stage_start = now
        app.stage_end = now
        if not stage.num_tasks:
            heapq.heappush(self.heap, (now, BARRIER, app.index))
            return
        queues = self.queues
        for node_id, parts in enumerate(driver._pending_by_node(stage)):
            if parts:
                queues[node_id].append((app, stage, parts, fixed[node_id]))
                app.chunks += 1
                self._wake(node_id, now)

    def _wake(self, node_id: int, now: float) -> None:
        """Unpark every idle slot of ``node_id`` at ``max(free, now)``."""
        parked = self.parked[node_id]
        if parked:
            heappush = heapq.heappush
            for free in parked:
                heappush(self.heap, (free if free > now else now, SLOT, node_id))
            parked.clear()

    def _finish(self, app: LoopApp, t: float) -> None:
        app.metrics = app.driver._finish_run(t)
        app.finish = t
        self.active.remove(app)
        self._set_pumps()

    # ------------------------------------------------------------------
    # membership: the node-level step, then each active app's own body
    # ------------------------------------------------------------------
    def join_node(self, node_id: int | None, t: float) -> None:
        """Grow the node set (a fresh id, or a decommissioned slot
        rejoining); every active application registers the node."""
        nodes = self.nodes
        if node_id is None:
            node_id = len(nodes)
        if node_id < len(nodes):
            if node_id not in self.dead:
                return  # pinned join of a live node: nothing to do
            node = nodes[node_id]
            self.dead.discard(node_id)
        elif node_id == len(nodes):
            node = self.make_node(node_id)
            nodes.append(node)
            self.queues.append(deque())
            self.parked.append([t] * node.num_slots)
        else:
            raise ValueError(
                f"join of node {node_id} does not extend the cluster "
                f"(next free id is {len(nodes)})"
            )
        for app in self.active:
            app.driver._join_node(node, t)

    def decommission_node(self, node_id: int | None, t: float) -> None:
        """Retire a node: each active application rebalances its own
        resident blocks, then the node's stores are wiped and its queued
        tasks re-homed through each owner's new placement."""
        nodes, dead = self.nodes, self.dead
        live = [i for i in range(len(nodes)) if i not in dead]
        if node_id is None:
            node_id = live[-1]  # autoscaler shape: shed the newest node
        if node_id in dead or node_id >= len(nodes) or len(live) <= 1:
            return  # already gone, unknown, or the last node must stay
        for app in self.active:
            app.driver._decommission_node(node_id, t)
        # The node's stores leave with it (unmigrated blocks die here).
        node = nodes[node_id]
        for bid in list(node.memory.block_ids()):
            node.memory.remove(bid)
        for bid in list(node.disk.block_ids()):
            node.disk.remove(bid)
        node.io_free_at = 0.0
        dead.add(node_id)
        # Re-home queued tasks, FIFO order preserved per destination.
        # Slots busy on this node finish their current task, then park
        # (nothing enqueues to a dead node) until the slot rejoins.
        queue = self.queues[node_id]
        costs: dict[tuple[int, int], list[float]] = {}
        while queue:
            app, stage, parts, _ = queue.popleft()
            app.chunks -= 1
            key = (app.index, stage.seq)
            if key not in costs:
                costs[key] = app.driver._stage_costs(stage)
            cluster = app.driver.cluster
            assert cluster is not None
            task_node_id = cluster.master.task_node_id
            moved: dict[int, deque[int]] = {}
            for partition in parts:
                dest = task_node_id(partition)
                chunk = moved.get(dest)
                if chunk is None:
                    chunk = moved[dest] = deque()
                    self.queues[dest].append((app, stage, chunk, costs[key][dest]))
                    app.chunks += 1
                    self._wake(dest, t)
                chunk.append(partition)
