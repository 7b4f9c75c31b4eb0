"""Per-cell output checks, the result digest and the cell timing hooks.

A *cell* is one ``SparkSimulator.run`` (one application x scheme x cache
size) or one ``MultiTenantSimulator.run``.  :func:`install_cell_hooks`
wraps both so that every cell is timed, checked and folded into the
run's ``result_digest`` as it finishes.  The checks read only the
finished metrics and the simulator's stores:

* every store's ``used_mb`` equals the sum of its resident block sizes
  and stays within capacity;
* control messages: ``sent == delivered + dropped``;
* prefetches used <= prefetches issued;
* the JCT is finite and not before the last stage's end.
"""

from __future__ import annotations

import hashlib
import math
from time import perf_counter

#: Program counters summed over a unit's cells (for the traced-run
#: self-consistency check and the per-layer ratios).
COUNTERS = (
    "hits", "misses", "insertions", "failed_insertions", "evictions",
    "prefetches_issued", "prefetches_used", "sent", "delivered", "dropped",
    "stale_orders", "orders_applied", "order_delay_total", "sim_tasks",
    "standalone_tasks",
)


def metrics_row(m) -> tuple:
    """Every simulated statistic of one application run, exactly."""
    s, c = m.stats, m.control
    return (
        m.workload, m.scheme, m.app_id, repr(m.cache_mb_per_node), repr(m.jct),
        repr(m.arrival_time),
        s.hits, s.misses, s.insertions, s.failed_insertions, s.evictions, s.purged,
        s.prefetches_issued, s.prefetches_used, repr(s.prefetched_mb),
        repr(s.evicted_mb),
        c.sent, c.delivered, c.dropped, c.stale_orders, c.orders_applied,
        repr(c.order_delay_total),
        m.failure_lost_blocks, m.nodes_joined, m.nodes_decommissioned,
        m.rebalanced_blocks, repr(m.rebalanced_mb), m.decommission_dropped_blocks,
        tuple(repr(r) for r in m.per_node_hit_ratio),
        tuple((r.seq, r.stage_id, r.job_id, repr(r.start), repr(r.end), r.num_tasks)
              for r in m.stage_records),
    )


def check_metrics(m) -> list[str]:
    """Failed output checks of one application run (empty when fine)."""
    bad = []
    c, s = m.control, m.stats
    if c.sent != c.delivered + c.dropped:
        bad.append(f"control sent {c.sent} != delivered {c.delivered} + dropped {c.dropped}")
    if s.prefetches_used > s.prefetches_issued:
        bad.append(f"prefetches used {s.prefetches_used} > issued {s.prefetches_issued}")
    if not math.isfinite(m.jct):
        bad.append(f"jct {m.jct!r} not finite")
    elif m.stage_records:
        last_end = max(r.end for r in m.stage_records)
        if m.arrival_time + m.jct < last_end - 1e-9 * max(1.0, abs(last_end)):
            bad.append(f"jct {m.jct!r} ends before last stage end {last_end!r}")
    return [f"{m.workload}/{m.scheme}: {b}" for b in bad]


def check_stores(nodes) -> list[str]:
    """Failed store-accounting checks over worker nodes' memory stores."""
    bad = []
    for node in nodes:
        mem = node.memory
        resident = sum(b.size_mb for b in mem.blocks())
        if not math.isclose(mem.used_mb, resident, rel_tol=1e-9, abs_tol=1e-6):
            bad.append(f"node {node.node_id}: used_mb {mem.used_mb!r} != resident {resident!r}")
        if mem.used_mb > mem.capacity_mb + 1e-6:
            bad.append(f"node {node.node_id}: used_mb {mem.used_mb!r} > capacity {mem.capacity_mb!r}")
    return bad


class CellLog:
    """What the cell hooks learn, per unit of work and for the whole run."""

    def __init__(self, speed) -> None:
        self.tracer = None
        #: The run's :class:`~perfbench.hostspeed.HostSpeed`; its probes'
        #: time is taken off each cell.
        self.speed = speed
        self.cells_attempted = 0
        self.cells_failed = 0
        self.failures: list[str] = []
        self.begin_unit()

    def begin_unit(self) -> None:
        self.unit_cell_s: list[float] = []
        self.unit_bookkeeping_s = 0.0
        self.unit_counters = dict.fromkeys(COUNTERS, 0)
        self.unit_digest = hashlib.sha256()

    def record(self, apps, nodes, seconds: float, standalone: bool) -> None:
        """Check, count and digest one finished cell."""
        bad = check_stores(nodes) if nodes is not None else []
        counters = self.unit_counters
        for m in apps:
            bad.extend(check_metrics(m))
            s, c = m.stats, m.control
            counters["hits"] += s.hits
            counters["misses"] += s.misses
            counters["insertions"] += s.insertions
            counters["failed_insertions"] += s.failed_insertions
            counters["evictions"] += s.evictions
            counters["prefetches_issued"] += s.prefetches_issued
            counters["prefetches_used"] += s.prefetches_used
            counters["sent"] += c.sent
            counters["delivered"] += c.delivered
            counters["dropped"] += c.dropped
            counters["stale_orders"] += c.stale_orders
            counters["orders_applied"] += c.orders_applied
            counters["order_delay_total"] += c.order_delay_total
            tasks = sum(r.num_tasks for r in m.stage_records)
            counters["sim_tasks"] += tasks
            if standalone:
                counters["standalone_tasks"] += tasks
            self.unit_digest.update(repr(metrics_row(m)).encode())
        self.unit_cell_s.append(seconds)
        self.cells_attempted += 1
        if bad:
            self.cells_failed += 1
            self.failures.extend(bad[:3])

    def record_raise(self, exc: BaseException) -> None:
        self.cells_attempted += 1
        self.cells_failed += 1
        self.failures.append(f"cell raised {type(exc).__name__}: {exc}")


def install_cell_hooks(log: CellLog):
    """Time, check and digest every cell; returns the undo function."""
    from repro.simulator.engine import SparkSimulator
    from repro.tenancy.engine import MultiTenantSimulator

    single_run = SparkSimulator.run
    multi_run = MultiTenantSimulator.run

    def finish(t0: float, probed: float, apps, nodes, standalone: bool) -> None:
        t1 = perf_counter()
        probed_before = log.speed.spent_s
        log.record(apps, nodes, t1 - t0 - (probed_before - probed), standalone)
        # Probes taken meanwhile are already off every clock.
        spent = perf_counter() - t1 - (log.speed.spent_s - probed_before)
        log.unit_bookkeeping_s += spent
        if log.tracer is not None:
            log.tracer.exclude(spent)

    def run_single(self):
        probed = log.speed.spent_s
        t0 = perf_counter()
        try:
            metrics = single_run(self)
        except Exception as exc:
            log.record_raise(exc)
            raise
        finish(t0, probed, (metrics,), self.cluster.nodes, True)
        return metrics

    def run_multi(self):
        probed = log.speed.spent_s
        t0 = perf_counter()
        try:
            metrics = multi_run(self)
        except Exception as exc:
            log.record_raise(exc)
            raise
        # The drained shared nodes stay on the simulator for inspection;
        # checked when present.
        state = getattr(self, "_state", None)
        finish(t0, probed, metrics.apps, state.nodes if state is not None else None, False)
        return metrics

    SparkSimulator.run = run_single
    MultiTenantSimulator.run = run_multi

    def uninstall() -> None:
        SparkSimulator.run = single_run
        MultiTenantSimulator.run = multi_run

    return uninstall
