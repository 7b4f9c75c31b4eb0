"""Scheduler-core equivalence: event queue vs reference loops.

The event-queue core (global slot heap + prefetch-completion heap) is a
pure performance rewrite of the reference core (per-task ``min()`` over
all nodes + per-task scan of every in-flight dict).  These tests pin
the contract down: identical :class:`RunMetrics` — times, counters,
per-node ratios, stage records — on every registered workload under
every registered policy, plus the edge paths (failure injection,
unpersist-in-flight, trace recording) the happy path doesn't exercise.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.cluster import ClusterConfig
from repro.control.plane import RpcConfig
from repro.dag.dag_builder import build_dag
from repro.experiments.harness import build_workload_dag, cache_mb_for
from repro.simulator.engine import SCHEDULERS, SparkSimulator, simulate
from repro.simulator.failures import FailurePlan
from repro.simulator.metrics import RunMetrics
from repro.sweep.schemes import SCHEME_SPECS, resolve_scheme
from repro.trace.recorder import TraceRecorder
from repro.workloads.registry import workload_names
from repro.workloads.synthetic import SyntheticConfig, generate_application

CLUSTER = ClusterConfig(num_nodes=4, slots_per_node=2, cache_mb_per_node=50.0)

#: Every ``SCHEME_SPECS`` scheme but the ad-hoc and job-distance MRD
#: variants, spelled in lowercase (names resolve case-insensitively).
SCHEMES = sorted(
    name.lower() for name in SCHEME_SPECS if name not in ("MRD-adhoc", "MRD-jobdist")
)


def fingerprint(m: RunMetrics) -> tuple:
    """Every observable RunMetrics field, as one comparable value."""
    return (
        m.jct,
        m.stats.accesses, m.stats.hits, m.stats.misses,
        m.stats.insertions, m.stats.failed_insertions,
        m.stats.evictions, m.stats.purged,
        m.stats.prefetches_issued, m.stats.prefetches_used,
        m.stats.prefetched_mb, m.stats.evicted_mb,
        tuple(m.per_node_hit_ratio),
        m.failure_lost_blocks,
        tuple((r.seq, r.start, r.end, r.num_tasks) for r in m.stage_records),
        m.control.delivered, m.control.dropped, m.control.stale_orders,
        m.control.orders_applied,
        m.nodes_joined, m.nodes_decommissioned,
        m.rebalanced_blocks, m.rebalanced_mb,
        m.decommission_dropped_blocks,
        tuple(m.per_node_presence),
    )


def run_both(dag, cfg, scheme_name: str, **kwargs) -> tuple[tuple, tuple]:
    results = [
        fingerprint(simulate(dag, cfg, resolve_scheme(scheme_name).build(),
                             scheduler=s, **kwargs))
        for s in SCHEDULERS
    ]
    return results[0], results[1]


@pytest.mark.parametrize("workload", workload_names())
@pytest.mark.parametrize("scheme_name", SCHEMES)
def test_equivalent_on_every_workload_and_policy(workload, scheme_name):
    """Full cross product: 20 workloads x 10 policies, under cache
    pressure (40% of the peak live set) so evictions and prefetches
    actually fire."""
    dag = build_workload_dag(workload, partitions=8)
    cfg = CLUSTER.with_cache(cache_mb_for(dag, 0.4, CLUSTER))
    event, reference = run_both(dag, cfg, scheme_name)
    assert event == reference


@pytest.mark.parametrize("scheme_name", ["lru", "mrd"])
def test_equivalent_under_failure_injection(scheme_name):
    """Node failures cancel in-flight prefetches and reroute blocks —
    the lazy-invalidation path of the event core's prefetch heap."""
    dag = build_workload_dag("PO", partitions=8)
    cfg = CLUSTER.with_cache(cache_mb_for(dag, 0.4, CLUSTER))
    plan = FailurePlan().add(at_seq=3, node_id=1).add(at_seq=6, node_id=2, lose_disk=True)
    event, reference = run_both(dag, cfg, scheme_name, failure_plan=plan)
    assert event == reference


def test_equivalent_traces_recorded():
    """Both cores emit the same structured trace, event for event."""
    dag = build_workload_dag("KM", partitions=8)
    cfg = CLUSTER.with_cache(cache_mb_for(dag, 0.4, CLUSTER))
    traces = []
    for scheduler in SCHEDULERS:
        recorder = TraceRecorder()
        simulate(dag, cfg, resolve_scheme("mrd").build(), scheduler=scheduler,
                 recorder=recorder)
        traces.append([ev.to_dict() for ev in recorder.events])
    assert traces[0] == traces[1]


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 40),
    num_jobs=st.integers(2, 8),
    cache=st.floats(4.0, 120.0),
    scheme_name=st.sampled_from(SCHEMES),
)
def test_equivalent_on_random_applications(seed, num_jobs, cache, scheme_name):
    """Property form: random synthetic DAGs, any policy, any pressure."""
    dag = build_dag(generate_application(
        seed, SyntheticConfig(num_jobs=num_jobs, partitions=8)
    ))
    cfg = CLUSTER.with_cache(cache)
    event, reference = run_both(dag, cfg, scheme_name)
    assert event == reference


@pytest.mark.parametrize("scheme_name", ["lru", "mrd", "mrd-prefetch"])
def test_equivalent_under_rpc_control_plane(scheme_name):
    """Nonzero control latency, jitter and loss: the delayed-delivery
    heap must interleave identically with both scheduler cores."""
    dag = build_workload_dag("PR", partitions=8)
    cfg = CLUSTER.with_cache(cache_mb_for(dag, 0.4, CLUSTER))
    rpc = RpcConfig(latency_s=2.0, jitter_s=0.5, loss_rate=0.05, seed=3)
    event, reference = run_both(dag, cfg, scheme_name,
                                control_plane="rpc", control_config=rpc)
    assert event == reference


@pytest.mark.parametrize("workload", ["KM", "PR", "CC"])
@pytest.mark.parametrize("scheme_name", SCHEMES)
def test_rpc_at_zero_matches_instant(workload, scheme_name):
    """An rpc plane with all knobs at zero is semantically invisible:
    same fingerprint as the default instant plane, on either core."""
    dag = build_workload_dag(workload, partitions=8)
    cfg = CLUSTER.with_cache(cache_mb_for(dag, 0.4, CLUSTER))
    instant = fingerprint(simulate(dag, cfg, resolve_scheme(scheme_name).build()))
    for scheduler in SCHEDULERS:
        rpc = fingerprint(simulate(
            dag, cfg, resolve_scheme(scheme_name).build(), scheduler=scheduler,
            control_plane="rpc", control_config=RpcConfig(latency_s=0.0),
        ))
        assert rpc == instant


def test_unknown_scheduler_rejected():
    dag = build_workload_dag("KM", partitions=8)
    with pytest.raises(ValueError, match="scheduler"):
        SparkSimulator(dag, CLUSTER, resolve_scheme("lru").build(), scheduler="fifo")
