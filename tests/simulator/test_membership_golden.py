"""Golden pin of the membership path (join, decommission, rebalance).

Both scheduling cores and the tenancy loop call the same join and
decommission bodies, so the equivalence suites cannot catch a change
to what those bodies compute, or to how a retiring node's queued tasks
are re-homed.  These tests pin it instead: a sha256 over the full
:func:`fingerprint` of a fixed set of churned runs.

The digests were recorded from the engine as it stood before the
scheduling loops were unified; a refactor of the membership path must
reproduce them exactly.  A deliberate behaviour change re-records them
(``python -m tests.simulator.test_membership_golden`` prints both) and
says why in the change log.
"""

from __future__ import annotations

import hashlib

from repro.cluster.cluster import ClusterConfig
from repro.control.plane import RpcConfig
from repro.experiments.harness import build_workload_dag, cache_mb_for
from repro.simulator.engine import simulate
from repro.simulator.failures import Autoscaler, FailurePlan, build_churn_plan
from repro.sweep.schemes import resolve_scheme
from repro.tenancy import (
    AppSpec,
    FixedArrivals,
    MultiTenantSimulator,
    TimedNodeDecommission,
    TimedNodeJoin,
)
from tests.simulator.test_scheduler_equivalence import CLUSTER, fingerprint

STANDALONE_DIGEST = "c1865e903f296df68cf436d4f36ee11e78d2865d4707a324d946697d753810c0"
TENANCY_DIGEST = "5cbff7ef52404e019d5ffc129c86255628757eb7ecaf102c9cccb57c0e668db4"
REHOME_DIGEST = "0c5b6958eebfc7eb37d52b4c3e5902006dccdff91a0de0d4765cda62fca438e0"

WORKLOADS = ("KM", "PR", "SVD++")
SCHEMES = ("lru", "mrd", "mrd-prefetch")
REBALANCES = ("drop", "migrate")
PLACEMENTS = ("stride", "rendezvous")


def _digest(values) -> str:
    return hashlib.sha256(repr(tuple(values)).encode()).hexdigest()


def _plans(num_stages: int) -> tuple[FailurePlan, FailurePlan]:
    churn = build_churn_plan(num_stages, 0.4, seed=5)
    scaled = FailurePlan(autoscaler=Autoscaler(
        min_nodes=2, max_nodes=6, scale_up_at=0.05, scale_down_at=0.01,
        cooldown=1, jitter=0.2, seed=7,
    ))
    return churn, scaled


def standalone_fingerprints() -> list[tuple]:
    """Churn and autoscaler plans over workload x scheme x rebalance x
    placement, plus one leg over a lossy rpc control plane."""
    out = []
    for workload in WORKLOADS:
        dag = build_workload_dag(workload, partitions=8)
        cfg = CLUSTER.with_cache(cache_mb_for(dag, 0.4, CLUSTER))
        for plan in _plans(len(dag.active_stages)):
            for scheme in SCHEMES:
                for rebalance in REBALANCES:
                    for placement in PLACEMENTS:
                        m = simulate(
                            dag, cfg, resolve_scheme(scheme).build(), failure_plan=plan,
                            rebalance=rebalance, placement=placement,
                        )
                        out.append(fingerprint(m))
    dag = build_workload_dag("PR", partitions=8)
    cfg = CLUSTER.with_cache(cache_mb_for(dag, 0.4, CLUSTER))
    churn, _ = _plans(len(dag.active_stages))
    out.append(fingerprint(simulate(
        dag, cfg, resolve_scheme("mrd-prefetch").build(), failure_plan=churn,
        rebalance="migrate", placement="rendezvous", control_plane="rpc",
        control_config=RpcConfig(latency_s=1.0, jitter_s=0.3, loss_rate=0.1, seed=4),
    )))
    return out


def tenancy_fingerprint() -> tuple:
    """Three staggered apps under global-mrd over lossy rpc: a fresh
    join, a pinned decommission, and a rejoin of that slot."""
    result = MultiTenantSimulator(
        [
            AppSpec(workload="KM", scheme="MRD", partitions=8),
            AppSpec(workload="PR", scheme="LRU", partitions=8),
            AppSpec(workload="SVD++", scheme="MRD-prefetch", partitions=8),
        ],
        ClusterConfig(num_nodes=4, slots_per_node=2, cache_mb_per_node=30.0),
        arrivals=FixedArrivals(interval=4.0),
        arbitration="global-mrd",
        control_plane="rpc",
        control_config=RpcConfig(latency_s=0.5, jitter_s=0.2, loss_rate=0.05, seed=2),
        placement="rendezvous",
        memberships=(
            TimedNodeJoin(at=3.0),
            TimedNodeDecommission(at=9.0, node_id=1),
            TimedNodeJoin(at=21.0, node_id=1),
        ),
        rebalance="migrate",
    ).run()
    return (
        result.arbitration, result.arrival_process, result.makespan,
        tuple((m.app_id, m.arrival_time, fingerprint(m)) for m in result.apps),
    )


def rehome_fingerprints() -> list[tuple]:
    """Two tenants submitted at once on one- and two-slot nodes, so
    decommissions land on deep task queues and re-home them."""
    out = []
    for placement, slots in (("stride", 1), ("rendezvous", 2)):
        result = MultiTenantSimulator(
            [
                AppSpec(workload="KM", scheme="MRD", partitions=32),
                AppSpec(workload="PR", scheme="MRD-prefetch", partitions=32),
            ],
            ClusterConfig(num_nodes=4, slots_per_node=slots, cache_mb_per_node=40.0),
            arbitration="maxmin",
            placement=placement,
            memberships=(
                TimedNodeDecommission(at=3.0, node_id=1),
                TimedNodeJoin(at=8.0),
                TimedNodeDecommission(at=15.0),
            ),
            rebalance="migrate",
        ).run()
        out.append((result.makespan, tuple(fingerprint(m) for m in result.apps)))
    return out


def test_standalone_membership_path_is_pinned():
    fps = standalone_fingerprints()
    # The churn must actually happen, or the pin guards nothing.
    assert any(fp[-6] for fp in fps) and any(fp[-5] for fp in fps)
    assert any(fp[-4] for fp in fps)
    assert _digest(fps) == STANDALONE_DIGEST


def test_tenancy_membership_path_is_pinned():
    fp = tenancy_fingerprint()
    apps = [app[2] for app in fp[3]]
    assert any(a[-6] for a in apps) and any(a[-5] for a in apps)
    assert _digest([fp]) == TENANCY_DIGEST


def test_rehoming_of_queued_tasks_is_pinned():
    assert _digest(rehome_fingerprints()) == REHOME_DIGEST


if __name__ == "__main__":  # pragma: no cover - re-recording helper
    print("STANDALONE_DIGEST =", repr(_digest(standalone_fingerprints())))
    print("TENANCY_DIGEST =", repr(_digest([tenancy_fingerprint()])))
    print("REHOME_DIGEST =", repr(_digest(rehome_fingerprints())))
