"""Elastic membership under multi-tenancy.

Timed joins/decommissions against the shared cluster: validation,
determinism, churn accounting, the static guardrail (inert elasticity
parameters must not perturb a static run), presence bookkeeping for
late arrivals, and the decommission → rejoin cycle.
"""

from __future__ import annotations

import pytest

from repro.cluster.cluster import ClusterConfig
from repro.control.plane import RpcConfig
from repro.tenancy import (
    AppSpec,
    FixedArrivals,
    MultiTenantSimulator,
    TimedNodeDecommission,
    TimedNodeJoin,
)
from tests.simulator.test_scheduler_equivalence import fingerprint

CLUSTER = ClusterConfig(num_nodes=4, slots_per_node=2, cache_mb_per_node=50.0)
KM = AppSpec(workload="KM", scheme="MRD", partitions=8)


def _mt(**kwargs) -> MultiTenantSimulator:
    apps = kwargs.pop("apps", [KM])
    return MultiTenantSimulator(apps, CLUSTER, **kwargs)


def _fingerprints(result) -> tuple:
    return (result.makespan,) + tuple(fingerprint(m) for m in result.apps)


# ----------------------------------------------------------------------
# validation
# ----------------------------------------------------------------------
def test_timed_events_validate():
    with pytest.raises(ValueError, match="non-negative"):
        TimedNodeJoin(at=-1.0)
    with pytest.raises(ValueError, match="non-negative"):
        TimedNodeJoin(at=0.0, node_id=-1)
    with pytest.raises(ValueError, match="non-negative"):
        TimedNodeDecommission(at=-0.5)
    with pytest.raises(ValueError, match="non-negative"):
        TimedNodeDecommission(at=1.0, node_id=-2)


def test_ctor_rejects_bad_elasticity_config():
    with pytest.raises(ValueError, match="unknown placement"):
        _mt(placement="consistent")
    with pytest.raises(ValueError, match="unknown rebalance"):
        _mt(rebalance="replicate")
    with pytest.raises(TypeError, match="TimedNodeJoin"):
        _mt(memberships=[("join", 5.0)])


def test_impossible_join_fails_at_construction_naming_the_event():
    """A pinned join beyond the next free id is rejected up front, with
    the event's index; the next free id follows fresh joins in time
    order, not list order."""
    with pytest.raises(ValueError, match=r"memberships\[1\]: join of node 6"):
        _mt(memberships=(TimedNodeJoin(at=5.0), TimedNodeJoin(at=1.0, node_id=6)))
    with pytest.raises(ValueError, match=r"memberships\[0\]: .*next free id is 4"):
        _mt(memberships=(TimedNodeJoin(at=1.0, node_id=5), TimedNodeJoin(at=5.0)))
    # Time order: the fresh join at t=1 opens id 4, so id 5 at t=5 extends.
    _mt(memberships=(TimedNodeJoin(at=5.0, node_id=5), TimedNodeJoin(at=1.0)))
    # Decommissions never open ids; rejoining an existing slot is fine.
    _mt(memberships=(TimedNodeDecommission(at=1.0, node_id=2),
                     TimedNodeJoin(at=2.0, node_id=2)))


# ----------------------------------------------------------------------
# the static guardrail and determinism
# ----------------------------------------------------------------------
def test_inert_elasticity_parameters_leave_static_runs_untouched():
    """No membership events + stride placement: the elastic code path
    must be unobservable, whatever the rebalance policy."""
    baseline = _fingerprints(_mt().run())
    inert = _fingerprints(_mt(memberships=(), rebalance="migrate").run())
    assert inert == baseline


def test_churned_run_is_deterministic():
    def once() -> tuple:
        return _fingerprints(_mt(
            apps=[KM, AppSpec(workload="PR", scheme="LRU", partitions=8)],
            arrivals=FixedArrivals(interval=10.0),
            placement="rendezvous",
            memberships=(TimedNodeJoin(at=5.0),
                         TimedNodeDecommission(at=20.0, node_id=1)),
            rebalance="migrate",
        ).run())

    assert once() == once()


def test_churned_run_is_deterministic_over_rpc():
    def once() -> tuple:
        return _fingerprints(_mt(
            placement="rendezvous",
            memberships=(TimedNodeJoin(at=5.0),
                         TimedNodeDecommission(at=20.0)),
            rebalance="migrate",
            control_plane="rpc",
            control_config=RpcConfig(latency_s=0.5),
        ).run())

    assert once() == once()


# ----------------------------------------------------------------------
# churn accounting
# ----------------------------------------------------------------------
def test_membership_counters_and_presence():
    result = _mt(
        placement="rendezvous",
        memberships=(TimedNodeJoin(at=5.0),
                     TimedNodeDecommission(at=20.0, node_id=1)),
        rebalance="migrate",
    ).run()
    (m,) = result.apps
    assert m.nodes_joined == 1
    assert m.nodes_decommissioned == 1
    assert len(m.per_node_presence) == 5  # 4 initial + the joiner
    assert all(0.0 <= p <= 1.0 for p in m.per_node_presence)
    # Node 1 left mid-run and node 4 joined mid-run: partial presence.
    assert 0.0 < m.per_node_presence[1] < 1.0
    assert 0.0 < m.per_node_presence[4] < 1.0
    # Nodes 0/2/3 were live throughout.
    for i in (0, 2, 3):
        assert m.per_node_presence[i] == 1.0


def test_drop_vs_migrate_accounting():
    memberships = (TimedNodeDecommission(at=20.0, node_id=0),)
    dropped = _mt(memberships=memberships, rebalance="drop").run().apps[0]
    migrated = _mt(memberships=memberships, rebalance="migrate").run().apps[0]
    assert dropped.decommission_dropped_blocks > 0
    assert dropped.rebalanced_blocks == 0
    assert migrated.rebalanced_blocks > 0
    assert migrated.rebalanced_mb > 0
    total = dropped.decommission_dropped_blocks
    assert (migrated.rebalanced_blocks
            + migrated.decommission_dropped_blocks) == total


def test_late_arrival_never_sees_the_dead_node():
    """An application that arrives after a decommission must run on the
    surviving nodes and report zero presence for the dead slot."""
    result = _mt(
        apps=[KM, AppSpec(workload="KM", scheme="LRU", partitions=8)],
        arrivals=FixedArrivals(interval=30.0),
        memberships=(TimedNodeDecommission(at=10.0, node_id=1),),
    ).run()
    first, late = result.apps
    assert first.nodes_decommissioned == 1
    # The late app never saw the event, only its aftermath.
    assert late.nodes_decommissioned == 0
    assert late.per_node_presence[1] == 0.0
    assert all(late.per_node_presence[i] == 1.0 for i in (0, 2, 3))
    assert late.jct > 0


def test_decommissioned_slot_can_rejoin():
    result = _mt(
        placement="rendezvous",
        memberships=(TimedNodeDecommission(at=5.0, node_id=2),
                     TimedNodeJoin(at=25.0, node_id=2)),
    ).run()
    (m,) = result.apps
    assert m.nodes_joined == 1
    assert m.nodes_decommissioned == 1
    assert len(m.per_node_presence) == 4  # the slot was reused, not grown
    # The bounced slot was absent for the middle of the run.
    assert 0.0 < m.per_node_presence[2] < 1.0
    for i in (0, 1, 3):
        assert m.per_node_presence[i] == 1.0
