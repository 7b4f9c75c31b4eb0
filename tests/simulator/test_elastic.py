"""Elastic membership in the standalone engine.

Covers the join/decommission lifecycle end to end: scheduler-core
equivalence under churn, the static-membership guardrail (no churn +
stride placement must be byte-identical to the pre-elastic engine),
autoscaler determinism, drop-vs-migrate accounting, presence-weighted
hit ratios, the §4.4 exactly-once table resend under lossy control, and
trace record/replay of the membership events.
"""

from __future__ import annotations

import pytest

from repro.control.plane import RpcConfig
from repro.experiments.harness import build_workload_dag, cache_mb_for
from repro.simulator.engine import simulate
from repro.simulator.failures import Autoscaler, FailurePlan, build_churn_plan
from repro.simulator.metrics import RunMetrics
from repro.simulator.reporting import metrics_from_dict, metrics_to_dict
from repro.sweep.schemes import resolve_scheme
from repro.trace.recorder import TraceRecorder
from tests.simulator.test_scheduler_equivalence import CLUSTER, fingerprint, run_both


def _dag(workload: str = "KM"):
    return build_workload_dag(workload, partitions=8)


def _cfg(dag, fraction: float = 0.4):
    return CLUSTER.with_cache(cache_mb_for(dag, fraction, CLUSTER))


def _churny_plan() -> FailurePlan:
    """A join, a pinned decommission, and an unpinned decommission."""
    return (
        FailurePlan()
        .add_join(at_seq=2)
        .add_decommission(at_seq=4, node_id=1)
        .add_decommission(at_seq=6)
    )


# ----------------------------------------------------------------------
# scheduler-core equivalence under churn
# ----------------------------------------------------------------------
@pytest.mark.parametrize("scheme_name", ["lru", "mrd"])
@pytest.mark.parametrize("placement", ["stride", "rendezvous"])
@pytest.mark.parametrize("rebalance", ["drop", "migrate"])
def test_cores_equivalent_under_churn(scheme_name, placement, rebalance):
    dag = _dag()
    event, reference = run_both(
        dag, _cfg(dag), scheme_name,
        failure_plan=_churny_plan(), placement=placement, rebalance=rebalance,
    )
    assert event == reference


@pytest.mark.parametrize("scheme_name", ["lru", "mrd"])
def test_cores_equivalent_under_churn_over_rpc(scheme_name):
    """Membership messages ride the same delayed control plane as
    everything else; the cores must interleave them identically."""
    dag = _dag("PR")
    event, reference = run_both(
        dag, _cfg(dag), scheme_name,
        failure_plan=_churny_plan(), placement="rendezvous",
        rebalance="migrate",
        control_plane="rpc", control_config=RpcConfig(latency_s=1.0),
    )
    assert event == reference


# ----------------------------------------------------------------------
# the static-membership guardrail
# ----------------------------------------------------------------------
@pytest.mark.parametrize("scheme_name", ["lru", "mrd"])
def test_static_membership_is_byte_identical(scheme_name):
    """No churn events + stride placement must reproduce the pre-elastic
    engine exactly, whatever the rebalance policy or an empty plan says
    — the elasticity machinery may not perturb static runs."""
    dag = _dag()
    cfg = _cfg(dag)
    baseline = fingerprint(simulate(dag, cfg, resolve_scheme(scheme_name).build()))
    elastic_but_inert = fingerprint(simulate(
        dag, cfg, resolve_scheme(scheme_name).build(),
        failure_plan=FailurePlan(), rebalance="migrate",
    ))
    assert elastic_but_inert == baseline


def test_static_run_reports_no_churn():
    dag = _dag()
    m = simulate(dag, _cfg(dag), resolve_scheme("mrd").build())
    assert m.nodes_joined == 0
    assert m.nodes_decommissioned == 0
    assert m.rebalanced_blocks == 0
    assert m.rebalanced_mb == 0.0
    assert m.decommission_dropped_blocks == 0
    assert m.per_node_presence == []


# ----------------------------------------------------------------------
# membership lifecycle and accounting
# ----------------------------------------------------------------------
def test_join_and_decommission_counters():
    dag = _dag()
    m = simulate(
        dag, _cfg(dag), resolve_scheme("mrd").build(),
        failure_plan=_churny_plan(), placement="rendezvous",
    )
    assert m.nodes_joined == 1
    assert m.nodes_decommissioned == 2
    assert m.jct > 0
    assert len(m.stage_records) == len(dag.active_stages)


def test_drop_loses_blocks_migrate_carries_them():
    dag = _dag()
    cfg = _cfg(dag)
    plan = FailurePlan().add_decommission(at_seq=4, node_id=0)
    dropped = simulate(dag, cfg, resolve_scheme("mrd").build(),
                       failure_plan=plan, rebalance="drop")
    migrated = simulate(dag, cfg, resolve_scheme("mrd").build(),
                        failure_plan=plan, rebalance="migrate")
    # The node held cached blocks by seq 4; drop loses them all,
    # migrate carries the finite-distance ones.
    assert dropped.decommission_dropped_blocks > 0
    assert dropped.rebalanced_blocks == 0
    assert migrated.rebalanced_blocks > 0
    assert migrated.rebalanced_mb > 0
    # Every resident block is either migrated or dropped, never both.
    total = dropped.decommission_dropped_blocks + dropped.rebalanced_blocks
    assert (migrated.rebalanced_blocks
            + migrated.decommission_dropped_blocks) == total


def test_failure_of_decommissioned_node_is_skipped():
    """An autoscaler can decommission a node before its scheduled
    failure comes due; the failure must be a no-op, not a crash."""
    dag = _dag()
    plan = (FailurePlan()
            .add_decommission(at_seq=2, node_id=3)
            .add(at_seq=5, node_id=3))
    m = simulate(dag, _cfg(dag), resolve_scheme("mrd").build(), failure_plan=plan)
    assert m.nodes_decommissioned == 1
    assert m.failure_lost_blocks == 0


def test_unknown_placement_rejected():
    dag = _dag()
    with pytest.raises(ValueError, match="placement must be one of"):
        simulate(dag, _cfg(dag), resolve_scheme("lru").build(), placement="bogus")


# ----------------------------------------------------------------------
# autoscaler: reactive but deterministic
# ----------------------------------------------------------------------
def _autoscaled_plan() -> FailurePlan:
    # Thresholds far below real pressure (8 tasks / 8+ slots = ~1.0), so
    # scale-ups fire deterministically; jitter exercises the seeded RNG.
    return FailurePlan(autoscaler=Autoscaler(
        min_nodes=2, max_nodes=6, scale_up_at=0.05, scale_down_at=0.01,
        cooldown=1, jitter=0.2, seed=7,
    ))


def test_autoscaler_grows_the_cluster():
    dag = _dag()
    m = simulate(dag, _cfg(dag), resolve_scheme("mrd").build(),
                 failure_plan=_autoscaled_plan(), placement="rendezvous")
    assert m.nodes_joined > 0


def test_autoscaler_replays_identically():
    """One plan object, three runs: reset() must rearm the RNG so every
    run draws the same decisions (and both cores agree)."""
    dag = _dag()
    cfg = _cfg(dag)
    plan = _autoscaled_plan()
    first = run_both(dag, cfg, "mrd", failure_plan=plan,
                     placement="rendezvous")
    again = fingerprint(simulate(dag, cfg, resolve_scheme("mrd").build(),
                                 failure_plan=plan, placement="rendezvous"))
    assert first[0] == first[1] == again


# ----------------------------------------------------------------------
# churn plans
# ----------------------------------------------------------------------
def test_build_churn_plan_is_deterministic():
    a = build_churn_plan(20, 0.5, seed=3)
    b = build_churn_plan(20, 0.5, seed=3)
    assert a.memberships == b.memberships
    assert build_churn_plan(20, 0.5, seed=4).memberships != a.memberships


def test_build_churn_plan_rate_bounds():
    assert build_churn_plan(20, 0.0).memberships == []
    full = build_churn_plan(20, 1.0)
    assert sorted(m.at_seq for m in full.memberships) == list(range(1, 20))
    with pytest.raises(ValueError):
        build_churn_plan(20, 1.5)
    with pytest.raises(ValueError):
        build_churn_plan(-1, 0.5)


# ----------------------------------------------------------------------
# presence-weighted hit ratios (regression: a last-stage joiner must not
# drag the cluster mean like a full-run node)
# ----------------------------------------------------------------------
def test_mean_node_hit_ratio_weights_by_presence():
    m = RunMetrics(scheme="s", workload="w",
                   per_node_hit_ratio=[1.0, 0.0],
                   per_node_presence=[1.0, 0.1])
    assert m.mean_node_hit_ratio == pytest.approx(1.0 / 1.1)


def test_mean_node_hit_ratio_static_is_plain_average():
    m = RunMetrics(scheme="s", workload="w",
                   per_node_hit_ratio=[1.0, 0.0])
    assert m.mean_node_hit_ratio == pytest.approx(0.5)


def test_mean_node_hit_ratio_skips_idle_nodes():
    m = RunMetrics(scheme="s", workload="w",
                   per_node_hit_ratio=[None, 0.8],
                   per_node_presence=[0.2, 0.5])
    assert m.mean_node_hit_ratio == pytest.approx(0.8)


def test_mean_node_hit_ratio_none_when_no_weight():
    all_idle = RunMetrics(scheme="s", workload="w",
                          per_node_hit_ratio=[None, None])
    assert all_idle.mean_node_hit_ratio is None
    zero_presence = RunMetrics(scheme="s", workload="w",
                               per_node_hit_ratio=[0.9],
                               per_node_presence=[0.0])
    assert zero_presence.mean_node_hit_ratio is None


def test_churn_run_reports_presence_fractions():
    dag = _dag()
    m = simulate(
        dag, _cfg(dag), resolve_scheme("mrd").build(),
        failure_plan=FailurePlan().add_join(at_seq=5),
        placement="rendezvous",
    )
    assert len(m.per_node_presence) == len(m.per_node_hit_ratio)
    # The original nodes were live the whole run; the joiner was not.
    assert m.per_node_presence[:4] == [1.0] * 4
    assert 0.0 < m.per_node_presence[4] < 1.0


def test_elastic_metrics_round_trip_through_reporting():
    dag = _dag()
    m = simulate(
        dag, _cfg(dag), resolve_scheme("mrd").build(),
        failure_plan=_churny_plan(), placement="rendezvous",
        rebalance="migrate",
    )
    back = metrics_from_dict(metrics_to_dict(m))
    assert back.nodes_joined == m.nodes_joined
    assert back.nodes_decommissioned == m.nodes_decommissioned
    assert back.rebalanced_blocks == m.rebalanced_blocks
    assert back.rebalanced_mb == m.rebalanced_mb
    assert back.decommission_dropped_blocks == m.decommission_dropped_blocks
    assert back.per_node_presence == m.per_node_presence
    assert back.mean_node_hit_ratio == m.mean_node_hit_ratio


# ----------------------------------------------------------------------
# §4.4 under lossy control: the table is resent exactly once per
# *successful* (re-)registration — a lost register means no resend
# ----------------------------------------------------------------------
def _snapshot_count(failure_plan: FailurePlan | None) -> int:
    dag = _dag()
    scheme = resolve_scheme("mrd").build()
    calls: list[int] = []
    original = scheme.table_snapshot

    def spy():
        calls.append(1)
        return original()

    scheme.table_snapshot = spy  # type: ignore[method-assign]
    simulate(
        dag, _cfg(dag), scheme,
        control_plane="rpc", control_config=RpcConfig(latency_s=0.0),
        failure_plan=failure_plan,
    )
    return len(calls)


def test_table_resent_exactly_once_per_reregistration():
    startup_only = _snapshot_count(None)
    assert startup_only == CLUSTER.num_nodes  # one per initial register
    one_failure = _snapshot_count(FailurePlan().add(at_seq=3, node_id=1))
    assert one_failure == startup_only + 1
    two_failures = _snapshot_count(
        FailurePlan().add(at_seq=3, node_id=1).add(at_seq=6, node_id=2)
    )
    assert two_failures == startup_only + 2


def test_lost_register_means_no_resend():
    """A total control outage over the failure boundary swallows the
    replacement's WorkerRegister: no delivery, no table resend."""
    plan = (FailurePlan()
            .add(at_seq=3, node_id=1)
            .add_outage(from_seq=3, to_seq=3, node_id=1, loss_rate=1.0))
    assert _snapshot_count(plan) == CLUSTER.num_nodes


def test_join_registers_through_the_table_resend_path():
    plan = FailurePlan().add_join(at_seq=2)
    assert _snapshot_count(plan) == CLUSTER.num_nodes + 1


# ----------------------------------------------------------------------
# tracing: membership events record, replay and survive JSONL
# ----------------------------------------------------------------------
def _record_churn_run() -> tuple[TraceRecorder, RunMetrics]:
    dag = _dag()
    recorder = TraceRecorder(meta={"scheme": "mrd"})
    metrics = simulate(
        dag, _cfg(dag), resolve_scheme("mrd").build(),
        failure_plan=FailurePlan().add_join(at_seq=2)
        .add_decommission(at_seq=4, node_id=0),
        placement="rendezvous", rebalance="migrate",
        recorder=recorder,
    )
    return recorder, metrics


def test_churn_trace_records_membership_events():
    recorder, metrics = _record_churn_run()
    by_kind: dict[str, list] = {}
    for ev in recorder.events:
        by_kind.setdefault(ev.kind, []).append(ev)
    registers = by_kind.get("worker_register", [])
    deregisters = by_kind.get("worker_deregister", [])
    migrations = by_kind.get("block_migrate", [])
    # Startup registrations are untraced; the join is the only register.
    assert [e.reason for e in registers] == ["join"]
    assert [e.reason for e in deregisters] == ["decommission"]
    assert deregisters[0].node_id == 0
    # One migrate event per rebalanced block, naming the retiring node.
    assert len(migrations) == metrics.rebalanced_blocks > 0
    assert all(ev.from_node == 0 for ev in migrations)
    assert all(ev.to_node != 0 for ev in migrations)


def test_churn_trace_replays_identically_and_round_trips(tmp_path):
    rec1, _ = _record_churn_run()
    rec2, _ = _record_churn_run()
    assert rec1.events == rec2.events
    path = tmp_path / "churn.jsonl"
    rec1.to_jsonl(path)
    assert TraceRecorder.from_jsonl(path).events == rec1.events
