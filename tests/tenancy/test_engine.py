"""Multi-tenant engine: determinism, conservation, teardown isolation."""

from __future__ import annotations

import pytest

from repro.cluster.cluster import ClusterConfig
from repro.tenancy import (
    AppSpec,
    ArbitratedNodePolicy,
    ArrivalProcess,
    FixedArrivals,
    MultiTenantSimulator,
    PoissonArrivals,
    mt_metrics_to_dict,
    simulate_multi_tenant,
)

CLUSTER = ClusterConfig(num_nodes=4, slots_per_node=2, cache_mb_per_node=60.0)

APPS = [
    AppSpec(workload="KM", scheme="MRD", partitions=8, seed=0),
    AppSpec(workload="PR", scheme="LRU", partitions=8, seed=1),
    AppSpec(workload="CC", scheme="MRD-prefetch", partitions=8, seed=2),
]


def run(apps=APPS, cfg=CLUSTER, **kwargs):
    return MultiTenantSimulator(apps, cfg, **kwargs)


class TestDeterminism:
    @pytest.mark.parametrize("arbitration", ["static", "maxmin", "global-mrd"])
    def test_identical_reruns(self, arbitration):
        kwargs = dict(
            arrivals=PoissonArrivals(rate=0.05, seed=9), arbitration=arbitration
        )
        a = run(**kwargs).run()
        b = run(**kwargs).run()
        assert mt_metrics_to_dict(a) == mt_metrics_to_dict(b)

    def test_arrival_seed_changes_outcome(self):
        a = run(arrivals=PoissonArrivals(rate=0.01, seed=0)).run()
        b = run(arrivals=PoissonArrivals(rate=0.01, seed=1)).run()
        assert [m.arrival_time for m in a.apps] != \
            [m.arrival_time for m in b.apps]

    def test_convenience_wrapper_matches_class(self):
        kwargs = dict(arrivals=FixedArrivals(interval=3.0), arbitration="maxmin")
        assert mt_metrics_to_dict(simulate_multi_tenant(APPS, CLUSTER, **kwargs)) \
            == mt_metrics_to_dict(run(**kwargs).run())


class TestConservation:
    def test_every_app_finishes_with_full_accounting(self):
        mt = run(arrivals=FixedArrivals(interval=2.0)).run()
        assert len(mt.apps) == len(APPS)
        assert [m.app_id for m in mt.apps] == [0, 1, 2]
        for m, spec in zip(mt.apps, APPS):
            assert m.scheme == spec.scheme
            assert m.stats.accesses == m.stats.hits + m.stats.misses
            assert m.num_stages_executed == len(m.stage_records)
            assert m.jct > 0
        assert mt.makespan == max(m.arrival_time + m.jct for m in mt.apps)
        assert mt.makespan >= max(m.jct for m in mt.apps)

    def test_arrival_times_respected(self):
        mt = run(arrivals=FixedArrivals(interval=5.0)).run()
        assert [m.arrival_time for m in mt.apps] == [0.0, 5.0, 10.0]
        # Stage records carry absolute cluster times: no stage of app k
        # starts before app k arrives, and the last one ends at
        # arrival + jct.
        for m in mt.apps:
            assert all(r.start >= m.arrival_time for r in m.stage_records)
            assert m.stage_records[-1].end == \
                pytest.approx(m.arrival_time + m.jct)

    def test_contention_only_slows_apps_down(self):
        # Staggered far apart == effectively alone; simultaneous arrival
        # shares slots, so every JCT is at least the solo JCT.
        solo = run(arrivals=FixedArrivals(interval=10_000.0)).run()
        packed = run(arrivals=FixedArrivals(interval=0.0)).run()
        for alone, crowded in zip(solo.apps, packed.apps):
            assert crowded.jct >= alone.jct


class TestIsolation:
    def test_shared_stores_empty_after_run(self):
        sim = run(arrivals=FixedArrivals(interval=1.0))
        sim.run()
        state = sim._state
        assert state is not None
        for node in state.nodes:
            assert len(node.memory) == 0

    def test_all_tenants_deregistered_after_run(self):
        sim = run(arrivals=FixedArrivals(interval=1.0))
        sim.run()
        for node in sim._state.nodes:
            policy = node.policy
            assert isinstance(policy, ArbitratedNodePolicy)
            assert policy._tenants == {}
            assert list(policy.eviction_order(node.memory)) == []


class TestValidation:
    def test_rejects_empty_app_list(self):
        with pytest.raises(ValueError):
            MultiTenantSimulator([], CLUSTER)

    def test_rejects_unknown_scheme_eagerly(self):
        with pytest.raises(ValueError):
            AppSpec(workload="KM", scheme="NOPE")

    def test_rejects_non_positive_share(self):
        with pytest.raises(ValueError):
            AppSpec(workload="KM", share=0.0)

    def test_rejects_unknown_arbitration(self):
        with pytest.raises(ValueError, match="unknown arbitration"):
            MultiTenantSimulator(APPS, CLUSTER, arbitration="fifo")

    @pytest.mark.parametrize("times, message", [
        ([0.0, 5.0, 2.0], "non-decreasing: app 2 arrives at 2.0, before app 1"),
        ([0.0, -1.0, 3.0], "non-negative: app 1 arrives at -1.0"),
        ([0.0, 1.0], "gave 2 times for 3 apps"),
    ])
    def test_bad_arrival_times_fail_before_setup(self, monkeypatch, times, message):
        """Arrival times are checked, with the offending app named,
        before any application's DAG is built."""

        class Given(ArrivalProcess):
            def times(self, n: int) -> list[float]:
                return times[:n]

        def no_build(application):
            raise AssertionError("a DAG was built before arrivals were checked")

        monkeypatch.setattr("repro.tenancy.engine.build_dag", no_build)
        with pytest.raises(ValueError, match=message):
            run(arrivals=Given()).run()

    def test_app_driver_run_is_blocked(self):
        sim = run()
        sim.run()
        with pytest.raises(RuntimeError):
            sim._state.apps[0].driver.run()
