"""Unit tests for the shared experiment harness."""

import pytest

from repro.experiments import harness
from repro.experiments.harness import (
    MIN_CACHE_MB,
    STANDARD_SCHEMES,
    build_workload_dag,
    cache_mb_for,
    cell_cache_scope,
    format_table,
    sweep_workload,
)
from repro.simulator.config import TEST_CLUSTER
from repro.simulator.reporting import metrics_to_dict
from repro.sweep.schemes import SchemeSpec


class TestSweep:
    @pytest.fixture(scope="class")
    def sweep(self):
        schemes = {k: STANDARD_SCHEMES[k] for k in ("LRU", "MRD")}
        return sweep_workload(
            "SP", schemes=schemes, cluster=TEST_CLUSTER,
            cache_fractions=(0.3, 0.6), partitions=16,
        )

    def test_all_combinations_present(self, sweep):
        assert len(sweep.runs) == 4
        assert sweep.fractions() == [0.3, 0.6]
        assert sweep.schemes() == ["LRU", "MRD"]

    def test_get_and_missing(self, sweep):
        run = sweep.get("MRD", 0.3)
        assert run.scheme == "MRD"
        with pytest.raises(KeyError):
            sweep.get("MRD", 0.99)

    def test_normalized_jct_baseline_is_one(self, sweep):
        assert sweep.normalized_jct("LRU", 0.3) == pytest.approx(1.0)

    def test_best_fraction_is_argmin(self, sweep):
        best = sweep.best_fraction("MRD")
        ratios = {f: sweep.normalized_jct("MRD", f) for f in sweep.fractions()}
        assert ratios[best] == min(ratios.values())

    def test_cache_floor(self):
        dag = build_workload_dag("SP", scale=0.001, partitions=4)
        assert cache_mb_for(dag, 0.01, TEST_CLUSTER) == MIN_CACHE_MB

    def test_prebuilt_dag_reused(self, sweep):
        again = sweep_workload(
            "SP", schemes={"LRU": STANDARD_SCHEMES["LRU"]},
            cluster=TEST_CLUSTER, cache_fractions=(0.3,), dag=sweep.dag,
        )
        assert again.dag is sweep.dag


class TestCellCache:
    """Each distinct cell simulates once per sweep, or once per scope."""

    @pytest.fixture
    def calls(self, monkeypatch):
        counted = []
        real = harness.simulate

        def simulate(dag, config, scheme):
            counted.append(config.cache_mb_per_node)
            return real(dag, config, scheme)

        monkeypatch.setattr(harness, "simulate", simulate)
        return counted

    @staticmethod
    def sweep(schemes, fractions=(0.3,)):
        return sweep_workload(
            "SP", schemes=schemes, cluster=TEST_CLUSTER,
            cache_fractions=fractions, partitions=8,
        )

    def test_clamped_fractions_simulate_once_per_scheme(self, calls):
        schemes = {k: STANDARD_SCHEMES[k] for k in ("LRU", "MRD")}
        result = self.sweep(schemes, fractions=(0.0001, 0.0002))
        assert calls == [MIN_CACHE_MB, MIN_CACHE_MB]
        assert len(result.runs) == 4
        for name in schemes:
            low, high = result.get(name, 0.0001), result.get(name, 0.0002)
            assert low.cache_mb_per_node == high.cache_mb_per_node == MIN_CACHE_MB
            assert metrics_to_dict(low.metrics) == metrics_to_dict(high.metrics)

    def test_scope_shares_cells_across_labels(self, calls):
        with cell_cache_scope() as cells:
            full = self.sweep({"MRD": SchemeSpec("MRD")})
            stage = self.sweep({"MRD-stage": SchemeSpec("MRD", metric="stage")})
        assert len(calls) == 1
        assert (cells.simulated, cells.reused) == (1, 1)
        a, b = full.runs[0], stage.runs[0]
        assert (a.scheme, a.metrics.scheme) == ("MRD", "MRD")
        assert (b.scheme, b.metrics.scheme) == ("MRD-stage", "MRD-stage")
        jct = b.metrics.jct
        a.metrics.jct = -1.0
        a.metrics.stats.hits += 1000
        assert b.metrics.jct == jct
        assert b.metrics.stats.hits != a.metrics.stats.hits

    def test_scope_ends_and_factories_are_never_cached(self, calls):
        schemes = {"MRD": SchemeSpec("MRD")}
        live = {"MRD": lambda: SchemeSpec("MRD").build()}
        with cell_cache_scope():
            self.sweep(schemes)
            self.sweep(live)
            self.sweep(live)
        assert len(calls) == 3
        self.sweep(schemes)
        assert len(calls) == 4

    def test_cached_results_equal_uncached(self, calls):
        schemes = {k: STANDARD_SCHEMES[k] for k in ("LRU", "MemTune", "MRD")}
        uncached = self.sweep(schemes, fractions=(0.3, 0.6))
        with cell_cache_scope():
            self.sweep(schemes, fractions=(0.3, 0.6))
            cached = self.sweep(schemes, fractions=(0.3, 0.6))
        assert len(calls) == 12
        assert [metrics_to_dict(r.metrics) for r in cached.runs] == [
            metrics_to_dict(r.metrics) for r in uncached.runs
        ]


class TestFormatTable:
    def test_alignment_and_title(self):
        text = format_table(["a", "bb"], [[1, 2.345], [33, 4.0]], title="T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "2.35" in text or "2.34" in text
        widths = {len(line) for line in lines[1:]}
        assert len(widths) == 1  # all rows padded equally

    def test_empty_rows(self):
        text = format_table(["x"], [])
        assert "x" in text
