"""Unit tests for the shared experiment harness."""

from dataclasses import replace

import pytest

from repro.experiments.harness import (
    MIN_CACHE_MB,
    STANDARD_SCHEMES,
    build_workload_dag,
    cache_mb_for,
    format_table,
    sweep_workload,
)
from repro.simulator.config import TEST_CLUSTER
from repro.simulator.reporting import metrics_to_dict
from repro.sweep.runner import cell_cache_scope, run_cells
from repro.sweep.schemes import SchemeSpec
from repro.sweep.spec import CellSpec


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
        # The DAG is memoised per build: consecutive sweeps of one build
        # share it (and the engine plans compiled onto it).
        first = sweep_workload(
            "SP", schemes={"LRU": STANDARD_SCHEMES["LRU"]},
            cluster=TEST_CLUSTER, cache_fractions=(0.3,), partitions=16,
        )
        again = sweep_workload(
            "SP", schemes={"MRD": STANDARD_SCHEMES["MRD"]},
            cluster=TEST_CLUSTER, cache_fractions=(0.6,), partitions=16,
        )
        assert again.dag is first.dag
        assert metrics_to_dict(first.runs[0].metrics) == metrics_to_dict(
            sweep.get("LRU", 0.3).metrics
        )


class TestCellCache:
    """Each distinct cell simulates once per sweep, or once per scope.

    Counted through the scope's counters; :class:`TestCellCacheParallel`
    runs every case again through worker processes.
    """

    jobs = 1

    def sweep(self, schemes, fractions=(0.3,)):
        return sweep_workload(
            "SP", schemes=schemes, cluster=TEST_CLUSTER,
            cache_fractions=fractions, partitions=8, jobs=self.jobs,
        )

    def test_clamped_fractions_simulate_once_per_scheme(self):
        schemes = {k: STANDARD_SCHEMES[k] for k in ("LRU", "MRD")}
        with cell_cache_scope() as cells:
            result = self.sweep(schemes, fractions=(0.0001, 0.0002))
        assert (cells.simulated, cells.reused) == (2, 2)
        assert len(result.runs) == 4
        for name in schemes:
            low, high = result.get(name, 0.0001), result.get(name, 0.0002)
            assert (low.cache_fraction, high.cache_fraction) == (0.0001, 0.0002)
            assert low.cache_mb_per_node == high.cache_mb_per_node == MIN_CACHE_MB
            assert metrics_to_dict(low.metrics) == metrics_to_dict(high.metrics)

    def test_scope_shares_cells_across_labels(self):
        with cell_cache_scope() as cells:
            full = self.sweep({"MRD": SchemeSpec("MRD")})
            stage = self.sweep({"MRD-stage": SchemeSpec("MRD", metric="stage")})
        assert (cells.simulated, cells.reused) == (1, 1)
        a, b = full.runs[0], stage.runs[0]
        assert (a.scheme, a.metrics.scheme) == ("MRD", "MRD")
        assert (b.scheme, b.metrics.scheme) == ("MRD-stage", "MRD-stage")
        jct = b.metrics.jct
        a.metrics.jct = -1.0
        a.metrics.stats.hits += 1000
        assert b.metrics.jct == jct
        assert b.metrics.stats.hits != a.metrics.stats.hits

    def test_scope_ends_and_factories_are_never_cached(self):
        schemes = {"MRD": SchemeSpec("MRD")}
        live = {"MRD": lambda: SchemeSpec("MRD").build()}
        with cell_cache_scope() as cells:
            self.sweep(schemes)
            with pytest.raises(ValueError, match="scheme 'MRD'"):
                self.sweep(live)
        assert (cells.simulated, cells.reused) == (1, 0)
        with cell_cache_scope() as fresh:
            self.sweep(schemes)
        assert (fresh.simulated, fresh.reused) == (1, 0)

    def test_cached_results_equal_uncached(self):
        schemes = {k: STANDARD_SCHEMES[k] for k in ("LRU", "MemTune", "MRD")}
        uncached = self.sweep(schemes, fractions=(0.3, 0.6))
        with cell_cache_scope() as cells:
            self.sweep(schemes, fractions=(0.3, 0.6))
            cached = self.sweep(schemes, fractions=(0.3, 0.6))
        assert (cells.simulated, cells.reused) == (6, 6)
        assert [metrics_to_dict(r.metrics) for r in cached.runs] == [
            metrics_to_dict(r.metrics) for r in uncached.runs
        ]

    def test_labels_that_seed_the_rpc_plane_are_not_merged(self):
        cells = [
            CellSpec(
                workload="SP", scheme=label, scheme_spec=SchemeSpec("MRD"),
                cluster="test", cache_fraction=0.3, partitions=8,
                control_plane="rpc", control_latency=1.0, control_loss=0.2,
            )
            for label in ("MRD-a", "MRD-b")
        ]
        with cell_cache_scope() as scope:
            outcome = run_cells(cells, jobs=self.jobs)
        assert (scope.simulated, scope.reused) == (2, 0)
        # A pinned seed makes the label inert again: one simulation.
        pinned = [replace(cell, control_seed=7) for cell in cells]
        with cell_cache_scope() as scope:
            outcome = run_cells(pinned, jobs=self.jobs)
        assert (scope.simulated, scope.reused) == (1, 1)
        assert [outcome.metrics_for(c).scheme for c in pinned] == ["MRD-a", "MRD-b"]


class TestCellCacheParallel(TestCellCache):
    jobs = 2


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
