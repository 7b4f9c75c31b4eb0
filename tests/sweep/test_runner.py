"""Sweep runner: determinism, failure isolation, resume, caching."""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.sweep.runner import SweepError, run_cell, run_cells, scheduler_mismatches
from repro.sweep.schemes import SchemeSpec
from repro.sweep.spec import CellSpec, GridSpec
from repro.sweep.store import ResultStore


def _cells(fractions=(0.3, 0.6), schemes=("LRU", "MRD")) -> list[CellSpec]:
    return GridSpec(
        workloads=["SP"], schemes=list(schemes),
        cache_fractions=list(fractions), clusters=["test"], partitions=8,
    ).cells()


def _payloads(outcome):
    return [(r.fingerprint, r.status, r.metrics) for r in outcome.results]


class TestRunCells:
    def test_empty_grid(self):
        outcome = run_cells([])
        assert outcome.results == []
        assert outcome.computed == outcome.cached == outcome.errors == 0
        assert "0 cells" in outcome.stats_line()

    def test_single_cell(self):
        cells = _cells(fractions=(0.5,), schemes=("MRD",))
        outcome = run_cells(cells)
        assert outcome.computed == 1 and outcome.errors == 0
        metrics = outcome.metrics_for(cells[0])
        assert metrics.scheme == "MRD"
        assert metrics.jct > 0

    def test_jobs_must_be_positive(self):
        with pytest.raises(ValueError, match="jobs"):
            run_cells(_cells(), jobs=0)

    def test_parallel_is_bit_identical_to_serial(self):
        cells = _cells()
        serial = run_cells(cells, jobs=1)
        parallel = run_cells(cells, jobs=3)
        assert _payloads(serial) == _payloads(parallel)

    def test_duplicate_cells_share_one_computation(self):
        cells = _cells(fractions=(0.5,), schemes=("LRU",))
        outcome = run_cells(cells * 3)
        assert len(outcome.results) == 3
        assert outcome.computed == 1
        assert len({id(r) for r in outcome.results}) == 1

    def test_relabelled_cells_share_one_simulation(self, tmp_path):
        base = _cells(fractions=(0.5,), schemes=("MRD",))[0]
        cells = [replace(base, scheme=label) for label in ("MRD", "full")]
        store = ResultStore(tmp_path)
        outcome = run_cells(cells, store=store)
        assert (outcome.computed, outcome.cached) == (1, 1)
        # Each fingerprint keeps its own self-describing record.
        assert len(store) == 2
        payloads = []
        for cell in cells:
            stored = store.get(cell.fingerprint())
            assert stored.spec["scheme"] == stored.metrics["scheme"] == cell.scheme
            assert outcome.metrics_for(cell).scheme == cell.scheme
            payloads.append(dict(stored.metrics, scheme=None))
        assert payloads[0] == payloads[1]
        again = run_cells(cells, store=store)
        assert (again.computed, again.cached) == (0, 2)

    def test_results_arrive_in_cell_order_regardless_of_jobs(self):
        cells = _cells()
        outcome = run_cells(cells, jobs=2)
        assert [r.fingerprint for r in outcome.results] == [
            c.fingerprint() for c in cells
        ]


class TestFailureIsolation:
    def test_error_cell_does_not_kill_the_sweep(self):
        bad = CellSpec(workload="SP", cluster="test", scale=-1.0, partitions=8)
        good = _cells(fractions=(0.5,), schemes=("LRU",))[0]
        outcome = run_cells([bad, good])
        assert outcome.errors == 1
        failed = outcome.result_for(bad)
        assert not failed.ok
        assert failed.error["type"] == "ValueError"
        assert "Traceback" in failed.error["traceback"]
        assert outcome.result_for(good).ok

    def test_error_cell_isolated_across_processes(self):
        bad = CellSpec(workload="SP", cluster="test", scale=-1.0, partitions=8)
        good = _cells(fractions=(0.5,), schemes=("LRU",))[0]
        outcome = run_cells([bad, good], jobs=2)
        assert outcome.errors == 1
        assert outcome.result_for(good).ok

    def test_raise_on_error_names_the_cell(self):
        bad = CellSpec(workload="SP", cluster="test", scale=-1.0, partitions=8)
        outcome = run_cells([bad])
        with pytest.raises(SweepError, match="SP/LRU"):
            outcome.raise_on_error()
        run_cells(_cells(fractions=(0.5,))).raise_on_error()  # no raise

    def test_run_cell_maps_exception_to_result(self):
        result = run_cell(CellSpec(workload="SP", cluster="test", scale=-1.0))
        assert result.status == "error"
        assert "positive" in result.describe_error()


class TestResume:
    def test_interrupted_sweep_resumes(self, tmp_path):
        cells = _cells()
        store = ResultStore(tmp_path)
        # Simulate an interrupt: only the first two cells completed.
        first = run_cells(cells[:2], store=store)
        assert first.computed == 2
        full = run_cells(cells, store=store)
        assert full.cached == 2
        assert full.computed == len(cells) - 2
        # Served-from-store results are flagged and payload-identical.
        assert _payloads(full)[:2] == _payloads(first)
        assert [r.cached for r in full.results] == [True, True, False, False]

    def test_completed_sweep_recomputes_nothing(self, tmp_path):
        cells = _cells()
        store = ResultStore(tmp_path)
        first = run_cells(cells, store=store)
        again = run_cells(cells, store=store)
        assert again.computed == 0
        assert again.cached == len(cells)
        assert _payloads(again) == _payloads(first)

    def test_config_change_invalidates_exactly_that_cell(self, tmp_path):
        cells = _cells()
        store = ResultStore(tmp_path)
        run_cells(cells, store=store)
        edited = list(cells)
        edited[0] = CellSpec(
            workload="SP", cluster="test", partitions=8,
            scheme="LRU", scheme_spec=SchemeSpec("LRU"),
            cache_fraction=0.45,  # <- only this cell changed
        )
        outcome = run_cells(edited, store=store)
        assert outcome.computed == 1
        assert outcome.cached == len(cells) - 1

    def test_no_resume_recomputes_everything(self, tmp_path):
        cells = _cells()
        store = ResultStore(tmp_path)
        run_cells(cells, store=store)
        outcome = run_cells(cells, store=store, resume=False)
        assert outcome.computed == len(cells)
        assert outcome.cached == 0

    def test_stored_error_results_retry(self, tmp_path):
        bad = CellSpec(workload="SP", cluster="test", scale=-1.0, partitions=8)
        store = ResultStore(tmp_path)
        first = run_cells([bad], store=store)
        assert first.errors == 1
        again = run_cells([bad], store=store)
        assert again.computed == 1  # retried, not served from cache
        assert again.errors == 1

    def test_store_accepts_plain_path(self, tmp_path):
        cells = _cells(fractions=(0.5,), schemes=("LRU",))
        outcome = run_cells(cells, store=str(tmp_path))
        assert outcome.computed == 1
        assert run_cells(cells, store=str(tmp_path)).cached == 1

    def test_profile_store_cell_requires_result_store(self):
        cell = CellSpec(workload="SP", cluster="test", partitions=8,
                        profile_store=True)
        with pytest.raises(ValueError, match="profile store"):
            run_cells([cell])


class TestProgress:
    def test_progress_covers_every_cell_including_cached(self, tmp_path):
        cells = _cells()
        store = ResultStore(tmp_path)
        run_cells(cells[:2], store=store)
        seen: list[tuple[int, int, bool]] = []
        run_cells(
            cells, store=store,
            progress=lambda done, total, r: seen.append((done, total, r.cached)),
        )
        assert [s[0] for s in seen] == [1, 2, 3, 4]
        assert all(s[1] == 4 for s in seen)
        assert [s[2] for s in seen] == [True, True, False, False]


class TestSchedulerEquivalence:
    def test_event_and_reference_cores_agree(self):
        grid = GridSpec(
            workloads=["SP"], schemes=["LRU", "MRD"], cache_fractions=[0.4],
            clusters=["test"], partitions=8,
            schedulers=["event", "reference"],
        )
        outcome = run_cells(grid.cells())
        assert outcome.errors == 0
        assert scheduler_mismatches(outcome) == []

    def test_mismatch_detected_when_payloads_differ(self):
        grid = GridSpec(
            workloads=["SP"], schemes=["LRU"], cache_fractions=[0.4],
            clusters=["test"], partitions=8,
            schedulers=["event", "reference"],
        )
        outcome = run_cells(grid.cells())
        # Forge a divergence to prove the check has teeth.
        outcome.results[1].metrics = dict(outcome.results[1].metrics, jct=999.0)
        assert len(scheduler_mismatches(outcome)) == 1


class TestProfilePurgeOnRecompute:
    """Recompute = reset: no profile state may leak across runs."""

    def _profile_cell(self) -> CellSpec:
        return CellSpec(workload="SP", cluster="test", cache_fraction=0.4,
                        partitions=8, profile_store=True)

    def test_no_resume_purges_stale_profile_directory(self, tmp_path):
        cell = self._profile_cell()
        store = ResultStore(tmp_path)
        run_cells([cell], store=store).raise_on_error()
        sentinel = store.profiles_dir / cell.fingerprint() / "stale-marker"
        sentinel.write_text("from an earlier run")
        outcome = run_cells([cell], store=store, resume=False)
        assert outcome.computed == 1
        assert not sentinel.exists()  # purged before the cell recomputed

    def test_stored_error_retry_purges_profile_directory(self, tmp_path):
        from repro.sweep.store import STATUS_ERROR, CellResult

        cell = self._profile_cell()
        store = ResultStore(tmp_path)
        fingerprint = cell.fingerprint()
        sentinel = store.profiles_dir / fingerprint / "stale-marker"
        sentinel.parent.mkdir(parents=True)
        sentinel.write_text("left behind by a crashed run")
        store.put(CellResult(
            fingerprint=fingerprint, spec=cell.to_dict(), status=STATUS_ERROR,
            error={"type": "RuntimeError", "message": "crash", "traceback": ""},
        ))
        outcome = run_cells([cell], store=store)
        assert outcome.computed == 1 and outcome.errors == 0
        assert not sentinel.exists()

    def test_cached_cells_keep_their_profiles(self, tmp_path):
        cell = self._profile_cell()
        store = ResultStore(tmp_path)
        run_cells([cell], store=store).raise_on_error()
        marker = store.profiles_dir / cell.fingerprint() / "kept"
        marker.write_text("cached cells must not be reset")
        outcome = run_cells([cell], store=store)  # served from the store
        assert outcome.cached == 1
        assert marker.exists()
