"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main
from repro.sweep.schemes import SCHEME_SPECS


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_defaults(self):
        args = build_parser().parse_args(["run", "PR"])
        assert args.scheme == "MRD"
        assert args.cluster == "main"
        assert args.cache_fraction == 0.5
        assert args.control_plane == "instant"
        assert args.control_latency is None

    def test_control_plane_choices_restricted(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "PR", "--control-plane", "telepathy"])

    def test_elastic_defaults(self):
        args = build_parser().parse_args(["run", "PR"])
        assert args.placement == "stride"
        assert args.churn_rate == 0.0
        assert args.churn_seed == 0
        assert args.rebalance == "drop"

    def test_elastic_choices_restricted(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "PR", "--placement", "consistent"])
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "PR", "--rebalance", "replicate"])


class TestCommands:
    def test_workloads_lists_all(self, capsys):
        assert main(["workloads"]) == 0
        out = capsys.readouterr().out
        for name in ("KM", "SCC", "Sort", "HiKMeans"):
            assert name in out

    def test_run_prints_summary(self, capsys):
        assert main(["run", "SP", "--scheme", "LRU", "--partitions", "16"]) == 0
        out = capsys.readouterr().out
        assert "LRU" in out and "JCT" in out

    def test_run_verbose_prints_stages(self, capsys):
        assert main(["run", "SP", "--scheme", "MRD", "--partitions", "16", "-v"]) == 0
        assert "stage seq=" in capsys.readouterr().out

    def test_run_absolute_cache(self, capsys):
        assert main(["run", "SP", "--cache-mb", "16", "--partitions", "16"]) == 0
        assert "cache=16.0 MB/node" in capsys.readouterr().out

    def test_run_adhoc_mode(self, capsys):
        assert main(["run", "SP", "--mode", "adhoc", "--partitions", "16"]) == 0
        assert "MRD-adhoc" in capsys.readouterr().out

    def test_run_job_metric(self, capsys):
        assert main(["run", "SP", "--metric", "job", "--partitions", "16"]) == 0
        assert "MRD-jobdist" in capsys.readouterr().out

    def test_sweep(self, capsys):
        assert main([
            "sweep", "SP", "--schemes", "LRU,MRD", "--fractions", "0.3,0.6",
        ]) == 0
        out = capsys.readouterr().out
        assert "Sweep: SP" in out
        assert out.count("MRD") >= 2

    def test_sweep_parallel_with_store_caches(self, tmp_path, capsys):
        args = [
            "sweep", "SP", "--schemes", "LRU,MRD", "--fractions", "0.3,0.6",
            "--partitions", "8", "--jobs", "2", "--store", str(tmp_path),
        ]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert "4 computed, 0 cached" in first
        assert main(args) == 0
        second = capsys.readouterr().out
        assert "0 computed, 4 cached" in second
        # The tables themselves must be identical run-to-run.
        assert first.split("cells:")[0] == second.split("cells:")[0]

    def test_sweep_progress_goes_to_stderr(self, tmp_path, capsys):
        assert main([
            "sweep", "SP", "--schemes", "LRU", "--fractions", "0.5",
            "--partitions", "8", "--store", str(tmp_path),
        ]) == 0
        captured = capsys.readouterr()
        assert "[1/1]" in captured.err
        assert "[1/1]" not in captured.out

    def test_sweep_multiple_workloads(self, capsys):
        assert main([
            "sweep", "SP", "TC", "--schemes", "LRU", "--fractions", "0.5",
            "--partitions", "8",
        ]) == 0
        out = capsys.readouterr().out
        assert "Sweep: SP on main" in out and "Sweep: TC on main" in out

    def test_sweep_scheduler_equivalence(self, capsys):
        assert main([
            "sweep", "SP", "--schemes", "LRU,MRD", "--fractions", "0.4",
            "--partitions", "8", "--schedulers", "event,reference",
        ]) == 0
        out = capsys.readouterr().out
        assert "scheduler equivalence" in out and "agree" in out

    def test_sweep_error_cell_exits_nonzero(self, capsys):
        assert main([
            "sweep", "SP", "--schemes", "LRU", "--fractions", "0.5",
            "--partitions", "8", "--scale", "-1",
        ]) == 1
        out = capsys.readouterr().out
        assert "ERROR" in out and "FAILED" in out

    def test_sweep_spec_file(self, tmp_path, capsys):
        spec = tmp_path / "grid.json"
        spec.write_text(
            '{"workloads": ["SP"], "schemes": ["LRU", "MRD"], '
            '"fractions": [0.4], "partitions": 8}'
        )
        assert main(["sweep", "--spec", str(spec)]) == 0
        assert "Sweep: SP" in capsys.readouterr().out

    def test_sweep_bad_spec_exits(self, tmp_path):
        spec = tmp_path / "grid.json"
        spec.write_text('{"workloads": ["SP"], "warp": 9}')
        with pytest.raises(SystemExit, match="sweep failed"):
            main(["sweep", "--spec", str(spec)])

    def test_sweep_unknown_scheme_exits(self):
        with pytest.raises(SystemExit, match="unknown scheme"):
            main(["sweep", "SP", "--schemes", "MAGIC"])

    def test_sweep_unknown_workload_exits(self):
        with pytest.raises(SystemExit, match="unknown workload"):
            main(["sweep", "NOPE", "--schemes", "LRU"])

    def test_sweep_without_workloads_exits(self):
        with pytest.raises(SystemExit, match="workload names"):
            main(["sweep"])

    def test_experiment_store_rejected_for_tables(self, tmp_path):
        with pytest.raises(SystemExit, match="does not use a result store"):
            main(["experiment", "table1", "--store", str(tmp_path)])

    def test_experiment_table3(self, capsys):
        assert main(["experiment", "table3"]) == 0
        assert "Table 3" in capsys.readouterr().out

    def test_unknown_scheme_exits(self):
        with pytest.raises(SystemExit, match="unknown scheme"):
            main(["run", "SP", "--scheme", "MAGIC"])

    def test_run_unknown_workload_exits(self):
        with pytest.raises(SystemExit, match="run failed: unknown workload 'XX'"):
            main(["run", "XX"])

    def test_unknown_cluster_exits(self):
        with pytest.raises(SystemExit, match="unknown cluster"):
            main(["run", "SP", "--cluster", "moon"])

    def test_unknown_experiment_exits(self):
        with pytest.raises(SystemExit, match="unknown experiment"):
            main(["experiment", "fig99"])

    def test_bench_writes_payload_and_passes_own_baseline(self, tmp_path, capsys):
        out_file = tmp_path / "bench.json"
        args = ["bench", "--tasks", "200", "--nodes", "4", "--repeats", "1"]
        assert main(args + ["-o", str(out_file)]) == 0
        out = capsys.readouterr().out
        assert "speedup" in out and "metrics identical across schedulers: yes" in out
        # A payload always passes a check against itself: -o writes the
        # payload, then --check-baseline compares that same payload to
        # the file just written.  (Re-running the bench against the
        # first run's file would be a coin flip at this micro size —
        # sub-millisecond legs make the speedup pure timer noise.)
        assert main(args + ["-o", str(out_file),
                            "--check-baseline", str(out_file)]) == 0
        assert "baseline check passed" in capsys.readouterr().out

    def test_bench_no_reference_skips_comparison(self, capsys):
        assert main(["bench", "--tasks", "200", "--nodes", "4",
                     "--repeats", "1", "--no-reference"]) == 0
        out = capsys.readouterr().out
        assert "reference" not in out and "speedup" not in out

    def test_bench_invalid_tasks_exits(self):
        with pytest.raises(SystemExit, match="bench failed"):
            main(["bench", "--tasks", "0"])

    def test_bench_unreadable_baseline_exits(self, tmp_path):
        with pytest.raises(SystemExit, match="cannot read baseline"):
            main(["bench", "--tasks", "200", "--nodes", "4", "--repeats", "1",
                  "--check-baseline", str(tmp_path / "missing.json")])

    def test_dot_lineage(self, capsys):
        assert main(["dot", "SP", "--view", "lineage"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("digraph lineage")

    def test_dot_stages_to_file(self, tmp_path, capsys):
        out_file = tmp_path / "pr.dot"
        assert main(["dot", "SP", "--view", "stages", "-o", str(out_file)]) == 0
        assert out_file.read_text().startswith("digraph stages")
        assert "written" in capsys.readouterr().out

    def test_dot_no_skipped(self, capsys):
        assert main(["dot", "CC", "--no-skipped"]) == 0
        assert "(skipped)" not in capsys.readouterr().out

    def test_run_rpc_control_plane_prints_counters(self, capsys):
        assert main([
            "run", "SP", "--partitions", "16",
            "--control-plane", "rpc", "--control-latency", "2.0",
        ]) == 0
        out = capsys.readouterr().out
        assert "control[rpc]" in out and "delivered" in out

    def test_run_instant_plane_hides_control_line(self, capsys):
        assert main(["run", "SP", "--partitions", "16"]) == 0
        assert "control[" not in capsys.readouterr().out

    def test_run_bad_control_config_exits(self):
        with pytest.raises(SystemExit, match="bad control-plane config"):
            main(["run", "SP", "--control-plane", "rpc",
                  "--control-loss", "1.5"])

    def test_run_with_churn_prints_membership_line(self, capsys):
        assert main([
            "run", "KM", "--partitions", "8",
            "--placement", "rendezvous",
            "--churn-rate", "0.4", "--rebalance", "migrate",
        ]) == 0
        out = capsys.readouterr().out
        assert "membership" in out and "migrated=" in out

    def test_run_static_hides_membership_line(self, capsys):
        assert main(["run", "SP", "--partitions", "16"]) == 0
        assert "membership" not in capsys.readouterr().out

    def test_run_bad_churn_config_exits(self):
        with pytest.raises(SystemExit, match="bad churn config"):
            main(["run", "SP", "--churn-rate", "1.5"])

    def test_experiment_control_latency_registered(self, capsys):
        assert main(["experiment", "fig_control_latency"]) == 0
        assert "Control-plane latency" in capsys.readouterr().out

    def test_every_scheme_name_runs(self, capsys):
        for name in SCHEME_SPECS:
            assert main([
                "run", "SP", "--scheme", name, "--partitions", "8",
                "--cache-fraction", "0.4",
            ]) == 0


class TestLintCommand:
    """``repro lint``: the determinism-contract analyzer as a subcommand."""

    BAD = "import random\nx = random.random()\n"
    OK = '"""Clean module."""\n\nX = 1\n'

    @staticmethod
    def _file(tmp_path, source):
        path = tmp_path / "mod.py"
        path.write_text(source)
        return str(path)

    def test_clean_file_exits_zero(self, tmp_path, capsys):
        assert main(["lint", self._file(tmp_path, self.OK)]) == 0
        assert "0 finding(s) in 1 file" in capsys.readouterr().out

    def test_findings_exit_nonzero(self, tmp_path, capsys):
        assert main(["lint", self._file(tmp_path, self.BAD)]) == 1
        out = capsys.readouterr().out
        assert "DET001" in out and "mod.py:2:" in out

    def test_json_format(self, tmp_path, capsys):
        import json

        assert main([
            "lint", self._file(tmp_path, self.BAD), "--format", "json",
        ]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is False
        assert payload["findings"][0]["rule"] == "DET001"

    def test_select_and_ignore(self, tmp_path):
        bad = self._file(tmp_path, self.BAD)
        assert main(["lint", bad, "--select", "MUT001"]) == 0
        assert main(["lint", bad, "--ignore", "DET001"]) == 0
        assert main(["lint", bad, "--select", "DET001,MUT001"]) == 1

    def test_unknown_rule_exits_with_message(self, tmp_path):
        with pytest.raises(SystemExit, match="unknown rule"):
            main(["lint", self._file(tmp_path, self.OK), "--select", "NOPE"])

    def test_baseline_gates_only_new_findings(self, tmp_path, capsys):
        bad = self._file(tmp_path, self.BAD)
        baseline = str(tmp_path / "baseline.json")
        assert main(["lint", bad, "--baseline", baseline,
                     "--write-baseline"]) == 0
        assert "baseline written" in capsys.readouterr().out
        # Grandfathered findings no longer fail...
        assert main(["lint", bad, "--baseline", baseline]) == 0
        assert "(baseline)" in capsys.readouterr().out
        # ...but a new finding beyond the baseline does.
        (tmp_path / "mod.py").write_text(self.BAD + "y = random.randint(1, 6)\n")
        assert main(["lint", bad, "--baseline", baseline]) == 1

    def test_write_baseline_requires_path(self, tmp_path):
        with pytest.raises(SystemExit, match="--write-baseline"):
            main(["lint", self._file(tmp_path, self.OK), "--write-baseline"])

    def test_malformed_baseline_exits(self, tmp_path):
        baseline = tmp_path / "baseline.json"
        baseline.write_text("not json")
        with pytest.raises(SystemExit, match="lint failed"):
            main(["lint", self._file(tmp_path, self.OK),
                  "--baseline", str(baseline)])

    def test_list_rules(self, capsys):
        assert main(["lint", "--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in ("DET001", "DET002", "DET003", "DET004", "MUT001"):
            assert rule_id in out

    def test_missing_path_exits(self, tmp_path):
        with pytest.raises(SystemExit, match="lint failed"):
            main(["lint", str(tmp_path / "absent.py")])

    def test_module_entry_point_matches_subcommand(self, tmp_path):
        from repro.analysis.cli import main as lint_main

        assert lint_main([self._file(tmp_path, self.BAD)]) == 1
        assert lint_main([self._file(tmp_path, self.OK)]) == 0


class TestDistributedSweep:
    """``repro sweep --worker`` / ``--serve``: the distributed service CLI."""

    GRID = ["SP", "--schemes", "LRU,MRD", "--fractions", "0.3,0.6",
            "--partitions", "8"]

    def test_worker_drains_a_small_grid(self, tmp_path, capsys):
        store = str(tmp_path / "store")
        assert main(["sweep", *self.GRID, "--store", store, "--worker",
                     "--worker-id", "w1", "--poll", "0.01"]) == 0
        captured = capsys.readouterr()
        assert "worker w1: 4 executed (0 errors)" in captured.out
        assert "store drained: every cell is settled" in captured.out
        assert captured.err.count("ok") == 4  # per-cell progress on stderr

    def test_worker_store_matches_serial_run(self, tmp_path, capsys):
        from repro.sweep import ResultStore

        serial, shared = str(tmp_path / "serial"), str(tmp_path / "shared")
        assert main(["sweep", *self.GRID, "--jobs", "1",
                     "--store", serial]) == 0
        assert main(["sweep", *self.GRID, "--store", shared, "--worker",
                     "--poll", "0.01"]) == 0
        assert (
            ResultStore(serial).content_digest()
            == ResultStore(shared).content_digest()
        )

    def test_worker_resumes_from_published_manifest(self, tmp_path, capsys):
        store = str(tmp_path / "store")
        assert main(["sweep", *self.GRID, "--store", store, "--worker",
                     "--max-cells", "1", "--poll", "0.01"]) == 0
        capsys.readouterr()
        # Second worker gets the grid from grid.json — no workload flags.
        assert main(["sweep", "--store", store, "--worker",
                     "--worker-id", "w2", "--poll", "0.01"]) == 0
        out = capsys.readouterr().out
        assert "worker w2: 3 executed" in out
        assert "store drained" in out

    def test_worker_exits_nonzero_on_error_cells(self, tmp_path, capsys):
        store = str(tmp_path / "store")
        assert main(["sweep", "SP", "--schemes", "LRU", "--fractions", "0.5",
                     "--partitions", "8", "--scale", "-1",
                     "--store", store, "--worker", "--poll", "0.01"]) == 1
        assert "1 error" in capsys.readouterr().out

    def test_worker_requires_store(self):
        with pytest.raises(SystemExit, match="--store"):
            main(["sweep", "SP", "--worker"])

    def test_worker_without_any_grid_exits(self, tmp_path):
        with pytest.raises(SystemExit, match="no grid"):
            main(["sweep", "--store", str(tmp_path), "--worker"])

    def test_worker_and_serve_are_mutually_exclusive(self, tmp_path):
        with pytest.raises(SystemExit, match="mutually exclusive"):
            main(["sweep", "--store", str(tmp_path), "--worker", "--serve"])

    def test_serve_once_writes_json_and_html(self, tmp_path, capsys):
        import json as json_mod

        from repro.sweep import DASHBOARD_SCHEMA_VERSION

        store = tmp_path / "store"
        assert main(["sweep", *self.GRID, "--store", str(store),
                     "--worker", "--poll", "0.01"]) == 0
        capsys.readouterr()
        assert main(["sweep", "--store", str(store), "--serve",
                     "--once"]) == 0
        assert "dashboard written to" in capsys.readouterr().out
        payload = json_mod.loads((store / "dashboard.json").read_text())
        assert payload["schema"] == DASHBOARD_SCHEMA_VERSION
        assert payload["progress"]["done"] == 4
        html = (store / "dashboard.html").read_text()
        assert html.startswith("<!doctype html>")
        assert "Sweep dashboard" in html

    def test_serve_once_honors_out_dir(self, tmp_path, capsys):
        store, out = tmp_path / "store", tmp_path / "www"
        assert main(["sweep", "SP", "--schemes", "LRU", "--fractions", "0.5",
                     "--partitions", "8", "--store", str(store),
                     "--worker", "--poll", "0.01"]) == 0
        capsys.readouterr()
        assert main(["sweep", "--store", str(store), "--serve", "--once",
                     "--out", str(out)]) == 0
        assert (out / "dashboard.json").exists()
        assert (out / "dashboard.html").exists()

    def test_serve_requires_store(self):
        with pytest.raises(SystemExit, match="--store"):
            main(["sweep", "--serve", "--once"])

    def test_external_requires_store(self):
        with pytest.raises(SystemExit, match="--store"):
            main(["sweep", "SP", "--workers-external"])

    def test_external_times_out_without_workers(self, tmp_path):
        with pytest.raises(SystemExit, match="external workers"):
            main(["sweep", "SP", "--schemes", "LRU", "--fractions", "0.5",
                  "--partitions", "8", "--store", str(tmp_path),
                  "--workers-external", "--external-timeout", "0.1"])

    def test_external_serves_settled_store(self, tmp_path, capsys):
        """A drained store satisfies the coordinator with no workers."""
        store = str(tmp_path / "store")
        assert main(["sweep", *self.GRID, "--store", store]) == 0
        capsys.readouterr()
        assert main(["sweep", *self.GRID, "--store", store,
                     "--workers-external", "--external-timeout", "5"]) == 0
        assert "4 cached" in capsys.readouterr().out
