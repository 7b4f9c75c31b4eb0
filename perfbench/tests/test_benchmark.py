"""Self-checks of the benchmark on small copies of its workloads.

* the traced run's wrapped call counts equal the program's own counters,
  and its ``result_digest`` equals the untraced one;
* a reference that bypasses a wrapper makes that check fail;
* the per-cell output checks catch broken store and control accounting;
* seeded workloads: the same seed gives the same digest, another seed
  another digest.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from perfbench import checks, harness, tracer
from perfbench.workloads import SchedSparse, TenantChurn

SRC = Path(__file__).resolve().parents[2] / "src"


class MiniPaper:
    """A paper-style sweep: every standard scheme, disk promotion, instant plane."""

    name = "mini-paper"
    seeded = False
    modules = ("repro.experiments.harness",)

    def prepare(self, seed: int):
        return None

    def execute(self, seed: int, inputs) -> None:
        from repro.experiments.harness import sweep_workload
        from repro.simulator.config import TEST_CLUSTER

        for workload in ("KM", "PO", "SCC"):
            sweep_workload(workload, cluster=TEST_CLUSTER, cache_fractions=(0.15,),
                           partitions=8)


SMALL = {
    "mini-paper": MiniPaper(),
    "sched-sparse": SchedSparse(num_jobs=12, partitions=32),
    "tenant-churn": TenantChurn(runs=2, apps_per_run=4, partitions=8, joins=1,
                                decommissions=1),
}


@pytest.fixture
def hooked():
    """A benchmark run factory with the cell hooks installed."""
    runs = []

    def make(workload, seed: int = 3) -> harness.Run:
        run = harness.Run(workload, seed, 0.0, SRC)
        runs.append(checks.install_cell_hooks(run.log))
        return run

    yield make
    for uninstall in reversed(runs):
        uninstall()


@pytest.mark.parametrize("name", sorted(SMALL))
def test_traced_run_is_self_consistent(hooked, name, tmp_path):
    run = hooked(SMALL[name])
    metrics, problems = run.traced(tmp_path / "trace.json")
    assert problems == []
    assert run.log.cells_failed == 0, run.log.failures
    assert set(metrics) == set(harness.metric_units("per_layer"))
    assert metrics["cluster.access.calls"] > 0
    assert metrics["control.send.calls"] > 0
    assert (tmp_path / "trace.json").is_file()


def test_wrapper_bypass_is_caught(hooked, tmp_path):
    """A hot path holding the unwrapped function must fail the check."""
    from repro.cluster.block_manager import BlockManager

    run = hooked(SMALL["mini-paper"])
    run.unit()
    trace = tracer.Tracer()
    uninstall = tracer.install(trace)
    wrapped = BlockManager.access
    original = wrapped.__perfbench_original__
    calls = {"n": 0}

    def sometimes_unwrapped(self, block_id):
        calls["n"] += 1
        return (original if calls["n"] % 2 else wrapped)(self, block_id)

    BlockManager.access = sometimes_unwrapped
    try:
        run.log.begin_unit()
        run.wl.execute(run.seed, None)
    finally:
        BlockManager.access = wrapped
        uninstall()
    problems = harness.self_consistency(
        trace.totals(), run.log.unit_counters, "same", "same")
    assert any("cluster.access" in p for p in problems)


def test_output_checks_catch_broken_accounting(hooked):
    from repro.simulator.config import TEST_CLUSTER
    from repro.simulator.engine import SparkSimulator
    from repro.sweep.schemes import resolve_scheme

    dag, _, _ = SMALL["sched-sparse"].prepare(1)
    sim = SparkSimulator(dag, TEST_CLUSTER, resolve_scheme("MRD").build())
    metrics = sim.run()
    assert checks.check_metrics(metrics) == []
    assert checks.check_stores(sim.cluster.nodes) == []

    store = sim.cluster.nodes[0].memory
    store._used_mb += 1.0
    assert checks.check_stores(sim.cluster.nodes)
    metrics.control.delivered -= 1
    assert any("control sent" in p for p in checks.check_metrics(metrics))
    metrics.stats.prefetches_used = metrics.stats.prefetches_issued + 1
    assert any("prefetches used" in p for p in checks.check_metrics(metrics))
    metrics.jct = float("inf")
    assert any("not finite" in p for p in checks.check_metrics(metrics))


@pytest.mark.parametrize("name", ["sched-sparse", "tenant-churn"])
def test_seed_controls_the_inputs(hooked, name):
    digests = {}
    for seed in (1, 1, 2):
        run = hooked(SMALL[name], seed)
        run.unit()
        digests.setdefault(seed, set()).add(run.digests[-1])
    assert len(digests[1]) == 1
    assert digests[1] != digests[2]
