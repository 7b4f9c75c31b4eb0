"""Scale benchmark — the event-queue scheduler at 5000+ tasks, 16 nodes.

Wraps :mod:`repro.bench.engine_bench` (the harness behind ``repro
bench`` and ``BENCH_engine.json``) so the scheduler-core comparison
runs under pytest-benchmark alongside the other microbenchmarks:

    pytest benchmarks/test_engine_scale.py --benchmark-only -s

Also asserts the harness's core invariant — both scheduling cores
produce identical RunMetrics — at full benchmark scale.
"""

import pytest

from repro.bench.engine_bench import (
    BenchConfig,
    _metrics_fingerprint,
    build_bench_dag,
    total_tasks,
)
from repro.simulator.engine import SparkSimulator
from repro.sweep.schemes import resolve_scheme

CONFIG = BenchConfig(repeats=1)
SCHEMES = ("LRU", "MRD")


def _run(dag, scheme_name, scheduler):
    sim = SparkSimulator(
        dag, CONFIG.cluster(), resolve_scheme(scheme_name).build(), scheduler=scheduler
    )
    return sim.run()


@pytest.mark.parametrize("scheme_name", SCHEMES)
@pytest.mark.parametrize("scheduler", ["event", "reference"])
def test_engine_scale_sched_profile(benchmark, scheme_name, scheduler):
    """Scheduling-bound profile: isolates the scheduler cores."""
    dag = build_bench_dag(CONFIG, "sched")
    assert total_tasks(dag) >= CONFIG.min_tasks
    benchmark.pedantic(
        lambda: _run(dag, scheme_name, scheduler), rounds=3, iterations=1
    )


@pytest.mark.parametrize("scheme_name", SCHEMES)
def test_engine_scale_metrics_identical(scheme_name):
    """Both cores simulate the same execution at benchmark scale."""
    for profile in ("sched", "cache"):
        dag = build_bench_dag(CONFIG, profile)
        event = _metrics_fingerprint(_run(dag, scheme_name, "event"))
        reference = _metrics_fingerprint(_run(dag, scheme_name, "reference"))
        assert event == reference, f"cores diverged on {profile}/{scheme_name}"
