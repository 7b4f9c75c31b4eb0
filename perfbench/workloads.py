"""The benchmark's workloads: how each builds its inputs and runs.

Every workload splits into ``prepare(seed)`` and ``execute(seed,
inputs)``.  ``prepare`` walks the set-up path -- workload generation,
``build_dag`` and cache sizing for every application the workload uses
-- and returns what ``execute`` needs; ``setup_s`` times it.  ``execute``
is the simulation the user waits for.

Only on ``sched-sparse`` is that set-up the program's own: ``execute``
simulates the DAG ``prepare`` built.  ``generate_report`` and
``MultiTenantSimulator.run`` take workload names, not DAGs, and build
every DAG again inside ``execute``.  On ``paper-report`` and
``tenant-churn`` ``prepare`` therefore replays the set-up path, and the
program's own builds count in ``wall_s`` and ``cell_s``.

The sizes the benchmark's own tests shrink are constructor arguments, so
the tests run small copies of the same code.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import ClassVar

#: Modules a workload's set-up imports (timed in a fresh interpreter).
_BASE_MODULES = ("repro", "repro.dag.dag_builder", "repro.dag.analysis")


class PaperReport:
    """``generate_report`` at ``jobs=1`` with no result store."""

    name: ClassVar[str] = "paper-report"
    seeded: ClassVar[bool] = False
    modules: ClassVar[tuple[str, ...]] = _BASE_MODULES + (
        "repro.experiments.report", "repro.workloads.registry",
    )

    def prepare(self, seed: int):
        # A replay: generate_report builds every DAG again.  The report's
        # inputs are the paper workloads; the seed is unused.
        from repro.dag.analysis import peak_live_cached_mb
        from repro.dag.dag_builder import build_dag
        from repro.workloads.registry import build_workload, workload_names

        return {
            name: peak_live_cached_mb(build_dag(build_workload(name)))
            for name in workload_names()
        }

    def execute(self, seed: int, inputs) -> str:
        from repro.experiments.report import generate_report

        return generate_report(jobs=1, store=None)


#: The 16-node x 4-slot cluster of the engine micro-benchmark.
BENCH_NODES, BENCH_SLOTS, BENCH_CACHE_MB = 16, 4, 200.0


@dataclass
class SchedSparse:
    """A large sparse-caching synthetic application under LRU and MRD."""

    num_jobs: int = 300
    partitions: int = 320
    name: ClassVar[str] = "sched-sparse"
    seeded: ClassVar[bool] = True
    modules: ClassVar[tuple[str, ...]] = _BASE_MODULES + (
        "repro.workloads.synthetic", "repro.simulator.engine",
        "repro.sweep.schemes",
    )

    def prepare(self, seed: int):
        from repro.cluster.cluster import ClusterConfig
        from repro.dag.analysis import peak_live_cached_mb
        from repro.dag.dag_builder import build_dag
        from repro.workloads.synthetic import SyntheticConfig, generate_application

        app = generate_application(seed, SyntheticConfig(
            num_jobs=self.num_jobs, partitions=self.partitions,
            cache_probability=0.05, reuse_probability=0.3,
        ))
        dag = build_dag(app)
        peak = peak_live_cached_mb(dag)
        cluster = ClusterConfig(
            name="bench-16n", num_nodes=BENCH_NODES, slots_per_node=BENCH_SLOTS,
            cache_mb_per_node=BENCH_CACHE_MB,
        )
        return dag, cluster, peak

    def execute(self, seed: int, inputs) -> None:
        from repro.simulator.engine import simulate
        from repro.sweep.schemes import resolve_scheme

        dag, cluster, _peak = inputs
        for scheme in ("LRU", "MRD"):
            simulate(dag, cluster, resolve_scheme(scheme).build())


#: Application mix cycled over the tenant-churn submissions.
CHURN_MIX = ("KM", "PR", "SVD++", "CC", "PO", "LinR")
#: Poisson arrival rate of the tenant-churn submissions (per second).
CHURN_RATE = 0.1
#: Per-cluster cache as a share of the largest application's peak live set.
CHURN_CACHE_FRACTION = 0.25


@dataclass
class TenantChurn:
    """``MultiTenantSimulator`` with every axis on, under LRU and MRD.

    Each scheme runs ``runs`` independent shared-cluster runs with their
    own seeds.  One run's host time swings by a fifth from seed to seed;
    eight runs of twelve applications (twice the 48 applications first
    prototyped) narrow the spread across benchmark seeds to about 12 %.
    """

    runs: int = 8
    apps_per_run: int = 12
    partitions: int = 64
    joins: int = 2
    decommissions: int = 2
    name: ClassVar[str] = "tenant-churn"
    seeded: ClassVar[bool] = True
    modules: ClassVar[tuple[str, ...]] = _BASE_MODULES + (
        "repro.tenancy.engine", "repro.workloads.registry",
    )

    def specs(self, run_seed: int, scheme: str) -> list:
        from repro.tenancy.engine import AppSpec

        return [
            AppSpec(
                workload=CHURN_MIX[i % len(CHURN_MIX)], scheme=scheme,
                partitions=self.partitions, seed=run_seed * 1000 + i,
            )
            for i in range(self.apps_per_run)
        ]

    def prepare(self, seed: int):
        from repro.dag.analysis import peak_live_cached_mb
        from repro.dag.dag_builder import build_dag
        from repro.simulator.config import MAIN_CLUSTER
        from repro.tenancy.arbitration import RDD_NAMESPACE_STRIDE
        from repro.tenancy.arrivals import PoissonArrivals
        from repro.tenancy.engine import TimedNodeDecommission, TimedNodeJoin
        from repro.workloads.registry import build_workload

        # A replay for the cache size: MultiTenantSimulator.run builds
        # every application's DAG again.
        peak = 0.0
        plans = []
        for k in range(self.runs):
            run_seed = seed * 100 + k
            for i, spec in enumerate(self.specs(run_seed, "LRU")):
                app = build_workload(
                    spec.workload, spec.params(), first_rdd_id=i * RDD_NAMESPACE_STRIDE)
                peak = max(peak, peak_live_cached_mb(build_dag(app)))
            horizon = PoissonArrivals(rate=CHURN_RATE, seed=run_seed).times(
                self.apps_per_run)[-1]
            rng = random.Random(f"tenant-churn-membership-{run_seed}")
            plans.append((run_seed, sorted(
                [TimedNodeDecommission(at=rng.uniform(0.0, horizon))
                 for _ in range(self.decommissions)]
                + [TimedNodeJoin(at=rng.uniform(0.0, horizon)) for _ in range(self.joins)],
                key=lambda e: e.at,
            )))
        # Cache sized for the largest single application (as fig_load does).
        cache_mb = max(peak * CHURN_CACHE_FRACTION / MAIN_CLUSTER.num_nodes, 8.0)
        return MAIN_CLUSTER.with_cache(cache_mb), plans

    def execute(self, seed: int, inputs) -> None:
        from repro.control.plane import RpcConfig
        from repro.tenancy.arrivals import PoissonArrivals
        from repro.tenancy.engine import MultiTenantSimulator

        config, plans = inputs
        for scheme in ("LRU", "MRD"):
            for run_seed, memberships in plans:
                MultiTenantSimulator(
                    self.specs(run_seed, scheme), config,
                    arrivals=PoissonArrivals(rate=CHURN_RATE, seed=run_seed),
                    arbitration="global-mrd",
                    control_plane="rpc",
                    control_config=RpcConfig(jitter_s=0.05, loss_rate=0.02, seed=run_seed),
                    placement="rendezvous",
                    memberships=memberships,
                    rebalance="migrate",
                ).run()


WORKLOADS = {w.name: w for w in (PaperReport(), SchedSparse(), TenantChurn())}
