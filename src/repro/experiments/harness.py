"""Shared experiment harness.

Every figure/table driver follows the same pattern: build a workload
DAG once, size the cluster cache as a fraction of the workload's peak
live cached footprint (the paper's ``spark.executor.memory`` sweeps),
run it under several cache-management schemes, and normalize Job
Completion Times against the LRU baseline.  This module provides those
building blocks plus plain-text table rendering used by the benchmark
scripts and EXPERIMENTS.md.

:func:`sweep_workload` describes its grid as sweep cells and executes
them through :func:`repro.sweep.runner.run_cells`, its one execution
path: ``jobs=N`` fans cells out across worker processes and ``store=``
makes the sweep resumable.  Results are bit-identical at any job count.
Each distinct simulation runs once: cells that differ only in their
label, or in a cache fraction that clamps to :data:`MIN_CACHE_MB`,
share one content key, and inside
:func:`~repro.sweep.runner.cell_cache_scope` (which
:func:`~repro.experiments.report.generate_report` holds open) every
sweep shares finished cells.  A workload of your own joins a sweep by
:func:`~repro.workloads.registry.register_workload`.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field, replace

from repro.cluster.cluster import ClusterConfig
from repro.dag.analysis import peak_live_cached_mb
from repro.dag.dag_builder import ApplicationDAG, build_dag
from repro.simulator.config import CLUSTERS, MAIN_CLUSTER
from repro.simulator.metrics import RunMetrics
from repro.sweep.runner import run_cells, workload_dag
from repro.sweep.schemes import SchemeLike, SchemeSpec, resolve_scheme
from repro.sweep.spec import CellSpec
from repro.workloads.base import WorkloadParams
from repro.workloads.registry import get_workload

#: The scheme line-up most experiments compare.
STANDARD_SCHEMES: dict[str, SchemeSpec] = {
    "LRU": SchemeSpec("LRU"),
    "LRC": SchemeSpec("LRC"),
    "MemTune": SchemeSpec("MemTune"),
    "MRD-evict": SchemeSpec("MRD", prefetch=False),
    "MRD-prefetch": SchemeSpec("MRD", evict=False),
    "MRD": SchemeSpec("MRD"),
    "Belady-MIN": SchemeSpec("Belady"),
}

#: Cache sizes swept per workload, as fractions of peak live cached MB.
DEFAULT_CACHE_FRACTIONS: tuple[float, ...] = (0.08, 0.15, 0.25, 0.35, 0.5, 0.7)

#: Minimum per-node cache so a single block always fits.
MIN_CACHE_MB = 8.0


@dataclass(frozen=True)
class WorkloadRun:
    """One (workload, cache size, scheme) simulation result."""

    workload: str
    scheme: str
    cache_fraction: float
    cache_mb_per_node: float
    metrics: RunMetrics

    @property
    def jct(self) -> float:
        return self.metrics.jct

    @property
    def hit_ratio(self) -> float:
        return self.metrics.hit_ratio


@dataclass
class SweepResult:
    """All runs of one workload across cache fractions and schemes."""

    workload: str
    dag: ApplicationDAG
    peak_live_mb: float
    runs: list[WorkloadRun] = field(default_factory=list)

    def get(self, scheme: str, fraction: float) -> WorkloadRun:
        for run in self.runs:
            if run.scheme == scheme and run.cache_fraction == fraction:
                return run
        raise KeyError(f"no run for {scheme} @ {fraction}")

    def fractions(self) -> list[float]:
        return sorted({r.cache_fraction for r in self.runs})

    def schemes(self) -> list[str]:
        seen: dict[str, None] = {}
        for r in self.runs:
            seen.setdefault(r.scheme, None)
        return list(seen)

    def normalized_jct(self, scheme: str, fraction: float, baseline: str = "LRU") -> float:
        return self.get(scheme, fraction).jct / self.get(baseline, fraction).jct

    def best_fraction(self, scheme: str = "MRD", baseline: str = "LRU") -> float:
        """Cache fraction with the best scheme-vs-baseline ratio.

        Figure 4 reports "the best overall performance gain for each
        workload-cache combination" — this is that selection rule.
        """
        return min(
            self.fractions(),
            key=lambda f: self.normalized_jct(scheme, f, baseline),
        )


def cache_mb_for(dag: ApplicationDAG, fraction: float, cluster: ClusterConfig) -> float:
    """Per-node cache size for a given fraction of the peak live set."""
    peak = peak_live_cached_mb(dag)
    return max(peak * fraction / cluster.num_nodes, MIN_CACHE_MB)


def workload_params(
    scale: float = 1.0,
    iterations: int | None = None,
    partitions: int | None = None,
) -> WorkloadParams:
    """The :class:`WorkloadParams` a sweep builds its DAG from."""
    return WorkloadParams(
        scale=scale,
        iterations=iterations,
        partitions=partitions if partitions is not None else WorkloadParams().partitions,
    )


def build_workload_dag(
    workload: str,
    scale: float = 1.0,
    iterations: int | None = None,
    partitions: int | None = None,
) -> ApplicationDAG:
    """Compile one benchmark workload into its application DAG."""
    params = workload_params(scale, iterations, partitions)
    return build_dag(get_workload(workload).build(params))


def sweep_workload(
    workload: str,
    schemes: Mapping[str, SchemeLike] | None = None,
    cluster: ClusterConfig = MAIN_CLUSTER,
    cache_fractions: Sequence[float] = DEFAULT_CACHE_FRACTIONS,
    jobs: int = 1,
    store=None,
    resume: bool = True,
    external: bool = False,
    **build_kwargs,
) -> SweepResult:
    """Run one workload under every scheme at every cache fraction.

    The grid is one :class:`~repro.sweep.spec.CellSpec` per fraction ×
    scheme, executed by :func:`~repro.sweep.runner.run_cells`: ``jobs=N``
    fans cells out across worker processes and a result ``store`` makes
    the sweep resumable.  Results are bit-identical at any job count.
    ``cluster`` must be a named preset and every scheme a name, dict or
    :class:`SchemeSpec`: a cell is plain data a worker rebuilds.

    ``external=True`` is the distributed path: nothing computes in this
    process — the grid is published into the (mandatory) ``store`` and
    the call waits for ``repro sweep --worker`` processes to settle
    every cell (see ``docs/distributed-sweeps.md``).
    """
    if CLUSTERS.get(cluster.name) != cluster:
        raise ValueError(
            f"sweep cluster {cluster.name!r} is not a preset; "
            f"choose from {sorted(CLUSTERS)}"
        )
    specs: dict[str, SchemeSpec] = {}
    for name, value in (schemes or STANDARD_SCHEMES).items():
        try:
            specs[name] = resolve_scheme(value)
        except ValueError as exc:
            raise ValueError(f"scheme {name!r}: {exc}") from None
    spec_of = get_workload(workload)
    params = workload_params(**build_kwargs)
    if params.iterations is None:
        params = replace(params, iterations=spec_of.default_iterations)
    dag = workload_dag(spec_of, params)
    # Fractions that clamp to MIN_CACHE_MB share one cell.
    sizes = {fraction: cache_mb_for(dag, fraction, cluster) for fraction in cache_fractions}
    grid = [
        (fraction, CellSpec(
            workload=workload,
            scheme=name,
            scheme_spec=spec,
            cluster=cluster.name,
            cache_fraction=None,
            cache_mb=sizes[fraction],
            scale=params.scale,
            iterations=params.iterations,
            partitions=params.partitions,
        ))
        for fraction in cache_fractions
        for name, spec in specs.items()
    ]
    outcome = run_cells(
        [cell for _, cell in grid],
        jobs=jobs, store=store, resume=resume, external=external,
    )
    outcome.raise_on_error()
    result = SweepResult(
        workload=workload, dag=dag, peak_live_mb=peak_live_cached_mb(dag)
    )
    for fraction, cell in grid:
        metrics = outcome.metrics_for(cell)
        result.runs.append(
            WorkloadRun(
                workload=workload,
                scheme=cell.scheme,
                cache_fraction=fraction,
                cache_mb_per_node=metrics.cache_mb_per_node,
                metrics=metrics,
            )
        )
    return result


# ----------------------------------------------------------------------
# plain-text rendering
# ----------------------------------------------------------------------
def format_table(
    headers: Sequence[str],
    rows: Sequence[Sequence[object]],
    title: str = "",
) -> str:
    """Render an aligned plain-text table (monospace, benchmark output)."""
    cells = [[_fmt(c) for c in row] for row in rows]
    widths = [
        max(len(headers[i]), *(len(r[i]) for r in cells)) if cells else len(headers[i])
        for i in range(len(headers))
    ]
    lines = []
    if title:
        lines.append(title)
    lines.append("  ".join(h.rjust(w) for h, w in zip(headers, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for row in cells:
        lines.append("  ".join(c.rjust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def _fmt(value: object) -> str:
    if isinstance(value, float):
        return f"{value:.2f}"
    return str(value)
