"""Parallel sweep execution with per-cell failure isolation.

:func:`run_cells` takes a list of :class:`CellSpec` cells and executes
each one — in-process when ``jobs == 1``, across a ``multiprocessing``
pool otherwise.  It is the one executor behind ``sweep_workload``, the
figure drivers and the ``repro sweep`` CLI, which rely on four
properties:

* **One simulation per content** — cells that differ only in their
  display label share a :meth:`~CellSpec.content_key` and are simulated
  once; each cell still gets its own, relabelled result.  Inside
  :func:`cell_cache_scope` the same holds across calls, at any ``jobs``.

* **Determinism** — a cell is a pure function of its spec: the worker
  rebuilds the workload DAG, cluster, and scheme from plain data, and
  any RNG seed derives from the cell's fingerprint, never from the
  process or submission order.  ``--jobs N`` is therefore bit-identical
  to ``--jobs 1`` (a tested invariant).
* **Failure isolation** — an exception inside a cell produces an error
  :class:`CellResult` (type, message, traceback) instead of killing the
  sweep; healthy cells complete and the summary reports the failures.
* **Resumability** — with a :class:`ResultStore`, each result persists
  atomically as it completes and later runs serve unchanged cells from
  disk, so an interrupted sweep recomputes only what it never finished
  and a completed sweep re-runs with zero recomputation.

Each cell with ``profile_store=True`` gets its *own* profile directory
(keyed by fingerprint) — cells never share one, because a stored MRD
profile from one configuration silently changes another configuration's
eviction behaviour (see ``tests/sweep/test_profile_isolation.py``).
"""

from __future__ import annotations

import json
import multiprocessing
import time
import traceback
from collections.abc import Callable, Iterator, Sequence
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, field, replace
from functools import lru_cache
from pathlib import Path

from repro.control.plane import RpcConfig
from repro.core.app_profiler import ProfileStore
from repro.dag.dag_builder import ApplicationDAG
from repro.simulator.config import CLUSTERS
from repro.simulator.metrics import RunMetrics
from repro.simulator.reporting import metrics_to_dict
from repro.sweep.spec import CellSpec
from repro.sweep.store import STATUS_ERROR, STATUS_OK, CellResult, ResultStore
from repro.workloads.base import WorkloadParams, WorkloadSpec

#: ``progress(done, total, result)`` — invoked after every cell.
ProgressFn = Callable[[int, int, CellResult], None]


class SweepError(RuntimeError):
    """Raised by :meth:`SweepOutcome.raise_on_error` when cells failed."""


def _build_cluster_config(cell: CellSpec):
    config = CLUSTERS[cell.cluster]
    if cell.cluster_overrides:
        config = replace(config, **dict(cell.cluster_overrides))
    return config


class CellScope:
    """Finished cells shared by every :func:`run_cells` call in a scope.

    Keyed by :meth:`CellSpec.content_key`.  A result is kept only as the
    JSON text of its metrics (a few KB per cell) and every hit decodes a
    fresh copy: callers relabel and may mutate what they get, and holding
    live results for a whole report would cost far more memory.
    """

    def __init__(self) -> None:
        self.blobs: dict[str, str] = {}
        #: Cells simulated, and cells served without simulating them.
        self.simulated = 0
        self.reused = 0


#: The scope every :func:`run_cells` call shares while one is open.
_scope: ContextVar[CellScope | None] = ContextVar("cell_scope", default=None)


@contextmanager
def cell_cache_scope() -> Iterator[CellScope]:
    """Share finished cells across every :func:`run_cells` call in the block.

    :func:`~repro.experiments.report.generate_report` holds one open, so
    a cell several figures need is simulated once at any job count.
    """
    scope = CellScope()
    token = _scope.set(scope)
    try:
        yield scope
    finally:
        _scope.reset(token)


@lru_cache(maxsize=1)
def workload_dag(spec: WorkloadSpec, params: WorkloadParams) -> ApplicationDAG:
    """The DAG ``spec`` builds from ``params``, memoised one deep.

    Consecutive cells of a sweep share one build, so they share its DAG
    and the engine plans compiled onto it.
    """
    # Through the module, so a wrapped ``build_dag`` sees every build.
    from repro.dag import dag_builder

    return dag_builder.build_dag(spec.build(params))


def simulate_cell(cell: CellSpec, profile_path: str | None = None) -> RunMetrics:
    """Run one cell to completion (pure function of the spec).

    The one recipe from a described run to its metrics: sweep cells,
    ``sweep_workload`` and ``repro run`` all come through here.
    """
    from repro.experiments.harness import cache_mb_for
    from repro.simulator.engine import simulate
    from repro.workloads.registry import get_workload

    params = WorkloadParams(
        scale=cell.scale,
        iterations=cell.iterations,
        partitions=(
            cell.partitions if cell.partitions is not None
            else WorkloadParams().partitions
        ),
        seed=cell.seed,
    )
    dag = workload_dag(get_workload(cell.workload), params)
    cluster = _build_cluster_config(cell)
    if cell.cache_mb is not None:
        cache_mb = cell.cache_mb
    else:
        assert cell.cache_fraction is not None
        cache_mb = cache_mb_for(dag, cell.cache_fraction, cluster)
    store = ProfileStore(path=Path(profile_path)) if profile_path else None
    scheme = cell.scheme_spec.build(profile_store=store)
    kwargs: dict = {"scheduler": cell.scheduler}
    if cell.placement != "stride":
        kwargs["placement"] = cell.placement
    if cell.churn_rate > 0:
        from repro.simulator.failures import build_churn_plan

        kwargs["failure_plan"] = build_churn_plan(
            len(dag.active_stages), cell.churn_rate, cell.derived_churn_seed()
        )
        kwargs["rebalance"] = cell.rebalance
    if cell.control_plane == "rpc":
        kwargs["control_plane"] = "rpc"
        kwargs["control_config"] = RpcConfig(
            latency_s=cell.control_latency,
            jitter_s=cell.control_jitter,
            loss_rate=cell.control_loss,
            seed=cell.derived_control_seed(),
        )
    metrics = simulate(dag, cluster.with_cache(cache_mb), scheme, **kwargs)
    # Cells are labeled by their grid key (e.g. "MRD-recurring"), which
    # may differ from the scheme's self-reported name.
    metrics.scheme = cell.scheme
    return metrics


def run_cell(cell: CellSpec, profile_path: str | None = None) -> CellResult:
    """Execute one cell, mapping any exception to an error result."""
    fingerprint = cell.fingerprint()
    start = time.perf_counter()
    try:
        metrics = simulate_cell(cell, profile_path)
    except Exception as exc:  # noqa: BLE001 - isolation is the point
        return CellResult(
            fingerprint=fingerprint,
            spec=cell.to_dict(),
            status=STATUS_ERROR,
            error={
                "type": type(exc).__name__,
                "message": str(exc),
                "traceback": traceback.format_exc(),
            },
            elapsed_s=time.perf_counter() - start,
        )
    return CellResult(
        fingerprint=fingerprint,
        spec=cell.to_dict(),
        status=STATUS_OK,
        metrics=metrics_to_dict(metrics),
        elapsed_s=time.perf_counter() - start,
    )


def _pool_entry(task: tuple[CellSpec, str | None]) -> CellResult:
    cell, profile_path = task
    return run_cell(cell, profile_path)


@dataclass
class SweepOutcome:
    """Everything one :func:`run_cells` invocation produced."""

    cells: list[CellSpec]
    #: One result per cell, in cell order (repeated fingerprints share one).
    results: list[CellResult]
    computed: int = 0
    cached: int = 0
    errors: int = 0
    elapsed_s: float = 0.0
    _by_fingerprint: dict = field(default_factory=dict, repr=False)

    def __post_init__(self) -> None:
        for result in self.results:
            self._by_fingerprint.setdefault(result.fingerprint, result)

    # ------------------------------------------------------------------
    def result_for(self, cell: CellSpec) -> CellResult:
        return self._by_fingerprint[cell.fingerprint()]

    def metrics_for(self, cell: CellSpec) -> RunMetrics:
        return self.result_for(cell).run_metrics()

    def error_results(self) -> list[CellResult]:
        return [r for r in self.results if not r.ok]

    def raise_on_error(self) -> None:
        """Fail loudly when any cell errored (drivers that need all cells)."""
        failed = self.error_results()
        if failed:
            lines = [
                f"  {CellSpec.from_dict(r.spec).label()}: {r.describe_error()}"
                for r in failed
            ]
            raise SweepError(
                f"{len(failed)}/{len(self.results)} sweep cell(s) failed:\n"
                + "\n".join(lines)
            )

    def stats_line(self) -> str:
        """`16 cells: 12 computed, 4 cached, 0 errors in 3.2s`."""
        return (
            f"{len(self.results)} cells: {self.computed} computed, "
            f"{self.cached} cached, {self.errors} errors "
            f"in {self.elapsed_s:.1f}s"
        )


def scheduler_mismatches(outcome: SweepOutcome) -> list[str]:
    """Cross-scheduler equivalence check over an outcome.

    Groups cells that differ only in their ``scheduler`` field and
    compares the stored metrics payloads — the event core and the
    reference core must be indistinguishable.  Returns one description
    per divergent group (empty list = all equivalent).
    """
    groups: dict[str, dict[str, dict | None]] = {}
    labels: dict[str, str] = {}
    for cell, result in zip(outcome.cells, outcome.results, strict=True):
        spec = cell.to_dict()
        spec.pop("scheduler")
        key = repr(sorted(spec.items()))
        labels.setdefault(key, cell.label())
        groups.setdefault(key, {})[cell.scheduler] = result.metrics
    mismatches = []
    for key, by_scheduler in groups.items():
        if len(by_scheduler) < 2:
            continue
        payloads = list(by_scheduler.values())
        if any(p != payloads[0] for p in payloads[1:]):
            mismatches.append(
                f"{labels[key]}: schedulers {sorted(by_scheduler)} disagree"
            )
    return mismatches


def _pool_context():
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context("fork" if "fork" in methods else "spawn")


def run_cells(
    cells: Sequence[CellSpec],
    jobs: int = 1,
    store: ResultStore | str | Path | None = None,
    resume: bool = True,
    progress: ProgressFn | None = None,
    external: bool = False,
    poll_s: float = 0.5,
    timeout_s: float | None = None,
) -> SweepOutcome:
    """Run every cell; return results in cell order.

    ``jobs`` bounds worker processes (1 = in-process, no pool).  Cells
    with one :meth:`~CellSpec.content_key` are simulated once and the
    result is relabelled for the others.  Inside :func:`cell_cache_scope`
    a cell an earlier call finished is served from the scope.  With a
    ``store``, every cell's fingerprint gets its own result file as soon
    as it settles and — when ``resume`` is true — previously stored
    *successful* results are served without recomputation; stored error
    results always retry (their stale profile directory is purged
    first, so the retry starts cold).

    With ``external=True`` nothing computes locally: the grid manifest
    is published into the ``store`` (which becomes mandatory) and this
    call blocks, polling every ``poll_s`` seconds, until external
    ``repro sweep --worker`` processes have settled every cell — the
    coordinator half of the distributed sweep service
    (:mod:`repro.sweep.service`).  Workers compute each published
    fingerprint.  ``timeout_s`` bounds the wait.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    if store is not None and not isinstance(store, ResultStore):
        store = ResultStore(store)
    if external:
        if store is None:
            raise ValueError("external workers need a shared --store directory")
        if not resume:
            raise ValueError(
                "external workers cannot run with resume disabled; "
                "reset the store instead"
            )
    cells = list(cells)
    start = time.perf_counter()
    scope = _scope.get()

    fingerprints = [cell.fingerprint() for cell in cells]
    #: content key -> {fingerprint: cell}, both in first-seen order.
    groups: dict[str, dict[str, CellSpec]] = {}
    for cell, fingerprint in zip(cells, fingerprints):
        key = fingerprint if external else cell.content_key()
        groups.setdefault(key, {}).setdefault(fingerprint, cell)

    results: dict[str, CellResult] = {}
    #: Fingerprints whose stored result file is already the right one.
    on_disk: set[str] = set()
    #: The cell that computes each pending content key, by fingerprint.
    key_of: dict[str, str] = {}
    tasks: list[tuple[CellSpec, str | None]] = []
    total = sum(len(members) for members in groups.values())
    done = 0

    def settle(key: str, source: CellResult, computed: bool) -> None:
        """Give every cell of ``key``'s group its result, store, report."""
        nonlocal done
        if scope is not None and source.ok and key not in scope.blobs:
            scope.blobs[key] = json.dumps(source.metrics)
        for fingerprint, cell in groups[key].items():
            result = _relabelled(source, fingerprint, cell)
            result.cached = result is not source or not computed
            results[fingerprint] = result
            if store is not None and fingerprint not in on_disk:
                store.put(result)
            done += 1
            if progress is not None:
                progress(done, total, result)

    for key, members in groups.items():
        stored: list[CellResult] = []
        if store is not None and resume:
            stored = [hit for hit in map(store.get, members) if hit is not None and hit.ok]
            on_disk.update(hit.fingerprint for hit in stored)
        blob = scope.blobs.get(key) if scope is not None else None
        if blob is not None:
            # Matches no fingerprint, so every cell gets a relabelled copy.
            source = CellResult("", {}, STATUS_OK, metrics=json.loads(blob))
            settle(key, source, computed=False)
            continue
        if stored:
            settle(key, stored[0], computed=False)
            continue
        cell = next(iter(members.values()))
        profile_path: str | None = None
        if cell.profile_store and not external:
            if store is None:
                raise ValueError(
                    f"cell {cell.label()} wants a file-backed profile store, "
                    "but the sweep has no result store directory"
                )
            # The cell is about to recompute: purge any profile a prior
            # run of this fingerprint left behind (cross-run MRD profile
            # leakage — the result must be a pure function of the spec).
            store.reset_profiles(cell.fingerprint())
            profile_path = str(store.profile_path(cell.fingerprint()))
        key_of[cell.fingerprint()] = key
        tasks.append((cell, profile_path))

    if tasks and external:
        from repro.sweep.service import publish_manifest

        assert isinstance(store, ResultStore)
        publish_manifest(store, cells)
        waiting = [cell for cell, _ in tasks]
        deadline = None if timeout_s is None else start + timeout_s
        while waiting:
            still_waiting = []
            for cell in waiting:
                result = store.get(cell.fingerprint())
                if result is None:
                    still_waiting.append(cell)
                    continue
                on_disk.add(result.fingerprint)
                settle(key_of[result.fingerprint], result, computed=True)
            waiting = still_waiting
            if not waiting:
                break
            if deadline is not None and time.perf_counter() > deadline:
                raise TimeoutError(
                    f"gave up waiting for external workers after {timeout_s:g}s "
                    f"({len(waiting)} cell(s) unsettled; is a worker running "
                    f"against {store.root}?)"
                )
            time.sleep(poll_s)
    elif tasks:
        if jobs == 1:
            for task in tasks:
                result = _pool_entry(task)
                settle(key_of[result.fingerprint], result, computed=True)
        else:
            ctx = _pool_context()
            pool = ctx.Pool(processes=min(jobs, len(tasks)))
            try:
                for result in pool.imap_unordered(_pool_entry, tasks, chunksize=1):
                    settle(key_of[result.fingerprint], result, computed=True)
                pool.close()
            except BaseException:
                pool.terminate()
                raise
            finally:
                pool.join()

    if scope is not None:
        scope.simulated += len(tasks)
        scope.reused += len(cells) - len(tasks)
    ordered = [results[fp] for fp in fingerprints]
    return SweepOutcome(
        cells=cells,
        results=ordered,
        computed=len(tasks),
        cached=sum(1 for r in results.values() if r.cached),
        errors=sum(1 for r in results.values() if not r.ok),
        elapsed_s=time.perf_counter() - start,
    )


def _relabelled(source: CellResult, fingerprint: str, cell: CellSpec) -> CellResult:
    """``source`` as the result of ``cell``: its fingerprint, spec and label."""
    if source.fingerprint == fingerprint:
        return source
    metrics = source.metrics
    if metrics is not None:
        metrics = dict(metrics, scheme=cell.scheme)
    return CellResult(
        fingerprint=fingerprint, spec=cell.to_dict(), status=source.status,
        metrics=metrics, error=source.error, elapsed_s=source.elapsed_s,
    )
