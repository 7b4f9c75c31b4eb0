"""Span tracing of the simulator's layers, installed from outside.

Nothing under ``src/`` knows about this module.  :func:`install` replaces
the public entry points of each layer (class methods and module-level
functions) with timing wrappers and returns a function that puts the
originals back.

Every wrapped call is a span: layer name, start, end, parent span and
the simulation cell it ran in (one id per ``SparkSimulator.run`` or
``MultiTenantSimulator.run``).  Self time is a span's duration minus the
time its child spans cover.  Coarse spans (cells, DAG builds, workload
builds, experiment drivers) are kept one by one; the hot-path layers
(block store, policies, control plane, MRD core) run millions of times
per workload, so their spans are folded into per-(layer, cell) call
counts and self times as they close.  Both are held in memory and
written out once, by :meth:`Tracer.dump`.
"""

from __future__ import annotations

import functools
import json
import sys
from pathlib import Path
from time import perf_counter

#: Layers whose spans are kept individually (everything else is folded).
COARSE = frozenset({
    "simulator.run", "tenancy.run", "experiments", "dag.build_dag",
    "dag.peak_live", "workloads.build",
})
#: Layers that open a simulation cell when no cell is open yet.
CELL_ROOTS = frozenset({"simulator.run", "tenancy.run"})


class Tracer:
    """In-memory span sink with a call stack for self-time accounting."""

    def __init__(self) -> None:
        #: Open frames: [name, start, child_seconds, span_id].
        self.stack: list[list] = []
        #: (name, cell) -> [calls, self_seconds]
        self.agg: dict[tuple[str, int], list] = {}
        #: Coarse spans: (id, name, start, end, parent_id, cell).
        self.spans: list[tuple] = []
        #: Extra per-name counters fed by result hooks (e.g. victims).
        self.counters: dict[str, int] = {}
        self.cell = 0
        self._cells = 0

    def exclude(self, seconds: float) -> None:
        """Drop ``seconds`` of benchmark bookkeeping from the open span."""
        if self.stack:
            self.stack[-1][2] += seconds

    def totals(self) -> dict[str, list]:
        """Calls and self seconds per layer name, summed over cells."""
        out: dict[str, list] = {}
        for (name, _cell), (calls, self_s) in self.agg.items():
            tot = out.setdefault(name, [0, 0.0])
            tot[0] += calls
            tot[1] += self_s
        return out

    def dump(self, path: Path) -> None:
        """Write spans and per-cell aggregates as one JSON document."""
        path.parent.mkdir(parents=True, exist_ok=True)
        doc = {
            "spans": [
                {"id": s[0], "name": s[1], "start": s[2], "end": s[3],
                 "parent": s[4], "cell": s[5]}
                for s in self.spans
            ],
            "per_cell": [
                {"name": name, "cell": cell, "calls": v[0], "self_s": v[1]}
                for (name, cell), v in sorted(self.agg.items())
            ],
            "counters": self.counters,
        }
        path.write_text(json.dumps(doc))

    # ------------------------------------------------------------------
    def wrap(self, name: str, fn, on_result=None, fold: bool = False):
        """Timing wrapper for ``fn`` reporting under layer ``name``.

        With ``fold``, a call made while a span of the same name is
        innermost (a ``super()`` chain, or ``simulate`` calling ``run``)
        is folded into that span instead of opening a new one.
        """
        stack = self.stack
        agg = self.agg
        coarse = name in COARSE
        cell_root = name in CELL_ROOTS
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if fold and stack and stack[-1][0] == name:
                return fn(*args, **kwargs)
            parent = stack[-1] if stack else None
            prev_cell = tracer.cell
            if cell_root and prev_cell == 0:
                tracer._cells += 1
                tracer.cell = tracer._cells
            span_id = len(tracer.spans) + 1 if coarse else (parent[3] if parent else 0)
            if coarse:
                # Reserve the slot so child coarse spans get later ids.
                tracer.spans.append(None)
            frame = [name, 0.0, 0.0, span_id]
            stack.append(frame)
            frame[1] = start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                dur = end - start
                cell = tracer.cell
                key = (name, cell)
                slot = agg.get(key)
                if slot is None:
                    agg[key] = [1, dur - frame[2]]
                else:
                    slot[0] += 1
                    slot[1] += dur - frame[2]
                if parent is not None:
                    parent[2] += dur
                if coarse:
                    tracer.spans[span_id - 1] = (
                        span_id, name, start, end, parent[3] if parent else 0, cell,
                    )
                tracer.cell = prev_cell
            if on_result is not None:
                on_result(tracer, result)
            return result

        wrapper.__perfbench_original__ = fn
        return wrapper


def _count_victims(tracer: Tracer, victims) -> None:
    if victims is not None:
        tracer.counters["victims"] = tracer.counters.get("victims", 0) + len(victims)


def _subclasses(cls) -> list:
    seen = [cls]
    for sub in cls.__subclasses__():
        for c in _subclasses(sub):
            if c not in seen:
                seen.append(c)
    return seen


class _Patcher:
    """Records every replaced attribute so it can be put back."""

    def __init__(self) -> None:
        #: (owner, attr, previous own value or _INHERITED)
        self.undo: list[tuple[object, str, object]] = []

    def set(self, owner, attr: str, value) -> None:
        self.undo.append((owner, attr, vars(owner).get(attr, _INHERITED)))
        setattr(owner, attr, value)

    def restore(self) -> None:
        for owner, attr, old in reversed(self.undo):
            if old is _INHERITED:
                delattr(owner, attr)
            else:
                setattr(owner, attr, old)
        self.undo.clear()

    def method(self, tracer: Tracer, cls, attr: str, name: str, on_result=None,
               fold: bool = False) -> None:
        """Wrap ``cls.attr`` (own or inherited) on ``cls`` itself."""
        self.set(cls, attr, tracer.wrap(name, getattr(cls, attr), on_result, fold))

    def function(self, tracer: Tracer, fn, name: str, fold: bool = False) -> None:
        """Wrap a module-level function everywhere it was imported."""
        wrapped = tracer.wrap(name, fn, fold=fold)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not mod_name.startswith("repro"):
                continue
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    self.set(mod, attr, wrapped)


_INHERITED = object()


def install(tracer: Tracer):
    """Wrap every layer's public entry points; returns the undo function.

    Imports the modules it wraps, so call it after the workload's own
    imports and before the traced work starts.
    """
    import repro.experiments as experiments_pkg
    from repro.cluster.block_manager import BlockManager
    from repro.cluster.memory_store import MemoryStore
    from repro.control.plane import InstantControlPlane, RpcControlPlane
    from repro.core.manager import MrdManager
    from repro.core.mrd_table import MrdTable
    from repro.dag import analysis as dag_analysis
    from repro.dag import dag_builder
    from repro.experiments import harness, report
    from repro.policies.base import EvictionPolicy
    from repro.simulator import engine
    from repro.tenancy import engine as tenancy_engine
    from repro.tenancy.arbitration import ArbitratedNodePolicy
    from repro.workloads import base as workloads_base
    from repro.workloads import synthetic

    p = _Patcher()
    # simulator
    p.method(tracer, engine.SparkSimulator, "run", "simulator.run", fold=True)
    p.function(tracer, engine.simulate, "simulator.run", fold=True)
    # cluster
    for fn in ("access", "record_buffered_hit", "insert_cached",
               "promote_from_disk", "purge_block"):
        p.method(tracer, BlockManager, fn, f"cluster.{fn}")
    p.method(tracer, MemoryStore, "put", "cluster.put")
    p.method(tracer, MemoryStore, "remove", "cluster.remove")
    # policies (every concrete class) and tenancy arbitration
    for cls in _subclasses(EvictionPolicy):
        if issubclass(cls, ArbitratedNodePolicy):
            continue
        if "select_victims" in vars(cls):
            p.method(tracer, cls, "select_victims", "policies.select_victims",
                     _count_victims, fold=True)
        for attr in ("admit_over", "admit_prefetch_over"):
            if attr in vars(cls):
                p.method(tracer, cls, attr, "policies.admit_over", fold=True)
    p.method(tracer, ArbitratedNodePolicy, "select_victims", "tenancy.arbitrated_select")
    p.method(tracer, ArbitratedNodePolicy, "admit_over", "tenancy.arbitrated_admit")
    p.method(tracer, ArbitratedNodePolicy, "admit_prefetch_over",
             "tenancy.arbitrated_admit")
    p.method(tracer, tenancy_engine.MultiTenantSimulator, "run", "tenancy.run")
    # core
    p.method(tracer, MrdManager, "on_stage_start", "core.on_stage_start")
    p.method(tracer, MrdManager, "on_cache_status", "core.on_cache_status")
    p.method(tracer, MrdTable, "advance", "core.advance")
    # control: concrete planes; send_local is the bootstrap send and is
    # counted with send so calls match the planes' own ``sent`` counter.
    for cls in (InstantControlPlane, RpcControlPlane):
        p.method(tracer, cls, "send", "control.send")
        p.method(tracer, cls, "send_local", "control.send")
        p.method(tracer, cls, "pump", "control.pump")
    # dag / workloads
    p.function(tracer, dag_builder.build_dag, "dag.build_dag")
    p.function(tracer, dag_analysis.peak_live_cached_mb, "dag.peak_live")
    p.method(tracer, workloads_base.WorkloadSpec, "build", "workloads.build")
    p.function(tracer, synthetic.generate_application, "workloads.build")
    # experiments: the report, the sweep harness and every driver's run/render
    p.function(tracer, report.generate_report, "experiments")
    p.function(tracer, harness.sweep_workload, "experiments")
    for mod_name, mod in list(sys.modules.items()):
        if not mod_name.startswith(experiments_pkg.__name__ + ".") or mod is None:
            continue
        if mod is harness or mod is report:
            continue
        for attr in ("run", "render"):
            fn = vars(mod).get(attr)
            if callable(fn) and not hasattr(fn, "__perfbench_original__"):
                p.function(tracer, fn, "experiments")
    return p.restore
