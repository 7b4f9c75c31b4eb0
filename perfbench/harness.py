"""Run one workload: set-up samples, measured units, checks, metrics.

A run first times ``SETUP_REPEATS`` set-ups, each the import of the
workload's modules in a fresh interpreter plus the in-process
``prepare(seed)``.  It then repeats *units* -- a timed ``execute`` of
the inputs of one more, untimed, ``prepare`` -- while another unit still
fits in the run's seconds, and at least once.  End-to-end metrics are
medians over the samples.

The traced mode runs one untraced unit, then installs the tracer and
runs one traced unit (a fresh ``prepare`` included, so the set-up's DAG
and workload builds are traced), and reports the per-layer metrics of
that unit.

Every reported time is calibrated to the nominal host speed (see
:mod:`perfbench.hostspeed`).  The raw host seconds and the calibration
factors are kept beside them in :attr:`Run.raw`.

Metric names and units are the ones ``BENCHMARK.json`` lists.
"""

from __future__ import annotations

import json
import os
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from perfbench import checks, tracer
from perfbench.hostspeed import PROBE_NOMINAL_S, HostSpeed

#: Set-ups timed per run (setup_s is their median).
SETUP_REPEATS = 5

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"

_CLUSTER_FNS = ("access", "record_buffered_hit", "insert_cached",
                "promote_from_disk", "purge_block", "put", "remove")
_CORE_FNS = ("on_stage_start", "advance", "on_cache_status")


def metric_units(kind: str) -> dict[str, str]:
    """Name -> unit of the ``end_to_end`` or ``per_layer`` metrics, in
    ``BENCHMARK.json``'s order."""
    return {m["name"]: m["unit"] for m in json.loads(BENCHMARK.read_text())[kind]}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def time_import(modules: tuple[str, ...], src: Path) -> float:
    """Seconds to import ``modules`` in a fresh interpreter."""
    code = (
        "import time; t = time.perf_counter()\n"
        + "".join(f"import {m}\n" for m in modules)
        + "print(repr(time.perf_counter() - t))"
    )
    env = dict(os.environ, PYTHONPATH=str(src))
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True,
        timeout=120, check=True,
    )
    return float(out.stdout.strip().splitlines()[-1])


def tail(values: list[float], q: int = 98) -> tuple[float, bool]:
    """The ``q``-th percentile, and whether it is estimable.

    A percentile is estimable when at least ten samples lie beyond it.
    When it is not, the median stands in: the run's few slowest cells are
    set by its seed, not by the program's speed.
    """
    if len(values) * (100 - q) / 100 < 10:
        return statistics.median(values), False
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1], True


class Run:
    """State and results of one benchmark invocation."""

    def __init__(self, workload, seed: int, seconds: float, src: Path) -> None:
        self.wl = workload
        self.seed = seed
        self.seconds = seconds
        self.src = src
        self.speed = HostSpeed()
        self.log = checks.CellLog(self.speed)
        self.digests: list[str] = []
        self.notes: list[str] = []
        self.outputs: list[object] = []
        #: Uncalibrated host seconds and calibration factors, for the record.
        self.raw: dict[str, float] = {}

    # ------------------------------------------------------------------
    def unit(self, inputs=None, trace: tracer.Tracer | None = None) -> dict:
        """Execute once (after an untimed ``prepare`` when no ``inputs``
        are given); returns the unit's calibrated timings."""
        log, speed = self.log, self.speed
        uninstall = None
        if trace is not None:
            uninstall = tracer.install(trace)
            log.tracer = speed.tracer = trace
        first = len(speed.samples)
        try:
            with speed.sampling():
                if inputs is None:
                    inputs = self.wl.prepare(self.seed)
                log.begin_unit()
                probed = speed.spent_s
                t0 = perf_counter()
                out = self.wl.execute(self.seed, inputs)
                wall = (perf_counter() - t0 - log.unit_bookkeeping_s
                        - (speed.spent_s - probed))
        finally:
            if uninstall is not None:
                uninstall()
                log.tracer = speed.tracer = None
        speed.sample()
        factor = speed.factor(first)
        self.outputs.append(out)
        self.digests.append(log.unit_digest.hexdigest())
        return {
            "wall_s": wall / factor,
            "raw_wall_s": wall,
            "factor": factor,
            "cell_s": [c / factor for c in log.unit_cell_s],
            "counters": dict(log.unit_counters),
        }

    def setup(self) -> tuple[float, float, float]:
        """One timed set-up: calibrated seconds, raw seconds, factor."""
        first = len(self.speed.samples)
        self.speed.sample(2)
        t_import = time_import(self.wl.modules, self.src)
        t0 = perf_counter()
        self.wl.prepare(self.seed)
        raw = t_import + perf_counter() - t0
        self.speed.sample(2)
        factor = self.speed.factor(first)
        return raw / factor, raw, factor

    def measure(self) -> dict:
        """Untraced run: set-up samples, then units for ``seconds``."""
        setups = [self.setup() for _ in range(SETUP_REPEATS)]
        # Built once more, untimed, so that only one set of inputs is ever
        # alive: peak_rss_mb counts one DAG per application.
        inputs = self.wl.prepare(self.seed)
        units: list[dict] = []
        start = perf_counter()
        while True:
            t0 = perf_counter()
            units.append(self.unit(inputs))
            per_unit = perf_counter() - t0
            if perf_counter() - start + per_unit > self.seconds:
                break
        cells = [c for u in units for c in u["cell_s"]]
        p98, estimable = tail(cells)
        metrics = {
            "wall_s": statistics.median(u["wall_s"] for u in units),
            "setup_s": statistics.median(s[0] for s in setups),
            "sim_tasks_per_s": statistics.median(
                u["counters"]["sim_tasks"] / u["wall_s"] for u in units),
            "cell_s.p50": statistics.median(cells),
            "cell_s.p98": p98,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        self.raw = {
            "wall_s": statistics.median(u["raw_wall_s"] for u in units),
            "setup_s": statistics.median(s[1] for s in setups),
            "wall_factor": statistics.median(u["factor"] for u in units),
            "setup_factor": statistics.median(s[2] for s in setups),
            "probe_table_mb": self.speed.probe.table_mb,
        }
        self.notes.append(
            "host speed: probe median "
            f"{statistics.median(self.speed.samples) * 1e3:.3f} ms over "
            f"{len(self.speed.samples)} samples (nominal {PROBE_NOMINAL_S * 1e3:g} ms); "
            + "; ".join(f"raw {k} {v!r}" for k, v in self.raw.items())
        )
        self.notes.append(
            f"units: {len(units)}; cells: {len(cells)}; setup samples: {len(setups)}; "
            + ("cell_s.p98 has at least 10 cells beyond it" if estimable else
               "fewer than 10 cells beyond p98: cell_s.p98 reports the median")
        )
        return metrics

    def traced(self, trace_path: Path) -> tuple[dict, list[str]]:
        """One untraced and one traced unit; per-layer metrics."""
        plain = self.unit()
        trace = tracer.Tracer()
        traced = self.unit(trace=trace)
        trace.dump(trace_path)
        totals = trace.totals()
        c = traced["counters"]
        f = traced["factor"]
        self.raw = {
            "untraced_wall_s": plain["raw_wall_s"],
            "untraced_factor": plain["factor"],
            "traced_wall_s": traced["raw_wall_s"],
            "traced_factor": f,
            "probe_table_mb": self.speed.probe.table_mb,
        }
        self.notes.append("; ".join(f"raw {k} {v!r}" for k, v in self.raw.items()))

        def calls(name: str) -> int:
            return totals.get(name, [0, 0.0])[0]

        def self_s(name: str) -> float:
            return totals.get(name, [0, 0.0])[1] / f

        sim_tasks = c["standalone_tasks"]
        m: dict[str, float] = {
            "simulator.runs": calls("simulator.run"),
            "simulator.tasks": sim_tasks,
            "simulator.self_s": self_s("simulator.run"),
            "simulator.self_us_per_task": _ratio(self_s("simulator.run") * 1e6, sim_tasks),
        }
        for fn in _CLUSTER_FNS:
            m[f"cluster.{fn}.calls"] = calls(f"cluster.{fn}")
            m[f"cluster.{fn}.self_s"] = self_s(f"cluster.{fn}")
        m["cluster.hit_ratio"] = _ratio(c["hits"], c["hits"] + c["misses"])
        m["cluster.put_failed_frac"] = _ratio(
            c["failed_insertions"], c["insertions"] + c["failed_insertions"])
        m["policies.select_victims.calls"] = calls("policies.select_victims")
        m["policies.select_victims.self_s"] = self_s("policies.select_victims")
        m["policies.admit_over.calls"] = calls("policies.admit_over")
        m["policies.admit_over.self_s"] = self_s("policies.admit_over")
        m["policies.victims_per_select"] = _ratio(
            trace.counters.get("victims", 0), calls("policies.select_victims"))
        for fn in _CORE_FNS:
            m[f"core.{fn}.calls"] = calls(f"core.{fn}")
            m[f"core.{fn}.self_s"] = self_s(f"core.{fn}")
        m["core.prefetch_used_frac"] = _ratio(c["prefetches_used"], c["prefetches_issued"])
        for fn in ("send", "pump"):
            m[f"control.{fn}.calls"] = calls(f"control.{fn}")
            m[f"control.{fn}.self_s"] = self_s(f"control.{fn}")
        m["control.dropped_frac"] = _ratio(c["dropped"], c["sent"])
        m["control.stale_frac"] = _ratio(c["stale_orders"], c["delivered"])
        m["control.order_delay_s"] = _ratio(c["order_delay_total"], c["orders_applied"])
        m["dag.build_dag.calls"] = calls("dag.build_dag")
        m["dag.build_dag.self_s"] = self_s("dag.build_dag")
        m["dag.peak_live.self_s"] = self_s("dag.peak_live")
        m["workloads.build.self_s"] = self_s("workloads.build")
        m["tenancy.self_s"] = self_s("tenancy.run")
        m["tenancy.arbitrated_select.calls"] = calls("tenancy.arbitrated_select")
        m["tenancy.arbitrated_select.self_s"] = self_s("tenancy.arbitrated_select")
        m["tenancy.arbitrated_admit.calls"] = calls("tenancy.arbitrated_admit")
        m["experiments.self_s"] = self_s("experiments")
        m["trace.overhead_frac"] = traced["wall_s"] / plain["wall_s"] - 1.0
        consistency = self_consistency(totals, c, self.digests[-2], self.digests[-1])
        return m, consistency


def self_consistency(totals: dict, counters: dict, plain_digest: str,
                     traced_digest: str) -> list[str]:
    """Wrapped call counts must equal the program's own counters.

    A hot loop that reaches a layer through a reference the tracer did
    not wrap shows up here as a count mismatch.
    """
    bad = []
    reads = (totals.get("cluster.access", [0])[0]
             + totals.get("cluster.record_buffered_hit", [0])[0])
    if reads != counters["hits"] + counters["misses"]:
        bad.append(f"cluster.access + record_buffered_hit calls {reads} != "
                   f"hits + misses {counters['hits'] + counters['misses']}")
    sends = totals.get("control.send", [0])[0]
    if sends != counters["sent"]:
        bad.append(f"control.send calls {sends} != control sent {counters['sent']}")
    if plain_digest != traced_digest:
        bad.append("traced result_digest differs from the untraced one")
    return bad


def paper_headline(text: str) -> list[str]:
    """The report's headline model numbers beside the paper's."""
    lines = []
    in_summary = False
    for line in text.splitlines():
        if line.startswith("## Headline summary"):
            in_summary = True
            continue
        if in_summary and line.startswith("- "):
            lines.append(line[2:].replace("**", ""))
    return lines
