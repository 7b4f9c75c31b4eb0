"""Benchmark entry point.

Usage, from the repository root::

    python3 perfbench/run.py --workload paper-report --seed 1 --seconds 20 --trace 0

``--trace 0`` prints every end-to-end metric, ``--trace 1`` every
per-layer metric of a traced run.  Human-readable lines come first; the
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Each run also
writes a record (and, when traced, its spans) under ``.perfbench/`` for
``perfbench/compare.py``.  The program is imported from ``src/`` next to
this directory; without it the benchmark exits with status 2.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", type=Path, default=ROOT / ".perfbench",
                    help="directory for run records and traces")
    return ap.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program to measure: {SRC / 'repro'} is missing",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(ROOT)]
    from perfbench import checks, harness
    from perfbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    for module in wl.modules:
        importlib.import_module(module)

    run = harness.Run(wl, args.seed, args.seconds, SRC)
    uninstall = checks.install_cell_hooks(run.log)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}-{stamp}-{os.getpid()}"
    metrics: dict[str, float] = {}
    problems: list[str] = []
    units = harness.metric_units("per_layer" if args.trace else "end_to_end")
    try:
        if args.trace:
            metrics, problems = run.traced(args.out / "traces" / f"{tag}.json")
        else:
            metrics = run.measure()
    except Exception as exc:  # the program failed: report, do not hide
        traceback.print_exc()
        problems.append(f"run aborted: {type(exc).__name__}: {exc}")
    finally:
        uninstall()
    if metrics and set(metrics) != set(units):
        problems.append("measured metrics differ from BENCHMARK.json's: "
                        f"unlisted {sorted(set(metrics) - set(units))}, "
                        f"unmeasured {sorted(set(units) - set(metrics))}")
    units = {name: unit for name, unit in units.items() if name in metrics}

    digests = set(run.digests)
    if len(digests) > 1:
        problems.append(f"result_digest differs between units of one run: {sorted(digests)}")
    problems.extend(run.log.failures)
    log = run.log
    attempted = max(log.cells_attempted, 1)
    correct = not problems and log.cells_failed == 0 and len(units) > 0

    print(f"workload: {args.workload}  seed: {args.seed}"
          + ("" if wl.seeded else " (unused: inputs fixed by the paper workloads)"))
    for note in run.notes:
        print(note)
    digest = run.digests[-1] if run.digests else "none"
    print(f"result_digest: {digest}")
    print(f"cells: attempted {log.cells_attempted}, failed {log.cells_failed}, "
          f"failed_frac {log.cells_failed / attempted:.4f}")
    text = next((o for o in run.outputs if isinstance(o, str)), None)
    if text is not None:
        sha = hashlib.sha256(text.encode()).hexdigest()
        committed = ROOT / "paper_report.md"
        same = committed.is_file() and committed.read_text() == text
        print(f"report sha256: {sha}  matches committed paper_report.md: "
              f"{'yes' if same else 'no'}")
        for line in harness.paper_headline(text):
            print(f"headline: {line}")
    for problem in problems:
        print(f"PROBLEM: {problem}")
    for name, unit in units.items():
        print(f"{name}: {metrics[name]!r} {unit}")

    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": log.cells_failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }
    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "result_digest": digest, "problems": problems,
        "notes": run.notes, "raw": run.raw, "result": result,
    }
    records = args.out / "records"
    records.mkdir(parents=True, exist_ok=True)
    (records / f"{tag}.json").write_text(json.dumps(record, indent=1))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
