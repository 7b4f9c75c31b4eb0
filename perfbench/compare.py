"""Compare two sets of benchmark runs, workload by workload.

Usage::

    python3 perfbench/compare.py BASE NEW     # two result sets
    python3 perfbench/compare.py RUNS         # one set: medians and spreads

A result set is a directory holding run records (``run.py`` writes one
per run under ``<out>/records/``; any ``*.json`` record below the given
directory is read).  For every workload it prints:

* each end-to-end metric's median and quartiles per set, the change of
  the median as a share of the base median, and that change against the
  metric's bound from ``BENCHMARK.json`` (``worse`` when it exceeds it);
* the medians of the uncalibrated host seconds and of the calibration
  factors beside them, so that a delta can be told apart from a change
  of the host-speed probe;
* per-layer call counts as exact deltas and per-layer self times as
  deltas of their medians, from the traced runs;
* whether ``result_digest`` changed for any seed run in both sets.

With one set it prints medians, quartiles and each metric's spread
(quartile distance over the median) against its bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(path: Path) -> dict:
    """workload -> {"plain": [records], "traced": [records]}."""
    sets: dict = defaultdict(lambda: {"plain": [], "traced": []})
    files = [path] if path.is_file() else sorted(path.rglob("*.json"))
    for f in files:
        try:
            rec = json.loads(f.read_text())
        except (OSError, ValueError):
            continue
        if not isinstance(rec, dict) or "workload" not in rec or "result" not in rec:
            continue
        sets[rec["workload"]]["traced" if rec["trace"] else "plain"].append(rec)
    return sets


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def metric_values(records: list[dict]) -> dict[str, list[float]]:
    out: dict[str, list[float]] = defaultdict(list)
    for rec in records:
        for name, m in rec["result"]["metrics"].items():
            out[name].append(m["value"])
    return out


def raw_values(records: list[dict]) -> dict[str, list[float]]:
    """Uncalibrated host seconds and calibration factors, per field."""
    out: dict[str, list[float]] = defaultdict(list)
    for rec in records:
        for name, value in rec.get("raw", {}).items():
            out[name].append(value)
    return out


def metric_units(records: list[dict]) -> dict[str, str]:
    return {name: m["unit"] for rec in records for name, m in rec["result"]["metrics"].items()}


def bounds() -> dict[str, dict]:
    bench = ROOT / "BENCHMARK.json"
    if not bench.is_file():
        return {}
    return {m["name"]: m for m in json.loads(bench.read_text())["end_to_end"]}


def _fmt(v: float) -> str:
    return f"{v:.6g}"


def summarize(sets: dict) -> None:
    spec = bounds()
    for workload in sorted(sets):
        plain = sets[workload]["plain"]
        print(f"== {workload} ({len(plain)} runs) ==")
        for metric, values in metric_values(plain).items():
            q1, med, q3 = quartiles(values)
            spread = (q3 - q1) / med if med else 0.0
            bound = spec.get(metric, {}).get("bound")
            note = "" if bound is None else (
                f"  bound {bound}  {'ok' if spread <= bound / 3 else 'WIDE'} "
                f"(spread/bound {spread / bound:.2f})"
            )
            print(f"  {metric:18s} median {_fmt(med):>12s}  q1 {_fmt(q1):>12s}  "
                  f"q3 {_fmt(q3):>12s}  spread {spread:.3f}{note}")
        for name, values in raw_values(plain).items():
            q1, med, q3 = quartiles(values)
            print(f"  raw {name:14s} median {_fmt(med):>12s}  q1 {_fmt(q1):>12s}  "
                  f"q3 {_fmt(q3):>12s}")
        digests = {(r["seed"], r["result_digest"]) for r in plain + sets[workload]["traced"]}
        per_seed = defaultdict(set)
        for seed, d in digests:
            per_seed[seed].add(d)
        unstable = [s for s, ds in per_seed.items() if len(ds) > 1]
        print(f"  result_digest: {len(per_seed)} seeds, "
              + ("identical per seed" if not unstable else f"DIFFERS for seeds {unstable}"))
        bad = [r for r in plain + sets[workload]["traced"] if not r["result"]["correct"]]
        if bad:
            print(f"  INCORRECT runs: {len(bad)}")


def compare(base: dict, new: dict) -> int:
    spec = bounds()
    worse = 0
    for workload in sorted(set(base) | set(new)):
        print(f"== {workload} ==")
        if workload not in base or workload not in new:
            print("  only in one set")
            continue
        b_vals = metric_values(base[workload]["plain"])
        n_vals = metric_values(new[workload]["plain"])
        for metric in b_vals:
            if metric not in n_vals:
                print(f"  {metric}: missing in new set")
                continue
            bq = quartiles(b_vals[metric])
            nq = quartiles(n_vals[metric])
            delta = (nq[1] - bq[1]) / bq[1] if bq[1] else 0.0
            m = spec.get(metric, {})
            bound = m.get("bound")
            sign = 1.0 if m.get("better", "lower") == "lower" else -1.0
            verdict = ""
            if bound is not None:
                if sign * delta > bound:
                    verdict = "WORSE beyond bound"
                    worse += 1
                elif sign * delta < 0:
                    verdict = "better"
                else:
                    verdict = "within bound"
            print(f"  {metric:18s} base {_fmt(bq[1])} [{_fmt(bq[0])}, {_fmt(bq[2])}]  "
                  f"new {_fmt(nq[1])} [{_fmt(nq[0])}, {_fmt(nq[2])}]  "
                  f"delta {delta:+.3%}  bound {bound}  {verdict}")
        b_raw = raw_values(base[workload]["plain"])
        n_raw = raw_values(new[workload]["plain"])
        for name in b_raw:
            if name not in n_raw:
                continue
            b, n = statistics.median(b_raw[name]), statistics.median(n_raw[name])
            delta = (n - b) / b if b else 0.0
            print(f"  raw {name:14s} base {_fmt(b)}  new {_fmt(n)}  delta {delta:+.3%}  "
                  "(uncalibrated)")
        bt = metric_values(base[workload]["traced"])
        nt = metric_values(new[workload]["traced"])
        if bt and nt:
            units = metric_units(base[workload]["traced"])
            print("  per-layer (traced runs):")
            for metric in bt:
                if metric not in nt:
                    print(f"    {metric}: missing in new set")
                    continue
                b, n = statistics.median(bt[metric]), statistics.median(nt[metric])
                if units[metric] == "count":
                    print(f"    {metric:36s} {b:>12.0f} -> {n:>12.0f}  delta {n - b:+.0f}")
                else:
                    print(f"    {metric:36s} {_fmt(b):>12s} -> {_fmt(n):>12s}  "
                          f"delta {n - b:+.6g}")
        b_dig = {(r["seed"], r["result_digest"])
                 for r in base[workload]["plain"] + base[workload]["traced"]}
        n_dig = {(r["seed"], r["result_digest"])
                 for r in new[workload]["plain"] + new[workload]["traced"]}
        seeds = {s for s, _ in b_dig} & {s for s, _ in n_dig}
        changed = sorted(s for s in seeds
                         if {d for t, d in b_dig if t == s} != {d for t, d in n_dig if t == s})
        print("  result_digest: "
              + (f"CHANGED for seeds {changed}" if changed else
                 f"unchanged on {len(seeds)} common seed(s)"))
    return 1 if worse else 0


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description="Compare benchmark result sets.")
    ap.add_argument("sets", nargs="+", type=Path, help="one or two result directories")
    args = ap.parse_args(argv)
    if len(args.sets) == 1:
        summarize(load(args.sets[0]))
        return 0
    if len(args.sets) != 2:
        ap.error("give one or two result sets")
    return compare(load(args.sets[0]), load(args.sets[1]))


if __name__ == "__main__":
    sys.exit(main())
