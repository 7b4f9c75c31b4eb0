"""Golden pin of ``repro run`` stdout.

``repro run`` resolves its scheme through ``SCHEME_SPECS`` and executes
through the sweep runner's cell executor.  These legs pin what it
prints, byte for byte, over every named scheme and every flag group
that changes the run: ``--mode``, ``--metric``, ``--cache-mb``, an rpc
control plane with jitter, loss and seed, and churn with rendezvous
placement and migrate rebalance.

A deliberate output change re-records the fixture
(``python -m tests.test_cli_run_golden`` rewrites it) and says why in
the change log.
"""

from __future__ import annotations

import contextlib
import io
import json
from pathlib import Path

import pytest

from repro.cli import main
from repro.sweep.schemes import SCHEME_SPECS

GOLDEN = Path(__file__).resolve().parent / "fixtures" / "cli_run_golden.json"

BASE = ("PR", "--cluster", "test", "--partitions", "8", "--cache-fraction", "0.2")

LEGS: tuple[tuple[str, ...], ...] = (
    *((*BASE, "--scheme", name) for name in SCHEME_SPECS),
    (*BASE, "--scheme", "mrd-evict"),
    (*BASE, "--scheme", "MRD-evict", "--mode", "adhoc"),
    (*BASE, "--scheme", "MRD-prefetch", "--metric", "job"),
    (*BASE, "--scheme", "MRD", "--mode", "adhoc", "--metric", "job", "-v"),
    ("KM", "--cluster", "test", "--partitions", "8", "--cache-mb", "12",
     "--scheme", "LRC"),
    (*BASE, "--scheme", "MRD", "--control-plane", "rpc",
     "--control-latency", "0.5", "--control-jitter", "0.2",
     "--control-loss", "0.1", "--control-seed", "3"),
    (*BASE, "--scheme", "MRD-prefetch", "--placement", "rendezvous",
     "--churn-rate", "0.4", "--churn-seed", "2", "--rebalance", "migrate"),
    (*BASE, "--scheme", "LRU", "--control-plane", "rpc",
     "--control-jitter", "0.3", "--control-loss", "0.05",
     "--placement", "rendezvous", "--churn-rate", "0.3", "--rebalance", "migrate"),
)


def run_stdout(argv: tuple[str, ...]) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["run", *argv]) == 0
    return out.getvalue()


@pytest.mark.parametrize("argv", LEGS, ids=" ".join)
def test_run_stdout_matches_golden(argv):
    golden = json.loads(GOLDEN.read_text())
    assert run_stdout(argv) == golden[" ".join(argv)]


def test_golden_covers_every_leg():
    assert sorted(json.loads(GOLDEN.read_text())) == sorted(" ".join(a) for a in LEGS)


if __name__ == "__main__":  # pragma: no cover - re-recording helper
    GOLDEN.write_text(json.dumps(
        {" ".join(argv): run_stdout(argv) for argv in LEGS}, indent=1,
    ) + "\n")
    print(f"wrote {len(LEGS)} legs to {GOLDEN}")
