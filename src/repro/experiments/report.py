"""Full evaluation report: run every experiment and render markdown.

``python -m repro report [-o FILE]`` regenerates the complete
evaluation section — all tables and figures plus the headline summary —
from scratch.  The Figure 4 sweep dominates the runtime; a cell that
several figures share is simulated once.  Everything is deterministic,
so two invocations produce identical reports.
"""

from __future__ import annotations

import io
import time
from collections.abc import Iterator
from contextlib import contextmanager
from pathlib import Path

from repro.experiments import (
    fig2,
    fig4,
    fig5,
    fig6,
    fig7,
    fig8,
    fig9,
    fig10,
    fig11_12,
    table1,
    table3,
)
from repro.sweep.runner import cell_cache_scope


def generate_report(
    out: Path | None = None,
    progress: bool = False,
    jobs: int = 1,
    store=None,
    external: bool = False,
) -> str:
    """Run the full evaluation; returns (and optionally writes) markdown.

    ``jobs``/``store`` are forwarded to every sweep-backed driver: the
    figures fan out across worker processes and, with a store, a rerun
    after an interrupt (or a tweak to one figure) recomputes only the
    missing cells.  Output is bit-identical at any job count.
    ``external=True`` forwards to the same drivers so every figure's
    grid is published into ``store`` and drained by external
    ``repro sweep --worker`` processes instead of this one.

    Every sweep shares finished cells for the whole report
    (:func:`~repro.sweep.runner.cell_cache_scope`), so a cell several
    figures need is simulated once at any job count.  With ``progress``
    each figure prints its seconds and how many cells it simulated and
    reused.
    """
    buf = io.StringIO()

    def section(title: str, body: str) -> None:
        buf.write(f"\n## {title}\n\n```\n{body}\n```\n")

    buf.write("# MRD reproduction — regenerated evaluation\n")
    buf.write(
        "\nEvery block below is produced by `repro.experiments.*` "
        "drivers; see EXPERIMENTS.md for the paper-vs-measured "
        "discussion.\n"
    )

    with cell_cache_scope() as cells:

        @contextmanager
        def step(label: str) -> Iterator[None]:
            """Announce one figure; afterwards, its seconds and cell counts."""
            if not progress:
                yield
                return
            print(f"{label} ...", flush=True)
            start = time.perf_counter()
            simulated, reused = cells.simulated, cells.reused
            yield
            line = f"  {label}: {time.perf_counter() - start:.1f}s"
            if (cells.simulated, cells.reused) != (simulated, reused):
                line += (
                    f", simulated {cells.simulated - simulated}, "
                    f"reused {cells.reused - reused} cells"
                )
            print(line, flush=True)

        with step("table 1"):
            section("Table 1 — reference distances", table1.render(table1.run()))
        with step("table 3"):
            section("Table 3 — workload characteristics", table3.render(table3.run()))
        with step("figure 2"):
            trace = fig2.run("CC", max_rdds=8)
            section(
                "Figure 2 — policy metric traces (CC)",
                "\n\n".join(fig2.render(trace, p) for p in ("lru", "lrc", "mrd")),
            )
        with step("figure 4"):
            rows4 = fig4.run(jobs=jobs, store=store, external=external)
            section("Figure 4 — overall performance", fig4.render(rows4))
        for label, title, figure in (
            ("figure 5", "Figure 5 — vs LRC", fig5),
            ("figure 6", "Figure 6 — vs MemTune", fig6),
            ("figure 7", "Figure 7 — cache-size sweep (SVD++)", fig7),
            ("figure 8", "Figure 8 — stage vs job distance", fig8),
            ("figure 9", "Figure 9 — ad-hoc vs recurring", fig9),
            ("figure 10", "Figure 10 — iteration scaling", fig10),
        ):
            with step(label):
                result = figure.run(jobs=jobs, store=store, external=external)
                section(title, figure.render(result))
        with step("figures 11-12"):
            section(
                "Figures 11-12 — benefit predictors",
                fig11_12.render(fig11_12.run(rows4)),
            )

    avg = fig4.averages(rows4)
    buf.write(
        "\n## Headline summary\n\n"
        f"- full MRD average normalized JCT: **{avg['full']:.2f}** "
        "(paper: 0.53)\n"
        f"- eviction-only: **{avg['evict_only']:.2f}** (paper: 0.62); "
        f"prefetch-only: **{avg['prefetch_only']:.2f}** (paper: 0.67)\n"
        f"- average hit ratio: LRU **{avg['lru_hit'] * 100:.0f}%** → "
        f"MRD **{avg['mrd_hit'] * 100:.0f}%**\n"
    )

    text = buf.getvalue()
    if out is not None:
        Path(out).write_text(text)
    return text
