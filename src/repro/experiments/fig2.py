"""Figure 2 — per-stage cache-priority evolution for ConnectedComponents.

The paper's motivating figure colours each (cached RDD, stage) cell by
how likely the policy is to keep/evict the RDD at that point.  We
regenerate the underlying numbers: for every active stage of CC and
every cached RDD, the LRU metric (stages since last touch), the LRC
metric (remaining reference count) and the MRD metric (stage distance
to next reference, ``inf`` when never referenced again).  High LRU
values, low LRC values and high MRD values mean "next to be evicted"
under the respective policy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.dag.dag_builder import ApplicationDAG
from repro.experiments.harness import build_workload_dag
from repro.policies.profile_oracle import ProfileOracle


@dataclass
class PolicyTrace:
    """Metric matrices: rdd_id -> [value per active stage]."""

    workload: str
    dag: ApplicationDAG
    rdd_ids: list[int] = field(default_factory=list)
    rdd_names: dict[int, str] = field(default_factory=dict)
    lru: dict[int, list[float]] = field(default_factory=dict)
    lrc: dict[int, list[float]] = field(default_factory=dict)
    mrd: dict[int, list[float]] = field(default_factory=dict)


def run(workload: str = "CC", max_rdds: int = 12) -> PolicyTrace:
    """Compute the Fig. 2 metric matrices for ``workload``.

    Only the ``max_rdds`` most-referenced cached RDDs are included
    (the paper's figure likewise shows the RDDs the application
    caches, not every intermediate).
    """
    dag = build_workload_dag(workload)
    oracle = ProfileOracle(dag)
    trace = PolicyTrace(workload=workload, dag=dag)
    profiles = sorted(
        dag.profiles.values(), key=lambda p: -p.reference_count
    )[:max_rdds]
    profiles.sort(key=lambda p: p.created_seq)
    num_stages = dag.num_active_stages
    for prof in profiles:
        rid = prof.rdd.id
        trace.rdd_ids.append(rid)
        trace.rdd_names[rid] = prof.rdd.name
        touches = sorted({prof.created_seq, *prof.read_seqs})
        lru_row: list[float] = []
        lrc_row: list[float] = []
        mrd_row: list[float] = []
        for seq in range(num_stages):
            if seq < prof.created_seq:
                lru_row.append(math.nan)
                lrc_row.append(math.nan)
                mrd_row.append(math.nan)
                continue
            last_touch = max((t for t in touches if t <= seq), default=prof.created_seq)
            lru_row.append(float(seq - last_touch))
            oracle.advance(seq)
            lrc_row.append(float(oracle.remaining_reference_count(rid)))
            mrd_row.append(float(oracle.stage_distance(rid)))
        trace.lru[rid] = lru_row
        trace.lrc[rid] = lrc_row
        trace.mrd[rid] = mrd_row
    return trace


def render(trace: PolicyTrace, policy: str = "mrd") -> str:
    """Plain-text heatmap of one policy's metric (Fig. 2 panel)."""
    matrix = getattr(trace, policy)
    lines = [f"Figure 2 ({policy.upper()} metric) — {trace.workload}, "
             f"rows = cached RDDs, cols = active stages"]
    header = "  ".join(f"{s:>4d}" for s in range(trace.dag.num_active_stages))
    lines.append(f"{'RDD':>18s}  {header}")
    for rid in trace.rdd_ids:
        cells = []
        for v in matrix[rid]:
            if math.isnan(v):
                cells.append("   .")
            elif math.isinf(v):
                cells.append("   ∞")
            else:
                cells.append(f"{int(v):>4d}")
        lines.append(f"{trace.rdd_names[rid][:18]:>18s}  " + "  ".join(cells))
    return "\n".join(lines)
