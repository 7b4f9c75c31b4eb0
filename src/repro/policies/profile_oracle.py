"""Shared DAG-profile oracle used by the DAG-aware policies.

LRC, MemTune and Belady consult the application's whole reference
profile (which stages read which cached RDDs), known up front as for a
recurring application.  This module centralizes that lookup: a
:class:`ProfileOracle` holds the per-RDD sorted read sequences and the
current execution position, and answers the queries each policy needs
(remaining reference count, next reference, stage window contents).
"""

from __future__ import annotations

import bisect
import math

from repro.dag.dag_builder import ApplicationDAG

INFINITE = math.inf


class ProfileOracle:
    """Query interface over an application's reference profile."""

    def __init__(self, dag: ApplicationDAG) -> None:
        self.dag = dag
        self.current_seq = 0
        #: rdd id -> sorted active-stage seqs that read it
        self._reads: dict[int, tuple[int, ...]] = {
            rdd_id: tuple(sorted(prof.read_seqs)) for rdd_id, prof in dag.profiles.items()
        }

    # ------------------------------------------------------------------
    # progress
    # ------------------------------------------------------------------
    def advance(self, seq: int) -> None:
        """Move the execution pointer to active stage ``seq``."""
        if seq < 0 or seq >= len(self.dag.active_stages):
            raise ValueError(f"seq {seq} out of range")
        self.current_seq = seq

    def tracked_rdd_ids(self) -> list[int]:
        return sorted(self._reads)

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def next_reference_seq(self, rdd_id: int) -> float:
        """Next stage seq that reads ``rdd_id``, or +inf."""
        reads = self._reads.get(rdd_id, ())
        i = bisect.bisect_left(reads, self.current_seq)
        return reads[i] if i < len(reads) else INFINITE

    def stage_distance(self, rdd_id: int) -> float:
        """MRD's reference distance in active-stage executions."""
        nxt = self.next_reference_seq(rdd_id)
        return nxt - self.current_seq if nxt is not INFINITE else INFINITE

    def remaining_reference_count(self, rdd_id: int) -> int:
        """LRC's metric: references not yet consumed."""
        reads = self._reads.get(rdd_id, ())
        return len(reads) - bisect.bisect_left(reads, self.current_seq)

    def referenced_in_window(self, lookahead: int) -> set[int]:
        """RDD ids read by stages in ``[current, current + lookahead]``.

        MemTune's working set: the parents of currently runnable (and
        imminently runnable) tasks.
        """
        hi = min(self.current_seq + lookahead, len(self.dag.active_stages) - 1)
        needed: set[int] = set()
        for seq in range(self.current_seq, hi + 1):
            for rdd in self.dag.active_stages[seq].cache_reads:
                needed.add(rdd.id)
        return needed
