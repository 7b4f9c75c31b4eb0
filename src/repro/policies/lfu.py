"""Least Frequently Used — a frequency-based control baseline.

Not evaluated in the paper, but a natural foil for LRC: LFU counts
*past* accesses where LRC counts *future* references.  On DAG workloads
LFU inherits LRU's blindness to the workflow (a block's history says
little about its next reference) and additionally ossifies: long-dead
blocks with large historical counts are the last to leave.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterator
from typing import TYPE_CHECKING

from repro.policies.base import EvictionPolicy

if TYPE_CHECKING:  # pragma: no cover
    from repro.cluster.block import Block, BlockId
    from repro.cluster.memory_store import MemoryStore


class LfuPolicy(EvictionPolicy):
    """Evicts the block with the fewest lifetime accesses (ties: LRU)."""

    name = "LFU"

    def __init__(self) -> None:
        self._freq: dict[BlockId, int] = {}
        self._touch = itertools.count()
        self._last_touch: dict[BlockId, int] = {}

    def _count(self, block: Block) -> None:
        self._freq[block.id] = self._freq.get(block.id, 0) + 1
        self._last_touch[block.id] = next(self._touch)

    def on_insert(self, block: Block) -> None:
        self._count(block)

    def on_access(self, block: Block) -> None:
        self._count(block)

    def on_remove(self, block_id: BlockId) -> None:
        # Frequency history survives eviction (classic LFU keeps it; a
        # re-inserted block resumes its count).
        self._last_touch.pop(block_id, None)

    def frequency(self, block_id: BlockId) -> int:
        return self._freq.get(block_id, 0)

    def eviction_order(self, store: MemoryStore) -> Iterator[BlockId]:
        def key(bid: BlockId) -> tuple[int, int]:
            return (self._freq.get(bid, 0), self._last_touch.get(bid, 0))

        return iter(sorted(store.block_ids(), key=key))

