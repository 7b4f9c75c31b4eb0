"""First-In First-Out eviction — a recency-oblivious control baseline."""

from __future__ import annotations

from collections import OrderedDict
from collections.abc import Iterator
from typing import TYPE_CHECKING

from repro.policies.base import EvictionPolicy, take_victims

if TYPE_CHECKING:  # pragma: no cover
    from repro.cluster.block import Block, BlockId
    from repro.cluster.memory_store import MemoryStore


class FifoPolicy(EvictionPolicy):
    """Evicts in insertion order, ignoring accesses entirely."""

    name = "FIFO"

    def __init__(self) -> None:
        self._queue: OrderedDict[BlockId, None] = OrderedDict()

    def on_insert(self, block: Block) -> None:
        if block.id not in self._queue:
            self._queue[block.id] = None

    def on_access(self, block: Block) -> None:
        # FIFO deliberately ignores accesses.
        if block.id not in self._queue:
            self._queue[block.id] = None

    def on_remove(self, block_id: BlockId) -> None:
        self._queue.pop(block_id, None)

    def eviction_order(self, store: MemoryStore) -> Iterator[BlockId]:
        return iter(list(self._queue.keys()))

    def select_victims(
        self,
        store: MemoryStore,
        needed_mb: float,
        protect: frozenset[BlockId] = frozenset(),
        for_prefetch: bool = False,
    ) -> list[BlockId] | None:
        """Walk the arrival queue in place (no per-selection copy)."""
        if for_prefetch:
            return super().select_victims(store, needed_mb, protect, for_prefetch)
        return take_victims(self._queue, store, needed_mb, protect)
