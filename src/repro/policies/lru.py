"""Least Recently Used — Spark's default cache policy (the paper's baseline)."""

from __future__ import annotations

from collections import OrderedDict
from collections.abc import Iterator
from typing import TYPE_CHECKING

from repro.policies.base import EvictionPolicy, take_victims

if TYPE_CHECKING:  # pragma: no cover
    from repro.cluster.block import Block, BlockId
    from repro.cluster.memory_store import MemoryStore


class LruPolicy(EvictionPolicy):
    """Evicts the block that has gone longest without an access.

    Implemented with an ordered dict used as a recency queue: most
    recently touched block at the back, victim taken from the front —
    the same structure Spark's ``MemoryStore`` LinkedHashMap provides.
    """

    name = "LRU"

    def __init__(self) -> None:
        self._recency: OrderedDict[BlockId, None] = OrderedDict()

    def on_insert(self, block: Block) -> None:
        self._recency[block.id] = None
        self._recency.move_to_end(block.id)

    def on_access(self, block: Block) -> None:
        if block.id in self._recency:
            self._recency.move_to_end(block.id)
        else:  # defensive: access to a block the policy never saw inserted
            self._recency[block.id] = None

    def on_remove(self, block_id: BlockId) -> None:
        self._recency.pop(block_id, None)

    def eviction_order(self, store: MemoryStore) -> Iterator[BlockId]:
        # Oldest first.  Copy: callers may evict while iterating.
        return iter(list(self._recency.keys()))

    def select_victims(
        self,
        store: MemoryStore,
        needed_mb: float,
        protect: frozenset[BlockId] = frozenset(),
        for_prefetch: bool = False,
    ) -> list[BlockId] | None:
        """Walk the recency queue in place (no per-selection copy).

        Prefetch-triggered selections go through the base path so
        subclasses overriding ``prefetch_eviction_order`` keep their
        distinct prefetch victim order.
        """
        if for_prefetch:
            return super().select_victims(store, needed_mb, protect, for_prefetch)
        return take_victims(self._recency, store, needed_mb, protect)
