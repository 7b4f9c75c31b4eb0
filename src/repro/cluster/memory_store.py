"""Bounded per-node block cache with pluggable eviction policy.

Mirrors Spark's ``MemoryStore``: a capacity-bounded map from
:class:`BlockId` to :class:`Block`.  Inserting past capacity asks the
eviction policy for victims; blocks the caller protects (a running
task's inputs) are never chosen; a block larger than the whole store
(or whose space cannot be freed) is refused rather than partially
cached.
"""

from __future__ import annotations

from collections.abc import Container, Iterator
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.cluster.block import Block, BlockId

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from repro.policies.base import EvictionPolicy


@dataclass(slots=True)
class PutResult:
    """Outcome of a :meth:`MemoryStore.put` call."""

    stored: bool
    evicted: list[Block] = field(default_factory=list)


class MemoryStore:
    """Capacity-bounded in-memory block store for one worker node."""

    def __init__(self, capacity_mb: float, policy: EvictionPolicy) -> None:
        if capacity_mb < 0:
            raise ValueError("capacity must be non-negative")
        self.capacity_mb = float(capacity_mb)
        self.policy = policy
        self._blocks: dict[BlockId, Block] = {}
        self._used_mb = 0.0
        # Residency count per rdd id: lets purge/unpersist paths skip
        # whole-store scans for rdds with no resident blocks.
        self._rdd_count: dict[int, int] = {}

    # ------------------------------------------------------------------
    # inspection
    # ------------------------------------------------------------------
    @property
    def used_mb(self) -> float:
        return self._used_mb

    @property
    def free_mb(self) -> float:
        return self.capacity_mb - self._used_mb

    @property
    def free_fraction(self) -> float:
        return self.free_mb / self.capacity_mb if self.capacity_mb else 0.0

    def __len__(self) -> int:
        return len(self._blocks)

    def __contains__(self, block_id: BlockId) -> bool:
        return block_id in self._blocks

    def block(self, block_id: BlockId) -> Block:
        return self._blocks[block_id]

    def block_ids(self) -> Iterator[BlockId]:
        return iter(self._blocks)

    def blocks(self) -> Iterator[Block]:
        return iter(self._blocks.values())

    def holds_rdd(self, rdd_id: int) -> bool:
        """Whether any block of ``rdd_id`` is memory-resident."""
        return rdd_id in self._rdd_count

    def resident_rdd_ids(self) -> list[int]:
        """Rdd ids with at least one memory-resident block (insertion order)."""
        return list(self._rdd_count)

    # ------------------------------------------------------------------
    # mutation
    # ------------------------------------------------------------------
    def get(self, block_id: BlockId) -> Block | None:
        """Read a block (cache hit path); updates policy recency state."""
        block = self._blocks.get(block_id)
        if block is not None:
            self.policy.on_access(block)
        return block

    def put(
        self,
        block: Block,
        protect: Container[BlockId] = frozenset(),
        prefetch: bool = False,
    ) -> PutResult:
        """Insert ``block``, evicting per policy if needed.

        ``protect`` lists blocks that must not be chosen as victims
        (e.g. sibling input blocks of the inserting task); it is only
        read during the call.  ``block`` itself needs no
        protection: it is not resident, so no victim order names it.
        ``prefetch`` marks prefetch-triggered insertions, which may use
        a different victim order and admission rule (see
        :meth:`EvictionPolicy.prefetch_eviction_order`).
        Returns whether the block was stored and what was evicted.
        """
        if block.id in self._blocks:
            self.policy.on_access(block)
            return PutResult(stored=True)
        if block.size_mb > self.capacity_mb:
            return PutResult(stored=False)
        evicted: list[Block] = []
        needed = block.size_mb - self.free_mb
        if needed > 0:
            victims = self.policy.select_victims(
                self, needed, protect, for_prefetch=prefetch
            )
            if victims is None:
                return PutResult(stored=False, evicted=[])
            admit = (
                self.policy.admit_prefetch_over(block, victims, self)
                if prefetch
                else self.policy.admit_over(block, victims, self)
            )
            if not admit:
                return PutResult(stored=False, evicted=[])
            for victim_id in victims:
                evicted.append(self._evict(victim_id))
        bid = block.id
        self._blocks[bid] = block
        self._used_mb += block.size_mb
        self._rdd_count[bid.rdd_id] = self._rdd_count.get(bid.rdd_id, 0) + 1
        self.policy.on_insert(block)
        return PutResult(stored=True, evicted=evicted)

    def remove(self, block_id: BlockId) -> Block | None:
        """Drop a block outright (purge path); no-op if absent."""
        if block_id not in self._blocks:
            return None
        return self._evict(block_id)

    def _evict(self, block_id: BlockId) -> Block:
        block = self._blocks.pop(block_id)
        self._used_mb -= block.size_mb
        # Guard against float drift on long runs.
        if self._used_mb < 1e-9:
            self._used_mb = 0.0
        count = self._rdd_count[block_id.rdd_id]
        if count == 1:
            del self._rdd_count[block_id.rdd_id]
        else:
            self._rdd_count[block_id.rdd_id] = count - 1
        self.policy.on_remove(block_id)
        return block

