"""Per-node block manager: the access/insert/evict bookkeeping layer.

Sits between the simulator and a node's stores, mirroring Spark's
``BlockManager``: write-through of cached blocks to disk, hit/miss
accounting, and eviction/prefetch counters that the metrics module
aggregates into the paper's reported quantities.
"""

from __future__ import annotations

import enum
from collections.abc import Callable, Container
from dataclasses import dataclass

from repro.cluster.block import Block, BlockId
from repro.cluster.node import WorkerNode
from repro.trace.events import CacheHit, CacheMiss, Eviction, PrefetchCancel
from repro.trace.recorder import NULL_RECORDER, TraceRecorder


class AccessOutcome(enum.Enum):
    """How a cached-block read was served."""

    MEMORY_HIT = "hit"
    DISK_READ = "disk"
    MISSING = "missing"  # neither in memory nor on disk (never computed)


@dataclass
class BlockManagerStats:
    """Counters for one node, aggregated cluster-wide by the metrics."""

    hits: int = 0
    misses: int = 0
    insertions: int = 0
    failed_insertions: int = 0
    evictions: int = 0
    purged: int = 0
    prefetches_issued: int = 0
    prefetches_used: int = 0
    prefetched_mb: float = 0.0
    evicted_mb: float = 0.0

    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    @property
    def hit_ratio(self) -> float | None:
        """Hit fraction of all accesses, or ``None`` with zero accesses.

        ``None`` (rather than 0.0) keeps idle nodes — nodes that never
        served a cached read — from dragging down cluster-average hit
        ratios computed over ``RunMetrics.per_node_hit_ratio``.
        """
        return self.hits / self.accesses if self.accesses else None


class BlockManager:
    """Block bookkeeping for one :class:`WorkerNode`."""

    def __init__(self, node: WorkerNode, recorder: TraceRecorder = NULL_RECORDER) -> None:
        self.node = node
        self.stats = BlockManagerStats()
        #: Event sink (no-op by default; the engine installs a live one
        #: when the run is recorded).
        self.recorder = recorder
        #: Block ids currently being prefetched -> completion time.
        self.inflight_prefetch: dict[BlockId, float] = {}
        #: Blocks that entered memory via prefetch and were not yet read.
        self._prefetched_unread: set[BlockId] = set()
        #: Multi-tenant hook: maps an evicted block to the manager whose
        #: stats should be charged.  On a shared cluster an insertion by
        #: one application can displace another application's blocks;
        #: the tenancy layer installs a router so each eviction lands on
        #: the *owner's* counters.  ``None`` (default) charges ``self``,
        #: as does a router returning ``None`` (unresolvable owner).
        self.eviction_router: Callable[[BlockId], "BlockManager | None"] | None = None
        #: Resolves an rdd id to its reference distance for trace events
        #: (installed by the engine per run; per-app under tenancy, so a
        #: namespaced rdd id is looked up in its *owning* app's table).
        #: ``None`` falls back to the recorder's run-global hook.
        self.distance_source: Callable[[int], float | None] | None = None

    # ------------------------------------------------------------------
    # reads
    # ------------------------------------------------------------------
    def access(self, block_id: BlockId) -> AccessOutcome:
        """Classify (and account) a cached-block read on this node."""
        rec = self.recorder
        if self.node.memory.get(block_id) is not None:
            self.stats.hits += 1
            if block_id in self._prefetched_unread:
                self._prefetched_unread.discard(block_id)
                self.stats.prefetches_used += 1
            if rec.enabled:
                rec.emit(CacheHit(
                    t=rec.now, rdd_id=block_id.rdd_id, partition=block_id.partition,
                    node_id=self.node.node_id, source="memory",
                ))
            return AccessOutcome.MEMORY_HIT
        self.stats.misses += 1
        self.node.memory.policy.on_miss(block_id)
        on_disk = block_id in self.node.disk
        if rec.enabled:
            rec.emit(CacheMiss(
                t=rec.now, rdd_id=block_id.rdd_id, partition=block_id.partition,
                node_id=self.node.node_id, where="disk" if on_disk else "missing",
            ))
        if on_disk:
            return AccessOutcome.DISK_READ
        return AccessOutcome.MISSING

    def record_buffered_hit(self, block_id: BlockId) -> None:
        """Account a read served straight from an arriving prefetch.

        When a prefetched block is denied cache admission (it would
        displace more urgent data) but a task is waiting on the
        transfer, the bytes are consumed directly from the fetch buffer:
        the I/O was already overlapped, so this counts as a hit and as a
        used prefetch without the block entering the store.
        """
        self.stats.hits += 1
        self.stats.prefetches_used += 1
        rec = self.recorder
        if rec.enabled:
            rec.emit(CacheHit(
                t=rec.now, rdd_id=block_id.rdd_id, partition=block_id.partition,
                node_id=self.node.node_id, source="buffer",
            ))

    # ------------------------------------------------------------------
    # writes
    # ------------------------------------------------------------------
    def insert_cached(self, block: Block, protect: Container[BlockId] = frozenset()) -> bool:
        """Cache a newly computed block (write-through to disk).

        Returns True if the block made it into memory; either way the
        disk copy exists afterwards so the block stays prefetchable.
        """
        self.node.disk.put(block)
        result = self.node.memory.put(block, protect)
        if result.stored:
            self.stats.insertions += 1
        else:
            self.stats.failed_insertions += 1
        if result.evicted:
            self._account_evictions(result.evicted, cause="insert")
        return result.stored

    def promote_from_disk(self, block: Block, protect: Container[BlockId] = frozenset(), prefetch: bool = False) -> bool:
        """Bring a disk-resident block back into memory.

        Used both by the synchronous miss path (read-through caching)
        and by the asynchronous prefetcher (``prefetch=True``).
        """
        if block.id not in self.node.disk:
            raise KeyError(f"{block.id} not on node {self.node.node_id} disk")
        result = self.node.memory.put(block, protect, prefetch=prefetch)
        if result.evicted:
            self._account_evictions(
                result.evicted, cause="prefetch" if prefetch else "promote"
            )
        if result.stored and prefetch:
            self._prefetched_unread.add(block.id)
            self.stats.prefetched_mb += block.size_mb
        return result.stored

    def purge_block(self, block_id: BlockId, drop_disk: bool = False) -> bool:
        """Remove a block (manager-ordered purge, not capacity pressure).

        Also cancels a matching in-flight prefetch: a purged block must
        not re-enter memory (and be counted as a used prefetch) when an
        already-issued transfer completes after the purge.

        Returns True when a memory-resident copy was actually dropped.
        """
        self.cancel_inflight(block_id, reason="purged")
        dropped = False
        if block_id in self.node.memory and not self.node.memory.is_pinned(block_id):
            removed = self.node.memory.remove(block_id)
            if removed is not None:
                self.stats.purged += 1
                self._prefetched_unread.discard(block_id)
                dropped = True
        if drop_disk:
            self.node.disk.remove(block_id)
        return dropped

    def cancel_inflight(self, block_id: BlockId, reason: str = "cancelled") -> bool:
        """Abandon an in-flight prefetch of ``block_id``, if any.

        The engine's completion-heap entries invalidate lazily (both
        cores re-check ``inflight_prefetch`` before completing), so
        dropping the dict entry is sufficient to cancel.
        """
        if self.inflight_prefetch.pop(block_id, None) is None:
            return False
        rec = self.recorder
        if rec.enabled:
            rec.emit(PrefetchCancel(
                t=rec.now, rdd_id=block_id.rdd_id, partition=block_id.partition,
                node_id=self.node.node_id, reason=reason,
            ))
        return True

    def _account_evictions(self, evicted: list[Block], cause: str = "insert") -> None:
        rec = self.recorder
        router = self.eviction_router
        for block in evicted:
            # The block was resident (and possibly prefetched-unread) on
            # *this* manager: clear the local bookkeeping first so
            # ``prefetches_used`` can never be claimed for a block that
            # is no longer in memory, however the eviction is routed.
            self._prefetched_unread.discard(block.id)
            owner = self
            if router is not None:
                routed = router(block.id)
                if routed is not None:
                    owner = routed
            owner.stats.evictions += 1
            owner.stats.evicted_mb += block.size_mb
            if owner is not self:
                # Defensive: under per-app managers the owner's view of
                # the shared node must agree that the block is gone.
                owner._prefetched_unread.discard(block.id)
            if rec.enabled:
                src = owner.distance_source
                distance = (
                    src(block.id.rdd_id)
                    if src is not None
                    else rec.lookup_distance(block.id.rdd_id)
                )
                rec.emit(Eviction(
                    t=rec.now, rdd_id=block.id.rdd_id, partition=block.id.partition,
                    node_id=self.node.node_id, size_mb=block.size_mb,
                    distance=distance, cause=cause,
                ))
