"""Cache-policy protocol shared by all eviction policies.

A policy instance manages the metadata for *one* node's memory store
(mirroring the paper, where eviction decisions are made locally by each
CacheMonitor / BlockManager).  DAG-aware policies additionally receive
stage-advance notifications routed from the centralized manager so they
can update reference counts / distances as the application progresses.

The store calls the policy on every insert/access/remove; when space is
needed it asks for victims.  Policies never mutate the store directly —
they only rank blocks.
"""

from __future__ import annotations

import abc
from collections.abc import Callable, Container, Iterable, Mapping
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from repro.cluster.block import Block, BlockId
    from repro.cluster.memory_store import MemoryStore


class EvictionPolicy(abc.ABC):
    """Ranks cached blocks for eviction on a single node."""

    #: Human-readable policy name used in reports and figures.
    name: str = "base"

    @abc.abstractmethod
    def on_insert(self, block: Block) -> None:
        """A block was inserted into the store."""

    @abc.abstractmethod
    def on_access(self, block: Block) -> None:
        """A cached block was read (cache hit)."""

    @abc.abstractmethod
    def on_remove(self, block_id: BlockId) -> None:
        """A block left the store (evicted or purged)."""

    def on_miss(self, block_id: BlockId) -> None:
        """A read request missed the store (optional hook).

        Lets trace-tracking policies observe the complete access
        sequence, not just the hits.
        """

    @abc.abstractmethod
    def eviction_order(self, store: MemoryStore) -> Iterable[BlockId]:
        """Blocks in the order they should be evicted (worst first)."""

    def advance_stage(self, seq: int) -> None:
        """The application moved to active stage ``seq`` (optional hook)."""

    def on_table_update(self, seq: int, distances: Mapping[int, float]) -> bool:
        """A driver distance-table broadcast reached this node.

        Distance-view policies (MRD's CacheMonitor) replace their local
        reference-distance snapshot here; everyone else ignores it.
        Returns ``False`` when the broadcast was older than the view
        already held (a stale, reordered delivery), ``True`` otherwise.
        """
        return True

    def admit_over(self, block: Block, victims: list[BlockId], store: MemoryStore) -> bool:
        """Should ``block`` be inserted at the cost of evicting ``victims``?

        Default (Spark semantics): always admit — insertion pressure
        simply evicts whatever the policy ranks worst.  Value-aware
        policies override this to refuse insertions that would evict
        more valuable blocks (the CacheMonitor's "local decision" when
        memory pressure forces an eviction), which is what keeps a
        stable resident subset instead of churning it.
        """
        return True

    def prefetch_eviction_order(self, store: MemoryStore) -> Iterable[BlockId]:
        """Victim order for *prefetch-triggered* insertions.

        Defaults to the normal eviction order.  The paper's prefetching
        workflow evicts the largest-reference-distance block when a
        prefetch forces memory pressure, even when demand evictions
        follow the default LRU — the prefetch-only MRD variant overrides
        this hook to get that behaviour.
        """
        return self.eviction_order(store)

    def admit_prefetch_over(self, block: Block, victims: list[BlockId], store: MemoryStore) -> bool:
        """Admission rule for prefetch-triggered insertions."""
        return self.admit_over(block, victims, store)

    def select_victims(
        self,
        store: MemoryStore,
        needed_mb: float,
        protect: Container[BlockId] = frozenset(),
        for_prefetch: bool = False,
    ) -> list[BlockId] | None:
        """Pick blocks to evict to free ``needed_mb``.

        Walks :meth:`eviction_order` (or :meth:`prefetch_eviction_order`
        when ``for_prefetch``), skipping pinned/protected blocks, until
        enough space is accumulated.  Returns ``None`` when the
        evictable blocks cannot cover the request (the caller then
        refuses the insertion, like Spark's ``MemoryStore``).

        Policies that keep their order maintained between selections
        (LRU's recency queue, the distance policies' sorted order) feed
        it to :func:`take_victims` directly; the result must equal this
        walk over the public order.
        """
        order = (
            self.prefetch_eviction_order(store)
            if for_prefetch
            else self.eviction_order(store)
        )
        return take_victims(order, store, needed_mb, protect)


def take_victims(
    order: Iterable[BlockId],
    store: MemoryStore,
    needed_mb: float,
    protect: Container[BlockId],
) -> list[BlockId] | None:
    """Leading evictable blocks of ``order`` that free ``needed_mb``.

    Skips pinned and protected blocks; ``None`` when the whole order
    cannot cover the request.
    """
    victims: list[BlockId] = []
    freed = 0.0
    is_pinned = store.is_pinned
    block = store.block
    for bid in order:
        if freed >= needed_mb:
            break
        if bid in protect or is_pinned(bid):
            continue
        victims.append(bid)
        freed += block(bid).size_mb
    if freed >= needed_mb:
        return victims
    return None


PolicyFactory = Callable[[int], EvictionPolicy]
"""Creates the policy instance for node ``node_id``."""
