"""CacheMonitor: MRD's per-worker eviction logic.

Deployed on every node, the monitor holds a copy of the
reference-distance profile — refreshed by the driver's per-boundary
:class:`~repro.control.messages.StageBoundary` table broadcast, with a
fall-through to the shared :class:`MrdManager` for monitors that were
never wired through a control plane (unit tests, direct construction) —
and picks eviction victims locally: the block with the *greatest*
reference distance goes first, infinite-distance blocks leading; ties
break on the tie rule (:data:`TIE_BREAKERS`), then descending partition
index, then descending RDD id.  Recency never enters the key.

Under the ``rpc`` control plane the broadcast arrives late, so the
monitor evicts against the *previous* boundary's distances until the
new snapshot lands — the worker-side staleness the distributed design
has to live with.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from collections.abc import Container, Iterable, Iterator, Mapping
from operator import itemgetter
from typing import TYPE_CHECKING

from repro.cluster.block import Block, BlockId
from repro.core.manager import MrdManager
from repro.core.mrd_table import INFINITE
from repro.policies.base import EvictionPolicy, take_victims

if TYPE_CHECKING:  # pragma: no cover
    from repro.cluster.memory_store import MemoryStore


class MrdTableView(EvictionPolicy):
    """Worker-local view of the driver's MRD_Table.

    Distance lookups go through the last delivered table broadcast when
    one exists; before any broadcast (or outside an engine run) they
    fall back to the live shared manager — which is exactly what an
    instantly-delivered snapshot would answer, since the table only
    changes at stage boundaries.

    Policies built on the view keep a *maintained eviction order*:
    ``(key, BlockId)`` pairs sorted by the subclass's ``_order_key``
    over the blocks ``_order_ids`` names.  A distance key carries no
    recency term, so the order only changes on insert/remove (binary
    insertion/deletion) and on an accepted broadcast (full
    invalidation) — selections walk it in O(victims) instead of
    re-sorting the store.
    """

    #: Last delivered snapshot (shared, read-only) and its boundary seq.
    _distances: Mapping[int, float] | None = None
    _view_seq: int = -1
    #: Sorted ``(key, id)`` pairs; ``None`` = rebuild on next selection.
    _order: list[tuple[tuple, BlockId]] | None = None
    #: Whether the maintained order also answers demand selections (it
    #: always answers prefetch-triggered ones).
    _order_serves_demand: bool = True

    def on_table_update(self, seq: int, distances: Mapping[int, float]) -> bool:
        """Replace the local view; refuse snapshots older than held."""
        if seq < self._view_seq:
            return False
        self._view_seq = seq
        self._distances = distances
        self._order = None
        return True

    def lookup_distance(self, rdd_id: int) -> float:
        view = self._distances
        if view is not None:
            return view.get(rdd_id, INFINITE)
        return self._live_distance(rdd_id)

    def _live_distance(self, rdd_id: int) -> float:  # pragma: no cover - abstract
        raise NotImplementedError

    # ------------------------------------------------------------------
    # maintained eviction order
    # ------------------------------------------------------------------
    def _order_key(self, bid: BlockId) -> tuple:  # pragma: no cover - abstract
        raise NotImplementedError

    def _order_ids(self) -> Iterable[BlockId]:  # pragma: no cover - abstract
        raise NotImplementedError

    def _order_insert(self, bid: BlockId) -> None:
        if self._order is not None:
            insort(self._order, (self._order_key(bid), bid))

    def _order_remove(self, bid: BlockId) -> None:
        """Drop ``bid``; call before the state its key reads is dropped."""
        order = self._order
        if order is None:
            return
        # Key recomputation is exact: the held view cannot have changed
        # since the entry was inserted (an accepted update clears the
        # order).
        entry = (self._order_key(bid), bid)
        i = bisect_left(order, entry)
        if i < len(order) and order[i] == entry:
            del order[i]
        else:  # pragma: no cover - defensive: untracked removal
            self._order = None

    def select_victims(
        self,
        store: MemoryStore,
        needed_mb: float,
        protect: Container[BlockId] = frozenset(),
        for_prefetch: bool = False,
    ) -> list[BlockId] | None:
        """Walk the maintained order when it can answer for ``store``.

        It engages only with a delivered table snapshot (live manager
        distances can drift without notice) and only when it covers
        exactly the blocks of the store being asked about (a co-tenant's
        blocks on a shared store are not this policy's to rank).
        Anything else takes the policy's reference walk.
        """
        if self._distances is not None and (for_prefetch or self._order_serves_demand):
            order = self._order
            if order is None:
                order = self._order = sorted(
                    (self._order_key(bid), bid) for bid in self._order_ids()
                )
            if len(order) == len(store):
                return take_victims(map(itemgetter(1), order), store, needed_mb, protect)
        return super().select_victims(store, needed_mb, protect, for_prefetch)


#: Tie-breaking rules for blocks with equal reference distance.  The
#: paper leaves tie prioritization as future work (§3.3); every rule
#: here is *stable* (no recency), which is the property that prevents
#: cyclic-scan thrash within an RDD:
#:
#: * ``"partition"`` — evict the highest partition index first (default;
#:   keeps a fixed low-index subset resident).
#: * ``"size"``      — evict the largest block first (frees the most
#:   space per eviction, keeps more distinct blocks resident).
#: * ``"creation"``  — evict the youngest RDD first (favours long-lived
#:   data like graph edges over per-iteration temporaries).
TIE_BREAKERS = ("partition", "size", "creation")


class CacheMonitor(MrdTableView):
    """Greatest-reference-distance eviction for one node."""

    name = "MRD-CacheMonitor"

    def __init__(
        self, node_id: int, manager: MrdManager, tie_breaker: str = "partition"
    ) -> None:
        if tie_breaker not in TIE_BREAKERS:
            raise ValueError(
                f"tie_breaker must be one of {TIE_BREAKERS}, got {tie_breaker!r}"
            )
        self.node_id = node_id
        self.manager = manager
        self.tie_breaker = tie_breaker
        #: Block sizes observed at insertion (for the "size" rule).
        self._sizes: dict[BlockId, float] = {}

    def _live_distance(self, rdd_id: int) -> float:
        return self.manager.distance(rdd_id)

    def on_insert(self, block: Block) -> None:
        self._sizes[block.id] = block.size_mb
        self._order_insert(block.id)

    def on_access(self, block: Block) -> None:
        """A hit leaves the distance order unchanged."""

    def on_remove(self, block_id: BlockId) -> None:
        self._order_remove(block_id)
        self._sizes.pop(block_id, None)

    def eviction_order(self, store: MemoryStore) -> Iterator[BlockId]:
        # Largest distance first (inf ahead of any finite value).  Ties
        # — all blocks of one RDD share a distance — break on
        # *descending partition index*: a stable rule that keeps a fixed
        # subset of a partially-cached RDD resident instead of cycling
        # through it (LRU tie-breaking degenerates to zero hits on
        # cyclic scans of a working set larger than the cache).
        return iter(sorted(store.block_ids(), key=self._evict_key))

    def admit_over(self, block: Block, victims: list[BlockId], store: MemoryStore) -> bool:
        """Only displace blocks that are strictly worse than the newcomer.

        A block whose eviction key ranks at-or-before every victim's
        would itself be the next thing evicted — caching it would churn
        a more valuable resident block for no benefit.
        """
        incoming = self._evict_key(block.id)
        return all(incoming > self._evict_key(v) for v in victims)

    def _evict_key(self, bid: BlockId) -> tuple[float, float, int, int]:
        dist = self.lookup_distance(bid.rdd_id)
        if self.tie_breaker == "size":
            tie = -self._sizes.get(bid, 0.0)
        elif self.tie_breaker == "creation":
            tie = -float(bid.rdd_id)
        else:  # "partition"
            tie = 0.0
        return (-dist, tie, -bid.partition, -bid.rdd_id)

    #: Demand and prefetch selections share the distance order.
    _order_key = _evict_key

    def _order_ids(self) -> Iterable[BlockId]:
        return self._sizes
