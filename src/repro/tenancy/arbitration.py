"""Cross-application cache arbitration on a shared cluster.

On a multi-tenant cluster every node's memory store holds blocks from
several applications at once.  Each application still ranks *its own*
blocks with its own eviction policy (LRU recency, MRD distances, …) —
but when an insertion forces an eviction, someone must decide *which
application* gives up space.  That decision is the
:class:`ArbitrationPolicy`, and :class:`ArbitratedNodePolicy` is the
composite per-node :class:`~repro.policies.base.EvictionPolicy` that
wires the two layers together:

* every ``on_insert``/``on_access``/``on_remove``/``on_miss`` event is
  routed to the owning application's tenant policy, so tenant metadata
  (recency queues, distance views) stays application-local;
* victim selection merges the tenants' candidate streams — each tenant
  proposes its next victim over a namespace-filtered
  :class:`TenantStoreView` — and the arbitration policy picks which
  application's candidate is evicted at every step;
* with a single registered tenant everything delegates verbatim to the
  tenant policy over the raw store, which is what makes one application
  through the tenancy layer byte-identical to the standalone engine.

Application namespacing: application ``k`` builds its DAG with RDD ids
starting at ``k * RDD_NAMESPACE_STRIDE`` (see ``SparkContext``'s
``first_rdd_id``), so a block's owner is recoverable from its id alone
— no per-block tagging anywhere in the cache layer.
"""

from __future__ import annotations

import abc
from collections.abc import Callable, Container, Iterable, Iterator
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.core.mrd_table import INFINITE
from repro.policies.base import EvictionPolicy

if TYPE_CHECKING:  # pragma: no cover
    from repro.cluster.block import Block, BlockId
    from repro.cluster.memory_store import MemoryStore

#: RDD-id namespace width per application.  Application ``k`` owns ids
#: ``[k * STRIDE, (k + 1) * STRIDE)``; a single application never comes
#: close to a million RDDs, and app 0 at offset 0 keeps standalone runs
#: unchanged.
RDD_NAMESPACE_STRIDE = 1_000_000


def owner_of(rdd_id: int) -> int:
    """Application index owning ``rdd_id`` (0 for standalone runs)."""
    return rdd_id // RDD_NAMESPACE_STRIDE


def namespace_of(app_index: int) -> tuple[int, int]:
    """``[lo, hi)`` RDD-id range owned by application ``app_index``."""
    lo = app_index * RDD_NAMESPACE_STRIDE
    return lo, lo + RDD_NAMESPACE_STRIDE


class TenantStoreView:
    """Read-only view of a shared store filtered to one app's namespace.

    Tenant policies whose eviction order scans the store (MRD's
    CacheMonitor sorts ``store.block_ids()``) must only ever see their
    own blocks — a foreign block is not theirs to rank.  Occupancy
    (``used_mb``/``free_mb``/``capacity_mb``) deliberately reports the
    *shared* store's numbers: fit decisions depend on physical free
    space, not on a tenant's logical slice.
    """

    def __init__(self, store: MemoryStore, app_index: int) -> None:
        self._store = store
        self._lo, self._hi = namespace_of(app_index)

    def _owned(self, block_id: BlockId) -> bool:
        return self._lo <= block_id.rdd_id < self._hi

    def block_ids(self) -> Iterator[BlockId]:
        return (b for b in self._store.block_ids() if self._owned(b))

    def blocks(self) -> Iterator[Block]:
        return (b for b in self._store.blocks() if self._owned(b.id))

    def block(self, block_id: BlockId) -> Block:
        return self._store.block(block_id)

    def is_pinned(self, block_id: BlockId) -> bool:
        return self._store.is_pinned(block_id)

    def __contains__(self, block_id: BlockId) -> bool:
        return self._owned(block_id) and block_id in self._store

    def __len__(self) -> int:
        return sum(1 for _ in self.block_ids())

    @property
    def used_mb(self) -> float:
        return self._store.used_mb

    @property
    def free_mb(self) -> float:
        return self._store.free_mb

    @property
    def free_fraction(self) -> float:
        return self._store.free_fraction

    @property
    def capacity_mb(self) -> float:
        return self._store.capacity_mb


@dataclass(frozen=True)
class VictimCandidate:
    """One application's next eviction candidate, as seen by arbitration.

    ``used_mb`` is the application's current footprint on this node
    *minus* victims already chosen earlier in the same selection, so an
    arbitration policy sees usage shrink as it keeps picking the same
    tenant.  ``distance`` is the candidate block's reference distance
    under its own scheme (``INFINITE`` when the scheme tracks none —
    an untracked block is treated as already dead).
    """

    app_index: int
    block_id: BlockId
    size_mb: float
    used_mb: float
    share: float
    distance: float


class ArbitrationPolicy(abc.ABC):
    """Decides which application's candidate is evicted at each step."""

    name: str = "arbitration"

    @abc.abstractmethod
    def pick(
        self, candidates: list[VictimCandidate], capacity_mb: float
    ) -> VictimCandidate:
        """Choose the victim among one candidate per application.

        ``candidates`` is non-empty and sorted by ``app_index``;
        implementations must be deterministic (break every tie).
        """


class StaticShares(ArbitrationPolicy):
    """Evict from the application furthest over its configured share.

    Each application carries a share weight (``AppSpec.share``); the
    victim is the tenant with the largest ``used_mb / share`` ratio —
    proportional-share pressure, insensitive to how many tenants are
    active.  Ties break on larger usage, then lower application index.
    """

    name = "static"

    def pick(
        self, candidates: list[VictimCandidate], capacity_mb: float
    ) -> VictimCandidate:
        return max(
            candidates,
            key=lambda c: (c.used_mb / c.share, c.used_mb, -c.app_index),
        )


class MaxMinFair(ArbitrationPolicy):
    """Weighted max-min fairness over the node's cache capacity.

    Water-filling computes each active application's fair allocation of
    the node's capacity given every tenant's current demand (= usage);
    the victim is the application with the largest *overage* above its
    fair allocation.  When nobody is over (total usage below capacity,
    which still happens when a large incoming block forces eviction)
    the fallback is the largest weighted usage.
    """

    name = "maxmin"

    def pick(
        self, candidates: list[VictimCandidate], capacity_mb: float
    ) -> VictimCandidate:
        fair = self._fair_allocations(candidates, capacity_mb)
        best = max(
            candidates,
            key=lambda c: (c.used_mb - fair[c.app_index], c.used_mb, -c.app_index),
        )
        if best.used_mb - fair[best.app_index] > 0:
            return best
        return max(
            candidates,
            key=lambda c: (c.used_mb / c.share, c.used_mb, -c.app_index),
        )

    @staticmethod
    def _fair_allocations(
        candidates: list[VictimCandidate], capacity_mb: float
    ) -> dict[int, float]:
        """Weighted water-filling of ``capacity_mb`` over the demands."""
        remaining = capacity_mb
        alloc = {c.app_index: 0.0 for c in candidates}
        active = list(candidates)
        while active and remaining > 0:
            total_share = sum(c.share for c in active)
            level = remaining / total_share
            satisfied = [c for c in active if c.used_mb <= level * c.share]
            if not satisfied:
                for c in active:
                    alloc[c.app_index] = level * c.share
                break
            for c in satisfied:
                alloc[c.app_index] = c.used_mb
                remaining -= c.used_mb
            active = [c for c in active if c.used_mb > level * c.share]
        return alloc


class GlobalDistance(ArbitrationPolicy):
    """Global cross-application reference-distance ordering.

    The multi-tenant generalization of the paper's eviction rule: the
    block evicted is the one whose *own application* will not need it
    for the longest — each tenant's candidate already is its worst
    block, so arbitration simply takes the candidate with the greatest
    reference distance, infinite first.  Applications whose scheme
    tracks no distances (LRU tenants) report ``INFINITE`` and are
    preferred victims, exactly like untracked RDDs under MRD.  Ties
    break on larger usage, then lower application index.
    """

    name = "global-mrd"

    def pick(
        self, candidates: list[VictimCandidate], capacity_mb: float
    ) -> VictimCandidate:
        return max(
            candidates,
            key=lambda c: (c.distance, c.used_mb, -c.app_index),
        )


#: Arbitration policies the CLI and experiment drivers resolve against.
ARBITRATIONS: dict[str, type[ArbitrationPolicy]] = {
    "static": StaticShares,
    "maxmin": MaxMinFair,
    "global-mrd": GlobalDistance,
}


def build_arbitration(value: str | ArbitrationPolicy) -> ArbitrationPolicy:
    """Coerce a name or instance into an :class:`ArbitrationPolicy`."""
    if isinstance(value, ArbitrationPolicy):
        return value
    try:
        return ARBITRATIONS[value]()
    except KeyError:
        raise ValueError(
            f"unknown arbitration {value!r}; choose from {sorted(ARBITRATIONS)}"
        ) from None


class _Tenant:
    """Per-application state held by one node's composite policy."""

    __slots__ = ("policy", "share", "distance_of", "sizes", "used_mb")

    def __init__(
        self,
        policy: EvictionPolicy,
        share: float,
        distance_of: Callable[[int], float | None],
    ) -> None:
        self.policy = policy
        self.share = share
        self.distance_of = distance_of
        #: Sizes of this tenant's resident blocks (the store has already
        #: dropped a block when ``on_remove`` fires, so the composite
        #: keeps its own size map to maintain ``used_mb`` incrementally).
        self.sizes: dict[BlockId, float] = {}
        self.used_mb = 0.0


class ArbitratedNodePolicy(EvictionPolicy):
    """Composite per-node policy multiplexing tenant eviction policies."""

    name = "arbitrated"

    def __init__(self, arbitration: ArbitrationPolicy) -> None:
        self.arbitration = arbitration
        #: app_index -> tenant, in registration (= arrival) order.
        self._tenants: dict[int, _Tenant] = {}

    # ------------------------------------------------------------------
    # tenant lifecycle (driven by the multi-tenant engine)
    # ------------------------------------------------------------------
    def register_tenant(
        self,
        app_index: int,
        policy: EvictionPolicy,
        share: float = 1.0,
        distance_of: Callable[[int], float | None] | None = None,
    ) -> None:
        if app_index in self._tenants:
            raise ValueError(f"application {app_index} already registered")
        if share <= 0:
            raise ValueError("share must be positive")
        self._tenants[app_index] = _Tenant(
            policy, share, distance_of if distance_of is not None else _no_distance
        )

    def deregister_tenant(self, app_index: int) -> None:
        self._tenants.pop(app_index, None)

    def tenant_policy(self, app_index: int) -> EvictionPolicy:
        return self._tenants[app_index].policy

    def _tenant_of(self, rdd_id: int) -> _Tenant | None:
        return self._tenants.get(owner_of(rdd_id))

    # ------------------------------------------------------------------
    # event routing
    # ------------------------------------------------------------------
    def on_insert(self, block: Block) -> None:
        tenant = self._tenant_of(block.id.rdd_id)
        if tenant is None:
            return
        tenant.sizes[block.id] = block.size_mb
        tenant.used_mb += block.size_mb
        tenant.policy.on_insert(block)

    def on_access(self, block: Block) -> None:
        tenant = self._tenant_of(block.id.rdd_id)
        if tenant is not None:
            tenant.policy.on_access(block)

    def on_remove(self, block_id: BlockId) -> None:
        tenant = self._tenant_of(block_id.rdd_id)
        if tenant is None:
            return
        size = tenant.sizes.pop(block_id, None)
        if size is not None:
            tenant.used_mb -= size
            if tenant.used_mb < 1e-9:
                tenant.used_mb = 0.0
        tenant.policy.on_remove(block_id)

    def on_miss(self, block_id: BlockId) -> None:
        tenant = self._tenant_of(block_id.rdd_id)
        if tenant is not None:
            tenant.policy.on_miss(block_id)

    # ------------------------------------------------------------------
    # victim selection
    # ------------------------------------------------------------------
    def eviction_order(self, store: MemoryStore) -> Iterable[BlockId]:
        single = self._single_tenant()
        if single is not None:
            return single.policy.eviction_order(store)
        return (bid for bid, _ in self._arbitrated(store, frozenset(), False))

    def prefetch_eviction_order(self, store: MemoryStore) -> Iterable[BlockId]:
        single = self._single_tenant()
        if single is not None:
            return single.policy.prefetch_eviction_order(store)
        return (bid for bid, _ in self._arbitrated(store, frozenset(), True))

    def select_victims(
        self,
        store: MemoryStore,
        needed_mb: float,
        protect: Container[BlockId] = frozenset(),
        for_prefetch: bool = False,
    ) -> list[BlockId] | None:
        single = self._single_tenant()
        if single is not None:
            # Byte-identity fast path: with one tenant the composite is
            # a transparent wrapper over the tenant policy on the raw
            # store — same victims, same order, same refusals.
            return single.policy.select_victims(
                store, needed_mb, protect, for_prefetch
            )
        victims: list[BlockId] = []
        freed = 0.0
        stream = self._arbitrated(store, protect, for_prefetch)
        while freed < needed_mb:
            nxt = next(stream, None)
            if nxt is None:
                return None
            bid, size = nxt
            victims.append(bid)
            freed += size
        return victims

    def admit_over(
        self, block: Block, victims: list[BlockId], store: MemoryStore
    ) -> bool:
        return self._admit(block, victims, store, prefetch=False)

    def admit_prefetch_over(
        self, block: Block, victims: list[BlockId], store: MemoryStore
    ) -> bool:
        return self._admit(block, victims, store, prefetch=True)

    def _admit(
        self, block: Block, victims: list[BlockId], store: MemoryStore, prefetch: bool
    ) -> bool:
        own = owner_of(block.id.rdd_id)
        tenant = self._tenants.get(own)
        if tenant is None:
            return True
        if self._single_tenant() is not None:
            if prefetch:
                return tenant.policy.admit_prefetch_over(block, victims, store)
            return tenant.policy.admit_over(block, victims, store)
        # The owner only judges the displacement of its *own* blocks:
        # foreign victims were conceded by arbitration, and refusing an
        # insertion because another application loses cache would let a
        # tenant veto the sharing policy.
        same = [v for v in victims if owner_of(v.rdd_id) == own]
        view = TenantStoreView(store, own)
        if prefetch:
            return tenant.policy.admit_prefetch_over(block, same, view)
        return tenant.policy.admit_over(block, same, view)

    # ------------------------------------------------------------------
    def _single_tenant(self) -> _Tenant | None:
        if len(self._tenants) == 1:
            return next(iter(self._tenants.values()))
        return None

    def _arbitrated(
        self, store: MemoryStore, protect: Container[BlockId], for_prefetch: bool
    ) -> Iterator[tuple[BlockId, float]]:
        """Merge tenant candidate streams under the arbitration policy.

        Each tenant exposes its own eviction order over its namespace
        view; arbitration repeatedly picks which tenant's head candidate
        is evicted next.  Yields ``(block_id, size_mb)`` pairs of
        evictable (unpinned, unprotected) blocks, worst first.
        """
        streams: dict[int, Iterator[BlockId]] = {}
        usage: dict[int, float] = {}
        for app_index in sorted(self._tenants):
            tenant = self._tenants[app_index]
            view = TenantStoreView(store, app_index)
            order = (
                tenant.policy.prefetch_eviction_order(view)
                if for_prefetch
                else tenant.policy.eviction_order(view)
            )
            streams[app_index] = iter(order)
            usage[app_index] = tenant.used_mb

        heads: dict[int, BlockId] = {}

        def advance(app_index: int) -> None:
            for bid in streams[app_index]:
                if bid in protect or store.is_pinned(bid):
                    continue
                heads[app_index] = bid
                return

        for app_index in sorted(streams):
            advance(app_index)

        capacity = store.capacity_mb
        while heads:
            candidates = []
            for app_index in sorted(heads):
                tenant = self._tenants[app_index]
                bid = heads[app_index]
                dist = tenant.distance_of(bid.rdd_id)
                candidates.append(
                    VictimCandidate(
                        app_index=app_index,
                        block_id=bid,
                        size_mb=store.block(bid).size_mb,
                        used_mb=usage[app_index],
                        share=tenant.share,
                        distance=INFINITE if dist is None else dist,
                    )
                )
            pick = self.arbitration.pick(candidates, capacity)
            yield pick.block_id, pick.size_mb
            usage[pick.app_index] -= pick.size_mb
            del heads[pick.app_index]
            advance(pick.app_index)


def _no_distance(rdd_id: int) -> float | None:
    return None
