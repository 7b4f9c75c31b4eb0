"""Property tests: every victim selection equals the reference walk.

Each policy answers ``select_victims`` from whatever order it keeps
between selections — LRU's and FIFO's queues walked in place, the
distance policies' bisect-maintained ``(key, BlockId)`` order — and the
answer must be byte-identical to walking the public
``eviction_order``/``prefetch_eviction_order``.  That holds on random
stores with duplicate sizes and heavily tied keys, random pins and
protected sets, and with distances that change mid-stream: a delivered
table broadcast (the maintained order engages) or live manager drift
(no snapshot, so it must not).
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench.engine_bench import BenchConfig, build_bench_dag
from repro.cluster.block import Block, BlockId
from repro.cluster.memory_store import MemoryStore
from repro.core.cache_monitor import TIE_BREAKERS, CacheMonitor, MrdTableView
from repro.core.policy import PrefetchAwareLruPolicy
from repro.policies.fifo import FifoPolicy
from repro.policies.lfu import LfuPolicy
from repro.policies.lru import LruPolicy
from repro.simulator.engine import simulate
from repro.sweep.schemes import resolve_scheme
from repro.tenancy.arbitration import RDD_NAMESPACE_STRIDE, ArbitratedNodePolicy, StaticShares


class _StubManager:
    """Live-distance source for policies built outside an engine."""

    def __init__(self) -> None:
        self.distances: dict[int, float] = {}

    def distance(self, rdd_id: int) -> float:
        return self.distances.get(rdd_id, float(rdd_id % 3))


#: (label, factory) — every policy with its own selection path, the
#: three CacheMonitor tie-breakers and the prefetch-only variant.
POLICIES = [
    ("lru", lambda _m: LruPolicy()),
    ("fifo", lambda _m: FifoPolicy()),
    ("lfu", lambda _m: LfuPolicy()),
    *(
        (f"mrd-{tb}", lambda m, tb=tb: CacheMonitor(0, m, tie_breaker=tb))
        for tb in TIE_BREAKERS
    ),
    ("mrd-prefetch", PrefetchAwareLruPolicy),
]

#: Duplicate-heavy sizes and a tiny id space force equal-key ties;
#: ``select`` checks a selection mid-stream, so maintained orders are
#: built early and must then survive inserts, removals and broadcasts.
_OPS = st.lists(
    st.tuples(
        st.sampled_from(["put", "get", "remove", "select"]),
        st.integers(0, 3),
        st.integers(0, 7),
        st.sampled_from([1.0, 2.0, 3.0]),
    ),
    min_size=4,
    max_size=50,
)

#: One distance per rdd id 0..3; duplicates (and inf) are deliberate.
_DISTS = st.lists(
    st.sampled_from([1.0, 2.0, 5.0, float("inf")]), min_size=4, max_size=4
)


def _apply(store: MemoryStore, op: str, rdd: int, part: int, size: float) -> None:
    bid = BlockId(rdd, part)
    if op == "put":
        store.put(Block(id=bid, size_mb=size))
    elif op == "get":
        store.get(bid)
    elif op == "remove":
        store.remove(bid)
    elif op == "select":
        for for_prefetch in (False, True):
            check_selection(store.policy, store, size * 2, for_prefetch)


def reference_walk(order, store, needed_mb, protect):
    """The specification: leading evictable blocks of ``order``."""
    victims, freed = [], 0.0
    for bid in order:
        if freed >= needed_mb:
            break
        if bid in protect:
            continue
        victims.append(bid)
        freed += store.block(bid).size_mb
    return victims if freed >= needed_mb else None


def check_selection(policy, store, needed_mb, for_prefetch):
    """Public ``select_victims`` == the walk over the public order."""
    protect = frozenset(list(store.block_ids())[::3])
    order = (
        policy.prefetch_eviction_order(store)
        if for_prefetch
        else policy.eviction_order(store)
    )
    expected = reference_walk(order, store, needed_mb, protect)
    assert policy.select_victims(store, needed_mb, protect, for_prefetch) == expected


@settings(max_examples=300, deadline=None)
@given(
    ops=_OPS,
    dist1=_DISTS,
    dist2=_DISTS,
    needed=st.floats(0.5, 16.0),
    spec=st.sampled_from(POLICIES),
    snapshot=st.booleans(),
    update_mid=st.booleans(),
    for_prefetch=st.booleans(),
)
def test_select_victims_matches_reference_walk(
    ops, dist1, dist2, needed, spec, snapshot, update_mid, for_prefetch
):
    _, factory = spec
    manager = _StubManager()
    policy = factory(manager)
    store = MemoryStore(24.0, policy)

    def set_distances(seq, dists):
        if snapshot:
            policy.on_table_update(seq, dict(enumerate(dists)))
        else:  # live distances drift with no broadcast to announce it
            manager.distances = dict(enumerate(dists))

    set_distances(1, dist1)
    for i, (op, rdd, part, size) in enumerate(ops):
        _apply(store, op, rdd, part, size)
        if update_mid and i == len(ops) // 2:
            # Selections on both sides of the change: an order built
            # before it must not answer after it.
            check_selection(policy, store, needed, for_prefetch)
            set_distances(2, dist2)
            check_selection(policy, store, needed, for_prefetch)
    check_selection(policy, store, needed, for_prefetch)


@settings(max_examples=100, deadline=None)
@given(
    ids=st.lists(
        st.tuples(st.integers(0, 3), st.integers(0, 7)),
        min_size=2, max_size=12, unique=True,
    ),
    dist1=_DISTS,
    dist2=_DISTS,
    needed=st.floats(0.5, 8.0),
    spec=st.sampled_from([p for p in POLICIES if p[0].startswith("mrd")]),
    snapshot=st.booleans(),
)
def test_order_follows_distance_changes(ids, dist1, dist2, needed, spec, snapshot):
    """An order built on one set of distances never answers under
    another: an accepted broadcast invalidates it, a stale one is
    refused and changes nothing, and live drift never engages it."""
    _, factory = spec
    manager = _StubManager()
    policy = factory(manager)
    store = MemoryStore(64.0, policy)
    for seq, dists in ((1, dist1), (2, dist2), (1, dist1)):
        if snapshot:
            policy.on_table_update(seq, dict(enumerate(dists)))
        else:
            manager.distances = dict(enumerate(dists))
        for rdd, part in ids[: len(ids) // 2 * seq]:
            store.put(Block(id=BlockId(rdd, part), size_mb=1.0))
        for for_prefetch in (False, True):
            check_selection(policy, store, needed, for_prefetch)


@settings(max_examples=40, deadline=None)
@given(ops=_OPS, dists=_DISTS, needed=st.floats(0.5, 40.0))
def test_order_yields_to_walk_when_store_holds_foreign_blocks(ops, dists, needed):
    """On a shared store the tenant's order covers only its own blocks,
    so a single-tenant selection over the raw store must fall back to
    the walk that ranks the foreign blocks too."""
    monitor = CacheMonitor(0, _StubManager())
    node = ArbitratedNodePolicy(StaticShares())
    node.register_tenant(0, monitor)
    store = MemoryStore(24.0, node)
    monitor.on_table_update(1, dict(enumerate(dists)))
    # App 1 never registered: its block is resident but untracked.
    store.put(Block(id=BlockId(RDD_NAMESPACE_STRIDE, 0), size_mb=2.0))
    for op, rdd, part, size in ops:
        _apply(store, op, rdd, part, size)
    check_selection(node, store, needed, False)


def test_maintained_orders_answer_every_selection(monkeypatch):
    """On the bench cache profile (instant control plane) every MRD
    demand selection and every prefetch-only prefetch selection is
    answered from the maintained order, never from a per-selection
    sort of the store."""
    sorts: list[str] = []
    selections: dict[tuple[str, bool], int] = {}

    def forbid(name):
        def sort(self, store):
            sorts.append(name)
            return iter(sorted(store.block_ids()))
        return sort

    original = MrdTableView.select_victims

    def counted(self, store, needed_mb, protect=frozenset(), for_prefetch=False):
        key = (type(self).__name__, for_prefetch)
        selections[key] = selections.get(key, 0) + 1
        return original(self, store, needed_mb, protect, for_prefetch)

    monkeypatch.setattr(CacheMonitor, "eviction_order", forbid("eviction_order"))
    monkeypatch.setattr(
        PrefetchAwareLruPolicy, "prefetch_eviction_order",
        forbid("prefetch_eviction_order"),
    )
    monkeypatch.setattr(MrdTableView, "select_victims", counted)

    bench = BenchConfig(min_tasks=600, num_nodes=8, repeats=1)
    dag = build_bench_dag(bench, "cache")
    cfg = bench.cluster().with_cache(40.0)
    for scheme_name in ("mrd", "mrd-prefetch"):
        metrics = simulate(dag, cfg, resolve_scheme(scheme_name).build())
        assert metrics.stats.evictions > 0, scheme_name
    assert sorts == []
    assert selections.get(("CacheMonitor", False), 0) > 0
    assert selections.get(("PrefetchAwareLruPolicy", True), 0) > 0
