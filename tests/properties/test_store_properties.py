"""Property-based tests: memory-store invariants under random op streams."""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.block import Block, BlockId
from repro.cluster.memory_store import MemoryStore
from repro.policies.fifo import FifoPolicy
from repro.policies.lru import LruPolicy
from repro.policies.random_policy import RandomPolicy

POLICIES = [LruPolicy, FifoPolicy, lambda: RandomPolicy(seed=3)]

#: (op, rdd, part, size) — sizes are small relative to 32 MB capacity.
_OPS = st.tuples(
    st.sampled_from(["put", "get", "remove"]),
    st.integers(0, 3),
    st.integers(0, 7),
    st.floats(0.5, 12.0),
)


@settings(max_examples=80, deadline=None)
@given(st.lists(_OPS, max_size=60), st.sampled_from(POLICIES))
def test_store_invariants(ops, policy_factory):
    store = MemoryStore(32.0, policy_factory())
    for op, rdd, part, size in ops:
        bid = BlockId(rdd, part)
        if op == "put":
            store.put(Block(id=bid, size_mb=size))
        elif op == "get":
            block = store.get(bid)
            assert (block is not None) == (bid in store)
        elif op == "remove":
            store.remove(bid)
        # Core invariants after every operation:
        assert store.used_mb <= store.capacity_mb + 1e-9
        assert abs(store.used_mb - sum(b.size_mb for b in store.blocks())) < 1e-6
        assert 0 <= len(store)


@settings(max_examples=50, deadline=None)
@given(st.lists(_OPS, max_size=40), st.sampled_from(POLICIES))
def test_policy_metadata_consistent_with_store(ops, policy_factory):
    """The policy's eviction order always enumerates exactly the contents."""
    store = MemoryStore(32.0, policy_factory())
    for op, rdd, part, size in ops:
        bid = BlockId(rdd, part)
        if op == "put":
            store.put(Block(id=bid, size_mb=size))
        elif op == "get":
            store.get(bid)
        elif op == "remove":
            store.remove(bid)
    order = list(store.policy.eviction_order(store))
    assert sorted(order) == sorted(store.block_ids())
