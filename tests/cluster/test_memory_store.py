"""Unit tests for the bounded memory store."""

import pytest

from repro.cluster.block import Block, BlockId
from repro.cluster.memory_store import MemoryStore
from repro.policies.lru import LruPolicy


def blk(rdd, part, size=10.0):
    return Block(id=BlockId(rdd, part), size_mb=size)


@pytest.fixture
def store():
    return MemoryStore(capacity_mb=30.0, policy=LruPolicy())


class TestAccounting:
    def test_empty(self, store):
        assert len(store) == 0
        assert store.used_mb == 0.0
        assert store.free_mb == 30.0
        assert store.free_fraction == pytest.approx(1.0)

    def test_put_updates_usage(self, store):
        assert store.put(blk(0, 0)).stored
        assert store.used_mb == pytest.approx(10.0)
        assert BlockId(0, 0) in store

    def test_put_existing_is_noop(self, store):
        store.put(blk(0, 0))
        res = store.put(blk(0, 0))
        assert res.stored and not res.evicted
        assert store.used_mb == pytest.approx(10.0)

    def test_zero_capacity_refuses_everything(self):
        s = MemoryStore(0.0, LruPolicy())
        assert not s.put(blk(0, 0)).stored

    def test_negative_capacity_rejected(self):
        with pytest.raises(ValueError):
            MemoryStore(-1.0, LruPolicy())

    def test_block_bigger_than_store_refused(self, store):
        assert not store.put(blk(0, 0, size=31.0)).stored
        assert len(store) == 0

    def test_usage_never_exceeds_capacity(self, store):
        for i in range(10):
            store.put(blk(0, i, size=7.0))
        assert store.used_mb <= store.capacity_mb + 1e-9


class TestEviction:
    def test_lru_victim_evicted(self, store):
        store.put(blk(0, 0))
        store.put(blk(0, 1))
        store.put(blk(0, 2))
        store.get(BlockId(0, 0))  # freshen block 0
        res = store.put(blk(0, 3))  # needs 10MB → evict LRU = block 1
        assert res.stored
        assert [b.id for b in res.evicted] == [BlockId(0, 1)]
        assert BlockId(0, 0) in store

    def test_multiple_victims_for_large_block(self, store):
        for i in range(3):
            store.put(blk(0, i))
        res = store.put(blk(1, 0, size=25.0))
        assert res.stored
        assert len(res.evicted) == 3

    def test_remove_returns_block(self, store):
        store.put(blk(0, 0))
        removed = store.remove(BlockId(0, 0))
        assert removed is not None and removed.size_mb == 10.0
        assert store.used_mb == 0.0

    def test_remove_absent_is_none(self, store):
        assert store.remove(BlockId(9, 9)) is None


class TestProtect:
    def test_protected_blocks_survive(self, store):
        store.put(blk(0, 0))
        store.put(blk(0, 1))
        store.put(blk(0, 2))
        res = store.put(blk(1, 0), protect=frozenset({BlockId(0, 0)}))
        assert res.stored
        assert BlockId(0, 0) in store

    def test_everything_protected_refuses(self, store):
        ids = set()
        for i in range(3):
            store.put(blk(0, i))
            ids.add(BlockId(0, i))
        assert not store.put(blk(1, 0), protect=frozenset(ids)).stored


class TestAdmission:
    def test_admit_over_veto_blocks_insert(self, store):
        class Veto(LruPolicy):
            def admit_over(self, block, victims, store):
                return False

        s = MemoryStore(20.0, Veto())
        s.put(blk(0, 0))
        s.put(blk(0, 1))
        res = s.put(blk(1, 0))
        assert not res.stored
        assert not res.evicted
        assert len(s) == 2

    def test_admit_not_consulted_when_space_free(self, store):
        class Veto(LruPolicy):
            def admit_over(self, block, victims, store):
                return False

        s = MemoryStore(20.0, Veto())
        assert s.put(blk(0, 0)).stored

    def test_prefetch_uses_prefetch_admission(self):
        class PrefetchVeto(LruPolicy):
            def admit_prefetch_over(self, block, victims, store):
                return False

        s = MemoryStore(10.0, PrefetchVeto())
        s.put(blk(0, 0))
        assert not s.put(blk(1, 0), prefetch=True).stored
        assert s.put(blk(2, 0)).stored  # demand path unaffected


class TestGet:
    def test_get_absent_returns_none(self, store):
        assert store.get(BlockId(0, 0)) is None

    def test_get_refreshes_recency(self, store):
        store.put(blk(0, 0))
        store.put(blk(0, 1))
        store.get(BlockId(0, 0))
        order = list(store.policy.eviction_order(store))
        assert order[0] == BlockId(0, 1)
