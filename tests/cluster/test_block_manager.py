"""Unit tests for the per-node block manager."""

import pytest

from repro.cluster.block import Block, BlockId
from repro.cluster.block_manager import AccessOutcome, BlockManager
from repro.cluster.network import DiskModel
from repro.cluster.node import WorkerNode
from repro.policies.lru import LruPolicy


def blk(rdd, part, size=10.0):
    return Block(id=BlockId(rdd, part), size_mb=size)


@pytest.fixture
def mgr():
    node = WorkerNode(
        node_id=0, num_slots=2, cache_capacity_mb=30.0,
        policy=LruPolicy(), disk_model=DiskModel(),
    )
    return BlockManager(node)


class TestInsert:
    def test_write_through_to_disk(self, mgr):
        assert mgr.insert_cached(blk(0, 0))
        assert BlockId(0, 0) in mgr.node.memory
        assert BlockId(0, 0) in mgr.node.disk
        assert mgr.stats.insertions == 1

    def test_failed_insert_still_on_disk(self, mgr):
        assert not mgr.insert_cached(blk(0, 0, size=99.0))
        assert BlockId(0, 0) not in mgr.node.memory
        assert BlockId(0, 0) in mgr.node.disk
        assert mgr.stats.failed_insertions == 1

    def test_eviction_counted(self, mgr):
        for i in range(4):  # 4 x 10MB into 30MB
            mgr.insert_cached(blk(0, i))
        assert mgr.stats.evictions == 1
        assert mgr.stats.evicted_mb == pytest.approx(10.0)


class TestAccess:
    def test_memory_hit(self, mgr):
        mgr.insert_cached(blk(0, 0))
        assert mgr.access(BlockId(0, 0)) is AccessOutcome.MEMORY_HIT
        assert mgr.stats.hits == 1

    def test_disk_read_after_eviction(self, mgr):
        for i in range(4):
            mgr.insert_cached(blk(0, i))
        assert mgr.access(BlockId(0, 0)) is AccessOutcome.DISK_READ
        assert mgr.stats.misses == 1

    def test_missing_block(self, mgr):
        assert mgr.access(BlockId(7, 7)) is AccessOutcome.MISSING
        assert mgr.stats.misses == 1

    def test_hit_ratio(self, mgr):
        mgr.insert_cached(blk(0, 0))
        mgr.access(BlockId(0, 0))
        mgr.access(BlockId(9, 9))
        assert mgr.stats.hit_ratio == pytest.approx(0.5)
        assert mgr.stats.accesses == 2


class TestPromotion:
    def test_promote_from_disk(self, mgr):
        mgr.node.disk.put(blk(0, 0))
        assert mgr.promote_from_disk(blk(0, 0))
        assert BlockId(0, 0) in mgr.node.memory

    def test_promote_absent_raises(self, mgr):
        with pytest.raises(KeyError):
            mgr.promote_from_disk(blk(0, 0))

    def test_prefetch_promotion_tracked(self, mgr):
        mgr.node.disk.put(blk(0, 0))
        mgr.promote_from_disk(blk(0, 0), prefetch=True)
        assert mgr.stats.prefetched_mb == pytest.approx(10.0)
        mgr.access(BlockId(0, 0))
        assert mgr.stats.prefetches_used == 1

    def test_prefetch_use_counted_once(self, mgr):
        mgr.node.disk.put(blk(0, 0))
        mgr.promote_from_disk(blk(0, 0), prefetch=True)
        mgr.access(BlockId(0, 0))
        mgr.access(BlockId(0, 0))
        assert mgr.stats.prefetches_used == 1
        assert mgr.stats.hits == 2


class TestPurge:
    def test_purge_removes_memory_keeps_disk(self, mgr):
        mgr.insert_cached(blk(0, 0))
        mgr.purge_block(BlockId(0, 0))
        assert BlockId(0, 0) not in mgr.node.memory
        assert BlockId(0, 0) in mgr.node.disk
        assert mgr.stats.purged == 1

    def test_purge_drop_disk(self, mgr):
        mgr.insert_cached(blk(0, 0))
        mgr.purge_block(BlockId(0, 0), drop_disk=True)
        assert BlockId(0, 0) not in mgr.node.disk
