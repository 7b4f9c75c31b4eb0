"""Unit tests for LRC, MemTune and Belady eviction behaviour."""

import pytest

from repro.cluster.block import Block, BlockId
from repro.cluster.memory_store import MemoryStore
from repro.dag.context import SparkApplication, SparkContext
from repro.dag.dag_builder import build_dag
from repro.policies.belady import BeladyPolicy
from repro.policies.lrc import LrcPolicy
from repro.policies.memtune import MemTunePolicy
from repro.policies.profile_oracle import ProfileOracle


def blk(rdd, part, size=1.0):
    return Block(id=BlockId(rdd, part), size_mb=size)


def three_rdd_app():
    """RDDs with distinct reference futures.

    a: read in jobs 1, 2, 3 (3 refs); b: read in job 2 only (1 ref, later);
    c: never re-read (0 refs).
    """
    ctx = SparkContext("three")
    a = ctx.text_file("a", 8, 2).map(name="a").cache()
    b = a.map(name="b").cache()
    c = a.map(name="c").cache()
    b.union(c).count()                       # job 0 computes a, b and c
    a.map_partitions(name="ra1").collect()   # job 1 reads a
    b.map_partitions(name="rb").collect()    # job 2 reads b
    a.map_partitions(name="ra2").collect()   # job 3 reads a
    a.map_partitions(name="ra3").collect()   # job 4 reads a
    return SparkApplication(ctx)


@pytest.fixture
def oracle():
    return ProfileOracle(build_dag(three_rdd_app()))


def ids_by_name(oracle):
    return {p.rdd.name: p.rdd.id for p in oracle.dag.profiles.values()}


class TestLrc:
    def test_lowest_count_evicted_first(self, oracle):
        ids = ids_by_name(oracle)
        store = MemoryStore(100.0, LrcPolicy(oracle))
        for name in ("a", "b", "c"):
            store.put(blk(ids[name], 0))
        order = list(store.policy.eviction_order(store))
        # c has 0 future refs, b has 1, a has 3.
        assert order[0].rdd_id == ids["c"]
        assert order[-1].rdd_id == ids["a"]

    def test_counts_decrease_as_execution_advances(self, oracle):
        ids = ids_by_name(oracle)
        before = oracle.remaining_reference_count(ids["a"])
        oracle.advance(len(oracle.dag.active_stages) - 1)
        after = oracle.remaining_reference_count(ids["a"])
        assert after < before

    def test_ties_broken_by_recency(self, oracle):
        ids = ids_by_name(oracle)
        store = MemoryStore(100.0, LrcPolicy(oracle))
        store.put(blk(ids["a"], 0))
        store.put(blk(ids["a"], 1))
        store.get(BlockId(ids["a"], 0))
        order = list(store.policy.eviction_order(store))
        assert order[0] == BlockId(ids["a"], 1)


class TestMemTune:
    def test_not_needed_soon_evicted_first(self, oracle):
        ids = ids_by_name(oracle)
        store = MemoryStore(100.0, MemTunePolicy(oracle, lookahead=0))
        oracle.advance(1)  # stage reading a; b read only next stage
        store.put(blk(ids["a"], 0))
        store.put(blk(ids["b"], 0))
        order = list(store.policy.eviction_order(store))
        assert order[0].rdd_id == ids["b"]  # b outside the current window
        assert order[-1].rdd_id == ids["a"]

    def test_lookahead_widens_window(self, oracle):
        ids = ids_by_name(oracle)
        store = MemoryStore(100.0, MemTunePolicy(oracle, lookahead=1))
        oracle.advance(1)  # window = stages 1-2 → both a and b needed
        store.put(blk(ids["a"], 0))
        store.put(blk(ids["b"], 0))
        store.put(blk(ids["c"], 0))
        order = list(store.policy.eviction_order(store))
        assert order[0].rdd_id == ids["c"]  # only c is outside the window

    def test_zero_lookahead_window(self, oracle):
        policy = MemTunePolicy(oracle, lookahead=0)
        assert policy._lookahead == 0

    def test_negative_lookahead_rejected(self, oracle):
        with pytest.raises(ValueError):
            MemTunePolicy(oracle, lookahead=-1)


class TestBelady:
    def test_furthest_next_use_evicted_first(self, oracle):
        ids = ids_by_name(oracle)
        store = MemoryStore(100.0, BeladyPolicy(oracle))
        oracle.advance(1)
        for name in ("a", "b", "c"):
            store.put(blk(ids[name], 0))
        order = list(store.policy.eviction_order(store))
        # c never reused (infinite) → first; a is read right now → last.
        assert order[0].rdd_id == ids["c"]
        assert order[-1].rdd_id == ids["a"]

    def test_admission_refuses_worse_blocks(self, oracle):
        ids = ids_by_name(oracle)
        store = MemoryStore(2.0, BeladyPolicy(oracle))
        oracle.advance(1)
        store.put(blk(ids["a"], 0))
        store.put(blk(ids["a"], 1))
        # c (never reused) must not displace a (read now).
        res = store.put(blk(ids["c"], 0))
        assert not res.stored
        assert len(store) == 2

    def test_stable_tie_break_within_rdd(self, oracle):
        ids = ids_by_name(oracle)
        store = MemoryStore(2.0, BeladyPolicy(oracle))
        store.put(blk(ids["a"], 0))
        store.put(blk(ids["a"], 1))
        # Another block of the same RDD must not churn the resident set.
        assert not store.put(blk(ids["a"], 2)).stored
