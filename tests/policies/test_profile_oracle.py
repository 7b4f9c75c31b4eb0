"""Unit tests for the shared DAG-profile oracle."""

import math

import pytest

from repro.dag.dag_builder import build_dag
from repro.policies.profile_oracle import INFINITE, ProfileOracle
from tests.conftest import make_linear_app


@pytest.fixture
def linear_oracle():
    # points: created seq 0, read at seqs 1, 2, 3.
    return ProfileOracle(build_dag(make_linear_app(num_jobs=4)))


def points_id(oracle):
    (rdd_id,) = oracle.tracked_rdd_ids()
    return rdd_id


class TestRecurringQueries:
    def test_initial_distance(self, linear_oracle):
        rid = points_id(linear_oracle)
        assert linear_oracle.next_reference_seq(rid) == 1
        assert linear_oracle.stage_distance(rid) == 1

    def test_advance_consumes_references(self, linear_oracle):
        rid = points_id(linear_oracle)
        linear_oracle.advance(2)
        assert linear_oracle.stage_distance(rid) == 0  # read at seq 2
        assert linear_oracle.remaining_reference_count(rid) == 2  # seqs 2, 3

    def test_exhausted_is_infinite(self, linear_oracle):
        rid = points_id(linear_oracle)
        last = len(linear_oracle.dag.active_stages) - 1
        linear_oracle.advance(last)
        # The final read is at the last stage → distance 0, then dead.
        assert linear_oracle.stage_distance(rid) == 0 or math.isinf(
            linear_oracle.stage_distance(rid)
        )

    def test_unknown_rdd_is_infinite(self, linear_oracle):
        assert linear_oracle.stage_distance(999) == INFINITE
        assert linear_oracle.remaining_reference_count(999) == 0
        assert 999 not in linear_oracle.tracked_rdd_ids()

    def test_advance_out_of_range(self, linear_oracle):
        with pytest.raises(ValueError):
            linear_oracle.advance(-1)
        with pytest.raises(ValueError):
            linear_oracle.advance(10_000)


class TestWindows:
    def test_window_contains_current_stage_reads(self):
        oracle = ProfileOracle(build_dag(make_linear_app(num_jobs=3)))
        oracle.advance(1)
        rid = points_id(oracle)
        assert rid in oracle.referenced_in_window(0)

    def test_window_lookahead(self):
        oracle = ProfileOracle(build_dag(make_linear_app(num_jobs=3)))
        # At seq 0 nothing reads points; at lookahead 1 the next stage does.
        assert oracle.referenced_in_window(0) == set()
        assert points_id(oracle) in oracle.referenced_in_window(1)
