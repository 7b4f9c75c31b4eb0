"""Unit tests for the DAG builder: stages, skipping, reference profiles."""

import pytest

from repro.dag.context import SparkApplication, SparkContext
from repro.dag.dag_builder import build_dag
from repro.workloads.synthetic import SyntheticConfig, generate_application
from tests.conftest import make_diamond_app, make_iterative_app, make_linear_app


def _app(program, name="t"):
    ctx = SparkContext(name)
    program(ctx)
    return SparkApplication(ctx)


class TestStageSplitting:
    def test_narrow_chain_is_one_stage(self):
        dag = build_dag(_app(lambda ctx: ctx.text_file("a", 8, 2).map().filter().count()))
        assert dag.num_stages == 1
        assert dag.num_active_stages == 1
        (stage,) = dag.active_stages
        assert stage.is_result
        assert len(stage.pipeline) == 3

    def test_shuffle_splits_two_stages(self):
        dag = build_dag(_app(lambda ctx: ctx.text_file("a", 8, 2).reduce_by_key().count()))
        assert dag.num_stages == 2
        map_stage, result = dag.stages
        assert map_stage.shuffle_dep is not None and not map_stage.is_result
        assert result.is_result
        assert result.parent_stage_ids == (map_stage.id,)

    def test_join_creates_two_parent_stages(self, diamond_dag):
        result = diamond_dag.active_stages[-1]
        assert len(result.parent_stage_ids) == 2

    def test_stage_ids_globally_sequential(self, iterative_dag):
        assert [s.id for s in iterative_dag.stages] == list(range(iterative_dag.num_stages))

    def test_parents_created_before_children(self, iterative_dag):
        for stage in iterative_dag.stages:
            assert all(pid < stage.id for pid in stage.parent_stage_ids)

    def test_active_seq_contiguous_and_ordered(self, iterative_dag):
        seqs = [s.seq for s in iterative_dag.active_stages]
        assert seqs == list(range(len(seqs)))

    def test_skipped_stages_have_no_seq(self, iterative_dag):
        for stage in iterative_dag.stages:
            if stage.skipped:
                assert stage.seq == -1
                assert stage.pipeline == ()


class TestStageSkipping:
    def test_repeated_action_skips_materialized_shuffle(self):
        def program(ctx):
            r = ctx.text_file("a", 8, 2).reduce_by_key()
            r.count()  # job 0: map + result
            r.count()  # job 1: map skipped, result re-runs

        dag = build_dag(_app(program))
        assert dag.num_stages == 4
        assert dag.num_active_stages == 3
        job1 = dag.jobs[1]
        skipped = [dag.stage(sid) for sid in job1.stage_ids if dag.stage(sid).skipped]
        assert len(skipped) == 1
        assert skipped[0].shuffle_dep is not None

    def test_iterative_app_grows_skipped_history(self):
        dag = build_dag(make_iterative_app(iterations=4))
        assert dag.num_stages > dag.num_active_stages
        # Later jobs contain strictly more skipped stages.
        skipped_per_job = [
            sum(1 for sid in job.stage_ids if dag.stage(sid).skipped) for job in dag.jobs
        ]
        assert skipped_per_job[0] == 0
        assert skipped_per_job[-2] >= skipped_per_job[1]

    def test_cached_rdd_truncates_submission(self):
        def program(ctx):
            base = ctx.text_file("a", 8, 2).reduce_by_key(name="wide").cache()
            base.count()          # job 0 computes the shuffle + caches
            base.map().count()    # job 1 reads cache: map stage skipped

        dag = build_dag(_app(program))
        job1_active = [dag.stage(s) for s in dag.jobs[1].active_stage_ids]
        assert len(job1_active) == 1
        assert job1_active[0].is_result


class TestReferenceProfiles:
    def test_cached_rdd_write_then_reads(self):
        dag = build_dag(make_linear_app(num_jobs=3))
        (prof,) = [p for p in dag.profiles.values() if p.rdd.name == "points"]
        assert prof.created_seq == 0
        assert prof.read_seqs == [1, 2]
        assert prof.read_jobs == [1, 2]
        assert prof.reference_count == 2

    def test_uncached_rdds_have_no_profile(self, linear_dag):
        names = {p.rdd.name for p in linear_dag.profiles.values()}
        assert names == {"points"}

    def test_reads_only_after_creation(self, iterative_dag):
        for prof in iterative_dag.profiles.values():
            assert all(s >= prof.created_seq for s in prof.read_seqs)

    def test_unpersist_recorded_on_profile(self):
        dag = build_dag(make_iterative_app(iterations=3, unpersist=True))
        unpersisted = [p for p in dag.profiles.values() if p.unpersist_after_job is not None]
        assert unpersisted, "expected unpersist events to land on profiles"

    def test_diamond_intra_job_read(self, diamond_dag):
        (prof,) = [p for p in diamond_dag.profiles.values() if p.rdd.name == "base"]
        # base computed by the first branch's map stage, read by the second.
        assert prof.reference_count == 1
        assert prof.read_jobs == [prof.created_job]

    def test_cache_reads_match_profiles(self, iterative_dag):
        reads_from_stages = sum(len(s.cache_reads) for s in iterative_dag.active_stages)
        reads_from_profiles = sum(p.reference_count for p in iterative_dag.profiles.values())
        assert reads_from_stages == reads_from_profiles


class TestStageContents:
    def test_input_reads_recorded(self, linear_dag):
        first = linear_dag.active_stages[0]
        assert [r.name for r in first.input_reads] == ["train"]
        assert first.input_read_mb == pytest.approx(64.0)

    def test_later_stages_truncate_at_cache(self, linear_dag):
        later = linear_dag.active_stages[1]
        assert later.input_reads == ()
        assert [r.name for r in later.cache_reads] == ["points"]

    def test_shuffle_read_mb(self):
        dag = build_dag(_app(lambda ctx: ctx.text_file("a", 8, 2).reduce_by_key().count()))
        result = dag.active_stages[-1]
        assert result.shuffle_read_mb == pytest.approx(8.0)

    def test_compute_cost_positive(self, iterative_dag):
        assert all(s.compute_cost_per_task >= 0 for s in iterative_dag.active_stages)

    def test_job_of_seq(self, iterative_dag):
        for stage in iterative_dag.active_stages:
            assert iterative_dag.job_of_seq(stage.seq) == stage.job_id


class TestDeepLineage:
    def test_500_job_sparse_app_builds(self):
        # Jobs of this shape build on earlier jobs' RDDs, so a late job's
        # lineage reaches hundreds of shuffles back and stage creation
        # walks all of it: past Python's recursion limit for a recursive
        # walk.
        app = generate_application(1, SyntheticConfig(
            num_jobs=500, partitions=8, cache_probability=0.05, reuse_probability=0.3,
        ))
        dag = build_dag(app)
        assert dag.num_jobs == 500
        for stage in dag.stages:
            assert all(parent < stage.id for parent in stage.parent_stage_ids)
