"""Compile a recorded application into jobs, stages and reference profiles.

The algorithm mirrors Spark's ``DAGScheduler``:

1. For each job (action), walk the target RDD's lineage.  Narrow
   dependencies are pipelined into the current stage; every shuffle
   dependency creates (or re-creates, for later jobs) a parent
   shuffle-map stage.  Stage ids are global and increase in creation
   order, parents before children.
2. A shuffle-map stage whose shuffle output was already materialized by
   an earlier job is marked *skipped* — it still occupies a stage id
   (so totals match what the Spark UI reports and Table 3 counts) but
   does not execute.
3. Active stages execute in id order.  For each one we compute the
   *truncated pipeline*: lineage traversal stops at cached RDDs that
   were already computed (those become cache reads) and at shuffle
   boundaries (shuffle reads).  Cached RDDs computed for the first time
   become cache writes.  This yields, per cached RDD, the exact
   sequence of stage indices at which its blocks are touched — the raw
   material for reference counts (LRC) and reference distances (MRD).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.dag.context import SparkApplication
from repro.dag.rdd import NarrowDependency, RDD, ShuffleDependency
from repro.dag.structures import Job, RddReferenceProfile, Stage


@dataclass
class ApplicationDAG:
    """The fully compiled application DAG.

    ``stages`` is indexed by global stage id; ``active_stages`` is the
    execution sequence (indexed by ``seq``).  ``profiles`` maps the id
    of every cached RDD to its :class:`RddReferenceProfile`.
    """

    app: SparkApplication
    jobs: list[Job]
    stages: list[Stage]
    active_stages: list[Stage]
    profiles: dict[int, RddReferenceProfile]
    #: Engine-owned cache of compiled per-stage task plans, keyed by
    #: ``(stage seq, num_nodes)``.  Derived data only — excluded from
    #: equality and repr; reused across simulator instances so repeated
    #: runs of one DAG (benchmarks, sweeps) skip replanning.
    engine_plans: dict = field(default_factory=dict, repr=False, compare=False)

    @property
    def num_jobs(self) -> int:
        return len(self.jobs)

    @property
    def num_stages(self) -> int:
        return len(self.stages)

    @property
    def num_active_stages(self) -> int:
        return len(self.active_stages)

    @property
    def cached_rdds(self) -> list[RDD]:
        return [p.rdd for p in self.profiles.values()]

    def stage(self, stage_id: int) -> Stage:
        return self.stages[stage_id]

    def job_of_seq(self, seq: int) -> int:
        """Job id executing at active-stage index ``seq``."""
        return self.active_stages[seq].job_id

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ApplicationDAG({self.app.signature!r} jobs={self.num_jobs} "
            f"stages={self.num_stages} active={self.num_active_stages} "
            f"cached_rdds={len(self.profiles)})"
        )


@dataclass
class _StageSkeleton:
    """Phase-A stage record, before pipelines/costs are resolved."""

    id: int
    job_id: int
    rdd: RDD
    shuffle_dep: ShuffleDependency | None
    parent_ids: list[int]
    skipped: bool


class DagBuilder:
    """Stateful two-phase builder; use :func:`build_dag` for the one-liner."""

    def __init__(self, app: SparkApplication) -> None:
        self.app = app
        self._stages: list[Stage] = []
        self._skeletons: list[_StageSkeleton] = []
        self._materialized_shuffles: set[int] = set()
        #: cached rdd id -> seq of the stage that computed its blocks
        self._computed_cached: dict[int, int] = {}
        self._seq_counter = 0
        self._profiles: dict[int, RddReferenceProfile] = {}
        self._unpersist_after: dict[int, int] = {
            ev.rdd.id: ev.after_job_id for ev in app.ctx.unpersist_events
        }
        # Any RDD that was ever cached (including later-unpersisted ones).
        self._ever_cached: set[int] = {r.id for r in app.ctx.cached_rdds}

    # ------------------------------------------------------------------
    def build(self) -> ApplicationDAG:
        jobs: list[Job] = []
        for spec in self.app.jobs:
            first_new = len(self._skeletons)
            result_skel_id = self._build_job_skeletons(spec.target, spec.job_id)
            new_skeletons = self._skeletons[first_new:]
            self._mark_active(result_skel_id, spec.job_id)
            for skel in new_skeletons:
                self._stages.append(self._resolve_stage(skel))
            job_stage_ids = tuple(s.id for s in new_skeletons)
            active_ids = tuple(
                s.id for s in new_skeletons if not s.skipped
            )
            jobs.append(
                Job(id=spec.job_id, spec=spec, stage_ids=job_stage_ids, active_stage_ids=active_ids)
            )
        active = sorted((s for s in self._stages if s.is_active), key=lambda s: s.seq)
        for rdd_id, after in self._unpersist_after.items():
            if rdd_id in self._profiles:
                self._profiles[rdd_id].unpersist_after_job = after
        return ApplicationDAG(
            app=self.app,
            jobs=jobs,
            stages=self._stages,
            active_stages=active,
            profiles=self._profiles,
        )

    # ------------------------------------------------------------------
    # phase A: stage skeleton creation (per job)
    # ------------------------------------------------------------------
    def _build_job_skeletons(self, target: RDD, job_id: int) -> int:
        """Create this job's stage skeletons, parents before children.

        Mirrors Spark's ``createResultStage`` → ``getOrCreateParentStages``:
        the *entire* shuffle lineage gets a stage, regardless of cache
        state or earlier materialization — skipping is a submission-time
        decision made separately in :meth:`_mark_active`.  Returns the
        result skeleton's id.
        """
        created: dict[int, int] = {}  # shuffle id -> skeleton id (within job)

        # Post-order walk on an explicit stack (lineages run hundreds of
        # shuffles deep): a frame is (rdd, shuffle dep, parent deps,
        # parent skeleton ids so far); a frame's skeleton is created once
        # every parent dep has one, so ids come parents first, in
        # dependency order.
        def frame(
            rdd: RDD, dep: ShuffleDependency | None
        ) -> tuple[RDD, ShuffleDependency | None, list[ShuffleDependency], list[int]]:
            return rdd, dep, self._frontier_shuffle_deps(rdd, job_id, truncate=False), []

        stack = [frame(target, None)]
        while True:
            rdd, shuffle_dep, parent_deps, parent_ids = stack[-1]
            if len(parent_ids) < len(parent_deps):
                dep = parent_deps[len(parent_ids)]
                existing = created.get(dep.shuffle_id)
                if existing is None:
                    stack.append(frame(dep.parent, dep))
                else:
                    parent_ids.append(existing)
                continue
            stack.pop()
            skel = _StageSkeleton(
                id=len(self._skeletons),
                job_id=job_id,
                rdd=rdd,
                shuffle_dep=shuffle_dep,
                parent_ids=parent_ids,
                skipped=True,  # flipped by _mark_active for submitted stages
            )
            self._skeletons.append(skel)
            if shuffle_dep is None:  # the result stage closes the walk
                return skel.id
            created[shuffle_dep.shuffle_id] = skel.id
            stack[-1][3].append(skel.id)

    def _mark_active(self, result_skel_id: int, job_id: int) -> None:
        """Decide which of the job's stages actually execute.

        Mirrors ``getMissingParentStages`` at job-submission time: walk
        the lineage, stopping at cached RDDs whose blocks already exist
        and at shuffle dependencies whose map output is materialized.
        Everything reached is submitted (active); the rest shows up as
        skipped stages, exactly like the Spark UI.
        """
        by_shuffle_id: dict[int, _StageSkeleton] = {}
        stack = [result_skel_id]
        # Map this job's shuffle ids to skeletons (parents recorded on
        # every skeleton, so a simple downward walk suffices).
        walk = [result_skel_id]
        seen: set[int] = set()
        while walk:
            sid = walk.pop()
            if sid in seen:
                continue
            seen.add(sid)
            skel = self._skeletons[sid]
            if skel.shuffle_dep is not None:
                by_shuffle_id[skel.shuffle_dep.shuffle_id] = skel
            walk.extend(skel.parent_ids)

        active: set[int] = set()
        while stack:
            sid = stack.pop()
            if sid in active:
                continue
            active.add(sid)
            skel = self._skeletons[sid]
            skel.skipped = False
            for dep in self._frontier_shuffle_deps(skel.rdd, job_id, truncate=True):
                if dep.shuffle_id in self._materialized_shuffles:
                    continue  # map output exists: parent stage skipped
                parent = by_shuffle_id.get(dep.shuffle_id)
                if parent is not None:
                    stack.append(parent.id)

    def _frontier_shuffle_deps(
        self, rdd: RDD, job_id: int, truncate: bool
    ) -> list[ShuffleDependency]:
        """Shuffle deps reachable from ``rdd`` without crossing a shuffle.

        With ``truncate=True`` the traversal also stops at cached RDDs
        already computed (blocks available in memory or on disk), which
        is Spark's submission-time rule; with ``truncate=False`` it is
        the stage-*creation* rule that sees the whole lineage.
        """
        deps: list[ShuffleDependency] = []
        seen: set[int] = set()
        stack = [rdd]
        root_id = rdd.id
        while stack:
            r = stack.pop()
            if r.id in seen:
                continue
            seen.add(r.id)
            if truncate and r.id != root_id and self._is_cache_hit_assumed(r, job_id):
                continue  # lineage truncated at an available cached RDD
            for dep in r.deps:
                if isinstance(dep, ShuffleDependency):
                    deps.append(dep)
                else:
                    stack.append(dep.parent)
        # Deterministic order: by shuffle id.
        deps.sort(key=lambda d: d.shuffle_id)
        return deps

    # ------------------------------------------------------------------
    # phase B: resolve pipelines, reads/writes, costs
    # ------------------------------------------------------------------
    def _resolve_stage(self, skel: _StageSkeleton) -> Stage:
        if skel.skipped:
            return Stage(
                id=skel.id,
                job_id=skel.job_id,
                seq=-1,
                rdd=skel.rdd,
                pipeline=(),
                shuffle_dep=skel.shuffle_dep,
                parent_stage_ids=tuple(skel.parent_ids),
                skipped=True,
                num_tasks=skel.rdd.num_partitions,
                cache_reads=(),
                cache_writes=(),
                shuffle_reads=(),
                input_reads=(),
                compute_cost_per_task=0.0,
            )

        pipeline: list[RDD] = []
        cache_reads: list[RDD] = []
        cache_writes: list[RDD] = []
        shuffle_reads: list[ShuffleDependency] = []
        input_reads: list[RDD] = []
        seen: set[int] = set()
        stack = [skel.rdd]
        while stack:
            r = stack.pop()
            if r.id in seen:
                continue
            seen.add(r.id)
            if self._is_cache_hit_assumed(r, skel.job_id):
                cache_reads.append(r)
                continue
            pipeline.append(r)
            if r.is_input:
                input_reads.append(r)
            if self._is_cached_in_job(r, skel.job_id):
                cache_writes.append(r)
            for dep in r.deps:
                if isinstance(dep, ShuffleDependency):
                    shuffle_reads.append(dep)
                elif isinstance(dep, NarrowDependency):
                    stack.append(dep.parent)

        seq = self._seq_counter
        self._seq_counter += 1

        # Record reference-profile events for this stage execution.
        for r in cache_reads:
            prof = self._profile_for(r)
            prof.read_seqs.append(seq)
            prof.read_jobs.append(skel.job_id)
            prof.read_stage_ids.append(skel.id)
        for r in cache_writes:
            prof = self._profile_for(r)
            if prof.created_seq < 0:
                prof.created_seq = seq
                prof.created_job = skel.job_id
                prof.created_stage_id = skel.id
            self._computed_cached[r.id] = seq
        if skel.shuffle_dep is not None:
            self._materialized_shuffles.add(skel.shuffle_dep.shuffle_id)

        num_tasks = skel.rdd.num_partitions
        total_cpu = sum(r.compute_cost * r.num_partitions for r in pipeline)
        # Deterministic ordering for reproducibility of downstream output.
        cache_reads.sort(key=lambda r: r.id)
        cache_writes.sort(key=lambda r: r.id)
        shuffle_reads.sort(key=lambda d: d.shuffle_id)
        input_reads.sort(key=lambda r: r.id)
        return Stage(
            id=skel.id,
            job_id=skel.job_id,
            seq=seq,
            rdd=skel.rdd,
            pipeline=tuple(sorted(pipeline, key=lambda r: r.id)),
            shuffle_dep=skel.shuffle_dep,
            parent_stage_ids=tuple(skel.parent_ids),
            skipped=False,
            num_tasks=num_tasks,
            cache_reads=tuple(cache_reads),
            cache_writes=tuple(cache_writes),
            shuffle_reads=tuple(shuffle_reads),
            input_reads=tuple(input_reads),
            compute_cost_per_task=total_cpu / num_tasks if num_tasks else 0.0,
        )

    # ------------------------------------------------------------------
    # cache-visibility helpers
    # ------------------------------------------------------------------
    def _is_cached_in_job(self, rdd: RDD, job_id: int) -> bool:
        """Is ``rdd`` persisted while ``job_id`` runs?"""
        if rdd.id not in self._ever_cached:
            return False
        after = self._unpersist_after.get(rdd.id)
        return after is None or job_id <= after

    def _is_cache_hit_assumed(self, rdd: RDD, job_id: int) -> bool:
        """Cached and already computed: lineage truncates here."""
        return self._is_cached_in_job(rdd, job_id) and rdd.id in self._computed_cached

    def _profile_for(self, rdd: RDD) -> RddReferenceProfile:
        prof = self._profiles.get(rdd.id)
        if prof is None:
            prof = RddReferenceProfile(rdd=rdd)
            self._profiles[rdd.id] = prof
        return prof


def build_dag(app: SparkApplication) -> ApplicationDAG:
    """Compile ``app`` into its :class:`ApplicationDAG`."""
    return DagBuilder(app).build()
