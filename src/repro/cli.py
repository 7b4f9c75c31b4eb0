"""Command-line interface.

Examples::

    python -m repro workloads
    python -m repro run PR --scheme MRD --cache-fraction 0.5
    python -m repro run KM --scheme MRD --mode adhoc --cluster lrc
    python -m repro sweep CC --schemes LRU,LRC,MRD --fractions 0.2,0.4,0.6
    python -m repro sweep KM PR --jobs 8 --store results/   # parallel + resumable
    python -m repro sweep --spec grid.toml --jobs 8
    python -m repro experiment fig4 --jobs 8
    python -m repro experiment table1
    python -m repro bench --out BENCH_engine.json
    python -m repro bench --tasks 1500 --check-baseline BENCH_engine.json
    python -m repro lint src/repro --format json

Every command prints plain-text tables (the same renderers the
benchmark suite uses) and is fully deterministic.
"""

from __future__ import annotations

import argparse
import sys
from collections.abc import Sequence
from dataclasses import replace

from repro.cluster.placement import PLACEMENTS
from repro.cluster.rebalance import REBALANCES
from repro.control.plane import CONTROL_PLANES, RpcConfig
from repro.dag.analysis import distance_stats, workload_characteristics
from repro.experiments import (
    fig2,
    fig4,
    fig5,
    fig6,
    fig7,
    fig8,
    fig9,
    fig10,
    fig11_12,
    fig_control_latency,
    fig_elastic,
    fig_load,
    table1,
    table3,
)
from repro.experiments.harness import (
    DEFAULT_CACHE_FRACTIONS,
    build_workload_dag,
    cache_mb_for,
    format_table,
)
from repro.simulator.config import CLUSTERS
from repro.simulator.engine import simulate
from repro.sweep.schemes import SCHEME_SPECS, SchemeSpec, resolve_scheme
from repro.tenancy.arbitration import ARBITRATIONS
from repro.workloads.registry import workload_names

_EXPERIMENTS = {
    "table1": (table1.run, table1.render),
    "table3": (table3.run, table3.render),
    "fig2": (lambda: fig2.run("CC"), lambda t: "\n\n".join(
        fig2.render(t, p) for p in ("lru", "lrc", "mrd"))),
    "fig4": (fig4.run, fig4.render),
    "fig5": (fig5.run, fig5.render),
    "fig6": (fig6.run, fig6.render),
    "fig7": (fig7.run, fig7.render),
    "fig8": (fig8.run, fig8.render),
    "fig9": (fig9.run, fig9.render),
    "fig10": (fig10.run, fig10.render),
    "fig11_12": (fig11_12.run, fig11_12.render),
    "fig_control_latency": (fig_control_latency.run, fig_control_latency.render),
    "fig_elastic": (fig_elastic.run, fig_elastic.render),
    "fig_load": (fig_load.run, fig_load.render),
}


def _scheme_spec(name: str) -> SchemeSpec:
    try:
        return resolve_scheme(name)
    except ValueError as exc:
        raise SystemExit(str(exc)) from exc


def _cluster(args: argparse.Namespace):
    try:
        return CLUSTERS[args.cluster]
    except KeyError:
        raise SystemExit(f"unknown cluster {args.cluster!r}; choose from {sorted(CLUSTERS)}") from None


def _add_control_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--control-plane", choices=CONTROL_PLANES, default="instant",
                   help="driver<->worker transport: instant (direct calls) "
                        "or rpc (modeled latency/loss)")
    p.add_argument("--control-latency", type=float, default=None,
                   help="one-way rpc message latency in seconds "
                        "(default: derived from the cluster network model)")
    p.add_argument("--control-jitter", type=float, default=0.0,
                   help="uniform extra rpc delay in [0, J] seconds "
                        "(enables reordering)")
    p.add_argument("--control-loss", type=float, default=0.0,
                   help="rpc message loss probability in [0, 1]")
    p.add_argument("--control-seed", type=int, default=0,
                   help="RNG seed for rpc loss/jitter draws")


def _rpc_config(args: argparse.Namespace) -> RpcConfig:
    try:
        return RpcConfig(
            latency_s=args.control_latency,
            jitter_s=args.control_jitter,
            loss_rate=args.control_loss,
            seed=args.control_seed,
        )
    except ValueError as exc:
        raise SystemExit(f"bad control-plane config: {exc}") from exc


def _control_kwargs(args: argparse.Namespace) -> dict:
    if args.control_plane != "rpc":
        return {"control_plane": args.control_plane}
    return {"control_plane": "rpc", "control_config": _rpc_config(args)}


# ----------------------------------------------------------------------
# subcommands
# ----------------------------------------------------------------------
def cmd_workloads(args: argparse.Namespace) -> int:
    rows = []
    for suite in ("sparkbench", "hibench"):
        for name in workload_names(suite):
            dag = build_workload_dag(name, partitions=16)
            chars = workload_characteristics(dag, name)
            dist = distance_stats(dag, name)
            rows.append(
                (suite, name, chars.num_jobs, chars.num_stages,
                 chars.num_active_stages, round(dist.avg_stage_distance, 2))
            )
    print(format_table(
        ["Suite", "Workload", "Jobs", "Stages", "Active", "AvgStageDist"],
        rows, title="Registered workloads",
    ))
    return 0


def cmd_run(args: argparse.Namespace) -> int:
    from repro.sweep.runner import simulate_cell
    from repro.sweep.spec import CellSpec, validate_cells

    cluster = _cluster(args)
    spec = _scheme_spec(args.scheme)
    if spec.base == "MRD":
        spec = replace(
            spec, mode=args.mode or spec.mode, metric=args.metric or spec.metric
        )
    if args.control_plane == "rpc":
        _rpc_config(args)  # reject a bad rpc config before simulating
    try:
        cell = CellSpec(
            workload=args.workload,
            # Labelled by the scheme's own name (Belady runs as Belady-MIN).
            scheme=spec.build().name,
            scheme_spec=spec,
            cluster=args.cluster,
            cache_fraction=args.cache_fraction,
            cache_mb=args.cache_mb,
            scale=args.scale,
            iterations=args.iterations,
            partitions=args.partitions,
            control_plane=args.control_plane,
            control_latency=args.control_latency,
            control_jitter=args.control_jitter,
            control_loss=args.control_loss,
            control_seed=args.control_seed,
            placement=args.placement,
            churn_rate=args.churn_rate,
            churn_seed=args.churn_seed,
            rebalance=args.rebalance,
        )
    except ValueError as exc:  # churn_rate is the one field argparse leaves open
        raise SystemExit(f"bad churn config: {exc}") from exc
    try:
        validate_cells([cell])
    except ValueError as exc:
        raise SystemExit(f"run failed: {exc}") from exc
    metrics = simulate_cell(cell)
    print(f"cluster={cluster.name} cache={metrics.cache_mb_per_node:.1f} MB/node")
    print(metrics.summary())
    if metrics.nodes_joined or metrics.nodes_decommissioned:
        print(
            f"membership +{metrics.nodes_joined}/-{metrics.nodes_decommissioned} "
            f"migrated={metrics.rebalanced_blocks} blocks "
            f"({metrics.rebalanced_mb:.1f} MB) "
            f"dropped={metrics.decommission_dropped_blocks}"
        )
    if metrics.control_plane != "instant":
        print(f"control[{metrics.control_plane}] {metrics.control.summary()}")
    if args.verbose:
        for record in metrics.stage_records:
            print(f"  stage seq={record.seq:3d} job={record.job_id:3d} "
                  f"tasks={record.num_tasks:3d} "
                  f"[{record.start:9.3f} → {record.end:9.3f}]")
    return 0


def _sweep_grid(args: argparse.Namespace):
    from repro.sweep import GridSpec, load_grid

    if args.spec:
        try:
            grid = load_grid(args.spec)
        except (OSError, ValueError) as exc:
            raise SystemExit(f"sweep failed: {exc}") from exc
        if args.workloads:
            grid.workloads = list(args.workloads)
        return grid
    if not args.workloads:
        raise SystemExit("sweep needs workload names (or --spec FILE)")
    try:
        return GridSpec.from_dict({
            "workloads": list(args.workloads),
            "schemes": args.schemes.split(","),
            "cache_fractions": [float(f) for f in args.fractions.split(",")],
            "clusters": [args.cluster],
            "scale": args.scale,
            "iterations": args.iterations,
            "partitions": args.partitions,
            "schedulers": args.schedulers.split(","),
        })
    except ValueError as exc:
        raise SystemExit(f"sweep failed: {exc}") from exc


def _sweep_cells_or_manifest(args: argparse.Namespace):
    """Grid cells from flags/--spec, or the store's manifest as fallback.

    Worker and dashboard modes can run with nothing but ``--store``: the
    coordinator (or first worker) publishes the grid into the store and
    everyone else reads it back.
    """
    from repro.sweep import ResultStore, load_manifest, validate_cells

    if args.workloads or args.spec:
        grid = _sweep_grid(args)
        cells = grid.cells()
        try:
            validate_cells(cells)
        except ValueError as exc:
            raise SystemExit(f"sweep failed: {exc}") from exc
        return cells
    if args.store:
        return load_manifest(ResultStore(args.store)) or None
    return None


def cmd_sweep_worker(args: argparse.Namespace) -> int:
    from repro.sweep import run_worker

    if not args.store:
        raise SystemExit("--worker needs a shared --store directory")
    cells = _sweep_cells_or_manifest(args)
    if cells is None:
        raise SystemExit(
            "--worker found no grid: give workloads/--spec, or point "
            "--store at a directory with a published grid.json"
        )

    def progress(result) -> None:
        from repro.sweep import CellSpec

        state = "ok" if result.ok else "ERROR"
        print(
            f"{CellSpec.from_dict(result.spec).label()}: {state} "
            f"({result.elapsed_s:.1f}s)",
            file=sys.stderr, flush=True,
        )

    try:
        summary = run_worker(
            args.store, cells,
            worker_id=args.worker_id,
            lease_ttl_s=args.lease_ttl,
            heartbeat_s=args.heartbeat,
            poll_s=args.poll,
            max_cells=args.max_cells,
            progress=progress,
        )
    except (TimeoutError, ValueError) as exc:
        raise SystemExit(f"worker failed: {exc}") from exc
    print(summary.stats_line())
    if summary.drained:
        print("store drained: every cell is settled")
    return 1 if summary.errors else 0


def cmd_sweep_serve(args: argparse.Namespace) -> int:
    from repro.sweep import ResultStore, serve_dashboard, write_dashboard

    if not args.store:
        raise SystemExit("--serve needs a --store directory to watch")
    store = ResultStore(args.store)
    cells = _sweep_cells_or_manifest(args)
    if args.once:
        json_path, html_path = write_dashboard(
            store, cells, out_dir=args.out,
            lease_ttl_s=args.lease_ttl, refresh_s=args.refresh,
        )
        print(f"dashboard written to {json_path} and {html_path}")
        return 0
    print(
        f"serving dashboard for {store.root} on "
        f"http://{args.host}:{args.port}/ (Ctrl-C to stop)"
    )
    serve_dashboard(
        store, cells, host=args.host, port=args.port,
        refresh_s=args.refresh, lease_ttl_s=args.lease_ttl,
    )
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    from repro.sweep import (
        CellSpec,
        SweepProgress,
        run_cells,
        scheduler_mismatches,
        validate_cells,
    )

    if args.worker and args.serve:
        raise SystemExit("--worker and --serve are mutually exclusive")
    if args.worker:
        return cmd_sweep_worker(args)
    if args.serve:
        return cmd_sweep_serve(args)

    grid = _sweep_grid(args)
    cells = grid.cells()
    try:
        validate_cells(cells)
    except ValueError as exc:
        raise SystemExit(f"sweep failed: {exc}") from exc
    if not cells:
        print("empty grid: no workloads selected, nothing to run")
        return 0

    if args.external and not args.store:
        raise SystemExit("--workers-external needs a shared --store directory")
    try:
        outcome = run_cells(
            cells, jobs=args.jobs, store=args.store, resume=args.resume,
            progress=SweepProgress(), external=args.external,
            timeout_s=args.external_timeout,
        )
    except (TimeoutError, ValueError) as exc:
        raise SystemExit(f"sweep failed: {exc}") from exc

    multi_seed = len(grid.seeds) > 1
    multi_sched = len(grid.schedulers) > 1
    rpc = grid.control_plane == "rpc"
    headers = (
        ["Fraction", "MB/node", "Scheme"]
        + (["Seed"] if multi_seed else [])
        + (["Sched"] if multi_sched else [])
        + (["Latency"] if rpc else [])
        + ["JCT", "Hit"]
    )
    for workload in grid.workloads:
        for cluster in grid.clusters:
            rows = []
            for cell in cells:
                if cell.workload != workload or cell.cluster != cluster:
                    continue
                result = outcome.result_for(cell)
                if result.ok:
                    m = result.run_metrics()
                    mb = round(m.cache_mb_per_node, 1)
                    jct: object = round(m.jct, 3)
                    hit = f"{m.hit_ratio * 100:.0f}%"
                else:
                    mb, jct, hit = "-", "ERROR", "-"
                fraction = (
                    f"{cell.cache_fraction:g}" if cell.cache_fraction is not None
                    else f"{cell.cache_mb:g}MB"
                )
                row: list[object] = [fraction, mb, cell.scheme]
                if multi_seed:
                    row.append(cell.seed)
                if multi_sched:
                    row.append(cell.scheduler)
                if rpc:
                    latency = cell.control_latency
                    row.append("-" if latency is None else f"{latency:g}s")
                rows.append(tuple(row + [jct, hit]))
            print(format_table(
                headers, rows, title=f"Sweep: {workload} on {cluster}",
            ))
            print()
    print(outcome.stats_line())

    status = 0
    if multi_sched:
        mismatches = scheduler_mismatches(outcome)
        if mismatches:
            for mismatch in mismatches:
                print(f"SCHEDULER MISMATCH: {mismatch}")
            status = 1
        else:
            print(
                f"scheduler equivalence: {'/'.join(grid.schedulers)} "
                "agree on every cell"
            )
    failed = outcome.error_results()
    if failed:
        for result in failed:
            print(
                f"FAILED {CellSpec.from_dict(result.spec).label()}: "
                f"{result.describe_error()}"
            )
        status = 1
    return status


def cmd_bench(args: argparse.Namespace) -> int:
    from repro.bench.engine_bench import (
        BenchConfig,
        check_against_baseline,
        render_bench,
        run_engine_bench,
        save_payload,
    )

    try:
        config = BenchConfig(
            min_tasks=args.tasks,
            num_nodes=args.nodes,
            slots_per_node=args.slots,
            repeats=args.repeats,
        )
    except ValueError as exc:
        raise SystemExit(f"bench failed: {exc}") from exc
    profiles = tuple(args.profiles.split(",")) if args.profiles else None
    try:
        payload = run_engine_bench(
            config, include_reference=not args.no_reference, profiles=profiles
        )
    except ValueError as exc:
        raise SystemExit(f"bench failed: {exc}") from exc
    print(render_bench(payload))
    if args.output:
        save_payload(payload, args.output)
        print(f"benchmark written to {args.output}")
    if args.check_baseline:
        try:
            failures = check_against_baseline(
                payload, args.check_baseline, max_slowdown=args.max_slowdown
            )
        except (OSError, ValueError) as exc:
            raise SystemExit(f"bench failed: cannot read baseline: {exc}") from exc
        if failures:
            for failure in failures:
                print(f"REGRESSION: {failure}")
            return 1
        print(
            f"baseline check passed (vs {args.check_baseline}, "
            f"limit {args.max_slowdown:.2f}x)"
        )
    return 0


def cmd_experiment(args: argparse.Namespace) -> int:
    import inspect

    try:
        run, render = _EXPERIMENTS[args.name]
    except KeyError:
        raise SystemExit(
            f"unknown experiment {args.name!r}; choose from {sorted(_EXPERIMENTS)}"
        ) from None
    # Sweep-backed drivers accept jobs/store; table drivers do not.
    params = inspect.signature(run).parameters
    kwargs = {}
    if "jobs" in params:
        kwargs["jobs"] = args.jobs
    if "store" in params:
        kwargs["store"] = args.store
    elif args.store is not None:
        raise SystemExit(f"experiment {args.name!r} does not use a result store")
    if args.external:
        if "external" not in params:
            raise SystemExit(
                f"experiment {args.name!r} cannot run on external workers"
            )
        if args.store is None:
            raise SystemExit(
                "--workers-external needs a shared --store directory"
            )
        kwargs["external"] = True
    try:
        print(render(run(**kwargs)))
    except TimeoutError as exc:
        raise SystemExit(f"experiment failed: {exc}") from exc
    return 0


def cmd_mt_run(args: argparse.Namespace) -> int:
    from repro.dag.dag_builder import build_dag
    from repro.sweep.schemes import resolve_scheme_mix
    from repro.tenancy import (
        AppSpec,
        FixedArrivals,
        MultiTenantSimulator,
        PoissonArrivals,
    )
    from repro.workloads.base import WorkloadParams
    from repro.workloads.registry import build_workload

    cluster = _cluster(args)
    try:
        schemes = resolve_scheme_mix(args.schemes.split(","))
    except ValueError as exc:
        raise SystemExit(f"mt run failed: {exc}") from exc
    num_apps = args.apps if args.apps is not None else len(args.workloads)
    if num_apps <= 0:
        raise SystemExit("mt run failed: --apps must be positive")

    params = WorkloadParams(
        scale=args.scale, iterations=args.iterations, partitions=args.partitions
    )
    # Cache sized for the largest application in the mix, so every app
    # could run alone at the requested fraction — contention then comes
    # from overlap, not from an undersized baseline.
    try:
        if args.cache_mb is not None:
            cache = args.cache_mb
        else:
            cache = max(
                cache_mb_for(
                    build_dag(build_workload(name, params)),
                    args.cache_fraction,
                    cluster,
                )
                for name in dict.fromkeys(args.workloads)
            )
    except KeyError as exc:
        raise SystemExit(f"mt run failed: {exc.args[0]}") from exc

    apps = [
        AppSpec(
            workload=args.workloads[i % len(args.workloads)],
            scheme=schemes[i % len(schemes)],
            scale=args.scale,
            iterations=args.iterations,
            partitions=args.partitions,
            seed=i,
        )
        for i in range(num_apps)
    ]
    try:
        arrivals = (
            PoissonArrivals(rate=args.rate, seed=args.seed)
            if args.arrival == "poisson"
            else FixedArrivals(interval=args.interval)
        )
        metrics = MultiTenantSimulator(
            apps,
            cluster.with_cache(cache),
            arrivals=arrivals,
            arbitration=args.arbitration,
            **_control_kwargs(args),
        ).run()
    except (KeyError, ValueError) as exc:
        raise SystemExit(f"mt run failed: {exc.args[0]}") from exc
    print(
        f"cluster={cluster.name} cache={cache:.1f} MB/node "
        f"arbitration={args.arbitration} arrivals={arrivals.name}"
    )
    print(metrics.summary())
    rows = [
        (
            m.app_id, spec.workload, m.scheme,
            round(m.arrival_time, 2), round(m.jct, 2),
            f"{m.hit_ratio * 100:.0f}%", m.stats.evictions,
        )
        for spec, m in zip(apps, metrics.apps)
    ]
    print(format_table(
        ["App", "Workload", "Scheme", "Arrival", "JCT", "Hit", "Evictions"],
        rows,
    ))
    return 0


def cmd_lint(args: argparse.Namespace) -> int:
    from repro.analysis.cli import run_lint

    return run_lint(args)


# ----------------------------------------------------------------------
# trace subcommands
# ----------------------------------------------------------------------
def cmd_trace_ingest(args: argparse.Namespace) -> int:
    from repro.trace import EventLogError, ingest_eventlog, profile_from_trace

    try:
        trace = ingest_eventlog(args.eventlog)
    except (EventLogError, OSError) as exc:
        raise SystemExit(f"ingest failed: {exc}") from exc
    print(trace.summary())
    for warning in trace.warnings:
        print(f"warning: {warning}")
    if args.profile_store:
        from pathlib import Path

        from repro.core.app_profiler import ProfileStore

        store = ProfileStore(path=Path(args.profile_store))
        profile = profile_from_trace(trace, store=store)
        print(
            f"profile     {profile.signature!r}: {len(profile.references)} "
            f"references -> {args.profile_store}"
        )
    return 0


def _print_event_summary(recorder) -> None:
    """``recorded N events`` plus the per-group kind pivot."""
    from repro.trace.replay import summarize_events

    print(f"recorded {len(recorder)} events")
    for group, kinds in summarize_events(recorder.events).items():
        counts = " ".join(f"{kind}={count}" for kind, count in kinds.items())
        print(f"  {group:<10} {counts}")


def _write_trace_outputs(recorder, args: argparse.Namespace) -> None:
    if args.output:
        recorder.to_jsonl(args.output)
        print(f"trace written to {args.output} ({len(recorder)} events)")
    if args.chrome:
        recorder.to_chrome(args.chrome)
        print(f"chrome trace written to {args.chrome}")


def cmd_trace_record(args: argparse.Namespace) -> int:
    from repro.dag.dag_builder import build_dag
    from repro.trace import TraceRecorder
    from repro.workloads.registry import build_workload

    kwargs = {
        k: getattr(args, k)
        for k in ("scale", "iterations", "partitions")
        if getattr(args, k) is not None
    }
    try:
        dag = build_dag(build_workload(args.workload, **kwargs))
    except KeyError as exc:
        raise SystemExit(f"record failed: {exc.args[0]}") from exc
    args.cluster = args.cluster or "main"
    cluster = _cluster(args)
    scheme = _scheme_spec(args.scheme).build()
    cache = (
        args.cache_mb
        if args.cache_mb is not None
        else cache_mb_for(dag, args.cache_fraction, cluster)
    )
    recorder = TraceRecorder(meta={
        "workload": args.workload,
        **kwargs,
        "scheme": scheme.name,
        "cluster": cluster.name,
        "cache_mb": cache,
        "source": "recorded",
    })
    metrics = simulate(
        dag, cluster.with_cache(cache), scheme, recorder=recorder,
        **_control_kwargs(args),
    )
    print(metrics.summary())
    if metrics.control_plane != "instant":
        print(f"control[{metrics.control_plane}] {metrics.control.summary()}")
    _print_event_summary(recorder)
    _write_trace_outputs(recorder, args)
    return 0


def cmd_trace_replay(args: argparse.Namespace) -> int:
    from repro.trace import EventLogError, TraceFormatError
    from repro.trace.replay import replay

    store = None
    if args.profile_store:
        from pathlib import Path

        from repro.core.app_profiler import ProfileStore

        store = ProfileStore(path=Path(args.profile_store))
    try:
        result = replay(
            args.trace,
            scheme=args.scheme,
            cluster=args.cluster,
            cache_mb=args.cache_mb,
            cache_fraction=args.cache_fraction,
            profile_store=store,
        )
    except (EventLogError, TraceFormatError, ValueError, OSError) as exc:
        raise SystemExit(f"replay failed: {exc}") from exc
    print(f"source={result.source} scheme={result.scheme} "
          f"cache={result.cache_mb_per_node:.1f} MB/node")
    print(result.metrics.summary())
    _print_event_summary(result.recorder)
    _write_trace_outputs(result.recorder, args)
    return 0


def cmd_trace_diff(args: argparse.Namespace) -> int:
    from repro.trace import TraceFormatError
    from repro.trace.replay import diff_trace_files

    try:
        diff = diff_trace_files(args.left, args.right)
    except (TraceFormatError, OSError) as exc:
        raise SystemExit(f"diff failed: {exc}") from exc
    if diff is None:
        print("traces are identical (zero divergence)")
        return 0
    print(diff.describe())
    return 1


# ----------------------------------------------------------------------
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="MRD (ICPP'18) reproduction: Spark cache-policy simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("workloads", help="list registered workloads").set_defaults(
        func=cmd_workloads
    )

    run_p = sub.add_parser("run", help="simulate one workload under one scheme")
    run_p.add_argument("workload")
    run_p.add_argument("--scheme", default="MRD",
                       help=f"one of {', '.join(SCHEME_SPECS)} (case-insensitive)")
    run_p.add_argument("--cluster", default="main", help=f"one of {sorted(CLUSTERS)}")
    run_p.add_argument("--cache-fraction", type=float, default=0.5,
                       help="cache as a fraction of the peak live cached set")
    run_p.add_argument("--cache-mb", type=float, default=None,
                       help="absolute cache MB per node (overrides --cache-fraction)")
    run_p.add_argument("--scale", type=float, default=1.0)
    run_p.add_argument("--iterations", type=int, default=None)
    run_p.add_argument("--partitions", type=int, default=None)
    run_p.add_argument("--mode", choices=("recurring", "adhoc"), default=None,
                       help="MRD profile mode (default: the scheme's own)")
    run_p.add_argument("--metric", choices=("stage", "job"), default=None,
                       help="MRD distance metric (default: the scheme's own)")
    run_p.add_argument("--placement", choices=PLACEMENTS, default="stride",
                       help="partition placement: stride (legacy modulo) or "
                            "rendezvous (sticky, join-stable)")
    run_p.add_argument("--churn-rate", type=float, default=0.0,
                       help="per-stage-boundary probability of a membership "
                            "event (join/decommission, equal odds)")
    run_p.add_argument("--churn-seed", type=int, default=0,
                       help="RNG seed for the churn history")
    run_p.add_argument("--rebalance", choices=REBALANCES, default="drop",
                       help="a decommissioned node's cache: drop it, or "
                            "migrate the lowest-reference-distance blocks")
    _add_control_args(run_p)
    run_p.add_argument("-v", "--verbose", action="store_true")
    run_p.set_defaults(func=cmd_run)

    sweep_p = sub.add_parser(
        "sweep",
        help="run a sweep grid across schemes (parallel, resumable)",
    )
    sweep_p.add_argument("workloads", nargs="*", metavar="workload",
                         help="workload names (or set them in --spec)")
    sweep_p.add_argument("--spec", default=None,
                         help="grid spec file: .toml (Python >= 3.11) or .json; "
                              "flags below are ignored when given except "
                              "positional workloads, which override the spec's")
    sweep_p.add_argument("--schemes", default="LRU,LRC,MemTune,MRD")
    sweep_p.add_argument("--fractions",
                         default=",".join(str(f) for f in DEFAULT_CACHE_FRACTIONS))
    sweep_p.add_argument("--cluster", default="main")
    sweep_p.add_argument("--scale", type=float, default=1.0)
    sweep_p.add_argument("--iterations", type=int, default=None)
    sweep_p.add_argument("--partitions", type=int, default=None)
    sweep_p.add_argument("--schedulers", default="event",
                         help="comma list of scheduling cores; more than one "
                              "runs every cell per core and exits 1 unless "
                              "their metrics are identical")
    sweep_p.add_argument("-j", "--jobs", type=int, default=1,
                         help="worker processes (results are bit-identical "
                              "at any job count)")
    sweep_p.add_argument("--store", default=None,
                         help="result-store directory: completed cells persist "
                              "immediately and later runs serve unchanged "
                              "cells from cache")
    sweep_p.add_argument("--no-resume", dest="resume", action="store_false",
                         help="recompute every cell even when stored "
                              "(stale per-cell profile directories are purged)")

    service = sweep_p.add_argument_group(
        "distributed sweep service",
        "any number of --worker processes (across machines sharing the "
        "--store directory, e.g. over NFS) lease cells and drain the "
        "grid; --serve renders a live dashboard from the same store; "
        "--workers-external publishes the grid and waits for the fleet "
        "(see docs/distributed-sweeps.md)",
    )
    service.add_argument("--worker", action="store_true",
                         help="run as a work-queue worker: lease cells from "
                              "the shared --store until the grid is drained")
    service.add_argument("--serve", action="store_true",
                         help="serve an HTML+JSON progress/results dashboard "
                              "regenerated from the --store")
    service.add_argument("--workers-external", dest="external",
                         action="store_true",
                         help="compute nothing locally: publish the grid "
                              "into --store and wait for --worker processes "
                              "to settle every cell")
    service.add_argument("--external-timeout", type=float, default=None,
                         help="give up waiting for external workers after "
                              "this many seconds (default: wait forever)")
    service.add_argument("--worker-id", default=None,
                         help="stable worker name (default: <hostname>-<pid>)")
    service.add_argument("--lease-ttl", type=float, default=60.0,
                         help="seconds without a heartbeat before a lease "
                              "counts as crashed and is reclaimed (default 60)")
    service.add_argument("--heartbeat", type=float, default=5.0,
                         help="lease/registry heartbeat interval in seconds")
    service.add_argument("--poll", type=float, default=0.5,
                         help="idle worker re-scan interval in seconds")
    service.add_argument("--max-cells", type=int, default=None,
                         help="stop this worker after executing N cells")
    service.add_argument("--once", action="store_true",
                         help="with --serve: write dashboard.json + "
                              "dashboard.html once and exit")
    service.add_argument("--host", default="127.0.0.1",
                         help="with --serve: bind address (default loopback)")
    service.add_argument("--port", type=int, default=8731,
                         help="with --serve: HTTP port (default 8731)")
    service.add_argument("--refresh", type=float, default=5.0,
                         help="with --serve: page auto-refresh seconds")
    service.add_argument("--out", default=None,
                         help="with --serve --once: directory for the "
                              "dashboard files (default: the store root)")
    sweep_p.set_defaults(func=cmd_sweep)

    exp_p = sub.add_parser("experiment", help="regenerate a paper table/figure")
    exp_p.add_argument("name", help=f"one of {sorted(_EXPERIMENTS)}")
    exp_p.add_argument("-j", "--jobs", type=int, default=1,
                       help="worker processes for sweep-backed figures")
    exp_p.add_argument("--store", default=None,
                       help="sweep result-store directory (sweep-backed "
                            "figures only)")
    exp_p.add_argument("--workers-external", dest="external",
                       action="store_true",
                       help="publish the figure's grid into --store and wait "
                            "for `repro sweep --worker` processes to drain it")
    exp_p.set_defaults(func=cmd_experiment)

    bench_p = sub.add_parser(
        "bench", help="time the engine's scheduling cores on synthetic workloads"
    )
    bench_p.add_argument("--tasks", type=int, default=5000,
                         help="minimum simulated tasks per workload (default 5000)")
    bench_p.add_argument("--nodes", type=int, default=16)
    bench_p.add_argument("--slots", type=int, default=4)
    bench_p.add_argument("--repeats", type=int, default=3,
                         help="timing repetitions; best is reported")
    bench_p.add_argument("--no-reference", action="store_true",
                         help="skip the O(tasks x nodes) reference core")
    bench_p.add_argument("--profiles", default=None,
                         help="comma list of workload profiles to measure "
                              "(default: all; e.g. sched,cache)")
    bench_p.add_argument("-o", "--out", dest="output", default=None,
                         help="write the JSON payload here (e.g. BENCH_engine.json)")
    bench_p.add_argument("--check-baseline", default=None,
                         help="fail (exit 1) on a throughput regression vs this file")
    bench_p.add_argument("--max-slowdown", type=float, default=2.0,
                         help="allowed slowdown factor for --check-baseline")
    bench_p.set_defaults(func=cmd_bench)

    mt_p = sub.add_parser(
        "mt", help="multi-tenant mode: concurrent applications on one cluster"
    )
    mt_sub = mt_p.add_subparsers(dest="mt_command", required=True)
    mtrun_p = mt_sub.add_parser(
        "run", help="stream a mix of applications into a shared cluster"
    )
    mtrun_p.add_argument("workloads", nargs="+", metavar="workload",
                         help="workload mix, cycled over the submitted apps")
    mtrun_p.add_argument("--apps", type=int, default=None,
                         help="number of applications (default: one per "
                              "listed workload)")
    mtrun_p.add_argument("--schemes", default="LRU",
                         help="comma list of per-app cache schemes, cycled "
                              "like the workload mix")
    mtrun_p.add_argument("--arbitration", choices=sorted(ARBITRATIONS),
                         default="static",
                         help="cross-application cache arbitration policy")
    mtrun_p.add_argument("--arrival", choices=("fixed", "poisson"),
                         default="fixed", help="arrival process")
    mtrun_p.add_argument("--rate", type=float, default=0.1,
                         help="poisson arrival rate (apps per simulated second)")
    mtrun_p.add_argument("--interval", type=float, default=0.0,
                         help="fixed interarrival gap in simulated seconds")
    mtrun_p.add_argument("--seed", type=int, default=0,
                         help="arrival-process seed (poisson)")
    mtrun_p.add_argument("--cluster", default="main",
                         help=f"one of {sorted(CLUSTERS)}")
    mtrun_p.add_argument("--cache-fraction", type=float, default=0.4,
                         help="per-node cache as a fraction of the largest "
                              "app's peak live cached set")
    mtrun_p.add_argument("--cache-mb", type=float, default=None,
                         help="absolute cache MB per node (overrides "
                              "--cache-fraction)")
    mtrun_p.add_argument("--scale", type=float, default=1.0)
    mtrun_p.add_argument("--iterations", type=int, default=None)
    mtrun_p.add_argument("--partitions", type=int, default=8)
    _add_control_args(mtrun_p)
    mtrun_p.set_defaults(func=cmd_mt_run)

    lint_p = sub.add_parser(
        "lint",
        help="run the determinism-contract static analyzer "
             "(see docs/static-analysis.md)",
    )
    from repro.analysis.cli import add_lint_arguments

    add_lint_arguments(lint_p)
    lint_p.set_defaults(func=cmd_lint)

    trace_p = sub.add_parser(
        "trace", help="ingest, record, replay and diff cache-management traces"
    )
    trace_sub = trace_p.add_subparsers(dest="trace_command", required=True)

    def _trace_run_args(p: argparse.ArgumentParser) -> None:
        p.add_argument("--scheme", "--policy", dest="scheme", default="lru",
                       help="cache scheme (case-insensitive; e.g. lru, mrd)")
        p.add_argument("--cluster", default=None,
                       help=f"one of {sorted(CLUSTERS)}; replay defaults to "
                            "the recorded trace's cluster")
        p.add_argument("--cache-fraction", type=float, default=0.5)
        p.add_argument("--cache-mb", type=float, default=None)
        p.add_argument("-o", "--output", default=None,
                       help="write the recorded trace as JSONL")
        p.add_argument("--chrome", default=None,
                       help="also write a Chrome trace_event JSON file")

    ingest_p = trace_sub.add_parser(
        "ingest", help="parse a Spark event log and summarize its DAG"
    )
    ingest_p.add_argument("eventlog")
    ingest_p.add_argument("--profile-store", default=None,
                          help="persist a reference-distance profile here")
    ingest_p.set_defaults(func=cmd_trace_ingest)

    record_p = trace_sub.add_parser(
        "record", help="simulate a registered workload and record its trace"
    )
    record_p.add_argument("workload")
    record_p.add_argument("--scale", type=float, default=1.0)
    record_p.add_argument("--iterations", type=int, default=None)
    record_p.add_argument("--partitions", type=int, default=None)
    _trace_run_args(record_p)
    _add_control_args(record_p)
    record_p.set_defaults(func=cmd_trace_record)

    replay_p = trace_sub.add_parser(
        "replay", help="replay an event log or recorded trace under a scheme"
    )
    replay_p.add_argument("trace", help="Spark event log or recorded JSONL trace")
    replay_p.add_argument("--profile-store", default=None,
                          help="feed an ingested profile to recurring-mode MRD")
    _trace_run_args(replay_p)
    replay_p.set_defaults(func=cmd_trace_replay)

    diff_p = trace_sub.add_parser(
        "diff", help="first divergence between two recorded traces"
    )
    diff_p.add_argument("left")
    diff_p.add_argument("right")
    diff_p.set_defaults(func=cmd_trace_diff)

    report_p = sub.add_parser(
        "report", help="regenerate the full evaluation as markdown"
    )
    report_p.add_argument("-o", "--output", default=None,
                          help="write to a file instead of stdout")
    report_p.add_argument("-j", "--jobs", type=int, default=1,
                          help="worker processes for the sweep-backed figures")
    report_p.add_argument("--store", default=None,
                          help="sweep result-store directory (a rerun "
                              "recomputes only missing cells)")
    report_p.add_argument("--workers-external", dest="external",
                          action="store_true",
                          help="publish every figure's grid into --store and "
                               "wait for `repro sweep --worker` processes")
    report_p.set_defaults(func=cmd_report)

    dot_p = sub.add_parser("dot", help="export a workload's DAG as Graphviz DOT")
    dot_p.add_argument("workload")
    dot_p.add_argument("--view", choices=("lineage", "stages"), default="stages")
    dot_p.add_argument("--no-skipped", action="store_true",
                       help="omit skipped stages from the stage view")
    dot_p.add_argument("-o", "--output", default=None)
    dot_p.add_argument("--scale", type=float, default=1.0)
    dot_p.add_argument("--iterations", type=int, default=None)
    dot_p.set_defaults(func=cmd_dot)

    return parser


def cmd_dot(args: argparse.Namespace) -> int:
    from repro.dag.visualize import lineage_to_dot, stages_to_dot

    dag = build_workload_dag(
        args.workload, scale=args.scale, iterations=args.iterations, partitions=8
    )
    text = (
        lineage_to_dot(dag) if args.view == "lineage"
        else stages_to_dot(dag, include_skipped=not args.no_skipped)
    )
    if args.output:
        from pathlib import Path

        Path(args.output).write_text(text)
        print(f"DOT written to {args.output}")
    else:
        print(text)
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    from repro.experiments.report import generate_report

    if args.external and args.store is None:
        raise SystemExit("--workers-external needs a shared --store directory")
    text = generate_report(
        out=args.output, progress=args.output is not None,
        jobs=args.jobs, store=args.store, external=args.external,
    )
    if args.output is None:
        print(text)
    else:
        print(f"report written to {args.output}")
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
