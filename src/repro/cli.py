"""``gridfed`` command-line interface.

Reproduces the paper's tables and figures and runs arbitrary registered
scenarios from the shell::

    gridfed table2                 # independent resources (Experiment 1)
    gridfed table3                 # federation without economy (Experiment 2)
    gridfed figure3 --profiles 0 30 70 100
    gridfed figure9 --thin 3
    gridfed figure10 --sizes 10 20 --profiles 0 100 --thin 5
    gridfed table4                 # related-systems comparison

    # hot-path performance benchmarks (directory queries, event kernel,
    # Table-3 end to end) with a JSON report and CI regression gate:
    gridfed bench --scale smoke                  # writes benchmarks/BENCH_perf.json
    gridfed bench --compare benchmarks/BENCH_baseline.json

    # any registered scenario, declaratively:
    gridfed run --agent broadcast --thin 10
    gridfed run --pricing demand --oft 30

    # fault injection and the runtime invariant checker:
    gridfed run --faults crash-recover --thin 10 --validate
    gridfed sweep --faults chaos --profiles 0 50 100 --thin 10

    # large federations, and a cProfile hotspot table for any scenario:
    gridfed run --size 256 --thin 16 --validate
    gridfed profile --size 64 --thin 10 --top 20

    # the message fabric: WAN topologies:
    gridfed run --topology two-tier-wan --thin 10 --validate

    # the conservative parallel engine: shard the federation across worker
    # processes with lookahead-window synchronisation (needs a topology with
    # nonzero cross-shard latency; ineligible runs fall back serially):
    gridfed run --topology two-tier-wan --size 256 --workers 4 --thin 16

    # parameter sweeps, parallel and memo-hashed:
    gridfed sweep --profiles 0 10 20 30 40 50 60 70 80 90 100 --workers 4
    gridfed sweep --sizes 10 20 30 --profiles 0 100 --thin 5 --workers 4

    # durable runs: periodic snapshots, byte-identical resume after a kill,
    # disk-persistent sweep memoisation, and the serving daemon:
    gridfed run --size 256 --thin 16 --checkpoint state/ckpt --checkpoint-interval 3600
    gridfed run --resume state/ckpt
    gridfed sweep --profiles 0 50 100 --cache-dir state/cache
    gridfed daemon --state state/daemon --port 8414

``--thin N`` keeps every N-th job and makes exploratory runs fast; the
paper-versus-measured record (``EXPERIMENTS.md``, which
``scripts/generate_experiments_md.py`` writes; it is not checked in) runs
Experiments 1-4 at ``--thin 1`` (the default).
``--workers N`` runs sweep points across N processes — results are identical
to the serial path (every point re-seeds from its own scenario).  On ``run``
and ``profile`` it is the scenario's ``parallel`` field instead: it shards
one federation across N worker processes (the conservative parallel engine);
the run summary gains a ``par:`` line reporting windows, cross-shard traffic
and per-worker load, or the fallback diagnostic when the scenario must run
serially.  ``--checkpoint``, ``--checkpoint-interval`` and ``--resume`` work
the same way for sharded runs.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional

from repro.baselines.catalogue import related_systems_rows
from repro.experiments import (
    DEFAULT_PROFILES,
    economy_sweep,
    experiment_1_scenario,
    experiment_2_scenario,
)
from repro.experiments.exp4_messages import message_complexity_rows
from repro.experiments.exp5_scalability import scalability_rows, scalability_sweep
from repro.metrics.collectors import (
    fault_metrics,
    incentive_by_resource,
    remote_jobs_serviced,
    resource_processing_table,
    user_qos_summary,
)
from repro.metrics.report import render_table
from repro.scenario import (
    AGENT_REGISTRY,
    FAULT_REGISTRY,
    PRICING_REGISTRY,
    RESILIENCE_REGISTRY,
    WORKLOAD_REGISTRY,
)
from repro.scenario import (
    Scenario,
    SweepRunner,
    UnknownVariantError,
    result_fingerprint,
    run_scenario,
)
from repro.service.snapshot import SnapshotError
from repro.workload.archive import ARCHIVE_RESOURCES


def _processing_rows(result):
    rows = []
    for row in resource_processing_table(result):
        rows.append(
            [
                row.name,
                100.0 * row.utilisation,
                row.total_jobs,
                row.accepted_pct,
                row.rejected_pct,
                row.processed_locally,
                row.migrated_to_federation,
                row.remote_jobs_processed,
            ]
        )
    return rows


_PROCESSING_HEADERS = [
    "Resource",
    "Utilisation %",
    "Total jobs",
    "Accepted %",
    "Rejected %",
    "Local",
    "Migrated",
    "Remote processed",
]


def cmd_table1(_args) -> str:
    headers = ["Index", "Resource", "Processors", "MIPS", "Quote", "Bandwidth Gb/s", "Two-day jobs"]
    rows = [
        [r.index, r.name, r.processors, r.mips, r.quote, r.bandwidth_gbps, r.two_day_jobs]
        for r in ARCHIVE_RESOURCES
    ]
    return render_table(headers, rows, title="Table 1 — workload and resource configuration")


def cmd_table2(args) -> str:
    result = run_scenario(experiment_1_scenario(seed=args.seed, thin=args.thin))
    return render_table(
        _PROCESSING_HEADERS,
        _processing_rows(result),
        title="Table 2 — workload processing statistics (without federation)",
    )


def cmd_table3(args) -> str:
    result = run_scenario(experiment_2_scenario(seed=args.seed, thin=args.thin))
    return render_table(
        _PROCESSING_HEADERS,
        _processing_rows(result),
        title="Table 3 — workload processing statistics (with federation)",
    )


def cmd_table4(_args) -> str:
    headers, rows = related_systems_rows()
    return render_table(headers, rows, title="Table 4 — superscheduling technique comparison")


def _profile_sweep(args):
    return economy_sweep(
        profiles=args.profiles, seed=args.seed, thin=args.thin, workers=args.workers
    )


def cmd_figure3(args) -> str:
    sweep = _profile_sweep(args)
    headers = ["OFT %", "Resource", "Incentive (Grid $)", "Remote jobs serviced"]
    rows = []
    for oft_pct, result in sweep:
        incentives = incentive_by_resource(result)
        remote = remote_jobs_serviced(result)
        for name in result.resource_names():
            rows.append([oft_pct, name, incentives[name], remote[name]])
    return render_table(headers, rows, title="Figure 3 — resource owner perspective")


def cmd_figure7(args) -> str:
    sweep = _profile_sweep(args)
    headers = ["OFT %", "Resource", "Avg response (s)", "Avg budget (Grid $)", "Jobs"]
    rows = []
    for oft_pct, result in sweep:
        for summary in user_qos_summary(result, include_rejected=args.include_rejected):
            rows.append(
                [oft_pct, summary.name, summary.avg_response_time, summary.avg_budget_spent, summary.jobs_counted]
            )
    title = "Figure 8" if args.include_rejected else "Figure 7"
    return render_table(headers, rows, title=f"{title} — federation user perspective")


def cmd_figure9(args) -> str:
    sweep = _profile_sweep(args)
    headers, rows, totals = message_complexity_rows(sweep)
    table = render_table(headers, rows, title="Figure 9 — remote/local message complexity")
    total_rows = [[oft, count] for oft, count in sorted(totals.items())]
    table += "\n" + render_table(["OFT %", "Total messages"], total_rows, title="Figure 9c — total messages")
    return table


def cmd_figure10(args) -> str:
    points = scalability_sweep(
        system_sizes=args.sizes,
        profiles=args.profiles,
        seed=args.seed,
        thin=args.thin,
        workers=args.workers,
    )
    headers, rows = scalability_rows(points)
    return render_table(headers, rows, title="Figures 10 & 11 — message complexity vs system size")


def _scenario_from_args(args) -> Scenario:
    """The one scenario point ``run`` and ``profile`` describe; ``--workers``
    is its ``parallel`` field, the worker count of the sharded engine."""
    return Scenario(
        mode=args.mode,
        agent=args.agent,
        pricing=args.pricing,
        workload=args.workload,
        oft_fraction=args.oft / 100.0,
        seed=args.seed,
        thin=args.thin,
        system_size=args.size,
        faults=args.faults,
        resilience=args.resilience,
        transport=args.topology,
        parallel=args.workers or 0,
    )


def cmd_run(args) -> str:
    if args.resume:
        if args.checkpoint:
            raise ValueError(
                "--resume continues checkpointing into its own directory; "
                "--checkpoint cannot be combined with it"
            )
        if args.validate:
            raise ValueError(
                "--validate must be enabled when the run starts; it cannot be "
                "combined with --resume"
            )
        from repro.service.checkpoint import resume_run

        # Resume with no scenario flags adopts the snapshot's own scenario;
        # any explicit flags are verified against it (the snapshot guard
        # refuses a mismatched scenario hash fast).
        requested = _scenario_from_args(args)
        result, scenario = resume_run(
            args.resume,
            expected_scenario=None if requested == Scenario() else requested,
            checkpoint_every=args.checkpoint_interval,
        )
    else:
        scenario = _scenario_from_args(args)
        result = run_scenario(
            scenario,
            validate=args.validate,
            checkpoint_dir=args.checkpoint,
            checkpoint_every=args.checkpoint_interval,
        )
    table = render_table(
        _PROCESSING_HEADERS,
        _processing_rows(result),
        title=f"Scenario run — {scenario.describe()}",
    )
    summary = (
        f"\njobs={len(result.jobs)} completed={len(result.completed_jobs())} "
        f"rejected={len(result.rejected_jobs())} "
        f"incentive={result.total_incentive():.2f} "
        f"messages={result.message_log.total_messages} "
        f"events={result.events_processed} "
        f"fingerprint={result_fingerprint(result)}\n"
    )
    if result.faults is not None:
        fm = fault_metrics(result)
        summary += (
            f"faults: crashes={fm.crashes} departures={fm.departures} "
            f"spikes={fm.load_spikes} timeouts={fm.negotiation_timeouts} "
            f"renegotiated={fm.renegotiations} lost={fm.jobs_lost} "
            f"downtime={fm.total_downtime:.0f}s "
            f"sla_violations={fm.sla_violation_rate:.3f}\n"
        )
    if result.resilience is not None:
        rm = result.resilience
        summary += (
            f"resilience: policy={rm.policy} retries={rm.retries} "
            f"retry_wins={rm.retry_successes} breaker_trips={rm.breaker_trips} "
            f"breaker_skips={rm.breaker_skips} hedged_wins={rm.hedged_wins} "
            f"evicted_quotes={rm.evicted_quotes} "
            f"backoff_wait={rm.backoff_wait_s:.0f}s\n"
        )
    net = result.network
    if net is not None and scenario.transport != "uniform":
        summary += (
            f"net: topology={scenario.transport} "
            f"messages={net.messages} volume={net.volume_mb:.1f}MB "
            f"latency={net.latency_s:.1f}s timeouts={net.timeouts} "
            f"delayed={net.delayed_deliveries} directory_msgs={net.control_messages}\n"
        )
    if result.parallel is not None:
        summary += f"par: {result.parallel.describe()}\n"
    if args.validate:
        summary += "invariants: all checks passed\n"
    return table + summary


def cmd_sweep(args) -> str:
    base = Scenario(
        mode=args.mode,
        agent=args.agent,
        pricing=args.pricing,
        workload=args.workload,
        seed=args.seed,
        thin=args.thin,
        faults=args.faults,
        resilience=args.resilience,
        transport=args.topology,
    )
    if args.clear_cache and args.cache_dir is None:
        raise ValueError("--clear-cache requires --cache-dir (nothing to clear)")
    runner = SweepRunner(workers=args.workers, cache_dir=args.cache_dir)
    if args.clear_cache:
        runner.clear_cache()
    if args.sizes:
        scenarios = runner.sweep(base, sizes=args.sizes, profiles=args.profiles)
    else:
        scenarios = runner.sweep(base, profiles=args.profiles)
    sweep = runner.run(scenarios)
    headers = [
        "System size",
        "OFT %",
        "Resource",
        "Utilisation %",
        "Incentive (Grid $)",
        "Remote jobs serviced",
    ]
    rows = []
    for scenario, result in sweep:
        size = scenario.system_size if scenario.system_size is not None else len(result.specs)
        oft_pct = int(round(scenario.oft_fraction * 100))
        incentives = incentive_by_resource(result)
        remote = remote_jobs_serviced(result)
        for name in result.resource_names():
            outcome = result.resources[name]
            rows.append(
                [size, oft_pct, name, 100.0 * outcome.utilisation, incentives[name], remote[name]]
            )
    title = (
        f"Scenario sweep — {len(sweep)} points, agent={base.agent} "
        f"pricing={base.pricing} mode={base.mode.value}"
    )
    return render_table(headers, rows, title=title)


def _load_baseline(path: str):
    import json as _json
    from pathlib import Path as _Path

    from repro.perf import REPORT_SCHEMA

    baseline_path = _Path(path)
    if not baseline_path.exists():
        raise ValueError(
            f"baseline {path} does not exist — record one with "
            f"'gridfed bench --out {path}' on a quiet machine and commit it"
        )
    try:
        baseline = _json.loads(baseline_path.read_text(encoding="utf-8"))
    except (OSError, _json.JSONDecodeError) as exc:
        raise ValueError(f"cannot read baseline {path}: {exc}") from exc
    schema = baseline.get("schema") if isinstance(baseline, dict) else None
    if schema != REPORT_SCHEMA:
        raise ValueError(
            f"baseline {path} was recorded under schema {schema!r} but this "
            f"gridfed writes {REPORT_SCHEMA!r} — regenerate it with "
            f"'gridfed bench --scale <scale> --out {path}'"
        )
    return baseline


def cmd_bench(args) -> str:
    from repro.perf import render_comparison, render_report, run_benchmarks, write_report

    # Validate the baseline up front: a missing or stale-schema file should
    # fail in milliseconds, not after minutes of benchmarking.
    baseline = _load_baseline(args.compare) if args.compare else None
    report = run_benchmarks(args.scale, seed=args.seed)
    path = write_report(report, args.out)
    output = render_report(report) + f"\nreport written to {path}\n"
    if args.compare:
        table, problems = render_comparison(
            report, baseline, max_regression=args.max_regression
        )
        if problems:
            # Ship the ratio table with the error so a red CI log shows the
            # whole per-benchmark picture, not just the failing lines.
            raise ValueError(
                f"performance regression vs {args.compare}:\n{table}\n  "
                + "\n  ".join(problems)
            )
        output += "\n" + table
    return output


def cmd_profile(args) -> str:
    from repro.perf import profile_scenario

    scenario = _scenario_from_args(args)
    return profile_scenario(scenario, top=args.top, sort=args.sort)


def cmd_daemon(args) -> str:
    from repro.service import GridfedDaemon

    daemon = GridfedDaemon(
        args.state,
        host=args.host,
        port=args.port,
        workers=args.workers or 1,
        checkpoint_interval=args.checkpoint_interval,
        max_pending=args.max_pending,
        request_deadline=args.request_deadline,
    )
    # The chosen address goes to stdout *and* a discovery file before the
    # serving loop blocks, so scripts (and the restart smoke test) can find
    # a daemon started with --port 0.
    address_path = os.path.join(daemon.state.directory, "daemon.address")
    with open(address_path, "w", encoding="utf-8") as handle:
        handle.write(daemon.address + "\n")
    sys.stdout.write(f"gridfed daemon listening on {daemon.address}\n")
    sys.stdout.flush()
    daemon.serve_forever()
    return "daemon stopped\n"


_COMMANDS = {
    "table1": cmd_table1,
    "table2": cmd_table2,
    "table3": cmd_table3,
    "table4": cmd_table4,
    "figure3": cmd_figure3,
    "figure7": cmd_figure7,
    "figure9": cmd_figure9,
    "figure10": cmd_figure10,
    "run": cmd_run,
    "sweep": cmd_sweep,
    "bench": cmd_bench,
    "profile": cmd_profile,
    "daemon": cmd_daemon,
}

_COMMAND_HELP = {
    "table1": "workload and resource configuration (Table 1)",
    "table2": "independent resources (Experiment 1, Table 2)",
    "table3": "federation without economy (Experiment 2, Table 3)",
    "table4": "related-systems comparison (Table 4)",
    "figure3": "resource owner perspective (Figure 3)",
    "figure7": "federation user perspective (Figures 7/8)",
    "figure9": "message complexity per profile (Figure 9)",
    "figure10": "message complexity vs system size (Figures 10-11)",
    "run": "run any registered scenario and print its processing table",
    "sweep": "run a profile/size sweep of a registered scenario (parallelisable)",
    "bench": "hot-path perf benchmarks; writes benchmarks/BENCH_perf.json, "
    "optional regression gate (--compare)",
    "profile": "cProfile one scenario run and print its top-N hotspot table",
    "daemon": "serve scenario submissions over local HTTP with a persistent "
    "memo cache and checkpointed, kill-survivable runs",
}


def _add_scenario_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--agent",
        default="default",
        help=f"agent variant ({', '.join(AGENT_REGISTRY.available())})",
    )
    parser.add_argument(
        "--pricing",
        default="static",
        help=f"pricing variant ({', '.join(PRICING_REGISTRY.available())})",
    )
    parser.add_argument(
        "--workload",
        default="archive",
        help=f"workload source ({', '.join(WORKLOAD_REGISTRY.available())})",
    )
    parser.add_argument(
        "--mode",
        default="economy",
        choices=["independent", "federation", "economy"],
        help="sharing environment",
    )
    parser.add_argument(
        "--faults",
        default="none",
        help=f"fault variant ({', '.join(FAULT_REGISTRY.available())})",
    )
    parser.add_argument(
        "--resilience",
        default="paper",
        help="resilience policy "
        f"({', '.join(RESILIENCE_REGISTRY.available())}; 'paper' = the "
        "bare negotiation path, byte-identical to pre-resilience runs)",
    )
    from repro.net import available_topologies

    parser.add_argument(
        "--topology",
        default="uniform",
        help=f"transport topology ({', '.join(available_topologies())})",
    )


def _add_point_options(parser: argparse.ArgumentParser) -> None:
    """Single-scenario-point options shared by ``run`` and ``profile``
    (``sweep`` crosses ``--profiles``/``--sizes`` instead)."""
    parser.add_argument(
        "--oft", type=float, default=30.0, help="percentage of OFT users (economy mode)"
    )
    parser.add_argument(
        "--size",
        type=int,
        default=None,
        help="federation size via Table 1 replication (default: the 8 Table 1 resources)",
    )


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=42, help="workload / simulation seed")
    common.add_argument(
        "--thin", type=int, default=1, help="keep every N-th job (1 = full workload)"
    )
    common.add_argument(
        "--workers",
        type=int,
        default=None,
        help="worker processes: sweep points for sweep-style commands; "
        "for run/profile the scenario's parallel field, the shard count of "
        "the conservative parallel engine (ineligible scenarios fall back "
        "serially with a diagnostic)",
    )

    parser = argparse.ArgumentParser(
        prog="gridfed",
        description="Reproduce the Grid-Federation (Cluster 2005) tables and figures "
        "and run registered scenarios.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True, metavar="command")

    for name in ("table1", "table2", "table3", "table4"):
        subparsers.add_parser(name, parents=[common], help=_COMMAND_HELP[name])

    for name in ("figure3", "figure7", "figure9"):
        sub = subparsers.add_parser(name, parents=[common], help=_COMMAND_HELP[name])
        sub.add_argument(
            "--profiles",
            type=int,
            nargs="+",
            default=list(DEFAULT_PROFILES),
            help="OFT percentages for the economy sweeps",
        )
        sub.add_argument(
            "--include-rejected",
            action="store_true",
            help="account rejected jobs at their origin (Figure 8 convention)",
        )

    fig10 = subparsers.add_parser("figure10", parents=[common], help=_COMMAND_HELP["figure10"])
    fig10.add_argument(
        "--profiles",
        type=int,
        nargs="+",
        default=[0, 30, 50, 70, 100],
        help="OFT percentages for the scalability sweep",
    )
    fig10.add_argument(
        "--sizes",
        type=int,
        nargs="+",
        default=[10, 20, 30, 40, 50],
        help="system sizes for the scalability experiment",
    )

    run_parser = subparsers.add_parser("run", parents=[common], help=_COMMAND_HELP["run"])
    _add_scenario_options(run_parser)
    _add_point_options(run_parser)
    run_parser.add_argument(
        "--validate",
        action="store_true",
        help="runtime assertion mode: check every simulation invariant "
        "(fails loudly on the first breach)",
    )
    run_parser.add_argument(
        "--checkpoint",
        default=None,
        metavar="DIR",
        help="write an atomic checkpoint of the live run (serial or "
        "--workers) into DIR every --checkpoint-interval simulated seconds; "
        "a run started over DIR's checkpoint of the same scenario continues "
        "from it",
    )
    run_parser.add_argument(
        "--checkpoint-interval",
        type=float,
        default=None,
        metavar="SECONDS",
        help="virtual seconds between checkpoints (default 3600)",
    )
    run_parser.add_argument(
        "--resume",
        default=None,
        metavar="DIR",
        help="resume a checkpointed run, serial or sharded, from the latest "
        "checkpoint in DIR and continue to completion (byte-identical to an "
        "uninterrupted run)",
    )

    profile_parser = subparsers.add_parser(
        "profile", parents=[common], help=_COMMAND_HELP["profile"]
    )
    _add_scenario_options(profile_parser)
    _add_point_options(profile_parser)
    profile_parser.add_argument(
        "--top", type=int, default=25, help="hotspot rows to print"
    )
    profile_parser.add_argument(
        "--sort",
        default="cumulative",
        choices=["cumulative", "tottime"],
        help="hotspot ordering: cumulative (time incl. subcalls) or tottime",
    )

    sweep_parser = subparsers.add_parser("sweep", parents=[common], help=_COMMAND_HELP["sweep"])
    _add_scenario_options(sweep_parser)
    sweep_parser.add_argument(
        "--profiles",
        type=int,
        nargs="+",
        default=list(DEFAULT_PROFILES),
        help="OFT percentages to sweep",
    )
    sweep_parser.add_argument(
        "--sizes",
        type=int,
        nargs="+",
        default=None,
        help="optional system sizes to sweep (crossed with --profiles)",
    )
    sweep_parser.add_argument(
        "--cache-dir",
        default=None,
        metavar="DIR",
        help="disk-persistent memo cache: completed points are stored in DIR "
        "and reused across invocations (share DIR with 'gridfed daemon' to "
        "share its memoisation)",
    )
    sweep_parser.add_argument(
        "--clear-cache",
        action="store_true",
        help="drop every entry in --cache-dir before running",
    )

    daemon_parser = subparsers.add_parser("daemon", help=_COMMAND_HELP["daemon"])
    daemon_parser.add_argument(
        "--state",
        required=True,
        metavar="DIR",
        help="durable state directory (job records, checkpoints, memo cache)",
    )
    daemon_parser.add_argument(
        "--host", default="127.0.0.1", help="bind address (default: loopback)"
    )
    daemon_parser.add_argument(
        "--port",
        type=int,
        default=0,
        help="TCP port (default 0 = pick a free port; the chosen address is "
        "printed and written to <state>/daemon.address)",
    )
    daemon_parser.add_argument(
        "--workers",
        type=int,
        default=1,
        help="concurrent runs (1 = in-process; >1 = a process pool)",
    )
    daemon_parser.add_argument(
        "--checkpoint-interval",
        type=float,
        default=3600.0,
        metavar="SECONDS",
        help="virtual seconds between step boundaries of in-flight runs, where "
        "they check for cancel and shutdown and snapshot at most once a second",
    )
    daemon_parser.add_argument(
        "--max-pending",
        type=int,
        default=256,
        help="bound on queued+running submissions; beyond it POST /jobs "
        "returns 429 with a Retry-After header (backpressure)",
    )
    daemon_parser.add_argument(
        "--request-deadline",
        type=float,
        default=30.0,
        metavar="SECONDS",
        help="per-request read deadline; stalled client connections time "
        "out instead of pinning handler threads",
    )

    from repro.perf import BENCH_SCALES

    # No `parents=[common]`: bench workloads are fixed by --scale, so --thin
    # and --workers would be accepted but ignored; only --seed applies.
    bench_parser = subparsers.add_parser("bench", help=_COMMAND_HELP["bench"])
    bench_parser.add_argument(
        "--seed", type=int, default=42, help="workload / simulation seed"
    )
    bench_parser.add_argument(
        "--scale",
        default="smoke",
        choices=sorted(BENCH_SCALES),
        help="benchmark scale (smoke: seconds, for CI; full: the recorded trajectory)",
    )
    bench_parser.add_argument(
        "--out",
        default="benchmarks/BENCH_perf.json",
        help="path of the JSON report to write (git-ignored by default)",
    )
    bench_parser.add_argument(
        "--compare",
        default=None,
        metavar="BASELINE",
        help="baseline BENCH_perf.json to gate against: prints a per-benchmark "
        "ratio table with pass/fail (exit 2 on regression)",
    )
    bench_parser.add_argument(
        "--max-regression",
        type=float,
        default=3.0,
        help="fail when a tracked timing exceeds baseline by this factor",
    )
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point of the ``gridfed`` console script."""
    args = build_parser().parse_args(argv)
    try:
        output = _COMMANDS[args.command](args)
    except (UnknownVariantError, ValueError, SnapshotError) as exc:
        # Scenario validation and registry lookups raise with messages meant
        # for the user (ranges, known variant keys); show them without a
        # traceback.  Other exceptions (including plain KeyErrors from
        # internal bugs) still surface as tracebacks.
        sys.stderr.write(f"gridfed: error: {exc}\n")
        return 2
    sys.stdout.write(output)
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
