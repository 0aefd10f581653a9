"""Command-line interface: run the paper's experiments from a shell.

Subcommands::

    python -m repro onoff    --disk toshiba --profile system --days 6
    python -m repro policies --disk toshiba --days 3 --workers 3
    python -m repro sweep    --disk toshiba --counts 10,50,100,1018
    python -m repro workload --profile system --out day0.trace
    python -m repro ingest   server.blktrace --mapping compact --out day0.trace
    python -m repro replay   day0.trace --disk toshiba [--rearrange]
    python -m repro trace    run.jsonl --disk toshiba
    python -m repro fleet    --devices 64 --workers 8 --progress
    python -m repro ssd      --profile users --days 3 --policy off
    python -m repro bench    [--quick] [--list] [--compare BASELINE.json]

``ingest`` converts a raw external block trace (blkparse text output or
MSR-Cambridge-style CSV) into the internal trace format that ``replay``
consumes — the full real-trace pipeline needs no Python at all.  See
``docs/traces.md`` for formats, mapping strategies and rescaling.

All commands accept ``--hours`` to shorten the measurement day (the paper
used 15-hour days) and ``--seed`` for reproducibility.  The experiment
and ``fleet`` commands accept ``--policy nightly|online|off`` (plus
``--idle-ms`` for online migration; see ``docs/online.md``).  ``onoff`` and
``replay`` accept ``--trace FILE`` to record every request-lifecycle
event as JSONL; the ``trace`` subcommand reduces such a file back to
per-device day metrics.  ``policies`` accepts ``--workers`` to fan its
independent campaigns across processes; ``sweep`` always chains its days
through one campaign, as the paper's Figure 8 did.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import fields, replace

from .analysis.characterize import characterize, render_character
from .api import make_config
from .bench.runner import DEFAULT_MEM_THRESHOLD, DEFAULT_THRESHOLD
from .core.counters import COUNTER_STRATEGIES
from .core.placement import PLACEMENT_POLICIES
from .disk.models import DISK_MODELS, disk_model
from .driver.errors import DriverError
from .driver.ftl import GC_POLICIES
from .driver.queue import QUEUE_POLICIES
from .faults.chaos import ChaosSpecError, parse_chaos_spec
from .faults.spec import FaultSpecError, parse_fault_spec
from .fleet import CheckpointError, FleetSpec, render_fleet, run_fleet
from .obs import (
    NULL_TRACER,
    JsonlTraceWriter,
    ShardProgress,
    TraceScanStats,
    replay_day_metrics,
    replay_monitors,
)
from .parallel import ON_ERROR_POLICIES, RetryPolicy, WorkerTaskError
from .policy import POLICY_SHORTHANDS, OnlinePolicy
from .sim.experiment import (
    Experiment,
    ExperimentConfig,
    run_block_count_sweep,
    run_campaigns_parallel,
    run_onoff_campaign,
)
from .sim.ssd import REFERENCE_DISK, SsdConfig, SsdExperiment
from .stats.metrics import seek_time_reduction_vs_fcfs, summarize_on_off
from .stats.report import (
    render_day,
    render_detail_table,
    render_onoff_table,
    render_sweep,
)
from .traces import (
    TraceParseError,
    ingest_trace,
    matching_profile,
    render_trace_character,
    replay_jobs,
    write_ingested,
)
from .traces.formats import FORMATS
from .traces.mapping import MAPPING_STRATEGIES
from .traces.rescale import LOOPS
from .workload.profiles import PROFILES
from .workload.tenancy import TenancySpec
from .workload.trace import load_trace, save_trace

UNSET = argparse.SUPPRESS
"""Default of every flag that sets a library value: an unset flag is
absent from the parsed namespace, so the spec or function it feeds keeps
its own default."""


def _add_common(
    parser: argparse.ArgumentParser,
    *,
    skip: tuple[str, ...] = (),
    **help_text: str,
) -> None:
    """The run flags the experiment, ``fleet`` and ``ssd`` commands
    share.  ``skip`` names the flags a command lacks and ``help_text``
    replaces a flag's help text, both keyed by field."""
    if "disk" not in skip:
        parser.add_argument("--disk", choices=DISK_MODELS, default=UNSET)
    parser.add_argument(
        "--profile", choices=sorted(PROFILES), default=UNSET,
        help=help_text.get("profile"),
    )
    parser.add_argument(
        "--hours", type=float, default=UNSET,
        help=help_text.get(
            "hours", "length of a measurement day (default: the profile's 15h)"
        ),
    )
    parser.add_argument("--seed", type=int, default=UNSET)
    if "counter" not in skip:
        parser.add_argument(
            "--counter", choices=COUNTER_STRATEGIES, default=UNSET,
            help=help_text.get(
                "counter",
                "analyzer counter strategy: exact per-block counts (the "
                "paper's setup) or a bounded Space-Saving top-k sketch "
                "(see docs/scaling.md)",
            ),
        )
    if "faults" not in skip:
        parser.add_argument(
            "--faults", default=UNSET, metavar="SPEC",
            help="deterministic fault injection, e.g. "
            "'seed=7,transient=0.001,retries=3,crash=copy100,crash=day1@2h' "
            "(grammar in docs/faults.md)",
        )
    parser.add_argument(
        "--policy", choices=POLICY_SHORTHANDS, default=UNSET,
        help="when rearrangement runs: the nightly batch cycle (default), "
        "online incremental migration during idle windows "
        "(docs/online.md), or never",
    )
    parser.add_argument(
        "--idle-ms", type=float, default=UNSET, metavar="MS",
        help="idle-gap length that opens a migration window "
        "(--policy online only; default 250)",
    )


def _policy_of(args):
    """Resolve --policy/--idle-ms into what the run specs expect."""
    policy = getattr(args, "policy", None)
    idle_ms = getattr(args, "idle_ms", None)
    if idle_ms is not None and policy != "online":
        raise SystemExit("--idle-ms only applies with --policy online")
    if policy == "online" and idle_ms is not None:
        try:
            return OnlinePolicy(idle_ms=idle_ms)
        except ValueError as exc:
            raise SystemExit(f"bad --idle-ms: {exc}")
    return policy


def _options(args, *names: str) -> dict:
    """The flags among ``names`` (their dests) that the user set, ready
    to pass on as keywords.  A ``policy`` takes ``--idle-ms`` into
    account and a ``faults`` spec is parsed."""
    options = {name: getattr(args, name) for name in names if name in args}
    if "policy" in names:
        policy = _policy_of(args)
        if policy is not None:
            options["policy"] = policy
    if "faults" in options:
        try:
            options["faults"] = parse_fault_spec(options["faults"])
        except FaultSpecError as exc:
            raise SystemExit(f"bad --faults spec: {exc}")
    return options


def _fields(spec) -> list[str]:
    return [field.name for field in fields(spec)]


def experiment_config(args) -> ExperimentConfig:
    """The config an experiment command runs: the flags the user set,
    :class:`ExperimentConfig`'s defaults for the rest."""
    return make_config(**_options(args, "hours", *_fields(ExperimentConfig)))


def fleet_spec(args) -> FleetSpec:
    """The ``fleet`` command's spec: the flags the user set, the
    :class:`FleetSpec` and :class:`TenancySpec` defaults for the rest."""
    try:
        return FleetSpec(
            tenancy=TenancySpec(**_options(args, *_fields(TenancySpec))),
            **_options(args, *_fields(FleetSpec)),
        )
    except ValueError as exc:
        raise SystemExit(f"bad fleet spec: {exc}")


def ssd_config(args) -> SsdConfig:
    """The ``ssd`` command's config: the flags the user set, the
    :class:`SsdConfig` defaults for the rest."""
    try:
        return make_config(disk="ssd", **_options(args, "hours", *_fields(SsdConfig)))
    except (KeyError, ValueError) as exc:
        raise SystemExit(f"bad ssd config: {exc}")


def cmd_onoff(args) -> int:
    config = experiment_config(args)
    tracer = JsonlTraceWriter(args.trace) if args.trace else NULL_TRACER
    try:
        result = run_onoff_campaign(config, days=args.days, tracer=tracer)
    finally:
        tracer.close()
    if args.trace:
        print(f"wrote {tracer.events_written} trace events -> {args.trace}\n")
    for day in result.days:
        print(render_day(day.metrics, config.disk))
    for scope in ("all", "read"):
        summary = summarize_on_off(result.metrics(), scope)
        print()
        print(
            render_onoff_table(
                [(config.disk.capitalize(), scope, summary)],
                f"On/Off summary ({scope} requests)",
            )
        )
    return 0


def cmd_policies(args) -> int:
    config = experiment_config(args)
    schedule = [False] + [True] * (args.days - 1)
    tasks = [
        (policy, replace(config, placement_policy=policy), schedule)
        for policy in PLACEMENT_POLICIES
    ]
    columns = []
    rows = []
    for policy, result in run_campaigns_parallel(tasks, workers=args.workers):
        day = result.on_days()[-1].metrics
        columns.append((policy[:12], day.all))
        rows.append((policy, seek_time_reduction_vs_fcfs(day.all)))
    print(
        render_detail_table(
            columns,
            f"Placement policies on {config.disk} ({config.profile.name} FS)",
        )
    )
    print()
    for policy, reduction in rows:
        print(f"{policy:<14} seek reduction vs FCFS: {reduction:.0%}")
    return 0


def cmd_sweep(args) -> int:
    config = experiment_config(args)
    counts = [int(c) for c in args.counts.split(",")]
    rows = []
    for count, day in run_block_count_sweep(config, counts):
        m = day.metrics.all
        rows.append(
            (
                count,
                1 - m.mean_seek_distance / m.fcfs_mean_seek_distance,
                1 - m.mean_seek_time_ms / m.fcfs_mean_seek_time_ms,
            )
        )
    print(
        render_sweep(rows, f"Seek reduction vs blocks rearranged ({config.disk})")
    )
    return 0


def cmd_workload(args) -> int:
    # Day 0 exactly as the experiment commands simulate it.
    config = experiment_config(args)
    workload = Experiment(config).generator.generate_day()
    print(render_character(characterize(workload), f"{config.profile.name} day 0"))
    if args.out:
        count = save_trace(workload.jobs, args.out)
        print(f"\nwrote {count} jobs -> {args.out}")
    return 0


def cmd_ingest(args) -> int:
    try:
        result = ingest_trace(
            args.raw,
            **_options(
                args, "format", "mapping", "disk", "target_blocks",
                "source_span", "time_scale", "loop", "gap_ms", "limit",
            ),
        )
    except (OSError, TraceParseError) as exc:
        raise SystemExit(f"ingest failed: {exc}")
    title = (
        f"{args.raw} ({result.mapping} -> {result.target_blocks} blocks, "
        f"{result.loop} loop, x{result.time_scale:g} time)"
    )
    print(render_trace_character(result.character, title))
    if result.wrapped:
        print(
            "warning: working set exceeds the target disk; "
            "compaction wrapped around",
            file=sys.stderr,
        )
    if args.show_profile:
        profile = matching_profile(result.character, **_options(args, "base"))
        print(
            f"\nmatched profile {profile.name!r}: "
            f"day {profile.day_hours:.2f}h, "
            f"{profile.read_sessions_per_hour:.0f} read sessions/h, "
            f"{profile.open_sessions_per_hour:.0f} open sessions/h, "
            f"zipf {profile.file_popularity_exponent:.2f}, "
            f"single-block p {profile.single_block_read_prob:.2f}, "
            f"run mean {profile.multi_run_mean:.1f}"
        )
    if args.out:
        count = write_ingested(result, args.out)
        print(
            f"\nwrote {count} jobs ({result.requests} requests) "
            f"-> {args.out}"
        )
    return 0


def cmd_replay(args) -> int:
    jobs = load_trace(args.trace)
    tracer = JsonlTraceWriter(args.out_trace) if args.out_trace else NULL_TRACER
    try:
        result = replay_jobs(
            jobs,
            rearrange=args.rearrange,
            tracer=tracer,
            **_options(args, "disk", "queue", "num_blocks"),
        )
    finally:
        tracer.close()
    if args.rearrange:
        print(f"rearranged {result.rearranged_blocks} blocks")
    if args.out_trace:
        print(f"wrote {tracer.events_written} trace events -> {args.out_trace}")
    m = result.metrics.all
    print(f"requests:     {result.completed}")
    print(f"mean seek:    {m.mean_seek_time_ms:.2f} ms")
    print(f"mean service: {m.mean_service_ms:.2f} ms")
    print(f"mean waiting: {m.mean_waiting_ms:.2f} ms")
    print(f"zero seeks:   {m.zero_seek_fraction:.0%}")
    return 0


def cmd_trace(args) -> int:
    models: dict[str, str] = {}
    if args.disks:
        for pair in args.disks.split(","):
            device, __, disk = pair.partition("=")
            if not disk:
                raise SystemExit(
                    f"--disks entries must look like device=model: {pair!r}"
                )
            models[device.strip()] = disk.strip()

    def seek_model_for(device: str):
        return disk_model(models.get(device, args.disk)).seek

    # Peek at the devices first so each gets its own geometry's seek model.
    try:
        devices = sorted(replay_monitors(args.jsonl))
    except OSError as exc:
        raise SystemExit(f"cannot read trace: {exc}")
    if not devices:
        print("no request events in trace")
        return 1
    scan = TraceScanStats()
    try:
        per_device = replay_day_metrics(
            args.jsonl,
            {device: seek_model_for(device) for device in devices},
            rearranged=args.rearranged,
            stats=scan,
            **_options(args, "day"),
        )
    except ValueError as exc:
        raise SystemExit(
            f"replay failed: {exc}\n"
            "(multi-device traces usually need a per-device mapping, "
            "e.g. --disks toshiba0=toshiba,fujitsu0=fujitsu)"
        )
    for device in devices:
        print(render_day(per_device[device], device))
    if scan.malformed_lines:
        print(
            f"warning: skipped {scan.malformed_lines} malformed line(s) "
            f"(last at line {scan.last_malformed_lineno}) — trace tail "
            "may have been truncated by a crash",
            file=sys.stderr,
        )
    return 0


def cmd_fleet(args) -> int:
    spec = fleet_spec(args)
    chaos = None
    if args.chaos:
        try:
            chaos = parse_chaos_spec(args.chaos)
        except ChaosSpecError as exc:
            raise SystemExit(f"bad chaos spec: {exc}")
    retry = None
    retry_options = _options(args, "max_attempts", "timeout_s", "backoff_s")
    if retry_options != {"max_attempts": 1}:  # a retry flag was set
        try:
            retry = RetryPolicy(**retry_options, seed=spec.seed)
        except ValueError as exc:
            raise SystemExit(f"bad retry policy: {exc}")
    if args.resume and args.checkpoint is None:
        raise SystemExit("--resume needs --checkpoint PATH to resume from")
    progress = (
        ShardProgress(spec.num_shards, what="fleet shard")
        if args.progress
        else None
    )
    try:
        result = run_fleet(
            spec,
            workers=args.workers,
            on_shard=progress,
            checkpoint=args.checkpoint,
            resume=args.resume,
            retry=retry,
            chaos=chaos,
            on_retry=progress.note_retry if progress else None,
            on_failure=progress.note_failure if progress else None,
            **_options(args, "on_error"),
        )
    except CheckpointError as exc:
        raise SystemExit(f"cannot resume: {exc}")
    except WorkerTaskError as exc:
        hint = (
            f"\n(completed shards are journaled in {args.checkpoint}; "
            "re-run with --resume to continue)"
            if args.checkpoint
            else "\n(re-run with --checkpoint PATH to make runs resumable, "
            "or --on-error degrade to finish with a partial result)"
        )
        raise SystemExit(f"fleet run failed: {exc}{hint}")
    if args.json:
        import json

        print(json.dumps(result.payload(), indent=2, sort_keys=True))
    else:
        print(render_fleet(result))
    return 1 if result.degraded and getattr(args, "on_error", None) != "skip" else 0


def cmd_ssd(args) -> int:
    config = ssd_config(args)
    tracer = JsonlTraceWriter(args.trace) if args.trace else NULL_TRACER
    try:
        try:
            experiment = SsdExperiment(config, tracer=tracer)
        except DriverError as exc:
            raise SystemExit(f"bad ssd config: {exc}")
        days = experiment.run_days(args.days)
    finally:
        tracer.close()
    if args.trace:
        print(f"wrote {tracer.events_written} trace events -> {args.trace}\n")
    separation = "on" if config.separation else "off"
    print(
        f"flash ssd ({REFERENCE_DISK} span), "
        f"gc {config.gc_policy}, hot/cold separation {separation}"
    )
    header = (
        f"{'day':>3} {'reqs':>6} {'resp ms':>8} {'WA':>6} {'GC':>5} "
        f"{'moved':>6} {'cmt hit':>8} {'maxE':>5} {'meanE':>6}"
    )
    print(header)
    for day in days:
        print(
            f"{day.day:>3} {day.completed:>6} {day.mean_response_ms:>8.3f} "
            f"{day.write_amplification:>6.3f} {day.gc_runs:>5} "
            f"{day.gc_page_moves:>6} {day.cmt_hit_ratio:>8.3f} "
            f"{day.max_erase_count:>5} {day.mean_erase_count:>6.2f}"
        )
    host = sum(d.host_page_writes for d in days)
    flash = sum(d.flash_page_writes for d in days)
    if host:
        print(f"\noverall write amplification: {flash / host:.4f}")
    return 0


def cmd_bench(args) -> int:
    from .bench import (
        BenchError,
        compare_reports,
        get_scenarios,
        load_baseline,
        run_suite,
        write_baseline,
        write_report,
    )
    from .bench.runner import render_report_line, render_trajectory_lines
    from .bench.scenarios import SCENARIOS

    if args.list:
        width = max(len(name) for name in SCENARIOS)
        for scenario in SCENARIOS.values():
            print(f"{scenario.name:<{width}}  {scenario.description}")
        return 0
    names = args.scenarios.split(",") if args.scenarios else None
    try:
        scenarios = get_scenarios(names)
    except KeyError as exc:
        raise SystemExit(str(exc.args[0]))
    reports = run_suite(
        scenarios,
        quick=args.quick,
        measure_memory=args.measure_memory,
        **_options(args, "repeat"),
    )
    for report in reports:
        print(render_report_line(report))
        path = write_report(report, args.out)
        print(f"  -> {path}")
    if args.profile:
        # One extra untimed repetition per scenario under cProfile; the
        # dump lands next to the JSON artifact for pstats/snakeviz.
        import cProfile
        from pathlib import Path

        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        for scenario in scenarios:
            profiler = cProfile.Profile()
            profiler.enable()
            scenario.run(args.quick)
            profiler.disable()
            path = out_dir / f"BENCH_{scenario.name}.pstats"
            profiler.dump_stats(path)
            print(f"profile -> {path}")
    if args.write_baseline:
        path = write_baseline(reports, args.write_baseline)
        print(f"baseline -> {path}")
    if args.compare:
        try:
            baseline = load_baseline(args.compare)
        except (OSError, ValueError, BenchError) as exc:
            raise SystemExit(f"cannot load baseline: {exc}")
        unknown = sorted(set(baseline.get("scenarios", {})) - set(SCENARIOS))
        if unknown:
            print(
                f"warning: baseline {args.compare} names scenario(s) "
                f"unknown to this build: {', '.join(unknown)} "
                "(renamed or removed? regenerate with --write-baseline)",
                file=sys.stderr,
            )
        trajectory = render_trajectory_lines(reports, baseline)
        if trajectory:
            print(f"\nthroughput vs {args.compare} (informational):")
            for line in trajectory:
                print(f"  {line}")
        problems = compare_reports(
            reports,
            baseline,
            threshold=args.threshold,
            mem_threshold=args.mem_threshold,
        )
        if problems:
            print(f"\nFAIL vs {args.compare}:", file=sys.stderr)
            for problem in problems:
                print(f"  - {problem}", file=sys.stderr)
            return 1
        print(
            f"\nOK vs {args.compare} (threshold {args.threshold:.0%}, "
            f"memory {args.mem_threshold:.0%})"
        )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Adaptive block rearrangement experiments "
        "(Akyurek & Salem, ICDE 1993)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    onoff = sub.add_parser("onoff", help="alternating on/off campaign")
    _add_common(onoff)
    onoff.add_argument("--days", type=int, default=6)
    onoff.add_argument(
        "--trace", default=None, metavar="FILE",
        help="write request-lifecycle events to FILE as JSONL",
    )
    onoff.set_defaults(func=cmd_onoff)

    policies = sub.add_parser("policies", help="placement-policy bake-off")
    _add_common(policies)
    policies.add_argument("--days", type=int, default=3)
    policies.add_argument(
        "--workers", type=int, default=None,
        help="processes for the three policy campaigns "
        "(default: one per campaign, up to the CPU count; results are "
        "identical to --workers 1)",
    )
    policies.set_defaults(func=cmd_policies)

    sweep = sub.add_parser("sweep", help="blocks-rearranged sweep (Fig. 8)")
    _add_common(sweep)
    sweep.add_argument("--counts", default="10,25,50,100,200,400,1018")
    sweep.set_defaults(func=cmd_sweep)

    workload = sub.add_parser(
        "workload", help="characterize a generated day; optionally save it"
    )
    _add_common(workload)
    workload.add_argument("--out", default=None, help="trace file to write")
    workload.set_defaults(func=cmd_workload)

    ingest = sub.add_parser(
        "ingest",
        help="convert an external block trace (blkparse/MSR CSV) for replay",
    )
    ingest.add_argument("raw", help="raw trace file (blkparse text or MSR CSV)")
    ingest.add_argument(
        "--format", choices=FORMATS, default=UNSET,
        help="input format (default: sniff from the first record)",
    )
    ingest.add_argument(
        "--mapping", choices=MAPPING_STRATEGIES, default=UNSET,
        help="address-mapping strategy onto the simulated disk "
        "(see docs/traces.md)",
    )
    ingest.add_argument(
        "--disk", choices=DISK_MODELS, default=UNSET,
        help="disk whose virtual size bounds the mapped addresses",
    )
    ingest.add_argument(
        "--target-blocks", type=int, default=UNSET,
        help="override the mapped address-space size "
        "(default: the disk's virtual block count)",
    )
    ingest.add_argument(
        "--source-span", type=int, default=UNSET,
        help="source address-space size for --mapping linear "
        "(default: measured with a streaming pre-pass)",
    )
    ingest.add_argument(
        "--time-scale", type=float, default=UNSET,
        help="multiply inter-arrival times (0.1 compresses 10x)",
    )
    ingest.add_argument(
        "--loop", choices=LOOPS, default=UNSET,
        help="open: replay arrivals verbatim; closed: fold bursts into "
        "think-time sessions",
    )
    ingest.add_argument(
        "--gap-ms", type=float, default=UNSET,
        help="closed-loop session break (scaled inter-arrival gap)",
    )
    ingest.add_argument(
        "--limit", type=int, default=UNSET,
        help="ingest only the first N records",
    )
    ingest.add_argument(
        "--profile", dest="base", choices=sorted(PROFILES), default=UNSET,
        help="base profile for --show-profile",
    )
    ingest.add_argument(
        "--show-profile", action="store_true",
        help="print the matching synthetic workload profile",
    )
    ingest.add_argument("--out", default=None, help="trace file to write")
    ingest.set_defaults(func=cmd_ingest)

    replay = sub.add_parser("replay", help="replay a saved trace")
    replay.add_argument("trace")
    replay.add_argument("--disk", choices=DISK_MODELS, default=UNSET)
    replay.add_argument("--queue", choices=QUEUE_POLICIES, default=UNSET)
    replay.add_argument(
        "--rearrange", action="store_true",
        help="pre-train rearrangement on the trace itself",
    )
    replay.add_argument(
        "--blocks", dest="num_blocks", type=int, default=UNSET,
        metavar="BLOCKS",
        help="blocks to rearrange with --rearrange "
        "(default: the paper's count for --disk)",
    )
    replay.add_argument(
        "--out-trace", default=None, metavar="FILE",
        help="write request-lifecycle events to FILE as JSONL",
    )
    replay.set_defaults(func=cmd_replay)

    trace = sub.add_parser(
        "trace", help="reduce a JSONL trace to per-device day metrics"
    )
    trace.add_argument("jsonl", help="trace file written by --trace")
    trace.add_argument(
        "--disk", choices=DISK_MODELS, default=ExperimentConfig.disk,
        help="disk model whose seek curve converts FCFS distances to times",
    )
    trace.add_argument(
        "--disks", default=None, metavar="DEV=MODEL[,DEV=MODEL...]",
        help="per-device disk models for multi-device traces "
        "(e.g. toshiba0=toshiba,fujitsu0=fujitsu)",
    )
    trace.add_argument("--day", type=int, default=UNSET)
    trace.add_argument("--rearranged", action="store_true")
    trace.set_defaults(func=cmd_trace)

    fleet = sub.add_parser(
        "fleet",
        help="multi-device fleet run: sharded, multi-tenant, streaming "
        "aggregation (see docs/fleet.md)",
    )
    _add_common(
        fleet,
        skip=("faults",),
        hours="length of each measurement day (default: the profile's 15h)",
        profile="base preset the per-device tenant profiles derive from",
        counter="analyzer counter strategy (bounded sketch by default)",
    )
    fleet.add_argument("--devices", type=int, default=UNSET)
    fleet.add_argument(
        "--days", type=int, default=UNSET,
        help="one training (off) day, then rearranged days",
    )
    fleet.add_argument(
        "--devices-per-shard", type=int, default=UNSET,
        help="shard width; part of the spec (affects seeds), unlike "
        "--workers which never changes results",
    )
    fleet.add_argument(
        "--workers", type=int, default=None,
        help="worker processes (default: one per shard up to the CPU "
        "count; results are identical at any value)",
    )
    fleet.add_argument("--tenants", type=int, default=UNSET)
    fleet.add_argument(
        "--tenant-skew", type=float, default=UNSET,
        help="Zipf exponent of per-tenant traffic shares",
    )
    fleet.add_argument(
        "--overlap", dest="hot_set_overlap", type=float, default=UNSET,
        metavar="OVERLAP",
        help="fraction of each device's hot set drawn from the "
        "fleet-wide shared hot set",
    )
    fleet.add_argument(
        "--blocks", dest="num_blocks", type=int, default=UNSET,
        metavar="BLOCKS",
        help="blocks each device rearranges nightly (default: the "
        "paper's per-model choice)",
    )
    fleet.add_argument(
        "--checkpoint", default=None, metavar="PATH",
        help="journal each completed shard to this JSONL file "
        "(see docs/resilience.md)",
    )
    fleet.add_argument(
        "--resume", action="store_true",
        help="skip shards already journaled in --checkpoint; the "
        "finished run's digest is identical to an uninterrupted one",
    )
    fleet.add_argument(
        "--retries", dest="max_attempts", type=int, default=1, metavar="N",
        help="attempts per shard before giving up (default: 1 = no "
        "retries); retried attempts re-run the same seeds, so results "
        "never change",
    )
    fleet.add_argument(
        "--task-timeout", dest="timeout_s", type=float, default=UNSET,
        metavar="SECONDS",
        help="per-shard deadline; stragglers are killed and re-dispatched "
        "(counts as one attempt)",
    )
    fleet.add_argument(
        "--backoff", dest="backoff_s", type=float, default=UNSET,
        metavar="SECONDS",
        help="base retry delay, doubled per attempt with seeded jitter",
    )
    fleet.add_argument(
        "--on-error", choices=ON_ERROR_POLICIES, default=UNSET,
        help="what exhausted shards do: fail the run, or drop the shard "
        "and return a partial result with a failed-shard manifest",
    )
    fleet.add_argument(
        "--chaos", default=None, metavar="SPEC",
        help="inject worker faults for testing, e.g. "
        "'seed=7,exception=0.2,exit=0.1,attempts=1' "
        "(see docs/resilience.md for the grammar)",
    )
    fleet.add_argument(
        "--progress", action="store_true",
        help="print a line per completed shard to stderr",
    )
    fleet.add_argument(
        "--json", action="store_true",
        help="print the full canonical result payload as JSON",
    )
    fleet.set_defaults(func=cmd_fleet)

    ssd = sub.add_parser(
        "ssd",
        help="run the paper's workloads through the page-mapped FTL: "
        "write amplification, GC, mapping cache, wear (docs/ftl.md)",
    )
    _add_common(
        ssd,
        skip=("disk", "counter", "faults"),
        profile="workload preset (users has the hot/cold write mix that "
        "makes separation interesting)",
    )
    ssd.set_defaults(profile="users")
    ssd.add_argument("--days", type=int, default=2)
    ssd.add_argument(
        "--gc-policy", choices=GC_POLICIES, default=UNSET,
        help="garbage-collection victim selection",
    )
    ssd.add_argument(
        "--cmt-capacity", type=int, default=UNSET, metavar="ENTRIES",
        help="cached-mapping-table capacity; misses cost translation-page "
        "reads from flash",
    )
    ssd.add_argument(
        "--hot-threshold", type=int, default=UNSET, metavar="N",
        help="sketch count at which a page writes to the hot frontier",
    )
    ssd.add_argument(
        "--no-precondition", dest="precondition", action="store_false",
        default=UNSET,
        help="start from a fresh (never-written) drive; short days will "
        "not garbage-collect",
    )
    ssd.add_argument(
        "--trace", default=None, metavar="FILE",
        help="write request-lifecycle + GC/mapping/wear events as JSONL",
    )
    ssd.set_defaults(func=cmd_ssd)

    bench = sub.add_parser(
        "bench", help="time the scenario suite; gate against a baseline"
    )
    bench.add_argument(
        "--quick", action="store_true",
        help="CI-sized day lengths (digests differ from full mode)",
    )
    bench.add_argument(
        "--list", action="store_true",
        help="list the scenarios with their descriptions and exit",
    )
    bench.add_argument(
        "--scenarios", default=None, metavar="NAME[,NAME...]",
        help="subset of scenarios to run (default: the full suite)",
    )
    bench.add_argument(
        "--repeat", type=int, default=UNSET,
        help="repetitions per scenario; best wall-clock is reported",
    )
    bench.add_argument(
        "--out", default=".", metavar="DIR",
        help="directory for BENCH_<scenario>.json (default: repo root)",
    )
    bench.add_argument(
        "--compare", default=None, metavar="BASELINE.json",
        help="fail if a digest changed or a scenario slowed beyond "
        "--threshold vs this baseline",
    )
    bench.add_argument(
        "--write-baseline", default=None, metavar="FILE",
        help="also write the combined baseline document to FILE",
    )
    bench.add_argument(
        "--threshold", type=float, default=DEFAULT_THRESHOLD,
        help="fractional slowdown tolerated by --compare (default 0.15)",
    )
    bench.add_argument(
        "--mem-threshold", type=float, default=DEFAULT_MEM_THRESHOLD,
        help="fractional peak-memory growth tolerated by --compare "
        "(default 0.25)",
    )
    bench.add_argument(
        "--no-memory", dest="measure_memory", action="store_false",
        help="skip the tracemalloc pass (faster; reports lack peak memory "
        "and --compare skips the memory check)",
    )
    bench.add_argument(
        "--profile", action="store_true",
        help="run one extra untimed repetition per scenario under "
        "cProfile and dump BENCH_<scenario>.pstats next to the JSON "
        "artifact",
    )
    bench.set_defaults(func=cmd_bench)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
