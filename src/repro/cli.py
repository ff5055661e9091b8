"""Command-line interface.

Usage examples::

    python -m repro fig6 --part ab --preset smoke
    python -m repro fig6 --part cd --preset default --csv out/fig6cd.csv
    python -m repro fig6 --part ab --jobs 4 --progress --checkpoint out/ab.ckpt
    python -m repro campaign run --part ab --preset smoke --shard 0/2 \
        --out out/ab.shard0.jsonl
    python -m repro campaign merge --part ab --preset smoke \
        out/ab.shard*.jsonl --csv out/ab.csv
    python -m repro cluster run --part ab --preset smoke --shards 4 \
        --workers 2 --dir out/cluster --csv out/ab.csv --progress
    python -m repro analyze --tasks 15 --seed 7 --replications 20
    python -m repro bench --check BENCH_kernel.json
    python -m repro bench --kernel batch
    python -m repro waters

``fig6`` regenerates the paper's evaluation figures as text tables (and
optionally CSV); ``analyze`` builds one random scenario and prints the
full analysis (response times, per-chain backward bounds, P-diff /
S-diff, buffer design); ``waters`` prints the embedded WATERS 2015
benchmark tables.
"""

from __future__ import annotations

import argparse
import random
import sys
from pathlib import Path
from typing import Optional, Sequence

from repro.units import seconds, to_ms


def _profiled(func, args: argparse.Namespace) -> tuple:
    """Re-run ``func(args)`` under cProfile with the flag cleared.

    Work done inside the batched replication engine is reported as its
    own compile/replicate split below the cProfile table, so setup
    amortization is visible without digging through the call tree.
    """
    from repro.profile import profile_to_text
    from repro.sim.batch import PHASE_TIMES, reset_phase_times

    args.profile = False
    reset_phase_times()
    code, text = profile_to_text(func, args)
    if any(PHASE_TIMES.values()):
        parts = [
            f"compile {PHASE_TIMES['compile_s']:.3f}s",
            f"replicate {PHASE_TIMES['replicate_s']:.3f}s",
        ]
        # The columnar engine splits replication into draw/advance/
        # derive; show those phases only when it actually ran.
        for key in ("draw_s", "advance_s", "derive_s"):
            if PHASE_TIMES[key]:
                parts.append(f"{key[:-2]} {PHASE_TIMES[key]:.3f}s")
        text += "batch engine phases: " + ", ".join(parts) + "\n"
    return code, text


def _regime_note(system, task: str, args: argparse.Namespace) -> bool:
    """Print the release-regime banner for non-periodic workloads.

    Returns ``True`` when the workload is simulation-only for the
    analytical bounds (the caller should skip them); in that case the
    observed-disparity section still runs if ``--replications`` was
    given, since every simulation tier supports all release models.
    """
    from repro.analysis_regime import regime_of

    regime = regime_of(system)
    if regime.analytical:
        return False
    print(f"release regime: {regime.describe()}")
    print(
        "analytical bounds (Theorems 1-3, Lemmas 4-6) assume strictly "
        "periodic releases and are skipped; jittered/sporadic workloads "
        "are simulation-only — use --replications N to measure the "
        "observed disparity instead."
    )
    if getattr(args, "replications", None):
        print()
        _print_observed(system, task, args)
    return True


def _print_observed(system, task: str, args: argparse.Namespace) -> None:
    """Batched-replication summary for ``--replications N`` commands."""
    from repro.api import AnalysisSession

    duration = seconds(args.sim_duration)
    result = AnalysisSession(system).observed_batch(
        task,
        sims=args.replications,
        duration=duration,
        warmup=duration // 4,
        seed=args.seed or 0,
    )
    pct = result.percentiles()
    print(
        f"observed disparity ({result.sims} replications, "
        f"{args.sim_duration:g}s horizon, {result.engine} engine): "
        f"max {to_ms(result.max_disparity):.3f}ms, "
        f"p50 {to_ms(pct['p50']):.3f}ms, p90 {to_ms(pct['p90']):.3f}ms"
    )


def _config_overrides(args: argparse.Namespace) -> dict:
    """Preset overrides shared by the ``fig6`` and ``campaign`` commands."""
    overrides = {}
    if getattr(args, "duration", None) is not None:
        overrides["sim_duration"] = seconds(args.duration)
    if getattr(args, "graphs", None) is not None:
        overrides["graphs_per_point"] = args.graphs
    if getattr(args, "sims", None) is not None:
        overrides["sims_per_graph"] = args.sims
    if getattr(args, "seed", None) is not None:
        overrides["seed"] = args.seed
    if getattr(args, "semantics", None) is not None:
        overrides["semantics"] = args.semantics
    return overrides


def _campaign_config(args: argparse.Namespace):
    """Resolve the config of a ``campaign`` / ``cluster`` subcommand."""
    from repro.experiments import preset

    return preset(args.part, args.preset).scaled(**_config_overrides(args))


def _cmd_campaign_run(args: argparse.Namespace) -> int:
    from repro.parallel.shard import ShardSpec, run_shard

    config = _campaign_config(args)
    shard = ShardSpec.parse(args.shard)
    progress = None if args.quiet else (lambda msg: print(f"  {msg}"))
    run_shard(
        args.part,
        config,
        shard,
        args.out,
        jobs=args.jobs,
        progress=progress,
    )
    return 0


def _cmd_campaign_merge(args: argparse.Namespace) -> int:
    from repro.parallel.campaign import get_part
    from repro.parallel.shard import merge_shards

    config = _campaign_config(args)
    part = get_part(args.part)
    rows = merge_shards(part, config, args.shards)
    csv_text = part.to_csv(rows)
    if args.csv:
        path = Path(args.csv)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(csv_text)
        print(f"[campaign] merged {len(args.shards)} shard file(s) -> {path}")
    else:
        print(csv_text, end="")
    return 0


def _remote_shard_commands(args: argparse.Namespace, shards: int) -> list:
    """Ready-to-run ``repro campaign run`` lines for remote machines.

    A remote worker is nothing special: it runs one shard with the same
    part/preset/overrides and ships the JSONL back.  The coordinator's
    directory layout is reproduced so the files drop straight into a
    later ``repro campaign merge`` (or a re-run of ``cluster run``,
    which resumes from whatever records already arrived).
    """
    base = ["python", "-m", "repro", "campaign", "run",
            "--part", args.part, "--preset", args.preset]
    for flag, key in (
        ("--duration", "duration"), ("--graphs", "graphs"),
        ("--sims", "sims"), ("--seed", "seed"), ("--semantics", "semantics"),
    ):
        value = getattr(args, key, None)
        if value is not None:
            base += [flag, str(value)]
    width = len(str(shards - 1))
    return [
        " ".join(
            base
            + ["--shard", f"{index}/{shards}",
               "--out", f"{args.dir}/shard{index:0{width}d}.jsonl"]
        )
        for index in range(shards)
    ]


def _parse_chaos(specs, tear: bool) -> dict:
    """Parse repeated ``--chaos-kill SHARD:RECORDS`` flags into faults."""
    from repro.parallel.cluster import ClusterFault

    faults = {}
    for spec in specs or ():
        shard_text, _, records_text = spec.partition(":")
        try:
            shard, records = int(shard_text), int(records_text)
        except ValueError:
            raise SystemExit(
                f"--chaos-kill expects SHARD:RECORDS (e.g. 0:1), got {spec!r}"
            ) from None
        faults[shard] = ClusterFault(die_after_records=records, tear=tear)
    return faults


def _cmd_cluster_run(args: argparse.Namespace) -> int:
    from repro.experiments.runner import cluster_live_line, format_cluster_report
    from repro.parallel.campaign import get_part
    from repro.parallel.cluster import ClusterError, run_cluster

    config = _campaign_config(args)
    part = get_part(args.part)
    if args.emit_commands:
        for line in _remote_shard_commands(args, args.shards):
            print(line)
        return 0

    stream = sys.stdout
    progress = None if args.quiet else (lambda msg: print(f"  {msg}", file=stream))
    live = cluster_live_line("cluster", stream, args.progress)
    faults = _parse_chaos(args.chaos_kill, args.chaos_tear)
    try:
        rows, report = run_cluster(
            args.part,
            config,
            shards=args.shards,
            workers=args.workers,
            out_dir=args.dir,
            jobs=args.jobs,
            heartbeat_timeout=args.heartbeat_timeout,
            max_retries=args.max_retries,
            backoff_s=args.backoff,
            allow_missing=args.allow_missing,
            progress=progress,
            heartbeat=live,
            faults=faults or None,
        )
    except ClusterError as exc:
        if live is not None:
            live.finish()
        print(f"[cluster] FAILED: {exc}", file=sys.stderr)
        return 1
    if live is not None:
        live.finish()

    csv_text = part.to_csv(rows)
    if args.csv:
        import json

        path = Path(args.csv)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(csv_text)
        print(f"[cluster] wrote {path}", file=stream)
        report_path = path.with_suffix(path.suffix + ".cluster.json")
        report_path.write_text(
            json.dumps(report.to_dict(), indent=2) + "\n", encoding="utf-8"
        )
        print(f"[cluster] wrote {report_path}", file=stream)
    else:
        print(csv_text, end="")
    if not args.quiet:
        for line in format_cluster_report(report):
            print(f"  {line}", file=stream)
    return 0


def _cmd_fig6(args: argparse.Namespace) -> int:
    if getattr(args, "profile", False):
        # Per-stage wall times already land in <csv>.timing.json; the
        # cProfile report goes next to it (or stdout without a CSV).
        code, text = _profiled(_cmd_fig6, args)
        if args.csv:
            path = Path(args.csv).with_suffix(".profile.txt")
            path.write_text(text, encoding="utf-8")
            print(f"[fig6] wrote {path}")
        else:
            print(text, end="")
        return code

    from repro.experiments import preset, run_part

    # a, b and ab run the (a)/(b) sweep; c, d and cd the (c)/(d) one.
    parts = [p for p in ("ab", "cd") if args.part == "all" or args.part in p]
    overrides = _config_overrides(args)
    for name in parts:
        csv_path = Path(args.csv) if args.csv else None
        checkpoint = args.checkpoint
        if len(parts) > 1:
            # One CSV and one checkpoint file per sweep.
            csv_path = csv_path and csv_path.with_suffix(f".{name}.csv")
            checkpoint = checkpoint and f"{checkpoint}.{name}"
        run_part(
            name,
            preset(name, args.preset).scaled(**overrides),
            out_csv=csv_path,
            checkpoint=checkpoint,
            verbose=not args.quiet,
            jobs=args.jobs,
            show_timing=args.progress,
        )
    return 0


def _load_system(args: argparse.Namespace) -> tuple:
    """``(system, sink)`` of ``--input``, or of a ``--seed``/``--tasks``
    scenario; ``--task``, where the command has it, overrides the sink."""
    from repro.gen import generate_random_scenario
    from repro.model.system import System

    if args.input:
        from repro.io import load_graph

        system = System.build(load_graph(args.input))
        sink = system.graph.sinks()[0]
    else:
        scenario = generate_random_scenario(args.tasks, random.Random(args.seed))
        system, sink = scenario.system, scenario.sink
    return system, getattr(args, "task", None) or sink


def _cmd_analyze(args: argparse.Namespace) -> int:
    if getattr(args, "profile", False):
        code, text = _profiled(_cmd_analyze, args)
        print(text, end="")
        return code

    from repro.buffers import design_buffers_multi
    from repro.chains import BackwardBoundsCache
    from repro.core import worst_case_disparity
    from repro.model.chain import enumerate_source_chains

    system, sink = _load_system(args)
    if args.output:
        from repro.io import save_graph

        save_graph(system.graph, args.output)
        print(f"saved workload to {args.output}")
    print(system.describe())
    print()

    if _regime_note(system, sink, args):
        return 0

    cache = BackwardBoundsCache(system)
    chains = enumerate_source_chains(system.graph, sink)
    print(f"chains into {sink!r}: {len(chains)}")
    for chain in chains:
        bounds = cache.bounds(chain)
        print(
            f"  {' -> '.join(chain.tasks)}  "
            f"WCBT={to_ms(bounds.wcbt):.3f}ms BCBT={to_ms(bounds.bcbt):.3f}ms"
        )
    print()

    for method, label in (("independent", "P-diff"), ("forkjoin", "S-diff")):
        result = worst_case_disparity(
            system, sink, method=method, cache=cache
        )
        print(f"{label}: {to_ms(result.bound):.3f}ms over {result.n_pairs} pairs")
        if result.worst_pair is not None:
            worst = result.worst_pair
            print(
                f"  worst pair: {' -> '.join(worst.lam.tasks)} vs "
                f"{' -> '.join(worst.nu.tasks)}"
            )
    design = design_buffers_multi(system, sink)
    if design.plan:
        print(
            f"buffer design: {design.plan} "
            f"({to_ms(design.bound_before):.3f}ms -> "
            f"{to_ms(design.bound_after):.3f}ms)"
        )
    else:
        print("buffer design: no improvement found")
    if args.replications:
        print()
        _print_observed(system, sink, args)
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.report import analyze_system, render_report
    from repro.units import ms as to_ns_ms

    system, _ = _load_system(args)
    if _regime_note(system, system.graph.sinks()[0], args):
        return 0
    requirements = {}
    if args.requirement:
        for spec in args.requirement:
            task, _, value = spec.partition("=")
            if not value:
                raise SystemExit(
                    f"--requirement expects TASK=MILLISECONDS, got {spec!r}"
                )
            requirements[task] = to_ns_ms(float(value))
    print(render_report(analyze_system(system, requirements=requirements)))
    return 0


def _cmd_diagnose(args: argparse.Namespace) -> int:
    if getattr(args, "profile", False):
        code, text = _profiled(_cmd_diagnose, args)
        print(text, end="")
        return code

    from repro.explore import explain_disparity, render_explanation

    system, task = _load_system(args)
    if _regime_note(system, task, args):
        return 0
    print(render_explanation(explain_disparity(system, task)))
    if args.replications:
        print()
        _print_observed(system, task, args)
    if args.optimize:
        from repro.explore import optimize_priorities

        result = optimize_priorities(system, task)
        print()
        if result.improved:
            print(
                f"priority optimization: {to_ms(result.bound_before):.3f}ms -> "
                f"{to_ms(result.bound_after):.3f}ms via swaps "
                f"{list(result.swaps_applied)}"
            )
        else:
            print("priority optimization: no improving swap found")
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    import json
    import os

    from repro.bench import (
        DEFAULT_TOLERANCE,
        KERNELS,
        compare_to_baseline,
        format_benchmarks,
        load_baseline,
        run_benchmarks,
    )

    kernels = KERNELS if args.kernel == "all" else (args.kernel,)
    results = run_benchmarks(quick=args.quick, kernels=kernels)
    print(format_benchmarks(results))

    if args.write:
        path = Path(args.write)
        path.write_text(json.dumps(results, indent=2) + "\n", encoding="utf-8")
        print(f"wrote {path}")

    if args.check:
        baseline = load_baseline(Path(args.check))
        if baseline is None:
            print(f"no benchmark baseline at {args.check}; nothing to check")
            return 0
        regressions = compare_to_baseline(results, baseline)
        if not regressions:
            print(
                f"benchmark gate: OK "
                f"(within {DEFAULT_TOLERANCE:.0%} of {args.check})"
            )
            return 0
        strict = os.environ.get("BENCH_STRICT", "") not in ("", "0")
        prefix = "::error::" if strict else "::warning::"
        for message in regressions:
            print(f"{prefix}benchmark regression: {message}")
        if strict:
            return 1
        print(
            "benchmark gate: soft-fail (shared-runner timing is noisy; "
            "set BENCH_STRICT=1 to fail hard)"
        )
    return 0


def _cmd_waters(args: argparse.Namespace) -> int:
    from repro.gen.waters import (
        ACET_US,
        BCET_FACTOR_RANGE,
        PERIOD_SHARE_PERCENT,
        PERIODS_MS,
        WCET_FACTOR_RANGE,
        expected_utilization_per_task,
    )

    print(f"{'T(ms)':>6} {'share%':>7} {'ACET(us)':>9} "
          f"{'f_bc range':>14} {'f_wc range':>14}")
    for period in PERIODS_MS:
        bc = BCET_FACTOR_RANGE[period]
        wc = WCET_FACTOR_RANGE[period]
        print(
            f"{period:>6} {PERIOD_SHARE_PERCENT[period]:>7.1f} "
            f"{ACET_US[period]:>9.2f} "
            f"{f'[{bc[0]:.2f},{bc[1]:.2f}]':>14} "
            f"{f'[{wc[0]:.2f},{wc[1]:.2f}]':>14}"
        )
    print(f"expected per-task utilization: {expected_utilization_per_task():.6f}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser for ``python -m repro``."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Worst-case time disparity analysis (DATE 2023 reproduction)",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    def _sweep_options(sub) -> None:
        """The preset and override options every sweep command shares."""
        sub.add_argument(
            "--preset",
            choices=("paper", "default", "smoke"),
            default="default",
            help="replication scale (paper = full fidelity, slow; must "
            "match across shards and merge)",
        )
        sub.add_argument("--duration", type=float, help="simulated seconds per run")
        sub.add_argument("--graphs", type=int, help="graphs per X point")
        sub.add_argument("--sims", type=int, help="simulations per graph")
        sub.add_argument("--seed", type=int, help="master seed")
        sub.add_argument(
            "--semantics",
            choices=("implicit", "let"),
            help="communication semantics of analysis and simulation "
            "(default: implicit, the paper's model)",
        )

    fig6 = subparsers.add_parser("fig6", help="regenerate Fig. 6 series")
    fig6.add_argument(
        "--part",
        choices=("a", "b", "ab", "c", "d", "cd", "all"),
        default="all",
        help="which panel(s) to run (a/b share one sweep, as do c/d)",
    )
    _sweep_options(fig6)
    fig6.add_argument(
        "--replications",
        type=int,
        dest="sims",
        help="alias for --sims (replications per graph)",
    )
    fig6.add_argument(
        "--csv",
        help="write the series to this CSV file (<stem>.ab.csv and "
        "<stem>.cd.csv under --part all)",
    )
    fig6.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="worker processes (0 = all CPUs); results are identical "
        "for any value",
    )
    fig6.add_argument(
        "--progress",
        action="store_true",
        help="print per-point wall time, stage breakdown and worker "
        "utilization (always saved to <csv>.timing.json)",
    )
    fig6.add_argument(
        "--checkpoint",
        metavar="PATH",
        help="append every completed graph to this JSONL log (a one-shard "
        "campaign file) and resume from it on the next run with the "
        "same configuration",
    )
    fig6.add_argument("--quiet", action="store_true", help="suppress progress")
    fig6.add_argument(
        "--profile",
        action="store_true",
        help="run under cProfile and write the top-30 cumulative report "
        "to <csv>.profile.txt (stdout without --csv)",
    )
    fig6.set_defaults(func=_cmd_fig6)

    analyze = subparsers.add_parser(
        "analyze", help="analyze one random scenario end to end"
    )
    analyze.add_argument("--tasks", type=int, default=12, help="number of tasks")
    analyze.add_argument("--seed", type=int, default=1, help="random seed")
    analyze.add_argument(
        "--input", help="load the workload from this JSON file instead"
    )
    analyze.add_argument(
        "--output", help="save the analyzed workload to this JSON file"
    )
    analyze.add_argument(
        "--task", help="analyzed task (default: the graph's sink)"
    )
    analyze.add_argument(
        "--replications",
        type=int,
        default=0,
        metavar="N",
        help="also report the observed disparity over N batched "
        "replications with random offsets",
    )
    analyze.add_argument(
        "--sim-duration",
        type=float,
        default=6.0,
        metavar="SECONDS",
        help="simulated horizon per replication (default 6)",
    )
    analyze.add_argument(
        "--profile",
        action="store_true",
        help="print a cProfile top-30 report after the analysis",
    )
    analyze.set_defaults(func=_cmd_analyze)

    report = subparsers.add_parser(
        "report", help="full analysis report of a workload"
    )
    report.add_argument("--tasks", type=int, default=12, help="number of tasks")
    report.add_argument("--seed", type=int, default=1, help="random seed")
    report.add_argument("--input", help="load the workload from this JSON file")
    report.add_argument(
        "--requirement",
        action="append",
        metavar="TASK=MS",
        help="disparity requirement to check (repeatable)",
    )
    report.set_defaults(func=_cmd_report)

    diagnose = subparsers.add_parser(
        "diagnose", help="explain a task's disparity bound and the levers"
    )
    diagnose.add_argument("--tasks", type=int, default=12, help="number of tasks")
    diagnose.add_argument("--seed", type=int, default=1, help="random seed")
    diagnose.add_argument("--input", help="load the workload from this JSON file")
    diagnose.add_argument("--task", help="analyzed task (default: the sink)")
    diagnose.add_argument(
        "--optimize",
        action="store_true",
        help="also run the priority-swap local search",
    )
    diagnose.add_argument(
        "--replications",
        type=int,
        default=0,
        metavar="N",
        help="also report the observed disparity over N batched "
        "replications with random offsets",
    )
    diagnose.add_argument(
        "--sim-duration",
        type=float,
        default=6.0,
        metavar="SECONDS",
        help="simulated horizon per replication (default 6)",
    )
    diagnose.add_argument(
        "--profile",
        action="store_true",
        help="print a cProfile top-30 report after the diagnosis",
    )
    diagnose.set_defaults(func=_cmd_diagnose)

    campaign = subparsers.add_parser(
        "campaign",
        help="sharded campaign tools: run one shard of a sweep on this "
        "machine, merge shard outputs into the serial-identical CSV",
    )
    campaign_sub = campaign.add_subparsers(dest="campaign_command", required=True)

    def _campaign_common(sub) -> None:
        sub.add_argument(
            "--part", choices=("ab", "cd"), required=True,
            help="which Fig. 6 sweep the campaign runs",
        )
        _sweep_options(sub)

    crun = campaign_sub.add_parser(
        "run", help="run one shard; output doubles as the shard's resume log"
    )
    _campaign_common(crun)
    crun.add_argument(
        "--shard",
        required=True,
        metavar="INDEX/COUNT",
        help="slice of the scenario space this machine runs (e.g. 0/4); "
        "ownership is round-robin over the campaign's task ordinals",
    )
    crun.add_argument(
        "--out",
        required=True,
        metavar="PATH",
        help="JSONL result file (re-running resumes from it)",
    )
    crun.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="worker processes for this shard (0 = all CPUs)",
    )
    crun.add_argument("--quiet", action="store_true", help="suppress progress")
    crun.set_defaults(func=_cmd_campaign_run)

    cmerge = campaign_sub.add_parser(
        "merge",
        help="combine shard outputs into rows byte-identical to a serial run",
    )
    _campaign_common(cmerge)
    cmerge.add_argument(
        "shards", nargs="+", metavar="SHARD_JSONL",
        help="shard result files, in any order",
    )
    cmerge.add_argument(
        "--csv", metavar="PATH",
        help="write the merged CSV here (default: print to stdout)",
    )
    cmerge.set_defaults(func=_cmd_campaign_merge)

    cluster = subparsers.add_parser(
        "cluster",
        help="fault-tolerant coordinator: run a whole campaign through "
        "local shard workers with liveness watchdog and dead-shard "
        "re-issue; merged CSV is byte-identical to --jobs 1",
    )
    cluster_sub = cluster.add_subparsers(dest="cluster_command", required=True)
    clrun = cluster_sub.add_parser(
        "run",
        help="partition the campaign into shards, run them on local "
        "workers, re-issue dead shards, merge incrementally",
    )
    _campaign_common(clrun)
    clrun.add_argument(
        "--shards", type=int, default=2, metavar="M",
        help="number of scenario-space shards (default 2); shard files "
        "land in --dir and double as resume logs",
    )
    clrun.add_argument(
        "--workers", type=int, default=0, metavar="N",
        help="concurrent local worker processes (default 0 = all CPUs)",
    )
    clrun.add_argument(
        "--jobs", type=int, default=1,
        help="process-pool size inside each worker (default 1)",
    )
    clrun.add_argument(
        "--dir", required=True, metavar="PATH",
        help="directory for shard JSONL files, worker specs and logs; "
        "re-running resumes from whatever records it already holds",
    )
    clrun.add_argument(
        "--csv", metavar="PATH",
        help="write the merged CSV here plus the cluster report to "
        "<csv>.cluster.json (default: CSV to stdout)",
    )
    clrun.add_argument(
        "--heartbeat-timeout", type=float, default=300.0, metavar="SECONDS",
        help="declare a shard dead when its file gains no new record "
        "for this long (default 300)",
    )
    clrun.add_argument(
        "--max-retries", type=int, default=2,
        help="re-issues allowed per shard after its first attempt "
        "(default 2)",
    )
    clrun.add_argument(
        "--backoff", type=float, default=1.0, metavar="SECONDS",
        help="base of the exponential re-issue backoff (default 1.0)",
    )
    clrun.add_argument(
        "--allow-missing",
        action="store_true",
        help="degrade instead of failing when a shard exhausts its "
        "retries: render partial rows and an explicit coverage report",
    )
    clrun.add_argument(
        "--progress",
        action="store_true",
        help="live cluster status line (shards done/running, graphs "
        "merged, deaths)",
    )
    clrun.add_argument("--quiet", action="store_true", help="suppress progress")
    clrun.add_argument(
        "--emit-commands",
        action="store_true",
        help="print the ready-to-run `repro campaign run` command for "
        "every shard (for remote machines) and exit",
    )
    clrun.add_argument(
        "--chaos-kill",
        action="append",
        metavar="SHARD:RECORDS",
        help="fault injection (testing/CI): SIGKILL the worker of this "
        "shard after it appended RECORDS records, first attempt only "
        "(repeatable)",
    )
    clrun.add_argument(
        "--chaos-tear",
        action="store_true",
        help="with --chaos-kill, leave a torn half-record at the kill",
    )
    clrun.set_defaults(func=_cmd_cluster_run)

    from repro.bench import KERNELS, SPECS

    bench = subparsers.add_parser(
        "bench",
        help="measure kernel ratios: "
        + ", ".join(spec.gate.label for spec in SPECS),
    )
    bench.add_argument(
        "--quick",
        action="store_true",
        help="shrink horizons for CI (metrics stay comparable)",
    )
    bench.add_argument(
        "--kernel",
        choices=KERNELS + ("all",),
        default="all",
        help="measure only one benchmark section (default: all; "
        "--check skips sections absent from the run)",
    )
    bench.add_argument(
        "--write",
        metavar="PATH",
        help="write the measurements as JSON (e.g. BENCH_kernel.json)",
    )
    bench.add_argument(
        "--check",
        metavar="PATH",
        help="compare against a committed baseline JSON; prints "
        "::warning:: lines on regression (exit 1 with BENCH_STRICT=1)",
    )
    bench.set_defaults(func=_cmd_bench)

    waters = subparsers.add_parser(
        "waters", help="print the embedded WATERS 2015 tables"
    )
    waters.set_defaults(func=_cmd_waters)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
