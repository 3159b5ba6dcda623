"""Command-line interface.

``python -m repro <command>`` drives the library without writing code:

- ``workloads`` — list the Table I workloads and their published profiles;
- ``run`` — execute one workload under one policy, with optional SVG
  pool/Gantt exports;
- ``compare`` — one workload under all four §IV-C settings;
- ``table1`` / ``fig2`` / ``fig3`` / ``fig4`` / ``overhead`` — regenerate
  a paper artifact and print its rows (``fig5``/``fig6`` run the full
  matrix and accept ``--repetitions``);
- ``dax export`` / ``dax run`` — write a workload as a Pegasus DAX, or
  autoscale a DAX file;
- ``run --trace out.jsonl`` — emit the run's structured telemetry
  (control ticks, instance billing, task attempts) as JSONL;
- ``trace summarize`` — turn a trace into per-stage prediction-error and
  cost/waste tables;
- ``run --chaos revocations=2,stragglers=0.2`` — inject cloud-level
  faults (``repro.cloud.faults``); also accepted by ``campaign``;
- ``robustness`` — the §IV-E degradation sweep, with optional
  ``--chaos`` cloud-fault axes;
- ``zoo list/describe/import/calibrate`` — the real-workflow zoo
  (:mod:`repro.zoo`): WfCommons ingestion and trace calibration.
  Every workload-name argument accepts the full registry, including
  ``zoo/<instance>`` calibrated workloads.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Sequence

from repro.cloud import exogeni_site
from repro.engine.simulator import RunResult, Simulation
from repro.experiments import (
    CHARGING_UNITS,
    cost_experiment,
    default_transfer_model,
    overhead_experiment,
    policy_factories,
    prediction_experiment,
    sweep_r_over_u,
    sweep_u_over_r,
    table1_experiment,
)
from repro.experiments.report import (
    render_cost,
    render_linear,
    render_overhead,
    render_prediction,
    render_relative_time,
    render_table1,
)
from repro.fleet import DEFAULT_FLEET_WORKLOADS
from repro.util.formatting import format_duration, render_table
from repro.workloads import PAPER_PROFILES, table1_specs

__all__ = ["main"]


def _non_negative_int(text: str) -> int:
    """argparse type for seeds: any integer >= 0."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _positive_int(text: str) -> int:
    """argparse type for counts (--jobs, --save-every): any integer >= 1."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _workload(name: str):
    """Resolve a workload name via the central registry.

    One code path for every subcommand: Table I names, montage, and
    ``zoo/<instance>`` all resolve here, and an unknown name exits with
    the registry's available-name listing instead of a traceback.
    """
    from repro.zoo.registry import UnknownWorkloadError, resolve_workload

    try:
        return resolve_workload(name)
    except UnknownWorkloadError as exc:
        raise SystemExit(str(exc)) from None


def _check_workload_names(names) -> None:
    """Validate registry names without resolving (calibrating) them.

    Fleet catalogs resolve lazily at submission time; this pre-flight
    check turns a bad ``--workloads`` entry into the same clean
    available-name exit as :func:`_workload`.
    """
    from repro.zoo.registry import UnknownWorkloadError, available_workloads

    known = set(available_workloads())
    for name in names:
        if name not in known:
            raise SystemExit(str(UnknownWorkloadError(name)))


def _policy(name: str, site):
    factories = policy_factories(site, include_oracle=True)
    if name not in factories:
        known = ", ".join(sorted(factories))
        raise SystemExit(f"unknown policy {name!r}; choose one of: {known}")
    return factories[name]


def _chaos(text: str | None):
    """Parse a ``--chaos`` argument, or None when the flag is absent."""
    if not text:
        return None
    from repro.cloud.faults import parse_chaos_spec

    try:
        return parse_chaos_spec(text)
    except ValueError as exc:
        raise SystemExit(f"bad --chaos value: {exc}") from None


def _run(workflow, policy_factory, args) -> RunResult:
    from repro.telemetry import JsonlSink, Tracer

    trace_path = getattr(args, "trace", None)
    sink = JsonlSink(trace_path) if trace_path else None
    try:
        result = Simulation(
            workflow,
            exogeni_site(),
            policy_factory(),
            args.charging_unit,
            transfer_model=default_transfer_model(),
            seed=args.seed,
            tracer=Tracer(sink) if sink is not None else None,
            chaos=_chaos(getattr(args, "chaos", None)),
            validate=getattr(args, "validate", False),
        ).run()
    finally:
        if sink is not None:
            sink.close()
    if sink is not None:
        print(f"wrote {sink.emitted} trace records to {trace_path}")
    return result


def _summary_row(result: RunResult) -> list:
    return [
        result.autoscaler_name,
        format_duration(result.makespan),
        result.total_units,
        result.peak_instances,
        f"{result.utilization * 100:.0f}%",
        result.restarts,
    ]


_SUMMARY_HEADERS = ["policy", "makespan", "units", "peak", "utilization", "restarts"]


# ----------------------------------------------------------------------
# subcommand handlers
# ----------------------------------------------------------------------
def cmd_workloads(args: argparse.Namespace) -> int:
    rows = []
    for name, profile in sorted(PAPER_PROFILES.items()):
        rows.append(
            [
                name,
                profile.framework,
                profile.total_tasks,
                profile.n_stages,
                f"{profile.aggregate_exec_hours}h",
                profile.task_types,
            ]
        )
    print(
        render_table(
            ["workload", "framework", "tasks", "stages", "aggregate", "task types"],
            rows,
            title="Table I workloads",
        )
    )
    return 0


def cmd_run(args: argparse.Namespace) -> int:
    site = exogeni_site()
    workflow = _workload(args.workload).generate(args.seed)
    controller = None
    if args.deadline is not None:
        from repro.autoscalers import DeadlineAutoscaler

        deadline = args.deadline
        factory = lambda: DeadlineAutoscaler(deadline)  # noqa: E731
    elif args.explain and args.policy == "wire":
        from repro.autoscalers import WireAutoscaler

        controller = WireAutoscaler()
        factory = lambda: controller  # noqa: E731
    else:
        factory = _policy(args.policy, site)
    result = _run(workflow, factory, args)
    print(
        render_table(
            _SUMMARY_HEADERS,
            [_summary_row(result)],
            title=f"{args.workload} (u = {args.charging_unit:.0f}s, seed {args.seed})",
        )
    )
    if result.cloud_faults:
        print(
            "\ncloud faults injected: "
            + ", ".join(
                f"{name}={count}"
                for name, count in sorted(result.cloud_faults.items())
            )
        )
    if args.pool_chart:
        from repro.reporting import pool_ascii

        print()
        print(pool_ascii(result))
    if args.explain:
        if controller is None:
            print("\n--explain requires --policy wire (without --deadline)")
        else:
            print("\nMAPE iterations (what the controller saw and decided):")
            rows = [
                [
                    f"{d.now:.0f}s",
                    d.upcoming_tasks,
                    d.pool_before,
                    d.target_pool,
                    d.launched,
                    d.terminated,
                    f"{d.transfer_estimate:.1f}s",
                    ", ".join(
                        f"{policy.name.lower()}:{count}"
                        for policy, count in sorted(d.policy_counts.items())
                        if policy.value > 0  # skip OBSERVED
                    ),
                ]
                for d in controller.diagnostics
            ]
            print(
                render_table(
                    ["tick", "Q", "pool", "target", "+", "-", "t~data",
                     "prediction policies"],
                    rows,
                )
            )
    if args.svg:
        from repro.reporting import gantt_svg, pool_svg, save_svg

        base = Path(args.svg)
        save_svg(pool_svg(result), base.with_suffix(".pool.svg"))
        save_svg(gantt_svg(result), base.with_suffix(".gantt.svg"))
        print(f"\nSVGs written to {base.with_suffix('.pool.svg')} and "
              f"{base.with_suffix('.gantt.svg')}")
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    site = exogeni_site()
    spec = _workload(args.workload)
    rows = []
    for name, factory in policy_factories(site, include_oracle=args.oracle).items():
        result = _run(spec.generate(args.seed), factory, args)
        rows.append(_summary_row(result))
    print(
        render_table(
            _SUMMARY_HEADERS,
            rows,
            title=f"{args.workload} across policies "
            f"(u = {args.charging_unit:.0f}s)",
        )
    )
    return 0


def cmd_analyze(args: argparse.Namespace) -> int:
    from repro.dag import (
        critical_path_length,
        depth,
        ideal_parallelism_profile,
        level_widths,
    )
    from repro.workloads import summarize_workflow

    workflow = _workload(args.workload).generate(args.seed)
    summary = summarize_workflow(workflow)
    profile = ideal_parallelism_profile(workflow)
    print(
        render_table(
            ["metric", "value"],
            [
                ["tasks", summary.total_tasks],
                ["stages", summary.n_stages],
                ["DAG depth (levels)", depth(workflow)],
                ["tasks per stage", f"{summary.min_stage_tasks}-{summary.max_stage_tasks}"],
                ["stage mean exec (s)", f"{summary.min_stage_mean_exec:.2f}-"
                 f"{summary.max_stage_mean_exec:.2f}"],
                ["aggregate execution", f"{summary.aggregate_exec_hours:.3f}h"],
                ["critical path", format_duration(critical_path_length(workflow))],
                ["ideal peak parallelism", profile.peak],
                ["total input data", f"{summary.total_input_gb:.2f} GB"],
            ],
            title=f"{args.workload} (seed {args.seed})",
        )
    )
    # A compact width histogram over DAG levels.
    widths = level_widths(workflow)
    peak = max(widths)
    print("\nparallelism by DAG level (each # ~ tasks):")
    for index, width in enumerate(widths):
        bar = "#" * max(1, round(40 * width / peak))
        print(f"  level {index:2d} {width:5d} |{bar}")
    return 0


def cmd_table1(args: argparse.Namespace) -> int:
    print(render_table1(table1_experiment(seed=args.seed)))
    return 0


def cmd_fig2(args: argparse.Namespace) -> int:
    ratios = [1.5, 2, 5, 10, 40, 100, 400]
    for n in args.n_tasks:
        print(render_linear(sweep_r_over_u(n, ratios), title=f"Figure 2 — N = {n}"))
        print()
    return 0


def cmd_fig3(args: argparse.Namespace) -> int:
    ratios = [1, 2, 5, 10, 100, 1000]
    for n in args.n_tasks:
        print(render_linear(sweep_u_over_r(n, ratios), title=f"Figure 3 — N = {n}"))
        print()
    return 0


def cmd_fig4(args: argparse.Namespace) -> int:
    workflows = None
    if args.workloads:
        workflows = {
            name: _workload(name).generate(args.seed) for name in args.workloads
        }
    results = prediction_experiment(
        workflows, n_orders=args.orders, seed=args.seed
    )
    print(render_prediction(results))
    return 0


def cmd_fig5(args: argparse.Namespace) -> int:
    specs = None
    if args.workloads:
        specs = {name: _workload(name) for name in args.workloads}
    cells = cost_experiment(specs, repetitions=args.repetitions, seed=args.seed)
    print(render_cost(cells))
    print()
    print(render_relative_time(cells))
    return 0


def cmd_overhead(args: argparse.Namespace) -> int:
    print(render_overhead(overhead_experiment(seed=args.seed)))
    return 0


def cmd_campaign(args: argparse.Namespace) -> int:
    from repro.experiments import CampaignStore, run_campaign_parallel

    site = exogeni_site()
    specs = table1_specs()
    if args.workloads:
        specs = {name: _workload(name) for name in args.workloads}
    policies = policy_factories(site, include_oracle=args.oracle)
    if args.policies:
        unknown = sorted(set(args.policies) - set(policies))
        if unknown:
            known = ", ".join(sorted(policies))
            raise SystemExit(
                f"unknown policies {unknown}; choose from: {known}"
            )
        policies = {name: policies[name] for name in args.policies}
    units = args.charging_units or list(CHARGING_UNITS)
    seeds = list(range(args.repetitions))
    store = CampaignStore(args.store)
    try:
        records, executed, failed = run_campaign_parallel(
            store,
            specs,
            policies,
            units,
            seeds,
            site=site,
            jobs=args.jobs,
            save_every=args.save_every,
            trace_dir=args.trace_dir,
            chaos=_chaos(args.chaos),
            validate=args.validate,
        )
    except ValueError as exc:
        raise SystemExit(str(exc)) from None
    shown_backend = "serial" if args.jobs == 1 else "process"
    print(
        f"{len(records)} cells in {args.store} "
        f"({executed} newly executed, backend={shown_backend}, jobs={args.jobs})"
    )
    for cell in failed:
        print(
            f"FAILED {cell.key.workflow}/{cell.key.policy}"
            f"/u{cell.key.charging_unit:.0f}/s{cell.key.seed}: {cell.error}",
            file=sys.stderr,
        )
    return 1 if failed else 0


def cmd_robustness(args: argparse.Namespace) -> int:
    from repro.cloud.faults import NO_CHAOS
    from repro.experiments.robustness import robustness_experiment

    specs = None
    if args.workloads:
        specs = {name: _workload(name) for name in args.workloads}
    chaos_levels = [NO_CHAOS]
    chaos_levels += [_chaos(text) for text in (args.chaos or [])]
    try:
        rows = robustness_experiment(
            specs,
            noise_levels=tuple(args.noise),
            fault_levels=tuple(args.faults),
            chaos_levels=tuple(chaos_levels),
            charging_unit=args.charging_unit,
            seed=args.seed,
            jobs=args.jobs,
        )
    except ValueError as exc:
        raise SystemExit(str(exc)) from None
    print(
        render_table(
            ["workload", "noise", "faults", "chaos", "wire u", "static u",
             "advantage", "slowdown", "restarts", "revoked", "blackouts"],
            [
                [
                    row.workflow,
                    f"{row.noise_cv:g}",
                    f"{row.fault_probability:g}",
                    row.chaos_label,
                    row.wire_units,
                    row.static_units,
                    f"{row.cost_advantage:.2f}x",
                    f"{row.slowdown:.2f}x",
                    row.wire_restarts,
                    row.wire_revocations,
                    row.wire_blackouts,
                ]
                for row in rows
            ],
            title="robustness under degradation (wire vs full-site)",
        )
    )
    if args.out:
        import json
        from dataclasses import asdict

        Path(args.out).write_text(
            json.dumps([asdict(row) for row in rows], indent=2, sort_keys=True),
            encoding="utf-8",
        )
        print(f"\nwrote {len(rows)} rows to {args.out}")
    return 0


def cmd_fleet(args: argparse.Namespace) -> int:
    from repro.fleet import make_arrivals, resume_fleet, run_fleet

    chaos = _chaos(args.chaos)
    if not args.resume:
        _check_workload_names(args.workloads)
    if args.checkpoint_every is not None and not args.checkpoint:
        raise SystemExit("--checkpoint-every requires --checkpoint FILE")
    if args.stop_after_checkpoint and args.checkpoint_every is None:
        raise SystemExit("--stop-after-checkpoint requires --checkpoint-every")
    if args.rates:
        # Sweep mode: one fleet run per (rate, seed) cell, optionally in
        # parallel; serial and parallel sweeps return identical rows.
        from repro.experiments import fleet_experiment, render_fleet_sweep

        try:
            rows = fleet_experiment(
                args.rates,
                n=args.n,
                workloads=args.workloads,
                policy=args.policy,
                autoscaler=args.autoscaler,
                charging_unit=args.charging_unit,
                seeds=tuple(range(args.seed, args.seed + args.repetitions)),
                jobs=args.jobs,
                chaos=chaos,
            )
        except ValueError as exc:
            raise SystemExit(str(exc)) from None
        print(render_fleet_sweep(rows))
        if args.out:
            import json
            from dataclasses import asdict

            Path(args.out).write_text(
                json.dumps([asdict(row) for row in rows], indent=2, sort_keys=True),
                encoding="utf-8",
            )
            print(f"\nwrote {len(rows)} sweep rows to {args.out}")
        return 0

    try:
        if args.resume:
            # The checkpoint carries the full engine configuration;
            # workload/arrival flags are ignored on resume.
            from repro.checkpoint import CheckpointError

            try:
                result = resume_fleet(
                    args.resume,
                    checkpoint_every=args.checkpoint_every,
                    checkpoint_path=args.checkpoint,
                    stop_after_checkpoint=args.stop_after_checkpoint,
                )
            except CheckpointError as exc:
                raise SystemExit(str(exc)) from None
        else:
            arrivals = make_arrivals(
                args.arrival,
                rate=args.rate,
                n=args.n,
                burst_size=args.burst_size,
                gap=args.gap,
                times=args.times,
                workloads=args.workloads,
            )
            result = run_fleet(
                arrivals=arrivals,
                policy=args.policy,
                autoscaler=args.autoscaler,
                charging_unit=args.charging_unit,
                seed=args.seed,
                max_active=args.max_active,
                trace_path=args.trace,
                chaos=chaos,
                validate=args.validate,
                checkpoint_every=args.checkpoint_every,
                checkpoint_path=args.checkpoint,
                stop_after_checkpoint=args.stop_after_checkpoint,
            )
    except ValueError as exc:
        raise SystemExit(str(exc)) from None
    if result is None:
        from repro.checkpoint import read_checkpoint_info

        info = read_checkpoint_info(args.checkpoint)
        print(
            f"checkpoint written to {args.checkpoint} at tick {info.ticks} "
            f"(t={info.now:.0f}s, {info.events_processed} events); "
            f"resume with: repro fleet --resume {args.checkpoint}"
        )
        return 0
    print(
        render_table(
            ["tenant", "workload", "prio", "makespan", "queue wait",
             "slowdown", "cost", "restarts", "done"],
            [
                [
                    t.tenant_id,
                    t.workload,
                    t.priority,
                    format_duration(t.makespan),
                    f"{t.queue_wait_mean:.1f}s",
                    f"{t.slowdown:.2f}x",
                    f"{t.attributed_cost:.2f}",
                    t.restarts,
                    "yes" if t.completed else "NO",
                ]
                for t in result.tenants
            ],
            title=(
                f"fleet of {result.n_tenants} ({args.arrival} arrivals, "
                f"{result.allocation_policy} / {result.autoscaler_name}, "
                f"u = {result.charging_unit:.0f}s, seed {result.seed})"
            ),
        )
    )
    print(
        render_table(
            ["makespan", "units", "cost", "peak", "utilization",
             "mean slowdown", "restarts", "done"],
            [[
                format_duration(result.makespan),
                result.total_units,
                f"{result.total_cost:.2f}",
                result.peak_instances,
                f"{result.utilization * 100:.0f}%",
                f"{result.mean_slowdown:.2f}x",
                result.restarts,
                "yes" if result.completed else "NO",
            ]],
            title="fleet totals",
        )
    )
    if result.cloud_faults:
        print(
            "\ncloud faults injected: "
            + ", ".join(
                f"{name}={count}"
                for name, count in sorted(result.cloud_faults.items())
            )
        )
    if args.trace:
        print(f"\nwrote trace to {args.trace}")
    if args.summary_json:
        Path(args.summary_json).write_text(
            result.to_summary_json() + "\n", encoding="utf-8"
        )
        print(f"wrote fleet summary to {args.summary_json}")
    return 0 if result.completed else 1


def cmd_validate(args: argparse.Namespace) -> int:
    from repro.validate.fuzz import main as fuzz_main

    argv = ["--seeds", str(args.seeds), "--kind", args.kind]
    if args.quick:
        argv.append("--quick")
    if args.shallow:
        argv.append("--shallow")
    if args.repro_dir:
        argv.extend(["--repro-dir", args.repro_dir])
    if args.out:
        argv.extend(["--out", args.out])
    return fuzz_main(argv)


def cmd_trace_summarize(args: argparse.Namespace) -> int:
    from repro.telemetry import (
        read_jsonl,
        read_jsonl_dir,
        render_trace_summary,
        summarize_trace,
    )

    try:
        if Path(args.file).is_dir():
            # A multi-run trace directory: merge every JSONL in
            # timestamp order before summarizing.
            records = read_jsonl_dir(args.file)
        else:
            records = read_jsonl(args.file)
    except FileNotFoundError as exc:
        detail = str(exc)
        if "no .jsonl" in detail:
            raise SystemExit(detail) from None
        raise SystemExit(f"trace file not found: {args.file}") from None
    except OSError as exc:
        raise SystemExit(f"cannot read trace {args.file}: {exc}") from None
    except ValueError as exc:
        # read_jsonl pinpoints the bad file and line; a trace cut off
        # mid-record (interrupted run, partial copy) lands here.
        raise SystemExit(f"truncated or corrupt trace: {exc}") from None
    if not records:
        raise SystemExit(
            f"trace {args.file} contains no records; "
            "was the run started with --trace?"
        )
    print(render_trace_summary(summarize_trace(records)))
    return 0


def _zoo_workflow(source: str):
    """Load a zoo source: a vendored instance name or a JSON file path."""
    from repro.zoo import load_instance, read_wfcommons_file

    path = Path(source)
    if path.suffix == ".json" or path.is_file():
        try:
            return read_wfcommons_file(path)
        except FileNotFoundError:
            raise SystemExit(f"no such WfCommons file: {source}") from None
        except ValueError as exc:
            raise SystemExit(f"cannot import {source}: {exc}") from None
    from repro.zoo.registry import UnknownWorkloadError

    try:
        return load_instance(source)
    except UnknownWorkloadError as exc:
        raise SystemExit(str(exc)) from None


def cmd_zoo_list(args: argparse.Namespace) -> int:
    from repro.workloads import summarize_workflow
    from repro.zoo import load_instance, zoo_instance_names
    from repro.zoo.registry import ZOO_PREFIX, available_workloads

    rows = []
    for name in zoo_instance_names():
        summary = summarize_workflow(load_instance(name))
        rows.append(
            [
                ZOO_PREFIX + name,
                summary.total_tasks,
                summary.n_stages,
                f"{summary.aggregate_exec_hours:.3f}h",
                f"{summary.total_input_gb:.2f} GB",
            ]
        )
    print(
        render_table(
            ["workload", "tasks", "stages", "aggregate", "input"],
            rows,
            title="zoo workloads (calibrated WfCommons instances)",
        )
    )
    builtin = [n for n in available_workloads() if not n.startswith(ZOO_PREFIX)]
    print("\nbuiltin workloads: " + ", ".join(builtin))
    return 0


def cmd_zoo_describe(args: argparse.Namespace) -> int:
    from repro.dag import critical_path_length, depth
    from repro.workloads import summarize_workflow
    from repro.zoo import calibrate

    workflow = _zoo_workflow(args.instance)
    summary = summarize_workflow(workflow)
    result = calibrate(workflow)
    print(
        render_table(
            ["metric", "value"],
            [
                ["tasks", summary.total_tasks],
                ["stages", summary.n_stages],
                ["DAG depth (levels)", depth(workflow)],
                ["aggregate execution", f"{summary.aggregate_exec_hours:.3f}h"],
                ["critical path", format_duration(critical_path_length(workflow))],
                ["total input data", f"{summary.total_input_gb:.2f} GB"],
            ],
            title=workflow.name,
        )
    )
    print()
    print(
        render_table(
            ["stage", "executable", "tasks", "linkage", "mean exec",
             "cv", "size dep"],
            [
                [
                    fit.stage_id,
                    fit.executable,
                    fit.count,
                    fit.linkage,
                    f"{fit.source_mean:.2f}s",
                    f"{fit.source_cv:.3f}",
                    f"{fit.size_dependence:.2f}",
                ]
                for fit in result.stages
            ],
            title="per-stage trace statistics",
        )
    )
    return 0


def cmd_zoo_import(args: argparse.Namespace) -> int:
    workflow = _zoo_workflow(args.file)
    print(
        f"imported {workflow.name!r}: {len(workflow)} tasks, "
        f"{len(workflow.stages)} stages, "
        f"{sum(len(workflow.parents(t)) for t in workflow.tasks)} edges"
    )
    if args.dax:
        from repro.dag.dax import write_dax_file

        write_dax_file(workflow, args.dax)
        print(f"wrote {len(workflow)} jobs to {args.dax}")
    return 0


def cmd_zoo_calibrate(args: argparse.Namespace) -> int:
    from repro.zoo import calibrate, render_calibration, scale_spec, spec_to_json

    workflow = _zoo_workflow(args.instance)
    result = calibrate(workflow)
    if args.report:
        print(render_calibration(result))
        print(
            f"\nmax relative error: mean {result.max_mean_rel_err * 100:.2f}%, "
            f"cv {result.max_cv_rel_err * 100:.2f}%"
        )
    else:
        print(
            f"calibrated {result.source_name!r}: {len(result.stages)} stages, "
            f"max mean err {result.max_mean_rel_err * 100:.2f}%, "
            f"max cv err {result.max_cv_rel_err * 100:.2f}%"
        )
    spec = result.spec
    if args.scale is not None:
        try:
            spec = scale_spec(spec, args.scale)
        except ValueError as exc:
            raise SystemExit(str(exc)) from None
        tasks = sum(t.count for t in spec.templates)
        print(f"scaled x{args.scale:g}: {tasks} tasks")
    if args.out:
        Path(args.out).write_text(spec_to_json(spec) + "\n", encoding="utf-8")
        print(f"wrote spec to {args.out}")
    return 0


def cmd_dax_export(args: argparse.Namespace) -> int:
    from repro.dag.dax import write_dax_file

    workflow = _workload(args.workload).generate(args.seed)
    write_dax_file(workflow, args.out)
    print(f"wrote {len(workflow)} jobs to {args.out}")
    return 0


def cmd_dax_run(args: argparse.Namespace) -> int:
    from repro.dag.dax import read_dax_file

    site = exogeni_site()
    workflow = read_dax_file(args.file)
    result = _run(workflow, _policy(args.policy, site), args)
    print(
        render_table(
            _SUMMARY_HEADERS,
            [_summary_row(result)],
            title=f"{args.file} (u = {args.charging_unit:.0f}s)",
        )
    )
    return 0


# ----------------------------------------------------------------------
# parser
# ----------------------------------------------------------------------
def _add_common_run_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--charging-unit",
        type=float,
        default=60.0,
        help="billing unit in seconds (paper: 60/900/1800/3600)",
    )
    parser.add_argument(
        "--seed", type=_non_negative_int, default=0, help="run seed"
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="WIRE (CLUSTER 2021) reproduction toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("workloads", help="list Table I workloads").set_defaults(
        handler=cmd_workloads
    )

    run = sub.add_parser("run", help="run one workload under one policy")
    run.add_argument("workload")
    run.add_argument("--policy", default="wire")
    run.add_argument(
        "--deadline",
        type=float,
        help="use the deadline extension policy targeting this many seconds",
    )
    run.add_argument(
        "--pool-chart", action="store_true", help="print an ASCII pool chart"
    )
    run.add_argument(
        "--explain",
        action="store_true",
        help="print per-tick MAPE diagnostics (wire policy only)",
    )
    run.add_argument("--svg", help="basename for SVG pool/Gantt exports")
    run.add_argument(
        "--trace",
        metavar="FILE",
        help="write the run's structured telemetry to this JSONL file",
    )
    run.add_argument(
        "--chaos",
        metavar="SPEC",
        help=(
            "inject cloud faults, e.g. "
            "'revocations=2,stragglers=0.2,blackouts=0.1'"
        ),
    )
    run.add_argument(
        "--validate",
        action="store_true",
        help="run with the runtime invariant checker attached (aborts "
        "on the first violated engine invariant)",
    )
    _add_common_run_args(run)
    run.set_defaults(handler=cmd_run)

    compare = sub.add_parser("compare", help="run all policies on one workload")
    compare.add_argument("workload")
    compare.add_argument(
        "--oracle", action="store_true", help="include the clairvoyant oracle"
    )
    _add_common_run_args(compare)
    compare.set_defaults(handler=cmd_compare)

    analyze = sub.add_parser("analyze", help="structural analysis of a workload")
    analyze.add_argument("workload")
    analyze.add_argument("--seed", type=_non_negative_int, default=0)
    analyze.set_defaults(handler=cmd_analyze)

    table1 = sub.add_parser("table1", help="regenerate Table I")
    table1.add_argument("--seed", type=_non_negative_int, default=0)
    table1.set_defaults(handler=cmd_table1)

    for name, handler in (("fig2", cmd_fig2), ("fig3", cmd_fig3)):
        fig = sub.add_parser(name, help=f"regenerate Figure {name[-1]}")
        fig.add_argument(
            "--n-tasks", type=_positive_int, nargs="+", default=[10, 100],
            help="stage sizes to sweep",
        )
        fig.set_defaults(handler=handler)

    fig4 = sub.add_parser("fig4", help="regenerate Figure 4")
    fig4.add_argument("--orders", type=_positive_int, default=5)
    fig4.add_argument("--seed", type=_non_negative_int, default=0)
    fig4.add_argument(
        "--workloads", nargs="+", help="subset of workloads (default: all)"
    )
    fig4.set_defaults(handler=cmd_fig4)

    fig5 = sub.add_parser("fig5", help="regenerate Figures 5 and 6")
    fig5.add_argument("--repetitions", type=_positive_int, default=1)
    fig5.add_argument("--seed", type=_non_negative_int, default=0)
    fig5.add_argument(
        "--workloads", nargs="+", help="subset of workloads (default: all)"
    )
    fig5.set_defaults(handler=cmd_fig5)

    overhead = sub.add_parser("overhead", help="regenerate the §IV-F report")
    overhead.add_argument("--seed", type=_non_negative_int, default=0)
    overhead.set_defaults(handler=cmd_overhead)

    campaign = sub.add_parser(
        "campaign",
        help="fill a persistent run matrix, optionally across processes",
    )
    campaign.add_argument(
        "--store", default="campaign.json", help="campaign store JSON path"
    )
    campaign.add_argument(
        "--jobs", type=_positive_int, default=1, help="worker processes (1 = inline, else a local process pool)"
    )
    campaign.add_argument(
        "--save-every",
        type=_positive_int,
        default=8,
        help="persist the store after this many completed cells",
    )
    campaign.add_argument("--repetitions", type=_positive_int, default=1)
    campaign.add_argument(
        "--workloads", nargs="+", help="subset of workloads (default: all)"
    )
    campaign.add_argument(
        "--policies", nargs="+", help="subset of policies (default: the four §IV-C)"
    )
    campaign.add_argument(
        "--charging-units",
        type=float,
        nargs="+",
        help="subset of charging units (default: 60/900/1800/3600)",
    )
    campaign.add_argument(
        "--oracle", action="store_true", help="include the clairvoyant oracle"
    )
    campaign.add_argument(
        "--trace-dir",
        metavar="DIR",
        help="write one JSONL telemetry trace per executed cell here",
    )
    campaign.add_argument(
        "--chaos",
        metavar="SPEC",
        help="apply one cloud-fault spec to every cell in the matrix",
    )
    campaign.add_argument(
        "--validate",
        action="store_true",
        help="run every cell with the runtime invariant checker attached",
    )
    campaign.set_defaults(handler=cmd_campaign)

    robustness = sub.add_parser(
        "robustness",
        help="wire vs full-site across noise/fault/chaos degradation levels",
    )
    robustness.add_argument(
        "--workloads", nargs="+", help="subset of workloads (default: 2 picks)"
    )
    robustness.add_argument(
        "--noise",
        type=float,
        nargs="+",
        default=[0.0, 0.2, 0.5],
        help="runtime noise CVs to sweep",
    )
    robustness.add_argument(
        "--faults",
        type=float,
        nargs="+",
        default=[0.0, 0.1],
        help="task-fault probabilities to sweep",
    )
    robustness.add_argument(
        "--chaos",
        metavar="SPEC",
        action="append",
        help=(
            "a cloud-fault level to sweep (repeatable); the fault-free "
            "baseline is always included"
        ),
    )
    robustness.add_argument(
        "--out", metavar="FILE", help="also write the rows as JSON here"
    )
    robustness.add_argument(
        "--jobs", type=_positive_int, default=1,
        help="worker processes for the grid (1 = inline, else a process pool)",
    )
    _add_common_run_args(robustness)
    robustness.set_defaults(handler=cmd_robustness)

    fleet = sub.add_parser(
        "fleet",
        help="multi-tenant shared-site simulation with global steering",
    )
    fleet.add_argument(
        "--arrival",
        choices=["poisson", "bursty", "trace"],
        default="poisson",
        help="arrival process for workflow submissions",
    )
    fleet.add_argument(
        "--rate",
        type=float,
        default=4.0,
        help="poisson arrival rate in workflows per hour",
    )
    fleet.add_argument(
        "--n", type=_positive_int, default=4, help="number of submissions"
    )
    fleet.add_argument(
        "--workloads",
        nargs="+",
        default=list(DEFAULT_FLEET_WORKLOADS),
        help="workload names cycled round-robin over submissions",
    )
    fleet.add_argument(
        "--policy",
        choices=["fifo", "fair-share", "priority"],
        default="fair-share",
        help="allocation policy for free slots",
    )
    fleet.add_argument(
        "--autoscaler",
        choices=["global-wire", "global-static", "global-reactive"],
        default="global-wire",
        help="global pool-sizing policy",
    )
    fleet.add_argument(
        "--burst-size", type=_positive_int, default=2,
        help="submissions per burst (bursty arrivals)",
    )
    fleet.add_argument(
        "--gap", type=float, default=1800.0,
        help="seconds between bursts (bursty arrivals)",
    )
    fleet.add_argument(
        "--times", type=float, nargs="+",
        help="explicit submission times in seconds (trace arrivals)",
    )
    fleet.add_argument(
        "--max-active", type=_positive_int,
        help="admission cap: tenants running concurrently (default: unbounded)",
    )
    fleet.add_argument(
        "--trace",
        metavar="FILE",
        help="write the fleet's structured telemetry to this JSONL file",
    )
    fleet.add_argument(
        "--summary-json",
        metavar="FILE",
        help="write the deterministic fleet summary as JSON here",
    )
    fleet.add_argument(
        "--chaos",
        metavar="SPEC",
        help="inject cloud faults, e.g. 'revocations=2,stragglers=0.2'",
    )
    fleet.add_argument(
        "--validate",
        action="store_true",
        help="run with the runtime invariant checker attached (aborts "
        "on the first violated engine invariant)",
    )
    fleet.add_argument(
        "--checkpoint-every",
        type=_positive_int,
        metavar="N",
        help="serialize the engine to --checkpoint every N controller ticks",
    )
    fleet.add_argument(
        "--checkpoint",
        metavar="FILE",
        help="checkpoint file written by --checkpoint-every",
    )
    fleet.add_argument(
        "--stop-after-checkpoint",
        action="store_true",
        help="exit right after the first checkpoint is written (simulates "
        "an interrupted run; finish it later with --resume)",
    )
    fleet.add_argument(
        "--resume",
        metavar="FILE",
        help="restore a checkpointed fleet run and drive it to completion "
        "(workload/arrival flags are ignored; results are byte-identical "
        "to an uninterrupted run)",
    )
    fleet.add_argument(
        "--rates",
        type=float,
        nargs="+",
        help="sweep mode: run one cell per arrival rate instead of one fleet",
    )
    fleet.add_argument(
        "--repetitions", type=_positive_int, default=1,
        help="sweep mode: seeds per rate (seed, seed+1, ...)",
    )
    fleet.add_argument(
        "--jobs", type=_positive_int, default=1,
        help="sweep mode: worker processes (1 = inline, else a process pool)",
    )
    fleet.add_argument(
        "--out", metavar="FILE", help="sweep mode: also write rows as JSON here"
    )
    _add_common_run_args(fleet)
    fleet.set_defaults(handler=cmd_fleet)

    validate = sub.add_parser(
        "validate",
        help="differential-replay invariant fuzzing over scenario grids",
    )
    validate.add_argument(
        "--seeds",
        type=_positive_int,
        default=2,
        metavar="N",
        help="number of seeds per grid cell (default 2)",
    )
    validate.add_argument(
        "--kind",
        choices=["single", "fleet", "all"],
        default="all",
        help="which scenario grid to sweep (default all)",
    )
    validate.add_argument(
        "--quick",
        action="store_true",
        help="trim the grid (fewer workloads/arrivals/chaos specs) for "
        "fast CI gating",
    )
    validate.add_argument(
        "--shallow",
        action="store_true",
        help="check pool indexes only at controller ticks instead of "
        "after every event (faster, coarser localization)",
    )
    validate.add_argument(
        "--repro-dir",
        metavar="DIR",
        help="write a minimal JSON repro per failing scenario here",
    )
    validate.add_argument(
        "--out",
        metavar="FILE",
        help="write a JSON summary of every scenario outcome here",
    )
    validate.set_defaults(handler=cmd_validate)

    trace = sub.add_parser("trace", help="inspect JSONL telemetry traces")
    trace_sub = trace.add_subparsers(dest="trace_command", required=True)
    summarize = trace_sub.add_parser(
        "summarize",
        help="per-stage prediction error and cost/waste report from a trace",
    )
    summarize.add_argument(
        "file",
        help="JSONL trace written by run --trace, or a directory of "
        "*.jsonl traces (merged in timestamp order)",
    )
    summarize.set_defaults(handler=cmd_trace_summarize)

    zoo = sub.add_parser(
        "zoo",
        help="real-workflow zoo: WfCommons import, calibration, registry",
    )
    zoo_sub = zoo.add_subparsers(dest="zoo_command", required=True)
    zoo_list = zoo_sub.add_parser(
        "list", help="list the zoo instances and every registry workload"
    )
    zoo_list.set_defaults(handler=cmd_zoo_list)
    zoo_describe = zoo_sub.add_parser(
        "describe", help="structural + per-stage statistics of an instance"
    )
    zoo_describe.add_argument(
        "instance", help="vendored instance name or WfCommons JSON path"
    )
    zoo_describe.set_defaults(handler=cmd_zoo_describe)
    zoo_import = zoo_sub.add_parser(
        "import", help="import a WfCommons JSON file (validates the DAG)"
    )
    zoo_import.add_argument("file", help="WfCommons JSON path")
    zoo_import.add_argument(
        "--dax", metavar="FILE", help="also export the workflow as Pegasus DAX"
    )
    zoo_import.set_defaults(handler=cmd_zoo_import)
    zoo_calibrate = zoo_sub.add_parser(
        "calibrate", help="fit a generative spec to an instance's trace"
    )
    zoo_calibrate.add_argument(
        "instance", help="vendored instance name or WfCommons JSON path"
    )
    zoo_calibrate.add_argument(
        "--report",
        action="store_true",
        help="print the fitted-vs-source per-stage table",
    )
    zoo_calibrate.add_argument(
        "--scale",
        type=float,
        metavar="F",
        help="scale per-stage task counts by this factor before writing",
    )
    zoo_calibrate.add_argument(
        "--out", metavar="FILE", help="write the fitted spec as JSON here"
    )
    zoo_calibrate.set_defaults(handler=cmd_zoo_calibrate)

    dax = sub.add_parser("dax", help="Pegasus DAX import/export")
    dax_sub = dax.add_subparsers(dest="dax_command", required=True)
    export = dax_sub.add_parser("export", help="write a workload as DAX")
    export.add_argument("workload")
    export.add_argument("--out", required=True)
    export.add_argument("--seed", type=_non_negative_int, default=0)
    export.set_defaults(handler=cmd_dax_export)
    dax_run = dax_sub.add_parser("run", help="autoscale a DAX file")
    dax_run.add_argument("file")
    dax_run.add_argument("--policy", default="wire")
    _add_common_run_args(dax_run)
    dax_run.set_defaults(handler=cmd_dax_run)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    return args.handler(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
