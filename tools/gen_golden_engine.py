#!/usr/bin/env python3
"""Regenerate or verify tests/engine/golden_engine_results.json.

The golden file pins exact run measurements from the seed engine so that
hot-path optimizations can be verified *bit-identical* (same event
ordering, same FIFO/packing tie-breaks, same float arithmetic). Rewrite
it only when a semantic engine change is intended and reviewed:

    PYTHONPATH=src python tools/gen_golden_engine.py            # rewrite
    PYTHONPATH=src python tools/gen_golden_engine.py --check    # verify
    PYTHONPATH=src python tools/gen_golden_engine.py --check --traced
    PYTHONPATH=src python tools/gen_golden_engine.py --check --no-chaos
    PYTHONPATH=src python tools/gen_golden_engine.py --check --validate
    PYTHONPATH=src python tools/gen_golden_engine.py --check --traced --validate

Besides the 66 single-run fingerprints the file pins SHA-256 digests of
bytes: ``fleet/<name>`` keys hold the :meth:`~repro.fleet.result.
FleetResult.to_summary_json` of a fleet run (every allocation policy and
fleet autoscaler, a chaos run, an admission-capped run) and
``trace/<name>`` keys hold the JSONL trace of a traced single or fleet
run (plain, chaos, validated), ``workflow/<spec>/s<seed>`` keys hold
the :func:`~repro.dag.serialize.workflow_to_json` document of every
Table I spec realized at seeds 0 and 1 (each taken from a repeat
realization of its spec, so a spec's second ``generate`` is what is
pinned), and ``oracle/<name>`` keys hold the fingerprint (plus event
count) of a clairvoyant-oracle run, with ``oracle/<name>/trace`` holding
that run's JSONL trace.

``--check`` re-runs every scenario and exits nonzero on any fingerprint
drift (the CI gate over the full matrix; the unit suite samples a fast
subset). ``--traced`` attaches a telemetry tracer writing through a
:class:`~repro.telemetry.JsonlSink` to every run, proving tracing and its
JSON encoding are pure observation — fingerprints must not move. ``--no-chaos``
passes an all-disabled :class:`~repro.cloud.faults.ChaosSpec` to every
run, proving the disabled chaos path is zero-cost — fingerprints must
not move either. ``--validate`` attaches a collect-mode runtime
invariant checker (:mod:`repro.validate`) to every run: fingerprints
must not move AND every run must report zero violations. ``--diff-out
FILE`` writes an expected-vs-actual JSON report on drift so CI can
upload it as an artifact.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import tempfile
from pathlib import Path

from repro.autoscalers import (
    OracleAutoscaler,
    PureReactiveAutoscaler,
    ReactiveConservingAutoscaler,
    WireAutoscaler,
    full_site,
)
from repro.cloud import exogeni_site
from repro.cloud.faults import parse_chaos_spec
from repro.dag.serialize import workflow_to_json
from repro.engine.faults import RandomFaults
from repro.engine.simulator import Simulation
from repro.experiments.harness import default_transfer_model
from repro.fleet import (
    BurstyArrivals,
    FleetSimulation,
    PoissonArrivals,
    allocation_policy,
    fleet_autoscaler,
    fleet_workload_catalog,
)
from repro.telemetry import JsonlSink, Tracer
from repro.workloads import table1_specs

OUT = Path(__file__).resolve().parent.parent / "tests" / "engine" / (
    "golden_engine_results.json"
)


def scenarios(tracer_factory=None, chaos=None, validate_factory=None):
    """Scenario name -> Simulation factory. Covers dispatch packing,
    terminations with occupants (restarts), faults, and launch jitter.

    ``tracer_factory`` attaches a fresh tracer to every simulation (used
    by ``--traced`` to prove telemetry never perturbs results).
    ``chaos`` passes a ChaosSpec to every simulation (used by
    ``--no-chaos`` with a disabled spec to prove the disabled path is
    zero-cost). ``validate_factory`` attaches a fresh invariant checker
    to every simulation (used by ``--validate`` to prove checking is
    pure observation)."""
    site = exogeni_site()
    specs = table1_specs()
    policies = {
        "wire": lambda: WireAutoscaler(),
        "pure-reactive": lambda: PureReactiveAutoscaler(),
        "reactive-conserving": lambda: ReactiveConservingAutoscaler(),
        "full-site": lambda: full_site(site),
    }
    cases = []
    for wf_name in ("genome-S", "tpch6-S", "pagerank-S", "tpch1-S"):
        for policy_name, factory in policies.items():
            for u in (60.0, 900.0):
                for seed in (0, 1):
                    cases.append(
                        (
                            f"{wf_name}/{policy_name}/u{u:.0f}/s{seed}",
                            wf_name,
                            factory,
                            dict(charging_unit=u, seed=seed),
                        )
                    )
    # Fault-injection and launch-jitter variants exercise the kill /
    # requeue / cancellation paths.
    cases.append(
        (
            "genome-S/wire/faults",
            "genome-S",
            policies["wire"],
            dict(
                charging_unit=60.0,
                seed=3,
                fault_model=RandomFaults(probability=0.1, max_attempt=5),
            ),
        )
    )
    cases.append(
        (
            "tpch6-S/wire/jitter",
            "tpch6-S",
            policies["wire"],
            dict(charging_unit=60.0, seed=4, launch_jitter=0.5),
        )
    )

    for name, wf_name, factory, kwargs in cases:
        seed = kwargs.get("seed", 0)
        workflow = specs[wf_name].generate(seed)
        kwargs = dict(kwargs)
        u = kwargs.pop("charging_unit")
        yield name, Simulation(
            workflow,
            site,
            factory(),
            u,
            transfer_model=default_transfer_model(),
            tracer=tracer_factory() if tracer_factory is not None else None,
            chaos=chaos,
            validate=validate_factory() if validate_factory is not None else None,
            **kwargs,
        )


def fingerprint(result) -> dict:
    """Exact (repr-level) measurements of one run."""
    return {
        "makespan": result.makespan.hex(),
        "completed": result.completed,
        "total_units": result.total_units,
        "total_cost": result.total_cost.hex(),
        "wasted_seconds": result.wasted_seconds.hex(),
        "utilization": result.utilization.hex(),
        "peak_instances": result.peak_instances,
        "instances_launched": result.instances_launched,
        "restarts": result.restarts,
        "ticks": result.ticks,
        "pool_timeline_len": len(result.pool_timeline),
        "pool_timeline_tail": [
            [t.hex(), c] for t, c in result.pool_timeline[-5:]
        ],
        "attempts": sum(1 for _ in result.monitor.all_attempts()),
    }


#: chaos spec of the pinned chaos runs (single and fleet)
PIN_CHAOS = "revocations=6,stragglers=0.3,pfail=0.3,blackouts=0.2"

#: chaos spec of the pinned chaos oracle run
ORACLE_CHAOS = "revocations=2,pfail=0.3,stragglers=0.2,blackouts=0.1"

#: key prefixes of the byte pins (every other key is a run fingerprint)
PIN_PREFIXES = ("fleet/", "trace/", "workflow/", "oracle/")


def _fleet(
    arrivals,
    policy: str,
    autoscaler: str,
    *,
    seed: int = 0,
    charging_unit: float = 900.0,
    tracer=None,
    chaos=None,
    validate=None,
    **kwargs,
) -> FleetSimulation:
    return FleetSimulation(
        arrivals.generate(seed),
        fleet_workload_catalog(),
        exogeni_site(),
        fleet_autoscaler(autoscaler),
        allocation_policy(policy),
        charging_unit,
        transfer_model=default_transfer_model(),
        seed=seed,
        tracer=tracer,
        chaos=chaos,
        validate=validate,
        **kwargs,
    )


def fleet_scenarios(tracer_factory=None, chaos=None, validate_factory=None):
    """Pinned fleet runs: name -> FleetSimulation.

    The three factories/specs mean what they mean for :func:`scenarios`;
    the chaos run keeps its own enabled spec.
    """
    poisson = PoissonArrivals(4.0, 4, ("tpch6-S", "pagerank-S"))
    bursty = BurstyArrivals(3, 2, 1800.0, ("tpch6-S", "genome-S"))
    cases = [
        ("fleet/fifo/global-wire", poisson, "fifo", "global-wire", {}),
        ("fleet/fair-share/global-wire", poisson, "fair-share", "global-wire", {}),
        ("fleet/priority/global-wire", bursty, "priority", "global-wire", {}),
        ("fleet/fair-share/global-static", poisson, "fair-share", "global-static", {}),
        ("fleet/fifo/global-reactive", bursty, "fifo", "global-reactive", {}),
        (
            "fleet/fair-share/global-wire/chaos",
            poisson,
            "fair-share",
            "global-wire",
            {"chaos": parse_chaos_spec(PIN_CHAOS), "seed": 3},
        ),
        (
            "fleet/priority/global-wire/max-active",
            bursty,
            "priority",
            "global-wire",
            {"max_active": 2, "seed": 1},
        ),
        (
            "fleet/fair-share/global-reactive/u60",
            poisson,
            "fair-share",
            "global-reactive",
            {"seed": 2, "charging_unit": 60.0},
        ),
    ]
    for name, arrivals, policy, autoscaler, kwargs in cases:
        kwargs = dict(kwargs)
        kwargs.setdefault("chaos", chaos)
        yield name, _fleet(
            arrivals,
            policy,
            autoscaler,
            tracer=tracer_factory() if tracer_factory is not None else None,
            validate=validate_factory() if validate_factory is not None else None,
            **kwargs,
        )


def trace_scenarios():
    """Pinned traced runs: name -> factory taking a Tracer."""
    specs = table1_specs()
    site = exogeni_site()
    chaos = parse_chaos_spec(PIN_CHAOS)

    def single(wf_name, policy, **kwargs):
        seed = kwargs.setdefault("seed", 0)
        return lambda tracer: Simulation(
            specs[wf_name].generate(seed),
            site,
            policy(),
            60.0,
            transfer_model=default_transfer_model(),
            tracer=tracer,
            **kwargs,
        )

    poisson = PoissonArrivals(4.0, 3, ("tpch6-S", "pagerank-S"))
    return [
        ("trace/genome-S/wire", single("genome-S", WireAutoscaler)),
        (
            "trace/genome-S/wire/chaos",
            single("genome-S", WireAutoscaler, chaos=chaos, seed=2),
        ),
        (
            "trace/pagerank-S/pure-reactive/validated",
            single(
                "pagerank-S",
                PureReactiveAutoscaler,
                validate=True,
                fault_model=RandomFaults(probability=0.1, max_attempt=5),
            ),
        ),
        (
            "trace/fleet/fair-share/global-wire",
            lambda tracer: _fleet(poisson, "fair-share", "global-wire", tracer=tracer),
        ),
        (
            "trace/fleet/fifo/global-wire/chaos/validated",
            lambda tracer: _fleet(
                poisson, "fifo", "global-wire", tracer=tracer, chaos=chaos,
                validate=True, seed=4,
            ),
        ),
    ]


def oracle_scenarios():
    """Pinned clairvoyant-oracle runs: name -> factory(tracer, chaos, validate).

    The oracle builds its run state by its own scan, apart from WIRE's
    incremental build, so its runs are pinned separately. The chaos run
    keeps its own enabled spec.
    """
    specs = table1_specs()
    site = exogeni_site()
    cases = [
        (f"oracle/{wf_name}/u{u:.0f}/s0", wf_name, u, None)
        for wf_name in ("genome-S", "tpch6-S", "pagerank-S")
        for u in (60.0, 900.0)
    ]
    cases.append(
        ("oracle/genome-S/u60/s0/chaos", "genome-S", 60.0, parse_chaos_spec(ORACLE_CHAOS))
    )
    for name, wf_name, u, own_chaos in cases:

        def make(tracer=None, chaos=None, validate=None, wf_name=wf_name, u=u,
                 own_chaos=own_chaos):
            return Simulation(
                specs[wf_name].generate(0),
                site,
                OracleAutoscaler(),
                u,
                transfer_model=default_transfer_model(),
                tracer=tracer,
                chaos=own_chaos if own_chaos is not None else chaos,
                validate=validate,
            )

        yield name, make


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def workflow_pins() -> dict:
    """``workflow/*`` pins: every Table I spec at seeds 0 and 1.

    Each spec is realized once before the pinned realizations, so the
    pinned documents come from repeat ``generate`` calls on one spec.
    """
    out = {}
    for name, spec in table1_specs().items():
        spec.generate(0)
        for seed in (0, 1):
            text = workflow_to_json(spec.generate(seed))
            out[f"workflow/{name}/s{seed}"] = {"sha256": _sha256(text.encode("utf-8"))}
    return out


def pins(tracer_factory=None, chaos=None, validate_factory=None) -> dict:
    """Every byte pin: key -> {"sha256": digest}."""
    out = workflow_pins()
    for name, sim in fleet_scenarios(tracer_factory, chaos, validate_factory):
        summary = sim.run().to_summary_json()
        sim.tracer.close()
        out[name] = {"sha256": _sha256(summary.encode("utf-8"))}
    with tempfile.TemporaryDirectory() as tmp:
        for name, make in trace_scenarios():
            path = Path(tmp) / "trace.jsonl"
            sink = JsonlSink(path)
            try:
                make(Tracer(sink)).run()
            finally:
                sink.close()
            out[name] = {"sha256": _sha256(path.read_bytes())}
        for name, make in oracle_scenarios():
            sim = make(
                tracer_factory() if tracer_factory is not None else None,
                chaos,
                validate_factory() if validate_factory is not None else None,
            )
            result = sim.run()
            sim.tracer.close()
            text = json.dumps(
                dict(fingerprint(result), events=result.events_processed),
                sort_keys=True,
            )
            out[name] = {"sha256": _sha256(text.encode("utf-8"))}
            path = Path(tmp) / "trace.jsonl"
            sink = JsonlSink(path)
            try:
                make(Tracer(sink)).run()
            finally:
                sink.close()
            out[f"{name}/trace"] = {"sha256": _sha256(path.read_bytes())}
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--check",
        action="store_true",
        help="verify every scenario against the committed golden file "
        "instead of rewriting it",
    )
    parser.add_argument(
        "--traced",
        action="store_true",
        help="attach a telemetry tracer to every run (tracing must not "
        "change a single fingerprint)",
    )
    parser.add_argument(
        "--no-chaos",
        action="store_true",
        help="pass a disabled ChaosSpec to every run (the disabled chaos "
        "path must not change a single fingerprint)",
    )
    parser.add_argument(
        "--validate",
        action="store_true",
        help="attach a collect-mode invariant checker to every run "
        "(checking must not change a single fingerprint, and every run "
        "must report zero violations)",
    )
    parser.add_argument(
        "--diff-out",
        metavar="FILE",
        help="on --check failure, write an expected-vs-actual JSON report "
        "of the drifted scenarios here (for CI artifact upload)",
    )
    args = parser.parse_args(argv)

    chaos = None
    if args.no_chaos:
        from repro.cloud.faults import NO_CHAOS

        chaos = NO_CHAOS

    validate_factory = None
    if args.validate:
        from repro.validate import InvariantChecker

        validate_factory = lambda: InvariantChecker(mode="collect")  # noqa: E731

    payload = {}
    violations = {}
    with tempfile.TemporaryDirectory() as trace_dir:
        tracer_factory = None
        if args.traced:
            # Every run writes its trace through the real JSONL sink (one
            # file, rewritten per run), so the encoder is on the path.
            trace_path = Path(trace_dir) / "trace.jsonl"
            tracer_factory = lambda: Tracer(JsonlSink(trace_path))  # noqa: E731
        for name, sim in scenarios(tracer_factory, chaos, validate_factory):
            payload[name] = fingerprint(sim.run())
            sim.tracer.close()
            if args.validate and sim.validator.violations:
                violations[name] = sim.validator.violations
            if not args.check:
                print(f"  {name}")
        payload.update(pins(tracer_factory, chaos, validate_factory))

    if violations:
        print(f"FAIL: {len(violations)} scenario(s) reported violations:")
        for name, found in violations.items():
            print(f"  {name}:")
            for v in found[:5]:
                print(f"    [{v.invariant}] t={v.time:.3f} {v.message}")
        return 1

    if args.check:
        committed = json.loads(OUT.read_text(encoding="utf-8"))
        drifted = [
            name
            for name in sorted(set(payload) | set(committed))
            if payload.get(name) != committed.get(name)
        ]
        mode = "untraced"
        if args.traced:
            mode = "traced"
        if args.no_chaos:
            mode += "+no-chaos"
        if args.validate:
            mode += "+validated"
        if drifted:
            print(f"FAIL: {len(drifted)} golden scenario(s) drifted ({mode}):")
            for name in drifted:
                print(f"  {name}")
            if args.diff_out:
                report = {
                    "mode": mode,
                    "drifted": {
                        name: {
                            "expected": committed.get(name),
                            "actual": payload.get(name),
                        }
                        for name in drifted
                    },
                }
                Path(args.diff_out).write_text(
                    json.dumps(report, indent=2, sort_keys=True) + "\n", "utf-8"
                )
                print(f"wrote drift report to {args.diff_out}")
            return 1
        n_pins = sum(name.startswith(PIN_PREFIXES) for name in payload)
        print(
            f"ok: {len(payload) - n_pins} golden scenarios and {n_pins} byte "
            f"pins bit-identical ({mode})"
        )
        return 0

    OUT.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n", "utf-8")
    print(f"wrote {len(payload)} scenarios to {OUT}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
