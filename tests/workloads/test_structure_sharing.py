"""Every realization of a spec shares one DAG structure, and no run changes it.

A spec derives its :class:`~repro.dag.structure.DagStructure` once and
binds each seed's tasks to it, so the structure and its cached views are
shared by every run of the spec in a process. These tests fingerprint
the structure (every attribute and every derived view) around runs of
each kind and check that nothing a run does reaches it.
"""

from __future__ import annotations

import gc
import hashlib
import pickle

import pytest

from repro.autoscalers import PureReactiveAutoscaler, WireAutoscaler
from repro.cloud import exogeni_site
from repro.cloud.faults import parse_chaos_spec
from repro.dag import DagStructure, Stage, Task
from repro.experiments.harness import default_transfer_model, run_setting
from repro.fleet import FleetSimulation, allocation_policy, fleet_autoscaler
from repro.fleet.arrivals import Submission
from repro.workloads import table1_specs

_VIEWS = (
    "children_tuples",
    "sorted_children",
    "parent_counts",
    "roots",
    "leaves",
    "topo_index",
    "stages",
    "stage_of",
)


def fingerprint(structure: DagStructure) -> str:
    """Digest of every attribute of ``structure``, views included."""
    for view in _VIEWS:
        getattr(structure, view)
    state = sorted(vars(structure).items())
    return hashlib.sha256(pickle.dumps(state)).hexdigest()


def _spec(name: str = "genome-S"):
    return table1_specs()[name]


def _assert_run_leaves_structure(spec, run) -> None:
    structure = spec.generate(0).structure
    before = fingerprint(structure)
    run(spec)
    assert spec.structure is structure
    assert fingerprint(structure) == before


def test_wire_run_leaves_structure_unchanged():
    _assert_run_leaves_structure(
        _spec(), lambda spec: run_setting(spec, WireAutoscaler, 60.0, seed=1)
    )


def test_baseline_run_leaves_structure_unchanged():
    _assert_run_leaves_structure(
        _spec("pagerank-S"),
        lambda spec: run_setting(spec, PureReactiveAutoscaler, 900.0, seed=1),
    )


def test_checked_chaos_run_leaves_structure_unchanged():
    chaos = parse_chaos_spec("revocations=2,pfail=0.3,stragglers=0.2,blackouts=0.1")
    _assert_run_leaves_structure(
        _spec(),
        lambda spec: run_setting(
            spec, WireAutoscaler, 60.0, seed=2, chaos=chaos, validate=True
        ),
    )


def test_fleet_tenants_share_one_structure_and_leave_it_unchanged():
    spec = _spec("tpch6-S")

    def run(spec):
        submissions = [
            Submission("t00", "tpch6-S", 0.0, workflow_seed=0),
            Submission("t01", "tpch6-S", 30.0, workflow_seed=1),
        ]
        sim = FleetSimulation(
            submissions,
            {"tpch6-S": spec},
            exogeni_site(),
            fleet_autoscaler("global-wire"),
            allocation_policy("fair-share"),
            900.0,
            transfer_model=default_transfer_model(),
            validate=True,
        )
        first, second = (tenant.workflow for tenant in sim.tenants)
        assert first is not second
        assert first.structure is second.structure is spec.structure
        assert sim.run().completed

    _assert_run_leaves_structure(spec, run)


@pytest.mark.parametrize("name", ["genome-S", "tpch1-S"])
def test_seeds_share_one_structure_that_holds_no_task(name):
    spec = _spec(name)
    first, second = spec.generate(0), spec.generate(1)
    assert first.structure is second.structure
    assert first.task(first.roots[0]) != second.task(second.roots[0])
    fingerprint(first.structure)  # materialize every view first

    # Walk the object graph below the structure (its attributes and the
    # containers and stages they hold); no Task may be reachable.
    seen: set[int] = set()
    stack: list[object] = [first.structure]
    while stack:
        obj = stack.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        assert not isinstance(obj, Task)
        if isinstance(obj, (DagStructure, Stage, dict, list, tuple, frozenset, set)):
            stack.extend(
                ref for ref in gc.get_referents(obj) if not isinstance(ref, type)
            )


def test_pickled_spec_does_not_grow_after_generate():
    spec = _spec()
    before = pickle.dumps(spec)
    spec.generate(0)
    assert "structure" in vars(spec)
    assert pickle.dumps(spec) == before
    assert "structure" not in vars(pickle.loads(before))
