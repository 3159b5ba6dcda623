"""Tests for native JSON workflow serialization."""

from __future__ import annotations

import json

import pytest

from repro.dag.serialize import (
    load_workflow,
    save_workflow,
    workflow_from_json,
    workflow_to_json,
)
from repro.workloads import pagerank


class TestRoundTrip:
    def test_exact_field_round_trip(self, two_stage):
        again = workflow_from_json(workflow_to_json(two_stage))
        assert again.name == two_stage.name
        for tid, task in two_stage.tasks.items():
            t2 = again.task(tid)
            assert t2 == task  # frozen dataclass equality: every field
        for tid in two_stage.tasks:
            assert again.parents(tid) == two_stage.parents(tid)

    def test_stages_preserved(self):
        wf = pagerank("S").generate(0)
        again = workflow_from_json(workflow_to_json(wf))
        assert len(again.stages) == len(wf.stages)
        assert again.total_work == pytest.approx(wf.total_work)

    def test_file_round_trip(self, tmp_path, diamond):
        path = tmp_path / "wf.json"
        save_workflow(diamond, path)
        assert load_workflow(path).topological_order() == diamond.topological_order()

    def test_version_check(self):
        with pytest.raises(ValueError, match="format version"):
            workflow_from_json('{"format_version": 42}')

    def test_defaults_for_missing_sizes(self):
        text = (
            '{"format_version": 1, "name": "t", '
            '"tasks": [{"id": "a", "executable": "x", "runtime": 1.0}], '
            '"edges": []}'
        )
        wf = workflow_from_json(text)
        assert wf.task("a").input_size == 0.0


def _doc(tasks, edges=()):
    return json.dumps(
        {"format_version": 1, "name": "t", "tasks": tasks, "edges": list(edges)}
    )


def _task(**fields):
    return {"id": "a", "executable": "x", "runtime": 1.0, **fields}


class TestMalformed:
    """Malformed documents fail with a ValueError naming the element."""

    def test_task_without_id_names_its_index(self):
        text = _doc([_task(), {"executable": "x", "runtime": 1.0}])
        with pytest.raises(ValueError, match=r"task 1 needs a string 'id'"):
            workflow_from_json(text)

    def test_non_numeric_runtime_names_the_task(self):
        with pytest.raises(ValueError, match=r"task 0 \('a'\): 'runtime' must be a number"):
            workflow_from_json(_doc([_task(runtime="fast")]))

    @pytest.mark.parametrize("key", ["runtime", "input_size", "output_size"])
    def test_bool_is_rejected(self, key):
        with pytest.raises(ValueError, match=rf"task 0 \('a'\): '{key}' must be a number, got True"):
            workflow_from_json(_doc([_task(**{key: True})]))

    def test_one_element_edge_names_the_edge(self):
        text = _doc([_task(), _task(id="b")], [["a", "b"], ["a"]])
        with pytest.raises(ValueError, match=r"edge 1 must be a \[parent, child\] pair"):
            workflow_from_json(text)

    def test_non_string_edge_endpoint_names_the_edge(self):
        with pytest.raises(ValueError, match=r"edge 0 must be a \[parent, child\] pair"):
            workflow_from_json(_doc([_task()], [["a", 3]]))

    def test_missing_runtime_names_the_task(self):
        task = {"id": "a", "executable": "x"}
        with pytest.raises(ValueError, match=r"task 0 \('a'\) has no 'runtime'"):
            workflow_from_json(_doc([task]))

    def test_missing_executable_names_the_task(self):
        task = {"id": "a", "runtime": 1.0}
        with pytest.raises(ValueError, match=r"task 0 \('a'\) needs a string 'executable'"):
            workflow_from_json(_doc([task]))

    def test_task_check_failure_names_the_task(self):
        with pytest.raises(ValueError, match=r"task 0 \('a'\): runtime must be >= 0"):
            workflow_from_json(_doc([_task(runtime=-1.0)]))

    def test_non_object_task_names_its_index(self):
        with pytest.raises(ValueError, match=r"task 0 must be a JSON object"):
            workflow_from_json(_doc(["a"]))

    def test_missing_lists_and_name(self):
        with pytest.raises(ValueError, match=r"needs a 'tasks' list"):
            workflow_from_json('{"format_version": 1, "name": "t", "edges": []}')
        with pytest.raises(ValueError, match=r"needs a 'edges' list"):
            workflow_from_json(
                '{"format_version": 1, "name": "t", "tasks": []}'
            )
        with pytest.raises(ValueError, match=r"needs a string 'name'"):
            workflow_from_json('{"format_version": 1, "tasks": [], "edges": []}')

    def test_integer_fields_still_parse(self):
        wf = workflow_from_json(_doc([_task(runtime=2, input_size=3)]))
        task = wf.task("a")
        assert (task.runtime, task.input_size) == (2.0, 3.0)
        assert type(task.runtime) is float
