"""Workload generation machinery.

A workload is described as a sequence of :class:`StageTemplate` objects —
one per stage, with task counts, target mean execution times, intra-stage
skew, input-size models, and inter-stage linkage — and realized into a
concrete :class:`~repro.dag.workflow.Workflow` by
:class:`StagedWorkflowSpec.generate`. The DAG depends on the templates
only, so a spec derives it once (:attr:`StagedWorkflowSpec.structure`)
and each seed samples just sizes and runtimes.

Design notes (tying back to the paper):

- Intra-stage skew (Observation 1) comes from two sources, as in real
  stages: task input sizes vary (a size-dependent runtime component) and
  identical inputs still run differently (multiplicative lognormal noise).
- Runtime correlates with input size because input size is the feature of
  WIRE's online-gradient-descent predictor (Eq. 1); the correlation
  strength is the template's ``size_dependence``.
- Cross-run variability (Observation 2) comes from the generation seed
  and, optionally, the engine's perturbed runtime model.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import repeat
from typing import Protocol

import numpy as np

from repro.dag.structure import DagStructure
from repro.dag.task import Task
from repro.dag.workflow import Workflow
from repro.util.rng import spawn_rng
from repro.util.validation import check_non_negative, check_positive

__all__ = [
    "BlockSizes",
    "EmpiricalSizes",
    "FixedSize",
    "SizeModel",
    "StageTemplate",
    "StagedWorkflowSpec",
    "UniformSizes",
    "WorkflowSummary",
    "ZipfSizes",
    "summarize_workflow",
]

MiB = float(1 << 20)
GiB = float(1 << 30)

#: floor on generated runtimes; Table I's shortest stage means are ~1 s
_MIN_RUNTIME = 0.05


class SizeModel(Protocol):
    """Generates per-task input sizes for one stage."""

    def sample(self, count: int, rng: np.random.Generator) -> np.ndarray:
        """``count`` input sizes in bytes."""
        ...


@dataclass(frozen=True)
class FixedSize:
    """Every task reads the same number of bytes."""

    nbytes: float

    def __post_init__(self) -> None:
        check_non_negative("nbytes", self.nbytes)

    def sample(self, count: int, rng: np.random.Generator) -> np.ndarray:
        return np.full(count, self.nbytes)


@dataclass(frozen=True)
class BlockSizes:
    """HDFS-style split: full blocks plus one remainder task.

    ``total_bytes`` of input divided into ``count`` splits of
    ``block_bytes`` each, with the final split taking the (smaller)
    remainder — the classic Hadoop input layout. This produces exactly the
    structure Policies 4 and 5 distinguish: a large group of equal-size
    peers plus occasional novel sizes.
    """

    total_bytes: float
    block_bytes: float = 128 * MiB

    def __post_init__(self) -> None:
        check_positive("total_bytes", self.total_bytes)
        check_positive("block_bytes", self.block_bytes)

    def sample(self, count: int, rng: np.random.Generator) -> np.ndarray:
        if count == 1:
            return np.array([self.total_bytes])
        # Fit the configured block size if the data is large enough for
        # `count` splits; otherwise shrink blocks to cover all tasks.
        block = min(self.block_bytes, self.total_bytes / count)
        sizes = np.full(count, block)
        sizes[-1] = max(self.total_bytes - block * (count - 1), block * 0.1)
        return sizes


@dataclass(frozen=True)
class UniformSizes:
    """Independent uniform sizes in ``[low, high]`` bytes."""

    low: float
    high: float

    def __post_init__(self) -> None:
        check_non_negative("low", self.low)
        if self.high < self.low:
            raise ValueError(f"high ({self.high}) < low ({self.low})")

    def sample(self, count: int, rng: np.random.Generator) -> np.ndarray:
        return rng.uniform(self.low, self.high, size=count)


@dataclass(frozen=True)
class ZipfSizes:
    """Heavy-tailed sizes: a Zipf-distributed multiple of ``base_bytes``.

    Models the skewed ("Zipfian") load distributions the paper cites as
    widespread in cloud workloads (§III-C). ``alpha`` > 1; smaller alpha
    means a heavier tail. Sizes are capped at ``cap_multiple * base``.
    """

    base_bytes: float
    alpha: float = 2.0
    cap_multiple: float = 64.0

    def __post_init__(self) -> None:
        check_positive("base_bytes", self.base_bytes)
        if self.alpha <= 1.0:
            raise ValueError(f"alpha must be > 1, got {self.alpha}")
        check_positive("cap_multiple", self.cap_multiple)

    def sample(self, count: int, rng: np.random.Generator) -> np.ndarray:
        multiples = rng.zipf(self.alpha, size=count).astype(float)
        multiples = np.minimum(multiples, self.cap_multiple)
        return multiples * self.base_bytes


@dataclass(frozen=True)
class EmpiricalSizes:
    """Resample input sizes from an observed set of per-task sizes.

    The size model of calibrated specs (:mod:`repro.zoo.calibrate`): a
    trace's per-stage input sizes are kept verbatim. Sampling exactly
    ``len(sizes)`` tasks returns the observed sizes in their original
    order — so a calibrated stage regenerated at scale 1 reproduces the
    source stage's size moments exactly — while any other count draws a
    bootstrap resample from the same empirical distribution.
    """

    sizes: tuple[float, ...]

    def __post_init__(self) -> None:
        if not self.sizes:
            raise ValueError("EmpiricalSizes needs at least one observed size")
        for value in self.sizes:
            check_non_negative("sizes", value)

    def sample(self, count: int, rng: np.random.Generator) -> np.ndarray:
        observed = np.asarray(self.sizes, dtype=float)
        if count == observed.size:
            return observed.copy()
        return rng.choice(observed, size=count, replace=True)


@dataclass(frozen=True)
class StageTemplate:
    """Declarative description of one stage.

    Parameters
    ----------
    executable:
        Stage program name; also names the generated tasks.
    count:
        Number of tasks.
    mean_exec:
        Target mean execution time, seconds (Table I's per-stage mean).
    cv:
        Coefficient of variation of the multiplicative lognormal noise —
        the load-skew knob (Observation 1).
    size_model:
        Input-size generator for the stage's tasks.
    output_fraction:
        Output bytes = fraction x input bytes (selectivity).
    linkage:
        Dependency pattern to the previous stage: ``"all"`` (stage
        barrier, every task depends on every predecessor task),
        ``"one_to_one"`` (task i depends on predecessor task i; counts
        must divide evenly — the epigenomics per-chunk pipeline), or
        ``"block"`` (predecessor tasks partitioned contiguously among this
        stage's tasks — hierarchical merges).
    size_dependence:
        Fraction of the runtime that scales linearly with input size
        (0 = size-independent, 1 = fully proportional).
    """

    executable: str
    count: int
    mean_exec: float
    cv: float = 0.15
    size_model: SizeModel = field(default_factory=lambda: FixedSize(128 * MiB))
    output_fraction: float = 1.0
    linkage: str = "all"
    size_dependence: float = 0.7

    def __post_init__(self) -> None:
        if not self.executable:
            raise ValueError("executable must be non-empty")
        if not isinstance(self.count, int) or self.count <= 0:
            raise ValueError(f"count must be a positive int, got {self.count!r}")
        check_positive("mean_exec", self.mean_exec)
        check_non_negative("cv", self.cv)
        check_non_negative("output_fraction", self.output_fraction)
        if self.linkage not in ("all", "one_to_one", "block"):
            raise ValueError(f"unknown linkage {self.linkage!r}")
        if not 0.0 <= self.size_dependence <= 1.0:
            raise ValueError(
                f"size_dependence must be in [0, 1], got {self.size_dependence}"
            )


@dataclass(frozen=True)
class StagedWorkflowSpec:
    """A reproducible workflow generator: templates -> concrete DAG."""

    name: str
    templates: tuple[StageTemplate, ...]

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("spec name must be non-empty")
        if not self.templates:
            raise ValueError("spec needs at least one stage template")

    @property
    def total_tasks(self) -> int:
        """Total task count across stages."""
        return sum(t.count for t in self.templates)

    @cached_property
    def structure(self) -> DagStructure:
        """This spec's DAG: task ids, executables and linkage edges.

        It depends on the templates only, never on a seed, so it is
        derived once per spec instance and every :meth:`generate` binds
        its tasks to it. It is not pickled with the spec.
        """
        task_ids: list[str] = []
        executables: list[str] = []
        edges: list[tuple[str, str]] = []
        previous_ids: list[str] = []
        for index, template in enumerate(self.templates):
            prefix = f"s{index:02d}-{template.executable}"
            width = max(4, len(str(template.count - 1)))
            ids = [f"{prefix}-{i:0{width}d}" for i in range(template.count)]
            for task_id, parents in zip(ids, _stage_parents(template, previous_ids)):
                edges.extend((parent, task_id) for parent in parents)
            task_ids += ids
            executables += [template.executable] * template.count
            previous_ids = ids
        return DagStructure(task_ids, executables, edges, name=self.name)

    def __getstate__(self) -> dict:
        state = dict(self.__dict__)
        state.pop("structure", None)
        return state

    def generate(self, seed: int = 0) -> Workflow:
        """Realize a concrete workflow for this seed.

        Different seeds produce different input sizes and runtimes from
        the same templates — the paper's cross-run variability. The DAG
        itself is :attr:`structure`, shared by every seed.
        """
        structure = self.structure
        tasks: list[Task] = []
        start = 0
        for index, template in enumerate(self.templates):
            rng = spawn_rng(seed, f"{self.name}/{template.executable}/{index}")
            sizes = np.asarray(
                template.size_model.sample(template.count, rng), dtype=float
            )
            if sizes.shape != (template.count,):
                raise ValueError(
                    f"size model of stage {index} ({template.executable!r}) "
                    f"returned shape {sizes.shape} for {template.count} tasks"
                )
            runtimes = _realize_runtimes(template, sizes, rng)
            end = start + template.count
            tasks += map(
                Task,
                structure.task_ids[start:end],
                repeat(template.executable),
                runtimes.tolist(),
                sizes.tolist(),
                (sizes * template.output_fraction).tolist(),
            )
            start = end
        return Workflow.realize(f"{self.name}-seed{seed}", structure, tasks)


def _realize_runtimes(
    template: StageTemplate, sizes: np.ndarray, rng: np.random.Generator
) -> np.ndarray:
    """Mean-preserving runtimes: size-scaled base x lognormal noise."""
    mean_size = float(sizes.mean()) if sizes.size else 0.0
    if mean_size > 0 and template.size_dependence > 0:
        scale = (
            1.0
            - template.size_dependence
            + template.size_dependence * sizes / mean_size
        )
    else:
        scale = np.ones_like(sizes)
    base = template.mean_exec * scale
    if template.cv > 0:
        sigma2 = np.log1p(template.cv**2)
        noise = rng.lognormal(mean=-0.5 * sigma2, sigma=np.sqrt(sigma2), size=sizes.size)
    else:
        noise = np.ones_like(sizes)
    return np.maximum(base * noise, _MIN_RUNTIME)


def _stage_parents(
    template: StageTemplate, previous_ids: list[str]
) -> list[list[str]]:
    """Each of the stage's tasks' parents, by the declared linkage."""
    if not previous_ids or template.linkage == "all":
        return [previous_ids] * template.count
    if template.linkage == "one_to_one":
        if len(previous_ids) % template.count != 0:
            raise ValueError(
                f"one_to_one linkage needs predecessor count divisible by "
                f"{template.count}, got {len(previous_ids)}"
            )
        # With equal counts this is a per-chunk pipeline; with fewer
        # children each child takes an equal contiguous share.
        share = len(previous_ids) // template.count
        return [
            previous_ids[i * share : (i + 1) * share] for i in range(template.count)
        ]
    # "block": contiguous partition, remainder spread over the front
    share, extra = divmod(len(previous_ids), template.count)
    parent_sets = []
    cursor = 0
    for i in range(template.count):
        take = share + (1 if i < extra else 0)
        parent_sets.append(previous_ids[cursor : cursor + take])
        cursor += take
    return parent_sets


@dataclass(frozen=True)
class WorkflowSummary:
    """Table I's columns, computed from a generated workflow."""

    name: str
    n_stages: int
    total_tasks: int
    min_stage_tasks: int
    max_stage_tasks: int
    min_stage_mean_exec: float
    max_stage_mean_exec: float
    aggregate_exec_hours: float
    total_input_gb: float


def summarize_workflow(workflow: Workflow) -> WorkflowSummary:
    """Compute the Table I characterization of a workflow."""
    stage_sizes = [s.size for s in workflow.stages]
    stage_means = [
        float(np.mean([workflow.task(t).runtime for t in s.task_ids]))
        for s in workflow.stages
    ]
    total_input = sum(t.input_size for t in workflow.tasks.values())
    return WorkflowSummary(
        name=workflow.name,
        n_stages=len(workflow.stages),
        total_tasks=len(workflow),
        min_stage_tasks=min(stage_sizes),
        max_stage_tasks=max(stage_sizes),
        min_stage_mean_exec=min(stage_means),
        max_stage_mean_exec=max(stage_means),
        aggregate_exec_hours=workflow.total_work / 3600.0,
        total_input_gb=total_input / GiB,
    )
