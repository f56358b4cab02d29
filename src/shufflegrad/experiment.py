"""Config-driven benchmark harness.

An experiment is a problem, a list of algorithm arms, and a repetition
count.  Every (arm, repetition) pair gets its own derived seed
(sha256 of the packed (base_seed, arm_index, repetition) triple, first
8 little-endian bytes), so no two runs ever share randomness and the
assignment is stable across versions.  All (arm, repetition) runs
advance in lockstep as one iterate block; with a process pool the flat
run list is split into one contiguous block per worker, and the results
are merged in deterministic (arm, repetition) order.  A run's rows do
not depend on the block it ran in, so the output never depends on
``jobs`` or scheduling.

Two CSV files are written: a raw per-run file with one row per epoch,
and an aggregate with mean and 5%/95% percentiles per (arm, epoch,
metric).  The aggregate is computed from the run's own rows, the same
numbers the raw file holds; diverged repetitions leave partial rows, an
arm's repetitions with no row are not counted, and aggregate rows are
only emitted for epochs that every counted repetition reached.
"""

from __future__ import annotations

import hashlib
import json
import struct
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .optimize import DivergenceError, RunConfig, run_block, scheme_stream, sgd_stream
from .problems import build_problem
from .shuffling import KINDS, Scheme

__all__ = [
    "ArmSpec",
    "ExperimentConfig",
    "AggregateRow",
    "AggregateSeries",
    "ExperimentResult",
    "derive_seed",
    "run_experiment",
    "RAW_HEADER",
    "AGGREGATE_HEADER",
]

RAW_HEADER = "arm,rep,epoch,objective,grad_norm_sq,dist_sq,evals,wall_ms"
AGGREGATE_HEADER = "arm,epoch,metric,mean,p05,p95,count"
METRIC_NAMES = ("objective", "grad_norm_sq", "dist_sq")


def derive_seed(base_seed: int, arm_index: int, rep: int) -> int:
    """Stable per-run seed: first 8 LE bytes of sha256(<QQQ> triple)."""
    digest = hashlib.sha256(struct.pack("<QQQ", base_seed, arm_index, rep)).digest()
    return struct.unpack("<Q", digest[:8])[0]


@dataclass(frozen=True)
class ArmSpec:
    """One algorithm arm.

    method is "shuffling" (requires a scheme kind) or "sgd".  Exactly
    one of step_size (per inner step) or plan_file (a planner JSON file
    whose per-epoch stepsize is divided by the steps per epoch) must be
    set.  ``order`` pins an explicit permutation for fixed schemes.
    """

    name: str
    method: str
    scheme: str | None = None
    order: tuple[int, ...] | None = None
    step_size: float | None = None
    plan_file: str | None = None

    def __post_init__(self):
        if not self.name:
            raise ValueError("arm needs a non-empty name")
        if self.method not in ("shuffling", "sgd"):
            raise ValueError(f"arm {self.name!r}: unknown method {self.method!r}")
        if self.method == "shuffling":
            if self.scheme not in KINDS:
                raise ValueError(f"arm {self.name!r}: scheme must be one of {KINDS}")
            if self.order is not None and self.scheme != "fixed":
                raise ValueError(f"arm {self.name!r}: explicit order needs the fixed scheme")
        else:
            if self.scheme is not None or self.order is not None:
                raise ValueError(f"arm {self.name!r}: sgd takes no scheme or order")
        if (self.step_size is None) == (self.plan_file is None):
            raise ValueError(f"arm {self.name!r}: set exactly one of step_size or plan_file")
        if self.step_size is not None and self.step_size < 0:
            raise ValueError(f"arm {self.name!r}: step_size must be >= 0")

    @classmethod
    def from_dict(cls, d: dict) -> "ArmSpec":
        known = {"name", "method", "scheme", "order", "step_size", "plan_file"}
        unknown = set(d) - known
        if unknown:
            raise ValueError(f"unknown arm keys: {sorted(unknown)}")
        order = d.get("order")
        return cls(
            name=d.get("name", ""),
            method=d.get("method", "shuffling"),
            scheme=d.get("scheme"),
            order=None if order is None else tuple(int(i) for i in order),
            step_size=d.get("step_size"),
            plan_file=d.get("plan_file"),
        )


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated experiment description; see :func:`run_experiment`."""

    problem: dict
    arms: tuple[ArmSpec, ...]
    epochs: int
    repetitions: int = 100
    base_seed: int = 0
    batch_size: int = 1
    metrics: tuple[str, ...] | None = None
    divergence_threshold: float = 1e50

    def __post_init__(self):
        if self.epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {self.epochs}")
        if self.repetitions < 1:
            raise ValueError(f"repetitions must be >= 1, got {self.repetitions}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        if not self.arms:
            raise ValueError("experiment needs at least one arm")
        names = [a.name for a in self.arms]
        if len(set(names)) != len(names):
            raise ValueError(f"arm names must be unique, got {names}")
        if self.metrics is not None:
            unknown = set(self.metrics) - set(METRIC_NAMES)
            if unknown:
                raise ValueError(f"unknown metrics: {sorted(unknown)}")

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentConfig":
        known = {"problem", "arms", "epochs", "repetitions", "base_seed",
                 "batch_size", "metrics", "divergence_threshold"}
        unknown = set(d) - known
        if unknown:
            raise ValueError(f"unknown experiment config keys: {sorted(unknown)}")
        for key in ("problem", "arms", "epochs"):
            if key not in d:
                raise ValueError(f"experiment config needs {key!r}")
        metrics = d.get("metrics")
        return cls(
            problem=dict(d["problem"]),
            arms=tuple(ArmSpec.from_dict(a) for a in d["arms"]),
            epochs=int(d["epochs"]),
            repetitions=int(d.get("repetitions", 100)),
            base_seed=int(d.get("base_seed", 0)),
            batch_size=int(d.get("batch_size", 1)),
            metrics=None if metrics is None else tuple(metrics),
            divergence_threshold=float(d.get("divergence_threshold", 1e50)),
        )

    @classmethod
    def from_json(cls, path) -> "ExperimentConfig":
        with open(path) as fh:
            return cls.from_dict(json.load(fh))


@dataclass(frozen=True)
class AggregateRow:
    arm: str
    epoch: int
    metric: str
    mean: float
    p05: float
    p95: float
    count: int


@dataclass(frozen=True)
class AggregateSeries:
    rows: tuple[AggregateRow, ...]

    def select(self, arm: str, metric: str) -> list[AggregateRow]:
        return [r for r in self.rows if r.arm == arm and r.metric == metric]

    def to_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            fh.write(AGGREGATE_HEADER + "\n")
            for r in self.rows:
                fh.write(f"{r.arm},{r.epoch},{r.metric},{r.mean:.17g},"
                         f"{r.p05:.17g},{r.p95:.17g},{r.count}\n")


@dataclass(frozen=True)
class ExperimentResult:
    aggregate: AggregateSeries
    raw_path: Path
    aggregate_path: Path
    diverged: tuple[tuple[str, int], ...]
    diverged_at: tuple[tuple[int, int], ...]  # (epoch, inner step) per entry


def _arm_step_size(arm: ArmSpec, n: int, batch_size: int) -> float:
    if arm.step_size is not None:
        return float(arm.step_size)
    with open(arm.plan_file) as fh:
        plan = json.load(fh)
    for key in ("eta", "n"):
        if key not in plan:
            raise ValueError(f"plan file {arm.plan_file!r} lacks {key!r}")
    if int(plan["n"]) != n:
        raise ValueError(
            f"plan file {arm.plan_file!r} was made for n = {plan['n']}, problem has n = {n}")
    steps = -(-n // batch_size)
    return float(plan["eta"]) / steps


def _stream(arm: ArmSpec, n: int, seed: int):
    if arm.method == "sgd":
        return sgd_stream(n, seed)
    if arm.scheme == "fixed":
        return scheme_stream(Scheme.fixed(n, order=arm.order))
    return scheme_stream(Scheme(arm.scheme, n, seed))


def _run_runs(problem, run_config: RunConfig, runs) -> list:
    """Outcomes of the (arm, seed, step size) runs, advanced as one block."""
    streams = [_stream(arm, problem.n, seed) for arm, seed, _ in runs]
    return run_block(problem, run_config, streams, [step for _, _, step in runs])


def _pool_task(payload):
    problem_spec, run_config, runs = payload
    return _run_runs(build_problem(problem_spec), run_config, runs)


def _fmt(x) -> str:
    return "" if x is None else f"{x:.17g}"


def run_experiment(config: ExperimentConfig, out_dir, jobs: int = 1) -> ExperimentResult:
    """Execute all arms and repetitions; write raw and aggregate CSVs.

    Returns the aggregate series and the list of diverged (arm name,
    seed) pairs with the (epoch, inner step) of each divergence;
    divergence does not raise here so partial results are preserved for
    inspection.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    problem = build_problem(config.problem)
    metrics = config.metrics
    if metrics is None:
        metrics = ("objective", "grad_norm_sq") + (
            ("dist_sq",) if problem.optimum_point is not None else ())
    elif "dist_sq" in metrics and problem.optimum_point is None:
        raise ValueError("metric 'dist_sq' needs a problem with a known optimum")

    arm_steps = [_arm_step_size(arm, problem.n, config.batch_size) for arm in config.arms]
    run_config = RunConfig(step_size=0.0, epochs=config.epochs, batch_size=config.batch_size,
                           divergence_threshold=config.divergence_threshold,
                           track_average=False)
    tasks = [
        (arm_index, rep, derive_seed(config.base_seed, arm_index, rep))
        for arm_index in range(len(config.arms))
        for rep in range(config.repetitions)
    ]
    runs = [(config.arms[a], seed, arm_steps[a]) for a, _, seed in tasks]
    blocks = np.array_split(np.arange(len(runs)), min(jobs, len(runs)))
    if len(blocks) == 1:
        outcomes = _run_runs(problem, run_config, runs)
    else:
        payloads = [(config.problem, run_config, [runs[i] for i in block]) for block in blocks]
        with ProcessPoolExecutor(max_workers=len(blocks)) as pool:
            outcomes = [o for part in pool.map(_pool_task, payloads) for o in part]

    diverged_pairs, diverged_at, records = [], [], []
    for (arm_index, _, seed), record in zip(tasks, outcomes):
        if isinstance(record, DivergenceError):
            diverged_pairs.append((config.arms[arm_index].name, seed))
            diverged_at.append((record.epoch, record.step_index))
            record = record.record
        records.append(record)

    raw_path = out_dir / "raw.csv"
    with open(raw_path, "w", newline="") as fh:
        fh.write(RAW_HEADER + "\n")
        for (arm_index, rep, _), record in zip(tasks, records):
            arm_name = config.arms[arm_index].name
            blank = [None] * record.completed_epochs
            columns = [getattr(record, m) if m in metrics else blank for m in METRIC_NAMES]
            for epoch, objective, grad_sq, d, evals, wall in zip(
                    record.epoch, *columns, record.evals, record.wall_ms):
                fh.write(f"{arm_name},{rep},{epoch},{_fmt(objective)},"
                         f"{_fmt(grad_sq)},{_fmt(d)},{evals},{_fmt(wall)}\n")

    aggregate = _aggregate(config, records, metrics)
    aggregate_path = out_dir / "aggregate.csv"
    aggregate.to_csv(aggregate_path)
    return ExperimentResult(aggregate, raw_path, aggregate_path, tuple(diverged_pairs),
                            tuple(diverged_at))


def _aggregate(config: ExperimentConfig, records, metrics) -> AggregateSeries:
    """Mean, 5%/95% percentiles and count per (arm, epoch, metric).

    ``records`` holds each run's record in (arm, repetition) order.  An
    arm counts the repetitions with at least one row and covers the
    epochs all of them reached; rows follow arm order, then epoch, then
    ``metrics`` order.
    """
    rows, reps = [], config.repetitions
    for a, arm in enumerate(config.arms):
        present = [rec for rec in records[a * reps:(a + 1) * reps] if rec.completed_epochs]
        if not present:
            continue
        reached = min(rec.completed_epochs for rec in present)
        cells = []
        for metric in metrics:
            # (epochs, reps): reducing the contiguous axis gives the bits of
            # one np.mean / np.percentile call per epoch
            M = np.stack([getattr(rec, metric)[:reached] for rec in present], axis=1)
            p05, p95 = np.percentile(M, (5, 95), axis=1).tolist()
            cells.append(list(zip(M.mean(axis=1).tolist(), p05, p95)))
        for e in range(reached):
            rows.extend(AggregateRow(arm.name, e + 1, metric, *cell[e], len(present))
                        for metric, cell in zip(metrics, cells))
    return AggregateSeries(tuple(rows))
