"""Config-driven benchmark harness.

An experiment is a problem, a list of algorithm arms, and a repetition
count.  Every (arm, repetition) pair gets its own derived seed
(sha256 of the packed (base_seed, arm_index, repetition) triple, first
8 little-endian bytes), so no two random runs ever share randomness and
the assignment is stable across versions.  A run is its (kind, seed,
order, step); a ``fixed`` row ignores its seed, so all repetitions of a
``fixed`` arm, and ``fixed`` arms with the same order and step, are one
distinct run, stepped, measured and formatted once and written once per
repetition.  All distinct runs advance in lockstep as one iterate block.
``jobs`` caps the worker count: the distinct runs are split into at most
``jobs`` contiguous blocks of at least ``_FORK_ENTRIES`` iterate entries
(distinct runs x dim) each, and a lone block runs in this process, with
no pool.  Results are read back in (arm, repetition) order through each
run's distinct-run index.  The problem and its dataset are built once
and sent to the workers, so a CSV dataset is read once.  A run's rows do
not depend on its block, so the output never depends on ``jobs``.

Two CSV files are written: a raw per-run file with one row per epoch,
and an aggregate with mean and 5%/95% percentiles per (arm, epoch,
metric); the percentiles have the bits of numpy's default ('linear')
``np.percentile``, taken by its own steps in ``_p05_p95`` because the
call itself loads numpy.ma, which nothing else in a ``run`` process
needs.  Both files are written from the (4, distinct runs, epochs)
metric table of the engine loop (:func:`shufflegrad.optimize._run_table`),
the blocks' tables joined along the run axis, so the aggregate holds the
same numbers as the raw file; diverged repetitions leave partial rows, an
arm's repetitions with no row are not counted, and aggregate rows are
only emitted for epochs that every counted repetition reached.
"""

from __future__ import annotations

import functools
import hashlib
import json
import struct
from collections import Counter
from dataclasses import dataclass
from itertools import repeat
from pathlib import Path

import numpy as np

from .optimize import RunConfig, _run_table
from .problems import _convert, _read, build_problem
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
# below this many iterate entries (runs x dim) a step's cost is per-call
# overhead, the same for any block size, so a split into blocks that
# small would fork workers and save no work
_FORK_ENTRIES = 2048


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
    method: str = "shuffling"
    scheme: str | None = None
    order: tuple[int, ...] | None = None
    step_size: float | None = None
    plan_file: str | None = None
    # the kind of each key of an arm object
    _KEY_KINDS = {"name": str, "method": str, "scheme": str, "order": (tuple, int),
                  "step_size": float, "plan_file": str}

    def __post_init__(self):
        if not self.name:
            raise ValueError(f"arm needs a non-empty name, got {self.name!r}")
        if any(c in self.name for c in ',"\r\n'):
            raise ValueError(f"arm {self.name!r}: name must not contain a comma, a double quote, "
                             "CR or LF, as the CSV files write it unquoted")
        if self.method not in ("shuffling", "sgd"):
            raise ValueError(f"arm {self.name!r}: unknown method {self.method!r}")
        if self.method == "shuffling":
            if self.scheme not in KINDS:
                raise ValueError(f"arm {self.name!r}: scheme must be one of {KINDS}")
            if self.order is not None and self.scheme != "fixed":
                raise ValueError(f"arm {self.name!r}: explicit order needs the fixed scheme")
        elif self.scheme is not None or self.order is not None:
            raise ValueError(f"arm {self.name!r}: sgd takes no scheme or order")
        if (self.step_size is None) == (self.plan_file is None):
            raise ValueError(f"arm {self.name!r}: set exactly one of step_size or plan_file")
        if self.step_size is not None and not 0 <= self.step_size < np.inf:
            raise ValueError(f"arm {self.name!r}: step_size must be finite and >= 0, "
                             f"got {self.step_size}")

    @classmethod
    def from_dict(cls, d: dict) -> "ArmSpec":
        name = d.get("name") if isinstance(d, dict) else None
        label = f"arm {name!r}: " if isinstance(name, str) else "arm entry "
        return cls(**_read(d, cls._KEY_KINDS, "arm entry", label, required=("name",)))


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
    divergence_threshold: float = RunConfig.divergence_threshold
    # the kind of each key of a config object
    _KEY_KINDS = {"problem": dict, "arms": tuple, "epochs": int, "repetitions": int,
                  "base_seed": int, "batch_size": int, "metrics": tuple,
                  "divergence_threshold": float}

    def __post_init__(self):
        if not 0 <= self.base_seed < 2**64:
            raise ValueError(f"base_seed must be an unsigned 64-bit integer, got {self.base_seed}")
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
            if not self.metrics:
                raise ValueError(f"metrics must name at least one metric of {METRIC_NAMES}, "
                                 "or be left out for the default set")
            unknown = [m for m in self.metrics if m not in METRIC_NAMES]
            if unknown:
                raise ValueError(f"unknown metrics: {unknown}")
            repeated = [m for i, m in enumerate(self.metrics) if m in self.metrics[:i]]
            if repeated:
                raise ValueError(f"metric {repeated[0]!r} is repeated in metrics")

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentConfig":
        if isinstance(d, dict) and d.get("metrics", ()) is None:  # null: the default set
            d = {k: v for k, v in d.items() if k != "metrics"}
        given = _read(d, cls._KEY_KINDS, "experiment config", "",
                      required=("problem", "arms", "epochs"))
        given["arms"] = tuple(map(ArmSpec.from_dict, given["arms"]))
        return cls(**given)

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
    if not isinstance(plan, dict):
        raise ValueError(f"plan file {arm.plan_file!r} must hold an object, got {plan!r}")
    for key in ("eta", "n"):
        if key not in plan:
            raise ValueError(f"plan file {arm.plan_file!r} lacks {key!r}")
    if _convert(int, plan["n"], f"plan file {arm.plan_file!r}: n") != n:
        raise ValueError(
            f"plan file {arm.plan_file!r} was made for n = {plan['n']}, problem has n = {n}")
    eta = _convert(float, plan["eta"], f"plan file {arm.plan_file!r}: eta")
    if not 0 <= eta < np.inf:
        raise ValueError(f"arm {arm.name!r}: plan file {arm.plan_file!r} has eta = {eta}, "
                         "which must be finite and >= 0")
    steps = -(-n // batch_size)
    return eta / steps


def _arm_order(arm: ArmSpec, n: int) -> tuple:
    """The arm's (kind, order) of its runs' order rows."""
    if arm.method == "sgd":
        return "sgd", None
    try:
        scheme = Scheme(arm.scheme, n, order=arm.order)
    except ValueError as err:
        raise ValueError(f"arm {arm.name!r}: {err}") from None
    return scheme.kind, scheme.order


def _run_runs(problem, run_config: RunConfig, rows, steps) -> tuple:
    """The metric table, epoch counts and divergences of the runs of the order
    rows and step sizes, advanced as one block: the pool's task, which
    looks up this module's _run_table."""
    table, reached, _, _, diverged = _run_table(problem, run_config, rows, steps)
    return table, reached, diverged


def _raw_rows(arm_name: str, table: np.ndarray, reached, metrics, n: int,
              wall_text="%.17g".__mod__, columns=None, shared=None):
    """One arm's raw.csv rows, one string per repetition.  Repetition rep
    has the first ``reached[rep]`` epochs of column ``columns[rep]`` (default
    rep) of ``table``, a (4, runs, epochs) metric table.  A column's epoch
    lines come from one %-template over its columns, read one run at a
    time, and a repetition's text is its ``arm,rep,`` prefix joined onto
    them.  A column that is a key of ``shared`` (the columns that several
    repetitions read, mapped to their lines, None before first use) is
    formatted once.  ``"%.17g" % x`` has the bytes of ``f"{x:.17g}"``; a
    metric not in ``metrics`` leaves an empty field; ``n`` is the
    evaluations per epoch; ``wall_text`` formats a wall_ms."""
    cells = ",".join("%.17g" if m in metrics else "" for m in METRIC_NAMES)
    template = f"%d,{cells},%d,%s\n".__mod__
    picked = [i for i, m in enumerate(METRIC_NAMES) if m in metrics]
    shared = {} if shared is None else shared
    columns = range(len(reached)) if columns is None else columns
    for rep, (column, k) in enumerate(zip(columns, reached)):
        lines = shared.get(column)
        if lines is None:
            run = table[:, column, :k]
            lines = list(map(template, zip(range(1, k + 1), *[run[i].tolist() for i in picked],
                                           range(n, n * k + 1, n),
                                           map(wall_text, run[3].tolist()))))
            if column in shared:
                shared[column] = lines
        prefix = f"{arm_name},{rep},"
        yield prefix + prefix.join(lines) if k else ""


def run_experiment(config: ExperimentConfig, out_dir, jobs: int = 1) -> ExperimentResult:
    """Execute all arms and repetitions; write raw and aggregate CSVs.

    Returns the aggregate series and the list of diverged (arm name,
    seed) pairs with the (epoch, inner step) of each divergence;
    divergence does not raise here so partial results are preserved for
    inspection.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    problem = build_problem(config.problem)
    metrics = config.metrics
    if metrics is None:
        metrics = ("objective", "grad_norm_sq") + (
            ("dist_sq",) if problem.optimum_point is not None else ())
    elif "dist_sq" in metrics and problem.optimum_point is None:
        raise ValueError("metric 'dist_sq' needs a problem with a known optimum")

    arm_steps = [_arm_step_size(arm, problem.n, config.batch_size) for arm in config.arms]
    arm_orders = [_arm_order(arm, problem.n) for arm in config.arms]
    run_config = RunConfig(step_size=0.0, epochs=config.epochs, batch_size=config.batch_size,
                           divergence_threshold=config.divergence_threshold,
                           track_average=False)
    tasks = [
        (arm_index, rep, derive_seed(config.base_seed, arm_index, rep))
        for arm_index in range(len(config.arms))
        for rep in range(config.repetitions)
    ]
    # a run is its (kind, seed, order, step), and a fixed row ignores its
    # seed: each run's index into the distinct runs, in first-seen order
    distinct, index = {}, []
    for a, _, seed in tasks:
        kind, order = arm_orders[a]
        key = (kind, 0 if kind == "fixed" else seed, order, arm_steps[a])
        index.append(distinct.setdefault(key, len(distinct)))
    rows = [key[:3] for key in distinct]
    steps = [key[3] for key in distinct]
    out_dir = Path(out_dir)  # made once the problem, plan files, orders and run config pass
    out_dir.mkdir(parents=True, exist_ok=True)
    n_blocks = max(1, min(jobs, len(rows), len(rows) * problem.dim // _FORK_ENTRIES))
    blocks = np.array_split(np.arange(len(rows)), n_blocks)
    if len(blocks) == 1:
        table, reached, diverged = _run_runs(problem, run_config, rows, steps)
    else:
        # the workers get the built problem, so its dataset is read once; the
        # pool module is loaded only here, as most runs never fork
        from concurrent.futures import ProcessPoolExecutor

        spans = [(block[0], block[-1] + 1) for block in blocks]  # contiguous blocks
        with ProcessPoolExecutor(max_workers=len(blocks)) as pool:
            tables, counts, maps = zip(*pool.map(
                _run_runs, repeat(problem), repeat(run_config),
                [rows[i:j] for i, j in spans], [steps[i:j] for i, j in spans]))
        table = np.concatenate(tables, axis=1)
        reached = np.concatenate(counts)
        diverged = {i + r: at for (i, _), part in zip(spans, maps) for r, at in part.items()}
    reached = reached[index]  # per run, in (arm, repetition) order

    diverged_pairs, diverged_at = [], []
    for (arm_index, _, seed), d in zip(tasks, index):
        if d in diverged:
            diverged_pairs.append((config.arms[arm_index].name, seed))
            diverged_at.append(diverged[d][:2])

    raw_path = out_dir / "raw.csv"
    wall_text = functools.cache("%.17g".__mod__)  # a wall_ms is never -0.0
    # the epoch lines of each distinct run that several runs share
    shared = {d: None for d, uses in Counter(index).items() if uses > 1}
    reps = config.repetitions
    with open(raw_path, "w", newline="") as fh:
        fh.write(RAW_HEADER + "\n")
        for a, arm in enumerate(config.arms):
            span = slice(a * reps, (a + 1) * reps)
            fh.writelines(_raw_rows(arm.name, table, reached[span].tolist(), metrics, problem.n,
                                    wall_text, index[span], shared))

    aggregate = _aggregate(config, table, np.array(index), reached, metrics)
    aggregate_path = out_dir / "aggregate.csv"
    aggregate.to_csv(aggregate_path)
    return ExperimentResult(aggregate, raw_path, aggregate_path, tuple(diverged_pairs),
                            tuple(diverged_at))


def _aggregate(config: ExperimentConfig, table: np.ndarray, index: np.ndarray,
               reached: np.ndarray, metrics) -> AggregateSeries:
    """Mean, 5%/95% percentiles and count per (arm, epoch, metric).

    ``table`` is the (4, distinct runs, epochs) metric table; ``index``
    holds each run's column of it and ``reached`` each run's completed
    epoch count, runs in (arm, repetition) order.  An arm
    counts the repetitions with at least one row and covers the epochs
    all of them reached; rows follow arm order, then epoch, then
    ``metrics`` order.
    """
    rows, reps = [], config.repetitions
    for a, arm in enumerate(config.arms):
        present = a * reps + np.flatnonzero(reached[a * reps:(a + 1) * reps])
        if not present.size:
            continue
        epochs = int(reached[present].min())
        cells = []
        for metric in metrics:
            # (epochs, reps), C-contiguous: reducing the contiguous axis gives
            # the bits of one np.mean / np.percentile call per epoch
            M = np.ascontiguousarray(
                table[METRIC_NAMES.index(metric)][index[present], :epochs].T)
            cells.append(list(zip(M.mean(axis=1).tolist(), *_p05_p95(M).T.tolist())))
        for e in range(epochs):
            rows.extend(AggregateRow(arm.name, e + 1, metric, *cell[e], len(present))
                        for metric, cell in zip(metrics, cells))
    return AggregateSeries(tuple(rows))


def _p05_p95(M: np.ndarray) -> np.ndarray:
    """The bits of ``np.percentile(M, (5, 95), axis=1).T``, numpy's linear
    method step by step: numpy's own call reaches ``np.unique``, which loads
    numpy.ma.  The partition, not a sort, keeps numpy's choice between +0.0
    and -0.0 on ties."""
    m = M.shape[1]
    v = (m - 1) * (np.array([5.0, 95.0]) / 100)
    lo = np.floor(v)
    hi = lo + 1
    lo[v >= m - 1] = hi[v >= m - 1] = -1
    t = v - lo
    lo, hi = lo.astype(np.intp), hi.astype(np.intp)
    P = M.copy()
    P.partition(sorted({0, -1, *lo.tolist(), *hi.tolist()}), axis=1)
    a, b = P[:, lo], P[:, hi]
    d = b - a
    out = a + d * t
    np.subtract(b, d * (1 - t), out=out, where=t >= 0.5)
    nan = np.isnan(P[:, -1])
    out[nan] = P[nan, -1:]  # a row holding NaN takes it, as numpy's does
    return out
