"""Epoch-based incremental gradient runners.

One epoch visits every component once in a permutation order (see
:mod:`shufflegrad.shuffling`), stepping on the mean gradient of each
batch of consecutive permutation entries.  ``step_size`` is the size of
one inner step; divide a per-epoch stepsize by the number of steps per
epoch first (:meth:`shufflegrad.smoothness.StepsizePlan.per_step_size`
does this).  A with-replacement baseline with the same evaluation
budget is provided for comparisons.  :func:`run_block` advances any
number of such runs in lockstep as one (R, d) iterate block; the single
runners are blocks of one.

Trajectory row t (t = 1..T) holds the metrics of the iterate entering
epoch t, which is where the convergence recipes measure progress; its
evaluation counter t*n reflects the work finished when the row was
written, at the end of epoch t.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .shuffling import Scheme, permutation_for_epoch
from .smoothness import row_dots

__all__ = [
    "RunConfig",
    "TrajectoryRecord",
    "DivergenceError",
    "run_shuffling",
    "run_sgd",
    "run_block",
    "scheme_stream",
    "sgd_stream",
    "averaged_iterate",
]


@dataclass(frozen=True)
class RunConfig:
    """Knobs shared by all runners.

    step_size: inner-step size, >= 0 (0 freezes the iterate; useful for
        plumbing tests).
    epochs: number of epochs T >= 1.
    batch_size: components per inner step, >= 1.
    initial_point: optional override of the problem's initial point.
    divergence_threshold: iterate norm and objective magnitude beyond
        which the run is declared divergent.
    track_average: maintain the running mean of the iterates entering
        each epoch.
    """

    step_size: float
    epochs: int
    batch_size: int = 1
    initial_point: np.ndarray | None = None
    divergence_threshold: float = 1e50
    track_average: bool = True

    def __post_init__(self):
        if not np.isfinite(self.step_size) or self.step_size < 0:
            raise ValueError(f"step_size must be finite and >= 0, got {self.step_size}")
        if self.epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {self.epochs}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.divergence_threshold <= 0:
            raise ValueError("divergence_threshold must be positive")


@dataclass
class TrajectoryRecord:
    """Per-epoch metric rows plus the final and averaged iterates.

    Row t records the iterate entering epoch t; ``evals[t-1] = t * n``
    counts component-gradient evaluations completed through epoch t.
    ``dist_sq`` is None when the problem has no known optimum.
    ``averaged_point`` is the mean of the entering iterates, the
    quantity the convex recipes bound.
    """

    epoch: np.ndarray
    objective: np.ndarray
    grad_norm_sq: np.ndarray
    dist_sq: np.ndarray | None
    evals: np.ndarray
    wall_ms: np.ndarray
    final_point: np.ndarray
    averaged_point: np.ndarray | None

    @property
    def completed_epochs(self) -> int:
        return len(self.epoch)


class DivergenceError(RuntimeError):
    """Iterate left the finite/threshold region.

    Carries the epoch (1-based), the inner step index within it
    (0-based), the last finite objective, and the rows recorded for the
    epochs that completed.
    """

    def __init__(self, epoch: int, step_index: int, last_value: float,
                 record: TrajectoryRecord):
        super().__init__(
            f"divergence in epoch {epoch} at inner step index {step_index}; "
            f"last finite objective {last_value:.6g} after {epoch - 1} epoch(s)"
        )
        self.epoch = epoch
        self.step_index = step_index
        self.last_value = last_value
        self.record = record

    def __reduce__(self):
        return type(self), (self.epoch, self.step_index, self.last_value, self.record)


def _batch_bounds(n: int, batch_size: int) -> list[tuple[int, int]]:
    return [(s, min(s + batch_size, n)) for s in range(0, n, batch_size)]


def _record(table: np.ndarray, r: int, epochs: int, n: int, final_point, averaged_point,
            has_dist: bool) -> TrajectoryRecord:
    """Row ``r``'s first ``epochs`` columns of the (4, R, T) metric table."""
    objective, grad_norm_sq, dist_sq, wall_ms = table[:, r, :epochs].copy()
    epoch = np.arange(1, epochs + 1)
    return TrajectoryRecord(
        epoch=epoch,
        objective=objective,
        grad_norm_sq=grad_norm_sq,
        dist_sq=dist_sq if has_dist else None,
        evals=epoch * n,
        wall_ms=wall_ms,
        final_point=final_point.copy(),
        averaged_point=None if averaged_point is None else averaged_point.copy(),
    )


def _start_point(problem, config: RunConfig) -> np.ndarray:
    if config.initial_point is not None:
        return problem._check(np.asarray(config.initial_point, dtype=float)).copy()
    return problem.initial_point


def _outside(W: np.ndarray, threshold: float) -> np.ndarray:
    """Per-row mask: iterate not finite, or its norm beyond the threshold."""
    return ~np.isfinite(W).all(axis=1) | (np.sqrt(np.einsum("rd,rd->r", W, W)) > threshold)


def _epoch_pass(problem, W: np.ndarray, orders: np.ndarray, steps: np.ndarray, bounds,
                threshold: float | None = None) -> tuple[np.ndarray, int]:
    """Advance every row of ``W`` through one epoch.

    ``orders[k]`` holds each row's k-th component.  Returns the new block
    and the index of the last inner step taken: all of them, unless a
    ``threshold`` is given, in which case the pass stops after the first
    step that takes a row outside the finite/threshold region.
    """
    grads = problem.component_gradients
    step = steps[:, None]
    W = W.copy()
    for j, (lo, hi) in enumerate(bounds):
        g = grads(W, orders[lo])
        if hi - lo > 1:
            for k in range(lo + 1, hi):
                g += grads(W, orders[k])
            g /= hi - lo
        g *= step
        W -= g
        if threshold is not None and _outside(W, threshold).any():
            break
    return W, j


def run_block(problem, config: RunConfig, streams, step_sizes) -> list:
    """Run ``len(streams)`` runs in lockstep as one (R, d) iterate block.

    Row r visits components ``streams[r](t)`` in epoch t (called once per
    epoch, in order) and steps with ``step_sizes[r]``; ``config`` gives
    the rest (its step_size is unused).  A row's arithmetic does not
    depend on the other rows, so a run gives the same bits alone and in
    any block.  A row that leaves the finite/threshold region at the end
    of an epoch leaves the block; that epoch is replayed for it alone
    with a per-step check to find the inner step.  Overflow raises no
    warnings.  ``wall_ms`` is the block's cumulative clock.

    Returns, per row, its :class:`TrajectoryRecord` or the
    :class:`DivergenceError` that ended it.
    """
    size = len(streams)
    steps = np.asarray(step_sizes, dtype=float)
    start = _start_point(problem, config)
    W = np.tile(start, (size, 1))
    avg = W.copy()  # running mean of the entering iterates
    values = np.full(size, problem.full_value(start))
    live = np.arange(size)
    # objective, grad_norm_sq, dist_sq and wall_ms per (row, epoch)
    table = np.empty((4, size, config.epochs))
    outcomes: list = [None] * size
    bounds = _batch_bounds(problem.n, config.batch_size)
    threshold = config.divergence_threshold
    opt = problem.optimum_point
    t0 = time.perf_counter()
    with np.errstate(over="ignore", invalid="ignore"):
        for t in range(1, config.epochs + 1):
            if t > 1:
                avg += (W - avg) / t
            orders = np.stack([streams[r](t) for r in live], axis=1)
            W_next, _ = _epoch_pass(problem, W, orders, steps, bounds)
            finite = np.isfinite(W_next).all(axis=1)
            next_values = np.full(len(W_next), np.nan)
            next_values[finite] = problem.full_values(W_next[finite])
            bad = _outside(W_next, threshold) | ~(np.abs(next_values) <= threshold)  # or NaN
            G = problem.full_gradients(W)
            table[0, live, t - 1] = values
            table[1, live, t - 1] = row_dots(G, G)
            if opt is not None:
                table[2, live, t - 1] = np.sum((W - opt) ** 2, axis=1)
            table[3, live, t - 1] = (time.perf_counter() - t0) * 1e3
            for i in np.flatnonzero(bad):
                _, j = _epoch_pass(problem, W[i:i + 1], orders[:, i:i + 1], steps[i:i + 1],
                                   bounds, threshold)
                record = _record(table, live[i], t - 1, problem.n, W[i],
                                 avg[i] if config.track_average else None, opt is not None)
                outcomes[live[i]] = DivergenceError(t, j, float(values[i]), record)
            keep = ~bad
            W, avg, steps, values = W_next[keep], avg[keep], steps[keep], next_values[keep]
            live = live[keep]
            if not live.size:
                break
    for i, r in enumerate(live):
        outcomes[r] = _record(table, r, config.epochs, problem.n, W[i],
                              avg[i] if config.track_average else None, opt is not None)
    return outcomes


def _solo(outcomes: list) -> TrajectoryRecord:
    (outcome,) = outcomes
    if isinstance(outcome, DivergenceError):
        raise outcome
    return outcome


def scheme_stream(scheme: Scheme):
    """Index stream of a shuffling run: the scheme's permutation per epoch."""
    return lambda t: permutation_for_epoch(scheme, t)


_SGD_STREAM = (1,)


def sgd_stream(n: int, seed: int):
    """Index stream of the with-replacement baseline: n uniform draws per
    epoch from a generator seeded apart from the permutation streams."""
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=_SGD_STREAM))
    return lambda t: rng.integers(0, n, size=n)


def run_shuffling(problem, scheme: Scheme, config: RunConfig) -> TrajectoryRecord:
    """Run the shuffling method and record the trajectory.

    Raises :class:`DivergenceError` (with the completed-epoch rows
    attached) if an iterate leaves the finite region.
    """
    if scheme.n != problem.n:
        raise ValueError(f"scheme is for n = {scheme.n}, problem has n = {problem.n}")
    return _solo(run_block(problem, config, [scheme_stream(scheme)], [config.step_size]))


def run_sgd(problem, config: RunConfig, seed: int = 0) -> TrajectoryRecord:
    """With-replacement baseline matched on gradient evaluations.

    Consumes the :func:`sgd_stream` indices in the same batch pattern as
    the shuffling runner, so a row again covers n evaluations.
    """
    return _solo(run_block(problem, config, [sgd_stream(problem.n, seed)], [config.step_size]))


def averaged_iterate(record: TrajectoryRecord) -> np.ndarray:
    """Mean of the iterates entering epochs 1..T."""
    if record.averaged_point is None:
        raise ValueError("run was configured with track_average=False")
    return record.averaged_point.copy()
