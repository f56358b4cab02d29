"""Epoch-based incremental gradient runners.

One epoch visits every component once in a permutation order (see
:mod:`shufflegrad.shuffling`), stepping on the mean gradient of each
batch of consecutive permutation entries.  ``step_size`` is the size of
one inner step; divide a per-epoch stepsize by the number of steps per
epoch first (:meth:`shufflegrad.smoothness.StepsizePlan.per_step_size`
does this).  A with-replacement baseline with the same evaluation
budget is provided for comparisons.  The engine loop :func:`_run_table`
advances any number of such runs in lockstep as one (R, d) iterate
block and returns their metric table; the single runners are blocks of
one.

Trajectory row t (t = 1..T) holds the metrics of the iterate entering
epoch t, which is where the convergence recipes measure progress; its
evaluation counter t*n reflects the work finished when the row was
written, at the end of epoch t.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .shuffling import Scheme, _nonnegative_int, _Orders
from .smoothness import row_dots

__all__ = [
    "RunConfig",
    "TrajectoryRecord",
    "DivergenceError",
    "run_shuffling",
    "run_sgd",
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
        if _nonnegative_int(self.epochs, "epochs") < 1:
            raise ValueError(f"epochs must be >= 1, got {self.epochs}")
        if _nonnegative_int(self.batch_size, "batch_size") < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        if not self.divergence_threshold > 0:
            raise ValueError(f"divergence_threshold must be > 0, got {self.divergence_threshold}")


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
    epochs that completed.  The step index is the first at which the
    step loop, replaying the epoch, leaves the region, else the last.
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


def _record(run: np.ndarray, n: int, final_point, averaged_point,
            has_dist: bool) -> TrajectoryRecord:
    """The record of one run's (4, k) slice of the metric table, its first
    k epochs."""
    objective, grad_norm_sq, dist_sq, wall_ms = run.copy()
    epoch = np.arange(1, run.shape[1] + 1)
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


# components per gather of _epoch_pass: a chunk's (32, R, d) rows stay
# small; a chunk of 256 raised the peak memory of a run
_EPOCH_CHUNK = 32


def _epoch_pass(problem, W: np.ndarray, orders: np.ndarray, steps: np.ndarray, batch_size: int,
                threshold: float | None = None) -> tuple[np.ndarray, int]:
    """Advance every row of ``W`` through one epoch.

    ``orders[k]`` holds each row's k-th component.  A step is ``g *= step;
    W -= g``, with ``step`` the row steps broadcast to the block's shape
    once, on the mean gradient g of ``batch_size`` consecutive components
    (fewer in the last): the problem's kernel, bound to the epoch's block,
    on the components' table rows, gathered ``_EPOCH_CHUNK`` components at
    a time, with the later gradients of a batch, from a second kernel,
    added into the first.  Returns the new block and the index of the
    last step taken: all of them, unless a ``threshold`` is given, in
    which case the pass stops after the first step that takes a row
    outside the finite/threshold region.  Without one, single-component
    steps go to the problem's ``component_epoch`` when it has one.
    """
    n = len(orders)
    if threshold is None and batch_size == 1 and problem.component_epoch:
        return problem.component_epoch(W, orders, steps), n - 1
    W = W.copy()
    first = problem._kernel(W)
    later = problem._kernel(W) if batch_size > 1 else None
    step = np.repeat(steps[:, None], W.shape[1], axis=1)
    for lo in range(0, n, _EPOCH_CHUNK):
        chunk = [table[orders[lo:lo + _EPOCH_CHUNK]] for table in problem._tables]
        for k, rows in enumerate(zip(*chunk), lo):
            i = k % batch_size  # the component's place in its batch
            if i:
                g += later(*rows)
            else:
                g = first(*rows)
            if i + 1 < batch_size and k + 1 < n:
                continue  # the batch goes on
            if i:
                g /= i + 1
            g *= step
            W -= g
            if threshold is not None and _outside(W, threshold).any():
                return W, k // batch_size
    return W, (n - 1) // batch_size


def _run_table(problem, config: RunConfig, rows, step_sizes) -> tuple:
    """Run ``len(rows)`` runs in lockstep as one (R, d) iterate block.

    Row r visits components in the orders of its ``(kind, seed, order)``
    row ``rows[r]`` (kind a scheme kind or ``"sgd"``; order a fixed run's
    explicit order, None for ``0..n-1``) and steps with ``step_sizes[r]``;
    ``config`` gives the rest (its step_size is unused).  The orders come
    from :class:`shufflegrad.shuffling._Orders`, which draws each epoch's
    (R, n) order block in place.  A row's arithmetic does not depend on
    the other rows, so a run gives the same bits alone and in any block.
    A row that leaves the finite/threshold region at the end of an epoch
    leaves the block; the step loop replays that epoch for it alone, and
    its inner step is the first at which the loop leaves the region, else
    the last (the loop's bits may differ from a ``component_epoch``'s, or
    only the objective crossed the threshold).  Overflow raises no
    warnings.  ``wall_ms`` is the block's clock.  A step of -0.0 runs as
    +0.0, the sign ``component_epoch`` assumes.

    Returns the (4, R, T) metric table of objective, grad_norm_sq,
    dist_sq and wall_ms per (row, epoch) (unset past a row's completed
    epochs, and in the dist_sq row without an optimum), each row's
    completed epoch count, final point and averaged point (None without
    ``track_average``; a diverged row's are those entering its last
    epoch), and a ``{row: (epoch, step_index, last_value)}`` map of the
    divergences.
    """
    size = len(rows)
    steps = np.asarray(step_sizes, dtype=float) + 0.0
    start = _start_point(problem, config)
    W = np.tile(start, (size, 1))
    avg = W.copy() if config.track_average else None  # running mean of the entering iterates
    values = np.full(size, problem.full_value(start))
    live = np.arange(size)
    table = np.empty((4, size, config.epochs))
    reached = np.full(size, config.epochs)
    final = np.empty_like(W)
    average = None if avg is None else np.empty_like(W)
    diverged = {}
    threshold = config.divergence_threshold
    opt = problem.optimum_point
    orders = _Orders(rows, problem.n)
    t0 = time.perf_counter()
    with np.errstate(over="ignore", invalid="ignore"):
        for t in range(1, config.epochs + 1):
            if t > 1 and avg is not None:
                avg += (W - avg) / t
            orders.draw(t)
            W_next, _ = _epoch_pass(problem, W, orders.block.T, steps, config.batch_size)
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
                _, j = _epoch_pass(problem, W[i:i + 1], orders.block[i:i + 1].T, steps[i:i + 1],
                                   config.batch_size, threshold)
                r = int(live[i])
                reached[r], final[r] = t - 1, W[i]
                if avg is not None:
                    average[r] = avg[i]
                diverged[r] = (t, j, float(values[i]))
            keep = ~bad
            W, steps, values = W_next[keep], steps[keep], next_values[keep]
            avg = None if avg is None else avg[keep]
            live = live[keep]
            orders.keep(keep)
            if not live.size:
                break
    final[live] = W
    if avg is not None:
        average[live] = avg
    return table, reached, final, average, diverged


def _run_one(problem, config: RunConfig, row) -> TrajectoryRecord:
    """The record of a run of one order row, a block of one; raises the
    :class:`DivergenceError` that ends it."""
    table, reached, final, average, diverged = _run_table(problem, config, [row],
                                                          [config.step_size])
    record = _record(table[:, 0, :reached[0]], problem.n, final[0],
                     None if average is None else average[0], problem.optimum_point is not None)
    if diverged:
        raise DivergenceError(*diverged[0], record)
    return record


def run_shuffling(problem, scheme: Scheme, config: RunConfig) -> TrajectoryRecord:
    """Run the shuffling method and record the trajectory.

    Raises :class:`DivergenceError` (with the completed-epoch rows
    attached) if an iterate leaves the finite region.
    """
    if scheme.n != problem.n:
        raise ValueError(f"scheme is for n = {scheme.n}, problem has n = {problem.n}")
    return _run_one(problem, config, (scheme.kind, scheme.seed, scheme.order))


def run_sgd(problem, config: RunConfig, seed: int = 0) -> TrajectoryRecord:
    """With-replacement baseline matched on gradient evaluations.

    Draws n indices per epoch, each epoch's key of a position mapped into
    ``0..n-1`` by multiply-shift (at most n/2**32 from uniform), from a
    stream whose domain tag sets it apart from the permutation streams.
    It consumes them in the same batch pattern as the shuffling runner, so
    a row again covers n evaluations.
    """
    return _run_one(problem, config, ("sgd", _nonnegative_int(seed, "seed"), None))


def averaged_iterate(record: TrajectoryRecord) -> np.ndarray:
    """Mean of the iterates entering epochs 1..T."""
    if record.averaged_point is None:
        raise ValueError("run was configured with track_average=False")
    return record.averaged_point.copy()
