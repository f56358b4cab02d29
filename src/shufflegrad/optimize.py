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

import functools
import time
from dataclasses import dataclass

import numpy as np

from .shuffling import (_PERM_STREAM, Scheme, _generator, _nonnegative_int, _seed_states,
                        permutation_for_epoch)
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


def run_block(problem, config: RunConfig, streams, step_sizes) -> list:
    """Run ``len(streams)`` runs in lockstep as one (R, d) iterate block.

    Row r visits components ``streams[r](t)`` in epoch t (a plain callable
    is called once per epoch, in order) and steps with ``step_sizes[r]``;
    ``config`` gives the rest (its step_size is unused).  A row's
    arithmetic does not depend on the other rows, so a run gives the same
    bits alone and in any block.  A row that leaves the finite/threshold
    region at the end of an epoch leaves the block; the step loop replays
    that epoch for it alone, and its inner step is the first at which the
    loop leaves the region, else the last (the loop's bits may differ from
    a ``component_epoch``'s, or only the objective crossed the threshold).
    Overflow raises no warnings.  ``wall_ms`` is the block's clock.  A
    step of -0.0 runs as +0.0, the sign ``component_epoch`` assumes.
    The block seeds the streams of :func:`scheme_stream` and
    :func:`sgd_stream` in bulk, with the bits of one seeding per stream:
    the shuffle_once orders and sgd generators at its start (one pass per
    spawn key), the random_reshuffle orders of the live rows once every
    ``_RESHUFFLE_CHUNK`` = 64 epochs (one pass).  The orders are one (R, n)
    block: fixed and shuffle_once rows written once, the others by their
    ``fill`` each epoch.

    Returns, per row, its :class:`TrajectoryRecord` or the
    :class:`DivergenceError` that ended it.
    """
    size = len(streams)
    steps = np.asarray(step_sizes, dtype=float) + 0.0
    start = _start_point(problem, config)
    W = np.tile(start, (size, 1))
    avg = W.copy()  # running mean of the entering iterates
    values = np.full(size, problem.full_value(start))
    live = np.arange(size)
    # objective, grad_norm_sq, dist_sq and wall_ms per (row, epoch)
    table = np.empty((4, size, config.epochs))
    outcomes: list = [None] * size
    threshold = config.divergence_threshold
    opt = problem.optimum_point
    fills = _fills(streams)
    orders = np.stack([s(1) if f is None else _identity(problem.n) for s, f in zip(streams, fills)])
    t0 = time.perf_counter()
    with np.errstate(over="ignore", invalid="ignore"):
        for t in range(1, config.epochs + 1):
            if t > 1:
                avg += (W - avg) / t
            if (t - 1) % _RESHUFFLE_CHUNK == 0:
                stop = min(t + _RESHUFFLE_CHUNK, config.epochs + 1)
                _seed_reshuffles([streams[r] for r in live], t, stop)
            for row, fill in zip(orders, fills):
                if fill:
                    fill(row, t, stop)
            W_next, _ = _epoch_pass(problem, W, orders.T, steps, config.batch_size)
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
                _, j = _epoch_pass(problem, W[i:i + 1], orders[i:i + 1].T, steps[i:i + 1],
                                   config.batch_size, threshold)
                record = _record(table, live[i], t - 1, problem.n, W[i],
                                 avg[i] if config.track_average else None, opt is not None)
                outcomes[live[i]] = DivergenceError(t, j, float(values[i]), record)
            keep = ~bad
            W, avg, steps, values = W_next[keep], avg[keep], steps[keep], next_values[keep]
            live, orders, fills = live[keep], orders[keep], [fills[i] for i in np.flatnonzero(keep)]
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


# epochs of random_reshuffle orders that run_block seeds in one pass; the
# pass's fixed cost is spread over this many draws of a lone run
_RESHUFFLE_CHUNK = 64
_DRAW_ENTRIES = 1024  # most entries of one sgd chunk; 4,096 raised a run's peak memory
_identity = functools.cache(np.arange)


class _Reshuffle:
    """random_reshuffle stream: the scheme's permutation of each epoch.
    ``fill`` shuffles ``arange(n)`` in the row (the bits of ``permutation(n)``)
    with epoch t's seed words ``states[t - first]``, from :func:`run_block`."""

    __slots__ = ("scheme", "first", "states")

    def __init__(self, scheme: Scheme):
        self.scheme, self.first, self.states = scheme, 1, ()

    def __call__(self, t):
        return permutation_for_epoch(self.scheme, t)

    def fill(self, row, t, stop):
        row[:] = _identity(len(row))
        _generator(self.states[t - self.first]).shuffle(row)


class _Uniform:
    """sgd draws: n uniform indices per epoch.  ``fill`` draws as many
    epochs k before ``stop`` as ``_DRAW_ENTRIES`` holds at once: a (k, n)
    draw has the bits of k draws of n, as PCG64 keeps its spare 32-bit half."""

    __slots__ = ("rng", "n", "rows")

    def __init__(self, rng, n: int):
        self.rng, self.n, self.rows = rng, n, []

    def __call__(self, t):
        return self.rng.integers(0, self.n, size=self.n)

    def fill(self, row, t, stop):
        if not self.rows:  # the next epochs' draws, last first
            k = min(stop - t, max(1, _DRAW_ENTRIES // self.n))
            self.rows = list(self.rng.integers(0, self.n, size=(k, self.n))[::-1])
        row[:] = self.rows.pop()


class _Repeat:
    """Stream of one read-only order, returned every epoch."""

    fill = None

    def __init__(self, order: np.ndarray):
        order.setflags(write=False)
        self.order = order

    def __call__(self, t):
        return self.order


class _SeededOnce:
    """Stream of one generator seeded with ``(seed, key)``: ``build(rng)``
    returns the per-epoch callable.  :func:`run_block` seeds the streams
    of a block at its start; a stream called first seeds itself."""

    __slots__ = ("seed", "key", "build", "draw")

    def __init__(self, seed: int, key: tuple, build):
        self.seed, self.key, self.build, self.draw = seed, key, build, None

    def __call__(self, t):
        if self.draw is None:
            self.draw = self.build(_generator(_seed_states([self.seed], [self.key])[0, 0]))
        return self.draw(t)


def _fills(streams) -> list:
    """Seed every unseeded :class:`_SeededOnce` stream, one pass per key;
    then each stream's ``fill(row, t, stop)`` (None: its order repeats)."""
    pending: dict[tuple, list[_SeededOnce]] = {}
    for stream in streams:
        if isinstance(stream, _SeededOnce) and stream.draw is None:
            pending.setdefault(stream.key, []).append(stream)
    for key, group in pending.items():
        for stream, state in zip(group, _seed_states([s.seed for s in group], [key])[:, 0]):
            stream.draw = stream.build(_generator(state))
    draws = [s.draw if isinstance(s, _SeededOnce) else s for s in streams]
    return [d.fill if isinstance(d, (_Reshuffle, _Uniform, _Repeat))
            else lambda row, t, stop, s=s: np.copyto(row, s(t)) for s, d in zip(streams, draws)]


def _seed_reshuffles(streams, first: int, stop: int) -> None:
    """Hand every :class:`_Reshuffle` stream the seed words of epochs
    ``first .. stop - 1``, computed in one pass."""
    group = [s for s in streams if isinstance(s, _Reshuffle)]
    keys = [(_PERM_STREAM, t) for t in range(first, stop)]
    for stream, states in zip(group, _seed_states([s.scheme.seed for s in group], keys)):
        stream.first, stream.states = first, states


def scheme_stream(scheme: Scheme):
    """Index stream of a shuffling run: the scheme's permutation per epoch.
    A scheme that repeats one order draws it once and returns that
    read-only array every epoch."""
    if scheme.kind == "random_reshuffle":
        return _Reshuffle(scheme)
    if scheme.kind == "shuffle_once":
        return _SeededOnce(scheme.seed, (_PERM_STREAM, 1),
                           lambda rng: _Repeat(rng.permutation(scheme.n)))
    return _Repeat(permutation_for_epoch(scheme, 1))


_SGD_STREAM = (1,)


def sgd_stream(n: int, seed: int):
    """Index stream of the with-replacement baseline: n uniform draws per
    epoch from a generator seeded apart from the permutation streams."""
    seed = _nonnegative_int(seed, "seed")
    return _SeededOnce(seed, _SGD_STREAM, lambda rng: _Uniform(rng, n))


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
