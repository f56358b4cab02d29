"""Finite-sum benchmark problems.

Every problem is F(w) = (1/n) * sum_i f(w; i) with per-component value
and gradient oracles plus vectorized full-batch versions.  Component
indices are 0-based.  Problems expose optional structure used elsewhere:
an analytic optimum when one is known, a strong convexity constant, and
a declared smoothness modulus (see :mod:`shufflegrad.smoothness`).
"""

from __future__ import annotations

from numbers import Real

import numpy as np
# the gradient kernels' ufuncs by plain name: on a few rows, a module
# attribute lookup is a visible share of an operation's cost
from numpy import (absolute, add, divide, log1p, maximum, multiply, negative, sign, subtract,
                   vecdot)

from .shuffling import _nonnegative_int
from .smoothness import EllFunction, row_dots

__all__ = [
    "FiniteSumProblem",
    "QuarticProblem",
    "ExpStrongProblem",
    "PhaseRetrievalProblem",
    "DROProblem",
    "TinyQuadraticProblem",
    "build_problem",
]


# Gradient entries per component_gradients call of
# max_component_gradient_norms.
_NORM_BLOCK = 1 << 16


class FiniteSumProblem:
    """Interface shared by all problems.

    Subclasses set ``n``, ``dim``, implement ``_component_value``,
    ``_component_gradient`` and two unvalidated oracles on an (R, d)
    block of points W, ``full_values(W)`` (the (R,) objective values) and
    ``full_gradients(W)`` (the (R, d) full gradients), and supply the
    component gradients as a kernel over row tables:

    - ``_tables``: arrays whose row i holds component i's data;
    - ``_kernel(W)``: a function ``grad(*rows)`` bound to the (R, d) block
      ``W``, returning the (R, d) array whose row r is the gradient at
      ``W[r]`` of the component whose table rows are ``rows[.][r]``.  It
      reads ``W`` in place, so it sees every update made to ``W``; its
      work arrays, views and one output array are made with it, and every
      call overwrites and returns that output.  Quartic's and
      exp_strong's return a new array per call instead.

    The oracles use only row-wise elementwise operations and row
    reductions, so a row's bits do not depend on R.  The base class
    derives ``component_gradients(W, idx)``, a new kernel on the rows
    ``idx``, so a new array, and from it ``max_component_gradient_norms(W)``,
    the (R,) largest component gradient norms.  ``full_value(w)``,
    ``full_gradient(w)`` and ``max_component_gradient_norm(w)`` are the
    one-row cases, so the scalar and batched forms cannot drift apart;
    ``_component_gradient`` is a separate scalar formula, the reference
    ``component_gradients`` is tested against.  The public component
    accessors validate inputs.  :func:`shufflegrad.optimize._epoch_pass`
    steps an epoch with a kernel bound to the epoch's block.

    A problem may also set ``component_epoch(W, orders, steps)``: the
    block after one epoch of single-component steps, computed another
    way than step by step.  A row's bits do not depend on R; quartic's
    are the step loop's, exp_strong's agree to rounding.
    """

    n: int
    dim: int

    def _check(self, w: np.ndarray, i: int | None = None) -> np.ndarray:
        w = np.asarray(w, dtype=float)
        if w.shape != (self.dim,):
            raise ValueError(f"point has shape {w.shape}, expected ({self.dim},)")
        if not np.isfinite(w).all():
            raise ValueError("point contains non-finite entries")
        if i is not None and not 0 <= i < self.n:
            raise IndexError(f"component index {i} out of range [0, {self.n})")
        return w

    def component_value(self, w, i: int) -> float:
        w = self._check(w, i)
        return self._component_value(w, i)

    def component_gradient(self, w, i: int) -> np.ndarray:
        w = self._check(w, i)
        return self._component_gradient(w, i)

    def _component_value(self, w: np.ndarray, i: int) -> float:
        raise NotImplementedError

    def _component_gradient(self, w: np.ndarray, i: int) -> np.ndarray:
        raise NotImplementedError

    _tables: tuple

    def _kernel(self, W: np.ndarray):
        raise NotImplementedError

    def component_gradients(self, W: np.ndarray, idx: np.ndarray) -> np.ndarray:
        return self._kernel(W)(*(table[idx] for table in self._tables))

    def full_values(self, W: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def full_gradients(self, W: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def max_component_gradient_norms(self, W: np.ndarray) -> np.ndarray:
        # every component's gradient at k rows per call, each row repeated
        # n times (a view when k = 1): a call holds one (k*n, d) block of at
        # most _NORM_BLOCK entries, or one (n, d) block when n*d is larger
        n, d = self.n, self.dim
        k = max(1, _NORM_BLOCK // (n * d))
        idx = np.tile(np.arange(n), min(k, len(W)))
        out = np.empty(len(W))
        for lo in range(0, len(W), k):
            m = min(k, len(W) - lo)
            G = self.component_gradients(
                np.broadcast_to(W[lo:lo + m, None, :], (m, n, d)).reshape(m * n, d), idx[:m * n])
            G *= G
            out[lo:lo + m] = np.sqrt(np.max(np.sum(G, axis=1).reshape(m, n), axis=1))
            del G  # before the next call allocates its block
        return out

    def full_value(self, w) -> float:
        return float(self.full_values(np.asarray(w, dtype=float)[None])[0])

    def full_gradient(self, w) -> np.ndarray:
        return self.full_gradients(np.asarray(w, dtype=float)[None])[0]

    def max_component_gradient_norm(self, w) -> float:
        return float(self.max_component_gradient_norms(np.asarray(w, dtype=float)[None])[0])

    @property
    def initial_point(self) -> np.ndarray:
        return self._initial.copy()

    component_epoch = None
    optimum_value: float | None = None
    strong_convexity: float | None = None
    declared_ell: EllFunction | None = None

    @property
    def optimum_point(self) -> np.ndarray | None:
        pt = getattr(self, "_optimum_point", None)
        return None if pt is None else pt.copy()


# the gradient kernels' literal constants, as 0-d arrays: a Python float
# operand costs a conversion on every ufunc call, and gives the same bits
_HALF, _ONE, _TWO, _ZERO = (np.array(c) for c in (0.5, 1.0, 2.0, 0.0))


def _lane_epoch(W, coord, offset, orders, steps, visit, idle=None):
    """Row r of ``W`` after visiting ``orders[:, r]`` one component at a
    time with step ``steps[r]``, where component i moves coordinate
    ``coord[i]`` by that coordinate's value, the step and ``offset[i]``.

    Each lane, a (row, coordinate) pair, then follows its own visits.
    Lanes are sorted by visit count, largest first, so the t-th visits of
    all lanes fill a prefix and take one vector step ``x = visit(x, s,
    k)`` (lanes x, steps s, offsets k).  ``idle(x, s, gap)``, if given,
    takes lanes through the ``gap`` steps that do not visit them, before
    each visit and after the last (all n if never visited).
    """
    R, d = W.shape
    # each row's visit positions grouped by lane, each lane's in visiting
    # order; a stable sort of int16 keys is a radix sort
    pos = np.argsort(coord.astype(np.int16)[orders.T], axis=1, kind="stable")
    lane = (coord[np.take_along_axis(orders.T, pos, axis=1)]
            + np.arange(0, R * d, d)[:, None]).ravel()
    counts = np.bincount(lane, minlength=R * d)
    by_count = np.argsort(-counts, kind="stable")
    column = np.empty_like(by_count)  # lane -> its place in by_count
    column[by_count] = np.arange(R * d)
    lengths = R * d - np.cumsum(np.bincount(counts))[:-1]  # lanes with more than t visits
    first = np.cumsum(lengths) - lengths
    # rank-major tables: the t-th visits of lanes by_count[:lengths[t]] sit
    # at first[t], first[t] + 1, ...; in place, to keep few (R, n) arrays
    slot = np.arange(lane.size)
    slot -= (np.cumsum(counts) - counts)[lane]  # the visit's rank in its lane
    slot = first[slot]
    slot += column[lane]
    del lane
    K = np.empty(slot.size)
    K[slot] = offset[np.take_along_axis(orders.T, pos, axis=1)].ravel()
    P = np.empty(slot.size, np.int32)
    P[slot] = pos.ravel()
    del pos, slot
    x, s = W.ravel()[by_count], steps[by_count // d]
    last = np.full(R * d, -1, np.int32)
    for lo, L in zip(first, lengths):
        if idle is not None:
            p = P[lo:lo + L]
            x[:L] = idle(x[:L], s[:L], p - last[:L] - 1)
            last[:L] = p
        x[:L] = visit(x[:L], s[:L], K[lo:lo + L])
    if idle is not None:
        x = idle(x, s, len(orders) - 1 - last)
    return x[column].reshape(W.shape)


class _CoordinateOffsetProblem(FiniteSumProblem):
    """Components indexed by (coordinate c, offset k) pairs, c < 50 and k in
    -10..10, at flat index c*21 + (k+10), so n = 1050.  Runs start at all
    ones; the optimum is the origin."""

    DIM = 50
    OFFSETS = np.arange(-10, 11)

    def __init__(self):
        self.dim = self.DIM
        self.n = self.DIM * len(self.OFFSETS)
        self._coord = np.repeat(np.arange(self.DIM), len(self.OFFSETS))
        self._offset = np.tile(self.OFFSETS, self.DIM).astype(float)
        self._tables = (self._coord, self._offset)
        self._initial = np.ones(self.DIM)
        self._optimum_point = np.zeros(self.DIM)


class QuarticProblem(_CoordinateOffsetProblem):
    """Separable quartic f(x; (i,k)) = x_i^4 + k*x_i over the coordinate
    and offset index set.  The offsets cancel in the mean, so
    F(x) = (1/50) * sum_i x_i^4 with minimum 0 at the origin."""

    optimum_value = 0.0
    declared_ell = EllFunction.power(3.0, 2.0 / 3.0)

    def _component_value(self, w, i):
        c = self._coord[i]
        return float(w[c] ** 4 + self._offset[i] * w[c])

    def _component_gradient(self, w, i):
        g = np.zeros(self.dim)
        c = self._coord[i]
        g[c] = 4.0 * w[c] ** 3 + self._offset[i]
        return g

    @staticmethod
    def _kernel(W):
        rows = np.arange(len(W))

        def grad(c, k):
            G = np.zeros(W.shape)
            x = W[rows, c]
            G[rows, c] = 4.0 * (x * x * x) + k
            return G
        return grad

    def component_epoch(self, W, orders, steps):
        """One epoch of single-component steps ``steps[r]`` (>= +0.0) along
        ``orders[:, r]``, bit for bit the step loop: a visit has the
        operations of ``_kernel`` then ``g *= step; W -= g``, and the
        other steps leave a coordinate as ``W - 0.0 * step`` does."""
        return _lane_epoch(W, self._coord, self._offset, orders, steps,
                           lambda x, s, k: x - (4.0 * (x * x * x) + k) * s)

    def full_values(self, W):
        return np.sum(np.square(W * W), axis=1) / self.DIM

    def full_gradients(self, W):
        return 4.0 * (W * W * W) / self.DIM


class ExpStrongProblem(_CoordinateOffsetProblem):
    """Strongly convex exponential sum on 50 coordinates.

    f(x; (j,k)) = exp(x_j - k) + exp(k - x_j) + 0.5*||x||^2 over the same
    (coordinate, offset) index set as :class:`QuarticProblem`.  Each
    component is 1-strongly convex.  By symmetry the minimizer is the
    origin.
    """

    strong_convexity = 1.0
    declared_ell = EllFunction.affine(5.0, 5.0)

    def __init__(self):
        super().__init__()
        # sum_k exp(k) over k = -10..10; symmetric under k -> -k
        self._exp_sum = float(np.sum(np.exp(self.OFFSETS.astype(float))))
        self.optimum_value = self.full_value(self._optimum_point)

    def _component_value(self, w, i):
        c = self._coord[i]
        k = self._offset[i]
        return float(np.exp(w[c] - k) + np.exp(k - w[c]) + 0.5 * np.dot(w, w))

    def _component_gradient(self, w, i):
        c = self._coord[i]
        k = self._offset[i]
        g = w.copy()
        g[c] += np.exp(w[c] - k) - np.exp(k - w[c])
        return g

    @staticmethod
    def _kernel(W):
        rows = np.arange(len(W))

        def grad(c, k):
            x = W[rows, c]
            G = W.copy()
            G[rows, c] += np.exp(x - k) - np.exp(k - x)
            return G
        return grad

    def component_epoch(self, W, orders, steps):
        """One epoch of single-component steps ``steps[r]`` (>= +0.0) along
        ``orders[:, r]``, to rounding: a step moves each coordinate it does
        not visit by x - s * x, so a lane takes its unvisited stretches as
        one factor (1 - s)**gap (0**0 = 1), its visits as the step loop."""
        return _lane_epoch(W, self._coord, self._offset, orders, steps,
                           lambda x, s, k: x - (x + (np.exp(x - k) - np.exp(k - x))) * s,
                           lambda x, s, gap: x * np.power(1.0 - s, gap))

    def full_values(self, W):
        coeff = self._exp_sum / self.n
        return coeff * np.sum(np.exp(W) + np.exp(-W), axis=1) + 0.5 * row_dots(W, W)

    def full_gradients(self, W):
        coeff = self._exp_sum / self.n
        return coeff * (np.exp(W) - np.exp(-W)) + W


class PhaseRetrievalProblem(FiniteSumProblem):
    """Noisy quadratic measurements f(z; r) = 0.5*(y_r - (a_r.z)^2)^2.

    Measurement vectors and the true signal are drawn from
    Normal(0, 0.5*I); targets are y_r = (a_r.signal)^2 + Normal(0,
    noise_std^2) noise.  The run starts from z0 ~ Normal(5*ones, 0.5*I).
    With zero noise the true signal attains objective 0.
    """

    def __init__(self, m: int = 3000, dim: int = 100, seed: int = 0, noise_std: float = 4.0):
        if m < 1 or dim < 1:
            raise ValueError("need m >= 1 measurements and dim >= 1")
        if not 0 <= noise_std < np.inf:
            raise ValueError(f"noise_std must be finite and >= 0, got {noise_std}")
        seed = _nonnegative_int(seed, "seed")
        rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(0x50,)))
        scale = np.sqrt(0.5)
        signal = scale * rng.standard_normal(dim)
        vectors = scale * rng.standard_normal((m, dim))
        initial = 5.0 + scale * rng.standard_normal(dim)
        targets = (vectors @ signal) ** 2
        if noise_std > 0:
            targets = targets + noise_std * rng.standard_normal(m)
        self.vectors = vectors
        self.targets = targets
        self.n, self.dim = vectors.shape
        self._tables = (vectors, targets)
        self._initial = initial
        self.signal = signal
        self.noise_std = float(noise_std)
        if noise_std == 0:
            self._optimum_point = signal.copy()
            self.optimum_value = 0.0

    def _component_value(self, w, i):
        q = float(self.vectors[i] @ w)
        r = self.targets[i] - q * q
        return 0.5 * r * r

    def _component_gradient(self, w, i):
        a = self.vectors[i]
        q = a @ w
        return (2.0 * (q * q - self.targets[i]) * q) * a

    @staticmethod
    def _kernel(W):
        """Row r: the gradient at ``W[r]`` of the component with vector
        ``A[r]`` and target ``y[r]``, ``2 (q^2 - y[r]) q A[r]`` with q the
        row dot.  Each operation writes into a work array (x1, x2, x3 of
        shape (R,)) or the output G.  No operation writes over its own
        operand, which numpy does slowly for one-element arrays."""
        x1, x2, x3 = (np.empty(len(W)) for _ in range(3))
        G, c = np.empty(W.shape), x3[:, None]

        def grad(A, y):
            q = vecdot(A, W, x1)
            multiply(multiply(_TWO, subtract(multiply(q, q, x2), y, x3), x2), q, x3)
            return multiply(c, A, G)
        return grad

    def _projections(self, W):
        # one matrix-vector product per row: a product across rows could
        # change a row's bits with R
        return np.array([self.vectors @ w for w in W]).reshape(len(W), self.n)

    def full_values(self, W):
        Q = self._projections(W)
        r = self.targets - Q * Q
        return row_dots(r, r) / (2.0 * self.n)

    def full_gradients(self, W):
        Q = self._projections(W)
        C = (2.0 / self.n) * (Q * Q - self.targets) * Q
        return np.array([self.vectors.T @ c for c in C]).reshape(len(W), self.dim)


def _psi_star(t):
    """Conjugate penalty 0.25*max(t+2, 0)^2 - 1 of the chi-square divergence."""
    return 0.25 * np.square(np.maximum(t + 2.0, 0.0)) - 1.0


def _psi_star_prime(t):
    return 0.5 * np.maximum(t + 2.0, 0.0)


class DROProblem(FiniteSumProblem):
    """Distributionally robust regression over a joint (weights, shift) variable.

    Each component is psi*((loss_i(w) - theta)/lam) + theta where
    loss_i(w) = 0.5*(y_i - x_i.w)^2 + 0.1*sum_j log(1 + |w_j|) and
    psi*(t) = 0.25*max(t+2, 0)^2 - 1.  The optimization variable is the
    concatenation v = (w, theta), so dim = features + 1 with theta last.
    The run starts from seeded standard normal weights and theta = 0.1.
    The log regularizer's subgradient at 0 is taken as 0.
    """

    REG_WEIGHT = 0.1

    def __init__(self, features, targets, lam: float = 0.01, seed: int = 0):
        features = np.asarray(features, dtype=float)
        targets = np.asarray(targets, dtype=float)
        if features.ndim != 2 or targets.shape != (features.shape[0],):
            raise ValueError("features must be (rows, dim) with matching targets (rows,)")
        if not 0 < lam < np.inf:
            raise ValueError(f"lam must be finite and positive, got {lam}")
        seed = _nonnegative_int(seed, "seed")
        self.features = features
        self.targets = targets
        self.lam = float(lam)
        self._lam, self._reg = np.array(self.lam), np.array(self.REG_WEIGHT)  # kernel operands
        self.n, self.feature_dim = features.shape
        self.dim = self.feature_dim + 1
        self._tables = (features, targets)
        rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(0xD0,)))
        self._initial = np.concatenate([rng.standard_normal(self.feature_dim), [0.1]])

    def split(self, v: np.ndarray):
        """Split the joint variable into (weights, shift)."""
        return v[:-1], float(v[-1])

    def _regularizer(self, w):
        return self.REG_WEIGHT * float(np.sum(np.log1p(np.abs(w))))

    def _losses(self, v):
        """Residuals and per-sample regularized losses at one point ``v``."""
        w = v[:-1]
        r = self.targets - self.features @ w
        return r, 0.5 * r * r + self._regularizer(w)

    def _component_value(self, v, i):
        w, theta = self.split(v)
        r = self.targets[i] - float(self.features[i] @ w)
        loss = 0.5 * r * r + self._regularizer(w)
        return float(_psi_star((loss - theta) / self.lam) + theta)

    def _component_gradient(self, v, i):
        w, theta = self.split(v)
        x = self.features[i]
        r = self.targets[i] - float(x @ w)
        loss = 0.5 * r * r + self._regularizer(w)
        coef = float(_psi_star_prime((loss - theta) / self.lam)) / self.lam
        loss_grad = -r * x + self.REG_WEIGHT * np.sign(w) / (1.0 + np.abs(w))
        return np.append(coef * loss_grad, 1.0 - coef)

    def _kernel(self, V):
        """Row r: the gradient at ``V[r]`` of the component with features
        ``X[r]`` and target ``y[r]``.  Work arrays as in
        :meth:`PhaseRetrievalProblem._kernel`: x1 to x4 of shape (R,), W,
        A, B, C of shape (R, features).  Each call first copies the weights
        ``V[:, :-1]`` into W, since an operation on that strided view costs
        about twice as much.  Operations write over A, B and C in place,
        which costs nothing extra at that size.  Only the last weights
        operation writes into the output's strided weights block."""
        lam, reg = self._lam, self._reg
        x1, x2, x3, x4 = (np.empty(len(V)) for _ in range(4))
        W, A, B, C = (np.empty((len(V), self.feature_dim)) for _ in range(4))
        G = np.empty(V.shape)
        weights, theta, G_w, G_theta = V[:, :-1], V[:, -1], G[:, :-1], G[:, -1]
        neg_r, coef_col = x3[:, None], x1[:, None]

        def grad(X, y):
            np.copyto(W, weights)
            r = subtract(y, vecdot(X, W, x1), x2)
            a = absolute(W, A)
            # loss = 0.5 r r + 0.1 sum_j log(1 + |w_j|)
            t = multiply(multiply(_HALF, r, x1), r, x3)
            s = add.reduce(log1p(a, B), axis=1, out=x1)
            loss = add(t, multiply(reg, s, x4), x1)
            # coef = psi*'((loss - theta) / lam) / lam, psi*'(t) = 0.5 max(t + 2, 0)
            t = divide(subtract(loss, theta, x3), lam, x4)
            t = maximum(add(t, _TWO, x3), _ZERO, out=x4)  # a positional out is deprecated
            coef = divide(multiply(_HALF, t, x3), lam, x1)
            # weights coef (-r x + 0.1 sign(w) / (1 + |w|)), shift 1 - coef
            negative(r, x3)
            g = multiply(neg_r, X, C)
            u = sign(W, B)
            multiply(reg, u, u)
            divide(u, add(_ONE, a, a), u)
            add(g, u, g)
            multiply(coef_col, g, G_w)
            subtract(_ONE, coef, G_theta)
            return G
        return grad

    def full_values(self, V):
        # row by row: the (n, d) work per row is the data's own size
        return np.fromiter((np.mean(_psi_star((self._losses(v)[1] - v[-1]) / self.lam)) + v[-1]
                            for v in V), float, len(V))

    def full_gradients(self, V):
        G = np.empty(V.shape)
        for k, v in enumerate(V):  # row by row, like full_values
            r, losses = self._losses(v)
            coef = _psi_star_prime((losses - v[-1]) / self.lam) / self.lam
            w = v[:-1]
            reg_grad = self.REG_WEIGHT * np.sign(w) / (1.0 + np.abs(w))
            G[k, :-1] = self.features.T @ (-coef * r) / self.n + np.mean(coef) * reg_grad
            G[k, -1] = 1.0 - float(np.mean(coef))
        return G


class TinyQuadraticProblem(FiniteSumProblem):
    """Exact-arithmetic quadratic f(w; i) = 0.5*||w - c_i||^2.

    Small integer centers keep every quantity computable by hand: the
    optimum is the center mean, the component-gradient variance is
    constant in w, and each component is 1-strongly convex with constant
    curvature 1.
    """

    def __init__(self, centers=((1, 0), (-1, 0), (0, 1), (0, -1)), initial_point=None):
        if len({np.shape(row) for row in centers}) > 1:
            raise ValueError(f"centers rows must have one length, got lengths "
                             f"{[np.size(row) for row in centers]}")
        centers = np.asarray(centers, dtype=float)
        if centers.ndim != 2 or centers.shape[0] < 1:
            raise ValueError("centers must be a non-empty (n, dim) array")
        if not np.isfinite(centers).all():
            raise ValueError(f"centers must be finite, got {centers.tolist()}")
        self.centers = centers
        self.n, self.dim = centers.shape
        self._tables = (centers,)
        self._mean_center = centers.mean(axis=0)
        if initial_point is None:
            initial_point = np.full(self.dim, 2.0)
        self._initial = np.asarray(initial_point, dtype=float)
        if self._initial.shape != (self.dim,):
            raise ValueError("initial_point dimension mismatch")
        if not np.isfinite(self._initial).all():
            raise ValueError(f"initial_point must be finite, got {self._initial.tolist()}")
        self._optimum_point = self._mean_center.copy()
        self.optimum_value = self.full_value(self._mean_center)
        self.strong_convexity = 1.0
        self.declared_ell = EllFunction.constant(1.0)

    def _component_value(self, w, i):
        d = w - self.centers[i]
        return 0.5 * float(np.dot(d, d))

    def _component_gradient(self, w, i):
        return w - self.centers[i]

    @staticmethod
    def _kernel(W):
        G = np.empty(W.shape)
        return lambda C: subtract(W, C, G)

    def full_values(self, W):
        d = W[:, None, :] - self.centers
        return 0.5 * np.mean(np.sum(d * d, axis=2), axis=1)

    def full_gradients(self, W):
        return W - self._mean_center

    def gradient_variance(self) -> float:
        """Population variance of component gradients (constant in w)."""
        d = self.centers - self._mean_center
        return float(np.mean(np.sum(d * d, axis=1)))


# each kind's noun and the types it takes
_KINDS = {int: ("an integer", (Real, str)), float: ("a number", (Real, str)),
          bool: ("a bool", bool), str: ("a string", str), tuple: ("a list", (list, tuple)),
          dict: ("an object", dict)}


def _convert(kind, value, what: str):
    """``kind(value)``; a ValueError for a value of another JSON type.  A
    number field takes a number or a numeric string (not a bool; an integer
    field refuses a fraction), any other field only a value of its type.
    The kind ``(tuple, entry)`` is a list whose entries, each a field
    ``what + " entry"``, have the kind ``entry``."""
    if isinstance(kind, tuple):
        label = what if what.endswith(" entry") else f"{what} entry"
        return tuple(_convert(kind[1], v, label) for v in _convert(tuple, value, what))
    noun, takes = _KINDS[kind]
    ok = isinstance(value, takes) and (kind is bool or not isinstance(value, bool))
    try:
        converted = kind(value) if ok else None
    except (ValueError, OverflowError):
        converted = None
    if converted is None or (kind is int and isinstance(value, float) and converted != value):
        raise ValueError(f"{what} must be {noun}, got {value!r}") from None
    return converted


def _read(spec, kinds: dict, what: str, label: str, required=()) -> dict:
    """The JSON object ``spec`` (named ``what``) with each value converted
    by :func:`_convert` to its key's kind in ``kinds`` (field ``label +
    key``); a ValueError for an unknown key or a missing ``required`` one."""
    if not isinstance(spec, dict):
        raise ValueError(f"{what} must be an object, got {spec!r}")
    unknown = set(spec) - set(kinds)
    if unknown:
        raise ValueError(f"unknown {what} keys: {sorted(unknown)}")
    for key in required:
        if key not in spec:
            raise ValueError(f"{what} needs {key!r}")
    return {k: _convert(kinds[k], v, label + k) for k, v in spec.items()}


# each problem id's class and the kind of each of its parameters
_PROBLEMS = {
    "quartic": (QuarticProblem, {}),
    "exp_strong": (ExpStrongProblem, {}),
    "phase_retrieval": (PhaseRetrievalProblem,
                        {"m": int, "dim": int, "seed": int, "noise_std": float}),
    "dro": (DROProblem, {"lam": float, "seed": int, "dataset": dict}),
    "tiny_quadratic": (TinyQuadraticProblem, {"centers": (tuple, (tuple, float)),
                                              "initial_point": (tuple, float)}),
}


def build_problem(spec: dict) -> FiniteSumProblem:
    """Construct a problem from a config mapping with an ``id`` field."""
    pid = spec.get("id")
    if not isinstance(pid, str) or pid not in _PROBLEMS:
        raise ValueError(f"problem id must be one of {list(_PROBLEMS)}, got {pid!r}")
    cls, kinds = _PROBLEMS[pid]
    try:
        params = _read({k: v for k, v in spec.items() if k != "id"}, kinds, "config", "")
        if cls is not DROProblem:
            return cls(**params)
        from .ingest import dataset_from_config

        dataset = dataset_from_config(params.pop("dataset", {"synthetic": {"seed": 7}}))
        return DROProblem(dataset.features, dataset.targets, **params)
    except ValueError as err:
        raise ValueError(f"problem {pid!r}: {err}") from None
