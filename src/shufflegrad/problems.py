"""Finite-sum benchmark problems.

Every problem is F(w) = (1/n) * sum_i f(w; i) with per-component value
and gradient oracles plus vectorized full-batch versions.  Component
indices are 0-based.  Problems expose optional structure used elsewhere:
an analytic optimum when one is known, a strong convexity constant, and
a declared smoothness modulus (see :mod:`shufflegrad.smoothness`).
"""

from __future__ import annotations

import numpy as np

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


class FiniteSumProblem:
    """Interface shared by all problems.

    Subclasses set ``n``, ``dim`` and implement ``_component_value``,
    ``_component_gradient`` and four unvalidated oracles on an (R, d)
    block of points W:

    - ``component_gradients(W, idx)``: a new (R, d) array whose row r is
      the gradient of component ``idx[r]`` at ``W[r]``;
    - ``full_values(W)``: the (R,) objective values;
    - ``full_gradients(W)``: the (R, d) full gradients;
    - ``max_component_gradient_norms(W)``: the (R,) largest component
      gradient norms.

    They use only row-wise elementwise operations and row reductions, so
    a row's bits do not depend on R.  ``full_value(w)``,
    ``full_gradient(w)`` and ``max_component_gradient_norm(w)`` are their
    one-row cases, so the scalar and batched forms cannot drift apart;
    ``_component_gradient`` is a separate scalar formula, the reference
    ``component_gradients`` is tested against.  The public component
    accessors validate inputs.
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

    def component_gradients(self, W: np.ndarray, idx: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def full_values(self, W: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def full_gradients(self, W: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def max_component_gradient_norms(self, W: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def full_value(self, w) -> float:
        return float(self.full_values(np.asarray(w, dtype=float)[None])[0])

    def full_gradient(self, w) -> np.ndarray:
        return self.full_gradients(np.asarray(w, dtype=float)[None])[0]

    def max_component_gradient_norm(self, w) -> float:
        return float(self.max_component_gradient_norms(np.asarray(w, dtype=float)[None])[0])

    @property
    def initial_point(self) -> np.ndarray:
        return self._initial.copy()

    optimum_value: float | None = None
    strong_convexity: float | None = None
    declared_ell: EllFunction | None = None

    @property
    def optimum_point(self) -> np.ndarray | None:
        pt = getattr(self, "_optimum_point", None)
        return None if pt is None else pt.copy()


class QuarticProblem(FiniteSumProblem):
    """Separable quartic f(x; (i,k)) = x_i^4 + k*x_i on 50 coordinates.

    Components are indexed by (coordinate, offset) pairs with offsets
    -10..10, giving n = 50 * 21 = 1050.  The offsets cancel in the mean,
    so F(x) = (1/50) * sum_i x_i^4 with minimum 0 at the origin.  Flat
    component index of (coordinate c, offset k) is c*21 + (k+10).
    """

    DIM = 50
    OFFSETS = np.arange(-10, 11)

    def __init__(self):
        self.dim = self.DIM
        self.n = self.DIM * len(self.OFFSETS)
        self._coord = np.repeat(np.arange(self.DIM), len(self.OFFSETS))
        self._offset = np.tile(self.OFFSETS, self.DIM).astype(float)
        self._initial = np.ones(self.DIM)
        self._optimum_point = np.zeros(self.DIM)
        self.optimum_value = 0.0
        self.declared_ell = EllFunction.power(3.0, 2.0 / 3.0)

    def component_index(self, coordinate: int, offset: int) -> int:
        """Flat index of the component acting on ``coordinate`` with ``offset``."""
        if not 0 <= coordinate < self.DIM:
            raise IndexError(f"coordinate {coordinate} out of range")
        if not -10 <= offset <= 10:
            raise IndexError(f"offset {offset} out of range")
        return coordinate * len(self.OFFSETS) + (offset + 10)

    def _component_value(self, w, i):
        c = self._coord[i]
        return float(w[c] ** 4 + self._offset[i] * w[c])

    def _component_gradient(self, w, i):
        g = np.zeros(self.dim)
        c = self._coord[i]
        g[c] = 4.0 * w[c] ** 3 + self._offset[i]
        return g

    def component_gradients(self, W, idx):
        rows, c = np.arange(len(idx)), self._coord[idx]
        G = np.zeros(W.shape)
        G[rows, c] = 4.0 * W[rows, c] ** 3 + self._offset[idx]
        return G

    def full_values(self, W):
        return np.sum(W**4, axis=1) / self.DIM

    def full_gradients(self, W):
        return 4.0 * W**3 / self.DIM

    def max_component_gradient_norms(self, W):
        # max over offsets of |4w_c^3 + k| is 4|w_c|^3 + 10
        return 4.0 * np.max(np.abs(W), axis=1) ** 3 + 10.0


class ExpStrongProblem(FiniteSumProblem):
    """Strongly convex exponential sum on 50 coordinates.

    f(x; (j,k)) = exp(x_j - k) + exp(k - x_j) + 0.5*||x||^2 over the same
    (coordinate, offset) index set as :class:`QuarticProblem`.  Each
    component is 1-strongly convex.  By symmetry the minimizer is the
    origin.
    """

    DIM = 50
    OFFSETS = np.arange(-10, 11)

    def __init__(self):
        self.dim = self.DIM
        self.n = self.DIM * len(self.OFFSETS)
        self._coord = np.repeat(np.arange(self.DIM), len(self.OFFSETS))
        self._offset = np.tile(self.OFFSETS, self.DIM).astype(float)
        # sum_k exp(k) over k = -10..10; symmetric under k -> -k
        self._exp_sum = float(np.sum(np.exp(self.OFFSETS.astype(float))))
        self._initial = np.ones(self.DIM)
        self._optimum_point = np.zeros(self.DIM)
        self.optimum_value = self.full_value(self._optimum_point)
        self.strong_convexity = 1.0
        self.declared_ell = EllFunction.affine(5.0, 5.0)

    component_index = QuarticProblem.component_index

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

    def component_gradients(self, W, idx):
        rows, c, k = np.arange(len(idx)), self._coord[idx], self._offset[idx]
        x = W[rows, c]
        G = W.copy()
        G[rows, c] += np.exp(x - k) - np.exp(k - x)
        return G

    def full_values(self, W):
        coeff = self._exp_sum / self.n
        return coeff * np.sum(np.exp(W) + np.exp(-W), axis=1) + 0.5 * row_dots(W, W)

    def full_gradients(self, W):
        coeff = self._exp_sum / self.n
        return coeff * (np.exp(W) - np.exp(-W)) + W

    def max_component_gradient_norms(self, W):
        k, x = self.OFFSETS.astype(float), W[:, :, None]
        s = np.exp(x - k) - np.exp(k - x)
        sq = row_dots(W, W)[:, None, None] - x**2 + (x + s) ** 2
        return np.sqrt(np.max(sq, axis=(1, 2)))


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
        self._initial = initial
        self._vector_norms = np.linalg.norm(vectors, axis=1)
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

    def component_gradients(self, W, idx):
        A = self.vectors[idx]
        q = np.einsum("rd,rd->r", A, W)
        return (2.0 * (q * q - self.targets[idx]) * q)[:, None] * A

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

    def max_component_gradient_norms(self, W):
        Q = self._projections(W)
        return np.max(np.abs(2.0 * (Q * Q - self.targets) * Q) * self._vector_norms, axis=1)


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
    The log regularizer's subgradient at 0 is taken as 0.
    """

    LAM_DEFAULT = 0.01
    REG_WEIGHT = 0.1

    def __init__(self, features, targets, lam: float = LAM_DEFAULT, seed: int = 0,
                 initial_shift: float = 0.1):
        features = np.asarray(features, dtype=float)
        targets = np.asarray(targets, dtype=float)
        if features.ndim != 2 or targets.shape != (features.shape[0],):
            raise ValueError("features must be (rows, dim) with matching targets (rows,)")
        if lam <= 0:
            raise ValueError(f"lam must be positive, got {lam}")
        self.features = features
        self.targets = targets
        self.lam = float(lam)
        self.n, self.feature_dim = features.shape
        self.dim = self.feature_dim + 1
        rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(0xD0,)))
        self._initial = np.concatenate([rng.standard_normal(self.feature_dim), [initial_shift]])

    def split(self, v: np.ndarray):
        """Split the joint variable into (weights, shift)."""
        return v[:-1], float(v[-1])

    def _regularizer(self, w):
        return self.REG_WEIGHT * float(np.sum(np.log1p(np.abs(w))))

    def sample_losses(self, v) -> np.ndarray:
        """Per-sample regularized losses at the weight part of ``v``."""
        w, _ = self.split(np.asarray(v, dtype=float))
        r = self.targets - self.features @ w
        return 0.5 * r * r + self._regularizer(w)

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

    def component_gradients(self, V, idx):
        W, theta, X = V[:, :-1], V[:, -1], self.features[idx]
        r = self.targets[idx] - np.einsum("rd,rd->r", X, W)
        loss = 0.5 * r * r + self.REG_WEIGHT * np.sum(np.log1p(np.abs(W)), axis=1)
        coef = _psi_star_prime((loss - theta) / self.lam) / self.lam
        loss_grad = -r[:, None] * X + self.REG_WEIGHT * np.sign(W) / (1.0 + np.abs(W))
        return np.concatenate([coef[:, None] * loss_grad, (1.0 - coef)[:, None]], axis=1)

    def full_values(self, V):
        # row by row: the (n, d) work per row is the data's own size
        return np.fromiter((np.mean(_psi_star((self.sample_losses(v) - v[-1]) / self.lam)) + v[-1]
                            for v in V), float, len(V))

    def _chain_terms(self, v):
        """Residuals, per-sample chain-rule factors psi*'(.)/lam and the
        regularizer gradient at one point ``v``."""
        w, theta = self.split(v)
        r = self.targets - self.features @ w
        losses = 0.5 * r * r + self._regularizer(w)
        coef = _psi_star_prime((losses - theta) / self.lam) / self.lam
        return r, coef, self.REG_WEIGHT * np.sign(w) / (1.0 + np.abs(w))

    def full_gradients(self, V):
        G = np.empty(V.shape)
        for k, v in enumerate(V):  # row by row, like full_values
            r, coef, reg_grad = self._chain_terms(v)
            G[k, :-1] = self.features.T @ (-coef * r) / self.n + np.mean(coef) * reg_grad
            G[k, -1] = 1.0 - float(np.mean(coef))
        return G

    def max_component_gradient_norms(self, V):
        out = np.empty(len(V))
        for k, v in enumerate(V):  # row by row, like full_values
            r, coef, reg_grad = self._chain_terms(v)
            rows = -r[:, None] * self.features + reg_grad[None, :]
            out[k] = np.sqrt(np.max(coef**2 * np.sum(rows * rows, axis=1) + (1.0 - coef) ** 2))
        return out


class TinyQuadraticProblem(FiniteSumProblem):
    """Exact-arithmetic quadratic f(w; i) = 0.5*||w - c_i||^2.

    Small integer centers keep every quantity computable by hand: the
    optimum is the center mean, the component-gradient variance is
    constant in w, and each component is 1-strongly convex with constant
    curvature 1.
    """

    def __init__(self, centers=((1, 0), (-1, 0), (0, 1), (0, -1)), initial_point=None):
        centers = np.asarray(centers, dtype=float)
        if centers.ndim != 2 or centers.shape[0] < 1:
            raise ValueError("centers must be a non-empty (n, dim) array")
        self.centers = centers
        self.n, self.dim = centers.shape
        self._mean_center = centers.mean(axis=0)
        if initial_point is None:
            initial_point = np.full(self.dim, 2.0)
        self._initial = np.asarray(initial_point, dtype=float)
        if self._initial.shape != (self.dim,):
            raise ValueError("initial_point dimension mismatch")
        self._optimum_point = self._mean_center.copy()
        self.optimum_value = self.full_value(self._mean_center)
        self.strong_convexity = 1.0
        self.declared_ell = EllFunction.constant(1.0)

    def _component_value(self, w, i):
        d = w - self.centers[i]
        return 0.5 * float(np.dot(d, d))

    def _component_gradient(self, w, i):
        return w - self.centers[i]

    def component_gradients(self, W, idx):
        return W - self.centers[idx]

    def full_values(self, W):
        d = W[:, None, :] - self.centers
        return 0.5 * np.mean(np.sum(d * d, axis=2), axis=1)

    def full_gradients(self, W):
        return W - self._mean_center

    def gradient_variance(self) -> float:
        """Population variance of component gradients (constant in w)."""
        d = self.centers - self._mean_center
        return float(np.mean(np.sum(d * d, axis=1)))

    def max_component_gradient_norms(self, W):
        return np.max(np.linalg.norm(W[:, None, :] - self.centers, axis=2), axis=1)


def build_problem(spec: dict) -> FiniteSumProblem:
    """Construct a problem from a config mapping with an ``id`` field."""
    if "id" not in spec:
        raise ValueError("problem config needs an 'id' field")
    params = {k: v for k, v in spec.items() if k != "id"}
    pid = spec["id"]
    if pid == "quartic":
        _check_keys(params, set(), pid)
        return QuarticProblem()
    if pid == "exp_strong":
        _check_keys(params, set(), pid)
        return ExpStrongProblem()
    if pid == "phase_retrieval":
        _check_keys(params, {"m", "dim", "seed", "noise_std"}, pid)
        return PhaseRetrievalProblem(**params)
    if pid == "dro":
        _check_keys(params, {"lam", "seed", "dataset"}, pid)
        from .ingest import dataset_from_config

        dataset = dataset_from_config(params.get("dataset", {"synthetic": {"seed": 7}}))
        return DROProblem(dataset.features, dataset.targets,
                          lam=params.get("lam", DROProblem.LAM_DEFAULT), seed=params.get("seed", 0))
    if pid == "tiny_quadratic":
        _check_keys(params, {"centers", "initial_point"}, pid)
        return TinyQuadraticProblem(**params)
    raise ValueError(f"unknown problem id {pid!r}")


def _check_keys(params: dict, allowed: set[str], context: str) -> None:
    unknown = set(params) - allowed
    if unknown:
        raise ValueError(f"unknown keys for problem {context!r}: {sorted(unknown)}")
