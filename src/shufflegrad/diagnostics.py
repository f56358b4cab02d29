"""Empirical verifiers for the library's modeling assumptions.

Three families of checks live here: fitting the two-constant variance
model for component gradients, probing the curvature-vs-gradient
envelope a declared modulus promises, and brute-force oracles small
enough to be obviously correct.  Everything is a pure function of the
supplied points; nothing certifies global properties, and the fit
results are labeled estimates wherever they flow into plans.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .smoothness import EllFunction, row_dots

__all__ = [
    "VarianceFit",
    "estimate_variance_constants",
    "ProbeResult",
    "ProbeReport",
    "probe_ell_envelope",
    "brute_force_partial_average_variance",
    "finite_difference_gradient",
    "optimum_component_noise",
    "sample_points_around",
]


def finite_difference_gradient(func, w) -> np.ndarray:
    """Central-difference gradient with step 1e-5 * (1 + |w_j|) on coordinate j."""
    w = np.asarray(w, dtype=float)
    grad = np.empty_like(w)
    for j in range(w.size):
        h = 1e-5 * (1.0 + abs(w[j]))
        wp, wm = w.copy(), w.copy()
        wp[j] += h
        wm[j] -= h
        grad[j] = (func(wp) - func(wm)) / (2.0 * h)
    return grad


@dataclass(frozen=True)
class VarianceFit:
    """Fitted constants of the variance model.

    The model bounds the per-point component-gradient variance by
    slope * ||full gradient||^2 + noise_sq.  By construction the fit is
    feasible on every input sample; ``worst_margin`` is the largest
    (variance - model) gap over samples, 0 at the binding sample and
    negative elsewhere.
    """

    slope: float
    noise_sq: float
    sample_count: int
    worst_margin: float

    @property
    def noise_std(self) -> float:
        return math.sqrt(self.noise_sq)


# Candidate slopes: zero plus a geometric ladder.
_SLOPE_GRID = (0.0,) + tuple(2.0**k for k in range(-20, 21))


def estimate_variance_constants(problem, points) -> VarianceFit:
    """Fit (slope, noise_sq) over sample points.

    For each point computes g = ||full gradient||^2 and v = mean squared
    deviation of component gradients from the full gradient (one batched
    oracle call per point, see :func:`_squared_deviation_sum`), then scans
    the slope grid: each slope's minimal feasible noise_sq is
    max(0, max_s(v_s - slope * g_s)).  Returns the smallest noise_sq,
    breaking near-ties (within 1%) toward the smallest slope.
    """
    points = [np.asarray(p, dtype=float) for p in points]
    if len(points) < 2:
        raise ValueError(f"need at least 2 sample points, got {len(points)}")
    g_sq = np.empty(len(points))
    v = np.empty(len(points))
    for s, w in enumerate(points):
        full = problem.full_gradient(w)
        if not np.isfinite(full).all():
            raise ValueError(f"non-finite gradient at sample point {s}")
        g_sq[s] = float(np.dot(full, full))
        v[s] = _squared_deviation_sum(problem, w, full) / problem.n
    noise_by_slope = [max(0.0, float(np.max(v - a * g_sq))) for a in _SLOPE_GRID]
    best = min(noise_by_slope)
    slope, noise_sq = next(
        (a, ns) for a, ns in zip(_SLOPE_GRID, noise_by_slope) if ns <= best * 1.01
    )
    worst = float(np.max(v - slope * g_sq - noise_sq))
    return VarianceFit(slope, noise_sq, len(points), worst)


@dataclass(frozen=True)
class ProbeResult:
    """One curvature probe: gradient norm, estimated Hessian norm, and
    the declared envelope value at that gradient norm (None when no
    modulus was supplied)."""

    grad_norm: float
    hessian_norm: float
    ell_bound: float | None
    violated: bool


@dataclass(frozen=True)
class ProbeReport:
    probes: tuple[ProbeResult, ...]
    stagnated_count: int

    @property
    def violations(self) -> list[int]:
        return [i for i, p in enumerate(self.probes) if p.violated]


_PROBE_STREAM = 0x9E
_POWER_ITERATIONS = 30


def probe_ell_envelope(problem, points, *, ell: EllFunction | None = None,
                       seed: int = 0) -> ProbeReport:
    """Estimate the Hessian norm of the full objective at each point.

    Uses 30 power iterations on central-difference Hessian-vector
    products with step 1e-4 * (1 + ||w||).  Points are nudged by a 1e-8
    relative perturbation first, so probes land off measure-zero kinks.
    A probe whose estimate is still changing by more than 1e-3
    relatively after the last iteration is excluded and counted in
    ``stagnated_count``.  When a modulus is available (argument, else
    the problem's declared one), each kept probe is checked against 1.05
    times the modulus at its gradient norm (a 5% tolerance).
    """
    if ell is None:
        ell = problem.declared_ell
    probes = []
    stagnated = 0
    for idx, w in enumerate(points):
        w = np.asarray(w, dtype=float)
        rng = np.random.default_rng(
            np.random.SeedSequence(entropy=seed, spawn_key=(_PROBE_STREAM, idx)))
        scale = 1.0 + float(np.linalg.norm(w))
        w = w + 1e-8 * scale * rng.standard_normal(w.shape)
        h = 1e-4 * scale

        def hvp(v):
            return (problem.full_gradient(w + h * v) - problem.full_gradient(w - h * v)) \
                / (2.0 * h)

        v = rng.standard_normal(w.shape)
        v /= np.linalg.norm(v)
        estimate = 0.0
        rel_change = math.inf
        for _ in range(_POWER_ITERATIONS):
            hv = hvp(v)
            new_estimate = float(np.linalg.norm(hv))
            if new_estimate == 0.0:
                estimate, rel_change = 0.0, 0.0
                break
            rel_change = abs(new_estimate - estimate) / new_estimate
            estimate = new_estimate
            v = hv / new_estimate
        if rel_change > 1e-3:
            stagnated += 1
            continue
        grad_norm = float(np.linalg.norm(problem.full_gradient(w)))
        bound = None if ell is None else float(ell.evaluate(grad_norm)) * 1.05
        violated = bound is not None and estimate > bound
        probes.append(ProbeResult(grad_norm, estimate, bound, violated))
    return ProbeReport(tuple(probes), stagnated)


def brute_force_partial_average_variance(vectors, k: int, exact: bool = False):
    """Average of ||mean of a permutation's first k vectors - overall mean||^2.

    Enumerates all n! permutations in rational arithmetic, so the
    result is exact; deliberately limited to n <= 8.  This is the
    oracle behind the closed-form without-replacement variance factor.
    Returns a float, or the exact Fraction with ``exact=True``.
    """
    rows = [tuple(Fraction(float(x)) for x in np.atleast_1d(np.asarray(v, dtype=float)))
            for v in vectors]
    n = len(rows)
    if not 2 <= n <= 8:
        raise ValueError(f"need 2 <= n <= 8 vectors for factorial enumeration, got {n}")
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= n, got k = {k}")
    dim = len(rows[0])
    if any(len(r) != dim for r in rows):
        raise ValueError("vectors must share one dimension")
    mean = tuple(sum(r[d] for r in rows) / n for d in range(dim))
    total = Fraction(0)
    for perm in itertools.permutations(range(n)):
        prefix = tuple(sum(rows[i][d] for i in perm[:k]) / k for d in range(dim))
        total += sum((prefix[d] - mean[d]) ** 2 for d in range(dim))
    result = total / math.factorial(n)
    return result if exact else float(result)


def optimum_component_noise(problem, point=None) -> float:
    """Root mean squared component-gradient norm at the optimum.

    Uses the problem's known optimum unless ``point`` overrides it (for
    problems where only a best-found iterate is available).
    """
    if point is None:
        point = problem.optimum_point
    if point is None:
        raise ValueError("problem has no known optimum; pass a point explicitly")
    return math.sqrt(_squared_deviation_sum(problem, point, 0.0) / problem.n)


def _squared_deviation_sum(problem, w, center) -> float:
    """sum_i ||component gradient i at w - center||^2 from one validation
    of ``w`` and one ``component_gradients`` call (O(n*d) memory).  The
    row dots are added strictly in component order, as a per-component loop
    does: ``np.add.accumulate`` keeps that order, unlike ``np.sum``'s
    pairwise sum or Python 3.12's compensated ``sum`` of floats."""
    w, n = problem._check(w), problem.n
    D = problem.component_gradients(np.broadcast_to(w, (n, w.size)), np.arange(n))
    D -= center
    return float(np.add.accumulate(row_dots(D, D))[-1])


def sample_points_around(problem, count: int = 8, seed: int = 0, spread: float = 0.5,
                         include_anchors: bool = True) -> list[np.ndarray]:
    """Gaussian cloud of sample points around the initial point, for the
    estimators and probes; anchors (initial point and the optimum when
    known) are prepended unless disabled.
    """
    if count < 0:
        raise ValueError("count must be >= 0")
    center = problem.initial_point
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(0xA7,)))
    points = []
    if include_anchors:
        points.append(problem.initial_point)
        if problem.optimum_point is not None:
            points.append(problem.optimum_point)
    for _ in range(count):
        points.append(center + spread * rng.standard_normal(problem.dim))
    return points
