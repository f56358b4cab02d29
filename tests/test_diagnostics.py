import math
from fractions import Fraction

import numpy as np
import pytest

from shufflegrad import diagnostics
from shufflegrad.diagnostics import (
    brute_force_partial_average_variance,
    estimate_variance_constants,
    finite_difference_gradient,
    optimum_component_noise,
    probe_ell_envelope,
    sample_points_around,
)
from shufflegrad.problems import (
    DROProblem,
    ExpStrongProblem,
    PhaseRetrievalProblem,
    QuarticProblem,
    TinyQuadraticProblem,
)
from shufflegrad.shuffling import without_replacement_variance_factor
from shufflegrad.smoothness import EllFunction, row_dots


class _Scalar1D:
    """Minimal single-variable objective for probing curvature."""

    def __init__(self, grad, ell=None, initial=2.0):
        self._grad = grad
        self.declared_ell = ell
        self.initial_point = np.array([float(initial)])
        self.dim = 1
        self.optimum_point = None

    def full_gradient(self, w):
        return np.array([self._grad(float(w[0]))])


def _five_problems():
    rng = np.random.default_rng(5)
    return [QuarticProblem(), ExpStrongProblem(), PhaseRetrievalProblem(m=40, dim=6, seed=1),
            DROProblem(rng.standard_normal((30, 5)), rng.standard_normal(30)),
            TinyQuadraticProblem()]


def _squared_deviation_loop(problem, w, center):
    """sum_i ||component_gradient(w, i) - center||^2, one validated call at a time."""
    total = 0.0
    for i in range(problem.n):
        d = problem.component_gradient(w, i) - center
        total += float(np.dot(d, d))
    return total


_REFERENCE_SLOPES = (0.0,) + tuple(2.0**k for k in range(-20, 21))


def _reference_variance_fit(problem, points):
    g_sq = np.array([float(np.dot(g, g)) for g in map(problem.full_gradient, points)])
    v = np.array([_squared_deviation_loop(problem, w, problem.full_gradient(w)) / problem.n
                  for w in points])
    noise = [max(0.0, float(np.max(v - a * g_sq))) for a in _REFERENCE_SLOPES]
    slope, noise_sq = next((a, ns) for a, ns in zip(_REFERENCE_SLOPES, noise)
                           if ns <= min(noise) * 1.01)
    return slope, noise_sq, float(np.max(v - slope * g_sq - noise_sq)), float(np.max(v))


@pytest.mark.parametrize("problem", _five_problems(), ids=lambda p: type(p).__name__)
def test_estimators_match_scalar_reference_loops(problem):
    points = sample_points_around(problem, count=5, seed=4, spread=0.3, include_anchors=False)
    fit = estimate_variance_constants(problem, points)
    slope, noise_sq, worst, scale = _reference_variance_fit(problem, points)
    assert fit.slope == slope
    assert abs(fit.noise_sq - noise_sq) <= 1e-12 * noise_sq
    assert abs(fit.worst_margin - worst) <= 1e-12 * scale
    for w in points[:2]:
        reference = math.sqrt(_squared_deviation_loop(problem, w, 0.0) / problem.n)
        got = optimum_component_noise(problem, point=w)
        assert abs(got - reference) <= 1e-12 * reference


class _Rows:
    """Stub problem whose component gradients are fixed rows, whatever w."""

    def __init__(self, rows):
        self.rows, self.n = rows, len(rows)

    def _check(self, w):
        return np.asarray(w, dtype=float)

    def component_gradients(self, W, idx):
        return self.rows[idx].copy()


def _in_order_sum(values):
    total = 0.0
    for v in values.tolist():
        total += v
    return total


def test_squared_deviation_sum_adds_in_component_order():
    rng = np.random.default_rng(11)
    order_matters = False
    for n in (1, 2, 3, 1050, 3000):
        rows = rng.standard_normal((n, 3)) * 10.0 ** rng.uniform(-15, 15, size=(n, 1))
        center = rng.standard_normal(3)
        got = diagnostics._squared_deviation_sum(_Rows(rows), np.zeros(3), center)
        sq = row_dots(rows - center, rows - center)
        assert got.hex() == _in_order_sum(sq).hex()
        order_matters |= float(np.sum(sq)) != got
    assert order_matters  # the rows tell an in-order sum from numpy's pairwise one
    for problem in _five_problems():
        w = problem.initial_point + 0.3
        center = problem.full_gradient(w)
        D = problem.component_gradients(np.broadcast_to(w, (problem.n, problem.dim)),
                                        np.arange(problem.n)) - center
        got = diagnostics._squared_deviation_sum(problem, w, center)
        assert got.hex() == _in_order_sum(row_dots(D, D)).hex()


def test_estimators_keep_their_errors_for_bad_points():
    problem = QuarticProblem()
    bad_shape, bad_value = np.zeros(problem.dim - 1), np.full(problem.dim, np.nan)
    with pytest.raises(ValueError, match="point has shape"):
        estimate_variance_constants(problem, [problem.initial_point, bad_shape])
    with pytest.raises(ValueError, match="non-finite gradient at sample point 1"):
        estimate_variance_constants(problem, [problem.initial_point, bad_value])
    with pytest.raises(ValueError, match="point has shape"):
        optimum_component_noise(problem, point=bad_shape)
    with pytest.raises(ValueError, match="non-finite entries"):
        optimum_component_noise(problem, point=bad_value)


class TestVarianceFit:
    def test_identical_components_fit_to_zero(self):
        problem = TinyQuadraticProblem(centers=((1.0, 2.0),) * 3,
                                       initial_point=(0.0, 0.0))
        fit = estimate_variance_constants(problem, sample_points_around(problem, seed=1))
        assert fit.slope == 0.0
        assert fit.noise_sq == 0.0
        assert fit.worst_margin == 0.0

    def test_tiny_quadratic_exact_constants(self):
        # deviation of component gradients from the mean is the center
        # spread, which is 1 for the unit-ball centers at every point
        problem = TinyQuadraticProblem()
        fit = estimate_variance_constants(problem, sample_points_around(problem, seed=0))
        assert fit.slope == 0.0
        assert fit.noise_sq == pytest.approx(1.0, abs=1e-12)
        assert abs(fit.worst_margin) <= 1e-12
        assert fit.noise_std == pytest.approx(1.0, abs=1e-12)
        assert fit.sample_count == 10  # two anchors plus eight draws

    def test_quartic_variance_identity(self):
        # per-point variance is exactly 49 * ||grad F||^2 + 770/21
        problem = QuarticProblem()
        rng = np.random.default_rng(11)
        for point in (np.zeros(problem.dim), rng.normal(1.0, 0.5, problem.dim)):
            full = problem.full_gradient(point)
            dev = 0.0
            for i in range(problem.n):
                d = problem.component_gradient(point, i) - full
                dev += float(d @ d)
            v = dev / problem.n
            g_sq = float(full @ full)
            assert v == pytest.approx(49.0 * g_sq + 770.0 / 21.0, rel=1e-12)

    def test_quartic_near_stationary_fit(self):
        problem = QuarticProblem()
        rng = np.random.default_rng(np.random.SeedSequence(entropy=8, spawn_key=(0xC2,)))
        points = [np.zeros(problem.dim)]
        points += [rng.normal(0.0, 0.005, problem.dim) for _ in range(5)]
        fit = estimate_variance_constants(problem, points)
        assert fit.slope == 0.0
        assert fit.noise_sq == pytest.approx(770.0 / 21.0, abs=1e-9)

    def test_quartic_spread_fit_is_feasible(self):
        problem = QuarticProblem()
        points = sample_points_around(problem, count=6, seed=3)
        fit = estimate_variance_constants(problem, points)
        assert fit.worst_margin <= 1e-9
        assert fit.noise_sq == pytest.approx(770.0 / 21.0, rel=1e-2)
        for w in points:
            full = problem.full_gradient(w)
            g_sq = float(full @ full)
            assert 49.0 * g_sq + 770.0 / 21.0 <= fit.slope * g_sq + fit.noise_sq + 1e-9

    def test_needs_two_points(self):
        problem = TinyQuadraticProblem()
        with pytest.raises(ValueError):
            estimate_variance_constants(problem, [problem.initial_point])


class TestEnvelopeProbe:
    def test_identity_hessian(self):
        problem = TinyQuadraticProblem()
        report = probe_ell_envelope(problem, sample_points_around(problem, count=4))
        assert report.stagnated_count == 0
        assert report.violations == []
        for probe in report.probes:
            assert probe.hessian_norm == pytest.approx(1.0, abs=1e-4)
            assert probe.ell_bound == pytest.approx(1.05, abs=1e-12)

    def test_detects_undeclared_curvature(self):
        # pure quartic in one variable: curvature 12x^2 outgrows the
        # power modulus; at x = 2 the estimate is 48 against a bound
        # of 3 * 32^(2/3) * 1.05 ~ 31.8
        problem = _Scalar1D(lambda x: 4.0 * x**3)
        report = probe_ell_envelope(problem, [np.array([2.0])],
                                    ell=EllFunction.power(3.0, 2.0 / 3.0))
        assert len(report.probes) == 1
        probe = report.probes[0]
        assert probe.violated
        assert probe.hessian_norm == pytest.approx(48.0, rel=1e-3)
        assert probe.grad_norm == pytest.approx(32.0, rel=1e-3)
        assert report.violations == [0]

    def test_exponential_envelope_holds_on_grid(self):
        problem = _Scalar1D(lambda x: math.exp(x) - math.exp(-x) + x)
        report = probe_ell_envelope(
            problem, [np.array([x]) for x in np.linspace(-10.0, 10.0, 9)],
            ell=EllFunction.affine(5.0, 5.0))
        assert report.stagnated_count == 0
        assert report.violations == []

    def test_estimates_match_analytic_curvature(self):
        problem = _Scalar1D(lambda x: math.exp(x) - math.exp(-x) + x)
        xs = [0.0, 1.0, 2.0, 3.0]
        report = probe_ell_envelope(problem, [np.array([x]) for x in xs],
                                    ell=EllFunction.affine(5.0, 5.0))
        for x, probe in zip(xs, report.probes):
            expected = math.exp(x) + math.exp(-x) + 1.0
            assert probe.hessian_norm == pytest.approx(expected, rel=1e-4)

    def test_no_modulus_reports_without_verdict(self):
        problem = _Scalar1D(lambda x: 4.0 * x**3)
        report = probe_ell_envelope(problem, [np.array([2.0])])
        assert report.probes[0].ell_bound is None
        assert not report.probes[0].violated

    def test_zero_hessian_converges(self):
        problem = _Scalar1D(lambda x: 3.0)  # linear objective
        report = probe_ell_envelope(problem, [np.array([1.0])],
                                    ell=EllFunction.constant(1.0))
        assert report.stagnated_count == 0
        assert report.probes[0].hessian_norm == 0.0
        assert not report.probes[0].violated

    def test_stagnation_is_counted_not_reported(self, monkeypatch):
        monkeypatch.setattr(diagnostics, "_POWER_ITERATIONS", 1)
        problem = TinyQuadraticProblem()
        report = probe_ell_envelope(problem, sample_points_around(problem, count=2))
        assert report.probes == ()
        assert report.stagnated_count == 4


class TestBruteForceOracle:
    def test_matches_closed_form_exactly(self):
        rng = np.random.default_rng(21)
        for n in range(2, 7):
            vectors = [rng.integers(-5, 6, size=2).astype(float) for _ in range(n)]
            rows = [np.asarray(v) for v in vectors]
            mean = sum(rows) / n
            total = sum(Fraction(float((r - mean) @ (r - mean))) for r in rows)
            for k in range(1, n + 1):
                got = brute_force_partial_average_variance(vectors, k, exact=True)
                factor = without_replacement_variance_factor(n, k)
                assert got == factor * Fraction(total, n) or \
                    abs(float(got - factor * total / n)) < 1e-12

    def test_scalar_hand_value(self):
        # components 0 and 2: k = 1 prefixes are 0 or 2, each 1 away
        # from the mean, so the average squared deviation is 1
        assert brute_force_partial_average_variance([0.0, 2.0], 1) == pytest.approx(1.0)
        assert brute_force_partial_average_variance([0.0, 2.0], 2) == 0.0

    def test_full_prefix_has_zero_variance(self):
        rng = np.random.default_rng(5)
        vectors = [rng.normal(size=3) for _ in range(5)]
        assert brute_force_partial_average_variance(vectors, 5, exact=True) == 0

    def test_domain_errors(self):
        ok = [np.zeros(2)] * 3
        with pytest.raises(ValueError):
            brute_force_partial_average_variance(ok[:1], 1)
        with pytest.raises(ValueError):
            brute_force_partial_average_variance([np.zeros(2)] * 9, 1)
        with pytest.raises(ValueError):
            brute_force_partial_average_variance(ok, 0)
        with pytest.raises(ValueError):
            brute_force_partial_average_variance(ok, 4)
        with pytest.raises(ValueError):
            brute_force_partial_average_variance([np.zeros(2), np.zeros(3)], 1)


class TestOptimumNoise:
    def test_matches_declared_variance(self):
        problem = TinyQuadraticProblem()
        got = optimum_component_noise(problem)
        assert got == pytest.approx(math.sqrt(problem.gradient_variance()), rel=1e-12)

    def test_point_override(self):
        problem = TinyQuadraticProblem()
        at_start = optimum_component_noise(problem, point=problem.initial_point)
        assert at_start > optimum_component_noise(problem)

    def test_requires_known_optimum(self):
        noisy = PhaseRetrievalProblem(m=40, dim=8, seed=0, noise_std=1.0)
        with pytest.raises(ValueError):
            optimum_component_noise(noisy)


class TestSamplePoints:
    def test_anchors_prepended(self):
        problem = TinyQuadraticProblem()
        points = sample_points_around(problem, count=3, seed=0)
        assert len(points) == 5
        np.testing.assert_array_equal(points[0], problem.initial_point)
        np.testing.assert_array_equal(points[1], problem.optimum_point)

    def test_anchors_disabled(self):
        problem = TinyQuadraticProblem()
        points = sample_points_around(problem, count=3, seed=0, include_anchors=False)
        assert len(points) == 3

    def test_deterministic_and_seed_sensitive(self):
        problem = TinyQuadraticProblem()
        a = sample_points_around(problem, count=4, seed=7)
        b = sample_points_around(problem, count=4, seed=7)
        c = sample_points_around(problem, count=4, seed=8)
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x, y)
        assert any(not np.array_equal(x, y) for x, y in zip(a[2:], c[2:]))

    def test_center_and_spread(self):
        problem = TinyQuadraticProblem()
        points = sample_points_around(problem, count=4, seed=0, spread=1e-12,
                                      include_anchors=False)
        for p in points:
            np.testing.assert_allclose(p, problem.initial_point, atol=1e-10)

    def test_count_validation(self):
        problem = TinyQuadraticProblem()
        assert sample_points_around(problem, count=0, include_anchors=False) == []
        with pytest.raises(ValueError):
            sample_points_around(problem, count=-1)


def test_finite_difference_gradient():
    def func(w):
        return math.sin(w[0]) + w[1] ** 2

    w = np.array([0.7, -1.3])
    got = finite_difference_gradient(func, w)
    np.testing.assert_allclose(got, [math.cos(0.7), -2.6], rtol=1e-7)
