import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from shufflegrad.problems import (
    DROProblem,
    ExpStrongProblem,
    PhaseRetrievalProblem,
    QuarticProblem,
    TinyQuadraticProblem,
    build_problem,
)


def _mean_component_value(problem, w):
    return np.mean([problem.component_value(w, i) for i in range(problem.n)])


def _mean_component_gradient(problem, w):
    return np.mean([problem.component_gradient(w, i) for i in range(problem.n)], axis=0)


def _problems_for_consistency():
    rng = np.random.default_rng(42)
    return [
        (QuarticProblem(), None),
        (ExpStrongProblem(), None),
        (PhaseRetrievalProblem(m=40, dim=6, seed=1), None),
        (DROProblem(rng.standard_normal((30, 5)), rng.standard_normal(30)), None),
        (TinyQuadraticProblem(), None),
    ]


@pytest.mark.parametrize("problem,_", _problems_for_consistency(),
                         ids=lambda p: type(p).__name__ if not isinstance(p, type(None)) else "")
@settings(max_examples=15, deadline=None)
@given(scale=st.sampled_from((0.01, 0.3, 1.0)), seed=st.integers(0, 2**32 - 1))
def test_full_oracle_is_component_mean(problem, _, scale, seed):
    rng = np.random.default_rng(seed)
    w = problem.initial_point + scale * rng.standard_normal(problem.dim)
    w[np.abs(w) < 1e-3] += 5e-3
    assert problem.full_value(w) == pytest.approx(_mean_component_value(problem, w), rel=1e-12)
    np.testing.assert_allclose(
        problem.full_gradient(w), _mean_component_gradient(problem, w), rtol=1e-10, atol=1e-12)


@pytest.mark.parametrize("problem,_", _problems_for_consistency(),
                         ids=lambda p: type(p).__name__ if not isinstance(p, type(None)) else "")
def test_max_component_gradient_hook(problem, _):
    rng = np.random.default_rng(13)
    for _ in range(2):
        w = problem.initial_point + 0.2 * rng.standard_normal(problem.dim)
        w[np.abs(w) < 1e-3] += 5e-3
        brute = max(
            float(np.linalg.norm(problem.component_gradient(w, i))) for i in range(problem.n)
        )
        assert problem.max_component_gradient_norm(w) == pytest.approx(brute, rel=1e-12)


_ORACLE_PROBLEMS = [problem for problem, _ in _problems_for_consistency()]


def _rounding_scale(problem, w, i):
    """Norm of component i's gradient formula evaluated on absolute values.

    Two evaluations of the same formula that round differently (BLAS dot
    against einsum, scalar against array pow) differ by a few ulps of
    this magnitude, which cancellation (q^2 - y in phase retrieval,
    4x^3 + k in the quartic) can make far larger than the gradient.
    """
    a = np.abs(w)
    if isinstance(problem, QuarticProblem):
        return 4.0 * a[problem._coord[i]] ** 3 + abs(problem._offset[i])
    if isinstance(problem, ExpStrongProblem):
        x, k = w[problem._coord[i]], problem._offset[i]
        return np.linalg.norm(a) + np.exp(x - k) + np.exp(k - x)
    if isinstance(problem, PhaseRetrievalProblem):
        v = problem.vectors[i]
        q = np.abs(v) @ a
        return (2.0 * q**3 + 2.0 * abs(problem.targets[i]) * q) * np.linalg.norm(v)
    if isinstance(problem, DROProblem):
        x, reg = problem.features[i], problem.REG_WEIGHT
        r = abs(problem.targets[i]) + np.abs(x) @ a[:-1]
        loss = 0.5 * r * r + reg * np.sum(np.log1p(a[:-1]))
        coef = 0.5 * ((loss + a[-1]) / problem.lam + 2.0) / problem.lam
        return coef * (r * np.linalg.norm(x) + reg * np.sqrt(x.size)) + 1.0 + coef
    return np.linalg.norm(a) + np.linalg.norm(problem.centers[i])


@settings(max_examples=60, deadline=None)
@given(which=st.integers(0, len(_ORACLE_PROBLEMS) - 1), rows=st.integers(1, 6),
       scale=st.sampled_from((0.01, 0.3, 2.0)), seed=st.integers(0, 2**32 - 1))
def test_batched_oracle_matches_component_gradient(which, rows, scale, seed):
    problem = _ORACLE_PROBLEMS[which]
    rng = np.random.default_rng(seed)
    W = problem.initial_point + scale * rng.standard_normal((rows, problem.dim))
    idx = rng.integers(0, problem.n, size=rows)
    G = problem.component_gradients(W, idx)
    assert G.shape == W.shape
    for r in range(rows):
        g = problem.component_gradient(W[r], int(idx[r]))
        tol = 1e-13 * _rounding_scale(problem, W[r], int(idx[r]))
        assert np.linalg.norm(G[r] - g) <= tol, (r, G[r], g)


@settings(max_examples=60, deadline=None)
@given(which=st.integers(0, len(_ORACLE_PROBLEMS) - 1), rows=st.integers(1, 8),
       scale=st.sampled_from((0.01, 0.3, 2.0)), seed=st.integers(0, 2**32 - 1))
def test_batched_values_and_hook_match_row_by_row(which, rows, scale, seed):
    problem = _ORACLE_PROBLEMS[which]
    rng = np.random.default_rng(seed)
    W = problem.initial_point + scale * rng.standard_normal((rows, problem.dim))
    values = problem.full_values(W)
    grads = problem.full_gradients(W)
    norms = problem.max_component_gradient_norms(W)
    assert values.shape == norms.shape == (rows,)
    assert grads.shape == W.shape
    for r in range(rows):
        assert values[r] == problem.full_value(W[r].copy())  # bit for bit
        assert np.array_equal(grads[r], problem.full_gradient(W[r].copy()))
        brute = max(float(np.linalg.norm(problem.component_gradient(W[r], i)))
                    for i in range(problem.n))
        assert abs(norms[r] - brute) <= 1e-12 * brute, (r, norms[r], brute)


@pytest.mark.parametrize("problem", _ORACLE_PROBLEMS, ids=lambda p: type(p).__name__)
def test_batched_oracles_take_an_empty_block(problem):
    empty = np.empty((0, problem.dim))
    assert problem.full_values(empty).shape == (0,)
    assert problem.full_gradients(empty).shape == (0, problem.dim)
    assert problem.max_component_gradient_norms(empty).shape == (0,)


def test_input_validation():
    p = TinyQuadraticProblem()
    with pytest.raises(ValueError):
        p.component_value(np.zeros(3), 0)
    with pytest.raises(ValueError):
        p.component_value(np.array([np.nan, 0.0]), 0)
    with pytest.raises(IndexError):
        p.component_gradient(np.zeros(2), 4)


class TestQuartic:
    def test_shape_and_objective(self):
        p = QuarticProblem()
        assert (p.dim, p.n) == (50, 1050)
        assert p.full_value(np.ones(50)) == pytest.approx(1.0)
        assert p.full_value(np.zeros(50)) == 0.0
        assert p.optimum_value == 0.0
        np.testing.assert_array_equal(p.optimum_point, np.zeros(50))
        np.testing.assert_array_equal(p.initial_point, np.ones(50))

    def test_component_index_layout(self):
        p = QuarticProblem()
        assert p.component_index(0, -10) == 0
        assert p.component_index(0, 10) == 20
        assert p.component_index(2, 0) == 2 * 21 + 10
        w = np.zeros(50)
        w[2] = 1.5
        i = p.component_index(2, 3)
        assert p.component_value(w, i) == pytest.approx(1.5**4 + 3 * 1.5)
        g = p.component_gradient(w, i)
        assert g[2] == pytest.approx(4 * 1.5**3 + 3)
        assert np.count_nonzero(g) == 1
        with pytest.raises(IndexError):
            p.component_index(50, 0)
        with pytest.raises(IndexError):
            p.component_index(0, 11)

    def test_offsets_cancel_in_full_gradient(self):
        p = QuarticProblem()
        rng = np.random.default_rng(3)
        w = rng.standard_normal(50)
        np.testing.assert_allclose(p.full_gradient(w), 4.0 * w**3 / 50)


class TestExpStrong:
    def test_origin_is_stationary(self):
        p = ExpStrongProblem()
        np.testing.assert_allclose(p.full_gradient(np.zeros(50)), np.zeros(50), atol=1e-12)
        assert p.optimum_value == pytest.approx(p.full_value(np.zeros(50)))
        assert p.strong_convexity == 1.0

    def test_symmetry(self):
        p = ExpStrongProblem()
        rng = np.random.default_rng(5)
        w = rng.standard_normal(50)
        assert p.full_value(w) == pytest.approx(p.full_value(-w), rel=1e-12)

    def test_components_are_strongly_convex(self):
        # finite-difference curvature along random directions >= 1
        p = ExpStrongProblem()
        rng = np.random.default_rng(11)
        w = 0.5 * rng.standard_normal(50)
        h = 1e-4
        for i in (0, 500, 1049):
            d = rng.standard_normal(50)
            d /= np.linalg.norm(d)
            curv = (
                p.component_value(w + h * d, i)
                - 2 * p.component_value(w, i)
                + p.component_value(w - h * d, i)
            ) / h**2
            assert curv >= 1.0 - 1e-4


class TestPhaseRetrieval:
    def test_data_is_seed_deterministic(self):
        a = PhaseRetrievalProblem(m=25, dim=4, seed=9)
        b = PhaseRetrievalProblem(m=25, dim=4, seed=9)
        c = PhaseRetrievalProblem(m=25, dim=4, seed=10)
        np.testing.assert_array_equal(a.vectors, b.vectors)
        np.testing.assert_array_equal(a.targets, b.targets)
        assert not np.array_equal(a.targets, c.targets)

    def test_noiseless_optimum_known(self):
        p = PhaseRetrievalProblem(m=30, dim=5, seed=2, noise_std=0.0)
        assert p.optimum_value == 0.0
        assert p.full_value(p.optimum_point) == pytest.approx(0.0, abs=1e-20)

    def test_noisy_optimum_unknown(self):
        p = PhaseRetrievalProblem(m=30, dim=5, seed=2)
        assert p.optimum_point is None
        assert p.optimum_value is None

    def test_bad_shapes(self):
        with pytest.raises(ValueError):
            PhaseRetrievalProblem(m=0, dim=3)


class TestDRO:
    def _problem(self, rows=20, dim=4, lam=0.01):
        rng = np.random.default_rng(21)
        return DROProblem(rng.standard_normal((rows, dim)), rng.standard_normal(rows), lam=lam)

    def test_joint_variable_layout(self):
        p = self._problem()
        assert p.dim == p.feature_dim + 1
        v = p.initial_point
        w, theta = p.split(v)
        assert w.shape == (p.feature_dim,)
        assert theta == pytest.approx(0.1)

    def test_shift_gradient_component(self):
        p = self._problem()
        v = p.initial_point
        g = p.full_gradient(v)
        # last coordinate is 1 - mean(penalty slope); finite differences agree
        h = 1e-6
        vp, vm = v.copy(), v.copy()
        vp[-1] += h
        vm[-1] -= h
        fd = (p.full_value(vp) - p.full_value(vm)) / (2 * h)
        assert g[-1] == pytest.approx(fd, rel=1e-6)

    def test_sign_convention_at_zero_weight(self):
        # the regularizer's subgradient at 0 is taken as 0
        p = self._problem()
        v = np.zeros(p.dim)
        g = p.component_gradient(v, 0)
        x = p.features[0]
        r = p.targets[0]
        loss = 0.5 * r * r
        from shufflegrad.problems import _psi_star_prime

        coef = float(_psi_star_prime((loss - 0.0) / p.lam)) / p.lam
        np.testing.assert_allclose(g[:-1], coef * (-r * x), rtol=1e-12)


class TestTinyQuadratic:
    def test_optimum_and_variance(self):
        p = TinyQuadraticProblem()
        np.testing.assert_array_equal(p.optimum_point, np.zeros(2))
        assert p.gradient_variance() == pytest.approx(1.0)
        assert p.optimum_value == pytest.approx(0.5 * 1.0)

    def test_custom_centers(self):
        p = TinyQuadraticProblem(centers=((1, 0), (-1, 0)), initial_point=(0, 0))
        np.testing.assert_array_equal(p.optimum_point, np.zeros(2))
        assert p.n == 2
        assert p.component_gradient(np.zeros(2), 0) @ np.array([1, 0]) == -1.0


def test_build_problem_registry():
    assert isinstance(build_problem({"id": "quartic"}), QuarticProblem)
    p = build_problem({"id": "phase_retrieval", "m": 10, "dim": 3, "seed": 4})
    assert (p.n, p.dim) == (10, 3)
    tq = build_problem({"id": "tiny_quadratic", "centers": ((2, 0), (0, 2))})
    assert tq.n == 2
    dro = build_problem({"id": "dro", "dataset": {"synthetic": {"seed": 3, "rows": 12, "dim": 4}}})
    assert dro.n == 12


def test_build_problem_rejects_unknown():
    with pytest.raises(ValueError):
        build_problem({"id": "cubic"})
    with pytest.raises(ValueError):
        build_problem({"id": "quartic", "dim": 10})
    with pytest.raises(ValueError):
        build_problem({})
    with pytest.raises(ValueError):
        build_problem({"id": "phase_retrieval", "rows": 5})
