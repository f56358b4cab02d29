import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from shufflegrad.optimize import _epoch_pass
from shufflegrad.problems import (
    _NORM_BLOCK,
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


def _phase_reference(problem, W, idx):
    # the unbuffered formula of phase_retrieval's component gradients
    A, y = problem.vectors[idx], problem.targets[idx]
    q = np.vecdot(A, W)
    return (2.0 * (q * q - y) * q)[:, None] * A


def _dro_reference(problem, V, idx):
    # the unbuffered formula of dro's component gradients
    X, y = problem.features[idx], problem.targets[idx]
    W, theta = V[:, :-1], V[:, -1]
    r = y - np.vecdot(X, W)
    a = np.abs(W)
    loss = 0.5 * r * r + problem.REG_WEIGHT * np.add.reduce(np.log1p(a), axis=1)
    coef = 0.5 * np.maximum((loss - theta) / problem.lam + 2.0, 0.0) / problem.lam
    G = np.empty(V.shape)
    np.multiply(coef[:, None], -r[:, None] * X + problem.REG_WEIGHT * np.sign(W) / (1.0 + a),
                out=G[:, :-1])
    np.subtract(1.0, coef, out=G[:, -1])
    return G


def _dro(lam):
    return build_problem({"id": "dro", "lam": lam,
                          "dataset": {"synthetic": {"seed": 7, "rows": 80, "dim": 6}}})


# dro at lam 1 divides exactly by lam; 0.01 and 0.3 round
_KERNEL_PROBLEMS = {"phase_retrieval": PhaseRetrievalProblem(m=60, dim=12, seed=0),
                    "dro-0.01": _dro(0.01), "dro-0.3": _dro(0.3)}


def _with_special_entries(rng, X):
    for value, share in [(0.0, 0.05), (-0.0, 0.05), (np.inf, 0.01), (-np.inf, 0.01),
                         (np.nan, 0.01)]:
        X[rng.random(X.shape) < share] = value
    return X


def _one_nan_bits(x):
    return np.where(np.isnan(x), np.nan, x).view(np.int64)


@settings(max_examples=80, deadline=None)
@given(name=st.sampled_from(sorted(_KERNEL_PROBLEMS)), rows=st.integers(1, 40),
       log_scale=st.one_of(st.floats(-3, 2), st.floats(60, 200)), seed=st.integers(0, 2**32 - 1))
def test_component_gradients_are_the_unbuffered_formula_bit_for_bit(name, rows, log_scale, seed):
    # large scales overflow to inf, and injected inf and NaN entries, as a
    # diverging epoch makes them, give NaN; dro's NaN entries compare as
    # one NaN, as their sign can follow the loop numpy picks
    problem = _KERNEL_PROBLEMS[name]
    rng = np.random.default_rng(seed)
    W = _with_special_entries(rng, 10.0**log_scale * rng.standard_normal((rows, problem.dim)))
    idx = rng.integers(0, problem.n, rows)
    with np.errstate(over="ignore", invalid="ignore"):
        got = problem.component_gradients(W, idx)
        if name == "phase_retrieval":
            want, bits = _phase_reference(problem, W, idx), lambda x: x.view(np.int64)
        else:
            want, bits = _dro_reference(problem, W, idx), _one_nan_bits
    np.testing.assert_array_equal(bits(got), bits(want))


_TINY = TinyQuadraticProblem(np.arange(36.0).reshape(12, 3) % 5 - 2)
_ALL_KERNEL_PROBLEMS = {**_KERNEL_PROBLEMS, "quartic": QuarticProblem(),
                        "exp_strong": ExpStrongProblem(), "tiny_quadratic": _TINY}


@pytest.mark.parametrize("name", sorted(_ALL_KERNEL_PROBLEMS))
def test_component_gradients_return_fresh_arrays(name):
    # _epoch_pass adds a batch's later gradients into its first result
    problem = _ALL_KERNEL_PROBLEMS[name]
    rng = np.random.default_rng(3)
    W = rng.standard_normal((5, problem.dim))
    first = problem.component_gradients(W, np.arange(5))
    kept = first.copy()
    second = problem.component_gradients(W, np.arange(5, 10))
    assert second is not first and not np.shares_memory(first, second)
    np.testing.assert_array_equal(first, kept)
    before = W.copy()
    orders = np.stack([rng.permutation(problem.n) for _ in range(5)], axis=1)
    for batch_size in (1, 2):  # the epoch's work arrays are its own
        with np.errstate(over="ignore", invalid="ignore"):  # dro at lam 0.01 overflows
            _epoch_pass(problem, W, orders, np.full(5, 1e-4), batch_size)
        np.testing.assert_array_equal(first, kept)
        np.testing.assert_array_equal(W.view(np.int64), before.view(np.int64))


# the kernels that write one output array; dro at lam 1 divides exactly
_BOUND_PROBLEMS = {"phase_retrieval": _KERNEL_PROBLEMS["phase_retrieval"],
                   "dro-0.01": _KERNEL_PROBLEMS["dro-0.01"], "dro-1": _dro(1.0),
                   "tiny_quadratic": _TINY}


@settings(max_examples=60, deadline=None)
@given(name=st.sampled_from(sorted(_BOUND_PROBLEMS)), rows=st.sampled_from((1, 8)),
       seed=st.integers(0, 2**32 - 1))
def test_bound_kernel_reads_its_block_in_place(name, rows, seed):
    # _epoch_pass binds one kernel to its block, then steps W -= g in place:
    # each call must read the block as it is now and write one output
    problem = _BOUND_PROBLEMS[name]
    bits = _one_nan_bits if name.startswith("dro") else (lambda x: x.view(np.int64))
    rng = np.random.default_rng(seed)
    W = _with_special_entries(rng, rng.standard_normal((rows, problem.dim)))
    grad = problem._kernel(W)
    with np.errstate(over="ignore", invalid="ignore"):
        out = grad(*(table[rng.integers(0, problem.n, rows)] for table in problem._tables))
        for _ in range(3):
            D = _with_special_entries(rng, rng.standard_normal(W.shape))
            same = rng.random(W.shape) < 0.1
            D[same] = W[same]  # steps to exact zeros
            W -= D
            idx = rng.integers(0, problem.n, rows)
            got = grad(*(table[idx] for table in problem._tables))
            assert got is out
            want = problem.component_gradients(W.copy(), idx)
            np.testing.assert_array_equal(bits(got), bits(want))


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


@settings(max_examples=20, deadline=None)
@given(quartic=st.booleans(), scale=st.sampled_from((0.01, 0.3, 2.0)),
       seed=st.integers(0, 2**32 - 1))
def test_max_norms_rows_are_one_row_calls_and_brute_force(quartic, scale, seed):
    # quartic takes one point per call; tiny_quadratic's block spans two calls
    problem = QuarticProblem() if quartic else TinyQuadraticProblem()
    per_call = max(1, _NORM_BLOCK // (problem.n * problem.dim))
    rng = np.random.default_rng(seed)
    W = problem.initial_point + scale * rng.standard_normal((3 if quartic else per_call + 3,
                                                             problem.dim))
    norms = problem.max_component_gradient_norms(W)
    edges = {0, per_call - 1, min(per_call, len(W) - 1), len(W) - 1}
    for r in edges | set(rng.choice(len(W), size=3, replace=False).tolist()):
        assert norms[r] == problem.max_component_gradient_norm(W[r])  # bit for bit
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
        # component (coordinate c, offset k) has flat index c*21 + k + 10
        p = QuarticProblem()
        w = np.full(50, 0.5)
        for i, (c, k) in {0: (0, -10), 20: (0, 10), 52: (2, 0), 55: (2, 3), 1049: (49, 10)}.items():
            w[c] = 1.5
            assert p.component_value(w, i) == pytest.approx(1.5**4 + k * 1.5)
            g = p.component_gradient(w, i)
            assert g[c] == pytest.approx(4 * 1.5**3 + k)
            assert np.count_nonzero(g) == 1
            w[c] = 0.5

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
