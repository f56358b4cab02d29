import dataclasses
import pickle
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from shufflegrad import optimize, shuffling
from shufflegrad.cli import _CHECK_PROBLEMS
from shufflegrad.optimize import (
    DivergenceError,
    RunConfig,
    TrajectoryRecord,
    _epoch_pass,
    _run_table,
    averaged_iterate,
    run_sgd,
    run_shuffling,
)
from shufflegrad.problems import (ExpStrongProblem, QuarticProblem, TinyQuadraticProblem,
                                  build_problem)
from shufflegrad.shuffling import Scheme, permutation_for_epoch
from test_shuffling import reference_order


def _two_center_problem(initial=(0.0, 0.0)):
    return TinyQuadraticProblem(centers=((1.0, 0.0), (-1.0, 0.0)),
                                initial_point=initial)


class TestHandTrace:
    """Exact two-epoch trace with per-step size 0.25 and natural order.

    Start (0, 0); within epoch 1 the iterate visits (0.25, 0) then
    (-0.0625, 0); epoch 2 ends at (-0.09765625, 0).
    """

    def run(self):
        problem = _two_center_problem()
        scheme = Scheme.fixed(2)
        config = RunConfig(step_size=0.25, epochs=2)
        return run_shuffling(problem, scheme, config)

    def test_rows_are_entering_iterates(self):
        rec = self.run()
        np.testing.assert_array_equal(rec.epoch, [1, 2])
        np.testing.assert_array_equal(rec.evals, [2, 4])
        np.testing.assert_allclose(rec.objective, [0.5, 0.501953125], rtol=0, atol=0)
        np.testing.assert_allclose(rec.grad_norm_sq, [0.0, 0.00390625], rtol=0, atol=0)
        np.testing.assert_allclose(rec.dist_sq, [0.0, 0.00390625], rtol=0, atol=0)

    def test_final_and_averaged_points(self):
        rec = self.run()
        np.testing.assert_allclose(rec.final_point, [-0.09765625, 0.0], rtol=0, atol=0)
        np.testing.assert_allclose(averaged_iterate(rec), [-0.03125, 0.0], rtol=0, atol=0)

    def test_wall_clock_monotone(self):
        rec = self.run()
        assert np.all(np.diff(rec.wall_ms) >= 0)


def test_zero_stepsize_freezes_iterate():
    problem = TinyQuadraticProblem()
    rec = run_shuffling(problem, Scheme.random_reshuffle(problem.n, seed=3),
                        RunConfig(step_size=0.0, epochs=4))
    np.testing.assert_array_equal(rec.final_point, problem.initial_point)
    assert np.all(rec.objective == rec.objective[0])
    np.testing.assert_array_equal(rec.evals, [4, 8, 12, 16])


def test_descent_on_quadratic():
    problem = TinyQuadraticProblem()
    rec = run_shuffling(problem, Scheme.shuffle_once(problem.n, seed=1),
                        RunConfig(step_size=0.05, epochs=60))
    assert rec.objective[-1] < rec.objective[0]
    assert rec.objective[-1] - problem.optimum_value < 1e-2


def test_row_count_and_eval_counter():
    problem = QuarticProblem()
    rec = run_shuffling(problem, Scheme.random_reshuffle(problem.n, seed=0),
                        RunConfig(step_size=0.01 / problem.n, epochs=5,
                                  track_average=False))
    assert rec.completed_epochs == 5
    np.testing.assert_array_equal(rec.epoch, np.arange(1, 6))
    np.testing.assert_array_equal(rec.evals, np.arange(1, 6) * problem.n)
    assert rec.averaged_point is None


def test_order_changes_trajectory():
    problem = _two_center_problem(initial=(2.0, 2.0))
    config = RunConfig(step_size=0.25, epochs=1)
    forward = run_shuffling(problem, Scheme.fixed(2, order=(0, 1)), config)
    backward = run_shuffling(problem, Scheme.fixed(2, order=(1, 0)), config)
    assert not np.allclose(forward.final_point, backward.final_point)


def test_identical_components_make_order_irrelevant():
    problem = TinyQuadraticProblem(centers=((1.0, 1.0),) * 3,
                                   initial_point=(4.0, 0.0))
    config = RunConfig(step_size=0.2, epochs=6)
    runs = [
        run_shuffling(problem, Scheme.fixed(3), config),
        run_shuffling(problem, Scheme.random_reshuffle(3, seed=9), config),
        run_sgd(problem, config, seed=5),
    ]
    for other in runs[1:]:
        np.testing.assert_array_equal(runs[0].objective, other.objective)
        np.testing.assert_array_equal(runs[0].final_point, other.final_point)


def test_shuffling_determinism():
    problem = TinyQuadraticProblem()
    config = RunConfig(step_size=0.1, epochs=10)
    a = run_shuffling(problem, Scheme.random_reshuffle(problem.n, seed=13), config)
    b = run_shuffling(problem, Scheme.random_reshuffle(problem.n, seed=13), config)
    np.testing.assert_array_equal(a.objective, b.objective)
    np.testing.assert_array_equal(a.grad_norm_sq, b.grad_norm_sq)
    np.testing.assert_array_equal(a.dist_sq, b.dist_sq)
    np.testing.assert_array_equal(a.final_point, b.final_point)


class TestSgd:
    def test_determinism_and_seed_sensitivity(self):
        problem = TinyQuadraticProblem()
        config = RunConfig(step_size=0.1, epochs=10)
        a = run_sgd(problem, config, seed=2)
        b = run_sgd(problem, config, seed=2)
        c = run_sgd(problem, config, seed=3)
        np.testing.assert_array_equal(a.objective, b.objective)
        np.testing.assert_array_equal(a.final_point, b.final_point)
        assert not np.array_equal(a.final_point, c.final_point)

    def test_matches_eval_budget(self):
        problem = TinyQuadraticProblem()
        rec = run_sgd(problem, RunConfig(step_size=0.1, epochs=3), seed=0)
        np.testing.assert_array_equal(rec.evals, [4, 8, 12])

    def test_draws_independent_of_permutation_stream(self):
        # an sgd run and a reshuffling run with the same seed must differ
        problem = TinyQuadraticProblem()
        config = RunConfig(step_size=0.1, epochs=8)
        sgd = run_sgd(problem, config, seed=7)
        shuffled = run_shuffling(problem, Scheme.random_reshuffle(problem.n, seed=7),
                                 config)
        assert not np.array_equal(sgd.final_point, shuffled.final_point)


def test_batch_means_one_step_per_epoch():
    problem = _two_center_problem(initial=(2.0, 2.0))
    rec = run_shuffling(problem, Scheme.fixed(2),
                        RunConfig(step_size=0.25, epochs=1, batch_size=2))
    # mean gradient at (2,2) is (2,2); one step of 0.25 lands at (1.5, 1.5)
    np.testing.assert_allclose(rec.final_point, [1.5, 1.5], rtol=0, atol=0)
    np.testing.assert_array_equal(rec.evals, [2])


def test_uneven_batches_cover_all_components():
    problem = TinyQuadraticProblem()  # n = 4
    rec = run_shuffling(problem, Scheme.fixed(4),
                        RunConfig(step_size=0.1, epochs=2, batch_size=3))
    assert rec.completed_epochs == 2
    np.testing.assert_array_equal(rec.evals, [4, 8])


def test_initial_point_override():
    problem = TinyQuadraticProblem()
    rec = run_shuffling(problem, Scheme.fixed(4),
                        RunConfig(step_size=0.0, epochs=1,
                                  initial_point=np.array([5.0, -1.0])))
    np.testing.assert_array_equal(rec.final_point, [5.0, -1.0])
    with pytest.raises(ValueError):
        run_shuffling(problem, Scheme.fixed(4),
                      RunConfig(step_size=0.0, epochs=1,
                                initial_point=np.zeros(3)))


def test_scheme_size_mismatch():
    problem = TinyQuadraticProblem()
    with pytest.raises(ValueError, match="n = 3"):
        run_shuffling(problem, Scheme.fixed(3), RunConfig(step_size=0.1, epochs=1))


def test_run_config_validation():
    with pytest.raises(ValueError):
        RunConfig(step_size=-0.1, epochs=1)
    with pytest.raises(ValueError):
        RunConfig(step_size=float("nan"), epochs=1)
    with pytest.raises(ValueError):
        RunConfig(step_size=0.1, epochs=0)
    with pytest.raises(ValueError):
        RunConfig(step_size=0.1, epochs=1, batch_size=0)
    with pytest.raises(ValueError):
        RunConfig(step_size=0.1, epochs=1, divergence_threshold=0.0)
    with pytest.raises(ValueError, match="epochs must be a non-negative integer, got 2.5"):
        RunConfig(step_size=0.1, epochs=2.5)
    with pytest.raises(ValueError, match="batch_size must be a non-negative integer, got 1.5"):
        RunConfig(step_size=0.1, epochs=1, batch_size=1.5)


class TestDivergence:
    def test_error_survives_pickling(self):
        # __reduce__ lets a caller's own process pool return one
        problem = TinyQuadraticProblem()
        with pytest.raises(DivergenceError) as err:
            run_shuffling(problem, Scheme.random_reshuffle(problem.n, 14),
                          RunConfig(step_size=2.2, epochs=70, divergence_threshold=1e4))
        want = err.value
        got = pickle.loads(pickle.dumps(want))
        assert want.record.completed_epochs == 4 and want.record.averaged_point is not None
        assert (got.epoch, got.step_index, got.last_value, str(got)) == (
            want.epoch, want.step_index, want.last_value, str(want))
        for field in dataclasses.fields(TrajectoryRecord):
            np.testing.assert_array_equal(getattr(got.record, field.name),
                                          getattr(want.record, field.name))

    def test_error_carries_partial_record(self):
        problem = QuarticProblem()
        with pytest.raises(DivergenceError) as err:
            run_shuffling(problem, Scheme.fixed(problem.n),
                          RunConfig(step_size=10.0, epochs=50))
        e = err.value
        assert e.epoch >= 1
        assert 0 <= e.step_index < problem.n
        assert np.isfinite(e.last_value)
        assert e.record.completed_epochs == e.epoch - 1
        if e.record.completed_epochs:
            np.testing.assert_array_equal(e.record.epoch,
                                          np.arange(1, e.epoch))

    def test_threshold_triggers_before_overflow(self):
        problem = TinyQuadraticProblem(centers=((1.0, 0.0), (-1.0, 0.0)),
                                       initial_point=(100.0, 0.0))
        with pytest.raises(DivergenceError):
            run_shuffling(problem, Scheme.fixed(2),
                          RunConfig(step_size=0.25, epochs=3,
                                    divergence_threshold=50.0))

    @pytest.mark.parametrize("centers,start,step_index", [
        (((100.0, 0.0), (-100.0, 0.0)), (0.0, 0.0), 1),  # objective 5000, norm 0
        (((100.0, 0.0), (100.0, 0.0)), (100.0, 0.0), 0),  # objective 0, norm 100
    ])
    def test_norm_or_objective_beyond_threshold_diverges(self, centers, start, step_index):
        problem = TinyQuadraticProblem(centers=centers, initial_point=start)
        with pytest.raises(DivergenceError) as err:
            run_shuffling(problem, Scheme.fixed(2),
                          RunConfig(step_size=0.0, epochs=3, divergence_threshold=50.0))
        assert (err.value.epoch, err.value.step_index) == (1, step_index)

    def test_overflow_raises_no_warning(self):
        problem = QuarticProblem()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DivergenceError):
                run_shuffling(problem, Scheme.fixed(problem.n),
                              RunConfig(step_size=10.0, epochs=5))

    @pytest.mark.parametrize("spec,kind,step,batch_size", [
        ({"id": "quartic"}, "fixed", 10.0, 1),
        ({"id": "quartic"}, "random_reshuffle", 10.0, 3),
        ({"id": "phase_retrieval", "m": 60, "dim": 12, "seed": 0}, "random_reshuffle", 1e-3, 1),
        ({"id": "dro", "lam": 1.0, "dataset": {"synthetic": {"seed": 7, "rows": 60, "dim": 5}}},
         "shuffle_once", 0.3, 2),
        ({"id": "quartic"}, "random_reshuffle", 10.0, 1),
    ])
    def test_step_index_is_first_escape_of_scalar_loop(self, spec, kind, step, batch_size):
        problem = build_problem(spec)
        scheme = Scheme(kind, problem.n, seed=5)
        threshold = 1e50
        with pytest.raises(DivergenceError) as err:
            run_shuffling(problem, scheme, RunConfig(step_size=step, epochs=4,
                                                     batch_size=batch_size))
        e = err.value
        # Replay the diverged epoch from its entering iterate, one
        # component gradient at a time.
        w = e.record.final_point
        order = permutation_for_epoch(scheme, e.epoch)
        escaped = None
        with np.errstate(over="ignore", invalid="ignore"):
            for j, lo in enumerate(range(0, problem.n, batch_size)):
                batch = order[lo:lo + batch_size]
                g = sum(problem.component_gradient(w, int(i)) for i in batch) / len(batch)
                w = w - step * g
                if not np.isfinite(w).all() or np.linalg.norm(w) > threshold:
                    escaped = j
                    break
        assert escaped is not None
        assert e.step_index == escaped


# the shapes `shufflegrad check` uses: phase_retrieval m=60, dim=12 and
# dro on an 80-row synthetic dataset
_SPECS = {spec["id"]: spec for spec in _CHECK_PROBLEMS}


def _generic(problem_id):
    problem = build_problem(_SPECS[problem_id])
    problem.component_epoch = None  # _epoch_pass falls back to its step loop
    return problem


def _mixed_orders(rng, n, rows):
    """Permutation and with-replacement orders, one column per row."""
    return np.stack([rng.permutation(n) if rng.random() < 0.5 else rng.integers(0, n, n)
                     for _ in range(rows)], axis=1)


def _reference_pass(problem, W, orders, steps, batch_size, threshold=None):
    """The step loop written plainly, with the signature of _epoch_pass: a
    step is the mean of one component_gradients call per component of
    its batch, then ``g *= steps[:, None]; W -= g``; with a threshold the
    loop stops after the first step that takes a row outside the region."""
    W = W.copy()
    for j, lo in enumerate(range(0, len(orders), batch_size)):
        batch = orders[lo:lo + batch_size]
        g = problem.component_gradients(W, batch[0])
        for idx in batch[1:]:
            g += problem.component_gradients(W, idx)
        g /= len(batch)
        g *= steps[:, None]
        W -= g
        norms = np.sqrt(np.sum(W * W, axis=1))
        if threshold is not None and (~np.isfinite(W).all(axis=1) | (norms > threshold)).any():
            break
    return W, j


@settings(max_examples=120, deadline=None)
@given(problem_id=st.sampled_from(["quartic", "quartic-lanes", "exp_strong", "phase_retrieval",
                                   "dro", "tiny_quadratic"]),
       batch=st.sampled_from(["1", "2", "uneven"]), stop=st.booleans(), rows=st.integers(1, 40),
       log_scale=st.floats(-3, 2), zero_steps=st.integers(0, 40),
       seed=st.integers(0, 2**32 - 1))
def test_epoch_pass_is_the_reference_loop_bit_for_bit(problem_id, batch, stop, rows, log_scale,
                                                      zero_steps, seed):
    # every problem's step loop, and quartic's lane epoch ("quartic-lanes",
    # batch size 1 without a threshold).  R changes the lane counts, the
    # prefix lengths and the SIMD tails of pow and of the row dots; large
    # scales overflow to inf and NaN within the epoch.  An uneven batch
    # size does not divide n, so the last batch is shorter, and on every
    # problem but tiny_quadratic a batch spans two gathers of rows.
    rng = np.random.default_rng(seed)
    lanes = problem_id == "quartic-lanes"
    problem = build_problem(_SPECS["quartic"]) if lanes else _generic(problem_id)
    n = problem.n
    batch_size = 1 if lanes else {"1": 1, "2": 2, "uneven": n // 2 + 1}[batch]
    assert batch != "uneven" or lanes or n % batch_size
    orders = _mixed_orders(rng, n, rows)
    W = 10.0**log_scale * rng.standard_normal((rows, problem.dim))
    W[rng.random(W.shape) < 0.02] = 0.0
    W[rng.random(W.shape) < 0.02] = -0.0
    steps = rng.uniform(0.0, 1e-2, rows)
    steps[:zero_steps] = 0.0
    threshold = None
    if stop and not lanes:  # crossed at a step of the epoch, or never
        threshold = 10.0 ** rng.uniform(0, 3) * np.sqrt(np.sum(W * W, axis=1)).max()
    with np.errstate(over="ignore", invalid="ignore"):
        got, last = _epoch_pass(problem, W, orders, steps, batch_size, threshold)
        want, want_last = _reference_pass(problem, W, orders, steps, batch_size, threshold)
    assert last == want_last
    assert threshold is not None or last == (n - 1) // batch_size
    np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))


def _exp_strong_loop(problem, W, orders, steps):
    """The step loop of _epoch_pass at batch size 1, plus per entry the
    largest |value| it takes and the product over its visits of
    max(1, |1 - s(1 + e^(x-k) + e^(k-x))|), the factor by which a visit,
    the map x -> x - s(x + e^(x-k) - e^(k-x)), can grow an earlier error."""
    rows = np.arange(len(W))
    W, gain, scale = W.copy(), np.ones(W.shape), np.abs(W)
    for idx in orders:
        c, k = problem._coord[idx], problem._offset[idx]
        x = W[rows, c]
        gain[rows, c] *= np.maximum(1.0, np.abs(1.0 - steps * (1.0 + np.exp(x - k) + np.exp(k - x))))
        g = problem.component_gradients(W, idx)
        g *= steps[:, None]
        W -= g
        np.maximum(scale, np.abs(W), out=scale)
    return W, gain, scale


@settings(max_examples=60, deadline=None)
@given(rows=st.integers(1, 40), log_scale=st.floats(-3, 1), zero_steps=st.integers(0, 40),
       seed=st.integers(0, 2**32 - 1))
def test_exp_strong_epoch_is_the_step_loop_to_rounding(rows, log_scale, zero_steps, seed):
    # Bound, per entry: |lane - loop| <= 8 * n * 2**-53 * gain * scale.
    # A visit has the same operations in the loop and the lane, so it adds
    # only the rounding of its result, and it multiplies the difference it
    # receives by at most its gain factor.  The rest comes from the
    # stretches between visits: the loop rounds x - s*x (two operations)
    # at each unvisited step, the lane one pow (a few ulp) and one product
    # per stretch.  Each rounding is at most 2**-53 * scale; together they
    # stay below about 3 * n * 2**-53 * scale, and an unvisited step
    # multiplies earlier differences by |1 - s| <= 1.  Steps span 1e-9 to
    # 1e-2: stable ones up to about 3e-5, growing and overflowing ones above.
    rng = np.random.default_rng(seed)
    problem = ExpStrongProblem()
    n = problem.n
    orders = _mixed_orders(rng, n, rows)
    W = 10.0**log_scale * rng.standard_normal((rows, problem.dim))
    W[rng.random(W.shape) < 0.02] = 0.0
    steps = 10.0 ** rng.uniform(-9, -2, rows)
    steps[:zero_steps] = 0.0
    with np.errstate(over="ignore", invalid="ignore"):
        lane = problem.component_epoch(W, orders, steps)
        loop, gain, scale = _exp_strong_loop(problem, W, orders, steps)
        bound = 8 * n * 2.0**-53 * gain * scale
    np.testing.assert_array_equal(np.isfinite(lane), np.isfinite(loop))
    checked = np.isfinite(loop) & np.isfinite(bound)
    assert (np.abs(lane[checked] - loop[checked]) <= bound[checked]).all()
    np.testing.assert_array_equal(lane[:zero_steps], W[:zero_steps])


def _bits(x):
    """The int64 view of ``x`` with every NaN as the one NaN ``np.nan``."""
    return np.where(np.isnan(x), np.nan, x).view(np.int64)


@settings(max_examples=30, deadline=None)
@given(problem_id=st.sampled_from(["quartic", "exp_strong", "phase_retrieval", "dro"]),
       rows=st.integers(2, 40), log_scale=st.floats(-3, 1), seed=st.integers(0, 2**32 - 1))
def test_lane_epoch_row_bits_do_not_depend_on_the_block(problem_id, rows, log_scale, seed):
    # an epoch of single-component steps: quartic's and exp_strong's lane
    # epochs, phase_retrieval's and dro's step loop in its work arrays.
    # dro's step loop can give a NaN entry another sign alone than in a
    # block; a NaN row diverges and never reaches a CSV
    rng = np.random.default_rng(seed)
    problem = build_problem(_SPECS[problem_id])
    orders = _mixed_orders(rng, problem.n, rows)
    W = 10.0**log_scale * rng.standard_normal((rows, problem.dim))
    steps = 10.0 ** rng.uniform(-9, -2, rows)
    r = int(rng.integers(rows))
    with np.errstate(over="ignore", invalid="ignore"):
        block, _ = _epoch_pass(problem, W, orders, steps, 1)
        alone, _ = _epoch_pass(problem, W[r:r + 1], orders[:, r:r + 1], steps[r:r + 1], 1)
    bits = _bits if problem_id == "dro" else lambda x: x.view(np.int64)
    np.testing.assert_array_equal(bits(alone[0]), bits(block[r]))


def _param(problem_id, batch_size, step, calls):
    name = f"{batch_size}-{step}-{calls}"
    return pytest.param(problem_id, batch_size, step, calls,
                        id=name if problem_id == "quartic" else f"{problem_id}-{name}")


@pytest.mark.parametrize("problem_id,batch_size,step,calls", [
    # every epoch takes single-component steps, which the lane epochs of
    # quartic and exp_strong serve; exp_strong diverges at 1e-4; two dro
    # rows diverge in epoch 1 at 1e-5 and the third goes on
    *(_param(p, 1, step, 3) for p, step in [("quartic", 1e-4), ("exp_strong", 1e-5),
                                            ("phase_retrieval", 1e-4), ("dro", 1e-6),
                                            ("dro", 1e-5)]),
    # batches of two take the step loop
    *(_param(p, 2, step, 0) for p, step in [("quartic", 1e-4), ("exp_strong", 1e-5),
                                            ("phase_retrieval", 1e-4), ("dro", 1e-6)]),
    # a -0.0 step runs as +0.0
    *(_param(p, 1, -0.0, 3) for p in ["quartic", "exp_strong", "phase_retrieval", "dro"]),
    # diverges in epoch 1; the replay takes the step loop
    *(_param(p, 1, step, 1) for p, step in [("quartic", 10.0), ("exp_strong", 10.0),
                                            ("phase_retrieval", 1.0), ("dro", 1.0)]),
])
def test_quartic_epoch_serves_single_component_steps(problem_id, batch_size, step, calls,
                                                     monkeypatch):
    problem = build_problem(_SPECS[problem_id])
    single, seen = [], []
    epoch_pass = optimize._epoch_pass

    def counted(p, W, orders, steps, batch_size, threshold=None):
        if batch_size == 1 and threshold is None:
            single.append(1)
        return epoch_pass(p, W, orders, steps, batch_size, threshold)

    monkeypatch.setattr(optimize, "_epoch_pass", counted)
    epoch = problem.component_epoch
    if epoch:
        problem.component_epoch = lambda *args: seen.append(1) or epoch(*args)
    # from -0.0, so that an unvisited coordinate shows the sign W - 0.0 * step
    # leaves; phase_retrieval from its own point, as the origin is stationary
    start = None if problem_id == "phase_retrieval" else np.full(problem.dim, -0.0)
    config = RunConfig(step_size=0.0, epochs=3, batch_size=batch_size, initial_point=start)

    def run():  # a shuffling row, a with-replacement row, a reversed fixed row
        rows = [("random_reshuffle", 1, None), ("sgd", 2, None),
                ("fixed", 0, tuple(range(problem.n))[::-1])]
        return _run_table(problem, config, rows, [step] * 3)

    table, reached, final, _, diverged = run()
    assert len(single) == calls and len(seen) == (calls if epoch else 0)
    monkeypatch.setattr(optimize, "_epoch_pass", _reference_pass)
    want_table, want_reached, want_final, _, want_diverged = run()
    # the runs are the reference loop's bit for bit, but where exp_strong's
    # lane epoch agrees to rounding
    # (test_exp_strong_epoch_is_the_step_loop_to_rounding)
    exact = problem_id != "exp_strong" or calls == 0
    assert {r: at[:2] for r, at in diverged.items()} == {
        r: at[:2] for r, at in want_diverged.items()}
    np.testing.assert_array_equal(reached, want_reached)
    for r, k in enumerate(want_reached):
        got, want = table[0, r, :k], want_table[0, r, :k]
        if exact:
            np.testing.assert_array_equal(got, want)
            np.testing.assert_array_equal(final[r].view(np.int64), want_final[r].view(np.int64))
        else:
            np.testing.assert_allclose(got, want, rtol=1e-12)
            np.testing.assert_allclose(final[r], want_final[r], rtol=0,
                                       atol=1e-12 * np.abs(want_final[r]).max())
    # a row on component 0 alone, one epoch straight through the pass; a
    # diverging one as the replay takes it, through the step loop
    W = np.atleast_2d(problem.initial_point if start is None else start)
    zeros, steps = np.zeros((problem.n, 1), dtype=np.int64), np.array([step]) + 0.0
    with np.errstate(over="ignore", invalid="ignore"):
        outside = optimize._outside(_reference_pass(problem, W, zeros, steps, batch_size)[0],
                                    config.divergence_threshold).any()
        threshold = config.divergence_threshold if outside else None
        got, last = _epoch_pass(problem, W, zeros, steps, batch_size, threshold)
        want, want_last = _reference_pass(problem, W, zeros, steps, batch_size, threshold)
    assert last == want_last
    if exact or threshold:
        np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))
    else:
        np.testing.assert_allclose(got, want, rtol=1e-12)


@pytest.mark.parametrize("problem_id,step", [
    *(pytest.param("exp_strong", step, id=str(step)) for step in [0.01, 1.0, 1.5]),
    *(pytest.param(p, step, id=f"{p}-{step}") for p, step in [
        ("phase_retrieval", 1e-3), ("phase_retrieval", 1.0), ("dro", 1e-5), ("dro", 1.0)]),
])
def test_exp_strong_divergence_is_located_by_the_step_loop(problem_id, step, monkeypatch):
    # the epoch pass finds the diverging epoch, the step loop replays it:
    # the same (epoch, step_index) as the reference loop
    config = RunConfig(step_size=0.0, epochs=3)
    problem = build_problem(_SPECS[problem_id])

    def run():  # each row's (epoch, step_index)
        diverged = _run_table(problem, config, [("random_reshuffle", 4, None), ("sgd", 5, None)],
                              [step] * 2)[-1]
        return {r: at[:2] for r, at in diverged.items()}

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = run()
    monkeypatch.setattr(optimize, "_epoch_pass", _reference_pass)
    want = run()
    assert sorted(want) == [0, 1]
    assert got == want


def _definition(kind, seed, order, n):
    """Epoch t's order of a row, from the reference of the stream definition."""
    return lambda t: reference_order(kind, seed, order, n, t)


def _epoch_orders(problem, rows, epochs, monkeypatch):
    """The (R, n) order block of each epoch of a _run_table call whose
    epoch passes leave the iterates unchanged."""
    seen = []

    def recorded(problem, W, orders, steps, batch_size, threshold=None):
        seen.append(orders.T.copy())
        return W, len(orders) - 1

    with monkeypatch.context() as m:
        m.setattr(optimize, "_epoch_pass", recorded)
        _run_table(problem, RunConfig(step_size=0.0, epochs=epochs), rows, [0.0] * len(rows))
    return np.stack(seen)


def test_block_rows_get_their_solo_orders_and_bits(monkeypatch):
    # T = 70; the step-2.2 reshuffle row diverges in epoch 5, so the later
    # epochs draw the orders of fewer rows
    problem = TinyQuadraticProblem()
    n = problem.n
    config = RunConfig(step_size=0.0, epochs=70, divergence_threshold=1e4)
    runs = [("random_reshuffle", 11, None, 0.3), ("shuffle_once", 12, None, 0.3),
            ("fixed", 0, None, 0.3), ("sgd", 13, None, 0.3), ("fixed", 0, (2, 0, 3, 1), 0.3),
            ("random_reshuffle", 14, None, 2.2), ("random_reshuffle", 15, None, 2.008),
            ("random_reshuffle", 16, None, 0.3)]
    rows = [run[:3] for run in runs]
    orders = _epoch_orders(problem, rows, config.epochs, monkeypatch)
    for r, row in enumerate(rows):
        definition = _definition(*row, n)
        np.testing.assert_array_equal(orders[:, r], [definition(t) for t in range(1, 71)])

    table, reached, final, _, diverged = _run_table(problem, config, rows,
                                                    [step for *_, step in runs])
    for r, (kind, seed, order, step) in enumerate(runs):
        solo = RunConfig(step_size=step, epochs=70, divergence_threshold=1e4)
        try:
            if kind == "sgd":
                want = run_sgd(problem, solo, seed)
            else:
                want = run_shuffling(problem, Scheme(kind, n, seed, order), solo)
            assert r not in diverged
        except DivergenceError as err:
            assert diverged[r][:2] == (err.epoch, err.step_index)
            want = err.record
        np.testing.assert_array_equal(table[0, r, :reached[r]], want.objective)
        np.testing.assert_array_equal(final[r], want.final_point)
    # the step-2.008 row grows (objective 5.4e3 entering epoch 70) but
    # stays inside the threshold
    assert [epoch for epoch, _, _ in diverged.values()] == [5]


def test_untracked_average_leaves_every_other_bit():
    # without track_average no running mean is kept or filtered; the rows,
    # their divergences and every metric keep the tracked run's bits
    problem = TinyQuadraticProblem()
    rows = [("random_reshuffle", 11, None), ("sgd", 13, None), ("random_reshuffle", 14, None)]
    (table, reached, final, average, diverged), want = [
        _run_table(problem, RunConfig(step_size=0.0, epochs=70, divergence_threshold=1e4,
                                      track_average=track), rows, [0.3, 0.3, 2.2])
        for track in (False, True)]
    want_table, want_reached, want_final, want_average, want_diverged = want
    assert len(diverged) == 1
    assert {r: at[:2] for r, at in diverged.items()} == {
        r: at[:2] for r, at in want_diverged.items()}
    assert average is None and want_average is not None
    # the completed epochs (so the evals), each row's objective, grad_norm_sq
    # and dist_sq, and its final point
    np.testing.assert_array_equal(reached, want_reached)
    for r, k in enumerate(want_reached):
        np.testing.assert_array_equal(table[:3, r, :k], want_table[:3, r, :k])
    np.testing.assert_array_equal(final, want_final)


def _mixed_rows(n):
    return [("random_reshuffle", 3, None), ("sgd", 4, None), ("shuffle_once", 5, None),
            ("fixed", 0, None), ("fixed", 0, tuple(range(n))[::-1])]


def test_order_rows_do_not_depend_on_the_block(monkeypatch):
    problem = TinyQuadraticProblem()
    block = _epoch_orders(problem, _mixed_rows(problem.n), 70, monkeypatch)
    for r, row in enumerate(_mixed_rows(problem.n)):
        alone = _epoch_orders(problem, [row], 70, monkeypatch)
        np.testing.assert_array_equal(alone[:, 0], block[:, r])


def test_order_table_writes_repeating_rows_once():
    # fixed and shuffle_once rows are never written again, also after a
    # row leaves the block
    rows = [("random_reshuffle", 11, None), ("shuffle_once", 12, None), ("fixed", 0, None),
            ("sgd", 13, None), ("random_reshuffle", 14, None), ("sgd", 15, None),
            ("shuffle_once", 16, None), ("fixed", 0, (4, 3, 2, 1, 0))]
    orders = shuffling._Orders(rows, 5)
    repeating = [1, 2, 6, 7]
    orders.block[repeating] = -1
    for t in range(1, 71):
        orders.draw(t)
        if t == 10:  # the second reshuffle row leaves the block
            orders.keep(np.arange(len(rows)) != 4)
            repeating = [1, 2, 5, 6]
    assert (orders.block[repeating] == -1).all()
    live = [row for r, row in enumerate(rows) if r != 4]
    for got, row in zip(orders.block, live):
        if row[0] in ("random_reshuffle", "sgd"):
            assert got.tolist() == reference_order(*row, 5, 70)


def test_unknown_order_kind_is_refused():
    with pytest.raises(ValueError, match="unknown order kind 'callable'"):
        _run_table(TinyQuadraticProblem(), RunConfig(step_size=0.1, epochs=1),
                   [("callable", 0, None)], [0.1])


def test_sgd_seed_must_be_an_integer():
    with pytest.raises(ValueError, match="seed must be a non-negative integer"):
        run_sgd(TinyQuadraticProblem(), RunConfig(step_size=0.1, epochs=1), seed=1.5)


def test_one_full_value_per_epoch():
    problem = TinyQuadraticProblem()
    rows = []
    full_values = problem.full_values  # full_value is its one-row case
    problem.full_values = lambda W: rows.append(len(W)) or full_values(W)
    rec = run_shuffling(problem, Scheme.fixed(problem.n), RunConfig(step_size=0.1, epochs=5))
    # the start point, then the iterate leaving each epoch
    assert rows == [1] * 6
    assert rec.completed_epochs == 5


def test_averaged_iterate_requires_tracking():
    problem = TinyQuadraticProblem()
    rec = run_shuffling(problem, Scheme.fixed(4),
                        RunConfig(step_size=0.1, epochs=2, track_average=False))
    with pytest.raises(ValueError):
        averaged_iterate(rec)
