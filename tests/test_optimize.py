import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from shufflegrad.optimize import (
    DivergenceError,
    RunConfig,
    _batch_bounds,
    averaged_iterate,
    run_sgd,
    run_shuffling,
)
from shufflegrad.problems import QuarticProblem, TinyQuadraticProblem, build_problem
from shufflegrad.shuffling import Scheme, permutation_for_epoch


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


class TestDivergence:
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


@settings(max_examples=200, deadline=None)
@given(n=st.integers(1, 500), batch_size=st.integers(1, 600))
def test_batch_bounds_tile_the_components(n, batch_size):
    bounds = _batch_bounds(n, batch_size)
    starts = [lo for lo, _ in bounds]
    ends = [hi for _, hi in bounds]
    assert starts == [0] + ends[:-1] and ends[-1] == n
    sizes = [hi - lo for lo, hi in bounds]
    assert set(sizes[:-1]) <= {batch_size} and 1 <= sizes[-1] <= batch_size
