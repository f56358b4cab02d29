import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from shufflegrad.problems import (
    DROProblem,
    ExpStrongProblem,
    PhaseRetrievalProblem,
    QuarticProblem,
    TinyQuadraticProblem,
)
from shufflegrad.smoothness import (
    RECIPES,
    EllFunction,
    PlanInfeasibleError,
    _float_checks,
    component_gradient_bound,
    constants_for_recipe,
    estimate_sublevel_gradient_bound,
    reevaluate_plan,
    solve_gradient_bound,
    stepsize_plan,
)


class TestEllFunction:
    def test_kinds_evaluate(self):
        assert EllFunction.constant(2.5)(7.0) == 2.5
        assert EllFunction.affine(5.0, 5.0)(2.0) == 15.0
        assert EllFunction.power(3.0, 2.0 / 3.0)(8.0) == pytest.approx(12.0)
        assert EllFunction.power(2.0, 0.5, offset=1.0)(4.0) == pytest.approx(5.0)

    def test_array_evaluate(self):
        u = np.array([0.0, 1.0, 4.0])
        np.testing.assert_allclose(EllFunction.constant(2.0)(u), [2, 2, 2])
        np.testing.assert_allclose(EllFunction.affine(1.0, 2.0)(u), [1, 3, 9])

    def test_construction_validation(self):
        with pytest.raises(ValueError):
            EllFunction.constant(0.0)
        with pytest.raises(ValueError):
            EllFunction.affine(-1.0, 1.0)
        with pytest.raises(ValueError):
            EllFunction.affine(0.0, 0.0)
        with pytest.raises(ValueError):
            EllFunction.power(1.0, 2.0)

    def test_config_roundtrip(self):
        for ell in (EllFunction.constant(2.0), EllFunction.affine(1.0, 3.0),
                    EllFunction.power(3.0, 2.0 / 3.0)):
            back = EllFunction.from_config(ell.to_config())
            assert back == ell
        with pytest.raises(ValueError):
            EllFunction.from_config({"kind": "custom"})


class TestSolveGradientBound:
    def test_constant_closed_form(self):
        # u^2 = 2cH
        assert solve_gradient_bound(EllFunction.constant(1.0), 2.0) == pytest.approx(2.0, abs=1e-10)
        for c, h in ((0.5, 1.0), (3.0, 7.0), (10.0, 0.25)):
            expected = math.sqrt(2.0 * c * h)
            got = solve_gradient_bound(EllFunction.constant(c), h)
            assert got == pytest.approx(expected, abs=1e-10 * max(1.0, expected))

    def test_affine_closed_form(self):
        # u^2 = 2(5 + 10u)  ->  u = 10 + sqrt(110)
        got = solve_gradient_bound(EllFunction.affine(5.0, 5.0), 1.0)
        assert got == pytest.approx(10.0 + math.sqrt(110.0), abs=1e-8)

    def test_power_closed_form(self):
        # u^2 = 2*3*(2u)^{2/3}  ->  u = (6*2^{2/3})^{3/4}
        got = solve_gradient_bound(EllFunction.power(3.0, 2.0 / 3.0), 1.0)
        assert got == pytest.approx((6.0 * 2.0 ** (2.0 / 3.0)) ** 0.75, abs=1e-8)

    def test_monotone_in_budget(self):
        ell = EllFunction.affine(1.0, 2.0)
        values = [solve_gradient_bound(ell, h) for h in (0.1, 1.0, 10.0, 1000.0)]
        assert values == sorted(values)

    def test_residual_and_last_crossing(self):
        for ell in (EllFunction.constant(2.0), EllFunction.affine(5.0, 5.0),
                    EllFunction.power(3.0, 2.0 / 3.0)):
            for h in (1e-3, 1.0, 1e3):
                g = solve_gradient_bound(ell, h)
                residual = g * g - 2.0 * float(ell(2.0 * g)) * h
                assert abs(residual) <= 1e-8 * max(1.0, g * g)
                # beyond the bound the inequality flips for good
                assert (1.001 * g) ** 2 > 2.0 * float(ell(2.002 * g)) * h

    def test_crossing_far_above_the_budget(self):
        # the crossing, near 2.08e68, lies beyond budget * 2^200 = 6.43e65
        ell = EllFunction.power(10.0, 1.890625)
        g = solve_gradient_bound(ell, 4e5)
        assert 2.07e68 < g < 2.08e68
        assert abs(g * g - 2.0 * float(ell(2.0 * g)) * 4e5) <= 1e-8 * g * g
        bundle = constants_for_recipe(3, ell, initial_gap=1000.0, n=1, eps=1.0,
                                      failure_prob=0.01, variance_slope=0.0, noise_std=0.0,
                                      strong_convexity=1.0)
        assert bundle.grad_norm_bound == g and stepsize_plan(bundle).epochs > 1e134

    def test_edge_cases(self):
        assert solve_gradient_bound(EllFunction.constant(1.0), 0.0) == 0.0
        with pytest.raises(ValueError):
            solve_gradient_bound(EllFunction.constant(1.0), -1.0)


def _scalar_solve_gradient_bound(ell, budget):
    """solve_gradient_bound with its grid scanned one Python float at a
    time, as the scan was written before it took one array."""
    def residual(u):
        return u * u - 2.0 * float(ell.evaluate(2.0 * u)) * budget

    grid = [0.0] + [math.ldexp(budget, k) for k in range(-60, 1025 - math.frexp(budget)[1])]
    vals = [residual(u) for u in grid]
    brackets = [(grid[i], grid[i + 1]) for i in range(len(grid) - 1)
                if vals[i] <= 0 < vals[i + 1]]
    if not brackets:
        return grid, vals, None
    lo, hi = brackets[-1]
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if residual(mid) <= 0:
            lo = mid
        else:
            hi = mid
    return grid, vals, 0.5 * (lo + hi)


_DECADES = st.floats(-12.0, 12.0).map(lambda e: 10.0**e)
_OFFSETS = st.one_of(st.just(0.0), _DECADES)


@settings(max_examples=300, deadline=None)
@given(ell=st.one_of(st.builds(EllFunction.constant, _DECADES),
                     st.builds(EllFunction.affine, _OFFSETS, _DECADES),
                     st.builds(EllFunction.power, _DECADES, st.floats(0.0, 1.99), _OFFSETS)),
       budget=st.floats(-300.0, 300.0).map(lambda e: 10.0**e))
def test_bracket_scan_has_the_bits_of_the_scalar_scan(ell, budget):
    with np.errstate(all="ignore"):  # residuals overflow to inf/nan at the top of the grid
        grid, vals, expected = _scalar_solve_gradient_bound(ell, budget)
        u = np.array(grid)
        array_vals = u * u - 2.0 * ell.evaluate(2.0 * u) * budget
    assert array_vals.tobytes() == np.array(vals).tobytes()
    if expected is None:
        with pytest.raises(ValueError, match="no crossing"):
            solve_gradient_bound(ell, budget)
    else:
        got = solve_gradient_bound(ell, budget)
        assert type(got) is float
        assert got.hex() == expected.hex()


def test_component_gradient_bound_closed_form():
    # sqrt(2(1+nA))*G + sqrt(2n)*sigma with n=2, A=0, sigma=1, G=3
    got = component_gradient_bound(3.0, 2, 0.0, 1.0)
    assert got == pytest.approx(3.0 * math.sqrt(2.0) + 2.0, rel=1e-15)
    with pytest.raises(ValueError):
        component_gradient_bound(1.0, 0, 0.0, 1.0)
    with pytest.raises(ValueError):
        component_gradient_bound(1.0, 2, -0.5, 1.0)


def _bundle(recipe, **overrides):
    base = dict(initial_gap=1.0, n=4, eps=0.1)
    if recipe in (1, 3, 5):
        base["failure_prob"] = 0.5
    if recipe in (1, 2, 3, 5):
        base.update(variance_slope=0.0, noise_std=1.0)
    if recipe in (3, 4):
        base["strong_convexity"] = 1.0
    if recipe in (4, 5):
        base["optimum_noise_std"] = 1.0
    if recipe in (5, 6):
        base["initial_distance_sq"] = 4.0
    if recipe in (4, 6):
        base["component_grad_bound_value"] = 10.0
    base.update(overrides)
    ell = base.pop("ell", EllFunction.constant(1.0))
    return constants_for_recipe(recipe, ell, **base)


class TestConstants:
    def test_gap_bound_per_recipe(self):
        assert _bundle(1).value_gap_bound == pytest.approx(4.0 * 1.0 / 0.5)
        assert _bundle(2).value_gap_bound == pytest.approx(2.0)
        assert _bundle(5).value_gap_bound == pytest.approx(8.0)
        # recipe 3 takes the max of the noise term and the gap term
        b3 = _bundle(3, initial_gap=2.5, n=2, eps=0.05, failure_prob=0.2)
        noise_term = 0.75 * math.log(4.0 / 0.05) + 2.5
        assert b3.value_gap_bound == pytest.approx(max(noise_term, 4.0 * 2.5 / 0.2))
        assert _bundle(4).value_gap_bound is None
        assert _bundle(6).value_gap_bound is None

    def test_derived_chain(self):
        b = _bundle(2, initial_gap=1.0)
        assert b.grad_norm_bound == pytest.approx(2.0, abs=1e-10)  # sqrt(2*1*2)
        expected_comp = math.sqrt(2.0) * 2.0 + math.sqrt(8.0)
        assert b.component_grad_bound == pytest.approx(expected_comp, rel=1e-9)
        assert b.smoothness_bound == 1.0  # constant modulus

    def test_missing_stats_are_named(self):
        with pytest.raises(ValueError, match="noise_std"):
            constants_for_recipe(1, EllFunction.constant(1.0), initial_gap=1.0, n=4,
                                 eps=0.1, variance_slope=0.0, failure_prob=0.5)
        with pytest.raises(ValueError, match="strong_convexity"):
            constants_for_recipe(3, EllFunction.constant(1.0), initial_gap=1.0, n=4,
                                 eps=0.1, variance_slope=0.0, noise_std=1.0,
                                 failure_prob=0.5)
        with pytest.raises(ValueError, match="component_grad_bound"):
            constants_for_recipe(6, EllFunction.constant(1.0), initial_gap=1.0, n=4,
                                 eps=0.1, initial_distance_sq=1.0)

    def test_input_validation(self):
        with pytest.raises(ValueError):
            _bundle(7)
        with pytest.raises(ValueError):
            _bundle(1, initial_gap=-1.0)
        with pytest.raises(ValueError):
            _bundle(1, eps=0.0)
        with pytest.raises(ValueError):
            _bundle(1, failure_prob=1.5)

    def test_report_mentions_all_constants(self):
        text = _bundle(1).report()
        for token in ("value_gap_bound", "grad_norm_bound", "component_grad_bound",
                      "smoothness_bound", "recipe = 1"):
            assert token in text


class TestPlans:
    def test_every_recipe_emits_exact_valid_plan(self):
        for recipe in (1, 2, 3, 4, 5, 6):
            plan = stepsize_plan(_bundle(recipe))
            assert plan.valid, plan.report()
            verdicts = reevaluate_plan(plan)
            assert all(ok for _, ok in verdicts), (recipe, verdicts)

    def test_recipe1_hand_values(self):
        # sigma = 0 keeps the cube-sum constraint inactive
        plan = stepsize_plan(_bundle(1, noise_std=0.0))
        assert plan.eta == pytest.approx(0.1, rel=1e-12)
        assert plan.epochs == 64000
        # sigma = 1 activates the noise cap eta <= eps*sqrt(n*delta/32)/(L*sigma)
        plan = stepsize_plan(_bundle(1))
        assert plan.eta <= 0.025 * (1 + 1e-12)
        assert plan.eta >= 0.025 * (1 - 1e-4)
        assert plan.epochs >= 256000

    def test_recipe2_hand_example(self):
        b = _bundle(2, initial_gap=1.0, n=2)
        plan = stepsize_plan(b)
        assert plan.candidate_eta == pytest.approx(0.05, rel=1e-12)
        # cube-sum forces eta just below the analytic cap eps/sqrt(12)
        cap = 0.1 / math.sqrt(12.0)
        assert plan.eta <= cap * (1 + 1e-12)
        assert plan.eta >= cap * (1 - 1e-4)
        floor = 8.0 * 1.0 / (plan.eta * 0.1**2)
        assert plan.epochs == math.ceil(floor) or plan.epochs == math.ceil(floor) + 1

    def test_recipe3_pinned_plan_is_minimal(self):
        b = _bundle(3, initial_gap=2.5, n=2, eps=0.05, failure_prob=0.2)
        plan = stepsize_plan(b)
        assert plan.valid
        # stepsize is pinned to 4*log(sqrt(n)*T)/(mu*T)
        pinned = 4.0 * math.log(math.sqrt(2.0) * plan.epochs) / plan.epochs
        assert plan.eta == pytest.approx(pinned, rel=1e-12)
        assert 500 <= plan.epochs <= 600
        assert all(ok for _, ok in reevaluate_plan(plan))
        with pytest.raises(PlanInfeasibleError):
            stepsize_plan(b, target_epochs=plan.epochs - 1)

    def test_recipe4_pinned_formula(self):
        plan = stepsize_plan(_bundle(4))
        pinned = 6.0 * math.log(plan.epochs) / plan.epochs
        assert plan.eta == pytest.approx(pinned, rel=1e-12)
        assert plan.valid

    def test_pinned_search_refuses_when_no_epoch_count_passes(self):
        # iteration_floor asks for T / ln(2T) >= 8/mu = 8e305, which only
        # epoch counts past the largest float meet
        b = _bundle(3, strong_convexity=1e-305, noise_std=0.0, ell=EllFunction.constant(0.25))
        with pytest.raises(PlanInfeasibleError, match=r"no epoch count up to 2\*\*1023 passes: "
                                                      r".* violates 'iteration_floor'"):
            stepsize_plan(b)

    def test_target_epochs_respected(self):
        b = _bundle(2, initial_gap=1.0, n=2)
        plan = stepsize_plan(b, target_epochs=30000)
        assert plan.epochs == 30000
        assert plan.valid and all(ok for _, ok in reevaluate_plan(plan))

    def test_one_epoch_free_plan_is_the_one_epoch_target_plan(self):
        # The epoch floor is below one epoch, so one epoch's caps set the
        # stepsize: 7.42, where shaving from the caps of the fractional
        # floor stopped at 3.76.
        bundle = _bundle(5, ell=EllFunction.constant(0.0027), initial_gap=1.8, n=3708,
                         eps=0.35, failure_prob=0.32, noise_std=8.0, optimum_noise_std=11.0,
                         initial_distance_sq=0.024)
        plan = stepsize_plan(bundle)
        assert plan.epochs == 1 and plan.target_epochs is None
        assert plan == dataclasses.replace(stepsize_plan(bundle, target_epochs=1),
                                           target_epochs=None)
        assert plan.eta > 7.4

    def test_target_epochs_infeasible(self):
        b = _bundle(2, initial_gap=1.0, n=2)
        with pytest.raises(PlanInfeasibleError) as err:
            stepsize_plan(b, target_epochs=5000)
        assert "epoch_floor" in str(err.value) or "cube_sum" in str(err.value)
        with pytest.raises(ValueError):
            stepsize_plan(b, target_epochs=0)

    def test_pinned_target_names_the_check_demanding_most_epochs(self):
        # At these targets several recipe-3 checks fail, and noise_cap
        # (lhs 4*sqrt(40) ~ 25.3 against T / ln(2T)) asks for the most
        # epochs although epoch_floor_gap or iteration_floor come first.
        b = _bundle(3)
        for target, first in ((2, "epoch_floor_gap"), (10, "iteration_floor")):
            with pytest.raises(PlanInfeasibleError) as err:
                stepsize_plan(b, target_epochs=target)
            violated = [c.name for c in err.value.checks if not c.satisfied]
            assert len(violated) >= 2 and violated[0] == first, violated
            assert "violates 'noise_cap'" in str(err.value)

    def test_per_step_size(self):
        plan = stepsize_plan(_bundle(1, noise_std=0.0))  # n = 4
        assert plan.per_step_size() == pytest.approx(plan.eta / 4.0)
        assert plan.per_step_size(batch_size=3) == pytest.approx(plan.eta / 2.0)

    def test_reevaluation_catches_tampering(self):
        plan = stepsize_plan(_bundle(2, initial_gap=1.0, n=2))
        bad = dataclasses.replace(plan, eta=plan.eta * 1.5)
        assert not all(ok for _, ok in reevaluate_plan(bad))
        worse = dataclasses.replace(plan, epochs=2)
        assert not all(ok for _, ok in reevaluate_plan(worse))

    def test_zero_noise_short_circuits_cube(self):
        plan = stepsize_plan(_bundle(2, noise_std=0.0))
        names = [c.name for c in plan.checks]
        assert "cube_sum" in names
        cube = next(c for c in plan.checks if c.name == "cube_sum")
        assert cube.satisfied
        assert all(ok for _, ok in reevaluate_plan(plan))

    def test_degenerate_modulus_scaling(self):
        # constant modulus, recipe 1, sigma = 0: work n*T scales like eps^-3
        epochs = []
        for eps in (0.1, 0.05, 0.025):
            plan = stepsize_plan(_bundle(1, eps=eps, noise_std=0.0))
            epochs.append(plan.epochs)
        for t_big_eps, t_small_eps in zip(epochs, epochs[1:]):
            ratio = t_small_eps / t_big_eps
            assert 8.0 / 4.0 <= ratio <= 8.0 * 4.0

    def test_plan_config_serializes(self):
        plan = stepsize_plan(_bundle(3, initial_gap=2.5, n=2, eps=0.05, failure_prob=0.2))
        cfg = plan.to_config()
        assert cfg["eta"] == plan.eta
        assert cfg["epochs"] == plan.epochs
        assert cfg["n"] == 2
        assert cfg["ell"] == {"kind": "constant", "params": [1.0]}


_POSITIVE = st.floats(-3.0, 3.0).map(lambda e: 10.0**e)
_NOISE = st.one_of(st.just(0.0), _POSITIVE)
_MODULI = st.one_of(
    st.builds(EllFunction.constant, _POSITIVE),
    st.builds(EllFunction.affine, _POSITIVE, _POSITIVE),
    st.builds(EllFunction.power, _POSITIVE, st.floats(0.0, 1.9), st.just(0.0)),
)


@settings(max_examples=150, deadline=None)
@given(recipe=st.sampled_from(RECIPES), ell=_MODULI, gap=_POSITIVE,
       n=st.integers(1, 10**4), eps=st.floats(-4.0, 0.0).map(lambda e: 10.0**e),
       delta=st.floats(0.01, 0.99), slope=_NOISE, noise=_NOISE, mu=_POSITIVE,
       opt_noise=_NOISE, dist_sq=_POSITIVE, comp_bound=_POSITIVE,
       target=st.one_of(st.none(), st.integers(1, 10**9)))
def test_plans_pass_the_audit_and_floats_agree_with_it(recipe, ell, gap, n, eps, delta, slope,
                                                        noise, mu, opt_noise, dist_sq,
                                                        comp_bound, target):
    bundle = constants_for_recipe(
        recipe, ell, initial_gap=gap, n=n, eps=eps, failure_prob=delta, variance_slope=slope,
        noise_std=noise, strong_convexity=mu, optimum_noise_std=opt_noise,
        initial_distance_sq=dist_sq, component_grad_bound_value=comp_bound)
    try:
        plan = stepsize_plan(bundle, target_epochs=target)
    except PlanInfeasibleError:
        return
    assert plan.valid and all(ok for _, ok in reevaluate_plan(plan))

    tampered = [(plan.eta * 1.5, plan.epochs), (plan.eta, plan.epochs + 1),
                (math.nextafter(plan.eta, math.inf), plan.epochs)]
    for eta, epochs in [(plan.eta, plan.epochs)] + tampered:
        audit = reevaluate_plan(dataclasses.replace(plan, eta=eta, epochs=epochs, checks=()))
        for check, (name, ok) in zip(_float_checks(bundle, eta, epochs), audit, strict=True):
            assert check.name == name
            if abs(check.margin) > 1e-9 * max(abs(check.lhs), abs(check.rhs)):
                assert check.satisfied == ok, (check, ok)

    # A stepsize set by a cap or by the pinned formula cannot grow by half.
    # The candidate stepsize may sit well inside every cap, so 1.5 times
    # the stepsize can then still be feasible.
    if plan.candidate_eta is None or plan.eta < plan.candidate_eta * (1.0 - 1e-6):
        bigger = dataclasses.replace(plan, eta=plan.eta * 1.5)
        assert not all(ok for _, ok in reevaluate_plan(bigger))


def _within_rounding(bundle, target):
    """The target is accepted, or refused only by checks that miss by rounding.

    The refused checks are the float checks the refusal's plan violates,
    else the one the audit rejected, which the message names.
    """
    try:
        stepsize_plan(bundle, target_epochs=target)
    except PlanInfeasibleError as err:
        bad = ([c for c in err.checks if not c.satisfied]
               or [c for c in err.checks if f"violates {c.name!r}" in str(err)])
        assert bad, str(err)
        return all(abs(c.margin) <= 1e-9 * max(abs(c.lhs), abs(c.rhs)) for c in bad)
    return True


@settings(max_examples=150, deadline=None)
@given(recipe=st.sampled_from((3, 4)), ell=_MODULI, gap=_POSITIVE, n=st.integers(1, 10**4),
       eps=st.floats(-4.0, 0.0).map(lambda e: 10.0**e), delta=st.floats(0.01, 0.99),
       slope=_NOISE, noise=_NOISE, mu=_POSITIVE, opt_noise=_NOISE, comp_bound=_POSITIVE,
       probe=st.floats(0.0, 3.0))
@example(recipe=3, ell=EllFunction.power(10.0, 1.890625), gap=1000.0, n=1, eps=1.0, delta=0.01,
         slope=0.0, noise=0.0, mu=1.0, opt_noise=0.0, comp_bound=1.0, probe=0.0)
@example(recipe=3, ell=EllFunction.power(10.0, 1.890625), gap=1000.0, n=1, eps=1.0, delta=0.5,
         slope=0.0, noise=1.0, mu=1.0, opt_noise=0.0, comp_bound=1.0, probe=0.0)
@example(recipe=3, ell=EllFunction.power(1000.0, 1.9), gap=1.0, n=1, eps=1.0, delta=0.5,
         slope=0.0, noise=100.0, mu=1.0, opt_noise=0.0, comp_bound=1.0, probe=0.0)
def test_pinned_plans_are_minimal_and_acceptance_is_monotone(recipe, ell, gap, n, eps, delta,
                                                            slope, noise, mu, opt_noise,
                                                            comp_bound, probe):
    bundle = constants_for_recipe(
        recipe, ell, initial_gap=gap, n=n, eps=eps, failure_prob=delta, variance_slope=slope,
        noise_std=noise, strong_convexity=mu, optimum_noise_std=opt_noise,
        component_grad_bound_value=comp_bound)
    plan = stepsize_plan(bundle)
    if plan.epochs > 1:
        with pytest.raises(PlanInfeasibleError):
            stepsize_plan(bundle, target_epochs=plan.epochs - 1)
    # From T0 on (the pinned planner's docstring) an accepted epoch count
    # stays accepted when it grows, up to float rounding.
    t0 = 3 if recipe == 4 else math.ceil(math.exp(1.5) / math.sqrt(n))
    T = t0 + int(probe * plan.epochs)
    try:
        stepsize_plan(bundle, target_epochs=T)
    except PlanInfeasibleError:
        return
    assert _within_rounding(bundle, T + 1) and _within_rounding(bundle, 2 * T)


def test_recipe3_plan_reaches_target_on_desk_problem():
    # end-to-end: estimate stats, derive the strongly-convex plan, and
    # confirm the run actually lands inside the accuracy target
    from shufflegrad.diagnostics import estimate_variance_constants, sample_points_around
    from shufflegrad.optimize import RunConfig, run_shuffling
    from shufflegrad.shuffling import Scheme

    problem = TinyQuadraticProblem()
    eps, delta = 0.05, 0.2
    gap = problem.full_value(problem.initial_point) - problem.optimum_value
    fit = estimate_variance_constants(problem, sample_points_around(problem))
    bundle = constants_for_recipe(3, problem.declared_ell, initial_gap=gap,
                                  n=problem.n, eps=eps, failure_prob=delta,
                                  variance_slope=fit.slope, noise_std=fit.noise_std,
                                  strong_convexity=problem.strong_convexity)
    plan = stepsize_plan(bundle)
    assert plan.valid
    assert plan.epochs < 2000  # desk scale
    hits = 0
    for seed in range(20):
        rec = run_shuffling(problem, Scheme.random_reshuffle(problem.n, seed=seed),
                            RunConfig(step_size=plan.per_step_size(),
                                      epochs=plan.epochs, track_average=False))
        gap_final = problem.full_value(rec.final_point) - problem.optimum_value
        hits += gap_final <= eps
    assert hits >= 18  # 1 - delta of 20, with slack for two unlucky draws


class TestSublevelEstimate:
    def test_tiny_quadratic_bounds(self):
        problem = TinyQuadraticProblem()  # start (2,2), optimum (0,0)
        gap = problem.full_value(problem.initial_point) - problem.optimum_value
        radius = math.sqrt(2.0 * gap)
        exact = radius + 1.0  # farthest point in the sublevel ball from a center
        est = estimate_sublevel_gradient_bound(problem, budget=4000, seed=0)
        assert est.value <= exact + 1e-9
        assert est.value >= 0.98 * exact
        assert est.samples_accepted > 0

    def test_monotone_in_budget(self):
        problem = TinyQuadraticProblem()
        small = estimate_sublevel_gradient_bound(problem, budget=300, seed=5)
        large = estimate_sublevel_gradient_bound(problem, budget=4000, seed=5)
        assert small.value <= large.value + 1e-15

    def test_degenerate_start_at_optimum(self):
        problem = TinyQuadraticProblem(centers=((1.0, 1.0), (1.0, 1.0)),
                                       initial_point=(1.0, 1.0))
        est = estimate_sublevel_gradient_bound(problem, budget=100, seed=0)
        assert est.value <= 1e-10

    @staticmethod
    def _reference(problem, budget, seed):
        """The sampler's definition, one point and one scalar oracle call at
        a time: sample k takes the k-th direction of stream 0x6E and, when k
        is even, radius * u**(1/dim) for the (k/2)-th uniform u of stream
        0x6F (numpy's pow, as the block draw).  Returns (best, accepted)
        after each of the first ``budget`` samples."""
        w0 = problem.initial_point
        f0 = problem.full_value(w0)
        center = problem.optimum_point if problem.optimum_point is not None else w0
        mu = problem.strong_convexity
        if mu and problem.optimum_value is not None:
            radius = math.sqrt(max(2.0 * (f0 - problem.optimum_value) / mu, 0.0))
        elif mu:
            radius = float(np.linalg.norm(problem.full_gradient(w0))) / mu
        else:
            radius = 2.0 * max(float(np.linalg.norm(w0 - center)), 1.0)
        radius = max(radius, 1e-12)
        best = max(problem.max_component_gradient_norm(w0),
                   problem.max_component_gradient_norm(center))
        directions, uniforms = (
            np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(key,)))
            for key in (0x6E, 0x6F))
        accepted, prefixes = 0, []
        for k in range(budget):
            direction = directions.standard_normal(problem.dim)
            direction /= np.linalg.norm(direction)
            r = radius * np.power(uniforms.uniform(), 1.0 / problem.dim) if k % 2 == 0 else radius
            w = center + r * direction
            if problem.full_value(w) <= f0 + abs(f0) * 1e-12 + 1e-12:
                accepted += 1
                best = max(best, problem.max_component_gradient_norm(w))
            prefixes.append((best, accepted))
        return prefixes

    @pytest.mark.parametrize("make", [
        QuarticProblem, ExpStrongProblem, TinyQuadraticProblem,
        lambda: PhaseRetrievalProblem(m=40, dim=3, seed=1, noise_std=0.0),
        lambda: DROProblem(np.random.default_rng(5).standard_normal((30, 5)),
                           np.random.default_rng(6).standard_normal(30)),
    ], ids=["quartic", "exp_strong", "tiny_quadratic", "phase_retrieval", "dro"])
    def test_matches_scalar_reference_loop(self, make):
        problem = make()
        prefixes = self._reference(problem, 700, seed=3)
        # one sample, a block less one, a block, a block and one, and two
        # full blocks and a partial one: each budget's block draws are a
        # prefix of the larger budgets' draws
        for budget in (1, 255, 256, 257, 700):
            est = estimate_sublevel_gradient_bound(problem, budget=budget, seed=3)
            best, accepted = prefixes[budget - 1]
            assert est.samples_accepted == accepted
            assert est.samples_drawn == budget
            assert abs(est.value - best) <= 1e-12 * best
        if isinstance(problem, PhaseRetrievalProblem):
            assert 0 < accepted < budget  # rejects some samples, accepts others

    def test_zero_direction_is_dropped_without_a_warning(self, monkeypatch):
        default_rng = np.random.default_rng

        class FirstRowZero:  # the direction stream with each block's first row zeroed
            def __init__(self, seed_seq):
                self.rng = default_rng(seed_seq)

            def standard_normal(self, shape):
                rows = self.rng.standard_normal(shape)
                rows[0] = 0.0
                return rows

            def uniform(self, size):
                return self.rng.uniform(size=size)

        monkeypatch.setattr(np.random, "default_rng", FirstRowZero)
        est = estimate_sublevel_gradient_bound(TinyQuadraticProblem(), budget=300, seed=0)
        assert (est.samples_accepted, est.samples_drawn) == (298, 300)  # 256 + 44 rows

    def test_budget_validation(self):
        with pytest.raises(ValueError):
            estimate_sublevel_gradient_bound(TinyQuadraticProblem(), budget=0)
