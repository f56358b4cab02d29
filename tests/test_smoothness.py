import dataclasses
import decimal
import math
from decimal import Decimal
from fractions import Fraction

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
from shufflegrad import smoothness
from shufflegrad.smoothness import (
    _INTERVALS,
    RECIPES,
    EllFunction,
    PlanInfeasibleError,
    StepsizePlan,
    _Arithmetic,
    _assemble,
    _Interval,
    _per_log,
    _sides,
    _values,
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

    @pytest.mark.parametrize("recipe, field, value", [
        (2, "noise_std", math.inf), (2, "variance_slope", math.nan),
        (4, "optimum_noise_std", math.nan), (4, "optimum_noise_std", -1.0),
        (3, "strong_convexity", -1.0), (3, "strong_convexity", 0.0),
        (6, "initial_distance_sq", 0.0), (6, "component_grad_bound_value", 0.0),
        (1, "initial_gap", math.nan), (1, "eps", math.inf)])
    def test_bad_statistics_are_refused_by_name(self, recipe, field, value):
        sign = ">=" if field in ("noise_std", "variance_slope", "optimum_noise_std") else ">"
        with pytest.raises(ValueError, match=f"^{field} must be finite and {sign} 0, got "):
            _bundle(recipe, **{field: value})

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
        assert plan.epochs == 1
        assert plan == stepsize_plan(bundle, target_epochs=1)
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

    @pytest.mark.parametrize("stats, cap", [(dict(noise_std=1e308), "cube_sum"),
                                            (dict(variance_slope=1e308), "eta_cap")])
    @pytest.mark.parametrize("target", [None, 100])
    def test_zero_cap_is_refused_by_name(self, stats, cap, target):
        # The cap is 0 in floats, so the epoch floor K / eta is not finite
        bundle = _bundle(2, n=10, **stats)
        with pytest.raises(PlanInfeasibleError, match=f"^recipe 2: at eta = 0, set by the cap "
                                                      f"of '{cap}', the epoch floor is not finite"):
            stepsize_plan(bundle, target_epochs=target)

    @pytest.mark.parametrize("recipe", [2, 4])
    def test_target_past_the_largest_float_is_refused(self, recipe):
        with pytest.raises(ValueError, match="must be >= 1 and fit a float"):
            stepsize_plan(_bundle(recipe), target_epochs=10**400)

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


# Plans and refusals of the default bundles, pinned bit for bit: one
# plan per recipe, one target plan per free recipe, and refusals of both
# planners; the pinned ones weigh every shape that binding() reads
# (floor, per_log, cap, accuracy).
_EXACT_PLANS = [  # (recipe, target, repr(eta), epochs)
    (1, None, "0.024999872843554302", 256002), (2, None, "0.028867366631864982", 27713),
    (3, None, "0.15730445778155405", 144), (4, None, "0.05554743746007442", 709),
    (5, None, "0.11176700690880646", 2864), (6, None, "0.03872983346207417", 1033),
    (1, 10**7, "0.007368062997280773", 10**7), (2, 10**5, "0.01882072057762057", 10**5),
    (5, 10**5, "0.034199518933533936", 10**5), (6, 2000, "0.03872983346207417", 2000),
]
_EXACT_REFUSALS = [  # (recipe, overrides, target, message)
    (2, {}, 100, "recipe 2: target epoch count 100 violates 'epoch_floor' (lhs = 16000, rhs = 100)"),
    (6, {}, 1000, "recipe 6: target epoch count 1000 violates 'epoch_floor' "
                  "(lhs = 1032.8, rhs = 1000)"),
    (3, {}, 143, "recipe 3: target epoch count 143 violates 'noise_cap' "
                 "(lhs = 25.2982, rhs = 25.2829)"),
    (4, {}, 2, "recipe 4: target epoch count 2 violates 'eta_cap' (lhs = 2.07944, rhs = 0.0555556)"),
    (4, dict(eps=1e-4, optimum_noise_std=0.0), 3,
     "recipe 4: target epoch count 3 violates 'accuracy_budget' (lhs = 0.111111, rhs = 0.0001)"),
    (3, dict(strong_convexity=1e-305, noise_std=0.0, ell=EllFunction.constant(0.25)), None,
     "recipe 3: no epoch count up to 2**1023 passes: epoch count 4.49423e+307 violates "
     "'iteration_floor' (lhs = 8e+305, rhs = 6.33803e+304)"),
    # the rhs (optimum_noise_std**2) overflows; the lhs, the pinned stepsize, is kept
    (4, dict(n=10, strong_convexity=0.5, optimum_noise_std=1e200, component_grad_bound_value=2.0),
     None, "recipe 4: no epoch count up to 2**1023 passes: epoch count 4.49423e+307 violates "
     "'eta_cap' (lhs = 1.89148e-304, rhs = nan)"),
]


@pytest.mark.parametrize("recipe, target, eta, epochs", _EXACT_PLANS)
def test_exact_plans(recipe, target, eta, epochs):
    plan = stepsize_plan(_bundle(recipe), target_epochs=target)
    assert (repr(plan.eta), plan.epochs) == (eta, epochs)


@pytest.mark.parametrize("recipe, overrides, target, message", _EXACT_REFUSALS)
def test_exact_refusals(recipe, overrides, target, message):
    with pytest.raises(PlanInfeasibleError) as err:
        stepsize_plan(_bundle(recipe, **overrides), target_epochs=target)
    assert str(err.value) == message


def test_a_side_that_overflows_leaves_the_other():
    # T * eta**3 overflows at eta = 1e103; the cube bound is still read
    checks = {c.name: c for c in _assemble(_bundle(2), 1e103, 1, None).checks}
    assert math.isnan(checks["cube_sum"].lhs) and checks["cube_sum"].rhs == 2.0 / 3.0


_POSITIVE = st.floats(-3.0, 3.0).map(lambda e: 10.0**e)
_NOISE = st.one_of(st.just(0.0), _POSITIVE)
_MODULI = st.one_of(
    st.builds(EllFunction.constant, _POSITIVE),
    st.builds(EllFunction.affine, _POSITIVE, _POSITIVE),
    st.builds(EllFunction.power, _POSITIVE, st.floats(0.0, 1.9), st.just(0.0)),
)


@settings(max_examples=150, deadline=None)
@given(recipe=st.sampled_from(sorted(RECIPES)), ell=_MODULI, gap=_POSITIVE,
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
        floats = _assemble(bundle, eta, epochs, None).checks
        for check, (name, ok) in zip(floats, audit, strict=True):
            assert check.name == name
            if abs(check.margin) > 1e-9 * max(abs(check.lhs), abs(check.rhs)):
                assert check.satisfied == ok, (check, ok)

    # A stepsize set by a cap or by the pinned formula cannot grow by half.
    # The candidate stepsize may sit well inside every cap, so 1.5 times
    # the stepsize can then still be feasible.
    if plan.candidate_eta is None or plan.eta < plan.candidate_eta * (1.0 - 1e-6):
        bigger = dataclasses.replace(plan, eta=plan.eta * 1.5)
        assert not all(ok for _, ok in reevaluate_plan(bigger))


_EXTREME = st.floats(-300.0, 300.0).map(lambda e: 10.0**e)
_EXTREME_NOISE = st.one_of(st.just(0.0), _EXTREME)


@settings(max_examples=100, deadline=None)
@given(recipe=st.sampled_from(sorted(RECIPES)),
       ell=st.one_of(st.builds(EllFunction.constant, _EXTREME),
                     st.builds(EllFunction.affine, _EXTREME, _EXTREME),
                     st.builds(EllFunction.power, _EXTREME, st.floats(0.0, 1.9), st.just(0.0))),
       gap=_EXTREME, n=st.integers(1, 10**9), eps=_EXTREME, delta=st.floats(0.01, 0.99),
       slope=_EXTREME_NOISE, noise=_EXTREME_NOISE, mu=_EXTREME, opt_noise=_EXTREME_NOISE,
       dist_sq=_EXTREME, comp_bound=_EXTREME,
       target=st.one_of(st.none(), st.integers(1, 10**9), st.integers(1, 2**1000)))
def test_planner_floats_never_raise(recipe, ell, gap, n, eps, delta, slope, noise, mu,
                                    opt_noise, dist_sq, comp_bound, target):
    # Statistics far from 1 underflow divisors to 0 and overflow powers in
    # floats; the planner refuses such a plan instead of raising, and any
    # plan it returns still passes the audit.
    try:
        plan = stepsize_plan(constants_for_recipe(
            recipe, ell, initial_gap=gap, n=n, eps=eps, failure_prob=delta,
            variance_slope=slope, noise_std=noise, strong_convexity=mu,
            optimum_noise_std=opt_noise, initial_distance_sq=dist_sq,
            component_grad_bound_value=comp_bound), target_epochs=target)
    except (ValueError, PlanInfeasibleError):
        return
    assert plan.valid and all(ok for _, ok in reevaluate_plan(plan))


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


# The audit's interval type.  Intervals are compared through their ends as
# Fractions (or infinite floats), so no comparison rounds.


def _dec_ends(x):
    if isinstance(x, float):  # a check side that is a plain constant
        return Fraction(x), Fraction(x)
    return tuple(float(e) if e.is_infinite() else Fraction(e) for e in (x.lo, x.hi))


def _mp_end(t):
    from mpmath import libmp

    return {libmp.finf: math.inf, libmp.fninf: -math.inf}.get(t) or Fraction(*libmp.to_rational(t))


def _mp_ends(x):
    return (Fraction(x), Fraction(x)) if isinstance(x, float) else tuple(map(_mp_end, x._mpi_))


@pytest.fixture(scope="module")
def mp():
    """mpmath interval contexts: one at 60 digits (203 bits) for the table
    sides, and one at 100 digits as the reference for single operations."""
    ctx_iv = pytest.importorskip("mpmath.ctx_iv")
    contexts = []
    for dps in (60, 100):
        iv = ctx_iv.MPIntervalContext()
        iv.dps = dps
        third = iv.mpf(1) / 3
        contexts.append((iv, _Arithmetic(iv.mpf, iv.sqrt, iv.log, lambda x, t=third: x ** t,
                                         iv.inf)))
    return contexts


class _Opaque:
    """A value outside rational arithmetic: every result made from it is itself."""

    def _same(self, *_):
        return self

    __add__ = __radd__ = __sub__ = __rsub__ = __mul__ = __rmul__ = _same
    __truediv__ = __rtruediv__ = __pow__ = __abs__ = __ne__ = _same


_OPAQUE = _Opaque()


class _Exact(Fraction):
    """Exact rationals that take a float operand at its exact value (a
    plain Fraction turns the result into a float)."""

    def __pow__(self, k):
        return _Exact(Fraction(self) ** k)

    def __abs__(self):
        return _Exact(abs(Fraction(self)))


def _exact_op(name):
    op = getattr(Fraction, name)
    return lambda a, b: _OPAQUE if b is _OPAQUE else _Exact(op(Fraction(a), Fraction(b)))


for _name in ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
              "__truediv__", "__rtruediv__"):
    setattr(_Exact, _name, _exact_op(_name))

# sqrt, ln and cbrt leave rational arithmetic; c.inf stays a float.
_EXACT = _Arithmetic(_Exact, *(lambda x: _OPAQUE,) * 3, math.inf)

_BUNDLES = st.builds(
    lambda recipe, ell, gap, n, eps, delta, slope, noise, mu, opt_noise, dist_sq, comp_bound:
    constants_for_recipe(recipe, ell, initial_gap=gap, n=n, eps=eps, failure_prob=delta,
                         variance_slope=slope, noise_std=noise, strong_convexity=mu,
                         optimum_noise_std=opt_noise, initial_distance_sq=dist_sq,
                         component_grad_bound_value=comp_bound),
    st.sampled_from(sorted(RECIPES)), _MODULI, _POSITIVE, st.integers(1, 10**4),
    st.floats(-4.0, 0.0).map(lambda e: 10.0**e), st.floats(0.01, 0.99), _NOISE, _NOISE,
    _POSITIVE, _NOISE, _POSITIVE, _POSITIVE)


def _near_plan(bundle):
    """(eta, epochs) at the planner's plan and one ulp or epoch around it;
    none when no plan exists."""
    try:
        plan = stepsize_plan(bundle)
    except PlanInfeasibleError:
        return []
    eta, T = plan.eta, plan.epochs
    return [(eta, T), (math.nextafter(eta, math.inf), T), (math.nextafter(eta, 0.0), T),
            (eta, max(1, T - 1)), (eta, T + 1)]


def _ties(bundle, eta):
    """(eta * 2**-300, T) with T one epoch either side of the exact boundary
    of each rational check that is affine in T (the epoch floors and cube
    sums).  T then has far more than 64 digits, so only the audit's outward
    rounding keeps it from accepting the side exact arithmetic rejects."""
    tiny = math.ldexp(eta, -300)
    at = [_sides(bundle.recipe, _values(bundle, _EXACT, tiny, T)) for T in (1, 2)]
    points = []
    for (_, *one), (_, *two) in zip(*at, strict=True):
        sides = [one, two]
        if any(v is _OPAQUE or v == math.inf for pair in sides for v in pair):
            continue
        d1, d2 = (_Exact(left) - right for left, right in sides)  # lhs - rhs at T = 1, 2
        if d1 != d2:
            root = math.floor(1 - d1 / (d2 - d1))
            points += [(tiny, T) for T in (root, root + 1) if T >= 1]
    return points


def _audit(bundle, eta, epochs):
    return dict(reevaluate_plan(StepsizePlan(bundle.recipe, eta, epochs, bundle, ())))


@settings(max_examples=80, deadline=None)
@given(bundle=_BUNDLES)
def test_audit_accepts_no_rational_check_that_exact_arithmetic_rejects(bundle):
    # Checks built from + - * / alone (the cube sums, the free recipes'
    # epoch floors, recipe 4's eta_cap and positive_eta) are decided
    # exactly in Fractions.
    near = _near_plan(bundle)
    for eta, epochs in near + (_ties(bundle, near[0][0]) if near else []):
        verdicts = _audit(bundle, eta, epochs)
        for name, *sides in _sides(bundle.recipe, _values(bundle, _EXACT, eta, epochs)):
            if verdicts[name] and not any(s is _OPAQUE for s in sides):
                assert sides[0] <= sides[1], (name, eta, epochs)


def _assert_sides_agree_with_mpmath(mp, bundle, eta, epochs):
    """Each check side's interval meets mpmath's 60-digit one and is at most
    1e-50 wide relative to its size; where mpmath decides a check, the
    audit decides it the same way."""
    _, mp_arithmetic = mp[0]
    decimal_sides = _sides(bundle.recipe, _values(bundle, _INTERVALS, eta, epochs))
    mp_sides = _sides(bundle.recipe, _values(bundle, mp_arithmetic, eta, epochs))
    for (name, *dec), (_, *mpm) in zip(decimal_sides, mp_sides, strict=True):
        for d, m, which in zip(dec, mpm, ("lhs", "rhs")):
            (dlo, dhi), (mlo, mhi) = _dec_ends(d), _mp_ends(m)
            assert dlo <= mhi and mlo <= dhi, (name, which, (dlo, dhi), (mlo, mhi))
            if math.inf not in (abs(dlo), abs(dhi)):
                # |eta - pinned_eta|, the checks' one subtraction, cancels: measure it against eta
                size = abs(Fraction(eta)) if name == "eta_formula" and which == "lhs" else \
                    max(abs(dlo), abs(dhi))
                assert dhi - dlo <= Fraction(1, 10**50) * size, (name, which)
        expected = mpm[0] <= mpm[1]
        if expected is not None:
            assert (dec[0] <= dec[1]) == expected, name


@settings(max_examples=60, deadline=None)
@given(bundle=_BUNDLES)
# recipe 3's curvature_cap near tie at T ~ 2.6e63, which mpmath decides and
# a 60-digit audit left undecided
@example(bundle=constants_for_recipe(
    3, EllFunction("power", (1.0, 1.875, 0.0)), initial_gap=100.0, n=1, eps=1.0,
    failure_prob=0.5, variance_slope=0.0, noise_std=0.0, strong_convexity=1.0,
    optimum_noise_std=0.0, initial_distance_sq=1.0, component_grad_bound_value=1.0))
def test_audit_agrees_with_mpmath_intervals(mp, bundle):
    for eta, epochs in _near_plan(bundle):
        _assert_sides_agree_with_mpmath(mp, bundle, eta, epochs)


_GAP_CUBE_INPUTS = [  # the two gap_cube examples of the pinned-plan property
    dict(ell=EllFunction.power(10.0, 1.890625), initial_gap=1000.0, noise_std=1.0),
    dict(ell=EllFunction.power(1000.0, 1.9), initial_gap=1.0, noise_std=100.0),
]


def _gap_cube_bundle(inputs):
    return constants_for_recipe(3, n=1, eps=1.0, failure_prob=0.5, variance_slope=0.0,
                                strong_convexity=1.0, **inputs)


_EDGE_PLANS = {
    **{f"recipe{r}_T_2**1000": (lambda r=r: stepsize_plan(_bundle(r), target_epochs=2**1000))
       for r in RECIPES},
    **{f"gap_cube_{i}": (lambda i=i: stepsize_plan(_gap_cube_bundle(_GAP_CUBE_INPUTS[i])))
       for i in range(2)},
    "zero_noise": lambda: stepsize_plan(_bundle(5, noise_std=0.0, optimum_noise_std=0.0)),
    "recipe3_n_T_1": lambda: StepsizePlan(3, 0.0, 1, _bundle(3, n=1), ()),
}


@pytest.mark.parametrize("make", _EDGE_PLANS.values(), ids=_EDGE_PLANS.keys())
def test_edge_plans_agree_with_mpmath_intervals(mp, make):
    plan = make()
    _assert_sides_agree_with_mpmath(mp, plan.bundle, plan.eta, plan.epochs)


_SIGNED = st.one_of(st.just(0.0), st.builds(lambda s, e: s * 10.0**e, st.sampled_from((-1.0, 1.0)),
                                            st.floats(-30.0, 30.0)))


def _interval(a, b):
    return _Interval(*sorted((Decimal(a), Decimal(b))))


@settings(max_examples=150, deadline=None)
@given(a=_SIGNED, b=_SIGNED, c=_SIGNED, d=_SIGNED)
def test_interval_operations_are_tight_enclosures(mp, a, b, c, d):
    # Each result holds mpmath's 100-digit enclosure of the same operation, less
    # 1e-90 of its size at each end (where decimal is exact, as -1/-10 = 0.1,
    # mpmath's binary ends are the wider), and each end lies within 1e-50 of it.
    iv, mp_arithmetic = mp[1]
    x, y = _interval(a, b), _interval(c, d)
    mx, my = iv.mpf(sorted((a, b))), iv.mpf(sorted((c, d)))
    pairs = [(x + y, mx + my), (x - y, mx - my), (x * y, mx * my),
             (x ** 2, mx ** 2), (x ** 3, mx ** 3), (abs(x), abs(mx))]
    if not 0 in my:
        pairs.append((x / y, mx / my))
    if 0 < min(a, b):
        # [lo, lo * (1 + 2**-190)] takes ln's one-call path; its ends are exact in both types
        lo = min(a, b)
        hi = decimal.Context(prec=1000).add(Decimal(lo), Decimal(math.ldexp(lo, -190)))
        narrow = _Interval(Decimal(lo), hi)
        m_narrow = iv.mpf([lo, iv.mpf(lo) + iv.mpf(math.ldexp(lo, -190))])
        pairs += [(f(x), g(mx)) for f, g in ((_INTERVALS.sqrt, mp_arithmetic.sqrt),
                                             (_INTERVALS.log, mp_arithmetic.log),
                                             (_INTERVALS.cbrt, mp_arithmetic.cbrt))]
        pairs += [(_INTERVALS.log(narrow), mp_arithmetic.log(m_narrow))]
    for got, ref in pairs:
        (dlo, dhi), (mlo, mhi) = _dec_ends(got), _mp_ends(ref)
        for de, me, outward in ((dlo, mlo, 1), (dhi, mhi, -1)):
            if de == me:
                continue
            assert outward * (me - de) >= -Fraction(1, 10**90) * abs(me), (a, b, c, d, got, ref)
            assert abs(de - me) <= Fraction(1, 10**50) * abs(me), (got, ref)
    if 0 in my:
        assert (x / y) == _INTERVALS.num(math.nan)  # the whole line


def test_recipe3_at_one_component_and_one_epoch_meets_the_whole_line():
    bundle = _bundle(3, n=1)
    c = _values(bundle, _INTERVALS, 0.0, 1)
    assert c.ln == 0 and c.pinned_eta == 0  # ln(sqrt(1) * 1), exactly
    whole = _INTERVALS.num(math.nan)
    assert _per_log(c) == whole and (whole.lo, whole.hi) == (-Decimal("Infinity"), Decimal("Infinity"))
    verdicts = _audit(bundle, 0.0, 1)
    assert not any(verdicts[name] for name in ("iteration_floor", "curvature_cap", "noise_cap",
                                               "gap_cube"))  # each rhs is T / ln
    with pytest.raises(PlanInfeasibleError):
        stepsize_plan(bundle, target_epochs=1)
    # An even power and abs of the whole line stay at or above 0; its cube root is itself.
    assert (whole ** 2 >= 0) is True and (abs(whole) >= 0) is True and (whole <= 0) is None
    assert _INTERVALS.cbrt(whole) == whole


@pytest.mark.parametrize("recipe, check, field", [
    (1, "cube_sum", "noise_std"), (2, "cube_sum", "noise_std"), (5, "cube_sum_noise", "noise_std"),
    (5, "cube_sum_optimum_noise", "optimum_noise_std"), (4, "eta_cap", "optimum_noise_std")])
def test_zero_noise_gives_the_infinite_right_side(recipe, check, field):
    bundle = _bundle(recipe, **{field: 0.0})
    plan = stepsize_plan(bundle)
    rhs = {name: right for name, _, right in
           _sides(recipe, _values(bundle, _INTERVALS, plan.eta, plan.epochs))}
    assert rhs[check] == _INTERVALS.inf
    assert all(ok for _, ok in reevaluate_plan(plan))


def test_negative_zero_is_zero():
    point = _INTERVALS.num(-0.0)
    assert point == 0 and not point.lo.is_signed() and not point.hi.is_signed()
    plain = stepsize_plan(_bundle(5, noise_std=0.0, optimum_noise_std=0.0))
    signed = stepsize_plan(_bundle(5, noise_std=-0.0, optimum_noise_std=-0.0))
    assert (signed.eta, signed.epochs) == (plain.eta, plain.epochs)
    assert all(ok for _, ok in reevaluate_plan(signed))


@pytest.mark.parametrize("recipe", sorted(RECIPES))
def test_epoch_counts_past_float_precision(recipe):
    plan = stepsize_plan(_bundle(recipe), target_epochs=2**1000)
    assert plan.epochs == 2**1000 and all(ok for _, ok in reevaluate_plan(plan))
    T = _values(plan.bundle, _INTERVALS, plan.eta, 2**1000 + 1).T  # 1001 bits, exactly
    assert T.lo == T.hi == 2**1000 + 1


@pytest.mark.parametrize("inputs", _GAP_CUBE_INPUTS)
def test_gap_cube_examples_pass_the_audit(inputs):
    plan = stepsize_plan(_gap_cube_bundle(inputs))
    assert plan.epochs > 10**105 and plan.valid
    assert all(ok for _, ok in reevaluate_plan(plan))


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
