"""Command-line front end.

Three subcommands: ``run`` executes a config-driven experiment and
writes the raw/aggregate CSVs, ``plan`` derives a stepsize plan for a
recipe from problem statistics (estimated or supplied by flags) and
writes a reusable plan file, ``check`` runs one of the diagnostic
suites and reports pass/fail per check.

Exit codes: 0 success, 1 failed checks or infeasible plans or runtime
errors, 2 usage errors, 3 diverged runs (partial output kept).
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import os
import sys

import numpy as np

from .diagnostics import (
    brute_force_partial_average_variance,
    estimate_variance_constants,
    finite_difference_gradient,
    optimum_component_noise,
    probe_ell_envelope,
    sample_points_around,
)
from .experiment import ExperimentConfig, run_experiment
from .optimize import RunConfig, run_shuffling
from .problems import build_problem
from .shuffling import Scheme, without_replacement_variance_factor
from .smoothness import (
    EllFunction,
    PlanInfeasibleError,
    RECIPES,
    constants_for_recipe,
    estimate_sublevel_gradient_bound,
    stepsize_plan,
)

SUITES = ("gradients", "variance", "ell-envelope", "permutation-oracle")

# the flags a suite takes besides --seed; passing another is a usage error
_SUITE_FLAGS = {"gradients": ("--problem",), "ell-envelope": ("--problem", "--ell-constant")}

# Small problem instances for the check suites; the full-size ones are
# needlessly slow for finite differences.
_CHECK_PROBLEMS = (
    {"id": "quartic"},
    {"id": "exp_strong"},
    {"id": "phase_retrieval", "m": 60, "dim": 12, "seed": 0},
    {"id": "dro", "dataset": {"synthetic": {"seed": 7, "rows": 80, "dim": 6}}},
    {"id": "tiny_quadratic"},
)


def _positive(text: str) -> float:
    val = float(text)
    if not val > 0 or not np.isfinite(val):
        raise argparse.ArgumentTypeError(f"expected a positive number, got {text!r}")
    return val


def _unit_interval(text: str) -> float:
    val = float(text)
    if not 0.0 < val < 1.0:
        raise argparse.ArgumentTypeError(f"expected a value in (0, 1), got {text!r}")
    return val


def _seed(text: str) -> int:
    val = int(text)
    if not 0 <= val < 2**64:
        raise argparse.ArgumentTypeError(f"seed must be an unsigned 64-bit integer, got {text!r}")
    return val


def _int_at_least(low: int):
    """An argparse type: an integer >= ``low``, refused with the flag named."""
    def parse(text: str) -> int:
        val = int(text)
        if val < low:
            raise argparse.ArgumentTypeError(f"expected an integer >= {low}, got {text!r}")
        return val
    parse.__name__ = "int"  # so a non-integer reads "invalid int value", as before
    return parse


@functools.cache  # parsing leaves the parser as it was, so one serves every call
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="shufflegrad",
        description="Shuffling-gradient benchmark runner and stepsize planner.")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="execute an experiment config")
    run.add_argument("--config", required=True, help="experiment config JSON file")
    run.add_argument("--out", required=True, help="output directory for CSVs")
    run.add_argument("--jobs", type=_int_at_least(1), default=None,
                     help="most worker processes to fork; runs too small to split stay "
                          "in this process (default: available parallelism)")
    run.add_argument("--seed", type=_seed, default=None,
                     help="override the config's base seed")

    plan = sub.add_parser("plan", help="derive a stepsize plan for a recipe")
    plan.add_argument("--theorem", type=int, required=True, choices=RECIPES,
                      help="recipe id (1..6)")
    plan.add_argument("--eps", type=_positive, required=True, help="target accuracy")
    plan.add_argument("--delta", type=_unit_interval, default=None,
                      help="failure probability, in (0, 1)")
    plan.add_argument("--problem", default=None, help="problem id to estimate statistics from")
    plan.add_argument("--seed", type=_seed, default=0, help="seed for the estimators")
    plan.add_argument("--out", default="plan.json", help="plan file to write")
    plan.add_argument("--target-epochs", type=int, default=None,
                      help="validate/complete a plan at this epoch count")
    plan.add_argument("--samples", type=_int_at_least(0), default=8,
                      help="sample points for the variance fit")
    plan.add_argument("--budget", type=_int_at_least(1), default=4000,
                      help="sampling budget for the component-gradient bound")
    plan.add_argument("--n", type=int, default=None, help="component count (manual stats mode)")
    plan.add_argument("--ell-constant", type=_positive, default=None,
                      help="use a constant smoothness modulus")
    plan.add_argument("--initial-gap", type=_positive, default=None,
                      help="objective gap at the initial point")
    plan.add_argument("--variance-slope", type=float, default=None,
                      help="variance model slope (overrides the estimate)")
    plan.add_argument("--noise-std", type=float, default=None,
                      help="variance model noise level (overrides the estimate)")
    plan.add_argument("--mu", type=_positive, default=None,
                      help="strong convexity constant (overrides the problem's)")
    plan.add_argument("--optimum-noise", type=float, default=None,
                      help="component noise at the optimum (overrides the estimate)")
    plan.add_argument("--initial-dist-sq", type=_positive, default=None,
                      help="squared distance from the start to the optimum")
    plan.add_argument("--component-grad-bound", type=_positive, default=None,
                      help="bound on component gradients over the run (overrides sampling)")

    check = sub.add_parser("check", help="run a diagnostic suite")
    check.add_argument("--suite", required=True, choices=SUITES)
    check.add_argument("--problem", default=None, help="restrict to one problem id")
    check.add_argument("--ell-constant", type=_positive, default=None,
                       help="probe against a constant modulus instead of the declared one")
    check.add_argument("--seed", type=_seed, default=0)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return {"run": _cmd_run, "plan": _cmd_plan, "check": _cmd_check}[args.command](args)
    except PlanInfeasibleError as err:
        print(f"infeasible plan: {err}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


def entrypoint() -> None:
    raise SystemExit(main())


def _default_jobs() -> int:
    try:
        return max(1, len(os.sched_getaffinity(0)))
    except (AttributeError, OSError):
        return os.cpu_count() or 1


def _cmd_run(args) -> int:
    config = ExperimentConfig.from_json(args.config)
    if args.seed is not None:
        config = dataclasses.replace(config, base_seed=args.seed)
    jobs = args.jobs if args.jobs is not None else _default_jobs()
    result = run_experiment(config, args.out, jobs=jobs)
    print(f"raw: {result.raw_path}")
    print(f"aggregate: {result.aggregate_path}")
    metrics = config.metrics or ("objective",)
    metric = "objective" if "objective" in metrics else metrics[0]
    for arm in config.arms:
        rows = result.aggregate.select(arm.name, metric)
        if rows:
            last = rows[-1]
            print(f"arm {arm.name}: final mean {metric} = {last.mean:.17g} "
                  f"(epoch {last.epoch}, count {last.count})")
        else:
            print(f"arm {arm.name}: no complete epochs")
    if result.diverged:
        pairs = ", ".join(f"arm={name} seed={seed} epoch={epoch} step={step}"
                          for (name, seed), (epoch, step) in zip(result.diverged,
                                                                 result.diverged_at))
        print(f"diverged runs: {pairs}", file=sys.stderr)
        return 3
    return 0


def _require(parser_hint: str, value, flag: str):
    if value is None:
        raise ValueError(f"{parser_hint} requires {flag}")
    return value


def _cmd_plan(args) -> int:
    recipe = args.theorem
    hint = f"recipe {recipe}"
    problem = build_problem({"id": args.problem}) if args.problem else None
    if problem is not None and args.n is not None and args.n != problem.n:
        raise ValueError(f"--n {args.n} does not match n = {problem.n} of problem {args.problem}")

    if args.ell_constant is not None:
        ell = EllFunction.constant(args.ell_constant)
    elif problem is not None and problem.declared_ell is not None:
        ell = problem.declared_ell
    else:
        raise ValueError("no smoothness modulus: pass --problem with a declared one or --ell-constant")

    n = _require(hint, problem.n if problem is not None else args.n, "--n or --problem")

    if args.initial_gap is not None:
        gap = args.initial_gap
    elif problem is not None and problem.optimum_value is not None:
        gap = float(problem.full_value(problem.initial_point)) - problem.optimum_value
    else:
        raise ValueError("initial gap unknown: pass --initial-gap (a bound needs the optimal value)")

    needs = RECIPES[recipe].needs
    kwargs = {"initial_gap": gap, "n": int(n), "eps": args.eps}
    if "failure_prob" in needs:
        kwargs["failure_prob"] = _require(hint, args.delta, "--delta")
    if "variance_slope" in needs:
        slope, noise = args.variance_slope, args.noise_std
        if slope is None or noise is None:
            if problem is None:
                raise ValueError(f"{hint} requires --variance-slope and --noise-std without --problem")
            fit = estimate_variance_constants(
                problem, sample_points_around(problem, count=args.samples, seed=args.seed))
            slope = fit.slope if slope is None else slope
            noise = fit.noise_std if noise is None else noise
            print(f"estimated variance constants: slope = {slope:.17g}, "
                  f"noise_std = {noise:.17g} ({fit.sample_count} samples)")
        kwargs["variance_slope"] = slope
        kwargs["noise_std"] = noise
    if "strong_convexity" in needs:
        mu = args.mu
        if mu is None and problem is not None:
            mu = problem.strong_convexity
        kwargs["strong_convexity"] = _require(hint, mu, "--mu")
    if "optimum_noise_std" in needs:
        opt_noise = args.optimum_noise
        if opt_noise is None and problem is not None and problem.optimum_point is not None:
            opt_noise = optimum_component_noise(problem)
        kwargs["optimum_noise_std"] = _require(hint, opt_noise, "--optimum-noise")
    if "initial_distance_sq" in needs:
        dist = args.initial_dist_sq
        if dist is None and problem is not None and problem.optimum_point is not None:
            delta_w = problem.initial_point - problem.optimum_point
            dist = float(delta_w @ delta_w)
        kwargs["initial_distance_sq"] = _require(hint, dist, "--initial-dist-sq")
    if "component_grad_bound_value" in needs:
        bound = args.component_grad_bound
        heuristic = False
        if bound is None:
            if problem is None:
                raise ValueError(f"{hint} requires --component-grad-bound without --problem")
            est = estimate_sublevel_gradient_bound(problem, budget=args.budget, seed=args.seed)
            bound = est.value
            heuristic = True
            print(f"sampled component gradient bound: {bound:.17g} "
                  f"({est.samples_accepted}/{est.samples_drawn} accepted; heuristic)")
        kwargs["component_grad_bound_value"] = bound
        kwargs["gprime_heuristic"] = heuristic

    bundle = constants_for_recipe(recipe, ell, **kwargs)
    plan = stepsize_plan(bundle, target_epochs=args.target_epochs)
    print(plan.report())
    with open(args.out, "w") as fh:
        json.dump(plan.to_config(), fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"plan written to {args.out}")
    return 0


def _report(lines: list[str], ok: bool, label: str, detail: str) -> bool:
    lines.append(f"{'PASS' if ok else 'FAIL'} {label}: {detail}")
    return ok


def _cmd_check(args) -> int:
    for flag, value in (("--problem", args.problem), ("--ell-constant", args.ell_constant)):
        if value is not None and flag not in _SUITE_FLAGS.get(args.suite, ()):
            build_parser().error(f"check --suite {args.suite} does not take {flag}")
    lines: list[str] = []
    ok = {"gradients": _suite_gradients, "variance": _suite_variance,
          "ell-envelope": _suite_ell_envelope,
          "permutation-oracle": _suite_permutation_oracle}[args.suite](args, lines)
    print("\n".join(lines))
    return 0 if ok else 1


def _check_specs(problem_id):
    if problem_id is None:
        return _CHECK_PROBLEMS
    for spec in _CHECK_PROBLEMS:
        if spec["id"] == problem_id:
            return (spec,)
    return ({"id": problem_id},)


def _suite_gradients(args, lines: list[str]) -> bool:
    all_ok = True
    for spec in _check_specs(args.problem):
        problem = build_problem(spec)
        tol = 1e-4 if spec["id"] == "dro" else 1e-5
        worst = 0.0
        rng = np.random.default_rng(np.random.SeedSequence(entropy=args.seed, spawn_key=(0xC1,)))
        for point in sample_points_around(problem, count=3, seed=args.seed, spread=0.3):
            point = point.copy()
            # Keep clear of the regularizer's kinks so the numeric
            # derivative is meaningful.
            point[np.abs(point) < 1e-3] += 5e-3
            full = problem.full_gradient(point)
            fd = finite_difference_gradient(problem.full_value, point)
            scale = max(1.0, float(np.linalg.norm(full)))
            worst = max(worst, float(np.linalg.norm(full - fd)) / scale)
            for i in rng.integers(0, problem.n, size=3):
                comp = problem.component_gradient(point, int(i))
                fd_c = finite_difference_gradient(
                    lambda w, i=int(i): problem.component_value(w, i), point)
                scale = max(1.0, float(np.linalg.norm(comp)))
                worst = max(worst, float(np.linalg.norm(comp - fd_c)) / scale)
        all_ok &= _report(lines, worst <= tol, f"gradients {spec['id']}",
                          f"max relative error {worst:.3g} (tolerance {tol:g})")
    return all_ok


def _suite_variance(args, lines: list[str]) -> bool:
    all_ok = True

    tiny = build_problem({"id": "tiny_quadratic"})
    fit = estimate_variance_constants(
        tiny, sample_points_around(tiny, count=6, seed=args.seed))
    expected = tiny.gradient_variance()
    ok = fit.slope == 0.0 and abs(fit.noise_sq - expected) <= 1e-12 and fit.worst_margin <= 1e-12
    all_ok &= _report(lines, ok, "variance tiny_quadratic",
                      f"slope = {fit.slope:g}, noise_sq = {fit.noise_sq:.12g} "
                      f"(expected {expected:.12g})")

    quartic = build_problem({"id": "quartic"})
    rng = np.random.default_rng(np.random.SeedSequence(entropy=args.seed, spawn_key=(0xC2,)))
    points = [np.zeros(quartic.dim)]
    points += [rng.normal(scale=0.005, size=quartic.dim) for _ in range(5)]
    fit = estimate_variance_constants(quartic, points)
    expected = 770.0 / 21.0
    ok = fit.slope == 0.0 and abs(fit.noise_sq - expected) <= 1e-6
    all_ok &= _report(lines, ok, "variance quartic",
                      f"slope = {fit.slope:g}, noise_sq = {fit.noise_sq:.12g} "
                      f"(expected {expected:.12g})")
    return all_ok


# Conservative per-step stepsizes for the short probe runs of the
# ell-envelope suite (visited-state probing).
_PROBE_STEPS = {"quartic": 0.01, "exp_strong": 1e-5, "tiny_quadratic": 0.1}


def _visited_points(problem, problem_id: str, seed: int) -> list[np.ndarray]:
    """Entering iterates of a short run; the envelope claim is about
    states an actual run visits, not arbitrary ambient points."""
    step = _PROBE_STEPS.get(problem_id)
    if step is None:
        return sample_points_around(problem, count=6, seed=seed, include_anchors=False)
    config = RunConfig(step_size=step, epochs=12, track_average=False)
    record = run_shuffling(problem, Scheme.random_reshuffle(problem.n, seed), config)
    points = [problem.initial_point, record.final_point]
    # spread probes over early and late epochs via a fresh short run
    mid = run_shuffling(problem, Scheme.random_reshuffle(problem.n, seed + 1),
                        RunConfig(step_size=step, epochs=4, track_average=False))
    points.append(mid.final_point)
    return points


def _suite_ell_envelope(args, lines: list[str]) -> bool:
    specs = _check_specs(args.problem) if args.problem else (
        {"id": "quartic"}, {"id": "exp_strong"})
    all_ok = True
    for spec in specs:
        problem = build_problem(spec)
        ell = (EllFunction.constant(args.ell_constant)
               if args.ell_constant is not None else problem.declared_ell)
        if ell is None:
            all_ok &= _report(lines, False, f"ell-envelope {spec['id']}",
                              "no declared modulus; pass --ell-constant")
            continue
        points = _visited_points(problem, spec["id"], args.seed)
        report = probe_ell_envelope(problem, points, ell=ell, seed=args.seed)
        bad = [report.probes[i] for i in report.violations]
        detail = (f"{len(report.probes)} probes, {len(bad)} violations, "
                  f"{report.stagnated_count} stagnated")
        for probe in bad:
            detail += (f"\n    violation: curvature {probe.hessian_norm:.6g} > "
                       f"modulus {probe.ell_bound:.6g} at gradient norm {probe.grad_norm:.6g}")
        all_ok &= _report(lines, not bad, f"ell-envelope {spec['id']}", detail)
    return all_ok


def _suite_permutation_oracle(args, lines: list[str]) -> bool:
    all_ok = True
    rng = np.random.default_rng(np.random.SeedSequence(entropy=args.seed, spawn_key=(0xC3,)))
    for n in range(2, 7):
        ok = True
        for _ in range(2):
            vectors = rng.standard_normal((n, 3))
            spread = vectors - vectors.mean(axis=0)
            total = float(np.sum(spread * spread)) / n
            for k in range(1, n + 1):
                expected = float(without_replacement_variance_factor(n, k)) * total
                actual = brute_force_partial_average_variance(vectors, k)
                if not np.isclose(actual, expected, rtol=1e-12, atol=1e-15):
                    ok = False
        all_ok &= _report(lines, ok, f"permutation-oracle n={n}",
                          "brute-force variance matches the closed-form factor")
    return all_ok


if __name__ == "__main__":
    entrypoint()
