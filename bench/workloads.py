"""Seeded inputs and output checks for the benchmark workloads.

Every input is a pure function of the workload seed, drawn with the
stdlib ``random`` module so it does not depend on the numpy version
under test: the dro CSV (written with stdlib ``csv``), the
tiny_quadratic centers, the experiment configs and the plan requests.
The program only ever sees the generated files and argument lists.

An operation is one (arm, repetition) run or one plan request.  The
checks return the operations that failed; a diverged run is not a
failure unless the workload says that arm must not diverge.
"""

from __future__ import annotations

import csv
import json
import math
import random
import re
from pathlib import Path

WORKLOADS = ("acceptance-mix", "small-n-bookkeeping", "dro-csv-pool", "plan-estimate")

RAW_HEADER = "arm,rep,epoch,objective,grad_norm_sq,dist_sq,evals,wall_ms"
AGGREGATE_HEADER = "arm,epoch,metric,mean,p05,p95,count"

# Shapes per round.  Each round is one fresh process; the run repeats
# rounds until its time is used up, so these set the work per sample,
# not the run length.  small-n-bookkeeping and dro-csv-pool make two
# calls per round (two base seeds) so that every timed call is short
# next to the machine's speed swings; see run.py.
ACCEPTANCE_REPS, ACCEPTANCE_EPOCHS = 2, 12
TINY_REPS, TINY_EPOCHS = 100, 8
DRO_REPS, DRO_EPOCHS, DRO_JOBS = 2, 2, 2
CALLS_PER_ROUND = 2
DRO_ROWS, DRO_FEATURES = 2000, 34

README_PLAN = ["--theorem", "2", "--eps", "0.1", "--n", "2", "--ell-constant", "1",
               "--initial-gap", "1", "--variance-slope", "0", "--noise-std", "1"]
README_ETA, README_EPOCHS = 0.028867366631864982, 27713

# Relative tolerance for a solo re-run against the batched raw.csv row.
SOLO_RTOL = 1e-12
SOLO_CHECKS_PER_EXPERIMENT = 2


def _rng(workload: str, seed: int, stream: str) -> random.Random:
    return random.Random(f"{workload}/{seed}/{stream}")


def _arms(step: float, schemes=("fixed", "shuffle_once", "random_reshuffle")) -> list[dict]:
    arms = [{"name": s, "method": "shuffling", "scheme": s, "step_size": step} for s in schemes]
    return arms + [{"name": "sgd", "method": "sgd", "step_size": step}]


def _experiment(name, problem, arms, epochs, reps, seed, jobs=1, sweep_arm=None) -> dict:
    config = {"problem": problem, "arms": arms, "epochs": epochs,
              "repetitions": reps, "base_seed": seed}
    return {"name": name, "config": config, "jobs": jobs, "sweep_arm": sweep_arm}


def write_dro_csv(path: Path, rng: random.Random) -> None:
    """2,000 rows: 34 numeric features, two categorical columns, a target.

    About 2% of feature cells are empty and 0.5% are scaled by 40
    (outliers); a few targets are empty too.  The target follows a
    planted linear model of the clean features plus unit noise.
    """
    countries = ("US", "DE", "FR", "JP", "BR", "IN", "NG")
    statuses = ("active", "churned", "trial")
    weights = [rng.gauss(0.0, 1.0) for _ in range(DRO_FEATURES)]
    header = [f"x{j:02d}" for j in range(DRO_FEATURES)]
    header[7:7] = ["country"]
    header[21:21] = ["status"]
    header.append("target")
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for _ in range(DRO_ROWS):
            x = [rng.gauss(0.0, 1.0) for _ in range(DRO_FEATURES)]
            y = sum(w * v for w, v in zip(weights, x)) + rng.gauss(0.0, 1.0)
            cells = []
            for v in x:
                u = rng.random()
                if u < 0.02:
                    cells.append("")
                elif u < 0.025:
                    cells.append(f"{40.0 * v:.9g}")
                else:
                    cells.append(f"{v:.9g}")
            cells[7:7] = [rng.choice(countries)]
            cells[21:21] = [rng.choice(statuses)]
            cells.append("" if rng.random() < 0.002 else f"{y:.9g}")
            writer.writerow(cells)


def _experiments(workload: str, seed: int, inputs: Path) -> list[dict]:
    seed %= 2**32  # base seeds are packed as unsigned 64-bit integers
    if workload == "acceptance-mix":
        reps, epochs = ACCEPTANCE_REPS, ACCEPTANCE_EPOCHS
        phase_step = 0.007 / 600.0
        phase_arms = [
            {"name": "shuffle_once", "method": "shuffling", "scheme": "shuffle_once",
             "step_size": phase_step},
            {"name": "random_reshuffle", "method": "shuffling", "scheme": "random_reshuffle",
             "step_size": phase_step},
            {"name": "sgd", "method": "sgd", "step_size": 2e-6},
        ]
        return [
            _experiment("quartic", {"id": "quartic"}, _arms(0.01), epochs, reps, seed),
            _experiment("exp_strong", {"id": "exp_strong"}, _arms(1e-5), epochs, reps, seed),
            _experiment("phase_retrieval",
                        {"id": "phase_retrieval", "m": 600, "dim": 40, "seed": 0},
                        phase_arms, epochs, reps, seed),
        ]
    if workload == "small-n-bookkeeping":
        rng = _rng(workload, seed, "centers")
        centers = [[rng.randint(-5, 5) for _ in range(4)] for _ in range(16)]
        problem = {"id": "tiny_quadratic", "centers": centers}
        return [_experiment(f"tiny_quadratic-{k}", problem, _arms(0.05), TINY_EPOCHS, TINY_REPS,
                            seed + k) for k in range(CALLS_PER_ROUND)]
    if workload == "dro-csv-pool":
        csv_path = inputs / "dro.csv"
        write_dro_csv(csv_path, _rng(workload, seed, "csv"))
        arms = _arms(1e-4, schemes=("shuffle_once", "random_reshuffle"))
        arms.append({"name": "sweep", "method": "shuffling", "scheme": "random_reshuffle",
                     "step_size": 3e-3})
        problem = {"id": "dro", "lam": 1.0, "seed": 0,
                   "dataset": {"csv": {"path": str(csv_path)}}}
        return [_experiment(f"dro-{k}", problem, arms, DRO_EPOCHS, DRO_REPS, seed + k,
                            jobs=DRO_JOBS, sweep_arm="sweep") for k in range(CALLS_PER_ROUND)]
    return []


def _loguniform(rng: random.Random, lo: float, hi: float) -> float:
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def _manual_args(rng: random.Random, recipe: int) -> list[str]:
    """Hand-supplied constants for one recipe, in ranges where a plan exists."""
    args = ["--theorem", str(recipe), "--eps", f"{_loguniform(rng, 0.05, 0.5):.6g}",
            "--n", str(rng.randint(2, 2000)),
            "--ell-constant", f"{_loguniform(rng, 0.5, 5.0):.6g}",
            "--initial-gap", f"{_loguniform(rng, 0.1, 10.0):.6g}"]
    if recipe in (1, 3, 5):
        args += ["--delta", f"{rng.uniform(0.05, 0.5):.6g}"]
    if recipe in (1, 2, 3, 5):
        slope = 0.0 if rng.random() < 0.5 else rng.uniform(0.0, 2.0)
        args += ["--variance-slope", f"{slope:.6g}",
                 "--noise-std", f"{_loguniform(rng, 0.1, 5.0):.6g}"]
    if recipe in (3, 4):
        args += ["--mu", f"{_loguniform(rng, 0.1, 0.5):.6g}"]
    if recipe in (4, 5):
        args += ["--optimum-noise", f"{_loguniform(rng, 0.01, 1.0):.6g}"]
    if recipe in (5, 6):
        args += ["--initial-dist-sq", f"{_loguniform(rng, 0.1, 10.0):.6g}"]
    if recipe in (4, 6):
        args += ["--component-grad-bound", f"{_loguniform(rng, 1.0, 10.0):.6g}"]
    return args


# (problem, recipe) pairs the planner can estimate every statistic for.
# quartic declares no strong convexity, so recipes 3 and 4 need --mu.
_ESTIMATED = [("quartic", r) for r in (1, 2, 5, 6)] + \
    [("exp_strong", r) for r in range(1, 7)] + [("tiny_quadratic", r) for r in range(1, 7)]


def plan_requests(seed: int) -> list[dict]:
    """A seeded batch of 107 plan requests covering all six recipes.

    Fields: ``argv`` (after ``plan``, without ``--out``), ``expect``
    (``ok`` or ``infeasible``), ``kind`` and ``target`` (the
    ``--target-epochs`` value or None).
    """
    rng = _rng("plan-estimate", seed, "requests")
    requests = [{"argv": list(README_PLAN), "expect": "ok", "kind": "readme", "target": None}]
    for i in range(60):
        requests.append({"argv": _manual_args(rng, 1 + i % 6), "expect": "ok",
                         "kind": "manual", "target": None})
    # A large epoch target is feasible for every recipe here (the
    # stepsize shrinks to fit).  A single epoch violates the epoch
    # floors of recipes 1, 2, 3 and 5 for every constant in the ranges
    # of _manual_args; recipe 6 can meet its floor in one epoch.
    for i in range(16):
        if i % 2 == 0:
            recipe, target, expect = (1, 2, 5, 6)[i // 2 % 4], rng.randint(10**8, 10**9), "ok"
        else:
            recipe, target, expect = (1, 2, 3, 5)[i // 2 % 4], 1, "infeasible"
        requests.append({"argv": _manual_args(rng, recipe) + ["--target-epochs", str(target)],
                         "expect": expect, "kind": "target", "target": target})
    for i in range(30):
        problem, recipe = _ESTIMATED[i % len(_ESTIMATED)]
        args = ["--theorem", str(recipe), "--eps", rng.choice(("0.05", "0.1", "0.2")),
                "--problem", problem, "--seed", str(rng.randrange(2**32))]
        if recipe in (1, 3, 5):
            args += ["--delta", rng.choice(("0.1", "0.2"))]
        requests.append({"argv": args, "expect": "ok", "kind": "estimated", "target": None})
    rng.shuffle(requests)
    return requests


def prepare(workload: str, seed: int, inputs: Path) -> dict:
    """Write the workload's inputs under ``inputs``; return the round spec part."""
    inputs.mkdir(parents=True, exist_ok=True)
    if workload == "plan-estimate":
        path = inputs / "requests.json"
        path.write_text(json.dumps(plan_requests(seed), indent=1))
        return {"requests": str(path), "experiments": []}
    experiments = _experiments(workload, seed, inputs)
    for exp in experiments:
        exp["config_path"] = str(inputs / f"{exp['name']}.json")
        Path(exp["config_path"]).write_text(json.dumps(exp["config"], indent=1))
    return {"requests": None, "experiments": experiments}


# ---------------------------------------------------------------- checks


def _close(a: float, b: float, rtol: float) -> bool:
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return abs(a - b) <= rtol * max(abs(a), abs(b)) or a == b


# A diverged run as stderr names it: "(name, seed N)" today, or the
# README's "arm=<name> seed=<seed>".
_DIVERGED = re.compile(r"\((\S+), seed (\d+)\)|arm=(\S+) seed=(\d+)")


def _read_raw(path: Path):
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        rows = list(reader)
    return (",".join(header) if header else None), rows


def check_experiment(exp: dict, problem, out_dir: Path, rc, stderr: str, api,
                     solo_rng: random.Random) -> dict:
    """Check one ``shufflegrad run`` call; return counts and failures.

    ``api`` exposes the public names used for solo re-runs:
    derive_seed, Scheme, RunConfig, run_shuffling, run_sgd,
    DivergenceError.
    """
    config = exp["config"]
    arms = [a["name"] for a in config["arms"]]
    reps, epochs, n = config["repetitions"], config["epochs"], problem.n
    ops = [(arm, rep) for arm in arms for rep in range(reps)]
    failed: dict[tuple[str, int], str] = {}
    info = {"evals": 0, "raw_rows": 0, "raw_bytes": 0, "diverged": 0}

    def fail_all(reason, which=ops):
        for op in which:
            failed.setdefault(op, reason)

    raw_path, agg_path = out_dir / "raw.csv", out_dir / "aggregate.csv"
    if not isinstance(rc, int) or not raw_path.is_file() or not agg_path.is_file():
        fail_all(f"{exp['name']}: run ended with {rc!r} and no complete output")
        return {"attempted": len(ops), "failed": failed, "info": info}

    header, raw = _read_raw(raw_path)
    info["raw_rows"], info["raw_bytes"] = len(raw), raw_path.stat().st_size
    if header != RAW_HEADER:
        fail_all(f"{exp['name']}: raw.csv header {header!r}")
        return {"attempted": len(ops), "failed": failed, "info": info}

    has_dist = problem.optimum_point is not None
    known = {(arm, str(rep)) for arm, rep in ops}
    by_op: dict[tuple[str, int], list[list[str]]] = {}
    for row in raw:
        if len(row) != 8 or (row[0], row[1]) not in known:
            fail_all(f"{exp['name']}: unexpected raw row {row[:3]}")
            continue
        by_op.setdefault((row[0], int(row[1])), []).append(row)
    for op in ops:
        rows = by_op.get(op, [])
        want = [str(e) for e in range(1, len(rows) + 1)]
        if [r[2] for r in rows] != want or len(rows) > epochs:
            failed.setdefault(op, f"{exp['name']} {op}: epochs {[r[2] for r in rows][:5]}")
        elif any(r[6] != str(int(r[2]) * n) for r in rows):
            failed.setdefault(op, f"{exp['name']} {op}: evals column is not epoch * n")
        elif any((r[5] != "") != has_dist for r in rows):
            failed.setdefault(op, f"{exp['name']} {op}: dist_sq presence")
        info["evals"] += n * len(rows)

    # Divergence: a rep diverged exactly when it has fewer rows than
    # epochs, and the CLI names exactly those (arm, seed) pairs.
    seed_of = {(arm, rep): api.derive_seed(config["base_seed"], i, rep)
               for i, arm in enumerate(arms) for rep in range(reps)}
    diverged = {op for op in ops if len(by_op.get(op, [])) < epochs}
    info["diverged"] = len(diverged)
    named = {(m[1] or m[3], int(m[2] or m[4])) for m in _DIVERGED.finditer(stderr)}
    if named != {(op[0], seed_of[op]) for op in diverged}:
        fail_all(f"{exp['name']}: stderr names {len(named)} diverged runs, "
                 f"raw.csv shows {len(diverged)}")
    if rc != (3 if diverged else 0):
        fail_all(f"{exp['name']}: exit code {rc}, expected {3 if diverged else 0}")
    if exp["sweep_arm"] is not None:
        # Only the sweep arm diverges, and in every repetition.
        for op in ops:
            if (op[0] == exp["sweep_arm"]) != (op in diverged):
                failed.setdefault(op, f"{exp['name']} {op}: diverged is {op in diverged}")

    _check_aggregate(exp, agg_path, by_op, has_dist, failed)
    _check_solo(exp, problem, by_op, seed_of, api, solo_rng, failed)
    return {"attempted": len(ops), "failed": failed, "info": info}


def _check_aggregate(exp, agg_path: Path, by_op, has_dist: bool, failed: dict) -> None:
    config = exp["config"]
    reps = config["repetitions"]
    with open(agg_path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        rows = list(reader)
    metrics = ("objective", "grad_norm_sq") + (("dist_sq",) if has_dist else ())
    if (",".join(header) if header else None) != AGGREGATE_HEADER:
        for arm in config["arms"]:
            for rep in range(reps):
                failed.setdefault((arm["name"], rep), f"{exp['name']}: aggregate header")
        return
    got = {(r[0], int(r[1]), r[2]): r for r in rows}
    for arm in (a["name"] for a in config["arms"]):
        present = [by_op[(arm, rep)] for rep in range(reps) if by_op.get((arm, rep))]
        reached = min((len(rows) for rows in present), default=0)
        want = {(arm, e, m) for e in range(1, reached + 1) for m in metrics}
        have = {k for k in got if k[0] == arm}
        wrong = None
        if have != want:
            wrong = f"{len(have)} aggregate rows, expected {len(want)}"
        elif any(int(got[k][6]) != len(present) for k in want):
            wrong = "aggregate count is not the number of repetitions"
        elif len(present) == reps and reached == config["epochs"] and want:
            mean = sum(float(rows[-1][3]) for rows in present) / len(present)
            if not _close(float(got[(arm, reached, "objective")][3]), mean, 1e-12):
                wrong = "final aggregate mean differs from raw.csv"
        if wrong:
            for rep in range(reps):
                failed.setdefault((arm, rep), f"{exp['name']} {arm}: {wrong}")


def _check_solo(exp, problem, by_op, seed_of, api, rng: random.Random, failed: dict) -> None:
    """Re-run a few (arm, rep) pairs alone; rows must match the batch."""
    config = exp["config"]
    arms = {a["name"]: a for a in config["arms"]}
    picks = rng.sample(sorted(seed_of), SOLO_CHECKS_PER_EXPERIMENT)
    for arm_name, rep in picks:
        arm, seed = arms[arm_name], seed_of[(arm_name, rep)]
        run_config = api.RunConfig(step_size=float(arm["step_size"]), epochs=config["epochs"],
                                   track_average=False)
        try:
            if arm["method"] == "sgd":
                record = api.run_sgd(problem, run_config, seed=seed)
            else:
                scheme = (api.Scheme.fixed(problem.n) if arm["scheme"] == "fixed"
                          else getattr(api.Scheme, arm["scheme"])(problem.n, seed))
                record = api.run_shuffling(problem, scheme, run_config)
        except api.DivergenceError as err:
            record = err.record
        solo = [float(v) for v in record.objective]
        batch = [float(r[3]) for r in by_op.get((arm_name, rep), [])]
        if len(solo) != len(batch) or not all(
                _close(a, b, SOLO_RTOL) for a, b in zip(solo, batch)):
            failed.setdefault((arm_name, rep),
                              f"{exp['name']} {(arm_name, rep)}: solo re-run differs from raw.csv")


def check_plan(request: dict, rc, stderr: str, out_path: Path, api) -> str | None:
    """None when the request behaved as expected, else the reason.

    ``api`` exposes ConstantsBundle, StepsizePlan, EllFunction and the
    untraced reevaluate_plan.
    """
    if request["expect"] == "infeasible":
        last = stderr.strip().splitlines()[-1:] or [""]
        if rc != 1 or not last[0].startswith("infeasible plan:"):
            return f"expected an infeasible plan, got exit {rc!r}: {last[0][:80]!r}"
        return None
    if rc != 0:
        return f"exit {rc!r}: {stderr.strip()[-120:]!r}"
    try:
        cfg = json.loads(out_path.read_text())
        bundle = api.ConstantsBundle(recipe=cfg["recipe"], ell=api.EllFunction.from_config(cfg["ell"]),
                                     n=cfg["n"], gprime_heuristic=cfg["heuristic"],
                                     **cfg["constants"])
        plan = api.StepsizePlan(cfg["recipe"], cfg["eta"], cfg["epochs"], bundle, checks=())
        verdicts = api.reevaluate_plan(plan)
    except (OSError, ValueError, KeyError, TypeError) as err:
        return f"unreadable plan file: {err}"
    bad = [name for name, ok in verdicts if not ok]
    if bad or not verdicts:
        return f"plan fails the exact audit: {bad}"
    if str(cfg["recipe"]) != request["argv"][request["argv"].index("--theorem") + 1]:
        return f"plan is for recipe {cfg['recipe']}"
    if request["target"] is not None and cfg["epochs"] != request["target"]:
        return f"plan has {cfg['epochs']} epochs, target was {request['target']}"
    if request["kind"] == "readme" and (cfg["eta"] != README_ETA or cfg["epochs"] != README_EPOCHS):
        return f"README example gives eta = {cfg['eta']!r}, epochs = {cfg['epochs']}"
    return None
