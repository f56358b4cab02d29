import csv
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from shufflegrad.experiment import (
    AGGREGATE_HEADER,
    METRIC_NAMES,
    RAW_HEADER,
    ArmSpec,
    ExperimentConfig,
    derive_seed,
    run_experiment,
)
from shufflegrad.optimize import DivergenceError, RunConfig, run_sgd, run_shuffling
from shufflegrad.problems import build_problem
from shufflegrad.shuffling import KINDS, Scheme

TINY = {"id": "tiny_quadratic"}


def _config(**overrides):
    base = dict(
        problem=TINY,
        arms=(
            ArmSpec(name="rr", method="shuffling", scheme="random_reshuffle",
                    step_size=0.05),
            ArmSpec(name="sgd", method="sgd", step_size=0.05),
        ),
        epochs=6,
        repetitions=3,
        base_seed=11,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def _strip_wall(path):
    lines = path.read_text().splitlines()
    return [ln.rsplit(",", 1)[0] for ln in lines]


def test_seed_derivation_is_frozen():
    # values pinned so a refactor cannot silently reshuffle all runs
    assert derive_seed(0, 0, 0) == 16021189222653137053
    assert derive_seed(0, 0, 1) == 8116657060242477701
    assert derive_seed(7, 2, 5) == 4756031457464332375
    assert derive_seed(0, 1, 0) != derive_seed(1, 0, 0)


class TestRawOutput:
    def test_layout(self, tmp_path):
        config = _config()
        result = run_experiment(config, tmp_path / "out")
        lines = (tmp_path / "out" / "raw.csv").read_text().splitlines()
        assert lines[0] == RAW_HEADER
        assert len(lines) == 1 + 2 * 3 * 6  # arms * reps * epochs
        n = 4  # tiny problem component count
        for ln in lines[1:]:
            arm, rep, epoch, _obj, _g, _d, evals, _wall = ln.split(",")
            assert arm in ("rr", "sgd")
            assert int(evals) == int(epoch) * n
        assert result.raw_path.name == "raw.csv"
        assert result.diverged == ()

    def test_deterministic_modulo_wall_clock(self, tmp_path):
        config = _config()
        run_experiment(config, tmp_path / "a")
        run_experiment(config, tmp_path / "b")
        assert _strip_wall(tmp_path / "a" / "raw.csv") == \
            _strip_wall(tmp_path / "b" / "raw.csv")
        assert (tmp_path / "a" / "aggregate.csv").read_bytes() == \
            (tmp_path / "b" / "aggregate.csv").read_bytes()

    def test_base_seed_changes_runs(self, tmp_path):
        run_experiment(_config(), tmp_path / "a")
        run_experiment(_config(base_seed=12), tmp_path / "b")
        assert _strip_wall(tmp_path / "a" / "raw.csv") != \
            _strip_wall(tmp_path / "b" / "raw.csv")


class TestAggregate:
    def test_single_rep_collapses_percentiles(self, tmp_path):
        result = run_experiment(_config(repetitions=1), tmp_path / "out")
        for row in result.aggregate.rows:
            assert row.count == 1
            assert row.mean == row.p05 == row.p95

    @settings(max_examples=40, deadline=None)
    @given(centers=st.lists(st.tuples(st.integers(-2, 2), st.integers(-2, 2)),
                            min_size=2, max_size=4),
           stable=st.tuples(st.sampled_from(KINDS + ("sgd",)), st.floats(0.05, 0.5)),
           wild_step=st.floats(2.0, 2.6), threshold=st.floats(5.0, 60.0),
           epochs=st.integers(1, 6), reps=st.integers(1, 20),
           base_seed=st.integers(0, 2**32 - 1),
           metrics=st.sampled_from((None, ("objective",), ("dist_sq", "grad_norm_sq"))))
    def test_reaggregation_is_pure(self, centers, stable, wild_step, threshold, epochs, reps,
                                   base_seed, metrics):
        # the "wild" sgd arm diverges, in some repetitions before writing a row
        kind, step = stable
        arms = (ArmSpec(name="stable", method="sgd" if kind == "sgd" else "shuffling",
                        scheme=None if kind == "sgd" else kind, step_size=step),
                ArmSpec(name="wild", method="sgd", step_size=wild_step))
        config = _config(problem={"id": "tiny_quadratic", "centers": centers}, arms=arms,
                         epochs=epochs, repetitions=reps, base_seed=base_seed,
                         metrics=metrics, divergence_threshold=threshold)
        with tempfile.TemporaryDirectory() as out:
            result = run_experiment(config, out)
            expected = _reference_aggregate(result.raw_path, metrics or METRIC_NAMES)
            assert result.aggregate_path.read_text() == expected

    def test_header_and_selection(self, tmp_path):
        result = run_experiment(_config(), tmp_path / "out")
        first = result.aggregate_path.read_text().splitlines()[0]
        assert first == AGGREGATE_HEADER
        series = result.aggregate.select("rr", "objective")
        assert [row.epoch for row in series] == [1, 2, 3, 4, 5, 6]
        assert all(row.count == 3 for row in series)
        assert result.aggregate.select("rr", "unknown_metric") == []

    def test_percentiles_bracket_mean(self, tmp_path):
        result = run_experiment(_config(repetitions=5), tmp_path / "out")
        for row in result.aggregate.rows:
            assert row.p05 <= row.mean <= row.p95


def _reference_aggregate(raw_path: Path, metrics) -> str:
    """aggregate.csv from raw.csv alone, one np.mean and one np.percentile
    per cell: an arm counts its repetitions with rows and covers the
    epochs all of them reached."""
    with open(raw_path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    lines = [AGGREGATE_HEADER]
    for arm in dict.fromkeys(row["arm"] for row in rows):
        mine = [row for row in rows if row["arm"] == arm]
        last = {}
        for row in mine:
            last[row["rep"]] = int(row["epoch"])
        for epoch in range(1, min(last.values()) + 1):
            for metric in metrics:
                cell = np.array([float(row[metric]) for row in mine
                                 if int(row["epoch"]) == epoch])
                p05, p95 = np.percentile(cell, (5, 95))
                lines.append(f"{arm},{epoch},{metric},{np.mean(cell):.17g},{p05:.17g},"
                             f"{p95:.17g},{len(last)}")
    return "\n".join(lines) + "\n"


class TestMetricsSelection:
    def test_distance_included_when_optimum_known(self, tmp_path):
        result = run_experiment(_config(epochs=2), tmp_path / "out")
        metrics = {row.metric for row in result.aggregate.rows}
        assert metrics == {"objective", "grad_norm_sq", "dist_sq"}

    def test_distance_dropped_when_optimum_unknown(self, tmp_path):
        config = _config(problem={"id": "phase_retrieval", "m": 12, "dim": 4,
                                  "seed": 0, "noise_std": 1.0},
                         arms=(ArmSpec(name="rr", method="shuffling",
                                       scheme="random_reshuffle", step_size=1e-4),),
                         epochs=2)
        result = run_experiment(config, tmp_path / "out")
        metrics = {row.metric for row in result.aggregate.rows}
        assert metrics == {"objective", "grad_norm_sq"}
        raw = (tmp_path / "out" / "raw.csv").read_text().splitlines()[1]
        assert ",," in raw  # empty dist_sq field

    def test_deselected_metric_leaves_raw_field_empty(self, tmp_path):
        result = run_experiment(_config(metrics=("objective", "dist_sq")), tmp_path / "out")
        with open(result.raw_path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 2 * 3 * 6
        assert all(row["grad_norm_sq"] == "" for row in rows)
        assert all(row["objective"] and row["dist_sq"] for row in rows)
        assert {row.metric for row in result.aggregate.rows} == {"objective", "dist_sq"}

    def test_explicit_distance_needs_optimum(self, tmp_path):
        config = _config(problem={"id": "phase_retrieval", "m": 12, "dim": 4,
                                  "seed": 0, "noise_std": 1.0},
                         arms=(ArmSpec(name="rr", method="shuffling",
                                       scheme="random_reshuffle", step_size=1e-4),),
                         metrics=("objective", "dist_sq"))
        with pytest.raises(ValueError, match="dist_sq"):
            run_experiment(config, tmp_path / "out")


class TestDivergence:
    def test_partial_rows_and_reporting(self, tmp_path):
        config = _config(
            arms=(
                ArmSpec(name="stable", method="shuffling", scheme="fixed",
                        step_size=0.05),
                ArmSpec(name="explode", method="shuffling", scheme="fixed",
                        step_size=3.0),
            ),
            epochs=40,
            repetitions=2,
            divergence_threshold=1e6,
        )
        result = run_experiment(config, tmp_path / "out")
        names = {name for name, _ in result.diverged}
        assert names == {"explode"}
        assert len(result.diverged) == 2
        seeds = {seed for _, seed in result.diverged}
        assert seeds == {derive_seed(11, 1, 0), derive_seed(11, 1, 1)}
        # every aggregated epoch kept the full repetition count
        for row in result.aggregate.rows:
            assert row.count == 2
        stable_epochs = [r.epoch for r in result.aggregate.select("stable", "objective")]
        explode_epochs = [r.epoch for r in result.aggregate.select("explode", "objective")]
        assert stable_epochs == list(range(1, 41))
        assert explode_epochs and max(explode_epochs) < 40

    def test_count_leaves_out_repetitions_without_rows(self, tmp_path):
        config = _config(arms=(ArmSpec(name="rr", method="shuffling",
                                       scheme="random_reshuffle", step_size=0.3),
                               ArmSpec(name="sgd", method="sgd", step_size=2.2)),
                         epochs=30, repetitions=40, base_seed=0, divergence_threshold=30.0)
        result = run_experiment(config, tmp_path / "out")
        assert len(result.diverged) == 40 and {arm for arm, _ in result.diverged} == {"sgd"}
        reached = {}
        with open(result.raw_path, newline="") as fh:
            for row in csv.DictReader(fh):
                if row["arm"] == "sgd":
                    reached[row["rep"]] = int(row["epoch"])
        assert len(reached) == 25  # 15 repetitions diverged in epoch 1
        series = result.aggregate.select("sgd", "objective")
        assert [r.epoch for r in series] == list(range(1, min(reached.values()) + 1))
        assert {r.count for r in series} == {25}
        assert {r.count for r in result.aggregate.select("rr", "objective")} == {40}


class TestPlanFileArm:
    def _plan(self, tmp_path, **overrides):
        payload = {"eta": 0.4, "n": 4, "recipe": 2, "epochs": 100}
        payload.update(overrides)
        path = tmp_path / "plan.json"
        path.write_text(json.dumps(payload))
        return str(path)

    def test_per_step_division(self, tmp_path):
        plan = self._plan(tmp_path)
        config = _config(arms=(
            ArmSpec(name="planned", method="shuffling", scheme="fixed",
                    plan_file=plan),
            ArmSpec(name="manual", method="shuffling", scheme="fixed",
                    step_size=0.1),
        ))
        result = run_experiment(config, tmp_path / "out")
        planned = result.aggregate.select("planned", "objective")
        manual = result.aggregate.select("manual", "objective")
        assert [r.mean for r in planned] == [r.mean for r in manual]

    def test_batch_size_enters_division(self, tmp_path):
        plan = self._plan(tmp_path)
        config = _config(batch_size=2,
                         arms=(ArmSpec(name="planned", method="shuffling",
                                       scheme="fixed", plan_file=plan),
                               ArmSpec(name="manual", method="shuffling",
                                       scheme="fixed", step_size=0.2)))
        result = run_experiment(config, tmp_path / "out")
        assert [r.mean for r in result.aggregate.select("planned", "objective")] == \
            [r.mean for r in result.aggregate.select("manual", "objective")]

    def test_component_count_mismatch(self, tmp_path):
        plan = self._plan(tmp_path, n=50)
        config = _config(arms=(ArmSpec(name="planned", method="shuffling",
                                       scheme="fixed", plan_file=plan),))
        with pytest.raises(ValueError, match="n = 50"):
            run_experiment(config, tmp_path / "out")

    def test_missing_plan_keys(self, tmp_path):
        path = tmp_path / "plan.json"
        path.write_text(json.dumps({"eta": 0.4}))
        config = _config(arms=(ArmSpec(name="planned", method="shuffling",
                                       scheme="fixed", plan_file=str(path)),))
        with pytest.raises(ValueError, match="'n'"):
            run_experiment(config, tmp_path / "out")


class TestSpecValidation:
    def test_arm_spec_matrix(self):
        with pytest.raises(ValueError, match="non-empty name"):
            ArmSpec(name="", method="sgd", step_size=0.1)
        with pytest.raises(ValueError, match="unknown method"):
            ArmSpec(name="a", method="adam", step_size=0.1)
        with pytest.raises(ValueError, match="scheme"):
            ArmSpec(name="a", method="shuffling", step_size=0.1)
        with pytest.raises(ValueError, match="fixed"):
            ArmSpec(name="a", method="shuffling", scheme="random_reshuffle",
                    order=(0, 1), step_size=0.1)
        with pytest.raises(ValueError, match="sgd takes no scheme"):
            ArmSpec(name="a", method="sgd", scheme="fixed", step_size=0.1)
        with pytest.raises(ValueError, match="exactly one"):
            ArmSpec(name="a", method="sgd")
        with pytest.raises(ValueError, match="exactly one"):
            ArmSpec(name="a", method="sgd", step_size=0.1, plan_file="p.json")
        with pytest.raises(ValueError, match=">= 0"):
            ArmSpec(name="a", method="sgd", step_size=-0.1)

    def test_arm_from_dict_unknown_keys(self):
        with pytest.raises(ValueError, match="unknown arm keys"):
            ArmSpec.from_dict({"name": "a", "method": "sgd", "step_size": 0.1,
                               "stepsize": 0.2})

    def test_config_validation(self):
        arm = ArmSpec(name="a", method="sgd", step_size=0.1)
        with pytest.raises(ValueError, match="epochs"):
            ExperimentConfig(problem=TINY, arms=(arm,), epochs=0)
        with pytest.raises(ValueError, match="repetitions"):
            ExperimentConfig(problem=TINY, arms=(arm,), epochs=1, repetitions=0)
        with pytest.raises(ValueError, match="at least one arm"):
            ExperimentConfig(problem=TINY, arms=(), epochs=1)
        with pytest.raises(ValueError, match="unique"):
            ExperimentConfig(problem=TINY, arms=(arm, arm), epochs=1)
        with pytest.raises(ValueError, match="unknown metrics"):
            ExperimentConfig(problem=TINY, arms=(arm,), epochs=1,
                             metrics=("objective", "speed"))

    def test_config_from_dict(self):
        cfg = ExperimentConfig.from_dict({
            "problem": TINY,
            "arms": [{"name": "a", "method": "sgd", "step_size": 0.1}],
            "epochs": 2,
        })
        assert cfg.repetitions == 100
        with pytest.raises(ValueError, match="unknown experiment config keys"):
            ExperimentConfig.from_dict({"problem": TINY, "arms": [], "epochs": 2,
                                        "seed": 1})
        with pytest.raises(ValueError, match="'arms'"):
            ExperimentConfig.from_dict({"problem": TINY, "epochs": 2})

    def test_jobs_validation(self, tmp_path):
        with pytest.raises(ValueError, match="jobs"):
            run_experiment(_config(), tmp_path / "out", jobs=0)


def test_worker_pool_matches_inline(tmp_path):
    config = _config(epochs=3, repetitions=2)
    run_experiment(config, tmp_path / "inline", jobs=1)
    run_experiment(config, tmp_path / "pool", jobs=2)
    assert _strip_wall(tmp_path / "inline" / "raw.csv") == \
        _strip_wall(tmp_path / "pool" / "raw.csv")


# (problem, step size of the four regular arms).  dro also gets a
# "sweep" arm whose step size diverges in every repetition.
_SOLO_PROBLEMS = {
    "quartic": ({"id": "quartic"}, 0.01),
    "phase": ({"id": "phase_retrieval", "m": 40, "dim": 6, "seed": 0}, 1e-4),
    "dro": ({"id": "dro", "lam": 1.0,
             "dataset": {"synthetic": {"seed": 7, "rows": 60, "dim": 5}}}, 0.01),
}


@pytest.mark.parametrize("jobs", (1, 2))
@pytest.mark.parametrize("batch_size", (1, 3))
@pytest.mark.parametrize("name", sorted(_SOLO_PROBLEMS))
def test_rows_match_solo_runs(tmp_path, name, batch_size, jobs):
    spec, step = _SOLO_PROBLEMS[name]
    arms = [ArmSpec(name=kind, method="shuffling", scheme=kind, step_size=step)
            for kind in KINDS]
    arms.append(ArmSpec(name="sgd", method="sgd", step_size=step))
    if name == "dro":
        arms.append(ArmSpec(name="sweep", method="shuffling", scheme="random_reshuffle",
                            step_size=0.3))
    config = _config(problem=spec, arms=tuple(arms), epochs=3, repetitions=2,
                     batch_size=batch_size)
    result = run_experiment(config, tmp_path / "out", jobs=jobs)

    problem = build_problem(spec)
    expected, diverged = [RAW_HEADER.rsplit(",", 1)[0]], []
    for arm_index, arm in enumerate(arms):
        run_config = RunConfig(step_size=arm.step_size, epochs=3, batch_size=batch_size,
                               track_average=False)
        for rep in range(2):
            seed = derive_seed(config.base_seed, arm_index, rep)
            try:
                if arm.method == "sgd":
                    record = run_sgd(problem, run_config, seed=seed)
                else:
                    scheme = Scheme.fixed(problem.n) if arm.scheme == "fixed" \
                        else Scheme(arm.scheme, problem.n, seed)
                    record = run_shuffling(problem, scheme, run_config)
            except DivergenceError as err:
                diverged.append(((arm.name, seed), (err.epoch, err.step_index)))
                record = err.record
            for i in range(record.completed_epochs):
                dist = "" if record.dist_sq is None else f"{record.dist_sq[i]:.17g}"
                expected.append(f"{arm.name},{rep},{record.epoch[i]},"
                                f"{record.objective[i]:.17g},{record.grad_norm_sq[i]:.17g},"
                                f"{dist},{record.evals[i]}")
    assert _strip_wall(result.raw_path) == expected
    assert list(zip(result.diverged, result.diverged_at)) == diverged
    assert {arm for (arm, _), _ in diverged} == ({"sweep"} if name == "dro" else set())
    assert len(diverged) == (2 if name == "dro" else 0)
