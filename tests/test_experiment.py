import csv
import json
import os
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from shufflegrad import experiment, ingest, optimize
from shufflegrad.experiment import (
    AGGREGATE_HEADER,
    METRIC_NAMES,
    RAW_HEADER,
    ArmSpec,
    ExperimentConfig,
    derive_seed,
    run_experiment,
)
from shufflegrad.optimize import DivergenceError, RunConfig, _run_table, run_sgd, run_shuffling
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

    # ties of +0.0 and -0.0, infinities, NaN and magnitudes near 1e+-300
    @settings(max_examples=200, deadline=None)
    @given(M=arrays(np.float64, st.tuples(st.integers(1, 3), st.integers(1, 200)),
                    elements=st.one_of(st.sampled_from((0.0, -0.0, np.inf, -np.inf, np.nan, 1e300,
                                                        -1e300, 1e-300, -1e-300)),
                                       st.floats())))
    @example(M=np.array([[0.0, -0.0, 0.0, -0.0, -0.0, 0.0, -0.0]]))  # a sort gives p95 = +0.0
    def test_percentiles_have_the_bits_of_np_percentile(self, M):
        with np.errstate(all="ignore"):
            want = np.percentile(M, (5, 95), axis=1).T
            got = experiment._p05_p95(M)
        assert got.view(np.int64).tolist() == want.view(np.int64).tolist()


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


def _record_path_csvs(config: ExperimentConfig, out: Path):
    """raw.csv and aggregate.csv text built from the _run_table output of
    the config's runs, one ``f"{x:.17g}"`` per float, with the
    ((arm, seed), (epoch, inner step)) of each divergence."""
    problem = build_problem(config.problem)
    metrics = config.metrics or ("objective", "grad_norm_sq") + (
        ("dist_sq",) if problem.optimum_point is not None else ())
    runs, rows, steps = [], [], []
    for arm_index, arm in enumerate(config.arms):
        scheme = None if arm.method == "sgd" else Scheme(arm.scheme, problem.n, order=arm.order)
        for rep in range(config.repetitions):
            seed = derive_seed(config.base_seed, arm_index, rep)
            runs.append((arm.name, rep, seed))
            rows.append(("sgd", seed, None) if scheme is None
                        else (scheme.kind, seed, scheme.order))
            steps.append(arm.step_size)
    run_config = RunConfig(step_size=0.0, epochs=config.epochs, batch_size=config.batch_size,
                           divergence_threshold=config.divergence_threshold, track_average=False)
    table, reached, _, _, divergences = _run_table(problem, run_config, rows, steps)
    lines, diverged = [RAW_HEADER], []
    for r, (name, rep, seed) in enumerate(runs):
        if r in divergences:
            diverged.append(((name, seed), divergences[r][:2]))
        for i in range(reached[r]):
            cells = ",".join(f"{table[j, r, i]:.17g}" if m in metrics else ""
                             for j, m in enumerate(METRIC_NAMES))
            lines.append(f"{name},{rep},{i + 1},{cells},{(i + 1) * problem.n},"
                         f"{table[3, r, i]:.17g}")
    raw_path = out / "record_raw.csv"
    raw_path.write_text("\n".join(lines) + "\n")
    return raw_path, _reference_aggregate(raw_path, metrics), diverged


# (problem, then the ranges of the regular arms' step, the "wild" sgd arm's
# step and the divergence threshold): the wild arm diverges in some
# repetitions, in some before writing a row; phase_retrieval has no optimum
_PARITY_PROBLEMS = {
    "tiny": (TINY, (0.05, 0.5), (2.0, 2.6), (5.0, 60.0)),
    "phase": ({"id": "phase_retrieval", "m": 12, "dim": 4, "seed": 0, "noise_std": 1.0},
              (1e-5, 1e-4), (1e-3, 1e-2), (1e4, 1e6)),
}


class TestRecordParity:
    @settings(max_examples=40, deadline=None)
    @given(problem=st.sampled_from(sorted(_PARITY_PROBLEMS)),
           kinds=st.permutations(KINDS + ("sgd",)),
           u=st.tuples(*[st.floats(0, 1)] * 3), epochs=st.integers(1, 5),
           reps=st.integers(1, 6), batch_size=st.sampled_from((1, 2)),
           base_seed=st.integers(0, 2**32 - 1), percent=st.integers(0, 4),
           metrics=st.sampled_from((None, ("objective",), ("grad_norm_sq",),
                                    ("dist_sq", "grad_norm_sq"), METRIC_NAMES)))
    def test_csvs_have_the_bytes_of_the_record_path(self, problem, kinds, u, epochs, reps,
                                                    batch_size, base_seed, percent, metrics):
        spec, *ranges = _PARITY_PROBLEMS[problem]
        step, wild, threshold = (lo * (hi / lo) ** x for (lo, hi), x in zip(ranges, u))
        if build_problem(spec).optimum_point is None:
            metrics = tuple(m for m in metrics or () if m != "dist_sq") or None
        names = [*kinds, "wild"]
        names[percent] += "%d%%"  # a %-template must escape it
        arms = [ArmSpec(name=name, method="sgd", step_size=step) if kind == "sgd"
                else ArmSpec(name=name, scheme=kind, step_size=step)
                for name, kind in zip(names, kinds)]
        arms.append(ArmSpec(name=names[-1], method="sgd", step_size=wild))
        config = _config(problem=spec, arms=tuple(arms), epochs=epochs, repetitions=reps,
                         base_seed=base_seed, batch_size=batch_size, metrics=metrics,
                         divergence_threshold=threshold)
        with tempfile.TemporaryDirectory() as out:
            result = run_experiment(config, Path(out) / "run")
            raw_path, aggregate, diverged = _record_path_csvs(config, Path(out))
            assert _strip_wall(result.raw_path) == _strip_wall(raw_path)
            assert result.aggregate_path.read_bytes() == aggregate.encode()
        assert list(zip(result.diverged, result.diverged_at)) == diverged


def test_outputs_need_no_trajectory_record(tmp_path, monkeypatch):
    # both files come from the metric table; no run builds a record
    config = _config(arms=_config().arms + (ArmSpec(name="wild", method="sgd", step_size=2.3),),
                     divergence_threshold=20.0)
    want = run_experiment(config, tmp_path / "records")

    def refuse(*args):
        raise AssertionError("a TrajectoryRecord was built")
    monkeypatch.setattr(optimize, "_record", refuse)
    got = run_experiment(config, tmp_path / "table")
    assert want.diverged
    assert (got.diverged, got.diverged_at) == (want.diverged, want.diverged_at)
    assert _strip_wall(got.raw_path) == _strip_wall(want.raw_path)
    assert got.aggregate_path.read_bytes() == want.aggregate_path.read_bytes()


class TestDistinctRuns:
    """A fixed row ignores its seed, so runs with one (kind, order, step)
    share a trajectory: each distinct run is stepped once and written once
    per repetition, with the bytes of running every repetition."""

    @settings(max_examples=40, deadline=None)
    @given(fixed=st.lists(st.tuples(st.sampled_from((None, (0, 1, 2, 3), (3, 1, 0, 2))),
                                    st.integers(0, 3)), min_size=1, max_size=2),
           others=st.lists(st.tuples(st.sampled_from(("shuffle_once", "random_reshuffle",
                                                      "sgd")), st.integers(0, 3)), max_size=2),
           wild_kind=st.sampled_from(KINDS + ("sgd",)),
           u=st.tuples(*[st.floats(0, 1)] * 3), epochs=st.integers(1, 5),
           reps=st.integers(1, 5), batch_size=st.sampled_from((1, 3)),
           base_seed=st.integers(0, 2**32 - 1),
           metrics=st.sampled_from((None, ("objective",), ("dist_sq", "grad_norm_sq"))))
    # two fixed arms on one run: one at +0.0, one at -0.0
    @example(fixed=[(None, 0), (None, 1)], others=[], wild_kind="fixed", u=(0.5, 0.5, 0.5),
             epochs=3, reps=3, batch_size=1, base_seed=0, metrics=None)
    def test_csvs_and_engine_calls(self, fixed, others, wild_kind, u, epochs, reps, batch_size,
                                   base_seed, metrics):
        # steps drawn from one pool, so arms share them; the "wild" arm's
        # step diverges in some draws
        step, wild, threshold = (lo * (hi / lo) ** x
                                 for (lo, hi), x in zip(((0.05, 0.5), (2.5, 3.0), (5.0, 20.0)), u))
        pool = (0.0, -0.0, step, wild)
        arms = [ArmSpec(name=f"fixed{i}", scheme="fixed", order=order, step_size=pool[s])
                for i, (order, s) in enumerate(fixed)]
        arms += [ArmSpec(name=f"{kind}{i}", method="sgd", step_size=pool[s]) if kind == "sgd"
                 else ArmSpec(name=f"{kind}{i}", scheme=kind, step_size=pool[s])
                 for i, (kind, s) in enumerate(others)]
        arms.append(ArmSpec(name="wild", method="sgd", step_size=wild) if wild_kind == "sgd"
                    else ArmSpec(name="wild", scheme=wild_kind, step_size=wild))
        config = _config(arms=tuple(arms), epochs=epochs, repetitions=reps,
                         base_seed=base_seed, batch_size=batch_size, metrics=metrics,
                         divergence_threshold=threshold)
        calls = []

        def logged(problem, run_config, rows, steps):
            calls.extend(zip(rows, steps))
            return _run_table(problem, run_config, rows, steps)
        with tempfile.TemporaryDirectory() as out, pytest.MonkeyPatch.context() as mp:
            mp.setattr(experiment, "_run_table", logged)
            result = run_experiment(config, Path(out) / "run")
            raw_path, aggregate, diverged = _record_path_csvs(config, Path(out))
            assert _strip_wall(result.raw_path) == _strip_wall(raw_path)
            assert result.aggregate_path.read_bytes() == aggregate.encode()
        assert list(zip(result.diverged, result.diverged_at)) == diverged
        # each distinct (kind, seed, order, step) reached the engine once;
        # a fixed row's seed is not part of its run
        n = build_problem(TINY).n
        want = set()
        for a, arm in enumerate(arms):
            kind, order = (("sgd", None) if arm.method == "sgd"
                           else (arm.scheme, Scheme(arm.scheme, n, order=arm.order).order))
            want.update((kind, 0 if kind == "fixed" else derive_seed(base_seed, a, rep), order,
                         arm.step_size) for rep in range(reps))
        got = [((kind, 0 if kind == "fixed" else seed, order), s)
               for (kind, seed, order), s in calls]
        assert len(got) == len(want) == len({(*row, s) for row, s in got})
        assert {(*row, s) for row, s in got} == want

    def test_diverging_fixed_arm_lists_every_repetition(self, tmp_path):
        reps = 5
        config = _config(arms=(ArmSpec(name="stable", scheme="fixed", step_size=0.05),
                               ArmSpec(name="explode", scheme="fixed", step_size=3.0)),
                         epochs=40, repetitions=reps, divergence_threshold=1e6)
        result = run_experiment(config, tmp_path / "out")
        assert result.diverged == tuple(("explode", derive_seed(11, 1, rep))
                                        for rep in range(reps))
        assert len(result.diverged_at) == reps and len(set(result.diverged_at)) == 1
        with open(result.raw_path, newline="") as fh:
            rows = [row for row in csv.DictReader(fh) if row["arm"] == "explode"]
        epoch, _ = result.diverged_at[0]
        assert sorted({row["rep"] for row in rows}) == [str(rep) for rep in range(reps)]
        assert len(rows) == reps * (epoch - 1)


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

    @pytest.mark.parametrize("metrics", [METRIC_NAMES, ("objective", "dist_sq"),
                                         ("grad_norm_sq",)])
    def test_raw_rows_have_the_bytes_of_17g(self, metrics):
        # "%.17g" % x against f"{x:.17g}" on the floats whose text is special
        special = np.array([np.nan, np.inf, -np.inf, -0.0, 5e-324, 1.7976931348623157e308,
                            0.1, -2.5e-310])
        epoch = np.arange(1, len(special) + 1)
        columns = {"objective": special, "grad_norm_sq": special[::-1].copy(),
                   "dist_sq": np.roll(special, 3)}
        wall_ms = np.roll(special, 5)
        # an arm's (4, reps, epochs) block whose repetitions 0..6 have no rows
        block = np.full((4, 8, len(special)), 99.0)
        block[:, 7] = [columns[m] for m in METRIC_NAMES] + [wall_ms]
        want = "".join(
            f"a%b,7,{e},"
            + ",".join(f"{columns[m][i]:.17g}" if m in metrics else "" for m in METRIC_NAMES)
            + f",{16 * e},{wall_ms[i]:.17g}\n"
            for i, e in enumerate(epoch.tolist()))
        reached = [0] * 7 + [len(special)]
        assert "".join(experiment._raw_rows("a%b", block, reached, metrics, 16)) == want

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
        assert len(reached) == 20  # 20 repetitions diverged in epoch 1
        assert 0 < sum(epoch == 1 for epoch, _ in result.diverged_at) < 40
        series = result.aggregate.select("sgd", "objective")
        assert [r.epoch for r in series] == list(range(1, min(reached.values()) + 1))
        assert {r.count for r in series} == {20}
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
        for bad in (-0.1, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="finite and >= 0"):
                ArmSpec(name="a", method="sgd", step_size=bad)

    def test_arm_from_dict_unknown_keys(self):
        with pytest.raises(ValueError, match="unknown arm entry keys"):
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
        with pytest.raises(ValueError, match="at least one metric"):
            ExperimentConfig(problem=TINY, arms=(arm,), epochs=1, metrics=())

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


def _write_dro_csv(path, features=5):
    """60 rows of ``features`` (at least five) features, the two default
    categorical columns and a target, after a comment line; some cells are
    empty, "nan", outliers, whitespace-padded or in exponent notation."""
    rng = np.random.default_rng(3)
    x = rng.standard_normal((60, features))
    y = x @ rng.standard_normal(features) + rng.standard_normal(60)
    x[::17, 2] *= 40.0
    header = [f"x{j}" for j in range(features)]
    header[2:2], header[5:5] = ["country"], ["status"]
    lines = ["# dro test data", ",".join(header + ["target"])]
    for r, (row, target) in enumerate(zip(x, y)):
        cells = [f"{v:.9g}" for v in row]
        if r % 7 == 0:
            cells[r % 5] = ""
        if r % 11 == 3:
            cells[(r + 1) % 5] = f" {row[(r + 1) % 5]:.6e} "
        if r % 13 == 5:
            cells[(r + 2) % 5] = "nan"
        cells[2:2] = [("US", "DE", "FR")[r % 3]]
        cells[5:5] = [("active", "trial")[r % 2]]
        cells.append("" if r % 19 == 4 else f"  {target:.6e}" if r % 5 == 1 else f"{target:.9g}")
        lines.append(",".join(cells))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _pool_config(tmp_path):
    """A dro experiment on a wide CSV: its 6 runs hold at least
    2 * _FORK_ENTRIES iterate entries, so ``jobs=2`` forks two workers.
    The "sweep" arm diverges in both repetitions."""
    runs = 6
    dim = -(-2 * experiment._FORK_ENTRIES // runs)  # the features and theta
    _write_dro_csv(tmp_path / "dro.csv", features=dim - 1)
    problem = {"id": "dro", "lam": 1.0, "dataset": {"csv": {"path": str(tmp_path / "dro.csv")}}}
    arms = (ArmSpec(name="rr", method="shuffling", scheme="random_reshuffle", step_size=1e-6),
            ArmSpec(name="sgd", method="sgd", step_size=1e-6),
            ArmSpec(name="sweep", method="shuffling", scheme="random_reshuffle", step_size=0.3))
    return _config(problem=problem, arms=arms, epochs=2, repetitions=runs // len(arms))


def _count_calls(monkeypatch, log, module, name):
    """Log each call of ``module.name`` with its pid; forked workers
    inherit the wrapper."""
    fn = getattr(module, name)

    def wrapper(*args, **kwargs):
        with open(log, "a") as fh:
            fh.write(f"{name} {os.getpid()}\n")
        return fn(*args, **kwargs)
    monkeypatch.setattr(module, name, wrapper)


def test_worker_pool_matches_inline(tmp_path, monkeypatch):
    config = _pool_config(tmp_path)
    results, blocks = {}, {}
    for jobs in (1, 2, 3):
        log = tmp_path / f"calls{jobs}.log"
        _count_calls(monkeypatch, log, experiment, "_run_table")
        results[jobs] = run_experiment(config, tmp_path / f"jobs{jobs}", jobs=jobs)
        # one pid per block; one worker may run both blocks when the other starts late
        blocks[jobs] = [pid for _, pid in map(str.split, log.read_text().splitlines())]
        monkeypatch.undo()
    # jobs=3 still makes two blocks: each holds at least _FORK_ENTRIES entries
    assert blocks[1] == [str(os.getpid())]
    assert len(blocks[2]) == len(blocks[3]) == 2
    assert str(os.getpid()) not in blocks[2] + blocks[3]
    assert {arm for arm, _ in results[1].diverged} == {"sweep"}
    for jobs in (2, 3):
        assert _strip_wall(results[jobs].raw_path) == _strip_wall(results[1].raw_path)
        assert results[jobs].aggregate_path.read_bytes() == \
            results[1].aggregate_path.read_bytes()
        assert (results[jobs].diverged, results[jobs].diverged_at) == \
            (results[1].diverged, results[1].diverged_at)


def test_pool_builds_the_problem_once(tmp_path, monkeypatch):
    # the _run_table lines show that the workers ran under the wrappers
    log = tmp_path / "calls.log"
    for module, name in ((experiment, "build_problem"), (experiment, "_run_table"),
                         (ingest, "load_csv")):
        _count_calls(monkeypatch, log, module, name)
    run_experiment(_pool_config(tmp_path), tmp_path / "out", jobs=2)
    calls = [line.split() for line in log.read_text().splitlines()]
    assert sorted(name for name, _ in calls) == ["_run_table", "_run_table", "build_problem",
                                                 "load_csv"]
    workers = {pid for name, pid in calls if name == "_run_table"}
    assert len(workers) == 2 and str(os.getpid()) not in workers


def test_small_experiment_runs_in_the_parent(tmp_path, monkeypatch):
    log = tmp_path / "calls.log"
    _count_calls(monkeypatch, log, experiment, "_run_table")
    config = _config()  # 6 runs of dim 2
    assert 6 * build_problem(config.problem).dim < experiment._FORK_ENTRIES
    run_experiment(config, tmp_path / "out", jobs=2)
    assert log.read_text().splitlines() == [f"_run_table {os.getpid()}"]


# (problem, step size of the four regular arms, step size of a "sweep"
# arm that diverges in every repetition, or None).  A "path" of None is
# the CSV that _write_dro_csv writes.
_SOLO_PROBLEMS = {
    "quartic": ({"id": "quartic"}, 0.01, None),
    "exp_strong": ({"id": "exp_strong"}, 1e-5, 0.01),
    "phase": ({"id": "phase_retrieval", "m": 40, "dim": 6, "seed": 0}, 1e-4, None),
    "dro": ({"id": "dro", "lam": 1.0,
             "dataset": {"synthetic": {"seed": 7, "rows": 60, "dim": 5}}}, 0.01, 0.3),
    "dro_csv": ({"id": "dro", "lam": 1.0, "dataset": {"csv": {"path": None}}}, 1e-3, 0.3),
}


@pytest.mark.parametrize("jobs", (1, 2))
@pytest.mark.parametrize("batch_size", (1, 3))
@pytest.mark.parametrize("name", sorted(_SOLO_PROBLEMS))
def test_rows_match_solo_runs(tmp_path, name, batch_size, jobs):
    spec, step, sweep = _SOLO_PROBLEMS[name]
    if "csv" in spec.get("dataset", {}):
        _write_dro_csv(tmp_path / "dro.csv")
        spec = {**spec, "dataset": {"csv": {"path": str(tmp_path / "dro.csv")}}}
    arms = [ArmSpec(name=kind, method="shuffling", scheme=kind, step_size=step)
            for kind in KINDS]
    arms.append(ArmSpec(name="sgd", method="sgd", step_size=step))
    if sweep:
        arms.append(ArmSpec(name="sweep", method="shuffling", scheme="random_reshuffle",
                            step_size=sweep))
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
    assert {arm for (arm, _), _ in diverged} == ({"sweep"} if sweep else set())
    assert len(diverged) == (2 if sweep else 0)
