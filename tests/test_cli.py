import csv
import json
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

import shufflegrad
from shufflegrad.cli import SUITES, main
from shufflegrad.experiment import derive_seed


def _plan_args(tmp_path, *extra):
    return ["plan", "--theorem", "2", "--ell-constant", "1", "--n", "2",
            "--initial-gap", "1", "--variance-slope", "0", "--noise-std", "1",
            "--eps", "0.1", "--out", str(tmp_path / "plan.json"), *extra]


def _run_config(tmp_path, epochs=4, step=0.05):
    cfg = {
        "problem": {"id": "tiny_quadratic"},
        "arms": [
            {"name": "rr", "method": "shuffling", "scheme": "random_reshuffle",
             "step_size": step},
            {"name": "sgd", "method": "sgd", "step_size": step},
        ],
        "epochs": epochs,
        "repetitions": 2,
        "base_seed": 3,
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return path


def _child_env() -> dict:
    """The environment with this checkout's package first on PYTHONPATH."""
    src = str(Path(shufflegrad.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))


class TestPlanCommand:
    @pytest.mark.parametrize("extra, err", [
        (["--theorem", "2", "--variance-slope", "0", "--noise-std", "1e308"],
         "infeasible plan: recipe 2: at eta = 0, set by the cap of 'cube_sum', "),
        (["--theorem", "2", "--variance-slope", "1e308", "--noise-std", "1"],
         "infeasible plan: recipe 2: at eta = 0, set by the cap of 'eta_cap', "),
        (["--theorem", "2", "--variance-slope", "0", "--noise-std", "1",
          "--target-epochs", "1" + "0" * 400], "error: target epoch count must be >= 1 and fit"),
        (["--theorem", "4", "--mu", "0.5", "--optimum-noise", "1", "--component-grad-bound", "2",
          "--target-epochs", "1" + "0" * 400], "error: target epoch count must be >= 1 and fit"),
        (["--theorem", "2", "--variance-slope", "0", "--noise-std", "inf"],
         "error: noise_std must be finite and >= 0, got inf\n"),
        (["--theorem", "2", "--variance-slope", "nan", "--noise-std", "1"],
         "error: variance_slope must be finite and >= 0, got nan\n"),
        (["--theorem", "4", "--mu", "0.5", "--optimum-noise", "-1", "--component-grad-bound", "2"],
         "error: optimum_noise_std must be finite and >= 0, got -1.0\n"),
        # statistics whose checks leave the float range: mu**3 and mu*mu
        # underflow to 0, eta_cap's bound underflows to 0, sig_star**2 and
        # noise_std**2 overflow
        (["--theorem", "4", "--mu", "1e-110", "--optimum-noise", "1", "--component-grad-bound", "2"],
         "infeasible plan: recipe 4: no epoch count up to 2**1023 passes: "),
        (["--theorem", "4", "--mu", "1e-170", "--optimum-noise", "1", "--component-grad-bound", "2"],
         "infeasible plan: recipe 4: no epoch count up to 2**1023 passes: "),
        (["--theorem", "4", "--initial-gap", "1e-300", "--mu", "1e-5", "--optimum-noise", "1e10",
          "--component-grad-bound", "2"],
         "infeasible plan: recipe 4: no epoch count up to 2**1023 passes: "),
        (["--theorem", "4", "--mu", "0.5", "--optimum-noise", "1e200", "--component-grad-bound", "2"],
         "infeasible plan: recipe 4: no epoch count up to 2**1023 passes: "),
        (["--theorem", "5", "--delta", "0.1", "--variance-slope", "0", "--noise-std", "1",
          "--optimum-noise", "1e200", "--initial-dist-sq", "1"],
         "infeasible plan: recipe 5: at eta = nan, set by the cap of 'cube_sum_optimum_noise', "),
        (["--theorem", "3", "--mu", "0.5", "--delta", "0.1", "--variance-slope", "0",
          "--noise-std", "1e160"],
         "error: recipe 3: the value-gap bound is not finite in floats\n"),
    ], ids=["zero-cube-cap", "zero-eta-cap", "huge-free-target", "huge-pinned-target",
            "inf-noise", "nan-slope", "negative-optimum-noise", "mu-cubed-underflow",
            "mu-squared-underflow", "zero-pinned-cap", "huge-optimum-noise-pinned",
            "huge-optimum-noise-free", "huge-noise-gap-bound"])
    def test_refusals_are_one_line(self, tmp_path, capsys, extra, err):
        args = ["plan", "--eps", "0.1", "--n", "10", "--ell-constant", "1", "--initial-gap", "1",
                "--out", str(tmp_path / "plan.json"), *extra]
        assert main(args) == 1
        text = capsys.readouterr().err
        assert text.startswith(err) and text.count("\n") == 1
        assert not (tmp_path / "plan.json").exists()

    def test_manual_stats_example(self, tmp_path, capsys):
        assert main(_plan_args(tmp_path)) == 0
        out = capsys.readouterr().out
        assert "value_gap_bound = 2" in out
        assert "candidate_eta = 0.05" in out
        assert "VIOLATED" not in out
        plan = json.loads((tmp_path / "plan.json").read_text())
        assert plan["recipe"] == 2
        assert plan["n"] == 2
        assert plan["epochs"] == 27713
        assert plan["eta"] == pytest.approx(0.1 / 12.0**0.5, rel=1e-4)

    def test_plan_file_is_deterministic(self, tmp_path):
        assert main(_plan_args(tmp_path)) == 0
        first = (tmp_path / "plan.json").read_bytes()
        assert main(_plan_args(tmp_path)) == 0
        assert (tmp_path / "plan.json").read_bytes() == first

    def test_problem_derived_stats(self, tmp_path, capsys):
        args = ["plan", "--theorem", "3", "--eps", "0.05", "--delta", "0.2",
                "--problem", "tiny_quadratic", "--out", str(tmp_path / "plan.json")]
        assert main(args) == 0
        plan = json.loads((tmp_path / "plan.json").read_text())
        assert plan["recipe"] == 3
        assert plan["n"] == 4
        assert plan["epochs"] >= 100

    def test_delta_outside_unit_interval_is_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as err:
            main(_plan_args(tmp_path, "--delta", "1.5"))
        assert err.value.code == 2
        with pytest.raises(SystemExit) as err:
            main(_plan_args(tmp_path, "--delta", "0"))
        assert err.value.code == 2

    def test_infeasible_target_epochs(self, tmp_path, capsys):
        assert main(_plan_args(tmp_path, "--target-epochs", "1")) == 1
        assert "infeasible plan:" in capsys.readouterr().err

    def test_recipe3_one_component_one_epoch_is_refused(self, tmp_path, capsys):
        # the pinned stepsize's log(sqrt(n) * T) is 0 at n = T = 1
        args = ["plan", "--theorem", "3", "--n", "1", "--target-epochs", "1", "--eps", "0.1",
                "--delta", "0.1", "--ell-constant", "1", "--variance-slope", "0",
                "--noise-std", "0", "--mu", "0.5", "--out", str(tmp_path / "plan.json")]
        for gap in ("1", "1e-9"):  # epoch_floor_gap violated, then satisfied
            assert main(args + ["--initial-gap", gap]) == 1
            err = capsys.readouterr().err
            assert err.startswith("infeasible plan: recipe 3: target epoch count 1 violates '")
        assert "'iteration_floor' (lhs = 16, rhs = nan)" in err
        assert not (tmp_path / "plan.json").exists()

    def test_recipe4_one_epoch_is_refused(self, tmp_path, capsys):
        # the pinned stepsize 6*log(T)/(mu*T) is 0 at T = 1
        args = ["plan", "--theorem", "4", "--n", "5", "--target-epochs", "1", "--eps", "0.1",
                "--ell-constant", "1", "--initial-gap", "0.01", "--mu", "0.5",
                "--optimum-noise", "0.1", "--component-grad-bound", "2",
                "--out", str(tmp_path / "plan.json")]
        assert main(args) == 1
        err = capsys.readouterr().err
        assert err.startswith("infeasible plan: recipe 4: target epoch count 1 violates "
                              "'positive_eta' (lhs = 2, rhs = 1)"), err
        assert not (tmp_path / "plan.json").exists()

    def test_missing_stats_reported(self, tmp_path, capsys):
        args = ["plan", "--theorem", "2", "--eps", "0.1", "--ell-constant", "1",
                "--out", str(tmp_path / "plan.json")]
        assert main(args) == 1
        assert "error:" in capsys.readouterr().err

    def test_no_subcommand_is_usage_error(self):
        with pytest.raises(SystemExit) as err:
            main([])
        assert err.value.code == 2

    def test_module_entry_point_writes_the_plan(self, tmp_path):
        proc = subprocess.run([sys.executable, "-m", "shufflegrad.cli", *_plan_args(tmp_path)],
                              capture_output=True, text=True, env=_child_env(), timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert "epochs = 27713" in proc.stdout
        plan = json.loads((tmp_path / "plan.json").read_text())
        assert (plan["recipe"], plan["epochs"]) == (2, 27713)

    def test_import_leaves_numpy_random_unloaded(self):
        # the audit needs no mpmath, and run loads the worker pool only to fork
        unloaded = ("numpy.random", "mpmath", "concurrent.futures.process")
        code = f"import sys, shufflegrad.cli; print([m for m in {unloaded!r} if m in sys.modules])"
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env=_child_env(), timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    def test_run_on_tiny_quadratic_leaves_numpy_random_unloaded(self, tmp_path):
        # the order streams are hashed with numpy integer arithmetic, for
        # every row kind; only a seeded problem or estimator needs a Generator
        config = _run_config(tmp_path)
        cfg = json.loads(config.read_text())
        arms = [{"name": kind, "method": "shuffling", "scheme": kind, "step_size": 0.05}
                for kind in ("fixed", "shuffle_once", "random_reshuffle")]
        config.write_text(json.dumps({**cfg, "arms": arms + cfg["arms"][1:]}))
        code = ("import sys\nfrom shufflegrad import cli\n"
                f"assert cli.main(['run', '--config', {str(config)!r}, '--out', "
                f"{str(tmp_path / 'out')!r}]) == 0\n"
                "print('numpy.random' in sys.modules)")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env=_child_env(), timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "False"

    def test_run_and_csv_ingest_leave_numpy_ma_unloaded(self, tmp_path):
        # the aggregate's percentiles and the median fill take numpy's steps
        # directly: np.percentile and np.median would load numpy.ma
        config = _run_config(tmp_path)
        cfg = json.loads(config.read_text())
        config.write_text(json.dumps({**cfg, "repetitions": 5}))  # percentiles interpolate
        data = tmp_path / "data.csv"
        data.write_text("a,b,target,country,status\n1,,3,x,y\n2,5,,x,y\n4,6,1,x,y\n")
        code = ("import sys\nfrom shufflegrad import cli, ingest\n"
                f"assert cli.main(['run', '--config', {str(config)!r}, '--out', "
                f"{str(tmp_path / 'out')!r}]) == 0\n"
                f"ingest.load_csv({str(data)!r})\n"
                "print('numpy.ma' in sys.modules)")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env=_child_env(), timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "False"

    def test_cached_parser_keeps_no_state_between_calls(self, tmp_path, capsys):
        env = _child_env()
        base = ["plan", "--theorem", "6", "--eps", "0.1", "--problem", "tiny_quadratic",
                "--out", str(tmp_path / "plan.json")]
        calls = (base + ["--seed", "5"], base)  # the second falls back to --seed 0
        fresh = [subprocess.run([sys.executable, "-m", "shufflegrad.cli", *argv],
                                capture_output=True, text=True, env=env, timeout=120).stdout
                 for argv in calls]
        assert fresh[0] != fresh[1]
        assert main(calls[0]) == 0
        assert capsys.readouterr().out == fresh[0]
        with pytest.raises(SystemExit) as err:  # a usage error between the two calls
            main(base + ["--seed", "-1"])
        assert err.value.code == 2
        capsys.readouterr()
        assert main(calls[1]) == 0
        assert capsys.readouterr().out == fresh[1]


class TestCheckCommand:
    def test_suite_names(self):
        assert SUITES == ("gradients", "variance", "ell-envelope",
                          "permutation-oracle")

    def test_permutation_oracle_passes(self, capsys):
        assert main(["check", "--suite", "permutation-oracle"]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out and "FAIL" not in out

    def test_variance_suite_passes(self, capsys):
        assert main(["check", "--suite", "variance"]) == 0
        assert "FAIL" not in capsys.readouterr().out

    def test_gradient_suite_single_problem(self, capsys):
        assert main(["check", "--suite", "gradients", "--problem",
                     "tiny_quadratic"]) == 0
        out = capsys.readouterr().out
        assert "tiny_quadratic" in out and "FAIL" not in out

    def test_envelope_suite_passes_declared_modulus(self, capsys):
        assert main(["check", "--suite", "ell-envelope", "--problem", "quartic"]) == 0
        assert "FAIL" not in capsys.readouterr().out

    def test_envelope_suite_flags_understated_modulus(self, capsys):
        code = main(["check", "--suite", "ell-envelope", "--problem", "quartic",
                     "--ell-constant", "0.1"])
        assert code == 1
        assert "FAIL" in capsys.readouterr().out

    def test_unknown_suite_is_usage_error(self):
        with pytest.raises(SystemExit) as err:
            main(["check", "--suite", "everything"])
        assert err.value.code == 2


class TestRunCommand:
    def test_end_to_end(self, tmp_path, capsys):
        config = _run_config(tmp_path)
        out_dir = tmp_path / "out"
        assert main(["run", "--config", str(config), "--out", str(out_dir),
                     "--jobs", "1"]) == 0
        out = capsys.readouterr().out
        assert "raw:" in out and "aggregate:" in out
        assert "arm rr: final mean objective" in out
        assert (out_dir / "raw.csv").exists()
        assert (out_dir / "aggregate.csv").exists()

    @pytest.mark.parametrize("metrics,shown", [
        (["dist_sq"], "dist_sq"),
        (["grad_norm_sq", "objective"], "objective"),
    ])
    def test_summary_reports_a_selected_metric(self, tmp_path, capsys, metrics, shown):
        config = _run_config(tmp_path, epochs=3)
        cfg = json.loads(config.read_text())
        config.write_text(json.dumps({**cfg, "metrics": metrics}))
        out_dir = tmp_path / "out"
        assert main(["run", "--config", str(config), "--out", str(out_dir),
                     "--jobs", "1"]) == 0
        out = capsys.readouterr().out
        last = {}
        for line in (out_dir / "aggregate.csv").read_text().splitlines()[1:]:
            arm, epoch, metric, mean, _, _, count = line.split(",")
            if metric == shown:
                last[arm] = f"final mean {shown} = {mean} (epoch {epoch}, count {count})"
        assert set(last) == {"rr", "sgd"}
        for arm, summary in last.items():
            assert f"arm {arm}: {summary}\n" in out
        assert "no complete epochs" not in out

    def test_empty_metrics_list_is_refused(self, tmp_path, capsys):
        config = _run_config(tmp_path)
        config.write_text(json.dumps({**json.loads(config.read_text()), "metrics": []}))
        out_dir = tmp_path / "out"
        assert main(["run", "--config", str(config), "--out", str(out_dir)]) == 1
        assert "error: metrics must name at least one metric" in capsys.readouterr().err
        assert not out_dir.exists()

    def test_seed_override_changes_output(self, tmp_path):
        config = _run_config(tmp_path)
        main(["run", "--config", str(config), "--out", str(tmp_path / "a"),
              "--jobs", "1"])
        main(["run", "--config", str(config), "--out", str(tmp_path / "b"),
              "--jobs", "1", "--seed", "99"])
        strip = lambda p: [ln.rsplit(",", 1)[0] for ln in p.read_text().splitlines()]
        assert strip(tmp_path / "a" / "raw.csv") != strip(tmp_path / "b" / "raw.csv")

    def test_divergence_exit_code(self, tmp_path, capsys):
        cfg = {
            "problem": {"id": "tiny_quadratic"},
            "arms": [{"name": "explode", "method": "shuffling",
                      "scheme": "fixed", "step_size": 3.0}],
            "epochs": 60,
            "repetitions": 1,
            "divergence_threshold": 1e6,
        }
        path = tmp_path / "config.json"
        path.write_text(json.dumps(cfg))
        code = main(["run", "--config", str(path), "--out", str(tmp_path / "out"),
                     "--jobs", "1"])
        assert code == 3
        assert "diverged runs:" in capsys.readouterr().err
        assert (tmp_path / "out" / "raw.csv").exists()

    def test_divergence_detail_without_warnings(self, tmp_path, capsys):
        step = 0.01
        cfg = {
            "problem": {"id": "dro", "lam": 1.0,
                        "dataset": {"synthetic": {"seed": 7, "rows": 60, "dim": 5}}},
            "arms": [{"name": "rr", "method": "shuffling", "scheme": "random_reshuffle",
                      "step_size": step},
                     {"name": "sweep", "method": "shuffling", "scheme": "random_reshuffle",
                      "step_size": 0.3}],
            "epochs": 2,
            "repetitions": 2,
            "base_seed": 4,
        }
        path = tmp_path / "config.json"
        path.write_text(json.dumps(cfg))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["run", "--config", str(path), "--out", str(tmp_path / "out"),
                         "--jobs", "2"])
        assert code == 3
        err = capsys.readouterr().err
        named = re.findall(r"arm=(\S+) seed=(\d+) epoch=(\d+) step=(\d+)", err)
        assert [(arm, int(seed)) for arm, seed, _, _ in named] == \
            [("sweep", derive_seed(4, 1, rep)) for rep in range(2)]
        assert all(int(epoch) >= 1 and int(step) >= 0 for _, _, epoch, step in named)

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_out_of_range_base_seed_is_refused(self, tmp_path, capsys, seed):
        config = _run_config(tmp_path)
        config.write_text(json.dumps({**json.loads(config.read_text()), "base_seed": seed}))
        assert main(["run", "--config", str(config), "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err == \
            f"error: base_seed must be an unsigned 64-bit integer, got {seed}\n"

    @pytest.mark.parametrize("name", ["rr,fast", 'rr"fast', "rr\rfast", "rr\nfast"])
    def test_arm_name_that_would_shift_csv_columns_is_refused(self, tmp_path, capsys, name):
        config = _run_config(tmp_path)
        cfg = json.loads(config.read_text())
        cfg["arms"][0]["name"] = name
        config.write_text(json.dumps(cfg))
        out_dir = tmp_path / "out"
        assert main(["run", "--config", str(config), "--out", str(out_dir)]) == 1
        assert capsys.readouterr().err == (
            f"error: arm {name!r}: name must not contain a comma, a double quote, CR or LF, "
            "as the CSV files write it unquoted\n")
        assert not out_dir.exists()

    def test_bad_fixed_order_leaves_no_output_directory(self, tmp_path, capsys):
        config = _run_config(tmp_path)
        cfg = json.loads(config.read_text())
        cfg["arms"][0] = {"name": "f", "scheme": "fixed", "order": [0, 1], "step_size": 0.05}
        config.write_text(json.dumps(cfg))
        out_dir = tmp_path / "out"
        assert main(["run", "--config", str(config), "--out", str(out_dir)]) == 1
        assert capsys.readouterr().err == \
            "error: arm 'f': explicit order must be a permutation of 0..n-1 with n = 4\n"
        assert not out_dir.exists()

    def test_arm_name_with_percent_sign_runs(self, tmp_path):
        config = _run_config(tmp_path, epochs=2)
        cfg = json.loads(config.read_text())
        cfg["arms"][0]["name"] = "rr 100%"
        config.write_text(json.dumps(cfg))
        out_dir = tmp_path / "out"
        assert main(["run", "--config", str(config), "--out", str(out_dir), "--jobs", "1"]) == 0
        with open(out_dir / "raw.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert {row["arm"] for row in rows} == {"rr 100%", "sgd"}
        assert all(None not in row for row in rows)  # no spilled fields

    def test_nan_step_size_is_refused(self, tmp_path, capsys):
        config = _run_config(tmp_path, step=float("nan"))
        assert main(["run", "--config", str(config), "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err == \
            "error: arm 'rr': step_size must be finite and >= 0, got nan\n"
        assert not (tmp_path / "out").exists()

    def test_negative_plan_eta_is_refused(self, tmp_path, capsys):
        plan = tmp_path / "plan.json"
        plan.write_text(json.dumps({"eta": -0.5, "n": 4}))
        config = _run_config(tmp_path)
        cfg = json.loads(config.read_text())
        cfg["arms"][0] = {"name": "planned", "method": "shuffling", "scheme": "random_reshuffle",
                          "plan_file": str(plan)}
        config.write_text(json.dumps(cfg))
        assert main(["run", "--config", str(config), "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err == (f"error: arm 'planned': plan file {str(plan)!r} has "
                                           "eta = -0.5, which must be finite and >= 0\n")

    def test_numeric_string_step_size_is_a_number(self, tmp_path):
        config = _run_config(tmp_path)
        main(["run", "--config", str(config), "--out", str(tmp_path / "a"), "--jobs", "1"])
        cfg = json.loads(config.read_text())
        for arm in cfg["arms"]:
            arm["step_size"] = str(arm["step_size"])
        config.write_text(json.dumps(cfg))
        assert main(["run", "--config", str(config), "--out", str(tmp_path / "b"),
                     "--jobs", "1"]) == 0
        strip = lambda p: [ln.rsplit(",", 1)[0] for ln in p.read_text().splitlines()]
        assert strip(tmp_path / "a" / "raw.csv") == strip(tmp_path / "b" / "raw.csv")

    @pytest.mark.parametrize("step", ["fast", [0.1], {"value": 0.1}])
    def test_non_number_step_size_is_refused(self, tmp_path, capsys, step):
        config = _run_config(tmp_path)
        cfg = json.loads(config.read_text())
        cfg["arms"][0]["step_size"] = step
        config.write_text(json.dumps(cfg))
        assert main(["run", "--config", str(config), "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err == \
            f"error: arm 'rr': step_size must be a number, got {step!r}\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("plan", [{"eta": -1, "n": 4}, {"eta": 0.1, "n": 5}, {"n": 4}])
    def test_refused_plan_file_leaves_no_output_directory(self, tmp_path, capsys, plan):
        plan_path = tmp_path / "plan.json"
        plan_path.write_text(json.dumps(plan))
        config = _run_config(tmp_path)
        cfg = json.loads(config.read_text())
        cfg["arms"][0] = {"name": "planned", "method": "shuffling", "scheme": "random_reshuffle",
                          "plan_file": str(plan_path)}
        config.write_text(json.dumps(cfg))
        out_dir = tmp_path / "out" / "nested"
        assert main(["run", "--config", str(config), "--out", str(out_dir)]) == 1
        assert capsys.readouterr().err.startswith("error: ")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("key, value, message", [
        ("epochs", [3], "epochs must be an integer, got [3]"),
        ("repetitions", None, "repetitions must be an integer, got None"),
        ("base_seed", "x", "base_seed must be an integer, got 'x'"),
        ("batch_size", {"b": 1}, "batch_size must be an integer, got {'b': 1}"),
        ("divergence_threshold", [1e6], "divergence_threshold must be a number, got [1000000.0]"),
        ("problem", 5, "problem must be an object, got 5"),
        ("metrics", 5, "metrics must be a list, got 5"),
        ("metrics", [["objective"]], "unknown metrics: [['objective']]"),
        ("arms", 5, "arms must be a list, got 5"),
        ("arms", [1], "arm entry must be an object, got 1"),
        ("arms", [{"name": "f", "scheme": "fixed", "order": [[0]], "step_size": 0.1}],
         "arm 'f': order entry must be an integer, got [0]"),
        ("arms", [{"name": "f", "scheme": "fixed", "order": 3, "step_size": 0.1}],
         "arm 'f': order must be a list, got 3"),
        ("arms", [{"name": ["a"], "method": "sgd", "step_size": 0.1}],
         "arm entry name must be a string, got ['a']"),
        ("arms", [{"name": "a", "method": "sgd", "plan_file": ["p.json"]}],
         "arm 'a': plan_file must be a string, got ['p.json']"),
        ("epochs", 2.5, "epochs must be an integer, got 2.5"),
        ("problem", {"id": "dro", "lam": [1]}, "problem 'dro': lam must be a number, got [1]"),
        ("problem", {"id": "phase_retrieval", "m": [3]},
         "problem 'phase_retrieval': m must be an integer, got [3]"),
        ("problem", {"id": "phase_retrieval", "m": 2.5},
         "problem 'phase_retrieval': m must be an integer, got 2.5"),
        ("problem", {"id": "dro", "dataset": 5}, "problem 'dro': dataset must be an object, got 5"),
        ("problem", {"id": "dro", "dataset": {"csv": {"path": ["x"]}}},
         "problem 'dro': csv dataset path must be a string, got ['x']"),
        ("epochs", True, "epochs must be an integer, got True"),
        ("problem", [["id", "tiny_quadratic"]],
         "problem must be an object, got [['id', 'tiny_quadratic']]"),
        ("metrics", "objective", "metrics must be a list, got 'objective'"),
        ("arms", [{"name": "f", "scheme": "fixed", "order": "0123", "step_size": 0.1}],
         "arm 'f': order must be a list, got '0123'"),
        ("problem", {"id": "dro", "dataset": {"synthetic": {"rows": [3]}}},
         "problem 'dro': synthetic dataset rows must be an integer, got [3]"),
        ("problem", {"id": "dro", "dataset": {"csv": {"path": "d.csv", "max_rows": [2]}}},
         "problem 'dro': csv dataset max_rows must be an integer, got [2]"),
        ("problem", {"id": "dro", "dataset": {"csv": {"path": "d.csv", "drop_columns": "ab"}}},
         "problem 'dro': csv dataset drop_columns must be a list, got 'ab'"),
        ("problem", {"id": "dro", "dataset": {"synthetic": {}, "normalize": "no"}},
         "problem 'dro': dataset normalize must be a bool, got 'no'"),
        ("divergence_threshold", -1, "divergence_threshold must be > 0, got -1.0"),
        ("divergence_threshold", float("nan"), "divergence_threshold must be > 0, got nan"),
        ("problem", {"id": "dro", "lam": float("nan")},
         "problem 'dro': lam must be finite and positive, got nan"),
        ("problem", {"id": "phase_retrieval", "noise_std": -4},
         "problem 'phase_retrieval': noise_std must be finite and >= 0, got -4.0"),
        ("problem", {"id": "phase_retrieval", "noise_std": float("nan")},
         "problem 'phase_retrieval': noise_std must be finite and >= 0, got nan"),
        ("problem", {"id": "dro", "dataset": {"csv": {"path": "d.csv", "max_rows": -1}}},
         "problem 'dro': max_rows must be >= 1, got -1"),
        ("problem", {"id": "dro", "seed": -1},
         "problem 'dro': seed must be a non-negative integer, got -1"),
        ("problem", {"id": "phase_retrieval", "seed": -2},
         "problem 'phase_retrieval': seed must be a non-negative integer, got -2"),
        ("problem", {"id": "dro", "dataset": {"synthetic": {"seed": -3}}},
         "problem 'dro': synthetic dataset seed must be a non-negative integer, got -3"),
        ("problem", {"id": "tiny_quadratic", "centers": [["1", True], [0, "-2"]]},
         "problem 'tiny_quadratic': centers entry must be a number, got True"),
        ("problem", {"id": "tiny_quadratic", "centers": [[1, 0], 2]},
         "problem 'tiny_quadratic': centers entry must be a list, got 2"),
        ("problem", {"id": "tiny_quadratic", "initial_point": ["3", False]},
         "problem 'tiny_quadratic': initial_point entry must be a number, got False"),
        ("problem", {"id": "dro", "dataset": {"csv": {"path": "d.csv",
                                                      "drop_columns": ["country", 7]}}},
         "problem 'dro': csv dataset drop_columns entry must be a string, got 7"),
        ("problem", {"id": "tiny_quadratic", "centers": [[1, 2], [3]]},
         "problem 'tiny_quadratic': centers rows must have one length, got lengths [2, 1]"),
        ("metrics", ["objective", "grad_norm_sq", "objective"],
         "metric 'objective' is repeated in metrics"),
        ("problem", {"id": "tiny_quadratic", "initial_point": [float("nan"), 1]},
         "problem 'tiny_quadratic': initial_point must be finite, got [nan, 1.0]"),
        ("problem", {"id": "tiny_quadratic", "initial_point": ["inf", 1]},
         "problem 'tiny_quadratic': initial_point must be finite, got [inf, 1.0]"),
        ("problem", {"id": "tiny_quadratic", "centers": [[float("inf"), 0], [1, 0]]},
         "problem 'tiny_quadratic': centers must be finite, got [[inf, 0.0], [1.0, 0.0]]"),
    ])
    def test_malformed_config_field_is_refused(self, tmp_path, capsys, key, value, message):
        config = _run_config(tmp_path)
        cfg = json.loads(config.read_text())
        cfg[key] = value
        config.write_text(json.dumps(cfg))
        assert main(["run", "--config", str(config), "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("plan, message", [
        ({"eta": [0.1], "n": 4}, "plan file {path}: eta must be a number, got [0.1]"),
        ({"eta": 0.1, "n": [4]}, "plan file {path}: n must be an integer, got [4]"),
        ({"eta": 0.1, "n": None}, "plan file {path}: n must be an integer, got None"),
        ([0.1, 4], "plan file {path} must hold an object, got [0.1, 4]"),
    ])
    def test_malformed_plan_file_is_refused(self, tmp_path, capsys, plan, message):
        plan_path = tmp_path / "plan.json"
        plan_path.write_text(json.dumps(plan))
        config = _run_config(tmp_path)
        cfg = json.loads(config.read_text())
        cfg["arms"][0] = {"name": "planned", "method": "shuffling", "scheme": "random_reshuffle",
                          "plan_file": str(plan_path)}
        config.write_text(json.dumps(cfg))
        assert main(["run", "--config", str(config), "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err == f"error: {message.format(path=repr(str(plan_path)))}\n"
        assert not (tmp_path / "out").exists()

    def test_missing_config_file(self, tmp_path, capsys):
        code = main(["run", "--config", str(tmp_path / "nope.json"),
                     "--out", str(tmp_path / "out")])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_invalid_config_keys(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"problem": {"id": "tiny_quadratic"},
                                    "arms": [], "epochs": 2, "bogus": 1}))
        code = main(["run", "--config", str(path), "--out", str(tmp_path / "out")])
        assert code == 1
        assert "unknown experiment config keys" in capsys.readouterr().err
