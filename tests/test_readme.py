"""The README's commands, snippet and stepsize-plan statements, checked against the code."""

import json
import re
import shlex
from dataclasses import MISSING, fields
from pathlib import Path

import pytest

from shufflegrad.cli import main
from shufflegrad import experiment, ingest
from shufflegrad.experiment import ExperimentConfig
from shufflegrad.problems import _PROBLEMS
from shufflegrad.smoothness import RECIPES, EllFunction, constants_for_recipe

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def _section(title: str) -> str:
    start = README.index(f"\n## {title}\n")
    end = README.find("\n## ", start + 1)
    return README[start:end if end >= 0 else None]


def _blocks(section: str, info: str = ""):
    """Lines of each fenced block whose info string is ``info``."""
    found = []
    for block in section.split("```")[1::2]:
        first, *lines = block.splitlines()
        if first == info:
            found.append(lines)
    return found


def _commands(section: str):
    """(argv after 'shufflegrad', expected output lines) for each command."""
    found = []
    for lines in _blocks(section):
        command, *rest = lines or [""]
        command = command.lstrip("$ ")
        if not command.startswith("shufflegrad "):
            continue
        while command.endswith("\\"):
            command = command[:-1] + rest.pop(0).strip()
        found.append((shlex.split(command)[1:], [ln for ln in rest if ln != "..."]))
    return found


def test_recipe_table_matches_code():
    rows = re.findall(r"^\| (\d) \| (.*?) \| (.*?) \|$", _section("Stepsize plans"), flags=re.M)
    assert [int(r) for r, _, _ in rows] == sorted(RECIPES)
    for recipe, setting, needs in rows:
        assert setting == RECIPES[int(recipe)].name
        # Leaving every optional statistic out makes the code name all
        # the ones the recipe requires, in one message.
        with pytest.raises(ValueError, match="needs statistics: ") as err:
            constants_for_recipe(int(recipe), EllFunction.constant(1.0),
                                 initial_gap=1.0, n=4, eps=0.1)
        required = str(err.value).split("needs statistics: ")[1].split(", ")
        assert needs.replace("`", "").split(", ") == required


def test_experiment_config_table_matches_fields():
    table = _section("Experiment config").split("### Problems")[0]
    rows = re.findall(r"^\| `(\w+)` \| [^|]* \| ([^|]*) \| [^|]* \|$", table, flags=re.M)
    documented = [(key, cell if cell in ("required", "auto") else float(cell))
                  for key, cell in rows]
    shown = {MISSING: "required", None: "auto"}
    assert documented == [(f.name, shown.get(f.default, f.default))
                          for f in fields(ExperimentConfig)]


# the word for each kind of the config reader's tables
_WORDS = {int: "int", float: "number", bool: "bool", str: "string", tuple: "array", dict: "object"}


def _word(kind) -> str:
    """The README's word for a reader kind; ``(tuple, entry)`` is an array."""
    return _WORDS[tuple if isinstance(kind, tuple) else kind]


def test_experiment_config_types_match_the_reader():
    table = _section("Experiment config").split("### Problems")[0]
    rows = re.findall(r"^\| `(\w+)` \| (\w+)[^|]* \| [^|]* \| [^|]* \|$", table, flags=re.M)
    assert rows == [(key, _word(kind)) for key, kind in ExperimentConfig._KEY_KINDS.items()]


def test_problem_params_and_dataset_keys_match_the_reader():
    section = _section("Experiment config").split("### Problems")[1]
    rows = re.findall(r"^\| `(\w+)` \| ([^|]*) \|", section, flags=re.M)
    assert [(pid, re.findall(r"`(\w+)` (\w+)", params)) for pid, params in rows] == [
        (pid, [(key, _word(kind)) for key, kind in kinds.items()])
        for pid, (_, kinds) in _PROBLEMS.items()]
    key_lists = re.findall(r"`\{([\w, ]+)\}`", " ".join(section.split()))
    assert [keys.split(", ") for keys in key_lists] == [list(ingest._SYNTHETIC_KINDS),
                                                        list(ingest._CSV_KINDS)]


def _prints(argv, transcript, capsys):
    """Run the CLI; every documented output line appears as printed."""
    assert main(argv) == 0
    out = capsys.readouterr().out.splitlines()
    assert transcript and all(line in out for line in transcript), transcript


def test_fork_threshold_matches_code():
    text = " ".join(_section("Seeds and determinism").split())
    assert f"blocks of at least {experiment._FORK_ENTRIES:,} iterate entries" in text


def test_run_and_check_transcripts(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    section = _section("Quick start")
    (config,) = _blocks(section, "json")
    Path("demo.json").write_text("\n".join(config))
    (run, run_transcript), *_, (check, check_transcript) = _commands(section)
    assert run[0] == "run" and check[0] == "check"
    _prints(run, run_transcript, capsys)
    _prints(check, check_transcript, capsys)


def test_library_snippet_runs(capsys):
    (snippet,) = _blocks(_section("Library"), "python")
    exec("\n".join(snippet), {})
    assert len(capsys.readouterr().out.splitlines()) == 1


def test_plan_commands_run_as_documented(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    _, (manual, transcript), (estimated, _), _ = _commands(_section("Quick start"))

    _prints(manual, transcript, capsys)
    plan = json.loads(Path("plan.json").read_text())
    assert (plan["recipe"], plan["eta"], plan["epochs"]) == (2, 0.028867366631864982, 27713)

    assert main(estimated) == 0
    plan = json.loads(Path("plan.json").read_text())
    # Estimated statistics alone do not set the flag ...
    assert plan["recipe"] == 3 and plan["heuristic"] is False
    # ... and a recipe-3 plan has the smallest epoch count the checks accept.
    capsys.readouterr()
    assert main(estimated + ["--target-epochs", str(plan["epochs"] - 1)]) == 1
    assert capsys.readouterr().err.startswith("infeasible plan:")


def test_only_a_sampled_component_bound_is_heuristic(tmp_path):
    base = ["plan", "--theorem", "6", "--eps", "0.1", "--problem", "tiny_quadratic",
            "--budget", "200", "--out", str(tmp_path / "plan.json")]
    assert main(base) == 0
    assert json.loads((tmp_path / "plan.json").read_text())["heuristic"] is True
    assert main(base + ["--component-grad-bound", "5"]) == 0
    assert json.loads((tmp_path / "plan.json").read_text())["heuristic"] is False
