"""Benchmark entry point: one workload, one seed, a fixed time budget.

Usage:
    python3 bench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

``--workload all`` runs the four workloads in turn, ``--seconds`` each,
and ends each one's lines with its own JSON line.

Run from anywhere inside a checkout; the program is imported from the
checkout's ``src/``.  The run repeats rounds until ``--seconds`` are
used up (at least three).  Each round is a fresh process with
OPENBLAS_NUM_THREADS=1 and OMP_NUM_THREADS=1, so that a pool of two
workers on two cores is not oversubscribed by BLAS threads, and with
PYTHONHASHSEED=0.  A round
sets up, runs a fixed amount of work through ``shufflegrad.cli.main``
and checks the outputs (see round.py and workloads.py).

``setup_s`` and ``run_s`` are reported at reference speed, which
round.py explains; the seconds as measured are printed and kept too.

With ``--trace 0`` every round is untraced and the end-to-end metrics
are reported.  With ``--trace 1`` traced and untraced rounds alternate;
the per-layer metrics come from the traced rounds and
``bench.trace_overhead`` compares the two kinds' run times.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The lines
before it name every metric with its unit and sample count, plus the
provenance.  Everything a run writes goes under ``.bench_work/`` in the
checkout; ``.bench_work/<workload>/result.json`` keeps the full record.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

ROOT = Path(__file__).resolve().parent.parent
ROUND = Path(__file__).resolve().parent / "round.py"

BENCHMARK = ROOT / "BENCHMARK.json"

MIN_ROUNDS = 3
# Start no round after this many seconds and stop any round still
# running at ROUND_DEADLINE_S, so a run always ends well within 180 s.
LAST_START_S, ROUND_DEADLINE_S = 120.0, 165.0


def _provenance() -> dict:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10).stdout.split()
    except (OSError, subprocess.TimeoutExpired):
        out = []
    # A checkout nested in another repository must not report that one's HEAD.
    own = len(out) == 2 and Path(out[0]).resolve() == ROOT
    commit = out[1] if own else "none (not a git checkout)"
    try:
        cores = len(os.sched_getaffinity(0))
    except AttributeError:
        cores = os.cpu_count()
    return {"git_commit": commit, "src_sha256": digest.hexdigest(), "nproc": cores}


def _run_round(index: int, traced: bool, args, spec: dict, work: Path, timeout: float) -> dict:
    round_dir = work / f"round-{index:02d}{'-traced' if traced else ''}"
    round_dir.mkdir()
    spec_path = round_dir / "spec.json"
    spec_path.write_text(json.dumps({**spec, "root": str(ROOT), "seed": args.seed,
                                     "trace": traced}))
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", PYTHONHASHSEED="0")
    with open(round_dir / "log.txt", "w") as log:
        launch = time.monotonic()
        proc = subprocess.Popen([sys.executable, str(ROUND), str(spec_path), repr(launch)],
                                stdout=log, stderr=subprocess.STDOUT, env=env, cwd=ROOT,
                                process_group=0)
        try:
            proc.wait(timeout=max(timeout, 1.0))
        except subprocess.TimeoutExpired:
            # The round leads its own process group, which holds its pool workers too.
            with contextlib.suppress(ProcessLookupError):
                os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    wall = time.monotonic() - launch
    result_path = round_dir / "result.json"
    if proc.returncode != 0 or not result_path.is_file():
        tail = (round_dir / "log.txt").read_text()[-2000:]
        return {"crashed": f"round {index} exited {proc.returncode}: {tail}", "wall": wall,
                "traced": traced}
    return {**json.loads(result_path.read_text()), "wall": wall, "traced": traced}


def _percentile(values: list[float], q: float) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def run_workload(workload: str, args, units: dict, wanted: list) -> dict | None:
    """Run one workload; print its lines and return the JSON result.

    Returns None, after saying why on stderr, when no round completed.
    """
    work = ROOT / ".bench_work" / workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    spec = workloads.prepare(workload, args.seed, work / "inputs")
    ops_per_round = sum(len(e["config"]["arms"]) * e["config"]["repetitions"]
                        for e in spec["experiments"])
    if spec["requests"]:
        ops_per_round += len(json.loads(Path(spec["requests"]).read_text()))

    start = time.monotonic()
    rounds: list[dict] = []
    min_rounds = MIN_ROUNDS + args.trace
    while True:
        elapsed = time.monotonic() - start
        typical = statistics.median(r["wall"] for r in rounds) if rounds else 0.0
        if rounds and (elapsed > LAST_START_S or
                       (len(rounds) >= min_rounds and elapsed + typical > args.seconds)):
            break
        traced = args.trace == 1 and len(rounds) % 2 == 0
        rounds.append(_run_round(len(rounds), traced, args, spec, work,
                                 ROUND_DEADLINE_S - elapsed))

    done = [r for r in rounds if "crashed" not in r]
    attempted = len(rounds) * ops_per_round
    failed = sum(r["failed"] for r in done) + ops_per_round * (len(rounds) - len(done))
    failures = [r["crashed"] for r in rounds if "crashed" in r] + \
        [f for r in done for f in r["failures"]]
    plain = [r for r in done if not r["traced"]]
    traced = [r for r in done if r["traced"]]
    if not plain or (args.trace and not traced):
        print(f"bench: no {workload} round completed", *failures[:3], sep="\n", file=sys.stderr)
        return None

    lines = [f"workload {workload}, seed {args.seed}, {len(rounds)} rounds "
             f"({len(traced)} traced) in {time.monotonic() - start:.1f} s"]
    provenance = {**_provenance(), **done[0]["provenance"]}
    lines.append("provenance: " + ", ".join(f"{k} {v}" for k, v in provenance.items()))

    def med(key, rows):
        return statistics.median(r[key] for r in rows)

    values = {"setup_s": med("setup_s", plain), "run_s": med("run_s", plain),
              "peak_rss_mb": med("peak_rss_mb", plain)}
    for name, value in values.items():
        lines.append(f"{name} = {value:.6g} {units[name]} (median of {len(plain)} rounds)")
    for name in ("setup_s", "run_s"):
        lines.append(f"raw_{name} = {med('raw_' + name, plain):.6g} s as measured "
                     f"(median of {len(plain)} rounds)")
    lines.append(f"speed = {med('speed', done):.6g} (reference-speed seconds per second, "
                 f"median of {len(done)} rounds)")
    if spec["experiments"]:
        eps = statistics.median(r["evals"] / r["raw_run_s"] for r in plain)
        lines.append(f"evals_per_s = {eps:.6g} 1/s as measured (median of {len(plain)} rounds, "
                     f"{plain[0]['evals']} component-gradient evaluations per round)")
    if spec["requests"]:
        latencies = [ms for r in plain for ms in r["plan_latencies_ms"]]
        for q in (0.5, 0.9):
            lines.append(f"plan_ms_p{round(q * 100)} = {_percentile(latencies, q):.6g} ms "
                         f"({len(latencies)} requests)")
    lines.append(f"error_rate = {failed / attempted:.6g} ({failed} failed of {attempted} "
                 f"operations)")
    if spec["experiments"]:
        lines.append(f"diverged runs per round: {done[0]['diverged_runs']} (not failures)")

    if args.trace:
        reported = {name: statistics.median(r["layers"][name] for r in traced)
                    for name in traced[0]["layers"]}
        reported["bench.trace_overhead"] = med("run_s", traced) / values["run_s"] - 1.0
        for name in wanted:
            lines.append(f"{name} = {reported[name]:.6g} {units[name]} (median of {len(traced)} "
                         f"traced rounds)")
        if traced[0]["untraced_names"]:
            lines.append(f"not traced (missing in the program): {traced[0]['untraced_names']}")
        for message in traced[0]["runtime_warning_messages"]:
            lines.append(f"runtime warning seen: {message}")
    else:
        reported = values
    for failure in failures[:10]:
        lines.append(f"FAILED {failure}")

    metrics = {name: {"value": reported[name], "unit": units[name]} for name in wanted}
    record = {"args": {**vars(args), "workload": workload}, "provenance": provenance, "metrics": metrics,
              "attempted": attempted, "failed": failed, "failures": failures[:50],
              "rounds": [{k: v for k, v in r.items() if k != "plan_latencies_ms"} for r in rounds]}
    (work / "result.json").write_text(json.dumps(record, indent=1))
    print("\n".join(lines))
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*workloads.WORKLOADS, "all"))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "shufflegrad" / "cli.py").is_file() or not BENCHMARK.is_file():
        print(f"bench: {ROOT} lacks src/shufflegrad or BENCHMARK.json", file=sys.stderr)
        return 2
    declared = json.loads(BENCHMARK.read_text())
    units = {m["name"]: m["unit"] for m in declared["end_to_end"] + declared["per_layer"]}
    wanted = [m["name"] for m in declared["per_layer" if args.trace else "end_to_end"]]
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    for name in names:
        result = run_workload(name, args, units, wanted)
        if result is None:
            return 1
        print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
