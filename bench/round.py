"""One benchmark round in a fresh process: set up, run the timed body, check.

Usage: python3 bench/round.py <round-spec.json> <launch-time>

``launch-time`` is the parent's ``time.monotonic()`` just before it
started this process (the clock is system-wide on Linux), so set-up
time covers interpreter start, imports, config load and problem
builds.  The timed body drives the program only through
``shufflegrad.cli.main`` in-process.  Checks run after the body and
outside its timing.  The round writes ``result.json`` next to its spec.

On the 2-vCPU shared virtual machine where the bounds were set, core
speed changes by up to 2x from one second to the next (other tenants
share the cores), which moves every timing together and is invisible
to the process.  So the
body is cut into short chunks (one ``run`` call, or PLAN_CHUNK plan
requests) and a fixed reference kernel is timed before the first chunk
and after each one.  ``run_s`` sums each chunk's seconds scaled to
reference speed (times REF_NOMINAL_S over the mean kernel time on
either side); ``setup_s`` is scaled by the first kernel time.  The raw
seconds are kept as ``raw_setup_s`` and ``raw_run_s``.
"""

from __future__ import annotations

import contextlib
import importlib.metadata
import io
import json
import multiprocessing
import platform
import random
import resource
import statistics
import sys
import time
import traceback
import types
from pathlib import Path

import workloads

# Plan requests timed between two reference measurements.
PLAN_CHUNK = 12
# The reference kernel's time at the speed the figures are scaled to.
REF_NOMINAL_S = 0.0135


def reference_s() -> float:
    """Median of three timings of a fixed kernel.

    The kernel mixes what the workloads spend their time on: an
    interpreter loop, small numpy updates, and a step shaped like a
    component-gradient update (allocate, write one entry, update).
    """
    import numpy as np

    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        total = 0
        for i in range(50_000):
            total += i
        vec = np.ones(50)
        for _ in range(2_500):
            vec = vec - 1e-9 * vec
        for i in range(3_000):
            grad = np.zeros(50)
            grad[i % 50] = 4.0 * vec[i % 50] ** 3 + 1.0
            vec = vec - 1e-9 * grad
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def _call(cli, argv: list[str]):
    """Run one CLI command; return (exit code or error text, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except SystemExit as exit_:
            rc = exit_.code
        except Exception:  # an unexpected exception is a failed operation
            rc = "exception: " + traceback.format_exc(limit=4)
    return rc, out.getvalue(), err.getvalue()


def _peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    workers = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, workers) / 1024.0


def main(spec_path: str, launch: float) -> int:
    round_dir = Path(spec_path).parent
    spec = json.loads(Path(spec_path).read_text())
    src = Path(spec["root"]) / "src"
    sys.path.insert(0, str(src))
    import shufflegrad
    import shufflegrad.cli

    if Path(shufflegrad.__file__).resolve().parent != (src / "shufflegrad").resolve():
        raise SystemExit(f"imported shufflegrad from {shufflegrad.__file__}, not {src}")

    tracer = None
    if spec["trace"]:
        from tracing import Tracer, layer_metrics

        tracer = Tracer(round_dir)
        tracer.install(shufflegrad)
        tracer.enabled = True

    # Set-up: what a user's first call pays before any work is timed.
    experiments = spec["experiments"]
    problems, built = {}, {}
    for exp in experiments:
        config = shufflegrad.experiment.ExperimentConfig.from_json(exp["config_path"])
        key = json.dumps(config.problem, sort_keys=True)
        if key not in built:
            built[key] = shufflegrad.problems.build_problem(config.problem)
        problems[exp["name"]] = built[key]
    requests = []
    if spec["requests"]:
        requests = json.loads(Path(spec["requests"]).read_text())
        for pid in ("quartic", "exp_strong", "tiny_quadratic"):
            shufflegrad.problems.build_problem({"id": pid})

    cli = shufflegrad.cli
    span = tracer.span if tracer else (lambda name: contextlib.nullcontext())
    chunks = [[["run", "--config", exp["config_path"], "--out", str(round_dir / exp["name"]),
                "--jobs", str(exp["jobs"])]] for exp in experiments]
    plan_argv = [["plan", *request["argv"], "--out", str(round_dir / f"plan-{i:03d}.json")]
                 for i, request in enumerate(requests)]
    chunks += [plan_argv[i:i + PLAN_CHUNK] for i in range(0, len(plan_argv), PLAN_CHUNK)]
    calls, latencies_ms, chunk_s = [], [], []
    t_first = time.monotonic()
    refs = [reference_s()]
    for chunk in chunks:
        t_chunk = time.perf_counter()
        for argv in chunk:
            t0 = time.perf_counter()
            with span("cli.main"):
                calls.append(_call(cli, argv))
            latencies_ms.append((time.perf_counter() - t0) * 1e3)
        chunk_s.append(time.perf_counter() - t_chunk)
        refs.append(reference_s())
    peak_rss_mb = _peak_rss_mb()
    if tracer:
        tracer.enabled = False
    raw_run_s = sum(chunk_s)
    run_s = sum(s * REF_NOMINAL_S * 2.0 / (before + after)
                for s, before, after in zip(chunk_s, refs, refs[1:]))

    api = types.SimpleNamespace(
        derive_seed=shufflegrad.experiment.derive_seed,
        Scheme=shufflegrad.shuffling.Scheme,
        RunConfig=shufflegrad.optimize.RunConfig,
        run_shuffling=shufflegrad.optimize.run_shuffling,
        run_sgd=shufflegrad.optimize.run_sgd,
        DivergenceError=shufflegrad.optimize.DivergenceError,
        ConstantsBundle=shufflegrad.smoothness.ConstantsBundle,
        StepsizePlan=shufflegrad.smoothness.StepsizePlan,
        EllFunction=shufflegrad.smoothness.EllFunction,
        reevaluate_plan=shufflegrad.smoothness.reevaluate_plan,
    )
    attempted, failures = 0, []
    evals = raw_rows = raw_bytes = diverged = 0
    for exp, (rc, _, stderr) in zip(experiments, calls):
        rng = random.Random(f"solo/{spec['seed']}/{exp['name']}")
        result = workloads.check_experiment(exp, problems[exp["name"]], round_dir / exp["name"],
                                            rc, stderr, api, rng)
        attempted += result["attempted"]
        failures += [f"{op}: {why}" for op, why in result["failed"].items()]
        evals += result["info"]["evals"]
        raw_rows += result["info"]["raw_rows"]
        raw_bytes += result["info"]["raw_bytes"]
        diverged += result["info"]["diverged"]
    for i, (request, (rc, _, stderr)) in enumerate(zip(requests, calls[len(experiments):])):
        attempted += 1
        why = workloads.check_plan(request, rc, stderr, round_dir / f"plan-{i:03d}.json", api)
        if why:
            failures.append(f"plan request {i} {' '.join(request['argv'])}: {why}")

    result = {
        "raw_setup_s": t_first - launch,
        "raw_run_s": raw_run_s,
        "setup_s": (t_first - launch) * REF_NOMINAL_S / refs[0],
        "run_s": run_s,
        "speed": REF_NOMINAL_S / statistics.median(refs),
        "peak_rss_mb": peak_rss_mb,
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures[:20],
        "evals": evals,
        "diverged_runs": diverged,
        "plan_latencies_ms": latencies_ms[len(experiments):],
        "provenance": {
            "python": platform.python_version(),
            **{pkg: importlib.metadata.version(pkg) for pkg in ("numpy", "scipy", "mpmath")},
            "pool_start_method": multiprocessing.get_start_method(),
        },
    }
    if tracer:
        jobs = max((exp["jobs"] for exp in experiments), default=1)
        procs = tracer.collect()
        result["layers"] = layer_metrics(procs, raw_run_s, jobs, raw_rows, raw_bytes)
        result["untraced_names"] = tracer.missing
        warnings_seen = sorted({s[4]["message"] for p in procs for s in p["spans"]
                                if s[0] == "runtime_warning"})
        result["runtime_warning_messages"] = warnings_seen[:10]
        with open(round_dir / "spans.json", "w") as fh:
            json.dump(procs, fh)
    (round_dir / "result.json").write_text(json.dumps(result, indent=1))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1], float(sys.argv[2])))
