"""Span tracing from outside the program.

The tracer rebinds public module attributes of shufflegrad (and the
problem classes' full-batch oracles) to wrappers that record one span
per call: name, start, end, parent and a few attributes.  Nothing in
``src/`` is edited.  Spans stay in memory and are written out when the
round ends.  Pool workers are forked from the traced process, so they
inherit the wrappers; a worker appends its spans to a file of its own
each time its outermost span closes, because a worker's memory is lost
when the pool shuts it down.

A span's self time is its duration minus the durations of its direct
children (calls in one process never overlap).
"""

from __future__ import annotations

import contextlib
import functools
import json
import os
import time
import warnings
from collections import defaultdict
from pathlib import Path

PROBLEM_IDS = {
    "QuarticProblem": "quartic",
    "ExpStrongProblem": "exp_strong",
    "PhaseRetrievalProblem": "phase_retrieval",
    "TinyQuadraticProblem": "tiny_quadratic",
    "DROProblem": "dro",
}

# (module, attribute, span name).  A module that imports a function by
# name holds its own reference, so each importing module is rebound.
SPANNED = (
    ("problems", "build_problem", "build_problem"),
    ("experiment", "build_problem", "build_problem"),
    ("cli", "build_problem", "build_problem"),
    ("ingest", "dataset_from_config", "dataset_from_config"),
    ("optimize", "permutation_for_epoch", "permutation_for_epoch"),
    ("experiment", "run_shuffling", "run_shuffling"),
    ("experiment", "run_sgd", "run_sgd"),
    ("experiment", "aggregate_raw", "aggregate_raw"),
    ("cli", "run_experiment", "run_experiment"),
    ("cli", "stepsize_plan", "stepsize_plan"),
    ("smoothness", "reevaluate_plan", "reevaluate_plan"),
    ("cli", "estimate_sublevel_gradient_bound", "estimate_sublevel_gradient_bound"),
    ("cli", "estimate_variance_constants", "estimate_variance_constants"),
    ("cli", "optimum_component_noise", "optimum_component_noise"),
)


def _describe(name, args, result, err):
    if name in ("run_shuffling", "run_sgd"):
        problem = args[0]
        record = result if err is None else getattr(err, "record", None)
        return {"problem": PROBLEM_IDS.get(type(problem).__name__, type(problem).__name__),
                "n": problem.n,
                "epochs": 0 if record is None else record.completed_epochs,
                "outcome": "ok" if err is None else type(err).__name__}
    if name == "dataset_from_config" and err is None:
        return {"rows": result.row_count}
    return None


class Tracer:
    """Per-process span recorder; see the module docstring."""

    def __init__(self, spill_dir: Path):
        self.spill_dir = Path(spill_dir)
        self.enabled = False
        self.root_pid = os.getpid()
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.missing: list[str] = []
        os.register_at_fork(after_in_child=self._forked)

    def _forked(self):
        self.spans, self.stack, self.counts = [], [], defaultdict(int)

    def _open(self, name: str) -> list:
        span = [name, 0.0, 0.0, self.stack[-1] if self.stack else -1, None]
        self.stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _close(self) -> None:
        self.stack.pop()
        if not self.stack and os.getpid() != self.root_pid:
            self._spill()

    def _spill(self) -> None:
        line = json.dumps({"spans": self.spans, "counts": self.counts})
        with open(self.spill_dir / f"spans-{os.getpid()}.jsonl", "a") as fh:
            fh.write(line + "\n")
        self.spans, self.counts = [], defaultdict(int)

    def _wrap(self, fn, name):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            span = tracer._open(name)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as err:
                span[2] = time.perf_counter()
                span[4] = _describe(name, args, None, err)
                tracer._close()
                raise
            span[2] = time.perf_counter()
            span[4] = _describe(name, args, result, None)
            tracer._close()
            return result

        return traced

    def _count(self, fn, name):
        tracer = self

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            if tracer.enabled:
                tracer.counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    @contextlib.contextmanager
    def span(self, name: str):
        """Record a span around a block of the benchmark's own code."""
        if not self.enabled:
            yield
            return
        rec = self._open(name)
        rec[1] = time.perf_counter()
        try:
            yield
        finally:
            rec[2] = time.perf_counter()
            self._close()

    def install(self, package) -> None:
        """Rebind the traced names of ``package`` (the imported shufflegrad)."""
        wrapped = {}
        for module_name, attr, span_name in SPANNED:
            module = getattr(package, module_name)
            fn = module.__dict__.get(attr)
            if fn is None:
                self.missing.append(f"{module_name}.{attr}")
                continue
            if id(fn) not in wrapped:
                wrapped[id(fn)] = self._wrap(fn, span_name)
            setattr(module, attr, wrapped[id(fn)])
        for cls in vars(package.problems).values():
            if isinstance(cls, type) and cls.__name__ in PROBLEM_IDS:
                for attr in ("full_value", "full_gradient"):
                    if attr in cls.__dict__:
                        setattr(cls, attr, self._wrap(cls.__dict__[attr], attr))
        base = package.problems.FiniteSumProblem
        base.component_gradient = self._count(base.__dict__["component_gradient"],
                                              "component_gradient")
        self._capture_warnings()

    def _capture_warnings(self) -> None:
        # Every RuntimeWarning is recorded as an instant span under the
        # call that raised it; none is filtered out or deduplicated.
        warnings.simplefilter("always", RuntimeWarning)
        shown = warnings.showwarning

        def record(message, category, filename, lineno, file=None, line=None):
            if self.enabled and issubclass(category, RuntimeWarning):
                span = self._open("runtime_warning")
                span[1] = span[2] = time.perf_counter()
                span[4] = {"message": str(message)[:120]}
                self._close()
            else:
                shown(message, category, filename, lineno, file, line)

        warnings.showwarning = record

    def collect(self) -> list[dict]:
        """This process's spans plus every spilled worker batch."""
        procs = [{"pid": self.root_pid, "root": True, "spans": self.spans,
                  "counts": dict(self.counts)}]
        for path in sorted(self.spill_dir.glob("spans-*.jsonl")):
            pid = int(path.stem.split("-")[1])
            with open(path) as fh:
                for line in fh:
                    batch = json.loads(line)
                    procs.append({"pid": pid, "root": False, **batch})
        return procs


def layer_metrics(procs: list[dict], run_s: float, jobs: int, raw_rows: int,
                  raw_bytes: int) -> dict[str, float]:
    """Per-layer metrics of one traced round; 0 where a layer did no work."""
    m: dict[str, float] = defaultdict(float)
    step_self: dict[str, float] = defaultdict(float)
    step_evals: dict[str, int] = defaultdict(int)
    clean_epochs = fv_in_clean = plans = audits = audit_s = busy = 0.0
    calls: dict[str, int] = defaultdict(int)
    for proc in procs:
        spans = proc["spans"]
        child_s = [0.0] * len(spans)
        for _, start, end, parent, _ in spans:
            if parent >= 0:
                child_s[parent] += end - start

        def ancestor(i, names):
            parent = spans[i][3]
            while parent >= 0:
                if spans[parent][0] in names:
                    return parent
                parent = spans[parent][3]
            return -1

        for i, (name, start, end, parent, attrs) in enumerate(spans):
            dur = end - start
            calls[name] += 1
            if not proc["root"] and parent < 0:
                busy += dur
            if name == "build_problem":
                m["problems.build_s"] += dur
            elif name in ("full_value", "full_gradient"):
                run = ancestor(i, ("run_shuffling", "run_sgd"))
                if run >= 0:
                    m["problems.metric_s"] += dur
                    if name == "full_value" and spans[run][4]["outcome"] == "ok":
                        fv_in_clean += 1
            elif name == "permutation_for_epoch":
                m["shuffling.perm_s"] += dur
            elif name in ("run_shuffling", "run_sgd"):
                if not proc["root"]:
                    m["experiment.pool_tasks"] += 1
                if attrs["outcome"] == "ok":
                    step_self[attrs["problem"]] += dur - child_s[i]
                    step_evals[attrs["problem"]] += attrs["n"] * attrs["epochs"]
                    clean_epochs += attrs["epochs"]
                elif attrs["outcome"] == "DivergenceError":
                    m["optimize.diverged_runs"] += 1
                    m["optimize.divergence_s"] += dur
            elif name == "runtime_warning":
                m["optimize.runtime_warnings"] += 1
            elif name == "run_experiment":
                m["experiment.self_s"] += dur - child_s[i]
            elif name == "aggregate_raw":
                m["experiment.aggregate_s"] += dur
            elif name == "dataset_from_config":
                m["ingest.load_s"] += dur
                m["ingest.rows"] += attrs["rows"] if attrs else 0
            elif name == "stepsize_plan":
                plans += 1
                m["smoothness.plan_s"] += dur
            elif name == "reevaluate_plan" and ancestor(i, ("stepsize_plan",)) >= 0:
                audits += 1
                audit_s += dur
            elif name == "estimate_sublevel_gradient_bound":
                m["smoothness.sublevel_s"] += dur
            elif name == "estimate_variance_constants":
                m["diagnostics.variance_fit_s"] += dur
            elif name == "optimum_component_noise":
                m["diagnostics.optimum_noise_s"] += dur
            elif name == "cli.main":
                m["cli.self_s"] += dur - child_s[i]
        m["problems.component_gradient_calls"] += proc["counts"].get("component_gradient", 0)

    def per(total, count, scale=1.0):
        return scale * total / count if count else 0.0

    out = {
        "problems.build_calls": calls["build_problem"],
        "problems.build_s": m["problems.build_s"],
        "problems.full_value_calls_per_epoch": per(fv_in_clean, clean_epochs),
        "problems.metric_s": m["problems.metric_s"],
        "problems.component_gradient_calls": m["problems.component_gradient_calls"],
        "shuffling.perm_calls": calls["permutation_for_epoch"],
        "shuffling.perm_us": per(m["shuffling.perm_s"], calls["permutation_for_epoch"], 1e6),
    }
    for pid in sorted(PROBLEM_IDS.values()):
        out[f"optimize.step_us.{pid}"] = per(step_self[pid], step_evals[pid], 1e6)
    out.update({
        "optimize.diverged_runs": m["optimize.diverged_runs"],
        "optimize.divergence_s": m["optimize.divergence_s"],
        "optimize.runtime_warnings": m["optimize.runtime_warnings"],
        "experiment.self_s": m["experiment.self_s"],
        "experiment.aggregate_s": m["experiment.aggregate_s"],
        "experiment.aggregate_us_per_row": per(m["experiment.aggregate_s"], raw_rows, 1e6),
        "experiment.raw_rows": raw_rows,
        "experiment.raw_bytes": raw_bytes,
        "experiment.pool_tasks": m["experiment.pool_tasks"],
        "experiment.worker_busy_frac": per(busy, jobs * run_s) if m["experiment.pool_tasks"] else 0.0,
        "ingest.load_calls": calls["dataset_from_config"],
        "ingest.load_s": m["ingest.load_s"],
        "ingest.rows_per_s": per(m["ingest.rows"], m["ingest.load_s"]),
        "smoothness.plan_ms": per(m["smoothness.plan_s"], plans, 1e3),
        "smoothness.audit_ms": per(audit_s, plans, 1e3),
        "smoothness.audit_calls_per_plan": per(audits, plans),
        "smoothness.sublevel_ms": per(m["smoothness.sublevel_s"],
                                      calls["estimate_sublevel_gradient_bound"], 1e3),
        "diagnostics.variance_fit_ms": per(m["diagnostics.variance_fit_s"],
                                           calls["estimate_variance_constants"], 1e3),
        "diagnostics.optimum_noise_ms": per(m["diagnostics.optimum_noise_s"],
                                            calls["optimum_component_noise"], 1e3),
        "cli.self_ms": per(m["cli.self_s"], calls["cli.main"], 1e3),
    })
    return {k: float(v) for k, v in out.items()}
