"""youngdim benchmark: fixed CLI workloads, checked outputs, timed in-process.

    python3 bench/run.py --workload search-exact --seed 1 --seconds 25 --trace 0

Every job runs the workload's CLI tasks through `youngdim.cli.main` in
this process, at the default `--threads 1`, on a freshly imported
package, so module-level caches start cold as they do in a CLI process.
Each output is checked (see workloads.py).  Jobs repeat until the next
one would overrun `--seconds`; at least one always runs.

Every task and set-up is timed between two runs of a calibration loop
and scaled to the machine's nominal speed (see calibrate.py), because on
a shared machine the same work can take twice as long from one minute
to the next.  The unscaled times are kept in the report.

With `--trace 0` the last stdout line carries the end-to-end metrics:
wall_s (median job time), setup_s (median of several set-ups) and
peak_rss_mib.  With `--trace 1` jobs alternate between untraced and
traced, and the last line carries the per-layer metrics of the traced
jobs (medians over jobs) and trace.overhead_frac.  The lines before it
give a readable summary and a full report with the environment, and the
same report is written to .bench_out/.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"

import calibrate  # noqa: E402
import pins  # noqa: E402
import tracer as tracing  # noqa: E402
from workloads import PINNED_NODES_EXPANDED, WORKLOADS, Context, TaskOutput  # noqa: E402

SETUP_REPEATS = 5

# Layers that report calls and self time; the rest are listed in `layer_metrics`.
CALL_LAYERS = (
    "plancherel.transition_prob",
    "dimension.dim_ratio_add",
    "diagram.in_core_subgraph",
    "diagram.add_box",
    "dimension.hook_product",
    "dimension.dim_exact",
    "oracle.max_dimension_diagrams",
    "search.astar",
    "search.tree_children",
    "plancherel.greedy_grow",
    "dimension.log_dim",
    "parallel.sharded_map",
)
SELF_ONLY_LAYERS = (
    "oracle.partitions",
    "records.load_records",
    "records.record_for",
    "records.emit_records",
    "records.ratios_csv",
    "cli.main",
)


def use_checkout_src() -> bool:
    """Put the checkout's src/ first on the import path, if the package is there."""
    if not (SRC / "youngdim" / "__init__.py").is_file():
        return False
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    return True


def fresh_import():
    """Import youngdim from the checkout's src/ as if in a new process."""
    for name in [m for m in sys.modules if m == "youngdim" or m.startswith("youngdim.")]:
        del sys.modules[name]
    cli = importlib.import_module("youngdim.cli")
    if Path(cli.__file__).resolve().parents[2] != SRC.parent:
        raise RuntimeError(f"imported youngdim from {cli.__file__}, not from {SRC}")
    records = importlib.import_module("youngdim.records")
    return argparse.Namespace(cli=cli, records=records)


class Clock:
    """Times work and scales it to the nominal machine speed (see calibrate.py)."""

    def __init__(self):
        self.raw_s = 0.0
        self.scaled_s = 0.0
        self._before = calibrate.measure()

    def time(self, fn):
        t0 = time.perf_counter()
        try:
            return fn()
        finally:
            secs = time.perf_counter() - t0
            after = calibrate.measure()
            self.raw_s += secs
            self.scaled_s += secs * calibrate.NOMINAL_S * 2 / (self._before + after)
            self._before = after


def run_task(main, argv):
    out, err = io.StringIO(), io.StringIO()
    rc, error = None, None
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main(list(argv))
    except SystemExit as exc:
        error = f"SystemExit({exc.code})"
    except Exception as exc:
        error = repr(exc)
    return TaskOutput(list(argv), rc, out.getvalue(), err.getvalue(), error)


def run_job(ctx, workload, tasks, tracer=None):
    """Run every task once; return (clock, outputs)."""
    workload.before_job(ctx)
    main = ctx.yd.cli.main
    gc.collect()  # start from a clean heap, as a CLI process does
    clock = Clock()
    outputs = []
    for argv in tasks:
        if tracer is not None:
            tracer.active = True
        try:
            outputs.append(clock.time(lambda: run_task(main, argv)))
        finally:
            if tracer is not None:
                tracer.active = False
    return clock, outputs


def check_job(ctx, workload, outputs, corrupt):
    """Problems per task: a raised error, a non-zero exit or a wrong output."""
    if corrupt:
        workload.corrupt(outputs[0], ctx)
    problems = []
    for i, out in enumerate(outputs):
        if out.error is not None:
            problems.append([f"raised {out.error}"])
        elif out.rc != 0:
            problems.append([f"exit code {out.rc}: {out.stderr.strip()}"])
        else:
            try:
                problems.append(workload.check(i, out, ctx))
            except Exception as exc:
                problems.append([f"check raised {exc!r}"])
    return problems


def pinned_count_problems(workload, tracer):
    """Counts the traced run must repeat exactly (see PINNED_NODES_EXPANDED)."""
    problems = []
    if workload.name == "search-exact":
        for n_target, mode, expanded in tracer.astar_runs:
            want = PINNED_NODES_EXPANDED.get(n_target)
            if want is not None and mode == "uniform-cost" and expanded != want:
                problems.append(f"nodes_expanded {expanded} at n={n_target}, pinned {want}")
    if workload.name == "oracle-table":
        for layer in ("plancherel.transition_prob", "diagram.in_core_subgraph"):
            calls, _ = tracer.layer(layer)
            if calls:
                problems.append(f"{layer} called {calls} times on the oracle workload")
    return problems


def layer_metrics(tracer, scale):
    """Per-layer values of one traced job, as {name: (value, unit)}.

    Times are multiplied by `scale`, the job's speed scaling, so that they
    add up to its scaled wall time.
    """
    m = {}
    for layer in CALL_LAYERS:
        calls, self_s = tracer.layer(layer)
        m[f"{layer}.calls"] = (calls, "count")
        m[f"{layer}.self_s"] = (self_s * scale, "s")
    for layer in SELF_ONLY_LAYERS:
        m[f"{layer}.self_s"] = (tracer.layer(layer)[1] * scale, "s")
    counts = tracer.counts
    core_calls = tracer.layer("diagram.in_core_subgraph")[0]
    rejects = counts.get("diagram.in_core_subgraph.rejects", 0)
    m["diagram.in_core_subgraph.reject_ratio"] = (rejects / core_calls if core_calls else 0.0, "ratio")
    m["oracle.partitions.yielded"] = (counts.get("oracle.partitions.yielded", 0), "count")
    expanded = counts.get("search.nodes_expanded", 0)
    children = counts.get("search.children_generated", 0)
    m["search.nodes_expanded"] = (expanded, "count")
    m["search.frontier_peak"] = (counts.get("search.frontier_peak", 0), "count")
    m["search.children_generated"] = (children, "count")
    m["search.expand_ratio"] = (expanded / children if children else 0.0, "ratio")
    samples = sorted(s * scale for s in tracer.samples.get("search.local_improve", []))
    m["search.local_improve.calls"] = (len(samples), "count")
    m["search.local_improve.p50_s"] = (percentile(samples, 50), "s")
    m["search.local_improve.p90_s"] = (percentile(samples, 90), "s")
    return m


def percentile(sorted_values, p):
    """Nearest-rank percentile; 0.0 for no samples."""
    if not sorted_values:
        return 0.0
    rank = max(1, -(-p * len(sorted_values) // 100))
    return sorted_values[rank - 1]


def tail_percentile(values):
    """The highest whole percentile with at least ten samples above it."""
    k = len(values)
    if k < 11:
        return None
    # Nearest rank ceil(p * k / 100) <= k - 10 exactly when p <= 100 * (k - 10) / k.
    p = (100 * (k - 10)) // k
    return {"percentile": p, "value": percentile(sorted(values), p)}


def environment(seed):
    env = {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "cpu_count": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "platform": platform.platform(),
        "git_sha": None,
        "git_dirty": None,
        "seed": seed,
    }
    git_env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        top = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"],
            cwd=ROOT, env=git_env, capture_output=True, text=True, timeout=20,
        )
        lines = top.stdout.split()
        if top.returncode == 0 and len(lines) == 2 and Path(lines[0]).resolve() == ROOT:
            env["git_sha"] = lines[1]
            status = subprocess.run(
                ["git", "status", "--porcelain", "--untracked-files=no"],
                cwd=ROOT, env=git_env, capture_output=True, text=True, timeout=20,
            )
            env["git_dirty"] = bool(status.stdout.strip()) if status.returncode == 0 else None
    except (OSError, subprocess.SubprocessError):
        pass
    return env


def set_up(ctx, workload):
    ctx.yd = fresh_import()
    ctx.pins = pins.load()
    ctx.inputs = {}
    workload.prepare(ctx)


def run(workload_name, seed, seconds, trace, *, smoke=False, corrupt=False):
    workload = WORKLOADS[workload_name]
    OUT_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as work:
        ctx = Context(seed=seed, smoke=smoke, work=work, pins={})
        setup_times, setup_raw = [], []
        first_input = None
        for _ in range(SETUP_REPEATS):
            clock = Clock()
            clock.time(lambda: set_up(ctx, workload))
            setup_times.append(clock.scaled_s)
            setup_raw.append(clock.raw_s)
            if first_input is None:
                first_input = ctx.inputs
            elif ctx.inputs != first_input:
                raise RuntimeError("set-up made different inputs from the same seed")
        tasks = workload.tasks(ctx)

        tracer = tracing.Tracer()
        untraced, untraced_raw, traced, per_job_layers = [], [], [], []
        attempted = failed = 0
        failures, quality = [], None
        start = time.perf_counter()
        while True:
            for traced_job in ((False, True) if trace else (False,)):
                ctx.yd = fresh_import()
                if traced_job:
                    tracing.install(tracer)
                    tracer.reset_counts()
                clock, outputs = run_job(ctx, workload, tasks, tracer if traced_job else None)
                problems = check_job(ctx, workload, outputs, corrupt and attempted == 0)
                if traced_job:
                    tracer.keep_spans = False
                    traced.append(clock.scaled_s)
                    per_job_layers.append(layer_metrics(tracer, clock.scaled_s / clock.raw_s))
                    problems[0] = problems[0] + pinned_count_problems(workload, tracer)
                else:
                    untraced.append(clock.scaled_s)
                    untraced_raw.append(clock.raw_s)
                attempted += len(outputs)
                for out, probs in zip(outputs, problems):
                    if probs:
                        failed += 1
                        failures.append({"argv": out.argv, "problems": probs[:5]})
                if quality is None and not any(problems):
                    quality = workload.quality(outputs, ctx)
            elapsed = time.perf_counter() - start
            jobs = len(untraced)
            if elapsed + elapsed / jobs > seconds:
                break

    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    report = {
        "workload": workload_name,
        "trace": int(trace),
        "smoke": smoke,
        "environment": environment(seed),
        "jobs": len(untraced),
        "tasks_per_job": len(tasks),
        "attempted": attempted,
        "failed": failed,
        "failed_frac": failed / attempted,
        "wall_s": {
            "median": statistics.median(untraced),
            "tail": tail_percentile(untraced),
            "runs": len(untraced),
            "samples": untraced,
        },
        "wall_raw_s": {"median": statistics.median(untraced_raw), "samples": untraced_raw},
        "setup_s": {"median": statistics.median(setup_times), "samples": setup_times},
        "setup_raw_s": {"median": statistics.median(setup_raw), "samples": setup_raw},
        "peak_rss_mib": peak_rss_mib,
        "quality": {k: {"value": v, "unit": u} for k, (v, u) in (quality or {}).items()},
        "failures": failures[:20],
    }
    if trace:
        layers = {
            name: (statistics.median_low(job[name][0] for job in per_job_layers), unit)
            for name, (_, unit) in per_job_layers[0].items()
        }
        layers["trace.overhead_frac"] = (
            statistics.median(traced) / statistics.median(untraced) - 1, "ratio"
        )
        metrics = layers
        report["traced_wall_s"] = {"median": statistics.median(traced), "samples": traced}
        report["layers"] = {k: {"value": v, "unit": u} for k, (v, u) in layers.items()}
        stem = OUT_DIR / f"spans-{workload_name}-seed{seed}"
        tracer.write_spans(stem)
        report["spans"] = str(stem.relative_to(ROOT)) + ".json"
    else:
        metrics = {
            "wall_s": (report["wall_s"]["median"], "s"),
            "setup_s": (report["setup_s"]["median"], "s"),
            "peak_rss_mib": (peak_rss_mib, "MiB"),
        }
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return report, result


def summary_lines(report):
    wall = report["wall_s"]
    tail = wall["tail"]
    tail_text = (
        f"p{tail['percentile']} {tail['value']:.4f} s"
        if tail
        else "no percentile with ten runs beyond it"
    )
    lines = [
        f"workload {report['workload']}  seed {report['environment']['seed']}"
        f"  trace {report['trace']}  jobs {report['jobs']}"
        f"  tasks {report['attempted']}  failed {report['failed']}",
        f"  wall_s        {wall['median']:.4f} s    (median of {wall['runs']} jobs; {tail_text})",
        f"  wall_raw_s    {report['wall_raw_s']['median']:.4f} s    (unscaled)",
        f"  setup_s       {report['setup_s']['median']:.4f} s",
        f"  peak_rss_mib  {report['peak_rss_mib']:.1f} MiB",
        f"  failed_frac   {report['failed_frac']:.4f} ratio",
    ]
    for name, q in report["quality"].items():
        lines.append(f"  {name:<13} {q['value']:.6f} {q['unit']}")
    for name, q in report.get("layers", {}).items():
        lines.append(f"  {name:<40} {q['value']:.6g} {q['unit']}")
    for failure in report["failures"][:5]:
        lines.append(f"  FAILED {' '.join(failure['argv'])}: {failure['problems']}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="youngdim benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, for self-tests")
    parser.add_argument(
        "--corrupt", action="store_true", help="damage the first output; the run must fail"
    )
    args = parser.parse_args(argv)
    if not use_checkout_src():
        print(f"error: no youngdim package under {SRC}", file=sys.stderr)
        return 2
    report, result = run(
        args.workload, args.seed, args.seconds, bool(args.trace),
        smoke=args.smoke, corrupt=args.corrupt,
    )
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}{'-smoke' if args.smoke else ''}"
    with open(OUT_DIR / f"report-{name}.json", "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)
    for line in summary_lines(report):
        print(line)
    print(json.dumps(report))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
