"""Runner behind ``perfbench/run.py``: timing loop, reports and the result line."""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from dataclasses import dataclass
from fnmatch import fnmatch
from pathlib import Path
from time import perf_counter

import numpy as np
import scipy

import workloads
from layers import SpanTable, Tracer, layer_metrics
from run import THREAD_VARS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = Path(".perfbench")  # relative to the working directory (the checkout root)


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as f:
        return json.load(f)


def environment() -> dict:
    """What the numbers depend on besides the code: cores, versions, BLAS threads."""
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '')}".strip(),
        "blas_threads": {var: os.environ.get(var) for var in THREAD_VARS},
    }


def parse_args(argv):
    p = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__)
    p.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    p.add_argument("--smoke", action="store_true", help="tiny inputs, for the benchmark's own tests")
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be >= 0")
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def main(argv) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    sizes = workloads.SMOKE if args.smoke else workloads.FULL
    workload = workloads.WORKLOADS[args.workload](args.seed, sizes, OUT_DIR)
    spec = load_spec()
    print(f"perfbench workload={workload.name} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}{' smoke' if args.smoke else ''}")
    print("env: " + json.dumps(environment()))
    run = measure(workload, args.seconds, traced=bool(args.trace))
    if run is None:
        return 1
    passes, tally = run.passes, run.tally

    checks = workload.checks(passes)
    for c in checks:
        print(f"check {'ok  ' if c.ok else 'FAIL'} {c.name}: {c.detail}")
    correct = all(c.ok for c in checks)
    attempted, failed = tally.totals()
    print_tally(tally)

    if run.tracer is None:
        summary = workload.summary(passes)
        metrics = {
            "setup_s": statistics.median(run.setup_s),
            "peak_rss_mb": run.peak_rss_mb,
            "success_rate": 1.0 - failed / attempted,
            "throughput_per_s": summary["throughput_per_s"][0],
        }
        print(f"setup_s {metrics['setup_s']:.4f} s (median of {len(run.setup_s)}: "
              + ", ".join(f"{v:.4f}" for v in run.setup_s) + ")")
        print(f"peak_rss_mb {run.peak_rss_mb:.1f} MB")
        print(f"error_rate {failed / attempted:.6g} ratio ({failed} of {attempted} operations)")
        for name, (value, unit) in summary.items():
            print(f"{name} {value:.6g} {unit}")
        walls = [p.wall_s for p in passes]
        print(f"passes {len(walls)}: median {statistics.median(walls):.4f} s, "
              f"min {min(walls):.4f} s, max {max(walls):.4f} s")
        declared = spec["end_to_end"]
    else:
        retained = workloads.retained_bytes_per_event(workload.events_text, workload.sizes.sensor)
        table = SpanTable(run.tracer)
        metrics = layer_metrics(
            table,
            steps_per_epoch=workload.steps_per_epoch,
            events_per_parse=workload.n_events,
            checkpoint_bytes=workload.checkpoint_bytes,
            retained_bytes_per_event=retained,
            generate_dataset_s=workload.generate_dataset_s,
            untraced_pass_s=statistics.median(run.untraced_s),
            traced_pass_s=statistics.median(run.traced_s),
        )
        path = OUT_DIR / f"trace-{workload.name}-seed{args.seed}.csv.gz"
        run.tracer.write(path)
        print_trace_report(table, metrics, spec, run, path, workload.name)
        declared = spec["per_layer"]

    missing = {m["name"] for m in declared} ^ set(metrics)
    if missing:
        print(f"perfbench: metrics differ from BENCHMARK.json: {sorted(missing)}", file=sys.stderr)
        return 1
    units = {m["name"]: m["unit"] for m in declared}
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": float(metrics[name]), "unit": units[name]} for name in units},
    }))
    return 0 if correct else 1


@dataclass
class Run:
    setup_s: list[float]
    passes: list
    untraced_s: list[float]  # wall time of each untraced pass
    traced_s: list[float]
    peak_rss_mb: float  # whole process, set-up included, taken before the output checks
    tally: workloads.Tally
    tracer: Tracer | None


def measure(workload, seconds: float, traced: bool) -> Run | None:
    """Set up, then run passes until ``seconds`` have elapsed (at least one).

    A traced run also traces its single set-up, and alternates untraced and
    traced passes so their difference is the tracing overhead.
    """
    tracer = Tracer() if traced else None
    setup_s = []
    for _ in range(1 if traced else workload.sizes.setup_repeats):
        if tracer:
            tracer.install()
        start = perf_counter()
        try:
            workload.setup()
        finally:
            if tracer:
                tracer.uninstall()
        setup_s.append(perf_counter() - start - workload.harness_s)

    tally = workloads.Tally()
    passes, untraced_s, traced_s = [], [], []
    attempts = 0
    start = perf_counter()
    while attempts == 0 or perf_counter() - start < seconds:
        attempts += 1
        result = workload.run_pass(tally)
        if result is not None:
            passes.append(result)
            untraced_s.append(result.wall_s)
        if tracer:
            tracer.install()
            try:
                result = workload.run_pass(tally)
            finally:
                tracer.uninstall()
            if result is not None:
                passes.append(result)
                traced_s.append(result.wall_s)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if not untraced_s or (tracer and not traced_s):
        print(f"perfbench: no pass completed; failures: {tally.errors}", file=sys.stderr)
        return None
    return Run(setup_s, passes, untraced_s, traced_s, peak_rss_mb, tally, tracer)


def print_tally(tally) -> None:
    for op in sorted(tally.attempted):
        print(f"ops {op}: attempted {tally.attempted[op]} failed {tally.failed.get(op, 0)}")
    for key, n in sorted(tally.errors.items()):
        print(f"ops failure {key}: {n}")


def print_trace_report(table, metrics, spec, run, path, workload_name) -> None:
    total = sum(table.self_total.values())
    print(f"traced spans by self time ({sum(table.calls.values())} spans, written to {path}):")
    print(f"  {'span':40s} {'calls':>9s} {'incl_ms':>11s} {'self_ms':>11s} {'self%':>6s}")
    for name, calls, incl, self_s in table.rows():
        print(f"  {name:40s} {calls:9d} {1e3 * incl:11.2f} {1e3 * self_s:11.2f} "
              f"{100 * self_s / total if total else 0.0:6.1f}")
    units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    with open(HERE / "layer_map.json", encoding="utf-8") as f:
        layer_map = json.load(f)
    print("per-layer metrics, with the end-to-end metric each should move:")
    for row in layer_map:
        names = [n for n in metrics if any(fnmatch(n, pat) for pat in row["metrics"])]
        here = row["on"] in (workload_name, "every workload")
        print(f"  [{row['layer']}] should move {row['moves']} on {row['on']}"
              f"{'' if here else '; here: ' + row['elsewhere']}")
        for name in names:
            print(f"    {name:44s} {metrics[name]:14.6g} {units.get(name, '')}")
    print(f"tracing overhead: untraced pass {statistics.median(run.untraced_s):.4f} s, "
          f"traced pass {statistics.median(run.traced_s):.4f} s "
          f"({metrics['trace.overhead_s']:+.4f} s, {metrics['trace.overhead_pct']:+.1f}%)")


def run_all(args) -> int:
    """Each workload in its own fresh process, one after the other."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    code = 0
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)] + (["--smoke"] if args.smoke else [])
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if not lines or not lines[-1].startswith("{"):
            return proc.returncode or 1
        code = max(code, proc.returncode)
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined))
    return code
