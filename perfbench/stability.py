"""Run-to-run spread and set-to-set agreement of the end-to-end metrics.

    python3 perfbench/stability.py [--first-seed 100] [--out results.json]

Runs two sets of ten ``perfbench/run.py --trace 0`` runs on every workload of
BENCHMARK.json, at its ``run_seconds``, one fresh process at a time: the
first set on seeds ``first-seed .. first-seed + 9``, the second on the next
ten. For every end-to-end metric and set it prints the median, the quartiles
from ``statistics.quantiles(values, n=4)`` and their distance as a share of
the median; then how far the second set's median moved from the first's, in
the metric's worse direction. The benchmark is steady when every spread is
within a third of the metric's bound and no median moved for the worse by
more than the bound; the exit code is 0 then, else 1.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
RUNS = 10  # runs per set and workload


def run_once(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines or not lines[-1].startswith("{"):
        print(proc.stdout, proc.stderr, sep="\n", file=sys.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        raise SystemExit(f"{workload} seed {seed}: correct={result['correct']} failed={result['failed']}")
    result["env"] = next((json.loads(line[5:]) for line in lines if line.startswith("env: ")), None)
    return result


def run_set(spec: dict, seeds: list[int], record: dict) -> dict:
    """Every workload on every seed; returns {workload: {metric: row}} and prints the rows."""
    rows: dict[str, dict] = {}
    for workload in (w["name"] for w in spec["workloads"]):
        values: dict[str, list[float]] = {m["name"]: [] for m in spec["end_to_end"]}
        for seed in seeds:
            result = run_once(workload, seed, spec["run_seconds"])
            record["env"] = result["env"]
            for name in values:
                values[name].append(result["metrics"][name]["value"])
            print(f"{workload} seed {seed}: " + " ".join(f"{n}={v[-1]:.6g}" for n, v in values.items()),
                  flush=True)
        rows[workload] = {}
        for m in spec["end_to_end"]:
            vals = values[m["name"]]
            q1, median, q3 = statistics.quantiles(vals, n=4)
            rows[workload][m["name"]] = {"median": median, "q1": q1, "q3": q3,
                                         "spread": (q3 - q1) / median, "values": vals}
    return rows


def main(argv=None) -> int:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--first-seed", type=int, default=100)
    p.add_argument("--out", type=Path, help="also write the values, spreads and shifts here as JSON")
    args = p.parse_args(argv)

    record: dict = {"run_seconds": spec["run_seconds"], "env": None, "sets": [], "shifts": {}}
    for first in (args.first_seed, args.first_seed + RUNS):
        seeds = list(range(first, first + RUNS))
        record["sets"].append({"seeds": seeds, "workloads": run_set(spec, seeds, record)})

    steady = True
    for workload in (w["name"] for w in spec["workloads"]):
        record["shifts"][workload] = {}
        for m in spec["end_to_end"]:
            a, b = (s["workloads"][workload][m["name"]] for s in record["sets"])
            sign = 1 if m["better"] == "lower" else -1
            worse = sign * (b["median"] - a["median"]) / a["median"]  # > 0: the second set is worse
            ok = max(a["spread"], b["spread"]) <= m["bound"] / 3 and worse <= m["bound"]
            steady &= ok
            record["shifts"][workload][m["name"]] = worse
            print(f"  {workload:7s} {m['name']:18s} median {a['median']:12.6g} -> {b['median']:12.6g} "
                  f"{m['unit']:6s} spread {a['spread']:.4f} / {b['spread']:.4f} (1/3 bound {m['bound'] / 3:.4f}) "
                  f"worse by {worse:+.4f} (bound {m['bound']:.3f}) {'ok' if ok else 'UNSTEADY'}", flush=True)
    if args.out:
        args.out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print("steady" if steady else "NOT steady: a spread exceeds a third of its bound or a median moved by more "
          "than its bound")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
