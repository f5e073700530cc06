"""Run one evpose benchmark workload and print its metrics.

    python3 perfbench/run.py --workload {ingest,train,infer,all} --seed N \
        --seconds S --trace {0,1} [--smoke]

Each workload runs in a fresh process with BLAS/OpenMP threads pinned to 1.
It sets up its inputs from the seed (several times; ``setup_s`` is the
median), then repeats timed passes until ``--seconds`` have elapsed, checks
the outputs and prints a human-readable report followed by one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the ``end_to_end`` ones of BENCHMARK.json;
with ``--trace 1`` the run alternates untraced and traced passes and reports
the ``per_layer`` ones, including the tracing overhead, and writes its spans
to ``.perfbench/``. ``--workload all`` runs the three workloads one after the
other, each in its own process. ``--smoke`` shrinks every input (toy model,
8x8 sensor) so the benchmark's own tests finish in seconds. The exit code is
0 when every output check passes, 1 when one fails, 2 on a usage error or
when the evpose sources are not next to this directory.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")


def use_checkout_sources() -> bool:
    """Import evpose from this checkout's ``src/`` and nowhere else."""
    src = ROOT / "src"
    if not (src / "evpose" / "__init__.py").is_file():
        print(f"perfbench: evpose sources not found under {src}", file=sys.stderr)
        return False
    sys.path.insert(0, str(src))
    return True


if __name__ == "__main__":
    for var in THREAD_VARS:  # before numpy loads its BLAS
        os.environ[var] = "1"
    if not use_checkout_sources():
        sys.exit(2)
    from bench import main

    sys.exit(main(sys.argv[1:]))
