"""Sampler throughput: sets per second of ``sample_pool(...)``.

Usage, from the root of a checkout:

    python3 benchmarks/sampler_throughput.py --label change --out BENCH_sampler.json

Calls ``repro.sampling.mrr.sample_pool`` with the graph first. On
commits where ``sample_pool`` still took a leading ``spark`` argument
(``None`` for the driver) this script does not run; time such a commit
with its own copy of the script. Each of the 12 cells
(nethept_lite and livejournal_lite; IC and LT; mRR at η = 0.2n and
η = 0.02n, and RR) draws 8192 sets with every tenth node inactive, at a
fixed seed, ``RUNS`` times after one untimed warm-up call. The median
wall time gives sets/s; each cell also records the interquartile range
of its runs, so two entries can be told apart from the spread of one.
On a 4-core host the median of 3 runs moved up to 1.26× between
back-to-back entries of unchanged code, hence 9 runs. The entry, with
the commit, host and library versions, is appended to the ``entries``
list of ``--out``.

The file name lacks the ``bench_`` prefix on purpose: pytest collects
``bench_*.py`` under ``benchmarks/`` as the results regeneration.
"""
import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from repro.graphs.generator import dataset_csr  # noqa: E402
from repro.sampling.mrr import sample_pool  # noqa: E402

DATASETS = ("nethept_lite", "livejournal_lite")
MODELS = ("IC", "LT")
# (roots, η/n); RR sets ignore η.
MODES = (("mrr", 0.2), ("mrr", 0.02), ("rr", None))
N_SETS = 8192
SEED = 7
RUNS = 9


def commit() -> dict:
    """HEAD of this checkout, and whether the working tree differs from it."""
    def git(*args):
        out = subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True, text=True)
        return out.stdout.strip() if out.returncode == 0 else None

    status = git("status", "--porcelain", "--untracked-files=no")
    return {"sha": git("rev-parse", "HEAD"), "dirty": bool(status) if status is not None else None}


def host() -> dict:
    import pandas
    import pyspark

    return {
        "machine": platform.machine(),
        "cpus": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "pandas": pandas.__version__,
        "pyspark": pyspark.__version__,
    }


def measure() -> list[dict]:
    cells = []
    for name in DATASETS:
        g = dataset_csr(name)
        active = np.ones(g.n, bool)
        active[::10] = False
        for model in MODELS:
            for roots, eta_frac in MODES:
                eta_i = max(1, int(eta_frac * g.n)) if eta_frac else 1
                sample_pool(g, active, eta_i, model, 256, SEED, roots=roots)
                times = []
                for _ in range(RUNS):
                    t0 = time.perf_counter()
                    indptr, _ = sample_pool(g, active, eta_i, model, N_SETS, SEED, roots=roots)
                    times.append(time.perf_counter() - t0)
                med = statistics.median(times)
                q1, _, q3 = statistics.quantiles(times, n=4)
                cells.append({
                    "dataset": name,
                    "model": model,
                    "roots": roots,
                    "eta_i": eta_i,
                    "n_sets": N_SETS,
                    "runs_s": [round(t, 4) for t in times],
                    "median_s": round(med, 4),
                    "iqr_s": [round(q1, 4), round(q3, 4)],
                    "sets_per_s": round(N_SETS / med, 1),
                    "mean_size": round(float(indptr[-1]) / N_SETS, 3),
                })
                print(f"{name:17s} {model} {roots:3s} eta_i={eta_i:4d} "
                      f"{med:8.4f} s [{q1:.4f}–{q3:.4f}]  {N_SETS / med:10.1f} sets/s",
                      file=sys.stderr)
    return cells


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--label", required=True, help="name of this entry, e.g. parent or change")
    p.add_argument("--out", type=Path, required=True, help="JSON file to append the entry to")
    args = p.parse_args(argv)
    entry = {"label": args.label, **commit(), "host": host(), "runs": RUNS, "cells": measure()}
    doc = json.loads(args.out.read_text()) if args.out.exists() else {"entries": []}
    doc["entries"].append(entry)
    args.out.write_text(json.dumps(doc, indent=1) + "\n")


if __name__ == "__main__":
    main()
