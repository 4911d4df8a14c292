"""Venue crossover: driver-local vs Spark time of one ``sample_pool`` call.

Usage, from the root of a checkout:

    python3 benchmarks/venue_crossover.py --out BENCH_venue.json

Each cell (nethept_lite and livejournal_lite; IC; RR sets and mRR sets
at η = 0.1n and η = 0.05n; 4,096 to 65,536 sets; every node active)
calls ``sample_pool`` at a fixed seed on each venue, ``RUNS`` times in
turn, and keeps the median wall time of each. The local venue is
``spark=None``. The Spark venue is a warm ``local[4]`` session with
``mrr.SPARK_MIN_MEMBERS`` set to 0, so every call goes to the executors
(the first block, which the switch draws on the driver, is timed with
it).
Both venues return the same pool, whose size is the cell's ``members``.

A line ``time = a + b·members`` is fitted to each venue's medians by
least squares. ``crossover_members`` is the member count where the two
lines meet; ``mrr.SPARK_MIN_MEMBERS`` is set from it. The document,
with the commit, host and library versions, is written to ``--out``.

The file name lacks the ``bench_`` prefix on purpose: pytest collects
``bench_*.py`` under ``benchmarks/`` as the results regeneration.
"""
import argparse
import json
import os
import statistics
import sys
import tempfile
import time
from pathlib import Path

# Importing sampler_throughput also puts this checkout's src/ on sys.path.
from sampler_throughput import ROOT, commit, host

import numpy as np

import repro.sampling.mrr as mrr
from repro.graphs.generator import dataset_csr

DATASETS = ("nethept_lite", "livejournal_lite")
# (roots, η/n); RR sets ignore η.
MODES = (("rr", None), ("mrr", 0.1), ("mrr", 0.05))
SET_COUNTS = (4096, 16384, 32768, 65536)
SEED = 11
RUNS = 3
THREADS = 4


def start_spark(work: str):
    """A ``local[4]`` session whose Python workers import this checkout."""
    os.environ["PYSPARK_PYTHON"] = sys.executable
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p
    )
    os.environ["PYSPARK_SUBMIT_ARGS"] = (
        f"--master local[{THREADS}] --driver-memory 2g "
        "--conf spark.driver.host=127.0.0.1 pyspark-shell"
    )
    from pyspark.sql import SparkSession

    spark = (
        SparkSession.builder.appName("venue-crossover")
        .config("spark.ui.enabled", "false")
        .config("spark.ui.showConsoleProgress", "false")
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.local.dir", work)
        .config("spark.sql.warehouse.dir", os.path.join(work, "warehouse"))
        .getOrCreate()
    )
    spark.sparkContext.setLogLevel("ERROR")
    return spark


def timed(fn) -> tuple[float, object]:
    t0 = time.perf_counter()
    out = fn()
    return time.perf_counter() - t0, out


def measure(spark) -> list[dict]:
    mrr.SPARK_MIN_MEMBERS = 0
    cells = []
    for name in DATASETS:
        g = dataset_csr(name)
        active = np.ones(g.n, bool)
        # Warm-up: start the Python workers and ship this graph's broadcast.
        mrr.sample_pool(spark, g, active, 1, "IC", mrr.BLOCK, SEED, roots="rr")
        for roots, eta_frac in MODES:
            eta_i = max(1, int(eta_frac * g.n)) if eta_frac else 1
            for n_sets in SET_COUNTS:
                local, remote = [], []
                for _ in range(RUNS):
                    t, pool = timed(lambda: mrr.sample_pool(
                        None, g, active, eta_i, "IC", n_sets, SEED, roots=roots))
                    local.append(t)
                    t, spark_pool = timed(lambda: mrr.sample_pool(
                        spark, g, active, eta_i, "IC", n_sets, SEED, roots=roots))
                    remote.append(t)
                    assert all(np.array_equal(a, b) for a, b in zip(pool, spark_pool))
                cell = {
                    "dataset": name,
                    "model": "IC",
                    "roots": roots,
                    "eta_i": eta_i,
                    "n_sets": n_sets,
                    "members": int(pool[0][-1]),
                    "local_runs_s": [round(t, 4) for t in local],
                    "spark_runs_s": [round(t, 4) for t in remote],
                    "local_s": round(statistics.median(local), 4),
                    "spark_s": round(statistics.median(remote), 4),
                }
                cells.append(cell)
                print(f"{name:17s} {roots:3s} eta_i={eta_i:4d} sets={n_sets:6d} "
                      f"members={cell['members']:9d} local {cell['local_s']:7.3f} s "
                      f"spark {cell['spark_s']:7.3f} s", file=sys.stderr)
    return cells


def fit(cells: list[dict]) -> dict:
    """Per-venue least-squares lines over members, and where they meet."""
    x = np.array([c["members"] for c in cells], dtype=float)
    lines = {}
    for venue in ("local", "spark"):
        slope, intercept = np.polyfit(x, [c[f"{venue}_s"] for c in cells], 1)
        lines[venue] = {"intercept_s": float(intercept), "s_per_member": float(slope)}
    gain = lines["local"]["s_per_member"] - lines["spark"]["s_per_member"]
    gap = lines["spark"]["intercept_s"] - lines["local"]["intercept_s"]
    return {"lines": lines, "crossover_members": int(gap / gain) if gain > 0 else None}


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--out", type=Path, required=True, help="JSON file to write")
    args = p.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="venue-crossover-") as work:
        spark = start_spark(work)
        try:
            doc = {**commit(), "host": host(), "threads": THREADS, "runs": RUNS,
                   "cells": measure(spark)}
        finally:
            spark.stop()
    doc.update(fit(doc["cells"]))
    print(f"crossover near {doc['crossover_members']} members", file=sys.stderr)
    args.out.write_text(json.dumps(doc, indent=1) + "\n")


if __name__ == "__main__":
    main()
