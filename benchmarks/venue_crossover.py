"""Venue crossover: a ``sample_pool`` call vs the same pool from Spark.

Usage, from the root of a checkout:

    python3 benchmarks/venue_crossover.py --out BENCH_venue.json

Each cell (nethept_lite and livejournal_lite; IC; RR sets and mRR sets
at η = 0.1n and η = 0.05n; 4,096 to 65,536 sets; plus ``LARGE_CELLS``,
livejournal_lite mRR sets at η = 200 and η = 100 with 131,072 and
262,144 sets, up to ~25M members; every node active) draws one pool at a
fixed seed on each venue, ``RUNS`` times in turn, and keeps the median
wall time of each. The driver venue is ``sample_pool``. The Spark venue
is ``sample_sets_pairs(...).toPandas()`` on a warm ``local[4]`` session
plus ``collect_pool``, its conversion to the same CSR pool (a stable
sort by set id, a ``bincount`` of the set sizes). Both venues return the
same pool, whose size is the cell's ``members``.

A line ``time = a + b·members`` is fitted to each venue's medians by
least squares; ``crossover_members`` is the member count where the two
lines meet (``None`` if they do not), and ``spark_wins`` counts the
cells whose Spark median beat the driver's. The document, with the
commit, host and library versions, is written to ``--out``.

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
# (dataset, roots, η/n, n_sets): calls past 11M members, where lines
# fitted to the cells above alone once met.
LARGE_CELLS = tuple(
    ("livejournal_lite", "mrr", eta_frac, n_sets)
    for eta_frac in (0.05, 0.025)
    for n_sets in (131072, 262144)
)
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


def collect_pool(spark, g, active, eta_i, model, n_sets, seed, *, roots):
    """``sample_pool``'s pool drawn on Spark: the membership rows
    collected, stably sorted by set id, and the set sizes counted."""
    pairs = mrr.sample_sets_pairs(spark, g, active, eta_i, model, n_sets, seed, roots=roots).toPandas()
    set_ids = pairs["set_id"].to_numpy(np.int64)
    order = np.argsort(set_ids, kind="stable")
    members = pairs["node"].to_numpy(np.int64)[order]
    indptr = np.zeros(n_sets + 1, dtype=np.int64)
    np.cumsum(np.bincount(set_ids, minlength=n_sets), out=indptr[1:])
    return indptr, members


def measure(spark) -> list[dict]:
    grid = [
        (name, roots, eta_frac, n_sets)
        for name in DATASETS for roots, eta_frac in MODES for n_sets in SET_COUNTS
    ] + list(LARGE_CELLS)
    cells = []
    graphs = {}
    for name, roots, eta_frac, n_sets in grid:
        g = graphs.get(name)
        if g is None:
            g = graphs[name] = dataset_csr(name)
            # Warm-up: start the Python workers and ship this graph's broadcast.
            collect_pool(spark, g, np.ones(g.n, bool), 1, "IC", mrr.BLOCK, SEED, roots="rr")
        active = np.ones(g.n, bool)
        eta_i = max(1, int(eta_frac * g.n)) if eta_frac else 1
        local, remote = [], []
        for _ in range(RUNS):
            t, pool = timed(lambda: mrr.sample_pool(g, active, eta_i, "IC", n_sets, SEED, roots=roots))
            local.append(t)
            t, spark_pool = timed(lambda: collect_pool(
                spark, g, active, eta_i, "IC", n_sets, SEED, roots=roots))
            remote.append(t)
            assert all(np.array_equal(a, b) for a, b in zip(pool, spark_pool))
            del spark_pool
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
        del pool
        cells.append(cell)
        print(f"{name:17s} {roots:3s} eta_i={eta_i:4d} sets={n_sets:6d} "
              f"members={cell['members']:9d} local {cell['local_s']:7.3f} s "
              f"spark {cell['spark_s']:7.3f} s", file=sys.stderr)
    return cells


def fit(cells: list[dict]) -> dict:
    """Per-venue least-squares lines over members, where they meet, and
    the cells Spark won. Fewer than two distinct member counts fit no
    line."""
    x = np.array([c["members"] for c in cells], dtype=float)
    wins = sum(c["spark_s"] < c["local_s"] for c in cells)
    if len(set(x)) < 2:
        return {"lines": None, "crossover_members": None, "spark_wins": wins}
    lines = {}
    for venue in ("local", "spark"):
        slope, intercept = np.polyfit(x, [c[f"{venue}_s"] for c in cells], 1)
        lines[venue] = {"intercept_s": float(intercept), "s_per_member": float(slope)}
    gain = lines["local"]["s_per_member"] - lines["spark"]["s_per_member"]
    gap = lines["spark"]["intercept_s"] - lines["local"]["intercept_s"]
    crossover = int(gap / gain) if gain > 0 else None
    return {"lines": lines, "crossover_members": crossover, "spark_wins": wins}


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
    print(f"Spark won {doc['spark_wins']} of {len(doc['cells'])} cells; "
          f"lines meet near {doc['crossover_members']} members", file=sys.stderr)
    args.out.write_text(json.dumps(doc, indent=1) + "\n")


if __name__ == "__main__":
    main()
