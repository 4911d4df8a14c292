"""Where splitting a kernel call over threads starts to pay.

Usage, from the root of a checkout:

    python3 benchmarks/worker_crossover.py --out BENCH_workers.json

Times ``kernel.sample_blocks`` on one call at 1 worker and at w = 2 and
w = 4 workers, in ``PAIRS`` interleaved pairs (the order alternating
pair by pair), and records per cell the median of the paired ratios
time(w)/time(1) and the number of pairs w won. Cells are RR calls of
512 … 16,384 sets and mRR calls of 128 … 2,048 sets at η/n 0.01–0.2 on
``nethept_lite`` and ``livejournal_lite`` (IC and LT, every tenth node
inactive), and each records the call's expected roots and its roots
per worker; ``mrr._workers`` is keyed on the call's expected roots: a
ratio below 1 means the split won.
The document, with the commit, host and library versions, is written to
``--out``. Needs at least 4 cores to mean anything, and says nothing of
more than 4 workers.
"""
import argparse
import json
import statistics
import sys
import time
from pathlib import Path

# Importing sampler_throughput also puts this checkout's src/ on sys.path.
from sampler_throughput import commit, host

import numpy as np

from repro.graphs.generator import dataset_csr
from repro.sampling import kernel
from repro.sampling.mrr import BLOCK, substream

DATASETS = ("nethept_lite", "livejournal_lite")
MODELS = ("IC", "LT")
# (roots, n_sets, η/n); RR sets ignore η. The small mRR calls at η/n
# 0.01–0.05 are the root counts of late TRIM rounds.
CELLS = (
    ("rr", 512, None), ("rr", 1024, None), ("rr", 2048, None), ("rr", 4096, None),
    ("rr", 16384, None), ("mrr", 256, 0.2), ("mrr", 512, 0.2), ("mrr", 1024, 0.2),
    ("mrr", 2048, 0.2), ("mrr", 128, 0.05), ("mrr", 256, 0.05), ("mrr", 512, 0.05),
    ("mrr", 128, 0.01), ("mrr", 256, 0.01), ("mrr", 512, 0.01),
)
WORKERS = (2, 4)
PAIRS = 30


def _time(draw, workers: int) -> float:
    t0 = time.perf_counter()
    draw(workers)
    return time.perf_counter() - t0


def measure() -> list[dict]:
    cells = []
    for name in DATASETS:
        g = dataset_csr(name)
        graph = g.kernel_graph()
        active = np.ones(g.n, bool)
        active[::10] = False
        n_i = int(active.sum())
        for model in MODELS:
            for roots, n_sets, eta_frac in CELLS:
                eta_i = max(1, int(eta_frac * g.n)) if eta_frac else 1
                ratio = n_i / eta_i
                root_law = (int(ratio), ratio - int(ratio)) if roots == "mrr" else None
                js = np.arange(-(-n_sets // BLOCK))
                takes = np.minimum(BLOCK, n_sets - BLOCK * js)
                expected = n_sets * (ratio if root_law else 1)

                def draw(workers):
                    return kernel.sample_blocks(substream(7, n_sets), js, takes, BLOCK, graph,
                                                model == "LT", active, root_law, workers)

                for w in WORKERS:
                    draw(1), draw(w)
                    ratios = []
                    for i in range(PAIRS):
                        if i % 2:
                            t_w, t_1 = _time(draw, w), _time(draw, 1)
                        else:
                            t_1, t_w = _time(draw, 1), _time(draw, w)
                        ratios.append(t_w / t_1)
                    cell = {
                        "dataset": name,
                        "model": model,
                        "roots": roots,
                        "n_sets": n_sets,
                        "eta_i": eta_i,
                        "workers": w,
                        "expected_roots": round(expected),
                        "roots_per_worker": round(expected / w),
                        "median_ratio": round(statistics.median(ratios), 3),
                        "split_won": sum(r < 1 for r in ratios),
                    }
                    cells.append(cell)
                    print(f"{name:17s} {model:2s} {roots:3s} sets={n_sets:5d} eta_i={eta_i:4d} "
                          f"w={w} roots/worker={cell['roots_per_worker']:5d} "
                          f"t(w)/t(1)={cell['median_ratio']:.3f} won {cell['split_won']}/{PAIRS}",
                          file=sys.stderr, flush=True)
    return cells


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--out", type=Path, required=True, help="JSON file to write")
    args = p.parse_args(argv)
    doc = {**commit(), "host": host(), "pairs": PAIRS, "cells": measure()}
    args.out.write_text(json.dumps(doc, indent=1) + "\n")


if __name__ == "__main__":
    main()
