"""Run one experiment cell: (dataset, model, algorithm, threshold).

Protocol mirrors the paper §6: for each dataset we pre-sample R
ground-truth realizations (shared across algorithms — the realization
seed depends only on (dataset, model, index)), run the algorithm on
each, and report per-realization seed counts, achieved spread, and wall
time. Non-adaptive ATEUC selects once per cell and is evaluated on
every realization, which is exactly how the paper's N/A entries arise.
"""
import time
import zlib
from dataclasses import dataclass
from functools import partial

from repro.baselines.adaptim import adaptim
from repro.baselines.ateuc import ateuc
from repro.core.asti import asti
from repro.diffusion.propagate import spread_local
from repro.diffusion.realization import sample_realization
from repro.graphs.csr import GraphCSR
from repro.sampling.mrr import substream

ADAPTIVE_ALGOS = ("asti", "asti-2", "asti-4", "asti-8", "adaptim")
ALGOS = ADAPTIVE_ALGOS + ("ateuc",)


def realization_seed(dataset: str, model: str, index: int) -> int:
    """Stable per-(dataset, model, index) seed shared by all algorithms."""
    return zlib.crc32(f"{dataset}|{model}|{index}".encode()) & 0x7FFFFFFF


@dataclass
class RunRecord:
    """One algorithm run on one realization."""

    dataset: str
    model: str
    algo: str
    eta_frac: float
    eta: int
    realization: int
    n_seeds: int
    spread: int
    time_s: float
    meets_threshold: bool


def run_cell(
    dataset: str,
    model: str,
    algo: str,
    eta_frac: float,
    *,
    n_realizations: int = 3,
    g: GraphCSR,
) -> list[RunRecord]:
    """All per-realization records for one experiment cell on graph ``g``.

    Every algorithm runs with ε = 0.5 and algorithm seed 0. The run on
    realization r draws from ``substream(0, r)``, its sets from the paths
    (r, round, block); ATEUC at threshold η draws from ``substream(0, η)``,
    its sets from the paths (η, block), so each threshold reads its own
    stream and none shares a path with an adaptive run.
    """
    if algo not in ALGOS:
        raise ValueError(f"unknown algo {algo!r}; expected one of {ALGOS}")
    eta = max(1, int(round(eta_frac * g.n)))
    reals = [
        sample_realization(g, model, realization_seed(dataset, model, r))
        for r in range(n_realizations)
    ]

    def record(r: int, n_seeds: int, spread: int, time_s: float) -> RunRecord:
        return RunRecord(
            dataset=dataset,
            model=model,
            algo=algo,
            eta_frac=eta_frac,
            eta=eta,
            realization=r,
            n_seeds=n_seeds,
            spread=spread,
            time_s=time_s,
            meets_threshold=spread >= eta,
        )

    if algo == "ateuc":
        t0 = time.perf_counter()
        sel = ateuc(None, g, eta, model, seed=substream(0, eta))
        select_time = time.perf_counter() - t0
        return [
            record(r, sel.n_seeds, len(spread_local(real, sel.seeds)), select_time)
            for r, real in enumerate(reals)
        ]
    b = int(algo.split("-")[1]) if algo.startswith("asti-") else 1
    policy = adaptim if algo == "adaptim" else partial(asti, b=b)
    records = []
    for r, real in enumerate(reals):
        t0 = time.perf_counter()
        res = policy(None, g, eta, model, 0, seed=substream(0, r), realization=real)
        records.append(record(r, res.n_seeds, res.spread, time.perf_counter() - t0))
    return records


def eta_fracs(dataset: str) -> list[float]:
    """The paper's threshold grid: large-η, except small-η for LiveJournal."""
    if dataset.startswith("livejournal"):
        return [0.01, 0.02, 0.03, 0.04, 0.05]
    return [0.01, 0.05, 0.1, 0.15, 0.2]
