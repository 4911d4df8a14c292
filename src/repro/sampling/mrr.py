"""Multi-root reverse reachable (mRR) set generation — distributed.

A random mRR set of the residual graph ``G_i`` is produced by (paper
§3.3): (1) draw the root-set size ``k`` via randomized rounding so that
``E[k] = n_i/η_i``; (2) draw ``k`` roots uniformly *without replacement*
from the still-active nodes; (3) run a stochastic reverse BFS from the
roots — IC flips each in-edge with probability ``p(u, v)`` the first
time it is examined (each edge is examined at most once per set, so the
statuses are consistent, exactly the argument in §3.3); LT lets each
popped node keep its single live in-edge choice.

Single-root RR sets (Borgs et al.) for the baselines are the
``roots="rr"`` mode of the same machinery: ``k = 1``, which gives the
unbiased *untruncated* estimator ``E[I(S)] = n · Pr[R ∩ S ≠ ∅]``.

The distributed path (``sample_sets_pairs``) fans a task DataFrame out
with ``mapInPandas`` over a broadcast CSR payload and returns
``(set_id, node)`` membership rows; ``core/trim.sample_pool`` chooses
the venue and turns either output into one CSR pool.
"""
from typing import Iterator

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql.types import LongType, StructField, StructType

from repro.diffusion.realization import IC, choose_in_edge
from repro.graphs.csr import GraphCSR

PAIRS_SCHEMA = StructType(
    [StructField("set_id", LongType()), StructField("node", LongType())]
)


def sample_root_size(n_i: int, eta_i: int, rng: np.random.Generator) -> int:
    """Randomized-rounded root count with E[k] = n_i/η_i (Thm 3.3).

    k = ⌊n_i/η_i⌋ + 1 with probability frac(n_i/η_i), else ⌊n_i/η_i⌋.
    """
    ratio = n_i / eta_i
    k_low = int(ratio)
    r = ratio - k_low
    k = k_low + 1 if rng.random() < r else k_low
    return max(1, min(k, n_i))


def _reverse_bfs(
    payload: dict,
    active: np.ndarray,
    roots: np.ndarray,
    rng: np.random.Generator,
    model: str,
) -> np.ndarray:
    """One stochastic reverse BFS; returns the visited node ids."""
    rev_indptr = payload["rev_indptr"]
    rev_indices = payload["rev_indices"]
    rev_probs = payload["rev_probs"]
    visited = {int(v) for v in roots}
    frontier = list(visited)
    while frontier:
        nxt = []
        for v in frontier:
            lo, hi = rev_indptr[v], rev_indptr[v + 1]
            if hi == lo:
                continue
            if model == IC:
                coins = rng.random(hi - lo) < rev_probs[lo:hi]
                srcs = rev_indices[lo:hi][coins]
            else:  # LT: the node keeps exactly one live in-edge.
                j = choose_in_edge(rev_probs[lo:hi], rng.random())
                srcs = rev_indices[lo + j : lo + j + 1] if j >= 0 else rev_indices[:0]
            for u in srcs.tolist():
                if active[u] and u not in visited:
                    visited.add(u)
                    nxt.append(u)
        frontier = nxt
    return np.fromiter(visited, dtype=np.int64, count=len(visited))


def _generate_batch(
    payload: dict,
    active: np.ndarray,
    active_idx: np.ndarray,
    eta_i: int,
    model: str,
    roots: str,
    count: int,
    seed: int,
    first_id: int = 0,
) -> list[tuple[int, np.ndarray]]:
    """Generate ``count`` sets locally; list of (set_id, member array)."""
    rng = np.random.default_rng(seed)
    n_i = len(active_idx)
    out = []
    for j in range(count):
        if roots == "mrr":
            k = sample_root_size(n_i, eta_i, rng)
        elif roots == "rr":
            k = 1
        else:
            raise ValueError(f"unknown roots mode {roots!r}")
        root_nodes = active_idx[rng.choice(n_i, size=k, replace=False)]
        members = _reverse_bfs(payload, active, root_nodes, rng, model)
        out.append((first_id + j, members))
    return out


def sample_sets_local(
    g: GraphCSR,
    active: np.ndarray,
    eta_i: int,
    model: str,
    n_sets: int,
    seed: int,
    *,
    roots: str = "mrr",
) -> list[tuple[int, np.ndarray]]:
    """Driver-local generation (tests and tiny rounds)."""
    active_idx = np.nonzero(active)[0]
    return _generate_batch(
        g.payload(), active, active_idx, eta_i, model, roots, n_sets, seed
    )


def sample_sets_pairs(
    spark: SparkSession,
    g: GraphCSR,
    active: np.ndarray,
    eta_i: int,
    model: str,
    n_sets: int,
    seed: int,
    *,
    roots: str = "mrr",
) -> DataFrame:
    """Distributed generation: DataFrame of (set_id, node) membership rows.

    One task row per batch; each executor-side task traverses the
    broadcast CSR payload. Set ids are ``0 .. n_sets − 1``.
    """
    if not active.any():
        raise ValueError("no active nodes to sample roots from")
    batches = max(1, min(n_sets, 2 * spark.sparkContext.defaultParallelism))
    bc = g.broadcast(spark)
    active_bytes = np.packbits(active)
    n = g.n
    sizes = np.full(batches, n_sets // batches, dtype=np.int64)
    sizes[: n_sets % batches] += 1
    sizes = sizes[sizes > 0]
    offsets = np.concatenate([[0], np.cumsum(sizes)[:-1]])
    tasks = pd.DataFrame(
        {
            # Named n_sets (not "count") — itertuples would shadow it with
            # the namedtuple .count method.
            "n_sets": sizes,
            "seed": [seed + 7919 * i for i in range(len(sizes))],
            "first_id": offsets,
        }
    )
    tasks_df = spark.createDataFrame(tasks).repartition(len(sizes))

    def gen(batches_iter: Iterator[pd.DataFrame]) -> Iterator[pd.DataFrame]:
        payload = bc.value
        act = np.unpackbits(active_bytes, count=n).astype(bool)
        act_idx = np.nonzero(act)[0]
        for pdf in batches_iter:
            for row in pdf.itertuples(index=False):
                sets = _generate_batch(
                    payload,
                    act,
                    act_idx,
                    eta_i,
                    model,
                    roots,
                    int(row.n_sets),
                    int(row.seed),
                    int(row.first_id),
                )
                ids = np.concatenate(
                    [np.full(len(m), sid, dtype=np.int64) for sid, m in sets]
                )
                nodes = np.concatenate([m for _, m in sets])
                yield pd.DataFrame({"set_id": ids, "node": nodes})

    return tasks_df.mapInPandas(gen, schema=PAIRS_SCHEMA)
