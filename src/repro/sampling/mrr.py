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

Sets are drawn in blocks of ``BLOCK`` ids; block ``j`` is seeded by the
stream ``substream(seed, j)`` alone, so set ``i`` is the same whether
the driver (``sample_sets_local``) or a Spark task (``sample_sets_pairs``,
one ``mapInPandas`` row per block over a broadcast reverse CSR) draws
it. ``core/trim.sample_pool`` chooses the venue and turns either output
into one CSR pool. ``substream`` is the one seed-derivation rule: every
caller appends its own key (run, round, iteration, block) to the path.
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

# Sets are sampled in blocks of this many ids; block j is seeded by
# (seed, j) alone, so the sets never depend on the venue or partitioning.
BLOCK = 256

Seed = int | np.random.SeedSequence


def substream(seed: Seed, *key: int) -> np.random.SeedSequence:
    """The independent stream at path ``key`` below ``seed``."""
    if isinstance(seed, np.random.SeedSequence):
        return np.random.SeedSequence(seed.entropy, spawn_key=seed.spawn_key + key)
    return np.random.SeedSequence(seed, spawn_key=key)


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


def _sample_block(
    payload: dict,
    active: np.ndarray,
    eta_i: int,
    model: str,
    roots: str,
    n_sets: int,
    seed: Seed,
    j: int,
) -> list[tuple[int, np.ndarray]]:
    """Block ``j`` of ``n_sets`` sets: ids ``j·BLOCK …`` (below ``n_sets``),
    drawn from the stream ``(seed, j)`` only; list of (set_id, members)."""
    if roots not in ("mrr", "rr"):
        raise ValueError(f"unknown roots mode {roots!r}")
    rng = np.random.default_rng(substream(seed, j))
    active_idx = np.nonzero(active)[0]
    n_i = len(active_idx)
    out = []
    for set_id in range(j * BLOCK, min((j + 1) * BLOCK, n_sets)):
        k = sample_root_size(n_i, eta_i, rng) if roots == "mrr" else 1
        root_nodes = active_idx[rng.choice(n_i, size=k, replace=False)]
        out.append((set_id, _reverse_bfs(payload, active, root_nodes, rng, model)))
    return out


def sample_sets_local(
    g: GraphCSR,
    active: np.ndarray,
    eta_i: int,
    model: str,
    n_sets: int,
    seed: Seed,
    *,
    roots: str = "mrr",
) -> list[tuple[int, np.ndarray]]:
    """Sets ``0 .. n_sets − 1`` sampled on the driver, block by block."""
    payload = g.payload()
    return [
        s
        for j in range(-(-n_sets // BLOCK))
        for s in _sample_block(payload, active, eta_i, model, roots, n_sets, seed, j)
    ]


def sample_sets_pairs(
    spark: SparkSession,
    g: GraphCSR,
    active: np.ndarray,
    eta_i: int,
    model: str,
    n_sets: int,
    seed: Seed,
    *,
    roots: str = "mrr",
) -> DataFrame:
    """Distributed generation: DataFrame of (set_id, node) membership rows.

    One task row per block, in contiguous ranges over
    ``min(n_blocks, 2·defaultParallelism)`` partitions; each task
    traverses the broadcast CSR payload. Set ids are ``0 .. n_sets − 1``
    and every set equals ``sample_sets_local``'s at the same seed,
    whatever the partitioning.
    """
    if not active.any():
        raise ValueError("no active nodes to sample roots from")
    n_blocks = -(-n_sets // BLOCK)
    bc = g.broadcast(spark)
    active_bytes = np.packbits(active)
    n = g.n
    parts = min(n_blocks, 2 * spark.sparkContext.defaultParallelism)
    tasks_df = spark.range(0, n_blocks, 1, parts).toDF("block")

    def gen(blocks: Iterator[pd.DataFrame]) -> Iterator[pd.DataFrame]:
        payload = bc.value
        act = np.unpackbits(active_bytes, count=n).astype(bool)
        for pdf in blocks:
            ids, members = zip(
                *(
                    s
                    for j in pdf["block"].tolist()
                    for s in _sample_block(payload, act, eta_i, model, roots, n_sets, seed, j)
                )
            )
            sizes = [len(m) for m in members]
            yield pd.DataFrame(
                {"set_id": np.repeat(ids, sizes), "node": np.concatenate(members)}
            )

    return tasks_df.mapInPandas(gen, schema=PAIRS_SCHEMA)
