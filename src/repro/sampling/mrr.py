"""Multi-root reverse reachable (mRR) set generation — distributed.

A random mRR set of the residual graph ``G_i`` is produced by (paper
§3.3): (1) draw the root-set size ``k`` via randomized rounding so that
``E[k] = n_i/η_i``; (2) draw ``k`` roots uniformly *without replacement*
from the still-active nodes; (3) run a stochastic reverse BFS from the
roots — IC flips each in-edge with probability ``p(u, v)`` the first
time it is examined (each edge is examined at most once per set, so the
statuses are consistent, exactly the argument in §3.3); LT lets each
popped node keep at most one live in-edge, found by one uniform draw
searched in its running in-weight sums (``GraphCSR.rev_cum``).

Single-root RR sets (Borgs et al.) for the baselines are the
``roots="rr"`` mode of the same machinery: ``k = 1``, which gives the
unbiased *untruncated* estimator ``E[I(S)] = n · Pr[R ∩ S ≠ ∅]``.

``sample_pool``, the one sampler entry point, checks its inputs on the
driver, chooses the venue and returns one CSR pool ``(indptr, members)``.
Sets are drawn in blocks of ``BLOCK`` ids, each a CSR ``(sizes,
members)`` seeded by the stream ``substream(seed, j)`` alone, so set
``i`` is the same whether the driver or a Spark task
(``sample_sets_pairs``, one ``mapInPandas`` row per block over a
broadcast reverse CSR) draws it. ``substream`` is the one
seed-derivation rule: every caller appends its own key (run, round,
iteration, block) to the path.
"""
from typing import Iterator

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql.types import LongType, StructField, StructType

from repro.diffusion.realization import IC, LT, check_lt
from repro.graphs.csr import GraphCSR

PAIRS_SCHEMA = StructType(
    [StructField("set_id", LongType()), StructField("node", LongType())]
)

# Sets are sampled in blocks of this many ids; block j is seeded by
# (seed, j) alone, so the sets never depend on the venue or partitioning.
BLOCK = 256

# Below this many sets, executor fan-out costs more than it saves
# (measured ~0.4 s/job overhead vs milliseconds of local sampling at
# lite scale); the schedule still matches the paper, only the execution
# venue changes.
SPARK_MIN_SETS = 4096

Pool = tuple[np.ndarray, np.ndarray]
EMPTY_POOL: Pool = (np.zeros(1, dtype=np.int64), np.zeros(0, dtype=np.int64))

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
    rev_cum = payload["rev_cum"]
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
            else:  # LT: the node keeps at most one live in-edge.
                j = np.searchsorted(rev_cum[lo:hi], rng.random(), side="right")
                srcs = rev_indices[lo + j : hi][:1]
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
) -> Pool:
    """Block ``j`` of ``n_sets`` sets: ids ``j·BLOCK …`` (below ``n_sets``),
    drawn from the stream ``(seed, j)`` only, as CSR ``(sizes, members)``."""
    rng = np.random.default_rng(substream(seed, j))
    active_idx = np.nonzero(active)[0]
    n_i = len(active_idx)
    sets = []
    for _ in range(min(BLOCK, n_sets - j * BLOCK)):
        k = sample_root_size(n_i, eta_i, rng) if roots == "mrr" else 1
        root_nodes = active_idx[rng.choice(n_i, size=k, replace=False)]
        sets.append(_reverse_bfs(payload, active, root_nodes, rng, model))
    return np.array([len(m) for m in sets], dtype=np.int64), np.concatenate(sets)


def _check_inputs(g: GraphCSR, active: np.ndarray, model: str, roots: str) -> None:
    """An unknown ``roots``, an all-false ``active`` or LT in-weights
    above 1 raise ``ValueError`` on the driver."""
    if roots not in ("mrr", "rr"):
        raise ValueError(f"unknown roots mode {roots!r}")
    if not active.any():
        raise ValueError("no active nodes to sample roots from")
    if model == LT:
        check_lt(g)


def sample_pool(
    spark: SparkSession | None,
    g: GraphCSR,
    active: np.ndarray,
    eta_i: int,
    model: str,
    n_sets: int,
    seed: Seed,
    *,
    roots: str,
) -> Pool:
    """``n_sets`` fresh sets as a CSR pool ``(indptr, members)``.

    Set j's members are ``members[indptr[j]:indptr[j + 1]]``. Without
    Spark (``spark=None``), or below ``SPARK_MIN_SETS``, the driver
    samples the blocks and concatenates them; otherwise Spark executors
    sample them and the membership rows are collected and stably sorted
    by set id. The pool depends only on the arguments, not on the venue.
    Bad input raises ``ValueError`` before any set is drawn.
    """
    if spark is None or n_sets < SPARK_MIN_SETS:
        _check_inputs(g, active, model, roots)
        payload = g.payload()
        blocks = [
            _sample_block(payload, active, eta_i, model, roots, n_sets, seed, j)
            for j in range(-(-n_sets // BLOCK))
        ]
        sizes = np.concatenate([s for s, _ in blocks] + [EMPTY_POOL[1]])
        members = np.concatenate([m for _, m in blocks] + [EMPTY_POOL[1]])
    else:
        pairs = sample_sets_pairs(
            spark, g, active, eta_i, model, n_sets, seed, roots=roots
        ).toPandas()
        set_ids = pairs["set_id"].to_numpy(np.int64)
        order = np.argsort(set_ids, kind="stable")
        members = pairs["node"].to_numpy(np.int64)[order]
        sizes = np.bincount(set_ids, minlength=n_sets)
    indptr = np.zeros(n_sets + 1, dtype=np.int64)
    np.cumsum(sizes, out=indptr[1:])
    return indptr, members


def extend_pool(pool: Pool, more: Pool) -> Pool:
    """The CSR pool holding ``pool``'s sets followed by ``more``'s."""
    indptr, members = pool
    return (
        np.concatenate([indptr, more[0][1:] + indptr[-1]]),
        np.concatenate([members, more[1]]),
    )


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
    """The Spark venue: DataFrame of (set_id, node) membership rows.

    One task row per block, in contiguous ranges over
    ``min(n_blocks, 2·defaultParallelism)`` partitions; each task
    traverses the broadcast CSR payload and explodes its block CSRs into
    rows. Set ids are ``0 .. n_sets − 1`` and every set equals the local
    venue's at the same seed, whatever the partitioning. Inputs are
    checked on the driver, as in ``sample_pool``.
    """
    _check_inputs(g, active, model, roots)
    n_blocks = -(-n_sets // BLOCK)
    bc = g.broadcast(spark)
    active_bytes = np.packbits(active)
    n = g.n
    parts = min(n_blocks, 2 * spark.sparkContext.defaultParallelism)
    tasks_df = spark.range(0, n_blocks, 1, parts).toDF("block")

    def gen(batches: Iterator[pd.DataFrame]) -> Iterator[pd.DataFrame]:
        payload = bc.value
        act = np.unpackbits(active_bytes, count=n).astype(bool)
        for pdf in batches:
            js = pdf["block"].tolist()
            sizes, members = zip(
                *(_sample_block(payload, act, eta_i, model, roots, n_sets, seed, j) for j in js)
            )
            ids = np.concatenate([j * BLOCK + np.arange(len(s)) for j, s in zip(js, sizes)])
            yield pd.DataFrame(
                {"set_id": np.repeat(ids, np.concatenate(sizes)), "node": np.concatenate(members)}
            )

    return tasks_df.mapInPandas(gen, schema=PAIRS_SCHEMA)
