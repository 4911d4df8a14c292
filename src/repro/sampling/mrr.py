"""Multi-root reverse reachable (mRR) set generation — distributed.

A random mRR set of the residual graph ``G_i`` is produced by (paper
§3.3): (1) draw the root-set size ``k`` via randomized rounding so that
``E[k] = n_i/η_i``; (2) draw ``k`` roots uniformly *without replacement*
from the still-active nodes; (3) run a stochastic reverse BFS from the
roots — IC flips each in-edge with probability ``p(u, v)`` the first
time it is examined (each edge is examined at most once per set, so the
statuses are consistent, exactly the argument in §3.3); LT lets each
popped node keep at most one live in-edge, picked from one uniform draw
by ``realization.lt_pick``, the rule forward realizations use.

Single-root RR sets (Borgs et al.) for the baselines are the
``roots="rr"`` mode of the same machinery: ``k = 1``, which gives the
unbiased *untruncated* estimator ``E[I(S)] = n · Pr[R ∩ S ≠ ∅]``.

``sample_pool``, the one sampler entry point, checks its inputs on the
driver, chooses the venue from the members of a pilot block and returns
one CSR pool ``(indptr, members)``.
Sets are drawn in blocks of ``BLOCK`` ids, each a CSR ``(sizes,
members)`` seeded by the stream ``substream(seed, j)`` alone. One
vectorized kernel draws a whole block: all root counts and roots at
once, then one reverse BFS that advances every set's frontier together
as flat keys ``s·n + v``. Set ``i`` is the same whether the driver or a
Spark task (``sample_sets_pairs``, one ``mapInPandas`` row per block
over a broadcast reverse CSR) draws it. ``substream`` is the one
seed-derivation rule: every caller appends its own key (run, round,
iteration, block) to the path.
"""
from functools import partial
from typing import Iterator

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql.types import LongType, StructField, StructType

from repro.diffusion.realization import IC, LT, check_lt, lt_pick
from repro.graphs.csr import GraphCSR, row_slots

PAIRS_SCHEMA = StructType(
    [StructField("set_id", LongType()), StructField("node", LongType())]
)

# Sets are sampled in blocks of this many ids; block j is seeded by
# (seed, j) alone, so the sets never depend on the venue or partitioning.
BLOCK = 256

# A BFS step expands its frontier this many (set, node) keys at a time,
# which bounds the step's temporaries; the sets do not depend on it.
CHUNK = 1 << 13

# Below this many estimated members per call, executor fan-out costs
# more than it saves. BENCH_venue.json (benchmarks/venue_crossover.py;
# 4 cores, warm local[4], IC, RR and mRR, 4,096–65,536 lite sets) fits
# local ≈ 0.04 s + 0.64 µs/member and Spark ≈ 0.85 s + 0.22 µs/member:
# the lines meet near 1.96M members, rounded here to 2M. Only the
# execution venue changes, never the sets.
SPARK_MIN_MEMBERS = 2_000_000

Pool = tuple[np.ndarray, np.ndarray]
EMPTY_POOL: Pool = (np.zeros(1, dtype=np.int64), np.zeros(0, dtype=np.int64))

Seed = int | np.random.SeedSequence


def substream(seed: Seed, *key: int) -> np.random.SeedSequence:
    """The independent stream at path ``key`` below ``seed``."""
    if isinstance(seed, np.random.SeedSequence):
        return np.random.SeedSequence(seed.entropy, spawn_key=seed.spawn_key + key)
    return np.random.SeedSequence(seed, spawn_key=key)


def sample_root_size(
    n_i: int, eta_i: int, rng: np.random.Generator, size: int | None = None
):
    """Randomized-rounded root counts with E[k] = n_i/η_i (Thm 3.3).

    k = ⌊n_i/η_i⌋ + 1 with probability frac(n_i/η_i), else ⌊n_i/η_i⌋,
    clipped to [1, n_i]: one count for ``size=None``, else an array of
    ``size`` counts from one vectorized draw.
    """
    ratio = n_i / eta_i
    k_low = int(ratio)
    return np.clip(k_low + (rng.random(size) < ratio - k_low), 1, n_i)


def _draw_roots(
    active_idx: np.ndarray,
    k: np.ndarray,
    n: int,
    visited: np.ndarray,
    rng: np.random.Generator,
) -> np.ndarray:
    """Keys ``s·n + v`` of every set's roots, marked in ``visited``: set
    s gets a uniform ``k[s]``-subset of ``active_idx``.

    Each round draws, for every set not yet full, as many uniform nodes
    as it lacks and keeps the distinct new ones (the first k distinct
    values of an i.i.d. sequence are a uniform k-subset). A set with
    k > n_i/2 draws the n_i − k nodes it leaves out that way instead.
    """
    n_i = len(active_idx)
    left_out = k > n_i / 2
    need = np.where(left_out, n_i - k, k)
    drawn = [EMPTY_POOL[1]]
    while need.any():
        owner = np.repeat(np.arange(len(k)), need)
        keys = np.unique(owner * n + active_idx[rng.integers(n_i, size=len(owner))])
        keys = keys[~visited[keys]]
        visited[keys] = True
        need -= np.bincount(keys // n, minlength=len(k))
        drawn.append(keys)
    keys = np.concatenate(drawn)
    if not left_out.any():
        return keys
    out = left_out[keys // n]
    rest = (np.nonzero(left_out)[0][:, None] * n + active_idx).ravel()
    rest = rest[~visited[rest]]
    visited[keys[out]] = False
    visited[rest] = True
    return np.sort(np.concatenate([keys[~out], rest]))


def _expand(
    payload: dict,
    active: np.ndarray,
    visited: np.ndarray,
    pairs: np.ndarray,
    model: str,
    rng: np.random.Generator,
) -> np.ndarray:
    """One reverse-BFS step from the frontier keys ``pairs``: the sorted
    keys of the active, unvisited in-neighbours they reach, marked in
    ``visited``.

    IC flips one coin per in-edge slot. LT draws one uniform per pair
    and keeps the in-edge ``lt_pick`` chooses, the rule of
    ``sample_realization``.
    """
    n = payload["n"]
    v = pairs % n
    if model == IC:
        pair_of, slots = row_slots(payload["rev_indptr"], v)
        hit = rng.random(len(slots)) < payload["rev_probs"][slots]
        owner, src = pair_of[hit], slots[hit]
    else:
        owner, src = lt_pick(
            payload["rev_indptr"], payload["rev_cum"], v, rng.random(len(pairs))
        )
    u = payload["rev_indices"][src]
    keys = pairs[owner] - v[owner] + u
    keys = np.unique(keys[active[u] & ~visited[keys]])
    visited[keys] = True
    return keys


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
    drawn from the stream ``(seed, j)`` only, as CSR ``(sizes, members)``.

    All ``BLOCK`` sets are drawn and the block is then cut to the ids
    below ``n_sets``, so the stream never depends on the pool size. The
    sets' BFSs advance together as keys ``s·n + v`` against one bitmap
    of ``BLOCK·n`` flags, touched only at keys; each step's frontier is
    expanded ``CHUNK`` keys at a time and sorted, so the draws, and the
    sets, do not depend on ``CHUNK``.
    """
    rng = np.random.default_rng(substream(seed, j))
    n = payload["n"]
    active_idx = np.nonzero(active)[0]
    if roots == "mrr":
        k = sample_root_size(len(active_idx), eta_i, rng, BLOCK)
    else:
        k = np.ones(BLOCK, dtype=np.int64)
    visited = np.zeros(BLOCK * n, dtype=bool)
    frontier = _draw_roots(active_idx, k, n, visited, rng)
    found = [frontier]
    while len(frontier):
        frontier = np.sort(np.concatenate([
            _expand(payload, active, visited, frontier[c : c + CHUNK], model, rng)
            for c in range(0, len(frontier), CHUNK)
        ]))
        found.append(frontier)
    n_take = min(BLOCK, n_sets - j * BLOCK)
    keys = np.sort(np.concatenate(found))
    keys = keys[: np.searchsorted(keys, n_take * n)]
    set_of = keys // n
    return np.bincount(set_of, minlength=n_take), keys - set_of * n


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

    Set j's members are ``members[indptr[j]:indptr[j + 1]]``. The
    driver always draws block 0 first; the call's members are estimated
    as block 0's members times the block count. Without Spark
    (``spark=None``), or below ``SPARK_MIN_MEMBERS``, the driver samples
    the other blocks too and concatenates them. Otherwise Spark
    executors sample every block, block 0 again, and the membership rows
    are collected and stably sorted by set id. The pool depends only on
    the arguments, not on the venue. Bad input raises ``ValueError``
    before any set is drawn.
    """
    _check_inputs(g, active, model, roots)
    payload = g.payload()
    draw = partial(_sample_block, payload, active, eta_i, model, roots, n_sets, seed)
    n_blocks = -(-n_sets // BLOCK)
    blocks = [draw(0)]
    if spark is None or len(blocks[0][1]) * n_blocks < SPARK_MIN_MEMBERS:
        blocks += map(draw, range(1, n_blocks))
        sizes = np.concatenate([s for s, _ in blocks])
        members = np.concatenate([m for _, m in blocks])
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
