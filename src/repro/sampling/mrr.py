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
driver, chooses the venue from the members of the call's first block,
drawn first on the driver in the call's first batch, and returns one
CSR pool ``(indptr, members)``. A call may start at a later block of its
stream: ``doubling_pools``, the doubling rule of TRIM and ATEUC, reads
one stream per round and draws each block of it once.
Sets are drawn in blocks of ``BLOCK`` ids, each a CSR ``(sizes,
members)`` seeded by the stream ``substream(seed, j)`` alone. One
vectorized kernel, ``_sample_blocks``, draws a batch of consecutive
blocks: all root counts and roots at once, then one reverse BFS that
advances every set's frontier together as flat keys
``(b·BLOCK + s)·n + v``, each block drawing from its own stream exactly
as it would alone. ``blocks_per_batch`` sizes a batch: up to
``RR_BATCH`` blocks of RR sets under a bounded bitmap, one block of mRR
sets, whose many roots already fill a step. Set ``i`` is the same whether
the driver or a Spark task (``sample_sets_pairs``, one ``mapInPandas``
row per block over a broadcast reverse CSR, batched by the same rule)
draws it, and whatever the batching. ``substream`` is the one
seed-derivation rule: every caller appends its own key to the path, so
an ASTI set comes from (run, round, block) and an ATEUC set from (run,
block); a round's doubling iterations read prefixes of one stream.
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

# One kernel call draws a batch of consecutive blocks with one reverse
# BFS, so a step's fixed numpy cost is paid once per batch, not once per
# block. An RR set has one root and ~2 members, so RR calls batch up to
# this many blocks. mRR blocks run alone: with η_i/n_i ≤ 0.2 each set
# has E[k] = n_i/η_i ≥ 5 roots, which already fill a step, and two
# blocks per batch at E[k] ≈ 9 drew 1,024 livejournal_lite sets in
# 36–41 ms against 24–25 ms one block at a time (4 cores).
RR_BATCH = 8

# ... and an RR batch's bitmap of len(js)·BLOCK·n flags stays within
# this many bytes.
BATCH_BITMAP = 8 << 20

# Below this many estimated members per call, executor fan-out costs
# more than it saves. BENCH_venue.json (benchmarks/venue_crossover.py;
# 4 cores, warm local[4], IC, RR and mRR, 4,096–65,536 lite sets) fits
# local ≈ 0.02 s + 0.69 µs/member and Spark ≈ 0.86 s + 0.27 µs/member:
# the lines meet near 1.96M members, rounded here to 2M. The calls that
# set the slopes are mRR calls, drawn one block per batch; batched RR
# calls cost the driver 0.8–1.8 µs/member but stay below 0.2M members.
# Only the execution venue changes, never the sets.
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


def blocks_per_batch(n: int, roots: str) -> int:
    """Blocks per kernel batch: one for mRR; for RR up to ``RR_BATCH``
    with a bitmap of at most ``BATCH_BITMAP`` bytes, and at least one."""
    if roots == "mrr":
        return 1
    return max(1, min(RR_BATCH, BATCH_BITMAP // (BLOCK * n)))


def _runs(js, per: int) -> list:
    """The block ids ``js`` cut into consecutive runs of ``per`` or fewer."""
    return [js[c : c + per] for c in range(0, len(js), per)]


def _uniforms(
    rngs: list, pairs: np.ndarray, n: int, draw_of: np.ndarray | None = None
) -> np.ndarray:
    """Uniforms for the block-major keys ``pairs``: one per pair, or one
    per entry of ``draw_of`` (the sorted position in ``pairs`` that each
    draw belongs to). Block b's come from ``rngs[b]`` in order; a block
    with none makes no call."""
    size = len(pairs) if draw_of is None else len(draw_of)
    if len(rngs) == 1:
        return rngs[0].random(size)
    cuts = np.searchsorted(pairs, np.arange(1, len(rngs)) * (BLOCK * n))
    if draw_of is not None:
        cuts = np.searchsorted(draw_of, cuts)
    bounds = [0, *cuts.tolist(), size]
    parts = [rng.random(hi - lo) for rng, lo, hi in zip(rngs, bounds, bounds[1:]) if hi > lo]
    return np.concatenate(parts) if parts else np.zeros(0)


def _draw_roots(
    active_idx: np.ndarray,
    k: np.ndarray,
    n: int,
    visited: np.ndarray,
    rngs: list,
) -> np.ndarray:
    """Keys ``s·n + v`` of every set's roots, marked in ``visited``: set
    s gets a uniform ``k[s]``-subset of ``active_idx``, drawn from its
    block's stream ``rngs[s // BLOCK]``.

    Each round draws, for every set not yet full, as many uniform nodes
    as it lacks and keeps the distinct new ones (the first k distinct
    values of an i.i.d. sequence are a uniform k-subset). A set with
    k > n_i/2 draws the n_i − k nodes it leaves out that way instead.
    The keys come in round order, or sorted if a set has k > n_i/2. A
    batch of several blocks holds RR sets (k = 1), whose roots take one
    round, so either way its keys are block-major, each block's as the
    block alone gives them.
    """
    n_i = len(active_idx)
    left_out = k > n_i / 2
    need = np.where(left_out, n_i - k, k)
    drawn = [EMPTY_POOL[1]]
    while need.any():
        owner = np.repeat(np.arange(len(k)), need)
        if len(rngs) == 1:
            picks = rngs[0].integers(n_i, size=len(owner))
        else:
            counts = need.reshape(len(rngs), BLOCK).sum(1).tolist()
            picks = np.concatenate([r.integers(n_i, size=c) for r, c in zip(rngs, counts) if c])
        keys = np.unique(owner * n + active_idx[picks])
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
    rngs: list,
) -> np.ndarray:
    """One reverse-BFS step from the block-major frontier keys ``pairs``:
    the sorted keys of the active, unvisited in-neighbours they reach,
    marked in ``visited``.

    IC flips one coin per in-edge slot. LT draws one uniform per pair
    and keeps the in-edge ``lt_pick`` chooses, the rule of
    ``sample_realization``. Each block's draws come from its own stream.
    """
    n = payload["n"]
    v = pairs - pairs // n * n  # pairs % n, at a third of its cost
    if model == IC:
        pair_of, slots = row_slots(payload["rev_indptr"], v)
        # Few coins hit; gathering their positions beats a boolean mask.
        hit = np.flatnonzero(_uniforms(rngs, pairs, n, pair_of) < payload["rev_probs"][slots])
        owner, src = pair_of[hit], slots[hit]
    else:
        owner, src = lt_pick(
            payload["rev_indptr"], payload["rev_cum"], v, _uniforms(rngs, pairs, n)
        )
    u = payload["rev_indices"][src]
    keys = pairs[owner] - v[owner] + u
    keys = np.unique(keys[active[u] & ~visited[keys]])
    visited[keys] = True
    return keys


def _sample_blocks(
    payload: dict,
    active: np.ndarray,
    eta_i: int,
    model: str,
    roots: str,
    n_sets: int,
    seed: Seed,
    js,
    visited: np.ndarray | None = None,
) -> Pool:
    """Blocks ``js`` (ascending ids) of ``n_sets`` sets as one CSR
    ``(sizes, members)``: the ids ``j·BLOCK …`` below ``n_sets`` of
    each block j in turn, block j drawn from the stream ``(seed, j)``
    only.

    Every block draws all ``BLOCK`` sets, and the last is then cut to
    the ids below ``n_sets``, so the stream never depends on the pool
    size. The batch's sets advance together in one reverse BFS, as keys
    ``(b·BLOCK + s)·n + v`` against one all-false bitmap ``visited`` of
    at least ``len(js)·BLOCK·n`` flags (a new one if None), touched only
    at keys and cleared at them again before the return, so a caller
    can pass it to its next batch. Each block consumes its own stream's
    draws exactly as it would alone, so a batch equals its blocks drawn
    one at a time. A batch of several blocks must hold RR sets, as
    ``blocks_per_batch`` gives: mRR roots may take several rounds, whose
    keys would not come block-major. Each step's frontier is expanded
    ``CHUNK`` keys at a time and, if that took several chunks, sorted, so
    the draws, and the sets, do not depend on ``CHUNK``.
    """
    assert roots == "rr" or len(js) == 1, "only RR blocks are batched"
    rngs = [np.random.default_rng(substream(seed, j)) for j in js]
    n = payload["n"]
    active_idx = np.nonzero(active)[0]
    if roots == "mrr":
        k = sample_root_size(len(active_idx), eta_i, rngs[0], BLOCK)
    else:
        k = np.ones(len(js) * BLOCK, dtype=np.int64)
    if visited is None:
        visited = np.zeros(len(js) * BLOCK * n, dtype=bool)
    frontier = _draw_roots(active_idx, k, n, visited, rngs)
    found = [frontier]
    while len(frontier):
        # One chunk's keys come back sorted and distinct already.
        parts = [
            _expand(payload, active, visited, frontier[c : c + CHUNK], model, rngs)
            for c in range(0, len(frontier), CHUNK)
        ]
        frontier = parts[0] if len(parts) == 1 else np.sort(np.concatenate(parts))
        found.append(frontier)
    n_take = (len(js) - 1) * BLOCK + min(BLOCK, n_sets - js[-1] * BLOCK)
    keys = np.sort(np.concatenate(found))
    visited[keys] = False
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
    first_block: int = 0,
) -> Pool:
    """Sets ``first_block·BLOCK … n_sets − 1`` of the stream ``seed`` as
    a CSR pool ``(indptr, members)``: ``n_sets`` fresh sets by default.

    The pool's set j (set ``first_block·BLOCK + j`` of the stream) has
    members ``members[indptr[j]:indptr[j + 1]]``. Blocks are drawn in
    batches of ``blocks_per_batch`` consecutive blocks, one kernel call
    each, reusing one bitmap. The driver always draws the first batch,
    which holds block ``first_block``; the call's members are estimated
    as that block's members times the count of blocks drawn. Without
    Spark (``spark=None``), or below ``SPARK_MIN_MEMBERS``, the driver
    draws the other batches too and concatenates them. Otherwise Spark
    executors sample every block, the first batch's again, and the
    membership rows are collected and stably sorted by set id. The pool
    depends only on the arguments, not on the venue or the batching.
    Bad input raises ``ValueError`` before any set is drawn.
    """
    _check_inputs(g, active, model, roots)
    n_blocks = -(-n_sets // BLOCK)
    batches = _runs(range(first_block, n_blocks), blocks_per_batch(g.n, roots))
    visited = np.zeros(len(batches[0]) * BLOCK * g.n, dtype=bool)
    draw = partial(
        _sample_blocks, g.payload(), active, eta_i, model, roots, n_sets, seed, visited=visited
    )
    blocks = [draw(batches[0])]
    n_pool = n_sets - first_block * BLOCK
    estimate = int(blocks[0][0][:BLOCK].sum()) * (n_blocks - first_block)
    if spark is None or estimate < SPARK_MIN_MEMBERS:
        blocks += map(draw, batches[1:])
        sizes = np.concatenate([s for s, _ in blocks])
        members = np.concatenate([m for _, m in blocks])
    else:
        pairs = sample_sets_pairs(
            spark, g, active, eta_i, model, n_sets, seed, roots=roots, first_block=first_block
        ).toPandas()
        set_ids = pairs["set_id"].to_numpy(np.int64) - first_block * BLOCK
        order = np.argsort(set_ids, kind="stable")
        members = pairs["node"].to_numpy(np.int64)[order]
        sizes = np.bincount(set_ids, minlength=n_pool)
    indptr = np.zeros(n_pool + 1, dtype=np.int64)
    np.cumsum(sizes, out=indptr[1:])
    return indptr, members


def doubling_pools(
    spark: SparkSession | None,
    g: GraphCSR,
    active: np.ndarray,
    eta_i: int,
    model: str,
    theta_o: int,
    seed: Seed,
    *,
    roots: str,
) -> Iterator[tuple[int, Pool]]:
    """``(θ_t, pool)`` for θ_t = θ_o·2^(t−1), t = 1, 2, …: the pool
    holds the first θ_t sets of the one stream ``seed``, so it equals
    ``sample_pool(…, θ_t, seed)``.

    Step t draws only the whole blocks below ⌈θ_t/BLOCK⌉ that it does
    not hold yet, and keeps the tail of a block that θ_t cuts for step
    t + 1, so a caller that stops at step t has drawn ⌈θ_t/BLOCK⌉
    blocks in all. This is the doubling rule of TRIM (Algorithms 2/3)
    and of ATEUC; the caller decides when to stop.
    """
    indptr, members = EMPTY_POOL
    theta = theta_o
    while True:
        held = (len(indptr) - 1) // BLOCK
        n_blocks = -(-theta // BLOCK)
        if n_blocks > held:
            more_indptr, more = sample_pool(
                spark, g, active, eta_i, model, n_blocks * BLOCK, seed,
                roots=roots, first_block=held,
            )
            indptr = np.concatenate([indptr, more_indptr[1:] + indptr[-1]])
            members = np.concatenate([members, more])
        yield theta, (indptr[: theta + 1], members[: indptr[theta]])
        theta *= 2


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
    first_block: int = 0,
) -> DataFrame:
    """The Spark venue: DataFrame of (set_id, node) membership rows.

    One task row per block ``first_block … ⌈n_sets/BLOCK⌉ − 1``, in
    contiguous ranges over at most ``2·defaultParallelism`` partitions;
    each task cuts its blocks into batches by ``blocks_per_batch``, as
    ``sample_pool`` does, runs the kernel over the broadcast CSR payload,
    reusing one bitmap, and explodes the CSRs into rows. Set ids are
    ``first_block·BLOCK … n_sets − 1`` and every set equals the local
    venue's at the same seed, whatever the partitioning. Inputs are
    checked on the driver, as in ``sample_pool``.
    """
    _check_inputs(g, active, model, roots)
    n_blocks = -(-n_sets // BLOCK)
    bc = g.broadcast(spark)
    active_bytes = np.packbits(active)
    n = g.n
    parts = min(n_blocks - first_block, 2 * spark.sparkContext.defaultParallelism)
    tasks_df = spark.range(first_block, n_blocks, 1, parts).toDF("block")
    per = blocks_per_batch(n, roots)

    def gen(batches: Iterator[pd.DataFrame]) -> Iterator[pd.DataFrame]:
        payload = bc.value
        act = np.unpackbits(active_bytes, count=n).astype(bool)
        visited = np.zeros(per * BLOCK * n, dtype=bool)
        for pdf in batches:
            js = pdf["block"].tolist()
            sizes, members = zip(*(
                _sample_blocks(payload, act, eta_i, model, roots, n_sets, seed, run, visited)
                for run in _runs(js, per)
            ))
            ids = np.concatenate([j * BLOCK + np.arange(min(BLOCK, n_sets - j * BLOCK)) for j in js])
            yield pd.DataFrame(
                {"set_id": np.repeat(ids, np.concatenate(sizes)), "node": np.concatenate(members)}
            )

    return tasks_df.mapInPandas(gen, schema=PAIRS_SCHEMA)
