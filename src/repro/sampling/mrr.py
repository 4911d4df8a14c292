"""Multi-root reverse reachable (mRR) set generation.

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

``sample_pool``, the one sampler entry point, checks its inputs and
draws the call's blocks on the driver in one kernel call, returning one
CSR pool ``(indptr, members)``. On one host the driver is the venue: in
``BENCH_venue.json`` it beat collecting the same sets from Spark in
every cell measured, past 24M members. A call may start at a later
block of its stream: ``doubling_pools``, the doubling rule of TRIM and
ATEUC, reads one stream per round and draws each block of it once. Sets
are drawn in blocks of ``BLOCK`` ids, each a CSR ``(sizes, members)``
drawn by the compiled kernel (``kernel.py``, ``block_kernel.c``) from
the generator of the stream ``substream(seed, j)`` alone, which the
kernel seeds itself: its root counts, then, one set after another, each
set's roots and reverse BFS. A call with enough expected roots splits
its blocks over threads inside the kernel (``_workers``: one per core
once each gets ``ROOTS_PER_WORKER`` roots; the kernel starts at most
one per block); since
a block's sets depend only on its stream, the pool is the same for any
worker count. ``sample_sets_pairs`` draws the same sets
on Spark executors (one ``mapInPandas`` row per block over a broadcast
reverse CSR), as membership rows. ``substream`` is the one
seed-derivation rule: every caller appends its own key to the path, so
an ASTI set comes from (run, round, block) and an ATEUC set from (run,
block); a round's doubling iterations read prefixes of one stream.
"""
import os
from typing import Iterator

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql.types import LongType, StructField, StructType

from repro.diffusion.realization import LT, check_lt
from repro.graphs.csr import GraphCSR
from repro.sampling import kernel

PAIRS_SCHEMA = StructType(
    [StructField("set_id", LongType()), StructField("node", LongType())]
)

# Sets are sampled in blocks of this many ids; block j is seeded by
# (seed, j) alone, so the sets never depend on the venue or partitioning.
# Small blocks let a short call split over threads and let a round stop
# within BLOCK sets of θ_t (DESIGN §2 records the measured sweep).
BLOCK = 32

# The Spark venue runs at most one task per this many sets.
SETS_PER_TASK = 256

Pool = tuple[np.ndarray, np.ndarray]
EMPTY_POOL: Pool = (np.zeros(1, dtype=np.int64), np.zeros(0, dtype=np.int64))

Seed = int | np.random.SeedSequence

# A kernel call splits its blocks over threads only when each worker
# gets at least this many expected roots; smaller shares lose more to
# starting a thread than they gain (DESIGN §2 records the crossover).
ROOTS_PER_WORKER = 512


def substream(seed: Seed, *key: int) -> np.random.SeedSequence:
    """The independent stream at path ``key`` below ``seed``."""
    if isinstance(seed, np.random.SeedSequence):
        return np.random.SeedSequence(seed.entropy, spawn_key=seed.spawn_key + key)
    return np.random.SeedSequence(seed, spawn_key=key)


def _workers(roots: float) -> int:
    """The worker threads a kernel call of ``roots`` expected roots
    splits over: every core this process may run on once each gets
    ``ROOTS_PER_WORKER`` expected roots, else one (4 cores from 2,048
    roots). The kernel starts no more threads than the call has
    blocks."""
    cores = len(os.sched_getaffinity(0))
    return cores if roots >= cores * ROOTS_PER_WORKER else 1


def _sample_blocks(
    graph: tuple,
    active: np.ndarray,
    eta_i: int,
    model: str,
    roots: str,
    n_sets: int,
    seed: Seed,
    js,
    workers: int | None = None,
) -> Pool:
    """Blocks ``js`` (ascending ids) of ``n_sets`` sets as one CSR
    ``(sizes, members)``: the ids ``j·BLOCK …`` below ``n_sets`` of
    each block j in turn, block j drawn from the stream ``(seed, j)``
    only. ``graph`` is ``kernel.prepare``'s layout of the graph.

    The compiled kernel (``kernel.py``) derives block j's generator from
    ``substream(seed)`` and j as ``default_rng(substream(seed, j))``
    would; the generator first draws all ``BLOCK`` root counts by the
    root-size law (mRR: k = ⌊n_i/η_i⌋ + 1 with probability
    frac(n_i/η_i), else ⌊n_i/η_i⌋, clipped to [1, n_i], so E[k] = n_i/η_i
    as Thm 3.3 needs; an RR set has one root), then the roots and reverse
    BFS of its sets one after another, up to its last id below
    ``n_sets``. A set's draws follow only those of the sets before it, so
    a set never depends on the pool size. The kernel splits the blocks
    over ``workers`` threads, by default ``_workers`` of the call's
    expected roots (k per set); the sets are the same for any count.
    """
    n_i = int(np.count_nonzero(active))
    ratio = n_i / eta_i
    root_law = (int(ratio), ratio - int(ratio)) if roots == "mrr" else None
    js = np.asarray(js, dtype=np.int64)
    takes = np.minimum(BLOCK, n_sets - BLOCK * js)
    if workers is None:
        workers = _workers(float(takes.sum()) * (ratio if root_law else 1))
    if not isinstance(seed, np.random.SeedSequence):
        seed = substream(seed)
    sizes, members, _ = kernel.sample_blocks(
        seed, js, takes, BLOCK, graph, model == LT, active, root_law, workers
    )
    return sizes, members


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
    members ``members[indptr[j]:indptr[j + 1]]``. The driver draws every
    block of the call in one kernel call, over ``_workers`` threads. Bad
    input raises
    ``ValueError`` before any set is drawn.
    """
    _check_inputs(g, active, model, roots)
    n_blocks = -(-n_sets // BLOCK)
    js = np.arange(first_block, n_blocks)
    sizes, members = _sample_blocks(g.kernel_graph(), active, eta_i, model, roots, n_sets, seed, js)
    indptr = np.zeros(len(sizes) + 1, dtype=np.int64)
    np.cumsum(sizes, out=indptr[1:])
    return indptr, members


def doubling_pools(
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
                g, active, eta_i, model, n_blocks * BLOCK, seed, roots=roots, first_block=held
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
    """The sets of ``sample_pool`` drawn on Spark: a DataFrame of
    (set_id, node) membership rows.

    One task row per block ``first_block … ⌈n_sets/BLOCK⌉ − 1``, in
    contiguous ranges over at most ``2·defaultParallelism`` partitions
    and at most one per ``SETS_PER_TASK`` sets; each task draws its
    blocks with one kernel call over the broadcast CSR payload and
    explodes the CSR into rows. Set ids are
    ``first_block·BLOCK … n_sets − 1``, collected in non-decreasing order,
    and every set equals ``sample_pool``'s at the same seed, whatever the
    partitioning. Inputs are checked on the driver, as in ``sample_pool``.
    No selector reads this venue; ``benchmarks/venue_crossover.py`` times
    it against ``sample_pool``.
    """
    _check_inputs(g, active, model, roots)
    n_blocks = -(-n_sets // BLOCK)
    bc = g.broadcast(spark)
    active_bytes = np.packbits(active)
    n = g.n
    tasks = -(-(n_sets - first_block * BLOCK) // SETS_PER_TASK)
    parts = min(tasks, 2 * spark.sparkContext.defaultParallelism)
    tasks_df = spark.range(first_block, n_blocks, 1, parts).toDF("block")

    def gen(batches: Iterator[pd.DataFrame]) -> Iterator[pd.DataFrame]:
        graph = kernel.prepare(bc.value)
        act = np.unpackbits(active_bytes, count=n).astype(bool)
        for pdf in batches:
            js = pdf["block"].to_numpy()
            # Spark runs one task per core already: a task draws on one.
            sizes, members = _sample_blocks(graph, act, eta_i, model, roots, n_sets, seed, js, 1)
            ids = (js[:, None] * BLOCK + np.arange(BLOCK)).ravel()
            ids = ids[ids < n_sets]
            yield pd.DataFrame({"set_id": np.repeat(ids, sizes), "node": members})

    return tasks_df.mapInPandas(gen, schema=PAIRS_SCHEMA)
