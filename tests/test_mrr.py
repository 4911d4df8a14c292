"""mRR-set sampling (paper §3.3): root-size law, Theorem 3.3 sandwich,
RR-set truncation bias, the CSR pool ``sample_pool`` returns, the input
checks of it and of the Spark rows ``sample_sets_pairs``, and those rows
vs the pool and an SQL oracle. Coverage Λ_R(v) is read off the pool as ``np.bincount(members)``:
a set never holds a node twice.

The block kernel is checked against ``_reference_pool``, a Python BFS
that draws its roots with ``rng.choice``: the two draw from different
streams, so they are compared in distribution. The kernel's own seeding
is checked exactly against numpy's generators, on a graph without
edges."""
from functools import partial

import numpy as np
import pandas as pd
import pytest

import repro.sampling.mrr as mrr
from repro.diffusion.propagate import (
    exact_expected_spread,
    spread_local,
    truncated,
)
from repro.diffusion.realization import IC, LT, sample_realization
from repro.graphs.csr import GraphCSR
from repro.oracle import assert_equivalent
from repro.sampling import kernel
from repro.sampling.mrr import (
    BLOCK,
    sample_pool,
    sample_sets_pairs,
    substream,
)
from tests.pools import csr_pool


def sample_root_size(n_i: int, eta_i: int, rng: np.random.Generator, size: int | None = None):
    """Randomized-rounded root counts with E[k] = n_i/η_i (Thm 3.3), the
    law the block kernel draws its mRR root counts by.

    k = ⌊n_i/η_i⌋ + 1 with probability frac(n_i/η_i), else ⌊n_i/η_i⌋,
    clipped to [1, n_i]: one count for ``size=None``, else an array of
    ``size`` counts from one vectorized draw.
    """
    ratio = n_i / eta_i
    k_low = int(ratio)
    return np.clip(k_low + (rng.random(size) < ratio - k_low), 1, n_i)


def _reference_bfs(payload, active, roots, rng, model):
    """One stochastic reverse BFS from ``roots``; the visited node ids."""
    rev_indptr, rev_indices = payload["rev_indptr"], payload["rev_indices"]
    visited = {int(v) for v in roots}
    frontier = list(visited)
    while frontier:
        nxt = []
        for v in frontier:
            lo, hi = rev_indptr[v], rev_indptr[v + 1]
            if hi == lo:
                continue
            if model == IC:
                coins = rng.random(hi - lo) < payload["rev_probs"][lo:hi]
                srcs = rev_indices[lo:hi][coins]
            else:  # LT: the node keeps at most one live in-edge.
                j = np.searchsorted(payload["rev_cum"][lo:hi], rng.random(), side="right")
                srcs = rev_indices[lo + j : hi][:1]
            for u in srcs.tolist():
                if active[u] and u not in visited:
                    visited.add(u)
                    nxt.append(u)
        frontier = nxt
    return sorted(visited)


def _reference_pool(g, active, eta_i, model, roots, n_sets, seed):
    """``n_sets`` sets drawn one at a time: k from the root-size law, k
    roots by ``rng.choice`` without replacement, one reverse BFS each."""
    rng = np.random.default_rng(seed)
    payload = g.payload()
    active_idx = np.nonzero(active)[0]
    sets = []
    for _ in range(n_sets):
        k = sample_root_size(len(active_idx), eta_i, rng) if roots == "mrr" else 1
        root_nodes = active_idx[rng.choice(len(active_idx), size=k, replace=False)]
        sets.append(_reference_bfs(payload, active, root_nodes, rng, model))
    return csr_pool(sets)


# Every statistical comparison below allows Z standard errors: at
# Z = 5 one comparison fails by chance with probability 5.7e-7, so a
# test making up to 600 of them fails by chance with probability below
# 4e-4 (union bound).
Z = 5.0


@pytest.mark.parametrize("roots,eta_i", [("mrr", 15), ("rr", 1)])
@pytest.mark.parametrize("model", [IC, LT])
def test_kernel_matches_reference_sampler(small_cl_graph, model, roots, eta_i):
    """Per-node hit frequencies and mean |R| of the block kernel and of
    the per-set reference agree, with 10% of the nodes inactive.

    Each node's hit count over N sets is binomial in either sampler, so
    the two frequencies differ by Z·sqrt(2·p̄(1−p̄)/N) at most, with p̄
    their mean, plus 1/N for the discreteness of rarely hit nodes; mean
    |R| differs by Z·sqrt((s²_kernel + s²_ref)/N) at most."""
    g = small_cl_graph
    active = np.ones(g.n, bool)
    active[::10] = False
    n_sets = 4000
    ours = sample_pool(g, active, eta_i, model, n_sets, 21, roots=roots)
    ref = _reference_pool(g, active, eta_i, model, roots, n_sets, 22)
    p_k, p_r = (np.bincount(m, minlength=g.n) / n_sets for _, m in (ours, ref))
    p_bar = (p_k + p_r) / 2
    tol = Z * np.sqrt(2 * p_bar * (1 - p_bar) / n_sets) + 1 / n_sets
    assert (np.abs(p_k - p_r) <= tol).all(), np.max(np.abs(p_k - p_r) - tol)
    size_k, size_r = np.diff(ours[0]), np.diff(ref[0])
    se = np.sqrt((size_k.var(ddof=1) + size_r.var(ddof=1)) / n_sets)
    assert abs(size_k.mean() - size_r.mean()) <= Z * se


@pytest.mark.parametrize(
    "eta_i",
    [
        pytest.param(5, id="k<=half"),  # k = 7 of n_i = 35
        pytest.param(2, id="k>half"),  # k in {17, 18} of n_i = 35
        pytest.param(1, id="k=n_i"),
    ],
)
def test_roots_are_uniform_distinct_active(eta_i):
    """On a graph without edges a set is its roots: distinct, active,
    k of them by the root-size law, and each active node a root with
    probability E[k]/n_i (Z binomial standard errors over N sets)."""
    n = 39
    g = GraphCSR.from_edges(pd.DataFrame({"src": [], "dst": []}), n=n)
    active = np.ones(n, bool)
    active[::10] = False
    n_i, n_sets = int(active.sum()), 3000
    indptr, members = sample_pool(g, active, eta_i, IC, n_sets, 5, roots="mrr")
    assert active[members].all()
    sizes = np.diff(indptr)
    set_of = np.repeat(np.arange(n_sets), sizes)
    assert len(np.unique(set_of * n + members)) == len(members), "a root repeats"
    ratio = n_i / eta_i
    frac = ratio - int(ratio)
    assert set(sizes.tolist()) <= {max(1, int(ratio)), min(n_i, int(ratio) + 1)}
    assert abs(sizes.mean() - ratio) <= Z * np.sqrt(frac * (1 - frac) / n_sets)
    p = ratio / n_i
    hits = np.bincount(members, minlength=n)[active]
    assert (np.abs(hits - n_sets * p) <= Z * np.sqrt(n_sets * p * (1 - p)) + 1).all()


@pytest.mark.parametrize("roots,eta_i", [("mrr", 10), ("rr", 1)])
@pytest.mark.parametrize("model", [IC, LT])
def test_pool_does_not_depend_on_chunk(small_cl_graph, model, roots, eta_i):
    """Drawing a pool's blocks in kernel calls of 1 or 5 blocks each, the
    chunks cut across the partial last block, gives the bytes of
    ``sample_pool``, which draws them in one call after the first."""
    g = small_cl_graph
    active = np.ones(g.n, bool)
    active[::10] = False
    n_sets = 5 * BLOCK + 9
    n_blocks = -(-n_sets // BLOCK)
    indptr, members = sample_pool(g, active, eta_i, model, n_sets, 13, roots=roots)
    draw = partial(mrr._sample_blocks, g.kernel_graph(), active, eta_i, model, roots, n_sets, 13)
    for chunk in (1, 5):
        parts = [draw(range(lo, min(lo + chunk, n_blocks))) for lo in range(0, n_blocks, chunk)]
        sizes = np.concatenate([s for s, _ in parts])
        np.testing.assert_array_equal(np.diff(indptr), sizes)
        np.testing.assert_array_equal(members, np.concatenate([m for _, m in parts]))


@pytest.mark.parametrize("n_active", [pytest.param(None, id="90%"), pytest.param(1, id="one")])
@pytest.mark.parametrize("model", [IC, LT])
def test_batch_equals_its_blocks_alone(small_cl_graph, model, n_active):
    """One kernel call over a run of RR blocks gives the bytes of its
    blocks drawn one call each, with a partial last block and 10% of the
    nodes inactive, or with one active node, the root of every set
    (k = n_i = 1)."""
    g = small_cl_graph
    active = np.ones(g.n, bool)
    active[::10] = False
    if n_active is not None:
        active[:] = False
        active[np.argmax(g.indeg)] = True
    draw = partial(mrr._sample_blocks, g.kernel_graph(), active, 1, model, "rr", 3 * BLOCK + 9, 13)
    for js in (range(4), range(1, 3)):
        sizes, members = draw(js)
        alone = [draw([j]) for j in js]
        np.testing.assert_array_equal(sizes, np.concatenate([s for s, _ in alone]))
        np.testing.assert_array_equal(members, np.concatenate([m for _, m in alone]))


# Seeds whose entropy and spawn keys exercise numpy's coercion: zero, a
# large one-word value, a two-word value, a nested path, fresh OS entropy
# (128 bits) and a tuple whose middle value spans two words.
ORACLE_SEEDS = {
    "0": 0,
    "2^31-1": 2**31 - 1,
    "2^40+7": 2**40 + 7,
    "nested": substream(substream(3, 5), 2),
    "os-entropy": np.random.SeedSequence(None),
    "tuple": np.random.SeedSequence((1, 2**33 + 5, 0)),
}
ORACLE_BLOCKS = [0, 1, 255, 2**20]


@pytest.mark.parametrize("seed", ORACLE_SEEDS.values(), ids=ORACLE_SEEDS.keys())
def test_kernel_stream_is_numpys(seed):
    """The kernel's own SeedSequence and PCG64 give block j the stream of
    ``default_rng(substream(seed, j))``. On a graph without edges, with
    10% of the nodes inactive, an RR set is its one root, drawn by
    ``integers``, and an mRR set's size is its root count, drawn by
    ``random``; both are read off whole blocks exactly."""
    n = 39
    g = GraphCSR.from_edges(pd.DataFrame({"src": [], "dst": []}), n=n)
    active = np.ones(n, bool)
    active[::10] = False
    active_idx = np.flatnonzero(active)
    n_i, eta_i = len(active_idx), 4
    n_sets = (ORACLE_BLOCKS[-1] + 1) * BLOCK
    draw = partial(mrr._sample_blocks, g.kernel_graph(), active, eta_i, IC, n_sets=n_sets, seed=seed,
                   js=ORACLE_BLOCKS)
    _, rr_roots = draw(roots="rr")
    mrr_sizes, _ = draw(roots="mrr")
    for b, j in enumerate(ORACLE_BLOCKS):
        ours = slice(b * BLOCK, (b + 1) * BLOCK)
        rng = np.random.default_rng(substream(seed, j))
        np.testing.assert_array_equal(rr_roots[ours], active_idx[rng.integers(0, n_i, BLOCK)])
        rng = np.random.default_rng(substream(seed, j))
        np.testing.assert_array_equal(mrr_sizes[ours], sample_root_size(n_i, eta_i, rng, BLOCK))


def test_kernel_rejects_streams_it_cannot_derive(small_cl_graph):
    """A block id of 2^32 or more (two spawn-key words in numpy) and a
    SeedSequence pool of other than 4 words raise ``ValueError``."""
    g = small_cl_graph
    active = np.ones(g.n, bool)
    with pytest.raises(ValueError, match="uint32"):
        mrr._sample_blocks(g.kernel_graph(), active, 1, IC, "rr", (2**32 + 1) * BLOCK, 3, [2**32])
    with pytest.raises(ValueError, match="pool"):
        kernel.sample_blocks(np.random.SeedSequence(3, pool_size=8), [0], [1], BLOCK,
                             g.kernel_graph(), False, active, None)


@pytest.mark.parametrize("model", [IC, LT])
def test_a_set_draws_only_its_own_uniforms(small_cl_graph, model):
    """A block draws its sets one after another and stops after the last
    set the pool keeps, so one RR set draws fewer 64-bit generator words
    than ``BLOCK`` sets at the same seed, whose first set it is."""
    g = small_cl_graph
    active = np.ones(g.n, bool)
    words = [
        kernel.sample_blocks(substream(3), [0], [n_sets], BLOCK, g.kernel_graph(), model == LT,
                             active, None)[2]
        for n_sets in (1, BLOCK)
    ]
    assert 0 < words[0] < words[1]


class _LowUniforms:
    """A generator whose uniforms all read 1e-12, below the 5e-10 excess
    weight; realizations call its ``random``."""

    def __init__(self, seed):
        pass

    def random(self, size=None):
        return np.full(size, 1e-12)


def _picks_in_own_slots(g: GraphCSR, indptr, members) -> list[np.ndarray]:
    """The RR sets of ``(indptr, members)``, after asserting that every
    non-root member is an in-neighbour of its set's root (the sources
    have no in-edges, so a set is its root and that root's one pick)."""
    sets = np.split(members, indptr[1:-1])
    for s in sets:
        assert set(s[1:].tolist()) <= set(g.in_neighbors(s[0]).tolist())
    return sets


@pytest.mark.parametrize("draws", ["low", "random"])
def test_lt_pick_stays_in_own_slots(monkeypatch, draws):
    """Every LT pick is an in-neighbour of the node that picked it, also
    for uniforms below the excess of the previous node's in-weight sum
    over 1, where a search over all nodes' running sums can land in the
    previous node's last slot. The reverse RR BFS and the forward
    realization share the rule.

    Realizations: node 1's in-weights sum to 1 + 5e-10 and it follows the
    full-weight node 0; node 2, full-weight, follows it. Each sum is at
    least 1, so every realization keeps exactly one in-edge of nodes 0, 1
    and 2; with ``low`` draws every node keeps its first.

    Kernel: the kernel draws from its own stream, so ``random`` samples
    that graph, while ``low`` samples a hand-built payload in which node
    1's in-weights sum to 1.3 (0.3 + 1.0), calling ``mrr._sample_blocks``
    directly because ``sample_pool``'s ``check_lt`` rejects such weights.
    Node 2 (0.3 + 0.7) follows it and keeps its first in-edge exactly
    when its draw falls below 0.3, the excess, which real draws then do
    about 30% of the time; such draws must have occurred."""
    edges = pd.DataFrame({"src": [3, 4, 5, 6], "dst": [0, 1, 1, 2]})
    g = GraphCSR.from_edges(edges, n=7, probs=np.array([1.0, 0.5, 0.5 + 5e-10, 1.0]))
    if draws == "low":
        heavy = GraphCSR.from_edges(
            pd.DataFrame({"src": [3, 4, 5, 6, 7], "dst": [0, 1, 1, 2, 2]}),
            n=8, probs=np.array([1.0, 0.3, 1.0, 0.3, 0.7]),
        )
        active = np.ones(heavy.n, bool)
        sizes, members = mrr._sample_blocks(heavy.kernel_graph(), active, 1, LT, "rr", 2000, 3, range(8))
        indptr = np.concatenate([[0], np.cumsum(sizes)])
        sets = _picks_in_own_slots(heavy, indptr, members)
        assert (2, 6) in {tuple(s.tolist()) for s in sets}
        monkeypatch.setattr(np.random, "default_rng", _LowUniforms)
    else:
        active = np.ones(g.n, bool)
        _picks_in_own_slots(g, *sample_pool(g, active, 1, LT, 2000, 3, roots="rr"))
    reals = [sample_realization(g, LT, seed) for seed in range(200)]
    for real in reals:
        assert sorted(g.fwd_indices[real.live_fwd].tolist()) == [0, 1, 2]
    live = {tuple(e) for real in reals for e in real.live_edges_pdf().to_numpy().tolist()}
    if draws == "low":  # r below every running sum picks each node's first in-edge
        assert live == {(3, 0), (4, 1), (6, 2)}
    else:
        assert live == {(3, 0), (4, 1), (5, 1), (6, 2)}


@pytest.mark.parametrize("n_i,eta_i", [(10, 3), (100, 7), (4, 2), (1000, 999)])
def test_root_size_support(n_i, eta_i):
    rng = np.random.default_rng(0)
    k_low = int(n_i / eta_i)
    for _ in range(200):
        k = sample_root_size(n_i, eta_i, rng)
        assert k in (max(1, k_low), min(n_i, k_low + 1))


@pytest.mark.parametrize("n_i,eta_i", [(10, 3), (100, 7), (7, 2)])
def test_root_size_mean(n_i, eta_i):
    """Randomized rounding gives E[k] = n_i/η_i (Thm 3.3)."""
    rng = np.random.default_rng(1)
    ks = [sample_root_size(n_i, eta_i, rng) for _ in range(20000)]
    assert np.mean(ks) == pytest.approx(n_i / eta_i, rel=0.02)


def test_root_size_integer_ratio_is_deterministic():
    rng = np.random.default_rng(2)
    assert all(sample_root_size(8, 4, rng) == 2 for _ in range(100))


def test_members_are_active_and_contain_roots(small_cl_graph):
    g = small_cl_graph
    active = np.ones(g.n, bool)
    active[:40] = False
    indptr, members = sample_pool(g, active, 20, IC, 50, 3, roots="mrr")
    assert (np.diff(indptr) > 0).all()
    assert active[members].all(), "inactive nodes never enter a set"


def test_local_deterministic(small_cl_graph):
    g = small_cl_graph
    active = np.ones(g.n, bool)
    a = sample_pool(g, active, 20, IC, 10, 9, roots="mrr")
    b = sample_pool(g, active, 20, IC, 10, 9, roots="mrr")
    for xa, xb in zip(a, b):
        np.testing.assert_array_equal(xa, xb)


def test_sets_do_not_depend_on_the_pool_size(small_cl_graph):
    """Set j comes from block j // BLOCK, seeded by (seed, j // BLOCK)
    alone, so a smaller pool is a prefix of a larger one."""
    g = small_cl_graph
    active = np.ones(g.n, bool)
    big_indptr, big_members = sample_pool(g, active, 20, IC, BLOCK + 40, 9, roots="mrr")
    for n_sets in (7, BLOCK, BLOCK + 1):
        indptr, members = sample_pool(g, active, 20, IC, n_sets, 9, roots="mrr")
        np.testing.assert_array_equal(indptr, big_indptr[: n_sets + 1])
        np.testing.assert_array_equal(members, big_members[: indptr[-1]])


def test_old_additive_collision_now_distinct():
    """The retired scheme gave realization r, round i the seed
    seed + r + 7·i, so (r=7, i=1) and (r=0, i=2) shared a stream."""
    assert 0 + 7 + 7 * 1 == 0 + 0 + 7 * 2
    a = substream(substream(0, 7), 1)
    b = substream(substream(0, 0), 2)
    assert not np.array_equal(a.generate_state(4), b.generate_state(4))
    assert np.random.default_rng(a).random() != np.random.default_rng(b).random()


def test_streams_distinct_over_key_grid():
    """(run, round, block) paths, built the way the harness, ASTI and the
    sampler nest them (a TRIM round reads one stream across its
    doublings), and ATEUC's (run, block) paths never share a state."""
    states = set()
    for r in range(10):
        run = substream(3, r)
        for j in range(16):
            ss = substream(run, j)
            assert ss.spawn_key == (r, j)
            states.add(ss.generate_state(4).tobytes())
        for i in range(1, 6):
            for j in range(16):
                ss = substream(substream(run, i), j)
                assert ss.spawn_key == (r, i, j)
                states.add(ss.generate_state(4).tobytes())
    assert len(states) == 10 * 16 + 10 * 5 * 16


def test_key_length_matters():
    """Unlike an entropy list, a spawn key is not zero-padded."""
    a = substream(1, 1).generate_state(4)
    b = substream(1, 1, 0).generate_state(4)
    assert not np.array_equal(a, b)


@pytest.mark.parametrize("model", [IC, LT])
def test_rr_sets_single_root(small_cl_graph, model):
    g = small_cl_graph
    active = np.ones(g.n, bool)
    indptr, _ = sample_pool(g, active, 1, model, 30, 4, roots="rr")
    assert len(indptr) == 30 + 1
    assert (np.diff(indptr) >= 1).all()


def test_theorem_3_3_sandwich_ex23(ex23_graph):
    """(1−1/e)·E[Γ(S)] ≤ E[Γ̃(S)] ≤ E[Γ(S)] on the Example 2.3 graph."""
    g = ex23_graph
    eta = 2
    active = np.ones(g.n, bool)
    n_sets = 20000
    _, members = sample_pool(g, active, eta, IC, n_sets, 5, roots="mrr")
    hits = np.bincount(members, minlength=g.n)
    for v in range(4):
        est = eta * hits[v] / n_sets  # E[Γ̃({v})]
        exact = exact_expected_spread(g, [v], eta=eta)
        assert est <= exact * 1.05
        assert est >= (1 - 1 / np.e) * exact * 0.95


def test_mrr_estimator_exact_values_ex23(ex23_graph):
    """Closed-form check: with η=2, k=2 roots without replacement,
    E[Γ̃(v)] = η·Pr[v ∈ R] works out to (1.75, 5/3, 5/3, 1) for v1..v4
    (e.g. v2 always reaches {v2, v4}, so Pr[hit] = 1 − C(2,2)/C(4,2) = 5/6).
    Note the estimator keeps every node inside the Theorem 3.3 band but
    does not preserve the exact Γ-ordering — that is precisely why TRIM's
    guarantee is (1−1/e)(1−ε) rather than exact greedy."""
    g = ex23_graph
    active = np.ones(g.n, bool)
    n_sets = 20000
    _, members = sample_pool(g, active, 2, IC, n_sets, 6, roots="mrr")
    est = 2 * np.bincount(members, minlength=g.n) / n_sets
    np.testing.assert_allclose(est, [1.75, 5 / 3, 5 / 3, 1.0], rtol=0.05)


def _mc_expected(g, seeds, model, eta, n_trials=3000, seed0=0):
    tot_i, tot_g = 0.0, 0.0
    for s in range(n_trials):
        real = sample_realization(g, model, seed0 + s)
        x = len(spread_local(real, seeds))
        tot_i += x
        tot_g += truncated(x, eta)
    return tot_i / n_trials, tot_g / n_trials


def test_rr_truncation_bias(small_cl_graph):
    """Paper §3.2: single-root RR sets estimate truncated spread as
    (η/n)·E[I(S)], badly biased when η ≪ n, while mRR stays in the
    Theorem 3.3 band."""
    g = small_cl_graph
    eta = 5
    v = int(np.argmax(g.outdeg))
    active = np.ones(g.n, bool)
    e_i, e_g = _mc_expected(g, [v], IC, eta)
    n_sets = 8000
    _, rr = sample_pool(g, active, 1, IC, n_sets, 7, roots="rr")
    rr_est = eta * np.bincount(rr, minlength=g.n)[v] / n_sets
    _, mrr_members = sample_pool(g, active, eta, IC, n_sets, 8, roots="mrr")
    mrr_est = eta * np.bincount(mrr_members, minlength=g.n)[v] / n_sets
    # RR underestimates by roughly η/n (here η/n = 1/30).
    assert rr_est == pytest.approx(eta / g.n * e_i, rel=0.3)
    assert rr_est < 0.5 * e_g
    # mRR lands inside the (1-1/e) sandwich of the truth.
    assert (1 - 1 / np.e) * e_g * 0.9 <= mrr_est <= e_g * 1.1


def test_rr_untruncated_unbiased(small_cl_graph):
    """E[I(S)] = n·Pr[R ∩ S ≠ ∅] for single-root RR sets (Borgs et al.)."""
    g = small_cl_graph
    v = int(np.argmax(g.outdeg))
    active = np.ones(g.n, bool)
    e_i, _ = _mc_expected(g, [v], IC, eta=g.n)
    n_sets = 8000
    _, rr = sample_pool(g, active, 1, IC, n_sets, 9, roots="rr")
    est = g.n * np.bincount(rr, minlength=g.n)[v] / n_sets
    assert est == pytest.approx(e_i, rel=0.15)


@pytest.mark.parametrize("model", [IC, LT])
def test_spark_pairs_shape(spark, small_cl_graph, model):
    g = small_cl_graph
    active = np.ones(g.n, bool)
    pairs = sample_sets_pairs(spark, g, active, 20, model, 40, seed=10)
    pdf = pairs.toPandas()
    assert set(pdf.columns) == {"set_id", "node"}
    assert pdf["set_id"].nunique() == 40
    assert sorted(pdf["set_id"].unique()) == list(range(40))
    assert pdf["node"].isin(range(g.n)).all()
    # No duplicate membership rows within a set.
    assert not pdf.duplicated(["set_id", "node"]).any()


def test_spark_coverage_vs_duckdb_oracle(spark, small_cl_graph):
    """The Spark venue's membership rows hold the driver pool's set
    sizes, and the SQL GROUP BY oracle over those rows gives Λ_R(v), the
    driver pool's ``bincount``."""
    g = small_cl_graph
    active = np.ones(g.n, bool)
    pdf = sample_sets_pairs(spark, g, active, 20, IC, 100, seed=11).toPandas()
    indptr, members = sample_pool(g, active, 20, IC, 100, 11, roots="mrr")
    np.testing.assert_array_equal(
        np.diff(indptr), np.bincount(pdf["set_id"], minlength=100)
    )
    cov = np.bincount(members, minlength=g.n)
    nodes = np.nonzero(cov)[0]
    got = spark.createDataFrame(pd.DataFrame({"node": nodes, "cov": cov[nodes]}))
    assert_equivalent(
        got, "SELECT node, count(*) AS cov FROM pairs GROUP BY node", pairs=pdf
    )


def test_spark_rejects_empty_active(spark, small_cl_graph):
    g = small_cl_graph
    with pytest.raises(ValueError):
        sample_sets_pairs(spark, g, np.zeros(g.n, bool), 5, IC, 10, seed=0)


@pytest.mark.parametrize(
    "case,match",
    [
        pytest.param("roots", "roots mode", id="roots"),
        pytest.param("empty", "no active", id="empty"),
        pytest.param("lt", "sum to", id="lt"),
    ],
)
@pytest.mark.parametrize("venue", ["local", "spark"])
def test_sample_pool_rejects_bad_input(spark, small_cl_graph, venue, case, match):
    """``sample_pool`` and the Spark venue ``sample_sets_pairs`` raise
    ValueError on the driver, before any job: for an unknown roots mode,
    an all-false active mask, and LT in-weights above 1 even at a node
    outside ``active``, which no BFS would reach."""
    g, active, model, roots = small_cl_graph, np.ones(small_cl_graph.n, bool), IC, "mrr"
    if case == "roots":
        roots = "xyz"
    elif case == "empty":
        active[:] = False
    else:
        # 0.8 + 0.8 into node 0: valid IC probabilities, no LT distribution.
        edges = pd.DataFrame({"src": [1, 2], "dst": [0, 0]})
        g = GraphCSR.from_edges(edges, n=3, probs=np.array([0.8, 0.8]))
        active, model = np.array([False, True, True]), LT
    with pytest.raises(ValueError, match=match):
        if venue == "spark":
            sample_sets_pairs(spark, g, active, 1, model, 4, 0, roots=roots)
        else:
            sample_pool(g, active, 1, model, 4, 0, roots=roots)
