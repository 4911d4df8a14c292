"""TRIM-B (paper Algorithm 3): greedy max coverage and batched selection."""
from itertools import combinations

import numpy as np
import pytest

from repro.core.trim import greedy_max_coverage, rho, trim
from repro.diffusion.realization import IC, LT
from tests.pools import csr_pool


def _greedy(sets, n, b):
    """Greedy picks and the number of sets they cover."""
    chosen, curve = greedy_max_coverage(*csr_pool(sets), n, b)
    return chosen, curve[-1] if curve else 0


def _brute_force_best(sets, n, b):
    best = 0
    for combo in combinations(range(n), b):
        covered = sum(1 for s in sets if any(v in combo for v in s.tolist()))
        best = max(best, covered)
    return best


@pytest.mark.parametrize("seed", range(8))
@pytest.mark.parametrize("b", [1, 2, 3])
def test_greedy_vs_brute_force(seed, b):
    """Greedy achieves ≥ ρ_b × optimal coverage on random instances."""
    rng = np.random.default_rng(seed)
    n = 8
    sets = [
        np.unique(rng.integers(0, n, size=rng.integers(1, 4)))
        for _ in range(25)
    ]
    chosen, covered = _greedy(sets, n, b)
    best = _brute_force_best(sets, n, b)
    assert covered >= rho(b) * best - 1e-9
    assert len(chosen) == len(set(chosen)) <= b


def test_greedy_first_pick_is_max_coverage():
    sets = [np.array([0]), np.array([0, 1]), np.array([2])]
    chosen, covered = _greedy(sets, 3, 1)
    assert chosen == [0]
    assert covered == 2


def test_greedy_stops_when_everything_covered():
    sets = [np.array([1]), np.array([1, 2])]
    chosen, covered = _greedy(sets, 5, 4)
    assert covered == 2
    assert len(chosen) <= 2  # no pointless zero-gain picks


def test_greedy_empty_sets():
    chosen, covered = _greedy([], 5, 2)
    assert chosen == [] and covered == 0


def _reference_greedy(sets, n, k):
    """From-scratch greedy: recount every node's gain per pick, lowest id
    wins ties, stop at zero gain."""
    covered = [False] * len(sets)
    picks, curve = [], []
    for _ in range(min(k, n)):
        gains = [
            sum(1 for si, s in enumerate(sets) if not covered[si] and v in s.tolist())
            for v in range(n)
        ]
        best = max(gains)
        if best <= 0:
            break
        v = gains.index(best)
        for si, s in enumerate(sets):
            if v in s.tolist():
                covered[si] = True
        picks.append(v)
        curve.append(sum(covered))
    return picks, curve


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("k", [1, 4, None])
def test_greedy_matches_reference_with_ties(seed, k):
    """Same picks and curve as the reference on pools with tied counts
    (k=None runs to exhaustion, as ATEUC does)."""
    rng = np.random.default_rng(100 + seed)
    n = 12
    sets = [
        np.unique(rng.integers(0, n, size=rng.integers(1, 4)))
        for _ in range(40)
    ]
    k = n if k is None else k
    picks, curve = greedy_max_coverage(*csr_pool(sets), n, k)
    assert (picks, curve) == _reference_greedy(sets, n, k)


def _brute_greedy(indptr, members, n, k):
    """Greedy by a full recount per pick: every node's gain is the number
    of uncovered sets holding it; lowest id wins ties, stop at zero
    gain."""
    set_of = np.repeat(np.arange(len(indptr) - 1), np.diff(indptr))
    covered = np.zeros(len(indptr) - 1, dtype=bool)
    picks, curve = [], []
    for _ in range(k):
        gains = np.bincount(members[~covered[set_of]], minlength=n)
        v = int(gains.argmax())
        if gains[v] == 0:
            break
        covered[set_of[members == v]] = True
        picks.append(v)
        curve.append(int(covered.sum()))
    return picks, curve


@pytest.mark.parametrize("seed", range(3))
def test_greedy_past_16_bit_node_ids(seed):
    """On n = 200,003 nodes, where the node→sets index sorts on two 16-bit
    halves, the picks and curve equal a full-recount greedy's, with ties
    between nodes that share their low 16 bits."""
    rng = np.random.default_rng(seed)
    n = 200_003
    # Hubs 2^16 apart share their low half, so the two sorts must agree.
    hubs = np.array([5, 5 + (1 << 16), 5 + (2 << 16), n - 1, 70_000])
    sets = [
        np.unique(np.concatenate([rng.integers(0, n, rng.integers(1, 6)),
                                  rng.choice(hubs, rng.integers(0, 3))]))
        for _ in range(3000)
    ]
    indptr, members = csr_pool(sets)
    picks, curve = greedy_max_coverage(indptr, members, n, 40)
    assert (picks, curve) == _brute_greedy(indptr, members, n, 40)
    assert max(picks) >= 1 << 16


@pytest.mark.parametrize("b", [2, 4])
@pytest.mark.parametrize("model", [IC, LT])
def test_trim_b_returns_b_active_nodes(small_cl_graph, b, model):
    g = small_cl_graph
    active = np.ones(g.n, bool)
    active[:30] = False
    res = trim(g, active, 20, model, eps=0.5, seed=1, b=b)
    assert len(res.nodes) == b
    assert len(set(res.nodes)) == b
    assert all(active[v] for v in res.nodes)


def test_trim_b_b1_matches_trim_choice_on_ex23(ex23_graph):
    # Same admissible set as TRIM (see test_trim_guarantee_on_ex23).
    res = trim(ex23_graph, np.ones(4, bool), 2, IC, eps=0.1, seed=2, b=1)
    assert res.nodes[0] in (0, 1, 2)


def test_trim_b_bookkeeping(small_cl_graph):
    g = small_cl_graph
    res = trim(g, np.ones(g.n, bool), 15, IC, eps=0.5, seed=3, b=4)
    assert res.n_sets > 0 and res.iterations >= 1
    assert 0 <= res.coverage <= res.n_sets
    assert res.est_truncated_spread == pytest.approx(15 * res.coverage / res.n_sets)


def test_trim_b_caps_batch_at_residual_size(small_cl_graph):
    g = small_cl_graph
    active = np.zeros(g.n, bool)
    active[:3] = True
    res = trim(g, active, 3, IC, eps=0.5, seed=4, b=8)
    assert len(res.nodes) == 3
    assert all(active[v] for v in res.nodes)


def test_trim_b_empty_residual_raises(small_cl_graph):
    with pytest.raises(ValueError):
        trim(small_cl_graph, np.zeros(small_cl_graph.n, bool), 5, IC, 0.5, 0, b=2)


def test_trim_b_padding_when_coverage_exhausted(line_graph):
    """On a tiny graph where few nodes cover everything, the batch is
    padded with high-out-degree active nodes rather than short-changed."""
    g = line_graph
    res = trim(g, np.ones(g.n, bool), 2, IC, eps=0.5, seed=5, b=4)
    assert len(res.nodes) == 4
    assert len(set(res.nodes)) == 4
