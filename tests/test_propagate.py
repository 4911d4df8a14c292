"""Influence propagation: the frontier BFS against the scalar BFS it
replaced and a DuckDB recursive oracle."""
import numpy as np
import pandas as pd
import pytest

from repro.diffusion.propagate import exact_expected_spread, spread_local, truncated
from repro.diffusion.realization import IC, LT, Realization, sample_realization
from repro.oracle import assert_equivalent


def _reference_spread(real, seeds, active=None):
    """The scalar forward BFS: one Python step per node and live edge."""
    g = real.graph
    if active is None:
        active = np.ones(g.n, dtype=bool)
    visited = np.zeros(g.n, dtype=bool)
    frontier = [int(s) for s in seeds if active[int(s)] and not visited[int(s)]]
    for s in frontier:
        visited[s] = True
    while frontier:
        nxt = []
        for u in frontier:
            lo, hi = g.fwd_indptr[u], g.fwd_indptr[u + 1]
            for v in g.fwd_indices[lo:hi][real.live_fwd[lo:hi]].tolist():
                if active[v] and not visited[v]:
                    visited[v] = True
                    nxt.append(v)
        frontier = nxt
    return np.nonzero(visited)[0]


def _all_live(g):
    return Realization(graph=g, model=IC, live_fwd=np.ones(g.m, bool))


def test_line_reachability(line_graph):
    real = _all_live(line_graph)
    assert spread_local(real, [0]).tolist() == [0, 1, 2, 3, 4]
    assert spread_local(real, [2]).tolist() == [2, 3, 4]
    assert spread_local(real, [4]).tolist() == [4]


def test_multi_seed_union(line_graph):
    real = _all_live(line_graph)
    assert spread_local(real, [0, 3]).tolist() == [0, 1, 2, 3, 4]


def test_blocked_edges_stop_spread(line_graph):
    live = np.array([True, False, True, True])  # 1→2 blocked
    real = Realization(graph=line_graph, model=IC, live_fwd=live)
    assert spread_local(real, [0]).tolist() == [0, 1]
    assert spread_local(real, [2]).tolist() == [2, 3, 4]


def test_active_mask_restricts(line_graph):
    real = _all_live(line_graph)
    active = np.array([True, True, False, True, True])
    # Node 2 inactive: the walk cannot pass through it.
    assert spread_local(real, [0], active).tolist() == [0, 1]
    # Inactive seeds are ignored entirely.
    assert spread_local(real, [2], active).tolist() == []


@pytest.mark.parametrize("graph", ["small_cl_graph", "nethept_graph"])
@pytest.mark.parametrize("model", [IC, LT])
def test_spread_local_matches_reference_bfs(request, graph, model):
    """The frontier BFS reaches exactly the scalar BFS's nodes, with and
    without a random ``active`` mask, from seed lists with duplicates,
    inactive seeds, no seed and every node."""
    g = request.getfixturevalue(graph)
    rng = np.random.default_rng(5)
    for r in range(3):
        real = sample_realization(g, model, r)
        active = rng.random(g.n) < 0.7
        inactive = np.nonzero(~active)[0]
        seed_lists = [
            [],
            list(range(g.n)),
            rng.integers(g.n, size=5).tolist() * 2,
            [int(inactive[0]), *rng.integers(g.n, size=3).tolist(), int(inactive[-1])],
        ]
        for seeds in seed_lists:
            for mask in (None, active):
                want = _reference_spread(real, seeds, mask)
                np.testing.assert_array_equal(spread_local(real, seeds, mask), want)


@pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
def test_adaptive_observation_equivalence(small_cl_graph, seed):
    """Observing batch 2 among nodes not reached by batch 1 equals
    full-graph reachability of batch1 ∪ batch2 — the correctness basis
    of ASTI's residual-graph observation step (DESIGN.md §3)."""
    g = small_cl_graph
    real = sample_realization(g, IC, seed)
    s1, s2 = [3], [7]
    r1 = spread_local(real, s1)
    active = np.ones(g.n, bool)
    active[r1] = False
    r2 = spread_local(real, s2, active)
    joint = spread_local(real, s1 + s2)
    assert set(r1) | set(r2) == set(joint.tolist())
    assert len(set(r1) & set(r2)) == 0


@pytest.mark.parametrize("seed", [10, 11])
def test_adaptive_observation_equivalence_lt(small_cl_graph, seed):
    g = small_cl_graph
    real = sample_realization(g, LT, seed)
    r1 = spread_local(real, [1])
    active = np.ones(g.n, bool)
    active[r1] = False
    r2 = spread_local(real, [2], active)
    joint = spread_local(real, [1, 2])
    assert set(r1) | set(r2) == set(joint.tolist())


def test_truncated_identity():
    # Γ = min{I, η} (Def. 2.2 / Eq. 5).
    assert truncated(7, 5) == 5
    assert truncated(3, 5) == 3
    assert truncated(5, 5) == 5


@pytest.mark.parametrize("seed", [42, 43, 44])
@pytest.mark.parametrize("model", [IC, LT])
def test_spread_local_duckdb_recursive_oracle(small_cl_graph, model, seed):
    """The forward BFS vs a DuckDB WITH RECURSIVE transitive closure over
    the realization's live edges."""
    real = sample_realization(small_cl_graph, model, seed)
    live = real.live_edges_pdf()
    seeds = pd.DataFrame({"node": [0, 5]})
    got = pd.DataFrame({"node": spread_local(real, [0, 5])})
    sql = """
        WITH RECURSIVE reach(node) AS (
            SELECT node FROM seeds
            UNION
            SELECT e.dst FROM live e JOIN reach r ON e.src = r.node
        )
        SELECT node FROM reach
    """
    assert_equivalent(got, sql, live=live, seeds=seeds)


def test_exact_expected_spread_example23(ex23_graph):
    """Paper Example 2.3: E[I(v1)] = 2.75 beats all others."""
    vals = [exact_expected_spread(ex23_graph, [v]) for v in range(4)]
    assert vals[0] == pytest.approx(2.75)
    assert vals[1] == pytest.approx(2.0)
    assert vals[2] == pytest.approx(2.0)
    assert vals[3] == pytest.approx(1.0)
    assert np.argmax(vals) == 0


def test_exact_expected_truncated_example23(ex23_graph):
    """Paper Example 2.3: E[Γ] = (1.75, 2, 2, 1) with η = 2, so the
    truncated-greedy choice is v2 or v3, not v1."""
    vals = [exact_expected_spread(ex23_graph, [v], eta=2) for v in range(4)]
    assert vals == pytest.approx([1.75, 2.0, 2.0, 1.0])
    assert np.argmax(vals) in (1, 2)


def test_exact_enumeration_guards(ex23_graph):
    with pytest.raises(ValueError):
        exact_expected_spread(ex23_graph, [0], model=LT)
