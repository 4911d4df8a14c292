"""Influence propagation: reachability over a realization's live edges.

``spread_local`` is the one forward BFS, over the forward CSR and the
realization's live-edge mask (the same for IC and LT), vectorized one
frontier level at a time. The adaptive
harness uses it to *observe* a batch's actual influence (paper Alg. 1
line 4); it supports an ``active`` mask so observation is restricted to
still-inactive nodes, which is provably equivalent to full-graph
live-edge reachability when the previously activated nodes are exactly
the previously reached ones (tested in tests/test_propagate.py, where a
DuckDB ``WITH RECURSIVE`` closure is the independent reference).
"""
from itertools import product

import numpy as np

from repro.diffusion.realization import IC, Realization
from repro.graphs.csr import row_slots


def truncated(spread: int, eta: int) -> int:
    """Γ = min{I, η} (paper Def. 2.2)."""
    return min(int(spread), int(eta))


def spread_local(
    real: Realization,
    seeds,
    active: np.ndarray | None = None,
) -> np.ndarray:
    """Nodes reached from ``seeds`` via live edges, as a sorted int array.

    ``active`` restricts traversal to a node subset (the residual graph);
    seeds outside the mask are ignored and seeds may repeat. The returned
    array includes the (active) seeds themselves.
    """
    g = real.graph
    if active is None:
        active = np.ones(g.n, dtype=bool)
    seeds = np.asarray(seeds, dtype=np.int64)
    frontier = np.unique(seeds[active[seeds]])
    visited = np.zeros(g.n, dtype=bool)
    visited[frontier] = True
    while len(frontier):
        slots = row_slots(g.fwd_indptr, frontier)[1]
        v = g.fwd_indices[slots[real.live_fwd[slots]]]
        frontier = np.unique(v[active[v] & ~visited[v]])
        visited[frontier] = True
    return np.nonzero(visited)[0]


def exact_expected_spread(g, seeds, model: str = IC, *, eta: int | None = None) -> float:
    """E[I(S)], or E[Γ(S)] = E[min{I(S), η}] given ``eta``, exactly.

    Enumerates all 2^m realizations (tiny graphs only). Used as a test
    oracle for sampler unbiasedness and the paper's Example 2.3. IC only;
    m must be small (≤ ~16).
    """
    if model != IC:
        raise ValueError("exact enumeration implemented for IC only")
    if g.m > 16:
        raise ValueError("graph too large for exact enumeration")
    total = 0.0
    for bits in product([False, True], repeat=g.m):
        live = np.array(bits, dtype=bool)
        p = np.prod(np.where(live, g.fwd_probs, 1.0 - g.fwd_probs))
        real = Realization(graph=g, model=IC, live_fwd=live)
        spread = len(spread_local(real, seeds))
        total += p * (spread if eta is None else truncated(spread, eta))
    return float(total)
