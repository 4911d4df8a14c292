"""Influence propagation: reachability over a realization's live edges.

``spread_local`` is the one forward BFS, over the forward CSR and the
realization's live-edge mask (the same for IC and LT). The adaptive
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
    seeds outside the mask are ignored. The returned array includes the
    (active) seeds themselves.
    """
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
