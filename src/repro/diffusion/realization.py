"""Live-edge realizations of a probabilistic social network (paper §2.1).

A realization φ fixes the status of every edge, and both models store
it the same way: one live flag per forward-CSR edge slot.

- **IC**: each directed edge ⟨u, v⟩ is live independently with
  probability p(u, v).
- **LT**: each node v keeps at most one live in-edge, edge ⟨u, v⟩ with
  probability p(u, v) and none with the leftover mass 1 − Σ_u p(u, v);
  under weighted cascade the in-weights of v sum to 1 (each is
  1/indeg(v)), so every node with indeg > 0 keeps one. ``lt_pick``, the
  one rule shared with the reverse mRR/RR BFS, keeps in-edge j for a draw
  r_v when j of the running in-weight sums (``GraphCSR.rev_cum``) are
  ≤ r_v. ``check_lt`` rejects in-weights that sum to more than 1.

Spread under φ is then plain reachability over live edges, which is the
classic live-edge equivalence of both models (Kempe et al.).
"""
from dataclasses import dataclass

import numpy as np
import pandas as pd

from repro.graphs.csr import GraphCSR, row_slots

IC = "IC"
LT = "LT"


def check_lt(g: GraphCSR) -> None:
    """Raise ``ValueError`` if a node's in-weights sum to more than 1; an
    LT-only check, since IC's may (Example 2.3's v4)."""
    totals = g.rev_cum[g.rev_indptr[1:][g.indeg > 0] - 1]
    if (totals > 1 + 1e-9).any():
        raise ValueError(f"LT in-weights sum to {totals.max()} > 1")


def lt_pick(rev_indptr, rev_cum, nodes, r) -> tuple[np.ndarray, np.ndarray]:
    """``(keep, slots)``: the positions in ``nodes`` that keep an LT live
    in-edge and the reverse-CSR slot each keeps. ``nodes[i]`` keeps in-edge
    j when j of its running sums are ≤ ``r[i]`` (none when all are), compared
    in its own slots only, so even in-weights summing to 1 + ε pick there."""
    owner, slots = row_slots(rev_indptr, nodes)
    j = np.bincount(owner[rev_cum[slots] <= r[owner]], minlength=len(nodes))
    keep = np.nonzero(j < rev_indptr[nodes + 1] - rev_indptr[nodes])[0]
    return keep, rev_indptr[nodes[keep]] + j[keep]


@dataclass
class Realization:
    """One sampled φ; ``model`` is ``"IC"`` or ``"LT"``."""

    graph: GraphCSR
    model: str
    # Live flag per forward-CSR edge slot.
    live_fwd: np.ndarray

    def live_edges_pdf(self) -> pd.DataFrame:
        """The live directed edges of φ as a src/dst frame (for oracles)."""
        edges = self.graph.edges_pdf()[["src", "dst"]]
        return edges[self.live_fwd].reset_index(drop=True)

    def is_live(self, u: int, v: int) -> bool:
        """Status of edge ⟨u, v⟩ under φ (edge must exist in the graph)."""
        g = self.graph
        lo, hi = g.fwd_indptr[u], g.fwd_indptr[u + 1]
        slots = np.nonzero(g.fwd_indices[lo:hi] == v)[0]
        if len(slots) == 0:
            raise KeyError(f"edge ({u}, {v}) not in graph")
        return bool(self.live_fwd[lo + slots[0]])


def sample_realization(g: GraphCSR, model: str, seed: int) -> Realization:
    """Draw φ ~ Ω with a fixed seed (the harness's hidden ground truth)."""
    rng = np.random.default_rng(seed)
    if model == IC:
        return Realization(graph=g, model=IC, live_fwd=rng.random(g.m) < g.fwd_probs)
    if model == LT:
        check_lt(g)
        keep, slots = lt_pick(g.rev_indptr, g.rev_cum, np.arange(g.n), rng.random(g.n))
        chosen = np.full(g.n, -1, dtype=np.int64)
        chosen[keep] = g.rev_indices[slots]
        src_of_slot = np.repeat(np.arange(g.n), g.outdeg)
        return Realization(
            graph=g, model=LT, live_fwd=chosen[g.fwd_indices] == src_of_slot
        )
    raise ValueError(f"unknown model {model!r}")
