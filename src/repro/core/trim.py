"""TRIM — Truncated Influence Maximization (paper Algorithms 2 and 3).

``trim`` selects a size-b batch with (approximately) maximum expected
marginal *truncated* spread on the residual graph: greedy max coverage
over mRR sets, an OPIM-C-style doubling schedule and the Lemma A.2
stopping rule. That is TRIM-B (Algorithm 3), approximation
ρ_b(1−1/e)(1−ε); with b = 1 the schedule reduces exactly (ρ₁ = 1,
ln C(n,1) = ln n) and greedy to argmax, which is TRIM (Algorithm 2).

Every selector samples through ``repro.sampling.mrr.sample_pool`` (the
one sampler entry point, which draws on the driver and returns the sets
as a CSR pool ``(indptr, members)``), grows its pool by
``doubling_pools`` there when it doubles, and selects through
``greedy_max_coverage`` here, the one greedy over such a pool.

ADAPTIM's per-round selection is ``trim(roots="rr")``: single-root RR
sets and δ = 1/max(2, n_i); ATEUC runs the greedy to exhaustion over an
RR pool (baselines/).
"""
import math
from dataclasses import dataclass

import numpy as np

from repro.graphs.csr import GraphCSR, row_slots
from repro.sampling.bounds import coverage_lower_bound, coverage_upper_bound
from repro.sampling.mrr import Seed, doubling_pools


def ln_choose(n: int, b: int) -> float:
    """ln C(n, b) via lgamma (b=1 reduces to ln n)."""
    return (
        math.lgamma(n + 1) - math.lgamma(b + 1) - math.lgamma(n - b + 1)
    )


def rho(b: int) -> float:
    """Greedy max-coverage ratio ρ_b = 1 − (1 − 1/b)^b (ρ₁ = 1)."""
    return 1.0 - (1.0 - 1.0 / b) ** b


@dataclass(frozen=True)
class TrimSchedule:
    """The sample-size schedule of Algorithms 2/3 (lines 1–5)."""

    delta: float
    eps_hat: float
    theta_max: float
    theta_o: int
    T: int
    a1: float
    a2: float

    @staticmethod
    def build(n_i: int, eta_i: int, eps: float, *, b: int = 1, roots: str = "mrr") -> "TrimSchedule":
        if roots == "rr":
            # ADAPTIM's untruncated objective: the OPIM-C failure budget
            # 1/n_i (Algorithm 2's truncation-aware δ does not apply).
            delta = 1.0 / max(2, n_i)
        else:
            delta = eps / (100.0 * (1.0 - 1.0 / math.e) * (1.0 - eps) * eta_i)
        eps_hat = 99.0 * eps / (100.0 - eps)
        rb = rho(b)
        lnc = ln_choose(n_i, b)
        theta_max = (
            2.0
            * n_i
            * (
                math.sqrt(math.log(6.0 / delta))
                + math.sqrt((lnc + math.log(6.0 / delta)) / rb)
            )
            ** 2
            / (b * eps_hat**2)
        )
        theta_o = max(1, int(math.ceil(theta_max * b * eps_hat**2 / n_i)))
        T = int(math.ceil(math.log2(theta_max / theta_o))) + 1
        a1 = math.log(3.0 * T / delta) + lnc
        a2 = math.log(3.0 * T / delta)
        return TrimSchedule(
            delta=delta,
            eps_hat=eps_hat,
            theta_max=theta_max,
            theta_o=theta_o,
            T=T,
            a1=a1,
            a2=a2,
        )


def greedy_max_coverage(
    indptr: np.ndarray, members: np.ndarray, n: int, k: int
) -> tuple[list[int], list[int]]:
    """Greedy max coverage over a CSR pool: ``(picks, curve)``.

    ``curve[j]`` is the number of sets covered by ``picks[:j + 1]``. Ties
    go to the lowest node id; picking stops after ``k`` nodes or once no
    node covers an uncovered set. ``counts[v]`` is the number of
    uncovered sets holding v: each pick decrements it for the members of
    the sets it newly covers, through a node→sets index, so a pick costs
    one argmax plus the size of those sets. The index is built only when
    a second pick follows, so k = 1 is a plain argmax.
    """
    counts = np.bincount(members, minlength=n)
    picks: list[int] = []
    curve: list[int] = []
    covered = None
    for _ in range(min(k, n)):
        v = int(counts.argmax())
        if counts[v] <= 0:
            break
        picks.append(v)
        curve.append((curve[-1] if curve else 0) + int(counts[v]))
        if len(picks) == k:
            break
        if covered is None:  # counts are still the initial ones here
            # The set holding each member position, grouped by node (any
            # order within a node works): numpy's stable sort of uint16
            # keys is a linear radix sort, so when node ids pass 16 bits
            # (n > 65,536) the members are sorted on their low half, then
            # stably on their high half (an LSD radix sort; node ids fit
            # 32 bits). No benchmarked workload has such ids: the lite
            # graphs have at most 4,000 nodes.
            set_of = np.repeat(np.arange(len(indptr) - 1), np.diff(indptr))
            by_node = np.argsort(members.astype(np.uint16), kind="stable")
            if n > 1 << 16:
                high = (members[by_node] >> 16).astype(np.uint16)
                by_node = by_node[np.argsort(high, kind="stable")]
            node_sets = set_of[by_node]
            node_ptr = np.concatenate([[0], np.cumsum(counts)]).tolist()
            covered = np.zeros(len(indptr) - 1, dtype=bool)
        sets_v = node_sets[node_ptr[v] : node_ptr[v + 1]]
        new = sets_v[~covered[sets_v]]
        covered[new] = True
        np.subtract.at(counts, members[row_slots(indptr, new)[1]], 1)
    return picks, curve


@dataclass
class TrimResult:
    """Outcome of one TRIM round."""

    nodes: list[int]
    coverage: int
    n_sets: int
    iterations: int
    est_truncated_spread: float  # η_i · Λ_R(S_b)/|R|


def trim(
    g: GraphCSR,
    active: np.ndarray,
    eta_i: int,
    model: str,
    eps: float,
    seed: Seed,
    *,
    b: int = 1,
    roots: str = "mrr",
) -> TrimResult:
    """One round of Algorithm 3 (b = 1: Algorithm 2) on the residual graph.

    ``roots="rr"`` turns this into ADAPTIM's per-round untruncated
    selection: single-root RR sets and δ = 1/max(2, n_i) (coverage logic
    is identical; only the sampler, δ and the estimator scale differ).
    The round reads one stream, ``seed``: iteration ``t`` holds its
    first θ_t = θ_o·2^(t−1) sets (``doubling_pools``).
    """
    n_i = int(active.sum())
    if n_i == 0:
        raise ValueError("empty residual graph")
    eta_i = min(eta_i, n_i)
    b = min(b, n_i)
    sched = TrimSchedule.build(n_i, eta_i, eps, b=b, roots=roots)
    rb = rho(b)
    pools = doubling_pools(g, active, eta_i, model, sched.theta_o, seed, roots=roots)
    for t, (n_sets, pool) in enumerate(pools, start=1):
        nodes, curve = greedy_max_coverage(*pool, g.n, b)
        lam = curve[-1] if curve else 0
        lam_l = coverage_lower_bound(lam, sched.a1)
        lam_u = coverage_upper_bound(lam / rb, sched.a2)
        if (lam_u > 0 and lam_l / lam_u >= rb * (1.0 - sched.eps_hat)) or t == sched.T:
            # Pad with highest-degree unpicked active nodes if greedy ran
            # out of coverable sets before filling the batch.
            if len(nodes) < b:
                for v in np.argsort(-g.outdeg).tolist():
                    if active[v] and v not in nodes:
                        nodes.append(int(v))
                        if len(nodes) == b:
                            break
            return TrimResult(
                nodes=nodes,
                coverage=lam,
                n_sets=n_sets,
                iterations=t,
                est_truncated_spread=eta_i * lam / n_sets,
            )
