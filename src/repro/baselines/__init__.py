"""Comparator algorithms from the paper's evaluation (§6.1).

- ``ateuc``    — the non-adaptive seed-minimization state of the art
  [Han et al. 2017], rebuilt from this paper's description (closed
  source; see DESIGN.md §3 for the reconstruction).
- ``adaptim``  — ADAPTIM-1 [Han et al. 2018] modified for seed
  minimization: the ASTI loop but greedily maximizing *untruncated*
  marginal spread with single-root RR sets.

Both sample on the driver through ``repro.sampling.mrr.sample_pool``
and select through ``repro.core.trim``: ADAPTIM calls
``trim(roots="rr")`` (δ = 1/max(2, n_i)); ATEUC grows an RR pool with
``doubling_pools``, the doubling rule TRIM uses, and runs
``greedy_max_coverage`` to exhaustion. Each keeps a
``spark`` first parameter, unused, as ``asti`` does.
"""
