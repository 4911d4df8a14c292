"""The paper's primary contribution: TRIM (TRIM-B) and the ASTI loop.

- ``trim``    — Algorithm 3: a size-b batch via greedy max coverage over
  mRR sets with the OPIM-C-style doubling/stop rule, approximation
  ρ_b(1−1/e)(1−ε) with ρ_b = 1−(1−1/b)^b; b = 1 is Algorithm 2.
- ``greedy_max_coverage`` — the one greedy over a CSR pool, as returned
  by ``repro.sampling.mrr.sample_pool``.
- ``asti``    — Algorithm 1: the adaptive select/observe/update policy.
"""
