"""Sampling substrate: RR sets, mRR sets, and concentration bounds.

The paper's sampling contribution is the multi-root reverse reachable
(mRR) set (§3.3): a reverse stochastic BFS from ``k`` uniformly chosen
roots where ``k`` is randomized-rounded so ``E[k] = n/η``, giving the
binary estimator ``Γ̃(S) = η·1[S ∩ R ≠ ∅]`` the Theorem 3.3 sandwich
``(1−1/e)·E[Γ(S)] ≤ E[Γ̃(S)] ≤ E[Γ(S)]``. Single-root RR sets (Borgs et
al.) for the ATEUC/ADAPTIM baselines are the ``roots="rr"`` mode of the
same sampler. ``repro.sampling.mrr.sample_pool`` is the one sampler entry
point: it checks its inputs, draws the sets on the driver and returns
them as one CSR pool ``(indptr, members)``.
"""
