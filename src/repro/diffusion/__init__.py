"""Diffusion substrate: live-edge realizations and influence propagation.

Implements the paper's §2.1: the IC and LT models via their live-edge
equivalents (``realization``: one live flag per forward-CSR edge slot
for either model), plus forward reachability (``propagate``: one local
CSR BFS, used inside the adaptive loop and by the harness).
"""
