"""Graph substrate: synthetic social networks, CSR storage, statistics.

The paper evaluates on four SNAP social networks with weighted-cascade
edge probabilities ``p(u, v) = 1/indeg(v)``. This package provides seeded
power-law substitutes at "lite" scale (see DESIGN.md §4), a CSR
representation shared by every sampler, and the graph statistics needed
for Table 2 (degree stats and the largest weakly connected component).
"""
