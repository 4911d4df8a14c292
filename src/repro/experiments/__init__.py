"""Evaluation harness reproducing the paper's §6 experiments.

``harness`` runs one (dataset, model, algorithm, threshold) cell over a
set of pre-sampled ground-truth realizations, mirroring the paper's
protocol ("randomly generate 20 possible realizations ... report the
average"); ``tables`` assembles Table 2, Table 3 and the figure-shaped
sweeps from those cell results.
"""
