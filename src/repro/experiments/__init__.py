"""Evaluation harness reproducing the paper's §6 experiments.

``harness`` runs one (dataset, model, algorithm, threshold) cell over a
set of pre-sampled ground-truth realizations, mirroring the paper's
protocol ("randomly generate 20 possible realizations ... report the
average"); ``tables.runs`` loops over cells into one runs frame (one row
per realization), and Table 3 and the figure-shaped sweeps are pandas
views of it (Table 2 is computed from the graphs).
"""
