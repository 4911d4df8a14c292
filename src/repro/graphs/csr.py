"""Compressed-sparse-row storage for probabilistic social networks.

One ``GraphCSR`` holds both adjacency directions plus the weighted-cascade
propagation probabilities, as flat numpy arrays — the shape every sampler
(forward diffusion, reverse RR/mRR BFS) consumes, and the payload we
broadcast to Spark executors so that ``mapInPandas`` tasks can traverse
the graph without shuffling edges.

Residual graphs are *not* materialized: samplers take a boolean
``active`` mask over nodes and skip inactive endpoints, which is
equivalent to traversing the induced subgraph (tested).
"""
from dataclasses import dataclass, field

import numpy as np
import pandas as pd
from pyspark.sql import SparkSession


def row_slots(indptr: np.ndarray, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(owner, slots)``: the CSR slots of ``rows`` (which may repeat or
    be empty), row after row, and for each slot the position in ``rows``
    of its row. Every CSR walk (both BFSs, LT picks, greedy) expands here."""
    lo = indptr[rows]
    deg = indptr[rows + 1] - lo
    owner = np.repeat(np.arange(len(rows)), deg)
    return owner, np.arange(len(owner)) + (lo - np.cumsum(deg) + deg)[owner]


@dataclass
class GraphCSR:
    """A directed graph with per-edge propagation probabilities in CSR form.

    Attributes
    ----------
    n, m : node / directed-edge counts.
    fwd_indptr, fwd_indices : out-adjacency, CSR over source node.
    fwd_probs : p(u, v) aligned with ``fwd_indices``.
    rev_indptr, rev_indices : in-adjacency, CSR over destination node.
    rev_probs : p(u, v) aligned with ``rev_indices``; under weighted
        cascade all in-edges of ``v`` share ``1/indeg(v)``.
    rev_cum : each node's running in-weight sums (``np.cumsum`` of its
        ``rev_probs`` slice, bit for bit), for LT live-edge choices.
    indeg, outdeg : degree arrays.
    """

    n: int
    m: int
    fwd_indptr: np.ndarray
    fwd_indices: np.ndarray
    fwd_probs: np.ndarray
    rev_indptr: np.ndarray
    rev_indices: np.ndarray
    rev_probs: np.ndarray
    rev_cum: np.ndarray
    indeg: np.ndarray
    outdeg: np.ndarray
    _bc: tuple = field(default=(None, None), repr=False)
    _kernel: tuple | None = field(default=None, repr=False)

    @staticmethod
    def from_edges(
        edges: pd.DataFrame,
        n: int | None = None,
        probs: np.ndarray | None = None,
        wc_scale: float = 1.0,
    ) -> "GraphCSR":
        """Build from a ``src``/``dst`` edge list.

        ``probs`` overrides the default weighted-cascade assignment
        ``p(u, v) = wc_scale/indeg(v)`` (aligned with the row order of
        ``edges``). ``wc_scale`` is the lite-scale damping documented in
        ``graphs.generator.DatasetSpec``. Raises ``ValueError`` if any
        edge probability falls outside [0, 1].
        """
        src = edges["src"].to_numpy(np.int64)
        dst = edges["dst"].to_numpy(np.int64)
        if n is None:
            n = int(max(src.max(), dst.max())) + 1 if len(src) else 0
        m = len(src)
        indeg = np.bincount(dst, minlength=n).astype(np.int64)
        outdeg = np.bincount(src, minlength=n).astype(np.int64)
        if probs is None:
            with np.errstate(divide="ignore"):
                p_edge = wc_scale / indeg[dst]
        else:
            p_edge = np.asarray(probs, dtype=np.float64)
        if not np.all((p_edge >= 0) & (p_edge <= 1)):
            raise ValueError("edge probabilities must lie in [0, 1]")
        # Forward CSR, sorted by src.
        order_f = np.argsort(src, kind="stable")
        fwd_indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(outdeg, out=fwd_indptr[1:])
        fwd_indices = dst[order_f]
        fwd_probs = p_edge[order_f]
        # Reverse CSR, sorted by dst.
        order_r = np.argsort(dst, kind="stable")
        rev_indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(indeg, out=rev_indptr[1:])
        rev_indices = src[order_r]
        rev_probs = p_edge[order_r]
        # Step k adds slot k − 1 into slot k of every node with more than k
        # in-edges: the left-to-right order np.cumsum adds in.
        rev_cum = rev_probs.copy()
        for k in range(1, int(indeg.max(initial=0))):
            slots = rev_indptr[:-1][indeg > k] + k
            rev_cum[slots] += rev_cum[slots - 1]
        return GraphCSR(
            n=n,
            m=m,
            fwd_indptr=fwd_indptr,
            fwd_indices=fwd_indices,
            fwd_probs=fwd_probs,
            rev_indptr=rev_indptr,
            rev_indices=rev_indices,
            rev_probs=rev_probs,
            rev_cum=rev_cum,
            indeg=indeg,
            outdeg=outdeg,
        )

    def edges_pdf(self) -> pd.DataFrame:
        """Edge list (src, dst, p) reconstructed from the forward CSR."""
        src = np.repeat(np.arange(self.n), np.diff(self.fwd_indptr))
        return pd.DataFrame(
            {"src": src, "dst": self.fwd_indices, "p": self.fwd_probs}
        )

    def out_neighbors(self, v: int) -> np.ndarray:
        return self.fwd_indices[self.fwd_indptr[v] : self.fwd_indptr[v + 1]]

    def in_neighbors(self, v: int) -> np.ndarray:
        return self.rev_indices[self.rev_indptr[v] : self.rev_indptr[v + 1]]

    def payload(self) -> dict:
        """What executors read: ``n``, the reverse CSR and its LT running
        sums (broadcast once)."""
        return {
            "n": self.n,
            "rev_indptr": self.rev_indptr,
            "rev_indices": self.rev_indices,
            "rev_probs": self.rev_probs,
            "rev_cum": self.rev_cum,
        }

    def kernel_graph(self) -> tuple:
        """``kernel.prepare(self.payload())``, the block kernel's view of
        this graph, built once and cached as ``broadcast`` caches its
        broadcast. It holds addresses, which mean nothing in another
        process: executors prepare the broadcast ``payload()``."""
        if self._kernel is None:
            from repro.sampling import kernel

            self._kernel = kernel.prepare(self.payload())
        return self._kernel

    def broadcast(self, spark: SparkSession):
        """Broadcast the CSR payload once per SparkContext and cache it.

        The cache holds the context itself, not its ``id``: a new context
        can reuse a stopped one's id, and its broadcast would be dead.
        """
        sc = spark.sparkContext
        if self._bc[0] is not sc:
            self._bc = (sc, sc.broadcast(self.payload()))
        return self._bc[1]
