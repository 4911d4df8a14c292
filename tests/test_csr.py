"""Tests for the CSR graph representation (DESIGN.md S1)."""
from types import SimpleNamespace

import numpy as np
import pandas as pd
import pytest

from repro.graphs.csr import GraphCSR, row_slots
from repro.graphs.generator import DATASETS, dataset_csr


@pytest.fixture(scope="module")
def diamond():
    """0→1, 0→2, 1→3, 2→3 with default WC probabilities."""
    edges = pd.DataFrame({"src": [0, 0, 1, 2], "dst": [1, 2, 3, 3]})
    return GraphCSR.from_edges(edges, n=4)


def test_counts(diamond):
    assert diamond.n == 4
    assert diamond.m == 4


def test_degrees(diamond):
    np.testing.assert_array_equal(diamond.outdeg, [2, 1, 1, 0])
    np.testing.assert_array_equal(diamond.indeg, [0, 1, 1, 2])


def test_forward_adjacency(diamond):
    assert sorted(diamond.out_neighbors(0).tolist()) == [1, 2]
    assert diamond.out_neighbors(1).tolist() == [3]
    assert diamond.out_neighbors(3).tolist() == []


def test_reverse_adjacency(diamond):
    assert sorted(diamond.in_neighbors(3).tolist()) == [1, 2]
    assert diamond.in_neighbors(0).tolist() == []


def test_wc_probabilities(diamond):
    # p(u, v) = 1/indeg(v): edges into 3 carry 1/2, into 1 and 2 carry 1.
    pdf = diamond.edges_pdf()
    got = {(r.src, r.dst): r.p for r in pdf.itertuples()}
    assert got[(0, 1)] == 1.0 and got[(0, 2)] == 1.0
    assert got[(1, 3)] == 0.5 and got[(2, 3)] == 0.5


def test_wc_scale():
    edges = pd.DataFrame({"src": [0, 0], "dst": [1, 2]})
    g = GraphCSR.from_edges(edges, n=3, wc_scale=0.25)
    assert set(g.fwd_probs.tolist()) == {0.25}


def test_explicit_probs_override():
    edges = pd.DataFrame({"src": [0, 1], "dst": [1, 2]})
    g = GraphCSR.from_edges(edges, n=3, probs=np.array([0.9, 0.1]))
    pdf = g.edges_pdf()
    got = {(r.src, r.dst): r.p for r in pdf.itertuples()}
    assert got[(0, 1)] == 0.9 and got[(1, 2)] == 0.1


def test_edges_pdf_round_trip(diamond):
    pdf = diamond.edges_pdf()[["src", "dst"]].sort_values(["src", "dst"])
    expected = pd.DataFrame({"src": [0, 0, 1, 2], "dst": [1, 2, 3, 3]})
    pd.testing.assert_frame_equal(pdf.reset_index(drop=True), expected)


def test_payload_keys(diamond):
    # Executors only run the reverse BFS, so only the reverse CSR and its
    # LT running sums ship.
    assert set(diamond.payload()) == {"n", "rev_indptr", "rev_indices", "rev_probs", "rev_cum"}


def zero_indeg_graph():
    """Nodes 0, 2 and 5 have no in-edges; node 4's in-weights 0.1, 0.2,
    0.3 sum differently in another order of addition."""
    edges = pd.DataFrame({"src": [0, 2, 5, 1, 3], "dst": [1, 4, 4, 3, 4]})
    return GraphCSR.from_edges(edges, n=6, probs=np.array([0.7, 0.1, 0.2, 0.9, 0.3]))


@pytest.mark.parametrize("name", [*DATASETS, "zero_indeg"])
def test_rev_cum_is_cumsum_per_node(name):
    g = zero_indeg_graph() if name == "zero_indeg" else dataset_csr(name)
    for v in range(g.n):
        lo, hi = g.rev_indptr[v], g.rev_indptr[v + 1]
        assert g.rev_cum[lo:hi].tobytes() == np.cumsum(g.rev_probs[lo:hi]).tobytes()


@pytest.mark.parametrize(
    "rows",
    [[], [0, 2, 5], [4, 4, 1, 4], [1, 3, 4, 0, 2, 5], [0, 0], [4]],
    ids=["empty", "zero_degree", "repeated", "all", "zero_degree_repeated", "one"],
)
def test_row_slots_concatenates_row_ranges(rows):
    """``row_slots`` equals the row ranges ``indptr[r] … indptr[r + 1] − 1``
    laid end to end, each slot owned by its row's position in ``rows``."""
    indptr = zero_indeg_graph().rev_indptr
    rows = np.asarray(rows, dtype=np.int64)
    owner, slots = row_slots(indptr, rows)
    ranges = [np.arange(indptr[r], indptr[r + 1]) for r in rows]
    want_slots = np.concatenate(ranges + [np.zeros(0, np.int64)])
    want_owner = np.concatenate(
        [np.full(len(s), i) for i, s in enumerate(ranges)] + [np.zeros(0, np.int64)]
    )
    np.testing.assert_array_equal(slots, want_slots)
    np.testing.assert_array_equal(owner, want_owner)


@pytest.mark.parametrize("probs", [[0.5, 1.5], [-0.1, 0.5], [np.nan, 0.5]])
def test_rejects_explicit_probs_outside_unit_interval(probs):
    edges = pd.DataFrame({"src": [0, 1], "dst": [1, 2]})
    with pytest.raises(ValueError, match=r"\[0, 1\]"):
        GraphCSR.from_edges(edges, n=3, probs=np.array(probs))


def test_rejects_wc_scale_above_one():
    # Node 1 has a single in-edge, so its WC probability is wc_scale itself.
    edges = pd.DataFrame({"src": [0, 0], "dst": [1, 2]})
    with pytest.raises(ValueError, match=r"\[0, 1\]"):
        GraphCSR.from_edges(edges, n=3, wc_scale=1.5)


@pytest.mark.parametrize("name", list(DATASETS))
def test_fwd_rev_edge_multisets_agree(name):
    g = dataset_csr(name)
    src_f = np.repeat(np.arange(g.n), np.diff(g.fwd_indptr))
    fwd = set(zip(src_f.tolist(), g.fwd_indices.tolist()))
    dst_r = np.repeat(np.arange(g.n), np.diff(g.rev_indptr))
    rev = set(zip(g.rev_indices.tolist(), dst_r.tolist()))
    assert fwd == rev
    assert len(fwd) == g.m


@pytest.mark.parametrize("name", list(DATASETS))
def test_indptr_monotone(name):
    g = dataset_csr(name)
    assert (np.diff(g.fwd_indptr) >= 0).all()
    assert (np.diff(g.rev_indptr) >= 0).all()
    assert g.fwd_indptr[-1] == g.m and g.rev_indptr[-1] == g.m


def test_broadcast_cached(spark, diamond):
    b1 = diamond.broadcast(spark)
    b2 = diamond.broadcast(spark)
    assert b1 is b2
    assert b1.value["n"] == 4


class _StubContext:
    """Counts the payloads broadcast through it."""

    def __init__(self):
        self.sent = []

    def broadcast(self, value):
        self.sent.append(value)
        return SimpleNamespace(value=value)


def test_broadcast_once_per_context():
    """A second session over the same context reuses its broadcast; a
    session whose context was replaced (a restart at the same session
    id) gets a fresh one, never the dead context's."""
    edges = pd.DataFrame({"src": [0, 1], "dst": [1, 2]})
    g = GraphCSR.from_edges(edges, n=3)
    old, new = _StubContext(), _StubContext()
    session = SimpleNamespace(sparkContext=old)
    b_old = g.broadcast(session)
    assert g.broadcast(SimpleNamespace(sparkContext=old)) is b_old
    session.sparkContext = new
    b_new = g.broadcast(session)
    assert b_new is not b_old and g.broadcast(session) is b_new
    assert len(old.sent) == 1 and len(new.sent) == 1


def test_n_inferred_when_omitted():
    edges = pd.DataFrame({"src": [0, 4], "dst": [4, 2]})
    g = GraphCSR.from_edges(edges)
    assert g.n == 5
