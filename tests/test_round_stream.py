"""One sample stream per selection round.

Every doubling iteration t of TRIM (b = 1 and b = 4, mRR and RR sets)
and of ATEUC hands greedy the first θ_t sets of the round's one stream,
``sample_pool(…, θ_t, seed)``, which the Spark venue collects too; and
a round that stops at iteration t has drawn blocks 0 … ⌈θ_t/BLOCK⌉ − 1,
each once. A ``sample_pool`` call draws all its blocks in one kernel
call, and the kernel's one bitmap per call leaks nothing between its
blocks or into the next call.
"""
import hashlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro.baselines.ateuc as ateuc_module
import repro.core.trim as trim_module
import repro.sampling.mrr as mrr
from repro.baselines.ateuc import ateuc
from repro.core.trim import TrimSchedule, trim
from repro.diffusion.realization import IC, LT
from repro.graphs.generator import dataset_csr
from repro.sampling.mrr import BLOCK, sample_pool
from tests.pools import spark_pool

ROOT = Path(__file__).resolve().parent.parent

# (selector, model, η, b, roots); each doubles at least twice on the
# 150-node graph, with every tenth node inactive for TRIM.
ROUNDS = [
    pytest.param("trim", IC, 15, 1, "mrr", id="trim-IC"),
    pytest.param("trim", LT, 15, 1, "mrr", id="trim-LT"),
    pytest.param("trim", IC, 40, 4, "mrr", id="trim-b4-IC"),
    pytest.param("trim", LT, 40, 4, "mrr", id="trim-b4-LT"),
    pytest.param("trim", IC, 15, 1, "rr", id="trim-rr-IC"),
    pytest.param("ateuc", IC, 100, 1, "rr", id="ateuc-IC"),
    pytest.param("ateuc", LT, 100, 1, "rr", id="ateuc-LT"),
]
SEED = 5


def _run_round(monkeypatch, g, kind, model, eta, b, roots):
    """Run one round with greedy and the kernel spied on: the result,
    the active mask, η_i and θ_o its sampler saw, each pool greedy got,
    and each run of block ids drawn with the count of sets it drew."""
    pools, batches = [], []
    module = trim_module if kind == "trim" else ateuc_module
    greedy, kernel = module.greedy_max_coverage, mrr._sample_blocks

    def spy_greedy(indptr, members, n, k):
        pools.append((indptr.copy(), members.copy()))
        return greedy(indptr, members, n, k)

    def spy_kernel(*args, **kwargs):
        out = kernel(*args, **kwargs)
        batches.append((list(args[7]), len(out[0])))
        return out

    monkeypatch.setattr(module, "greedy_max_coverage", spy_greedy)
    monkeypatch.setattr(mrr, "_sample_blocks", spy_kernel)
    if kind == "trim":
        active = np.ones(g.n, bool)
        active[::10] = False
        res = trim(g, active, eta, model, 0.5, SEED, b=b, roots=roots)
        theta_o = TrimSchedule.build(int(active.sum()), eta, 0.5, b=b, roots=roots).theta_o
        eta_i = eta
    else:
        active = np.ones(g.n, bool)
        res = ateuc(None, g, eta, model, seed=SEED)
        theta_o, eta_i = ateuc_module.THETA0, 1
    monkeypatch.setattr(module, "greedy_max_coverage", greedy)
    monkeypatch.setattr(mrr, "_sample_blocks", kernel)
    return res, (active, eta_i, theta_o), pools, batches


@pytest.mark.parametrize("kind,model,eta,b,roots", ROUNDS)
def test_each_iteration_reads_a_prefix_of_one_stream(small_cl_graph, monkeypatch, kind, model, eta, b, roots):
    """Greedy at iteration t gets ``sample_pool(…, θ_t, seed)`` with
    θ_t = θ_o·2^(t−1); the round drew ⌈θ_T/BLOCK⌉ blocks, in order,
    each once, T being the iteration it stopped at."""
    g = small_cl_graph
    res, (active, eta_i, theta_o), pools, batches = _run_round(monkeypatch, g, kind, model, eta, b, roots)
    assert res.iterations >= 3 and len(pools) == res.iterations
    thetas = [len(indptr) - 1 for indptr, _ in pools]
    assert thetas == [theta_o * 2**t for t in range(res.iterations)]
    assert thetas[-1] == res.n_sets
    for theta, (indptr, members) in zip(thetas, pools):
        want = sample_pool(g, active, eta_i, model, theta, SEED, roots=roots)
        np.testing.assert_array_equal(indptr, want[0])
        np.testing.assert_array_equal(members, want[1])
    assert [j for js, _ in batches for j in js] == list(range(-(-res.n_sets // BLOCK)))


@pytest.mark.parametrize("kind,model,eta,b,roots", ROUNDS)
def test_a_stopped_round_draws_under_one_block_past_theta(small_cl_graph, monkeypatch, kind, model, eta, b, roots):
    """A round that stops at θ_t has drawn at least θ_t sets and fewer
    than θ_t + ``BLOCK``: only the tail of the block that θ_t cuts goes
    unread."""
    res, _, _, batches = _run_round(monkeypatch, small_cl_graph, kind, model, eta, b, roots)
    drawn = sum(n for _, n in batches)
    assert res.n_sets <= drawn < res.n_sets + BLOCK


@pytest.mark.parametrize("kind,model,eta,b,roots", ROUNDS[::2])
def test_spark_rounds_read_the_local_stream(spark, small_cl_graph, monkeypatch, kind, model, eta, b, roots):
    """The Spark venue, asked for the θ_t sets of any iteration of a
    round, collects the pool greedy got there."""
    g = small_cl_graph
    res, (active, eta_i, _), pools, _ = _run_round(monkeypatch, g, kind, model, eta, b, roots)
    assert len(pools) == res.iterations
    for indptr, members in pools:
        want = spark_pool(spark, g, active, eta_i, model, len(indptr) - 1, SEED, roots=roots)
        np.testing.assert_array_equal(indptr, want[0])
        np.testing.assert_array_equal(members, want[1])


# Back-to-back calls: (dataset, model, roots, η/n, n_sets, first_block).
# Each call's blocks share one kernel call and its bitmap; the last
# block is partial in two calls.
CALLS = [
    ("nethept_lite", IC, "rr", None, 20 * BLOCK + 17, 0),
    ("livejournal_lite", LT, "mrr", 0.02, 3 * BLOCK, 1),
    ("nethept_lite", LT, "rr", None, 11 * BLOCK, 2),
    ("livejournal_lite", IC, "rr", None, 9 * BLOCK + 3, 0),
]


def _call(dataset, model, roots, eta_frac, n_sets, first_block):
    """``(sha256, pool, the same sets drawn one block per kernel call,
    each with a new bitmap)`` for one entry of ``CALLS``."""
    g = dataset_csr(dataset)
    active = np.ones(g.n, bool)
    active[::10] = False
    eta_i = max(1, int(eta_frac * g.n)) if eta_frac else 1
    pool = sample_pool(g, active, eta_i, model, n_sets, 9, roots=roots, first_block=first_block)
    h = hashlib.sha256()
    for a in pool:
        h.update(np.ascontiguousarray(a).tobytes())
    alone = [
        mrr._sample_blocks(g.kernel_graph(), active, eta_i, model, roots, n_sets, 9, [j])
        for j in range(first_block, -(-n_sets // BLOCK))
    ]
    return h.hexdigest(), pool, alone


def test_back_to_back_calls_equal_fresh_processes():
    """Calls on two graphs, at several sizes and first blocks, made one
    after another in this process (in order, then in reverse) give the
    bytes that each gives alone in a new process, and each pool equals
    its blocks drawn one kernel call each."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    fresh = {
        call: subprocess.run(
            [sys.executable, "-c", f"from tests.test_round_stream import _call; print(_call(*{call!r})[0])"],
            capture_output=True, text=True, check=True, cwd=ROOT, env=env,
        ).stdout.strip()
        for call in CALLS
    }
    for call in CALLS + CALLS[::-1]:
        digest, (indptr, members), alone = _call(*call)
        assert digest == fresh[call], call
        np.testing.assert_array_equal(np.diff(indptr), np.concatenate([s for s, _ in alone]))
        np.testing.assert_array_equal(members, np.concatenate([m for _, m in alone]))


# At any power-of-two BLOCK up to 256, 1289 sets end in a partial block
# of 9 and 1536 fill whole blocks.
@pytest.mark.parametrize("n_sets,first_block", [(1289, 0), (1536, 2)])
def test_a_call_is_one_kernel_call(small_cl_graph, monkeypatch, n_sets, first_block):
    """``sample_pool`` draws blocks ``first_block`` … ⌈n_sets/BLOCK⌉ − 1
    in one kernel call, and its pool is that call's sizes and members."""
    g = small_cl_graph
    active = np.ones(g.n, bool)
    calls = []
    kernel = mrr._sample_blocks

    def spy(*args, **kwargs):
        out = kernel(*args, **kwargs)
        calls.append((list(args[7]), out))
        return out

    monkeypatch.setattr(mrr, "_sample_blocks", spy)
    indptr, members = sample_pool(g, active, 15, IC, n_sets, 3, roots="mrr", first_block=first_block)
    [(js, (sizes, drawn))] = calls
    assert js == list(range(first_block, -(-n_sets // BLOCK)))
    np.testing.assert_array_equal(np.diff(indptr), sizes)
    np.testing.assert_array_equal(members, drawn)
