"""A kernel call's blocks split over worker threads.

The kernel draws contiguous runs of a call's blocks on up to ``workers``
threads; each block's sets come from its own stream, so the output must
not depend on the worker count. ``mrr._workers`` picks the count from
the call's expected roots, and Spark tasks draw on one thread. A C
driver built with ThreadSanitizer and with AddressSanitizer runs the
kernel at 4 workers where ``cc`` supports them.
"""
import json
import os
import subprocess
import textwrap
from pathlib import Path

import numpy as np
import pytest

import repro.sampling.mrr as mrr
from repro.diffusion.realization import IC, LT
from repro.sampling import kernel
from repro.sampling.mrr import BLOCK, ROOTS_PER_WORKER, sample_pool, sample_sets_pairs, substream


@pytest.mark.parametrize("first_block", [0, 2])
@pytest.mark.parametrize("root_law", [(3, 0.25), None], ids=["mrr", "rr"])
@pytest.mark.parametrize("model", [IC, LT])
def test_worker_counts_give_the_same_bytes(small_cl_graph, model, root_law, first_block):
    """Blocks ``first_block`` … 8 of a call whose last block is partial,
    drawn at 1, 2 and 4 workers, give byte-identical sizes, members and
    generator word counts, with 10% of the nodes inactive."""
    g = small_cl_graph
    active = np.ones(g.n, bool)
    active[::10] = False
    js = np.arange(first_block, 9)
    takes = np.minimum(BLOCK, 8 * BLOCK + 9 - BLOCK * js)
    draws = [
        kernel.sample_blocks(substream(5, 1), js, takes, BLOCK, g.kernel_graph(), model == LT,
                             active, root_law, workers)
        for workers in (1, 2, 4)
    ]
    sizes, members, words = draws[0]
    assert len(sizes) == takes.sum() and words > 0
    for other in draws[1:]:
        assert other[0].tobytes() == sizes.tobytes()
        assert other[1].tobytes() == members.tobytes()
        assert other[2] == words


def test_more_workers_than_blocks_draw_each_block_once(small_cl_graph):
    """Asking for 4 workers over 2 blocks (one of them partial) draws
    what one worker draws."""
    g = small_cl_graph
    active = np.ones(g.n, bool)
    one, four = (
        kernel.sample_blocks(substream(2), [3, 4], [BLOCK, 7], BLOCK, g.kernel_graph(), False,
                             active, None, workers)
        for workers in (1, 4)
    )
    assert [a.tobytes() for a in one[:2]] == [a.tobytes() for a in four[:2]]
    assert one[2] == four[2]


@pytest.mark.parametrize("js,takes,match", [
    ([0, 1], [BLOCK, BLOCK + 1], "takes"),
    ([0, 1], [BLOCK, -1], "takes"),
    ([0, 1], [BLOCK], "takes"),
    ([-1, 0], [BLOCK, BLOCK], "uint32"),
])
def test_kernel_checks_blocks_before_drawing(small_cl_graph, js, takes, match):
    """The kernel, which checks the block ids and takes itself, rejects a
    take outside [0, block], a takes array of another length and a
    negative block id with ``ValueError``."""
    g = small_cl_graph
    with pytest.raises(ValueError, match=match):
        kernel.sample_blocks(substream(1), js, takes, BLOCK, g.kernel_graph(), False,
                             np.ones(g.n, bool), None, 2)


def test_worker_rule(monkeypatch):
    """Under ``ROOTS_PER_WORKER`` expected roots per core a call gets one
    worker; from there one per core this process may use. (The kernel
    caps the count at the call's blocks: the sanitizer driver below
    checks that.)"""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3})
    assert mrr._workers(4 * ROOTS_PER_WORKER - 1) == 1
    assert mrr._workers(4 * ROOTS_PER_WORKER) == 4
    assert mrr._workers(1e9) == 4
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {1, 3})
    assert mrr._workers(2 * ROOTS_PER_WORKER - 1) == 1
    assert mrr._workers(2 * ROOTS_PER_WORKER) == 2
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {2})
    assert mrr._workers(1e9) == 1


def test_worker_crossover_runs(monkeypatch, tmp_path):
    """``benchmarks/worker_crossover.py``, cut down to one small cell and
    two pairs, times the call at 1 and 2 workers and writes its
    document."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "benchmarks"))
    import worker_crossover as wc

    monkeypatch.setattr(wc, "DATASETS", ("nethept_lite",))
    monkeypatch.setattr(wc, "MODELS", ("IC",))
    monkeypatch.setattr(wc, "CELLS", (("mrr", BLOCK + 5, 0.1),))
    monkeypatch.setattr(wc, "WORKERS", (2,))
    monkeypatch.setattr(wc, "PAIRS", 2)
    out = tmp_path / "workers.json"
    wc.main(["--out", str(out)])
    doc = json.loads(out.read_text())
    assert doc["pairs"] == 2 and "sha" in doc and "host" in doc
    [cell] = doc["cells"]
    assert (cell["dataset"], cell["model"], cell["roots"], cell["n_sets"], cell["eta_i"],
            cell["workers"]) == ("nethept_lite", "IC", "mrr", BLOCK + 5, 120, 2)
    assert cell["median_ratio"] > 0 and 0 <= cell["split_won"] <= 2


@pytest.mark.parametrize("roots,eta_i,n_sets,cores,expected", [
    # RR: one root per set.
    ("rr", 1, 4 * ROOTS_PER_WORKER - 1, 4, 1),
    ("rr", 1, 8 * ROOTS_PER_WORKER, 2, 2),
    ("rr", 1, 8 * ROOTS_PER_WORKER, 4, 4),
    # mRR on 135 active nodes at η = 15: 9 roots per set; the kernel
    # splits the 512-set call's 16 blocks over the four.
    ("mrr", 15, 200, 4, 1),
    ("mrr", 15, 512, 4, 4),
])
def test_sample_pool_passes_the_rule(small_cl_graph, monkeypatch, roots, eta_i, n_sets, cores,
                                     expected):
    """``sample_pool`` hands the kernel the rule's count for its expected
    roots: the set count for RR sets, times n_i/η_i for mRR sets."""
    g = small_cl_graph
    active = np.ones(g.n, bool)
    active[::10] = False
    seen = []
    draw = kernel.sample_blocks

    def spy(*args):
        seen.append(args[8])
        return draw(*args)

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cores)))
    monkeypatch.setattr(kernel, "sample_blocks", spy)
    sample_pool(g, active, eta_i, IC, n_sets, 3, roots=roots)
    assert seen == [expected]


@pytest.mark.parametrize("model", [IC, LT])
def test_a_256_set_mrr_call_splits(small_cl_graph, monkeypatch, model):
    """A 256-set mRR call above the split threshold (135 active nodes at
    η = 5: 27 roots per set) spans 256/``BLOCK`` blocks, so the kernel
    draws it on more than one run; its pool equals one worker's."""
    g = small_cl_graph
    active = np.ones(g.n, bool)
    active[::10] = False
    n_sets, eta_i = 256, 5
    assert n_sets * active.sum() / eta_i >= 4 * ROOTS_PER_WORKER
    seen = []
    draw = kernel.sample_blocks

    def spy(*args):
        seen.append((len(args[1]), args[8]))
        return draw(*args)

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3})
    monkeypatch.setattr(kernel, "sample_blocks", spy)
    split = sample_pool(g, active, eta_i, model, n_sets, 3, roots="mrr")
    [(blocks, workers)] = seen
    assert min(blocks, workers) > 1
    monkeypatch.setattr(mrr, "_workers", lambda roots: 1)
    serial = sample_pool(g, active, eta_i, model, n_sets, 3, roots="mrr")
    assert seen[1] == (blocks, 1)
    assert [a.tobytes() for a in split] == [a.tobytes() for a in serial]


def test_spark_tasks_draw_on_one_thread(spark, small_cl_graph, monkeypatch):
    """Each ``sample_sets_pairs`` task draws its blocks with one worker,
    on a call that the rule would split: a spy run in the executors
    writes the worker count it was passed over every member."""
    g = small_cl_graph
    active = np.ones(g.n, bool)
    n_sets = len(os.sched_getaffinity(0)) * ROOTS_PER_WORKER
    real = mrr._sample_blocks

    def spy(*args, **kwargs):
        sizes, members = real(*args, **kwargs)
        workers = args[8] if len(args) > 8 else kwargs.get("workers")
        return sizes, np.full_like(members, -1 if workers is None else workers)

    assert mrr._workers(n_sets) > 1 or len(os.sched_getaffinity(0)) == 1
    monkeypatch.setattr(mrr, "_sample_blocks", spy)
    nodes = sample_sets_pairs(spark, g, active, 1, IC, n_sets, 3, roots="rr").toPandas()["node"]
    monkeypatch.setattr(mrr, "_sample_blocks", real)
    assert len(nodes) == len(sample_pool(g, active, 1, IC, n_sets, 3, roots="rr")[1])
    assert set(nodes) == {1}


DRIVER = textwrap.dedent("""
    #include "{source}"
    #include <stdio.h>
    #include <string.h>

    /* A 3000-node graph with 4 in-edges per node drawn by a fixed LCG,
       every 7th node inactive; each of IC/LT x mRR/RR draws 9 blocks,
       the last partial, at 1 and at 4 workers and compares the two. */
    int main(void)
    {{
        enum {{ N = 3000, D = 4, BLOCKS = 9, B = 256 }};
        static int64_t indptr[N + 1], indices[N * D], js[BLOCKS], takes[BLOCKS];
        static double probs[N * D], cum[N * D];
        static uint8_t active[N];
        uint64_t x = 12345;
        for (int v = 0; v < N; v++) {{
            indptr[v + 1] = (v + 1) * D;
            active[v] = v % 7 != 0;
            for (int j = 0; j < D; j++) {{
                x = x * 6364136223846793005ULL + 1442695040888963407ULL;
                indices[v * D + j] = (int64_t)((x >> 33) % N);
                probs[v * D + j] = 0.3;
                cum[v * D + j] = 0.2 * (j + 1);
            }}
        }}
        for (int b = 0; b < BLOCKS; b++) {{
            js[b] = b + 3;
            takes[b] = b == BLOCKS - 1 ? 41 : B;
        }}
        const uint32_t entropy[] = {{7, 0, 0, 0, 2}};
        static int64_t sizes[2][BLOCKS * B];
        for (int lt = 0; lt < 2; lt++)
            for (int mrr = 0; mrr < 2; mrr++) {{
                int64_t count[2], words[2], *members[2];
                for (int t = 0; t < 2; t++) {{
                    call *runs;
                    count[t] = sample_blocks(entropy, 5, BLOCKS, js, takes, B, mrr, 4, 0.5, N,
                                             indptr, indices, probs, cum, lt, active,
                                             t ? 4 : 1, sizes[t], &runs, &words[t]);
                    if (count[t] < 0)
                        return 2;
                    members[t] = malloc((count[t] + 1) * sizeof *members[t]);
                    take_members(runs, members[t]);
                }}
                int same = count[0] == count[1] && words[0] == words[1]
                    && !memcmp(sizes[0], sizes[1], sizeof sizes[0])
                    && !memcmp(members[0], members[1], count[0] * sizeof *members[0]);
                free(members[0]);
                free(members[1]);
                if (!same)
                    return 3;
            }}
        /* Four workers over two blocks make two runs: one thread starts. */
        call *runs;
        int64_t words;
        if (sample_blocks(entropy, 5, 2, js, takes, B, 0, 1, 0.0, N, indptr, indices, probs,
                          cum, 0, active, 4, sizes[0], &runs, &words) < 0)
            return 2;
        int64_t n_runs = runs->n_runs;
        take_members(runs, NULL);
        if (n_runs != 2)
            return 4;
        puts("ok");
        return 0;
    }}
""")


@pytest.mark.parametrize("sanitizer", ["thread", "address"])
def test_kernel_is_clean_under_sanitizers(tmp_path, sanitizer):
    """Built with ``-fsanitize=thread`` or ``-fsanitize=address``, a C
    driver draws every model and root mode at 4 workers, gets what 1
    worker draws, sees a 2-block call at 4 workers make 2 runs, and the
    sanitizer reports nothing."""
    probe = tmp_path / "probe.c"
    probe.write_text("int main(void) { return 0; }\n")
    flags = ["-g", "-O1", "-std=c99", "-pthread", f"-fsanitize={sanitizer}"]
    built = subprocess.run(["cc", *flags, str(probe), "-o", str(tmp_path / "probe")],
                           capture_output=True, text=True)
    if built.returncode:
        pytest.skip(f"cc cannot build with -fsanitize={sanitizer}: {built.stderr.strip()[:200]}")
    driver = tmp_path / "driver.c"
    driver.write_text(DRIVER.format(source=kernel.SOURCE))
    exe = tmp_path / "driver"
    built = subprocess.run(["cc", *flags, "-Wall", "-Wextra", "-Werror", str(driver), "-o", str(exe)],
                           capture_output=True, text=True)
    assert built.returncode == 0, built.stderr
    done = subprocess.run([str(exe)], capture_output=True, text=True, timeout=300,
                          env={**os.environ, "TSAN_OPTIONS": "halt_on_error=1",
                               "ASAN_OPTIONS": "detect_leaks=1"})
    assert (done.returncode, done.stdout.strip(), done.stderr) == (0, "ok", "")
