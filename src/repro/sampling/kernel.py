"""The compiled block kernel, ``block_kernel.c``, loaded through ``ctypes``.

The C source is built once with the system C compiler (``cc``) into
``block_kernel-<hash>.so`` beside it, the hash covering the source and
the flags; a build is written to a temporary file and moved into place
with ``os.replace``, so processes that import this module at once each
load a whole library. Importing this module builds
or loads it: the driver builds, and local Spark executors, which import
the same sources, load the driver's build. Without ``cc`` the import
raises ``ImportError``.

``sample_blocks`` draws block j from the stream numpy's
``default_rng(substream(seed, j))`` would give, without building it: the
kernel carries ports of numpy's ``SeedSequence`` (pool size 4) and
``PCG64``, so this module passes only the seed's entropy words and the
block ids, and the draws follow the order the header comment of
``block_kernel.c`` sets out. A call may split its blocks into contiguous
runs over ``workers`` POSIX threads (built with ``-pthread``), each with
its own generator state and buffers; every block still draws from its
own stream, so the output does not depend on the worker count, and the
kernel copies the runs' members, in block order, straight into the one
array this module returns. A block is the grain of the split, so with
``mrr.BLOCK`` = 32 sets a call of a few hundred sets still spans enough
blocks to run on every core. The kernel reads a graph as ``prepare`` lays
it out: its reverse CSR in C types and those arrays' addresses, which a
caller that draws from one graph many times prepares once.
"""
import ctypes
import hashlib
import os
import shutil
import subprocess
import tempfile
from pathlib import Path

import numpy as np

SOURCE = Path(__file__).with_name("block_kernel.c")
FLAGS = ("-O2", "-std=c99", "-pthread", "-shared", "-fPIC")


def _build() -> Path:
    """The library built from ``SOURCE``, compiled first if not cached."""
    code = SOURCE.read_bytes()
    key = hashlib.sha256(code + " ".join(FLAGS).encode()).hexdigest()[:16]
    lib = SOURCE.with_name(f"block_kernel-{key}.so")
    if lib.exists():
        return lib
    cc = shutil.which("cc")
    if cc is None:
        raise ImportError(f"building {SOURCE.name} needs a C compiler: no `cc` on PATH")
    fd, tmp = tempfile.mkstemp(prefix=".block_kernel-", suffix=".so", dir=SOURCE.parent)
    os.close(fd)
    try:
        cmd = [cc, *FLAGS, str(SOURCE), "-o", tmp]
        done = subprocess.run(cmd, capture_output=True, text=True)
        if done.returncode:
            raise ImportError(f"`cc` failed to build {SOURCE.name}:\n{done.stderr}")
        os.replace(tmp, lib)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)
    return lib


_P = ctypes.c_void_p
_I = ctypes.c_int64
_LIB = ctypes.CDLL(str(_build()))
_LIB.sample_blocks.restype = _I
_LIB.sample_blocks.argtypes = [
    _P, _I, _I, _P, _P, _I, ctypes.c_int, _I, ctypes.c_double,
    _I, _P, _P, _P, _P, ctypes.c_int, _P, _I, _P, _P, _P,
]
_LIB.take_members.restype = None
_LIB.take_members.argtypes = [_P, _P]

# The SeedSequence pool size the kernel's port mixes into (numpy's default).
POOL_SIZE = 4

# The reverse CSR arrays of ``GraphCSR.payload()`` the kernel reads, with
# their C types.
REV_CSR = (("rev_indptr", np.int64), ("rev_indices", np.int64),
           ("rev_probs", np.float64), ("rev_cum", np.float64))


def prepare(payload: dict) -> tuple:
    """The graph ``sample_blocks`` reads, from ``GraphCSR.payload()``:
    ``(n, arrays, addresses)``, the ``REV_CSR`` arrays in their C types
    and their data addresses. Looking the addresses up costs ~7 µs, a
    fifth of a one-set call, so ``GraphCSR.kernel_graph`` prepares a
    graph once. The addresses mean nothing in another process. A graph
    of 2^32 nodes or more raises ``ValueError``."""
    if payload["n"] >= 1 << 32:
        raise ValueError("the block kernel draws node indices as 32-bit integers")
    arrays = tuple(np.ascontiguousarray(payload[name], dtype) for name, dtype in REV_CSR)
    return payload["n"], arrays, tuple(a.ctypes.data for a in arrays)


def _uint32_words(x) -> list[int]:
    """numpy's coercion of ``SeedSequence`` entropy to uint32 words: an
    integer's little-endian 32-bit words (one word for 0), a sequence's
    elements' words in turn. ``SeedSequence`` has rejected negative
    values already."""
    if isinstance(x, (int, np.integer)):
        x = int(x)
        words = [x & 0xFFFFFFFF]
        while x := x >> 32:
            words.append(x & 0xFFFFFFFF)
        return words
    return [w for v in x for w in _uint32_words(v)]


def _entropy_words(seed: np.random.SeedSequence) -> np.ndarray:
    """The words ``SeedSequence`` mixes for ``seed`` with a block id
    appended to its spawn key: the run entropy zero-padded to the pool
    size (the key is never empty), then the spawn key."""
    if seed.pool_size != POOL_SIZE:
        raise ValueError(f"the block kernel mixes a pool of {POOL_SIZE} words, not {seed.pool_size}")
    run = _uint32_words(seed.entropy)
    run += [0] * (POOL_SIZE - len(run))
    return np.array(run + _uint32_words(seed.spawn_key), dtype=np.uint32)


def sample_blocks(
    seed: np.random.SeedSequence,
    js,
    takes: np.ndarray,
    block: int,
    graph: tuple,
    lt: bool,
    active: np.ndarray,
    root_law: tuple[int, float] | None,
    workers: int = 1,
) -> tuple[np.ndarray, np.ndarray, int]:
    """``(sizes, members, words)`` of the blocks ``js`` of ``block`` sets:
    block ``js[b]`` draws its first ``takes[b]`` sets from the stream of
    ``SeedSequence(seed.entropy, spawn_key=seed.spawn_key + (js[b],))``.
    With ``root_law = (k_low, frac)`` (mRR) the block first draws its
    ``block`` root counts k_low + (u < frac), clipped to [1, n_i]; with
    ``None`` (RR) every set has one root. Each set's members come roots
    first, then in the order nodes joined; ``words`` counts the 64-bit
    generator outputs drawn.

    The kernel splits the blocks into ``workers`` contiguous runs (at
    most one per block) and draws each on its own thread, this one
    drawing the first; the output is the same for any ``workers``.
    ``graph`` is ``prepare``'s layout of the graph. A block id outside
    [0, 2^32) or a take outside [0, block] raises ``ValueError`` before
    any set is drawn.
    """
    js = np.ascontiguousarray(js, dtype=np.int64)
    takes = np.ascontiguousarray(takes, dtype=np.int64)
    if takes.shape != js.shape or js.ndim != 1:
        raise ValueError("takes needs one count in [0, block] per block")
    entropy = _entropy_words(seed)
    n, _, csr = graph
    act = np.ascontiguousarray(active, dtype=bool)
    k_low, frac = root_law or (1, 0.0)
    # The kernel rejects a negative take before it writes a size.
    sizes = np.empty(max(int(takes.sum()), 0), dtype=np.int64)
    runs = _P()
    words = _I()
    count = _LIB.sample_blocks(
        entropy.ctypes.data, len(entropy), len(js), js.ctypes.data, takes.ctypes.data, block,
        root_law is not None, k_low, frac, n, *csr, int(lt), act.ctypes.data, workers,
        sizes.ctypes.data, ctypes.byref(runs), ctypes.byref(words),
    )
    if count == -2:
        raise ValueError("block ids must fit one uint32 spawn-key word")
    if count == -3:
        raise ValueError("takes needs one count in [0, block] per block")
    if count < 0:
        raise MemoryError("the block kernel ran out of memory")
    # The kernel copies its runs' members into one array and frees them.
    try:
        members = np.empty(count, dtype=np.int64)
    except MemoryError:
        _LIB.take_members(runs, None)
        raise
    _LIB.take_members(runs, members.ctypes.data)
    return sizes, members, words.value
