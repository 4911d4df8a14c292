"""The compiled block kernel, ``block_kernel.c``, loaded through ``ctypes``.

The C source is built once with the system C compiler (``cc``) into
``block_kernel-<hash>.so`` beside it, the hash covering the source, the
flags and numpy's version; a build is written to a temporary file and
moved into place with ``os.replace``, so processes that import this
module at once each load a whole library. Importing this module builds
or loads it: the driver builds, and local Spark executors, which import
the same sources, load the driver's build. Without ``cc`` the import
raises ``ImportError``.

``sample_blocks`` draws each block from its own numpy ``Generator``
through the generator's ``bitgen_t`` (``rng.bit_generator.ctypes``), in
the order the header comment of ``block_kernel.c`` sets out.
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
FLAGS = ("-O2", "-std=c99", "-shared", "-fPIC")


def _build() -> Path:
    """The library built from ``SOURCE``, compiled first if not cached."""
    code = SOURCE.read_bytes()
    key = hashlib.sha256(code + " ".join((*FLAGS, np.__version__)).encode()).hexdigest()[:16]
    lib = SOURCE.with_name(f"block_kernel-{key}.so")
    if lib.exists():
        return lib
    cc = shutil.which("cc")
    if cc is None:
        raise ImportError(f"building {SOURCE.name} needs a C compiler: no `cc` on PATH")
    fd, tmp = tempfile.mkstemp(prefix=".block_kernel-", suffix=".so", dir=SOURCE.parent)
    os.close(fd)
    try:
        cmd = [cc, *FLAGS, f"-I{np.get_include()}", str(SOURCE), "-o", tmp]
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
_LIB.sample_blocks.argtypes = [_I, _P, _P, _P, _I, _I, _P, _P, _P, _P, ctypes.c_int, _P, _P, _I, _P, _P]
_LIB.free_members.restype = None
_LIB.free_members.argtypes = [_P]


def sample_blocks(
    rngs: list,
    k: np.ndarray,
    takes: np.ndarray,
    block: int,
    payload: dict,
    lt: bool,
    active: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """``(sizes, members)`` of ``len(rngs)`` blocks of ``block`` sets:
    block b draws its first ``takes[b]`` sets from ``rngs[b]`` with root
    counts ``k[b·block …]``; each set's members come roots first, then in
    the order nodes joined."""
    if payload["n"] >= 1 << 32:
        raise ValueError("the block kernel draws node indices as 32-bit integers")
    active_idx = np.flatnonzero(active)
    k = np.ascontiguousarray(k, dtype=np.int64)
    takes = np.ascontiguousarray(takes, dtype=np.int64)
    act = np.ascontiguousarray(active, dtype=np.uint8)
    bitgens = np.array([rng.bit_generator.ctypes.bit_generator.value for rng in rngs], np.uintp)
    sizes = np.empty(int(takes.sum()), dtype=np.int64)
    out = _P()
    csr = [
        np.ascontiguousarray(payload[name], dtype)
        for name, dtype in (("rev_indptr", np.int64), ("rev_indices", np.int64),
                            ("rev_probs", np.float64), ("rev_cum", np.float64))
    ]
    count = _LIB.sample_blocks(
        len(rngs), bitgens.ctypes.data, k.ctypes.data, takes.ctypes.data, block, payload["n"],
        *(a.ctypes.data for a in csr), int(lt),
        act.ctypes.data, active_idx.ctypes.data, len(active_idx), sizes.ctypes.data,
        ctypes.byref(out),
    )
    if count < 0:
        raise MemoryError("the block kernel ran out of memory")
    # A copy, not np.ctypeslib.as_array: that caches a ctypes type per
    # length, which grows the process by every distinct member count.
    members = np.empty(count, dtype=np.int64)
    ctypes.memmove(members.ctypes.data, out, 8 * count)
    _LIB.free_members(out)
    return sizes, members
