"""Building and loading the compiled block kernel (``repro.sampling.kernel``).

Each test that builds works on a copy of the ``repro`` sources without
a built library, so its kernel cache starts empty.
"""
import hashlib
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np

from repro.graphs.generator import dataset_csr
from repro.sampling import kernel
from repro.sampling.mrr import sample_pool

ROOT = Path(__file__).resolve().parent.parent


def _digest() -> str:
    """sha256 of an mRR and an RR pool on nethept_lite."""
    g = dataset_csr("nethept_lite")
    active = np.ones(g.n, bool)
    h = hashlib.sha256()
    for roots, eta in (("mrr", 60), ("rr", 1)):
        for a in sample_pool(g, active, eta, "IC", 600, 4, roots=roots):
            h.update(a.tobytes())
    return h.hexdigest()


def _fresh_sources(tmp_path) -> Path:
    """A copy of ``src/repro`` with no built kernel; its ``src`` root."""
    root = tmp_path / "src"
    shutil.copytree(ROOT / "src" / "repro", root / "repro",
                    ignore=shutil.ignore_patterns("*.so", "__pycache__"))
    return root


def _env(root: Path, **extra) -> dict:
    """The copy first on the path, then this checkout for ``tests``."""
    return {**os.environ, "PYTHONPATH": os.pathsep.join((str(root), str(ROOT))), **extra}


def test_concurrent_imports_share_one_build(tmp_path):
    """Two interpreters importing ``repro.sampling.mrr`` at once against an
    empty cache both load a working kernel, which draws this process's
    pools; the cache then holds one library and no temporary file."""
    root = _fresh_sources(tmp_path)
    code = "from tests.test_kernel_build import _digest; print(_digest())"
    procs = [
        subprocess.Popen([sys.executable, "-c", code], env=_env(root), cwd=tmp_path,
                         stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        for _ in range(2)
    ]
    outs = [p.communicate(timeout=300) for p in procs]
    assert [p.returncode for p in procs] == [0, 0], [err for _, err in outs]
    assert [out.strip() for out, _ in outs] == [_digest()] * 2
    cache = root / "repro" / "sampling"
    assert len(list(cache.glob("block_kernel-*.so"))) == 1
    assert not list(cache.glob(".block_kernel-*"))


def test_missing_compiler_fails_the_import(tmp_path):
    """Without ``cc`` on PATH and no cached build, the import raises an
    ImportError that names the compiler."""
    root = _fresh_sources(tmp_path)
    done = subprocess.run(
        [sys.executable, "-c", "import repro.sampling.mrr"],
        env=_env(root, PATH=str(tmp_path)), cwd=tmp_path, capture_output=True, text=True,
    )
    assert done.returncode != 0
    assert "ImportError" in done.stderr and "`cc`" in done.stderr


def test_kernel_compiles_without_warnings():
    """The kernel source passes ``-Wall -Wextra -Werror`` with the
    build's ``-pthread``: the import's build drops the compiler's output
    on success, so warnings surface only here."""
    done = subprocess.run(
        ["cc", "-std=c99", "-pthread", "-Wall", "-Wextra", "-Werror", "-fsyntax-only",
         str(kernel.SOURCE)],
        capture_output=True, text=True,
    )
    assert done.returncode == 0, done.stderr
