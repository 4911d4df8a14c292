"""Test helper: list-of-arrays set pools in the CSR form the greedy takes."""
import numpy as np


def csr_pool(sets) -> tuple[np.ndarray, np.ndarray]:
    """``(indptr, members)`` holding ``sets`` in order."""
    indptr = np.zeros(len(sets) + 1, dtype=np.int64)
    np.cumsum([len(s) for s in sets], out=indptr[1:])
    members = np.concatenate([np.asarray(s, np.int64) for s in sets] or [np.zeros(0, np.int64)])
    return indptr, members
