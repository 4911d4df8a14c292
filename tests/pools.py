"""Test helpers: set pools in the CSR form the greedy takes, built from
lists of arrays or from the Spark venue's membership rows."""
import numpy as np

from repro.sampling.mrr import BLOCK, sample_sets_pairs


def csr_pool(sets) -> tuple[np.ndarray, np.ndarray]:
    """``(indptr, members)`` holding ``sets`` in order."""
    indptr = np.zeros(len(sets) + 1, dtype=np.int64)
    np.cumsum([len(s) for s in sets], out=indptr[1:])
    members = np.concatenate([np.asarray(s, np.int64) for s in sets] or [np.zeros(0, np.int64)])
    return indptr, members


def spark_pool(spark, g, active, eta_i, model, n_sets, seed, *, roots, first_block=0):
    """The rows of ``sample_sets_pairs`` as a CSR pool, after checking
    that they arrive in non-decreasing ``set_id`` order."""
    pdf = sample_sets_pairs(
        spark, g, active, eta_i, model, n_sets, seed, roots=roots, first_block=first_block
    ).toPandas()
    set_ids = pdf["set_id"].to_numpy(np.int64) - first_block * BLOCK
    assert (np.diff(set_ids) >= 0).all()
    sizes = np.bincount(set_ids, minlength=n_sets - first_block * BLOCK)
    return np.concatenate([[0], np.cumsum(sizes)]), pdf["node"].to_numpy(np.int64)
