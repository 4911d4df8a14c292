"""Pinned random streams: sha256 digests of sampler pools, realization
masks and the seed lists of every policy, at fixed seeds.

A refactor that must keep every draw in the same order keeps every
digest here. A change that alters a stream on purpose recomputes the
table (``python -m tests.test_streams_pinned``, with ``src`` on
``PYTHONPATH``, prints it) and says so.

- pools: ``sample_pool(…)`` of 1000 sets with every tenth node
  inactive, IC/LT × {mRR at η = n/5, mRR at η = n/50, RR} on
  ``nethept_lite`` and ``livejournal_lite``;
- realizations: ``sample_realization`` masks, IC/LT, seeds 0–2, on both;
- seeds: ASTI, ASTI-4 (η = 0.1n), ADAPTIM (η = 0.07n) and ATEUC
  (η = 0.05n) on ``nethept_lite``, IC/LT, realization and algorithm
  seeds 0–2, driver-local.
"""
import hashlib
from functools import cache

import numpy as np
import pytest

from repro.baselines.adaptim import adaptim
from repro.baselines.ateuc import ateuc
from repro.core.asti import asti
from repro.diffusion.realization import IC, LT, sample_realization
from repro.graphs.generator import dataset_csr
from repro.sampling.mrr import sample_pool

DATASETS = ("nethept_lite", "livejournal_lite")
MODELS = (IC, LT)
POOLS = {"mrr5": ("mrr", 5), "mrr50": ("mrr", 50), "rr": ("rr", None)}
POLICIES = ("asti", "asti4", "adaptim", "ateuc")
SEEDS = (0, 1, 2)

ITEMS = (
    [("pool", d, m, p) for d in DATASETS for m in MODELS for p in POOLS]
    + [("realization", d, m, s) for d in DATASETS for m in MODELS for s in SEEDS]
    + [("seeds", "nethept_lite", m, f"{a}-{s}") for m in MODELS for a in POLICIES for s in SEEDS]
)

DIGESTS = {
    "pool-nethept_lite-IC-mrr5": "7879aac8447f7cffa92c282db3c7b13341cbdadc30fe30efae6533e36f237028",
    "pool-nethept_lite-IC-mrr50": "f5f93a6cc7df26a29d27346efbd6e498d433b62ed5a1a6a32bb04a47ff880ff6",
    "pool-nethept_lite-IC-rr": "bbd5c3a6e0049ca23d587c46cf16078baddb8000201719538a8a1c9806820d23",
    "pool-nethept_lite-LT-mrr5": "41d7cacd8cd4a01c7885e789c28152ae027238df63d1ff3a075ef3212165a6e7",
    "pool-nethept_lite-LT-mrr50": "1a88bcfd3c8ee19f0f708237ac1c394285a19e472dbc1eee6ce6e987e31670e8",
    "pool-nethept_lite-LT-rr": "ae4d741abc94d240c2c251ca39fb15eb8da63052b3e18de6d0b344aac9a0cdaf",
    "pool-livejournal_lite-IC-mrr5": "550e565a26622eccd8e98a16c5a07739874ec83c7aaf08bca01045984b5576ae",
    "pool-livejournal_lite-IC-mrr50": "9cd347213d04769d8f1f4c1d8c181d4824422c3a3886fe9e2bc011b6a37a1466",
    "pool-livejournal_lite-IC-rr": "25243cd1bc36cb97baa1e88af02b078c2029cdff7c1ee97050394bbe06520a7a",
    "pool-livejournal_lite-LT-mrr5": "70e876a923b4754e59b4612944ba465578bc54ba4ff85485703ef21a06cb9062",
    "pool-livejournal_lite-LT-mrr50": "addad2bd53b7a8e8173a9385605fd177de6a1f140293b80bf75d8a7d13358d43",
    "pool-livejournal_lite-LT-rr": "e47fe51a77eef6f73bbb5f0b1951a118949b287d8b715d87bfa814189131ecaf",
    "realization-nethept_lite-IC-0": "daa8831f08bd4eb5829caec5f505dedc938b512f373b101b82a3621ff5d41ecd",
    "realization-nethept_lite-IC-1": "3f6e18d28ceeb1496bd329d4d38f7634614ec438743796c776d7c59a0f534842",
    "realization-nethept_lite-IC-2": "a44abc0fcaf0abdfafe0bf7da71195ea74238b100e69d21fd660c5f2b56283cd",
    "realization-nethept_lite-LT-0": "5719b7912641e5357c393fbbeaaeba1e1d16cf413b2ca4fce95bde0c8df6d85e",
    "realization-nethept_lite-LT-1": "aa171fe2f174451e2ba2b812b98b09fe4d543f653f665c10697547dd1cdf823f",
    "realization-nethept_lite-LT-2": "05da353fb4b549707ae056578d67f1966efeb4403814678b578b52cb0bdc1a67",
    "realization-livejournal_lite-IC-0": "d6e9407235c232e006fb2d0af408e87232c17c3be489e825e600235db5575237",
    "realization-livejournal_lite-IC-1": "1c4934803af8fde8e283162c9b392557b5bf07638276518b8a031fc290531b34",
    "realization-livejournal_lite-IC-2": "1d9522f7049fa059994eb1e76e9b136b8951efa9259ee2c391a5694ae931e4ef",
    "realization-livejournal_lite-LT-0": "9107c2d5574b9f80de836b7f404f1f037e2f18acb43d4be5b1c53356ad73f1b1",
    "realization-livejournal_lite-LT-1": "895b55a2e188864da7a664a50d9bc25e952c59bd56305a328293ac8ec17ee013",
    "realization-livejournal_lite-LT-2": "2da6a0eb980ba46e566ff72a10588b5d377f40735fde719c19333a28a1940fec",
    "seeds-nethept_lite-IC-asti-0": "bd81cf0e0fdc958359d9b1fe817fb0b5fa08e90f44a5965995f092b84ff11c31",
    "seeds-nethept_lite-IC-asti-1": "33de7f5e125f78ae7a64649ad030a00863c7c72e9bb9440fe4f2495e82a7be56",
    "seeds-nethept_lite-IC-asti-2": "04e4b0d6bf324138670e555ab31dc93c600d8910db893c487850ea3982fe07bb",
    "seeds-nethept_lite-IC-asti4-0": "b718c3dacfb13fe94677e055a984324df1ff2171e019efeef0d82155b4998b2e",
    "seeds-nethept_lite-IC-asti4-1": "3f62ac40c8f0b177534328a91884defc76fc053013d46a25da0ba493b108649a",
    "seeds-nethept_lite-IC-asti4-2": "a9f4c08f6ab55fc210ec50249395b267832408f3823a205fb1faf7734cad4efc",
    "seeds-nethept_lite-IC-adaptim-0": "890930906ec4a800e975ac391d7a56b2d7bac74b2a17610b6e74810e329b5a5a",
    "seeds-nethept_lite-IC-adaptim-1": "bd81cf0e0fdc958359d9b1fe817fb0b5fa08e90f44a5965995f092b84ff11c31",
    "seeds-nethept_lite-IC-adaptim-2": "bd81cf0e0fdc958359d9b1fe817fb0b5fa08e90f44a5965995f092b84ff11c31",
    "seeds-nethept_lite-IC-ateuc-0": "890930906ec4a800e975ac391d7a56b2d7bac74b2a17610b6e74810e329b5a5a",
    "seeds-nethept_lite-IC-ateuc-1": "890930906ec4a800e975ac391d7a56b2d7bac74b2a17610b6e74810e329b5a5a",
    "seeds-nethept_lite-IC-ateuc-2": "890930906ec4a800e975ac391d7a56b2d7bac74b2a17610b6e74810e329b5a5a",
    "seeds-nethept_lite-LT-asti-0": "122a63ff15187ed0d0c6b771458e5abdceadf47e78c9caa2837e437ca8b3f54e",
    "seeds-nethept_lite-LT-asti-1": "04e4b0d6bf324138670e555ab31dc93c600d8910db893c487850ea3982fe07bb",
    "seeds-nethept_lite-LT-asti-2": "3f27be98eb3d5ca55498d26c9e6a4466146065e0a84d59cf43940088293b3f89",
    "seeds-nethept_lite-LT-asti4-0": "91312df4ba90369d8ab603f8adf81bb030afa54ab527a76fe0893ec62a85bfb0",
    "seeds-nethept_lite-LT-asti4-1": "b584d91d7ccea6b5fd5d806d7575f78d0c3146818a4ff702d965f4aec677ce86",
    "seeds-nethept_lite-LT-asti4-2": "2bf975c9106482ce472d9db2470b0643a3a1746298f79d79a41689512dc4daf2",
    "seeds-nethept_lite-LT-adaptim-0": "890930906ec4a800e975ac391d7a56b2d7bac74b2a17610b6e74810e329b5a5a",
    "seeds-nethept_lite-LT-adaptim-1": "8fd9d75eca3a2d8856db6887f8798bbaab9d1234e193fa3cb86fcfceb4f0ffc4",
    "seeds-nethept_lite-LT-adaptim-2": "bd81cf0e0fdc958359d9b1fe817fb0b5fa08e90f44a5965995f092b84ff11c31",
    "seeds-nethept_lite-LT-ateuc-0": "bfe044a233edda62deb91135a1fc66ffe1028fbb0b7614f77434844a6d58e254",
    "seeds-nethept_lite-LT-ateuc-1": "92a94dbc8361bc38c97e7d0e8ec8b9c23a16153687da24f19a84b0e86d8276ef",
    "seeds-nethept_lite-LT-ateuc-2": "92a94dbc8361bc38c97e7d0e8ec8b9c23a16153687da24f19a84b0e86d8276ef",
}


@cache
def _graph(name):
    return dataset_csr(name)


def _digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def _compute(kind, dataset, model, key) -> str:
    g = _graph(dataset)
    if kind == "pool":
        roots, div = POOLS[key]
        active = np.ones(g.n, bool)
        active[::10] = False
        eta_i = g.n // div if div else 1
        return _digest(*sample_pool(g, active, eta_i, model, 1000, 7, roots=roots))
    if kind == "realization":
        return _digest(sample_realization(g, model, key).live_fwd)
    algo, s = key.split("-")
    s = int(s)
    if algo == "ateuc":
        seeds = ateuc(None, g, int(0.05 * g.n), model, seed=s).seeds
    elif algo == "adaptim":
        seeds = adaptim(None, g, int(0.07 * g.n), model, s, seed=s).seeds
    else:
        b = 4 if algo == "asti4" else 1
        seeds = asti(None, g, int(0.1 * g.n), model, s, b=b, seed=s).seeds
    return _digest(np.asarray(seeds, dtype=np.int64))


@pytest.mark.parametrize("kind,dataset,model,key", ITEMS, ids=["-".join(map(str, i)) for i in ITEMS])
def test_stream_pinned(kind, dataset, model, key):
    assert _compute(kind, dataset, model, key) == DIGESTS["-".join(map(str, (kind, dataset, model, key)))]


if __name__ == "__main__":
    for item in ITEMS:
        print(f'    "{"-".join(map(str, item))}": "{_compute(*item)}",')
