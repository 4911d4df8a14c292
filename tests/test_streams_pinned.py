"""Pinned random streams: sha256 digests of sampler pools, realization
masks and the seed lists of every policy, at fixed seeds.

A refactor that must keep every draw in the same order keeps every
digest here. A change that alters a stream on purpose recomputes the
table (``python -m tests.test_streams_pinned``, with ``src`` on
``PYTHONPATH``, prints it) and says so.

- pools: ``sample_pool(None, …)`` of 1000 sets with every tenth node
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
    "pool-nethept_lite-IC-mrr5": "72bdcec5125c34ea8b2bd8d44da54ad8464ca60636610fecf833e2c9ed8222ef",
    "pool-nethept_lite-IC-mrr50": "f7fd818dfba34dc7f767cc32dd6336fb0e2ed09059ee2cee6e6b1d53537042ce",
    "pool-nethept_lite-IC-rr": "567c5114e5694f9ecce88e2ab084ff578c504593ea625b2e30f0ecf09918319b",
    "pool-nethept_lite-LT-mrr5": "5b47d1b06e8b60f24f0c94a63b043c70d32d20320768469f04ad312e822deab2",
    "pool-nethept_lite-LT-mrr50": "a9caa42acacd637336ea497cb65a482b5e5ce80cbece9b1ec806eeb195670cb4",
    "pool-nethept_lite-LT-rr": "576493cb9fa58304168438ecba902555bcc4f9ac67f3b5f36da645a146f1e10d",
    "pool-livejournal_lite-IC-mrr5": "c32954dd8d12687b1035f8ebbcb9adedd3e5e8d6080e97a4b9d3e22cb9fa89d0",
    "pool-livejournal_lite-IC-mrr50": "26c3ebd2536750180846f5a2789e44b33753b3c900d9049a198d5999858301bc",
    "pool-livejournal_lite-IC-rr": "d73f1efdd565a20fb0339ea38d22da7ca26195bf197b9d2e44eb62ab0cfee4f2",
    "pool-livejournal_lite-LT-mrr5": "4b6df3f46f998b1e75c6a07abf0be136ad64fefd7f2aeca837adb0b8a22eb061",
    "pool-livejournal_lite-LT-mrr50": "f9a0624d7f33b536b9a30da3aa08ef5bf1650e8cfaf00323c78251dddf1c9379",
    "pool-livejournal_lite-LT-rr": "b2e93812c02ca3f1ba738cb51a85d0aab3c9a85ad3b8f3d962457a6418221f4d",
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
    "seeds-nethept_lite-IC-asti-1": "afab4f6abfc82eac07397c7514a2088de5244540c273c97d2057da6103e15285",
    "seeds-nethept_lite-IC-asti-2": "04e4b0d6bf324138670e555ab31dc93c600d8910db893c487850ea3982fe07bb",
    "seeds-nethept_lite-IC-asti4-0": "30ab33badd948c8f6f3a657dd6575b2435a1e283671b0fdbad349af5f1060844",
    "seeds-nethept_lite-IC-asti4-1": "62978ffd7f098fbbab3beed717372639cf97a52fb23f3f89049239287dc80101",
    "seeds-nethept_lite-IC-asti4-2": "7f995121015b8ac33f46daf1cf69908896a76b73c26f04dd6b918837bd71a631",
    "seeds-nethept_lite-IC-adaptim-0": "890930906ec4a800e975ac391d7a56b2d7bac74b2a17610b6e74810e329b5a5a",
    "seeds-nethept_lite-IC-adaptim-1": "bd81cf0e0fdc958359d9b1fe817fb0b5fa08e90f44a5965995f092b84ff11c31",
    "seeds-nethept_lite-IC-adaptim-2": "bd81cf0e0fdc958359d9b1fe817fb0b5fa08e90f44a5965995f092b84ff11c31",
    "seeds-nethept_lite-IC-ateuc-0": "890930906ec4a800e975ac391d7a56b2d7bac74b2a17610b6e74810e329b5a5a",
    "seeds-nethept_lite-IC-ateuc-1": "890930906ec4a800e975ac391d7a56b2d7bac74b2a17610b6e74810e329b5a5a",
    "seeds-nethept_lite-IC-ateuc-2": "890930906ec4a800e975ac391d7a56b2d7bac74b2a17610b6e74810e329b5a5a",
    "seeds-nethept_lite-LT-asti-0": "f3a10786dab85b1ad73e83d42e02399a4d6d0c7c6a1a46e522921628610615e5",
    "seeds-nethept_lite-LT-asti-1": "413d90b423f174a7481f306320ff5aefe47975530e527176e8c43278810d8cf4",
    "seeds-nethept_lite-LT-asti-2": "3f27be98eb3d5ca55498d26c9e6a4466146065e0a84d59cf43940088293b3f89",
    "seeds-nethept_lite-LT-asti4-0": "db40da8198361c5bdce02dcefe42b50aa060492ab58f96469123525ac9693f15",
    "seeds-nethept_lite-LT-asti4-1": "430ce8e3f87c8db872158911ed75cbc296a6b09ec7714b647d2ba5daea17bdb1",
    "seeds-nethept_lite-LT-asti4-2": "43fbffc655659f49ee6268fe4bae0170caf2075ed685957a388345c4080de45e",
    "seeds-nethept_lite-LT-adaptim-0": "890930906ec4a800e975ac391d7a56b2d7bac74b2a17610b6e74810e329b5a5a",
    "seeds-nethept_lite-LT-adaptim-1": "8fd9d75eca3a2d8856db6887f8798bbaab9d1234e193fa3cb86fcfceb4f0ffc4",
    "seeds-nethept_lite-LT-adaptim-2": "bd81cf0e0fdc958359d9b1fe817fb0b5fa08e90f44a5965995f092b84ff11c31",
    "seeds-nethept_lite-LT-ateuc-0": "5cb1216ebf07aba23a2ce821c04491664736938d0db231c64fef7b96183a6e9b",
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
        return _digest(*sample_pool(None, g, active, eta_i, model, 1000, 7, roots=roots))
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
