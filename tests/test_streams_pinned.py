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
    "pool-nethept_lite-IC-mrr5": "1248b524d5b19063e4b62a5caa09ff9b097b9fede5bf455150af90a0d231a854",
    "pool-nethept_lite-IC-mrr50": "226883cdbaa056bebf29c5f0955466cf518a7b4af874f7b57628cb744e576166",
    "pool-nethept_lite-IC-rr": "9c06b45fe07c7ecce5edcb87ee2ab6c8ba8624b08db8ce1ca81f262b139eb522",
    "pool-nethept_lite-LT-mrr5": "ad8a377819a57bdb4b81bc5050d04afb9376752869f472d4db09c73855e06f12",
    "pool-nethept_lite-LT-mrr50": "58dce9456b15c9b810e19d4d19fad84eea0c0d6acf782e231661bd6a2d04f381",
    "pool-nethept_lite-LT-rr": "990aca0e05d467a29e447e45fcc6c3d5554274bc1af7b71634e12de25948fc25",
    "pool-livejournal_lite-IC-mrr5": "4c52fa1f8aaf1a4a6405c4549726f5ef8004b6dad153d7990cd705579b3a30eb",
    "pool-livejournal_lite-IC-mrr50": "4685236430f069c9ddb93465edc1709f117bd616d72ace495d988a39173fa0e7",
    "pool-livejournal_lite-IC-rr": "90721fe3c21c5b65aa50a2162f577fc27f4b99dd173344f7e67ea9a419cdb6c5",
    "pool-livejournal_lite-LT-mrr5": "d9ab4670860a5f2a92f5b2c30e737e6374900cd17eb6c137814f5f4e283a361a",
    "pool-livejournal_lite-LT-mrr50": "3e1adab7ae4dd835afe5ed4b9bd61d544f0db040f4e9e95a3912c447cee72f16",
    "pool-livejournal_lite-LT-rr": "f8782b8bfd8664734e157cf91018515a403056c5723ba8892e7fa442d2bac91b",
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
    "seeds-nethept_lite-IC-asti-1": "e1d2193de20ceac16a931a75d744b7cd2c8982c953cc83c92fb0c37ee4908982",
    "seeds-nethept_lite-IC-asti-2": "413d90b423f174a7481f306320ff5aefe47975530e527176e8c43278810d8cf4",
    "seeds-nethept_lite-IC-asti4-0": "5afdd5ecc7d5615dc670e6f1079a14f1cfcb0a092adae3be220f0c6d292ceb9e",
    "seeds-nethept_lite-IC-asti4-1": "ccc71081e5a171d269697c308908857c0a82dd9d34bd42db63e3018bf558d3bd",
    "seeds-nethept_lite-IC-asti4-2": "a8ff21584247ceb5de1146f8762b8c84b594d2fd9b10cd3420827e6ac8baee83",
    "seeds-nethept_lite-IC-adaptim-0": "890930906ec4a800e975ac391d7a56b2d7bac74b2a17610b6e74810e329b5a5a",
    "seeds-nethept_lite-IC-adaptim-1": "bd81cf0e0fdc958359d9b1fe817fb0b5fa08e90f44a5965995f092b84ff11c31",
    "seeds-nethept_lite-IC-adaptim-2": "bd81cf0e0fdc958359d9b1fe817fb0b5fa08e90f44a5965995f092b84ff11c31",
    "seeds-nethept_lite-IC-ateuc-0": "204cbfb4436ac612c0b8f185fcd64fa625ffaffb5f70e9195962d45477a5d994",
    "seeds-nethept_lite-IC-ateuc-1": "93913e76b5637b3441622a21292e97256a863e98ab7cdd79db2956bde9c09cf5",
    "seeds-nethept_lite-IC-ateuc-2": "5b416088d82ab622581821ef8e2cfa29ebc2947edb7101d2ff0377ae1c13d5dd",
    "seeds-nethept_lite-LT-asti-0": "a7109f01f209914b33503d83f066b9392ec8ea91ac46eeac74d6bff36711e1a2",
    "seeds-nethept_lite-LT-asti-1": "04e4b0d6bf324138670e555ab31dc93c600d8910db893c487850ea3982fe07bb",
    "seeds-nethept_lite-LT-asti-2": "38fd84679696125734535989e0bca2ae52e7a2a731593d0152232668f095dcec",
    "seeds-nethept_lite-LT-asti4-0": "bc55a96462bc565c47842e1f27a7c3f604c8cf5c3d6b1d735313451763d5e937",
    "seeds-nethept_lite-LT-asti4-1": "15828d596dcde5cf1c5ce878e982c62bd75a1915b28e5f942cc722dadd3f065d",
    "seeds-nethept_lite-LT-asti4-2": "8f3108770513028861d98e9345c89a7cf74a3f291ac1f064db8b5e2d73a18e0c",
    "seeds-nethept_lite-LT-adaptim-0": "890930906ec4a800e975ac391d7a56b2d7bac74b2a17610b6e74810e329b5a5a",
    "seeds-nethept_lite-LT-adaptim-1": "30ab33badd948c8f6f3a657dd6575b2435a1e283671b0fdbad349af5f1060844",
    "seeds-nethept_lite-LT-adaptim-2": "bd81cf0e0fdc958359d9b1fe817fb0b5fa08e90f44a5965995f092b84ff11c31",
    "seeds-nethept_lite-LT-ateuc-0": "890930906ec4a800e975ac391d7a56b2d7bac74b2a17610b6e74810e329b5a5a",
    "seeds-nethept_lite-LT-ateuc-1": "890930906ec4a800e975ac391d7a56b2d7bac74b2a17610b6e74810e329b5a5a",
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
