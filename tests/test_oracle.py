import hashlib
import importlib.util
import json
from pathlib import Path

import pytest

from rectbin import oracle
from rectbin.classify import classify, find_feasible_delta, total_height, total_width
from rectbin.errors import InstanceTooLarge
from rectbin.fileio import serialize_instance, serialize_packing
from rectbin.geometry import Instance, Item, transpose_instance, validate_packing
from rectbin.knapsack import UnitBinMemo
from rectbin.oracle import (
    GeneratorSpec,
    certify_opt,
    exact_min_bins,
    gen_instance,
    plant_delta_height,
    plant_delta_width,
    plant_large_w,
    plant_small_w_case1,
    plant_small_w_case2,
    plant_small_w_case3,
)

from fractions import Fraction

from support import brute_min_bins, oracle_pool_sample

EPS = Fraction(1, 256)


def test_gen_instance_deterministic():
    spec = GeneratorSpec(seed=5, n=9, ell=2)
    a1, w1 = gen_instance(spec)
    a2, w2 = gen_instance(spec)
    assert a1.items == a2.items
    assert [b.placements for b in w1.bins] == [b.placements for b in w2.bins]


def test_gen_instance_witness_validates():
    for seed in range(40):
        for ell in (1, 2, 3):
            n = 3 * ell + seed % 4
            for mode in ("guillotine", "shrink"):
                inst, wit = gen_instance(GeneratorSpec(seed, n, ell, mode))
                assert len(inst.items) == n
                assert len(wit.bins) == ell
                assert validate_packing(wit, inst).ok


def test_gen_instance_bad_spec():
    with pytest.raises(ValueError):
        GeneratorSpec(seed=0, n=2, ell=3)
    with pytest.raises(ValueError):
        GeneratorSpec(seed=0, n=2, ell=1, mode="stretch")


def test_gen_spec_rejects_more_pieces_than_the_grid_holds():
    # a bin is cut into at most GRID * GRID = 4096 cells
    GeneratorSpec(seed=0, n=4096)
    GeneratorSpec(seed=0, n=8192, ell=2)
    for n, ell in ((4097, 1), (8193, 2), (10**8, 1)):
        with pytest.raises(ValueError, match="at most 4096 grid cells"):
            GeneratorSpec(seed=0, n=n, ell=ell)


def test_gen_instance_names_the_overfilled_bin():
    # 8192 pieces fit two bins, but the random count split puts 4100 in bin 1
    with pytest.raises(ValueError, match="bin 1 drew 4100 pieces"):
        gen_instance(GeneratorSpec(seed=0, n=8192, ell=2))


def test_exact_min_bins_single_bin_roundtrip():
    # guillotine pieces of one bin always repack into one bin
    for seed in range(25):
        inst, _ = gen_instance(GeneratorSpec(seed, 6, 1))
        opt, witness = exact_min_bins(inst)
        assert opt == 1
        assert validate_packing(witness, inst).ok


def test_exact_min_bins_matches_assignment_brute_force():
    import random

    rng = random.Random(31)
    for trial in range(40):
        ell = rng.choice([1, 1, 2])
        n = rng.randint(ell, 5)
        mode = rng.choice(["guillotine", "shrink"])
        inst, _ = gen_instance(GeneratorSpec(trial, n, ell, mode))
        opt, witness = exact_min_bins(inst)
        assert opt == brute_min_bins(inst.items)
        assert len(witness.bins) == opt
        assert validate_packing(witness, inst).ok


def test_exact_min_bins_two_big_squares():
    big = Fraction(3, 5)
    inst = Instance([Item(0, big, big), Item(1, big, big)])
    opt, witness = exact_min_bins(inst)
    assert opt == 2
    assert validate_packing(witness, inst).ok


def test_exact_min_bins_infeasible_within_cap():
    big = Fraction(3, 5)
    inst = Instance([Item(i, big, big) for i in range(4)])
    assert exact_min_bins(inst, max_bins=3) is None


def test_exact_min_bins_empty():
    opt, witness = exact_min_bins(Instance([]))
    assert opt == 0 and witness.bins == []


def test_exact_min_bins_limit():
    items = [Item(i, Fraction(1, 10), Fraction(1, 10)) for i in range(9)]
    with pytest.raises(InstanceTooLarge):
        exact_min_bins(Instance(items))
    opt, _ = exact_min_bins(Instance(items), oracle_limit=9)
    assert opt == 1


def test_oracle_monotone_under_item_removal():
    # dropping an item never makes more bins necessary
    for seed in range(12):
        inst, _ = gen_instance(GeneratorSpec(seed, 5, 2))
        base, _ = exact_min_bins(inst)
        for drop in inst.items:
            rest = Instance([it for it in inst.items if it.id != drop.id])
            smaller, _ = exact_min_bins(rest)
            assert smaller <= base


def test_shrink_never_needs_more_bins():
    for seed in range(12):
        spec_g = GeneratorSpec(seed, 5, 2, "guillotine")
        spec_s = GeneratorSpec(seed, 5, 2, "shrink")
        opt_g, _ = exact_min_bins(gen_instance(spec_g)[0])
        opt_s, _ = exact_min_bins(gen_instance(spec_s)[0])
        assert opt_s <= opt_g


def test_certify_opt_one_bin():
    for seed in range(20):
        inst, wit = gen_instance(GeneratorSpec(seed, 7, 1))
        assert certify_opt(inst, 1, wit, oracle_limit=7)


def test_certify_opt_volume_bound():
    # two bins of guillotine pieces have total volume 2 > 1
    inst, wit = gen_instance(GeneratorSpec(3, 12, 2))
    assert certify_opt(inst, 2, wit, oracle_limit=4)


def test_exact_min_bins_none_below_lower_bound(monkeypatch):
    # four big items need four bins; no partition search is needed to say so
    inst = Instance([Item(i, Fraction(3, 5), Fraction(3, 5)) for i in range(4)])
    assert exact_min_bins(inst, max_bins=4)[0] == 4

    def no_search(*args, **kwargs):
        raise AssertionError("the partition search ran")

    monkeypatch.setattr(oracle, "canonical_partitions", no_search)
    assert exact_min_bins(inst, max_bins=3) is None


def test_memo_rank_orders_items_by_volume_then_id():
    # exact_min_bins orders its items by the memo's rank, on the lattice;
    # that is the (-volume, id) order of the Fractions, also for twins and
    # for equal areas of other shapes, whatever the ids' input order
    F = Fraction
    ties = [Item(7, F(1, 2), F(1, 4)), Item(2, F(1, 4), F(1, 2)), Item(5, F(1, 8), F(1)),
            Item(4, F(1, 2), F(1, 4)), Item(9, F(1, 2), F(1, 4)), Item(0, F(1, 3), F(1, 3)),
            Item(3, F(1), F(1, 7)), Item(1, F(1, 7), F(1))]
    for items in [ties, *(inst.items for inst in oracle_pool_sample(step=5))]:
        cache = UnitBinMemo(items)
        assert sorted(items, key=lambda it: cache.rank[it.id]) == \
            sorted(items, key=lambda it: (-it.volume, it.id))


def test_certify_opt_rejects_slack_claim():
    inst, wit = gen_instance(GeneratorSpec(4, 4, 1))
    two_bin = gen_instance(GeneratorSpec(4, 4, 2))[1]
    assert not certify_opt(inst, 2, two_bin, oracle_limit=4)


def test_plant_delta_width():
    for seed in range(30):
        inst, wit = plant_delta_width(seed)
        assert validate_packing(wit, inst).ok
        delta = find_feasible_delta(inst, EPS)
        assert delta is not None
        # the near-full item sits above the chosen cutoff
        assert any(it.width > 1 - delta for it in inst.items)


def test_plant_delta_height():
    for seed in range(30):
        inst, wit = plant_delta_height(seed)
        assert validate_packing(wit, inst).ok
        assert find_feasible_delta(inst, EPS) is None
        assert find_feasible_delta(transpose_instance(inst), EPS) is not None


def test_plant_large_w():
    for seed in range(30):
        inst, wit = plant_large_w(seed)
        assert validate_packing(wit, inst).ok
        classes = classify(inst)
        assert total_height(classes.wide) >= total_width(classes.high) > Fraction(1, 2)


def test_plant_small_w_family():
    for plant in (plant_small_w_case1, plant_small_w_case2, plant_small_w_case3):
        for seed in range(20):
            inst, wit = plant(seed)
            assert validate_packing(wit, inst).ok
            classes = classify(inst)
            assert classes.wide and classes.high
            assert total_width(classes.high) <= Fraction(1, 2)
            assert total_height(classes.wide) >= total_width(classes.high)


# The search order decides which witness comes out first, so these bytes
# pin the order of the canonical partition search.
ORACLE_GOLDEN = [
    (GeneratorSpec(3, 6, 1),
     "bins 1\nbin 0\n0 0 0\n2 0 9/16\n1 0 51/64\n3 23/32 9/16\n5 59/64 0\n4 31/32 0\n"),
    (GeneratorSpec(8, 8, 2, "shrink"),
     "bins 2\nbin 0\n4 0 0\n2 0 7/16\n0 55/64 0\n3 0 11/16\n6 0 3/4\n1 31/32 0\n"
     "bin 1\n7 0 0\n5 21/64 0\n"),
    (GeneratorSpec(5, 8, 3),
     "bins 3\nbin 0\n0 0 0\nbin 1\n1 0 0\n2 21/32 0\n3 27/32 0\n"
     "bin 2\n6 0 0\n7 0 35/64\n4 7/8 0\n5 7/8 7/8\n"),
]


@pytest.mark.parametrize("spec, expected", ORACLE_GOLDEN)
def test_exact_min_bins_golden_output(spec, expected):
    inst, _ = gen_instance(spec)
    opt, witness = exact_min_bins(inst)
    assert serialize_packing(witness) == expected


# gen_instance shrink specs (seed, n, ell) from the slow tail of the exact
# region packer, with the count and witness that the search without forward
# checking or the full-side cut returned (230964 took 643 s there, 171315
# 129 s, 713315 8 s, the others 0.3 s to 1.2 s)
ORACLE_TAIL_GOLDEN = [
    ((230964, 7, 1), 1,
     "bins 1\nbin 0\n1 0 0\n5 37/64 0\n2 27/64 0\n3 0 49/128\n6 143/256 0\n0 0 7/8\n"
     "4 0 157/256\n"),
    ((171315, 7, 3), 2,
     "bins 2\nbin 0\n0 0 0\n5 111/256 0\n6 0 7/8\n1 239/256 0\n2 111/256 119/256\n"
     "4 111/256 131/256\nbin 1\n3 0 0\n"),
    ((713315, 8, 3), 2,
     "bins 2\nbin 0\n3 0 0\n7 81/256 0\n1 169/256 0\n6 81/256 51/64\n2 111/128 0\n"
     "0 117/128 0\nbin 1\n5 0 0\n4 0 3/8\n"),
    ((88027, 8, 2), 2,
     "bins 2\nbin 0\n0 0 0\n1 9/16 0\n7 9/16 5/8\n5 357/512 0\n3 357/512 53/256\n"
     "bin 1\n4 0 0\n2 117/256 0\n6 249/512 0\n"),
    ((318136, 6, 2), 2,
     "bins 2\nbin 0\n5 0 0\n2 0 3/4\n3 0 7/8\n1 7/8 0\n4 0 43/64\nbin 1\n0 0 0\n"),
    ((155901, 8, 2), 1,
     "bins 1\nbin 0\n7 0 0\n4 0 39/64\n2 0 3/4\n6 21/32 0\n0 0 117/512\n5 0 153/512\n"
     "1 0 231/512\n3 0 279/512\n"),
]


@pytest.mark.parametrize("spec, count, expected", ORACLE_TAIL_GOLDEN,
                         ids=["-".join(map(str, spec)) for spec, _, _ in ORACLE_TAIL_GOLDEN])
def test_exact_min_bins_tail_golden_output(spec, count, expected):
    seed, n, ell = spec
    inst, _ = gen_instance(GeneratorSpec(seed=seed, n=n, ell=ell, mode="shrink"))
    found, witness = exact_min_bins(inst)
    assert (found, serialize_packing(witness)) == (count, expected)


# sha256 digests of the benchmark pools (perfbench/corpus.py's build_pool at
# each workload's size in perfbench/run.py), of every plant for seeds 0-99
# and of a few large gen_instance specs.  The pools are built from the
# generators' rng draws, so any change to the draw order or to the layouts
# changes the benchmark's inputs; these pin them byte for byte.
POOL_SHA256 = {
    "one_bin": "3d1adbb567c1e66305b91657ed78e057bc6887caf0f41f2f093dcf52f4e686fa",
    "two_bin": "5f4767b8fe4648decb341ca61b1e209d166ee155f2f16827e14778981bf3b0a5",
    "oracle": "dcced02193c3d9627a5860a8acd78be287188d9d1ad21f834645eb59a3a0f57c",
}
PLANT_SHA256 = {
    "plant_const_case1": "f610ae317d08c7c09e059776fed433bd4698605c8ca6bb070ff7430e6da8978a",
    "plant_const_case2": "236e01d7acc88a20436070a3f97fd1a0bbbda23d1f285de65229e921fb58fc0e",
    "plant_const_case3": "2ccbdbbdaf6fb9f74fedb89b9419d48744d4675ff22ae613a2e04ccd351c07f5",
    "plant_const_case4": "7d1e9c6c7e50fd66ecb4a355c12bc4dbd0380699ad3de764a88b0786be77bd9f",
    "plant_delta_height": "4b7223141c6895e16195a196dbdf3847761c6bf1179027a962eebd41af4aef49",
    "plant_delta_width": "050f4ad17a98f0d01bc7f98dc285d1a7a69b063c4c307e0df7665f4cd3dce044",
    "plant_large_w": "c74ccc324173158e81e5021781c87ab7de9bc765f0f5e89a1aabfb605df16d12",
    "plant_small_w_case1": "34f52ad8c9eacb2c868bda54fb589d3d159b35b2f97032f598ac6280a5189b16",
    "plant_small_w_case2": "2dc27efb14eef177bb9e5779963fdd39364b5c80ec7f0df6645aec0bb030b6b0",
    "plant_small_w_case3": "c9218ad5011e15bca42d195e0c595f349e6115a12660afbaf346b9d7b9698728",
}
GEN_SHA256 = {
    (1, 4000, 1, "shrink"): "13e4914e7806f9751e4393bf3f85ff49e4f1246db2d7c65a9886f322c8d17773",
    (2, 4000, 1, "shrink"): "39be3ff3afad7a3fbb52cceebb693523ee9ddca0b77e9dde8ce68fc1cc0e8d7a",
    (3, 4000, 1, "shrink"): "a0a44baebc8aaec1d615c6d98cd27520109d31510e87e0af2e2389c64436e9e5",
    (1, 40, 5, "guillotine"): "7023844232d1570d6c61c47171b65ef5820a96b387d710e06b19e027e93348a2",
    (1, 40, 5, "shrink"): "0379604ead2cd9d5aad36e56709788a4f051b0f6ab595bbdefeb14afe4202ba5",
    (2, 40, 5, "guillotine"): "c4ddbb22ab3619e5ef740692d95903fbe4ea7594f87c09a985b7796c2b5618c3",
    (2, 40, 5, "shrink"): "4ceff4cec341d0632976ae7885a3e955430c7ad581a7d4809338266790749281",
}


def _perfbench(name):
    path = Path(__file__).resolve().parents[1] / "perfbench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


def test_pools_and_plants_are_pinned():
    corpus, run = _perfbench("corpus"), _perfbench("run")
    pools = {workload: _sha256(json.dumps(corpus.build_pool(workload, run.WORKLOADS[workload][1]),
                                          sort_keys=True))
             for workload in POOL_SHA256}
    assert pools == POOL_SHA256
    plants = {}
    for name in PLANT_SHA256:
        texts = (serialize_instance(inst) + serialize_packing(wit)
                 for inst, wit in map(getattr(oracle, name), range(100)))
        plants[name] = _sha256("".join(texts))
    assert plants == PLANT_SHA256
    assert sorted(name for name in dir(oracle) if name.startswith("plant_")) == sorted(plants)
    generated = {spec: _sha256(serialize_instance(inst) + serialize_packing(wit))
                 for spec in GEN_SHA256
                 for inst, wit in [gen_instance(GeneratorSpec(*spec))]}
    assert generated == GEN_SHA256
