import pytest

from rectbin.classify import classify, find_feasible_delta, total_height, total_width
from rectbin.errors import InstanceTooLarge
from rectbin.fileio import serialize_packing
from rectbin.geometry import Instance, Item, validate_packing
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

from support import brute_min_bins

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


def test_certify_opt_rejects_slack_claim():
    inst, wit = gen_instance(GeneratorSpec(4, 4, 1))
    two_bin = gen_instance(GeneratorSpec(4, 4, 2))[1]
    assert not certify_opt(inst, 2, two_bin, oracle_limit=4)


def test_plant_delta_width():
    for seed in range(30):
        inst, wit = plant_delta_width(seed)
        assert validate_packing(wit, inst).ok
        delta = find_feasible_delta(inst, EPS, axis="width")
        assert delta is not None
        # the near-full item sits above the chosen cutoff
        assert any(it.width > 1 - delta for it in inst.items)


def test_plant_delta_height():
    for seed in range(30):
        inst, wit = plant_delta_height(seed)
        assert validate_packing(wit, inst).ok
        assert find_feasible_delta(inst, EPS, axis="width") is None
        assert find_feasible_delta(inst, EPS, axis="height") is not None


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
