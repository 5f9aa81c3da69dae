import itertools
import random
from fractions import Fraction

import pytest

from rectbin.errors import InstanceTooLarge
from rectbin.geometry import Item, validate_bin
from rectbin.knapsack import (
    KnapsackResult,
    ProfitItem,
    canonical_partitions,
    exact_pack_single_region,
    max_area_pack,
    max_profit_pack,
    unit_bin_layout,
)
from support import brute_canonical_splits, naive_fits, rand_frac


def brute_force_profit(pitems, a, b):
    usable = [pi for pi in pitems if pi.item.width <= a and pi.item.height <= b]
    subsets = []
    for k in range(len(usable) + 1):
        for combo in itertools.combinations(usable, k):
            subsets.append((sum((pi.profit for pi in combo), Fraction(0)), combo))
    # richest subset first: the first feasible one is the optimum
    subsets.sort(key=lambda t: -t[0])
    for profit, combo in subsets:
        if naive_fits([pi.item for pi in combo], a, b):
            return profit
    return Fraction(0)


def check_result(res: KnapsackResult, items_by_id):
    report = validate_bin(res.layout, items_by_id)
    assert report.ok, report.violations
    assert sorted(res.layout.item_ids()) == sorted(it.id for it in res.selected)


def test_perfect_tiling():
    pis = [ProfitItem(Item(i, Fraction(1, 2), Fraction(1, 2)), Fraction(1, 4)) for i in range(4)]
    res = max_profit_pack(pis, 1, 1, Fraction(1, 100))
    assert res.exact and res.achieved_profit == 1 and len(res.selected) == 4
    check_result(res, {pi.item.id: pi.item for pi in pis})


def test_oversized_item_excluded():
    it = Item(0, Fraction(4, 5), Fraction(4, 5))
    res = max_profit_pack([ProfitItem(it, it.volume)], Fraction(1, 2), 1, Fraction(1, 100))
    assert res.selected == [] and res.achieved_profit == 0 and res.exact


def test_area_pack_empty_and_unfit():
    res = max_area_pack([], 1, 1, Fraction(1, 100))
    assert res.selected == [] and res.achieved_profit == 0
    wide = [Item(i, Fraction(9, 10), Fraction(1, 10)) for i in range(3)]
    res = max_area_pack(wide, Fraction(1, 2), 1, Fraction(1, 100))
    assert res.selected == [] and res.achieved_profit == 0


def test_profit_rejects_ratio_below_one():
    it = Item(0, Fraction(1, 2), Fraction(1, 2))
    with pytest.raises(ValueError):
        ProfitItem(it, Fraction(1, 8))


def test_exact_matches_brute_force():
    rng = random.Random(42)
    for trial in range(120):
        n = rng.randint(1, 7)
        items = []
        for i in range(n):
            den = rng.choice([4, 8, 16])
            items.append(Item(i, rand_frac(rng, Fraction(1, 16), 1, den), rand_frac(rng, Fraction(1, 16), 1, den)))
        pis = [
            ProfitItem(it, it.volume * rand_frac(rng, 1, 3, 4))
            for it in items
        ]
        a = Fraction(rng.randint(2, 4), 4)
        b = Fraction(rng.randint(2, 4), 4)
        res = max_profit_pack(pis, a, b, Fraction(1, 100))
        assert res.exact
        assert res.achieved_profit == brute_force_profit(pis, a, b), (trial, pis, a, b)
        check_result(res, {it.id: it for it in items})


def test_exact_deterministic():
    items = [Item(i, Fraction(1, 3), Fraction(1, 2)) for i in range(5)]
    pis = [ProfitItem(it, it.volume) for it in items]
    r1 = max_profit_pack(pis, 1, 1, Fraction(1, 100))
    r2 = max_profit_pack(pis, 1, 1, Fraction(1, 100))
    assert r1.layout.placements == r2.layout.placements


def test_area_monotone_in_region():
    rng = random.Random(9)
    for _ in range(40):
        items = [
            Item(i, rand_frac(rng, Fraction(1, 8), 1, 8), rand_frac(rng, Fraction(1, 8), 1, 8))
            for i in range(rng.randint(1, 6))
        ]
        a1 = Fraction(rng.randint(1, 3), 4)
        a2 = a1 + Fraction(1, 4)
        small = max_area_pack(items, a1, 1, Fraction(1, 100))
        large = max_area_pack(items, a2, 1, Fraction(1, 100))
        assert large.achieved_profit >= small.achieved_profit


def test_exact_pack_center_conflict():
    items = [Item(i, Fraction(3, 5), Fraction(3, 5)) for i in range(2)]
    assert exact_pack_single_region(items, 1, 1) is None


def test_exact_pack_side_by_side():
    items = [Item(i, Fraction(1, 2), Fraction(1)) for i in range(2)]
    layout = exact_pack_single_region(items, 1, 1)
    assert layout is not None
    report = validate_bin(layout, {it.id: it for it in items})
    assert report.ok and sorted(layout.item_ids()) == [0, 1]


def test_exact_pack_respects_limit():
    items = [Item(i, Fraction(1, 16), Fraction(1, 16)) for i in range(11)]
    with pytest.raises(InstanceTooLarge):
        exact_pack_single_region(items, 1, 1, exact_limit=10)
    assert exact_pack_single_region(items, 1, 1, exact_limit=11) is not None


def test_exact_pack_agrees_with_naive_search():
    rng = random.Random(7)
    agree = 0
    while agree < 1000:
        n = rng.randint(1, 5)
        items = []
        for i in range(n):
            den = rng.choice([3, 4, 5, 8])
            items.append(Item(i, rand_frac(rng, Fraction(1, 8), 1, den), rand_frac(rng, Fraction(1, 8), 1, den)))
        a = Fraction(rng.randint(2, 4), 4)
        b = Fraction(rng.randint(2, 4), 4)
        layout = exact_pack_single_region(items, a, b)
        expected = naive_fits(items, a, b)
        assert (layout is not None) == expected, (items, a, b)
        if layout is not None:
            report = validate_bin(layout, {it.id: it for it in items})
            assert report.ok and sorted(layout.item_ids()) == sorted(it.id for it in items)
        agree += 1


def test_best_effort_certifies_or_raises():
    # 12 easy slivers: greedy packs everything, bound met, flagged inexact
    items = [Item(i, Fraction(1, 16), Fraction(1, 16)) for i in range(12)]
    res = max_area_pack(items, 1, 1, Fraction(1, 10), exact_limit=10)
    assert not res.exact
    assert res.achieved_profit == sum(it.volume for it in items)

    # 12 near-half squares: one fits per corner row, bound unreachable
    crowd = [Item(i, Fraction(33, 64), Fraction(33, 64)) for i in range(12)]
    with pytest.raises(InstanceTooLarge):
        max_area_pack(crowd, 1, 1, Fraction(1, 10), exact_limit=10)


def test_canonical_partitions_match_brute_force():
    # the same cache serves every bin count, as in the oracle's search
    rng = random.Random(11)
    for trial in range(60):
        n = rng.randint(0, 6)
        items = []
        for i in range(n):
            den = rng.choice([2, 3, 4, 8])
            items.append(Item(i, rand_frac(rng, Fraction(1, 8), 1, den),
                              rand_frac(rng, Fraction(1, 8), 1, den)))
        rng.shuffle(items)  # splits follow the caller's order, not the ids
        cache = {}
        for labeled in (0, 1):
            for bins in (1, 2, 3):
                got = [tuple(tuple(it.id for it in part) for part in split)
                       for split in canonical_partitions(items, bins, cache, 6, labeled)]
                assert got == brute_canonical_splits(items, bins, labeled), (trial, items)
        by_id = {it.id: it for it in items}
        for key, layout in cache.items():
            assert (layout is not None) == naive_fits([by_id[i] for i in key], 1, 1)
            if layout is not None:
                assert validate_bin(layout, by_id).ok and sorted(layout.item_ids()) == sorted(key)
                assert unit_bin_layout([by_id[i] for i in key], cache, 6) is layout
