import itertools
import math
import random
from fractions import Fraction

import pytest

from rectbin import knapsack
from rectbin.classify import vol
from rectbin.config import MAX_LIMIT
from rectbin.errors import InstanceTooLarge
from rectbin.geometry import BinLayout, Instance, Item, validate_bin, validate_packing
from rectbin.knapsack import (
    KnapsackResult,
    ProfitItem,
    UnitBinMemo,
    canonical_partitions,
    exact_pack_single_region,
    max_area_pack,
    max_profit_pack,
    unit_bin_layout,
)
from rectbin.oracle import GeneratorSpec, exact_min_bins, gen_instance
from support import (
    SearchBudgetExceeded,
    brute_canonical_splits,
    naive_fits,
    rand_frac,
    reference_best_effort,
    reference_feasible_positions,
    reference_profit_search,
    unpruned_region_search,
)


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


def test_the_exact_searches_run_at_the_maximum_limit():
    # MAX_LIMIT squares of 1/16 tile the unit bin; each search recurses
    # once per item, and the memo once more per item of a missed set
    items = [Item(i, Fraction(1, 16), Fraction(1, 16)) for i in range(MAX_LIMIT)]
    by_id = {it.id: it for it in items}
    layout = exact_pack_single_region(items, 1, 1, MAX_LIMIT)
    assert validate_bin(layout, by_id).ok and len(layout.placements) == MAX_LIMIT
    count, packing = exact_min_bins(Instance(items), max_bins=1, oracle_limit=MAX_LIMIT)
    assert count == 1 and validate_packing(packing, Instance(items)).ok
    placed = knapsack._search_lattice([(1, 1)] * MAX_LIMIT, 16, 16)
    assert sorted(placed) == [(x, y, x + 1, y + 1) for x in range(16) for y in range(16)]
    # full-height columns and full-width rows: each is placed at the
    # corner of the region left, in a loop, and nothing is left to search
    placed = knapsack._search_lattice([(1, MAX_LIMIT)] * MAX_LIMIT, MAX_LIMIT, MAX_LIMIT)
    assert placed == [(x, 0, x + 1, MAX_LIMIT) for x in range(MAX_LIMIT)]
    placed = knapsack._search_lattice([(MAX_LIMIT, 1)] * MAX_LIMIT, MAX_LIMIT, MAX_LIMIT)
    assert placed == [(0, y, MAX_LIMIT, y + 1) for y in range(MAX_LIMIT)]


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


BOUNDARY_SIDES = [Fraction(1, 2) - Fraction(1, 1000), Fraction(1, 2) + Fraction(1, 1000),
                  Fraction(255, 256), Fraction(1, 100)]
BOUNDARY_REGIONS = [Fraction(1), Fraction(2, 3), Fraction(5, 7), Fraction(255, 256),
                    Fraction(1, 2) + Fraction(1, 1000)]


def test_feasible_positions_match_the_reference():
    # skipping wholly blocked columns changes no yield: the whole position
    # sequence equals the plain scan's on crowded random layouts, for every
    # shape of the set, boxes wider or higher than the region, an empty
    # layout, floors at a placed twin and at random positions, and scans
    # resumed after a nested placement was added and removed, as the
    # searches do; the plain scan (skip=False) yields the same
    rng = random.Random(13)
    counts = {"sequences": 0, "twin_floors": 0, "blocked_columns": 0}

    def walk(w, h, xs, ys, placed, a, b, floor, depth, sides):
        got = knapsack._feasible_positions(w, h, xs, ys, placed, a, b, floor)
        seq = []
        nested = 0
        for spot in reference_feasible_positions(w, h, xs, ys, placed, a, b, floor):
            assert next(got) == spot, (w, h, placed, a, b, floor, seq)
            seq.append(spot)
            if depth and nested < 3 and rng.random() < 0.3:
                nested += 1
                x, y = spot
                placed.append((x, y, x + w, y + h))
                w2, h2 = rng.choice(sides)
                twin = (w2, h2) == (w, h)
                counts["twin_floors"] += twin
                walk(w2, h2, xs, ys, placed, a, b, (x, y) if twin else None, depth - 1, sides)
                placed.pop()
        assert next(got, None) is None, (w, h, placed, a, b, floor, seq)
        assert list(knapsack._feasible_positions(w, h, xs, ys, placed, a, b, floor,
                                                 skip=False)) == seq
        counts["sequences"] += 1
        yielded = {x for x, _ in seq}
        counts["blocked_columns"] += sum(
            1 for x in xs if x + w <= a and (floor is None or x > floor[0]) and x not in yielded)

    for trial in range(300):
        a, b = rng.choice(BOUNDARY_REGIONS), rng.choice(BOUNDARY_REGIONS)
        items = []
        for i in range(rng.randint(2, 9)):
            if items and rng.random() < 0.3:
                w, h = items[-1].width, items[-1].height  # a twin
            else:
                w, h = (rng.choice(BOUNDARY_SIDES) if rng.random() < 0.3 else
                        rand_frac(rng, Fraction(1, 100), Fraction(3, 5), rng.choice([3, 5, 7, 64, 1000]))
                        for _ in range(2))
            items.append(Item(i, w, h))
        d, a_d, b_d, sides = knapsack._lattice(items, a, b)
        xs = knapsack._axis_positions([w for w, _ in sides], a_d)
        ys = knapsack._axis_positions([h for _, h in sides], b_d)
        shapes = list(dict.fromkeys(sides)) + [(a_d + 1, 1), (1, b_d + 1)]
        for w, h in shapes:
            walk(w, h, xs, ys, [], a_d, b_d, None, 0, sides)
        # a crowded layout: most boxes at one of their first positions
        placed = []
        for w, h in sides:
            spots = list(reference_feasible_positions(w, h, xs, ys, placed, a_d, b_d))
            if spots:
                x, y = rng.choice(spots[:3] if rng.random() < 0.7 else spots)
                placed.append((x, y, x + w, y + h))
        for w, h in shapes:
            floors = [None, (rng.choice(xs), rng.choice(ys))]
            floors += [(x, y) for x, y, r, top in placed if (r - x, top - y) == (w, h)]
            counts["twin_floors"] += len(floors) - 2
            for floor in floors:
                walk(w, h, xs, ys, placed, a_d, b_d, floor, 2, sides)
    assert counts["sequences"] > 10000 and counts["twin_floors"] > 500
    assert counts["blocked_columns"] > 10000


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
    # coprime denominators, regions off the items' lattice, boundary sides
    fits = 0
    for trial in range(600):
        items = []
        for i in range(rng.randint(1, 4)):
            w, h = (rng.choice(BOUNDARY_SIDES) if rng.random() < 0.3 else
                    rand_frac(rng, Fraction(1, 100), 1, rng.choice([3, 5, 7, 64, 1000]))
                    for _ in range(2))
            items.append(Item(i, w, h))
        a, b = rng.choice(BOUNDARY_REGIONS), rng.choice(BOUNDARY_REGIONS)
        layout = exact_pack_single_region(items, a, b)
        assert (layout is not None) == naive_fits(items, a, b), (trial, items, a, b)
        if layout is not None:
            fits += 1
            report = validate_bin(layout, {it.id: it for it in items})
            assert report.ok and sorted(layout.item_ids()) == sorted(it.id for it in items)
    assert 100 < fits < 500


def test_pruned_search_returns_the_unpruned_layout(monkeypatch):
    # forward checking and the refutations only drop subtrees without a
    # solution, so the first layout is the one the plain search finds
    checks = []
    first_spots = knapsack._first_spots

    def counted(*args):
        spots = first_spots(*args)
        checks.append(spots is None)
        return spots

    monkeypatch.setattr(knapsack, "_first_spots", counted)
    rng = random.Random(5)

    def side(limit):
        if rng.random() < 0.3:
            s = rng.choice(BOUNDARY_SIDES)
            if s <= limit:
                return s
        return rand_frac(rng, limit / 20, limit * Fraction(3, 5), rng.choice([3, 5, 7, 64, 1000]))

    # 1000 sets, since the cut and the clique refute many sets before the
    # forward check sees them
    compared = fits = full = checked_sets = 0
    while compared < 1000:
        a, b = rng.choice(BOUNDARY_REGIONS), rng.choice(BOUNDARY_REGIONS)
        items = []
        for i in range(rng.randint(5, 8)):
            kind = rng.random()
            w = a if 0.1 <= kind < 0.2 else side(a)
            h = b if kind < 0.1 else side(b)
            items.append(Item(i, w, h))
        if vol(items) > a * b:
            continue
        try:
            expected = unpruned_region_search(items, a, b, max_placements=1000)
        except SearchBudgetExceeded:
            continue
        before = len(checks)
        layout = exact_pack_single_region(items, a, b)
        got = None if layout is None else [(p.item_id, p.x, p.y) for p in layout.placements]
        assert got == expected, (items, a, b)
        compared += 1
        fits += layout is not None
        full += any(it.width == a or it.height == b for it in items)
        checked_sets += len(checks) > before
    assert 300 < fits < 700 and full > 300
    assert checked_sets > 50 and sum(checks) > 1000  # sets forward checked, placements dropped


def guillotine_tiling(rng, a, b, n):
    """n rectangles that tile region (a, b) exactly: the largest piece is cut
    in two, across its longer side (a random side for a square), at a random
    point from a fifth to under four fifths of it."""
    pieces = [(a, b)]
    while len(pieces) < n:
        pieces.sort(key=lambda p: p[0] * p[1])
        w, h = pieces.pop()
        across = w > h or (w == h and rng.random() < 0.5)
        side = w if across else h
        cut = side * (Fraction(rng.randint(1, 3), 5)
                      + Fraction(rng.randint(0, 5), 5 * rng.choice([7, 64, 1000])))
        if across:
            pieces += [(cut, h), (w - cut, h)]
        else:
            pieces += [(w, cut), (w, h - cut)]
    return pieces


def test_waste_check_returns_the_unpruned_layout(monkeypatch):
    # perfect tilings leave no slack, near-perfect ones (one piece shrunk)
    # very little, so a placement that strands any free area is dropped;
    # the check only drops subtrees without a solution, so the first layout
    # is the plain search's.  A set that search cannot settle within 3000
    # placements is skipped, the same way on every machine.
    checks = []
    wasted = knapsack._wasted

    def counted(*args):
        dropped = wasted(*args)
        checks.append(dropped)
        return dropped

    monkeypatch.setattr(knapsack, "_wasted", counted)
    rng = random.Random(19)
    compared = shrunk = 0
    while compared < 300:
        a, b = rng.choice(BOUNDARY_REGIONS), rng.choice(BOUNDARY_REGIONS)
        pieces = guillotine_tiling(rng, a, b, rng.randint(5, 8))
        near = rng.random() < 0.5
        if near:
            k = rng.randrange(len(pieces))
            w, h = pieces[k]
            scale = Fraction(rng.randint(90, 99), 100)
            pieces[k] = (w * scale, h) if rng.random() < 0.5 else (w, h * scale)
        rng.shuffle(pieces)
        items = [Item(i, w, h) for i, (w, h) in enumerate(pieces)]
        try:
            expected = unpruned_region_search(items, a, b, max_placements=3000)
        except SearchBudgetExceeded:
            continue
        assert expected is not None  # a tiling fits, shrunk or not
        layout = exact_pack_single_region(items, a, b)
        got = None if layout is None else [(p.item_id, p.x, p.y) for p in layout.placements]
        assert got == expected, (items, a, b)
        compared += 1
        shrunk += near
    assert 100 < shrunk < 200
    assert sum(checks) > 1000  # placements the waste check dropped


GOLDEN_DENS = [3, 5, 7, 8, 64, 1000]
GOLDEN_REGIONS = [Fraction(1), Fraction(2, 3), Fraction(5, 7), Fraction(3, 4), Fraction(255, 256)]


def golden_side(rng):
    return Fraction(rng.randint(1, 5), 10) + Fraction(rng.randint(0, 6), rng.choice(GOLDEN_DENS) * 10)


def golden_fill(rng, a, b, cap):
    """Items drawn until their area would pass a random share of the region."""
    target = a * b * Fraction(rng.randint(5, 11), 10)
    items, area = [], Fraction(0)
    while len(items) < cap:
        it = Item(len(items), golden_side(rng), golden_side(rng))
        if area + it.volume > target and len(items) >= 2:
            break
        items.append(it)
        area += it.volume
    return items


def placements_text(layout):
    if layout is None:
        return "None"
    return " ".join(f"{p.item_id}:{p.x},{p.y}" for p in layout.placements)


# exact_pack_single_region on golden_fill(rng, a, b, 6) for Random(31337),
# recorded with the Fraction search that preceded the integer lattice
GOLDEN_REGION_LAYOUTS = [
    '1:0,0 0:0,13/35 2:323/640,0',
    '0:0,0 1:21/50,0',
    '0:0,0 1:0,1/2 2:3/5,0 3:0,4/5',
    '2:0,0 4:0,17/35 0:0,11/14 3:2/5,0 1:2/5,13/35 5:163/320,1063/2240',
    'None',
    'None',
    '5:0,0 4:0,17/50 1:1/3,17/50 2:65/128,3/5 0:5003/10000,0 3:0,2393/3200',
    '1:0,0 2:0,4/7 0:2/5,0',
    'None',
    'None',
    'None',
    '1:0,0 0:0,4001/10000',
    '1:0,0 0:21/40,0',
    'None',
    '1:0,0 3:0,33/80 0:0,229/400 2:1001/2000,0',
    'None',
    'None',
    '5:0,0 4:261/640,0 2:261/640,2003/10000 0:97/128,0 1:1753/3200,2003/10000 3:549/640,0',
    'None',
    'None',
]

# max_profit_pack on golden_fill(rng, a, b, 5) plus item 9 with profits of
# 1 to 3 times the area, for Random(4242); recorded like the layouts above
GOLDEN_PROFIT_PACKS = [
    '441/1000 | 1:0,0',
    '10207103/8400000 | 1:0,0 2:0,2001/5000 0:7/20,0 9:0,14129/20000 3:0,17379/20000',
    '6543/12800 | 0:0,0 9:0,21/50',
    '391/1000 | 9:0,0 0:3/10,0',
    '1614413629/1960000000 | 1:0,0 9:0,259/640 0:0,363/640 4:11/50,363/640 2:11/50,269/384 3:3/10,0',
    '209863/192000 | 0:0,0 1:0,2/5 3:13/64,2/5 9:129/320,2/5',
    '2140451/2800000 | 9:0,0 3:4001/10000,0',
    '803161721/627200000 | 3:0,0 9:0,2/5 1:1/2,2/5 0:5003/10000,0 2:61/80,0 4:61/80,17/30',
    '357/250 | 2:0,0 1:0,3/10 0:3/5,0 9:2/5,13/30',
    '48249/39200 | 0:0,0 3:0,13/50 4:1/2,13/50 1:0,108/175 2:19/70,108/175 9:19/70,2323/2800',
]


def test_exact_pack_golden_layouts():
    rng = random.Random(31337)
    got = []
    for _ in GOLDEN_REGION_LAYOUTS:
        a, b = rng.choice(GOLDEN_REGIONS), rng.choice(GOLDEN_REGIONS)
        got.append(placements_text(exact_pack_single_region(golden_fill(rng, a, b, 6), a, b)))
    assert got == GOLDEN_REGION_LAYOUTS


def test_max_profit_golden_packs():
    rng = random.Random(4242)
    got = []
    for _ in GOLDEN_PROFIT_PACKS:
        a, b = rng.choice(GOLDEN_REGIONS), rng.choice(GOLDEN_REGIONS)
        items = golden_fill(rng, a, b, 5) + [Item(9, golden_side(rng), golden_side(rng))]
        pis = [ProfitItem(it, it.volume * Fraction(rng.randint(4, 12), 4)) for it in items]
        res = max_profit_pack(pis, a, b, Fraction(1, 100))
        got.append(f"{res.achieved_profit} | {placements_text(res.layout)}")
    assert got == GOLDEN_PROFIT_PACKS


# the one max_area_pack call of pack_auto on six benchmark pool entries:
# area profits, eps 1/256, exact limit 10, region a x 1, item ids as
# permuted in the pool; results recorded before integer profits, the
# subset-sum bound and the fit-all probe, with the time the call took then
# on a 2-core box, and then its time before -> after the column skip of
# _feasible_positions, which the fit-all probe uses and the branch and
# bound does not (best of 6, alternating, same box)
POOL_PACKS = [
    # one_bin 915, guillotine n=11 ell=1 seed=599127: 1.26 s; 0.029 -> 0.009 s
    pytest.param('31/32',
                 '0 3/64 3/8, 1 1/2 1/16, 3 15/32 13/32, 4 1/64 3/8, 5 1/64 3/8, '
                 '6 1/2 9/16, 7 11/64 3/8, 8 15/32 1/4, 9 1/4 3/8, 10 15/32 11/32',
                 '31/32 | 6:0,0 3:1/2,0 10:1/2,13/32 8:1/2,3/4 9:0,9/16 7:1/4,9/16 '
                 '1:0,15/16 0:27/64,9/16 4:15/32,9/16 5:31/64,9/16',
                 id="one_bin-915"),
    # one_bin 912, guillotine n=9 ell=1 seed=448117: 1.83 s; 0.22 -> 0.21 s
    pytest.param('29/32',
                 '0 29/64 23/64, 1 29/64 7/32, 2 29/64 9/16, 3 35/64 5/64, 5 29/64 1/2, '
                 '6 35/64 1/16, 7 29/64 11/64, 8 29/64 3/64',
                 '3591/4096 | 2:0,0 5:29/64,0 0:0,9/16 1:29/64,1/2 7:29/64,23/32 6:0,15/16 '
                 '8:29/64,57/64',
                 id="one_bin-912"),
    # one_bin 383, boundary n=9 ell=1 seed=967632: 0.94 s; 0.015 -> 0.003 s
    pytest.param('1',
                 '0 31563/1024000 49599/100000, 1 5489/12800 499/100000, '
                 '2 21543/64000 501/1000, 3 136773/1024000 49599/100000, '
                 '4 499/1000 501/1000, 5 9/64 499/1000, 6 55/64 49401/100000, '
                 '7 10521/64000 501/100000, 8 5511/12800 499/100000',
                 '1 | 6:0,0 4:0,499/1000 2:499/1000,499/1000 5:55/64,0 '
                 '3:53479/64000,499/1000 0:992437/1024000,499/1000 8:0,49401/100000 '
                 '1:5511/12800,49401/100000 7:53479/64000,99499/100000',
                 id="one_bin-383"),
    # one_bin 726, guillotine n=11 ell=1 seed=105139: 0.41 s; 0.008 -> 0.003 s
    pytest.param('31/32',
                 '0 1/16 19/32, 1 9/64 9/16, 2 33/64 19/32, 3 9/64 19/32, 5 3/4 13/64, '
                 '6 7/32 13/32, 7 5/64 9/16, 8 7/32 1/32, 9 3/4 13/64, 10 1/32 19/32',
                 '31/32 | 2:0,0 5:0,19/32 9:0,51/64 6:3/4,0 3:33/64,0 1:3/4,13/32 '
                 '7:57/64,13/32 0:21/32,0 10:23/32,0 8:3/4,31/32',
                 id="one_bin-726"),
    # two_bin 306, shrink n=9 ell=2 seed=376837: 2.23 s; 0.97 -> 1.03 s
    pytest.param('1',
                 '0 175/256 1/16, 1 9/256 23/32, 2 25/32 9/128, 3 25/64 1/8, 4 1/128 5/32, '
                 '5 31/32 5/32, 6 11/16 23/32, 7 7/32 3/4, 8 1/2 27/64',
                 '7299/8192 | 6:0,0 7:11/16,0 5:0,3/4 2:0,29/32 1:29/32,0 4:241/256,0',
                 id="two_bin-306"),
    # two_bin 64, shrink n=9 ell=2 seed=143805: 3.93 s; 1.44 -> 1.38 s
    pytest.param('439/512',
                 '0 9/32 1/4, 1 69/128 7/32, 3 21/64 7/256, 4 23/32 9/128, 5 3/16 49/64, '
                 '6 1/2 1/2, 8 3/8 7/512',
                 '9763/16384 | 6:0,0 5:1/2,0 1:0,399/512 0:0,1/2 3:0,3/4 8:21/64,49/64',
                 id="two_bin-64"),
    # one_bin 195, boundary n=10 ell=1 seed=939997: recorded before the
    # waste check, when the fit-all probe on this perfect tiling took 7.0 s;
    # 0.118 -> 0.032 s
    pytest.param('1',
                 '0 1281/2048 13527/32000, 1 6149/32768 499/1000, 2 3/64 501/1000, '
                 '3 49837/131072 499/1000, 4 2795/32768 499/1000, 5 671/2048 13527/32000, '
                 '6 21/64 25449/51200, 7 61/64 501/6400, 8 21/64 499/256000, '
                 '9 2451/131072 499/1000',
                 '1 | 0:0,0 3:0,501/1000 6:49837/131072,501/1000 5:1281/2048,0 '
                 '1:92845/131072,501/1000 7:0,13527/32000 4:117441/131072,501/1000 2:61/64,0 '
                 '9:128621/131072,501/1000 8:49837/131072,255501/256000',
                 id="one_bin-195"),
]


@pytest.mark.parametrize("a,items,expected", POOL_PACKS)
def test_pool_entry_golden_packs(a, items, expected):
    pis = []
    for spec in items.split(", "):
        i, w, h = spec.split()
        it = Item(int(i), Fraction(w), Fraction(h))
        pis.append(ProfitItem(it, it.volume))
    res = max_profit_pack(pis, Fraction(a), 1, Fraction(1, 256))
    assert f"{res.achieved_profit} | {placements_text(res.layout)}" == expected


def test_fit_all_probe_skips_the_search(monkeypatch):
    # a set that fits whole is answered by the region packer alone, before
    # the branch and bound builds its frontiers
    def no_search(*args):
        raise AssertionError("the branch and bound ran")

    tiles = [Item(i, Fraction(1, 2), Fraction(1, 3)) for i in range(5)] + [
        Item(5, Fraction(1, 4), Fraction(1, 3)), Item(6, Fraction(1, 4), Fraction(1, 3))]
    pis = [ProfitItem(it, it.volume * (5 if it.id % 2 else 1)) for it in tiles]
    expected = reference_profit_search(pis, 1, 1, max_placements=5000)
    monkeypatch.setattr(knapsack, "_suffix_frontiers", no_search)
    res = max_profit_pack(pis, 1, 1, Fraction(1, 100))
    assert len(res.selected) == len(tiles)
    assert (res.achieved_profit, [it.id for it in res.selected],
            [(p.item_id, p.x, p.y) for p in res.layout.placements]) == expected
    # a set within the area that does not fit whole goes on to the search
    crowd = [ProfitItem(Item(i, Fraction(3, 5), Fraction(3, 5)), Fraction(9, 25)) for i in range(2)]
    with pytest.raises(AssertionError, match="branch and bound"):
        max_profit_pack(crowd, 1, 1, Fraction(1, 100))


def test_fit_all_returns_the_items_in_order_key_order(monkeypatch):
    # the fit-all answer lists its items as its layout places them; that
    # is _order_key's order, (-volume, id), for twins, for equal areas of
    # other shapes and other ids, and with an item too wide for the region
    def no_search(*args):
        raise AssertionError("the branch and bound ran")

    monkeypatch.setattr(knapsack, "_solve_exact", no_search)
    F = Fraction
    sets = [
        [Item(6, F(1, 4), F(1, 4)), Item(3, F(1, 4), F(1, 4)), Item(8, F(1, 2), F(1, 8)),
         Item(1, F(1, 8), F(1, 2)), Item(4, F(1, 4), F(1, 4)), Item(0, F(1, 2), F(1, 2))],
        [Item(9, F(1, 4), F(1, 2)), Item(2, F(1, 2), F(1, 4)), Item(5, F(1, 8), F(1)),
         Item(7, F(1), F(1, 8)), Item(1, F(1, 4), F(1, 2))],
        [Item(4, F(1, 5), F(1, 5)), Item(2, F(1, 5), F(1, 5)), Item(3, F(9, 10), F(1, 5))],
    ]
    rng = random.Random(22)
    for items in sets:
        for _ in range(4):
            rng.shuffle(items)
            pis = [ProfitItem(it, it.volume * rng.choice([1, 2])) for it in items]
            usable = [pi for pi in pis if pi.item.width <= F(3, 4)]
            res = max_profit_pack(pis, F(3, 4), 1, F(1, 100))
            assert res.selected == [pi.item for pi in sorted(usable, key=knapsack._order_key)]
            assert res.layout.item_ids() == [it.id for it in res.selected]


def test_profit_search_matches_reference():
    # integer profits, the subset-sum bound and the fit-all probe keep the
    # first leaf of maximum profit: profit, selection and placements are
    # those of the Fraction search with the ratio bound and no probe.  Half
    # the sets sit on a coarse grid, where leaves one profit unit apart are
    # common, so a bound one unit too tight shows.  A set the reference
    # cannot settle within 5000 placements is skipped (about 9 per run, the
    # same on every machine).
    rng = random.Random(23)
    compared = probed = 0
    while compared < 600:
        a, b = rng.choice(BOUNDARY_REGIONS), rng.choice(BOUNDARY_REGIONS)
        boundary = rng.random() < 0.5
        dens = [3, 5, 7, 64, 1000] if boundary else [2, 4, 8]

        def side(limit):
            if boundary and rng.random() < 0.3:
                return rng.choice(BOUNDARY_SIDES)
            return rand_frac(rng, limit / 10, limit * Fraction(3, 4), rng.choice(dens))

        items = [Item(i, side(a), side(b)) for i in range(rng.randint(1, 8))]
        # boosted as in optconst.run_steps_1_to_4: volume * (1/eps + 1)
        boost = 1 / rng.choice([Fraction(1, 2), Fraction(1, 4), Fraction(1, 16)]) + 1
        pis = [ProfitItem(it, it.volume * (boost if rng.random() < 0.4 else 1)) for it in items]
        try:
            expected = reference_profit_search(pis, a, b, max_placements=5000)
        except SearchBudgetExceeded:
            continue
        res = max_profit_pack(pis, a, b, Fraction(1, 100))
        got = (res.achieved_profit, [it.id for it in res.selected],
               [(p.item_id, p.x, p.y) for p in res.layout.placements])
        assert got == expected, (pis, a, b)
        compared += 1
        probed += len(res.selected) == sum(it.width <= a and it.height <= b for it in items)
    assert 150 < probed < 450  # sets that fit whole, and sets that do not


@pytest.mark.parametrize("sides,a,b", [
    # a pair that fits neither side by side nor stacked; alone, each item
    # is the only wide (high) one, so neither stack check applies
    ([(Fraction(1, 4), Fraction(1)), (Fraction(1), Fraction(1, 8))], 1, 1),
    # three items wider than half the region: heights add up past it
    ([(Fraction(3, 5), Fraction(2, 5))] * 3, 1, 1),
    # the transposed stack, in a region off the items' lattice
    ([(Fraction(2, 7), Fraction(4, 7))] * 3, Fraction(5, 7), 1),
    # a pair as in the first case, without a full side, so the full-side
    # cut does not apply
    ([(Fraction(3, 4), Fraction(1, 3)), (Fraction(1, 3), Fraction(3, 4))], 1, 1),
    # items {0, 1, 2, 3, 4, 6, 7} of gen_instance shrink n=8 ell=3
    # seed=713315: the four full-height items leave a 51/128-wide column,
    # where neither 11/32-wide item can sit beside the 15/256-wide one;
    # no cut refutes the set before the full-height items are cut out
    ([(Fraction(81, 256), Fraction(1)), (Fraction(53, 256), Fraction(1)),
      (Fraction(3, 64), Fraction(1)), (Fraction(1, 32), Fraction(1)),
      (Fraction(15, 256), Fraction(1, 2)), (Fraction(11, 32), Fraction(91, 512)),
      (Fraction(11, 32), Fraction(51, 64))], 1, 1),
    # two_bin pool entry 153: the 1/8 x 63/64 item is a column (no other
    # item fits above it), then the 5/8-wide item is a row in the 7/8-wide
    # region, then the 23/32-wide item is a column in the 23/64-high one,
    # and leaves 5/32 across for the 9/32-wide item
    ([(Fraction(5, 8), Fraction(41, 64)), (Fraction(23, 32), Fraction(23, 64)),
      (Fraction(1, 8), Fraction(63, 64)), (Fraction(9, 32), Fraction(23, 64))], 1, 1),
])
def test_refutations_skip_the_search(monkeypatch, sides, a, b):
    # the corner extensions of the prefixes still scan positions; the full
    # search, which first builds every subset-sum coordinate, must not run
    def no_search(*args, **kwargs):
        raise AssertionError("the full search ran")

    monkeypatch.setattr(knapsack, "_axis_positions", no_search)
    items = [Item(i, w, h) for i, (w, h) in enumerate(sides)]
    assert vol(items) <= Fraction(a) * b
    assert exact_pack_single_region(items, a, b) is None


def test_a_clique_refutes_a_set_that_no_pair_or_stack_refutes():
    # oracle pool entry 631, on its 256 x 256 lattice: no two items
    # exclude each other and no stack of items wider or higher than half
    # passes the region, but 224x172, 18x192 and 29x64 pairwise cannot sit
    # one above the other and are 271 wide together
    sides = [(224, 172), (256, 32), (160, 28), (18, 192), (224, 9), (29, 64)]
    assert knapsack._refuted(sides, 256, 256)
    assert knapsack._without_full_sides(sides, 256, 256) == (
        [(224, 172), (160, 28), (18, 192), (224, 9), (29, 64)], 256, 224)
    assert knapsack._clique([(224, 172), (18, 192), (29, 64)], 256, 224)


def test_refuted_sets_have_no_layout():
    # every set that the cut or a clique refutes, on boundary sides and in
    # regions off the unit bin, is one the plain search finds no layout
    # for; a set that search cannot settle within 20000 placements is
    # skipped, the same way on every machine
    rng = random.Random(19)
    sides = [Fraction(1, 2), Fraction(499, 1000), Fraction(501, 1000), Fraction(255, 256),
             Fraction(1, 100)]
    checked = 0
    for _ in range(3000):
        a, b = rng.choice(BOUNDARY_REGIONS), rng.choice(BOUNDARY_REGIONS)
        items = []
        for i in range(rng.randint(2, 6)):
            w = rng.choice(sides) * a if rng.random() < 0.6 else rand_frac(rng, a / 20, a, 64)
            h = rng.choice(sides) * b if rng.random() < 0.6 else rand_frac(rng, b / 20, b, 64)
            items.append(Item(i, min(w, Fraction(1)), min(h, Fraction(1))))
        if vol(items) > a * b:
            continue
        _, a_d, b_d, lattice_sides = knapsack._lattice(items, a, b)
        if not knapsack._refuted(lattice_sides, a_d, b_d):
            continue
        try:
            assert unpruned_region_search(items, a, b, max_placements=20000) is None, (items, a, b)
        except SearchBudgetExceeded:
            continue
        checked += 1
    assert checked >= 500


def test_a_leading_column_is_placed_and_the_rest_searched(monkeypatch):
    # oracle pool entry 1405's lattice set: the 288 x 512 column goes to
    # (0, 0), and only the 5 boxes left are searched, in 224 x 512
    lengths = []
    axis_positions = knapsack._axis_positions

    def recorded(values, limit):
        lengths.append(len(values))
        return axis_positions(values, limit)

    monkeypatch.setattr(knapsack, "_axis_positions", recorded)
    sides = [(288, 512), (69, 320), (200, 88), (152, 106), (39, 135), (6, 424)]
    assert not knapsack._refuted(sides, 512, 512)
    assert knapsack._search_lattice(sides, 512, 512) is None
    assert lengths and 6 not in lengths


PEEL_REGIONS = [Fraction(1), Fraction(255, 256), Fraction(1, 2), Fraction(5, 7),
                Fraction(499, 1000)]


def peel_side(rng, q, limit, long):
    """A multiple of 1/q past half of limit and at most limit when long,
    else positive and at most half of limit; limit itself now and then, or
    when no multiple lies in range."""
    low = math.floor(limit * q / 2) + 1 if long else 1
    high = math.floor(limit * q) if long else math.floor(limit * q / 2)
    if rng.random() < 0.1 or low > high:
        return limit
    return Fraction(rng.randint(low, high), q)


def test_the_peel_returns_the_unpruned_layout():
    # sets whose first box in search order is a column or a row: the
    # search places each leading one at the corner of the region left and
    # searches the rest, and the layout (or None) must be the plain
    # search's; sets it cannot settle in 20000 placements are skipped
    rng = random.Random(20)
    fits = refuted = chains = mixed = 0
    for _ in range(4000):
        a, b = rng.choice(PEEL_REGIONS), rng.choice(PEEL_REGIONS)
        q = rng.choice([16, 64, 100, 256])
        items = []
        for i in range(rng.randint(2, 6)):
            if items and rng.random() < 0.25:  # a twin of the item before
                items.append(Item(i, items[-1].width, items[-1].height))
                continue
            kind = rng.choice(["tall", "wide", "free"])
            items.append(Item(i, peel_side(rng, q, a, kind == "wide"),
                              peel_side(rng, q, b, kind == "tall")))
        if vol(items) > a * b:
            continue
        order = sorted(items, key=lambda it: (-it.volume, it.id))
        d, a_d, b_d, sides = knapsack._lattice(order, a, b)
        steps, rest, across, up = [], sides, a_d, b_d
        while rest and (step := knapsack._past(rest, 0, across, up)):
            steps.append(step[0] > 0)  # a column narrows across
            rest, across, up = rest[1:], across - step[0], up - step[1]
        if not steps:
            continue
        try:
            expected = unpruned_region_search(items, a, b, max_placements=20000)
        except SearchBudgetExceeded:
            continue
        layout = exact_pack_single_region(items, a, b)
        got = None if layout is None else [(p.item_id, p.x, p.y) for p in layout.placements]
        assert got == expected, (items, a, b)
        placed = knapsack._search_lattice(sides, a_d, b_d)
        got = None if placed is None else [
            (it.id, Fraction(x, d), Fraction(y, d)) for it, (x, y, _, _) in zip(order, placed)]
        assert got == expected, (items, a, b)
        fits += expected is not None
        refuted += expected is None
        chains += len(steps) > 1
        mixed += len(set(steps)) > 1
    # 962 fit, 624 have no layout, 912 peel two boxes or more, 638 mix
    # columns and rows
    assert fits >= 500 and refuted >= 500 and chains >= 300 and mixed >= 300


def test_exact_min_bins_pair_that_cannot_share():
    # items 3 (1/4 x 1) and 1 (1 x 13/512) exclude each other: the pair
    # check refutes every bin that holds both without a position search
    instance, _ = gen_instance(GeneratorSpec(seed=824033, n=6, ell=3, mode="shrink"))
    count, packing = exact_min_bins(instance)
    assert count == 2 and len(packing.bins) == 2
    assert validate_packing(packing, instance).ok


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


def test_greedy_on_the_lattice_matches_the_fraction_greedy():
    rng = random.Random(31)
    placed = 0
    for _ in range(400):
        a, b = rng.choice(BOUNDARY_REGIONS), rng.choice(BOUNDARY_REGIONS)
        pitems = []
        for i in range(rng.randint(1, 16)):
            if rng.random() < 0.3:
                w, h = rng.choice(BOUNDARY_SIDES), rng.choice(BOUNDARY_SIDES)
            else:
                w = Fraction(rng.randint(1, 8), rng.choice((8, 3, 7, 1000)))
                h = Fraction(rng.randint(1, 8), rng.choice((8, 5, 64)))
            it = Item(i, min(w, Fraction(1)), min(h, Fraction(1)))
            pitems.append(ProfitItem(it, it.volume * rng.choice((1, 2, Fraction(7, 3)))))
        got = knapsack._best_effort(pitems, a, b)
        assert got == reference_best_effort(pitems, a, b)
        placed += len(got[1])
    assert placed > 1000


def test_unit_bin_layout_refutes_a_superset_of_a_refuted_set(monkeypatch):
    def no_search(*args, **kwargs):
        raise AssertionError("the region packer ran")

    crowd = [Item(i, Fraction(3, 5), Fraction(3, 5)) for i in range(2)]
    extra = Item(2, Fraction(1, 8), Fraction(1, 8))
    cache = UnitBinMemo(crowd + [extra])
    cache[frozenset({0, 1})] = None
    monkeypatch.setattr(knapsack, "_search_lattice", no_search)
    assert unit_bin_layout(crowd + [extra], cache, 6) is None
    assert cache[frozenset({0, 1, 2})] is None
    # a set whose prefix fits is extended at a corner of the prefix's layout
    layout = unit_bin_layout([crowd[0], extra], cache, 6)
    assert [(p.item_id, p.x, p.y) for p in layout.placements] == [
        (0, 0, 0), (2, 0, Fraction(3, 5))]


def test_a_miss_memoizes_every_prefix_of_its_key():
    items = [Item(0, Fraction(1, 4), Fraction(1, 2)), Item(1, Fraction(1, 2), Fraction(1, 2)),
             Item(2, Fraction(1, 8), Fraction(1, 8)), Item(3, Fraction(1, 3), Fraction(1, 4))]
    memo = UnitBinMemo(items)
    assert unit_bin_layout(items, memo, 6) is not None
    order = [1, 0, 3, 2]  # search order: area descending, then id
    assert set(memo) == {frozenset(order[:size]) for size in range(len(order) + 1)}
    by_id = {it.id: it for it in items}
    for key in memo:
        assert unit_bin_layout([by_id[i] for i in key], memo, 6) == \
            exact_pack_single_region([by_id[i] for i in key], 1, 1)


def test_a_set_whose_prefix_is_refuted_is_not_searched(monkeypatch):
    def no_search(*args, **kwargs):
        raise AssertionError("the region packer ran")

    crowd = [Item(i, Fraction(3, 5), Fraction(3, 5)) for i in range(2)]
    extras = [Item(2, Fraction(1, 8), Fraction(1, 8)), Item(3, Fraction(1, 9), Fraction(1, 9))]
    memo = UnitBinMemo(crowd + extras)
    assert unit_bin_layout(crowd, memo, 6) is None  # refuted by a search
    monkeypatch.setattr(knapsack, "_search_lattice", no_search)
    # neither {0, 1, 2, 3} nor any set one item smaller is memoized; the
    # prefix {0, 1, 2} is computed and holds the refuted {0, 1}
    assert unit_bin_layout(crowd + extras, memo, 6) is None
    assert memo[frozenset({0, 1, 2})] is None


def test_unit_bin_memo_matches_the_region_packer():
    # each subset of an instance, in order of size so that supersets of
    # refuted sets come up, on the lattice of the whole instance; then the
    # transposed instance, whose memo sees the same ids with swapped sides
    rng = random.Random(2718)
    fits = 0
    for trial in range(60):
        items = []
        for i in range(rng.randint(2, 6)):
            w, h = (rng.choice(BOUNDARY_SIDES) if rng.random() < 0.3 else
                    rand_frac(rng, Fraction(1, 100), 1, rng.choice([3, 5, 7, 64, 1000]))
                    for _ in range(2))
            items.append(Item(i, w, h))
        for group in (items, [it.transposed() for it in items]):
            memo = UnitBinMemo(group)
            for size in range(1, len(group) + 1):
                for subset in itertools.combinations(group, size):
                    expected = exact_pack_single_region(subset, 1, 1)
                    assert unit_bin_layout(subset, memo, 6) == expected, (trial, subset)
                    fits += expected is not None
    assert 800 < fits < 2000
    # a memo of another region: each subset on the lattice of the whole
    # instance and the region, against a fresh search of the subset alone
    fits = 0
    for trial, (a, b) in enumerate(itertools.product(BOUNDARY_REGIONS[1:4], repeat=2)):
        items = [Item(i, *(rng.choice(BOUNDARY_SIDES) if rng.random() < 0.3 else
                           rand_frac(rng, Fraction(1, 100), Fraction(3, 4), rng.choice([3, 7, 64, 1000]))
                           for _ in range(2)))
                 for i in range(6)]
        memo = UnitBinMemo(items, a, b)
        for size in range(1, len(items) + 1):
            for subset in itertools.combinations(items, size):
                expected = exact_pack_single_region(subset, a, b)
                got = unit_bin_layout(subset, memo, 6)
                assert got == expected, (trial, subset, a, b)
                if got is not None:
                    fits += 1
                    assert (got.width, got.height) == (a, b)
                    assert validate_bin(got, {it.id: it for it in items}).ok
    assert 50 < fits < 500


# exact_min_bins on this instance, recorded before the memo had a lattice
LATTICE_GOLDEN_ITEMS = [
    (Fraction(109, 250), Fraction(719, 1000)), (Fraction(4, 7), Fraction(1, 7)),
    (Fraction(259, 500), Fraction(379, 1000)), (Fraction(59, 100), Fraction(411, 1000)),
    (Fraction(321, 500), Fraction(203, 1000)), (Fraction(9, 64), Fraction(3, 8)),
    (Fraction(2, 3), Fraction(1, 3)), (Fraction(1, 3), Fraction(2, 3)),
]
LATTICE_GOLDEN_BINS = [
    "0:0,0 2:109/250,0 4:0,719/1000 5:321/500,379/1000",
    "3:0,0 6:0,411/1000 7:2/3,0 1:0,2233/3000",
]


def test_exact_min_bins_runs_without_fraction_area_or_call_lattice(monkeypatch):
    def banned(*args, **kwargs):
        raise AssertionError("Fraction work on a memo miss")

    monkeypatch.setattr(knapsack, "_lattice", banned)
    instance = Instance([Item(i, w, h) for i, (w, h) in enumerate(LATTICE_GOLDEN_ITEMS)])
    count, packing = exact_min_bins(instance)
    assert count == 2
    assert [placements_text(layout) for layout in packing.bins] == LATTICE_GOLDEN_BINS


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
        cache = UnitBinMemo(items)
        for labeled in (0, 1):
            for bins in (1, 2, 3):
                got = [tuple(tuple(it.id for it in part) for part in split)
                       for split in canonical_partitions(items, bins, cache, 6, labeled)]
                assert got == brute_canonical_splits(items, bins, labeled), (trial, items)
        by_id = {it.id: it for it in items}
        for key in list(cache):
            subset = [by_id[i] for i in key]
            layout = unit_bin_layout(subset, cache, 6)
            assert (layout is not None) == naive_fits(subset, 1, 1)
            if layout is not None:
                assert validate_bin(layout, by_id).ok and sorted(layout.item_ids()) == sorted(key)
            assert unit_bin_layout(subset, cache, 6) == layout
            assert layout == exact_pack_single_region(subset, 1, 1)


# cuts of a piece, as a share of its side, on the boundary denominators
TILING_CUTS = [Fraction(1, 2), Fraction(1, 3), Fraction(2, 7), Fraction(1, 2) - Fraction(1, 1000),
               Fraction(255, 256), Fraction(1, 100)]


def unit_tiling(rng, n):
    """Sides of n pieces that tile the unit bin: a random piece is cut in
    two, across or up, at a random share of TILING_CUTS (halves make
    twins)."""
    pieces = [(Fraction(1), Fraction(1))]
    while len(pieces) < n:
        w, h = pieces.pop(rng.randrange(len(pieces)))
        cut = rng.choice(TILING_CUTS)
        if rng.random() < 0.5:
            pieces += [(w * cut, h), (w * (1 - cut), h)]
        else:
            pieces += [(w, h * cut), (w, h * (1 - cut))]
    return pieces


def growth_set(rng):
    """1-8 items: a dense guillotine tiling, or boundary sides with twins
    and items of full width or height."""
    n = rng.randint(1, 8)
    if rng.random() < 0.4:
        sides = unit_tiling(rng, n)
    else:
        sides = []
        for _ in range(n):
            roll = rng.random()
            if sides and roll < 0.25:
                sides.append(sides[-1])  # a twin
            elif roll < 0.4:
                side = rand_frac(rng, Fraction(1, 100), Fraction(1, 2), rng.choice([3, 7, 256]))
                sides.append((Fraction(1), side) if rng.random() < 0.5 else (side, Fraction(1)))
            else:
                sides.append(tuple(rng.choice(BOUNDARY_SIDES) if rng.random() < 0.3 else
                                   rand_frac(rng, Fraction(1, 100), Fraction(3, 5),
                                             rng.choice([3, 7, 256, 1000]))
                                   for _ in range(2)))
    return [Item(i, w, h) for i, (w, h) in enumerate(sides)]


def test_memo_growth_matches_the_region_packer(monkeypatch):
    # each item set grows one item at a time through one memo, in search
    # order, where the set less its last item is the previous step, and
    # in a shuffled order; every answer is the first layout of the plain
    # search, and nearly every new layout is an extension
    searches = 0
    search_lattice = knapsack._search_lattice

    def counted(*args):
        nonlocal searches
        searches += 1
        return search_lattice(*args)

    monkeypatch.setattr(knapsack, "_search_lattice", counted)
    rng = random.Random(1414)
    extended = searched = 0
    for trial in range(150):
        items = growth_set(rng)
        memo = UnitBinMemo(items)
        shuffled = rng.sample(items, len(items))
        for order in (sorted(items, key=lambda it: (-it.volume, it.id)), shuffled):
            for size in range(1, len(order) + 1):
                subset = order[:size]
                before, fresh = searches, frozenset(it.id for it in subset) not in memo
                got = unit_bin_layout(subset, memo, 8)
                if fresh and got is not None:
                    if searches == before:
                        extended += 1
                    else:
                        searched += 1
                expected = unpruned_region_search(subset, 1, 1, max_placements=5000)
                got = got and [(p.item_id, p.x, p.y) for p in got.placements]
                assert got == expected, (trial, subset)
    assert extended > 50 * searched > 0  # 838 and 7


def test_memo_extends_every_layout_that_starts_the_next(monkeypatch):
    # grown in search order, each set's plain first layout, less its last
    # item, is the memoized layout of the smaller set on most steps; the
    # memo then places the last item without a search, also where the
    # smaller set's search backtracked
    searches = 0
    search_lattice = knapsack._search_lattice

    def counted(*args):
        nonlocal searches
        searches += 1
        return search_lattice(*args)

    monkeypatch.setattr(knapsack, "_search_lattice", counted)
    rng = random.Random(1414)
    steps = 0
    for trial in range(400):
        items = growth_set(rng)
        memo = UnitBinMemo(items)
        order = sorted(items, key=lambda it: (-it.volume, it.id))
        for size in range(1, len(order) + 1):
            subset = order[:size]
            try:
                expected = unpruned_region_search(subset, 1, 1, max_placements=5000)
            except SearchBudgetExceeded:
                expected = None
            # a memo hit: the previous step
            base = unit_bin_layout(subset[:-1], memo, 8) if size > 1 else BinLayout()
            starts = (expected is not None and base is not None
                      and [(p.item_id, p.x, p.y) for p in base.placements] == expected[:-1])
            before = searches
            got = unit_bin_layout(subset, memo, 8)
            if starts:
                steps += 1
                assert searches == before, (trial, subset)
                assert [(p.item_id, p.x, p.y) for p in got.placements] == expected
    assert steps > 800
