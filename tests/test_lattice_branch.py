"""The single-bin branch, its knapsack's fit-all probe and Steinberg's
packer on the integer lattice of each call, against their Fraction
references in support.py, on seeded draws at the class boundaries: sides
exactly 1 - delta and 1 - gamma, a cutoff stack exactly gamma, tall widths
that fill the bin, 2 w_max = a and 2 h_max = b, area exactly at the area
bound, and denominators 3, 7, 1000 and 65536.  Each pair must give the same
layout, or raise the same exception type with the same text."""

import hashlib
import random
from collections import Counter
from fractions import Fraction

from rectbin.classify import delta_threshold
from rectbin.errors import GuessFailed, InstanceTooLarge, RectbinError
from rectbin.fileio import serialize_packing
from rectbin.geometry import Instance, Item
from rectbin.knapsack import ProfitItem, max_area_pack, max_profit_pack
from rectbin.opt1 import pack_opt1, pack_small_height
from rectbin.steinberg import pack_no_wide_half_area, steinberg_condition, steinberg_pack
from support import (
    benchmark_pool_sample,
    outcome,
    reference_max_area_pack,
    reference_max_profit_pack,
    reference_pack_no_wide_half_area,
    reference_pack_small_height,
    reference_steinberg_condition,
    reference_steinberg_pack,
)

DENOMINATORS = (3, 7, 1000, 65536)
EPSILONS = (Fraction(1, 256), Fraction(1, 1000), Fraction(3, 7000))
EPS = Fraction(1, 256)


def knapsack_outcome(run):
    """(selected ids, placements, profit, exact) of the KnapsackResult that
    run() gives, or the exception's type and text."""
    try:
        result = run()
    except (RectbinError, ValueError) as exc:
        return type(exc).__name__, str(exc)
    return ([it.id for it in result.selected], result.layout, result.achieved_profit,
            result.exact)


def side(rng, den, lo=Fraction(0), hi=Fraction(1)):
    """A side k/den in (lo, hi], or hi itself when no such k exists."""
    first, last = int(lo * den) + 1, int(hi * den)
    return Fraction(rng.randint(first, last), den) if first <= last else hi


def split(rng, total, parts, den):
    """parts positive Fractions that add up to total exactly."""
    cuts = sorted(rng.uniform(0, 1) for _ in range(parts - 1))
    pieces, before = [], Fraction(0)
    for cut in cuts:
        at = Fraction(round(cut * den), den) * total
        if before < at < total:
            pieces.append(at - before)
            before = at
    return pieces + [total - before]


def items_of(sides):
    return [Item(i, w, h) for i, (w, h) in enumerate(sides)]


# -- Steinberg -----------------------------------------------------------------

def steinberg_draw(rng):
    """(items, a, b): a region and items with w_max = a/2 or h_max = b/2 on
    one side at least, often topped up to the area bound exactly, now and
    then one lattice step past it."""
    den = rng.choice(DENOMINATORS)
    a = rng.choice([Fraction(1), side(rng, den, Fraction(1, 4))])
    b = rng.choice([Fraction(1), side(rng, den, Fraction(1, 4))])
    wm = a / 2 if rng.random() < 0.7 else side(rng, den, Fraction(0), a)
    hm = b / 2 if rng.random() < 0.7 else side(rng, den, Fraction(0), b)
    sides = [(wm, side(rng, den, Fraction(0), hm)), (side(rng, den, Fraction(0), wm), hm)]
    for _ in range(rng.randint(0, 5)):
        sides.append((side(rng, den, Fraction(0), wm), side(rng, den, Fraction(0), hm)))
    deficiency = max(2 * wm - a, 0) * max(2 * hm - b, 0)
    room = (a * b - deficiency) / 2 - sum(w * h for w, h in sides)
    if room > 0 and rng.random() < 0.8:
        # a filler of area room meets the bound exactly
        filler = (wm, room / wm) if room / wm <= hm else (room / hm, hm)
        if filler[0] <= wm:
            sides.append(filler)
            if rng.random() < 0.25:
                sides.append((Fraction(1, den), Fraction(1, den)))
    rng.shuffle(sides)
    return items_of(sides), a, b


def test_steinberg_matches_the_fraction_reference_at_the_boundaries():
    rng = random.Random(2401)
    at_bound = layouts = 0
    for _ in range(600):
        items, a, b = steinberg_draw(rng)
        fits = reference_steinberg_condition(items, a, b)
        assert steinberg_condition(items, a, b) == fits
        if fits and not reference_steinberg_condition(items + [Item(99, Fraction(1, 10**9),
                                                                     Fraction(1, 10**9))], a, b):
            at_bound += 1
        got = outcome(lambda: steinberg_pack(items, a, b))
        assert got == outcome(lambda: reference_steinberg_pack(items, a, b)), (items, a, b)
        layouts += got[0] == "layout"
    assert at_bound >= 100 and layouts >= 200, (at_bound, layouts)


def half_area_draw(rng):
    """Items of total area at most 1/2, or just past it, with at most one
    wide item whose height is 1/2 exactly (not big) or just above it."""
    den = rng.choice(DENOMINATORS)
    sides = []
    if rng.random() < 0.7:
        height = Fraction(1, 2) + rng.choice([Fraction(0), Fraction(1, den)])
        sides.append((side(rng, den, Fraction(1, 2)), height))
    for _ in range(rng.randint(1, 5)):
        sides.append((side(rng, den, Fraction(0), Fraction(1, 2)),
                      side(rng, den, Fraction(0), Fraction(1, 2))))
    room = Fraction(1, 2) - sum(w * h for w, h in sides)
    if room > 0 and rng.random() < 0.6:
        sides.append((Fraction(1, 2), min(room * 2, Fraction(1, 2))))
    rng.shuffle(sides)
    return items_of(sides)


def test_half_area_packers_match_the_fraction_reference():
    rng = random.Random(2402)
    layouts = 0
    for _ in range(300):
        items = half_area_draw(rng)
        got = outcome(lambda: pack_no_wide_half_area(items))
        assert got == outcome(lambda: reference_pack_no_wide_half_area(items)), items
        layouts += got[0] == "layout"
    assert layouts >= 100, layouts


# -- the fit-all probe ----------------------------------------------------------

def test_max_area_pack_matches_the_fraction_reference_at_the_region_sides():
    rng = random.Random(2403)
    kinds = set()
    for _ in range(300):
        den = rng.choice(DENOMINATORS)
        a = rng.choice([Fraction(1), side(rng, den, Fraction(1, 8))])
        step = Fraction(1, den)
        sides = []
        for _ in range(rng.randint(1, 6)):
            w = rng.choice([a, min(a + step, Fraction(1)), side(rng, den, Fraction(0), a)])
            h = rng.choice([Fraction(1), side(rng, den)])
            sides.append((w, h))
        items = items_of(sides)
        limit = rng.choice([10, 10, 3])
        got = knapsack_outcome(lambda: max_area_pack(items, a, 1, EPS, exact_limit=limit))
        assert got == knapsack_outcome(
            lambda: reference_max_area_pack(items, a, 1, EPS, exact_limit=limit)), (items, a)
        kinds.add(got[0] if len(got) == 2 else (len(got[0]) == len(items), got[-1]))
    assert kinds == {(True, True), (False, True), (False, False), "InstanceTooLarge"}, kinds


PROFIT_BOOSTS = (1, 1, Fraction(3, 2), Fraction(7, 3), 41)


def test_knapsack_entry_points_match_the_references():
    # max_profit_pack and max_area_pack, one body on one lattice, against
    # the references of the two bodies they had before: below and past
    # the exact limit, with twins, regions at an item's side, sets that no
    # item fits, bad regions and eps, and the greedy's refusal.  Within
    # the limit a draw has at most 7 items: the branch and bound can take
    # seconds on 9 large ones
    rng = random.Random(2501)
    seen = Counter()
    for trial in range(1200):
        den = rng.choice((3, 5, 8, 64, 1000))
        limit = rng.choice([6, 8, 10])
        sides = []
        for _ in range(rng.randint(0, 7) if rng.random() < 0.6 else rng.randint(limit + 1, 14)):
            if sides and rng.random() < 0.3:
                sides.append(sides[-1])  # a twin
            else:
                sides.append(tuple(side(rng, den, hi=rng.choice([Fraction(1, 2), Fraction(1)]))
                                   for _ in range(2)))
        items = items_of(sides)
        if items and rng.random() < 0.3:
            a = rng.choice(items).width
        else:
            a = rng.choice([Fraction(rng.randint(1, 8), 8), Fraction(0), Fraction(9, 8)]
                           if rng.random() < 0.05 else [Fraction(rng.randint(1, 8), 8)])
        b = rng.choice([Fraction(1), Fraction(1), Fraction(rng.randint(1, 8), 8)])
        eps = rng.choice([EPS, EPS, Fraction(1, 10), Fraction(0)] if rng.random() < 0.05
                         else [EPS, Fraction(1, 10)])
        if trial % 2:
            got = knapsack_outcome(lambda: max_area_pack(items, a, b, eps, limit))
            want = knapsack_outcome(lambda: reference_max_area_pack(items, a, b, eps, limit))
        else:
            pitems = [ProfitItem(it, it.volume * rng.choice(PROFIT_BOOSTS)) for it in items]
            got = knapsack_outcome(lambda: max_profit_pack(pitems, a, b, eps, limit))
            want = knapsack_outcome(lambda: reference_max_profit_pack(pitems, a, b, eps, limit))
        assert got == want, (trial, sides, a, b, eps, limit)
        seen["past the limit"] += len(items) > limit
        seen["twins"] += len(set(sides)) < len(sides)
        seen["region at a side"] += any(w == a for w, _ in sides)
        seen["nothing fits"] += bool(items) and all(w > a or h > b for w, h in sides)
        seen[got[0] if len(got) == 2 else ("exact" if got[-1] else "greedy")] += 1
    # 38 bad regions or eps, 154 sets that nothing fits, 247 refusals
    assert min(seen.values()) >= 30 and len(seen) == 8, seen


# -- the single-bin branch ------------------------------------------------------

def small_height_draw(rng):
    """(instance, delta, eps): cutoff-wide items at or just past 1 - delta
    whose stack is gamma exactly, just past it or below it; tall items at
    or just past 1 - gamma whose widths often fill the bin; and a few small
    items, all on one of DENOMINATORS."""
    den = rng.choice(DENOMINATORS)
    eps = rng.choice(EPSILONS)
    delta = rng.choice([Fraction(1, 2), side(rng, den, eps, Fraction(1, 2))])
    if rng.random() < 0.05:
        delta = rng.choice([eps, Fraction(1, 2) + Fraction(1, den)])  # refused
    gamma = delta_threshold(delta, eps) if delta > eps else Fraction(1, 8)
    step = Fraction(1, den)
    sides = []
    stack = rng.choice([gamma, gamma, gamma + step, gamma / 2])
    for h in split(rng, stack, rng.randint(1, 3), den):
        sides.append((rng.choice([min(1 - delta + step, Fraction(1)), Fraction(1)]), h))
    sides.append((1 - delta, side(rng, den, Fraction(0), Fraction(1, 3))))  # not cutoff-wide
    tall_w = rng.choice([Fraction(1), Fraction(1), side(rng, den, Fraction(0), Fraction(1, 2))])
    for w in split(rng, tall_w, rng.randint(1, 3), den):
        sides.append((w, rng.choice([min(1 - gamma + step, Fraction(1)), Fraction(1),
                                     1 - gamma])))
    for _ in range(rng.randint(0, 4)):
        sides.append((side(rng, den, Fraction(0), Fraction(1, 2)),
                      side(rng, den, Fraction(0), Fraction(1, 2))))
    rng.shuffle(sides)
    return Instance(items_of(sides)), delta, eps


def test_pack_small_height_matches_the_fraction_reference_at_the_cutoffs():
    rng = random.Random(2404)
    seen = {}
    for _ in range(400):
        instance, delta, eps = small_height_draw(rng)
        # a knapsack of at most 6 items stays quick on the larger lattices
        got = outcome(lambda: pack_small_height(instance, delta, eps, exact_limit=6))
        assert got == outcome(
            lambda: reference_pack_small_height(instance, delta, eps, exact_limit=6)), \
            (instance, delta, eps)
        seen[got[0]] = seen.get(got[0], 0) + 1
    assert seen.get("packing", 0) >= 100 and seen.get("PreconditionViolated", 0) >= 20, seen


def test_region_w_zero_skips_the_knapsack():
    # tall widths 1/3 + 2/3 fill the bin, so bin 1 holds them alone
    eps, delta = EPS, Fraction(1, 4)
    gamma = delta_threshold(delta, eps)
    items = [Item(0, Fraction(1, 3), 1), Item(1, Fraction(2, 3), 1 - gamma / 2),
             Item(2, Fraction(1, 4), Fraction(1, 4))]
    packing = pack_small_height(Instance(items), delta, eps)
    assert [p.item_id for p in packing.bins[0].placements] == [0, 1]
    assert outcome(lambda: packing) == outcome(
        lambda: reference_pack_small_height(Instance(items), delta, eps))


# -- pinned pack_opt1 outputs ------------------------------------------------------

# sha256 of pack_opt1's outputs on every 5th one_bin pool entry, recorded
# before the branch moved onto the lattice
ONE_BIN_OPT1_SHA256 = "dfae6e30c71d23409cad945cbfeb1cffbc49b021030ae0fd4493e237031390da"


def opt1_digest(entries):
    h = hashlib.sha256()
    for index, instance in entries:
        try:
            packing = pack_opt1(instance, Fraction(1, 256), exact_limit=10)
            text = f"{'/'.join(packing.path)}\n{serialize_packing(packing)}"
        except (GuessFailed, InstanceTooLarge) as exc:
            text = f"{type(exc).__name__}: {exc}"
        h.update(f"{index}\n{text}\n".encode())
    return h.hexdigest()


def test_pack_opt1_outputs_on_the_one_bin_pool_are_pinned():
    entries = benchmark_pool_sample("one_bin", 1200, 5)
    assert len(entries) == 240
    assert opt1_digest(entries) == ONE_BIN_OPT1_SHA256
