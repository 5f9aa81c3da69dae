"""pack_opt1 on one lattice per call and the constant branch's knapsack on
the solve's unit-bin memo, against the Fraction references in support.py,
on seeded draws at the class boundaries: sides at 1/2 +- 1/1000, 255/256
and 1/100, a wide stack just taller than the bin, more than
MAX_ENUMERATION substantial high items, and tiny items of area exactly
eps.  Each pair must give the same path and bytes, or raise the same
exception type with the same text."""

import hashlib
import random
from collections import Counter
from fractions import Fraction

import rectbin.knapsack
from rectbin.errors import GuessFailed, InstanceTooLarge, RectbinError
from rectbin.fileio import serialize_packing
from rectbin.geometry import Grid, Instance, Item, Packing, transpose_instance
from rectbin.knapsack import (
    ProfitItem,
    UnitBinMemo,
    _feasible_positions,
    _first_corner,
    max_profit_pack,
)
from rectbin.opt1 import MAX_ENUMERATION, pack_large_w, pack_opt1, pack_small_w
from rectbin.optconst import (
    const_eps,
    enumerate_large_assignments,
    pack_opt_const,
    run_steps_1_to_4,
)
from rectbin.oracle import (
    plant_delta_height,
    plant_delta_width,
    plant_large_w,
    plant_small_w_case1,
    plant_small_w_case2,
    plant_small_w_case3,
)
from support import (
    benchmark_pool_sample,
    outcome,
    reference_const_knapsack,
    reference_pack_large_w,
    reference_pack_opt1,
    reference_pack_small_w,
)

HALF = Fraction(1, 2)
MILLI = Fraction(1, 1000)
BOUNDARY = (HALF - MILLI, HALF, HALF + MILLI, Fraction(255, 256), Fraction(1, 100))
DENOMINATORS = (7, 256, 1000)
EPSILONS = (Fraction(1, 256), Fraction(1, 1000))


def side(rng, lo=Fraction(0), hi=Fraction(1)):
    """A boundary side in (lo, hi] half the time, else k/den in (lo, hi]."""
    near = [s for s in BOUNDARY if lo < s <= hi]
    if near and rng.random() < 0.5:
        return rng.choice(near)
    den = rng.choice(DENOMINATORS)
    first, last = int(lo * den) + 1, int(hi * den)
    return Fraction(rng.randint(first, last), den) if first <= last else hi


def heights_adding_to(rng, total, parts):
    """parts positive Fractions with denominator 1000 that add up to total."""
    cuts = sorted(rng.sample(range(1, int(total * 1000)), parts - 1))
    ends = [Fraction(c, 1000) for c in cuts] + [total]
    return [b - a for a, b in zip([Fraction(0)] + ends, ends)]


def opt1_draw(rng):
    """An instance near the class boundaries, of one of three kinds: free
    sides; wide items stacked to 1 + 1/1000 (or to 1 or 4/5) with high
    items of w(H) in (1/2, 1]; or more than MAX_ENUMERATION substantial high
    items of width 1/32 under a wide stack of height 1 + 1/1000 or 3/5."""
    kind = rng.choice(["free", "tall", "many"])
    sides = []
    if kind == "free":
        for _ in range(rng.randint(3, 9)):
            sides.append((side(rng), side(rng)))
    elif kind == "tall":
        stack = rng.choice([1 + MILLI, 1 + MILLI, Fraction(1), Fraction(4, 5)])
        for h in heights_adding_to(rng, stack, rng.randint(2, 4)):
            sides.append((side(rng, HALF), h))
        for w in heights_adding_to(rng, rng.choice([HALF + MILLI, Fraction(3, 4)]),
                                   rng.randint(2, 3)):
            sides.append((w, side(rng, HALF)))
    else:
        for h in heights_adding_to(rng, rng.choice([1 + MILLI, Fraction(3, 5)]),
                                   rng.randint(2, 3)):
            sides.append((side(rng, HALF), h))
        for _ in range(rng.randint(MAX_ENUMERATION + 1, MAX_ENUMERATION + 2)):
            sides.append((Fraction(1, 32), side(rng, HALF)))
    for _ in range(rng.randint(0, 3)):
        sides.append((side(rng, Fraction(0), HALF), side(rng, Fraction(0), HALF)))
    rng.shuffle(sides)
    return Instance([Item(i, w, h) for i, (w, h) in enumerate(sides)])


def test_pack_opt1_matches_the_fraction_dispatch_at_the_class_boundaries():
    rng = random.Random(2801)
    seen = Counter()
    for _ in range(300):
        instance = opt1_draw(rng)
        eps = rng.choice(EPSILONS)
        # a knapsack of at most 6 items stays quick on the larger lattices
        got = outcome(lambda: pack_opt1(instance, eps, exact_limit=6))
        assert got == outcome(lambda: reference_pack_opt1(instance, eps, exact_limit=6)), \
            (instance, eps)
        seen[got[1][0] if got[0] == "packing" else got[0]] += 1
    assert seen["delta_width"] + seen["delta_height"] >= 30, seen
    assert seen["GuessFailed"] >= 50 and seen["InstanceTooLarge"] >= 20, seen


def test_the_branches_match_the_fraction_code_on_the_plants():
    # pack_opt1 takes a delta branch on nearly every plant, so the wide/high
    # branches that succeed are also called directly, on both axes
    seen = Counter()
    eps = EPSILONS[0]
    for plant in (plant_large_w, plant_small_w_case1, plant_small_w_case2, plant_small_w_case3,
                  plant_delta_width, plant_delta_height):
        for seed in range(8):
            instance = plant(seed)[0]
            for work in (instance, transpose_instance(instance)):
                got = outcome(lambda: pack_opt1(work, eps))
                assert got == outcome(lambda: reference_pack_opt1(work, eps)), \
                    (plant.__name__, seed)
                seen[got[1][0] if got[0] == "packing" else got[0]] += 1
                for branch, reference in ((pack_large_w, reference_pack_large_w),
                                          (pack_small_w, reference_pack_small_w)):
                    got = outcome(lambda: branch(work, eps))
                    assert got == outcome(lambda: reference(work, eps)), \
                        (plant.__name__, seed, branch.__name__)
                    seen[(branch.__name__, got[0])] += 1
    assert seen["delta_width"] >= 40 and seen["delta_height"] >= 8, seen
    assert seen[("pack_large_w", "packing")] >= 8, seen
    assert seen[("pack_small_w", "packing")] >= 24, seen


def test_pack_large_w_refuses_as_the_fraction_code_in_the_same_order():
    rng = random.Random(2802)
    seen = Counter()
    for _ in range(300):
        instance = opt1_draw(rng)
        eps = rng.choice(EPSILONS)
        for work in (instance, transpose_instance(instance)):
            got = outcome(lambda: pack_large_w(work, eps))
            assert got == outcome(lambda: reference_pack_large_w(work, eps)), (work, eps)
            seen[got[1] if got[0] == "GuessFailed" else got[0]] += 1
    assert seen["ConditionViolated"] >= 100 and seen["InstanceTooLarge"] >= 20, seen
    assert seen["wide stack taller than the bin"] >= 20, seen


# -- the constant branch's knapsack on the solve's memo ------------------------------

EPS = const_eps(3)


def const_draw(rng):
    """Two to five large items near the class boundaries and up to six
    tiny ones, some of area exactly eps = 1/1082 (1/2 x 1/541) and some
    just above it ((1/2 + 1/1000) x 1/541, a large item)."""
    sides = [(side(rng), side(rng)) for _ in range(rng.randint(2, 5))]
    for _ in range(rng.randint(0, 6)):
        sides.append(rng.choice([
            (HALF, Fraction(1, 541)), (Fraction(1, 541), HALF), (HALF + MILLI, Fraction(1, 541)),
            (Fraction(1, 100), Fraction(1, 100)), (Fraction(255, 256), Fraction(1, 2000)),
            (side(rng, Fraction(0), Fraction(1, 20)), side(rng, Fraction(0), Fraction(1, 20))),
        ]))
    rng.shuffle(sides)
    return Instance([Item(i, w, h) for i, (w, h) in enumerate(sides)])


def step_knapsack(run):
    """(ids, serialized layout) of the knapsack bin, or the exception's
    type and text; run gives a ConstContext or a KnapsackResult."""
    try:
        result = run()
    except (RectbinError, ValueError) as exc:
        return type(exc).__name__, str(exc)
    selected, layout = ((result.b_bins[0], result.b1_layout) if hasattr(result, "b_bins")
                        else (result.selected, result.layout))
    return [it.id for it in selected], serialize_packing(Packing([layout]))


def test_the_const_knapsack_on_the_solve_memo_matches_a_fresh_memo():
    rng = random.Random(2803)
    seen = Counter()
    for _ in range(100):
        instance = const_draw(rng)
        memo = UnitBinMemo(Grid.of(instance.items))
        large = [it for it in instance.items if it.volume > EPS]
        limit = rng.choice([4, 7])
        for count, assignment in enumerate(enumerate_large_assignments(large, 2, 12, memo)):
            if count == 3:
                break
            got = step_knapsack(lambda: run_steps_1_to_4(instance, 2, assignment, 3,
                                                         exact_limit=limit, cache=memo))
            assert got == step_knapsack(lambda: reference_const_knapsack(
                instance, assignment[0], 3, exact_limit=limit)), (instance, assignment)
            seen[got[0] if isinstance(got[0], str) else "packed"] += 1
    assert seen["packed"] >= 200 and seen["InstanceTooLarge"] >= 10, seen


def test_max_profit_pack_on_a_memo_matches_the_call_lattice():
    # greedy past the limit too: the memo's sides give the same order and bound
    rng = random.Random(2804)
    for _ in range(100):
        instance = const_draw(rng)
        memo = UnitBinMemo(Grid.of(instance.items))
        pitems = [ProfitItem(it, it.volume * rng.choice([1, 2, 1083])) for it in instance.items]
        limit = rng.choice([3, 6])
        on_memo = step_knapsack(lambda: max_profit_pack(pitems, 1, 1, EPS, limit, cache=memo))
        assert on_memo == step_knapsack(lambda: max_profit_pack(pitems, 1, 1, EPS, limit))


def test_max_profit_pack_refuses_a_region_that_is_not_the_memo_s():
    instance = Instance([Item(0, HALF, HALF)])
    try:
        max_profit_pack([ProfitItem(instance.items[0], Fraction(1, 4))], HALF, 1, EPS,
                        cache=UnitBinMemo(Grid.of(instance.items)))
    except ValueError as exc:
        assert str(exc) == "region 1/2 x 1 is not the memo's 1 x 1"
    else:
        raise AssertionError("a region other than the memo's was accepted")


def test_run_steps_on_the_solve_memo_builds_no_memo(monkeypatch):
    index, instance = benchmark_pool_sample("two_bin", 400, 1)[2]
    assert len(instance.items) <= 10  # the knapsack's fit-all probe runs
    memo = UnitBinMemo(Grid.of(instance.items))
    large = [it for it in instance.items if it.volume > EPS]
    assignment = next(enumerate_large_assignments(large, 2, 12, memo))
    built = []
    init = UnitBinMemo.__init__

    def counting(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(rectbin.knapsack.UnitBinMemo, "__init__", counting)
    run_steps_1_to_4(instance, 2, assignment, 3, cache=memo)
    assert built == []
    run_steps_1_to_4(instance, 2, assignment, 3)
    assert len(built) == 1  # its own memo, which the probe then reads


# -- pinned pack_opt_const outputs ---------------------------------------------------

# sha256 of pack_opt_const(instance, 2, 3)'s outputs on every 5th two_bin
# pool entry, recorded before the constant branch read the solve's memo
TWO_BIN_CONST_SHA256 = "6095a44bb7f803e31823b5f5ccbd49351a6a32893b5344b3fccd0fd970ad4187"


def test_pack_opt_const_outputs_on_the_two_bin_pool_are_pinned():
    entries = benchmark_pool_sample("two_bin", 400, 5)
    assert len(entries) == 80
    h = hashlib.sha256()
    for index, instance in entries:
        try:
            packing = pack_opt_const(instance, 2, 3)
            text = f"{'/'.join(packing.path)}\n{serialize_packing(packing)}"
        except (GuessFailed, InstanceTooLarge) as exc:
            text = f"{type(exc).__name__}: {exc}"
        h.update(f"{index}\n{text}\n".encode())
    assert h.hexdigest() == TWO_BIN_CONST_SHA256


# -- the corner lookup of the memo's extension and the greedy ------------------------

def test_first_corner_is_the_first_position_the_scan_yields_at_the_corners():
    rng = random.Random(2805)
    for _ in range(2000):
        a, b = rng.randint(4, 40), rng.randint(4, 40)
        boxes = []
        for _ in range(rng.randint(0, 6)):
            w, h = rng.randint(1, a), rng.randint(1, b)
            spot = _first_corner(w, h, boxes, a, b)
            xs = sorted({0, *[right for _, _, right, _ in boxes]})
            ys = sorted({0, *[top for _, _, _, top in boxes]})
            assert spot == next(_feasible_positions(w, h, xs, ys, boxes, a, b), None)
            if spot is not None:
                boxes.append((spot[0], spot[1], spot[0] + w, spot[1] + h))
