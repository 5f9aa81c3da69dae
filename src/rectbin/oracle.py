"""Ground truth for tests: exact minimum-bin search and certified generators.

Generated instances always come with a witness packing, so optimality claims
never rest on the solver under test.  The plant generators target specific
solver branches; every plant is verified after construction (witness
validates, intended predicate holds) before it is returned.

Every generator lists its items as boxes (width, height, x, y[, bin]) and
hands them to one builder, `_build`, which numbers the items from 0 in box
order and places each in its witness bin; plants also have it check the
witness, gen_instance does not.  The benchmark pools in
`perfbench/corpus.py` are built from these generators, so they depend on
the order of every rng draw here as well as on the layouts:
`tests/test_oracle.py::test_pools_and_plants_are_pinned` pins them.
"""

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain

from .classify import classify, lower_bound, total_height, total_width
from .errors import InstanceTooLarge
from .geometry import HALF, BinLayout, Instance, Item, Packing, validate_packing
from .knapsack import UnitBinMemo, canonical_partitions, unit_bin_layout

GRID = 64  # guillotine cut granularity (denominator of all raw coordinates)
CELLS = GRID * GRID  # the most pieces one bin can be cut into


@dataclass(frozen=True)
class GeneratorSpec:
    seed: int
    n: int
    ell: int = 1
    mode: str = "guillotine"  # or "shrink"

    def __post_init__(self):
        if self.n < self.ell or self.ell < 1:
            raise ValueError("need n >= ell >= 1")
        if self.n > self.ell * CELLS:
            raise ValueError(f"n = {self.n} pieces do not fit {self.ell} bin(s): "
                             f"a bin is cut into at most {CELLS} grid cells")
        if self.mode not in ("guillotine", "shrink"):
            raise ValueError(f"unknown mode {self.mode!r}")


def _split_grid(rng, x, y, gw, gh, m):
    """Split a gw x gh grid rectangle into m pieces with axis cuts."""
    if m == 1:
        return [(x, y, gw, gh)]
    dirs = []
    if gw >= 2:
        dirs.append("v")
    if gh >= 2:
        dirs.append("h")
    d = rng.choice(dirs)
    if d == "v":
        cut = rng.randint(1, gw - 1)
        first = (x, y, cut, gh)
        second = (x + cut, y, gw - cut, gh)
    else:
        cut = rng.randint(1, gh - 1)
        first = (x, y, gw, cut)
        second = (x, y + cut, gw, gh - cut)
    cap_first = first[2] * first[3]
    cap_second = second[2] * second[3]
    lo = max(1, m - cap_second)
    hi = min(m - 1, cap_first)
    m1 = rng.randint(lo, hi)
    return _split_grid(rng, *first, m1) + _split_grid(rng, *second, m - m1)


def gen_instance(spec: GeneratorSpec):
    """(instance, witness) pair; the witness packs into exactly spec.ell bins."""
    rng = random.Random(spec.seed)
    counts = [1] * spec.ell
    for _ in range(spec.n - spec.ell):
        counts[rng.randrange(spec.ell)] += 1
    for index, count in enumerate(counts):
        if count > CELLS:
            raise ValueError(f"bin {index} drew {count} pieces, more than its "
                             f"{CELLS} grid cells")
    boxes = []
    for index, count in enumerate(counts):
        for gx, gy, gw, gh in _split_grid(rng, 0, 0, GRID, GRID, count):
            w = Fraction(gw, GRID)
            h = Fraction(gh, GRID)
            if spec.mode == "shrink":
                # in-place shrink keeps the witness placement valid
                if rng.random() < 0.7:
                    w = w * Fraction(rng.randint(1, 8), 8)
                if rng.random() < 0.7:
                    h = h * Fraction(rng.randint(1, 8), 8)
            boxes.append((w, h, Fraction(gx, GRID), Fraction(gy, GRID), index))
    return _build(boxes)


def _build(boxes, bins=None):
    """(instance, witness) of boxes (width, height, x, y[, bin]), the items
    numbered from 0 in box order and placed in bin 0 unless a bin is given.
    With bins, the witness must validate on exactly that many bins."""
    items = []
    layouts = []
    for ident, (width, height, x, y, *where) in enumerate(boxes):
        index = where[0] if where else 0
        while len(layouts) <= index:
            layouts.append(BinLayout(1, 1))
        items.append(Item(ident, width, height))
        layouts[index].add(ident, x, y)
    instance, witness = Instance(items), Packing(layouts)
    if bins is not None:
        report = validate_packing(witness, instance)
        if not report.ok or len(layouts) != bins:
            raise AssertionError(f"plant produced a broken witness: {report.violations}")
    return instance, witness


def exact_min_bins(instance: Instance, max_bins=4, oracle_limit=8):
    """Smallest bin count up to max_bins with a witness, or None.

    Partition search over canonical assignments, starting at the
    classify.lower_bound count; per-subset feasibility via the exact
    single-region packer, cached across the whole search on the
    instance's lattice (instance.grid).  The solve reads that lattice for
    everything but the area term of the bound: the unit-bin memo is built
    on it, the items go in the memo's search order (cache.order, which is
    (-volume, id)), and classify.lower_bound reads the same grid.
    """
    items = instance.items
    if len(items) > oracle_limit:
        raise InstanceTooLarge(f"{len(items)} items exceed the oracle limit {oracle_limit}")
    if not items:
        return 0, Packing([])
    cache = UnitBinMemo(instance.grid)
    by_id = {it.id: it for it in items}
    items = [by_id[i] for i in cache.order]
    for b in range(lower_bound(instance), max_bins + 1):
        split = next(canonical_partitions(items, b, cache, oracle_limit), None)
        if split is not None:
            return b, Packing([unit_bin_layout(part, cache, oracle_limit)
                               for part in split if part])
    return None


def certify_opt(instance: Instance, ell: int, witness: Packing, oracle_limit=8) -> bool:
    """True iff the witness proves OPT <= ell and a lower bound proves OPT >= ell.

    The cheap lower bound is classify.lower_bound; when it is below ell
    the full partition search settles the question.
    """
    if len(witness.bins) > ell or not validate_packing(witness, instance).ok:
        return False
    if lower_bound(instance) >= ell:
        return True
    result = exact_min_bins(instance, max_bins=ell, oracle_limit=oracle_limit)
    return result is not None and result[0] == ell


# ---------------------------------------------------------------------------
# branch plants: fixed templates with seeded jitter, verified on the way out

TENTH = Fraction(1, 10)


def _stack(x, y, sizes, index=0):
    """Boxes of the (width, height) pairs in sizes stacked upward from y at
    x in bin index, up to the first that would pass the bin top; sizes is
    read no further.  Returns the boxes and the y above the last one."""
    boxes = []
    for w, h in sizes:
        if y + h > 1:
            break
        boxes.append((w, h, x, y, index))
        y += h
    return boxes, y


def _filler_column(rng, x, y=0):
    """Zero to three small filler squares stacked in the free column at x."""
    return _stack(x, y, [(TENTH, TENTH)] * rng.randint(0, 3))[0]


def _quarters(last=HALF):
    """Bin 0 of a two-bin plant: half squares in its four quarters, the one
    at (1/2, 1/2) of side last."""
    return [(HALF, HALF, 0, 0), (HALF, HALF, HALF, 0), (HALF, HALF, 0, HALF),
            (last, last, HALF, HALF)]


def plant_delta_width(seed: int):
    """Feasible width-axis delta with a nonempty near-full stack at the cutoff."""
    rng = random.Random(seed)
    ha = Fraction(rng.randint(4, 10), 64)  # top item of the cutoff stack
    mid_w = Fraction(rng.randint(55, 70), 100)
    # a stack box's height is drawn before its width
    stack, y = _stack(0, 0, chain([(Fraction(255, 256), ha), (mid_w, TENTH)],
                                  ((Fraction(rng.randint(8, 16), 32), h)
                                   for _ in range(rng.randint(1, 4))
                                   for h in [Fraction(rng.randint(2, 8), 32)])))
    return _build(stack + _filler_column(rng, Fraction(3, 4), y), bins=1)


def plant_delta_height(seed: int):
    """Width-axis search fails (one near-full-width item carries the whole
    stack over every threshold), height axis succeeds."""
    rng = random.Random(seed)
    ha = Fraction(33, 128) + Fraction(rng.randint(0, 8), 128)  # > (1/2 - eps)/2
    tall_h = Fraction(rng.randint(55, 67), 100)
    stack, _ = _stack(HALF, ha, ((side, side) for _ in range(rng.randint(1, 4))
                                 for side in [Fraction(rng.randint(4, 12), 64)]))
    return _build([(Fraction(255, 256), ha, 0, 0), (HALF, tall_h, 0, ha)] + stack, bins=1)


def plant_large_w(seed: int):
    """One-bin instance with h(W) >= w(H) > 1/2: split wide stacks dodge two
    groups of high columns."""
    rng = random.Random(seed)
    wide_w = Fraction(13, 25)
    high_h = Fraction(51, 100)
    inst, wit = _build([
        (wide_w, Fraction(3, 20), 0, Fraction(11, 20)),
        (wide_w, Fraction(3, 20), 0, Fraction(7, 10)),
        (wide_w, Fraction(3, 20), 0, Fraction(17, 20)),
        (wide_w, TENTH, 1 - wide_w, 0),  # bottom strip, right aligned
        (Fraction(7, 50), high_h, 0, Fraction(1, 25)),
        (Fraction(7, 50), high_h, Fraction(7, 50), Fraction(1, 25)),
        (Fraction(1, 8), high_h, wide_w, TENTH),
        (Fraction(1, 8), high_h, wide_w + Fraction(1, 8), TENTH),
        *_filler_column(rng, Fraction(79, 100), TENTH),
    ], bins=1)
    classes = classify(inst)
    assert total_height(classes.wide) >= total_width(classes.high) > Fraction(1, 2)
    return inst, wit


def plant_small_w_case1(seed: int):
    """h(W) > 1/2 with enough width in the half-tall band to fill a top run."""
    rng = random.Random(seed)
    wh = Fraction(11, 40)
    return _build([
        (Fraction(13, 25), wh, 0, 0),
        (Fraction(13, 25), wh, 0, wh),
        (Fraction(13, 100), Fraction(23, 50), Fraction(13, 25), 0),
        (Fraction(13, 100), Fraction(23, 50), Fraction(13, 25) + Fraction(13, 100), 0),
        (TENTH, Fraction(14, 25), Fraction(79, 100), 0),
        *_filler_column(rng, Fraction(89, 100)),
    ], bins=1)


def plant_small_w_case2(seed: int):
    """Half-tall band empty, two biggish smalls carry the corner volume."""
    rng = random.Random(seed)
    return _build([
        (Fraction(13, 25), Fraction(3, 10), 0, 0),
        (Fraction(13, 25), Fraction(3, 10), 0, Fraction(3, 10)),
        (Fraction(1, 4), Fraction(2, 5), Fraction(13, 25), 0),
        (Fraction(1, 4), Fraction(19, 50), Fraction(13, 25), Fraction(2, 5)),
        (TENTH, Fraction(11, 20), Fraction(77, 100), 0),
        *_filler_column(rng, Fraction(87, 100)),
    ], bins=1)


def plant_small_w_case3(seed: int):
    """Many equal small squares; no pair of areas reaches the corner bound."""
    rng = random.Random(seed)
    side = Fraction(1, 5)
    boxes = [(Fraction(51, 100), HALF, 0, 0), (TENTH, Fraction(11, 20), Fraction(51, 100), 0)]
    boxes += _stack(Fraction(61, 100), 0, [(side, side)] * rng.randint(3, 5))[0]
    boxes += [(side, side, (k % 2) * side, HALF + (k // 2) * side)
              for k in range(rng.randint(2, 4))]
    return _build(boxes, bins=1)


def plant_const_case1(seed: int):
    """Two-bin instance where neither side of the last bin fills up: the
    leftovers get spread over the light bins."""
    rng = random.Random(seed)
    side = Fraction(rng.randint(38, 40), 100)
    tiny = Fraction(1, rng.randint(40, 50))
    boxes = _quarters() + [(side, side, 0, 0, 1), (side, side, side, 0, 1),
                           (side, side, 0, side, 1)]
    boxes += _stack(0, 2 * side, [(tiny, tiny)] * rng.randint(2, 4), 1)[0]
    return _build(boxes, bins=2)


def plant_const_case2(seed: int):
    """Two-bin instance whose second bin is an exact fit: one tall item
    beside two stacked wide ones, both sides close to half volume."""
    rng = random.Random(seed)
    fourth = Fraction(rng.randint(42, 45), 100)
    tall_w = Fraction(4995, 10000)
    wide_h = Fraction(499, 1000)
    boxes = _quarters(fourth) + [(tall_w, 1, 0, 0, 1), (1 - tall_w, wide_h, tall_w, 0, 1),
                                 (1 - tall_w, wide_h, tall_w, wide_h, 1)]
    tiny = Fraction(1, rng.randint(50, 60))
    boxes += _stack(HALF + fourth, HALF, [(tiny, tiny)] * rng.randint(1, 3))[0]
    return _build(boxes, bins=2)


def plant_const_case3(seed: int):
    """Two-bin instance where only the high side fills: three wide-ish
    columns plus thin sliver columns that exactly close the width."""
    rng = random.Random(seed)
    w = Fraction(33, 100)
    heights = [
        Fraction(rng.randint(76, 82), 100),
        Fraction(rng.randint(83, 86), 100),
        Fraction(rng.randint(87, 90), 100),
    ]
    sliver_h = Fraction(rng.randint(51, 55), 100)
    boxes = _quarters() + [(w, h, j * w, 0, 1) for j, h in enumerate(heights)]
    boxes += [(Fraction(1, 600), sliver_h, 3 * w + Fraction(j, 600), 0, 1)
              for j in range(rng.randint(4, 6))]
    return _build(boxes, bins=2)


def plant_const_case4(seed: int):
    """Two-bin instance where only the wide side fills: two deep shelves
    plus wafer-thin wide strips that force the role flip."""
    rng = random.Random(seed)
    h = Fraction(rng.randint(28, 30), 100)
    shelves = [(Fraction(9, 10), h)] * 2 + [(Fraction(11, 20), Fraction(1, 600))] * rng.randint(2, 4)
    return _build(_quarters() + _stack(0, 0, shelves, 1)[0], bins=2)
