"""Ground truth for tests: exact minimum-bin search and certified generators.

Generated instances always come with a witness packing, so optimality claims
never rest on the solver under test.  The plant generators target specific
solver branches; every plant is verified after construction (witness
validates, intended predicate holds) before it is returned.
"""

import random
from dataclasses import dataclass
from fractions import Fraction

from .classify import classify, total_height, total_width, vol
from .errors import InstanceTooLarge
from .geometry import BinLayout, Instance, Item, Packing, validate_packing
from .knapsack import canonical_partitions, unit_bin_layout

GRID = 64  # guillotine cut granularity (denominator of all raw coordinates)


@dataclass(frozen=True)
class GeneratorSpec:
    seed: int
    n: int
    ell: int = 1
    mode: str = "guillotine"  # or "shrink"

    def __post_init__(self):
        if self.n < self.ell or self.ell < 1:
            raise ValueError("need n >= ell >= 1")
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
    items = []
    bins = []
    next_id = 0
    for count in counts:
        layout = BinLayout(1, 1)
        for gx, gy, gw, gh in _split_grid(rng, 0, 0, GRID, GRID, count):
            w = Fraction(gw, GRID)
            h = Fraction(gh, GRID)
            x = Fraction(gx, GRID)
            y = Fraction(gy, GRID)
            if spec.mode == "shrink":
                # in-place shrink keeps the witness placement valid
                if rng.random() < 0.7:
                    w = w * Fraction(rng.randint(1, 8), 8)
                if rng.random() < 0.7:
                    h = h * Fraction(rng.randint(1, 8), 8)
            items.append(Item(next_id, w, h))
            layout.add(next_id, x, y)
            next_id += 1
        bins.append(layout)
    return Instance(items), Packing(bins)


def exact_min_bins(instance: Instance, max_bins=4, oracle_limit=8):
    """Smallest bin count up to max_bins with a witness, or None.

    Partition search over canonical assignments; per-subset feasibility via
    the exact single-region packer, cached across the whole search.
    """
    items = sorted(instance.items, key=lambda it: (-it.volume, it.id))
    if len(items) > oracle_limit:
        raise InstanceTooLarge(f"{len(items)} items exceed the oracle limit {oracle_limit}")
    if not items:
        return 0, Packing([])
    cache = {}
    for b in range(1, max_bins + 1):
        split = next(canonical_partitions(items, b, cache, oracle_limit), None)
        if split is not None:
            return b, Packing([unit_bin_layout(part, cache, oracle_limit)
                               for part in split if part])
    return None


def certify_opt(instance: Instance, ell: int, witness: Packing, oracle_limit=8) -> bool:
    """True iff the witness proves OPT <= ell and a lower bound proves OPT >= ell.

    The cheap lower bound is total volume > ell - 1; when it does not apply
    the full partition search settles the question.
    """
    if len(witness.bins) > ell or not validate_packing(witness, instance).ok:
        return False
    if vol(instance.items) > ell - 1:
        return True
    result = exact_min_bins(instance, max_bins=ell, oracle_limit=oracle_limit)
    return result is not None and result[0] == ell


# ---------------------------------------------------------------------------
# branch plants: fixed templates with seeded jitter, verified on the way out


def _verify(instance, witness, ell=1):
    report = validate_packing(witness, instance)
    if not report.ok or len(witness.bins) != ell:
        raise AssertionError(f"plant produced a broken witness: {report.violations}")
    return instance, witness


def _filler_column(items, layout, next_id, rng, x0, width, y0=Fraction(0), top=Fraction(1)):
    """Stack a few small filler squares into the free column at x0."""
    count = rng.randint(0, 3)
    side = Fraction(1, 10)
    y = y0
    for _ in range(count):
        if side > width or y + side > top:
            break
        items.append(Item(next_id, side, side))
        layout.add(next_id, x0, y)
        y += side
        next_id += 1
    return next_id


def plant_delta_width(seed: int):
    """Feasible width-axis delta with a nonempty near-full stack at the cutoff."""
    rng = random.Random(seed)
    ha = Fraction(rng.randint(4, 10), 64)  # top item of the cutoff stack
    a = Item(0, Fraction(255, 256), ha)
    mid_w = Fraction(rng.randint(55, 70), 100)
    mid = Item(1, mid_w, Fraction(1, 10))
    items = [a, mid]
    layout = BinLayout(1, 1)
    layout.add(0, 0, 0)
    layout.add(1, 0, ha)
    y = ha + Fraction(1, 10)
    next_id = 2
    for _ in range(rng.randint(1, 4)):
        h = Fraction(rng.randint(2, 8), 32)
        w = Fraction(rng.randint(8, 16), 32)
        if y + h > 1:
            break
        items.append(Item(next_id, w, h))
        layout.add(next_id, 0, y)
        y += h
        next_id += 1
    next_id = _filler_column(items, layout, next_id, rng, Fraction(3, 4), Fraction(1, 4), y)
    return _verify(Instance(items), Packing([layout]))


def plant_delta_height(seed: int):
    """Width-axis search fails (one near-full-width item carries the whole
    stack over every threshold), height axis succeeds."""
    rng = random.Random(seed)
    ha = Fraction(33, 128) + Fraction(rng.randint(0, 8), 128)  # > (1/2 - eps)/2
    a = Item(0, Fraction(255, 256), ha)
    items = [a]
    layout = BinLayout(1, 1)
    layout.add(0, 0, 0)
    tall_h = Fraction(rng.randint(55, 67), 100)
    tall = Item(1, Fraction(1, 2), tall_h)
    items.append(tall)
    layout.add(1, 0, ha)
    next_id = 2
    y = ha
    for _ in range(rng.randint(1, 4)):
        side = Fraction(rng.randint(4, 12), 64)
        if y + side > 1:
            break
        items.append(Item(next_id, side, side))
        layout.add(next_id, Fraction(1, 2), y)
        y += side
        next_id += 1
    return _verify(Instance(items), Packing([layout]))


def plant_large_w(seed: int):
    """One-bin instance with h(W) >= w(H) > 1/2: split wide stacks dodge two
    groups of high columns."""
    rng = random.Random(seed)
    wide_w = Fraction(13, 25)
    items = [
        Item(0, wide_w, Fraction(3, 20)),
        Item(1, wide_w, Fraction(3, 20)),
        Item(2, wide_w, Fraction(3, 20)),
        Item(3, wide_w, Fraction(1, 10)),  # bottom strip, right aligned
        Item(4, Fraction(7, 50), Fraction(51, 100)),
        Item(5, Fraction(7, 50), Fraction(51, 100)),
        Item(6, Fraction(1, 8), Fraction(51, 100)),
        Item(7, Fraction(1, 8), Fraction(51, 100)),
    ]
    layout = BinLayout(1, 1)
    layout.add(0, 0, Fraction(11, 20))
    layout.add(1, 0, Fraction(7, 10))
    layout.add(2, 0, Fraction(17, 20))
    layout.add(3, 1 - wide_w, 0)
    layout.add(4, 0, Fraction(1, 25))
    layout.add(5, Fraction(7, 50), Fraction(1, 25))
    layout.add(6, wide_w, Fraction(1, 10))
    layout.add(7, wide_w + Fraction(1, 8), Fraction(1, 10))
    next_id = _filler_column(
        items, layout, 8, rng, Fraction(79, 100), Fraction(21, 100), Fraction(1, 10)
    )
    inst, wit = _verify(Instance(items), Packing([layout]))
    classes = classify(inst)
    assert total_height(classes.wide) >= total_width(classes.high) > Fraction(1, 2)
    return inst, wit


def plant_small_w_case1(seed: int):
    """h(W) > 1/2 with enough width in the half-tall band to fill a top run."""
    rng = random.Random(seed)
    wh = Fraction(11, 40)
    items = [
        Item(0, Fraction(13, 25), wh),
        Item(1, Fraction(13, 25), wh),
        Item(2, Fraction(13, 100), Fraction(23, 50)),
        Item(3, Fraction(13, 100), Fraction(23, 50)),
        Item(4, Fraction(1, 10), Fraction(14, 25)),
    ]
    layout = BinLayout(1, 1)
    layout.add(0, 0, 0)
    layout.add(1, 0, wh)
    layout.add(2, Fraction(13, 25), 0)
    layout.add(3, Fraction(13, 25) + Fraction(13, 100), 0)
    layout.add(4, Fraction(79, 100), 0)
    next_id = _filler_column(items, layout, 5, rng, Fraction(89, 100), Fraction(11, 100))
    return _verify(Instance(items), Packing([layout]))


def plant_small_w_case2(seed: int):
    """Half-tall band empty, two biggish smalls carry the corner volume."""
    rng = random.Random(seed)
    items = [
        Item(0, Fraction(13, 25), Fraction(3, 10)),
        Item(1, Fraction(13, 25), Fraction(3, 10)),
        Item(2, Fraction(1, 4), Fraction(2, 5)),
        Item(3, Fraction(1, 4), Fraction(19, 50)),
        Item(4, Fraction(1, 10), Fraction(11, 20)),
    ]
    layout = BinLayout(1, 1)
    layout.add(0, 0, 0)
    layout.add(1, 0, Fraction(3, 10))
    layout.add(2, Fraction(13, 25), 0)
    layout.add(3, Fraction(13, 25), Fraction(2, 5))
    layout.add(4, Fraction(77, 100), 0)
    next_id = _filler_column(items, layout, 5, rng, Fraction(87, 100), Fraction(13, 100))
    return _verify(Instance(items), Packing([layout]))


def plant_small_w_case3(seed: int):
    """Many equal small squares; no pair of areas reaches the corner bound."""
    rng = random.Random(seed)
    items = [
        Item(0, Fraction(51, 100), Fraction(1, 2)),
        Item(1, Fraction(1, 10), Fraction(11, 20)),
    ]
    layout = BinLayout(1, 1)
    layout.add(0, 0, 0)
    layout.add(1, Fraction(51, 100), 0)
    side = Fraction(1, 5)
    n_right = rng.randint(3, 5)
    next_id = 2
    for k in range(n_right):
        items.append(Item(next_id, side, side))
        layout.add(next_id, Fraction(61, 100), Fraction(k, 5))
        next_id += 1
    for k in range(rng.randint(2, 4)):
        items.append(Item(next_id, side, side))
        layout.add(next_id, (k % 2) * side, Fraction(1, 2) + (k // 2) * side)
        next_id += 1
    return _verify(Instance(items), Packing([layout]))


def plant_const_case1(seed: int):
    """Two-bin instance where neither side of the last bin fills up: the
    leftovers get spread over the light bins."""
    rng = random.Random(seed)
    half = Fraction(1, 2)
    items = [Item(i, half, half) for i in range(4)]
    first = BinLayout(1, 1)
    first.add(0, 0, 0)
    first.add(1, half, 0)
    first.add(2, 0, half)
    first.add(3, half, half)
    side = Fraction(rng.randint(38, 40), 100)
    second = BinLayout(1, 1)
    for j in range(3):
        items.append(Item(4 + j, side, side))
    second.add(4, 0, 0)
    second.add(5, side, 0)
    second.add(6, 0, side)
    tiny = Fraction(1, rng.randint(40, 50))
    y = 2 * side
    for j in range(rng.randint(2, 4)):
        items.append(Item(7 + j, tiny, tiny))
        second.add(7 + j, 0, y)
        y += tiny
    return _verify(Instance(items), Packing([first, second]), 2)


def plant_const_case2(seed: int):
    """Two-bin instance whose second bin is an exact fit: one tall item
    beside two stacked wide ones, both sides close to half volume."""
    rng = random.Random(seed)
    half = Fraction(1, 2)
    fourth = Fraction(rng.randint(42, 45), 100)
    items = [
        Item(0, half, half),
        Item(1, half, half),
        Item(2, half, half),
        Item(3, fourth, fourth),
        Item(4, Fraction(4995, 10000), Fraction(1)),
        Item(5, Fraction(5005, 10000), Fraction(499, 1000)),
        Item(6, Fraction(5005, 10000), Fraction(499, 1000)),
    ]
    first = BinLayout(1, 1)
    first.add(0, 0, 0)
    first.add(1, half, 0)
    first.add(2, 0, half)
    first.add(3, half, half)
    second = BinLayout(1, 1)
    second.add(4, 0, 0)
    second.add(5, Fraction(4995, 10000), 0)
    second.add(6, Fraction(4995, 10000), Fraction(499, 1000))
    tiny = Fraction(1, rng.randint(50, 60))
    x = half + fourth
    y = half
    for j in range(rng.randint(1, 3)):
        if y + tiny > 1:
            break
        items.append(Item(7 + j, tiny, tiny))
        first.add(7 + j, x, y)
        y += tiny
    return _verify(Instance(items), Packing([first, second]), 2)


def plant_const_case3(seed: int):
    """Two-bin instance where only the high side fills: three wide-ish
    columns plus thin sliver columns that exactly close the width."""
    rng = random.Random(seed)
    half = Fraction(1, 2)
    items = [Item(i, half, half) for i in range(4)]
    first = BinLayout(1, 1)
    first.add(0, 0, 0)
    first.add(1, half, 0)
    first.add(2, 0, half)
    first.add(3, half, half)
    w = Fraction(33, 100)
    heights = [
        Fraction(rng.randint(76, 82), 100),
        Fraction(rng.randint(83, 86), 100),
        Fraction(rng.randint(87, 90), 100),
    ]
    second = BinLayout(1, 1)
    for j, h in enumerate(heights):
        items.append(Item(4 + j, w, h))
        second.add(4 + j, j * w, 0)
    sliver_h = Fraction(rng.randint(51, 55), 100)
    count = rng.randint(4, 6)
    for j in range(count):
        items.append(Item(7 + j, Fraction(1, 600), sliver_h))
        second.add(7 + j, 3 * w + Fraction(j, 600), 0)
    return _verify(Instance(items), Packing([first, second]), 2)


def plant_const_case4(seed: int):
    """Two-bin instance where only the wide side fills: two deep shelves
    plus wafer-thin wide strips that force the role flip."""
    rng = random.Random(seed)
    half = Fraction(1, 2)
    items = [Item(i, half, half) for i in range(4)]
    first = BinLayout(1, 1)
    first.add(0, 0, 0)
    first.add(1, half, 0)
    first.add(2, 0, half)
    first.add(3, half, half)
    h = Fraction(rng.randint(28, 30), 100)
    items.append(Item(4, Fraction(9, 10), h))
    items.append(Item(5, Fraction(9, 10), h))
    second = BinLayout(1, 1)
    second.add(4, 0, 0)
    second.add(5, 0, h)
    y = 2 * h
    for j in range(rng.randint(2, 4)):
        items.append(Item(6 + j, Fraction(11, 20), Fraction(1, 600)))
        second.add(6 + j, 0, y)
        y += Fraction(1, 600)
    return _verify(Instance(items), Packing([first, second]), 2)
