"""Shared helpers for the test suite.

The checkers here are written independently of the package internals on
purpose: they recompute overlap and containment from first principles so the
suite does not just test the validator against itself.
"""

from fractions import Fraction

from hypothesis import strategies as st

from rectbin.geometry import Instance, Item


def rational(max_den=64, lo=Fraction(0), hi=Fraction(1)):
    """Strategy for an exact rational in [lo, hi]."""
    return st.integers(1, max_den).flatmap(
        lambda den: st.integers(0, den).map(lambda num: lo + (hi - lo) * Fraction(num, den))
    )


def dims_strategy(max_den=32):
    """Strategy for one (width, height) pair in (0,1]^2 on a shared denominator."""
    return st.integers(1, max_den).flatmap(
        lambda den: st.tuples(st.integers(1, den), st.integers(1, den)).map(
            lambda t: (Fraction(t[0], den), Fraction(t[1], den))
        )
    )


def make_instance(dims) -> Instance:
    return Instance([Item(i, w, h) for i, (w, h) in enumerate(dims)])


def rect_intersection_area(ax, ay, aw, ah, bx, by, bw, bh) -> Fraction:
    """Area of the intersection of two closed rectangles; zero means at most edge contact."""
    dx = min(ax + aw, bx + bw) - max(ax, bx)
    dy = min(ay + ah, by + bh) - max(ay, by)
    if dx <= 0 or dy <= 0:
        return Fraction(0)
    return dx * dy


def independent_bin_check(layout, items_by_id):
    """Recompute the validator's verdict with intersection areas and raw bounds.

    Returns (contained, disjoint): every placement inside the region, and no
    pair with positive intersection area.  Ignores unknown/duplicate ids, the
    caller is expected to feed a clean layout.
    """
    boxes = []
    contained = True
    for p in layout.placements:
        it = items_by_id[p.item_id]
        if not (0 <= p.x and 0 <= p.y and p.x + it.width <= layout.width and p.y + it.height <= layout.height):
            contained = False
        boxes.append((p.x, p.y, it.width, it.height))
    disjoint = True
    for i in range(len(boxes)):
        for j in range(i + 1, len(boxes)):
            if rect_intersection_area(*boxes[i], *boxes[j]) > 0:
                disjoint = False
    return contained, disjoint


def assert_valid_packing(packing, instance):
    from rectbin.geometry import validate_packing

    report = validate_packing(packing, instance)
    assert report.ok, report.violations


def total_volume(items) -> Fraction:
    return sum((it.width * it.height for it in items), Fraction(0))


def rand_frac(rng, lo, hi, den):
    """Random fraction in [lo, hi] with the given denominator (clamped)."""
    num_lo = max(1, int(Fraction(lo) * den))
    num_hi = max(num_lo, int(Fraction(hi) * den))
    return Fraction(rng.randint(num_lo, num_hi), den)


def random_condition_set(rng, u=Fraction(1), v=Fraction(1), max_n=10):
    """Item set satisfying the packability condition for region (u, v).

    Biased toward dense all-small fillings half the time; the rest samples
    freely and keeps only condition-passing draws.  May return [].
    """
    from rectbin.steinberg import steinberg_condition

    if rng.random() < 0.5:
        items = []
        budget = u * v / 2
        used = Fraction(0)
        for i in range(rng.randint(2, max_n)):
            den = rng.choice([16, 32, 64, 128])
            w = rand_frac(rng, Fraction(1, 64), u / 2, den)
            h = rand_frac(rng, Fraction(1, 64), v / 2, den)
            if used + w * h > budget:
                break
            items.append(Item(i, w, h))
            used += w * h
        return items
    items = []
    for i in range(rng.randint(1, max_n)):
        den = rng.choice([16, 32, 64])
        items.append(
            Item(i, min(rand_frac(rng, Fraction(1, 64), u, den), Fraction(1)),
                 min(rand_frac(rng, Fraction(1, 64), v, den), Fraction(1)))
        )
    return items if steinberg_condition(items, u, v) else []


def random_half_area_set(rng, max_n=10, allow_big=True):
    """No item wider than 1/2 except at most one big; total area <= 1/2."""
    items = []
    used = Fraction(0)
    start = 0
    if allow_big and rng.random() < 0.5:
        den = 64
        w = rand_frac(rng, Fraction(33, 64), Fraction(62, 64), den)
        h = rand_frac(rng, Fraction(33, 64), Fraction(62, 64), den)
        if w * h <= Fraction(1, 2):
            items.append(Item(0, w, h))
            used = w * h
            start = 1
    for j in range(start, rng.randint(start + 1, max_n)):
        den = rng.choice([16, 32, 64, 128])
        w = rand_frac(rng, Fraction(1, 128), Fraction(1, 2), den)
        h = rand_frac(rng, Fraction(1, 128), Fraction(1), den)
        if used + w * h > Fraction(1, 2):
            break
        items.append(Item(j, w, h))
        used += w * h
    return items


def naive_fits(items, a, b):
    """Independent feasibility search: recompute normal positions per call,
    overlap via intersection areas.  Big items first so clashes surface
    early; completeness does not depend on the order."""
    items = sorted(items, key=lambda it: (-it.width * it.height, it.id))
    if sum(it.width * it.height for it in items) > a * b:
        return False

    def axis(vals, limit):
        sums = {Fraction(0)}
        for v in vals:
            sums |= {s + v for s in sums}
        return sorted(s for s in sums if s < limit)

    xs = axis([it.width for it in items], a)
    ys = axis([it.height for it in items], b)

    def rec(i, placed):
        if i == len(items):
            return True
        it = items[i]
        for x in xs:
            if x + it.width > a:
                break
            for y in ys:
                if y + it.height > b:
                    break
                clash = any(
                    rect_intersection_area(x, y, it.width, it.height, px, py, p.width, p.height) > 0
                    for p, px, py in placed
                )
                if not clash and rec(i + 1, placed + [(it, x, y)]):
                    return True
        return False

    return rec(0, [])


def brute_min_bins(items, max_bins=4):
    """Try every assignment of items to at most b bins, smallest b first."""
    import itertools as _it

    if not items:
        return 0
    for b in range(1, max_bins + 1):
        for combo in _it.product(range(b), repeat=len(items)):
            parts = [[] for _ in range(b)]
            for it, j in zip(items, combo):
                parts[j].append(it)
            if all(naive_fits(part, 1, 1) for part in parts):
                return b
    return None


def brute_canonical_splits(items, bins, labeled=0):
    """Every split of items into bins parts that each fit, in lexicographic
    order of the item -> part assignment.  Parts past the first `labeled`
    are interchangeable, so part j may take its first item only after part
    j - 1 has one."""
    import itertools as _it

    out = []
    for combo in _it.product(range(bins), repeat=len(items)):
        highest = labeled - 1
        canonical = True
        for j in combo:
            if j > highest + 1 and j >= labeled:
                canonical = False
                break
            highest = max(highest, j)
        if not canonical:
            continue
        parts = [[] for _ in range(bins)]
        for it, j in zip(items, combo):
            parts[j].append(it)
        if all(naive_fits(part, 1, 1) for part in parts):
            out.append(tuple(tuple(it.id for it in part) for part in parts))
    return out
