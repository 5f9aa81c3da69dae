"""Item classes (wide/high/small/big), their sums, and the delta search.

An item is wide when its width exceeds 1/2 strictly, high when its height
does, big when both do, small when neither does.  The delta search looks for
a cutoff so that the near-full-width items stack into a short strip; its
threshold gamma = (delta - eps) / (1 + 2 delta) never exceeds 1/4.

The sums (vol, total_width, total_height) add ints on one lattice and
build one Fraction: vol the unreduced products w * h of the item sides,
the other two the sides, each over the least common multiple of their
denominators.  classify, lower_bound and the delta search read the item
sides as ints from a Grid: the instance's own (instance.grid, on the
lattice of the sides and 1/2), which classify also sums into h(W) and
w(H); the delta search takes the Grid it searches, so that the
height-axis search reads the same Grid transposed.  Only the lower
bound's area term is the Fraction vol.  The delta search's candidates
and stack are ints there, and the threshold test is cross-multiplied, so
no Fraction is built until the delta it returns.
"""

import math
from dataclasses import dataclass
from fractions import Fraction

from .geometry import HALF, Grid, Instance, exact_sum

# fixed constant of the area guarantee
XI = Fraction(3, 40)

EPS_LIMIT = Fraction(1, 200)


def vol(items) -> Fraction:
    """The total area of items, as one Fraction: each area w * h is an
    unreduced product of numerators over a product of denominators, and
    the sum is taken over the least common multiple of those."""
    sides = [(it.width.numerator, it.width.denominator, it.height.numerator, it.height.denominator)
             for it in items]
    d = math.lcm(*[p * q for _, p, _, q in sides])
    return Fraction(sum([a * b * (d // (p * q)) for a, p, b, q in sides]), d)


def total_width(items) -> Fraction:
    return exact_sum([it.width for it in items])


def total_height(items) -> Fraction:
    return exact_sum([it.height for it in items])


def w_max(items) -> Fraction:
    return max((it.width for it in items), default=Fraction(0))


def h_max(items) -> Fraction:
    return max((it.height for it in items), default=Fraction(0))


@dataclass
class ItemClasses:
    wide: list  # w > 1/2 (bigs included)
    high: list  # h > 1/2 (bigs included)
    small: list  # w <= 1/2 and h <= 1/2
    big: list  # wide and high at once
    high_only: list  # high and not wide
    wide_height: Fraction  # h(W), the total height of the wide items
    high_width: Fraction  # w(H), the total width of the high items


def classify(instance: Instance) -> ItemClasses:
    """The classes of the instance's items, in item order, and h(W) and
    w(H), tested and summed on the ints of instance.grid: an item is wide
    when 2w > d and high when 2h > d."""
    grid = instance.grid
    d, sides = grid.d, grid.sides
    wide, high, small, big, high_only = [], [], [], [], []
    wide_h = high_w = 0
    for it in instance.items:
        w, h = sides[it.id]
        is_wide, is_high = 2 * w > d, 2 * h > d
        if is_wide:
            wide.append(it)
            wide_h += h
        if is_high:
            high.append(it)
            high_w += w
            (big if is_wide else high_only).append(it)
        elif not is_wide:
            small.append(it)
    return ItemClasses(wide, high, small, big, high_only, Fraction(wide_h, d), Fraction(high_w, d))


def lower_bound(instance: Instance) -> int:
    """Bins that every packing of the instance needs: the ceiling of the
    largest of the total area, h(W) (wide items cross the vertical
    midline, so they stack), w(H) (likewise side by side) and the number
    of big items (no two share a bin).  The classes and h(W) and w(H) are
    ints on instance.grid; only the area term is the Fraction vol."""
    grid = instance.grid
    d = grid.d
    wide = high = big = 0
    for w, h in grid.sides.values():
        is_wide, is_high = 2 * w > d, 2 * h > d
        if is_wide:
            wide += h
        if is_high:
            high += w
            big += is_wide
    # the area stays a vol call: perfbench's oracle.exact_min_bins.cache_size
    # counts the vol calls made under exact_min_bins
    return max(math.ceil(vol(instance.items)), -(-wide // d), -(-high // d), big)


def delta_threshold(delta: Fraction, eps: Fraction) -> Fraction:
    return (delta - eps) / (1 + 2 * delta)


def _check_eps(eps):
    if not (0 < eps < EPS_LIMIT):
        raise ValueError(f"eps must lie in (0, 1/200), got {eps}")


def find_feasible_delta(grid: Grid, eps):
    """Smallest candidate delta whose near-full stack fits under gamma.

    Candidates are 1 - w_i for items with w_i > 1/2 (kept when inside
    (eps, 1/2)) plus 1/2 itself; the stack height h(W_delta) is a step
    function that only changes at those points, so nothing else needs
    checking.  Returns None when every candidate fails.  The search on
    the transposed sides is the height-axis one, w(H_delta) <= gamma.

    The search reads only grid, a Grid of the items, and runs on its
    ints, widened to a lattice L that holds 1/2 (instance.grid holds it
    already): delta = c / L, and the stack S / L.  The items enter the
    stack widest first as c grows, and S / L <= (c/L - eps) / (1 + 2c/L)
    holds exactly when S * (L + 2c) * q <= (c * q - p * L) * L for eps =
    p / q.  The height-axis search takes grid.transposed(), with no
    transposed instance built.
    """
    _check_eps(eps)
    grid = grid.holding(HALF)
    L = grid.d
    p, q = eps.numerator, eps.denominator
    pairs = sorted(grid.sides.values(), reverse=True)
    half = L // 2
    candidates = {half}
    for a, _ in pairs:
        if a <= half:
            break
        c = L - a
        if p * L < c * q and c < half:
            candidates.add(c)
    stack = j = 0
    for c in sorted(candidates):
        while j < len(pairs) and pairs[j][0] > L - c:
            stack += pairs[j][1]
            j += 1
        if stack * (L + 2 * c) * q <= (c * q - p * L) * L:
            return Fraction(c, L)
    return None

