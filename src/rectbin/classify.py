"""Item classes (wide/high/small/big), their sums, and the delta search.

An item is wide when its width exceeds 1/2 strictly, high when its height
does, big when both do, small when neither does.  The delta search looks for
a cutoff so that the near-full-width items stack into a short strip; its
threshold gamma = (delta - eps) / (1 + 2 delta) never exceeds 1/4.

The sums (vol, total_width, total_height) add ints over the least common
multiple of their terms' denominators and build one Fraction.  The lower
bound classifies and sums on an integer lattice of the item sides
(lattice_bound): its own in lower_bound, the unit-bin memo's in the
oracle; only its area term is the Fraction vol.  The delta
search runs on the lattice of the item sides and 1/2, computed per call:
candidates and stack are ints there, and the threshold test is
cross-multiplied, so no Fraction is built until the delta it returns.
"""

import math
from dataclasses import dataclass
from fractions import Fraction

from .geometry import HALF, Instance, exact_sum, lattice, scaled

# fixed constant of the area guarantee
XI = Fraction(3, 40)

EPS_LIMIT = Fraction(1, 200)


def vol(items) -> Fraction:
    return exact_sum([it.volume for it in items])


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

    @property
    def high_only(self):
        return [it for it in self.high if it.width <= HALF]


def classify(instance: Instance) -> ItemClasses:
    wide, high, small, big = [], [], [], []
    for it in instance.items:
        is_wide = it.width > HALF
        is_high = it.height > HALF
        if is_wide:
            wide.append(it)
        if is_high:
            high.append(it)
        if is_wide and is_high:
            big.append(it)
        if not is_wide and not is_high:
            small.append(it)
    return ItemClasses(wide, high, small, big)


def lower_bound(instance: Instance) -> int:
    """Bins that every packing of the instance needs: the ceiling of the
    largest of the total area, h(W) (wide items cross the vertical
    midline, so they stack), w(H) (likewise side by side) and the number
    of big items (no two share a bin).  Computed by lattice_bound on the
    lattice of the item sides."""
    items = instance.items
    d = lattice(items)
    return lattice_bound(items, d, [(scaled(it.width, d), scaled(it.height, d)) for it in items])


def lattice_bound(items, d, sides) -> int:
    """lower_bound of items, given their (width, height) sides as ints on
    a lattice of spacing 1/d: an item is wide when 2w > d and high when
    2h > d, and h(W) and w(H) are the ceilings of their int sums over d.
    The area term is the ceiling of vol(items)."""
    wide = high = big = 0
    for w, h in sides:
        is_wide, is_high = 2 * w > d, 2 * h > d
        if is_wide:
            wide += h
        if is_high:
            high += w
            big += is_wide
    # the area stays a vol call: perfbench's oracle.exact_min_bins.cache_size
    # counts the vol calls made under exact_min_bins
    return max(math.ceil(vol(items)), -(-wide // d), -(-high // d), big)


def delta_threshold(delta: Fraction, eps: Fraction) -> Fraction:
    return (delta - eps) / (1 + 2 * delta)


def _check_eps(eps):
    if not (0 < eps < EPS_LIMIT):
        raise ValueError(f"eps must lie in (0, 1/200), got {eps}")


def find_feasible_delta(instance: Instance, eps):
    """Smallest candidate delta whose near-full stack fits under gamma.

    Candidates are 1 - w_i for items with w_i > 1/2 (kept when inside
    (eps, 1/2)) plus 1/2 itself; the stack height h(W_delta) is a step
    function that only changes at those points, so nothing else needs
    checking.  Returns None when every candidate fails.  The search on
    the transposed instance is the height-axis one, w(H_delta) <= gamma.

    The search runs on the lattice L of the item sides and 1/2: delta =
    c / L, and the stack S / L.  The items enter the stack widest first as
    c grows, and S / L <= (c/L - eps) / (1 + 2c/L) holds exactly when
    S * (L + 2c) * q <= (c * q - p * L) * L for eps = p / q.
    """
    _check_eps(eps)
    items = instance.items
    L = lattice(items, HALF)
    p, q = eps.numerator, eps.denominator
    pairs = sorted([(scaled(it.width, L), scaled(it.height, L)) for it in items],
                   reverse=True)
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

