"""Single-region rectangle knapsack and exact feasibility packing.

Placements are searched over normal positions: every candidate coordinate is
a subset sum of item widths (respectively heights).  Any axis-parallel
packing can be normalized by pushing items left and then down until each is
blocked, which lands every corner on such a sum, so restricting the search
to these positions loses nothing.

The profit solver is branch and bound: items in non-increasing area order,
include (at each feasible normal position, x before y) or exclude, with the
upper bound achieved + min(remaining profit, ratio * free area).  At desk
scale this is exact; beyond exact_limit a greedy fallback runs and the
result is kept only when it provably meets the (1 - eps) * OPT - eps
contract.
"""

from dataclasses import dataclass
from fractions import Fraction

from .classify import vol
from .errors import InstanceTooLarge
from .geometry import ONE, ZERO, BinLayout, Placement, scalar


@dataclass(frozen=True)
class ProfitItem:
    item: object
    profit: Fraction

    def __post_init__(self):
        object.__setattr__(self, "profit", scalar(self.profit))
        if self.profit < self.item.volume:
            raise ValueError("profit below item area; the ratio must be at least 1")


@dataclass
class KnapsackResult:
    selected: list
    layout: BinLayout
    achieved_profit: Fraction
    exact: bool


def _axis_positions(lengths, limit):
    """Sorted subset sums below limit; the complete candidate coordinate set."""
    sums = {ZERO}
    for w in sorted(lengths):
        sums |= {s + w for s in sums if s + w < limit}
    return sorted(sums)


def _feasible_positions(width, height, xs, ys, placed, a, b, floor=None):
    """Yield normal positions (lex order) where a width x height box fits.

    placed is a list of (item, x, y).  floor, when given, restricts output
    to positions strictly beyond it in lex order (symmetry breaking for
    identical items).  Inner loop jumps past the tallest conflict, which
    skips every y candidate that provably also conflicts.
    """
    for x in xs:
        if x + width > a:
            break  # xs sorted ascending
        yi = 0
        while yi < len(ys):
            y = ys[yi]
            if y + height > b:
                break
            if floor is not None and (x, y) <= floor:
                yi += 1
                continue
            jump = None
            for it, px, py in placed:
                if x < px + it.width and px < x + width and y < py + it.height and py < y + height:
                    top = py + it.height
                    if jump is None or top > jump:
                        jump = top
            if jump is None:
                yield (x, y)
                yi += 1
            else:
                while yi < len(ys) and ys[yi] < jump:
                    yi += 1


def _order_key(pi):
    return (-pi.item.volume, pi.item.id)


def _solve_exact(pitems, a, b):
    order = sorted(pitems, key=_order_key)
    xs = _axis_positions([pi.item.width for pi in order], a)
    ys = _axis_positions([pi.item.height for pi in order], b)
    ratio = max((pi.profit / pi.item.volume for pi in order), default=ONE)
    suffix = [ZERO] * (len(order) + 1)
    for i in range(len(order) - 1, -1, -1):
        suffix[i] = suffix[i + 1] + order[i].profit
    best = {"profit": Fraction(-1), "sel": [], "pl": []}
    placed = []

    def twin(i):
        # previous item same shape and profit: decisions can be canonicalized
        if i == 0:
            return False
        p, q = order[i - 1], order[i]
        return (p.item.width, p.item.height, p.profit) == (q.item.width, q.item.height, q.profit)

    def rec(i, achieved, used, last_excluded, last_pos):
        if i == len(order):
            if achieved > best["profit"]:
                best["profit"] = achieved
                best["sel"] = [it for it, _, _ in placed]
                best["pl"] = [Placement(it.id, x, y) for it, x, y in placed]
            return
        free = a * b - used
        if achieved + min(suffix[i], ratio * free) <= best["profit"]:
            return
        pi = order[i]
        it = pi.item
        same = twin(i)
        if not (same and last_excluded):
            floor = last_pos if same else None
            if it.volume <= free:
                for x, y in _feasible_positions(it.width, it.height, xs, ys, placed, a, b, floor):
                    if achieved + min(suffix[i], ratio * free) <= best["profit"]:
                        break
                    placed.append((it, x, y))
                    rec(i + 1, achieved + pi.profit, used + it.volume, False, (x, y))
                    placed.pop()
        rec(i + 1, achieved, used, True, None)

    rec(0, ZERO, ZERO, False, None)
    return best


def _best_effort(pitems, a, b):
    order = sorted(pitems, key=lambda pi: (-(pi.profit / pi.item.volume), -pi.profit, pi.item.id))
    placed = []
    achieved = ZERO
    for pi in order:
        it = pi.item
        xs = sorted({ZERO} | {px + p.width for p, px, _ in placed})
        ys = sorted({ZERO} | {py + p.height for p, _, py in placed})
        spot = next(_feasible_positions(it.width, it.height, xs, ys, placed, a, b), None)
        if spot is not None:
            placed.append((it, spot[0], spot[1]))
            achieved += pi.profit
    return achieved, placed


def max_profit_pack(pitems, a, b, eps, exact_limit=10) -> KnapsackResult:
    a, b = scalar(a), scalar(b)
    eps = scalar(eps)
    if not (0 < a <= 1 and 0 < b <= 1):
        raise ValueError(f"region {a} x {b} outside (0,1] x (0,1]")
    if eps <= 0:
        raise ValueError("eps must be positive")
    usable = [pi for pi in pitems if pi.item.width <= a and pi.item.height <= b]
    if len(pitems) <= exact_limit:
        best = _solve_exact(usable, a, b)
        layout = BinLayout(a, b, best["pl"])
        return KnapsackResult(best["sel"], layout, max(best["profit"], ZERO), True)
    achieved, placed = _best_effort(usable, a, b)
    ratio = max((pi.profit / pi.item.volume for pi in usable), default=ONE)
    upper = min(
        sum((pi.profit for pi in usable), ZERO),
        ratio * min(a * b, sum((pi.item.volume for pi in usable), ZERO)),
    )
    if achieved < (1 - eps) * upper - eps:
        raise InstanceTooLarge(
            f"{len(pitems)} items exceed the exact limit {exact_limit} and the "
            f"greedy result {achieved} cannot certify the contract against bound {upper}"
        )
    layout = BinLayout(a, b, [Placement(it.id, x, y) for it, x, y in placed])
    return KnapsackResult([it for it, _, _ in placed], layout, achieved, False)


def max_area_pack(items, a, b, eps, exact_limit=10) -> KnapsackResult:
    return max_profit_pack(
        [ProfitItem(it, it.volume) for it in items], a, b, eps, exact_limit
    )


def exact_pack_single_region(items, a, b, exact_limit=10):
    """A validating layout of every item in region (a, b), or None.

    Complete search over normal positions with identical-item symmetry
    breaking; deterministic first solution.
    """
    items = list(items)
    a, b = scalar(a), scalar(b)
    if len(items) > exact_limit:
        raise InstanceTooLarge(f"{len(items)} items exceed the exact limit {exact_limit}")
    if not items:
        return BinLayout(a, b)
    if vol(items) > a * b:
        return None
    order = sorted(items, key=lambda it: (-it.volume, it.id))
    if any(it.width > a or it.height > b for it in order):
        return None
    xs = _axis_positions([it.width for it in order], a)
    ys = _axis_positions([it.height for it in order], b)
    placed = []

    def rec(i, last_pos):
        if i == len(order):
            return True
        it = order[i]
        same = i > 0 and (order[i - 1].width, order[i - 1].height) == (it.width, it.height)
        floor = last_pos if same else None
        for x, y in _feasible_positions(it.width, it.height, xs, ys, placed, a, b, floor):
            placed.append((it, x, y))
            if rec(i + 1, (x, y)):
                return True
            placed.pop()
        return False

    if rec(0, None):
        return BinLayout(a, b, [Placement(it.id, x, y) for it, x, y in placed])
    return None


def unit_bin_layout(items, cache, limit):
    """exact_pack_single_region's unit-bin layout of items, or None when
    they do not fit; memoized in cache by the set of item ids."""
    key = frozenset(it.id for it in items)
    if key not in cache:
        if vol(items) > 1:
            cache[key] = None
        else:
            cache[key] = exact_pack_single_region(items, 1, 1, exact_limit=limit)
    return cache[key]


def canonical_partitions(items, bins, cache, limit, labeled=0):
    """Yield each split of items into bins parts that each fit a unit bin.

    Items are assigned in the given order, each to the parts in index
    order, so splits come out in lexicographic order of that assignment.
    The first `labeled` parts are distinct bins; the rest are
    interchangeable, so an empty one opens only after the one before it
    holds an item.  A part grows only while unit_bin_layout accepts it,
    so no split extends a part that does not fit.
    """
    parts = [[] for _ in range(bins)]

    def rec(i):
        if i == len(items):
            yield tuple(tuple(p) for p in parts)
            return
        it = items[i]
        opened = False
        for j, part in enumerate(parts):
            if j >= labeled and not part:
                if opened:
                    break  # every later unlabeled part is empty as well
                opened = True
            part.append(it)
            if unit_bin_layout(part, cache, limit) is not None:
                yield from rec(i + 1)
            part.pop()

    yield from rec(0)
