"""Single-region rectangle knapsack and exact feasibility packing.

Placements are searched over normal positions: every candidate coordinate is
a subset sum of item widths (respectively heights).  Any axis-parallel
packing can be normalized by pushing items left and then down until each is
blocked, which lands every corner on such a sum, so restricting the search
to these positions loses nothing.  Every search here, the greedy too,
scans its positions with _feasible_positions, in lex order (x, then y).
Within a column the scan jumps past the tallest box in the way.  A column
that the scan finds wholly blocked is skipped together with every later
column left of the smallest right edge of its boxes: each of those boxes
still overlaps the new box's x range there, so it blocks the same ys (the
skip of the bottom-left packers, Chazelle 1983).  The positions come out
as in the plain scan, so every search visits the same positions in the
same order.  The profit branch and bound alone still scans every column:
perfbench's deadline test needs it to stay slow on one input.

Both exact searches run on an integer lattice: every side times a common
multiple d of the denominators, with each coordinate x turned back into
Fraction(x, d) for a layout that is found.  The profit solver takes the
least common multiple of its call's denominators.  The region memo
(UnitBinMemo) holds one lattice per item set and region, built once per
solve for the unit bin, or once per exact_pack_single_region call, and a
memo miss tests the area bound, then extends a smaller layout or orders
the items and searches on it, all with no Fraction arithmetic.
Multiplying by a positive constant keeps every sum and comparison as it
was, so the search is as exact as over Fractions, visits positions in the
same order and returns the same first solution on any lattice that holds
the values; a subset's own lattice divides its item set's.  A placed box
is the tuple (left, bottom, right, top).

The profit solver is branch and bound: items in non-increasing area order,
include (at each feasible normal position, x before y) or exclude; the
answer is the first leaf of maximum profit.  Profits are ints too, scaled
by the least common multiple of their denominators, and an item's volume
is w * h on the lattice.  The upper bound at item i is the profit achieved
plus the largest profit of a subset of the items from i on whose volume
fits the free area (a subset-sum bound, the area relaxation of the
two-dimensional knapsack), read by bisection from that suffix's Pareto
frontier of (volume, profit), computed once per solve.  It is never looser
than the ratio bound min(remaining profit, best ratio * free area), and
any valid bound leaves the first leaf of maximum profit unchanged.
Before the search, the whole set is handed to the region packer below,
whose area bound turns away a set too large.  Its first layout, when
there is one, is the search's first leaf with every item included, which
is then the answer: both place the items in the same order at the same
normal positions, and the two differ only in which identical items they
keep in lex order, which a first layout does anyway (swapping two
same-shape items that are out of order gives an earlier layout).  The
layout places the items in search order, so the answer lists them in that
order with no Fraction sort.  max_area_pack, whose profits are the item
areas, runs this probe on the lattice of its call: the items that fit the
region alone are found on ints, the profit of a probe that fits is one
sum of int areas over d^2, and the profit records are built only for the
branch and bound.  At
desk scale this is exact; beyond exact_limit a greedy fallback runs and
the result is kept only when it provably meets the (1 - eps) * OPT - eps
contract.  The greedy (_best_effort) places each item, in order of profit
per area, at its first position among the corners of the boxes already
placed; it runs on the lattice of its call too and builds Fractions only
for the items it places.

The region packer first tries to refute a set, with two of the packing
class conditions of Fekete & Schepers (2004).  It cuts out every column,
an item that no other item fits above or below (one of full region
height, say), and every row, the same across.  Every other item sits
wholly beside a column, so the set fits exactly when the column fits the
region and the rest fits the region narrowed by its width.  A column that
does not fit refutes the set.  What is left is refuted by a clique: take
an item and every item at least as high whose height added to its own
passes the region's height.  No two of these can sit one above the
other, so they share a y value, and their widths must add up to at most
the region's width; likewise transposed.  This covers an item too large
for the region, two items that fit neither side by side nor stacked, and
the stacks of items wider or higher than half the region.  While the
first item of a set that survives is a column or a row, it goes to the
corner of the region left, which narrows past it.  The first layout is
the lex-least (_extended), a column fits at the corner when the set fits
(the items left of it slide past it), and no other item meets its x
range, so the rest lies as its own first layout; a row likewise, upward.
Once the search has backtracked, it checks forward: after each placement
every later item shape must keep a feasible normal position, or the
placement is dropped.  A shape's first feasible position only moves later
as boxes are added, so each shape carries its first spot down the
recursion and its scan resumes there.

While two or more items are left, a placement that the forward check
accepts must also pass a wasted-space check (Korf 2003; Huang & Korf
2013).  The free area is cut into horizontal strips at every placed box's
bottom and top edge, and each maximal free run of a strip is a gap.  A
later box meets a strip only inside one gap at least as wide as the box.
Walking the gaps from the narrowest, each takes what is left of the area
of the later boxes no wider than it; gap area left uncovered is lost.
When more is lost than the slack, the region's area less the area of all
the items, the placement is dropped.  The same pass runs on vertical
strips with heights when the horizontal one did not prune.  The slack is
one int on the lattice.  The forward check and the waste check only
remove subtrees without a solution, so the first layout is unchanged.

Every exact region search goes through the memo: exact_pack_single_region
with a memo of its own, and the oracle and the constant-OPT branch, which
grow each part one item at a time, with one unit-bin memo per solve.  The
memo is keyed by int masks: bit k stands for the k-th item in search
order, so a key's last item is its highest bit and the set less it is the
key with that bit cleared.  A miss tests the area bound (the lattice
areas of the set bits) and the exact limit (the count of set bits), then
settles the set less its last item first, down to the empty set, key 0,
that every memo holds.  A set that holds a refuted set is refuted.
Otherwise the last item goes to its first feasible position among the
corners of the smaller set's boxes (0, right edges, tops), which gives the
set's own first layout (_extended says why), or else the refutations and
the search run.  The memo keeps lattice boxes in search order, and the ids
they belong to are the key's bits; unit_bin_layout builds a Fraction
BinLayout for each call, one Fraction per distinct coordinate, and
canonical_partitions keeps one key per part and only asks whether a part
fits.  The oracle also takes its item order (order) and its lower bound's
sides from its memo.
"""

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction

from .errors import InstanceTooLarge
from .geometry import ONE, ZERO, BinLayout, Placement, exact_sum, lattice, scalar, scaled


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


def _lattice(items, a, b):
    """(d, a * d, b * d, [(w * d, h * d) per item]): the region and the item
    sides on the integer lattice of their common denominator d."""
    d = lattice(items, a, b)
    sides = [(scaled(it.width, d), scaled(it.height, d)) for it in items]
    return d, scaled(a, d), scaled(b, d), sides


def _axis_positions(lengths, limit):
    """Sorted subset sums below limit; the complete candidate coordinate set."""
    sums = {0}
    for w in sorted(lengths):
        sums |= {s + w for s in sums if s + w < limit}
    return sorted(sums)


def _feasible_positions(width, height, xs, ys, placed, a, b, floor=None, skip=True):
    """Yield normal positions (lex order) where a width x height box fits.

    placed is a list of (left, bottom, right, top) boxes; all numbers are
    ints on one lattice.  floor, when given, restricts output to positions
    strictly beyond it in lex order (symmetry breaking for identical items).
    Per column the boxes that overlap [x, x + width) are filtered once,
    which is valid because every caller restores placed (append, recurse,
    pop) before it resumes the generator.  Within a column the scan jumps
    past the tallest conflict, which skips every y candidate that provably
    also conflicts.  A column whose scan starts at the bottom and yields
    nothing is wholly blocked, and so is every column up to the smallest
    right edge r of its boxes: for x < x' < r each of those boxes still
    overlaps [x', x' + width), so it still blocks the same ys.  The scan
    jumps to the first x at or past r.  The floor column starts above the
    floor, so it never jumps.  With skip=False every column is scanned;
    the yields are the same.
    """
    y_end = bisect_right(ys, b - height)  # ys[:y_end] keep the box below b
    if y_end == 0:
        return
    x_end = bisect_right(xs, a - width)  # xs[:x_end] keep the box left of a
    xi = 0 if floor is None else bisect_left(xs, floor[0])
    while xi < x_end:
        x = xs[xi]
        right = x + width
        yi = 0
        if floor is not None and x == floor[0]:
            yi = bisect_right(ys, floor[1], 0, y_end)
        blocked = skip and yi == 0
        column = [(bottom, top) for left, bottom, r, top in placed if left < right and x < r]
        while yi < y_end:
            y = ys[yi]
            up = y + height
            jump = None
            for bottom, top in column:
                if y < top and bottom < up and (jump is None or top > jump):
                    jump = top
            if jump is None:
                yield (x, y)
                blocked = False
                yi += 1
            else:
                yi = bisect_left(ys, jump, yi + 1)
        xi += 1
        if blocked and xi < x_end:
            edge = min([r for left, _, r, _ in placed if left < right and x < r])
            xi = bisect_left(xs, edge, xi)


def _order_key(pi):
    return (-pi.item.volume, pi.item.id)


def _suffix_frontiers(volumes, profits, cap):
    """frontiers[i] = (vols, gains): the Pareto frontier of (volume, profit)
    over the subsets of items i.. whose volume is at most cap, both lists
    strictly increasing, so that gains[bisect_right(vols, v) - 1] is the
    largest profit of such a subset within volume v."""
    vols, gains = [0], [0]
    frontiers = [(vols, gains)]
    for v, p in zip(reversed(volumes), reversed(profits)):
        points = list(zip(vols, gains))
        points += [(fv + v, fp + p) for fv, fp in points if fv + v <= cap]
        # by volume, the richest first: a point stays only when it is
        # richer than every point of no larger volume
        vols, gains = [], []
        for fv, fp in sorted(points, key=lambda t: (t[0], -t[1])):
            if not gains or fp > gains[-1]:
                vols.append(fv)
                gains.append(fp)
        frontiers.append((vols, gains))
    frontiers.reverse()
    return frontiers


def _solve_exact(pitems, a, b):
    """(profit, selected items, placements) of the first leaf of maximum
    profit in the include-before-exclude search."""
    order = sorted(pitems, key=_order_key)
    d, a_d, b_d, sides = _lattice([pi.item for pi in order], a, b)
    xs = _axis_positions([w for w, _ in sides], a_d)
    ys = _axis_positions([h for _, h in sides], b_d)
    # profits on ints too: scaled by the common denominator q
    q = math.lcm(*[pi.profit.denominator for pi in order])
    profits = [pi.profit.numerator * (q // pi.profit.denominator) for pi in order]
    volumes = [w * h for w, h in sides]
    area = a_d * b_d
    frontiers = _suffix_frontiers(volumes, profits, area)
    best = -1
    best_sel, best_pl = [], []
    placed = []  # boxes on the lattice
    chosen = []  # the item of each box

    # previous item same shape and profit: decisions can be canonicalized
    twins = [i > 0 and (sides[i - 1], profits[i - 1]) == (sides[i], profits[i])
             for i in range(len(order))]

    def rec(i, achieved, used, last_excluded, last_pos):
        nonlocal best, best_sel, best_pl
        if i == len(order):
            if achieved > best:
                best = achieved
                best_sel = list(chosen)
                best_pl = [Placement(it.id, Fraction(x, d), Fraction(y, d))
                           for it, (x, y, _, _) in zip(chosen, placed)]
            return
        free = area - used
        vols, gains = frontiers[i]
        bound = achieved + gains[bisect_right(vols, free) - 1]
        if bound <= best:
            return
        it = order[i].item
        w, h = sides[i]
        same = twins[i]
        if not (same and last_excluded):
            floor = last_pos if same else None
            if volumes[i] <= free:
                # the plain scan: perfbench's deadline test needs this search
                # to run for seconds on one input (shrink n=9 ell=2 seed=4),
                # and the column skip brings that to about 0.3 s, its deadline
                for x, y in _feasible_positions(w, h, xs, ys, placed, a_d, b_d, floor,
                                                skip=False):
                    if bound <= best:
                        break
                    placed.append((x, y, x + w, y + h))
                    chosen.append(it)
                    rec(i + 1, achieved + profits[i], used + volumes[i], False, (x, y))
                    chosen.pop()
                    placed.pop()
        rec(i + 1, achieved, used, True, None)

    rec(0, 0, 0, False, None)
    return Fraction(best, q), best_sel, best_pl


def _best_effort(pitems, a, b):
    """(profit, [(item, x, y)]): each item in order of profit per area, at
    its first position (lex order) among the corners of the boxes placed so
    far, or left out.  Runs on the lattice of its call, like _solve_exact;
    Fractions are built only for the items it places."""
    order = sorted(pitems, key=lambda pi: (-(pi.profit / pi.item.volume), -pi.profit, pi.item.id))
    d, a_d, b_d, sides = _lattice([pi.item for pi in order], a, b)
    placed = []  # boxes on the lattice
    chosen = []  # (item, x, y)
    achieved = ZERO
    for pi, (w, h) in zip(order, sides):
        xs = sorted({0} | {right for _, _, right, _ in placed})
        ys = sorted({0} | {top for _, _, _, top in placed})
        spot = next(_feasible_positions(w, h, xs, ys, placed, a_d, b_d), None)
        if spot is not None:
            x, y = spot
            placed.append((x, y, x + w, y + h))
            chosen.append((pi.item, Fraction(x, d), Fraction(y, d)))
            achieved += pi.profit
    return achieved, chosen


def _checked(a, b, eps):
    """(a, b, eps) as Fractions, for a region in (0, 1] x (0, 1] and a
    positive eps."""
    a, b = scalar(a), scalar(b)
    eps = scalar(eps)
    # 0 < q <= 1 on numerator and denominator; a denominator is positive
    if not (0 < a.numerator <= a.denominator and 0 < b.numerator <= b.denominator):
        raise ValueError(f"region {a} x {b} outside (0,1] x (0,1]")
    if eps.numerator <= 0:
        raise ValueError("eps must be positive")
    return a, b, eps


def _fit_all(items, a, b, exact_limit):
    """(items in search order, layout) when every item fits region (a, b)
    together, else None: the first all-included leaf of the search, when
    one exists."""
    layout = exact_pack_single_region(items, a, b, exact_limit)
    if layout is None:
        return None
    # the layout places the items in search order, _order_key's
    by_id = {it.id: it for it in items}
    return [by_id[p.item_id] for p in layout.placements], layout


def _exact_result(usable, a, b):
    profit, selected, placements = _solve_exact(usable, a, b)
    return KnapsackResult(selected, BinLayout(a, b, placements), profit, True)


def max_profit_pack(pitems, a, b, eps, exact_limit=10) -> KnapsackResult:
    a, b, eps = _checked(a, b, eps)
    usable = [pi for pi in pitems if pi.item.width <= a and pi.item.height <= b]
    if len(pitems) <= exact_limit:
        found = _fit_all([pi.item for pi in usable], a, b, exact_limit)
        if found is not None:
            return KnapsackResult(*found, exact_sum([pi.profit for pi in usable]), True)
        return _exact_result(usable, a, b)
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
    """max_profit_pack with each item's area as its profit.  Within the
    exact limit, the fit-all probe runs on the lattice of the call: the
    items that fit the region alone are found on ints, and the profit of
    a probe that fits is one sum of int areas.  ProfitItems are built only
    for the branch and bound, or past the exact limit."""
    items = list(items)
    if len(items) > exact_limit:
        return max_profit_pack([ProfitItem(it, it.volume) for it in items], a, b, eps,
                               exact_limit)
    a, b, eps = _checked(a, b, eps)
    d = lattice(items, a, b)
    a_d, b_d = scaled(a, d), scaled(b, d)
    sides = [(scaled(it.width, d), scaled(it.height, d)) for it in items]
    fitting = [w <= a_d and h <= b_d for w, h in sides]
    usable = [it for it, fits in zip(items, fitting) if fits]
    found = _fit_all(usable, a, b, exact_limit)
    if found is not None:
        area = sum([w * h for (w, h), fits in zip(sides, fitting) if fits])
        return KnapsackResult(*found, Fraction(area, d * d), True)
    return _exact_result([ProfitItem(it, it.volume) for it in usable], a, b)


def _without_full_sides(sides, a, b):
    """(sides, a, b) with each column and each row cut out, until none is
    left, or None when a box cut out does not fit the region left.

    A box is a column when no other box fits above or below it (_past), as
    a box of full height is.  Every other box then sits wholly left or
    right of it, so sliding those on its left past it shows that the set
    fits (a, b) exactly when the box fits and the rest fits (a - w, b),
    with the box at x = 0.  A row is the same across: the rest fits
    (a, b - h), with the box at y = 0."""
    sides = list(sides)
    while True:
        for k, (w, h) in enumerate(sides):
            step = _past(sides, k, a, b)
            if step:
                break
        else:
            return sides, a, b
        if w > a or h > b:
            return None
        del sides[k]
        a, b = a - step[0], b - step[1]


def _past(sides, k, a, b):
    """How far region (a, b) narrows past box k, (across, up): (w, 0) when
    k is a column, h + (the least other height) > b, and (0, h) when it is
    a row, w + (the least other width) > a; else None."""
    w, h = sides[k]
    rest = sides[:k] + sides[k + 1:]
    if h + min([y for _, y in rest], default=0) > b:
        return w, 0
    if w + min([x for x, _ in rest], default=0) > a:
        return 0, h


def _clique(sides, a, b):
    """True when some box k and the boxes j with h_j >= h_k and
    h_j + h_k > b are wider together than a.  No two of these boxes can sit
    one above the other, so their y ranges meet pairwise and thus share a
    y value, and the boxes lie side by side along it."""
    for k, (w, h) in enumerate(sides):
        if w + sum(x for j, (x, y) in enumerate(sides) if j != k and y >= h and y + h > b) > a:
            return True
    return False


def _refuted(sides, a, b):
    """True when no layout of these (width, height) boxes in region (a, b)
    can exist: a box cut out by _without_full_sides does not fit, or a
    clique of what is left is too wide (_clique) or, transposed, too high.
    A box too large for the region is cut out and refuted; two boxes with
    w_i + w_j > a and h_i + h_j > b, and the boxes higher than b/2 (wider
    than a/2), are cliques."""
    cut = _without_full_sides(sides, a, b)
    if cut is None:
        return True
    sides, a, b = cut
    return _clique(sides, a, b) or _clique([(h, w) for w, h in sides], b, a)


def _first_spots(shapes, prior, box, xs, ys, placed, a, b):
    """{shape: its first feasible normal position}, given placed (which
    ends with box), or None when some shape has none left.

    prior maps each shape to its first position before box was placed, or
    is None when unknown.  Placing a box only removes positions, so a prior
    spot clear of box is still first, and otherwise the scan resumes just
    past it."""
    left, bottom, right, top = box
    spots = {}
    for w, h in shapes:
        spot = prior[w, h] if prior else None
        if spot is None or (spot[0] < right and left < spot[0] + w
                            and spot[1] < top and bottom < spot[1] + h):
            spot = next(_feasible_positions(w, h, xs, ys, placed, a, b, spot), None)
            if spot is None:
                return None
        spots[w, h] = spot
    return spots


def _wasted(placed, a, b, later, slack):
    """True when more than slack of the free area of region (a, b) is out
    of reach of the later boxes, given as (width, area) sorted by width:
    the horizontal pass of the waste check in the module docstring, with
    the placed boxes as (left, bottom, right, top)."""
    boxes = sorted(placed)  # by left edge
    cuts = sorted({0, b, *(y for _, bottom, _, top in boxes for y in (bottom, top))})
    gaps = []
    for y0, y1 in zip(cuts, cuts[1:]):
        x = 0
        for left, bottom, right, top in boxes:
            if bottom < y1 and y0 < top:
                if left > x:
                    gaps.append((left - x, (left - x) * (y1 - y0)))
                x = right
        if a > x:
            gaps.append((a - x, (a - x) * (y1 - y0)))
    gaps.sort()
    waste = carried = j = 0
    for width, area in gaps:
        while j < len(later) and later[j][0] <= width:
            carried += later[j][1]
            j += 1
        if carried >= area:
            carried -= area
        else:
            waste += area - carried
            if waste > slack:
                return True
            carried = 0
    return False


def exact_pack_single_region(items, a, b, exact_limit=10):
    """A validating layout of every item in region (a, b), or None.

    Complete search over normal positions with identical-item symmetry
    breaking; deterministic first solution.  The items go through a fresh
    UnitBinMemo of this call's items and region, so the lattice, the area
    bound, the exact limit, the search order and the layout are the memo's.
    """
    items = list(items)
    return unit_bin_layout(items, UnitBinMemo(items, a, b), exact_limit)


def _search_lattice(sides, a, b):
    """The first layout of the (width, height) boxes, placed in the given
    order, in region (a, b), all ints on one lattice whose area bound
    holds: the boxes as (left, bottom, right, top), or None.

    A set that _refuted refutes, by a column or row cut or by a clique,
    gets None without a search.  Each leading column or row (_past) goes
    to the corner of the region left, which narrows past it, and the rest
    is searched there, under its own area bound.  Once the search has
    backtracked, a placement that leaves some later box shape no feasible
    position is dropped (forward checking), and so is one that wastes more
    free area than the boxes leave spare (_wasted).  Both prune only
    subtrees without a solution, so the first solution is unchanged.
    """
    if _refuted(sides, a, b):
        return None
    # _refuted's cut took out these same boxes first, in the same regions,
    # and each fit
    peeled, x0, y0 = [], 0, 0  # the corner of the region left
    while sides and (step := _past(sides, 0, a, b)):
        (w, h), sides = sides[0], sides[1:]
        peeled.append((x0, y0, x0 + w, y0 + h))
        x0, y0, a, b = x0 + step[0], y0 + step[1], a - step[0], b - step[1]
    slack = a * b - sum(w * h for w, h in sides)
    if slack < 0:
        return None
    xs = _axis_positions([w for w, _ in sides], a)
    ys = _axis_positions([h for _, h in sides], b)
    placed = []  # placed[i] is the box of sides[i]

    def wasted(i):
        # across strips, then (transposed) down columns; with one box left
        # the forward check has already found it a spot
        later = sides[i + 1:]
        return len(later) > 1 and (
            _wasted(placed, a, b, sorted((w, w * h) for w, h in later), slack)
            or _wasted([(y, x, top, r) for x, y, r, top in placed], b, a,
                       sorted((h, w * h) for w, h in later), slack))

    backtracked = False

    def rec(i, last_pos, spots):
        nonlocal backtracked
        if i == len(sides):
            return True
        w, h = sides[i]
        floor = last_pos if i > 0 and sides[i - 1] == sides[i] else None
        for x, y in _feasible_positions(w, h, xs, ys, placed, a, b, floor):
            box = (x, y, x + w, y + h)
            placed.append(box)
            if not backtracked:
                if rec(i + 1, (x, y), None):
                    return True
                backtracked = True
            else:
                # the distinct shapes of the later boxes, largest (likeliest
                # to be shut out) first
                ahead = dict.fromkeys(sides[i + 1:])
                after = _first_spots(ahead, spots, box, xs, ys, placed, a, b)
                if after is not None and not wasted(i) and rec(i + 1, (x, y), after):
                    return True
            placed.pop()
        return False

    if not rec(0, None, None):
        return None
    return peeled + [(x + x0, y + y0, r + x0, t + y0) for x, y, r, t in placed]


class UnitBinMemo(dict):
    """{key: None when the key's item set does not fit the region, else
    its boxes} for one item set and region (a, b), the unit bin unless
    given.  A key is an int: bit k stands for order[k], the k-th item id in
    search order, and key(ids) builds the key of a set of ids.  The memo
    also carries their lattice: d, the least common multiple of the
    denominators of every side and of a and b, the region (a, b) as
    Fractions, a and b as the ints a * d and b * d, sides, the (width * d,
    height * d) ints of each item id, and order, the ids in search order,
    (-w * h, id); then bit, each id's 1 << k, and shapes and areas, the
    sides and their products w * h in that order.  boxes[j] is the lattice
    box (left, bottom, right, top) of the set's j-th item in search order,
    its j-th lowest set bit, and every stored layout is its set's first
    layout.  A subset's own lattice divides d, and scaling its boxes and
    the region by one positive int keeps every sum, comparison and visit
    order, so the search on this lattice finds the subset's first layout.
    The empty set, key 0, is stored from the start, with the empty layout,
    so every miss has a prefix to extend."""

    def __init__(self, items, a=ONE, b=ONE):
        super().__init__({0: ()})
        a, b = self.region = scalar(a), scalar(b)
        self.d = lattice(items, a, b)
        self.a, self.b = scaled(a, self.d), scaled(b, self.d)
        sides = self.sides = {it.id: (scaled(it.width, self.d), scaled(it.height, self.d))
                              for it in items}
        ranks = sorted([(-w * h, i) for i, (w, h) in sides.items()])
        self.order = [i for _, i in ranks]
        self.bit = {i: 1 << k for k, i in enumerate(self.order)}
        self.shapes = [sides[i] for i in self.order]
        self.areas = [-area for area, _ in ranks]

    def key(self, ids):
        """The memo key of the set of item ids ids."""
        key, bit = 0, self.bit
        for i in ids:
            key |= bit[i]
        return key


def _members(key, values):
    """values[k] for each set bit k of key, lowest first: the key's items
    in search order when values follows the memo's order."""
    out = []
    while key:
        low = key & -key
        out.append(values[low.bit_length() - 1])
        key ^= low
    return out


def _extended(boxes, base, last, cache):
    """The memo value of the set base, a key of cache, plus the item of
    bit last, where boxes is base's first layout and last comes after all
    of base's items in search order: last at its first feasible position
    among the corners of base's boxes (0 and right edges across, 0 and
    tops up), or None when it finds none.

    Why the result is the set's first layout.  Compacting any layout down
    and left moves every box no later in lex order and lands each box on
    its set's own subset-sum candidates; sorting each run of twins back
    into floor order then only moves the sequence earlier.  So base, the
    first layout L of the smaller set, admits no such move, and each corner
    of L is a sum of the sides of distinct boxes, which is also a candidate
    of the set.  The same argument shows that the set's first layout starts
    with L whenever L leaves the last item a spot: the smaller part of any
    layout of the set is no earlier than its compacted form, which is no
    earlier than L.  The item's first feasible position there is a corner
    of L, since sliding it down and left lands it on one no later.  Under a
    twin's floor too: were that corner below the floor, the twin could move
    to it, which would give a layout of the smaller set earlier than L."""
    shapes = cache.shapes
    w, h = shapes[last]
    twin = base and shapes[base.bit_length() - 1] == (w, h)
    floor = boxes[-1][:2] if twin else None
    xs = sorted({0, *(right for _, _, right, _ in boxes)})
    ys = sorted({0, *(top for _, _, _, top in boxes)})
    spot = next(_feasible_positions(w, h, xs, ys, boxes, cache.a, cache.b, floor), None)
    if spot is None:
        return None
    x, y = spot
    return boxes + ((x, y, x + w, y + h),)


def _unit_bin_entry(key, cache, limit):
    """The memo value of key in cache, a UnitBinMemo.  A miss recurses on
    the set less key's last item, its highest bit, as the module docstring
    says."""
    if key in cache:
        return cache[key]
    entry = None
    if sum(_members(key, cache.areas)) <= cache.a * cache.b:
        if key.bit_count() > limit:
            raise InstanceTooLarge(f"{key.bit_count()} items exceed the exact limit {limit}")
        last = key.bit_length() - 1
        base = key ^ (1 << last)
        boxes = _unit_bin_entry(base, cache, limit)
        if boxes is not None:
            entry = _extended(boxes, base, last, cache)
            if entry is None:
                placed = _search_lattice(_members(key, cache.shapes), cache.a, cache.b)
                if placed is not None:
                    entry = tuple(placed)
    cache[key] = entry
    return entry


def unit_bin_layout(items, cache, limit):
    """exact_pack_single_region's layout of items in the region of cache, a
    UnitBinMemo holding the items, or None when they do not fit; memoized
    by the key of the item ids (_unit_bin_entry).  The memo holds lattice
    boxes; each call builds the Fraction layout anew, with one Fraction
    per distinct coordinate.  Its placements are in search order,
    cache.order's."""
    key = cache.key(it.id for it in items)
    boxes = _unit_bin_entry(key, cache, limit)
    if boxes is None:
        return None
    d = cache.d
    exact = {v: Fraction(v, d) for box in boxes for v in box[:2]}
    return BinLayout(*cache.region, [Placement(i, exact[x], exact[y])
                                     for i, (x, y, _, _) in zip(_members(key, cache.order), boxes)])


def canonical_partitions(items, bins, cache, limit, labeled=0):
    """Yield each split of items into bins parts that each fit a unit bin.

    Items are assigned in the given order, each to the parts in index
    order, so splits come out in lexicographic order of that assignment.
    The first `labeled` parts are distinct bins; the rest are
    interchangeable, so an empty one opens only after the one before it
    holds an item.  A part grows only while the unit-bin memo says it
    fits, so no split extends a part that does not fit; cache is the
    UnitBinMemo of an item set that holds items.
    """
    parts = [[] for _ in range(bins)]
    keys = [0] * bins  # keys[j] is the memo key of parts[j]
    bits = [cache.bit[it.id] for it in items]

    def rec(i):
        if i == len(items):
            yield tuple(tuple(p) for p in parts)
            return
        it, bit = items[i], bits[i]
        opened = False
        for j, part in enumerate(parts):
            if j >= labeled and not part:
                if opened:
                    break  # every later unlabeled part is empty as well
                opened = True
            key = keys[j]
            grown = key | bit
            if _unit_bin_entry(grown, cache, limit) is not None:
                part.append(it)
                keys[j] = grown
                yield from rec(i + 1)
                part.pop()
                keys[j] = key

    yield from rec(0)
