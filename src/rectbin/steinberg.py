"""Constructive rectangle packing for regions satisfying the area condition.

A set T fits region (a, b) whenever

    w_max(T) <= a,  h_max(T) <= b,
    2 Vol(T) <= ab - (2 w_max - a)+ (2 h_max - b)+      (x+ means max(x, 0))

and steinberg_pack produces an explicit layout witnessing that.  The
construction recurses on sub-regions:

  * items wider than a/2 are stacked bottom-left by non-increasing width;
    leftover items too tall for the strip above the stack hang from the top
    edge, right to left; the rest recurses into the remaining top-left
    sub-region, whose area condition follows from the parent's.
  * regions with half-tall items and no half-wide ones run the transposed
    procedure.
  * regions where everything is at most half the region in both directions
    are handled by a portfolio of guillotine cuts, tried in order with
    backtracking.  Every step is one cut at x = dx or y = dy: some items go
    before the cut (one item as a shelf, two in a row or a column, or the
    largest m items packed recursively into their own strip) and the rest
    recurse into the region beyond it.  Each recursion re-checks the area
    condition of its sub-region exactly, and a cut is kept only if its
    layout validates and holds every item once.

pack_no_wide_half_area covers the companion guarantee: total area at most
1/2 and no item wider than 1/2 except possibly one that is also taller than
1/2.  The area condition can fail for such inputs, so the big item is
stacked bottom-left directly and the hanger argument absorbs the rest.
Both entry points refuse input outside their condition with
ConditionViolated.  Returned layouts are not validated here: callers
validate the packings they go into.

The three public functions run on the integer lattice of their call: each
item side and the region times d, the least common multiple of their
denominators, so sides are ints and areas are ints in units of 1/d^2.  The
recursion keeps every region side and coordinate in lattice units.  A split
cut at 2 * area / side that falls between lattice points stays an exact
Fraction of the lattice unit, and so do the sub-regions and placements
beyond it.  A layout goes back to the caller's units once, with one
Fraction per distinct coordinate, and a PackingStuck names its region in
the caller's units too.
"""

from fractions import Fraction
from itertools import combinations
from typing import NamedTuple

from .errors import ConditionViolated, PackingStuck
from .geometry import ONE, BinLayout, Placement, lattice, scalar, scaled, transpose_layout


class _Box(NamedTuple):
    """An item on the lattice of a call: its id and its sides as ints."""

    id: int
    width: int
    height: int

    @property
    def volume(self):
        return self.width * self.height

    def transposed(self):
        return _Box(self.id, self.height, self.width)


class _Stuck(PackingStuck):
    """PackingStuck on a sub-region in lattice units: its args are the
    message, with {} for each side of the region, and then the sides."""


def _boxes(items, d):
    return [_Box(it.id, scaled(it.width, d), scaled(it.height, d)) for it in items]


def _fits(boxes, a, b):
    """The three inequalities for boxes in region (a, b), on one lattice."""
    if not boxes:
        return True
    if a <= 0 or b <= 0:
        return False
    wm = max([r.width for r in boxes])
    hm = max([r.height for r in boxes])
    if wm > a or hm > b:
        return False
    deficiency = max(2 * wm - a, 0) * max(2 * hm - b, 0)
    return 2 * sum([r.width * r.height for r in boxes]) <= a * b - deficiency


def _layout(pack, boxes, a, b, d):
    """BinLayout (a, b) of pack(boxes, a * d, b * d), which places boxes
    on the lattice of spacing 1/d."""
    try:
        placed = pack(boxes, scaled(a, d), scaled(b, d))
    except _Stuck as exc:
        text, *region = exc.args
        raise PackingStuck(text.format(*[Fraction(side, d) for side in region])) from None
    exact = {v: Fraction(v, d) for _, x, y in placed for v in (x, y)}
    return BinLayout(a, b, [Placement(i, exact[x], exact[y]) for i, x, y in placed])


def steinberg_condition(items, a, b) -> bool:
    """Exact check of the three packability inequalities for region (a, b)."""
    a, b = scalar(a), scalar(b)
    items = list(items)
    d = lattice(items, a, b)
    return _fits(_boxes(items, d), scaled(a, d), scaled(b, d))


def steinberg_pack(items, a=1, b=1) -> BinLayout:
    """Pack items into region (a, b); the area condition must hold on entry."""
    a, b = scalar(a), scalar(b)
    items = list(items)
    d = lattice(items, a, b)
    boxes = _boxes(items, d)
    if not _fits(boxes, scaled(a, d), scaled(b, d)):
        raise ConditionViolated(f"area condition fails for region {a} x {b}")
    return _layout(_pack, boxes, a, b, d)


def _pack(items, u, v):
    """Layout of region (u, v), origin at its lower-left corner, as
    (id, x, y) per item."""
    if not items:
        return []
    if not _fits(items, u, v):
        # parents establish this for every child they spawn
        raise _Stuck("area condition lost on {} x {} sub-region", u, v)
    if len(items) == 1:
        return _lined(items)
    if any(2 * r.width > u for r in items):
        return _pack_wide_anchored(items, u, v)
    if any(2 * r.height > v for r in items):
        return [(i, y, x) for i, x, y in _pack([r.transposed() for r in items], v, u)]
    return _pack_all_small(items, u, v)


def _pack_wide_anchored(items, u, v):
    wide = sorted(
        (r for r in items if 2 * r.width > u),
        key=lambda r: (-r.width, -r.height, r.id),
    )
    out = _lined(wide, up=True)
    h0 = sum([r.height for r in wide])  # < v: the stack's area alone exceeds u*h0/2
    rest = [r for r in items if 2 * r.width <= u]
    hangers = sorted(
        (r for r in rest if r.height > v - h0),
        key=lambda r: (-r.height, -r.width, r.id),
    )
    c = 0
    for t in hangers:
        c += t.width
        out.append((t.id, u - c, v - t.height))
    if 2 * c > u:
        # impossible: each hanger eats area beyond the strip budget
        raise PackingStuck("hanger run exceeds half the region width")
    return out + _shifted(_pack([r for r in rest if r.height <= v - h0], u - c, v - h0), 0, h0)


def _pack_all_small(items, u, v):
    """Portfolio of cuts for regions where no item passes half size either
    way: the first layout that holds every item once, inside the region,
    with no two items overlapping."""
    by_id = {r.id: r for r in items}
    for branch in _small_branches(items, u, v, sum([r.volume for r in items])):
        try:
            layout = branch()
        except PackingStuck:
            continue
        if _holds(layout, by_id, u, v):
            return layout
    raise _Stuck(f"portfolio exhausted on {len(items)} items in {{}} x {{}}", u, v)


def _holds(layout, by_id, u, v):
    """True when layout places each item of by_id once, inside region
    (u, v), and no two share interior area (shared edges are fine)."""
    if sorted([i for i, _, _ in layout]) != sorted(by_id):
        return False
    boxes = []
    for i, x, y in layout:
        right, top = x + by_id[i].width, y + by_id[i].height
        if x < 0 or y < 0 or right > u or top > v:
            return False
        if any(left < right and x < r and bottom < top and y < t for left, bottom, r, t in boxes):
            return False
        boxes.append((x, y, right, top))
    return True


def _small_branches(items, u, v, total):
    """The portfolio, in order: one item as a shelf below or at the left, a
    vertical then a horizontal split by size, two items in a row below or
    in a column at the left.  Each is one _cut."""
    def without(*picked):
        return [r for r in items if r not in picked]

    tall = max(items, key=lambda r: (r.height, r.width, -r.id))
    if 2 * total <= u * (v - tall.height):
        yield lambda: _cut(_lined([tall]), without(tall), u, v, 0, tall.height)
    broad = max(items, key=lambda r: (r.width, r.height, -r.id))
    if 2 * total <= v * (u - broad.width):
        yield lambda: _cut(_lined([broad]), without(broad), u, v, broad.width, 0)

    by_w = sorted(items, key=lambda r: (-r.width, -r.height, r.id))
    by_h = sorted(items, key=lambda r: (-r.height, -r.width, r.id))
    for m, cut in _split_cuts(by_w, u, v, total, lambda r: r.width):
        yield lambda m=m, cut=cut: _cut(_pack(by_w[:m], cut, v), by_w[m:], u, v, cut, 0)
    for m, cut in _split_cuts(by_h, v, u, total, lambda r: r.height):
        yield lambda m=m, cut=cut: _cut(_pack(by_h[:m], u, cut), by_h[m:], u, v, 0, cut)

    for a, c in combinations(by_w, 2):
        shelf = max(a.height, c.height)
        if a.width + c.width <= u and 2 * (total - a.volume - c.volume) <= u * (v - shelf):
            yield lambda a=a, c=c, shelf=shelf: _cut(_lined([a, c]), without(a, c),
                                                     u, v, 0, shelf)
    for a, c in combinations(by_h, 2):
        shelf = max(a.width, c.width)
        if a.height + c.height <= v and 2 * (total - a.volume - c.volume) <= v * (u - shelf):
            yield lambda a=a, c=c, shelf=shelf: _cut(_lined([a, c], up=True),
                                                     without(a, c), u, v, shelf, 0)


def _split_cuts(ordered, length, side, total, measure):
    """(m, cut) for each m where ordered[:m] fits before a cut across the
    region's `length` and ordered[m:] beyond it, both by the area
    condition; cut is the least such position.  `ordered` is sorted by
    measure, largest first, so ordered[m] is the largest past the cut.
    The bounds are compared times side, so the cut is the one quotient:
    an int when side divides it, else an exact Fraction."""
    first = measure(ordered[0])
    prefix = 0
    for m in range(1, len(ordered)):
        prefix += ordered[m - 1].volume
        # lo = max(first, 2 prefix / side) and
        # hi = min(length - measure(ordered[m]), length - 2 (total - prefix) / side)
        lo = max(first * side, 2 * prefix)
        hi = min((length - measure(ordered[m])) * side, length * side - 2 * (total - prefix))
        if lo <= hi:
            yield m, lo // side if lo % side == 0 else Fraction(lo, side)


def _lined(items, up=False):
    """Items from the origin in a row (a column, with up), as (id, x, y)."""
    out, at = [], 0
    for r in items:
        out.append((r.id, 0, at) if up else (r.id, at, 0))
        at += r.height if up else r.width
    return out


def _shifted(placed, dx, dy):
    return [(i, x + dx, y + dy) for i, x, y in placed]


def _cut(placed, rest, u, v, dx, dy):
    """One guillotine cut of region (u, v) at x = dx or y = dy: the layout
    `placed` before it, `rest` packed into the region beyond it."""
    return placed + _shifted(_pack(rest, u - dx, v - dy), dx, dy)


def pack_no_wide_half_area(items) -> BinLayout:
    """Unit-bin packer for: Vol <= 1/2, nothing wider than 1/2 except at most
    one item that is big (wider and taller than 1/2)."""
    items = list(items)
    d = lattice(items)
    boxes = _boxes(items, d)
    total = sum([r.volume for r in boxes])
    if 2 * total > d * d:
        raise ConditionViolated(f"total area {Fraction(total, d * d)} exceeds 1/2")
    wides = [r for r in boxes if 2 * r.width > d]
    if any(2 * r.height <= d for r in wides):
        raise ConditionViolated("a wide non-big item is present")
    if not wides:
        # area condition holds outright: no width deficiency is possible
        return steinberg_pack(items, 1, 1)
    # a one-item wide stack, as two bigs would pass area 1/2; area above 1/2
    # would be needed for the hangers to reach past 1 - w(big)
    return _layout(_pack_wide_anchored, boxes, ONE, ONE, d)


def pack_no_high_half_area(items) -> BinLayout:
    """Transposed companion: Vol <= 1/2, no item taller than 1/2 except at
    most one big."""
    return transpose_layout(pack_no_wide_half_area([r.transposed() for r in items]))
