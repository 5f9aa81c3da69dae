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
"""

from itertools import combinations

from .classify import h_max, vol, w_max
from .errors import ConditionViolated, PackingStuck
from .geometry import HALF, ONE, ZERO, BinLayout, scalar, transpose_layout, validate_bin


def steinberg_condition(items, a, b) -> bool:
    """Exact check of the three packability inequalities for region (a, b)."""
    a, b = scalar(a), scalar(b)
    items = list(items)
    if not items:
        return True
    if a <= 0 or b <= 0:
        return False
    wm, hm = w_max(items), h_max(items)
    if wm > a or hm > b:
        return False
    deficiency = max(2 * wm - a, ZERO) * max(2 * hm - b, ZERO)
    return 2 * vol(items) <= a * b - deficiency


def steinberg_pack(items, a=1, b=1) -> BinLayout:
    """Pack items into region (a, b); the area condition must hold on entry."""
    a, b = scalar(a), scalar(b)
    items = list(items)
    if not steinberg_condition(items, a, b):
        raise ConditionViolated(f"area condition fails for region {a} x {b}")
    return _pack(items, a, b)


def _pack(items, u, v):
    """Layout of region (u, v), origin at its lower-left corner."""
    if not items:
        return BinLayout(u, v)
    if not steinberg_condition(items, u, v):
        # parents establish this for every child they spawn
        raise PackingStuck(f"area condition lost on {u} x {v} sub-region")
    if len(items) == 1:
        return _lined(items, u, v)
    if any(2 * r.width > u for r in items):
        return _pack_wide_anchored(items, u, v)
    if any(2 * r.height > v for r in items):
        return transpose_layout(_pack([r.transposed() for r in items], v, u))
    return _pack_all_small(items, u, v)


def _pack_wide_anchored(items, u, v):
    wide = sorted(
        (r for r in items if 2 * r.width > u),
        key=lambda r: (-r.width, -r.height, r.id),
    )
    out = BinLayout(u, v)
    h0 = out.column(wide, ZERO, ZERO)  # < v: the stack's area alone exceeds u*h0/2
    rest = [r for r in items if 2 * r.width <= u]
    hangers = sorted(
        (r for r in rest if r.height > v - h0),
        key=lambda r: (-r.height, -r.width, r.id),
    )
    c = ZERO
    for t in hangers:
        c += t.width
        out.add(t.id, u - c, v - t.height)
    if 2 * c > u:
        # impossible: each hanger eats area beyond the strip budget
        raise PackingStuck("hanger run exceeds half the region width")
    out.merge(_pack([r for r in rest if r.height <= v - h0], u - c, v - h0), ZERO, h0)
    return out


def _pack_all_small(items, u, v):
    """Portfolio of cuts for regions where no item passes half size either
    way: the first layout that validates and holds every item once."""
    by_id = {it.id: it for it in items}
    for branch in _small_branches(items, u, v, vol(items)):
        try:
            layout = branch()
        except PackingStuck:
            continue
        if validate_bin(layout, by_id).ok and sorted(layout.item_ids()) == sorted(by_id):
            return layout
    raise PackingStuck(f"portfolio exhausted on {len(items)} items in {u} x {v}")


def _small_branches(items, u, v, total):
    """The portfolio, in order: one item as a shelf below or at the left, a
    vertical then a horizontal split by size, two items in a row below or
    in a column at the left.  Each is one _cut."""
    def without(*picked):
        return [r for r in items if r not in picked]

    tall = max(items, key=lambda r: (r.height, r.width, -r.id))
    if 2 * total <= u * (v - tall.height):
        yield lambda: _cut(_lined([tall], u, v), without(tall), u, v, ZERO, tall.height)
    broad = max(items, key=lambda r: (r.width, r.height, -r.id))
    if 2 * total <= v * (u - broad.width):
        yield lambda: _cut(_lined([broad], u, v), without(broad), u, v, broad.width, ZERO)

    by_w = sorted(items, key=lambda r: (-r.width, -r.height, r.id))
    by_h = sorted(items, key=lambda r: (-r.height, -r.width, r.id))
    for m, cut in _split_cuts(by_w, u, v, total, lambda r: r.width):
        yield lambda m=m, cut=cut: _cut(_pack(by_w[:m], cut, v), by_w[m:], u, v, cut, ZERO)
    for m, cut in _split_cuts(by_h, v, u, total, lambda r: r.height):
        yield lambda m=m, cut=cut: _cut(_pack(by_h[:m], u, cut), by_h[m:], u, v, ZERO, cut)

    for a, c in combinations(by_w, 2):
        shelf = max(a.height, c.height)
        if a.width + c.width <= u and 2 * (total - a.volume - c.volume) <= u * (v - shelf):
            yield lambda a=a, c=c, shelf=shelf: _cut(_lined([a, c], u, v), without(a, c),
                                                     u, v, ZERO, shelf)
    for a, c in combinations(by_h, 2):
        shelf = max(a.width, c.width)
        if a.height + c.height <= v and 2 * (total - a.volume - c.volume) <= v * (u - shelf):
            yield lambda a=a, c=c, shelf=shelf: _cut(_lined([a, c], u, v, up=True),
                                                     without(a, c), u, v, shelf, ZERO)


def _split_cuts(ordered, length, side, total, measure):
    """(m, cut) for each m where ordered[:m] fits before a cut across the
    region's `length` and ordered[m:] beyond it, both by the area
    condition; cut is the least such position.  `ordered` is sorted by
    measure, largest first, so ordered[m] is the largest past the cut."""
    prefix = ZERO
    for m in range(1, len(ordered)):
        prefix += ordered[m - 1].volume
        lo = max(measure(ordered[0]), 2 * prefix / side)
        hi = min(length - measure(ordered[m]), (length * side - 2 * (total - prefix)) / side)
        if lo <= hi:
            yield m, lo


def _lined(items, u, v, up=False):
    """Region (u, v) holding items from the origin in a row (a column, with up)."""
    layout = BinLayout(u, v)
    (layout.column if up else layout.row)(items, ZERO, ZERO)
    return layout


def _cut(placed, rest, u, v, dx, dy):
    """One guillotine cut of region (u, v) at x = dx or y = dy: the layout
    `placed` before it, `rest` packed into the region beyond it."""
    out = BinLayout(u, v, list(placed.placements))
    out.merge(_pack(rest, u - dx, v - dy), dx, dy)
    return out


def pack_no_wide_half_area(items) -> BinLayout:
    """Unit-bin packer for: Vol <= 1/2, nothing wider than 1/2 except at most
    one item that is big (wider and taller than 1/2)."""
    items = list(items)
    total = vol(items)
    if total > HALF:
        raise ConditionViolated(f"total area {total} exceeds 1/2")
    wides = [r for r in items if r.width > HALF]
    if any(r.height <= HALF for r in wides):
        raise ConditionViolated("a wide non-big item is present")
    if not wides:
        # area condition holds outright: no width deficiency is possible
        return steinberg_pack(items, 1, 1)
    # a one-item wide stack, as two bigs would pass area 1/2; area above 1/2
    # would be needed for the hangers to reach past 1 - w(big)
    return _pack_wide_anchored(items, ONE, ONE)


def pack_no_high_half_area(items) -> BinLayout:
    """Transposed companion: Vol <= 1/2, no item taller than 1/2 except at
    most one big."""
    return transpose_layout(pack_no_wide_half_area([r.transposed() for r in items]))
