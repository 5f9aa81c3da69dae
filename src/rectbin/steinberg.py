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
    are handled by a small portfolio of splits (single shelf, guillotine cut
    with both orientations, a bottom pair plus shelf) with backtracking;
    every branch re-checks the area condition of its children exactly, and
    a split is kept only if its layout validates.

pack_no_wide_half_area covers the companion guarantee: total area at most
1/2 and no item wider than 1/2 except possibly one that is also taller than
1/2.  The area condition can fail for such inputs, so the big item is
stacked bottom-left directly and the hanger argument absorbs the rest.
Returned layouts are not validated here: callers validate the packings
they go into.
"""

from .classify import h_max, vol, w_max
from .errors import ConditionViolated, PackingStuck, PreconditionViolated
from .geometry import HALF, ZERO, BinLayout, Placement, scalar, transpose_layout, validate_bin


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
    return BinLayout(a, b, _pack(items, a, b))


def _pack(items, u, v):
    """Placements (origin at the region's lower-left) for region (u, v)."""
    if not items:
        return []
    if not steinberg_condition(items, u, v):
        # parents establish this for every child they spawn
        raise PackingStuck(f"area condition lost on {u} x {v} sub-region")
    if len(items) == 1:
        return [Placement(items[0].id, ZERO, ZERO)]
    if any(2 * r.width > u for r in items):
        return _pack_wide_anchored(items, u, v)
    if any(2 * r.height > v for r in items):
        flipped = BinLayout(v, u, _pack([r.transposed() for r in items], v, u))
        return transpose_layout(flipped).placements
    return _pack_all_small(items, u, v)


def _pack_wide_anchored(items, u, v):
    wide = sorted(
        (r for r in items if 2 * r.width > u),
        key=lambda r: (-r.width, -r.height, r.id),
    )
    out = []
    y = ZERO
    for r in wide:
        out.append(Placement(r.id, ZERO, y))
        y += r.height
    h0 = y  # < v: the stack's area alone exceeds u*h0/2
    rest = [r for r in items if 2 * r.width <= u]
    hangers = sorted(
        (r for r in rest if r.height > v - h0),
        key=lambda r: (-r.height, -r.width, r.id),
    )
    c = ZERO
    for t in hangers:
        c += t.width
        out.append(Placement(t.id, u - c, v - t.height))
    if 2 * c > u:
        # impossible: each hanger eats area beyond the strip budget
        raise PackingStuck("hanger run exceeds half the region width")
    inner = [r for r in rest if r.height <= v - h0]
    if inner:
        for p in _pack(inner, u - c, v - h0):
            out.append(Placement(p.item_id, p.x, p.y + h0))
    return out


def _pack_all_small(items, u, v):
    """Portfolio of splits for regions where no item passes half size either way."""
    total = vol(items)
    for branch in _small_branches(items, u, v, total):
        try:
            placed = branch()
        except PackingStuck:
            continue
        if _quick_ok(placed, items, u, v):
            return placed
    raise PackingStuck(f"portfolio exhausted on {len(items)} items in {u} x {v}")


def _quick_ok(placed, items, u, v):
    layout = BinLayout(u, v, list(placed))
    report = validate_bin(layout, {it.id: it for it in items})
    return report.ok and sorted(layout.item_ids()) == sorted(it.id for it in items)


def _small_branches(items, u, v, total):
    tall = max(items, key=lambda r: (r.height, r.width, -r.id))
    if 2 * total <= u * (v - tall.height):
        yield lambda: _shelf_bottom(items, tall, u, v)
    broad = max(items, key=lambda r: (r.width, r.height, -r.id))
    if 2 * total <= v * (u - broad.width):
        yield lambda: _shelf_left(items, broad, u, v)

    by_w = sorted(items, key=lambda r: (-r.width, -r.height, r.id))
    by_h = sorted(items, key=lambda r: (-r.height, -r.width, r.id))

    prefix = ZERO
    wmax_suffix = _suffix_max(by_w, lambda r: r.width)
    for m in range(1, len(by_w)):
        prefix += by_w[m - 1].volume
        lo = max(by_w[0].width, 2 * prefix / v)
        hi = min(u - wmax_suffix[m], (u * v - 2 * (total - prefix)) / v)
        if lo <= hi:
            yield (lambda mm=m, cut=lo: _split_vertical(by_w, mm, cut, u, v))
    prefix = ZERO
    hmax_suffix = _suffix_max(by_h, lambda r: r.height)
    for m in range(1, len(by_h)):
        prefix += by_h[m - 1].volume
        lo = max(by_h[0].height, 2 * prefix / u)
        hi = min(v - hmax_suffix[m], (u * v - 2 * (total - prefix)) / u)
        if lo <= hi:
            yield (lambda mm=m, cut=lo: _split_horizontal(by_h, mm, cut, u, v))

    for i in range(len(by_w)):
        for j in range(i + 1, len(by_w)):
            ri, rj = by_w[i], by_w[j]
            rest_area = total - ri.volume - rj.volume
            if ri.width + rj.width <= u and 2 * rest_area <= u * (v - max(ri.height, rj.height)):
                yield (lambda a=ri, c=rj: _pair_bottom(items, a, c, u, v))
    for i in range(len(by_h)):
        for j in range(i + 1, len(by_h)):
            ri, rj = by_h[i], by_h[j]
            rest_area = total - ri.volume - rj.volume
            if ri.height + rj.height <= v and 2 * rest_area <= v * (u - max(ri.width, rj.width)):
                yield (lambda a=ri, c=rj: _pair_left(items, a, c, u, v))


def _suffix_max(ordered, measure):
    # out[m] = max measure over ordered[m:], 0 past the end
    out = [ZERO] * (len(ordered) + 1)
    for m in range(len(ordered) - 1, -1, -1):
        out[m] = max(out[m + 1], measure(ordered[m]))
    return out


def _shelf_bottom(items, tall, u, v):
    rest = [r for r in items if r.id != tall.id]
    out = [Placement(tall.id, ZERO, ZERO)]
    if rest:
        out.extend(Placement(p.item_id, p.x, p.y + tall.height) for p in _pack(rest, u, v - tall.height))
    return out


def _shelf_left(items, broad, u, v):
    rest = [r for r in items if r.id != broad.id]
    out = [Placement(broad.id, ZERO, ZERO)]
    if rest:
        out.extend(Placement(p.item_id, p.x + broad.width, p.y) for p in _pack(rest, u - broad.width, v))
    return out


def _split_vertical(by_w, m, cut, u, v):
    left, right = by_w[:m], by_w[m:]
    out = list(_pack(left, cut, v))
    out.extend(Placement(p.item_id, p.x + cut, p.y) for p in _pack(right, u - cut, v))
    return out


def _split_horizontal(by_h, m, cut, u, v):
    low, high = by_h[:m], by_h[m:]
    out = list(_pack(low, u, cut))
    out.extend(Placement(p.item_id, p.x, p.y + cut) for p in _pack(high, u, v - cut))
    return out


def _pair_bottom(items, a, c, u, v):
    shelf = max(a.height, c.height)
    rest = [r for r in items if r.id not in (a.id, c.id)]
    out = [Placement(a.id, ZERO, ZERO), Placement(c.id, a.width, ZERO)]
    if rest:
        out.extend(Placement(p.item_id, p.x, p.y + shelf) for p in _pack(rest, u, v - shelf))
    return out


def _pair_left(items, a, c, u, v):
    shelf = max(a.width, c.width)
    rest = [r for r in items if r.id not in (a.id, c.id)]
    out = [Placement(a.id, ZERO, ZERO), Placement(c.id, ZERO, a.height)]
    if rest:
        out.extend(Placement(p.item_id, p.x + shelf, p.y) for p in _pack(rest, u - shelf, v))
    return out


def pack_no_wide_half_area(items) -> BinLayout:
    """Unit-bin packer for: Vol <= 1/2, nothing wider than 1/2 except at most
    one item that is big (wider and taller than 1/2)."""
    items = list(items)
    total = vol(items)
    if total > HALF:
        raise PreconditionViolated(f"total area {total} exceeds 1/2")
    wides = [r for r in items if r.width > HALF]
    if any(r.height <= HALF for r in wides):
        raise PreconditionViolated("a wide non-big item is present")
    if len(wides) > 1:
        raise PreconditionViolated(f"{len(wides)} items wider than 1/2")
    if not wides:
        # area condition holds outright: no width deficiency is possible
        return steinberg_pack(items, 1, 1)
    # a one-item wide stack; area above 1/2 would be needed for the hangers
    # to reach past 1 - w(big)
    return BinLayout(1, 1, _pack_wide_anchored(items, 1, 1))


def pack_no_high_half_area(items) -> BinLayout:
    """Transposed companion: Vol <= 1/2, no item taller than 1/2 except at
    most one big."""
    return transpose_layout(pack_no_wide_half_area([r.transposed() for r in items]))
