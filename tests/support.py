"""Shared helpers for the test suite.

The checkers here are written independently of the package internals on
purpose: they recompute overlap and containment from first principles so the
suite does not just test the validator against itself.
"""

import importlib.util
import math
import os
import re
import subprocess
import sys
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
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


def run_with_closed_stdout(argv, unbuffered):
    """(exit code, stderr) of a script run whose stdout is a pipe with its
    read end already closed, so that the first write to it fails.  With
    unbuffered stdout the print fails; otherwise the flush does."""
    env = {name: value for name, value in os.environ.items() if name != "PYTHONUNBUFFERED"}
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    read, write = os.pipe()
    os.close(read)
    try:
        proc = subprocess.run([sys.executable, *argv], stdout=write, stderr=subprocess.PIPE,
                              env=env, text=True, timeout=120)
    finally:
        os.close(write)
    return proc.returncode, proc.stderr


def _corpus():
    """perfbench/corpus.py, loaded from its file."""
    path = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                        "perfbench", "corpus.py")
    spec = importlib.util.spec_from_file_location("corpus", path)
    corpus = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(corpus)
    return corpus


def oracle_pool_sample(step):
    """The instances of every step-th entry of the benchmark's oracle pool,
    built by perfbench/corpus.py."""
    from rectbin.fileio import parse_instance

    return [parse_instance(entry["text"]) for entry in _corpus().build_pool("oracle", 1700)[::step]]


def benchmark_pool_sample(workload, size, step):
    """(pool index, instance) of every step-th entry, in pool order, of the
    first size entries of a benchmark workload's pool, with the item ids
    permuted as a benchmark run permutes them (perfbench/corpus.py's
    build_corpus)."""
    from rectbin.fileio import parse_instance

    entries = sorted(_corpus().build_corpus(workload, 0, size), key=lambda e: e["pool_index"])
    return [(e["pool_index"], parse_instance(e["text"])) for e in entries[::step]]


def outcome(run):
    """What run() gives, as comparable text: the serialized packing (a
    layout as a one-bin packing) with its path and region, or the
    exception's type and text."""
    from rectbin.errors import RectbinError
    from rectbin.fileio import serialize_packing
    from rectbin.geometry import Packing

    try:
        result = run()
    except (RectbinError, ValueError) as exc:
        return type(exc).__name__, str(exc)
    if isinstance(result, Packing):
        return "packing", result.path, serialize_packing(result)
    return "layout", result.width, result.height, serialize_packing(Packing([result]))


def memo_ids(memo, key):
    """The item ids of key, an int key of the UnitBinMemo memo, in search
    order."""
    return [i for i in memo.order if key & memo.bit[i]]


class SearchBudgetExceeded(Exception):
    """unpruned_region_search placed more boxes than its budget allows."""


def reference_feasible_positions(width, height, xs, ys, placed, a, b, floor=None):
    """knapsack._feasible_positions as it was before the scan skipped wholly
    blocked columns: every column from the floor on is filtered and scanned."""
    y_end = bisect_right(ys, b - height)  # ys[:y_end] keep the box below b
    for x in xs:
        right = x + width
        if right > a:
            break  # xs sorted ascending
        yi = 0
        if floor is not None:
            if x < floor[0]:
                continue
            if x == floor[0]:
                yi = bisect_right(ys, floor[1], 0, y_end)
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
                yi += 1
            else:
                yi = bisect_left(ys, jump, yi + 1)


def reference_lattice(items, a, b):
    """knapsack._lattice as it was: (d, a * d, b * d, [(w * d, h * d) per
    item]), the region and the item sides on the integer lattice of their
    common denominator d."""
    from rectbin.geometry import lattice, scaled

    d = lattice(items, a, b)
    sides = [(scaled(it.width, d), scaled(it.height, d)) for it in items]
    return d, scaled(a, d), scaled(b, d), sides


def unpruned_region_search(items, a, b, max_placements):
    """The exact region packer without refutations or pruning:
    the same item order, lattice, normal positions and identical-item
    floor, so it returns the same first layout as
    knapsack.exact_pack_single_region, as [(item id, x, y)], or None.
    Raises SearchBudgetExceeded past max_placements placements, so a set
    it cannot settle quickly is skipped the same way on every machine."""
    from rectbin.knapsack import _axis_positions

    a, b = Fraction(a), Fraction(b)
    order = sorted(items, key=lambda it: (-it.volume, it.id))
    d, a_d, b_d, sides = reference_lattice(order, a, b)
    xs = _axis_positions([w for w, _ in sides], a_d)
    ys = _axis_positions([h for _, h in sides], b_d)
    placed = []
    budget = [max_placements]

    def rec(i, last_pos):
        if i == len(order):
            return True
        w, h = sides[i]
        floor = last_pos if i > 0 and sides[i - 1] == sides[i] else None
        for x, y in reference_feasible_positions(w, h, xs, ys, placed, a_d, b_d, floor):
            budget[0] -= 1
            if budget[0] < 0:
                raise SearchBudgetExceeded(max_placements)
            placed.append((x, y, x + w, y + h))
            if rec(i + 1, (x, y)):
                return True
            placed.pop()
        return False

    if not rec(0, None):
        return None
    return [(it.id, Fraction(x, d), Fraction(y, d)) for it, (x, y, _, _) in zip(order, placed)]


def reference_profit_search(pitems, a, b, max_placements):
    """knapsack._solve_exact as it was before integer profits, the subset-sum
    bound and the fit-all probe: Fraction profit and area bookkeeping and
    the bound achieved + min(remaining profit, best ratio * free area).
    Returns (profit, [selected item ids], [(item id, x, y)]) of the first
    leaf of maximum profit, which any valid bound leaves unchanged.
    Raises SearchBudgetExceeded past max_placements placements, like
    unpruned_region_search."""
    from rectbin.knapsack import _axis_positions

    a, b = Fraction(a), Fraction(b)
    usable = [pi for pi in pitems if pi.item.width <= a and pi.item.height <= b]
    order = sorted(usable, key=lambda pi: (-pi.item.volume, pi.item.id))
    d, a_d, b_d, sides = reference_lattice([pi.item for pi in order], a, b)
    xs = _axis_positions([w for w, _ in sides], a_d)
    ys = _axis_positions([h for _, h in sides], b_d)
    ratio = max((pi.profit / pi.item.volume for pi in order), default=Fraction(1))
    area = a * b
    volumes = [pi.item.volume for pi in order]
    suffix = [Fraction(0)] * (len(order) + 1)
    for i in range(len(order) - 1, -1, -1):
        suffix[i] = suffix[i + 1] + order[i].profit
    best = {"profit": Fraction(-1), "sel": [], "pl": []}
    placed = []
    chosen = []
    budget = [max_placements]
    twins = [i > 0 and (sides[i - 1], order[i - 1].profit) == (sides[i], order[i].profit)
             for i in range(len(order))]

    def rec(i, achieved, used, last_excluded, last_pos):
        if i == len(order):
            if achieved > best["profit"]:
                best["profit"] = achieved
                best["sel"] = [it.id for it in chosen]
                best["pl"] = [(it.id, Fraction(x, d), Fraction(y, d))
                              for it, (x, y, _, _) in zip(chosen, placed)]
            return
        free = area - used
        bound = achieved + min(suffix[i], ratio * free)
        if bound <= best["profit"]:
            return
        pi = order[i]
        w, h = sides[i]
        same = twins[i]
        if not (same and last_excluded):
            floor = last_pos if same else None
            if volumes[i] <= free:
                for x, y in reference_feasible_positions(w, h, xs, ys, placed, a_d, b_d, floor):
                    if bound <= best["profit"]:
                        break
                    budget[0] -= 1
                    if budget[0] < 0:
                        raise SearchBudgetExceeded(max_placements)
                    placed.append((x, y, x + w, y + h))
                    chosen.append(pi.item)
                    rec(i + 1, achieved + pi.profit, used + volumes[i], False, (x, y))
                    chosen.pop()
                    placed.pop()
        rec(i + 1, achieved, used, True, None)

    rec(0, Fraction(0), Fraction(0), False, None)
    return best["profit"], best["sel"], best["pl"]


def reference_validate_bin(layout, items_by_id):
    """geometry.validate_bin as it was before it moved to the integer
    lattice: bounds and overlap decided on Fractions.  Returns the list of
    violations, in the order the validator reports them."""
    from rectbin.geometry import ValidationReport

    report = ValidationReport()
    seen = set()
    boxes = []  # (item, placement) pairs that passed the id checks
    for p in layout.placements:
        it = items_by_id.get(p.item_id)
        if it is None:
            report.add("unknown_item", (p.item_id,), f"item {p.item_id} not in instance")
            continue
        if p.item_id in seen:
            report.add("duplicate_item", (p.item_id,), f"item {p.item_id} placed twice in one bin")
            continue
        seen.add(p.item_id)
        if p.x < 0 or p.y < 0 or p.x + it.width > layout.width or p.y + it.height > layout.height:
            report.add(
                "out_of_bounds",
                (p.item_id,),
                f"item {p.item_id} at ({p.x}, {p.y}) leaves the {layout.width} x {layout.height} region",
            )
        boxes.append((it, p))
    for i in range(len(boxes)):
        ai, ap = boxes[i]
        for j in range(i + 1, len(boxes)):
            bi, bp = boxes[j]
            # open-interval test on both axes; shared edges are fine
            if (ap.x < bp.x + bi.width and bp.x < ap.x + ai.width
                    and ap.y < bp.y + bi.height and bp.y < ap.y + ai.height):
                report.add("overlap", (ai.id, bi.id), f"items {ai.id} and {bi.id} share interior area")
    return report.violations


# ---------------------------------------------------------------------------
# the number parser, classify's sums and the delta search as they were on
# Fractions, before they moved to ints: references for the int code


_REFERENCE_EXPONENT = re.compile(r"[eE]([-+]?[\d_]+)\Z")


def reference_parse_rational(text):
    """fileio.parse_rational read entirely through Fraction(text), after
    the same refusal of a non-ASCII token."""
    exponent = _REFERENCE_EXPONENT.search(text)
    try:
        if not text.isascii():
            raise ValueError(text)
        huge = exponent is not None and abs(int(exponent.group(1))) > 4299
        value = None if huge else Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"bad rational {text!r}") from None
    if huge:
        raise ValueError(f"exponent of {text!r} exceeds 4299 in magnitude")
    if max(abs(value.numerator), value.denominator) >= 10**4300:
        raise ValueError(f"{text!r} has more than 4300 digits")
    return value


def reference_vol(items):
    return sum((it.width * it.height for it in items), Fraction(0))


def reference_total_width(items):
    return sum((it.width for it in items), Fraction(0))


def reference_total_height(items):
    return sum((it.height for it in items), Fraction(0))


def reference_lower_bound(items):
    """classify.lower_bound on the Fraction sums."""
    wide = [it for it in items if it.width > Fraction(1, 2)]
    high = [it for it in items if it.height > Fraction(1, 2)]
    big = [it for it in wide if it.height > Fraction(1, 2)]
    return math.ceil(max(reference_vol(items), reference_total_height(wide),
                         reference_total_width(high), len(big)))


def reference_feasible_delta(items, eps, axis="width"):
    """classify.find_feasible_delta on Fractions: every candidate delta in
    ascending order, each with a fresh 1 - w and a full stack sum."""
    half = Fraction(1, 2)
    if axis == "width":
        along = lambda it: it.width
        across = lambda it: it.height
    else:
        along = lambda it: it.height
        across = lambda it: it.width
    candidates = {half}
    for it in items:
        if along(it) > half:
            d = 1 - along(it)
            if eps < d < half:
                candidates.add(d)
    for d in sorted(candidates):
        stack = sum((across(it) for it in items if along(it) > 1 - d), Fraction(0))
        if stack <= (d - eps) / (1 + 2 * d):
            return d
    return None


def reference_best_effort(pitems, a, b):
    """knapsack._best_effort as it was on Fraction boxes: each item in
    order of profit per area at its first corner position, or left out."""
    order = sorted(pitems, key=lambda pi: (-(pi.profit / pi.item.volume), -pi.profit, pi.item.id))
    placed = []
    chosen = []
    achieved = Fraction(0)
    for pi in order:
        it = pi.item
        xs = sorted({Fraction(0)} | {right for _, _, right, _ in placed})
        ys = sorted({Fraction(0)} | {top for _, _, _, top in placed})
        spot = next(reference_feasible_positions(it.width, it.height, xs, ys, placed, a, b), None)
        if spot is not None:
            x, y = spot
            placed.append((x, y, x + it.width, y + it.height))
            chosen.append((it, x, y))
            achieved += pi.profit
    return achieved, chosen


# Lemma checks that only tests use.  The solver decides its branches
# without them; they document what the paper's one-bin argument relies on.

def wide_only(classes):
    """The wide items of a classify result that are not also high."""
    return [it for it in classes.wide if it.height <= Fraction(1, 2)]


@dataclass
class DeltaSets:
    delta: Fraction
    gamma: Fraction
    w_delta: list  # width > 1 - delta
    h_delta: list  # height > 1 - delta


def delta_sets(instance, delta, eps) -> DeltaSets:
    """The items above the width and the height cutoff 1 - delta, with the
    stack threshold gamma(delta)."""
    from rectbin.classify import delta_threshold

    w_d = [it for it in instance.items if it.width > 1 - delta]
    h_d = [it for it in instance.items if it.height > 1 - delta]
    return DeltaSets(delta, delta_threshold(delta, eps), w_d, h_d)


def area_guarantee_check(instance, eps) -> bool:
    """Whether Vol(W u H) >= 2 xi + (w(H) + h(W)) / 2.

    Only meaningful when the delta search failed on both axes; that is
    re-verified here and violated callers get an error instead of a
    misleading boolean.
    """
    from rectbin.classify import XI, classify, find_feasible_delta, total_height, total_width, vol
    from rectbin.errors import PreconditionViolated
    from rectbin.geometry import transpose_instance

    if find_feasible_delta(instance.grid, eps) is not None:
        raise PreconditionViolated("width-axis delta search succeeds; area bound not applicable")
    if find_feasible_delta(transpose_instance(instance).grid, eps) is not None:
        raise PreconditionViolated("height-axis delta search succeeds; area bound not applicable")
    classes = classify(instance)
    union = [it for it in instance.items if it.width > Fraction(1, 2) or it.height > Fraction(1, 2)]
    return vol(union) >= 2 * XI + (total_width(classes.high) + total_height(classes.wide)) / 2


# ---------------------------------------------------------------------------
# the single-bin branch's cutoff tests, its knapsack's fit-all probe and
# Steinberg's packer as they were on Fractions, before they moved to the
# integer lattice of each call: references for the int code


def reference_steinberg_condition(items, a, b):
    """steinberg.steinberg_condition on Fraction sides and areas."""
    from rectbin.classify import h_max, vol, w_max

    a, b = Fraction(a), Fraction(b)
    items = list(items)
    if not items:
        return True
    if a <= 0 or b <= 0:
        return False
    wm, hm = w_max(items), h_max(items)
    if wm > a or hm > b:
        return False
    deficiency = max(2 * wm - a, Fraction(0)) * max(2 * hm - b, Fraction(0))
    return 2 * vol(items) <= a * b - deficiency


def reference_steinberg_pack(items, a=1, b=1):
    """steinberg.steinberg_pack on Fractions: every sub-region a BinLayout,
    each recursion re-checked with reference_steinberg_condition and each
    portfolio candidate with validate_bin."""
    from rectbin.errors import ConditionViolated

    a, b = Fraction(a), Fraction(b)
    items = list(items)
    if not reference_steinberg_condition(items, a, b):
        raise ConditionViolated(f"area condition fails for region {a} x {b}")
    return _ref_pack(items, a, b)


def _ref_pack(items, u, v):
    from rectbin.errors import PackingStuck
    from rectbin.geometry import BinLayout, transpose_layout

    if not items:
        return BinLayout(u, v)
    if not reference_steinberg_condition(items, u, v):
        raise PackingStuck(f"area condition lost on {u} x {v} sub-region")
    if len(items) == 1:
        return _ref_lined(items, u, v)
    if any(2 * r.width > u for r in items):
        return _ref_pack_wide_anchored(items, u, v)
    if any(2 * r.height > v for r in items):
        return transpose_layout(_ref_pack([r.transposed() for r in items], v, u))
    return _ref_pack_all_small(items, u, v)


def _ref_pack_wide_anchored(items, u, v):
    from rectbin.errors import PackingStuck
    from rectbin.geometry import BinLayout

    zero = Fraction(0)
    wide = sorted((r for r in items if 2 * r.width > u), key=lambda r: (-r.width, -r.height, r.id))
    out = BinLayout(u, v)
    h0 = out.column(wide, zero, zero)
    rest = [r for r in items if 2 * r.width <= u]
    hangers = sorted((r for r in rest if r.height > v - h0),
                     key=lambda r: (-r.height, -r.width, r.id))
    c = zero
    for t in hangers:
        c += t.width
        out.add(t.id, u - c, v - t.height)
    if 2 * c > u:
        raise PackingStuck("hanger run exceeds half the region width")
    out.merge(_ref_pack([r for r in rest if r.height <= v - h0], u - c, v - h0), zero, h0)
    return out


def _ref_pack_all_small(items, u, v):
    from rectbin.classify import vol
    from rectbin.errors import PackingStuck
    from rectbin.geometry import validate_bin

    by_id = {it.id: it for it in items}
    for branch in _ref_small_branches(items, u, v, vol(items)):
        try:
            layout = branch()
        except PackingStuck:
            continue
        if validate_bin(layout, by_id).ok and sorted(layout.item_ids()) == sorted(by_id):
            return layout
    raise PackingStuck(f"portfolio exhausted on {len(items)} items in {u} x {v}")


def _ref_small_branches(items, u, v, total):
    from itertools import combinations

    zero = Fraction(0)

    def without(*picked):
        return [r for r in items if r not in picked]

    tall = max(items, key=lambda r: (r.height, r.width, -r.id))
    if 2 * total <= u * (v - tall.height):
        yield lambda: _ref_cut(_ref_lined([tall], u, v), without(tall), u, v, zero, tall.height)
    broad = max(items, key=lambda r: (r.width, r.height, -r.id))
    if 2 * total <= v * (u - broad.width):
        yield lambda: _ref_cut(_ref_lined([broad], u, v), without(broad), u, v, broad.width, zero)

    by_w = sorted(items, key=lambda r: (-r.width, -r.height, r.id))
    by_h = sorted(items, key=lambda r: (-r.height, -r.width, r.id))
    for m, cut in _ref_split_cuts(by_w, u, v, total, lambda r: r.width):
        yield lambda m=m, cut=cut: _ref_cut(_ref_pack(by_w[:m], cut, v), by_w[m:], u, v, cut, zero)
    for m, cut in _ref_split_cuts(by_h, v, u, total, lambda r: r.height):
        yield lambda m=m, cut=cut: _ref_cut(_ref_pack(by_h[:m], u, cut), by_h[m:], u, v, zero, cut)

    for a, c in combinations(by_w, 2):
        shelf = max(a.height, c.height)
        if a.width + c.width <= u and 2 * (total - a.volume - c.volume) <= u * (v - shelf):
            yield lambda a=a, c=c, shelf=shelf: _ref_cut(_ref_lined([a, c], u, v), without(a, c),
                                                         u, v, zero, shelf)
    for a, c in combinations(by_h, 2):
        shelf = max(a.width, c.width)
        if a.height + c.height <= v and 2 * (total - a.volume - c.volume) <= v * (u - shelf):
            yield lambda a=a, c=c, shelf=shelf: _ref_cut(_ref_lined([a, c], u, v, up=True),
                                                         without(a, c), u, v, shelf, zero)


def _ref_split_cuts(ordered, length, side, total, measure):
    prefix = Fraction(0)
    for m in range(1, len(ordered)):
        prefix += ordered[m - 1].volume
        lo = max(measure(ordered[0]), 2 * prefix / side)
        hi = min(length - measure(ordered[m]), (length * side - 2 * (total - prefix)) / side)
        if lo <= hi:
            yield m, lo


def _ref_lined(items, u, v, up=False):
    from rectbin.geometry import BinLayout

    layout = BinLayout(u, v)
    (layout.column if up else layout.row)(items, Fraction(0), Fraction(0))
    return layout


def _ref_cut(placed, rest, u, v, dx, dy):
    from rectbin.geometry import BinLayout

    out = BinLayout(u, v, list(placed.placements))
    out.merge(_ref_pack(rest, u - dx, v - dy), dx, dy)
    return out


def reference_pack_no_wide_half_area(items):
    """steinberg.pack_no_wide_half_area on Fractions."""
    from rectbin.classify import vol
    from rectbin.errors import ConditionViolated

    half = Fraction(1, 2)
    items = list(items)
    total = vol(items)
    if total > half:
        raise ConditionViolated(f"total area {total} exceeds 1/2")
    wides = [r for r in items if r.width > half]
    if any(r.height <= half for r in wides):
        raise ConditionViolated("a wide non-big item is present")
    if not wides:
        return reference_steinberg_pack(items, 1, 1)
    return _ref_pack_wide_anchored(items, Fraction(1), Fraction(1))


def reference_suffix_frontiers(volumes, profits, cap):
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


def reference_solve_exact(pitems, a, b):
    """knapsack._solve_exact as it was, on ProfitItems and a Fraction
    region: the order key (-volume, id), the lattice of the call's items
    (reference_lattice), profits scaled by the least common multiple of
    their denominators, the subset-sum bound and the twins rule, with
    the plain position scan.  Returns (profit, selected items,
    placements) of the first leaf of maximum profit."""
    from rectbin.geometry import Placement
    from rectbin.knapsack import _axis_positions

    order = sorted(pitems, key=lambda pi: (-pi.item.volume, pi.item.id))
    d, a_d, b_d, sides = reference_lattice([pi.item for pi in order], a, b)
    xs = _axis_positions([w for w, _ in sides], a_d)
    ys = _axis_positions([h for _, h in sides], b_d)
    q = math.lcm(*[pi.profit.denominator for pi in order])
    profits = [pi.profit.numerator * (q // pi.profit.denominator) for pi in order]
    volumes = [w * h for w, h in sides]
    area = a_d * b_d
    frontiers = reference_suffix_frontiers(volumes, profits, area)
    best = {"profit": -1, "sel": [], "pl": []}
    placed = []
    chosen = []
    twins = [i > 0 and (sides[i - 1], profits[i - 1]) == (sides[i], profits[i])
             for i in range(len(order))]

    def rec(i, achieved, used, last_excluded, last_pos):
        if i == len(order):
            if achieved > best["profit"]:
                best["profit"] = achieved
                best["sel"] = list(chosen)
                best["pl"] = [Placement(it.id, Fraction(x, d), Fraction(y, d))
                              for it, (x, y, _, _) in zip(chosen, placed)]
            return
        free = area - used
        vols, gains = frontiers[i]
        bound = achieved + gains[bisect_right(vols, free) - 1]
        if bound <= best["profit"]:
            return
        w, h = sides[i]
        same = twins[i]
        if not (same and last_excluded):
            floor = last_pos if same else None
            if volumes[i] <= free:
                for x, y in reference_feasible_positions(w, h, xs, ys, placed, a_d, b_d, floor):
                    if bound <= best["profit"]:
                        break
                    placed.append((x, y, x + w, y + h))
                    chosen.append(order[i].item)
                    rec(i + 1, achieved + profits[i], used + volumes[i], False, (x, y))
                    chosen.pop()
                    placed.pop()
        rec(i + 1, achieved, used, True, None)

    rec(0, 0, 0, False, None)
    return Fraction(best["profit"], q), best["sel"], best["pl"]


def reference_max_profit_pack(pitems, a, b, eps, exact_limit=10):
    """knapsack.max_profit_pack as it was before one body served it and
    max_area_pack: the region and eps checks, the usable filter on
    Fraction sides, the fit-all probe (exact_pack_single_region on every
    usable item, its profit the exact sum of their profits), then
    reference_solve_exact within the exact limit and reference_best_effort
    past it, certified against the same bound."""
    from rectbin.errors import InstanceTooLarge
    from rectbin.geometry import BinLayout, Placement, exact_sum, scalar
    from rectbin.knapsack import KnapsackResult, exact_pack_single_region

    a, b, eps = scalar(a), scalar(b), scalar(eps)
    if not (0 < a <= 1 and 0 < b <= 1):
        raise ValueError(f"region {a} x {b} outside (0,1] x (0,1]")
    if eps <= 0:
        raise ValueError("eps must be positive")
    usable = [pi for pi in pitems if pi.item.width <= a and pi.item.height <= b]
    if len(pitems) <= exact_limit:
        layout = exact_pack_single_region([pi.item for pi in usable], a, b, exact_limit)
        if layout is not None:
            by_id = {pi.item.id: pi.item for pi in usable}
            return KnapsackResult([by_id[p.item_id] for p in layout.placements], layout,
                                  exact_sum([pi.profit for pi in usable]), True)
        profit, selected, placements = reference_solve_exact(usable, a, b)
        return KnapsackResult(selected, BinLayout(a, b, placements), profit, True)
    achieved, placed = reference_best_effort(usable, a, b)
    ratio = max((pi.profit / pi.item.volume for pi in usable), default=Fraction(1))
    upper = min(sum((pi.profit for pi in usable), Fraction(0)),
                ratio * min(a * b, sum((pi.item.volume for pi in usable), Fraction(0))))
    if achieved < (1 - eps) * upper - eps:
        raise InstanceTooLarge(
            f"{len(pitems)} items exceed the exact limit {exact_limit} and the "
            f"greedy result {achieved} cannot certify the contract against bound {upper}"
        )
    layout = BinLayout(a, b, [Placement(it.id, x, y) for it, x, y in placed])
    return KnapsackResult([it for it, _, _ in placed], layout, achieved, False)


def reference_max_area_pack(items, a, b, eps, exact_limit=10):
    """knapsack.max_area_pack as it was: reference_max_profit_pack with
    each item's Fraction area as its profit."""
    from rectbin.knapsack import ProfitItem

    return reference_max_profit_pack([ProfitItem(it, it.volume) for it in items], a, b, eps,
                                     exact_limit)


def reference_pack_small_height(instance, delta, eps, exact_limit=10):
    """opt1.pack_small_height on Fractions: the cutoffs 1 - delta and
    1 - gamma with gamma from classify.delta_threshold, Fraction stack and
    width sums, and reference_max_area_pack and reference_steinberg_pack
    for the two bins."""
    from rectbin.classify import delta_threshold, total_height, total_width, vol
    from rectbin.errors import ConditionViolated, GuessFailed, PreconditionViolated
    from rectbin.geometry import BinLayout, Packing

    delta, eps = Fraction(delta), Fraction(eps)
    if not (eps < delta <= Fraction(1, 2)):
        raise PreconditionViolated(f"delta {delta} outside (eps, 1/2]")
    gamma = delta_threshold(delta, eps)
    width_cutoff, height_cutoff = 1 - delta, 1 - gamma
    items = instance.items
    stack = total_height([it for it in items if it.width > width_cutoff])
    if stack > gamma:
        raise PreconditionViolated("stack of cutoff-wide items exceeds the threshold")
    tall = sorted((it for it in items if it.height > height_cutoff), key=lambda it: (-it.height, it.id))
    tall_w = total_width(tall)
    if tall_w > 1:
        raise GuessFailed("near-full-height items wider than the bin together")
    bin1 = BinLayout(1, 1)
    bin1.row(tall, 0, 0)
    tall_ids = {it.id for it in tall}
    pool = [it for it in items if it.id not in tall_ids]
    selected_ids = set()
    region_w = 1 - tall_w
    if 2 * (vol(pool) - region_w) - 1 > stack:
        raise ConditionViolated("pool area exceeds what bin 1 and bin 2's area condition hold")
    if region_w > 0 and pool:
        picked = reference_max_area_pack(pool, region_w, 1, eps, exact_limit=exact_limit)
        bin1.merge(picked.layout, tall_w, 0)
        selected_ids = set(picked.layout.item_ids())
    leftover = [it for it in pool if it.id not in selected_ids]
    floor = sorted((it for it in leftover if it.width > width_cutoff),
                   key=lambda it: (-it.width, it.id))
    bin2 = BinLayout(1, 1)
    y = bin2.column(floor, 0, 0)
    floor_ids = {it.id for it in floor}
    rest = [it for it in leftover if it.id not in floor_ids]
    if rest:
        bin2.merge(reference_steinberg_pack(rest, 1, 1 - y), 0, y)
    return Packing([bin1, bin2])


# ---------------------------------------------------------------------------
# pack_opt1's dispatch, pack_large_w's refusals and the constant branch's
# knapsack as they were before one lattice served each pack_opt1 call and
# the solve's unit-bin memo served run_steps_1_to_4: references for them

@dataclass
class ReferenceClasses:
    wide: list
    high: list
    small: list
    big: list
    high_only: list


def reference_classify(items):
    """classify.classify on Fraction comparisons with 1/2."""
    half = Fraction(1, 2)
    wide = [it for it in items if it.width > half]
    high = [it for it in items if it.height > half]
    return ReferenceClasses(
        wide, high, [it for it in items if it.width <= half and it.height <= half],
        [it for it in wide if it.height > half], [it for it in high if it.width <= half])


def reference_pack_large_w(instance, eps):
    """opt1.pack_large_w's refusals on Fractions, in their order: the
    classes (reference_classify) and h(W) >= w(H) > 1/2, then
    pack_wide_high's two, more than MAX_ENUMERATION high items of width at
    least eps and a wide stack taller than the bin; past them,
    opt1.pack_large_w builds the bins."""
    from rectbin.errors import ConditionViolated, GuessFailed, InstanceTooLarge
    from rectbin.opt1 import MAX_ENUMERATION, pack_large_w

    eps = Fraction(eps)
    classes = reference_classify(instance.items)
    hw = reference_total_height(classes.wide)
    wh = reference_total_width(classes.high)
    if not (hw >= wh > Fraction(1, 2)):
        raise ConditionViolated(f"needs h(W) >= w(H) > 1/2, got {hw}, {wh}")
    substantial = [it for it in classes.high_only if it.width >= eps]
    if len(substantial) > MAX_ENUMERATION:
        raise InstanceTooLarge(f"{len(substantial)} candidate high items to enumerate")
    if hw > 1:
        raise GuessFailed("wide stack taller than the bin")
    return pack_large_w(instance, eps)


def reference_pack_small_w(instance, eps):
    """opt1.pack_small_w's refusals on Fractions, in their order; past
    them, opt1.pack_small_w builds the bins."""
    from rectbin.errors import ConditionViolated, GuessFailed
    from rectbin.opt1 import pack_small_w

    classes = reference_classify(instance.items)
    if not classes.wide or not classes.high:
        raise ConditionViolated("needs both wide and high items")
    hw = reference_total_height(classes.wide)
    wh = reference_total_width(classes.high)
    if hw < wh or wh > Fraction(1, 2):
        raise ConditionViolated(f"needs h(W) >= w(H) and w(H) <= 1/2, got {hw}, {wh}")
    if hw > 1:
        raise GuessFailed("wide stack taller than the bin")
    return pack_small_w(instance, eps)


def reference_pack_opt1(instance, eps, exact_limit=10):
    """opt1.pack_opt1's dispatch as it was: the delta search on the
    instance and on transpose_instance (reference_feasible_delta), the
    Fraction classes and sums, and the references of the branches."""
    from rectbin.errors import GuessFailed, InstanceTooLarge
    from rectbin.geometry import Packing, transpose_instance, transpose_packing

    eps = Fraction(eps)
    if not instance.items:
        return Packing([])
    limit_hit = None
    delta = reference_feasible_delta(instance.items, eps)
    if delta is not None:
        try:
            packing = reference_pack_small_height(instance, delta, eps, exact_limit)
            return packing.under("delta_width")
        except GuessFailed:
            pass
        except InstanceTooLarge as exc:
            limit_hit = exc
    flipped = transpose_instance(instance)
    delta = reference_feasible_delta(flipped.items, eps)
    if delta is not None:
        try:
            packing = reference_pack_small_height(flipped, delta, eps, exact_limit)
            return transpose_packing(packing).under("delta_height")
        except GuessFailed:
            pass
        except InstanceTooLarge as exc:
            limit_hit = exc
    classes = reference_classify(instance.items)
    work = instance
    flip = reference_total_height(classes.wide) < reference_total_width(classes.high)
    if flip:
        work = flipped
        classes = reference_classify(work.items)
    try:
        if reference_total_width(classes.high) > Fraction(1, 2):
            packing = reference_pack_large_w(work, eps).under("large_w")
        else:
            packing = reference_pack_small_w(work, eps).under("small_w")
    except (GuessFailed, InstanceTooLarge):
        if limit_hit is not None:
            raise limit_hit
        raise
    return transpose_packing(packing) if flip else packing


def reference_const_knapsack(instance, first_part, k=3, exact_limit=10):
    """The knapsack of optconst.run_steps_1_to_4 as it was: the tiny items
    by Fraction volume (at most eps), the first part's items at their area
    times 1/eps + 1 and the tinies at their area, and max_profit_pack on
    the unit bin with the lattice of the call and the fit-all probe on a
    fresh memo (exact_pack_single_region).  Raises GuessFailed as the step
    does when the bin drops an item of the part."""
    from rectbin.errors import GuessFailed
    from rectbin.knapsack import ProfitItem, max_profit_pack
    from rectbin.optconst import const_eps

    eps = const_eps(k)
    tiny = [it for it in instance.items if it.volume <= eps]
    boosted = Fraction(1, 1) / eps + 1
    pitems = [ProfitItem(it, it.volume * boosted) for it in first_part]
    pitems += [ProfitItem(it, it.volume) for it in tiny]
    result = max_profit_pack(pitems, 1, 1, eps * eps / (1 + 2 * eps), exact_limit)
    packed = {it.id for it in result.selected}
    if not all(it.id in packed for it in first_part):
        raise GuessFailed("profit bin dropped an assigned large item")
    return result
