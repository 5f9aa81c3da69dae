"""Packing for instances that need a small constant number of bins.

The solver guesses how the large items (area above eps) split across ell
bins, packs the first bin with the profit knapsack, separates wide from
high items in the remaining bins, and tops everything up with the tiny
items.  Four cases, keyed on how full the last pair of bins ended up,
decide where the leftover tinies go.  A wrong guess fails loudly and the
next assignment is tried; any returned packing is validator checked.
"""

from dataclasses import dataclass, field
from fractions import Fraction

from .classify import total_width, vol
from .errors import (
    ConditionViolated,
    GuessFailed,
    InstanceTooLarge,
    PreconditionViolated,
)
from .geometry import (
    HALF,
    ONE,
    ZERO,
    BinLayout,
    Instance,
    Packing,
    transpose_instance,
    transpose_layout,
    transpose_packing,
    validate_packing,
)
from .knapsack import ProfitItem, canonical_partitions, max_profit_pack, unit_bin_layout
from .steinberg import pack_no_high_half_area, pack_no_wide_half_area, steinberg_pack


def const_eps(k):
    # accuracy tied to the largest bin count the solver is asked to cover
    return Fraction(1, 40 * k ** 3 + 2)


@dataclass
class ConstContext:
    """Working state for one assignment guess.

    b_bins[0] is the knapsack bin, c_bins[0] the bin kept free for the
    case handlers.  Indices 1..ell-1 hold the separated wide/high sides
    of the guessed per-bin large sets.
    """

    k: int
    ell: int
    eps: Fraction = field(init=False)
    instance: Instance = None
    assignment: tuple = ()
    b_bins: list = field(default_factory=list)
    c_bins: list = field(default_factory=list)
    t_prime: list = field(default_factory=list)
    b1_layout: BinLayout = None
    special: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.k < 2:
            raise ValueError(f"k must be at least 2, got {self.k}")
        if self.ell < 1:
            raise ValueError(f"ell must be positive, got {self.ell}")
        self.eps = const_eps(self.k)

    @property
    def r1(self):
        return (ONE, 4 * self.ell * self.eps)

    @property
    def r2(self):
        return (8 * self.ell * self.eps, 1 - 4 * self.ell * self.eps)

    @property
    def r3(self):
        return (1 - 8 * self.ell * self.eps, HALF - 6 * self.ell * self.eps)


def _is_high(it):
    return it.height > HALF


def _is_wide(it):
    return it.width > HALF


def _is_big(it):
    return it.width > HALF and it.height > HALF


def enumerate_large_assignments(large, ell, enumeration_limit=12, cache=None):
    """Yield every way to split the large items into ell labeled bins.

    Bin 1 is special downstream, so its content ranges freely; the other
    bins are interchangeable and get canonicalized (a later bin may open
    only after the previous one holds an item).  Parts that cannot fit a
    unit bin are pruned as soon as they become infeasible.
    """
    items = sorted(large, key=lambda it: it.id)
    if len(items) > enumeration_limit:
        raise InstanceTooLarge(
            f"{len(items)} large items exceed the enumeration limit {enumeration_limit}"
        )
    if ell < 1:
        raise ValueError("ell must be positive")
    yield from canonical_partitions(items, ell, {} if cache is None else cache,
                                    enumeration_limit, labeled=1)


def _fail(msg):
    raise GuessFailed(msg)


def _stack_of_highs(items):
    """Floor stack, tallest first; total width must stay within the bin."""
    ordered = sorted(items, key=lambda it: (-it.height, it.id))
    if total_width(ordered) > 1:
        _fail(f"high stack width {total_width(ordered)} exceeds 1")
    out = BinLayout(1, 1)
    x = ZERO
    for it in ordered:
        out.add(it.id, x, ZERO)
        x += it.width
    return out


def _half_area_high(items):
    try:
        return pack_no_wide_half_area(items)
    except PreconditionViolated as exc:
        raise GuessFailed(f"half-area high bin rejected: {exc}") from exc


def _half_area_wide(items):
    try:
        return pack_no_high_half_area(items)
    except PreconditionViolated as exc:
        raise GuessFailed(f"half-area wide bin rejected: {exc}") from exc


def _steinberg(items, a, b):
    try:
        return steinberg_pack(items, a, b)
    except ConditionViolated as exc:
        raise GuessFailed(f"area condition failed: {exc}") from exc


def _layout_high_side(items, cache, limit):
    """Bin layout for a C side: a pure stack, the half-area packer, or an
    exact search over what must be a feasible large set."""
    if all(_is_high(it) for it in items):
        return _stack_of_highs(items)
    if vol(items) <= HALF and sum(1 for it in items if _is_wide(it) and not _is_big(it)) == 0:
        return _half_area_high(items)
    layout = unit_bin_layout(items, cache, limit)
    if layout is None:
        _fail("mixed high-side bin does not fit")
    return layout


def _layout_wide_side(items, cache, limit):
    if vol(items) <= HALF and sum(1 for it in items if _is_high(it) and not _is_big(it)) == 0:
        return _half_area_wide(items)
    layout = unit_bin_layout(items, cache, limit)
    if layout is None:
        _fail("wide-side bin does not fit")
    return layout


def _realize(ctx, cache, limit):
    """Turn the per-bin item sets into a validated Packing."""
    bins = []
    for side, bunch in (("B", ctx.b_bins), ("C", ctx.c_bins)):
        for i, items in enumerate(bunch):
            if not items:
                continue
            if (side, i) in ctx.special:
                layout = ctx.special[(side, i)]
            elif side == "B" and i == 0:
                layout = ctx.b1_layout
            elif side == "B":
                layout = _layout_wide_side(items, cache, limit)
            else:
                layout = _layout_high_side(items, cache, limit)
            bins.append(layout)
    packing = Packing(bins)
    report = validate_packing(packing, ctx.instance)
    if not report.ok:
        _fail(f"assembled packing rejected: {report.violations[:3]}")
    return packing


def run_steps_1_to_4(instance, ell, assignment, k=3, *, exact_limit=10,
                     whole_bin=None, cache=None):
    """First phase for one assignment guess: knapsack bin, wide/high
    separation, then greedy placement of the tiny wide and high items.

    With whole_bin set, that bin keeps its guessed large set in one
    piece (an exact layout is required), is skipped when handing out
    tiny wide items, and the tiny high overflow continues into the
    spare bin; leftover tiny items are then spread over the other
    wide-side bins.
    """
    if cache is None:
        cache = {}
    ctx = ConstContext(k=k, ell=ell)
    eps = ctx.eps
    ctx.instance = instance
    ctx.assignment = tuple(tuple(part) for part in assignment)
    if len(ctx.assignment) != ell:
        raise PreconditionViolated(f"assignment has {len(ctx.assignment)} parts, wanted {ell}")
    tiny = [it for it in instance.items if it.volume <= eps]

    boosted = Fraction(1, 1) / eps + 1
    pitems = [ProfitItem(it, it.volume * boosted) for it in ctx.assignment[0]]
    pitems += [ProfitItem(it, it.volume) for it in tiny]
    result = max_profit_pack(pitems, 1, 1, eps * eps / (1 + 2 * eps), exact_limit)
    packed_ids = {it.id for it in result.selected}
    if not all(it.id in packed_ids for it in ctx.assignment[0]):
        _fail("profit bin dropped an assigned large item")
    ctx.b_bins = [list(result.selected)] + [[] for _ in range(ell - 1)]
    ctx.c_bins = [[] for _ in range(ell)]
    ctx.b1_layout = result.layout

    for i in range(1, ell):
        part = ctx.assignment[i]
        if whole_bin == i:
            layout = unit_bin_layout(part, cache, max(exact_limit, len(part)))
            if layout is None:
                _fail("guessed bin content does not fit in one piece")
            ctx.b_bins[i] = list(part)
            ctx.special[("B", i)] = layout
        else:
            ctx.b_bins[i] = [it for it in part if not _is_high(it)]
            ctx.c_bins[i] = [it for it in part if _is_high(it)]

    loose = [it for it in tiny if it.id not in packed_ids]
    tiny_wide = sorted((it for it in loose if _is_wide(it)), key=lambda it: (-it.width, it.id))
    tiny_high = sorted((it for it in loose if _is_high(it)), key=lambda it: (-it.height, it.id))
    tiny_small = [it for it in loose if not _is_wide(it) and not _is_high(it)]
    left = []

    slots = [i for i in range(1, ell) if i != whole_bin]
    pos = 0
    vols = [vol(b) for b in ctx.b_bins]
    for it in tiny_wide:
        while pos < len(slots) and vols[slots[pos]] + it.volume > HALF:
            pos += 1
        if pos == len(slots):
            left.append(it)
        else:
            ctx.b_bins[slots[pos]].append(it)
            vols[slots[pos]] += it.volume

    slots = list(range(1, ell)) + ([0] if whole_bin is not None else [])
    pos = 0
    widths = [total_width(c) for c in ctx.c_bins]
    for it in tiny_high:
        while pos < len(slots) and widths[slots[pos]] + it.width > 1:
            pos += 1
        if pos == len(slots):
            left.append(it)
        else:
            ctx.c_bins[slots[pos]].append(it)
            widths[slots[pos]] += it.width

    if whole_bin is None:
        left.extend(tiny_small)
    else:
        # the modified run distributes the leftover tinies right away
        vols = [vol(b) for b in ctx.b_bins]
        for it in sorted(tiny_small, key=lambda t: (-t.volume, t.id)):
            for i in range(1, ell):
                if i != whole_bin and vols[i] + it.volume <= HALF:
                    ctx.b_bins[i].append(it)
                    vols[i] += it.volume
                    break
            else:
                left.append(it)

    ctx.t_prime = sorted(left, key=lambda it: it.id)
    return ctx


def _distribute_rest(ctx, cache, limit):
    """Both last bins are light: no wide or high tinies are left, so the
    leftovers are spread over every bin but the knapsack one."""
    if any(_is_wide(it) or _is_high(it) for it in ctx.t_prime):
        _fail("leftover tiny items still contain wide or high pieces")
    targets = [("B", i) for i in range(1, ctx.ell)]
    targets += [("C", i) for i in range(ctx.ell)]
    vols = {}
    for side, i in targets:
        bunch = ctx.b_bins if side == "B" else ctx.c_bins
        vols[(side, i)] = vol(bunch[i])
    for it in sorted(ctx.t_prime, key=lambda t: (-t.volume, t.id)):
        for key in targets:
            if vols[key] + it.volume <= HALF:
                side, i = key
                (ctx.b_bins if side == "B" else ctx.c_bins)[i].append(it)
                vols[key] += it.volume
                break
        else:
            _fail("tiny leftovers exceed the free half-area capacity")
    ctx.t_prime = []
    return _realize(ctx, cache, limit)


def _case_both_heavy(ctx, cache, limit, trace=None):
    """Last bins on both sides are nearly half full; the spare bin takes
    the slack."""
    ell, eps = ctx.ell, ctx.eps
    last = ctx.c_bins[ell - 1]
    if vol(last) > HALF + (2 * ell - 2) * eps:
        if ctx.t_prime:
            _fail("high side too full for any leftovers")
        if trace is not None:
            trace["subcase"] = "full"
        return _realize(ctx, cache, limit)

    shallow = [it for it in last if it.height <= Fraction(3, 4)]
    if total_width(shallow) >= (4 * ell - 3) * eps:
        # move the not-too-tall stack into the spare bin; what remains of
        # the last high bin is light enough to absorb the non-wide tinies
        keep = [it for it in last if it.height > Fraction(3, 4)]
        wides = sorted((it for it in ctx.t_prime if _is_wide(it)),
                       key=lambda it: (-it.width, it.id))
        others = [it for it in ctx.t_prime if not _is_wide(it)]
        ctx.c_bins[ell - 1] = keep + others
        ctx.special[("C", ell - 1)] = _half_area_high(keep + others)
        spare = BinLayout(1, 1)
        x = ZERO
        for it in sorted(shallow, key=lambda s: (-s.height, s.id)):
            spare.add(it.id, x, ZERO)
            x += it.width
        y = Fraction(3, 4)
        for it in wides:
            if y + it.height > 1:
                _fail("wide leftovers do not fit above the moved stack")
            spare.add(it.id, ZERO, y)
            y += it.height
        ctx.c_bins[0] = shallow + wides
        ctx.special[("C", 0)] = spare
        ctx.t_prime = []
        if trace is not None:
            trace["subcase"] = "shift"
        return _realize(ctx, cache, limit)

    # every remaining stack item is thin, so all highs fit side by side
    towering = [it for it in last + ctx.t_prime if it.height > Fraction(3, 4)]
    if total_width(towering) > Fraction(2, 3) + (Fraction(16 * ell, 3) - 4) * eps:
        _fail("tall items wider than the restack argument allows")
    highs = [it for it in last + ctx.t_prime if _is_high(it)]
    rest = [it for it in ctx.t_prime if not _is_high(it)]
    ctx.c_bins[ell - 1] = highs
    ctx.special[("C", ell - 1)] = _stack_of_highs(highs)
    if rest:
        ctx.c_bins[0] = rest
        ctx.special[("C", 0)] = _steinberg(rest, 1, 1)
    ctx.t_prime = []
    if trace is not None:
        trace["subcase"] = "restack"
    return _realize(ctx, cache, limit)


def _case_high_heavy(ctx, cache, limit, trace=None):
    """Only the high side filled up; leftover tiny highs go to the spare
    bin, directly or after rebuilding the high bins."""
    ell, eps = ctx.ell, ctx.eps
    strand = sorted((it for it in ctx.t_prime if _is_high(it)),
                    key=lambda it: (-it.height, it.id))
    if total_width(strand) <= 1:
        ctx.c_bins[0] = ctx.c_bins[0] + strand
        ctx.t_prime = [it for it in ctx.t_prime if not _is_high(it)]
        if trace is not None:
            trace["subcase"] = "spill"
        return _distribute_rest(ctx, cache, limit)

    wide_enough = [
        j for j in range(1, ell)
        if total_width([it for it in ctx.assignment[j] if _is_high(it)]) > 10 * ell * eps
    ]
    if wide_enough:
        if trace is not None:
            trace["subcase"] = "rebuild"
        redo = run_steps_1_to_4(
            ctx.instance, ell, ctx.assignment, ctx.k,
            exact_limit=limit, whole_bin=wide_enough[0], cache=cache,
        )
        return _finish_rebuilt(redo, cache, limit)
    if trace is not None:
        trace["subcase"] = "thin"
    return _thin_high_repack(ctx, cache, limit)


def _finish_rebuilt(ctx, cache, limit):
    """After the rebuild run, the spare bin holds the tiny high overflow
    and takes the leftovers in three reserved strips."""
    ell, eps = ctx.ell, ctx.eps
    if not ctx.t_prime:
        return _realize(ctx, cache, limit)
    overflow = ctx.c_bins[0]
    h_prime = max((it.height for it in overflow), default=ZERO)
    if total_width(overflow) > 1 - 8 * ell * eps:
        _fail("tiny high overflow leaves no side strip")
    r1w, r1h = ctx.r1
    r2w, r2h = ctx.r2
    r3w, r3h = ctx.r3
    if h_prime + r3h > 1 - r1h:
        _fail("overflow stack too tall for the reserved strips")
    spare = BinLayout(1, 1)
    x = ZERO
    for it in sorted(overflow, key=lambda s: (-s.height, s.id)):
        spare.add(it.id, x, ZERO)
        x += it.width
    wides = sorted((it for it in ctx.t_prime if _is_wide(it)),
                   key=lambda it: (-it.width, it.id))
    y = 1 - r1h
    for it in wides:
        if y + it.height > 1:
            _fail("wide leftovers overflow the top strip")
        spare.add(it.id, ZERO, y)
        y += it.height
    tall = [it for it in ctx.t_prime
            if not _is_wide(it) and it.height > HALF - 6 * ell * eps]
    x = 1 - r2w
    for it in sorted(tall, key=lambda s: (-s.height, s.id)):
        if x + it.width > 1 or it.height > r2h:
            _fail("tall leftovers overflow the right strip")
        spare.add(it.id, x, ZERO)
        x += it.width
    low_ids = {it.id for it in wides} | {it.id for it in tall}
    low = [it for it in ctx.t_prime if it.id not in low_ids]
    if low:
        inner = _steinberg(low, r3w, r3h)
        for p in inner.placements:
            spare.add(p.item_id, p.x, p.y + h_prime)
    ctx.c_bins[0] = overflow + ctx.t_prime
    ctx.special[("C", 0)] = spare
    ctx.t_prime = []
    return _realize(ctx, cache, limit)


def _thin_high_repack(ctx, cache, limit):
    """All highs outside the knapsack bin are thin: rebuild the high bins
    as dense stacks and push what remains into a light wide-side bin."""
    ell, eps = ctx.ell, ctx.eps
    packed_first = {it.id for it in ctx.b_bins[0]}
    highs = sorted(
        (it for it in ctx.instance.items if _is_high(it) and it.id not in packed_first),
        key=lambda it: (-it.height, it.id),
    )
    stacks = [[] for _ in range(ell)]
    widths = [ZERO] * ell
    pos = 0
    spilled = []
    for it in highs:
        while pos < ell and widths[pos] + it.width > 1:
            pos += 1
        if pos == ell:
            spilled.append(it)
        else:
            stacks[pos].append(it)
            widths[pos] += it.width
    ctx.c_bins = stacks
    ctx.special = {k: v for k, v in ctx.special.items() if k[0] != "C"}
    keep = [it for it in ctx.t_prime if not _is_high(it)]
    ctx.t_prime = sorted(keep + spilled, key=lambda it: it.id)
    h_prime = min((it.height for it in stacks[ell - 1]), default=ZERO)
    if ctx.t_prime:
        bound = 1 - h_prime - 10 * ell * ell * eps
        for i in range(1, ell):
            if vol(ctx.b_bins[i]) > bound:
                continue
            try:
                layout = steinberg_pack(ctx.b_bins[i] + ctx.t_prime, 1, 1)
            except ConditionViolated:
                continue
            ctx.b_bins[i] = ctx.b_bins[i] + ctx.t_prime
            ctx.special[("B", i)] = layout
            ctx.t_prime = []
            break
        else:
            _fail("no wide-side bin can absorb the repack leftovers")
    return _realize(ctx, cache, limit)


def _case_wide_heavy(ctx, cache, limit, trace=None):
    """Only the wide side filled up.  Small items migrate from the wide
    bins to the high bins until the tiny wides fit, or until the roles
    flip entirely and the transposed problem lands in an earlier case."""
    ell, eps = ctx.ell, ctx.eps
    if not any(_is_wide(it) for it in ctx.t_prime):
        if trace is not None:
            trace["subcase"] = "plain"
        return _distribute_rest(ctx, cache, limit)

    packed_first = {it.id for it in ctx.b_bins[0]}
    for i in range(1, ell):
        ctx.c_bins[i] = [it for it in ctx.c_bins[i] if it.volume > eps]
    pool_high = sorted(
        (it for it in ctx.instance.items
         if _is_high(it) and it.volume <= eps and it.id not in packed_first),
        key=lambda it: (-it.height, it.id),
    )
    pool_wide = sorted((it for it in ctx.t_prime if _is_wide(it)),
                       key=lambda it: (-it.width, it.id))
    tiny_small = [it for it in ctx.t_prime
                  if not _is_wide(it) and not _is_high(it)]

    def regreedy(extra_bin=None, extra_item=None):
        placed = [[] for _ in range(ell)]
        leftover = []
        caps = [vol(c) for c in ctx.c_bins]
        if extra_bin is not None:
            caps[extra_bin] += extra_item.volume
        pos = 1
        for it in pool_high:
            while pos < ell and caps[pos] + it.volume > HALF:
                pos += 1
            if pos == ell:
                leftover.append(it)
            else:
                placed[pos].append(it)
                caps[pos] += it.volume
        return placed, leftover

    guard = sum(
        1 for i in range(1, ell) for it in ctx.b_bins[i]
        if not _is_wide(it) and not _is_high(it) and it.volume > eps
    ) + 1
    for _ in range(guard):
        adds, leftover = regreedy()
        movable = [
            (it, i)
            for i in range(1, ell)
            for it in ctx.b_bins[i]
            if not _is_wide(it) and not _is_high(it) and it.volume > eps
        ]
        if not movable:
            for i in range(1, ell):
                ctx.c_bins[i] = ctx.c_bins[i] + adds[i]
            ctx.t_prime = sorted(leftover + pool_wide + tiny_small,
                                 key=lambda it: it.id)
            if not any(_is_wide(it) or _is_high(it) for it in ctx.t_prime):
                if trace is not None:
                    trace["subcase"] = "drained"
                return _distribute_rest(ctx, cache, limit)
            if trace is not None:
                trace["subcase"] = "flip"
            return _flip_roles(ctx, limit, trace)
        movable.sort(key=lambda pair: (-pair[0].volume, pair[0].id))
        it, i = movable[0]
        _, leftover_after = regreedy(extra_bin=i, extra_item=it)
        if leftover_after:
            # moving this item would strand a tiny high item
            ctx.b_bins[i] = [r for r in ctx.b_bins[i] if r.id != it.id]
            for j in range(1, ell):
                ctx.c_bins[j] = ctx.c_bins[j] + adds[j]
            ctx.c_bins[0] = [it]
            rest = sorted(leftover + pool_wide + tiny_small,
                          key=lambda t: (-t.volume, t.id))
            vol_c1 = it.volume
            vol_ci = vol(ctx.c_bins[i])
            missing = []
            for t in rest:
                if not _is_wide(t) and vol_c1 + t.volume <= HALF:
                    ctx.c_bins[0].append(t)
                    vol_c1 += t.volume
                elif not _is_wide(t) and vol_ci + t.volume <= HALF:
                    ctx.c_bins[i].append(t)
                    vol_ci += t.volume
                else:
                    missing.append(t)
            if missing:
                _fail("stopping item leaves tinies without a half-full bin")
            ctx.t_prime = []
            if trace is not None:
                trace["subcase"] = "stop"
            return _realize(ctx, cache, limit)
        ctx.b_bins[i] = [r for r in ctx.b_bins[i] if r.id != it.id]
        ctx.c_bins[i] = ctx.c_bins[i] + [it]
        bvol = vol(ctx.b_bins[i])
        while pool_wide and bvol < HALF - eps:
            filler = pool_wide.pop(0)
            ctx.b_bins[i].append(filler)
            bvol += filler.volume
    raise GuessFailed("migration loop failed to settle")


def _flip_roles(ctx, limit, trace=None):
    """Transpose the whole state: the separated bins swap sides, the
    knapsack and spare bins stay put, and the earlier cases apply."""
    ell = ctx.ell
    if ctx.c_bins[0]:
        _fail("spare bin unexpectedly occupied before the flip")
    flipped = ConstContext(k=ctx.k, ell=ell)
    flipped.instance = transpose_instance(ctx.instance)
    by_id = {it.id: it for it in flipped.instance.items}
    flipped.assignment = tuple(
        tuple(by_id[it.id] for it in part) for part in ctx.assignment
    )
    flipped.b_bins = [[by_id[it.id] for it in ctx.b_bins[0]]]
    flipped.c_bins = [[]]
    for i in range(1, ell):
        flipped.b_bins.append([by_id[it.id] for it in ctx.c_bins[i]])
        flipped.c_bins.append([by_id[it.id] for it in ctx.b_bins[i]])
    flipped.b1_layout = transpose_layout(ctx.b1_layout)
    flipped.t_prime = [by_id[it.id] for it in ctx.t_prime]
    if trace is not None:
        trace["flipped"] = True
    fresh = {}
    thr = HALF - flipped.eps
    if vol(flipped.c_bins[ell - 1]) >= thr:
        if vol(flipped.b_bins[ell - 1]) >= thr:
            packed = _case_both_heavy(flipped, fresh, limit, trace)
        else:
            packed = _case_high_heavy(flipped, fresh, limit, trace)
    else:
        packed = _distribute_rest(flipped, fresh, limit)
    return transpose_packing(packed)


def pack_opt_const(instance, ell, k=3, *, exact_limit=10, enumeration_limit=12,
                   trace=None):
    """Pack an instance believed to need exactly ell bins into at most
    2*ell bins, or raise GuessFailed when no large-item assignment works.
    """
    if ell < 2:
        raise PreconditionViolated(f"ell must be at least 2, got {ell}")
    if not instance.items:
        return Packing([])
    eps = const_eps(k)
    large = [it for it in instance.items if it.volume > eps]
    cache = {}
    thr = HALF - eps
    limit_hits = 0
    last_error = None
    for assignment in enumerate_large_assignments(large, ell, enumeration_limit, cache):
        try:
            ctx = run_steps_1_to_4(instance, ell, assignment, k,
                                   exact_limit=exact_limit, cache=cache)
        except GuessFailed as exc:
            last_error = exc
            continue
        except InstanceTooLarge as exc:
            limit_hits += 1
            last_error = exc
            continue
        heavy_b = vol(ctx.b_bins[ell - 1]) >= thr
        heavy_c = vol(ctx.c_bins[ell - 1]) >= thr
        case_no = {(False, False): 1, (True, True): 2,
                   (False, True): 3, (True, False): 4}[(heavy_b, heavy_c)]
        sub = {} if trace is None else trace
        sub.pop("subcase", None)
        sub.pop("flipped", None)
        try:
            if not ctx.t_prime:
                packed = _realize(ctx, cache, exact_limit)
            elif case_no == 1:
                packed = _distribute_rest(ctx, cache, exact_limit)
            elif case_no == 2:
                packed = _case_both_heavy(ctx, cache, exact_limit, sub)
            elif case_no == 3:
                packed = _case_high_heavy(ctx, cache, exact_limit, sub)
            else:
                packed = _case_wide_heavy(ctx, cache, exact_limit, sub)
        except GuessFailed as exc:
            last_error = exc
            continue
        except InstanceTooLarge as exc:
            limit_hits += 1
            last_error = exc
            continue
        if trace is not None:
            trace["case"] = case_no
            trace["assignment"] = tuple(
                tuple(it.id for it in part) for part in assignment
            )
        return packed
    if limit_hits:
        raise InstanceTooLarge(
            f"every assignment failed and {limit_hits} hit a search limit "
            f"(last: {last_error})"
        )
    raise GuessFailed(
        f"no assignment of {len(large)} large items over {ell} bins packs "
        f"(last: {last_error})"
    )
