"""Packing for instances that need a small constant number of bins.

The solver guesses how the large items (area above eps) split across ell
bins, packs the first bin with the profit knapsack, separates wide from
high items in the remaining bins, and tops everything up with the tiny
items.  Four cases, keyed on how full the last pair of bins ended up,
decide where the leftover tinies go.  Every step is sure to succeed
when OPT = ell, so a failed check or a refused packer condition
(ConditionViolated) is a GuessFailed and the next assignment is tried;
a plain PreconditionViolated is a caller bug.  Packings are unvalidated:
`cli.pack_auto` validates the one it emits.  The returned packing's `path`
names the case (`case1`..`case4`), then the subcase and whether the roles
were flipped.
One UnitBinMemo per solve, on the instance's lattice (instance.grid, the
one pack_opt1 reads), serves every exact layout of the guesses: the
split of large from tiny items is an int test on its lattice, the
assignments grow their parts through it, and the profit knapsack of each
guess reads its lattice and probes through it.
"""

from dataclasses import dataclass, field
from fractions import Fraction
from operator import attrgetter

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
    Grid,
    Instance,
    Packing,
    transpose_instance,
    transpose_layout,
    transpose_packing,
)
from .knapsack import (
    ProfitItem,
    UnitBinMemo,
    canonical_partitions,
    max_profit_pack,
    unit_bin_layout,
)
from .steinberg import pack_no_high_half_area, pack_no_wide_half_area, steinberg_pack


def const_eps(k):
    # accuracy tied to the largest bin count the solver is asked to cover
    return Fraction(1, 40 * k ** 3 + 2)


@dataclass
class ConstContext:
    """Working state for one assignment guess.

    b_bins[0] is the knapsack bin, c_bins[0] the bin kept free for the
    case handlers.  Indices 1..ell-1 hold the separated wide/high sides
    of the guessed per-bin large sets.  cache is the UnitBinMemo of the
    instance's items and limit the exact-search limit, for every layout
    the guess asks of unit_bin_layout.
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
    cache: UnitBinMemo = None
    limit: int = 10

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
    cache = UnitBinMemo(Grid.of(items)) if cache is None else cache
    yield from canonical_partitions(items, ell, cache, enumeration_limit, labeled=1)


def _split_large(items, cache, eps):
    """(large, tiny): the items of area above eps and the others, each in
    item order, tested on the lattice of cache, a UnitBinMemo that holds
    them: w * h * q > p * d^2 for eps = p / q."""
    bound, q, sides = eps.numerator * cache.d ** 2, eps.denominator, cache.sides
    large, tiny = [], []
    for it in items:
        w, h = sides[it.id]
        (large if w * h * q > bound else tiny).append(it)
    return large, tiny


_volume = attrgetter("volume")
_width = attrgetter("width")


def _fill(items, bins, load, size, cap, slots, first_fit=False):
    """Deal items, in order, into bins[s] for s in slots while load[s] +
    size(item) stays within cap, and return the items that fit nowhere.
    Next fit moves on from a slot for good once an item overflows it;
    first fit tries every slot again for each item.  load is kept up to
    date in place."""
    left = []
    pos = 0
    for it in items:
        if first_fit:
            pos = 0
        while pos < len(slots) and load[slots[pos]] + size(it) > cap:
            pos += 1
        if pos == len(slots):
            left.append(it)
        else:
            bins[slots[pos]].append(it)
            load[slots[pos]] += size(it)
    return left


def _stack_of_highs(items):
    """Floor stack, tallest first; total width must stay within the bin."""
    ordered = sorted(items, key=lambda it: (-it.height, it.id))
    if total_width(ordered) > 1:
        raise GuessFailed(f"high stack width {total_width(ordered)} exceeds 1")
    out = BinLayout(1, 1)
    out.row(ordered, ZERO, ZERO)
    return out


def _layout_high_side(ctx, items):
    """Bin layout for a C side: a pure stack, the half-area packer, or an
    exact search over what must be a feasible large set."""
    if all(_is_high(it) for it in items):
        return _stack_of_highs(items)
    if vol(items) <= HALF and sum(1 for it in items if _is_wide(it) and not _is_big(it)) == 0:
        return pack_no_wide_half_area(items)
    layout = unit_bin_layout(items, ctx.cache, ctx.limit)
    if layout is None:
        raise GuessFailed("mixed high-side bin does not fit")
    return layout


def _layout_wide_side(ctx, items):
    if vol(items) <= HALF and sum(1 for it in items if _is_high(it) and not _is_big(it)) == 0:
        return pack_no_high_half_area(items)
    layout = unit_bin_layout(items, ctx.cache, ctx.limit)
    if layout is None:
        raise GuessFailed("wide-side bin does not fit")
    return layout


def _realize(ctx, *path):
    """Turn the per-bin item sets into a Packing along `path`."""
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
                layout = _layout_wide_side(ctx, items)
            else:
                layout = _layout_high_side(ctx, items)
            bins.append(layout)
    return Packing(bins, path)


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
    ctx = ConstContext(k=k, ell=ell, limit=exact_limit,
                       cache=UnitBinMemo(instance.grid) if cache is None else cache)
    eps = ctx.eps
    ctx.instance = instance
    ctx.assignment = tuple(tuple(part) for part in assignment)
    if len(ctx.assignment) != ell:
        raise PreconditionViolated(f"assignment has {len(ctx.assignment)} parts, wanted {ell}")
    tiny = _split_large(instance.items, ctx.cache, eps)[1]

    boosted = Fraction(1, 1) / eps + 1
    pitems = [ProfitItem(it, it.volume * boosted) for it in ctx.assignment[0]]
    pitems += [ProfitItem(it, it.volume) for it in tiny]
    # on the memo: the probe extends the first part's entry by the tinies,
    # which come after every large item in its search order
    result = max_profit_pack(pitems, 1, 1, eps * eps / (1 + 2 * eps), exact_limit,
                             cache=ctx.cache)
    packed_ids = {it.id for it in result.selected}
    if not all(it.id in packed_ids for it in ctx.assignment[0]):
        raise GuessFailed("profit bin dropped an assigned large item")
    ctx.b_bins = [list(result.selected)] + [[] for _ in range(ell - 1)]
    ctx.c_bins = [[] for _ in range(ell)]
    ctx.b1_layout = result.layout

    for i in range(1, ell):
        part = ctx.assignment[i]
        if whole_bin == i:
            layout = unit_bin_layout(part, ctx.cache, max(exact_limit, len(part)))
            if layout is None:
                raise GuessFailed("guessed bin content does not fit in one piece")
            ctx.b_bins[i] = list(part)
            ctx.special[("B", i)] = layout
        else:
            ctx.b_bins[i] = [it for it in part if not _is_high(it)]
            ctx.c_bins[i] = [it for it in part if _is_high(it)]

    loose = [it for it in tiny if it.id not in packed_ids]
    tiny_wide = sorted((it for it in loose if _is_wide(it)), key=lambda it: (-it.width, it.id))
    tiny_high = sorted((it for it in loose if _is_high(it)), key=lambda it: (-it.height, it.id))
    tiny_small = [it for it in loose if not _is_wide(it) and not _is_high(it)]

    wide_slots = [i for i in range(1, ell) if i != whole_bin]
    vols = [vol(b) for b in ctx.b_bins]
    left = _fill(tiny_wide, ctx.b_bins, vols, _volume, HALF, wide_slots)
    high_slots = list(range(1, ell)) + ([0] if whole_bin is not None else [])
    left += _fill(tiny_high, ctx.c_bins, [total_width(c) for c in ctx.c_bins], _width, 1,
                  high_slots)
    if whole_bin is None:
        left.extend(tiny_small)
    else:
        # the modified run deals the tiny smalls right away, by first fit
        # onto the loads that already count the tiny wides
        left += _fill(sorted(tiny_small, key=lambda t: (-t.volume, t.id)), ctx.b_bins, vols,
                      _volume, HALF, wide_slots, first_fit=True)

    ctx.t_prime = sorted(left, key=lambda it: it.id)
    return ctx


def _distribute_rest(ctx, *path):
    """Both last bins are light: no wide or high tinies are left, so the
    leftovers are spread over every bin but the knapsack one."""
    if any(_is_wide(it) or _is_high(it) for it in ctx.t_prime):
        raise GuessFailed("leftover tiny items still contain wide or high pieces")
    targets = ctx.b_bins[1:] + ctx.c_bins
    if _fill(sorted(ctx.t_prime, key=lambda t: (-t.volume, t.id)), targets,
             [vol(b) for b in targets], _volume, HALF, range(len(targets)), first_fit=True):
        raise GuessFailed("tiny leftovers exceed the free half-area capacity")
    return _realize(ctx, *path)


def _case_both_heavy(ctx):
    """Last bins on both sides are nearly half full; the spare bin takes
    the slack."""
    ell, eps = ctx.ell, ctx.eps
    last = ctx.c_bins[ell - 1]
    if vol(last) > HALF + (2 * ell - 2) * eps:
        if ctx.t_prime:
            raise GuessFailed("high side too full for any leftovers")
        return _realize(ctx, "full")

    shallow = [it for it in last if it.height <= Fraction(3, 4)]
    if total_width(shallow) >= (4 * ell - 3) * eps:
        # move the not-too-tall stack into the spare bin; what remains of
        # the last high bin is light enough to absorb the non-wide tinies
        keep = [it for it in last if it.height > Fraction(3, 4)]
        wides = sorted((it for it in ctx.t_prime if _is_wide(it)),
                       key=lambda it: (-it.width, it.id))
        others = [it for it in ctx.t_prime if not _is_wide(it)]
        ctx.c_bins[ell - 1] = keep + others
        ctx.special[("C", ell - 1)] = pack_no_wide_half_area(keep + others)
        spare = BinLayout(1, 1)
        spare.row(sorted(shallow, key=lambda s: (-s.height, s.id)), ZERO, ZERO)
        if spare.column(wides, ZERO, Fraction(3, 4)) > 1:
            raise GuessFailed("wide leftovers do not fit above the moved stack")
        ctx.c_bins[0] = shallow + wides
        ctx.special[("C", 0)] = spare
        return _realize(ctx, "shift")

    # every remaining stack item is thin, so all highs fit side by side
    towering = [it for it in last + ctx.t_prime if it.height > Fraction(3, 4)]
    if total_width(towering) > Fraction(2, 3) + (Fraction(16 * ell, 3) - 4) * eps:
        raise GuessFailed("tall items wider than the restack argument allows")
    highs = [it for it in last + ctx.t_prime if _is_high(it)]
    rest = [it for it in ctx.t_prime if not _is_high(it)]
    ctx.c_bins[ell - 1] = highs
    ctx.special[("C", ell - 1)] = _stack_of_highs(highs)
    if rest:
        ctx.c_bins[0] = rest
        ctx.special[("C", 0)] = steinberg_pack(rest, 1, 1)
    return _realize(ctx, "restack")


def _case_high_heavy(ctx):
    """Only the high side filled up; leftover tiny highs go to the spare
    bin, directly or after rebuilding the high bins."""
    ell, eps = ctx.ell, ctx.eps
    strand = sorted((it for it in ctx.t_prime if _is_high(it)),
                    key=lambda it: (-it.height, it.id))
    if total_width(strand) <= 1:
        ctx.c_bins[0] = ctx.c_bins[0] + strand
        ctx.t_prime = [it for it in ctx.t_prime if not _is_high(it)]
        return _distribute_rest(ctx, "spill")

    wide_enough = [
        j for j in range(1, ell)
        if total_width([it for it in ctx.assignment[j] if _is_high(it)]) > 10 * ell * eps
    ]
    if wide_enough:
        redo = run_steps_1_to_4(
            ctx.instance, ell, ctx.assignment, ctx.k,
            exact_limit=ctx.limit, whole_bin=wide_enough[0], cache=ctx.cache,
        )
        return _finish_rebuilt(redo).under("rebuild")
    return _thin_high_repack(ctx).under("thin")


def _finish_rebuilt(ctx):
    """After the rebuild run, the spare bin holds the tiny high overflow
    and takes the leftovers in three reserved strips."""
    ell, eps = ctx.ell, ctx.eps
    if not ctx.t_prime:
        return _realize(ctx)
    overflow = ctx.c_bins[0]
    h_prime = max((it.height for it in overflow), default=ZERO)
    if total_width(overflow) > 1 - 8 * ell * eps:
        raise GuessFailed("tiny high overflow leaves no side strip")
    r1w, r1h = ctx.r1
    r2w, r2h = ctx.r2
    r3w, r3h = ctx.r3
    if h_prime + r3h > 1 - r1h:
        raise GuessFailed("overflow stack too tall for the reserved strips")
    spare = BinLayout(1, 1)
    spare.row(sorted(overflow, key=lambda s: (-s.height, s.id)), ZERO, ZERO)
    wides = sorted((it for it in ctx.t_prime if _is_wide(it)),
                   key=lambda it: (-it.width, it.id))
    if spare.column(wides, ZERO, 1 - r1h) > 1:
        raise GuessFailed("wide leftovers overflow the top strip")
    tall = sorted((it for it in ctx.t_prime
                   if not _is_wide(it) and it.height > HALF - 6 * ell * eps),
                  key=lambda s: (-s.height, s.id))
    if spare.row(tall, 1 - r2w, ZERO) > 1 or any(it.height > r2h for it in tall):
        raise GuessFailed("tall leftovers overflow the right strip")
    low_ids = {it.id for it in wides} | {it.id for it in tall}
    low = [it for it in ctx.t_prime if it.id not in low_ids]
    if low:
        spare.merge(steinberg_pack(low, r3w, r3h), 0, h_prime)
    ctx.c_bins[0] = overflow + ctx.t_prime
    ctx.special[("C", 0)] = spare
    return _realize(ctx)


def _thin_high_repack(ctx):
    """All highs outside the knapsack bin are thin: rebuild the high bins
    as dense stacks and push what remains into a light wide-side bin."""
    ell, eps = ctx.ell, ctx.eps
    packed_first = {it.id for it in ctx.b_bins[0]}
    highs = sorted(
        (it for it in ctx.instance.items if _is_high(it) and it.id not in packed_first),
        key=lambda it: (-it.height, it.id),
    )
    stacks = [[] for _ in range(ell)]
    spilled = _fill(highs, stacks, [ZERO] * ell, _width, 1, range(ell))
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
            break
        else:
            raise GuessFailed("no wide-side bin can absorb the repack leftovers")
    return _realize(ctx)


def _case_wide_heavy(ctx):
    """Only the wide side filled up.  Small items migrate from the wide
    bins to the high bins until the tiny wides fit, or until the roles
    flip entirely and the transposed problem lands in an earlier case."""
    ell, eps = ctx.ell, ctx.eps
    if not any(_is_wide(it) for it in ctx.t_prime):
        return _distribute_rest(ctx, "plain")

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
        caps = [vol(c) for c in ctx.c_bins]
        if extra_bin is not None:
            caps[extra_bin] += extra_item.volume
        return placed, _fill(pool_high, placed, caps, _volume, HALF, range(1, ell))

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
                return _distribute_rest(ctx, "drained")
            return _flip_roles(ctx).under("flip")
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
                raise GuessFailed("stopping item leaves tinies without a half-full bin")
            return _realize(ctx, "stop")
        ctx.b_bins[i] = [r for r in ctx.b_bins[i] if r.id != it.id]
        ctx.c_bins[i] = ctx.c_bins[i] + [it]
        bvol = vol(ctx.b_bins[i])
        while pool_wide and bvol < HALF - eps:
            filler = pool_wide.pop(0)
            ctx.b_bins[i].append(filler)
            bvol += filler.volume
    raise GuessFailed("migration loop failed to settle")


def _flip_roles(ctx):
    """Transpose the whole state: the separated bins swap sides, the
    knapsack and spare bins stay put, and the earlier cases apply."""
    ell = ctx.ell
    if ctx.c_bins[0]:
        raise GuessFailed("spare bin unexpectedly occupied before the flip")
    flipped = ConstContext(k=ctx.k, ell=ell, limit=ctx.limit)
    flipped.instance = transpose_instance(ctx.instance)
    flipped.cache = UnitBinMemo(flipped.instance.grid)  # the same ids with swapped sides
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
    thr = HALF - flipped.eps
    if vol(flipped.c_bins[ell - 1]) >= thr:
        if vol(flipped.b_bins[ell - 1]) >= thr:
            packed = _case_both_heavy(flipped)
        else:
            packed = _case_high_heavy(flipped)
    else:
        packed = _distribute_rest(flipped)
    return transpose_packing(packed).under("flipped")


def pack_opt_const(instance, ell, k=3, *, exact_limit=10, enumeration_limit=12):
    """Pack an instance believed to need exactly ell bins into at most
    2*ell bins, or raise GuessFailed when no large-item assignment works.
    The packing's path starts with the case that packed it.
    """
    if ell < 2:
        raise PreconditionViolated(f"ell must be at least 2, got {ell}")
    if not instance.items:
        return Packing([])
    eps = const_eps(k)
    cache = UnitBinMemo(instance.grid)
    large = _split_large(instance.items, cache, eps)[0]
    thr = HALF - eps
    limit_hits = 0
    last_error = None
    for assignment in enumerate_large_assignments(large, ell, enumeration_limit, cache):
        try:
            ctx = run_steps_1_to_4(instance, ell, assignment, k,
                                   exact_limit=exact_limit, cache=cache)
            heavy_b = vol(ctx.b_bins[ell - 1]) >= thr
            heavy_c = vol(ctx.c_bins[ell - 1]) >= thr
            case_no = {(False, False): 1, (True, True): 2,
                       (False, True): 3, (True, False): 4}[(heavy_b, heavy_c)]
            if not ctx.t_prime:
                packed = _realize(ctx)
            elif case_no == 1:
                packed = _distribute_rest(ctx)
            elif case_no == 2:
                packed = _case_both_heavy(ctx)
            elif case_no == 3:
                packed = _case_high_heavy(ctx)
            else:
                packed = _case_wide_heavy(ctx)
        except GuessFailed as exc:
            last_error = exc
            continue
        except InstanceTooLarge as exc:
            limit_hits += 1
            last_error = exc
            continue
        return packed.under(f"case{case_no}")
    if limit_hits:
        raise InstanceTooLarge(
            f"every assignment failed and {limit_hits} hit a search limit "
            f"(last: {last_error})"
        )
    raise GuessFailed(
        f"no assignment of {len(large)} large items over {ell} bins packs "
        f"(last: {last_error})"
    )
