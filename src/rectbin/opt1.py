"""Two-bin packing for instances that fit into a single bin.

Every branch is sure to succeed when OPT = 1, so a step that fails its
runtime check raises GuessFailed, and a packer whose condition does not
hold raises ConditionViolated, which is one; the caller then tries the
next branch (or concludes the instance needs more than one bin).
pack_small_height and pack_wide_high refuse, before their costliest step, a
guess that a later check is sure to fail; that check's GuessFailed would end
the guess anyway, so no output changes.
Packings are returned unvalidated: `cli.pack_auto` validates the one it
emits.  A returned packing's `path` names its branch.
"""

import math
from fractions import Fraction

from .classify import (
    XI,
    classify,
    delta_threshold,
    find_feasible_delta,
    total_height,
    total_width,
    vol,
)
from .errors import (
    ConditionViolated,
    GuessFailed,
    InstanceTooLarge,
    PreconditionViolated,
)
from .geometry import (
    HALF,
    BinLayout,
    Instance,
    Packing,
    scalar,
    scaled,
    transpose_instance,
    transpose_layout,
    transpose_packing,
    validate_bin,
)
from .knapsack import max_area_pack
from .steinberg import steinberg_pack


def pack_small_height(instance: Instance, delta, eps, exact_limit=10) -> Packing:
    """Two bins when the wide items above the width cutoff have a low stack.

    Bin 1 carries the near-full-height items plus a max-area selection of the
    rest; bin 2 floors the leftover cutoff-wide items and covers everything
    else with the area-condition packer.  Bin 1's selection has area at most
    region_w and bin 2's floor height y at most stack, so if
    2(vol(pool) - region_w) - 1 > stack, more than half of 1 x (1 - y) is left
    for the area packer; its ConditionViolated is raised before the knapsack.
    """
    delta, eps = scalar(delta), scalar(eps)
    if not (eps < delta <= HALF):
        raise PreconditionViolated(f"delta {delta} outside (eps, 1/2]")
    gamma = delta_threshold(delta, eps)
    width_cutoff, height_cutoff = 1 - delta, 1 - gamma
    items = instance.items
    cutoff_wide = [it for it in items if it.width > width_cutoff]
    stack = total_height(cutoff_wide)
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
    # 2(vol(pool) - region_w) - 1 > stack, as one int test on the lattice
    # of the pool's areas, region_w and stack
    d = math.lcm(region_w.denominator, stack.denominator,
                 *[it.volume.denominator for it in pool])
    area = sum([scaled(it.volume, d) for it in pool])
    if 2 * area - 2 * scaled(region_w, d) - d > scaled(stack, d):
        raise ConditionViolated("pool area exceeds what bin 1 and bin 2's area condition hold")
    if region_w > 0 and pool:
        picked = max_area_pack(pool, region_w, 1, eps, exact_limit=exact_limit)
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
        bin2.merge(steinberg_pack(rest, 1, 1 - y), 0, y)
    return Packing([bin1, bin2])


# most not-thin high items whose subsets pack_wide_high enumerates
MAX_ENUMERATION = 16


def pack_wide_high(wide, high, eps):
    """One bin holding all wide items plus a high subset of guaranteed width.

    Candidate subsets of the not-thin high items are tried in decreasing
    total-width order; thin items are greedily merged into the top run.
    Returns (layout, chosen_high) with w(chosen) > w(high)/2 - eps.  A wide
    stack taller than the bin fails validation with every subset, so it raises
    GuessFailed before the enumeration (InstanceTooLarge still comes first).
    """
    eps = scalar(eps)
    wide = list(wide)
    high = list(high)
    bound = total_width(high) / 2 - eps
    substantial = [it for it in high if it.width >= eps]
    thin = sorted((it for it in high if it.width < eps), key=lambda it: (-it.height, it.id))
    thin_w = total_width(thin)
    if len(substantial) > MAX_ENUMERATION:
        raise InstanceTooLarge(f"{len(substantial)} candidate high items to enumerate")
    if total_height(wide) > 1:
        raise GuessFailed("wide stack taller than the bin")

    candidates = []
    for mask in range(1 << len(substantial)):
        subset = [substantial[i] for i in range(len(substantial)) if mask >> i & 1]
        candidates.append((-total_width(subset), tuple(it.id for it in subset), subset))
    candidates.sort(key=lambda t: (t[0], t[1]))

    all_items = {it.id: it for it in wide + high}

    def try_layout(chosen):
        layout = BinLayout(1, 1)
        layout.column(sorted(wide, key=lambda it: (-it.width, it.id)), 1, 0, right=True)
        layout.row(sorted(chosen, key=lambda it: (-it.height, it.id)), 0, 1, top=True)
        return layout if validate_bin(layout, all_items).ok else None

    for neg_w, _ids, subset in candidates:
        if -neg_w + thin_w <= bound:
            break  # no smaller subset can reach the guarantee either
        layout = try_layout(subset)
        if layout is None:
            continue
        chosen = list(subset)
        for t in thin:
            trial = try_layout(chosen + [t])
            if trial is not None:
                chosen = chosen + [t]
                layout = trial
        if total_width(chosen) > bound:
            return layout, chosen
    raise GuessFailed("no high subset wide enough fits with the wide stack")


def pack_large_w(instance: Instance, eps) -> Packing:
    """Two bins when both the wide stack and the high row exceed half."""
    eps = scalar(eps)
    classes = classify(instance)
    hw = total_height(classes.wide)
    wh = total_width(classes.high)
    if not (hw >= wh > HALF):  # implies both classes are present
        raise ConditionViolated(f"needs h(W) >= w(H) > 1/2, got {hw}, {wh}")

    bin1, chosen = pack_wide_high(classes.wide, classes.high_only, eps)
    chosen_ids = {it.id for it in chosen}
    leftover = sorted((it for it in classes.high_only if it.id not in chosen_ids),
                      key=lambda it: (-it.height, it.id))
    lw = total_width(leftover)
    if lw > HALF:
        raise GuessFailed("leftover high items wider than half the bin")
    bin2 = BinLayout(1, 1)
    bin2.row(leftover, 0, 0)
    if classes.small:
        bin2.merge(steinberg_pack(classes.small, 1 - lw, 1), lw, 0)
    return Packing([bin1, bin2])


def pack_stack_plus_small(wide, rest) -> BinLayout:
    """Wide stack on the floor, small items in the strip above it."""
    wide = list(wide)
    rest = list(rest)
    hw = total_height(wide)
    if hw > 1:
        raise ConditionViolated("stack taller than the bin")
    for it in rest:
        if it.width > HALF or it.height > 1 - hw:
            raise ConditionViolated(f"item {it.id} does not fit the strip above the stack")
    if vol(rest) > HALF - hw / 2:
        raise ConditionViolated("strip volume bound exceeded")
    layout = BinLayout(1, 1)
    layout.column(sorted(wide, key=lambda it: (-it.width, it.id)), 0, 0)
    if rest:
        layout.merge(steinberg_pack(rest, 1, 1 - hw), 0, hw)
    return layout


def pack_stack_plus_small_transposed(high, rest) -> BinLayout:
    """Mirror: high stack at the left, small items in the right strip."""
    flipped = pack_stack_plus_small([it.transposed() for it in high],
                                    [it.transposed() for it in rest])
    return transpose_layout(flipped)


def _stack_omega(stacked):
    """Greatest width placed above half height; 1/2 for a low stack."""
    y = Fraction(0)
    for it in stacked:  # non-increasing width
        y += it.height
        if y > HALF:
            return it.width
    return HALF


def pack_small_w(instance: Instance, eps) -> Packing:
    """Two bins when the high row is at most half the bin wide.

    Bin 1 keeps the wide stack and receives corner items chosen by one of
    three volume cases, named `case1`..`case3` on the packing's path; bin 2
    is the high stack plus the remaining smalls.
    """
    eps = scalar(eps)
    classes = classify(instance)
    if not classes.wide or not classes.high:
        raise ConditionViolated("needs both wide and high items")
    hw = total_height(classes.wide)
    wh = total_width(classes.high)
    if hw < wh or wh > HALF:
        raise ConditionViolated(f"needs h(W) >= w(H) and w(H) <= 1/2, got {hw}, {wh}")
    if hw > 1:
        raise GuessFailed("wide stack taller than the bin")

    smalls = classes.small
    stacked = sorted(classes.wide, key=lambda it: (-it.width, it.id))
    omega = _stack_omega(stacked)
    half_tall = sorted((it for it in smalls if 1 - hw < it.height <= HALF),
                       key=lambda it: (-it.width, it.id))
    half_tall_ids = {it.id for it in half_tall}
    by_area = sorted((it for it in smalls if it.id not in half_tall_ids),
                     key=lambda it: (-it.volume, it.id))
    r1 = by_area[0] if by_area else None
    r2 = by_area[1] if len(by_area) > 1 else None
    corner_vol = (r1.volume if r1 else Fraction(0)) + (r2.volume if r2 else Fraction(0))
    target = (1 - omega) / 2

    items_by_id = instance.by_id()

    def right_stack_bin():
        layout = BinLayout(1, 1)
        layout.column(stacked, 1, 0, right=True)
        return layout

    def finish(bin1, placed_ids, case):
        rest = [it for it in smalls if it.id not in placed_ids]
        bin2 = pack_stack_plus_small_transposed(classes.high_only, rest)
        return Packing([bin1, bin2], (f"case{case}",))

    if total_width(half_tall) >= target:
        # case 1: the half-tall band is wide enough for the top-left corner
        bin1 = right_stack_bin()
        wide_enough = [it for it in half_tall if it.width > target]
        placed = []
        if wide_enough:
            it = wide_enough[0]
            bin1.add(it.id, 0, 1 - it.height)
            placed = [it]
            if not validate_bin(bin1, items_by_id).ok:
                raise GuessFailed("case 1: corner item clashes with the wide stack")
        else:
            x = 0
            for it in half_tall:
                x = bin1.row([it], x, 1, top=True)
                if not validate_bin(bin1, items_by_id).ok:
                    bin1.placements.pop()
                    break
                placed.append(it)
            if total_width(placed) < target:
                raise GuessFailed("case 1: top run blocked before reaching the target width")
        return finish(bin1, {it.id for it in placed}, 1)

    if corner_vol >= HALF - 2 * XI - hw / 2:
        # case 2: two largest leftovers carry enough volume to the corners
        bin1 = right_stack_bin()
        placed = []
        if r1 is not None:
            bin1.add(r1.id, 0, 1 - r1.height)
            placed.append(r1)
        if r2 is not None:
            bin1.add(r2.id, 1 - r2.width, 1 - r2.height)
            placed.append(r2)
        if not validate_bin(bin1, items_by_id).ok:
            raise GuessFailed("case 2: corner items clash")
        return finish(bin1, {it.id for it in placed}, 2)

    # case 3: split the smalls by volume between the two bins
    c1 = HALF - hw / 2
    c2 = HALF - wh / 2
    group1 = [r1] if r1 is not None else []
    group2 = list(half_tall)
    vol1 = vol(group1)
    vol2 = vol(group2)
    if vol1 > c1 or vol2 > c2:
        raise GuessFailed("case 3: seed volumes already exceed the capacities")
    pool = [it for it in by_area if r1 is None or it.id != r1.id]
    for it in pool:
        rem1 = c1 - vol1
        rem2 = c2 - vol2
        if rem1 >= rem2:
            side, rem = 1, rem1
        else:
            side, rem = 2, rem2
        if it.volume > rem:
            tight = it.volume < 2 * XI and vol1 + vol2 > c1 + c2 - 2 * XI
            raise GuessFailed(
                f"case 3: item {it.id} fits neither side"
                f" (within the one-bin contradiction bound: {tight})"
            )
        if side == 1:
            group1.append(it)
            vol1 += it.volume
        else:
            group2.append(it)
            vol2 += it.volume
    bin1 = pack_stack_plus_small(classes.wide, group1)
    bin2 = pack_stack_plus_small_transposed(classes.high_only, group2)
    return Packing([bin1, bin2], ("case3",))


def pack_opt1(instance: Instance, eps, exact_limit=10) -> Packing:
    """Pack a (presumed) single-bin instance into at most two bins.

    Tries the width-axis cutoff, the height-axis cutoff, then the branch for
    whichever of the wide/high aggregates dominates; the packing's path
    starts with `delta_width`, `delta_height`, `large_w` or `small_w`.
    GuessFailed from every branch, a refused packer condition included,
    means the instance needs at least two bins; a branch that hits a size
    limit is skipped, and reported only if nothing later succeeds.  A plain
    PreconditionViolated is a caller bug and passes through.  The packing
    is not validated here.
    """
    eps = scalar(eps)
    if not instance.items:
        return Packing([])
    limit_hit = None

    delta = find_feasible_delta(instance, eps)
    if delta is not None:
        try:
            packing = pack_small_height(instance, delta, eps, exact_limit=exact_limit)
            return packing.under("delta_width")
        except GuessFailed:
            pass
        except InstanceTooLarge as exc:
            limit_hit = exc
    flipped = transpose_instance(instance)
    delta = find_feasible_delta(flipped, eps)
    if delta is not None:
        try:
            packing = pack_small_height(flipped, delta, eps, exact_limit=exact_limit)
            return transpose_packing(packing).under("delta_height")
        except GuessFailed:
            pass
        except InstanceTooLarge as exc:
            limit_hit = exc

    classes = classify(instance)
    work = instance
    flip = total_height(classes.wide) < total_width(classes.high)
    if flip:
        work = flipped
        classes = classify(work)
    try:
        if total_width(classes.high) > HALF:
            packing = pack_large_w(work, eps).under("large_w")
        else:
            packing = pack_small_w(work, eps).under("small_w")
    except (GuessFailed, InstanceTooLarge):
        # a skipped cutoff branch might have worked with higher limits, so
        # the limit report takes precedence over a plain failure
        if limit_hit is not None:
            raise limit_hit
        raise
    return transpose_packing(packing) if flip else packing
