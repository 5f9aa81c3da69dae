"""Two-bin packing for instances that fit into a single bin.

Every guess is validated after construction; a guess that does not survive
validation raises GuessFailed so the caller can try the next branch (or
conclude the instance needs more than one bin).  No routine here ever
returns an unvalidated layout.
"""

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
from .errors import ConditionViolated, GuessFailed, InstanceTooLarge, PreconditionViolated
from .geometry import (
    HALF,
    BinLayout,
    Instance,
    Packing,
    scalar,
    transpose_instance,
    transpose_layout,
    transpose_packing,
    validate_bin,
    validate_packing,
)
from .knapsack import max_area_pack
from .steinberg import steinberg_pack


def _merge(target: BinLayout, sub: BinLayout, dx, dy):
    for p in sub.placements:
        target.add(p.item_id, p.x + dx, p.y + dy)


def _checked(packing, instance, label):
    report = validate_packing(packing, instance)
    if not report.ok:
        raise GuessFailed(f"{label}: candidate packing failed validation: {report.violations[:3]}")
    return packing


def pack_small_height(instance: Instance, delta, eps, exact_limit=10) -> Packing:
    """Two bins when the wide items above the width cutoff have a low stack.

    Bin 1 carries the near-full-height items plus a max-area selection of the
    rest; bin 2 floors the leftover cutoff-wide items and covers everything
    else with the area-condition packer.
    """
    delta, eps = scalar(delta), scalar(eps)
    if not (eps < delta <= HALF):
        raise PreconditionViolated(f"delta {delta} outside (eps, 1/2]")
    gamma = delta_threshold(delta, eps)
    items = instance.items
    cutoff_wide = [it for it in items if it.width > 1 - delta]
    if total_height(cutoff_wide) > gamma:
        raise PreconditionViolated("stack of cutoff-wide items exceeds the threshold")

    tall = sorted((it for it in items if it.height > 1 - gamma), key=lambda it: (-it.height, it.id))
    tall_w = total_width(tall)
    if tall_w > 1:
        raise GuessFailed("near-full-height items wider than the bin together")
    bin1 = BinLayout(1, 1)
    x = Fraction(0)
    for it in tall:
        bin1.add(it.id, x, 0)
        x += it.width
    tall_ids = {it.id for it in tall}
    pool = [it for it in items if it.id not in tall_ids]

    selected_ids = set()
    region_w = 1 - tall_w
    if region_w > 0 and pool:
        picked = max_area_pack(pool, region_w, 1, eps, exact_limit=exact_limit)
        _merge(bin1, picked.layout, tall_w, 0)
        selected_ids = set(picked.layout.item_ids())

    leftover = [it for it in pool if it.id not in selected_ids]
    floor = sorted((it for it in leftover if it.width > 1 - delta),
                   key=lambda it: (-it.width, it.id))
    bin2 = BinLayout(1, 1)
    y = Fraction(0)
    for it in floor:
        bin2.add(it.id, 0, y)
        y += it.height
    floor_ids = {it.id for it in floor}
    rest = [it for it in leftover if it.id not in floor_ids]
    if rest:
        try:
            sub = steinberg_pack(rest, 1, 1 - y)
        except ConditionViolated as exc:
            raise GuessFailed(f"second bin area condition failed: {exc}") from exc
        _merge(bin2, sub, 0, y)
    return _checked(Packing([bin1, bin2]), instance, "small-height branch")


def _top_left_positions(chosen):
    """x offsets for a top-aligned run, tallest first."""
    out = []
    x = Fraction(0)
    for it in sorted(chosen, key=lambda it: (-it.height, it.id)):
        out.append((it, x, 1 - it.height))
        x += it.width
    return out


def pack_wide_high(wide, high, eps, max_enumeration=16):
    """One bin holding all wide items plus a high subset of guaranteed width.

    Candidate subsets of the not-thin high items are tried in decreasing
    total-width order; thin items are greedily merged into the top run.
    Returns (layout, chosen_high) with w(chosen) > w(high)/2 - eps.
    """
    eps = scalar(eps)
    wide = list(wide)
    high = list(high)
    bound = total_width(high) / 2 - eps
    substantial = [it for it in high if it.width >= eps]
    thin = sorted((it for it in high if it.width < eps), key=lambda it: (-it.height, it.id))
    thin_w = total_width(thin)
    if len(substantial) > max_enumeration:
        raise InstanceTooLarge(f"{len(substantial)} candidate high items to enumerate")

    candidates = []
    for mask in range(1 << len(substantial)):
        subset = [substantial[i] for i in range(len(substantial)) if mask >> i & 1]
        candidates.append((-total_width(subset), tuple(it.id for it in subset), subset))
    candidates.sort(key=lambda t: (t[0], t[1]))

    all_items = {it.id: it for it in wide + high}

    def try_layout(chosen):
        layout = BinLayout(1, 1)
        y = Fraction(0)
        for it in sorted(wide, key=lambda it: (-it.width, it.id)):
            layout.add(it.id, 1 - it.width, y)
            y += it.height
        for it, x, ytop in _top_left_positions(chosen):
            layout.add(it.id, x, ytop)
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


def pack_large_w(instance: Instance, eps, trace=None) -> Packing:
    """Two bins when both the wide stack and the high row exceed half."""
    eps = scalar(eps)
    classes = classify(instance)
    if not classes.wide or not classes.high:
        raise PreconditionViolated("needs both wide and high items")
    hw = total_height(classes.wide)
    wh = total_width(classes.high)
    if not (hw >= wh > HALF):
        raise PreconditionViolated(f"needs h(W) >= w(H) > 1/2, got {hw}, {wh}")

    bin1, chosen = pack_wide_high(classes.wide, classes.high_only, eps)
    chosen_ids = {it.id for it in chosen}
    leftover = sorted((it for it in classes.high_only if it.id not in chosen_ids),
                      key=lambda it: (-it.height, it.id))
    lw = total_width(leftover)
    if lw > HALF:
        raise GuessFailed("leftover high items wider than half the bin")
    bin2 = BinLayout(1, 1)
    x = Fraction(0)
    for it in leftover:
        bin2.add(it.id, x, 0)
        x += it.width
    if classes.small:
        try:
            sub = steinberg_pack(classes.small, 1 - lw, 1)
        except ConditionViolated as exc:
            raise GuessFailed(f"second bin area condition failed: {exc}") from exc
        _merge(bin2, sub, lw, 0)
    if trace is not None:
        trace["chosen_width"] = total_width(chosen)
    return _checked(Packing([bin1, bin2]), instance, "wide-branch")


def pack_stack_plus_small(wide, rest) -> BinLayout:
    """Wide stack on the floor, small items in the strip above it."""
    wide = list(wide)
    rest = list(rest)
    hw = total_height(wide)
    if hw > 1:
        raise PreconditionViolated("stack taller than the bin")
    for it in rest:
        if it.width > HALF or it.height > 1 - hw:
            raise PreconditionViolated(f"item {it.id} does not fit the strip above the stack")
    if vol(rest) > HALF - hw / 2:
        raise PreconditionViolated("strip volume bound exceeded")
    layout = BinLayout(1, 1)
    y = Fraction(0)
    for it in sorted(wide, key=lambda it: (-it.width, it.id)):
        layout.add(it.id, 0, y)
        y += it.height
    if rest:
        sub = steinberg_pack(rest, 1, 1 - hw)
        _merge(layout, sub, 0, hw)
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


def pack_small_w(instance: Instance, eps, trace=None) -> Packing:
    """Two bins when the high row is at most half the bin wide.

    Bin 1 keeps the wide stack and receives corner items chosen by one of
    three volume cases; bin 2 is the high stack plus the remaining smalls.
    """
    eps = scalar(eps)
    classes = classify(instance)
    if not classes.wide or not classes.high:
        raise PreconditionViolated("needs both wide and high items")
    hw = total_height(classes.wide)
    wh = total_width(classes.high)
    if hw < wh or wh > HALF:
        raise PreconditionViolated(f"needs h(W) >= w(H) and w(H) <= 1/2, got {hw}, {wh}")
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
        y = Fraction(0)
        for it in stacked:
            layout.add(it.id, 1 - it.width, y)
            y += it.height
        return layout

    def finish(bin1, placed_ids, case):
        rest = [it for it in smalls if it.id not in placed_ids]
        try:
            bin2 = pack_stack_plus_small_transposed(classes.high_only, rest)
        except (PreconditionViolated, ConditionViolated) as exc:
            raise GuessFailed(f"case {case}: second bin failed: {exc}") from exc
        if trace is not None:
            trace["case"] = case
        return _checked(Packing([bin1, bin2]), instance, f"narrow-branch case {case}")

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
            x = Fraction(0)
            for it in half_tall:
                trial = BinLayout(1, 1, list(bin1.placements))
                trial.add(it.id, x, 1 - it.height)
                if not validate_bin(trial, items_by_id).ok:
                    break
                bin1 = trial
                placed.append(it)
                x += it.width
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
    try:
        bin1 = pack_stack_plus_small(classes.wide, group1)
        bin2 = pack_stack_plus_small_transposed(classes.high_only, group2)
    except (PreconditionViolated, ConditionViolated) as exc:
        raise GuessFailed(f"case 3: layout failed: {exc}") from exc
    if trace is not None:
        trace["case"] = 3
        trace["split_volumes"] = (vol1, vol2)
    return _checked(Packing([bin1, bin2]), instance, "narrow-branch case 3")


def pack_opt1(instance: Instance, eps, exact_limit=10, trace=None) -> Packing:
    """Pack a (presumed) single-bin instance into at most two bins.

    Tries the width-axis cutoff, the height-axis cutoff, then the branch for
    whichever of the wide/high aggregates dominates.  GuessFailed from every
    branch means the instance needs at least two bins; a branch that hits a
    size limit is skipped, and reported only if nothing later succeeds.
    """
    eps = scalar(eps)
    t = trace if trace is not None else {}
    if not instance.items:
        return Packing([])
    limit_hit = None

    delta = find_feasible_delta(instance, eps, axis="width")
    if delta is not None:
        try:
            packing = pack_small_height(instance, delta, eps, exact_limit=exact_limit)
            t["branch"] = "delta_width"
            t["delta"] = delta
            return packing
        except GuessFailed:
            pass
        except InstanceTooLarge as exc:
            limit_hit = exc
    flipped = transpose_instance(instance)
    delta = find_feasible_delta(instance, eps, axis="height")
    if delta is not None:
        try:
            # pack_small_height validated the transposed packing, and
            # transposing back keeps it valid
            packing = transpose_packing(pack_small_height(flipped, delta, eps,
                                                          exact_limit=exact_limit))
            t["branch"] = "delta_height"
            t["delta"] = delta
            return packing
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
            packing = pack_large_w(work, eps, trace=t)
            t["branch"] = "large_w"
        else:
            packing = pack_small_w(work, eps, trace=t)
            t["branch"] = "small_w"
    except PreconditionViolated as exc:
        if limit_hit is not None:
            raise limit_hit
        raise GuessFailed(f"no branch applies: {exc}") from exc
    except (GuessFailed, InstanceTooLarge):
        # a skipped cutoff branch might have worked with higher limits, so
        # the limit report takes precedence over a plain failure
        if limit_hit is not None:
            raise limit_hit
        raise
    if flip:
        packing = transpose_packing(packing)
        t["transposed"] = True
    return packing
