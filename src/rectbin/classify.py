"""Item classes (wide/high/small/big), delta sets, and the threshold search.

An item is wide when its width exceeds 1/2 strictly, high when its height
does, big when both do, small when neither does.  The delta search looks for
a cutoff so that the near-full-width items stack into a short strip; its
threshold gamma = (delta - eps) / (1 + 2 delta) never exceeds 1/4.
"""

from dataclasses import dataclass
from fractions import Fraction

from .errors import PreconditionViolated
from .geometry import HALF, Instance

# fixed constant of the area guarantee
XI = Fraction(3, 40)

EPS_LIMIT = Fraction(1, 200)


def vol(items) -> Fraction:
    return sum((it.width * it.height for it in items), Fraction(0))


def total_width(items) -> Fraction:
    return sum((it.width for it in items), Fraction(0))


def total_height(items) -> Fraction:
    return sum((it.height for it in items), Fraction(0))


def w_max(items) -> Fraction:
    return max((it.width for it in items), default=Fraction(0))


def h_max(items) -> Fraction:
    return max((it.height for it in items), default=Fraction(0))


@dataclass
class ItemClasses:
    items: list
    wide: list  # w > 1/2 (bigs included)
    high: list  # h > 1/2 (bigs included)
    small: list  # w <= 1/2 and h <= 1/2
    big: list  # wide and high at once

    @property
    def wide_only(self):
        return [it for it in self.wide if it.height <= HALF]

    @property
    def high_only(self):
        return [it for it in self.high if it.width <= HALF]


def classify(instance: Instance) -> ItemClasses:
    wide, high, small, big = [], [], [], []
    for it in instance.items:
        is_wide = it.width > HALF
        is_high = it.height > HALF
        if is_wide:
            wide.append(it)
        if is_high:
            high.append(it)
        if is_wide and is_high:
            big.append(it)
        if not is_wide and not is_high:
            small.append(it)
    return ItemClasses(list(instance.items), wide, high, small, big)


@dataclass
class DeltaSets:
    delta: Fraction
    gamma: Fraction
    w_delta: list  # width > 1 - delta
    h_delta: list  # height > 1 - delta


def delta_threshold(delta: Fraction, eps: Fraction) -> Fraction:
    return (delta - eps) / (1 + 2 * delta)


def delta_sets(instance: Instance, delta, eps) -> DeltaSets:
    w_d = [it for it in instance.items if it.width > 1 - delta]
    h_d = [it for it in instance.items if it.height > 1 - delta]
    return DeltaSets(delta, delta_threshold(delta, eps), w_d, h_d)


def _check_eps(eps):
    if not (0 < eps < EPS_LIMIT):
        raise ValueError(f"eps must lie in (0, 1/200), got {eps}")


def find_feasible_delta(instance: Instance, eps, axis="width"):
    """Smallest candidate delta whose near-full stack fits under gamma.

    Candidates are 1 - w_i for items with w_i > 1/2 (kept when inside
    (eps, 1/2)) plus 1/2 itself; the stack height h(W_delta) is a step
    function that only changes at those points, so nothing else needs
    checking.  Returns None when every candidate fails.  axis="height"
    runs the transposed search w(H_delta) <= gamma.
    """
    _check_eps(eps)
    if axis == "width":
        along = lambda it: it.width
        across = lambda it: it.height
    elif axis == "height":
        along = lambda it: it.height
        across = lambda it: it.width
    else:
        raise ValueError(f"axis must be 'width' or 'height', got {axis!r}")
    candidates = {HALF}
    for it in instance.items:
        if along(it) > HALF:
            d = 1 - along(it)
            if eps < d < HALF:
                candidates.add(d)
    for d in sorted(candidates):
        stack = sum((across(it) for it in instance.items if along(it) > 1 - d), Fraction(0))
        if stack <= delta_threshold(d, eps):
            return d
    return None


def area_guarantee_check(classes: ItemClasses, eps) -> bool:
    """Whether Vol(W u H) >= 2 xi + (w(H) + h(W)) / 2.

    Only meaningful when the delta search failed on both axes; that is
    re-verified here and violated callers get an error instead of a
    misleading boolean.
    """
    inst = Instance(list(classes.items))
    if find_feasible_delta(inst, eps, "width") is not None:
        raise PreconditionViolated("width-axis delta search succeeds; area bound not applicable")
    if find_feasible_delta(inst, eps, "height") is not None:
        raise PreconditionViolated("height-axis delta search succeeds; area bound not applicable")
    union = [it for it in classes.items if it.width > HALF or it.height > HALF]
    return vol(union) >= 2 * XI + (total_width(classes.high) + total_height(classes.wide)) / 2
