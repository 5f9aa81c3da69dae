"""Exact rectangle geometry: items, placements, layouts, validation.

All coordinates and sizes are `fractions.Fraction`.  Floats are rejected at
the boundary so rounding error cannot creep into any containment or overlap
decision.
"""

from dataclasses import dataclass, field
from fractions import Fraction

ZERO = Fraction(0)
HALF = Fraction(1, 2)
ONE = Fraction(1)


def scalar(value) -> Fraction:
    """Coerce a number to an exact Fraction.

    Accepts int, Fraction, and strings like "3/7" or "0.25" (parsed
    exactly).  Floats raise TypeError: they carry binary rounding noise
    and the solver depends on exact comparisons.
    """
    if isinstance(value, float):
        raise TypeError("floats are not allowed; pass a Fraction, int, or string")
    if isinstance(value, Fraction):
        return value
    if isinstance(value, (int, str)):
        return Fraction(value)
    raise TypeError(f"cannot interpret {value!r} as an exact scalar")


@dataclass(frozen=True)
class Item:
    """A rectangle to be packed.  Dimensions are fixed; no rotation."""

    id: int
    width: Fraction
    height: Fraction

    def __post_init__(self):
        object.__setattr__(self, "width", scalar(self.width))
        object.__setattr__(self, "height", scalar(self.height))
        if not (0 < self.width <= 1):
            raise ValueError(f"item {self.id}: width {self.width} outside (0, 1]")
        if not (0 < self.height <= 1):
            raise ValueError(f"item {self.id}: height {self.height} outside (0, 1]")

    @property
    def volume(self) -> Fraction:
        return self.width * self.height

    def transposed(self) -> "Item":
        return Item(self.id, self.height, self.width)


@dataclass(frozen=True)
class Placement:
    """An item's bottom-left corner inside some bin."""

    item_id: int
    x: Fraction
    y: Fraction

    def __post_init__(self):
        object.__setattr__(self, "x", scalar(self.x))
        object.__setattr__(self, "y", scalar(self.y))


@dataclass
class BinLayout:
    """Placements inside one rectangular region (usually the unit bin)."""

    width: Fraction = Fraction(1)
    height: Fraction = Fraction(1)
    placements: list = field(default_factory=list)

    def __post_init__(self):
        self.width = scalar(self.width)
        self.height = scalar(self.height)

    def add(self, item_id: int, x, y):
        self.placements.append(Placement(item_id, scalar(x), scalar(y)))

    def item_ids(self):
        return [p.item_id for p in self.placements]


@dataclass
class Packing:
    bins: list = field(default_factory=list)

    def item_ids(self):
        out = []
        for b in self.bins:
            out.extend(b.item_ids())
        return out


@dataclass
class Instance:
    items: list

    def __post_init__(self):
        seen = set()
        for it in self.items:
            if it.id in seen:
                raise ValueError(f"duplicate item id {it.id}")
            seen.add(it.id)

    def by_id(self) -> dict:
        return {it.id: it for it in self.items}


@dataclass(frozen=True)
class Violation:
    kind: str  # unknown_item | duplicate_item | out_of_bounds | overlap | missing_item
    item_ids: tuple
    detail: str


@dataclass
class ValidationReport:
    violations: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def add(self, kind, item_ids, detail):
        self.violations.append(Violation(kind, tuple(item_ids), detail))


def _interiors_intersect(ax, ay, aw, ah, bx, by, bw, bh) -> bool:
    # open-interval test on both axes; shared edges are fine
    return ax < bx + bw and bx < ax + aw and ay < by + bh and by < ay + ah


def validate_bin(layout: BinLayout, items_by_id: dict, report=None) -> ValidationReport:
    """Check one bin: known ids, no repeats, inside the region, no overlap.

    Every violation is reported, not just the first.
    """
    if report is None:
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
            if _interiors_intersect(
                ap.x, ap.y, ai.width, ai.height, bp.x, bp.y, bi.width, bi.height
            ):
                report.add(
                    "overlap",
                    (ai.id, bi.id),
                    f"items {ai.id} and {bi.id} share interior area",
                )
    return report


def validate_packing(packing: Packing, instance: Instance) -> ValidationReport:
    """validate_bin over all bins, plus exact id coverage across the packing."""
    report = ValidationReport()
    by_id = instance.by_id()
    for layout in packing.bins:
        validate_bin(layout, by_id, report)
    placed = {}
    for layout in packing.bins:
        for p in layout.placements:
            placed[p.item_id] = placed.get(p.item_id, 0) + 1
    for it in instance.items:
        count = placed.get(it.id, 0)
        if count == 0:
            report.add("missing_item", (it.id,), f"item {it.id} is not placed")
        elif count > 1:
            # repeats inside one bin were already flagged; this catches cross-bin repeats
            bins_with = sum(1 for b in packing.bins if it.id in b.item_ids())
            if bins_with > 1:
                report.add("duplicate_item", (it.id,), f"item {it.id} appears in {bins_with} bins")
    return report


def transpose_instance(instance: Instance) -> Instance:
    return Instance([it.transposed() for it in instance.items])


def transpose_layout(layout: BinLayout) -> BinLayout:
    out = BinLayout(layout.height, layout.width)
    for p in layout.placements:
        out.placements.append(Placement(p.item_id, p.y, p.x))
    return out


def transpose_packing(packing: Packing) -> Packing:
    return Packing([transpose_layout(b) for b in packing.bins])
