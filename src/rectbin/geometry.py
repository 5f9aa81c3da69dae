"""Exact rectangle geometry: items, placements, layouts, validation.

All coordinates and sizes are `fractions.Fraction`.  Floats are rejected at
the boundary so rounding error cannot creep into any containment or overlap
decision.  The validator makes those decisions on ints: each bin's values
times the least common multiple of their denominators, which keeps every
sum and comparison exact.
"""

import math
from dataclasses import dataclass, field
from fractions import Fraction

ZERO = Fraction(0)
HALF = Fraction(1, 2)
ONE = Fraction(1)


def lattice(items, *values) -> int:
    """The least common multiple of the denominators of every item side and
    of values: the spacing 1/d of the coarsest integer lattice that holds
    them all."""
    return math.lcm(*[q.denominator for q in values],
                    *[side.denominator for it in items for side in (it.width, it.height)])


def scaled(q: Fraction, d: int) -> int:
    """q * d as an int, for a multiple d of q's denominator: q on the
    integer lattice of spacing 1/d."""
    return q.numerator * (d // q.denominator)


def exact_sum(values) -> Fraction:
    """The sum of a list of Fractions, added as ints on the least common
    multiple of their denominators; Fraction(0) for an empty list."""
    d = math.lcm(*[q.denominator for q in values])
    return Fraction(sum([scaled(q, d) for q in values]), d)


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
    """A rectangle to be packed.  Dimensions are fixed; no rotation.

    `volume` (width * height) is computed once, as a plain attribute that is
    not a field, so equality, hashing and repr see only id and sides.  A
    side that is already a Fraction is kept as given; any other goes
    through scalar."""

    id: int
    width: Fraction
    height: Fraction

    def __post_init__(self):
        w, h = self.width, self.height
        if type(w) is not Fraction:
            w = scalar(w)
            object.__setattr__(self, "width", w)
        if type(h) is not Fraction:
            h = scalar(h)
            object.__setattr__(self, "height", h)
        # 0 < q <= 1 on numerator and denominator; a denominator is positive
        if not (0 < w.numerator <= w.denominator):
            raise ValueError(f"item {self.id}: width {w} outside (0, 1]")
        if not (0 < h.numerator <= h.denominator):
            raise ValueError(f"item {self.id}: height {h} outside (0, 1]")
        object.__setattr__(self, "volume", w * h)

    def transposed(self) -> "Item":
        return Item(self.id, self.height, self.width)


@dataclass(frozen=True)
class Placement:
    """An item's bottom-left corner inside some bin.  A coordinate that is
    not already a Fraction goes through scalar."""

    item_id: int
    x: Fraction
    y: Fraction

    def __post_init__(self):
        if type(self.x) is not Fraction:
            object.__setattr__(self, "x", scalar(self.x))
        if type(self.y) is not Fraction:
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
        self.placements.append(Placement(item_id, x, y))

    def row(self, items, x, y, top=False):
        """Place items left to right from x with their bottoms at y (their
        tops, with top); return the x past the last item."""
        for it in items:
            self.placements.append(Placement(it.id, x, y - it.height if top else y))
            x += it.width
        return x

    def column(self, items, x, y, right=False):
        """Stack items upward from y with their left edges at x (their
        right edges, with right); return the y above the last item."""
        for it in items:
            self.placements.append(Placement(it.id, x - it.width if right else x, y))
            y += it.height
        return y

    def merge(self, sub, dx, dy):
        """Copy sub's placements, shifted by (dx, dy)."""
        for p in sub.placements:
            self.placements.append(Placement(p.item_id, p.x + dx if dx else p.x,
                                             p.y + dy if dy else p.y))

    def item_ids(self):
        return [p.item_id for p in self.placements]


@dataclass
class Packing:
    """Bins in order.  `path` names the solver branch that built them,
    outermost decision first; it is not part of the packing's value."""

    bins: list = field(default_factory=list)
    path: tuple = field(default=(), compare=False)

    def under(self, *labels) -> "Packing":
        """The same bins, with `labels` put in front of the path."""
        return Packing(self.bins, labels + self.path)

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


def validate_bin(layout: BinLayout, items_by_id: dict, report=None) -> ValidationReport:
    """Check one bin: known ids, no repeats, inside the region, no overlap.

    Every violation is reported, not just the first.  Bounds and overlap
    are tested on ints: the region, the item sides and the placements
    times the least common multiple of their denominators.
    """
    if report is None:
        report = ValidationReport()
    placed = [(p, items_by_id.get(p.item_id)) for p in layout.placements]
    d = math.lcm(layout.width.denominator, layout.height.denominator,
                 *[q.denominator for p, it in placed if it is not None
                   for q in (p.x, p.y, it.width, it.height)])
    a, b = scaled(layout.width, d), scaled(layout.height, d)
    seen = set()
    boxes = []  # (item id, left, bottom, right, top) of the boxes that passed the id checks
    for p, it in placed:
        if it is None:
            report.add("unknown_item", (p.item_id,), f"item {p.item_id} not in instance")
            continue
        if p.item_id in seen:
            report.add("duplicate_item", (p.item_id,), f"item {p.item_id} placed twice in one bin")
            continue
        seen.add(p.item_id)
        x, y = scaled(p.x, d), scaled(p.y, d)
        right, top = x + scaled(it.width, d), y + scaled(it.height, d)
        if x < 0 or y < 0 or right > a or top > b:
            report.add(
                "out_of_bounds",
                (p.item_id,),
                f"item {p.item_id} at ({p.x}, {p.y}) leaves the {layout.width} x {layout.height} region",
            )
        boxes.append((it.id, x, y, right, top))
    for i, (ai, ax, ay, ar, at) in enumerate(boxes):
        for bi, bx, by, br, bt in boxes[i + 1:]:
            # open intervals on both axes; shared edges are fine
            if ax < br and bx < ar and ay < bt and by < at:
                report.add("overlap", (ai, bi), f"items {ai} and {bi} share interior area")
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
    return Packing([transpose_layout(b) for b in packing.bins], packing.path)
