import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rectbin.fileio import parse_packing, serialize_packing
from rectbin.geometry import (
    BinLayout,
    Instance,
    Item,
    Packing,
    Placement,
    scalar,
    transpose_instance,
    transpose_layout,
    transpose_packing,
    validate_bin,
    validate_packing,
)
from support import (
    dims_strategy,
    independent_bin_check,
    make_instance,
    rational,
    reference_validate_bin,
)


def test_scalar_accepts_exact_forms():
    assert scalar(1) == 1
    assert scalar("3/7") == Fraction(3, 7)
    assert scalar("0.25") == Fraction(1, 4)
    assert scalar(Fraction(2, 5)) == Fraction(2, 5)


def test_scalar_rejects_floats():
    with pytest.raises(TypeError):
        scalar(0.25)


def test_item_bounds_enforced():
    with pytest.raises(ValueError):
        Item(0, Fraction(0), Fraction(1, 2))
    with pytest.raises(ValueError):
        Item(0, Fraction(1, 2), Fraction(3, 2))
    with pytest.raises(TypeError):
        Item(0, 0.5, Fraction(1, 2))


@pytest.mark.parametrize("w,h,ok", [
    ("1", "1", True), ("1/1", "2/2", True), ("999983/999984", "1/999983", True),
    ("0", "1/2", False), ("0/7", "1/2", False), ("-1/2", "1/2", False),
    ("1/2", "1000001/1000000", False), ("3/2", "1/2", False), ("1/2", "2", False),
])
def test_item_bounds_on_numerator_and_denominator(w, h, ok):
    w, h = Fraction(w), Fraction(h)
    if ok:
        Item(0, w, h)
    else:
        side, value = ("width", w) if not 0 < w <= 1 else ("height", h)
        with pytest.raises(ValueError, match=rf"item 0: {side} {value} outside \(0, 1\]"):
            Item(0, w, h)


def test_item_volume_is_not_a_field():
    a, b = Item(3, Fraction(1, 2), Fraction(2, 3)), Item(3, Fraction(1, 2), Fraction(2, 3))
    assert a.volume == Fraction(1, 3)
    assert a == b and hash(a) == hash(b)
    assert repr(a) == "Item(id=3, width=Fraction(1, 2), height=Fraction(2, 3))"
    assert a.transposed().volume == a.volume


@pytest.mark.parametrize("side", [1, "1/2", "0.25", Fraction(3, 8)])
def test_item_and_placement_coerce_every_exact_form_to_fraction(side):
    exact = Fraction(side)
    item, placement = Item(0, side, side), Placement(0, side, side)
    for value in (item.width, item.height, placement.x, placement.y):
        assert type(value) is Fraction and value == exact
    # a side given as a Fraction is kept as it is
    assert Item(0, exact, exact).width is exact
    assert Placement(0, exact, exact).y is exact
    assert item == Item(0, exact, exact) and hash(item) == hash(Item(0, exact, exact))
    assert placement == Placement(0, exact, exact)
    assert hash(placement) == hash(Placement(0, exact, exact))
    assert item.volume == exact * exact


@pytest.mark.parametrize("value", [0.5, float("nan")])
def test_item_and_placement_reject_floats_beside_a_fraction(value):
    for make in (lambda v: Item(0, Fraction(1, 2), v), lambda v: Item(0, v, Fraction(1, 2)),
                 lambda v: Placement(0, Fraction(0), v), lambda v: Placement(0, v, Fraction(0))):
        with pytest.raises(TypeError):
            make(value)


@pytest.mark.parametrize("side", [Fraction(0), Fraction(-1, 2), Fraction(3, 2), 0, 2, "3/2"])
def test_item_rejects_sides_outside_the_unit_interval_in_any_form(side):
    with pytest.raises(ValueError, match=r"outside \(0, 1\]"):
        Item(0, side, Fraction(1, 2))
    with pytest.raises(ValueError, match=r"outside \(0, 1\]"):
        Item(0, Fraction(1, 2), side)


def test_instance_rejects_duplicate_ids():
    a = Item(1, Fraction(1, 2), Fraction(1, 2))
    with pytest.raises(ValueError):
        Instance([a, Item(1, Fraction(1, 4), Fraction(1, 4))])


def test_empty_layout_ok():
    assert validate_bin(BinLayout(), {}).ok


def test_add_coerces_coordinates_exactly():
    layout = BinLayout()
    layout.add(0, "1/2", 0)
    assert layout.placements == [Placement(0, Fraction(1, 2), Fraction(0))]
    assert isinstance(layout.placements[0].x, Fraction)
    with pytest.raises(TypeError):
        layout.add(0, 0.5, 0)


F = Fraction
STRIP = [Item(0, F(1, 4), F(1, 2)), Item(1, F(1, 3), F(1, 5)), Item(2, F(1, 6), F(3, 4))]


def test_row_aligns_bottoms_or_tops_and_returns_the_end():
    layout = BinLayout()
    assert layout.row(STRIP, F(1, 12), 0) == F(1, 12) + F(3, 4)
    assert layout.placements == [Placement(0, F(1, 12), 0), Placement(1, F(1, 3), 0),
                                 Placement(2, F(2, 3), 0)]
    layout = BinLayout()
    assert layout.row(STRIP, 0, 1, top=True) == F(3, 4)
    assert layout.placements == [Placement(0, 0, F(1, 2)), Placement(1, F(1, 4), F(4, 5)),
                                 Placement(2, F(7, 12), F(1, 4))]
    assert validate_bin(layout, {it.id: it for it in STRIP}).ok
    assert layout.row([], F(1, 5), 0) == F(1, 5)


def test_column_aligns_left_or_right_edges_and_returns_the_end():
    layout = BinLayout(1, 2)
    assert layout.column(STRIP, 0, F(1, 10)) == F(1, 10) + F(29, 20)
    assert layout.placements == [Placement(0, 0, F(1, 10)), Placement(1, 0, F(3, 5)),
                                 Placement(2, 0, F(4, 5))]
    layout = BinLayout(1, 2)
    assert layout.column(STRIP, 1, 0, right=True) == F(29, 20)
    assert [p.x for p in layout.placements] == [F(3, 4), F(2, 3), F(5, 6)]
    assert validate_bin(layout, {it.id: it for it in STRIP}).ok
    assert layout.column([], 0, F(1, 5), right=True) == F(1, 5)


def test_merge_shifts_every_placement():
    sub = BinLayout(F(1, 2), F(1, 2), [Placement(0, 0, 0), Placement(1, F(1, 4), F(1, 8))])
    layout = BinLayout()
    layout.add(2, 0, 0)
    layout.merge(sub, F(1, 2), F(1, 3))
    assert layout.placements == [Placement(2, 0, 0), Placement(0, F(1, 2), F(1, 3)),
                                 Placement(1, F(3, 4), F(11, 24))]
    layout = BinLayout()
    layout.merge(sub, 0, 0)
    assert layout.placements == sub.placements
    assert all(isinstance(v, Fraction) for p in layout.placements for v in (p.x, p.y))


def test_two_big_items_overlap():
    items = make_instance([(Fraction(6, 10), Fraction(6, 10))] * 2).by_id()
    layout = BinLayout()
    layout.add(0, 0, 0)
    layout.add(1, Fraction(4, 10), Fraction(4, 10))
    report = validate_bin(layout, items)
    assert not report.ok
    assert any(v.kind == "overlap" for v in report.violations)


def test_boundary_contact_is_fine():
    items = make_instance([(Fraction(1, 2), Fraction(1, 2))] * 2).by_id()
    layout = BinLayout()
    layout.add(0, 0, 0)
    layout.add(1, Fraction(1, 2), Fraction(1, 2))
    assert validate_bin(layout, items).ok


def test_out_of_bounds_flagged():
    items = make_instance([(Fraction(3, 4), Fraction(1, 4))]).by_id()
    layout = BinLayout()
    layout.add(0, Fraction(1, 2), 0)
    report = validate_bin(layout, items)
    assert [v.kind for v in report.violations] == ["out_of_bounds"]


def test_all_violations_reported():
    items = make_instance([(Fraction(3, 4), Fraction(3, 4))] * 3).by_id()
    layout = BinLayout()
    layout.add(0, 0, 0)
    layout.add(1, 0, 0)
    layout.add(2, Fraction(1, 2), Fraction(1, 2))
    layout.add(99, 0, 0)
    report = validate_bin(layout, items)
    kinds = sorted(v.kind for v in report.violations)
    assert "unknown_item" in kinds
    assert "out_of_bounds" in kinds
    assert kinds.count("overlap") == 3


def random_bin(rng):
    """A region, items and placements for the validator fuzz: sides and
    coordinates on denominators 3, 7 and 1000, mixed in one bin, corners
    often on another box's right or top edge so that boxes share edges,
    overlap or leave the region, plus unknown and repeated ids."""

    def frac(lo, hi):
        den = rng.choice([3, 7, 1000])
        return Fraction(rng.randint(lo * den, hi * den), den)

    def side():
        return max(frac(0, 1), Fraction(1, 1000))

    items = {i: Item(i, side(), side()) for i in range(rng.randint(0, 6))}
    layout = BinLayout(rng.choice([1, side()]), rng.choice([1, side()]))
    edges_x, edges_y = [Fraction(0)], [Fraction(0)]
    for _ in range(rng.randint(0, 7)):
        item_id = rng.randrange(-1, len(items) + 1)
        x = rng.choice(edges_x) if rng.random() < 0.6 else frac(-1, 4) / 4
        y = rng.choice(edges_y) if rng.random() < 0.6 else frac(-1, 4) / 4
        layout.add(item_id, x, y)
        if item_id in items:
            edges_x.append(x + items[item_id].width)
            edges_y.append(y + items[item_id].height)
    return layout, items


def test_validator_matches_the_fraction_reference():
    rng = random.Random(2024)
    kinds = set()
    touching = 0
    for _ in range(3000):
        layout, items = random_bin(rng)
        report = validate_bin(layout, items)
        assert report.violations == reference_validate_bin(layout, items), layout
        kinds |= {v.kind for v in report.violations}
        boxes = [(p.x, p.y, p.x + items[p.item_id].width, p.y + items[p.item_id].height)
                 for p in layout.placements if p.item_id in items]
        # pairs that share part of a vertical edge
        touching += sum(1 for i, (l1, b1, r1, t1) in enumerate(boxes)
                        for l2, b2, r2, t2 in boxes[i + 1:]
                        if (r1 == l2 or r2 == l1) and b1 < t2 and b2 < t1)
    assert kinds == {"unknown_item", "duplicate_item", "out_of_bounds", "overlap"}
    assert touching > 100


def test_packing_missing_and_duplicate():
    inst = make_instance([(Fraction(1, 4), Fraction(1, 4))] * 3)
    b1 = BinLayout()
    b1.add(0, 0, 0)
    b2 = BinLayout()
    b2.add(0, 0, 0)
    report = validate_packing(Packing([b1, b2]), inst)
    kinds = {v.kind for v in report.violations}
    assert "missing_item" in kinds  # items 1 and 2 never placed
    assert "duplicate_item" in kinds  # item 0 in two bins


def test_transpose_examples():
    it = Item(0, Fraction(3, 4), Fraction(1, 4))
    assert it.transposed() == Item(0, Fraction(1, 4), Fraction(3, 4))
    p = Placement(0, Fraction(1, 8), Fraction(1, 2))
    layout = BinLayout(1, 1, [p])
    flipped = transpose_layout(layout)
    assert flipped.placements[0] == Placement(0, Fraction(1, 2), Fraction(1, 8))


def test_path_is_not_part_of_the_packing():
    layout = BinLayout(1, 1, [Placement(0, 0, 0)])
    packing = Packing([layout], ("case1",)).under("small_w")
    assert packing.path == ("small_w", "case1")
    assert packing == Packing([layout])
    assert serialize_packing(packing) == serialize_packing(Packing([layout]))
    assert parse_packing(serialize_packing(packing)).path == ()
    assert transpose_packing(packing).path == ("small_w", "case1")


@given(st.lists(dims_strategy(), min_size=0, max_size=6))
def test_transpose_involution(dims):
    inst = make_instance(dims)
    assert transpose_instance(transpose_instance(inst)) == inst
    layout = BinLayout()
    for it in inst.items:
        layout.add(it.id, 0, 0)
    packing = Packing([layout])
    assert transpose_packing(transpose_packing(packing)) == packing


@settings(max_examples=200)
@given(
    st.lists(
        st.tuples(dims_strategy(max_den=16), rational(max_den=16), rational(max_den=16)),
        min_size=1,
        max_size=5,
    )
)
def test_validator_agrees_with_independent_checker(rows):
    inst = make_instance([d for d, _, _ in rows])
    layout = BinLayout()
    for it, (_, x, y) in zip(inst.items, rows):
        layout.add(it.id, x, y)
    report = validate_bin(layout, inst.by_id())
    contained, disjoint = independent_bin_check(layout, inst.by_id())
    has_oob = any(v.kind == "out_of_bounds" for v in report.violations)
    has_overlap = any(v.kind == "overlap" for v in report.violations)
    assert has_oob == (not contained)
    assert has_overlap == (not disjoint)


@settings(max_examples=200)
@given(
    st.lists(
        st.tuples(dims_strategy(max_den=16), rational(max_den=16), rational(max_den=16)),
        min_size=1,
        max_size=5,
    )
)
def test_transpose_preserves_validity(rows):
    inst = make_instance([d for d, _, _ in rows])
    layout = BinLayout()
    for it, (_, x, y) in zip(inst.items, rows):
        layout.add(it.id, x, y)
    direct = validate_bin(layout, inst.by_id())
    flipped = validate_bin(transpose_layout(layout), transpose_instance(inst).by_id())
    assert direct.ok == flipped.ok
    assert len(direct.violations) == len(flipped.violations)


@given(rational(), rational())
def test_scalar_arithmetic_exact(a, b):
    assert (a + b) - b == a
    if b != 0:
        assert (a * b) / b == a
