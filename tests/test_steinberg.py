import hashlib
import random
from fractions import Fraction

import pytest

from rectbin import steinberg
from rectbin.errors import ConditionViolated, GuessFailed, PackingStuck, PreconditionViolated
from rectbin.fileio import serialize_packing
from rectbin.geometry import BinLayout, Item, Packing, Placement, validate_bin
from rectbin.steinberg import (
    pack_no_high_half_area,
    pack_no_wide_half_area,
    steinberg_condition,
    steinberg_pack,
)
from support import random_condition_set, random_half_area_set


def ids(items):
    return sorted(it.id for it in items)


def check(layout, items):
    report = validate_bin(layout, {it.id: it for it in items})
    assert report.ok, report.violations
    assert sorted(layout.item_ids()) == ids(items)


def test_condition_trivial_cases():
    half = Item(0, Fraction(1, 2), Fraction(1, 2))
    assert steinberg_condition([half], 1, 1)
    huge = Item(0, Fraction(9, 10), Fraction(9, 10))
    # 2*(81/100) = 81/50 > 1 - (4/5)*(4/5) = 9/25
    assert not steinberg_condition([huge], 1, 1)
    assert steinberg_condition([], 1, 1)


def test_condition_oversized_item():
    assert not steinberg_condition([Item(0, Fraction(3, 4), Fraction(1, 4))], Fraction(1, 2), 1)


def test_pack_single_item():
    it = Item(0, Fraction(1, 2), Fraction(1, 2))
    layout = steinberg_pack([it], 1, 1)
    check(layout, [it])


def test_pack_four_half_wide_quarters():
    items = [Item(i, Fraction(1, 2), Fraction(1, 4)) for i in range(4)]
    assert steinberg_condition(items, 1, 1)
    layout = steinberg_pack(items, 1, 1)
    check(layout, items)


def test_pack_refuses_bad_condition():
    with pytest.raises(ConditionViolated):
        steinberg_pack([Item(0, Fraction(9, 10), Fraction(9, 10))], 1, 1)


def test_pack_wide_stack_with_hangers():
    # wide stack takes most of the height; a tall narrow item must hang top-right
    items = [
        Item(0, Fraction(3, 4), Fraction(2, 5)),
        Item(1, Fraction(3, 5), Fraction(1, 5)),
        Item(2, Fraction(1, 10), Fraction(1, 2)),
        Item(3, Fraction(1, 5), Fraction(1, 10)),
    ]
    assert steinberg_condition(items, 1, 1)
    layout = steinberg_pack(items, 1, 1)
    check(layout, items)


def test_pack_two_nearly_half_items_plus_sliver():
    eta = Fraction(1, 100)
    items = [
        Item(0, Fraction(1, 2) - eta, Fraction(1, 2)),
        Item(1, Fraction(1, 2) - eta, Fraction(1, 2)),
        Item(2, 3 * eta, Fraction(1, 4)),
    ]
    layout = steinberg_pack(items, 1, 1)
    check(layout, items)


def test_pack_split_resistant_quad():
    items = [
        Item(0, Fraction(1, 2), Fraction(2, 5)),
        Item(1, Fraction(46, 100), Fraction(1, 2)),
        Item(2, Fraction(145, 1000), Fraction(1, 100)),
        Item(3, Fraction(14, 100), Fraction(45, 100)),
    ]
    layout = steinberg_pack(items, 1, 1)
    check(layout, items)


def test_pack_deterministic():
    items = [
        Item(0, Fraction(1, 2), Fraction(2, 5)),
        Item(1, Fraction(46, 100), Fraction(1, 2)),
        Item(2, Fraction(14, 100), Fraction(45, 100)),
    ]
    first = steinberg_pack(items, 1, 1)
    second = steinberg_pack(items, 1, 1)
    assert first.placements == second.placements


def test_pack_random_condition_sets():
    rng = random.Random(20260822)
    packed = 0
    while packed < 300:
        u = Fraction(rng.randint(2, 8), 8)
        v = Fraction(rng.randint(2, 8), 8)
        items = random_condition_set(rng, u, v)
        if not items or not steinberg_condition(items, u, v):
            continue
        layout = steinberg_pack(items, u, v)
        check(layout, items)
        packed += 1


def test_half_area_single_big():
    it = Item(0, Fraction(6, 10), Fraction(6, 10))
    layout = pack_no_wide_half_area([it])
    check(layout, [it])


def test_half_area_big_with_tall_hanger():
    # area condition itself fails here (deficiency), the direct build must cope
    items = [
        Item(0, Fraction(6, 10), Fraction(6, 10)),
        Item(1, Fraction(1, 5), Fraction(7, 10)),
    ]
    assert not steinberg_condition(items, 1, 1)
    layout = pack_no_wide_half_area(items)
    check(layout, items)


def test_half_area_rejects_large_volume():
    with pytest.raises(PreconditionViolated):
        pack_no_wide_half_area([Item(0, Fraction(3, 4), Fraction(3, 4))])


def test_half_area_rejects_wide_non_big():
    items = [Item(0, Fraction(3, 4), Fraction(1, 4))]
    with pytest.raises(PreconditionViolated):
        pack_no_wide_half_area(items)


def test_half_area_rejects_two_wide():
    items = [
        Item(0, Fraction(6, 10), Fraction(6, 10)),
        Item(1, Fraction(6, 10), Fraction(1, 5)),
    ]
    with pytest.raises(PreconditionViolated):
        pack_no_wide_half_area(items)


# above area 1/2, and wide but not big: both refused by the half-area packers
BIG = Item(0, Fraction(3, 4), Fraction(3, 4))
FLAT = Item(0, Fraction(3, 4), Fraction(1, 4))


@pytest.mark.parametrize("caught", [GuessFailed, PreconditionViolated])
@pytest.mark.parametrize("pack, items", [
    pytest.param(steinberg_pack, [Item(0, Fraction(9, 10), Fraction(9, 10))], id="area"),
    pytest.param(pack_no_wide_half_area, [BIG], id="no_wide_volume"),
    pytest.param(pack_no_wide_half_area, [FLAT], id="no_wide_not_big"),
    pytest.param(pack_no_high_half_area, [BIG], id="no_high_volume"),
    pytest.param(pack_no_high_half_area, [FLAT.transposed()], id="no_high_not_big"),
])
def test_refused_condition_is_a_failed_guess(pack, items, caught):
    with pytest.raises(caught) as info:
        pack(items)
    assert isinstance(info.value, ConditionViolated)


def test_half_area_random_sets():
    rng = random.Random(17)
    done = 0
    while done < 200:
        items = random_half_area_set(rng)
        if not items:
            continue
        layout = pack_no_wide_half_area(items)
        check(layout, items)
        flipped = [it.transposed() for it in items]
        check(pack_no_high_half_area(flipped), flipped)
        done += 1


def placements_text(placements):
    return " ".join(f"{p.item_id}:{p.x},{p.y}" for p in placements)


def text(layout):
    return serialize_packing(Packing([layout]))


def digest(texts):
    return hashlib.sha256("".join(texts).encode()).hexdigest()


# Byte-exact layouts, recorded before the portfolio's steps moved onto
# BinLayout; each input takes the named step at the top level.
STEP_GOLDEN = [
    pytest.param([(0, "1/5", "2/5"), (1, "2/5", "1/5")], 1, 1,
                 "0:0,0 1:0,2/5", id="shelf_below"),
    pytest.param([(0, "2/5", "1/2"), (1, "3/10", "1/5")], 1, 1,
                 "0:0,0 1:2/5,0", id="shelf_left"),
    pytest.param([(0, "1/4", "1/4"), (1, "1/2", "1/2")], 1, 1,
                 "1:0,0 0:1/2,0", id="vertical_split"),
    pytest.param([(0, "2/5", "1/2"), (1, "2/5", "1/5"), (2, "1/2", "2/5")], 1, 1,
                 "0:0,0 2:2/5,0 1:0,4/5", id="horizontal_split"),
    pytest.param([(0, "2/5", "2/5"), (1, "2/5", "2/5"), (2, "2/5", "2/5")], 1, 1,
                 "0:0,0 1:2/5,0 2:0,2/5", id="pair_in_a_row"),
    pytest.param([(0, "3/4", "2/5"), (1, "3/5", "1/5"), (2, "1/10", "1/2"), (3, "1/5", "1/10")],
                 1, 1, "0:0,0 1:0,2/5 2:9/10,1/2 3:0,3/5", id="wide_stack_with_hanger"),
    pytest.param([(0, "1/4", "3/4"), (1, "1/4", "1/4"), (2, "1/5", "1/2")], 1, 1,
                 "0:0,0 1:1/4,0 2:1/2,0", id="transposed"),
    pytest.param([(0, "1/4", "3/8"), (1, "1/8", "1/4"), (2, "3/16", "1/8"), (3, "1/16", "1/8")],
                 Fraction(1, 2), Fraction(3, 4), "0:0,0 2:1/4,0 1:1/4,1/8 3:1/4,3/8",
                 id="non_unit_region"),
]


@pytest.mark.parametrize("spec, u, v, expected", STEP_GOLDEN)
def test_step_layouts_are_pinned(spec, u, v, expected):
    items = [Item(i, Fraction(w), Fraction(h)) for i, w, h in spec]
    layout = steinberg_pack(items, u, v)
    assert placements_text(layout.placements) == expected
    check(layout, items)


PAIR_ITEMS = [
    Item(0, Fraction(1, 4), Fraction(2, 5)),
    Item(1, Fraction(1, 5), Fraction(3, 10)),
    Item(2, Fraction(1, 4), Fraction(1, 4)),
    Item(3, Fraction(1, 10), Fraction(1, 5)),
]


def test_pair_in_a_row_step():
    # no random draw found reaches a pair step at the top level, so the
    # cut is called directly: items 0 and 1 side by side, the rest above
    a, c = PAIR_ITEMS[0], PAIR_ITEMS[1]
    layout = steinberg._cut(steinberg._lined([a, c], 1, 1), PAIR_ITEMS[2:], 1, 1,
                            0, max(a.height, c.height))
    assert placements_text(layout.placements) == "0:0,0 1:1/4,0 2:0,2/5 3:0,13/20"


def test_pair_in_a_column_step():
    # items 0 and 1 stacked at the left, the rest to their right
    a, c = PAIR_ITEMS[0], PAIR_ITEMS[1]
    layout = steinberg._cut(steinberg._lined([a, c], 1, 1, up=True), PAIR_ITEMS[2:], 1, 1,
                            max(a.width, c.width), 0)
    assert placements_text(layout.placements) == "0:0,0 1:0,2/5 2:1/4,0 3:1/4,1/4"


def test_condition_set_layouts_are_pinned():
    # recorded before the portfolio's steps moved onto BinLayout
    rng = random.Random(2026)
    texts = []
    for _ in range(800):
        u, v = Fraction(rng.randint(2, 8), 8), Fraction(rng.randint(2, 8), 8)
        for a, b in ((1, 1), (u, v)):
            items = random_condition_set(rng, a, b)
            if items:
                texts.append(text(steinberg_pack(items, a, b)))
    assert len(texts) == 964
    assert digest(texts) == "dad43be50abb3d03d1eb82d192615490e1b779172981504f7297b7a210ab8d1d"


def test_half_area_layouts_are_pinned():
    rng = random.Random(2027)
    texts = []
    for _ in range(600):
        items = random_half_area_set(rng)
        texts.append(text(pack_no_wide_half_area(items)))
        texts.append(text(pack_no_high_half_area([it.transposed() for it in items])))
    assert digest(texts) == "fc6e1117b09223ddc3deb8aa2e24297e5ed11fa55f9b88237c4c401ec2bc0147"


def stuck():
    raise PackingStuck("this candidate gives up")


class TestPortfolioFallback:
    """_pack_all_small takes the first candidate whose layout validates and
    holds every item once."""

    ITEMS = [Item(0, Fraction(1, 4), Fraction(1, 4)), Item(1, Fraction(1, 4), Fraction(1, 4))]

    def layout(self, *placements):
        return BinLayout(1, 1, [Placement(*p) for p in placements])

    def offer(self, monkeypatch, *candidates):
        monkeypatch.setattr(steinberg, "_small_branches",
                            lambda items, u, v, total: iter(candidates))

    def test_failed_candidates_are_skipped(self, monkeypatch):
        overlapping = self.layout((0, 0, 0), (1, Fraction(1, 8), 0))
        good = self.layout((0, 0, 0), (1, Fraction(1, 4), 0))
        self.offer(monkeypatch, stuck, lambda: overlapping, lambda: good)
        assert steinberg_pack(self.ITEMS).placements == good.placements

    def test_no_candidate_left_names_the_region(self, monkeypatch):
        overlapping = self.layout((0, 0, 0), (1, 0, 0))
        missing = self.layout((0, 0, 0))
        self.offer(monkeypatch, stuck, lambda: overlapping, lambda: missing)
        with pytest.raises(PackingStuck, match=r"on 2 items in 1/2 x 3/4$"):
            steinberg_pack(self.ITEMS, Fraction(1, 2), Fraction(3, 4))
