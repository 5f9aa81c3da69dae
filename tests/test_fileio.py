"""Round-trip and error reporting for the text formats."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rectbin.errors import ParseError
from rectbin.fileio import (
    parse_instance,
    parse_packing,
    serialize_instance,
    serialize_packing,
)
from rectbin.geometry import BinLayout, Instance, Item, Packing

F = Fraction

dims = st.fractions(min_value=F(1, 64), max_value=1, max_denominator=64)


class TestInstanceFormat:
    def test_basic(self):
        inst = parse_instance("items 2\n3 1/2 1/4\n7 1 1\n")
        assert [it.id for it in inst.items] == [3, 7]
        assert inst.items[0].width == F(1, 2)

    def test_decimals_are_exact(self):
        inst = parse_instance("items 1\n0 0.1 0.3\n")
        assert inst.items[0].width == F(1, 10)
        assert inst.items[0].height == F(3, 10)

    def test_comments_and_blanks(self):
        text = "# generated\nitems 1\n\n0 1/2 1/2  # a square\n"
        assert len(parse_instance(text).items) == 1

    @given(st.lists(st.tuples(dims, dims), min_size=0, max_size=12))
    @settings(max_examples=60, deadline=None)
    def test_round_trip(self, sizes):
        inst = Instance([Item(i, w, h) for i, (w, h) in enumerate(sizes)])
        back = parse_instance(serialize_instance(inst))
        assert [(it.id, it.width, it.height) for it in back.items] == [
            (it.id, it.width, it.height) for it in inst.items
        ]

    @pytest.mark.parametrize("text,line", [
        ("", 1),
        ("width 2\n", 1),
        ("items x\n", 1),
        ("items -3\n", 1),
        ("items -1\n0 1/2 1/2\n", 1),
        ("items 2\n0 1/2 1/2\n", 2),
        ("items 1\n0 1/2\n", 2),
        ("items 1\n0 3/0 1/2\n", 2),
        ("items 1\n0 1/2 0.x\n", 2),
        ("items 1\n0 2 1/2\n", 2),
        ("items 1\n0 1/2 1/2\n1 1/2 1/2\n", 3),
    ])
    def test_errors_carry_line_numbers(self, text, line):
        with pytest.raises(ParseError) as info:
            parse_instance(text)
        assert info.value.line_no == line

    @pytest.mark.parametrize("tok", [
        "1e-5000", "1e5000", "1E+5000", "2.5e-4301", "1e-4300",
        "1.1e-4299",  # 11/10**4300: the exponent is in bound, the digits are not
    ])
    def test_exponent_bound(self, tok):
        # 1e-N builds 10**N; only magnitudes just past the bound run here
        with pytest.raises(ParseError) as info:
            parse_instance(f"items 1\n0 {tok} 1/2\n")
        assert info.value.line_no == 2

    def test_exponent_at_bound_is_exact(self):
        inst = parse_instance("items 1\n0 1e-4299 25e-2\n")
        assert inst.items[0].width == F(1, 10**4299)
        assert inst.items[0].height == F(1, 4)
        assert parse_instance(serialize_instance(inst)) == inst


class TestPackingFormat:
    def test_basic(self):
        p = parse_packing("bins 2\nbin 0\n3 0 0\n7 1/2 1/4\nbin 1\n")
        assert len(p.bins) == 2
        assert p.bins[0].placements[1].x == F(1, 2)
        assert p.bins[1].placements == []

    def test_round_trip(self):
        first = BinLayout(1, 1)
        first.add(3, 0, 0)
        first.add(7, F(1, 2), F(1, 4))
        second = BinLayout(1, 1)
        second.add(1, F(1, 3), F(2, 3))
        text = serialize_packing(Packing([first, second]))
        back = parse_packing(text)
        assert serialize_packing(back) == text
        assert [(p.item_id, p.x, p.y) for p in back.bins[0].placements] == [
            (3, F(0), F(0)), (7, F(1, 2), F(1, 4)),
        ]

    @pytest.mark.parametrize("text", [
        "",
        "bones 1\n",
        "bins 1\n0 0 0\n",
        "bins 1\nbin 1\n",
        "bins 2\nbin 0\n",
        "bins 1\nbin 0\n0 1/0 0\n",
        "bins 1\nbin 0\n0 0\n",
    ])
    def test_malformed(self, text):
        with pytest.raises(ParseError):
            parse_packing(text)
