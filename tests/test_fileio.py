"""Round-trip and error reporting for the text formats."""

from fractions import Fraction

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rectbin import fileio
from rectbin.errors import ParseError
from rectbin.fileio import (
    parse_instance,
    parse_packing,
    parse_rational,
    serialize_instance,
    serialize_packing,
)
from rectbin.geometry import BinLayout, Instance, Item, Packing
from support import reference_parse_rational

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
        ("items 2\n0 1/2 1/2\n00 1/2 1/2\n", 3),
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

    @pytest.mark.parametrize("text, line, message", [
        ("items \u0661\n0 1/2 1/2\n", 1, "bad integer '\u0661'"),
        ("items \uff11\n0 1/2 1/2\n", 1, "bad integer '\uff11'"),
        ("items 1\n\u0661 1/2 1/2\n", 2, "bad integer '\u0661'"),
        ("items 1\n1 \u0661/\u0662 1/2\n", 2, "bad rational '\u0661/\u0662'"),
        ("items 1\n1 1/2 \u0660.\u0665\n", 2, "bad rational '\u0660.\u0665'"),
    ])
    def test_non_ascii_digits_are_refused(self, text, line, message):
        # int() and Fraction() read the digits of any script
        with pytest.raises(ParseError) as info:
            parse_instance(text)
        assert (info.value.line_no, info.value.message) == (line, message)

    def test_exponent_at_bound_is_exact(self):
        inst = parse_instance("items 1\n0 1e-4299 25e-2\n")
        assert inst.items[0].width == F(1, 10**4299)
        assert inst.items[0].height == F(1, 4)
        assert parse_instance(serialize_instance(inst)) == inst


def _outcome(parse, text):
    """(value, None) or (None, (error type, message)) of parse(text)."""
    try:
        return parse(text), None
    except Exception as exc:
        return None, (type(exc), str(exc))


class TestRational:
    """parse_rational reads plain ASCII `p/q` and integer tokens with int()
    and every other token with Fraction(text); both must agree with the
    all-Fraction reader in value, or in error type and text."""

    @pytest.mark.parametrize("tok", [
        "5/0", "0/5", "007/008", "0", "1", "10", "+1/2", "-1/2", "1/-2",
        "1_0/20", "1/2_0", "\u0661/\u0662", "\uff11/\uff12", "\u00b2/3",
        "1.5", ".5", "1e-4300", "1e-4299", "25e-2", "1/2/3", "/2", "1/", "",
        "1/ 2", " 1/2", "1 /2", "x", "0x10", "1/2e3",
        "9" * 4300, "9" * 4300 + "/7", "7/" + "9" * 4300,
        "9" * 4301, "9" * 4301 + "/7", "7/" + "9" * 4301,
        "0" * 5000 + "1", "0" * 5000 + "1/2", "1/" + "0" * 5000 + "2",
    ], ids=lambda tok: tok if len(tok) < 20 else f"{tok[:6]}...{len(tok)}")
    def test_tricky_tokens_match_the_reference(self, tok):
        value, error = _outcome(parse_rational, tok)
        assert (value, error) == _outcome(reference_parse_rational, tok)
        if value is not None:
            assert str(value) == str(reference_parse_rational(tok))

    @pytest.mark.parametrize("tok", ["\u0661/\u0662", "\uff11/\uff12", "\u0661",
                                     "\u0660.\u0665", "1e\u0665", "1e-\u0661\u0660\u0660\u0660\u0660"])
    def test_non_ascii_tokens_are_bad_rationals(self, tok):
        for parse in (parse_rational, reference_parse_rational):
            with pytest.raises(ValueError) as info:
                parse(tok)
            assert str(info.value) == f"bad rational {tok!r}"

    def test_long_parts_fail_with_the_parser_message(self):
        # int()'s own limit text must not leak out
        for tok in ("9" * 4301 + "/7", "0" * 5000 + "1"):
            with pytest.raises(ValueError) as info:
                parse_rational(tok)
            assert str(info.value) == f"bad rational {tok!r}"

    def test_random_tokens_match_the_reference(self):
        rng = random.Random(20261018)
        for _ in range(3000):
            p = rng.choice([0, 1, 2, 7, rng.randrange(10**6), rng.randrange(10**40)])
            q = rng.choice([0, 1, 2, 3, 64, 1000, rng.randrange(1, 10**6), rng.randrange(10**40)])
            zeros = "0" * rng.choice([0, 0, 1, 3])
            tok = rng.choice([f"{zeros}{p}/{q}", f"{p}/{zeros}{q}", f"{zeros}{p}"])
            assert _outcome(parse_rational, tok) == _outcome(reference_parse_rational, tok)


def _parse_outcome(text):
    """parse_instance(text)'s items as (id, width, height), or its
    ParseError as (line, message)."""
    try:
        return [(it.id, it.width, it.height) for it in parse_instance(text).items]
    except ParseError as exc:
        return exc.line_no, exc.message


class TestShortPlainPath:
    """parse_rational reads a short plain token with int() alone; every
    token must still read as it does through Fraction(text), to the same
    value or, in parse_instance, the same ParseError."""

    CUT = fileio._SHORT

    @pytest.mark.parametrize("tok", [
        "007/8", "0/7", "7/0", "1/1", "1", "0", "2", "00", "1/2", "999/1000",
        "9" * 4300 + "/7", "1/" + "9" * 4300, "1/" + "9" * 4301,
        "\u0661/\u0662", "\u0661", "0.5", ".25", "1e-3", "+1/2", "-1/2", "1_0/3", "1/2_0",
        "1/", "/2", "1/2/3", "0x1",
        "1/" + "0" * (CUT - 3) + "3", "1/" + "0" * (CUT - 2) + "3",
        "0" * (CUT - 3) + "1/2", "0" * (CUT - 2) + "1/2",
    ], ids=lambda tok: tok if len(tok) < 20 else f"{tok[:6]}...{len(tok)}")
    def test_sides_parse_as_fraction_reads_them(self, tok, monkeypatch):
        text = f"items 2\n0 1/2 1/3\n1 {tok} 1/4\n"
        got = _parse_outcome(text)
        # every side through Fraction(text), with the same bounds
        monkeypatch.setattr(fileio, "parse_rational", reference_parse_rational)
        assert got == _parse_outcome(text)

    def test_the_short_plain_path_reads_as_fraction_and_is_taken_up_to_the_cut(self, monkeypatch):
        rng = random.Random(2023)
        tokens = ["1", "0/7", "007/8", "1/1", "255/256"]
        for _ in range(2000):
            p = rng.choice([1, 2, 7, rng.randrange(10**6), rng.randrange(10**12)])
            q = rng.choice([1, 3, 64, 1000, rng.randrange(1, 10**6), rng.randrange(1, 10**12)])
            tokens.append(rng.choice([f"{p}/{q}", f"{'0' * rng.randint(1, 3)}{p}/{q}", f"{p}"]))
        tokens += ["1/" + "0" * (self.CUT - 3) + "3", "0" * (self.CUT - 3) + "1/2"]
        # a digit cap of 0 refuses every value that reaches the bound tests,
        # so a token read without an error left at the short path
        monkeypatch.setattr(fileio, "_DIGIT_CAP", 0)
        for tok in tokens:
            assert len(tok) <= self.CUT
            assert parse_rational(tok) == Fraction(tok)
        for tok in ("1/" + "0" * (self.CUT - 2) + "3", "1.5", "+1/2"):
            with pytest.raises(ValueError, match="has more than"):
                parse_rational(tok)


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

    @pytest.mark.parametrize("text, line, message", [
        ("bins \u0661\nbin 0\n", 1, "bad integer '\u0661'"),
        ("bins 1\nbin \u0660\n", 2, "bad integer '\u0660'"),
        ("bins 1\nbin 0\n\u0660 0 0\n", 3, "bad integer '\u0660'"),
        ("bins 1\nbin 0\n0 \u0660 0\n", 3, "bad rational '\u0660'"),
    ])
    def test_non_ascii_digits_are_refused(self, text, line, message):
        with pytest.raises(ParseError) as info:
            parse_packing(text)
        assert (info.value.line_no, info.value.message) == (line, message)
