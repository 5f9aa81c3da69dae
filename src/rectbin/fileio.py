"""Text formats for instances and packings.

Both formats are line oriented and bit exact: every number is a rational
written as `p/q` (or a plain integer), and decimals in input are read as
p/10^d without rounding.  parse(serialize(x)) returns x unchanged.
Numbers and ids are written in ASCII digits: a token with any non-ASCII
character is refused, though int() and Fraction() read the digits of every
script.
Numbers are bounded so that both hold: a decimal exponent above
MAX_EXPONENT in magnitude is refused before 10**N is built (a large N would
stall the parser), and so is a number whose numerator or denominator has
more than MAX_DIGITS digits, which serialize could not write back.  A
short plain `p/q` or integer token is read with int() alone: it is too
short to fail either bound.
"""

import re
from fractions import Fraction

from .errors import ParseError
from .geometry import BinLayout, Instance, Item, Packing

# the interpreter's default limit on the digits of an int converted from or
# to a decimal string; 1e-4299 has a denominator of exactly that many digits
MAX_DIGITS = 4300
MAX_EXPONENT = MAX_DIGITS - 1
_DIGIT_CAP = 10**MAX_DIGITS
_EXPONENT = re.compile(r"[eE]([-+]?[\d_]+)\Z")
# a token at most this long has parts of far fewer digits than MAX_DIGITS,
# and than any limit int() may be set to (640 at least)
_SHORT = 40


def _plain_rational(text):
    """An ASCII token of digits, or of digits `/` digits, as an exact
    Fraction built from int(); None for any other token.  Fraction(text)
    reads such a token with the same int() calls, so value and errors agree."""
    if text.isdigit():
        return Fraction(int(text))
    p, slash, q = text.partition("/")
    if slash and p.isdigit() and q.isdigit():
        return Fraction(int(p), int(q))
    return None


def parse_rational(text):
    """text as an exact Fraction (`p/q`, an integer or a decimal, in ASCII),
    within the number bounds above; ValueError otherwise.  Shared by every
    reader of numbers from outside the program.  A plain `p/q` or integer
    token is read by _plain_rational, and returned at once when it is at
    most _SHORT long; any other goes through Fraction(text)."""
    try:
        if not text.isascii():
            raise ValueError(text)
        value = _plain_rational(text)
        if value is not None and len(text) <= _SHORT:
            return value
        huge = False
        if value is None:
            exponent = _EXPONENT.search(text)
            huge = exponent is not None and abs(int(exponent.group(1))) > MAX_EXPONENT
            if not huge:
                value = Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"bad rational {text!r}") from None
    if huge:
        raise ValueError(f"exponent of {text!r} exceeds {MAX_EXPONENT} in magnitude")
    if max(abs(value.numerator), value.denominator) >= _DIGIT_CAP:
        raise ValueError(f"{text!r} has more than {MAX_DIGITS} digits")
    return value


def parse_int(text):
    """text as int() reads it, for an ASCII token; ValueError otherwise.
    Shared by every reader of integers from outside the program."""
    try:
        if text.isascii():
            return int(text)
    except ValueError:
        pass
    raise ValueError(f"bad integer {text!r}")


def _token(parse, tok, lineno):
    """parse(tok), with its ValueError as a ParseError of line lineno."""
    try:
        return parse(tok)
    except ValueError as exc:
        raise ParseError(lineno, str(exc)) from None


def _rows(text):
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, line.split()


def parse_instance(text: str) -> Instance:
    rows = _rows(text)
    try:
        lineno, head = next(rows)
    except StopIteration:
        raise ParseError(1, "empty input, expected `items N`") from None
    if len(head) != 2 or head[0] != "items":
        raise ParseError(lineno, f"expected `items N`, got {' '.join(head)!r}")
    n = _token(parse_int, head[1], lineno)
    if n < 0:
        raise ParseError(lineno, f"item count {n} is negative")
    items = []
    seen = set()
    for _ in range(n):
        try:
            lineno, row = next(rows)
        except StopIteration:
            raise ParseError(
                lineno, f"expected {n} item lines, got {len(items)}"
            ) from None
        if len(row) != 3:
            raise ParseError(lineno, f"expected `ID W H`, got {' '.join(row)!r}")
        ident = _token(parse_int, row[0], lineno)
        w = _token(parse_rational, row[1], lineno)
        h = _token(parse_rational, row[2], lineno)
        try:
            items.append(Item(ident, w, h))
        except ValueError as exc:
            raise ParseError(lineno, str(exc)) from None
        if ident in seen:
            raise ParseError(lineno, f"duplicate item id {ident}")
        seen.add(ident)
    for lineno, row in rows:
        raise ParseError(lineno, f"trailing content {' '.join(row)!r}")
    return Instance(items)


def serialize_instance(instance: Instance) -> str:
    out = [f"items {len(instance.items)}"]
    for it in instance.items:
        out.append(f"{it.id} {it.width} {it.height}")
    return "\n".join(out) + "\n"


def parse_packing(text: str) -> Packing:
    rows = _rows(text)
    try:
        head_line, head = next(rows)
    except StopIteration:
        raise ParseError(1, "empty input, expected `bins B`") from None
    if len(head) != 2 or head[0] != "bins":
        raise ParseError(head_line, f"expected `bins B`, got {' '.join(head)!r}")
    count = _token(parse_int, head[1], head_line)
    bins = []
    current = None
    for lineno, row in rows:
        if row[0] == "bin":
            if len(row) != 2:
                raise ParseError(lineno, "expected `bin I`")
            idx = _token(parse_int, row[1], lineno)
            if idx != len(bins):
                raise ParseError(
                    lineno, f"bin {idx} out of order, expected {len(bins)}"
                )
            current = BinLayout(1, 1)
            bins.append(current)
        else:
            if current is None:
                raise ParseError(lineno, "placement before any `bin` header")
            if len(row) != 3:
                raise ParseError(
                    lineno, f"expected `ID X Y`, got {' '.join(row)!r}"
                )
            ident = _token(parse_int, row[0], lineno)
            x = _token(parse_rational, row[1], lineno)
            y = _token(parse_rational, row[2], lineno)
            current.add(ident, x, y)
    if len(bins) != count:
        raise ParseError(head_line, f"header declared {count} bins, file has {len(bins)}")
    return Packing(bins)


def serialize_packing(packing: Packing) -> str:
    out = [f"bins {len(packing.bins)}"]
    for i, layout in enumerate(packing.bins):
        out.append(f"bin {i}")
        for p in layout.placements:
            out.append(f"{p.item_id} {p.x} {p.y}")
    return "\n".join(out) + "\n"
