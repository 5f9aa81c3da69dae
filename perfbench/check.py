"""Independent output checks, written without any rectbin code.

The checker reads the instance and packing texts itself and decides, in
exact Fraction arithmetic, whether a packing places every item exactly once,
inside the unit bin, with no positive-area overlap.  It returns a list of
failure reasons; an empty list means the output passed.
"""

import math
from fractions import Fraction


def _rows(text):
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            yield line.split()


def parse_items(text):
    """{id: (w, h)} from an instance text."""
    rows = list(_rows(text))
    count = int(rows[0][1])
    items = {int(i): (Fraction(w), Fraction(h)) for i, w, h in rows[1:]}
    if rows[0][0] != "items" or len(items) != count or len(rows) != count + 1:
        raise ValueError("malformed instance text")
    return items


def parse_bins(text):
    """(declared bin count, [[(id, x, y), ...] per bin]) from a packing text."""
    rows = _rows(text)
    head = next(rows)
    if head[0] != "bins" or len(head) != 2:
        raise ValueError("packing text lacks a `bins N` header")
    bins = []
    for row in rows:
        if row[0] == "bin":
            bins.append([])
        else:
            i, x, y = row
            bins[-1].append((int(i), Fraction(x), Fraction(y)))
    return int(head[1]), bins


def _overlapping(boxes):
    """First pair of boxes (x, y, w, h, id) sharing positive area, or None."""
    boxes = sorted(boxes)
    for a in range(len(boxes)):
        ax, ay, aw, ah, ai = boxes[a]
        for b in range(a + 1, len(boxes)):
            bx, by, bw, bh, bi = boxes[b]
            if bx >= ax + aw:
                break  # sorted by x: no later box starts left of a's right edge
            if by < ay + ah and ay < by + bh:
                return ai, bi
    return None


def packing_problems(items, declared, bins):
    """Reasons why `bins` is not a valid packing of `items`."""
    problems = []
    if declared != len(bins):
        problems.append("bin_count_header")
    seen = {}
    for placements in bins:
        boxes = []
        for i, x, y in placements:
            if i not in items:
                problems.append("unknown_item")
                continue
            seen[i] = seen.get(i, 0) + 1
            w, h = items[i]
            if x < 0 or y < 0 or x + w > 1 or y + h > 1:
                problems.append("out_of_bin")
            boxes.append((x, y, w, h, i))
        if _overlapping(boxes) is not None:
            problems.append("overlap")
    if any(seen.get(i, 0) == 0 for i in items):
        problems.append("missing_item")
    if any(c > 1 for c in seen.values()):
        problems.append("duplicate_item")
    return problems


def check_pack(entry, summary, output, k):
    """Reasons the pack solve's (summary line, packing text) is wrong."""
    items = parse_items(entry["text"])
    declared, bins = parse_bins(output)
    problems = packing_problems(items, declared, bins)
    fields = summary.split()
    if fields[0] != "bins" or int(fields[1]) != len(bins):
        problems.append("summary_bins")
    nonempty = sum(1 for b in bins if b)
    if fields[5] == "yes" and entry["witness_bins"] < k and nonempty > 2 * entry["witness_bins"]:
        problems.append("guarantee")
    return problems


def check_oracle(entry, answer, output):
    """Reasons the oracle solve's (answer, packing text) is wrong."""
    items = parse_items(entry["text"])
    area = sum((w * h for w, h in items.values()), Fraction(0))
    if answer is None:
        return ["oracle_none"]
    problems = []
    if not math.ceil(area) <= answer <= entry["witness_bins"]:
        problems.append("oracle_bound")
    declared, bins = parse_bins(output)
    problems += packing_problems(items, declared, bins)
    if len(bins) > answer:
        problems.append("oracle_bins")
    return problems


def bin_counts(output):
    """(reported bins, non-empty bins) of a packing text."""
    _, bins = parse_bins(output)
    return len(bins), sum(1 for b in bins if b)
