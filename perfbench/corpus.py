"""Instance corpora for the benchmark workloads (one_bin, two_bin, oracle).

Every corpus entry carries its instance as text (what the solver receives)
and a witness packing as text, so the checker never has to trust the solver
about what is achievable.

Each workload has a fixed pool of instances, drawn once from strata of
generator mode and size.  The run seed sets the order in which the pool is
solved, so the same (workload, seed) pair always yields the same corpus.
The instances themselves do not change with the seed: solve times at the
seed commit range from milliseconds to past any deadline and depend on the
item ids (the solvers break ties by id), so a fresh draw or a relabelling
per seed moved the latency percentiles of a run by more than their bound.
"""

import random
from fractions import Fraction

from rectbin import oracle
from rectbin.fileio import serialize_instance, serialize_packing
from rectbin.oracle import GeneratorSpec, gen_instance

# cut offsets, as shares of the side being cut; with the 1/64 grid they put
# item sizes on the class boundaries the solvers branch on (1/2, 1 - eps, eps)
BOUNDARY_OFFSETS = (
    Fraction(1, 2) - Fraction(1, 1000),
    Fraction(1, 2) + Fraction(1, 1000),
    Fraction(255, 256),
    Fraction(1, 100),
)
GRID64 = tuple(Fraction(k, 64) for k in range(1, 64))

SINGLE_BIN_PLANTS = ("plant_delta_width", "plant_delta_height", "plant_large_w",
                     "plant_small_w_case1", "plant_small_w_case2", "plant_small_w_case3")
TWO_BIN_PLANTS = ("plant_const_case1", "plant_const_case2", "plant_const_case3",
                  "plant_const_case4")


def _split(rng, x, y, w, h, m):
    """Guillotine split of rectangle (x, y, w, h) into m pieces."""
    if m == 1:
        return [(x, y, w, h)]
    if rng.random() < 0.5:
        offset = rng.choice(BOUNDARY_OFFSETS)
    else:
        offset = rng.choice(GRID64)
    m1 = rng.randint(1, m - 1)
    if rng.random() < 0.5:
        cut = w * offset
        first, second = (x, y, cut, h), (x + cut, y, w - cut, h)
    else:
        cut = h * offset
        first, second = (x, y, w, cut), (x, y + cut, w, h - cut)
    return _split(rng, *first, m1) + _split(rng, *second, m - m1)


def boundary_instance(seed, n, ell):
    """(instance_text, witness_text) for a boundary-mode instance.

    Each of the ell witness bins is a guillotine split of the unit square
    whose cut offsets come from BOUNDARY_OFFSETS or the 1/64 grid, so item
    sides land on 1/2 +- 1/1000, 255/256, 1/100 and multiples of 1/64.
    """
    if not n >= ell >= 1:
        raise ValueError("need n >= ell >= 1")
    rng = random.Random(f"boundary:{seed}:{n}:{ell}")
    counts = [1] * ell
    for _ in range(n - ell):
        counts[rng.randrange(ell)] += 1
    items, bins = [], []
    for count in counts:
        placements = []
        for x, y, w, h in _split(rng, Fraction(0), Fraction(0), Fraction(1), Fraction(1), count):
            placements.append((len(items), x, y))
            items.append((w, h))
        bins.append(placements)
    inst = [f"items {len(items)}"] + [f"{i} {w} {h}" for i, (w, h) in enumerate(items)]
    wit = [f"bins {len(bins)}"]
    for b, placements in enumerate(bins):
        wit.append(f"bin {b}")
        wit.extend(f"{i} {x} {y}" for i, x, y in placements)
    return "\n".join(inst) + "\n", "\n".join(wit) + "\n"


def _entry(kind, source, text, witness_text):
    return {"kind": kind, "source": source, "text": text, "witness": witness_text,
            "witness_bins": int(witness_text.split(None, 2)[1])}


def _generated(kind, mode, sub_seed, n, ell):
    source = f"{mode} n={n} ell={ell} seed={sub_seed}"
    if mode == "boundary":
        text, wit = boundary_instance(sub_seed, n, ell)
        return _entry(kind, source, text, wit)
    inst, wit = gen_instance(GeneratorSpec(seed=sub_seed, n=n, ell=ell, mode=mode))
    return _entry(kind, source, serialize_instance(inst), serialize_packing(wit))


def _planted(name, sub_seed):
    inst, wit = getattr(oracle, name)(sub_seed)
    return _entry("pack", f"{name} seed={sub_seed}", serialize_instance(inst),
                  serialize_packing(wit))


MODES = ("guillotine", "shrink", "boundary")


def _cells(sources, sizes):
    """Strata of a corpus: every (source, n) pair, plants once each."""
    cells = [(mode, n) for n in sizes for mode in MODES if mode in sources]
    return cells + [(name, None) for name in sources if name.startswith("plant_")]


# workload -> (strata, witness bin counts); a pool cycles through its
# strata in a fixed interleaved order, so every prefix has the same mix
WORKLOADS = {
    "one_bin": (_cells(MODES + SINGLE_BIN_PLANTS, range(5, 12)), (1,)),
    "two_bin": (_cells(MODES + TWO_BIN_PLANTS, range(6, 12)), (2,)),
    "oracle": (_cells(MODES, range(4, 9)), (1, 2, 3)),
}


def build_pool(workload, size):
    """The first `size` instances of the workload's fixed pool."""
    cells, ells = WORKLOADS[workload]
    cells = list(cells)
    random.Random(workload).shuffle(cells)
    kind = "oracle" if workload == "oracle" else "pack"
    rng = random.Random(f"{workload}:pool")
    pool = []
    for i in range(size):
        source, n = cells[i % len(cells)]
        sub_seed = rng.randrange(10**6)
        if source.startswith("plant_"):
            pool.append(_planted(source, sub_seed))
        else:
            ell = rng.choice([e for e in ells if e <= n])
            pool.append(_generated(kind, source, sub_seed, n, ell))
    return pool


def relabel(entry, rng):
    """The entry with its item ids permuted by rng, instance lines in id order."""
    items = entry["text"].splitlines()
    ids = list(range(len(items) - 1))
    rng.shuffle(ids)
    rows = sorted((ids[int(i)], w, h) for i, w, h in (line.split() for line in items[1:]))
    text = "\n".join([items[0]] + [f"{i} {w} {h}" for i, w, h in rows]) + "\n"
    witness = []
    for line in entry["witness"].splitlines():
        fields = line.split()
        if len(fields) == 3:
            fields[0] = str(ids[int(fields[0])])
        witness.append(" ".join(fields))
    return {**entry, "text": text, "witness": "\n".join(witness) + "\n"}


def build_corpus(workload, seed, size):
    """The workload's pool of `size` instances in the order set by `seed`.

    The item ids of every instance are permuted once, the same for every
    seed: the generators number items in witness order, and the solvers
    break ties by id, so unpermuted ids would hint at the witness.  Each
    entry records its place in the pool as `pool_index`.
    """
    rng = random.Random(f"{workload}:ids")
    corpus = [{**relabel(entry, rng), "pool_index": i}
              for i, entry in enumerate(build_pool(workload, size))]
    random.Random(f"{workload}:{seed}").shuffle(corpus)
    return corpus
