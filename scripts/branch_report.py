"""Tally which solver branches fire across the generator corpora.

Useful when changing branch logic: shows how planted and random instances
distribute over the single-bin branches and the constant-bin cases.  Each
packing is tallied by its path (`Packing.path`), joined with "/", e.g.
`small_w/case2` or `case4/flip/flipped/spill`.  The solvers return
unvalidated packings, so every packing is validated before it is tallied.

Usage, from the repository root:

    python3 scripts/branch_report.py [--seeds N]
"""

import argparse
import os
import random
import sys
import time
from collections import Counter
from fractions import Fraction

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from rectbin.errors import GuessFailed, InstanceTooLarge
from rectbin.geometry import validate_packing
from rectbin.opt1 import pack_opt1
from rectbin.optconst import pack_opt_const
from rectbin.oracle import (
    GeneratorSpec,
    gen_instance,
    plant_const_case1,
    plant_const_case2,
    plant_const_case3,
    plant_const_case4,
    plant_delta_height,
    plant_delta_width,
    plant_large_w,
    plant_small_w_case1,
    plant_small_w_case2,
    plant_small_w_case3,
)

EPS = Fraction(1, 256)

OPT1_PLANTS = {
    "delta_width": plant_delta_width,
    "delta_height": plant_delta_height,
    "large_w": plant_large_w,
    "small_w_1": plant_small_w_case1,
    "small_w_2": plant_small_w_case2,
    "small_w_3": plant_small_w_case3,
}
CONST_PLANTS = {
    "const_1": plant_const_case1,
    "const_2": plant_const_case2,
    "const_3": plant_const_case3,
    "const_4": plant_const_case4,
}


def _tally(tally, inst, solve):
    """Count the path of solve(inst), which must validate (the solvers
    return unvalidated packings), or the kind of its refusal."""
    try:
        packing = solve(inst)
        assert validate_packing(packing, inst).ok
        tally["/".join(packing.path)] += 1
    except (GuessFailed, InstanceTooLarge) as exc:
        tally[type(exc).__name__] += 1


def _opt1(inst):
    return pack_opt1(inst, EPS)


def _const2(inst):
    return pack_opt_const(inst, 2, 3, exact_limit=14)


def run_opt1(seeds):
    print("single-bin solver")
    for name, plant in OPT1_PLANTS.items():
        tally = Counter()
        for s in range(seeds):
            _tally(tally, plant(s)[0], _opt1)
        print(f"  {name:13s} {dict(tally)}")
    rng = random.Random(1)
    tally = Counter()
    for s in range(seeds):
        inst, _ = gen_instance(GeneratorSpec(seed=s, n=rng.randint(4, 10), ell=1))
        _tally(tally, inst, _opt1)
    print(f"  {'random':13s} {dict(tally)}")


def run_const(seeds):
    print("constant-bin solver (ell=2, k=3)")
    for name, plant in CONST_PLANTS.items():
        tally = Counter()
        for s in range(seeds):
            _tally(tally, plant(s)[0], _const2)
        print(f"  {name:13s} {dict(tally)}")
    rng = random.Random(2)
    tally = Counter()
    for s in range(seeds):
        inst, _ = gen_instance(GeneratorSpec(seed=100 + s, n=rng.randint(6, 9), ell=2))
        _tally(tally, inst, _const2)
    print(f"  {'random':13s} {dict(tally)}")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seeds", type=int, default=25, help="seeds per corpus")
    args = ap.parse_args(argv)
    t0 = time.time()
    run_opt1(args.seeds)
    run_const(args.seeds)
    print(f"done in {time.time() - t0:.1f}s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
