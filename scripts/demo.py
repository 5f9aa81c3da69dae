"""End-to-end demo: generate an instance, pack it, validate, render.

Writes instance.txt, packing.txt and one SVG per bin into --out, then
prints a short report of what happened.
"""

import argparse
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from rectbin.cli import pack_auto
from rectbin.classify import vol
from rectbin.config import SolveConfig
from rectbin.fileio import serialize_instance, serialize_packing
from rectbin.geometry import validate_packing
from rectbin.oracle import GeneratorSpec, gen_instance
from rectbin.render_svg import render_packing


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--n", type=int, default=9, help="number of items")
    ap.add_argument("--ell", type=int, default=2, help="bins in the planted witness")
    ap.add_argument("--mode", choices=("guillotine", "shrink"), default="guillotine")
    ap.add_argument("--out", default="demo_out")
    args = ap.parse_args(argv)

    instance, witness = gen_instance(GeneratorSpec(args.seed, args.n, args.ell, args.mode))
    packing, branch, guaranteed = pack_auto(instance, SolveConfig())
    report = validate_packing(packing, instance)

    os.makedirs(args.out, exist_ok=True)
    with open(os.path.join(args.out, "instance.txt"), "w") as fh:
        fh.write(serialize_instance(instance))
    with open(os.path.join(args.out, "packing.txt"), "w") as fh:
        fh.write(serialize_packing(packing))
    svgs = render_packing(packing, instance, args.out)

    print(f"instance: {args.n} items, total area {float(vol(instance.items)):.3f}, "
          f"witness uses {len(witness.bins)} bins")
    print(f"solver:   {len(packing.bins)} bins via {branch} "
          f"({'guaranteed' if guaranteed else 'fallback, no guarantee'})")
    print(f"validator: {'ok' if report.ok else report.violations}")
    print(f"wrote {args.out}/instance.txt, {args.out}/packing.txt and {len(svgs)} SVG files")
    return 0 if report.ok else 1


if __name__ == "__main__":
    sys.exit(main())
