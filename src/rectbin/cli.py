"""Command line front end: generate, pack, validate, oracle, render.

Exit codes: 0 ok, 1 invalid packing, 2 parse error, 3 limits exceeded.
"""

import argparse
import dataclasses
import sys
from fractions import Fraction

from .config import SolveConfig, config_from_env
from .errors import GuessFailed, InstanceTooLarge, PackingStuck, ParseError
from .fileio import (
    parse_instance,
    parse_packing,
    serialize_instance,
    serialize_packing,
)
from .geometry import BinLayout, Instance, Packing, validate_packing
from .opt1 import pack_opt1
from .optconst import pack_opt_const
from .oracle import GeneratorSpec, exact_min_bins, gen_instance
from .render_svg import render_packing


def shelf_pack(instance: Instance) -> Packing:
    """First-fit decreasing height onto shelves, shelves first-fit into bins.

    Unconditional: any item obeys the unit bounds, so a fresh shelf in a
    fresh bin always accepts it.  The result is validated before it is
    returned; a failure raises PackingStuck.
    """
    order = sorted(instance.items, key=lambda it: (-it.height, it.id))
    bins = []  # per bin: (layout, shelves as [x_used, y_base, height], y_used)
    for it in order:
        placed = False
        for entry in bins:
            layout, shelves = entry[0], entry[1]
            for shelf in shelves:
                if shelf[2] >= it.height and shelf[0] + it.width <= 1:
                    layout.add(it.id, shelf[0], shelf[1])
                    shelf[0] += it.width
                    placed = True
                    break
            if placed:
                break
            if entry[2] + it.height <= 1:
                layout.add(it.id, 0, entry[2])
                shelves.append([it.width, entry[2], it.height])
                entry[2] += it.height
                placed = True
                break
        if not placed:
            layout = BinLayout(1, 1)
            layout.add(it.id, 0, 0)
            bins.append([layout, [[it.width, Fraction(0), it.height]], it.height])
    packing = Packing([entry[0] for entry in bins])
    report = validate_packing(packing, instance)
    if not report.ok:
        raise PackingStuck(f"shelf packing failed validation: {report.violations[:3]}")
    return packing


def pack_auto(instance: Instance, config: SolveConfig):
    """Best validated packing available: the single-bin solver, then the
    constant-bin solver for each guess, then the shelf fallback.  Each of
    them validates the packing it returns.

    Returns (packing, provenance, guaranteed).  The fallback never fails,
    so neither does this.
    """
    try:
        packing = pack_opt1(instance, config.eps_opt1,
                            exact_limit=config.exact_limit)
        return packing, "opt1", True
    except (GuessFailed, InstanceTooLarge):
        pass
    for ell in range(2, config.k):
        try:
            packing = pack_opt_const(
                instance, ell, config.k,
                exact_limit=config.exact_limit,
                enumeration_limit=config.enumeration_limit,
            )
            return packing, f"const{ell}", True
        except (GuessFailed, InstanceTooLarge):
            continue
    return shelf_pack(instance), "shelf", False


def _read(path):
    if path == "-":
        return sys.stdin.read()
    with open(path) as fh:
        return fh.read()


def _write(path, text):
    if path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


def cmd_gen(args):
    spec = GeneratorSpec(seed=args.seed, n=args.n, ell=args.ell, mode=args.mode)
    instance, witness = gen_instance(spec)
    _write(args.out, serialize_instance(instance))
    if args.witness:
        _write(args.witness, serialize_packing(witness))
    return 0


def cmd_pack(args):
    config = config_from_env()
    if args.k is not None:
        config = dataclasses.replace(config, k=args.k)
    if args.eps is not None:
        config = dataclasses.replace(config, eps_opt1=Fraction(args.eps))
    instance = parse_instance(_read(args.infile))
    packing, provenance, guaranteed = pack_auto(instance, config)
    _write(args.out, serialize_packing(packing))
    if args.svg:
        render_packing(packing, instance, args.svg)
    print(f"bins {len(packing.bins)} branch {provenance} "
          f"guaranteed {'yes' if guaranteed else 'no'}")
    return 0


def cmd_validate(args):
    instance = parse_instance(_read(args.infile))
    packing = parse_packing(_read(args.packing))
    report = validate_packing(packing, instance)
    if report.ok:
        print(f"ok {len(packing.bins)} bins")
        return 0
    for v in report.violations:
        print(v)
    return 1


def cmd_oracle(args):
    instance = parse_instance(_read(args.infile))
    config = config_from_env()
    try:
        found = exact_min_bins(instance, max_bins=args.max_bins,
                               oracle_limit=config.oracle_limit)
    except InstanceTooLarge as exc:
        print(f"limits exceeded: {exc}", file=sys.stderr)
        return 3
    if found is None:
        print(f"opt > {args.max_bins}")
    else:
        print(f"opt {found[0]}")
    return 0


def cmd_render(args):
    instance = parse_instance(_read(args.infile))
    packing = parse_packing(_read(args.packing))
    paths = render_packing(packing, instance, args.out)
    for p in paths:
        print(p)
    return 0


def build_parser():
    parser = argparse.ArgumentParser(prog="rectbin",
                                     description="two-dimensional bin packing")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate an instance with a known packing")
    p.add_argument("--mode", choices=("guillotine", "shrink"), default="guillotine")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--ell", type=int, default=1)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--witness", help="also write the generator's packing")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("pack", help="pack an instance file")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--k", type=int)
    p.add_argument("--eps", help="accuracy for the single-bin solver, p/q")
    p.add_argument("--out", required=True)
    p.add_argument("--svg", help="directory for one SVG per bin")
    p.set_defaults(func=cmd_pack)

    p = sub.add_parser("validate", help="check a packing against an instance")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--packing", required=True)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("oracle", help="exact minimum bin count (small n)")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--max-bins", type=int, default=4)
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("render", help="draw a packing as SVG files")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--packing", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_render)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, ZeroDivisionError) as exc:
        print(f"bad argument: {exc}", file=sys.stderr)
        return 2
    except InstanceTooLarge as exc:
        print(f"limits exceeded: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
