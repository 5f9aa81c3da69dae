"""Command line front end: generate, pack, validate, oracle, render.

Exit codes: 0 ok, 1 invalid packing, 2 parse error, 3 limits exceeded,
4 internal error (a solver bug, reported on one stderr line).
"""

import argparse
import dataclasses
import os
import sys

from .config import SolveConfig, config_from_env
from .errors import GuessFailed, InstanceTooLarge, PackingStuck, ParseError, RectbinError
from .fileio import (
    parse_instance,
    parse_int,
    parse_packing,
    parse_rational,
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
    fresh bin always accepts it.  The packing is not validated here.
    """
    order = sorted(instance.items, key=lambda it: (-it.height, it.id))
    bins = []  # per bin: (layout, shelves as [x_used, y_base, height])
    for it in order:
        for layout, shelves in bins:
            shelf = next((s for s in shelves if s[2] >= it.height and s[0] + it.width <= 1), None)
            top = shelves[-1][1] + shelves[-1][2]
            if shelf is None and top + it.height <= 1:
                shelf = [0, top, it.height]
                shelves.append(shelf)
            if shelf is not None:
                break
        else:
            layout, shelf = BinLayout(1, 1), [0, 0, it.height]
            bins.append((layout, [shelf]))
        shelf[0] = layout.row([it], shelf[0], shelf[1])
    return Packing([layout for layout, _ in bins])


def pack_auto(instance: Instance, config: SolveConfig):
    """Best validated packing available: the single-bin solver, then the
    constant-bin solver for each guess ell from 2 below k (and at most n,
    since OPT <= n), then the shelf fallback.

    Returns (packing, provenance, guaranteed).  The solvers return their
    packings unvalidated; this validates the one it emits.  The fallback
    never fails, so this raises only on a bug: PackingStuck when the
    packing fails validation or a construction is stuck (steinberg's
    "portfolio exhausted", say), and a plain PreconditionViolated, which
    marks a caller bug inside the solvers.
    """
    packing, provenance, guaranteed = _first_packing(instance, config)
    report = validate_packing(packing, instance)
    if not report.ok:
        raise PackingStuck(f"{provenance} packing (path {'/'.join(packing.path) or '-'}) "
                           f"failed validation: {report.violations[:3]}")
    return packing, provenance, guaranteed


def _first_packing(instance, config):
    """pack_auto's (packing, provenance, guaranteed), unvalidated."""
    try:
        packing = pack_opt1(instance, config.eps_opt1,
                            exact_limit=config.exact_limit)
        return packing, "opt1", True
    except (GuessFailed, InstanceTooLarge):
        pass
    for ell in range(2, min(config.k, len(instance.items) + 1)):  # OPT <= n
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
    if args.out == "-" and args.witness == "-":
        raise ValueError("--out - and --witness - would share stdout: name a file for one")
    files = [path for path in (args.out, args.witness) if path and path != "-"]
    if len(files) == 2 and os.path.realpath(files[0]) == os.path.realpath(files[1]):
        raise ValueError(f"--out and --witness name the same file {args.out!r}: "
                         "the witness would overwrite the instance")
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
        try:
            eps = parse_rational(args.eps)
        except ValueError as exc:
            raise ValueError(f"--eps: {exc}") from exc
        config = dataclasses.replace(config, eps_opt1=eps)
    if args.svg == "-":
        raise ValueError("--svg names a directory, not stdout: '-' is not accepted")
    instance = parse_instance(_read(args.infile))
    packing, provenance, guaranteed = pack_auto(instance, config)
    _write(args.out, serialize_packing(packing))
    if args.svg:
        render_packing(packing, instance, args.svg)
    # with the packing on stdout, the summary goes to stderr
    print(f"bins {len(packing.bins)} branch {provenance} "
          f"guaranteed {'yes' if guaranteed else 'no'}",
          file=sys.stderr if args.out == "-" else sys.stdout)
    return 0


def _print_violations(report):
    for v in report.violations:
        print(v)
    return 1


def cmd_validate(args):
    instance = parse_instance(_read(args.infile))
    packing = parse_packing(_read(args.packing))
    report = validate_packing(packing, instance)
    if report.ok:
        print(f"ok {len(packing.bins)} bins")
        return 0
    return _print_violations(report)


def cmd_oracle(args):
    if args.max_bins < 1:
        raise ValueError(f"--max-bins must be at least 1, got {args.max_bins}")
    instance = parse_instance(_read(args.infile))
    config = config_from_env()
    found = exact_min_bins(instance, max_bins=args.max_bins,
                           oracle_limit=config.oracle_limit)
    if found is None:
        print(f"opt > {args.max_bins}")
    else:
        print(f"opt {found[0]}")
    return 0


def cmd_render(args):
    if args.out == "-":
        raise ValueError("--out names a directory, not stdout: '-' is not accepted")
    instance = parse_instance(_read(args.infile))
    packing = parse_packing(_read(args.packing))
    report = validate_packing(packing, instance)
    if not report.ok:
        return _print_violations(report)
    paths = render_packing(packing, instance, args.out)
    for p in paths:
        print(p)
    return 0


class _BadOption(Exception):
    """A bad option value.  argparse answers a ValueError from an option's
    type with its usage block and the type's function name; this exception
    passes through parse_args, and main prints it on one line."""


def _int_option(text):
    """An integer option, read by parse_int."""
    try:
        return parse_int(text)
    except ValueError as exc:
        raise _BadOption(exc) from None


def build_parser():
    parser = argparse.ArgumentParser(prog="rectbin",
                                     description="two-dimensional bin packing")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate an instance with a known packing")
    p.add_argument("--mode", choices=("guillotine", "shrink"), default="guillotine")
    p.add_argument("--n", type=_int_option, required=True)
    p.add_argument("--ell", type=_int_option, default=1)
    p.add_argument("--seed", type=_int_option, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--witness", help="also write the generator's packing")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("pack", help="pack an instance file")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--k", type=_int_option)
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
    p.add_argument("--max-bins", type=_int_option, default=4)
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("render", help="draw a valid packing as SVG files")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--packing", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_render)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, ZeroDivisionError, _BadOption) as exc:
        print(f"bad argument: {exc}", file=sys.stderr)
        return 2
    except InstanceTooLarge as exc:
        print(f"limits exceeded: {exc}", file=sys.stderr)
        return 3
    except RectbinError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
