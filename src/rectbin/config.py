"""Solver configuration with environment overrides."""

import os
from dataclasses import dataclass, fields
from fractions import Fraction

from .fileio import parse_int, parse_rational

# the exact searches recurse about twice per item: stay clear of Python's 1000
MAX_LIMIT = 256


@dataclass
class SolveConfig:
    k: int = 3
    eps_opt1: Fraction = Fraction(1, 256)
    exact_limit: int = 10
    enumeration_limit: int = 12
    oracle_limit: int = 8

    def __post_init__(self):
        self.eps_opt1 = Fraction(self.eps_opt1)
        if self.k < 2:
            raise ValueError(f"k must be at least 2, got {self.k}")
        if not 0 < self.eps_opt1 < Fraction(1, 200):
            raise ValueError(f"eps_opt1 must lie in (0, 1/200), got {self.eps_opt1}")
        for name in ("exact_limit", "enumeration_limit", "oracle_limit"):
            if not 1 <= getattr(self, name) <= MAX_LIMIT:
                raise ValueError(f"{name} must lie in [1, {MAX_LIMIT}], got {getattr(self, name)}")


def config_from_env(environ=None) -> SolveConfig:
    """Build a config, applying any of the documented override variables.

    Integer fields read K, EXACT_LIMIT, ENUMERATION_LIMIT and ORACLE_LIMIT
    in ASCII digits (fileio.parse_int), each limit at most MAX_LIMIT;
    EPS_OPT1 accepts `p/q` or a decimal, within the number bounds of
    fileio.parse_rational.  A malformed or out-of-bound value raises
    ValueError naming the variable.
    """
    if environ is None:
        environ = os.environ
    kwargs = {}
    for f in fields(SolveConfig):
        raw = environ.get(f.name.upper())
        if raw is None:
            continue
        try:
            if f.name == "eps_opt1":
                kwargs[f.name] = parse_rational(raw)
            else:
                kwargs[f.name] = parse_int(raw)
        except ValueError as exc:
            raise ValueError(f"environment variable {f.name.upper()}: {exc}") from exc
    return SolveConfig(**kwargs)
