"""Solver configuration with environment overrides."""

import os
from dataclasses import dataclass, fields
from fractions import Fraction


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
            raise ValueError(
                f"eps_opt1 must lie in (0, 1/200), got {self.eps_opt1}"
            )
        for name in ("exact_limit", "enumeration_limit", "oracle_limit"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be positive")


def config_from_env(environ=None) -> SolveConfig:
    """Build a config, applying any of the documented override variables.

    Integer fields read K, EXACT_LIMIT, ENUMERATION_LIMIT and ORACLE_LIMIT;
    EPS_OPT1 accepts `p/q` or a decimal.  A malformed value raises ValueError
    naming the variable.
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
                kwargs[f.name] = Fraction(raw)
            else:
                kwargs[f.name] = int(raw)
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"environment variable {f.name.upper()}: "
                             f"bad value {raw!r}") from exc
    return SolveConfig(**kwargs)
