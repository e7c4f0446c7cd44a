"""Exception types shared across the package, and the checks every procedure applies to caller input.

The CLI maps these onto exit codes: ArgumentError 2, other DomainError and
ConvergenceError 4.
"""

import numpy as np


class DomainError(ValueError):
    """An argument fell outside the domain a contract requires."""


class ArgumentError(DomainError):
    """A caller-chosen argument (a level, bandwidth, block length, point, count or name) is malformed or out of its domain."""


ConfigError = ArgumentError  # its former name for an unknown name or bad configuration, kept for imports and ``except``


class ConvergenceError(RuntimeError):
    """An iterative routine failed to converge.

    ``last`` carries the final iterate so callers can inspect it.
    """

    def __init__(self, message, last=None):
        super().__init__(message)
        self.last = last


def check_alpha(alpha: float, upper: float = 1.0) -> float:
    """``alpha``, if it lies in (0, upper) and 1 - alpha is below 1 in floating point; ArgumentError otherwise."""
    if not (0.0 < alpha < upper) or 1.0 - alpha == 1.0:
        raise ArgumentError(f"alpha must lie in (0, {upper:g}) with 1 - alpha < 1 (got {alpha})")
    return alpha


def check_count(value, what: str, low: int) -> int:
    """``value`` as a Python int, if it is a Python or numpy integer (not a bool) of at least ``low``; ArgumentError otherwise."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < low:
        raise ArgumentError(f"{what} must be an integer >= {low} (got {value!r})")
    return int(value)


def check_name(name, known, what: str):
    """``name``, if it is one of the strings ``known``; ArgumentError listing them otherwise."""
    if not isinstance(name, str) or name not in known:
        raise ArgumentError(f"unknown {what} {name!r}; known: {', '.join(sorted(known))}")
    return name
