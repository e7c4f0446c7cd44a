"""Exception types shared across the package, and the level check every procedure applies.

The CLI maps these onto exit codes: ArgumentError and ConfigError 2, other
DomainError and ConvergenceError 4.
"""


class DomainError(ValueError):
    """An argument fell outside the domain a contract requires."""


class ArgumentError(DomainError):
    """A caller-chosen argument (a level, bandwidth, block length, point or count) is malformed or out of its domain."""


class ConvergenceError(RuntimeError):
    """An iterative routine failed to converge.

    ``last`` carries the final iterate so callers can inspect it.
    """

    def __init__(self, message, last=None):
        super().__init__(message)
        self.last = last


class ConfigError(ValueError):
    """A simulation or CLI configuration names something unknown."""


def check_alpha(alpha: float, upper: float = 1.0) -> float:
    """``alpha``, if it lies in (0, upper) and 1 - alpha is below 1 in floating point; ArgumentError otherwise."""
    if not (0.0 < alpha < upper) or 1.0 - alpha == 1.0:
        raise ArgumentError(f"alpha must lie in (0, {upper:g}) with 1 - alpha < 1 (got {alpha})")
    return alpha
