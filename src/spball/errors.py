"""Exception types raised by the solver."""

from __future__ import annotations


class InvalidGridError(ValueError):
    """Grid resolution too coarse or otherwise unusable."""


class GridMismatchError(ValueError):
    """Two fields (or a field and a problem) live on different grids."""


class AssumptionViolationError(ValueError):
    """Problem data violates a structural assumption (coupling sign, exponent range)."""


class OutsideBallError(ValueError):
    """A field that must lie in the constraint ball does not."""


class BallOverflowError(ValueError):
    """A ball constant's product overflows the float range; the message
    names the quantity and the data value that drove it."""


class ForcingTooLargeError(ValueError):
    """Forcing norm exceeds the admissible bound computed from the ball radius.

    Carries the bound so callers can rescale.
    """

    def __init__(self, actual: float, bound: float):
        self.actual = actual
        self.bound = bound
        super().__init__(
            f"forcing L3 norm {actual:.6e} exceeds the admissible bound {bound:.6e}; "
            "rescale the forcing field or use kind 'scaled_to_bound'"
        )


class ConfigError(ValueError):
    """Malformed experiment configuration."""
