"""Exact dyadic rationals for family densities.

Every density in this toolkit is (family size) / 2^(host edge count), so a
numerator plus a power-of-two exponent represents it exactly and comparisons
never touch floating point.
"""

from __future__ import annotations

from functools import total_ordering

from .graphs import Record


@total_ordering
class DyadicDensity(Record):
    """value = numerator / 2**exponent, stored normalized (numerator odd or zero)."""

    __slots__ = ("numerator", "exponent")
    numerator: int
    exponent: int

    def __init__(self, numerator: int, exponent: int) -> None:
        if numerator < 0 or exponent < 0:
            raise ValueError(f"negative numerator or exponent: {numerator}/2^{exponent}")
        if numerator == 0:
            exponent = 0
        else:
            while numerator % 2 == 0 and exponent > 0:
                numerator //= 2
                exponent -= 1
        super().__init__(numerator, exponent)

    def __lt__(self, other: "DyadicDensity") -> bool:
        if not isinstance(other, DyadicDensity):
            return NotImplemented
        # cross-shift to a common exponent; exact in arbitrary precision
        return self.numerator << other.exponent < other.numerator << self.exponent

    def scaled_numerator(self, exponent: int) -> int:
        """Numerator when rewritten over 2**exponent (must not lose bits)."""
        if exponent < self.exponent:
            raise ValueError(f"cannot rescale /2^{self.exponent} to /2^{exponent}")
        return self.numerator << (exponent - self.exponent)

    def __str__(self) -> str:
        if self.exponent == 0:
            return str(self.numerator)
        return f"{self.numerator}/2^{self.exponent}"


def density_string(numerator: int, exponent: int) -> str:
    """Unnormalized 'k/2^e' rendering (used for persisted records)."""
    return f"{numerator}/2^{exponent}"
