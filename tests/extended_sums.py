"""Extended sums: exact nonnegative rationals plus an infinite point.

The reference value clauses in the tests are written over these, as the
library's clauses were before they took a unit; the library itself sums
with ``semantics.side_sum``.
"""

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from mqlogic.multiset import OMEGA

ONE = Fraction(1)


@dataclass(frozen=True, slots=True)
class ExtendedSum:
    """A nonnegative rational or the absorbing infinite sum."""

    finite: Optional[Fraction]  # None means infinite

    @staticmethod
    def of(value: Fraction) -> "ExtendedSum":
        if value < 0:
            raise ValueError("extended sums are nonnegative")
        return ExtendedSum(value)

    @property
    def is_infinite(self) -> bool:
        return self.finite is None

    def plus(self, other: "ExtendedSum") -> "ExtendedSum":
        if self.is_infinite or other.is_infinite:
            return INFINITE
        return ExtendedSum(self.finite + other.finite)

    def plus_copies(self, value: Fraction, mult) -> "ExtendedSum":
        """Add ``value`` once per copy; omega-many positive copies diverge."""
        if value < 0:
            raise ValueError("extended sums are nonnegative")
        if value == 0:
            return self
        if mult is OMEGA:
            return INFINITE
        if self.is_infinite:
            return INFINITE
        return ExtendedSum(self.finite + value * mult)

    def clamp1(self) -> Fraction:
        """min(1, sum); the infinite sum clamps to 1."""
        if self.is_infinite or self.finite >= 1:
            return ONE
        return self.finite


INFINITE = ExtendedSum(None)
