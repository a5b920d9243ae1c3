"""Exact piecewise-affine values over one unknown atom value in [0, 1].

Used to evaluate a sentence as a function of a single undetermined atom,
in either quantifier mode, and to solve the induced fixed-point condition
exactly.  Pieces partition [0, 1]; degenerate single-point pieces are
first-class because divergence boundaries produce isolated points.  The
liar ``~Ex x T(l)`` with ``T(l)`` unknown shows the paper's contrast: in
sum mode the series diverges on any positive v, so the profile is 1 at
v = 0 and 0 on (0, 1] and has no fixed point; in sup mode it is 1 - v on
[0, 1], continuous like every sup-mode profile, with fixed point 1/2.

There is no second copy of the value clauses here.  ``eval_parametric``
runs ``semantics.evaluate`` with the unknown as an affine value a*v + b
on one cell of [0, 1] (``_Affine``), so negation, the conditional and
the existential are ``neg_value``, ``cond_value`` and ``exists_value``.
A comparison whose answer changes inside the cell stops the run at that
point; ``_profile`` splits the cell there with ``_split`` and runs each
part again, and ``_merge`` joins two contiguous pieces whenever one
affine part describes both.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable, Iterable, Optional

from .semantics import (
    ONE,
    SemanticsError,
    Valuation,
    ValueAlgebra,
    ZERO,
    evaluate,
)
from .syntax import Formula


@dataclass(frozen=True, slots=True)
class Interval:
    lo: Fraction
    hi: Fraction
    closed_lo: bool
    closed_hi: bool

    def is_empty(self) -> bool:
        return self.lo > self.hi or (
            self.lo == self.hi and not (self.closed_lo and self.closed_hi)
        )

    def is_point(self) -> bool:
        return self.lo == self.hi and self.closed_lo and self.closed_hi

    def contains(self, v: Fraction) -> bool:
        if v < self.lo or v > self.hi:
            return False
        if v == self.lo and not self.closed_lo:
            return False
        if v == self.hi and not self.closed_hi:
            return False
        return True

    def __str__(self) -> str:
        lb = "[" if self.closed_lo else "("
        rb = "]" if self.closed_hi else ")"
        return f"{lb}{self.lo},{self.hi}{rb}"


@dataclass(frozen=True, slots=True)
class Piece:
    interval: Interval
    a: Fraction
    b: Fraction

    def value_at(self, v: Fraction) -> Fraction:
        return self.a * v + self.b


class PiecewiseLinear:
    """An exact function on [0, 1], affine on each piece of a partition."""

    __slots__ = ("pieces",)

    def __init__(self, pieces: Iterable[Piece]) -> None:
        self.pieces = tuple(pieces)

    def at(self, v: Fraction) -> Fraction:
        for p in self.pieces:
            if p.interval.contains(v):
                return p.value_at(v)
        raise ValueError(f"value {v} outside [0,1]")

    def __repr__(self) -> str:
        return " ; ".join(f"{p.interval} -> {p.a}*v+{p.b}" for p in self.pieces)


def _split(iv: Interval, r: Fraction) -> list[Interval]:
    """The nonempty parts of ``iv`` below ``r``, at ``r`` and above ``r``;
    ``[iv]`` when ``r`` lies outside ``iv``."""
    if not iv.contains(r):
        return [iv]
    parts = (
        Interval(iv.lo, r, iv.closed_lo, False),
        Interval(r, r, True, True),
        Interval(r, iv.hi, False, iv.closed_hi),
    )
    return [part for part in parts if not part.is_empty()]


def _shared_part(prev: Piece, p: Piece) -> Optional[Piece]:
    """Of two contiguous pieces, the first (left, then right) whose affine
    part describes both, or None."""
    for q, other in ((prev, p), (p, prev)):
        if (q.a, q.b) == (other.a, other.b) or (
            other.interval.is_point() and q.value_at(other.interval.lo) == other.b
        ):
            return q
    return None


def _merge(pieces: Iterable[Piece]) -> PiecewiseLinear:
    """Canonicalise: order the pieces, fold points to constants, and join
    two contiguous pieces when one affine part describes both.  A point
    takes its neighbour's affine part, the left neighbour first."""
    canon: list[Piece] = []
    for p in sorted(
        (p for p in pieces if not p.interval.is_empty()),
        key=lambda p: (p.interval.lo, not p.interval.closed_lo),
    ):
        iv = p.interval
        if iv.is_point():
            p = Piece(iv, ZERO, p.value_at(iv.lo))
        if canon:
            piv = canon[-1].interval
            if piv.hi == iv.lo and piv.closed_hi != iv.closed_lo:
                q = _shared_part(canon[-1], p)
                if q is not None:
                    canon[-1] = Piece(
                        Interval(piv.lo, iv.hi, piv.closed_lo, iv.closed_hi), q.a, q.b
                    )
                    continue
        canon.append(p)
    return PiecewiseLinear(canon)


# ---------------------------------------------------------------------------
# Parametric evaluation


class _Changes(Exception):
    """A comparison's answer changes inside its cell, at the point given."""


def _parts(x) -> tuple[Fraction, Fraction]:
    """(a, b) of an affine value, or (0, x) of a number."""
    return (x.a, x.b) if type(x) is _Affine else (ZERO, x)


class _Affine:
    """The value a*v + b of the unknown v on one cell of [0, 1]: sums with
    numbers and with each other, and differences from numbers, stay
    affine.  A comparison answers for the whole cell, or raises
    ``_Changes`` at the point inside it where its answer changes; one
    that only touches a point (``v < 0`` at v = 0) does not raise."""

    __slots__ = ("a", "b", "cell")

    def __init__(self, a: Fraction, b: Fraction, cell: Interval) -> None:
        self.a, self.b, self.cell = a, b, cell

    def __add__(self, other) -> "_Affine":
        a, b = _parts(other)
        return _Affine(self.a + a, self.b + b, self.cell)

    __radd__ = __add__

    def __rsub__(self, other) -> "_Affine":
        a, b = _parts(other)
        return _Affine(a - self.a, b - self.b, self.cell)

    def _holds(self, other, test) -> bool:
        """``test(d, 0)`` for d = self - other, on the whole cell."""
        a, b = _parts(other)
        a, b = self.a - a, self.b - b
        if a == 0:
            return test(b, 0)
        r = -b / a
        iv = self.cell
        if not iv.contains(r):  # d has the sign of a above r and of -a below
            return test(a if r <= iv.lo else -a, 0)
        answer = test(0, 0)
        if (iv.lo < r and test(-a, 0) != answer) or (r < iv.hi and test(a, 0) != answer):
            raise _Changes(r)
        return answer

    __lt__ = lambda self, other: self._holds(other, operator.lt)
    __le__ = lambda self, other: self._holds(other, operator.le)
    __gt__ = lambda self, other: self._holds(other, operator.gt)
    __ge__ = lambda self, other: self._holds(other, operator.ge)


def _profile(run: Callable[[_Affine], Any]) -> PiecewiseLinear:
    """The function v -> run(v) on [0, 1], for a ``run`` that computes
    its value with the number operations of ``_Affine``.  Each run gets
    the unknown on one cell; a run stopped by ``_Changes`` is repeated on
    the parts of its cell below, at and above the point, so each cell
    ends with one affine part, and ``_merge`` joins the cells."""
    pieces: list[Piece] = []
    cells = [Interval(ZERO, ONE, True, True)]
    while cells:
        cell = cells.pop()
        try:
            value = run(_Affine(ONE, ZERO, cell))
        except _Changes as e:
            cells.extend(_split(cell, e.args[0]))
        else:
            pieces.append(Piece(cell, *_parts(value)))
    return _merge(pieces)


def eval_parametric(valuation: Valuation, f: Formula) -> PiecewiseLinear:
    """Evaluate a sentence as an exact piecewise-affine function of the
    designated unknown atom's value.

    Needs exactly one designated unknown, in either quantifier mode.
    Evaluating the result at any rational v agrees with eval_formula on
    the valuation with the unknown set to v.  The liar ``~Ex x T(l)``
    gives 1 at 0 and 0 on (0, 1] in sum mode (no fixed point), and
    1 - v on [0, 1] in sup mode (fixed point 1/2).

    Each cell is a fresh ``evaluate`` with the unknown as an ``_Affine``
    value.  With an unknown designated ``evaluate`` never stops early, so
    which instances are walked, which transparent atoms unfold, which
    names are created and which errors are raised depend on the sentence
    and the valuation's maps, never on a value: a repeated run walks what
    the first run walked, and finds the names the first run created
    through ``name_of``'s memo.  Only the comparisons in the value clauses
    read the unknown, and each cell of the result is one on which all of
    them answer alike, so every point of it takes the same clauses.  An
    ``_Affine`` has no ``__eq__``, so the supremum's tests for a value of
    1 never hold for it, and the supremum compares every instance.
    """
    if valuation.unknown is None:
        raise SemanticsError("parametric evaluation needs a designated unknown atom")
    return _profile(
        lambda v: evaluate(
            valuation, f, ValueAlgebra(constant=lambda q: q, unknown=lambda: v, one=ONE)
        )
    )

# ---------------------------------------------------------------------------
# Fixed points


@dataclass(frozen=True)
class FixedPointSet:
    """Exact solution set of f(v) = v on [0, 1]: points and/or intervals."""

    points: tuple[Fraction, ...]
    intervals: tuple[Interval, ...]

    @property
    def is_empty(self) -> bool:
        return not self.points and not self.intervals

    def __contains__(self, v: Fraction) -> bool:
        return v in self.points or any(iv.contains(v) for iv in self.intervals)


def fixed_points(f: PiecewiseLinear) -> FixedPointSet:
    """The exact set of v in [0, 1] with f(v) = v."""
    points: list[Fraction] = []
    intervals: list[Interval] = []
    for p in f.pieces:
        if p.a == ONE:
            if p.b == ZERO:
                if p.interval.is_point():
                    points.append(p.interval.lo)
                else:
                    intervals.append(p.interval)
            continue
        v = p.b / (ONE - p.a)
        if p.interval.contains(v):
            points.append(v)
    covered = [v for v in points if any(iv.contains(v) for iv in intervals)]
    uniq = sorted(set(points) - set(covered))
    return FixedPointSet(tuple(uniq), tuple(intervals))


# ---------------------------------------------------------------------------
# JSON form


def piecewise_to_json(f: PiecewiseLinear) -> dict:
    return {
        "pieces": [
            {
                "lo": str(p.interval.lo),
                "hi": str(p.interval.hi),
                "closedLo": p.interval.closed_lo,
                "closedHi": p.interval.closed_hi,
                "a": str(p.a),
                "b": str(p.b),
            }
            for p in f.pieces
        ]
    }
