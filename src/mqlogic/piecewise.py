"""Exact piecewise-affine values over one unknown atom value in [0, 1].

Used to evaluate a sentence as a function of a single undetermined atom
(sum-quantifier mode) and to solve the induced fixed-point condition
exactly.  Pieces partition [0, 1]; degenerate single-point pieces are
first-class because divergence boundaries produce isolated points.

Every clause that cuts a piece (the clamp at 1, the divergence of a
series) cuts it with ``_split`` at the point where an affine part crosses
its threshold and chooses per part by the side of that point it lies on
(``_cut``); ``_merge`` then joins two contiguous pieces whenever one
affine part describes both.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional

from .semantics import (
    ONE,
    SUM,
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


def intersect(a: Interval, b: Interval) -> Optional[Interval]:
    if a.lo > b.lo or (a.lo == b.lo and not a.closed_lo):
        lo, closed_lo = a.lo, a.closed_lo
    else:
        lo, closed_lo = b.lo, b.closed_lo
    if a.hi < b.hi or (a.hi == b.hi and not a.closed_hi):
        hi, closed_hi = a.hi, a.closed_hi
    else:
        hi, closed_hi = b.hi, b.closed_hi
    out = Interval(lo, hi, closed_lo, closed_hi)
    return None if out.is_empty() else out


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

    @staticmethod
    def constant(c: Fraction) -> "PiecewiseLinear":
        return PiecewiseLinear([Piece(Interval(ZERO, ONE, True, True), ZERO, Fraction(c))])

    @staticmethod
    def identity() -> "PiecewiseLinear":
        return PiecewiseLinear([Piece(Interval(ZERO, ONE, True, True), ONE, ZERO)])

    def at(self, v: Fraction) -> Fraction:
        for p in self.pieces:
            if p.interval.contains(v):
                return p.value_at(v)
        raise ValueError(f"value {v} outside [0,1]")

    def __repr__(self) -> str:
        return " ; ".join(f"{p.interval} -> {p.a}*v+{p.b}" for p in self.pieces)


def one_minus(f: PiecewiseLinear) -> PiecewiseLinear:
    return PiecewiseLinear(Piece(p.interval, -p.a, ONE - p.b) for p in f.pieces)


def _refine_many(fns: list[PiecewiseLinear]) -> list[tuple[Interval, list[Piece]]]:
    """Common refinement: intervals of the joint partition with, for each,
    the affine restriction of every input function."""
    acc: list[tuple[Interval, list[Piece]]] = [
        (Interval(ZERO, ONE, True, True), [])
    ]
    for fn in fns:
        nxt: list[tuple[Interval, list[Piece]]] = []
        for interval, stack in acc:
            for p in fn.pieces:
                cut = intersect(interval, p.interval)
                if cut is not None:
                    nxt.append((cut, stack + [p]))
        acc = nxt
    acc.sort(key=lambda pair: (pair[0].lo, not pair[0].closed_lo, pair[0].hi))
    return acc


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


def _cut(
    iv: Interval, a: Fraction, b: Fraction, level: Fraction
) -> list[tuple[Interval, bool]]:
    """The parts of ``iv`` cut at the point r where a*v + b crosses
    ``level``, each with whether a*v + b exceeds ``level`` on it.  A part
    lies on one side of r, so any endpoint other than r decides; the
    point r itself sits at the level."""
    if a == 0:
        return [(iv, b > level)]
    r = (level - b) / a
    out = []
    for part in _split(iv, r):
        e = part.hi if part.lo == r else part.lo
        out.append((part, e != r and (e > r) == (a > 0)))
    return out


def add(f: PiecewiseLinear, g: PiecewiseLinear) -> PiecewiseLinear:
    return _merge(
        Piece(iv, pf.a + pg.a, pf.b + pg.b) for iv, (pf, pg) in _refine_many([f, g])
    )


def _clamp_piece(piece: Piece) -> list[Piece]:
    """Replace the region of a piece where it exceeds 1 with the constant 1.

    The piece is split at its crossing of 1 only when some part exceeds 1;
    the crossing point itself keeps the affine part (its value is exactly 1).
    """
    a, b = piece.a, piece.b
    parts = _cut(piece.interval, a, b, ONE)
    if not any(over for _, over in parts):
        return [piece]
    return [Piece(part, ZERO, ONE) if over else Piece(part, a, b) for part, over in parts]


def clamp_upper(f: PiecewiseLinear) -> PiecewiseLinear:
    return _merge(q for p in f.pieces for q in _clamp_piece(p))


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


def _exists_sum(
    explicit: list[PiecewiseLinear], tail: PiecewiseLinear
) -> PiecewiseLinear:
    """Sum-quantifier combination: clamp(sum over the instance family).

    Each interval of the refinement is split at the tail's root.  Where the
    tail is positive the series diverges (value 1); where it vanishes the
    value is the clamped finite sum of the explicit instances.  Isolated
    tail zeros become degenerate pieces.
    """
    pieces: list[Piece] = []
    for interval, (*instances, tp) in _refine_many(explicit + [tail]):
        finite_a = sum((p.a for p in instances), ZERO)
        finite_b = sum((p.b for p in instances), ZERO)
        for part, diverges in _cut(interval, tp.a, tp.b, ZERO):
            if diverges:
                pieces.append(Piece(part, ZERO, ONE))
            else:
                pieces.extend(_clamp_piece(Piece(part, finite_a, finite_b)))
    return _merge(pieces)


# ---------------------------------------------------------------------------
# Parametric evaluation


PIECEWISE = ValueAlgebra(
    constant=PiecewiseLinear.constant,
    unknown=PiecewiseLinear.identity,
    neg=one_minus,
    cond=lambda a, b: clamp_upper(add(one_minus(a), b)),
    exists=lambda explicit, tail, mode: _exists_sum(explicit, tail),
)


def eval_parametric(valuation: Valuation, f: Formula) -> PiecewiseLinear:
    """Evaluate a sentence as an exact piecewise-affine function of the
    designated unknown atom's value.

    Requires sum-quantifier mode and exactly one designated unknown.
    Evaluating the result at any rational v agrees with eval_formula on
    the valuation with the unknown set to v.
    """
    if valuation.unknown is None:
        raise SemanticsError("parametric evaluation needs a designated unknown atom")
    if valuation.mode != SUM:
        raise SemanticsError("parametric evaluation requires sum-quantifier mode")
    return evaluate(valuation, f, PIECEWISE)


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
