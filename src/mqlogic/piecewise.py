"""Exact piecewise-affine values over one unknown atom value in [0, 1].

Used to evaluate a sentence as a function of a single undetermined atom
(sum-quantifier mode) and to solve the induced fixed-point condition
exactly.  Pieces partition [0, 1]; degenerate single-point pieces are
first-class because divergence boundaries produce isolated points.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Optional

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
        if self.lo > self.hi:
            return True
        if self.lo == self.hi:
            return not (self.closed_lo and self.closed_hi)
        return False

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
        return PiecewiseLinear(
            [Piece(Interval(ZERO, ONE, True, True), ZERO, Fraction(c))]
        )

    @staticmethod
    def identity() -> "PiecewiseLinear":
        return PiecewiseLinear([Piece(Interval(ZERO, ONE, True, True), ONE, ZERO)])

    def at(self, v: Fraction) -> Fraction:
        for p in self.pieces:
            if p.interval.contains(v):
                return p.value_at(v)
        raise ValueError(f"value {v} outside [0,1]")

    def map_affine(self, fn: Callable[[Fraction, Fraction], tuple[Fraction, Fraction]]):
        return PiecewiseLinear(
            [Piece(p.interval, *fn(p.a, p.b)) for p in self.pieces]
        )

    def __repr__(self) -> str:
        return " ; ".join(
            f"{p.interval} -> {p.a}*v+{p.b}" for p in self.pieces
        )


def one_minus(f: PiecewiseLinear) -> PiecewiseLinear:
    return f.map_affine(lambda a, b: (-a, ONE - b))


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


def add(f: PiecewiseLinear, g: PiecewiseLinear) -> PiecewiseLinear:
    pieces = []
    for interval, (pf, pg) in (
        (iv, tuple(ps)) for iv, ps in _refine_many([f, g])
    ):
        pieces.append(Piece(interval, pf.a + pg.a, pf.b + pg.b))
    return _merge(PiecewiseLinear(pieces))


def _clamp_piece(piece: Piece) -> list[Piece]:
    """Replace the region of a piece where it exceeds 1 with the constant 1."""
    iv, a, b = piece.interval, piece.a, piece.b
    if a == 0:
        return [Piece(iv, ZERO, ONE)] if b > ONE else [piece]
    r = (ONE - b) / a
    lo_ok = piece.value_at(iv.lo) <= ONE
    hi_ok = piece.value_at(iv.hi) <= ONE
    if lo_ok and hi_ok:
        return [piece]
    if not lo_ok and not hi_ok:
        return [Piece(iv, ZERO, ONE)]
    # crossing point r is interior (or at an endpoint with the other side
    # strictly above); the affine side keeps r, where the value is exactly 1.
    left = intersect(iv, Interval(ZERO, r, True, True))
    right = intersect(iv, Interval(r, ONE, False, True))
    out: list[Piece] = []
    if left is not None:
        out.append(Piece(left, a, b) if lo_ok else Piece(left, ZERO, ONE))
    if right is not None:
        out.append(Piece(right, a, b) if hi_ok else Piece(right, ZERO, ONE))
    return out


def clamp_upper(f: PiecewiseLinear) -> PiecewiseLinear:
    pieces: list[Piece] = []
    for p in f.pieces:
        pieces.extend(_clamp_piece(p))
    return _merge(PiecewiseLinear(pieces))


def _merge(f: PiecewiseLinear) -> PiecewiseLinear:
    """Canonicalise: order pieces, fold degenerate points to constants,
    and merge contiguous pieces with the same affine part."""
    pieces = sorted(
        (p for p in f.pieces if not p.interval.is_empty()),
        key=lambda p: (p.interval.lo, not p.interval.closed_lo),
    )
    canon: list[Piece] = []
    for p in pieces:
        if p.interval.is_point():
            p = Piece(p.interval, ZERO, p.value_at(p.interval.lo))
        if canon:
            prev = canon[-1]
            contiguous = prev.interval.hi == p.interval.lo and (
                prev.interval.closed_hi != p.interval.closed_lo
            )
            same = prev.a == p.a and prev.b == p.b
            point_joinable = (
                p.interval.is_point()
                and prev.value_at(p.interval.lo) == p.b
                and prev.interval.hi == p.interval.lo
                and not prev.interval.closed_hi
            )
            prev_point_joinable = (
                prev.interval.is_point()
                and p.value_at(prev.interval.lo) == prev.b
                and p.interval.lo == prev.interval.lo
                and not p.interval.closed_lo
            )
            if contiguous and same:
                canon[-1] = Piece(
                    Interval(
                        prev.interval.lo,
                        p.interval.hi,
                        prev.interval.closed_lo,
                        p.interval.closed_hi,
                    ),
                    p.a,
                    p.b,
                )
                continue
            if point_joinable:
                canon[-1] = Piece(
                    Interval(
                        prev.interval.lo,
                        p.interval.hi,
                        prev.interval.closed_lo,
                        True,
                    ),
                    prev.a,
                    prev.b,
                )
                continue
            if prev_point_joinable:
                canon[-1] = Piece(
                    Interval(
                        prev.interval.lo,
                        p.interval.hi,
                        True,
                        p.interval.closed_hi,
                    ),
                    p.a,
                    p.b,
                )
                continue
        canon.append(p)
    return PiecewiseLinear(canon)


def _exists_sum(
    explicit: list[PiecewiseLinear], tail: PiecewiseLinear
) -> PiecewiseLinear:
    """Sum-quantifier combination: clamp(sum over the instance family).

    On regions where the tail is positive the series diverges (value 1);
    where the tail vanishes the value is the clamped finite sum of the
    explicit instances.  Isolated tail zeros become degenerate pieces.
    """
    pieces: list[Piece] = []
    for interval, stack in _refine_many(explicit + [tail]):
        tp = stack[-1]
        sum_a = sum((p.a for p in stack[:-1]), ZERO)
        sum_b = sum((p.b for p in stack[:-1]), ZERO)
        finite = Piece(interval, sum_a, sum_b)
        if tp.a == 0:
            if tp.b > 0:
                pieces.append(Piece(interval, ZERO, ONE))
            else:
                pieces.extend(_clamp_piece(finite))
            continue
        root = -tp.b / tp.a
        covered = False
        if interval.contains(root):
            covered = True
            for part in (
                intersect(interval, Interval(ZERO, root, True, False)),
                intersect(interval, Interval(root, root, True, True)),
                intersect(interval, Interval(root, ONE, False, True)),
            ):
                if part is None:
                    continue
                if part.is_point():
                    val = min(ONE, finite.value_at(root))
                    pieces.append(Piece(part, ZERO, val))
                else:
                    pieces.append(Piece(part, ZERO, ONE))
        if not covered:
            # tail strictly positive on the whole interval
            pieces.append(Piece(interval, ZERO, ONE))
    return _merge(PiecewiseLinear(pieces))


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
    covered = [
        v for v in points if any(iv.contains(v) for iv in intervals)
    ]
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
