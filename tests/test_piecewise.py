from fractions import Fraction as F

import pytest

from mqlogic.derivations import liar_signature
from mqlogic.piecewise import (
    Interval,
    Piece,
    PiecewiseLinear,
    _Affine,
    _Changes,
    _merge,
    eval_parametric,
    fixed_points,
    piecewise_to_json,
)
from mqlogic.semantics import (
    ONE,
    SUM,
    SUP,
    SemanticsError,
    Valuation,
    eval_formula,
    exists_value,
)
from mqlogic.syntax import Atom, Cond, Const, Exists, Neg, Signature, parse_formula


@pytest.fixture
def liar_env():
    sig = liar_signature()
    tl = Atom("T", (Const("l"),))
    return sig, tl, Valuation(sig, mode=SUM, unknown=tl)


class TestPieces:
    def test_interval_membership(self):
        iv = Interval(F(0), F(1, 2), False, True)
        assert not iv.contains(F(0))
        assert iv.contains(F(1, 2))
        assert iv.contains(F(1, 4))
        assert not iv.contains(F(3, 4))

    def test_clamp_splits_at_crossing(self, liar_env):
        sig, tl, _ = liar_env
        sig.add_predicate("P", 1)
        sig.add_constant("a")
        pa = parse_formula("P(a)", sig)
        v = Valuation(sig, mode=SUM, atom_values={pa: F(1, 2)}, unknown=tl)
        # T(l) -> P(a) is min(1, 1 - v + 1/2), which crosses 1 at v = 1/2
        g = eval_parametric(v, parse_formula("T(l) -> P(a)", sig))
        assert g.at(F(0)) == 1
        assert g.at(F(1, 2)) == 1
        assert g.at(F(3, 4)) == F(3, 4)
        assert g.at(F(1)) == F(1, 2)
        assert len(g.pieces) == 2

    def test_clamped_crossing_joins_left_neighbour(self):
        # the crossing point 1/2 of a clamp has value 1, which both
        # neighbours' parts give there; it joins the left piece v + 1/2
        pieces = (
            Piece(Interval(F(1, 2), F(1), False, True), F(0), F(1)),
            Piece(Interval(F(1, 2), F(1, 2), True, True), F(0), F(1)),
            Piece(Interval(F(0), F(1, 2), True, False), F(1), F(1, 2)),
        )
        assert _merge(pieces).pieces == (
            Piece(Interval(F(0), F(1, 2), True, True), F(1), F(1, 2)),
            Piece(Interval(F(1, 2), F(1), False, True), F(0), F(1)),
        )

    def test_comparison_raises_only_where_its_answer_changes(self):
        v = _Affine(F(1), F(0), Interval(F(0), F(1), True, True))
        assert not v < 0  # touches 0 at v = 0 without crossing
        assert v >= 0
        with pytest.raises(_Changes) as changed:
            v <= 0
        assert changed.value.args == (F(0),)
        with pytest.raises(_Changes) as changed:
            1 - v > F(1, 3)
        assert changed.value.args == (F(2, 3),)
        # outside the cell's open end the answer is that of the cell
        right = _Affine(F(1), F(0), Interval(F(1, 2), F(1), False, True))
        assert right > F(1, 2) and not right <= F(1, 2)


class TestParametric:
    def test_liar_profile(self, liar_env):
        sig, tl, v = liar_env
        profile = eval_parametric(v, parse_formula("~Ex x T(l)", sig))
        assert piecewise_to_json(profile)["pieces"] == [
            {
                "lo": "0",
                "hi": "0",
                "closedLo": True,
                "closedHi": True,
                "a": "0",
                "b": "1",
            },
            {
                "lo": "0",
                "hi": "1",
                "closedLo": False,
                "closedHi": True,
                "a": "0",
                "b": "0",
            },
        ]

    def test_identity_and_negation(self, liar_env):
        sig, tl, v = liar_env
        ident = eval_parametric(v, tl)
        assert len(ident.pieces) == 1
        assert ident.at(F(5, 9)) == F(5, 9)
        neg = eval_parametric(v, Neg(tl))
        assert neg.at(F(5, 9)) == F(4, 9)

    def test_requires_unknown(self, liar_env):
        sig, tl, _ = liar_env
        with pytest.raises(SemanticsError):
            eval_parametric(Valuation(sig, mode=SUM), tl)

    def test_sup_mode_liar(self, liar_env):
        # the same evaluator profiles a sentence in sup mode: the liar is
        # continuous there, 1 - v on all of [0, 1], with fixed point 1/2
        sig, tl, _ = liar_env
        profile = eval_parametric(
            Valuation(sig, mode=SUP, unknown=tl), parse_formula("~Ex x T(l)", sig)
        )
        assert profile.pieces == (Piece(Interval(F(0), F(1), True, True), F(-1), F(1)),)
        assert fixed_points(profile).points == (F(1, 2),)

    def test_sup_takes_the_exact_maximum_of_affine_values(self, liar_env):
        # the supremum's early returns test ``== one``; an affine value is
        # never equal to it, even on a cell where it is 1, so the branch
        # compares every instance and splits the cell where they cross
        whole = Interval(F(0), F(1), True, True)
        one_on_cell = _Affine(F(0), F(1), whole)
        assert not one_on_cell == ONE and not ONE == one_on_cell
        v = _Affine(F(1), F(0), whole)
        assert exists_value([F(1, 4)], one_on_cell, SUP) is one_on_cell
        with pytest.raises(_Changes) as changed:
            exists_value([F(1, 2), v], F(1, 4), SUP)
        assert changed.value.args == (F(1, 2),)
        sig, tl, _ = liar_env
        sig.add_predicate("P", 1)
        sig.add_constant("a")
        sig.add_constant("b")
        pa, pb = parse_formula("P(a)", sig), parse_formula("P(b)", sig)
        val = Valuation(
            sig,
            mode=SUP,
            atom_values={pb: F(1, 2)},
            predicate_defaults={"P": F(1, 4)},
            unknown=pa,
        )
        sentence = parse_formula("Ex x P(x)", sig)
        profile = eval_parametric(val, sentence)
        assert profile.pieces == (
            Piece(Interval(F(0), F(1, 2), True, True), F(0), F(1, 2)),
            Piece(Interval(F(1, 2), F(1), False, True), F(1), F(0)),
        )
        for point in (F(0), F(1, 2), F(3, 4), F(1)):
            assert profile.at(point) == eval_formula(
                val.with_unknown_assigned(point), sentence
            )

    def test_conditional_profile(self, liar_env):
        sig, tl, v = liar_env
        # v -> 1-v  ==  min(1, 1 - v + (1 - v)) crosses 1 at v = 1/2
        profile = eval_parametric(v, Cond(tl, Neg(tl)))
        assert profile.at(F(0)) == 1
        assert profile.at(F(1, 2)) == 1
        assert profile.at(F(3, 4)) == F(1, 2)
        assert profile.at(F(1)) == 0

    def test_agrees_with_concrete_eval(self, liar_env):
        sig, tl, v = liar_env
        sentences = [
            parse_formula("~Ex x T(l)", sig),
            parse_formula("T(l) -> ~T(l)", sig),
            parse_formula("Ex x T(l)", sig),
            parse_formula("~(T(l) -> T(l))", sig),
        ]
        for sentence in sentences:
            profile = eval_parametric(v, sentence)
            for num, den in ((0, 1), (1, 5), (1, 2), (4, 5), (1, 1)):
                point = F(num, den)
                concrete = eval_formula(v.with_unknown_assigned(point), sentence)
                assert profile.at(point) == concrete, (sentence, point)


class TestFixedPoints:
    def test_liar_has_none(self, liar_env):
        sig, tl, v = liar_env
        profile = eval_parametric(v, parse_formula("~Ex x T(l)", sig))
        assert fixed_points(profile).is_empty

    def test_identity_everywhere(self, liar_env):
        sig, tl, v = liar_env
        sol = fixed_points(eval_parametric(v, tl))
        assert not sol.points
        assert len(sol.intervals) == 1
        assert sol.intervals[0] == Interval(F(0), F(1), True, True)

    def test_reflection_at_half(self, liar_env):
        sig, tl, v = liar_env
        sol = fixed_points(eval_parametric(v, Neg(tl)))
        assert sol.points == (F(1, 2),)
        assert not sol.intervals

    def test_constant_fixed_point(self):
        pieces = (Piece(Interval(F(0), F(1), True, True), F(0), F(1, 3)),)
        sol = fixed_points(PiecewiseLinear(pieces))
        assert sol.points == (F(1, 3),)

    def test_boundary_respects_openness(self):
        pieces = (
            Piece(Interval(F(0), F(0), True, True), F(0), F(1)),
            Piece(Interval(F(0), F(1), False, True), F(0), F(0)),
        )
        sol = fixed_points(PiecewiseLinear(pieces))
        # f(0)=1 != 0; f(v)=0 only at v=0 which the second piece excludes
        assert sol.is_empty


# The quantifier-shift laws, x not free in A, with A = T(l) the unknown
# and B = P(x).  They hold for the supremum (Hajek, Metamathematics of Fuzzy
# Logic, 1998) and fail for the clamped series.
SHIFT_LAWS = [
    ("Ex x (T(l) -> P(x))", "T(l) -> Ex x P(x)"),
    ("Ex x (P(x) -> T(l))", "~Ex x ~P(x) -> T(l)"),
    ("Ex x ~(T(l) -> P(x))", "~(T(l) -> ~Ex x ~P(x))"),
    ("Ex x ~(P(x) -> T(l))", "~(Ex x P(x) -> T(l))"),
    ("Ex x ~~P(x)", "Ex x P(x)"),
]


def _shift_env(mode, pa, pb, default):
    sig = liar_signature()
    sig.add_predicate("P", 1)
    sig.add_constant("a")
    sig.add_constant("b")
    values = {parse_formula("P(a)", sig): pa, parse_formula("P(b)", sig): pb}
    val = Valuation(
        sig,
        mode=mode,
        atom_values=values,
        predicate_defaults={"P": default},
        unknown=parse_formula("T(l)", sig),
    )
    return lambda text: eval_parametric(val, parse_formula(text, sig))


class TestShiftLaws:
    @pytest.mark.parametrize("law", range(len(SHIFT_LAWS)))
    @pytest.mark.parametrize(
        "pa, pb, default",
        [(F(1, 4), F(1, 4), F(0)), (F(1, 3), F(2, 3), F(1, 2)), (F(0), F(1), F(1, 5))],
    )
    def test_sup_sides_have_equal_profiles(self, law, pa, pb, default):
        profile = _shift_env(SUP, pa, pb, default)
        lhs, rhs = SHIFT_LAWS[law]
        assert profile(lhs).pieces == profile(rhs).pieces

    def test_sum_sides_differ(self):
        profile = _shift_env(SUM, F(1, 4), F(1, 4), F(0))
        differ = [
            law
            for law, (lhs, rhs) in enumerate(SHIFT_LAWS, 1)
            if profile(lhs).pieces != profile(rhs).pieces
        ]
        assert differ == [1, 3, 4]
        # law 3: the series over instances ~(v -> P(x)) diverges for v > 0
        lhs, rhs = SHIFT_LAWS[2]
        assert profile(lhs).pieces == (
            Piece(Interval(F(0), F(0), True, True), F(0), F(0)),
            Piece(Interval(F(0), F(1), False, True), F(0), F(1)),
        )
        assert profile(rhs).pieces == (Piece(Interval(F(0), F(1), True, True), F(1), F(0)),)
