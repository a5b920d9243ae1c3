import json

import pytest

from mqlogic.multiset import (
    OMEGA,
    FormulaFamily,
    Sequent,
    SequentSide,
    mult_add,
    mult_sub,
    parse_sequent,
)
from mqlogic.derivations import liar_signature
from mqlogic.syntax import Atom, Const, Neg, ParseError, Var


@pytest.fixture
def sig():
    return liar_signature()


@pytest.fixture
def tl():
    return Atom("T", (Const("l"),))


class TestMultiplicity:
    def test_addition(self):
        assert mult_add(2, 3) == 5
        assert mult_add(2, OMEGA) is OMEGA
        assert mult_add(OMEGA, 2) is OMEGA
        assert mult_add(OMEGA, OMEGA) is OMEGA

    def test_subtraction(self):
        assert mult_sub(5, 2) == 3
        assert mult_sub(OMEGA, 7) is OMEGA
        assert mult_sub(OMEGA, OMEGA) == 0
        with pytest.raises(ValueError):
            mult_sub(2, OMEGA)
        with pytest.raises(ValueError):
            mult_sub(1, 2)

    def test_zero_multiplicity_rejected(self, sig, tl):
        with pytest.raises(ValueError):
            SequentSide(sig, [(tl, 0)])


class TestUnion:
    def test_omega_absorbs_single_copy(self, sig, tl):
        a = SequentSide(sig, [(tl, 1)])
        b = SequentSide(sig, [(tl, OMEGA)])
        assert a.union(b) == SequentSide(sig, [(tl, OMEGA)])

    def test_identity(self, sig, tl):
        a = SequentSide(sig, [(tl, 2)])
        assert SequentSide(sig).union(a) == a

    def test_finite_addition(self, sig, tl):
        other = Neg(tl)
        a = SequentSide(sig, [(tl, 1), (other, 1)])
        b = SequentSide(sig, [(tl, 1)])
        got = a.union(b)
        assert got.multiplicity_of(tl) == 2
        assert got.multiplicity_of(other) == 1


def _constant_family(f):
    """A family whose template ignores its index: f at every slot."""
    return FormulaFamily("i", 0, f)


class TestOmegaUnion:
    """The union over omega slots as a sequent side computes it: a family
    that is the same sentence at every slot folds into omega copies."""

    def test_uniform_tail_goes_omega(self, sig, tl):
        side = SequentSide(sig, families=[_constant_family(tl)])
        assert side == SequentSide(sig, [(tl, OMEGA)])
        assert side.families == ()

    def test_single_explicit_member(self, sig, tl):
        side = SequentSide(sig, [(tl, 1)])
        assert list(side.items()) == [(tl, 1)]

    def test_finite_sum_of_explicit(self, sig, tl):
        first = SequentSide(sig, [(tl, 1)])
        second = SequentSide(sig, [(tl, 2)])
        # oracle: direct addition
        assert first.union(second).multiplicity_of(tl) == 1 + 2

    def test_all_equal_members_support(self, sig, tl):
        member = SequentSide(sig, [(tl, 2), (Neg(tl), 1)])
        families = [_constant_family(f) for f in member.support()]
        got = SequentSide(sig, member.items(), families)
        assert got.multiplicity_of(tl) is OMEGA
        assert got.multiplicity_of(Neg(tl)) is OMEGA
        assert set(got.support()) == set(member.support())

    def test_operations_leave_the_side_unchanged(self, sig, tl):
        def build():
            fam = FormulaFamily("i", 0, Atom("T", (Var("i"),)))
            return SequentSide(sig, [(tl, 2)], [fam, _constant_family(Neg(tl))])

        side, other = build(), SequentSide(sig, [(tl, 1)])
        side.with_added(tl)
        side.with_removed_one(tl)
        side.union(other)
        side.minus(other)
        other.union(side)
        assert side == build() and side.render() == build().render()
        assert other == SequentSide(sig, [(tl, 1)])


class TestMultiplicityLookup:
    def test_normalisation_aware(self):
        from mqlogic.derivations import truth_coding_signature
        from mqlogic.syntax import App, Numeral

        s = truth_coding_signature()
        mu = Const("mu")
        ms = SequentSide(
            s, [(Atom("T", (App("fm", (Numeral(0), mu)),)), 1)]
        )
        assert ms.multiplicity_of(Atom("T", (mu,))) == 1

    def test_absent_is_zero(self, sig, tl):
        assert SequentSide(sig).multiplicity_of(tl) == 0

    def test_omega_entry(self, sig, tl):
        ms = SequentSide(sig, [(tl, OMEGA)])
        assert ms.multiplicity_of(tl) is OMEGA


class TestSequentForms:
    def test_text_round_trip(self, sig):
        s = parse_sequent("T(l), T(l) |- ~T(l), T(l)^w", sig)
        assert s.ant.multiplicity_of(Atom("T", (Const("l"),))) == 2
        assert s.suc.multiplicity_of(Atom("T", (Const("l"),))) is OMEGA
        assert s.ant.families == () and s.suc.families == ()
        assert s.render() == "T(l)^2 |- T(l)^w, ~T(l)"
        again = parse_sequent(s.render(), sig)
        assert again == s

    def test_json_round_trip(self, sig):
        s = parse_sequent("T(l)^3 |- ~T(l)", sig)
        data = json.loads(json.dumps(s.to_json()))
        assert data == {"ant": [["T(l)", 3]], "suc": [["~T(l)", 1]]}
        assert Sequent.from_json(data, sig) == s
        # family fields appear only on a side that has families
        fam = FormulaFamily("n", 1, Atom("T", (Var("n"),)))
        s = Sequent.make(sig, suc_families=[fam])
        data = json.loads(json.dumps(s.to_json()))
        assert data == {
            "ant": [],
            "suc": [],
            "sucFams": [{"var": "n", "start": 1, "formula": "T(n)"}],
        }
        assert Sequent.from_json(data, sig) == s

    def test_empty_sequent(self, sig):
        s = parse_sequent(" |- ", sig)
        assert s.ant.is_empty() and s.suc.is_empty()

    def test_members_must_be_sentences(self, sig):
        with pytest.raises(ValueError):
            parse_sequent("T(x) |- ", sig)

    @pytest.mark.parametrize(
        "text, position",
        [("T(l), T(l |- ", 9), ("T(l) |- T(l), ~~", 16), ("T(l)^x |- ", 4)],
    )
    def test_error_positions_count_from_the_input(self, sig, text, position):
        with pytest.raises(ParseError) as exc:
            parse_sequent(text, sig)
        assert exc.value.position == position
