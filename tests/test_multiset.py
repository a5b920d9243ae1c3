import json

import pytest
from hypothesis import given, settings, strategies as st

from mqlogic.multiset import (
    OMEGA,
    FormulaFamily,
    Sequent,
    SequentSide,
    formula_reader,
    mult_add,
    mult_sub,
    parse_sequent,
)
from mqlogic.derivations import liar_signature
from mqlogic.syntax import (
    App,
    Atom,
    Cond,
    Const,
    Exists,
    Neg,
    Numeral,
    ParseError,
    Var,
    load_signature,
    render_formula,
)


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


    def test_minus_removes_a_family(self, sig, tl):
        ti = FormulaFamily("i", 0, Atom("T", (Var("i"),)))
        not_ti = FormulaFamily("i", 0, Neg(Atom("T", (Var("i"),))))
        side = SequentSide(sig, [(tl, 1)], [ti, not_ti])
        rest = side.minus(SequentSide(sig, [], [not_ti]))
        assert rest == SequentSide(sig, [(tl, 1)], [ti])
        with pytest.raises(ValueError, match="family not present"):
            rest.minus(SequentSide(sig, [], [not_ti]))


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
        assert Sequent.from_json(data, sig, formula_reader(sig)) == s
        # family fields appear only on a side that has families
        fam = FormulaFamily("n", 1, Atom("T", (Var("n"),)))
        s = Sequent.make(sig, suc_families=[fam])
        data = json.loads(json.dumps(s.to_json()))
        assert data == {
            "ant": [],
            "suc": [],
            "sucFams": [{"var": "n", "start": 1, "formula": "T(n)"}],
        }
        assert Sequent.from_json(data, sig, formula_reader(sig)) == s

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


# ---------------------------------------------------------------------------
# Rendering order: each member is rendered once and sorted by its text,
# which must give the order of ``items()``.

SIDE_SIG = load_signature("const a\narith 0 s\nfun f/1\npred P/1\npred Q/2\n")
_terms = st.recursive(
    st.sampled_from([Const("a"), Numeral(0), Numeral(2), Var("x"), Var("n")]),
    lambda inner: st.builds(lambda t: App("f", (t,)), inner),
    max_leaves=3,
)
_formulas = st.recursive(
    st.one_of(
        st.builds(lambda t: Atom("P", (t,)), _terms),
        st.builds(lambda t, u: Atom("Q", (t, u)), _terms, _terms),
    ),
    lambda inner: st.one_of(
        st.builds(Neg, inner),
        st.builds(Cond, inner, inner),
        st.builds(Exists, st.sampled_from(["x", "n"]), inner),
    ),
    max_leaves=4,
)
_entries = st.lists(
    st.tuples(_formulas, st.one_of(st.integers(1, 3), st.just(OMEGA))), max_size=6
)
_families = st.lists(
    st.builds(FormulaFamily, st.sampled_from(["n", "m"]), st.integers(0, 2), _formulas),
    max_size=3,
)


def _render_by_items(side: SequentSide) -> str:
    """``render`` read off ``items()``, rendering each member again."""
    parts = []
    for f, m in side.items():
        text = render_formula(f)
        if m is OMEGA:
            parts.append(f"{text}^w")
        elif m == 1:
            parts.append(text)
        else:
            parts.append(f"{text}^{m}")
    for fam in side.families:
        parts.append(f"{render_formula(fam.template)}[{fam.var}>={fam.start}]")
    return ", ".join(parts)


def _to_json_by_items(side: SequentSide) -> tuple[list, list]:
    """``_to_json`` read off ``items()``, rendering each member again."""
    finite = [[render_formula(f), "w" if m is OMEGA else m] for f, m in side.items()]
    fams = [
        {"var": f.var, "start": f.start, "formula": render_formula(f.template)}
        for f in side.families
    ]
    return finite, fams


@settings(max_examples=300, deadline=None)
@given(entries=_entries, families=_families)
def test_render_and_json_follow_the_item_order(entries, families):
    side = SequentSide(SIDE_SIG, entries, families)
    assert side.render() == _render_by_items(side)
    assert side._to_json() == _to_json_by_items(side)
