"""Property-based suites for the structural invariants.

The large fixed-size suites demanded by the acceptance gate live in
test_acceptance.py; here hypothesis explores the same properties with
adaptive inputs, plus the seeded confluence and absorption sweeps.
"""

import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from mqlogic.derivations import prop1_derivation, truth_coding_signature
from mqlogic.multiset import OMEGA, FormulaFamily, OmegaMultiset, SequentSide
from mqlogic.piecewise import eval_parametric, piecewise_to_json
from mqlogic.semantics import (
    SUM,
    SUP,
    Valuation,
    eval_formula,
    eval_antecedent,
    eval_succedent,
    exists_value,
    instance_values,
)
from mqlogic.syntax import (
    App,
    Atom,
    Cond,
    Const,
    Exists,
    Neg,
    Numeral,
    Signature,
    Var,
    formulas_equal,
    free_vars,
    normalize_term,
    normalize_term_outermost,
    parse_formula,
    render_formula,
    substitute,
)


def make_sig() -> Signature:
    s = Signature()
    s.add_predicate("P", 1)
    s.add_predicate("Q", 1)
    s.add_predicate("R", 0)
    s.add_constant("a")
    s.add_constant("b")
    s.add_function("f", 1)
    return s


SIG = make_sig()

# -- strategies -------------------------------------------------------------

var_names = st.sampled_from(["x", "y", "z"])


def terms(allow_vars: bool):
    base = [st.sampled_from([Const("a"), Const("b")])]
    if allow_vars:
        base.append(st.builds(Var, var_names))
    return st.recursive(
        st.one_of(*base),
        lambda sub: st.builds(lambda t: App("f", (t,)), sub),
        max_leaves=3,
    )


def formulas(max_depth: int, allow_vars: bool = True):
    atoms = st.one_of(
        st.builds(lambda t: Atom("P", (t,)), terms(allow_vars)),
        st.builds(lambda t: Atom("Q", (t,)), terms(allow_vars)),
        st.just(Atom("R", ())),
    )

    def extend(sub):
        return st.one_of(
            st.builds(Neg, sub),
            st.builds(Cond, sub, sub),
            st.builds(Exists, var_names, sub),
        )

    return st.recursive(atoms, extend, max_leaves=2 ** max_depth)


sentences = formulas(4).filter(lambda f: not free_vars(f))

unit_values = st.integers(min_value=0, max_value=60).flatmap(
    lambda d: st.integers(min_value=0, max_value=d + 1).map(
        lambda n: F(min(n, d + 1), d + 1)
    )
)


def valuations(draw_mode=st.sampled_from([SUM, SUP])):
    atom_pool = [
        Atom(p, (c,))
        for p in ("P", "Q")
        for c in (Const("a"), Const("b"), App("f", (Const("a"),)))
    ] + [Atom("R", ())]
    return st.builds(
        lambda mode, values, defaults: Valuation(
            make_sig(),
            mode=mode,
            atom_values=dict(zip(atom_pool, values)),
            predicate_defaults={
                "P": defaults[0],
                "Q": defaults[1],
                "R": defaults[2],
            },
        ),
        draw_mode,
        st.tuples(*([unit_values] * len(atom_pool))),
        st.tuples(
            st.one_of(st.just(F(0)), unit_values),
            st.one_of(st.just(F(0)), unit_values),
            st.one_of(st.just(F(0)), unit_values),
        ),
    )


# -- syntax properties ------------------------------------------------------


class TestSyntaxProperties:
    @given(formulas(8))
    @settings(max_examples=300, deadline=None)
    def test_render_parse_round_trip(self, f):
        assert parse_formula(render_formula(f), SIG) == f

    @given(formulas(5), var_names, terms(allow_vars=False))
    @settings(max_examples=200, deadline=None)
    def test_substitute_noop_when_not_free(self, f, x, t):
        if x not in free_vars(f):
            assert substitute(f, x, t) == f

    def test_confluence_on_coding_terms(self):
        sig = truth_coding_signature()
        rng = random.Random(2024)

        def random_term(depth):
            if depth == 0 or rng.random() < 0.3:
                return rng.choice([Numeral(rng.randint(0, 4)), Const("mu")])
            if rng.random() < 0.5:
                return App("tdot", (random_term(depth - 1),))
            return App(
                "fm", (random_term(depth - 1), random_term(depth - 1))
            )

        for _ in range(1000):
            t = random_term(3)
            inner = normalize_term(t, sig, budget=100_000)
            outer = normalize_term_outermost(t, sig, budget=100_000)
            assert inner == outer, t

    def test_confluence_with_many_coding_rules(self):
        # prop1_derivation(8) names the iterated truth atoms, so every
        # name constant has its own code.* rule in the constant buckets
        sig = prop1_derivation(8).sig
        names = [Const(c) for c in sig.naming_scheme]
        assert len(names) > 8
        rng = random.Random(2025)

        def random_term(depth):
            if depth == 0 or rng.random() < 0.3:
                return rng.choice([Numeral(rng.randint(0, 9)), rng.choice(names)])
            if rng.random() < 0.5:
                return App("tdot", (random_term(depth - 1),))
            return App(
                "fm", (random_term(depth - 1), random_term(depth - 1))
            )

        for _ in range(500):
            t = random_term(3)
            cold = normalize_term(t, sig, budget=100_000)
            warm = normalize_term(t, sig, budget=100_000)
            outer = normalize_term_outermost(t, sig, budget=100_000)
            assert cold == warm == outer, t


# -- multiset properties ----------------------------------------------------


entries = st.lists(
    st.tuples(
        formulas(3).filter(lambda f: not free_vars(f)),
        st.one_of(st.integers(min_value=1, max_value=3), st.just(OMEGA)),
    ),
    max_size=4,
)


class TestMultisetProperties:
    @given(entries, entries, entries)
    @settings(max_examples=200, deadline=None)
    def test_union_commutative_associative(self, xs, ys, zs):
        a = OmegaMultiset(SIG, xs)
        b = OmegaMultiset(SIG, ys)
        c = OmegaMultiset(SIG, zs)
        assert a.union(b) == b.union(a)
        assert a.union(b).union(c) == a.union(b.union(c))

    def test_absorption_sweep(self):
        tl = Atom("P", (Const("a"),))
        top = OmegaMultiset(SIG, [(tl, OMEGA)])
        for n in range(1, 101):
            assert top.union(OmegaMultiset(SIG, [(tl, n)])) == top

    @given(entries)
    @settings(max_examples=100, deadline=None)
    def test_omega_union_constant_family(self, xs):
        member = OmegaMultiset(SIG, xs)
        families = [FormulaFamily("i", 0, f) for f in member.support()]
        got = SequentSide(member.copy(), families).finite
        assert set(got.support()) == set(member.support())
        for f in got.support():
            assert got.multiplicity_of(f) is OMEGA


# -- semantic properties ----------------------------------------------------


class TestSemanticProperties:
    @given(valuations(), sentences)
    @settings(max_examples=300, deadline=None)
    def test_range(self, v, f):
        assert 0 <= eval_formula(v, f) <= 1

    @given(valuations(), sentences)
    @settings(max_examples=300, deadline=None)
    def test_involution(self, v, f):
        assert eval_formula(v, Neg(Neg(f))) == eval_formula(v, f)

    @given(valuations(), sentences, sentences)
    @settings(max_examples=300, deadline=None)
    def test_residuation(self, v, f, g):
        lhs = eval_formula(v, Cond(f, g))
        assert (lhs == 1) == (eval_formula(v, f) <= eval_formula(v, g))

    @given(
        st.lists(unit_values, max_size=8),
        st.one_of(st.just(F(0)), unit_values),
    )
    @settings(max_examples=300, deadline=None)
    def test_sum_dominates_sup_on_families(self, explicit, tail):
        s = exists_value(explicit, tail, SUM)
        m = exists_value(explicit, tail, SUP)
        assert s >= m
        positives = [v for v in explicit if v > 0]
        if tail == 0 and len(positives) <= 1:
            assert s == m

    @given(valuations(st.just(SUM)), formulas(3), var_names)
    @settings(max_examples=300, deadline=None)
    def test_sum_dominates_sup_quantifier_free_body(self, v_sum, body, x):
        # identical instance values on both sides requires a body whose own
        # evaluation is mode-independent
        def has_quantifier(f):
            if isinstance(f, Exists):
                return True
            if isinstance(f, Neg):
                return has_quantifier(f.body)
            if isinstance(f, Cond):
                return has_quantifier(f.lhs) or has_quantifier(f.rhs)
            return False

        if has_quantifier(body) or free_vars(body) - {x}:
            return
        ex = Exists(x, body)
        from dataclasses import replace

        v_sup = replace(v_sum, mode=SUP)
        assert eval_formula(v_sum, ex) >= eval_formula(v_sup, ex)

    def test_sum_equals_sup_single_positive_instance(self):
        sig = make_sig()
        pa = Atom("P", (Const("a"),))
        for value in (F(0), F(1, 3), F(1)):
            data = dict(atom_values={pa: value}, predicate_defaults={"P": F(0)})
            ex = Exists("x", Atom("P", (Var("x"),)))
            s1 = eval_formula(Valuation(sig, mode=SUM, **data), ex)
            s2 = eval_formula(Valuation(sig, mode=SUP, **data), ex)
            assert s1 == s2 == value

    @given(valuations(), formulas(3), var_names, st.integers(0, 10_000))
    @settings(max_examples=200, deadline=None)
    def test_tail_correctness(self, v, body, x, salt):
        if free_vars(body) - {x}:
            return
        _, tail = instance_values(v, body, x)
        rng = random.Random(salt)
        for i in range(20):
            t = Const(f"zz{rng.randint(0, 10 ** 6)}_{i}")
            inst = substitute(body, x, t) if x in free_vars(body) else body
            assert eval_formula(v, inst) == tail

    @given(valuations(), entries, sentences)
    @settings(max_examples=150, deadline=None)
    def test_side_monotonicity(self, v, xs, extra):
        ms = OmegaMultiset(SIG, xs)
        bigger = ms.union(OmegaMultiset(SIG, [(extra, 1)]))
        assert eval_succedent(v, bigger) >= eval_succedent(v, ms)
        assert eval_antecedent(v, bigger) <= eval_antecedent(v, ms)


# -- parametric consistency ---------------------------------------------------


class TestParametricProperties:
    @given(
        formulas(5).filter(lambda f: not free_vars(f)),
        st.lists(unit_values, min_size=1, max_size=8),
    )
    @settings(max_examples=150, deadline=None)
    def test_profile_matches_concrete_eval(self, sentence, points):
        sig = make_sig()
        unknown = Atom("P", (Const("a"),))
        v = Valuation(
            sig,
            mode=SUM,
            unknown=unknown,
            predicate_defaults={"Q": F(1, 2)},
        )
        profile = eval_parametric(v, sentence)
        # breakpoints too: an open/closed endpoint slip shows only there
        breakpoints = [x for p in profile.pieces for x in (p.interval.lo, p.interval.hi)]
        for point in points + breakpoints:
            concrete = eval_formula(v.with_unknown_assigned(point), sentence)
            assert profile.at(point) == concrete

    @given(formulas(4).filter(lambda f: not free_vars(f)))
    @settings(max_examples=150, deadline=None)
    def test_pieces_partition_unit_interval(self, sentence):
        sig = make_sig()
        unknown = Atom("P", (Const("a"),))
        v = Valuation(sig, mode=SUM, unknown=unknown)
        profile = eval_parametric(v, sentence)
        pieces = profile.pieces
        assert pieces[0].interval.lo == 0 and pieces[0].interval.closed_lo
        assert pieces[-1].interval.hi == 1 and pieces[-1].interval.closed_hi
        for left, right in zip(pieces, pieces[1:]):
            assert left.interval.hi == right.interval.lo
            assert left.interval.closed_hi != right.interval.closed_lo
