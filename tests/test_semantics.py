import time
from fractions import Fraction as F

import pytest

from extended_sums import INFINITE, ExtendedSum
from mqlogic.derivations import liar_signature, truth_coding_signature
from mqlogic.multiset import OMEGA, Sequent, SequentSide
from mqlogic.semantics import (
    SUM,
    SUP,
    OpenFormulaError,
    SemanticsError,
    TailSeq,
    UngroundedError,
    Valuation,
    ValuationError,
    _EvalState,
    _relevant_terms,
    check_lemma1_instance,
    eval_antecedent,
    eval_formula,
    eval_succedent,
    lemma1_conclusion_finite_oracle,
    load_valuation,
    sequent_sound,
)
from mqlogic.syntax import (
    Atom,
    Cond,
    Const,
    Exists,
    Neg,
    Numeral,
    Signature,
    Var,
    load_signature,
    parse_formula,
    render_formula,
    render_term,
    substitute,
)


@pytest.fixture
def psig():
    s = Signature()
    s.add_predicate("P", 1)
    s.add_constant("a")
    return s


def instance_family(v, body, x="x"):
    """The relevant terms of ``Ex x body``, each with the value of its
    instance, and the value of an instance at a term that is not relevant."""

    def value(t):
        return eval_formula(v, substitute(body, x, t))

    terms = _relevant_terms(_EvalState(v), body, {})
    return [(t, value(t)) for t in terms], value(Const("fresh"))


class TestExtendedSum:
    def test_addition_and_absorption(self):
        a = ExtendedSum.of(F(1, 3))
        b = ExtendedSum.of(F(1, 2))
        assert a.plus(b).finite == F(5, 6)
        assert a.plus(INFINITE).is_infinite
        assert INFINITE.plus(a).is_infinite

    def test_clamp(self):
        assert ExtendedSum.of(F(3, 4)).clamp1() == F(3, 4)
        assert ExtendedSum.of(F(7, 4)).clamp1() == 1
        assert INFINITE.clamp1() == 1

    def test_omega_copies(self):
        z = ExtendedSum.of(F(0))
        assert z.plus_copies(F(0), OMEGA).finite == 0
        assert z.plus_copies(F(1, 10), OMEGA).is_infinite
        assert z.plus_copies(F(1, 10), 3).finite == F(3, 10)


class TestConnectiveClauses:
    def test_negation(self, psig):
        v = Valuation(psig, atom_values={Atom("P", (Const("a"),)): F(3, 10)})
        assert eval_formula(v, parse_formula("~P(a)", psig)) == F(7, 10)

    def test_conditional_boundary(self):
        s = Signature()
        s.add_predicate("A", 0)
        s.add_predicate("B", 0)
        v = Valuation(s, atom_values={Atom("A", ()): F(1), Atom("B", ()): F(0)})
        assert eval_formula(v, parse_formula("A -> B", s)) == 0

    def test_conditional_clamp(self):
        s = Signature()
        s.add_predicate("A", 0)
        s.add_predicate("B", 0)
        v = Valuation(
            s, atom_values={Atom("A", ()): F(1, 4), Atom("B", ()): F(1, 2)}
        )
        assert eval_formula(v, parse_formula("A -> B", s)) == 1

    def test_open_formula_rejected(self, psig):
        with pytest.raises(OpenFormulaError):
            eval_formula(Valuation(psig), Atom("P", (Var("x"),)))

    def test_defined_connective_tables(self):
        # the strong and weak connectives, written with ~ and ->
        s = Signature()
        for name in ("A", "B", "C"):
            s.add_predicate(name, 0)
        v = Valuation(
            s,
            atom_values={
                Atom("A", ()): F(2, 3),
                Atom("B", ()): F(2, 3),
                Atom("C", ()): F(1, 3),
            },
        )

        def value(text):
            return eval_formula(v, parse_formula(text, s))

        assert value("~A -> B") == 1  # strong disjunction min(1, a + b)
        assert value("~(A -> ~B)") == F(1, 3)  # strong conjunction
        assert value("(A -> C) -> C") == F(2, 3)  # weak disjunction max
        assert value("~((~A -> ~C) -> ~C)") == F(1, 3)  # weak conjunction min


class TestQuantifier:
    def test_constant_half_family(self, psig):
        f = parse_formula("Ex x P(x)", psig)
        sup = Valuation(psig, mode=SUP, predicate_defaults={"P": F(1, 2)})
        tot = Valuation(psig, mode=SUM, predicate_defaults={"P": F(1, 2)})
        assert eval_formula(sup, f) == F(1, 2)
        assert eval_formula(tot, f) == 1

    def test_convergent_sum(self, psig):
        f = parse_formula("Ex x P(x)", psig)
        v = Valuation(
            psig, mode=SUM, atom_values={Atom("P", (Const("a"),)): F(2, 5)}
        )
        assert eval_formula(v, f) == F(2, 5)

    def test_instance_values_vacuous(self):
        sig = liar_signature()
        tl = Atom("T", (Const("l"),))
        v = Valuation(sig, atom_values={tl: F(1, 3)})
        explicit, tail = instance_family(v, tl)
        assert tail == F(1, 3)
        assert all(val == F(1, 3) for _, val in explicit)

    def test_instance_values_split(self, psig):
        v = Valuation(psig, atom_values={Atom("P", (Const("a"),)): F(1)})
        explicit, tail = instance_family(v, Atom("P", (Var("x"),)))
        assert (Const("a"), F(1)) in explicit
        assert tail == 0

    def test_instance_values_uniform_default(self, psig):
        v = Valuation(psig, predicate_defaults={"P": F(1, 2)})
        explicit, tail = instance_family(v, Atom("P", (Var("x"),)))
        assert tail == F(1, 2)
        assert all(val == F(1, 2) for _, val in explicit)


    def test_instance_values_redex_representatives(self):
        # each normal form keeps its first-seen term, here a redex of the
        # body, and the explicit part is sorted by rendering
        sig = load_signature(
            "pred P/1\npred Q/1\nconst a\nconst b\nfun f/1\nfun g/1\n"
            "rewrite g(f(x)) => x\n"
        )
        v = Valuation(
            sig,
            mode=SUP,
            atom_values={
                parse_formula("P(g(f(a)))", sig): F(1, 2),
                parse_formula("Q(f(b))", sig): F(1, 3),
            },
            predicate_defaults={"P": F(1, 4)},
        )
        body = parse_formula("P(g(f(x))) -> Q(g(f(f(f(b)))))", sig)
        explicit, tail = instance_family(v, body)
        assert [(render_term(t), value) for t, value in explicit] == [
            ("a", F(1, 2)),
            ("b", F(3, 4)),
            ("f(b)", F(3, 4)),
            ("f(f(f(b)))", F(3, 4)),
            ("g(f(f(f(b))))", F(3, 4)),
        ]
        assert tail == F(3, 4)

    @pytest.mark.parametrize(
        "atoms, values",
        [
            ({}, {SUM: F(0), SUP: F(0)}),
            ({0: F(2, 3), 3: F(4, 5)}, {SUM: F(1), SUP: F(8, 15)}),
        ],
    )
    def test_names_created_while_evaluating(self, atoms, values):
        # fm(n, 0) and fm(3, y) rewrite through tdot to quotes, so each
        # new instance names a sentence and adds its code rule; values
        # computed before a rule is added must stay valid after it
        for mode, expected in values.items():
            sig = truth_coding_signature()
            sig.add_predicate("P", 1)
            f = parse_formula("Ex x (P(fm(x, 0)) -> Ex y ~P(fm(3, y)))", sig)
            v = Valuation(
                sig,
                mode=mode,
                atom_values={Atom("P", (Numeral(k),)): q for k, q in atoms.items()},
                predicate_defaults={"P": F(1)},
            )
            names = len(sig.naming_scheme)
            assert eval_formula(v, f) == expected
            assert len(sig.naming_scheme) == names + 9
            assert eval_formula(v, f) == expected
            assert len(sig.naming_scheme) == names + 9

    @pytest.mark.parametrize(
        "mode, short, expected",
        # under sum, a vacuous Ex over a positive sentence diverges to 1, so
        # the chain is Ex x0 Ex x1 P(x0), not Ex x0 P(x0) (which is 47/60)
        [(SUP, "Ex x0 P(x0)", F(1, 3)), (SUM, "Ex x0 Ex x1 P(x0)", F(1))],
    )
    def test_vacuous_chain(self, mode, short, expected):
        # nine vacuous binders over P(x0): each walks its body once, so the
        # time grows linearly with the depth, not as (relevant terms)^depth
        v = load_valuation(
            f"mode {mode}\natom P(a) = 1/3\natom P(b) = 1/4\natom P(c) = 1/5\n"
        )
        chain = parse_formula(" ".join(f"Ex x{i}" for i in range(10)) + " P(x0)", v.sig)
        start = time.perf_counter()
        assert eval_formula(v, chain) == expected
        assert time.perf_counter() - start < 1
        assert eval_formula(v, parse_formula(short, v.sig)) == expected


class TestSumStopsEarly:
    """An existential walks its tail first and its explicit instances as
    they are read, so a sum-mode one stops once its value is decided, and
    only where no skipped walk could raise or create a name: each case
    below gives what walking every instance gives."""

    def test_chain_with_positive_tail(self):
        # the tail of Ex x0 is positive (P($tail) = 0 makes the body 1), so
        # no explicit instance is walked at any level; walking all of them
        # takes (relevant terms)^8 walks
        v = load_valuation(
            "mode sum\natom P(a) = 1/3\natom P(b) = 1/4\natom P(c) = 1/5\n"
        )
        body = " -> ".join(f"P(x{i})" for i in range(8))
        chain = " ".join(f"Ex x{i}" for i in range(8)) + f" ({body})"
        start = time.perf_counter()
        assert eval_formula(v, parse_formula(chain, v.sig)) == 1
        assert time.perf_counter() - start < 1

    @pytest.mark.parametrize(
        "rules, n, body",
        [
            # d doubles a numeral, so d^10(20) needs 20,480 nested steps
            ("fun d/1\nrewrite d(0) => 0\nrewrite d(s(x)) => s(s(d(x)))\n",
             20, "d(" * 10 + "x" + ")" * 10),
            # e(n) = 2^n through d: the terms are light, the rules grow them
            ("fun e/1\nfun d/1\nrewrite d(0) => 0\nrewrite d(s(x)) => s(s(d(x)))\n"
             "rewrite e(0) => s(0)\nrewrite e(s(x)) => d(e(x))\n", 12, "e(x)"),
            # the rule shrinks terms, but k(2000) becomes a tower of 1,000 h
            ("fun k/1\nfun h/1\nrewrite k(s(s(x))) => h(k(x))\n", 2000, "k(x)"),
        ],
        ids=["doubling", "exponential", "heavy-instance"],
    )
    def test_blow_up_on_an_instance_still_raises(self, rules, n, body):
        # the tail is positive, but the explicit instance n raises
        sig = load_signature("arith 0 s\npred P/1\n" + rules)
        v = load_valuation(f"mode sum\ndefault P = 1/2\natom P({n}) = 1/2\n", sig)
        with pytest.raises(RecursionError):
            eval_formula(v, parse_formula(f"Ex x P({body})", sig))

    def test_quote_rules_create_the_same_names(self):
        # the tail is positive (default P = 1), yet every instance is walked
        # and names its sentence, in the order of walking them all
        sig = truth_coding_signature()
        sig.add_predicate("P", 1)
        before = set(sig.naming_scheme)
        f = parse_formula("Ex x (P(fm(x, 0)) -> Ex y ~P(fm(3, y)))", sig)
        v = Valuation(
            sig,
            atom_values={Atom("P", (Numeral(0),)): F(2, 3), Atom("P", (Numeral(3),)): F(4, 5)},
            predicate_defaults={"P": F(1)},
        )
        assert eval_formula(v, f) == 1
        created = [(c, g) for c, g in sig.naming_scheme.items() if c not in before]
        assert [(c, render_formula(g)) for c, g in created] == [
            ("q0", "T(0)"), ("q1", "T(1)"), ("q2", "T(2)"), ("q3", "T(3)"),
            ("q4", "T(4)"), ("q5", "T(5)"), ("q6", "T($tail)"), ("q7", "T(7)"),
            ("q8", "T(8)"),
        ]

    def test_transparent_liar_body_is_ungrounded(self):
        # T($tail) names nothing and is 1/2, but the instance l unfolds the
        # liar-like ~Ex x T(x) until the budget runs out
        sig = load_signature("pred P/1\nconst a\nname l = ~Ex x T(x)\n")
        v = load_valuation(
            "mode sum\ntransparent on\ndefault T = 1/2\natom P(l) = 1/2\n", sig
        )
        with pytest.raises(UngroundedError) as e:
            eval_formula(v, parse_formula("Ex x T(x)", sig))
        assert str(e.value) == "transparent unfolding exhausted at T(l)"

    def test_designated_unknown_raises(self):
        sig = load_signature("pred P/1\nconst a\nname l = ~Ex x T(x)\n")
        v = load_valuation("mode sum\nunknown T(l)\ndefault T = 1/2\n", sig)
        with pytest.raises(SemanticsError, match="symbolic value"):
            eval_formula(v, parse_formula("Ex x T(x)", sig))

    def test_instance_values_stay_complete(self, psig):
        psig.add_constant("b")
        v = Valuation(
            psig,
            atom_values={parse_formula(a, psig): q for a, q in (("P(a)", F(1)), ("P(b)", F(0)))},
            predicate_defaults={"P": F(1, 2)},
        )
        explicit, tail = instance_family(v, Atom("P", (Var("x"),)))
        assert explicit == [(Const("a"), F(1)), (Const("b"), F(0))]
        assert tail == F(1, 2)


class TestSequentEvaluation:
    def test_antecedent_two_copies(self, psig):
        pa = Atom("P", (Const("a"),))
        v = Valuation(psig, atom_values={pa: F(3, 4)})
        gamma = SequentSide(psig, [(pa, 2)])
        assert eval_antecedent(v, gamma) == F(1, 2)

    def test_empty_sides(self, psig):
        v = Valuation(psig)
        assert eval_antecedent(v, SequentSide(psig)) == 1
        assert eval_succedent(v, SequentSide(psig)) == 0
        assert not sequent_sound(v, Sequent.make(psig))

    def test_omega_below_one_diverges(self, psig):
        pa = Atom("P", (Const("a"),))
        v = Valuation(psig, atom_values={pa: F(9, 10)})
        assert eval_antecedent(v, SequentSide(psig, [(pa, OMEGA)])) == 0
        assert eval_succedent(v, SequentSide(psig, [(pa, OMEGA)])) == 1

    def test_omega_at_bounds_contributes_nothing(self, psig):
        pa = Atom("P", (Const("a"),))
        top = Valuation(psig, atom_values={pa: F(1)})
        bot = Valuation(psig, atom_values={pa: F(0)})
        assert eval_antecedent(top, SequentSide(psig, [(pa, OMEGA)])) == 1
        assert eval_succedent(bot, SequentSide(psig, [(pa, OMEGA)])) == 0

    def test_succedent_clamps(self, psig):
        pa = Atom("P", (Const("a"),))
        pb = Neg(pa)
        v = Valuation(psig, atom_values={pa: F(3, 5)})  # ~P(a) = 2/5... use two
        delta = SequentSide(psig, [(pa, 1), (pb, 1)])
        assert eval_succedent(v, delta) == 1

    def test_initial_sequent_always_sound(self, psig):
        pa = Atom("P", (Const("a"),))
        for num in range(0, 5):
            v = Valuation(psig, atom_values={pa: F(num, 4)})
            s = Sequent.make(psig, ant=[(pa, 1)], suc=[(pa, 1)])
            assert sequent_sound(v, s)


class TestTransparency:
    def test_unfolds_to_named_sentence(self):
        sig = Signature()
        sig.add_predicate("P", 1)
        sig.add_constant("a")
        pa = Atom("P", (Const("a"),))
        name = sig.name_of(pa)
        v = Valuation(
            sig, transparent=True, atom_values={pa: F(2, 7)}
        )
        assert eval_formula(v, Atom("T", (name,))) == F(2, 7)

    def test_liar_cycle_is_ungrounded(self):
        sig = liar_signature()
        v = Valuation(sig, transparent=True, unfold_budget=16)
        with pytest.raises(UngroundedError):
            eval_formula(v, Atom("T", (Const("l"),)))

    @pytest.mark.parametrize("mode", [SUM, SUP])
    def test_vacuous_binder_spends_budget_per_instance(self, mode):
        # T(q1) unfolds twice (q1 names T(q0), q0 names P(a)); the relevant
        # terms are a and q1, so Ex x T(q1) costs 2 x (2 + 1) = 6 unfolds
        sig = Signature()
        sig.add_predicate("P", 1)
        sig.add_constant("a")
        pa = Atom("P", (Const("a"),))
        q1 = sig.name_of(Atom("T", (sig.name_of(pa),)))
        f = Exists("x", Atom("T", (q1,)))

        def valuation(budget):
            return Valuation(
                sig,
                mode=mode,
                transparent=True,
                atom_values={pa: F(2, 7)},
                unfold_budget=budget,
            )

        terms = _relevant_terms(_EvalState(valuation(6)), f.body, {})
        assert [render_term(t) for t in terms] == ["a", "q1"]
        assert eval_formula(valuation(6), f) == (F(2, 7) if mode == SUP else 1)
        with pytest.raises(UngroundedError) as e:
            eval_formula(valuation(5), f)
        assert str(e.value) == "transparent unfolding exhausted at T(q0)"
        with pytest.raises(UngroundedError) as e:
            eval_formula(valuation(4), f)
        assert str(e.value) == "transparent unfolding exhausted at T(q1)"
        # what the binder spent is gone for the atoms after it
        then = Cond(f, Atom("T", (q1,)))
        assert eval_formula(valuation(8), then) == (1 if mode == SUP else F(2, 7))
        with pytest.raises(UngroundedError) as e:
            eval_formula(valuation(7), then)
        assert str(e.value) == "transparent unfolding exhausted at T(q0)"


class TestLemma1:
    def test_all_ones(self):
        one = TailSeq((F(1),), F(1))
        r = check_lemma1_instance(one, one, one)
        assert r.hypothesis_all and r.conclusion_holds
        assert r.lhs == 1 and r.rhs == 1

    def test_worked_mixed_instance(self):
        gamma = TailSeq((F(1, 2),), F(1))
        chi = TailSeq((F(1, 2),), F(0))
        delta = TailSeq((F(0),), F(0))
        r = check_lemma1_instance(gamma, chi, delta)
        assert r.hypothesis_all
        assert r.conclusion_holds
        assert r.lhs == 0 and r.rhs == 0

    def test_divergent_chi_forces_case_one(self):
        gamma = TailSeq((), F(1))
        chi = TailSeq((), F(1, 3))  # positive tail: series diverges
        delta = TailSeq((), F(1, 3))
        r = check_lemma1_instance(gamma, chi, delta)
        assert r.hypothesis_all and r.conclusion_holds
        assert r.rhs == 1

    def test_finite_oracle_agreement(self):
        gamma = TailSeq((F(1), F(3, 4)), F(1))
        chi = TailSeq((F(1, 4), F(1, 2)), F(0))
        delta = TailSeq((F(1, 4), F(1, 4)), F(0))
        r = check_lemma1_instance(gamma, chi, delta)
        oracle = lemma1_conclusion_finite_oracle(gamma, chi, delta)
        assert oracle is not None
        assert oracle == r.conclusion_holds

    def test_oracle_undefined_on_divergent(self):
        gamma = TailSeq((), F(1, 2))
        chi = TailSeq((), F(0))
        delta = TailSeq((), F(0))
        assert lemma1_conclusion_finite_oracle(gamma, chi, delta) is None


class TestValuationFiles:
    def test_load_and_eval(self):
        v = load_valuation(
            """
            mode sup
            default P = 1/2
            atom P(a) = 3/4
            """
        )
        f = parse_formula("Ex x P(x)", v.sig)
        assert eval_formula(v, f) == F(3, 4)

    def test_unknown_atom_line(self):
        sig = liar_signature()
        v = load_valuation("mode sum\nunknown T(l)\n", sig)
        assert v.unknown == Atom("T", (Const("l"),))

    def test_transparent_flag(self):
        v = load_valuation("transparent on\n")
        assert v.transparent

    def test_bad_mode_rejected(self):
        from mqlogic.semantics import SemanticsError

        with pytest.raises(SemanticsError):
            load_valuation("mode max\n")


class TestValuationValues:
    """Each value is one Fraction in [0, 1]: one already is stays as it is,
    anything else is coerced and range-checked as before."""

    def test_unit_fractions_are_kept(self, psig):
        q = F(1, 3)
        pa = Atom("P", (Const("a"),))
        v = Valuation(psig, atom_values={pa: q}, predicate_defaults={"P": q})
        assert v.atom_values[pa] is q and v.predicate_defaults["P"] is q

    def test_other_values_are_coerced(self, psig):
        pa = Atom("P", (Const("a"),))
        v = Valuation(psig, atom_values={pa: "1/3"}, predicate_defaults={"P": 1})
        assert v.atom_values[pa] == F(1, 3) and type(v.atom_values[pa]) is F
        assert v.predicate_defaults["P"] == 1 and type(v.predicate_defaults["P"]) is F

    @pytest.mark.parametrize("value", [F(4, 3), F(-1, 2), 2, "3/2"])
    def test_out_of_range_values_raise(self, psig, value):
        pa = Atom("P", (Const("a"),))
        with pytest.raises(ValueError, match="value out of"):
            Valuation(psig, atom_values={pa: value})
        with pytest.raises(ValueError, match="value out of"):
            Valuation(psig, predicate_defaults={"P": value})

    @pytest.mark.parametrize(
        "text", ["mode sum\natom P(a) = 3/2\n", "mode sum\ndefault P = -1/2\n"]
    )
    def test_a_bad_value_names_its_line(self, text):
        with pytest.raises(ValuationError, match="valuation line 2: value out of"):
            load_valuation(text)
