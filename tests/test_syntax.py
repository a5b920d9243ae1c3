from fractions import Fraction

import pytest

from mqlogic.syntax import (
    App,
    Atom,
    Cond,
    Const,
    Exists,
    Neg,
    Numeral,
    ParseError,
    RuleOrientationError,
    Signature,
    SignatureError,
    StepBudgetError,
    UnknownSymbolError,
    Var,
    enumerate_closed_terms,
    formulas_equal,
    free_vars,
    load_signature,
    normalize_term,
    normalize_term_outermost,
    parse_formula,
    parse_term,
    render_formula,
    render_term,
    substitute,
)
from mqlogic.derivations import truth_coding_signature


@pytest.fixture
def sig():
    s = Signature()
    s.add_predicate("P", 1)
    s.add_constant("l")
    s.add_constant("c")
    return s


class TestParsing:
    def test_negated_vacuous_existential(self, sig):
        f = parse_formula("~Ex T(l)", sig)
        assert f == Neg(Exists("x", Atom("T", (Const("l"),))))

    def test_atom(self, sig):
        assert parse_formula("P(c)", sig) == Atom("P", (Const("c"),))

    def test_identity_conditional(self, sig):
        f = parse_formula("P(c) -> P(c)", sig)
        assert f == Cond(Atom("P", (Const("c"),)), Atom("P", (Const("c"),)))

    def test_conditional_right_associative(self, sig):
        f = parse_formula("P(c) -> P(l) -> P(c)", sig)
        assert isinstance(f, Cond) and isinstance(f.rhs, Cond)

    def test_explicit_binder(self, sig):
        f = parse_formula("Ex y P(y)", sig)
        assert f == Exists("y", Atom("P", (Var("y"),)))

    def test_unknown_predicate_named(self, sig):
        with pytest.raises(UnknownSymbolError) as exc:
            parse_formula("R(c)", sig)
        assert "R" in str(exc.value)

    def test_syntax_error_carries_position(self, sig):
        with pytest.raises(ParseError) as exc:
            parse_formula("P(c) -> ", sig)
        assert exc.value.position == len("P(c) -> ")

    def test_render_round_trip(self, sig):
        for text in (
            "~Ex x T(l)",
            "P(c) -> (P(l) -> ~P(c))",
            "Ex y (P(y) -> T(l))",
            "~~P(c)",
        ):
            f = parse_formula(text, sig)
            assert parse_formula(render_formula(f), sig) == f

    def test_cannot_bind_declared_constant(self, sig):
        with pytest.raises(ParseError):
            parse_formula("Ex c P(c)", sig)

    def test_numerals_require_arithmetic(self, sig):
        with pytest.raises(ParseError):
            parse_formula("P(0)", sig)

    def test_quote_resolves_to_name_constant(self, sig):
        t = parse_term("quote(P(c))", sig)
        assert isinstance(t, Const)
        assert parse_term("quote(P(c))", sig) == t  # memoised


class TestSubstitution:
    def test_free_occurrence(self):
        assert substitute(Atom("T", (Var("x"),)), "x", Const("l")) == Atom(
            "T", (Const("l"),)
        )

    def test_vacuous(self):
        tl = Atom("T", (Const("l"),))
        assert substitute(tl, "x", Const("c")) == tl

    def test_bound_occurrence_shielded(self):
        f = Exists("x", Atom("T", (Var("x"),)))
        assert substitute(f, "x", Const("c")) == f

    def test_open_replacement_rejected(self):
        with pytest.raises(ValueError):
            substitute(Atom("T", (Var("x"),)), "x", Var("y"))

    def test_noop_when_not_free(self):
        f = Exists("x", Atom("T", (Var("x"),)))
        assert "x" not in free_vars(f)
        assert substitute(f, "x", Const("l")) == f


class TestFreeVars:
    def test_atom_var(self):
        assert free_vars(Atom("T", (Var("x"),))) == {"x"}

    def test_closed_quantifier(self):
        assert free_vars(Exists("x", Atom("T", (Var("x"),)))) == set()

    def test_vacuous_binder_closed_body(self):
        assert free_vars(Exists("x", Atom("T", (Const("l"),)))) == set()


class TestEnumeration:
    def test_declaration_order(self):
        s = Signature()
        s.add_constant("a")
        s.add_constant("b")
        assert enumerate_closed_terms(s, 2) == [Const("a"), Const("b")]

    def test_unary_function_by_depth(self):
        s = Signature()
        s.add_constant("a")
        s.add_function("f", 1)
        terms = enumerate_closed_terms(s, 3)
        assert terms == [
            Const("a"),
            App("f", (Const("a"),)),
            App("f", (App("f", (Const("a"),)),)),
        ]

    def test_zero_terms(self):
        s = Signature()
        s.add_constant("a")
        assert enumerate_closed_terms(s, 0) == []

    def test_no_constants_is_an_error(self):
        s = Signature()
        s.add_function("f", 1)
        with pytest.raises(SignatureError):
            enumerate_closed_terms(s, 1)

    def test_finite_language_returns_all(self):
        s = Signature()
        s.add_constant("a")
        assert enumerate_closed_terms(s, 10) == [Const("a")]

    def test_totality_and_stable_indices(self):
        s = Signature()
        s.add_constant("a")
        s.add_constant("b")
        s.add_function("f", 1)
        s.add_function("g", 2)
        big = enumerate_closed_terms(s, 500)
        assert len(set(big)) == len(big)
        # every term of depth <= 3 appears exactly once
        def depth_le(t, d):
            from mqlogic.syntax import term_depth

            return term_depth(t) <= d

        shallow = [t for t in big if depth_le(t, 3)]
        universe = set()
        lvl1 = [Const("a"), Const("b")]
        universe.update(lvl1)
        lvl2 = [App("f", (t,)) for t in lvl1] + [
            App("g", (u, v)) for u in lvl1 for v in lvl1
        ]
        universe.update(lvl2)
        pool = lvl1 + lvl2
        for t in pool:
            universe.add(App("f", (t,)))
            for u in pool:
                universe.add(App("g", (t, u)))
        expected = {t for t in universe if depth_le(t, 3)}
        assert set(shallow) == expected
        # indices stable across calls
        again = enumerate_closed_terms(s, 500)
        assert big == again


class TestRewriting:
    def test_coding_chain(self):
        s = truth_coding_signature()
        mu = Const("mu")
        assert normalize_term(App("fm", (Numeral(0), mu)), s) == normalize_term(mu, s)
        one = normalize_term(App("fm", (Numeral(1), mu)), s)
        assert isinstance(one, Numeral)
        named = s.named_formula(one)
        assert named is not None and isinstance(named, Atom) and named.pred == "T"

    def test_constant_without_rules_is_normal(self):
        s = Signature()
        s.add_constant("a")
        assert normalize_term(Const("a"), s) == Const("a")

    def test_idempotent(self):
        s = truth_coding_signature()
        t = App("fm", (Numeral(3), Const("mu")))
        nf = normalize_term(t, s)
        assert normalize_term(nf, s) == nf

    def test_formulas_equal_examples(self):
        s = truth_coding_signature()
        mu = Const("mu")
        assert formulas_equal(
            Atom("T", (App("fm", (Numeral(0), mu)),)), Atom("T", (mu,)), s
        )
        assert formulas_equal(Atom("T", (mu,)), Atom("T", (mu,)), s)
        assert not formulas_equal(Atom("T", (mu,)), Neg(Atom("T", (mu,))), s)

    def test_step_budget(self):
        s = truth_coding_signature()
        with pytest.raises(StepBudgetError):
            normalize_term(App("fm", (Numeral(50), Const("mu"))), s, budget=10)

    def test_step_budget_with_warm_memo(self):
        s = truth_coding_signature()
        t = App("fm", (Numeral(50), Const("mu")))
        # the first run names the coding atoms, which drops the memo
        normalize_term(t, s)
        normalize_term(t, s)
        assert t in s._normal_forms
        with pytest.raises(StepBudgetError):
            normalize_term(t, s, budget=10)

    def test_step_budget_is_exact_cold_and_warm(self):
        def countdown():
            s = Signature()
            s.add_arithmetic("0", "s")
            s.add_function("fm", 2)
            s.add_rewrite(App("fm", (Numeral(0), Var("y"))), Var("y"))
            s.add_rewrite(
                App("fm", (App("s", (Var("n"),)), Var("y"))),
                App("fm", (Var("n"), Var("y"))),
            )
            return s

        # fm(k, 7) takes k successor steps and one zero step
        t = App("fm", (Numeral(5), Numeral(7)))
        steps = 6
        assert normalize_term(t, countdown(), budget=steps) == Numeral(7)
        with pytest.raises(StepBudgetError):
            normalize_term(t, countdown(), budget=steps - 1)
        warm = countdown()
        normalize_term(t, warm)
        assert t in warm._normal_forms
        for _ in range(2):
            with pytest.raises(StepBudgetError):
                normalize_term(t, warm, budget=steps - 1)
            assert normalize_term(t, warm, budget=steps) == Numeral(7)

    def test_declared_name_invalidates_normal_forms(self):
        s = Signature()
        s.add_arithmetic("0", "s")
        s.add_constant("c")
        assert normalize_term(Const("c"), s) == Const("c")
        s.declare_name("c", Atom("T", (Const("c"),)))
        assert normalize_term(Const("c"), s) == Numeral(0)

    def test_added_rule_invalidates_normal_forms(self):
        s = Signature()
        s.add_function("f", 1)
        s.add_constant("a")
        t = App("f", (Const("a"),))
        assert normalize_term(t, s) == t
        s.add_rewrite(App("f", (Var("x"),)), Var("x"))
        assert normalize_term(t, s) == Const("a")

    def test_successor_rules_match_numerals(self):
        s = Signature()
        s.add_constant("a")
        s.add_rewrite(App("s", (App("s", (Var("x"),)),)), Var("x"), "parity")
        assert normalize_term(Numeral(5), s) == Numeral(5)
        # declaring the successor makes the rule apply to numerals
        s.add_arithmetic("0", "s")
        for n in range(6):
            nf = normalize_term(Numeral(n), s)
            assert nf == Numeral(n % 2) == normalize_term_outermost(Numeral(n), s)
        t = App("s", (App("s", (App("s", (Const("a"),)),)),))
        assert normalize_term(t, s) == App("s", (Const("a"),))

    def test_rewrites_are_read_only(self):
        s = truth_coding_signature()
        assert isinstance(s.rewrites, tuple)
        with pytest.raises(AttributeError):
            s.rewrites = ()

    def test_strategies_agree(self):
        s = truth_coding_signature()
        for k in range(6):
            t = App("fm", (Numeral(k), Const("mu")))
            assert normalize_term(t, s) == normalize_term_outermost(t, s)

    def test_nonterminating_rule_rejected(self):
        s = Signature()
        s.add_function("f", 1)
        s.add_constant("a")
        with pytest.raises(RuleOrientationError):
            s.add_rewrite(
                App("f", (Var("x"),)), App("f", (App("f", (Var("x"),)),))
            )

    def test_nonlinear_rule_rejected(self):
        s = Signature()
        s.add_function("g", 2)
        s.add_constant("a")
        with pytest.raises(RuleOrientationError):
            s.add_rewrite(App("g", (Var("x"), Var("x"))), Var("x"))

    def test_fresh_variable_on_right_rejected(self):
        s = Signature()
        s.add_function("f", 1)
        with pytest.raises(RuleOrientationError):
            s.add_rewrite(App("f", (Var("x"),)), Var("y"))


class TestSignatureLoading:
    def test_load_and_use(self):
        text = """
        # toy signature
        pred P/1
        const a
        fun f/1
        name l = ~Ex x T(l)
        """
        s = load_signature(text)
        assert s.predicate_arity("P") == 1
        assert s.is_constant("a")
        assert "l" in s.naming_scheme
        f = parse_formula("T(l)", s)
        assert f == Atom("T", (Const("l"),))

    def test_rewrite_lines(self):
        text = """
        arith 0 s
        fun fm/2
        rewrite fm(0, y) => y
        rewrite fm(s(n), y) => fm(n, y)
        """
        s = load_signature(text)
        assert normalize_term(App("fm", (Numeral(3), Numeral(5))), s) == Numeral(5)

    def test_duplicate_symbol_rejected(self):
        with pytest.raises(SignatureError):
            load_signature("const a\nconst a\n")

    def test_naming_is_injective(self):
        s = Signature()
        s.declare_name("l", Neg(Atom("T", (Const("l"),))))
        with pytest.raises(SignatureError):
            s.declare_name("k", Neg(Atom("T", (Const("l"),))))

    def test_truth_predicate_always_present(self):
        s = Signature()
        assert s.predicate_arity("T") == 1
        with pytest.raises(SignatureError):
            s.add_predicate("T", 2)
