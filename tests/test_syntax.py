import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from enumeration_oracle import enumerate_closed_terms_eager, term_depth
from rewrite_oracle import normalize_term_outermost
from token_oracle import tokenize_by_loop
import mqlogic
from mqlogic.syntax import (
    App,
    Atom,
    Cond,
    Const,
    Exists,
    Neg,
    Numeral,
    ParseError,
    Quote,
    RuleOrientationError,
    Signature,
    SignatureError,
    StepBudgetError,
    UnknownSymbolError,
    Var,
    _tokenize,
    constant_weight,
    enumerate_closed_terms,
    formulas_equal,
    free_vars,
    load_signature,
    normalize_formula,
    normalize_term,
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

    @pytest.mark.parametrize(
        "text, var", [("Ex x T(quote(P(x)))", "x"), ("Ex y ~T(quote(Ex x P(y)))", "y")]
    )
    def test_open_quote_under_binder_rejected(self, sig, text, var):
        """A quote names a sentence; one that relies on an enclosing binder
        names none, so it is refused at parse time."""
        sig.add_predicate("T", 1)
        with pytest.raises(ParseError) as exc:
            parse_formula(text, sig)
        assert f"quote of an open formula: '{var}'" in str(exc.value)

    def test_open_quote_in_rewrite_rhs_loads(self):
        s = load_signature("pred P/1\nconst a\nfun h/1\nrewrite h(x) => quote(P(x))\n")
        assert normalize_term(App("h", (Const("a"),)), s) == parse_term("quote(P(a))", s)


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

    def test_binary_function_order(self):
        s = Signature()
        s.add_constant("a")
        s.add_constant("b")
        s.add_function("f", 1)
        s.add_function("g", 2)
        assert [render_term(t) for t in enumerate_closed_terms(s, 10)] == [
            "a", "b", "f(a)", "f(b)",
            "g(a, a)", "g(a, b)", "g(b, a)", "g(b, b)",
            "f(f(a))", "f(f(b))",
        ]

    def test_arithmetic_order(self):
        s = Signature()
        s.add_arithmetic("0", "s")
        s.add_constant("c")
        s.add_function("h", 2)
        assert [render_term(t) for t in enumerate_closed_terms(s, 12)] == [
            "0", "c", "1", "s(c)",
            "h(0, 0)", "h(0, c)", "h(c, 0)", "h(c, c)",
            "2", "s(s(c))", "s(h(0, 0))", "s(h(0, c))",
        ]

    def test_zero_terms(self):
        s = Signature()
        s.add_constant("a")
        assert enumerate_closed_terms(s, 0) == []

    @staticmethod
    def _shapes():
        """Four signatures: a ternary function, two with arithmetic (one
        declaring a constant after it) and a mixed-arity one."""
        ternary = load_signature("const a\nconst b\nconst c\nfun h/3\n")
        arith_first = load_signature("arith 0 s\nconst c\nfun h/2\n")
        arith_between = load_signature("const a\narith 0 s\nconst b\nfun g/2\n")
        mixed = load_signature("const a\nconst b\nfun f/1\nfun g/2\n")
        return (ternary, arith_first, arith_between, mixed)

    @pytest.mark.parametrize("shape", range(4))
    def test_matches_the_eager_sorted_enumeration(self, shape):
        sig = self._shapes()[shape]
        # the eager version builds whole depths before it truncates, so
        # its first n terms do not depend on how many it was asked for
        reference = enumerate_closed_terms_eager(sig, 200)
        for n in range(201):
            assert enumerate_closed_terms(sig, n) == reference[:n], n

    def test_one_term_past_a_depth_builds_only_that_term(self):
        sig = self._shapes()[0]  # 30 terms up to depth 2, 26,973 at depth 3
        start = time.perf_counter()
        terms = enumerate_closed_terms(sig, 31)
        assert time.perf_counter() - start < 0.05
        assert render_term(terms[-1]) == "h(a, a, h(a, a, a))"

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

    def test_rule_free_formula_is_returned(self, sig):
        f = Neg(Atom("P", (App("f", (Const("l"),)),)))
        assert normalize_formula(f, sig) is f

    def test_a_later_rule_applies_at_once(self, sig):
        sig.add_function("f", 1)
        f = Atom("P", (App("f", (Const("l"),)),))
        assert normalize_formula(f, sig) is f
        sig.add_rewrite(App("f", (Var("x"),)), Var("x"))
        assert normalize_formula(f, sig) == Atom("P", (Const("l"),))

    def test_later_arithmetic_applies_at_once(self, sig):
        f = Atom("P", (App("s", (Numeral(0),)),))
        assert normalize_formula(f, sig) is f
        sig.add_arithmetic("0", "s")
        assert normalize_formula(f, sig) == Atom("P", (Numeral(1),))

    @pytest.mark.parametrize("make", [Signature, truth_coding_signature])
    @pytest.mark.parametrize("thing", [Const("l"), "P(l)", None])
    def test_non_formula_raises(self, make, thing):
        with pytest.raises(TypeError, match="not a formula"):
            normalize_formula(thing, make())

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
        s.max_rewrite_steps = 10
        with pytest.raises(StepBudgetError):
            normalize_term(App("fm", (Numeral(50), Const("mu"))), s)

    def test_step_budget_with_warm_memo(self):
        s = truth_coding_signature()
        t = App("fm", (Numeral(50), Const("mu")))
        # the first run names the coding atoms; their code rules keep the memo
        normalize_term(t, s)
        normalize_term(t, s)
        assert t in s._normal_forms
        s.max_rewrite_steps = 10
        with pytest.raises(StepBudgetError):
            normalize_term(t, s)

    def test_step_budget_is_exact_cold_and_warm(self):
        def countdown(steps):
            s = Signature()
            s.add_arithmetic("0", "s")
            s.add_function("fm", 2)
            s.add_rewrite(App("fm", (Numeral(0), Var("y"))), Var("y"))
            s.add_rewrite(
                App("fm", (App("s", (Var("n"),)), Var("y"))),
                App("fm", (Var("n"), Var("y"))),
            )
            s.max_rewrite_steps = steps
            return s

        # fm(k, 7) takes k successor steps and one zero step; at k = 5000
        # the chain of root steps is far longer than the recursion limit
        for k in (5, 5000):
            t = App("fm", (Numeral(k), Numeral(7)))
            steps = k + 1
            assert normalize_term(t, countdown(steps)) == Numeral(7)
            assert normalize_term_outermost(t, countdown(steps)) == Numeral(7)
            with pytest.raises(StepBudgetError):
                normalize_term(t, countdown(steps - 1))
            warm = countdown(steps)
            normalize_term(t, warm)
            # every term on the chain has its entry, with its own step count
            for j in (0, 1, k // 2, k):
                assert warm._normal_forms[App("fm", (Numeral(j), Numeral(7)))] == (
                    Numeral(7),
                    j + 1,
                )
            for _ in range(2):
                warm.max_rewrite_steps = steps - 1
                with pytest.raises(StepBudgetError):
                    normalize_term(t, warm)
                warm.max_rewrite_steps = steps
                assert normalize_term(t, warm) == Numeral(7)

    def test_created_names_keep_normal_forms(self):
        # fm(3, mu) names the truth atoms it builds, and each new name's
        # code rule leaves the memo in place
        s = truth_coding_signature()
        t = App("fm", (Numeral(3), Const("mu")))
        rules_before = len(s.rewrites)
        nf = normalize_term(t, s)
        assert len(s.rewrites) > rules_before
        assert s._normal_forms[t][0] == nf

    def test_declared_name_invalidates_normal_forms(self):
        s = Signature()
        s.add_arithmetic("0", "s")
        s.add_function("f", 1)
        s.add_constant("c")
        s.add_constant("d")
        assert normalize_term(Const("c"), s) == Const("c")
        s.declare_name("c", Atom("T", (Const("c"),)))
        assert normalize_term(Const("c"), s) == Numeral(0)
        # d occurs only inside the memoised f(d)
        inside = App("f", (Const("d"),))
        assert normalize_term(inside, s) == inside
        s.declare_name("d", Atom("T", (Const("d"),)))
        assert normalize_term(inside, s) == App("f", (Numeral(1),))

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

    @pytest.mark.parametrize(
        "text, weight",
        [
            ("fun f/1\nfun g/1\nrewrite g(f(x)) => x\n", 1),
            # name codes 0 and 1: a constant outweighs the numeral it becomes
            ("arith 0 s\nname l = T(0)\nname k = T(1)\nfun f/1\n"
             "rewrite f(s(x)) => x\n", 3),
            ("fun f/1\nfun h/1\nrewrite h(x) => quote(T(x))\n", 0),  # quote
            ("fun f/1\nfun g/1\nfun h/2\nrewrite f(g(g(x))) => h(x, x)\n", 0),
            ("fun f/1\nfun g/1\nrewrite f(x) => g(x)\n", 0),  # not lighter
        ],
        ids=["shrinking", "name-codes", "quote", "repeated-var", "same-size"],
    )
    def test_constant_weight(self, text, weight):
        assert constant_weight(load_signature(text)) == weight

    def test_constant_weight_follows_the_rules(self):
        s = load_signature("fun f/1\nfun g/1\nrewrite g(f(x)) => x\n")
        assert constant_weight(s) == 1
        s.add_rewrite(App("f", (Var("x"),)), App("g", (Var("x"),)))
        assert constant_weight(s) == 0


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

    @pytest.mark.parametrize(
        "text, message",
        [
            (
                "pred P/1\nconst a\nname l = ~(P(a)\n",
                "line 3: unexpected end of input (at position 15)",
            ),
            ("const a\nfun f/1\nrewrite f(x => a\n", "line 3: unexpected end of input (at position 11)"),
            ("const a\nfun f/1\n  rewrite f(x) =>  g(x)  # g\n", "line 3: unknown symbol 'g' (at position 19)"),
            ("const a\nname  l  =  ~P(a)\n", "line 2: unknown symbol 'P' (at position 13)"),
            ("arith\n", "line 1: arith takes <zero> <successor>, got ''"),
            ("const a\narith 0\n", "line 2: arith takes <zero> <successor>, got '0'"),
            ("arith 0 s t\n", "line 1: arith takes <zero> <successor>, got '0 s t'"),
            ("const a\nfun f\n", "line 2: fun takes <symbol>/<arity>, got 'f'"),
            ("fun f/x\n", "line 1: fun takes <symbol>/<arity>, got 'f/x'"),
            ("const a\npred P/one\n", "line 2: pred takes <symbol>/<arity>, got 'P/one'"),
        ],
        ids=[
            "name",
            "rewrite-lhs",
            "rewrite-rhs",
            "name-spaced",
            "arith-no-operand",
            "arith-one-operand",
            "arith-three-operands",
            "fun-no-arity",
            "fun-bad-arity",
            "pred-bad-arity",
        ],
    )
    def test_parse_error_positions_count_in_the_line(self, text, message):
        with pytest.raises(SignatureError) as exc:
            load_signature(text)
        assert str(exc.value) == message

    def test_naming_is_injective(self):
        s = Signature()
        s.declare_name("l", Neg(Atom("T", (Const("l"),))))
        with pytest.raises(SignatureError):
            s.declare_name("k", Neg(Atom("T", (Const("l"),))))

    def test_rejected_name_leaves_no_code(self):
        s = Signature()
        s.add_arithmetic("0", "s")
        s.add_predicate("P", 1)
        p5 = Atom("P", (Numeral(5),))
        s.declare_name("a", p5)
        rules, scheme = s.rewrites, s.naming_scheme
        with pytest.raises(SignatureError, match="already named by 'a'"):
            s.declare_name("b", p5)
        assert s.rewrites == rules and s.naming_scheme == scheme
        assert s.named_formula(Numeral(1)) is None
        q = s.name_of(Atom("P", (Numeral(7),)))
        assert normalize_term(q, s) == Numeral(1)

    def test_rejected_name_drops_names_made_while_normalising(self):
        # g(d) reduces through a quote, so the rejected declaration names
        # T(d) on the way; that name and its code go with it
        s = Signature()
        s.add_arithmetic("0", "s")
        s.add_predicate("P", 1)
        s.add_function("g", 1)
        s.add_function("h", 1)
        for c in ("b", "c", "d"):
            s.add_constant(c)
        s.add_rewrite(
            App("g", (Var("x"),)), App("h", (Quote(Atom("T", (Var("x"),))),))
        )
        s.add_rewrite(App("h", (Var("y"),)), Numeral(0))
        s.declare_name("a", Atom("P", (App("g", (Const("c"),)),)))
        state = (s.rewrites, s.naming_scheme, list(s.constants))
        with pytest.raises(SignatureError, match="already named by 'a'"):
            s.declare_name("b", Atom("P", (App("g", (Const("d"),)),)))
        assert (s.rewrites, s.naming_scheme, list(s.constants)) == state
        assert s.named_formula(Numeral(2)) is None
        q = s.name_of(Atom("P", (Numeral(7),)))
        assert normalize_term(q, s) == Numeral(2)

    def test_truth_predicate_always_present(self):
        s = Signature()
        assert s.predicate_arity("T") == 1
        with pytest.raises(SignatureError):
            s.add_predicate("T", 2)


def _tokens_or_error(tokenize, text):
    try:
        return tokenize(text)
    except ParseError as e:
        return (str(e), e.position)


class TestTokenizer:
    """The one-pass tokenizer against the regex loop it replaced."""

    @given(
        st.lists(
            st.sampled_from(
                ["->", "=>", "-", ">", "=", "~", "(", ")", ",", "Ex", "P", "x'", "a_1",
                 "0", "42", " ", "  ", "\t", "\n", "\u00a0", "\u0663", "!", "#", "\u00e9", "."]
            ),
            max_size=30,
        ).map("".join)
        | st.text(max_size=30)
    )
    @example("")
    @example("   ")
    @example("P(a) ->  ~Q(b) ! R")
    @example("Ex x (P(x))  \n")
    @settings(max_examples=400, deadline=None)
    def test_matches_the_regex_loop(self, text):
        assert _tokens_or_error(_tokenize, text) == _tokens_or_error(tokenize_by_loop, text)


_REIMPORTS = """
import gc, importlib, sys
sys.path.insert(0, sys.argv[1])
MODULES = ("calculus", "cli", "derivations", "experiments", "fuzz",
           "multiset", "piecewise", "semantics", "syntax")

def fresh_import():
    for name in [n for n in sys.modules if n.partition(".")[0] == "mqlogic"]:
        del sys.modules[name]
    for m in MODULES:
        importlib.import_module("mqlogic." + m)

def live_var_classes():
    gc.collect()
    return sum(
        isinstance(o, type) and o.__module__ == "mqlogic.syntax" and o.__name__ == "Var"
        for o in gc.get_objects()
    )

fresh_import()
once = live_var_classes()
for _ in range(3):
    fresh_import()
print(once, live_var_classes())
"""


def test_reimports_leave_no_module_alive():
    """A module-level ``typing.Union`` or ``typing.Callable`` alias over the
    package's classes stays in ``typing``'s subscription cache, and keeps
    those classes, and through them their module, alive after the module
    is dropped from ``sys.modules`` and imported again."""
    src = str(Path(mqlogic.__file__).resolve().parents[1])
    out = subprocess.run(
        [sys.executable, "-c", _REIMPORTS, src], capture_output=True, text=True, check=True
    ).stdout
    once, after = map(int, out.split())
    assert after == once
