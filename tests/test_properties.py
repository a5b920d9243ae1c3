"""Property-based suites for the structural invariants.

The large fixed-size suites demanded by the acceptance gate live in
test_acceptance.py; here hypothesis explores the same properties with
adaptive inputs, plus the seeded confluence and absorption sweeps.
"""

import random
from fractions import Fraction as F
from math import lcm

import pytest
from hypothesis import example, given, settings, strategies as st

from extended_sums import INFINITE, ExtendedSum
from rewrite_oracle import normalize_term_outermost
from mqlogic.derivations import liar_signature, prop1_derivation, truth_coding_signature
from mqlogic.experiments import _lemma1_sample
from mqlogic.fuzz import _SAMPLERS, RULE_CHOICES, FuzzConfig, draw_unit
from mqlogic.multiset import OMEGA, FormulaFamily, SequentSide
from mqlogic.piecewise import eval_parametric, piecewise_to_json
from mqlogic.semantics import (
    SUM,
    SUP,
    TailSeq,
    UngroundedError,
    Valuation,
    _EvalState,
    _instances,
    _relevant_terms,
    _scaled,
    check_lemma1_instance,
    eval_formula,
    eval_antecedent,
    eval_succedent,
    exists_value,
    lemma1_conclusion_finite_oracle,
    side_sum,
    value_sequent_sound,
)
from mqlogic.syntax import (
    App,
    Atom,
    Cond,
    Const,
    Exists,
    Neg,
    Numeral,
    Quote,
    Signature,
    Var,
    _without,
    formulas_equal,
    free_vars,
    load_signature,
    normalize_formula,
    normalize_term,
    parse_formula,
    render_formula,
    render_term,
    substitute,
    substitute_term,
    subterms,
    term_is_closed,
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
        sig.max_rewrite_steps = 100_000
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
            inner = normalize_term(t, sig)
            outer = normalize_term_outermost(t, sig)
            assert inner == outer, t
        assert_memo_matches_cold_runs(sig)

    def test_confluence_with_many_coding_rules(self):
        # prop1_derivation(8) names the iterated truth atoms, so every
        # name constant has its own code.* rule in the constant buckets
        sig = prop1_derivation(8).sig
        assert_memo_matches_cold_runs(sig)
        sig.max_rewrite_steps = 100_000
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
            cold = normalize_term(t, sig)
            warm = normalize_term(t, sig)
            outer = normalize_term_outermost(t, sig)
            assert cold == warm == outer, t
        assert_memo_matches_cold_runs(sig)


def full_walk(f, sig):
    """``normalize_formula``'s general walk: every maximal closed subterm
    replaced by its ``normalize_term`` normal form.  The reference for the
    rule-free return."""

    def fix(t):
        if term_is_closed(t):
            return normalize_term(t, sig)
        if isinstance(t, App):
            return App(t.fn, tuple(fix(a) for a in t.args))
        return t

    if isinstance(f, Atom):
        return Atom(f.pred, tuple(fix(t) for t in f.args))
    if isinstance(f, Neg):
        return Neg(full_walk(f.body, sig))
    if isinstance(f, Cond):
        return Cond(full_walk(f.lhs, sig), full_walk(f.rhs, sig))
    return Exists(f.var, full_walk(f.body, sig))


class TestRuleFreeNormalForms:
    quoted = sentences.map(lambda g: Atom("T", (Quote(g),)))

    @given(
        st.sampled_from([make_sig, Signature, liar_signature]),
        st.one_of(formulas(6), st.builds(Cond, formulas(3), quoted)),
    )
    @settings(max_examples=300, deadline=None)
    def test_formula_is_its_own_normal_form(self, make, f):
        sig = make()
        assert not sig.rewrites and sig.succ is None
        nf = normalize_formula(f, sig)
        assert nf is f
        assert nf == full_walk(f, sig)


def assert_memo_matches_cold_runs(sig):
    """Every normal-form memo entry, normal form and steps, is what
    normalising its term again with the memo cleared gives."""
    entries = dict(sig._normal_forms)
    assert entries
    for t, entry in entries.items():
        sig._normal_forms = {}
        normalize_term(t, sig)
        assert sig._normal_forms[t] == entry, t


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
        a = SequentSide(SIG, xs)
        b = SequentSide(SIG, ys)
        c = SequentSide(SIG, zs)
        assert a.union(b) == b.union(a)
        assert a.union(b).union(c) == a.union(b.union(c))

    def test_absorption_sweep(self):
        tl = Atom("P", (Const("a"),))
        top = SequentSide(SIG, [(tl, OMEGA)])
        for n in range(1, 101):
            assert top.union(SequentSide(SIG, [(tl, n)])) == top

    @given(entries)
    @settings(max_examples=100, deadline=None)
    def test_omega_union_constant_family(self, xs):
        member = SequentSide(SIG, xs)
        families = [FormulaFamily("i", 0, f) for f in member.support()]
        got = SequentSide(SIG, member.items(), families)
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
        alg, one = _scaled(v)
        tail = F(_instances(alg, _EvalState(v), body, x, {})[1], one)
        rng = random.Random(salt)
        for i in range(20):
            t = Const(f"zz{rng.randint(0, 10 ** 6)}_{i}")
            inst = substitute(body, x, t) if x in free_vars(body) else body
            assert eval_formula(v, inst) == tail

    @given(valuations(), entries, sentences)
    @settings(max_examples=150, deadline=None)
    def test_side_monotonicity(self, v, xs, extra):
        ms = SequentSide(SIG, xs)
        bigger = ms.union(SequentSide(SIG, [(extra, 1)]))
        assert eval_succedent(v, bigger) >= eval_succedent(v, ms)
        assert eval_antecedent(v, bigger) <= eval_antecedent(v, ms)


# -- differential: environment evaluator against substitution ----------------

# the eval benchmark's signature, in which g(f(t)) is a redex for every t,
# plus h(t), which names the sentence P(t); the names an evaluation creates
# show which terms it normalised, and in which order
FUN_SIG = """\
pred P/1
pred Q/1
pred R/0
const a
const b
fun f/1
fun g/1
fun h/1
rewrite g(f(x)) => x
rewrite h(x) => quote(P(x))
"""


def reference_value(v: Valuation, f) -> F:
    """Value of a sentence by substitution: every quantifier instance
    rebuilds its body and recomputes its relevant terms, and every atom
    is normalised when visited.  No transparent truth, no unknown."""
    sig = v.sig

    def relevant_terms(body):
        seen, out = set(), []

        def visit(t):
            for sub in subterms(t):
                if term_is_closed(sub):
                    nf = normalize_term(sub, sig)
                    if nf not in seen:
                        seen.add(nf)
                        out.append(sub)

        def walk(g):
            if isinstance(g, Atom):
                for arg in g.args:
                    visit(arg)
            elif isinstance(g, Neg):
                walk(g.body)
            elif isinstance(g, Cond):
                walk(g.lhs)
                walk(g.rhs)
            else:
                walk(g.body)

        for atom in v.atom_values:
            for arg in atom.args:
                visit(arg)
        walk(body)
        return sorted(out, key=render_term)

    def value(g):
        if isinstance(g, Atom):
            key = normalize_formula(g, sig)
            return v.atom_values.get(key, v.default_of(g.pred))
        if isinstance(g, Neg):
            return 1 - value(g.body)
        if isinstance(g, Cond):
            return min(F(1), 1 - value(g.lhs) + value(g.rhs))
        bound = g.var in free_vars(g.body)

        def instance(t):
            return value(substitute(g.body, g.var, t) if bound else g.body)

        explicit = [instance(t) for t in relevant_terms(g.body)]
        tail = instance(Const("$tail"))
        if v.mode == SUP:
            return max(explicit + [tail])
        return F(1) if tail > 0 else min(F(1), sum(explicit, F(0)))

    return value(f)


@st.composite
def fun_sentences(draw, depth=5, max_nest=3, truth=False):
    """Sentences over FUN_SIG with up to ``max_nest`` nested Ex.  Binders
    are drawn from x, y, z whether or not they are in scope, so binders
    shadow and go vacuous; atom terms are base terms or bound variables,
    bare or under f, the redex g(f(.)) or the naming h.  With ``truth``,
    atoms also include T(h(t)), which unfolds to P(t), and the liar T(l)
    of LIAR_SIG."""

    def term(bound):
        leaves = ["a", "b"] + list(bound)
        t = draw(st.sampled_from(leaves))
        return draw(
            st.sampled_from([t, f"f({t})", f"g(f({t}))", f"g(f(f({t})))", f"h({t})"])
        )

    def formula(d, bound, nest):
        kinds = ["atom"] + (["neg", "cond"] if d > 1 else [])
        if d > 1 and nest < max_nest:
            kinds.append("ex")
        kind = draw(st.sampled_from(kinds))
        if kind == "atom":
            pred = draw(st.sampled_from(["P", "Q", "R"] + (["T", "l"] if truth else [])))
            if pred == "l":
                return "T(l)"
            if pred == "T":
                return f"T(h({term(bound)}))"
            return "R" if pred == "R" else f"{pred}({term(bound)})"
        if kind == "neg":
            return f"~({formula(d - 1, bound, nest)})"
        if kind == "cond":
            lhs = formula(d - 1, bound, nest)
            return f"({lhs} -> {formula(d - 1, bound, nest)})"
        var = draw(var_names)
        inner = bound if var in bound else bound + (var,)
        return f"(Ex {var} ({formula(d - 1, inner, nest + 1)}))"

    return formula(depth, (), 0)


fun_valuations = st.tuples(
    st.dictionaries(
        st.sampled_from(["P(a)", "Q(b)", "P(f(a))", "Q(g(f(b)))", "P(f(f(b)))", "R"]),
        unit_values,
        max_size=4,
    ),
    st.tuples(st.one_of(st.just(F(0)), unit_values), unit_values),
)


class TestEnvironmentEvaluation:
    @given(fun_valuations, fun_sentences())
    # shadowed binders whose shadowed terms name sentences
    @example(({}, (F(0), F(0))), "Ex x (Q(f(b)) -> Ex y (Q(x) -> Ex x P(h(x))))")
    @example(({}, (F(0), F(0))), "Ex x (P(f(x)) -> Ex x Q(h(x)))")
    @settings(max_examples=300, deadline=None)
    def test_matches_substitution_reference(self, valuation, text):
        atoms, (p_default, q_default) = valuation
        for mode in (SUM, SUP):
            runs = []
            for evaluate in (eval_formula, reference_value):
                sig = load_signature(FUN_SIG)
                v = Valuation(
                    sig,
                    mode=mode,
                    atom_values={parse_formula(a, sig): q for a, q in atoms.items()},
                    predicate_defaults={"P": p_default, "Q": q_default},
                )
                value = evaluate(v, parse_formula(text, sig))
                runs.append((value, list(sig.naming_scheme.items())))
            assert runs[0] == runs[1]


LIAR_SIG = FUN_SIG + "name l = ~Ex x T(l)\n"
# without the quote rule every rewrite step shrinks a term, so a sum-mode
# Ex may stop walking once its value is decided (h is a plain function)
TAME_LIAR_SIG = LIAR_SIG.replace("rewrite h(x) => quote(P(x))\n", "")


def ref_fraction_value(v: Valuation, f) -> F:
    """The walker as it ran on Fractions: every instance of a binder is
    walked, vacuous or not, and every atom visit resolves its value.  It
    shares the library's relevant terms and atom keys."""
    state = _EvalState(v)

    def walk(g, env):
        if isinstance(g, Atom):
            atom = Atom(g.pred, tuple(substitute_term(a, env) for a in g.args)) if env else g
            key = state.atom_key(atom)
            if v.transparent and g.pred == "T" and g.args:
                named = v.sig.named_formula(key.args[0])
                if named is not None:
                    if state.unfolds_left <= 0:
                        raise UngroundedError(
                            f"transparent unfolding exhausted at {render_formula(atom)}"
                        )
                    state.unfolds_left -= 1
                    return walk(named, {})
            if key in v.atom_values:
                return v.atom_values[key]
            return v.default_of(g.pred)
        if isinstance(g, Neg):
            return 1 - walk(g.body, env)
        if isinstance(g, Cond):
            a = walk(g.lhs, env)
            b = walk(g.rhs, env)
            return F(1) if a <= b else 1 - a + b
        env = _without(env, g.var)
        bound = g.var in free_vars(g.body)

        def instance(t):
            return walk(g.body, {**env, g.var: t} if bound else env)

        explicit = [instance(t) for t in _relevant_terms(state, g.body, env)]
        tail = instance(Const("$tail"))
        if v.mode == SUP:
            return max(explicit + [tail])
        return F(1) if tail > 0 else min(F(1), sum(explicit, F(0)))

    return walk(f, {})


class TestScaledEvaluation:
    @given(fun_valuations, fun_sentences(truth=True), st.integers(0, 12))
    @example(({"P(a)": F(0), "Q(b)": F(1)}, (F(0), F(1))), "(P(a) -> ~(Q(b)))", 64)
    @example(({"P(a)": F(0), "Q(b)": F(1)}, (F(0), F(1))), "(Q(b) -> Ex x (Q(x)))", 64)
    # sums exactly to 1
    @example(({"P(a)": F(1, 3), "P(f(a))": F(2, 3)}, (F(0), F(0))), "Ex x (P(x))", 64)
    # vacuous, with tail 0 and with a positive tail
    @example(({"P(a)": F(1, 2)}, (F(0), F(0))), "Ex x (Q(b))", 64)
    @example(({"P(a)": F(1, 2)}, (F(0), F(0))), "Ex y (Ex x (P(a)))", 64)
    # coprime denominators: the scale is 97 * 101 * 103
    @example(
        ({"P(a)": F(1, 97), "Q(b)": F(1, 101), "P(f(a))": F(1, 103)}, (F(0), F(0))),
        "(Ex x (P(x)) -> ~(Ex y (Q(y))))",
        64,
    )
    # all-integer valuation: the scale is 1
    @example(({"P(a)": F(1), "Q(b)": F(0)}, (F(0), F(1))), "~(Ex x ((P(x) -> Q(x))))", 64)
    # sum mode: a positive tail; a tail of 0 whose sum reaches exactly 1 at
    # f(a), before f(b) and f(f(b)); a tail of 0 whose sum stays below 1
    @example(({"P(a)": F(1, 2)}, (F(1, 3), F(0))), "Ex x (P(x))", 64)
    @example(
        ({"P(a)": F(1, 2), "P(f(a))": F(1, 2), "P(f(f(b)))": F(1, 4)}, (F(0), F(0))),
        "Ex x (P(x))",
        64,
    )
    @example(({"P(a)": F(1, 3), "P(f(a))": F(1, 4)}, (F(0), F(0))), "Ex x (P(x))", 64)
    @settings(max_examples=300, deadline=None)
    def test_matches_fraction_walker(self, valuation, text, budget):
        self.compare(LIAR_SIG, valuation, text, budget)

    @given(fun_valuations, fun_sentences(truth=True), st.integers(0, 12))
    @example(({"P(a)": F(1, 2)}, (F(1, 3), F(0))), "Ex x (P(x))", 64)
    @example(
        ({"P(a)": F(1, 2), "P(f(a))": F(1, 2), "P(f(f(b)))": F(1, 4)}, (F(0), F(0))),
        "Ex x (P(x))",
        64,
    )
    @example(({"P(a)": F(1, 3), "P(f(a))": F(1, 4)}, (F(0), F(0))), "Ex x (P(x))", 64)
    @example(({"P(a)": F(1, 2)}, (F(0), F(0))), "Ex x (Q(x) -> T(l))", 3)
    # vacuous binders: a tail of 0, a positive tail, and a nested chain
    @example(({"P(a)": F(1, 2)}, (F(0), F(0))), "Ex x (Q(b))", 64)
    @example(({"Q(b)": F(1, 3)}, (F(0), F(0))), "Ex x (Q(b))", 64)
    @example(({"P(a)": F(1, 2)}, (F(0), F(0))), "Ex y (Ex x (P(a)))", 64)
    # a memoised node under two binders, keyed by the outer variable (then
    # by the inner one): the tail instance, walked first, has value 0, so
    # a key without that variable reads 0 for P(a) (Q(a)); sup 1/3, sum 1
    @example(
        ({"P(a)": F(1, 3), "Q(a)": F(1, 5)}, (F(0), F(0))),
        "Ex x (Ex y (~((P(x) -> Q(y)))))",
        64,
    )
    @example(
        ({"P(a)": F(1, 3), "Q(a)": F(1, 5)}, (F(0), F(0))),
        "Ex y (Ex x (~((P(x) -> Q(y)))))",
        64,
    )
    # a keyed body that is not vacuous: P(x) does not mention y
    @example(({"P(a)": F(1, 3)}, (F(0), F(0))), "Ex y (Ex x (P(x)))", 64)
    # a shadowing binder: the inner Ex is closed and the outer one vacuous
    @example(({"P(a)": F(1, 3)}, (F(0), F(0))), "Ex x (Ex x (P(x)))", 64)
    @settings(max_examples=200, deadline=None)
    def test_stopping_early_matches_fraction_walker(self, valuation, text, budget):
        self.compare(TAME_LIAR_SIG, valuation, text, budget)

    @staticmethod
    def compare(sig_text, valuation, text, budget):
        atoms, (p_default, q_default) = valuation
        for mode in (SUM, SUP):
            for transparent in (False, True):
                runs = []
                for evaluate in (eval_formula, ref_fraction_value):
                    sig = load_signature(sig_text)
                    v = Valuation(
                        sig,
                        mode=mode,
                        atom_values={parse_formula(a, sig): q for a, q in atoms.items()},
                        predicate_defaults={"P": p_default, "Q": q_default},
                        transparent=transparent,
                        unfold_budget=budget,
                    )
                    try:
                        value = evaluate(v, parse_formula(text, sig))
                    except UngroundedError as e:
                        value = str(e)
                    runs.append((value, list(sig.naming_scheme.items())))
                assert runs[0] == runs[1]
                assert type(runs[0][0]) in (F, str)


# -- differential: integer-scaled value clauses against Fraction references --

# The value clauses as they were written for Fractions alone, before they
# took a unit, over ExtendedSum.


def ref_extended_sum(values):
    acc = ExtendedSum(F(0))
    for v in values:
        acc = acc.plus(ExtendedSum.of(v))
    return acc


def ref_exists_value(explicit, tail, mode):
    if mode == SUP:
        return max(explicit + [tail]) if explicit else tail
    if tail > 0:
        return F(1)
    return ref_extended_sum(explicit).clamp1()


def ref_side_sum(entries, negate=False):
    acc = ExtendedSum(F(0))
    for v, m in entries:
        acc = acc.plus_copies(1 - v if negate else v, m)
    return acc.clamp1()


def ref_value_sequent_sound(ant, suc):
    return 1 - ref_side_sum(ant, negate=True) <= ref_side_sum(suc)


def ref_series(seq, transform=lambda v: v):
    explicit, tail = seq
    acc = ref_extended_sum(transform(v) for v in explicit)
    return INFINITE if transform(tail) > 0 else acc


def ref_check_lemma1_instance(gamma, chi, delta):
    """Each sequence is (explicit values, tail); returns the SeriesCheck
    fields in order."""

    def at(seq, i):
        return seq[0][i] if i < len(seq[0]) else seq[1]

    def hypothesis(g, c, d):
        return 1 - min(F(1), (1 - g) + (1 - c)) <= d

    n = max(len(gamma[0]), len(chi[0]), len(delta[0]))
    hyp = tuple(hypothesis(at(gamma, i), at(chi, i), at(delta, i)) for i in range(n))
    hyp_tail = hypothesis(gamma[1], chi[1], delta[1])
    s_gaps = ref_series(gamma, lambda v: 1 - v)
    lhs = 1 - s_gaps.plus(ExtendedSum.of(1 - ref_series(chi).clamp1())).clamp1()
    rhs = ref_series(delta).clamp1()
    return hyp, hyp_tail, lhs <= rhs, lhs, rhs


def ref_lemma1_sample(rng, combo, max_len, max_den):
    """The lemma1 sampler as it was on Fractions."""

    def positive_unit():
        den = rng.randint(1, max_den)
        return F(rng.randint(1, den), den)

    def delta_low(g, c):
        return 1 - min(F(1), (1 - g) + (1 - c))

    gammas, chis, deltas = [], [], []
    for _ in range(rng.randint(0, max_len)):
        g = F(1) if rng.random() < 0.15 else F(*draw_unit(rng, max_den))
        c = F(*draw_unit(rng, max_den))
        low = delta_low(g, c)
        gammas.append(g)
        chis.append(c)
        deltas.append(low + (1 - low) * F(*draw_unit(rng, max_den)))
    g_tail = F(1) if rng.random() < 0.25 else F(*draw_unit(rng, max_den))
    c_tail = F(0) if combo in (0, 1) else positive_unit()
    low = delta_low(g_tail, c_tail)
    if combo in (0, 2):
        if low > 0:
            g_tail = min(g_tail, 1 - c_tail)
        d_tail = F(0)
    else:
        d_tail = low + (1 - low) * positive_unit() if low < 1 else F(1)
        if d_tail == 0:
            d_tail = F(1, max_den)
    return (gammas, g_tail), (chis, c_tail), (deltas, d_tail)


def ref_rule_sample(rule, rng, cfg):
    """The rule samplers as they were on Fractions: (premises sound,
    conclusion sound, payload)."""

    def unit():
        return F(*draw_unit(rng, cfg.max_denominator))

    def context():
        out = []
        for _ in range(rng.randint(0, cfg.max_context_size)):
            mult = OMEGA if rng.random() < 0.10 else rng.randint(1, 3)
            out.append((unit(), mult))
        return out

    def text(entries):
        return [[str(v), "w" if m is OMEGA else m] for v, m in entries]

    def cond(a, b):
        return F(1) if a <= b else 1 - a + b

    sound = ref_value_sequent_sound
    if rule == "ExistsLw":
        prefix = rng.randint(0, cfg.max_family_prefix)
        rows = [(unit(), unit(), unit()) for _ in range(prefix)]
        g_tail = unit()
        c_tail = F(0) if rng.random() < 0.5 else unit()
        rows.append((g_tail, c_tail, unit()))
        seqs = [[], [], []]
        for g, c, slack in rows:
            low = 1 - min(F(1), (1 - g) + (1 - c))
            for seq, v in zip(seqs, (g, c, low + (1 - low) * slack)):
                seq.append(v)
        gammas, chis, deltas = ((vs[:-1], vs[-1]) for vs in seqs)
        hyp, hyp_tail, *_ = ref_check_lemma1_instance(gammas, chis, deltas)
        prem = all(hyp) and hyp_tail
        v_ex = ref_exists_value(chis[0], chis[1], cfg.mode)
        concl = sound(
            [(g, 1) for g in gammas[0]] + [(gammas[1], OMEGA), (v_ex, 1)],
            [(d, 1) for d in deltas[0]] + [(deltas[1], OMEGA)],
        )
        payload = {
            key: [str(v) for v in seq[0]] + [f"tail {seq[1]}"]
            for key, seq in (("gamma", gammas), ("chi", chis), ("delta", deltas))
        }
        return prem, concl, payload
    gamma, delta = context(), context()
    payload = {"gamma": text(gamma), "delta": text(delta)}
    if rule == "ExistsRw":
        explicit = [unit() for _ in range(rng.randint(0, cfg.max_family_prefix))]
        tail = F(0) if rng.random() < 0.5 else unit()
        prem = sound(gamma, delta + [(v, 1) for v in explicit] + [(tail, OMEGA)])
        v_ex = ref_exists_value(explicit, tail, cfg.mode)
        concl = sound(gamma, delta + [(v_ex, 1)])
        payload |= {"instances": [str(v) for v in explicit], "tail": str(tail)}
        return prem, concl, payload
    if rule == "CondL":
        gamma2, delta2 = context(), context()
        payload |= {"gamma2": text(gamma2), "delta2": text(delta2)}
    a = unit()
    payload["a"] = str(a)
    if rule in ("CondR", "CondL"):
        b = unit()
        payload["b"] = str(b)
    if rule == "Init":
        prem, concl = True, sound(gamma + [(a, 1)], delta + [(a, 1)])
    elif rule == "NegL":
        prem, concl = sound(gamma, delta + [(a, 1)]), sound(gamma + [(1 - a, 1)], delta)
    elif rule == "NegR":
        prem, concl = sound(gamma + [(a, 1)], delta), sound(gamma, delta + [(1 - a, 1)])
    elif rule == "CondR":
        prem = sound(gamma + [(a, 1)], delta + [(b, 1)])
        concl = sound(gamma, delta + [(cond(a, b), 1)])
    else:
        prem = sound(gamma, delta + [(a, 1)]) and sound(gamma2 + [(b, 1)], delta2)
        concl = sound(gamma + gamma2 + [(cond(a, b), 1)], delta + delta2)
    return prem, concl, payload


def over_one_scale(*groups):
    """The unit ``one`` (lcm of the denominators) and each group's values as
    integer numerators over it."""
    one = lcm(*(v.denominator for group in groups for v in group))
    return one, [[int(v * one) for v in group] for group in groups]


# values at the boundaries come up often, and lists that sum exactly to 1
boundary_units = st.one_of(st.just(F(0)), st.just(F(1)), unit_values)
summing_to_one = st.lists(st.integers(1, 9), min_size=1, max_size=5).map(
    lambda ns: [F(n, sum(ns)) for n in ns]
)
unit_lists = st.one_of(st.lists(boundary_units, max_size=6), summing_to_one)
multiplicities = st.one_of(st.just(OMEGA), st.integers(1, 3))
value_entries = st.one_of(
    st.lists(st.tuples(boundary_units, multiplicities), max_size=6),
    summing_to_one.map(lambda vs: [(v, 1) for v in vs]),
)
tail_seqs = st.tuples(unit_lists, boundary_units)


class TestScaledValueClauses:
    @given(value_entries, value_entries)
    @example([(F(1), OMEGA)], [(F(0), OMEGA)])  # omega copies of 0
    @example([(F(1, 2), OMEGA)], [(F(1, 3), 3)])  # sums exactly to 1
    @example([(F(1, 4), 1), (F(3, 4), 1)], [(F(1, 2), 2)])
    @example([], [])
    @settings(max_examples=300, deadline=None)
    def test_side_sums_and_soundness(self, ant, suc):
        one, (ant_ints, suc_ints) = over_one_scale(
            [v for v, _ in ant], [v for v, _ in suc]
        )
        ant_scaled = [(n, m) for n, (_, m) in zip(ant_ints, ant)]
        suc_scaled = [(n, m) for n, (_, m) in zip(suc_ints, suc)]
        for entries, scaled in ((ant, ant_scaled), (suc, suc_scaled)):
            for negate in (False, True):
                ref = ref_side_sum(entries, negate)
                assert side_sum(entries, negate) == ref
                assert type(side_sum(entries, negate)) is F
                assert F(side_sum(scaled, negate, one), one) == ref
        ref = ref_value_sequent_sound(ant, suc)
        assert value_sequent_sound(ant, suc) == ref
        assert value_sequent_sound(ant_scaled, suc_scaled, one) == ref

    @given(unit_lists, boundary_units)
    @example([], F(0))
    @example([F(0), F(0)], F(0))
    @example([F(1, 3), F(2, 3)], F(0))  # sums exactly to 1
    @example([F(1)], F(1))
    @settings(max_examples=300, deadline=None)
    def test_exists_value(self, explicit, tail):
        one, (ints, (tail_int,)) = over_one_scale(explicit, [tail])
        for mode in (SUM, SUP):
            ref = ref_exists_value(explicit, tail, mode)
            assert exists_value(explicit, tail, mode) == ref
            assert F(exists_value(ints, tail_int, mode, one), one) == ref

    @given(tail_seqs, tail_seqs, tail_seqs)
    @example(([F(1, 2)], F(1)), ([F(1, 2), F(1, 2)], F(0)), ([F(0)], F(0)))
    @example(([], F(1)), ([], F(0)), ([], F(0)))
    @example(([F(1)], F(1)), ([F(0)], F(1, 3)), ([F(1, 3)], F(0)))
    @example(([F(1, 4), F(3, 4)], F(1)), ([F(1, 2)], F(0)), ([F(1, 2)], F(0)))
    @settings(max_examples=300, deadline=None)
    def test_series_check(self, gamma, chi, delta):
        ref = ref_check_lemma1_instance(gamma, chi, delta)
        one, groups = over_one_scale(*(vs + [t] for vs, t in (gamma, chi, delta)))
        fractions = [TailSeq(tuple(vs), t) for vs, t in (gamma, chi, delta)]
        ints = [TailSeq(tuple(g[:-1]), g[-1], one) for g in groups]
        for seqs, unit in ((fractions, 1), (ints, one)):
            r = check_lemma1_instance(*seqs)
            got = (r.hypothesis_explicit, r.hypothesis_tail, r.conclusion_holds)
            assert got == ref[:3]
            assert (F(r.lhs, unit), F(r.rhs, unit)) == ref[3:]
        oracle = lemma1_conclusion_finite_oracle(*fractions)
        assert lemma1_conclusion_finite_oracle(*ints) == oracle
        if oracle is not None:
            assert oracle == ref[2]

    @given(st.integers(0, 2**32), st.integers(1, 60))
    @settings(max_examples=100, deadline=None)
    def test_lemma1_sampler_draws_and_values(self, seed, max_den):
        rng, ref_rng = random.Random(seed), random.Random(seed)
        for combo in range(4):
            seqs = _lemma1_sample(rng, combo, 8, max_den)
            ref = ref_lemma1_sample(ref_rng, combo, 8, max_den)
            got = [
                ([F(v, s.one) for v in s.explicit], F(s.tail, s.one)) for s in seqs
            ]
            assert got == [(list(vs), t) for vs, t in ref]
            assert rng.getstate() == ref_rng.getstate()

    @pytest.mark.parametrize("max_den", [1, 7, 60, 10**6])
    @pytest.mark.parametrize("rule", RULE_CHOICES)
    def test_rule_samplers_draws_verdicts_and_payloads(self, rule, max_den):
        for mode in (SUM, SUP):
            cfg = FuzzConfig(rule=rule, mode=mode, max_denominator=max_den)
            rng, ref_rng = random.Random(max_den), random.Random(max_den)
            for _ in range(150):
                prem, concl, payload = _SAMPLERS[rule](rng, cfg)
                assert (prem, concl, payload()) == ref_rule_sample(rule, ref_rng, cfg)
                assert rng.getstate() == ref_rng.getstate()


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
