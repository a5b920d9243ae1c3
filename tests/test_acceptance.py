"""Acceptance gate: every criterion at its stated scale and tolerance.

All checks are exact (rational arithmetic, no tolerances).  Each test
prints one pass/fail line; run with ``pytest -s tests/test_acceptance.py``
to see them.
"""

import random
import time
from fractions import Fraction as F

from mqlogic.calculus import (
    ADDITIVE,
    MULTIPLICATIVE,
    check_derivation,
    check_instance,
)
from mqlogic.derivations import liar_signature, prop1_derivation, prop3_derivation
from mqlogic.fuzz import (
    FuzzConfig,
    RULE_CHOICES,
    draw_unit,
    existsr_value_instance,
    fuzz_rule,
)
from mqlogic.multiset import Sequent as ProofSequent
from mqlogic.experiments import _lemma1_sample
from mqlogic.piecewise import eval_parametric, fixed_points, piecewise_to_json
from mqlogic.semantics import (
    SUM,
    SUP,
    Valuation,
    _EvalState,
    _instances,
    _scaled,
    check_lemma1_instance,
    eval_formula,
    exists_value as quantifier_value,
    lemma1_conclusion_finite_oracle,
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
    free_vars,
    substitute,
)


def _report(name: str, ok: bool, elapsed: float) -> None:
    print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'} ({elapsed:.2f}s)")


def test_criterion_1_sup_quantifier_unsoundness():
    """Premise sound, conclusion unsound with empty contexts and every
    instance at exactly 1/2, under the sup clause.  Exact; < 1 s."""
    t0 = time.monotonic()
    prem_sound, concl_sound = existsr_value_instance([], [], [], F(1, 2), SUP)
    sig = Signature()
    sig.add_predicate("P", 1)
    sig.add_constant("a")
    ex = Exists("x", Atom("P", (Var("x"),)))
    sup_val = eval_formula(Valuation(sig, mode=SUP, predicate_defaults={"P": F(1, 2)}), ex)
    sum_val = eval_formula(Valuation(sig, mode=SUM, predicate_defaults={"P": F(1, 2)}), ex)
    elapsed = time.monotonic() - t0
    ok = prem_sound and not concl_sound and sup_val == F(1, 2) and sum_val == 1
    _report("1 (sup-mode right-rule counterexample)", ok and elapsed < 1.0, elapsed)
    assert prem_sound
    assert not concl_sound
    assert sup_val == F(1, 2)
    assert sum_val == 1
    assert elapsed < 1.0


def test_criterion_2_sum_mode_rule_soundness_fuzz():
    """10,000 seeded samples per rule, sum mode: zero violations.
    Exact; < 60 s per rule."""
    worst = 0.0
    ok = True
    for i, rule in enumerate(RULE_CHOICES):
        t0 = time.monotonic()
        outcome = fuzz_rule(
            FuzzConfig(samples=10_000, seed=1000 + i, mode=SUM, rule=rule)
        )
        elapsed = time.monotonic() - t0
        worst = max(worst, elapsed)
        ok = ok and not outcome.found_violation and elapsed < 60.0
        assert not outcome.found_violation, (rule, outcome.violation)
        assert elapsed < 60.0, rule
    _report("2 (sum-mode soundness, 7 rules x 10000)", ok, worst)


def test_criterion_3_series_inequality():
    """10,000 sampled hypothesis-satisfying triples (explicit length up to
    50, denominators up to 60, all four tail combinations): the conclusion
    inequality holds exactly, and the naive finite-sum oracle agrees on
    every convergent sample.  < 30 s."""
    t0 = time.monotonic()
    rng = random.Random(77)
    combos = [0, 0, 0, 0]
    convergent = 0
    for i in range(10_000):
        combo = i % 4
        gamma, chi, delta = _lemma1_sample(rng, combo, max_len=50, max_den=60)
        result = check_lemma1_instance(gamma, chi, delta)
        assert result.hypothesis_all, i
        combos[combo] += 1
        assert result.conclusion_holds, (i, result.lhs, result.rhs)
        oracle = lemma1_conclusion_finite_oracle(gamma, chi, delta)
        if oracle is not None:
            convergent += 1
            assert oracle == result.conclusion_holds, i
    elapsed = time.monotonic() - t0
    ok = min(combos) > 0 and convergent > 0 and elapsed < 30.0
    _report("3 (series inequality, 10000 triples)", ok, elapsed)
    assert min(combos) > 0
    assert convergent > 0
    assert elapsed < 30.0


def test_criterion_4_iterated_truth_refutation():
    """The coding derivation at depth 8: checker passes, the refutations
    T(fm(i, mu)) |- for i = 0..8 are certified, and the final sequent is
    |- ~Ex x T(fm(x, mu)).  < 10 s."""
    t0 = time.monotonic()
    built = prop1_derivation(k=8)
    report = check_derivation(built.derivation, built.sig, MULTIPLICATIVE, 8)
    checked = set(report.checked_sequents())
    witnesses_ok = all(w.render() in checked for w in built.witnesses)
    expected_final = ProofSequent.make(
        built.sig,
        suc=[(Neg(Exists("x", Atom("T", (App("fm", (Var("x"), Const("mu"))),)))), 1)],
    )
    final_ok = built.derivation.conclusion == expected_final
    elapsed = time.monotonic() - t0
    ok = report.ok and witnesses_ok and final_ok and elapsed < 10.0
    _report("4 (iterated truth-coding refutation, depth 8)", ok, elapsed)
    assert report.ok
    assert len(built.witnesses) == 9
    assert witnesses_ok
    assert final_ok
    assert elapsed < 10.0


def test_criterion_5_selfref_fixed_point_empty():
    """Exact two-piece parametric profile {0} -> 1, (0,1] -> 0 with an
    empty fixed-point set.  Exact; < 1 s."""
    t0 = time.monotonic()
    sig = liar_signature()
    tl = Atom("T", (Const("l"),))
    profile = eval_parametric(
        Valuation(sig, mode=SUM, unknown=tl), Neg(Exists("x", tl))
    )
    pieces = piecewise_to_json(profile)["pieces"]
    expected = [
        {"lo": "0", "hi": "0", "closedLo": True, "closedHi": True, "a": "0", "b": "1"},
        {"lo": "0", "hi": "1", "closedLo": False, "closedHi": True, "a": "0", "b": "0"},
    ]
    solutions = fixed_points(profile)
    elapsed = time.monotonic() - t0
    ok = pieces == expected and solutions.is_empty and elapsed < 1.0
    _report("5 (self-reference has no fixed point)", ok, elapsed)
    assert pieces == expected
    assert solutions.is_empty
    assert elapsed < 1.0


def test_criterion_6_policy_separation():
    """The omega-copies derivation passes multiplicatively with final
    sequent |- ~Ex x T(l), fails additively at the right-quantifier node,
    and the additive one-step left instance checks.  < 1 s."""
    t0 = time.monotonic()
    built = prop3_derivation()
    rep_mult = check_derivation(built.derivation, built.sig, MULTIPLICATIVE, 4)
    expected_final = ProofSequent.make(
        built.sig, suc=[(Neg(Exists("x", Atom("T", (Const("l"),)))), 1)]
    )
    final_ok = built.derivation.conclusion == expected_final
    rep_add = check_derivation(built.derivation, built.sig, ADDITIVE, 4)
    first_fail = next((n.rule for n in rep_add.per_node if not n.ok), None)
    inst_sig = liar_signature()
    tl = Atom("T", (Const("l"),))
    instance_ok = check_instance(
        inst_sig,
        "ExistsLw",
        [ProofSequent.make(inst_sig, ant=[(tl, 1)], suc=[(tl, 1)])],
        ProofSequent.make(inst_sig, ant=[(Exists("x", tl), 1)], suc=[(tl, 1)]),
        ADDITIVE,
    ).ok
    elapsed = time.monotonic() - t0
    ok = (
        rep_mult.ok
        and final_ok
        and not rep_add.ok
        and first_fail == "ExistsRw"
        and instance_ok
        and elapsed < 1.0
    )
    _report("6 (vacuous-quantification policy separation)", ok, elapsed)
    assert rep_mult.ok
    assert final_ok
    assert not rep_add.ok
    assert first_fail == "ExistsRw"
    assert instance_ok
    assert elapsed < 1.0


# ---------------------------------------------------------------------------
# Criterion 7: semantic clause property suites at 10,000 cases each


def _accept_sig() -> Signature:
    s = Signature()
    s.add_predicate("P", 1)
    s.add_predicate("Q", 1)
    s.add_predicate("R", 0)
    s.add_constant("a")
    s.add_constant("b")
    s.add_function("f", 1)
    return s


_ATOM_POOL = None


def _atom_pool(sig):
    global _ATOM_POOL
    if _ATOM_POOL is None:
        terms = [Const("a"), Const("b"), App("f", (Const("a"),))]
        _ATOM_POOL = [Atom(p, (t,)) for p in ("P", "Q") for t in terms] + [
            Atom("R", ())
        ]
    return _ATOM_POOL


def _rand_valuation(rng, sig, mode=SUM):
    values = {a: F(*draw_unit(rng, 60)) for a in _atom_pool(sig)}
    defaults = {
        p: (F(0) if rng.random() < 0.5 else F(*draw_unit(rng, 60)))
        for p, _ in sig.predicates
    }
    return Valuation(sig, mode=mode, atom_values=values, predicate_defaults=defaults)


def _rand_term(rng, depth, allow_var):
    leaves = [Const("a"), Const("b")] + ([Var("x")] if allow_var else [])
    t = rng.choice(leaves)
    for _ in range(rng.randint(0, depth)):
        t = App("f", (t,))
    return t


def _rand_formula(rng, depth, allow_var):
    roll = rng.random()
    if depth <= 0 or roll < 0.35:
        which = rng.random()
        if which < 0.45:
            return Atom("P", (_rand_term(rng, 1, allow_var),))
        if which < 0.9:
            return Atom("Q", (_rand_term(rng, 1, allow_var),))
        return Atom("R", ())
    if roll < 0.55:
        return Neg(_rand_formula(rng, depth - 1, allow_var))
    if roll < 0.8:
        return Cond(
            _rand_formula(rng, depth - 1, allow_var),
            _rand_formula(rng, depth - 1, allow_var),
        )
    return Exists("x", _rand_formula(rng, depth - 1, True))


def _rand_sentence(rng, depth):
    f = _rand_formula(rng, depth, allow_var=False)
    assert not free_vars(f)
    return f


def test_criterion_7_semantic_clause_suites():
    """Involution, residuation, range containment, sum-vs-sup quantifier
    comparison, and tail correctness: 10,000 random cases each, exact.
    < 120 s total."""
    t0 = time.monotonic()
    sig = _accept_sig()
    rng = random.Random(2718)

    # range containment
    for _ in range(10_000):
        v = _rand_valuation(rng, sig, mode=rng.choice([SUM, SUP]))
        value = eval_formula(v, _rand_sentence(rng, 4))
        assert 0 <= value <= 1
    t_range = time.monotonic()

    # involution
    for _ in range(10_000):
        v = _rand_valuation(rng, sig, mode=rng.choice([SUM, SUP]))
        f = _rand_sentence(rng, 3)
        assert eval_formula(v, Neg(Neg(f))) == eval_formula(v, f)
    t_inv = time.monotonic()

    # residuation
    for _ in range(10_000):
        v = _rand_valuation(rng, sig, mode=rng.choice([SUM, SUP]))
        f = _rand_sentence(rng, 2)
        g = _rand_sentence(rng, 2)
        holds = eval_formula(v, Cond(f, g)) == 1
        assert holds == (eval_formula(v, f) <= eval_formula(v, g))
    t_res = time.monotonic()

    # quantifier comparison on random instance families
    for i in range(10_000):
        explicit = [F(*draw_unit(rng, 60)) for _ in range(rng.randint(0, 8))]
        tail = F(0) if rng.random() < 0.5 else F(*draw_unit(rng, 60))
        s = quantifier_value(explicit, tail, SUM)
        m = quantifier_value(explicit, tail, SUP)
        assert s >= m, i
        if tail == 0 and len([v for v in explicit if v > 0]) <= 1:
            assert s == m, i
    t_cmp = time.monotonic()

    # tail correctness: 20 fresh non-relevant terms per case
    for i in range(10_000):
        v = _rand_valuation(rng, sig)
        body = _rand_formula(rng, 2, allow_var=True)
        if free_vars(body) - {"x"}:
            continue
        alg, one = _scaled(v)
        tail = F(_instances(alg, _EvalState(v), body, "x", {})[1], one)
        bound = "x" in free_vars(body)
        for j in range(20):
            t = Const(f"fresh{i}_{j}")
            inst = substitute(body, "x", t) if bound else body
            assert eval_formula(v, inst) == tail, (i, j)
    elapsed = time.monotonic() - t0
    ok = elapsed < 120.0
    _report(
        "7 (semantic clause suites, 5 x 10000 cases)",
        ok,
        elapsed,
    )
    print(
        f"  range {t_range - t0:.1f}s, involution {t_inv - t_range:.1f}s, "
        f"residuation {t_res - t_inv:.1f}s, comparison {t_cmp - t_res:.1f}s, "
        f"tails {elapsed - (t_cmp - t0):.1f}s"
    )
    assert elapsed < 120.0
