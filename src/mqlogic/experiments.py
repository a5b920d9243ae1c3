"""Canned experiments: one-command reproduction of each headline result.

Experiment ids:

* ``thm1``            right-quantifier rule unsound under the sup clause
* ``lemma1``          the series inequality holds on sampled instances
* ``thm2-fuzz``       all seven core rules sound under the sum clause
* ``prop1``           iterated-truth-coding refutations plus the closing
                      empty-antecedent sequent all check
* ``prop2``           the self-referential truth value has no fixed point
* ``prop3``           the omega-copies refutation checks multiplicatively
                      and fails additively at the right-quantifier node
* ``vacuous-compare`` side-by-side policy comparison on the vacuous steps
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .calculus import (
    ADDITIVE,
    MULTIPLICATIVE,
    check_derivation,
    check_instance,
)
from .derivations import liar_signature, prop1_derivation, prop3_derivation
from .fuzz import (
    ZERO_DRAW,
    FuzzConfig,
    RULE_CHOICES,
    common_scale,
    draw_unit,
    existsr_value_instance,
    fuzz_rule,
    randint,
    sound_premise_values,
)
from .multiset import OMEGA, Sequent
from .piecewise import fixed_points, eval_parametric, piecewise_to_json
from .semantics import (
    ONE,
    SUM,
    SUP,
    TailSeq,
    Valuation,
    check_lemma1_instance,
    eval_formula,
    lemma1_conclusion_finite_oracle,
)
from .syntax import App, Atom, Const, Exists, Neg, Signature, Var


@dataclass
class ExperimentResult:
    id: str
    status: str  # "pass" | "fail"
    evidence: dict
    seed: int
    runtime_ms: int

    @property
    def passed(self) -> bool:
        return self.status == "pass"

    def to_json(self) -> dict:
        return {
            "id": self.id,
            "status": self.status,
            "seed": self.seed,
            "runtimeMs": self.runtime_ms,
            "evidence": self.evidence,
        }


# ---------------------------------------------------------------------------


def repro_thm1(seed: int = 0, samples: int = 10_000) -> tuple[bool, dict]:
    """The right-quantifier rule breaks under the sup clause: with empty
    contexts and every instance at 1/2, the premise is sound but the
    conclusion is not; random search must also find some violation."""
    half = Fraction(1, 2)
    prem_sound, concl_sound = existsr_value_instance([], [], [], half, SUP)
    canned = prem_sound and not concl_sound
    prem_sum, concl_sum = existsr_value_instance([], [], [], half, SUM)

    sig = Signature()
    sig.add_predicate("P", 1)
    sig.add_constant("a")
    formula = Exists("x", Atom("P", (Var("x"),)))
    sup_value = eval_formula(
        Valuation(sig, mode=SUP, predicate_defaults={"P": half}), formula
    )
    sum_value = eval_formula(
        Valuation(sig, mode=SUM, predicate_defaults={"P": half}), formula
    )
    search = fuzz_rule(
        FuzzConfig(samples=samples, seed=seed, mode=SUP, rule="ExistsRw")
    )
    ok = (
        canned
        and prem_sum
        and concl_sum
        and sup_value == half
        and sum_value == ONE
        and search.found_violation
    )
    evidence = {
        "counterexample": {
            "antecedentValue": "1",
            "succedentContextValue": "0",
            "instanceValue": "1/2",
            "premiseSound": prem_sound,
            "conclusionSound": concl_sound,
        },
        "sumModeControl": {"premiseSound": prem_sum, "conclusionSound": concl_sum},
        "quantifierValues": {"sup": str(sup_value), "sum": str(sum_value)},
        "randomSearch": search.to_json(),
    }
    return ok, evidence


# ---------------------------------------------------------------------------


ONE_DRAW = (1, 1)


def _lemma1_sample(
    rng: random.Random, combo: int, max_len: int, max_den: int
) -> tuple[TailSeq, TailSeq, TailSeq]:
    """One hypothesis-satisfying triple, in the integer unit of its draws.
    ``combo`` picks the tail's zero/positive pattern for the instance and
    succedent series."""
    chi_zero = combo in (0, 1)
    delta_zero = combo in (0, 2)
    rows = []
    for _ in range(randint(rng, 0, max_len)):
        g = ONE_DRAW if rng.random() < 0.15 else draw_unit(rng, max_den)
        rows.append((g, draw_unit(rng, max_den), draw_unit(rng, max_den)))
    g_tail = ONE_DRAW if rng.random() < 0.25 else draw_unit(rng, max_den)
    c_tail = ZERO_DRAW if chi_zero else draw_unit(rng, max_den, low=1)
    # a positive succedent tail takes a positive slack above the hypothesis
    # bound, unless the bound is 1: then both tail values are 1
    slack = ZERO_DRAW
    if not delta_zero and not (g_tail[0] == g_tail[1] and c_tail[0] == c_tail[1]):
        slack = draw_unit(rng, max_den, low=1)
    rows.append((g_tail, c_tail, slack))
    one = common_scale([v for row in rows for v in row], square=True)
    gs, cs, ds = sound_premise_values(rows, one)
    if delta_zero:
        # force the tail hypothesis bound to zero, then take exactly zero
        gs[-1] = min(gs[-1], one - cs[-1])
        ds[-1] = 0
    return tuple(TailSeq(tuple(vs[:-1]), vs[-1], one) for vs in (gs, cs, ds))


def repro_lemma1(seed: int = 0, samples: int = 10_000) -> tuple[bool, dict]:
    """Sampled instances of the series inequality: whenever the
    index-wise hypothesis holds, the conclusion inequality holds; the
    naive finite-sum oracle agrees on every convergent sample."""
    rng = random.Random(seed)
    combos = [0, 0, 0, 0]
    convergent = 0
    failures: list[dict] = []
    for i in range(samples):
        combo = i % 4
        gamma, chi, delta = _lemma1_sample(rng, combo, max_len=50, max_den=60)
        result = check_lemma1_instance(gamma, chi, delta)
        if not result.hypothesis_all:
            failures.append({"index": i, "kind": "sampler produced bad hypothesis"})
            continue
        combos[combo] += 1
        if not result.conclusion_holds:
            failures.append(
                {
                    "index": i,
                    "kind": "conclusion violated",
                    "lhs": str(Fraction(result.lhs, gamma.one)),
                    "rhs": str(Fraction(result.rhs, gamma.one)),
                }
            )
        oracle = lemma1_conclusion_finite_oracle(gamma, chi, delta)
        if oracle is not None:
            convergent += 1
            if oracle != result.conclusion_holds:
                failures.append({"index": i, "kind": "oracle disagreement"})
    ok = not failures and convergent > 0 and min(combos) > 0
    evidence = {
        "samples": samples,
        "tailCombos": {
            "chiZeroDeltaZero": combos[0],
            "chiZeroDeltaPositive": combos[1],
            "chiPositiveDeltaZero": combos[2],
            "chiPositiveDeltaPositive": combos[3],
        },
        "convergentOracleChecks": convergent,
        "failures": failures[:5],
    }
    return ok, evidence


# ---------------------------------------------------------------------------


def repro_thm2_fuzz(seed: int = 0, samples: int = 10_000) -> tuple[bool, dict]:
    """All seven core rules: sum-mode fuzzing finds no soundness
    violation."""
    per_rule = {}
    ok = True
    for i, rule in enumerate(RULE_CHOICES):
        outcome = fuzz_rule(
            FuzzConfig(samples=samples, seed=seed + i, mode=SUM, rule=rule)
        )
        per_rule[rule] = outcome.to_json()
        if outcome.found_violation:
            ok = False
    evidence = {"samplesPerRule": samples, "rules": per_rule}
    return ok, evidence


# ---------------------------------------------------------------------------


def repro_prop1(seed: int = 0, depth: int = 8) -> tuple[bool, dict]:
    """Build and check the iterated-truth-coding derivation; certify the
    per-numeral refutations and the final sequent."""
    built = prop1_derivation(k=depth)
    report = check_derivation(built.derivation, built.sig, MULTIPLICATIVE, depth)
    checked = set(report.checked_sequents())
    witnesses_certified = [w.render() in checked for w in built.witnesses]
    expected_final = Sequent.make(
        built.sig,
        suc=[
            (Neg(Exists("x", Atom("T", (App("fm", (Var("x"), Const("mu"))),)))), 1)
        ],
    )
    final_ok = built.derivation.conclusion == expected_final
    ok = report.ok and all(witnesses_certified) and final_ok
    evidence = {
        "checkerOk": report.ok,
        "finalSequent": built.derivation.conclusion.render(),
        "finalMatches": final_ok,
        "witnesses": [w.render() for w in built.witnesses],
        "witnessesCertified": witnesses_certified,
        "nodesChecked": len(report.per_node),
        "familySpotChecks": len(report.family_spot_checks),
    }
    return ok, evidence


# ---------------------------------------------------------------------------


def repro_prop2(seed: int = 0) -> tuple[bool, dict]:
    """Parametric profile of the negated vacuous existential over its own
    truth value: 1 at zero, 0 elsewhere, and no fixed point."""
    sig = liar_signature()
    tl = Atom("T", (Const("l"),))
    sentence = Neg(Exists("x", tl))
    valuation = Valuation(sig, mode=SUM, unknown=tl)
    profile = eval_parametric(valuation, sentence)
    pieces = piecewise_to_json(profile)["pieces"]
    expected = [
        {"lo": "0", "hi": "0", "closedLo": True, "closedHi": True, "a": "0", "b": "1"},
        {"lo": "0", "hi": "1", "closedLo": False, "closedHi": True, "a": "0", "b": "0"},
    ]
    solutions = fixed_points(profile)
    ok = pieces == expected and solutions.is_empty
    evidence = {
        "pieces": pieces,
        "piecesMatch": pieces == expected,
        "fixedPoints": {
            "points": [str(p) for p in solutions.points],
            "intervals": [str(iv) for iv in solutions.intervals],
        },
    }
    return ok, evidence


# ---------------------------------------------------------------------------


def _prop3_policy_runs(depth: int):
    built = prop3_derivation()
    rep_mult = check_derivation(built.derivation, built.sig, MULTIPLICATIVE, depth)
    rep_add = check_derivation(built.derivation, built.sig, ADDITIVE, depth)
    add_fail_rule: Optional[str] = None
    for node in rep_add.per_node:
        if not node.ok:
            add_fail_rule = node.rule
            break
    return built, rep_mult, rep_add, add_fail_rule


def _vacuous_left_instance(policy: str) -> bool:
    sig = liar_signature()
    tl = Atom("T", (Const("l"),))
    ex = Exists("x", tl)
    prem = Sequent.make(sig, ant=[(tl, 1)], suc=[(tl, 1)])
    concl = Sequent.make(sig, ant=[(ex, 1)], suc=[(tl, 1)])
    return check_instance(sig, "ExistsLw", [prem], concl, policy).ok


def repro_prop3(seed: int = 0, depth: int = 4) -> tuple[bool, dict]:
    """The omega-copies refutation checks under the multiplicative policy
    with the expected final sequent, fails under the additive policy at
    the right-quantifier node, and the additive single-instance left rule
    checks on its own."""
    built, rep_mult, rep_add, add_fail_rule = _prop3_policy_runs(depth)
    sig = built.sig
    expected_final = Sequent.make(
        sig, suc=[(Neg(Exists("x", Atom("T", (Const("l"),)))), 1)]
    )
    final_ok = built.derivation.conclusion == expected_final
    add_instance = _vacuous_left_instance(ADDITIVE)
    ok = (
        rep_mult.ok
        and final_ok
        and not rep_add.ok
        and add_fail_rule == "ExistsRw"
        and add_instance
    )
    evidence = {
        "multiplicativeOk": rep_mult.ok,
        "finalSequent": built.derivation.conclusion.render(),
        "finalMatches": final_ok,
        "additiveOk": rep_add.ok,
        "additiveFailsAt": add_fail_rule,
        "additiveSingleInstanceLeftRule": add_instance,
    }
    return ok, evidence


# ---------------------------------------------------------------------------


def repro_vacuous_compare(seed: int = 0, depth: int = 4) -> tuple[bool, dict]:
    """Side-by-side comparison of the two vacuous-quantification policies
    on the omega-copies derivation and on the one-step instances."""
    built, rep_mult, rep_add, add_fail_rule = _prop3_policy_runs(depth)
    sig = liar_signature()
    tl = Atom("T", (Const("l"),))
    ex = Exists("x", tl)
    prem_w = Sequent.make(sig, suc=[(tl, OMEGA)])
    prem_1 = Sequent.make(sig, suc=[(tl, 1)])
    concl = Sequent.make(sig, suc=[(ex, 1)])
    right_matrix = {
        "omegaCopiesMultiplicative": check_instance(
            sig, "ExistsRw", [prem_w], concl, MULTIPLICATIVE
        ).ok,
        "omegaCopiesAdditive": check_instance(
            sig, "ExistsRw", [prem_w], concl, ADDITIVE
        ).ok,
        "oneCopyMultiplicative": check_instance(
            sig, "ExistsRw", [prem_1], concl, MULTIPLICATIVE
        ).ok,
        "oneCopyAdditive": check_instance(
            sig, "ExistsRw", [prem_1], concl, ADDITIVE
        ).ok,
    }
    left_instance = {
        "additive": _vacuous_left_instance(ADDITIVE),
        "multiplicative": _vacuous_left_instance(MULTIPLICATIVE),
    }
    ok = (
        rep_mult.ok
        and not rep_add.ok
        and add_fail_rule == "ExistsRw"
        and right_matrix["omegaCopiesMultiplicative"]
        and not right_matrix["omegaCopiesAdditive"]
        and not right_matrix["oneCopyMultiplicative"]
        and right_matrix["oneCopyAdditive"]
        and left_instance["additive"]
        and not left_instance["multiplicative"]
    )
    evidence = {
        "derivation": {
            "multiplicativeOk": rep_mult.ok,
            "additiveOk": rep_add.ok,
            "additiveFailsAt": add_fail_rule,
        },
        "rightRuleInstances": right_matrix,
        "leftRuleSingleInstance": left_instance,
    }
    return ok, evidence


# ---------------------------------------------------------------------------


_RUNNERS = {  # id -> (runner, the size argument it takes)
    "thm1": (repro_thm1, "samples"),
    "lemma1": (repro_lemma1, "samples"),
    "thm2-fuzz": (repro_thm2_fuzz, "samples"),
    "prop1": (repro_prop1, "depth"),
    "prop2": (repro_prop2, None),
    "prop3": (repro_prop3, "depth"),
    "vacuous-compare": (repro_vacuous_compare, "depth"),
}
# run_repro.py and the golden evidence files list the experiments in this order
EXPERIMENT_IDS = tuple(_RUNNERS)


def run_experiment(
    exp_id: str,
    seed: int = 0,
    samples: Optional[int] = None,
    depth: Optional[int] = None,
) -> ExperimentResult:
    """Run one experiment.  ``samples`` and ``depth`` default to the
    experiment's own when None; an experiment ignores the one it does not
    take."""
    sizes = {"samples": samples, "depth": depth}
    for name, value in sizes.items():
        if value is not None and value < 1:
            raise ValueError(f"{name} must be >= 1, got {value}")
    if exp_id not in _RUNNERS:
        raise ValueError(
            f"unknown experiment id '{exp_id}' (choose from {EXPERIMENT_IDS})"
        )
    run, size_arg = _RUNNERS[exp_id]
    size = sizes.get(size_arg)
    t0 = time.monotonic()
    ok, evidence = run(seed) if size is None else run(seed, size)
    ms = int((time.monotonic() - t0) * 1000)
    return ExperimentResult(exp_id, "pass" if ok else "fail", evidence, seed, ms)
