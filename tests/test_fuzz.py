import random

import pytest

from mqlogic.calculus import MULTIPLICATIVE, Derivation, check_derivation, derivation_nodes
from mqlogic.fuzz import (
    FuzzConfig,
    RULE_CHOICES,
    draw_unit,
    existsr_value_instance,
    fuzz_rule,
    generate_derivation,
    toy_signature,
)
from mqlogic.multiset import OMEGA
from mqlogic.semantics import (
    SUM,
    SUP,
    ZERO,
    Valuation,
    exists_value,
    sequent_sound,
    side_sum,
    value_sequent_sound,
)
from mqlogic.syntax import Atom, Cond, Formula, Neg, Signature
from fractions import Fraction as F


def random_valuation(
    rng: random.Random,
    sig: Signature,
    atoms: list[Formula],
    max_denominator: int = 60,
    mode: str = SUM,
) -> Valuation:
    """Random sum-mode valuation over an atom pool.  Predicate defaults
    take the value 0 half the time so divergent and convergent quantifier
    tails both appear."""
    atom_values = {
        a: F(*draw_unit(rng, max_denominator)) for a in atoms if isinstance(a, Atom)
    }
    defaults = {}
    for p, _ in sig.predicates:
        defaults[p] = (
            ZERO if rng.random() < 0.5 else F(*draw_unit(rng, max_denominator))
        )
    return Valuation(
        sig, mode=mode, atom_values=atom_values, predicate_defaults=defaults
    )


def collect_atoms(d: Derivation) -> list[Formula]:
    seen: set[Formula] = set()
    out: list[Formula] = []

    def walk_formula(f: Formula) -> None:
        if isinstance(f, Atom):
            if f not in seen:
                seen.add(f)
                out.append(f)
        elif isinstance(f, Neg):
            walk_formula(f.body)
        elif isinstance(f, Cond):
            walk_formula(f.lhs)
            walk_formula(f.rhs)

    for node in derivation_nodes(d):
        for side in (node.conclusion.ant, node.conclusion.suc):
            for f, _ in side.items():
                walk_formula(f)
    return out


class TestValueLevel:
    def test_context_values(self):
        # the empty sequent: antecedent 1, succedent 0
        assert value_sequent_sound([], []) is False
        # antecedent 1 - min(1, (1-3/4)*2) = 1/2
        assert 1 - side_sum([(F(3, 4), 2)], negate=True) == F(1, 2)
        assert side_sum([(F(3, 5), 1), (F(3, 5), 1)]) == 1
        assert 1 - side_sum([(F(9, 10), OMEGA)], negate=True) == 0
        assert side_sum([(F(0), OMEGA)]) == 0

    def test_quantifier_value(self):
        assert exists_value([F(1, 3)], F(0), SUP) == F(1, 3)
        assert exists_value([F(1, 3)], F(0), SUM) == F(1, 3)
        assert exists_value([F(2, 3), F(2, 3)], F(0), SUM) == 1
        assert exists_value([], F(1, 2), SUM) == 1
        assert exists_value([], F(1, 2), SUP) == F(1, 2)

    def test_theorem_one_counterexample_shape(self):
        prem, concl = existsr_value_instance([], [], [], F(1, 2), SUP)
        assert prem and not concl
        prem2, concl2 = existsr_value_instance([], [], [], F(1, 2), SUM)
        assert prem2 and concl2


class TestFuzzing:
    def test_reproducible(self):
        cfg = FuzzConfig(samples=500, seed=11, mode=SUP, rule="ExistsRw")
        a = fuzz_rule(cfg)
        b = fuzz_rule(cfg)
        assert a == b

    def test_sum_mode_rules_hold(self):
        for rule in RULE_CHOICES:
            out = fuzz_rule(FuzzConfig(samples=800, seed=3, mode=SUM, rule=rule))
            assert not out.found_violation, (rule, out.violation)

    def test_sup_mode_right_rule_breaks(self):
        out = fuzz_rule(
            FuzzConfig(samples=10_000, seed=3, mode=SUP, rule="ExistsRw")
        )
        assert out.found_violation

    def test_config_validation(self):
        with pytest.raises(ValueError):
            FuzzConfig(samples=0)
        with pytest.raises(ValueError):
            FuzzConfig(mode="max")
        with pytest.raises(ValueError):
            FuzzConfig(rule="Cut")


class TestDerivationGenerator:
    def test_generated_derivations_check(self):
        sig = toy_signature()
        rng = random.Random(5)
        for _ in range(25):
            d = generate_derivation(rng, sig, 4)
            assert check_derivation(d, sig, MULTIPLICATIVE, 4).ok

    def test_generated_nodes_sound_under_sum_valuations(self):
        """Soundness bridge: 1,000 random sum-mode valuations across
        checker-accepted derivations of depth up to 4; every node sound."""
        sig = toy_signature()
        rng = random.Random(6)
        for _ in range(5):
            d = generate_derivation(rng, sig, 4)
            assert check_derivation(d, sig, MULTIPLICATIVE, 4).ok
            atoms = collect_atoms(d)
            for _ in range(200):
                v = random_valuation(rng, sig, atoms)
                for node in derivation_nodes(d):
                    assert sequent_sound(v, node.conclusion)

    def test_sampler_hits_bounds(self):
        rng = random.Random(0)
        values = {F(*draw_unit(rng, 4)) for _ in range(500)}
        assert F(0) in values and F(1) in values
