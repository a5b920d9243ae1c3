"""Seeded random testing of rule soundness.

Rules are fuzzed at the value level: a premise or conclusion context is
summarised by the multiset of values of its member formulas (with finite
or omega multiplicities), which is exactly what the soundness inequality
consumes.  Quantifier instance families are sampled as explicit prefixes
plus constant tails.  All arithmetic is exact.

A small syntactic derivation generator (propositional rules over a toy
signature) supports end-to-end checks: generated derivations must pass
the checker and every node must be sound under random sum-mode valuations.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .calculus import Derivation
from .multiset import OMEGA, Multiplicity, Sequent
from .semantics import (
    FRACTIONS,
    ONE,
    SUM,
    SUP,
    TailSeq,
    Valuation,
    ZERO,
    check_lemma1_instance,
    exists_value,
    value_sequent_sound,
)
from .syntax import Atom, Cond, Const, Formula, Neg, Signature

RULE_CHOICES = (
    "Init",
    "NegL",
    "NegR",
    "CondL",
    "CondR",
    "ExistsLw",
    "ExistsRw",
)


@dataclass(frozen=True)
class FuzzConfig:
    samples: int = 10_000
    max_denominator: int = 60
    max_context_size: int = 4
    max_family_prefix: int = 6
    seed: int = 0
    mode: str = SUM
    rule: str = "ExistsRw"

    def __post_init__(self) -> None:
        if self.samples < 1 or self.max_denominator < 1:
            raise ValueError("bounds must be >= 1")
        if self.mode not in (SUP, SUM):
            raise ValueError(f"mode must be '{SUP}' or '{SUM}'")
        if self.rule not in RULE_CHOICES:
            raise ValueError(f"rule must be one of {RULE_CHOICES}")


@dataclass(frozen=True)
class FuzzOutcome:
    rule: str
    mode: str
    seed: int
    samples_run: int
    violation_index: Optional[int] = None
    violation: Optional[dict] = None

    @property
    def found_violation(self) -> bool:
        return self.violation_index is not None

    def to_json(self) -> dict:
        return {
            "rule": self.rule,
            "mode": self.mode,
            "seed": self.seed,
            "samplesRun": self.samples_run,
            "violationIndex": self.violation_index,
            "violation": self.violation,
        }


# ---------------------------------------------------------------------------
# Value-level contexts


ValueEntry = tuple[Fraction, Multiplicity]


def sample_unit(rng: random.Random, max_denominator: int) -> Fraction:
    den = rng.randint(1, max_denominator)
    return Fraction(rng.randint(0, den), den)


def sample_context(rng: random.Random, cfg: FuzzConfig) -> list[ValueEntry]:
    size = rng.randint(0, cfg.max_context_size)
    out: list[ValueEntry] = []
    for _ in range(size):
        mult: Multiplicity = OMEGA if rng.random() < 0.10 else rng.randint(1, 3)
        out.append((sample_unit(rng, cfg.max_denominator), mult))
    return out


def _entries_json(entries: list[ValueEntry]) -> list[list]:
    return [[str(v), "w" if m is OMEGA else m] for v, m in entries]


def existsr_value_instance(
    gamma: list[ValueEntry],
    delta: list[ValueEntry],
    explicit: list[Fraction],
    tail: Fraction,
    mode: str,
) -> tuple[bool, bool]:
    """(premise sound, conclusion sound) for a right-quantifier instance
    whose premise succedent carries the full instance family."""
    prem_suc = delta + [(v, 1) for v in explicit] + [(tail, OMEGA)]
    premise_sound = value_sequent_sound(gamma, prem_suc)
    v_ex = exists_value(explicit, tail, mode)
    conclusion_sound = value_sequent_sound(gamma, delta + [(v_ex, 1)])
    return premise_sound, conclusion_sound


# ---------------------------------------------------------------------------
# Per-rule samplers: (premises_sound, conclusion_sound, payload)


def _sample_init(rng, cfg) -> tuple[bool, bool, dict]:
    gamma = sample_context(rng, cfg)
    delta = sample_context(rng, cfg)
    a = sample_unit(rng, cfg.max_denominator)
    sound = value_sequent_sound(gamma + [(a, 1)], delta + [(a, 1)])
    return True, sound, {
        "gamma": _entries_json(gamma),
        "delta": _entries_json(delta),
        "a": str(a),
    }


def _sample_negl(rng, cfg) -> tuple[bool, bool, dict]:
    gamma = sample_context(rng, cfg)
    delta = sample_context(rng, cfg)
    a = sample_unit(rng, cfg.max_denominator)
    prem = value_sequent_sound(gamma, delta + [(a, 1)])
    concl = value_sequent_sound(gamma + [(FRACTIONS.neg(a), 1)], delta)
    return prem, concl, {
        "gamma": _entries_json(gamma),
        "delta": _entries_json(delta),
        "a": str(a),
    }


def _sample_negr(rng, cfg) -> tuple[bool, bool, dict]:
    gamma = sample_context(rng, cfg)
    delta = sample_context(rng, cfg)
    a = sample_unit(rng, cfg.max_denominator)
    prem = value_sequent_sound(gamma + [(a, 1)], delta)
    concl = value_sequent_sound(gamma, delta + [(FRACTIONS.neg(a), 1)])
    return prem, concl, {
        "gamma": _entries_json(gamma),
        "delta": _entries_json(delta),
        "a": str(a),
    }


def _sample_condr(rng, cfg) -> tuple[bool, bool, dict]:
    gamma = sample_context(rng, cfg)
    delta = sample_context(rng, cfg)
    a = sample_unit(rng, cfg.max_denominator)
    b = sample_unit(rng, cfg.max_denominator)
    prem = value_sequent_sound(gamma + [(a, 1)], delta + [(b, 1)])
    cond = FRACTIONS.cond(a, b)
    concl = value_sequent_sound(gamma, delta + [(cond, 1)])
    return prem, concl, {
        "gamma": _entries_json(gamma),
        "delta": _entries_json(delta),
        "a": str(a),
        "b": str(b),
    }


def _sample_condl(rng, cfg) -> tuple[bool, bool, dict]:
    gamma = sample_context(rng, cfg)
    delta = sample_context(rng, cfg)
    gamma2 = sample_context(rng, cfg)
    delta2 = sample_context(rng, cfg)
    a = sample_unit(rng, cfg.max_denominator)
    b = sample_unit(rng, cfg.max_denominator)
    prem0 = value_sequent_sound(gamma, delta + [(a, 1)])
    prem1 = value_sequent_sound(gamma2 + [(b, 1)], delta2)
    cond = FRACTIONS.cond(a, b)
    concl = value_sequent_sound(
        gamma + gamma2 + [(cond, 1)], delta + delta2
    )
    return prem0 and prem1, concl, {
        "gamma": _entries_json(gamma),
        "delta": _entries_json(delta),
        "gamma2": _entries_json(gamma2),
        "delta2": _entries_json(delta2),
        "a": str(a),
        "b": str(b),
    }


def _sample_family(rng, cfg) -> tuple[list[Fraction], Fraction]:
    prefix = rng.randint(0, cfg.max_family_prefix)
    explicit = [sample_unit(rng, cfg.max_denominator) for _ in range(prefix)]
    # half the tails sit exactly at 0 so both convergent and divergent
    # series appear
    tail = ZERO if rng.random() < 0.5 else sample_unit(rng, cfg.max_denominator)
    return explicit, tail


def _sample_existsr(rng, cfg) -> tuple[bool, bool, dict]:
    gamma = sample_context(rng, cfg)
    delta = sample_context(rng, cfg)
    explicit, tail = _sample_family(rng, cfg)
    prem, concl = existsr_value_instance(gamma, delta, explicit, tail, cfg.mode)
    return prem, concl, {
        "gamma": _entries_json(gamma),
        "delta": _entries_json(delta),
        "instances": [str(v) for v in explicit],
        "tail": str(tail),
    }


def _sample_existsl(rng, cfg) -> tuple[bool, bool, dict]:
    """Premise i is summarised by a triple (context value, instance value,
    succedent value) constrained to be sound; the conclusion folds the
    three series through the quantifier clause."""
    prefix = rng.randint(0, cfg.max_family_prefix)

    def delta_for(g: Fraction, c: Fraction) -> Fraction:
        low = ONE - min(ONE, (ONE - g) + (ONE - c))
        slack = sample_unit(rng, cfg.max_denominator)
        return low + (ONE - low) * slack

    gammas, chis, deltas = [], [], []
    for _ in range(prefix):
        g = sample_unit(rng, cfg.max_denominator)
        c = sample_unit(rng, cfg.max_denominator)
        gammas.append(g)
        chis.append(c)
        deltas.append(delta_for(g, c))
    g_tail = sample_unit(rng, cfg.max_denominator)
    c_tail = ZERO if rng.random() < 0.5 else sample_unit(rng, cfg.max_denominator)
    d_tail = delta_for(g_tail, c_tail)
    prem = check_lemma1_instance(
        TailSeq(tuple(gammas), g_tail),
        TailSeq(tuple(chis), c_tail),
        TailSeq(tuple(deltas), d_tail),
    ).hypothesis_all
    v_ex = exists_value(chis, c_tail, cfg.mode)
    concl = value_sequent_sound(
        [(g, 1) for g in gammas] + [(g_tail, OMEGA), (v_ex, 1)],
        [(d, 1) for d in deltas] + [(d_tail, OMEGA)],
    )
    return prem, concl, {
        "gamma": [str(v) for v in gammas] + [f"tail {g_tail}"],
        "chi": [str(v) for v in chis] + [f"tail {c_tail}"],
        "delta": [str(v) for v in deltas] + [f"tail {d_tail}"],
    }


_SAMPLERS = {
    "Init": _sample_init,
    "NegL": _sample_negl,
    "NegR": _sample_negr,
    "CondR": _sample_condr,
    "CondL": _sample_condl,
    "ExistsRw": _sample_existsr,
    "ExistsLw": _sample_existsl,
}


def fuzz_rule(cfg: FuzzConfig) -> FuzzOutcome:
    """Sample rule instances plus valuations; report the first violation
    (all premises sound, conclusion unsound) or exhaustion.  Sequential
    and reproducible from the seed."""
    rng = random.Random(cfg.seed)
    sampler = _SAMPLERS[cfg.rule]
    for i in range(cfg.samples):
        prem, concl, payload = sampler(rng, cfg)
        if prem and not concl:
            return FuzzOutcome(cfg.rule, cfg.mode, cfg.seed, i + 1, i, payload)
    return FuzzOutcome(cfg.rule, cfg.mode, cfg.seed, cfg.samples)


# ---------------------------------------------------------------------------
# Syntactic derivation generator (propositional fragment)


def toy_signature() -> Signature:
    sig = Signature()
    sig.add_predicate("P", 1)
    sig.add_predicate("Q", 1)
    sig.add_constant("a")
    sig.add_constant("b")
    return sig


def _atom_pool(sig: Signature) -> list[Formula]:
    return [
        Atom(p, (Const(c),))
        for p, ar in sig.predicates
        if ar == 1
        for c in ("a", "b")
    ]


def sample_formula(rng: random.Random, sig: Signature, depth: int) -> Formula:
    pool = _atom_pool(sig)
    if depth <= 0 or rng.random() < 0.4:
        return rng.choice(pool)
    if rng.random() < 0.5:
        return Neg(sample_formula(rng, sig, depth - 1))
    return Cond(
        sample_formula(rng, sig, depth - 1), sample_formula(rng, sig, depth - 1)
    )


def _sample_side(rng, sig, max_size: int) -> list[tuple[Formula, Multiplicity]]:
    out = []
    for _ in range(rng.randint(0, max_size)):
        mult: Multiplicity = OMEGA if rng.random() < 0.10 else rng.randint(1, 2)
        out.append((sample_formula(rng, sig, 2), mult))
    return out


def generate_derivation(
    rng: random.Random, sig: Signature, depth: int
) -> Derivation:
    """A random checker-valid derivation built from the propositional
    rules over initial sequents with random side contexts."""

    def init_leaf() -> Derivation:
        shared = sample_formula(rng, sig, 2)
        ant = _sample_side(rng, sig, 2) + [(shared, 1)]
        suc = _sample_side(rng, sig, 2) + [(shared, 1)]
        return Derivation(
            Sequent.make(sig, ant=ant, suc=suc), "Init", principal=shared
        )

    if depth <= 0:
        return init_leaf()
    rule = rng.choice(["NegL", "NegR", "CondR", "CondL", "Init"])
    if rule == "Init":
        return init_leaf()
    if rule == "CondL":
        p0 = generate_derivation(rng, sig, depth - 1)
        p1 = generate_derivation(rng, sig, depth - 1)
        suc0 = p0.conclusion.suc.finite.support()
        ant1 = p1.conclusion.ant.finite.support()
        if not suc0 or not ant1:
            return init_leaf()
        a = rng.choice(suc0)
        b = rng.choice(ant1)
        cond = Cond(a, b)
        concl = Sequent(
            p0.conclusion.ant.union(
                p1.conclusion.ant.with_removed_one(b)
            ).with_added(cond),
            p0.conclusion.suc.with_removed_one(a).union(p1.conclusion.suc),
        )
        return Derivation(concl, "CondL", (p0, p1), principal=cond)
    child = generate_derivation(rng, sig, depth - 1)
    cant = child.conclusion.ant.finite.support()
    csuc = child.conclusion.suc.finite.support()
    if rule == "NegL" and csuc:
        a = rng.choice(csuc)
        concl = Sequent(
            child.conclusion.ant.with_added(Neg(a)),
            child.conclusion.suc.with_removed_one(a),
        )
        return Derivation(concl, "NegL", (child,), principal=Neg(a))
    if rule == "NegR" and cant:
        a = rng.choice(cant)
        concl = Sequent(
            child.conclusion.ant.with_removed_one(a),
            child.conclusion.suc.with_added(Neg(a)),
        )
        return Derivation(concl, "NegR", (child,), principal=Neg(a))
    if rule == "CondR" and cant and csuc:
        a = rng.choice(cant)
        b = rng.choice(csuc)
        concl = Sequent(
            child.conclusion.ant.with_removed_one(a),
            child.conclusion.suc.with_removed_one(b).with_added(Cond(a, b)),
        )
        return Derivation(concl, "CondR", (child,), principal=Cond(a, b))
    return init_leaf()


def all_conclusions(d: Derivation) -> list[Sequent]:
    out = [d.conclusion]
    for p in d.premises:
        if isinstance(p, Derivation):
            out.extend(all_conclusions(p))
    if d.family is not None:
        out.extend(all_conclusions(d.family.template))
        for e in d.family.explicit:
            out.extend(all_conclusions(e))
    return out


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
        a: sample_unit(rng, max_denominator) for a in atoms if isinstance(a, Atom)
    }
    defaults = {}
    for p, _ in sig.predicates:
        defaults[p] = (
            ZERO if rng.random() < 0.5 else sample_unit(rng, max_denominator)
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

    for seq in all_conclusions(d):
        for side in (seq.ant, seq.suc):
            for f, _ in side.finite.items():
                walk_formula(f)
    return out
