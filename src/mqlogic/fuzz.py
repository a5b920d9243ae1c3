"""Seeded random testing of rule soundness.

Rules are fuzzed at the value level: a premise or conclusion context is
summarised by the multiset of values of its member formulas (with finite
or omega multiplicities), which is exactly what the soundness inequality
consumes.  Quantifier instance families are sampled as explicit prefixes
plus constant tails.  All arithmetic is exact: each sample runs on
integer numerators over one common scale.

A small syntactic derivation generator (propositional rules over a toy
signature) supports end-to-end checks: generated derivations must pass
the checker and every node must be sound under random sum-mode valuations.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Callable, Iterable, Optional

from .calculus import Derivation
from .multiset import OMEGA, Multiplicity, Sequent
from .semantics import (
    ONE,
    SUM,
    SUP,
    TailSeq,
    check_lemma1_instance,
    cond_value,
    exists_value,
    hypothesis_bound,
    neg_value,
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
        for name, least in (
            ("samples", 1),
            ("max_denominator", 1),
            ("max_context_size", 0),
            ("max_family_prefix", 0),
        ):
            if getattr(self, name) < least:
                raise ValueError(f"{name} must be >= {least}")
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
#
# A sampler makes all its random draws first, each unit value as a
# (numerator, denominator) pair, and then judges the sample over one
# integer scale: the lcm of the denominators it drew (squared where a
# product of two values must stay exact).  A value is then its numerator
# over that scale, and the clauses run on Python ints.


Draw = tuple[int, int]  # a sampled unit value: (numerator, denominator)
ZERO_DRAW: Draw = (0, 1)


def randint(rng: random.Random, a: int, b: int) -> int:
    """``Random.randint`` without its call chain: the same ``getrandbits``
    calls as CPython's ``randrange(a, b + 1)``, so the same integer in [a, b]."""
    n = b - a + 1
    if n <= 0:
        raise ValueError(f"empty range for randint({a}, {b})")
    k = n.bit_length()
    r = rng.getrandbits(k)
    while r >= n:
        r = rng.getrandbits(k)
    return a + r


def draw_unit(rng: random.Random, max_denominator: int, low: int = 0) -> Draw:
    den = randint(rng, 1, max_denominator)
    return randint(rng, low, den), den


def draw_context(
    rng: random.Random, cfg: FuzzConfig
) -> list[tuple[Draw, Multiplicity]]:
    # randint(rng, 1, 3) and draw_unit inlined: the rule fuzzers' hottest loop
    bits, max_den = rng.getrandbits, cfg.max_denominator
    k_den = max_den.bit_length()
    out = []
    for _ in range(randint(rng, 0, cfg.max_context_size)):
        if rng.random() < 0.10:
            mult: Multiplicity = OMEGA
        else:
            mult = bits(2) + 1
            while mult > 3:
                mult = bits(2) + 1
        den = bits(k_den) + 1
        while den > max_den:
            den = bits(k_den) + 1
        k = (den + 1).bit_length()
        num = bits(k)
        while num > den:
            num = bits(k)
        out.append(((num, den), mult))
    return out


def common_scale(draws: Iterable[Draw], square: bool = False) -> int:
    scale = lcm(*{den for _, den in draws})
    return scale * scale if square else scale


def over(one: int, draw: Draw) -> int:
    """The draw's numerator over the scale ``one``."""
    num, den = draw
    return num * (one // den)


def _text(num: int, den: int) -> str:
    return str(Fraction(num, den))


def _entries_json(entries: list[tuple[Draw, Multiplicity]]) -> list[list]:
    return [[_text(*v), "w" if m is OMEGA else m] for v, m in entries]


def existsr_value_instance(
    gamma: list, delta: list, explicit: list, tail, mode: str, one=ONE
) -> tuple[bool, bool]:
    """(premise sound, conclusion sound) for a right-quantifier instance
    whose premise succedent carries the full instance family."""
    prem_suc = delta + [(v, 1) for v in explicit] + [(tail, OMEGA)]
    premise_sound = value_sequent_sound(gamma, prem_suc, one)
    v_ex = exists_value(explicit, tail, mode, one)
    conclusion_sound = value_sequent_sound(gamma, delta + [(v_ex, 1)], one)
    return premise_sound, conclusion_sound


def sound_premise_values(
    rows: list[tuple[Draw, Draw, Draw]], one: int
) -> tuple[list[int], list[int], list[int]]:
    """Per row (g, c, slack): g and c over ``one``, and the d that lies the
    slack's share of the way from the hypothesis bound of (g, c) up to 1.
    ``one`` must be the square of a multiple of every denominator drawn,
    so that d is exact."""
    gs, cs, ds = [], [], []
    for g, c, slack in rows:
        g, c = over(one, g), over(one, c)
        low = hypothesis_bound(g, c, one)
        gs.append(g)
        cs.append(c)
        ds.append(low + (one - low) * over(one, slack) // one)
    return gs, cs, ds


# ---------------------------------------------------------------------------
# Per-rule samplers: (premises_sound, conclusion_sound, payload), where
# payload() builds the evidence of a violating sample


def _contexts_and_units(judge, contexts: tuple[str, ...], units: tuple[str, ...]):
    """The sampler that draws the named contexts, then the named unit
    values, and calls ``judge(one, *contexts, *units)`` over their scale."""

    def sample(rng, cfg):
        ctxs = [draw_context(rng, cfg) for _ in contexts]
        vals = [draw_unit(rng, cfg.max_denominator) for _ in units]
        one = common_scale([v for ctx in ctxs for v, _ in ctx] + vals)
        prem, concl = judge(
            one,
            *([(over(one, v), m) for v, m in ctx] for ctx in ctxs),
            *(over(one, v) for v in vals),
        )

        def payload() -> dict:
            out = {k: _entries_json(ctx) for k, ctx in zip(contexts, ctxs)}
            return out | {k: _text(*v) for k, v in zip(units, vals)}

        return prem, concl, payload

    return sample


def _init(one, gamma, delta, a):
    return True, value_sequent_sound(gamma + [(a, 1)], delta + [(a, 1)], one)


def _negl(one, gamma, delta, a):
    prem = value_sequent_sound(gamma, delta + [(a, 1)], one)
    return prem, value_sequent_sound(gamma + [(neg_value(a, one), 1)], delta, one)


def _negr(one, gamma, delta, a):
    prem = value_sequent_sound(gamma + [(a, 1)], delta, one)
    return prem, value_sequent_sound(gamma, delta + [(neg_value(a, one), 1)], one)


def _condr(one, gamma, delta, a, b):
    prem = value_sequent_sound(gamma + [(a, 1)], delta + [(b, 1)], one)
    cond = cond_value(a, b, one)
    return prem, value_sequent_sound(gamma, delta + [(cond, 1)], one)


def _condl(one, gamma, delta, gamma2, delta2, a, b):
    prem0 = value_sequent_sound(gamma, delta + [(a, 1)], one)
    prem1 = value_sequent_sound(gamma2 + [(b, 1)], delta2, one)
    cond = cond_value(a, b, one)
    concl = value_sequent_sound(gamma + gamma2 + [(cond, 1)], delta + delta2, one)
    return prem0 and prem1, concl


def _sample_existsr(rng, cfg) -> tuple[bool, bool, Callable[[], dict]]:
    gamma, delta = draw_context(rng, cfg), draw_context(rng, cfg)
    prefix = randint(rng, 0, cfg.max_family_prefix)
    explicit = [draw_unit(rng, cfg.max_denominator) for _ in range(prefix)]
    # half the tails sit exactly at 0 so both convergent and divergent
    # series appear
    tail = ZERO_DRAW if rng.random() < 0.5 else draw_unit(rng, cfg.max_denominator)
    one = common_scale([v for v, _ in gamma + delta] + explicit + [tail])
    prem, concl = existsr_value_instance(
        [(over(one, v), m) for v, m in gamma],
        [(over(one, v), m) for v, m in delta],
        [over(one, v) for v in explicit],
        over(one, tail),
        cfg.mode,
        one,
    )
    return prem, concl, lambda: {
        "gamma": _entries_json(gamma),
        "delta": _entries_json(delta),
        "instances": [_text(*v) for v in explicit],
        "tail": _text(*tail),
    }


def _sample_existsl(rng, cfg) -> tuple[bool, bool, Callable[[], dict]]:
    """Premise i is summarised by a triple (context value, instance value,
    succedent value) constrained to be sound; the conclusion folds the
    three series through the quantifier clause."""
    max_den = cfg.max_denominator
    prefix = randint(rng, 0, cfg.max_family_prefix)
    rows = [
        (draw_unit(rng, max_den), draw_unit(rng, max_den), draw_unit(rng, max_den))
        for _ in range(prefix)
    ]
    g_tail = draw_unit(rng, max_den)
    c_tail = ZERO_DRAW if rng.random() < 0.5 else draw_unit(rng, max_den)
    rows.append((g_tail, c_tail, draw_unit(rng, max_den)))
    one = common_scale([v for row in rows for v in row], square=True)
    gamma, chi, delta = (
        TailSeq(tuple(vs[:-1]), vs[-1], one) for vs in sound_premise_values(rows, one)
    )
    check = check_lemma1_instance(gamma, chi, delta, cfg.mode)

    def payload() -> dict:
        return {
            key: [_text(v, one) for v in seq.explicit]
            + [f"tail {_text(seq.tail, one)}"]
            for key, seq in (("gamma", gamma), ("chi", chi), ("delta", delta))
        }

    return check.hypothesis_all, check.conclusion_holds, payload


_SAMPLERS = {
    "Init": _contexts_and_units(_init, ("gamma", "delta"), ("a",)),
    "NegL": _contexts_and_units(_negl, ("gamma", "delta"), ("a",)),
    "NegR": _contexts_and_units(_negr, ("gamma", "delta"), ("a",)),
    "CondR": _contexts_and_units(_condr, ("gamma", "delta"), ("a", "b")),
    "CondL": _contexts_and_units(
        _condl, ("gamma", "delta", "gamma2", "delta2"), ("a", "b")
    ),
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
            return FuzzOutcome(cfg.rule, cfg.mode, cfg.seed, i + 1, i, payload())
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
    for _ in range(randint(rng, 0, max_size)):
        mult: Multiplicity = OMEGA if rng.random() < 0.10 else randint(rng, 1, 2)
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
        suc0 = p0.conclusion.suc.support()
        ant1 = p1.conclusion.ant.support()
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
    cant = child.conclusion.ant.support()
    csuc = child.conclusion.suc.support()
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
