"""Golden piecewise profiles.

A refactor of the piecewise algebra may not change any profile: the same
pieces, with the same bounds, closedness and coefficients, and the same
fixed-point set.  Two seeded corpora are pinned, one SHA-256 prefix per
profile (constant profiles are thinned to one in ten): ``eval_parametric`` on random sentences over the liar signature
(extended with ``P/1`` and the constants ``a`` and ``b``), and random
compositions of constants and the unknown through the shared value
clauses ``neg_value``, ``cond_value`` (also as the clamped sum
``cond_value(neg_value(f), g)``) and the sum quantifier
``exists_value``, each run through ``piecewise._profile``.
``tests/data/piecewise_profiles.json`` holds the expected digests and the
piece-count histogram of each corpus; regenerate it deliberately with

    PYTHONPATH=src python tests/test_piecewise_profiles.py
"""

import hashlib
import json
import random
from collections import Counter
from fractions import Fraction as F
from pathlib import Path

from mqlogic.derivations import liar_signature
from mqlogic.piecewise import (
    PiecewiseLinear,
    _profile,
    eval_parametric,
    fixed_points,
    piecewise_to_json,
)
from mqlogic.semantics import SUM, Valuation, cond_value, exists_value, neg_value
from mqlogic.syntax import Atom, Cond, Const, Exists, Neg, Var

GOLDEN = Path(__file__).parent / "data" / "piecewise_profiles.json"
SENTENCES = 2000
COMPOSITIONS = 1000
MAX_DEPTH = 5
DIGEST_HEX = 16


def _unit(rng: random.Random) -> F:
    """A value in [0, 1], on a coarse grid half of the time so that pieces
    coincide often."""
    den = rng.choice((1, 2, 3, 4)) if rng.random() < 0.5 else rng.randint(5, 13)
    return F(rng.randint(0, den), den)


def _sentence(rng: random.Random, depth: int, bound: tuple[str, ...]):
    if depth == 0 or rng.random() < 0.15:
        pred = "T" if rng.random() < 0.5 else "P"
        if pred == "T" and (not bound or rng.random() < 0.7):
            return Atom("T", (Const("l"),))
        choices = ("a", "b") + bound
        name = rng.choice(choices)
        return Atom(pred, (Var(name) if name in bound else Const(name),))
    roll = rng.random()
    if roll < 0.35:
        return Neg(_sentence(rng, depth - 1, bound))
    if roll < 0.7:
        return Cond(_sentence(rng, depth - 1, bound), _sentence(rng, depth - 1, bound))
    var = f"x{len(bound)}"
    return Exists(var, _sentence(rng, depth - 1, bound + (var,)))


def sentence_profiles():
    rng = random.Random(10)
    sig = liar_signature()
    sig.add_predicate("P", 1)
    sig.add_constant("a")
    sig.add_constant("b")
    tl = Atom("T", (Const("l"),))
    while True:
        sentence = _sentence(rng, rng.randint(1, MAX_DEPTH), ())
        atoms = {
            Atom(p, (Const(c),)): _unit(rng)
            for p in ("P", "T")
            for c in ("a", "b")
            if rng.random() < 0.6
        }
        defaults = {p: _unit(rng) for p in ("P", "T") if rng.random() < 0.3}
        valuation = Valuation(
            sig, mode=SUM, atom_values=atoms, predicate_defaults=defaults, unknown=tl
        )
        yield eval_parametric(valuation, sentence)


def _composition(rng: random.Random, depth: int):
    """A random composition, drawn in full, as a function of the unknown."""
    if depth == 0 or rng.random() < 0.1:
        if rng.random() < 0.6:
            return lambda v: v
        c = _unit(rng)
        return lambda v: c
    roll = rng.random()
    if roll < 0.25:
        f = _composition(rng, depth - 1)
        return lambda v: neg_value(f(v))
    if roll < 0.5:
        f, g = _composition(rng, depth - 1), _composition(rng, depth - 1)
        return lambda v: cond_value(f(v), g(v))
    if roll < 0.7:  # min(1, f + g)
        f, g = _composition(rng, depth - 1), _composition(rng, depth - 1)
        return lambda v: cond_value(neg_value(f(v)), g(v))
    explicit = [_composition(rng, depth - 1) for _ in range(rng.randint(0, 3))]
    if rng.random() < 0.4:
        tail = lambda v: F(0)
    else:
        tail = _composition(rng, depth - 1)
    return lambda v: exists_value([e(v) for e in explicit], tail(v), SUM)


def composition_profiles():
    rng = random.Random(11)
    while True:
        yield _profile(_composition(rng, rng.randint(1, MAX_DEPTH)))


def _digest(profile: PiecewiseLinear) -> str:
    fps = fixed_points(profile)
    payload = {
        "profile": piecewise_to_json(profile),
        "fixedPoints": [str(v) for v in fps.points],
        "fixedIntervals": [str(iv) for iv in fps.intervals],
    }
    text = json.dumps(payload, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()[:DIGEST_HEX]


def _draw(profiles, count: int, rng: random.Random) -> list[PiecewiseLinear]:
    """``count`` profiles from the stream, keeping only one in ten of the
    constant ones (most deep sentences saturate to 0 or 1)."""
    kept = []
    for p in profiles:
        if len(p.pieces) > 1 or p.pieces[0].a != 0 or rng.random() < 0.1:
            kept.append(p)
            if len(kept) == count:
                return kept


def corpus(profiles, count: int) -> dict:
    profiles = _draw(profiles, count, random.Random(count))
    histogram = Counter(len(p.pieces) for p in profiles)
    return {
        "digests": [_digest(p) for p in profiles],
        "pieceCounts": {str(n): histogram[n] for n in sorted(histogram)},
    }


def _golden() -> dict:
    return json.loads(GOLDEN.read_text())


def _assert_corpus(got: dict, want: dict, count: int) -> None:
    assert len(got["digests"]) == len(want["digests"]) == count
    mismatched = [
        i for i, (g, w) in enumerate(zip(got["digests"], want["digests"])) if g != w
    ]
    assert not mismatched, f"profiles changed at indices {mismatched[:20]}"
    assert got["pieceCounts"] == want["pieceCounts"]


def test_sentence_profiles_match_golden():
    got = corpus(sentence_profiles(), SENTENCES)
    _assert_corpus(got, _golden()["sentences"], SENTENCES)


def test_composition_profiles_match_golden():
    got = corpus(composition_profiles(), COMPOSITIONS)
    _assert_corpus(got, _golden()["compositions"], COMPOSITIONS)


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    golden = {
        "sentences": corpus(sentence_profiles(), SENTENCES),
        "compositions": corpus(composition_profiles(), COMPOSITIONS),
    }
    GOLDEN.write_text(json.dumps(golden, indent=0, sort_keys=True) + "\n")
    for name, part in golden.items():
        print(name, part["pieceCounts"])
