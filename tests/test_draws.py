"""The samplers' draw primitives against the standard library.

``fuzz.randint``, ``draw_unit`` and ``draw_context`` must return what
``random.Random.randint`` returns on the same generator and leave the
generator in the same state, so the seeded evidence does not change.
"""

import random
from pathlib import Path

import pytest

from mqlogic.fuzz import FuzzConfig, draw_context, draw_unit, randint
from mqlogic.multiset import OMEGA

SRC = Path(__file__).resolve().parent.parent / "src" / "mqlogic"

WIDTHS = sorted(
    {1, 2, 3}
    | {w for k in range(1, 65) for w in (2**k - 1, 2**k, 2**k + 1)}
)


def stdlib_unit(rng, max_den, low=0):
    den = rng.randint(1, max_den)
    return rng.randint(low, den), den


def assert_same_stream(draw, reference, seeds=range(3), repeats=20):
    for seed in seeds:
        ours, theirs = random.Random(seed), random.Random(seed)
        for _ in range(repeats):
            assert draw(ours) == reference(theirs)
            assert ours.getstate() == theirs.getstate()


@pytest.mark.parametrize("a", [-5, 0, 1])
def test_randint_matches_stdlib(a):
    for width in WIDTHS:
        b = a + width - 1
        assert_same_stream(
            lambda rng: randint(rng, a, b), lambda rng: rng.randint(a, b), repeats=5
        )


@pytest.mark.parametrize("max_den", [1, 60, 10**6, 2**40])
@pytest.mark.parametrize("low", [0, 1])
def test_draw_unit_matches_stdlib(max_den, low):
    assert_same_stream(
        lambda rng: draw_unit(rng, max_den, low),
        lambda rng: stdlib_unit(rng, max_den, low),
    )


@pytest.mark.parametrize("max_den", [1, 60, 10**6])
def test_draw_context_matches_stdlib(max_den):
    cfg = FuzzConfig(max_denominator=max_den, max_context_size=6)

    def reference(rng):
        out = []
        for _ in range(rng.randint(0, cfg.max_context_size)):
            mult = OMEGA if rng.random() < 0.10 else rng.randint(1, 3)
            out.append((stdlib_unit(rng, max_den), mult))
        return out

    assert_same_stream(lambda rng: draw_context(rng, cfg), reference, repeats=50)


@pytest.mark.parametrize("a", [-5, 0, 1])
@pytest.mark.parametrize("below", [1, 5])
def test_empty_range_raises(a, below):
    with pytest.raises(ValueError):
        randint(random.Random(0), a, a - below)
    with pytest.raises(ValueError):
        random.Random(0).randint(a, a - below)


def test_draw_unit_empty_range_raises():
    for max_den, low in ((0, 0), (-3, 0), (1, 2)):
        with pytest.raises(ValueError):
            draw_unit(random.Random(0), max_den, low)


def test_no_stdlib_randint_left_in_package():
    offenders = [
        f"{path.name}:{n}"
        for path in sorted(SRC.glob("*.py"))
        for n, line in enumerate(path.read_text().splitlines(), start=1)
        if ".randint(" in line
    ]
    assert offenders == []
