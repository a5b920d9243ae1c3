"""Pinned fuzz outcomes at other denominator bounds.

``tests/data/fuzz_denominators_seed5.json`` holds ``fuzz_rule(...).to_json()``
for every rule and mode at ``max_denominator`` 1, 7 and 10**6 (200 samples,
seed 5).  The draws and verdicts may not depend on how the samplers do
their arithmetic.  Regenerate the file deliberately with

    PYTHONPATH=src python tests/test_fuzz_denominators.py
"""

import json
import time
from pathlib import Path

import pytest

from mqlogic.fuzz import RULE_CHOICES, FuzzConfig, fuzz_rule
from mqlogic.semantics import SUM, SUP

PINNED = Path(__file__).parent / "data" / "fuzz_denominators_seed5.json"
DENOMINATORS = (1, 7, 10**6)


def outcome(rule: str, mode: str, max_den: int) -> dict:
    cfg = FuzzConfig(
        samples=200, seed=5, mode=mode, rule=rule, max_denominator=max_den
    )
    return fuzz_rule(cfg).to_json()


@pytest.mark.parametrize("max_den", DENOMINATORS)
def test_fuzz_outcomes_match_pinned(max_den):
    pinned = json.loads(PINNED.read_text())[str(max_den)]
    t0 = time.monotonic()
    got = {f"{r}/{m}": outcome(r, m, max_den) for r in RULE_CHOICES for m in (SUM, SUP)}
    elapsed = time.monotonic() - t0
    assert got == pinned
    assert elapsed < 10.0


if __name__ == "__main__":
    PINNED.parent.mkdir(exist_ok=True)
    data = {
        str(d): {f"{r}/{m}": outcome(r, m, d) for r in RULE_CHOICES for m in (SUM, SUP)}
        for d in DENOMINATORS
    }
    PINNED.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
