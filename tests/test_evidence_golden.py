"""Golden evidence: the canned experiments and the rule fuzzers at seed 0.

The evidence is a behavioural contract: a refactor or a speed-up may not
change it (``runtimeMs`` aside).  ``tests/data/evidence_seed0.json`` holds
the expected output; regenerate it deliberately with

    PYTHONPATH=src python tests/test_evidence_golden.py
"""

import json
from pathlib import Path

import pytest

from mqlogic.experiments import EXPERIMENT_IDS, run_experiment
from mqlogic.fuzz import RULE_CHOICES, FuzzConfig, fuzz_rule
from mqlogic.semantics import SUM, SUP

GOLDEN = Path(__file__).parent / "data" / "evidence_seed0.json"
SAMPLES = {"thm1": 2000, "lemma1": 400, "thm2-fuzz": 300}
FUZZ_SAMPLES = 300


def experiment_evidence(exp_id: str) -> dict:
    data = run_experiment(exp_id, seed=0, samples=SAMPLES.get(exp_id)).to_json()
    del data["runtimeMs"]
    return data


def fuzz_evidence(rule: str, mode: str) -> dict:
    cfg = FuzzConfig(samples=FUZZ_SAMPLES, seed=0, mode=mode, rule=rule)
    return fuzz_rule(cfg).to_json()


def _golden() -> dict:
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("exp_id", EXPERIMENT_IDS)
def test_experiment_evidence_matches_golden(exp_id):
    assert experiment_evidence(exp_id) == _golden()["experiments"][exp_id]


@pytest.mark.parametrize("mode", [SUM, SUP])
@pytest.mark.parametrize("rule", RULE_CHOICES)
def test_fuzz_outcome_matches_golden(rule, mode):
    assert fuzz_evidence(rule, mode) == _golden()["fuzz"][f"{rule}/{mode}"]


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    golden = {
        "experiments": {i: experiment_evidence(i) for i in EXPERIMENT_IDS},
        "fuzz": {
            f"{r}/{m}": fuzz_evidence(r, m) for r in RULE_CHOICES for m in (SUM, SUP)
        },
    }
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
