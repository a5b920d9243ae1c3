"""The full-size evidence contract: ``scripts/run_repro.py --json`` at the
default seed, ``runtimeMs`` aside, byte for byte.

``tests/data/repro_seed0.jsonl`` holds one line per experiment: the JSON
line the script prints, with ``runtimeMs`` removed.  Regenerate it
deliberately with

    PYTHONPATH=src python tests/test_repro_contract.py
"""

import json
from pathlib import Path

import pytest

from mqlogic.experiments import EXPERIMENT_IDS, run_experiment

PINNED = Path(__file__).parent / "data" / "repro_seed0.jsonl"


def evidence_line(exp_id: str) -> str:
    data = run_experiment(exp_id, seed=0).to_json()
    del data["runtimeMs"]
    return json.dumps(data)


@pytest.mark.parametrize("exp_id", EXPERIMENT_IDS)
def test_full_size_evidence_is_unchanged(exp_id):
    pinned = PINNED.read_text().splitlines()
    assert evidence_line(exp_id) == pinned[EXPERIMENT_IDS.index(exp_id)]


if __name__ == "__main__":
    PINNED.parent.mkdir(exist_ok=True)
    PINNED.write_text("".join(evidence_line(i) + "\n" for i in EXPERIMENT_IDS))
