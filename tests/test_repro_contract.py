"""The full-size evidence contract: ``scripts/run_repro.py --json`` at the
default seed, ``runtimeMs`` aside, byte for byte.

``tests/data/repro_seed0.jsonl`` holds one line per experiment: the JSON
line the script prints, with ``runtimeMs`` removed.  Regenerate it
deliberately with

    PYTHONPATH=src python tests/test_repro_contract.py
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from mqlogic.experiments import EXPERIMENT_IDS, run_experiment

PINNED = Path(__file__).parent / "data" / "repro_seed0.jsonl"
SCRIPT = Path(__file__).parent.parent / "scripts" / "run_repro.py"


def evidence_line(exp_id: str) -> str:
    data = run_experiment(exp_id, seed=0).to_json()
    del data["runtimeMs"]
    return json.dumps(data)


@pytest.mark.parametrize("exp_id", EXPERIMENT_IDS)
def test_full_size_evidence_is_unchanged(exp_id):
    pinned = PINNED.read_text().splitlines()
    assert evidence_line(exp_id) == pinned[EXPERIMENT_IDS.index(exp_id)]


def test_script_from_a_checkout_prints_the_pinned_lines(tmp_path):
    """The script finds the checkout's package with no PYTHONPATH set and
    from another working directory."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, str(SCRIPT), "--json"],
        capture_output=True, text=True, cwd=tmp_path, env=env, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    lines = []
    for line in proc.stdout.splitlines():
        data = json.loads(line)
        del data["runtimeMs"]
        lines.append(json.dumps(data))
    assert lines == PINNED.read_text().splitlines()


if __name__ == "__main__":
    PINNED.parent.mkdir(exist_ok=True)
    PINNED.write_text("".join(evidence_line(i) + "\n" for i in EXPERIMENT_IDS))
