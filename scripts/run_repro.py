#!/usr/bin/env python3
"""Run every canned experiment and print a one-line summary per id.

Usage: python scripts/run_repro.py [--json] [--seed N]
Imports mqlogic from the checkout's src/, ahead of any installed copy.
Exits 1 if any experiment fails, and 2 without a message when standard
output is closed before the last line is written.
"""

import argparse
import json
import os
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from mqlogic.experiments import EXPERIMENT_IDS, run_experiment  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--json", action="store_true", help="emit JSON lines")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    failed = 0
    try:
        for exp_id in EXPERIMENT_IDS:
            result = run_experiment(exp_id, seed=args.seed)
            if args.json:
                line = json.dumps(result.to_json())
            else:
                line = f"{exp_id:16s} {result.status:4s} {result.runtime_ms:6d} ms"
            print(line, flush=True)
            if not result.passed:
                failed += 1
    except BrokenPipeError:
        # keep the flush at shutdown from failing again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 2
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
