"""Command-line surface.

Subcommands: ``eval``, ``check-sequent``, ``check-derivation``, ``fuzz``,
``solve-selfref``, ``repro``.  Exit codes: 0 pass, 1 expectation mismatch
(failed check, failed reproduction, unsound sequent), 2 usage or parse
error (a malformed valuation file included), input nested past the
recursion limit, or a standard output closed before the command finished
(exits quietly), 3 semantic error (ungrounded self-reference, open
formula).  The environment variable MQLOGIC_SEED overrides ``--seed``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from .calculus import (
    ADDITIVE,
    MULTIPLICATIVE,
    CheckError,
    check_derivation,
    derivation_from_json,
)
from .experiments import EXPERIMENT_IDS, run_experiment
from .fuzz import FuzzConfig, RULE_CHOICES, fuzz_rule
from .multiset import parse_sequent
from .piecewise import eval_parametric, fixed_points, piecewise_to_json
from .semantics import (
    SUM,
    SUP,
    SemanticsError,
    ValuationError,
    eval_antecedent,
    eval_formula,
    eval_succedent,
    load_valuation,
    value_to_json,
)
from .syntax import SyntaxError_, load_signature, parse_formula

EXIT_PASS = 0
EXIT_MISMATCH = 1
EXIT_USAGE = 2
EXIT_SEMANTIC = 3

_POLICY_FLAGS = {"mult": MULTIPLICATIVE, "add": ADDITIVE}


def _read(path: str) -> str:
    return Path(path).read_text()


def _load_valuation(args) -> tuple:
    """(valuation, lenient): the -v valuation, loaded over the --sig
    signature when one is given; without one, symbols are inferred from
    use (lenient parsing)."""
    lenient = args.sig is None
    sig = None if lenient else load_signature(_read(args.sig))
    return load_valuation(_read(args.valuation), sig), lenient


def _cmd_eval(args) -> int:
    valuation, lenient = _load_valuation(args)
    formula = parse_formula(args.formula, valuation.sig, lenient=lenient)
    value = eval_formula(valuation, formula)
    print(json.dumps(value_to_json(value)))
    return EXIT_PASS


def _cmd_check_sequent(args) -> int:
    valuation, lenient = _load_valuation(args)
    seq = parse_sequent(args.sequent, valuation.sig, lenient=lenient)
    ant = eval_antecedent(valuation, seq.ant)
    suc = eval_succedent(valuation, seq.suc)
    sound = ant <= suc
    print(
        json.dumps(
            {"sound": sound, "antecedent": str(ant), "succedent": str(suc)}
        )
    )
    return EXIT_PASS if sound else EXIT_MISMATCH


def _cmd_check_derivation(args) -> int:
    sig = load_signature(_read(args.sig))
    data = json.loads(_read(args.derivation))
    derivation = derivation_from_json(data, sig)
    report = check_derivation(
        derivation, sig, _POLICY_FLAGS[args.policy], args.depth
    )
    if args.json:
        print(report.dumps())
    else:
        for node in report.per_node:
            mark = "ok " if node.ok else "FAIL"
            print(f"{mark} {node.path:30s} {node.rule:9s} {node.sequent}")
            if node.message:
                print(f"     {node.message}")
        print(f"result: {'ok' if report.ok else 'failed'}")
    return EXIT_PASS if report.ok else EXIT_MISMATCH


def _cmd_fuzz(args) -> int:
    cfg = FuzzConfig(
        samples=args.samples,
        max_denominator=args.max_denominator,
        max_context_size=args.max_context_size,
        max_family_prefix=args.max_family_prefix,
        seed=args.seed,
        mode=args.mode,
        rule=args.rule,
    )
    outcome = fuzz_rule(cfg)
    print(json.dumps(outcome.to_json()))
    return EXIT_PASS


def _cmd_solve_selfref(args) -> int:
    valuation, lenient = _load_valuation(args)
    if valuation.unknown is None:
        print("the valuation must designate an unknown atom", file=sys.stderr)
        return EXIT_USAGE
    formula = parse_formula(args.formula, valuation.sig, lenient=lenient)
    profile = eval_parametric(valuation, formula)
    solutions = fixed_points(profile)
    out = piecewise_to_json(profile)
    out["fixedPoints"] = {
        "points": [str(p) for p in solutions.points],
        "intervals": [
            {
                "lo": str(iv.lo),
                "hi": str(iv.hi),
                "closedLo": iv.closed_lo,
                "closedHi": iv.closed_hi,
            }
            for iv in solutions.intervals
        ],
        "empty": solutions.is_empty,
    }
    print(json.dumps(out))
    return EXIT_PASS


def _cmd_repro(args) -> int:
    result = run_experiment(
        args.id, seed=args.seed, samples=args.samples, depth=args.depth
    )
    if args.json:
        print(json.dumps(result.to_json()))
    else:
        print(f"{result.id}: {result.status} ({result.runtime_ms} ms)")
        for key, value in result.evidence.items():
            print(f"  {key}: {json.dumps(value)}")
    return EXIT_PASS if result.passed else EXIT_MISMATCH


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mqlogic",
        description=(
            "Infinitary affine sequent calculus with continuum-valued "
            "semantics: evaluation, derivation checking, fuzzing, and "
            "canned experiments."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eval", help="evaluate a sentence under a valuation")
    p.add_argument("-v", "--valuation", required=True, help="valuation file")
    p.add_argument("-f", "--formula", required=True, help="sentence text")
    p.add_argument("--sig", help="signature file (default: inferred)")
    p.set_defaults(fn=_cmd_eval)

    p = sub.add_parser("check-sequent", help="evaluate sequent soundness")
    p.add_argument("-v", "--valuation", required=True)
    p.add_argument("-s", "--sequent", required=True, help="e.g. 'A, B |- C^w'")
    p.add_argument("--sig", help="signature file (default: inferred)")
    p.set_defaults(fn=_cmd_check_sequent)

    p = sub.add_parser("check-derivation", help="check a derivation tree")
    p.add_argument("-d", "--derivation", required=True, help="derivation JSON file")
    p.add_argument("--sig", required=True, help="signature file")
    p.add_argument("--policy", choices=sorted(_POLICY_FLAGS), default="mult")
    p.add_argument("--depth", type=int, default=8, help="family spot-check bound")
    p.add_argument("--json", action="store_true", help="emit the JSON report")
    p.set_defaults(fn=_cmd_check_derivation)

    p = sub.add_parser("fuzz", help="fuzz one rule for soundness violations")
    p.add_argument("--rule", choices=RULE_CHOICES, required=True)
    p.add_argument("--mode", choices=[SUP, SUM], default=SUM)
    p.add_argument("--samples", type=int, default=10_000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-denominator", type=int, default=60)
    p.add_argument("--max-context-size", type=int, default=4)
    p.add_argument("--max-family-prefix", type=int, default=6)
    p.set_defaults(fn=_cmd_fuzz)

    p = sub.add_parser(
        "solve-selfref",
        help="parametric profile and fixed points over the unknown atom",
    )
    p.add_argument("-v", "--valuation", required=True)
    p.add_argument("-f", "--formula", required=True)
    p.add_argument("--sig", help="signature file (default: inferred)")
    p.set_defaults(fn=_cmd_solve_selfref)

    p = sub.add_parser("repro", help="run a canned experiment")
    p.add_argument("id", choices=EXPERIMENT_IDS)
    p.add_argument("--json", action="store_true")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--samples", type=int, default=None)
    p.add_argument("--depth", type=int, default=None)
    p.set_defaults(fn=_cmd_repro)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    env_seed = os.environ.get("MQLOGIC_SEED")
    if env_seed is not None and hasattr(args, "seed"):
        try:
            args.seed = int(env_seed)
        except ValueError:
            print(f"bad MQLOGIC_SEED '{env_seed}'", file=sys.stderr)
            return EXIT_USAGE
    try:
        code = args.fn(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # stdout was closed early: exit quietly, and keep the flush at
        # shutdown from failing again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_USAGE
    except SyntaxError_ as e:
        print(f"parse error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except (json.JSONDecodeError, OSError, ValueError, CheckError, ValuationError) as e:
        print(f"input error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except SemanticsError as e:
        print(f"semantic error: {e}", file=sys.stderr)
        return EXIT_SEMANTIC
    except RecursionError:
        print(
            "input error: input nested too deeply for the recursion limit "
            f"({sys.getrecursionlimit()})",
            file=sys.stderr,
        )
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
