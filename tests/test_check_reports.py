"""Golden derivation-checker reports.

A refactor of the checker may not change any verdict or message.  The
builtin derivations (prop1 at k = 2, 4, 8 and prop3, under both policies)
are stored as full ``CheckReport.to_json()`` payloads; a seeded set of
generated and mutated derivations is stored as one SHA-256 per report.
``tests/data/check_reports.json`` holds the expected output; regenerate it
deliberately with

    PYTHONPATH=src python tests/test_check_reports.py
"""

import hashlib
import json
import random
from pathlib import Path
from typing import Iterator

from mqlogic.calculus import (
    ADDITIVE,
    MULTIPLICATIVE,
    POLICIES,
    RULE_IDS,
    Derivation,
    SlotRef,
    UniformFamily,
    check_derivation,
)
from mqlogic.derivations import prop1_derivation, prop3_derivation
from mqlogic.fuzz import generate_derivation, toy_signature
from mqlogic.multiset import Sequent
from mqlogic.syntax import Signature

GOLDEN = Path(__file__).parent / "data" / "check_reports.json"
PROP1_KS = (2, 4, 8)
GENERATED = 600
MUTATED_BUILTINS = 200
MUTATIONS = ("none", "rule", "principal", "premises", "sides")


def builtin_reports() -> dict:
    builtins = {f"prop1/k{k}": (prop1_derivation(k), k) for k in PROP1_KS}
    builtins["prop3"] = (prop3_derivation(), 8)
    return {
        f"{name}/{policy}": check_derivation(b.derivation, b.sig, policy, depth).to_json()
        for name, (b, depth) in builtins.items()
        for policy in POLICIES
    }


def _node_count(d: Derivation) -> int:
    n = 1 + sum(_node_count(p) for p in d.premises if isinstance(p, Derivation))
    if d.family is not None:
        n += _node_count(d.family.template)
        n += sum(_node_count(e) for e in d.family.explicit)
    return n


def _mutate_node(d: Derivation, kind: str, rng: random.Random) -> Derivation:
    if kind == "rule":
        rule = rng.choice([r for r in RULE_IDS if r != d.rule])
        return Derivation(d.conclusion, rule, d.premises, d.family, d.principal)
    if kind == "principal":
        return Derivation(d.conclusion, d.rule, d.premises, d.family, None)
    if kind == "premises":
        premises = tuple(reversed(d.premises))
        return Derivation(d.conclusion, d.rule, premises, d.family, d.principal)
    if kind == "sides":
        swapped = Sequent(d.conclusion.suc, d.conclusion.ant)
        return Derivation(swapped, d.rule, d.premises, d.family, d.principal)
    return d


def _mutate_at(d: Derivation, index: int, kind: str, rng: random.Random) -> Derivation:
    """The derivation with preorder node ``index`` (premises, then the
    family template, then its explicit slots) mutated by ``kind``."""

    def walk(node):
        nonlocal index
        if isinstance(node, SlotRef):
            return node
        if index == 0:
            index = -1
            return _mutate_node(node, kind, rng)
        index -= 1
        premises = tuple(walk(p) for p in node.premises)
        family = node.family
        if family is not None:
            template = walk(family.template)
            explicit = tuple(walk(e) for e in family.explicit)
            family = UniformFamily(family.var, family.start, template, explicit)
        return Derivation(node.conclusion, node.rule, premises, family, node.principal)

    return walk(d)


def _report_digest(d: Derivation, sig, policy: str, depth: int) -> str:
    try:
        payload = check_derivation(d, sig, policy, depth).to_json()
    except Exception as e:  # an escaping error is pinned too
        payload = {"error": type(e).__name__, "message": str(e)}
    text = json.dumps(payload, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def drawn_derivations() -> Iterator[tuple[Derivation, Signature, str]]:
    """The seeded generated and mutated derivations, each with its
    signature and the policy its report is digested under."""
    rng = random.Random(20)
    sig = toy_signature()
    for i in range(GENERATED):
        d = generate_derivation(rng, sig, 1 + i % 5)
        kind = MUTATIONS[i % len(MUTATIONS)]
        d = _mutate_at(d, rng.randrange(_node_count(d)), kind, rng)
        yield d, sig, POLICIES[i % 2]
    builtins = (prop1_derivation(2), prop3_derivation())
    for i in range(MUTATED_BUILTINS):
        b = builtins[i % 2]
        kind = MUTATIONS[1 + i % (len(MUTATIONS) - 1)]
        d = _mutate_at(b.derivation, rng.randrange(_node_count(b.derivation)), kind, rng)
        yield d, b.sig, (MULTIPLICATIVE, ADDITIVE)[(i // 2) % 2]


def mutated_digests() -> list[str]:
    return [_report_digest(d, sig, policy, 4) for d, sig, policy in drawn_derivations()]


def _golden() -> dict:
    return json.loads(GOLDEN.read_text())


def test_builtin_reports_match_golden():
    assert builtin_reports() == _golden()["builtins"]


def test_mutated_report_digests_match_golden():
    got = mutated_digests()
    want = _golden()["mutatedDigests"]
    assert len(got) == len(want) >= 500
    mismatched = [i for i, (g, w) in enumerate(zip(got, want)) if g != w]
    assert not mismatched, f"reports changed at indices {mismatched[:20]}"


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    golden = {"builtins": builtin_reports(), "mutatedDigests": mutated_digests()}
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
