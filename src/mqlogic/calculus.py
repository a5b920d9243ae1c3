"""Rule-instance validation and derivation checking for the infinitary
affine sequent calculus, optionally extended with transparent-truth rules.

Sequents inside derivations may carry, besides a finite omega-multiset
part, omega-indexed formula families (one formula per natural-number
slot, given by a template over an index variable).  Omega-premise rules
take uniform premise families: explicit derivations for the first slots
plus a single index-parameterised template, which may reference earlier
slots so that premise chains of growing depth stay representable.

Family verification is bounded: templates are checked for structural
uniformity and fully instantiated at finitely many slots, and instance
coverage of the closed-term enumeration is spot-checked at finitely many
terms.  Reports flag the bound explicitly.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Callable, Iterator, Optional, Sequence, Union

from .multiset import (
    OMEGA,
    FormulaFamily,
    Multiplicity,
    Sequent,
    SequentSide,
    json_value,
)
from .syntax import (
    App,
    Atom,
    Cond,
    Exists,
    Formula,
    Neg,
    Numeral,
    Signature,
    SignatureError,
    StepBudgetError,
    Term,
    Var,
    _subst,
    enumerate_closed_terms,
    formulas_equal,
    free_vars,
    normalize_term,
    parse_formula,
    render_formula,
    render_term,
    substitute,
    term_vars,
)

RULE_IDS = (
    "Init",
    "NegL",
    "NegR",
    "CondL",
    "CondR",
    "ExistsLw",
    "ExistsRw",
    "TL",
    "TR",
)

MULTIPLICATIVE = "multiplicative"
ADDITIVE = "additive"
POLICIES = (MULTIPLICATIVE, ADDITIVE)


class CheckError(Exception):
    """Raised internally for malformed derivation structure."""


# ---------------------------------------------------------------------------
# Derivations


@dataclass(frozen=True)
class SlotRef:
    """Premise placeholder inside a family template: the derivation at
    slot (current slot - offset) of the enclosing family.  The offset is
    at least 1: a slot can refer only to earlier slots."""

    offset: int

    def __post_init__(self) -> None:
        if self.offset < 1:
            raise CheckError(f"slot reference offset must be >= 1, got {self.offset}")


@dataclass(frozen=True)
class Derivation:
    conclusion: Sequent
    rule: str
    premises: tuple[Union["Derivation", SlotRef], ...] = ()
    family: Optional["UniformFamily"] = None
    principal: Optional[Formula] = None

    def __post_init__(self) -> None:
        if self.rule not in RULE_IDS:
            raise CheckError(f"unknown rule id '{self.rule}'")


@dataclass(frozen=True)
class UniformFamily:
    """Omega-indexed premise family: explicit derivations for slots
    0..start-1, and a template derivation for every slot >= start."""

    var: str
    start: int
    template: Derivation
    explicit: tuple[Derivation, ...] = ()

    def __post_init__(self) -> None:
        if not isinstance(self.var, str):
            raise CheckError(f"family index must be a variable name, got {self.var!r}")
        if self.start != len(self.explicit):
            raise CheckError("start index must equal the explicit-slot count")


def _instantiate_side(side: SequentSide, var: str, rep: Term, sig: Signature) -> SequentSide:
    entries = [(_subst(f, {var: rep}), m) for f, m in side.items()]
    fams = [
        fam if fam.var == var  # shadowed
        else FormulaFamily(fam.var, fam.start, _subst(fam.template, {var: rep}))
        for fam in side.families
    ]
    return SequentSide(sig, entries, fams)


def instantiate_sequent(s: Sequent, var: str, rep: Term, sig: Signature) -> Sequent:
    return Sequent(
        _instantiate_side(s.ant, var, rep, sig),
        _instantiate_side(s.suc, var, rep, sig),
    )


def instantiate_derivation(d: Derivation, var: str, rep: Term, sig: Signature) -> Derivation:
    prems = tuple(
        p if isinstance(p, SlotRef) else instantiate_derivation(p, var, rep, sig)
        for p in d.premises
    )
    fam = d.family
    if fam is not None and fam.var != var:
        fam = UniformFamily(
            fam.var,
            fam.start,
            instantiate_derivation(fam.template, var, rep, sig),
            tuple(instantiate_derivation(e, var, rep, sig) for e in fam.explicit),
        )
    principal = None if d.principal is None else _subst(d.principal, {var: rep})
    return Derivation(
        instantiate_sequent(d.conclusion, var, rep, sig), d.rule, prems, fam, principal
    )


def derivation_nodes(d: Derivation, var: Optional[str] = None) -> Iterator[Derivation]:
    """Every node of ``d`` in preorder: the node, its premises, then its
    family's template and explicit slots.  A family binding ``var`` is
    not entered."""
    stack = [d]
    while stack:
        node = stack.pop()
        yield node
        fam = node.family
        if fam is not None and fam.var != var:
            stack.extend(reversed(fam.explicit))
            stack.append(fam.template)
        stack.extend(p for p in reversed(node.premises) if isinstance(p, Derivation))


def _has_slot_refs(d: Derivation) -> bool:
    return any(
        isinstance(p, SlotRef) for node in derivation_nodes(d) for p in node.premises
    )


def _derivation_uses_var(d: Derivation, var: str) -> bool:
    for node in derivation_nodes(d, var):
        if node.principal is not None and var in free_vars(node.principal):
            return True
        for side in (node.conclusion.ant, node.conclusion.suc):
            if any(var in free_vars(f) for f in side.support()):
                return True
            if any(f.var != var and var in free_vars(f.template) for f in side.families):
                return True
    return False


def _rebinds(f: Formula, var: str) -> bool:
    if isinstance(f, Exists):
        return f.var == var or _rebinds(f.body, var)
    if isinstance(f, Neg):
        return _rebinds(f.body, var)
    if isinstance(f, Cond):
        return _rebinds(f.lhs, var) or _rebinds(f.rhs, var)
    return False


def _check_template_uniformity(d: Derivation, var: str) -> None:
    """The index variable may occur only inside terms: it must never be
    rebound by a quantifier in any template formula."""
    for node in derivation_nodes(d):
        for side in (node.conclusion.ant, node.conclusion.suc):
            if any(_rebinds(f, var) for f in side.support()):
                raise CheckError(
                    f"family index '{var}' rebound by a quantifier in the template"
                )


# ---------------------------------------------------------------------------
# Sequent-level rule checking


@dataclass(frozen=True)
class Verdict:
    ok: bool
    message: str = ""


@dataclass(frozen=True)
class SequentFamily:
    """Sequent-level summary of a premise family (for check_instance)."""

    var: str
    start: int
    template: Sequent
    explicit: tuple[Sequent, ...] = ()


def _named_body(sig: Signature, atom: Atom) -> Formula:
    named = sig.named_formula(atom.args[0])
    if named is None:
        raise CheckError(
            f"term {render_term(atom.args[0])} does not normalize to a "
            "canonical name"
        )
    return named


# The one-premise rules, one row each: the rule, whether its principal is in
# the succedent, the principal's shape (Atom for the truth rules, which need
# a naming scheme), the verdict when no formula has that shape, and the
# components the premise adds to its antecedent and to its succedent.
_ONE_PREMISE = {
    "negl": ("NegL", False, Neg, "no negated formula in the antecedent",
             lambda sig, f: (None, f.body)),
    "negr": ("NegR", True, Neg, "no negated formula in the succedent",
             lambda sig, f: (f.body, None)),
    "condr": ("CondR", True, Cond, "no conditional in the succedent",
              lambda sig, f: (f.lhs, f.rhs)),
    "tl": ("TL", False, Atom, "no truth atom in the antecedent",
           lambda sig, f: (_named_body(sig, f), None)),
    "tr": ("TR", True, Atom, "no truth atom in the succedent",
           lambda sig, f: (None, _named_body(sig, f))),
}


class _RuleChecker:
    def __init__(self, sig: Signature, policy: str, depth: int) -> None:
        if policy not in POLICIES:
            raise CheckError(f"unknown policy '{policy}'")
        self.sig = sig
        self.policy = policy
        self.depth = max(1, depth)
        self._enum_cache: Optional[list[Term]] = None

    # -- helpers -----------------------------------------------------------

    def _enum_terms(self) -> list[Term]:
        if self._enum_cache is None:
            try:
                self._enum_cache = enumerate_closed_terms(self.sig, self.depth)
            except SignatureError:
                self._enum_cache = []
        return self._enum_cache

    def _rep_term(self, slot: int) -> Term:
        if self.sig.has_arithmetic:
            return Numeral(slot)
        terms = enumerate_closed_terms(self.sig, slot + 1)
        if len(terms) <= slot:
            raise CheckError(
                f"family slot {slot} exceeds the closed terms of the signature"
            )
        return terms[slot]

    def _slot_for_term(self, t: Term) -> int:
        """Which family slot covers the instance at closed term t."""
        if not self.sig.has_arithmetic:
            terms = self._enum_terms()
            for i, u in enumerate(terms):
                if normalize_term(u, self.sig) == normalize_term(t, self.sig):
                    return i
            raise CheckError(f"term {render_term(t)} not in the enumeration prefix")
        nf = normalize_term(t, self.sig)
        if not isinstance(nf, Numeral):
            raise CheckError(
                f"closed term {render_term(t)} does not normalize to numeral "
                f"form (normal form {render_term(nf)}); the coding equations "
                "must reduce every closed term to a numeral"
            )
        return nf.value

    @staticmethod
    def _without_principal(side: SequentSide, f: Formula) -> SequentSide:
        """The conclusion side less one copy of its principal formula; a
        principal the conclusion does not contain fails the node."""
        try:
            return side.with_removed_one(f)
        except ValueError:
            raise CheckError(
                f"principal formula {render_formula(f)} does not occur on its "
                "side of the conclusion"
            ) from None

    @staticmethod
    def _candidates(
        side: SequentSide, principal: Optional[Formula], want: type
    ) -> list[Formula]:
        """The principal, or without one every formula on ``side``, kept
        when it has the shape ``want`` (``object`` keeps every formula).
        An atomic principal is a truth atom ``T(t)``."""
        cands = side.support() if principal is None else (principal,)
        if want is Atom:
            return [f for f in cands if isinstance(f, Atom) and f.pred == "T"
                    and len(f.args) == 1]
        return [f for f in cands if isinstance(f, want)]

    # -- rule dispatch -----------------------------------------------------

    def check(
        self,
        rule: str,
        premises: Sequence[Sequent],
        conclusion: Sequent,
        principal: Optional[Formula] = None,
        family: Optional[SequentFamily] = None,
    ) -> Verdict:
        try:
            name = rule.lower()
            row = _ONE_PREMISE.get(name)
            if row is None:
                handler = getattr(self, "_rule_" + name)
        except AttributeError:
            return Verdict(False, f"unknown rule '{rule}'")
        try:
            if row is not None:
                return self._one_premise(row, list(premises), conclusion, principal)
            return handler(list(premises), conclusion, principal, family)
        except CheckError as e:
            return Verdict(False, str(e))
        except StepBudgetError as e:
            return Verdict(False, f"rewriting diverged: {e}")

    def _need(self, premises: list[Sequent], n: int, rule: str) -> None:
        if len(premises) != n:
            raise CheckError(f"{rule} takes {n} premise(s), got {len(premises)}")

    # Init ------------------------------------------------------------------

    def _rule_init(self, premises, conclusion, principal, family) -> Verdict:
        self._need(premises, 0, "Init")
        for f in self._candidates(conclusion.ant, principal, object):
            if (
                conclusion.ant.multiplicity_of(f) != 0
                and conclusion.suc.multiplicity_of(f) != 0
            ):
                return Verdict(True)
        return Verdict(False, "no formula occurs on both sides of the sequent")

    # one-premise rules: NegL, NegR, CondR, TL, TR -------------------------

    def _one_premise(self, row, premises, conclusion, principal) -> Verdict:
        rule, on_suc, want, missing, components = row
        self._need(premises, 1, rule)
        if want is Atom and not self.sig.naming_scheme:
            return Verdict(False, f"{rule} requires a naming scheme in the signature")
        last = Verdict(False, missing)
        side = conclusion.suc if on_suc else conclusion.ant
        for f in self._candidates(side, principal, want):
            add_ant, add_suc = components(self.sig, f)
            ant = conclusion.ant if on_suc else self._without_principal(conclusion.ant, f)
            if add_ant is not None:
                ant = ant.with_added(add_ant)
            suc = self._without_principal(conclusion.suc, f) if on_suc else conclusion.suc
            if add_suc is not None:
                suc = suc.with_added(add_suc)
            expected = Sequent(ant, suc)
            if premises[0] == expected:
                return Verdict(True)
            last = Verdict(
                False,
                f"{rule} shape: expected premise {expected.render()!r}, "
                f"got {premises[0].render()!r}",
            )
        return last

    def _rule_condl(self, premises, conclusion, principal, family) -> Verdict:
        self._need(premises, 2, "CondL")
        p0, p1 = premises
        last = Verdict(False, "no conditional in the antecedent")
        for f in self._candidates(conclusion.ant, principal, Cond):
            if p0.suc.multiplicity_of(f.lhs) == 0:
                last = Verdict(
                    False,
                    f"first premise lacks {render_formula(f.lhs)} in the succedent",
                )
                continue
            if p1.ant.multiplicity_of(f.rhs) == 0:
                last = Verdict(
                    False,
                    f"second premise lacks {render_formula(f.rhs)} in the antecedent",
                )
                continue
            expected = Sequent(
                p0.ant.union(p1.ant.with_removed_one(f.rhs)).with_added(f),
                p0.suc.with_removed_one(f.lhs).union(p1.suc),
            )
            if expected == conclusion:
                return Verdict(True)
            last = Verdict(
                False,
                f"CondL contexts: expected conclusion {expected.render()!r}",
            )
        return last

    # omega quantifier rules ---------------------------------------------------

    def _match_instance(self, body: Formula, var: str, inst: Formula) -> Optional[Term]:
        """Structural witness extraction: a term w with body[w/var] == inst
        (comparing closed parts in normal form).  None when the shapes differ."""
        witnesses: list[Term] = []

        def terms_match(p: Term, s: Term) -> bool:
            if isinstance(p, Var) and p.name == var:
                witnesses.append(s)
                return True
            if isinstance(p, App) and isinstance(s, App) and p.fn == s.fn:
                return len(p.args) == len(s.args) and all(
                    terms_match(a, b) for a, b in zip(p.args, s.args)
                )
            if var in term_vars(p):
                return False
            return normalize_term(p, self.sig) == normalize_term(s, self.sig)

        def walk(p: Formula, s: Formula) -> bool:
            if isinstance(p, Atom) and isinstance(s, Atom):
                return (
                    p.pred == s.pred
                    and len(p.args) == len(s.args)
                    and all(terms_match(a, b) for a, b in zip(p.args, s.args))
                )
            if isinstance(p, Neg) and isinstance(s, Neg):
                return walk(p.body, s.body)
            if isinstance(p, Cond) and isinstance(s, Cond):
                return walk(p.lhs, s.lhs) and walk(p.rhs, s.rhs)
            if isinstance(p, Exists) and isinstance(s, Exists):
                if p.var != s.var or p.var == var:
                    return False
                return walk(p.body, s.body)
            return False

        if not walk(body, inst):
            return None
        if not witnesses:
            return None

        def canon(w: Term) -> Term:
            return normalize_term(w, self.sig) if not term_vars(w) else w

        ref = canon(witnesses[0])
        for w in witnesses[1:]:
            if canon(w) != ref:
                return None
        return witnesses[0]

    def _instance_witness(self, body: Formula, var: str, inst: Formula) -> Optional[Term]:
        w = self._match_instance(body, var, inst)
        if w is not None and not term_vars(w):
            return w
        # fallback: scan enumeration prefix and small numerals
        candidates: list[Term] = list(self._enum_terms())
        if self.sig.has_arithmetic:
            candidates.extend(Numeral(i) for i in range(self.depth + 8))
        for t in candidates:
            if formulas_equal(substitute(body, var, t), inst, self.sig):
                return t
        return None

    def _covering_slot_in_family(
        self, body: Formula, var: str, fam: FormulaFamily, required: Formula, hint: int
    ) -> Optional[int]:
        bound = max(hint + 1, 0) + self.depth + 8
        for n in range(fam.start, bound):
            inst = fam.at(self._rep_term(n))
            if formulas_equal(inst, required, self.sig):
                return n
        return None

    def _validate_instance_part(
        self, exists_f: Exists, part: SequentSide
    ) -> Verdict:
        """The residual premise material must be exactly an omega instance
        family for the quantified formula: every entry an instance, and the
        closed-term enumeration covered (spot-checked)."""
        var, body = exists_f.var, exists_f.body
        for f, _ in part.items():
            if self._instance_witness(body, var, f) is None:
                return Verdict(
                    False,
                    f"{render_formula(f)} is not an instance of "
                    f"{render_formula(exists_f)}",
                )
        for fam in part.families:
            if self._match_instance(body, var, fam.template) is None:
                return Verdict(
                    False,
                    f"family {render_formula(fam.template)} is not an instance "
                    f"family of {render_formula(exists_f)}",
                )
        if part.is_empty():
            return Verdict(False, "the instance family is missing entirely")
        # coverage spot check over the enumeration prefix
        for t in self._enum_terms():
            required = substitute(body, var, t)
            if part.multiplicity_of(required) != 0:
                continue
            hint = self._slot_for_term(t)
            covered = any(
                self._covering_slot_in_family(body, var, fam, required, hint)
                is not None
                for fam in part.families
            )
            if not covered:
                return Verdict(
                    False,
                    f"instance at closed term {render_term(t)} is not covered "
                    "by the premise family",
                )
        return Verdict(True)

    def _rule_existsrw(self, premises, conclusion, principal, family) -> Verdict:
        self._need(premises, 1, "ExistsRw")
        premise = premises[0]
        last = Verdict(False, "no existential formula in the succedent")
        for f in self._candidates(conclusion.suc, principal, Exists):
            if premise.ant != conclusion.ant:
                last = Verdict(False, "ExistsRw must not change the antecedent")
                continue
            delta = self._without_principal(conclusion.suc, f)
            try:
                residual = premise.suc.minus(delta)
            except ValueError as e:
                last = Verdict(False, f"premise lacks the conclusion context: {e}")
                continue
            vacuous = f.var not in free_vars(f.body)
            if vacuous:
                if residual.families:
                    last = Verdict(
                        False, "vacuous quantification takes plain copies, not families"
                    )
                    continue
                want: Multiplicity = 1 if self.policy == ADDITIVE else OMEGA
                if residual == SequentSide(self.sig, [(f.body, want)]):
                    return Verdict(True)
                got = residual.multiplicity_of(f.body)
                last = Verdict(
                    False,
                    f"vacuous ExistsRw under the {self.policy} policy needs "
                    f"{'one copy' if want == 1 else 'omega copies'} of "
                    f"{render_formula(f.body)}; found multiplicity "
                    f"{'w' if got is OMEGA else got}",
                )
                continue
            last = self._validate_instance_part(f, residual)
            if last.ok:
                return last
        return last

    def _rule_existslw(self, premises, conclusion, principal, family) -> Verdict:
        if family is None:
            return self._exists_left_single(premises, conclusion, principal)
        self._need(premises, 0, "ExistsLw (family form)")
        last = Verdict(False, "no existential formula in the antecedent")
        for f in self._candidates(conclusion.ant, principal, Exists):
            last = self._exists_left_family_one(conclusion, f, family)
            if last.ok:
                return last
        return last

    def _exists_left_single(self, premises, conclusion, principal) -> Verdict:
        self._need(premises, 1, "ExistsLw (single-premise form)")
        premise = premises[0]
        last = Verdict(False, "no existential formula in the antecedent")
        for f in self._candidates(conclusion.ant, principal, Exists):
            if f.var in free_vars(f.body):
                last = Verdict(
                    False,
                    "a single premise can only witness a vacuous quantifier",
                )
                continue
            if self.policy != ADDITIVE:
                last = Verdict(
                    False,
                    "the multiplicative policy requires the omega-premise family",
                )
                continue
            if premise.ant.multiplicity_of(f.body) == 0:
                last = Verdict(
                    False,
                    f"premise lacks the instance {render_formula(f.body)}",
                )
                continue
            expected = Sequent(
                premise.ant.with_removed_one(f.body).with_added(f), premise.suc
            )
            if expected == conclusion:
                return Verdict(True)
            last = Verdict(
                False,
                f"ExistsLw shape: expected conclusion {expected.render()!r}",
            )
        return last

    def _index_tail(
        self, part: SequentSide, fam: SequentFamily
    ) -> Optional[SequentSide]:
        """What one side of the template contributes to the conclusion over
        the slots from ``fam.start`` on: a family per copy of an
        index-dependent formula, omega copies of any other.  None when an
        index-dependent formula has omega multiplicity."""
        fams: list[FormulaFamily] = []
        tail = []
        for g, m in part.items():
            if fam.var not in free_vars(g):
                tail.append((g, OMEGA))
            elif m is OMEGA:
                return None
            else:
                fams.extend([FormulaFamily(fam.var, fam.start, g)] * m)
        return SequentSide(self.sig, tail, fams)

    def _exists_left_family_one(
        self, conclusion: Sequent, f: Exists, fam: SequentFamily
    ) -> Verdict:
        var, body = f.var, f.body
        vacuous = var not in free_vars(body)
        tpl = fam.template
        if tpl.ant.families or tpl.suc.families:
            return Verdict(False, "nested families in a premise template")
        p_tpl = body if vacuous else _subst(body, {var: Var(fam.var)})
        if tpl.ant.multiplicity_of(p_tpl) == 0:
            return Verdict(
                False,
                f"template premise lacks the instance {render_formula(p_tpl)}",
            )
        gamma_tpl = tpl.ant.with_removed_one(p_tpl)
        expected_ant = SequentSide(self.sig, [(f, 1)])
        expected_suc = SequentSide(self.sig)
        for slot, ex in enumerate(fam.explicit):
            if ex.ant.families or ex.suc.families:
                return Verdict(False, "explicit premise slots must be family-free")
            p_slot = body if vacuous else substitute(body, var, self._rep_term(slot))
            if ex.ant.multiplicity_of(p_slot) == 0:
                return Verdict(
                    False,
                    f"premise slot {slot} lacks the instance "
                    f"{render_formula(p_slot)}",
                )
            expected_ant = expected_ant.union(ex.ant.with_removed_one(p_slot))
            expected_suc = expected_suc.union(ex.suc)
        tail_ant = self._index_tail(gamma_tpl, fam)
        tail_suc = None if tail_ant is None else self._index_tail(tpl.suc, fam)
        if tail_suc is None:
            return Verdict(False, "index-dependent context needs finite multiplicity")
        expected = Sequent(expected_ant.union(tail_ant), expected_suc.union(tail_suc))
        if expected != conclusion:
            return Verdict(
                False,
                f"ExistsLw contexts: expected conclusion {expected.render()!r}, "
                f"got {conclusion.render()!r}",
            )
        if not vacuous:
            # coverage: every spot-checked closed term maps to a slot whose
            # principal is its instance after normalisation
            for t in self._enum_terms():
                required = substitute(body, var, t)
                try:
                    slot = self._slot_for_term(t)
                except CheckError as e:
                    return Verdict(False, str(e))
                p_slot = substitute(body, var, self._rep_term(slot))
                if not formulas_equal(required, p_slot, self.sig):
                    return Verdict(
                        False,
                        f"instance at {render_term(t)} does not match premise "
                        f"slot {slot}",
                    )
        return Verdict(True)


def check_instance(
    sig: Signature,
    rule: str,
    premises: Sequence[Sequent],
    conclusion: Sequent,
    policy: str = MULTIPLICATIVE,
    principal: Optional[Formula] = None,
    family: Optional[SequentFamily] = None,
    depth: int = 8,
) -> Verdict:
    """Check that ``conclusion`` follows from ``premises`` by the named rule.

    Formulas are matched up to normalisation of closed terms, so coding
    steps are absorbed.  Omega-premise families are supplied as sequent
    summaries; their verification is bounded by ``depth``.
    """
    checker = _RuleChecker(sig, policy, depth)
    return checker.check(rule, premises, conclusion, principal, family)


# ---------------------------------------------------------------------------
# Derivation checking


@dataclass
class NodeReport:
    path: str
    rule: str
    ok: bool
    message: str
    sequent: str


@dataclass
class CheckReport:
    ok: bool
    policy: str
    instantiation_depth: int
    per_node: list[NodeReport] = field(default_factory=list)
    family_spot_checks: list[tuple[str, int, bool]] = field(default_factory=list)

    def to_json(self) -> dict:
        return {
            "ok": self.ok,
            "policy": self.policy,
            "instantiationDepth": self.instantiation_depth,
            "perNode": [
                {
                    "path": n.path,
                    "rule": n.rule,
                    "ok": n.ok,
                    "message": n.message,
                    "sequent": n.sequent,
                }
                for n in self.per_node
            ],
            "familySpotChecks": [
                {"node": p, "slot": s, "ok": v}
                for p, s, v in self.family_spot_checks
            ],
            "note": (
                "omega-premise families are verified by structural uniformity "
                "plus full instantiation at finitely many slots"
            ),
        }

    def dumps(self) -> str:
        return json.dumps(self.to_json(), sort_keys=False)

    def checked_sequents(self) -> list[str]:
        return [n.sequent for n in self.per_node]


class DerivationChecker:
    def __init__(
        self, sig: Signature, policy: str = MULTIPLICATIVE, depth: int = 8
    ) -> None:
        if depth < 1:
            raise CheckError("depth must be >= 1")
        self.sig = sig
        self.policy = policy
        self.depth = depth
        self.rules = _RuleChecker(sig, policy, depth)

    def check(self, d: Derivation) -> CheckReport:
        report = CheckReport(True, self.policy, self.depth)
        report.ok = self._node(d, "root", None, report)
        return report

    # resolver: maps a SlotRef offset to the conclusion of an earlier slot
    def _node(
        self,
        d: Derivation,
        path: str,
        resolver: Optional[Callable[[int], Sequent]],
        report: CheckReport,
    ) -> bool:
        try:
            premise_seqs = []
            for p in d.premises:
                if isinstance(p, SlotRef):
                    if resolver is None:
                        raise CheckError("slot reference outside a family template")
                    premise_seqs.append(resolver(p.offset))
                else:
                    premise_seqs.append(p.conclusion)
            fam_summary = None
            if d.family is not None:
                fam = d.family
                _check_template_uniformity(fam.template, fam.var)
                fam_summary = SequentFamily(
                    fam.var,
                    fam.start,
                    fam.template.conclusion,
                    tuple(e.conclusion for e in fam.explicit),
                )
            verdict = self.rules.check(
                d.rule, premise_seqs, d.conclusion, d.principal, fam_summary
            )
        except CheckError as e:
            verdict = Verdict(False, str(e))
        report.per_node.append(
            NodeReport(path, d.rule, verdict.ok, verdict.message, d.conclusion.render())
        )
        if not verdict.ok:
            return False
        for i, p in enumerate(d.premises):
            if isinstance(p, Derivation):
                if not self._node(p, f"{path}.{i}", resolver, report):
                    return False
        if d.family is not None:
            return self._family_slots(d.family, path, report)
        return True

    def _family_slots(
        self, fam: UniformFamily, path: str, report: CheckReport
    ) -> bool:
        uses_var = _derivation_uses_var(fam.template, fam.var)
        has_refs = _has_slot_refs(fam.template)

        def slot_conclusion(n: int) -> Sequent:
            if n < 0:
                raise CheckError("slot reference before the first slot")
            if n < fam.start:
                return fam.explicit[n].conclusion
            if not uses_var:
                return fam.template.conclusion
            return instantiate_sequent(
                fam.template.conclusion, fam.var, self.rules._rep_term(n), self.sig
            )

        for slot, ex in enumerate(fam.explicit):
            ok = self._node(ex, f"{path}.fam[{slot}]", None, report)
            report.family_spot_checks.append((path, slot, ok))
            if not ok:
                return False
        if not uses_var and not has_refs:
            # all template slots are the same derivation: one check covers them
            ok = self._node(fam.template, f"{path}.fam[{fam.start}..]", None, report)
            report.family_spot_checks.append((path, fam.start, ok))
            return ok
        for slot in range(fam.start, fam.start + self.depth):
            inst = fam.template
            if uses_var:
                inst = instantiate_derivation(
                    fam.template, fam.var, self.rules._rep_term(slot), self.sig
                )

            def resolver(offset: int, _slot: int = slot) -> Sequent:
                return slot_conclusion(_slot - offset)

            ok = self._node(inst, f"{path}.fam[{slot}]", resolver, report)
            report.family_spot_checks.append((path, slot, ok))
            if not ok:
                return False
        return True


def check_derivation(
    d: Derivation,
    sig: Signature,
    policy: str = MULTIPLICATIVE,
    depth: int = 8,
) -> CheckReport:
    """Recursively validate every node of a derivation.

    Families are verified at ``depth`` slots beyond their explicit prefix
    and the enumeration coverage of the omega rules is spot-checked at the
    first ``depth`` closed terms; the report records the bound.
    """
    return DerivationChecker(sig, policy, depth).check(d)


# ---------------------------------------------------------------------------
# JSON serialisation of derivations


def derivation_to_json(d: Derivation) -> dict:
    out: dict = {"seq": d.conclusion.to_json(), "rule": d.rule}
    if d.principal is not None:
        out["principal"] = {"formula": render_formula(d.principal)}
    if d.premises:
        prems = []
        for p in d.premises:
            if isinstance(p, SlotRef):
                prems.append({"slotRef": p.offset})
            else:
                prems.append(derivation_to_json(p))
        out["premises"] = prems
    if d.family is not None:
        out["family"] = {
            "var": d.family.var,
            "start": d.family.start,
            "template": derivation_to_json(d.family.template),
            "explicit": [derivation_to_json(e) for e in d.family.explicit],
        }
    return out


def derivation_from_json(data: dict, sig: Signature) -> Derivation:
    """The derivation a JSON node describes.  Malformed input raises
    CheckError naming the problem: a missing field, a field of the wrong
    type, an unknown rule id, a slot offset below 1, or a family whose
    ``start`` differs from its explicit-slot count."""
    try:
        return _derivation_from_json(data, sig)
    except KeyError as e:
        raise CheckError(f"derivation JSON lacks the field {e}") from None
    except (TypeError, AttributeError, OverflowError) as e:
        raise CheckError(f"malformed derivation JSON: {e}") from None


def _derivation_from_json(data: dict, sig: Signature) -> Derivation:
    if not isinstance(data, dict):
        raise CheckError(f"a derivation node must be a JSON object, got {data!r:.40}")
    premises: list[Union[Derivation, SlotRef]] = []
    for p in data.get("premises", []):
        if isinstance(p, dict) and "slotRef" in p:
            premises.append(SlotRef(json_value(p["slotRef"], "slotRef")))
        else:
            premises.append(_derivation_from_json(p, sig))
    family = None
    if "family" in data:
        f = data["family"]
        family = UniformFamily(
            f["var"],
            json_value(f["start"], "start"),
            _derivation_from_json(f["template"], sig),
            tuple(_derivation_from_json(e, sig) for e in f.get("explicit", [])),
        )
    principal = None
    if "principal" in data:
        principal = parse_formula(data["principal"]["formula"], sig)
    return Derivation(
        Sequent.from_json(data["seq"], sig),
        data["rule"],
        tuple(premises),
        family,
        principal,
    )
