"""Rule-instance validation and derivation checking for the infinitary
affine sequent calculus, optionally extended with transparent-truth rules.

Sequents inside derivations may carry, besides a finite omega-multiset
part, omega-indexed formula families (one formula per natural-number
slot, given by a template over an index variable).  Omega-premise rules
take uniform premise families: explicit derivations for the first slots
plus a single index-parameterised template, which may reference earlier
slots so that premise chains of growing depth stay representable.

A node with a ``principal`` is checked against that formula alone.
Without one, each formula of the rule's shape on the principal's side is
tried in rendered order: the first that fits passes the node, otherwise
the last mismatch is reported.

One ``derivation_from_json`` call parses and normalises each distinct
formula text once, whatever the number of nodes that repeat it, and
keeps nothing between calls.

Family verification is bounded: templates are checked for structural
uniformity and fully instantiated at finitely many slots, and instance
coverage of the closed-term enumeration is spot-checked at finitely many
terms.  Reports flag the bound explicitly.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Iterator, Optional, Sequence, Union

from .multiset import (
    OMEGA,
    FormulaFamily,
    Multiplicity,
    ReadFormula,
    Sequent,
    SequentSide,
    formula_reader,
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
    StepBudgetError,
    Term,
    Var,
    _subst,
    enumerate_closed_terms,
    formulas_equal,
    free_vars,
    normalize_formula,
    normalize_term,
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
    conclusion = Sequent(
        _instantiate_side(d.conclusion.ant, var, rep, sig),
        _instantiate_side(d.conclusion.suc, var, rep, sig),
    )
    return Derivation(conclusion, d.rule, prems, fam, principal)


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


class _Mismatch(CheckError):
    """This candidate principal does not fit the rule; another may."""


def _named_body(sig: Signature, atom: Atom) -> Formula:
    named = sig.named_formula(atom.args[0])
    if named is None:
        raise _Mismatch(
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
    """Checks rule instances and, through ``_node``, whole derivations.

    A clause returns when its candidate principal fits and raises
    ``_Mismatch`` when it does not; any other ``CheckError`` fails the
    node outright.

    For the life of one check the checker keeps the normal form of each
    family-slot instance it has built (``_slot_forms``), so the coverage
    spot checks normalise each of them once.  Without arithmetic a slot's
    term and the spot-check terms come from one enumeration, which a name
    created mid-check extends, so the enumeration and the slot table are
    keyed by the constant count as well; a caller fetches the table again
    after anything that may create a name, and ``_spot_check`` reruns a
    pass that created one."""

    def __init__(self, sig: Signature, policy: str, depth: int) -> None:
        if depth < 1:
            raise CheckError("depth must be >= 1")
        if policy not in POLICIES:
            raise CheckError(f"unknown policy '{policy}'")
        self.sig = sig
        self.policy = policy
        self.depth = depth
        # constant count (None with arithmetic) -> closed-term enumeration
        self._enumerations: dict[Optional[int], list[Term]] = {}
        # (family, constant count) -> slot -> normal form of its instance
        self._slot_tables: dict[tuple[FormulaFamily, int], dict[int, Formula]] = {}

    # -- helpers -----------------------------------------------------------

    def _enumeration(self, n: int) -> list[Term]:
        """At least the first ``n`` closed terms (fewer if the language has
        fewer).  Without arithmetic this is the one enumeration that the
        spot checks and the slots read, over the current constants, so a
        name created mid-check moves both alike.  With arithmetic a slot
        is a numeral, and the spot checks keep the prefix of first use."""
        if not self.sig.constants:
            return []
        key = None if self.sig.has_arithmetic else len(self.sig.constants)
        terms = self._enumerations.get(key)
        if terms is None or len(terms) < n:
            terms = self._enumerations[key] = enumerate_closed_terms(
                self.sig, max(n, self.depth)
            )
        return terms

    def _enum_terms(self) -> list[Term]:
        return self._enumeration(self.depth)[: self.depth]

    def _rep_term(self, slot: int) -> Term:
        if self.sig.has_arithmetic:
            return Numeral(slot)
        terms = self._enumeration(slot + 1)
        if len(terms) <= slot:
            raise CheckError(
                f"family slot {slot} exceeds the closed terms of the signature"
            )
        return terms[slot]

    def _slot_for_term(self, t: Term) -> int:
        """Which family slot covers the instance at closed term t."""
        if not self.sig.has_arithmetic:
            for i, u in enumerate(self._enum_terms()):
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
    def _first_fit(
        side: SequentSide,
        principal: Optional[Formula],
        want: type,
        missing: str,
        clause: Callable[[Formula], None],
    ) -> Verdict:
        """Try ``clause`` on the principal, or without one on every formula
        on ``side``, kept when it has the shape ``want`` (``object`` keeps
        every formula; an Atom principal is a truth atom ``T(t)``).  The
        first candidate that fits passes; otherwise the last candidate's
        mismatch, or ``missing`` when there was none, fails."""
        message = missing
        for f in side.support() if principal is None else (principal,):
            if not isinstance(f, want) or (
                want is Atom and (f.pred != "T" or len(f.args) != 1)
            ):
                continue
            try:
                clause(f)
                return Verdict(True)
            except _Mismatch as e:
                message = str(e)
        return Verdict(False, message)

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
            clause = _CLAUSES[rule.lower()]
        except (AttributeError, KeyError):
            return Verdict(False, f"unknown rule '{rule}'")
        try:
            return clause(self, list(premises), conclusion, principal, family)
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
        missing = "no formula occurs on both sides of the sequent"

        def clause(f: Formula) -> None:
            ant, suc = conclusion.ant, conclusion.suc
            if ant.multiplicity_of(f) == 0 or suc.multiplicity_of(f) == 0:
                raise _Mismatch(missing)

        return self._first_fit(conclusion.ant, principal, object, missing, clause)

    # one-premise rules: NegL, NegR, CondR, TL, TR -------------------------

    def _one_premise(self, premises, conclusion, principal, family, row) -> Verdict:
        rule, on_suc, want, missing, components = row
        self._need(premises, 1, rule)
        if want is Atom and not self.sig.naming_scheme:
            raise CheckError(f"{rule} requires a naming scheme in the signature")

        def clause(f: Formula) -> None:
            add_ant, add_suc = components(self.sig, f)
            ant = conclusion.ant if on_suc else self._without_principal(conclusion.ant, f)
            if add_ant is not None:
                ant = ant.with_added(add_ant)
            suc = self._without_principal(conclusion.suc, f) if on_suc else conclusion.suc
            if add_suc is not None:
                suc = suc.with_added(add_suc)
            expected = Sequent(ant, suc)
            if premises[0] != expected:
                raise _Mismatch(
                    f"{rule} shape: expected premise {expected.render()!r}, "
                    f"got {premises[0].render()!r}"
                )

        side = conclusion.suc if on_suc else conclusion.ant
        return self._first_fit(side, principal, want, missing, clause)

    def _rule_condl(self, premises, conclusion, principal, family) -> Verdict:
        self._need(premises, 2, "CondL")
        p0, p1 = premises

        def clause(f: Cond) -> None:
            if p0.suc.multiplicity_of(f.lhs) == 0:
                raise _Mismatch(
                    f"first premise lacks {render_formula(f.lhs)} in the succedent"
                )
            if p1.ant.multiplicity_of(f.rhs) == 0:
                raise _Mismatch(
                    f"second premise lacks {render_formula(f.rhs)} in the antecedent"
                )
            expected = Sequent(
                p0.ant.union(p1.ant.with_removed_one(f.rhs)).with_added(f),
                p0.suc.with_removed_one(f.lhs).union(p1.suc),
            )
            if expected != conclusion:
                raise _Mismatch(
                    f"CondL contexts: expected conclusion {expected.render()!r}"
                )

        return self._first_fit(
            conclusion.ant, principal, Cond, "no conditional in the antecedent", clause
        )

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
            if term_vars(p) or term_vars(s):  # a variable bound inside the body
                return p == s
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

    def _spot_check(self, check: Callable[[Term], None]) -> None:
        """Run ``check`` on each term of the spot-check prefix.  Without
        arithmetic a name created on the way shifts the enumeration, so a
        pass that created one runs again over the new prefix, and only a
        ``CheckError`` raised in a pass that created no name stands.  That
        ends: the prefix fills with constants, whose instances are
        normalised once each."""
        while True:
            count = len(self.sig.constants)
            failure = None
            try:
                for t in self._enum_terms():
                    check(t)
            except CheckError as e:
                failure = e
            if self.sig.has_arithmetic or len(self.sig.constants) == count:
                if failure is not None:
                    raise failure
                return

    def _slot_forms(self, fam: FormulaFamily) -> Callable[[int], Formula]:
        """The normal form of ``fam``'s instance at a slot, each built once
        for the current constant count."""
        forms = self._slot_tables.setdefault((fam, len(self.sig.constants)), {})

        def at(slot: int) -> Formula:
            nf = forms.get(slot)
            if nf is None:
                nf = forms[slot] = normalize_formula(fam.at(self._rep_term(slot)), self.sig)
            return nf

        return at

    def _covering_slot_in_family(
        self, fam: FormulaFamily, required: Formula, hint: int
    ) -> Optional[int]:
        """The first slot of ``fam`` below the spot-check bound whose
        instance has the normal form ``required``, or None."""
        at = self._slot_forms(fam)
        for n in range(fam.start, max(hint + 1, 0) + self.depth + 8):
            if at(n) == required:
                return n
        return None

    def _validate_instance_part(self, exists_f: Exists, part: SequentSide) -> None:
        """The residual premise material must be exactly an omega instance
        family for the quantified formula: every entry an instance, and the
        closed-term enumeration covered (spot-checked)."""
        var, body = exists_f.var, exists_f.body
        for f, _ in part.items():
            if self._instance_witness(body, var, f) is None:
                raise _Mismatch(
                    f"{render_formula(f)} is not an instance of "
                    f"{render_formula(exists_f)}"
                )
        for fam in part.families:
            if self._match_instance(body, var, fam.template) is None:
                raise _Mismatch(
                    f"family {render_formula(fam.template)} is not an instance "
                    f"family of {render_formula(exists_f)}"
                )
        if part.is_empty():
            raise _Mismatch("the instance family is missing entirely")

        def covered(t: Term) -> None:
            required = normalize_formula(substitute(body, var, t), self.sig)
            if part.multiplicity_of(required) != 0:
                return
            hint = self._slot_for_term(t)
            if not any(
                self._covering_slot_in_family(fam, required, hint) is not None
                for fam in part.families
            ):
                raise _Mismatch(
                    f"instance at closed term {render_term(t)} is not covered "
                    "by the premise family"
                )

        self._spot_check(covered)

    def _rule_existsrw(self, premises, conclusion, principal, family) -> Verdict:
        self._need(premises, 1, "ExistsRw")
        premise = premises[0]

        def clause(f: Exists) -> None:
            if premise.ant != conclusion.ant:
                raise _Mismatch("ExistsRw must not change the antecedent")
            delta = self._without_principal(conclusion.suc, f)
            try:
                residual = premise.suc.minus(delta)
            except ValueError as e:
                raise _Mismatch(f"premise lacks the conclusion context: {e}") from None
            if f.var in free_vars(f.body):
                self._validate_instance_part(f, residual)
                return
            if residual.families:
                raise _Mismatch("vacuous quantification takes plain copies, not families")
            want: Multiplicity = 1 if self.policy == ADDITIVE else OMEGA
            if residual != SequentSide(self.sig, [(f.body, want)]):
                got = residual.multiplicity_of(f.body)
                raise _Mismatch(
                    f"vacuous ExistsRw under the {self.policy} policy needs "
                    f"{'one copy' if want == 1 else 'omega copies'} of "
                    f"{render_formula(f.body)}; found multiplicity "
                    f"{'w' if got is OMEGA else got}"
                )

        missing = "no existential formula in the succedent"
        return self._first_fit(conclusion.suc, principal, Exists, missing, clause)

    def _rule_existslw(self, premises, conclusion, principal, family) -> Verdict:
        if family is None:
            self._need(premises, 1, "ExistsLw (single-premise form)")
            clause = partial(self._exists_left_single, premises[0], conclusion)
        else:
            self._need(premises, 0, "ExistsLw (family form)")
            clause = partial(self._exists_left_family_one, conclusion, family)
        missing = "no existential formula in the antecedent"
        return self._first_fit(conclusion.ant, principal, Exists, missing, clause)

    def _exists_left_single(self, premise: Sequent, conclusion: Sequent, f: Exists) -> None:
        if f.var in free_vars(f.body):
            raise _Mismatch("a single premise can only witness a vacuous quantifier")
        if self.policy != ADDITIVE:
            raise _Mismatch("the multiplicative policy requires the omega-premise family")
        if premise.ant.multiplicity_of(f.body) == 0:
            raise _Mismatch(f"premise lacks the instance {render_formula(f.body)}")
        expected = Sequent(
            premise.ant.with_removed_one(f.body).with_added(f), premise.suc
        )
        if expected != conclusion:
            raise _Mismatch(f"ExistsLw shape: expected conclusion {expected.render()!r}")

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
        self, conclusion: Sequent, fam: SequentFamily, f: Exists
    ) -> None:
        var, body = f.var, f.body
        vacuous = var not in free_vars(body)
        tpl = fam.template
        if tpl.ant.families or tpl.suc.families:
            raise _Mismatch("nested families in a premise template")
        p_tpl = body if vacuous else _subst(body, {var: Var(fam.var)})
        if tpl.ant.multiplicity_of(p_tpl) == 0:
            raise _Mismatch(
                f"template premise lacks the instance {render_formula(p_tpl)}"
            )
        gamma_tpl = tpl.ant.with_removed_one(p_tpl)
        expected_ant = SequentSide(self.sig, [(f, 1)])
        expected_suc = SequentSide(self.sig)
        for slot, ex in enumerate(fam.explicit):
            if ex.ant.families or ex.suc.families:
                raise _Mismatch("explicit premise slots must be family-free")
            p_slot = body if vacuous else substitute(body, var, self._rep_term(slot))
            if ex.ant.multiplicity_of(p_slot) == 0:
                raise _Mismatch(
                    f"premise slot {slot} lacks the instance "
                    f"{render_formula(p_slot)}"
                )
            expected_ant = expected_ant.union(ex.ant.with_removed_one(p_slot))
            expected_suc = expected_suc.union(ex.suc)
        tail_ant = self._index_tail(gamma_tpl, fam)
        tail_suc = None if tail_ant is None else self._index_tail(tpl.suc, fam)
        if tail_suc is None:
            raise _Mismatch("index-dependent context needs finite multiplicity")
        expected = Sequent(expected_ant.union(tail_ant), expected_suc.union(tail_suc))
        if expected != conclusion:
            raise _Mismatch(
                f"ExistsLw contexts: expected conclusion {expected.render()!r}, "
                f"got {conclusion.render()!r}"
            )
        if vacuous:
            return
        # coverage: every spot-checked closed term maps to a slot whose
        # principal is its instance after normalisation
        p_fam = FormulaFamily(var, 0, body)

        def covered(t: Term) -> None:
            required = normalize_formula(substitute(body, var, t), self.sig)
            try:
                slot = self._slot_for_term(t)
            except CheckError as e:
                raise _Mismatch(str(e)) from None
            # fetched after the normalisations, which may create a name
            if required != self._slot_forms(p_fam)(slot):
                raise _Mismatch(
                    f"instance at {render_term(t)} does not match premise "
                    f"slot {slot}"
                )

        self._spot_check(covered)

    # -- derivations -------------------------------------------------------

    def _node(
        self,
        d: Derivation,
        path: str,
        earlier: Optional[list[Sequent]],
        report: CheckReport,
    ) -> bool:
        """Check ``d`` and then, until a node fails, its premises and family
        slots.  Inside a family template, ``earlier`` holds the conclusions
        of the slots before the current one; slot references read it."""
        try:
            premise_seqs = []
            for p in d.premises:
                if isinstance(p, Derivation):
                    premise_seqs.append(p.conclusion)
                elif earlier is None:
                    raise CheckError("slot reference outside a family template")
                elif p.offset > len(earlier):
                    raise CheckError("slot reference before the first slot")
                else:
                    premise_seqs.append(earlier[-p.offset])
            fam_summary = None
            if d.family is not None:
                fam = d.family
                _check_template_uniformity(fam.template, fam.var)
                fam_summary = SequentFamily(
                    fam.var, fam.start, fam.template.conclusion,
                    tuple(e.conclusion for e in fam.explicit),
                )
            verdict = self.check(
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
                if not self._node(p, f"{path}.{i}", earlier, report):
                    return False
        if d.family is not None:
            return self._family_slots(d.family, path, report)
        return True

    def _family_slots(self, fam: UniformFamily, path: str, report: CheckReport) -> bool:
        uses_var = _derivation_uses_var(fam.template, fam.var)
        has_refs = _has_slot_refs(fam.template)
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
        earlier = [e.conclusion for e in fam.explicit]
        for slot in range(fam.start, fam.start + self.depth):
            inst = fam.template
            if uses_var:
                try:
                    term = self._rep_term(slot)
                except CheckError as e:
                    # too few closed terms for this slot: the slot fails
                    report.per_node.append(NodeReport(
                        f"{path}.fam[{slot}]", inst.rule, False, str(e),
                        inst.conclusion.render(),
                    ))
                    report.family_spot_checks.append((path, slot, False))
                    return False
                inst = instantiate_derivation(fam.template, fam.var, term, self.sig)
            ok = self._node(inst, f"{path}.fam[{slot}]", earlier, report)
            report.family_spot_checks.append((path, slot, ok))
            if not ok:
                return False
            earlier.append(inst.conclusion)
        return True


# The rule clauses by lower-case rule id.
_CLAUSES = {
    "init": _RuleChecker._rule_init,
    "condl": _RuleChecker._rule_condl,
    "existsrw": _RuleChecker._rule_existsrw,
    "existslw": _RuleChecker._rule_existslw,
    **{
        name: partial(_RuleChecker._one_premise, row=row)
        for name, row in _ONE_PREMISE.items()
    },
}


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
    checker = _RuleChecker(sig, policy, depth)
    report = CheckReport(True, policy, depth)
    report.ok = checker._node(d, "root", None, report)
    return report


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
    type (``seq``, ``family``, ``principal`` and each family of a side
    must be JSON objects, sides, families, ``premises`` and ``explicit``
    JSON arrays, side members ``[formula, multiplicity]`` pairs), an unknown
    rule id, a slot offset below 1, or a family whose ``start`` differs
    from its explicit-slot count.

    Each distinct formula text is parsed and normalised once per call
    (``multiset.formula_reader``); nothing is kept between calls."""
    read = formula_reader(sig)
    try:
        return _derivation_from_json(data, sig, read)
    except KeyError as e:
        raise CheckError(f"derivation JSON lacks the field {e}") from None
    except (TypeError, AttributeError, OverflowError) as e:
        raise CheckError(f"malformed derivation JSON: {e}") from None


def _derivation_from_json(data: dict, sig: Signature, read: ReadFormula) -> Derivation:
    if not isinstance(data, dict):
        raise CheckError(f"a derivation node must be a JSON object, got {data!r:.40}")
    premises: list[Union[Derivation, SlotRef]] = []
    for p in json_value(data.get("premises", []), "premises", list):
        if isinstance(p, dict) and "slotRef" in p:
            premises.append(SlotRef(json_value(p["slotRef"], "slotRef")))
        else:
            premises.append(_derivation_from_json(p, sig, read))
    family = None
    if "family" in data:
        f = json_value(data["family"], "family", dict)
        family = UniformFamily(
            f["var"],
            json_value(f["start"], "start"),
            _derivation_from_json(f["template"], sig, read),
            tuple(
                _derivation_from_json(e, sig, read)
                for e in json_value(f.get("explicit", []), "explicit", list)
            ),
        )
    principal = None
    if "principal" in data:
        principal = read(json_value(data["principal"], "principal", dict)["formula"])[0]
    return Derivation(
        Sequent.from_json(json_value(data["seq"], "seq", dict), sig, read),
        data["rule"],
        tuple(premises),
        family,
        principal,
    )
