"""Abstract syntax: terms, formulas, signatures, substitution, enumeration,
and term rewriting for coding equations.

The first-order language has three connectives (negation, conditional,
existential quantifier) and predicate atoms over terms.  A signature fixes
the available symbols, an optional zero/successor pair for numerals, a
naming scheme mapping constants to sentences, and an ordered list of
rewrite rules used to normalise closed terms.
"""

from __future__ import annotations

import re
import threading
from dataclasses import dataclass
from typing import Iterator, Optional, Union


class SyntaxError_(Exception):
    """Base class for syntax-level failures."""


class ParseError(SyntaxError_):
    def __init__(self, message: str, position: int) -> None:
        super().__init__(f"{message} (at position {position})")
        self.position = position


class UnknownSymbolError(SyntaxError_):
    def __init__(self, symbol: str, position: int = -1) -> None:
        at = f" (at position {position})" if position >= 0 else ""
        super().__init__(f"unknown symbol '{symbol}'{at}")
        self.symbol = symbol


class SignatureError(SyntaxError_):
    """Ill-formed signature: duplicate symbols, bad arity, bad naming."""


class RuleOrientationError(SyntaxError_):
    """A rewrite rule that is not left-linear or not size-decreasing
    under the builtin recursive path order."""


class StepBudgetError(SyntaxError_):
    """Rewriting exceeded the step budget; the rule set is suspect."""


# ---------------------------------------------------------------------------
# Terms and formulas


@dataclass(frozen=True, slots=True)
class Var:
    name: str


@dataclass(frozen=True, slots=True)
class Const:
    name: str


@dataclass(frozen=True, slots=True)
class Numeral:
    """Closed term sugar for a zero/successor tower; only available when
    the signature declares arithmetic."""

    value: int


@dataclass(frozen=True, slots=True)
class App:
    fn: str
    args: tuple["Term", ...]


@dataclass(frozen=True, slots=True)
class Quote:
    """Name literal: denotes the canonical-name constant of a sentence.

    Closed quotes are resolved to ordinary constants against a signature;
    open quotes are only legal inside rewrite-rule right-hand sides.
    """

    body: "Formula"


Term = Union[Var, Const, Numeral, App, Quote]


@dataclass(frozen=True, slots=True)
class Atom:
    pred: str
    args: tuple[Term, ...]


@dataclass(frozen=True, slots=True)
class Neg:
    body: "Formula"


@dataclass(frozen=True, slots=True)
class Cond:
    lhs: "Formula"
    rhs: "Formula"


@dataclass(frozen=True, slots=True)
class Exists:
    var: str
    body: "Formula"


Formula = Union[Atom, Neg, Cond, Exists]


@dataclass(frozen=True, slots=True)
class RewriteRule:
    lhs: Term
    rhs: Term
    label: str = ""

    def __str__(self) -> str:
        return f"{render_term(self.lhs)} => {render_term(self.rhs)}"


# ---------------------------------------------------------------------------
# Term traversal helpers


def term_vars(t: Term) -> set[str]:
    if isinstance(t, Var):
        return {t.name}
    if isinstance(t, App):
        out: set[str] = set()
        for a in t.args:
            out |= term_vars(a)
        return out
    if isinstance(t, Quote):
        return free_vars(t.body)
    return set()


def term_is_closed(t: Term) -> bool:
    return not term_vars(t)


def quote_arg_terms(q: Quote) -> tuple[Term, ...]:
    """All atom-argument terms inside a quoted formula (free positions)."""
    acc: list[Term] = []

    def walk(f: Formula) -> None:
        if isinstance(f, Atom):
            acc.extend(f.args)
        elif isinstance(f, Neg):
            walk(f.body)
        elif isinstance(f, Cond):
            walk(f.lhs)
            walk(f.rhs)
        elif isinstance(f, Exists):
            walk(f.body)

    walk(q.body)
    return tuple(acc)


def free_vars(f: Formula) -> set[str]:
    """Free variables of a formula; empty iff the formula is a sentence."""
    if isinstance(f, Atom):
        out: set[str] = set()
        for t in f.args:
            out |= term_vars(t)
        return out
    if isinstance(f, Neg):
        return free_vars(f.body)
    if isinstance(f, Cond):
        return free_vars(f.lhs) | free_vars(f.rhs)
    if isinstance(f, Exists):
        return free_vars(f.body) - {f.var}
    raise TypeError(f"not a formula: {f!r}")


def substitute_term(t: Term, x: str, s: Term) -> Term:
    if isinstance(t, Var):
        return s if t.name == x else t
    if isinstance(t, App):
        return App(t.fn, tuple(substitute_term(a, x, s) for a in t.args))
    if isinstance(t, Quote):
        return Quote(substitute(t.body, x, s))
    return t


def substitute(f: Formula, x: str, t: Term) -> Formula:
    """Replace every free occurrence of variable ``x`` in ``f`` by ``t``.

    ``t`` must be closed, so no alpha-renaming is ever needed; bound
    occurrences are shielded by their binder.
    """
    if not term_is_closed(t):
        raise ValueError("substitution requires a closed term")
    return _subst(f, x, t)


def _subst(f: Formula, x: str, t: Term) -> Formula:
    if isinstance(f, Atom):
        return Atom(f.pred, tuple(substitute_term(a, x, t) for a in f.args))
    if isinstance(f, Neg):
        return Neg(_subst(f.body, x, t))
    if isinstance(f, Cond):
        return Cond(_subst(f.lhs, x, t), _subst(f.rhs, x, t))
    if isinstance(f, Exists):
        if f.var == x:
            return f
        return Exists(f.var, _subst(f.body, x, t))
    raise TypeError(f"not a formula: {f!r}")


def term_depth(t: Term) -> int:
    if isinstance(t, (Var, Const)):
        return 1
    if isinstance(t, Numeral):
        return t.value + 1
    if isinstance(t, App):
        return 1 + max((term_depth(a) for a in t.args), default=0)
    if isinstance(t, Quote):
        return 1
    raise TypeError(f"not a term: {t!r}")


def subterms(t: Term) -> Iterator[Term]:
    yield t
    if isinstance(t, App):
        for a in t.args:
            yield from subterms(a)


# ---------------------------------------------------------------------------
# Rendering (canonical concrete syntax; reparses to an equal value)


def render_term(t: Term) -> str:
    if isinstance(t, Var):
        return t.name
    if isinstance(t, Const):
        return t.name
    if isinstance(t, Numeral):
        return str(t.value)
    if isinstance(t, App):
        return f"{t.fn}({', '.join(render_term(a) for a in t.args)})"
    if isinstance(t, Quote):
        return f"quote({render_formula(t.body)})"
    raise TypeError(f"not a term: {t!r}")


def render_formula(f: Formula) -> str:
    if isinstance(f, Atom):
        if not f.args:
            return f.pred
        return f"{f.pred}({', '.join(render_term(a) for a in f.args)})"
    if isinstance(f, Neg):
        return "~" + _render_unary_operand(f.body)
    if isinstance(f, Exists):
        return f"Ex {f.var} " + _render_unary_operand(f.body)
    if isinstance(f, Cond):
        lhs = _render_unary_operand(f.lhs)
        return f"{lhs} -> {render_formula(f.rhs)}"
    raise TypeError(f"not a formula: {f!r}")


def _render_unary_operand(f: Formula) -> str:
    # Conditionals bind loosest, so they need parentheses under a prefix
    # operator or on the left of another conditional.
    if isinstance(f, Cond):
        return f"({render_formula(f)})"
    return render_formula(f)


# ---------------------------------------------------------------------------
# Signature


_IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_']*\Z")


class Signature:
    """Symbol table plus naming scheme and coding equations.

    The one-place truth predicate ``T`` is always present.  Canonical-name
    constants may be registered up front (``name l = <formula>``) or created
    lazily when a quote is first resolved; each sentence gets exactly one
    name constant.  When arithmetic is declared, every name constant also
    receives a numeral code and a rewrite rule mapping the constant to its
    code, so that closed terms normalise to numeral form.

    The rule index and the normal-form memo are derived from the rule set
    and the successor symbol; ``_rules_changed`` drops them whenever
    either changes.
    """

    def __init__(self) -> None:
        self.constants: list[str] = []
        self.functions: list[tuple[str, int]] = []
        self.predicates: list[tuple[str, int]] = [("T", 1)]
        self._rewrites: tuple[RewriteRule, ...] = ()
        self.zero: Optional[str] = None
        self.succ: Optional[str] = None
        self.max_rewrite_steps: int = 10_000
        self._symbols: set[str] = {"T"}
        self._fn_arity: dict[str, int] = {}
        self._pred_arity: dict[str, int] = {"T": 1}
        self._named_formula: dict[str, Formula] = {}
        self._name_of_formula: dict[Formula, str] = {}
        self._name_code: dict[str, int] = {}
        self._code_name: dict[int, str] = {}
        self._fresh_counter = 0
        self._lock = threading.RLock()
        self._rule_index: Optional[dict[object, tuple[RewriteRule, ...]]] = None
        self._normal_forms: dict[Term, tuple[Term, int]] = {}

    # -- declarations ------------------------------------------------------

    def _claim(self, symbol: str) -> None:
        if not _IDENT.match(symbol):
            raise SignatureError(f"bad symbol name '{symbol}'")
        if symbol in self._symbols:
            raise SignatureError(f"symbol '{symbol}' declared twice")
        self._symbols.add(symbol)

    def add_constant(self, name: str) -> Const:
        self._claim(name)
        self.constants.append(name)
        return Const(name)

    def add_function(self, name: str, arity: int) -> None:
        if arity < 1:
            raise SignatureError(f"function '{name}' needs arity >= 1")
        self._claim(name)
        self.functions.append((name, arity))
        self._fn_arity[name] = arity

    def add_predicate(self, name: str, arity: int) -> None:
        if name == "T":
            if arity != 1:
                raise SignatureError("T must be one-place")
            return
        if arity < 0:
            raise SignatureError(f"predicate '{name}' needs arity >= 0")
        self._claim(name)
        self.predicates.append((name, arity))
        self._pred_arity[name] = arity

    def add_arithmetic(self, zero: str, succ: str) -> None:
        """Declare the numeral constructors (zero constant, successor).
        The zero symbol may be the literal digit ``0``."""
        if self.zero is not None:
            raise SignatureError("arithmetic already declared")
        if zero == "0":
            if zero in self._symbols:
                raise SignatureError("symbol '0' declared twice")
            self._symbols.add(zero)
        else:
            self._claim(zero)
        self._claim(succ)
        self.zero = zero
        self.succ = succ
        # zero occupies a constant slot for enumeration order; it is
        # represented by Numeral(0), never by Const(zero).
        self.constants.append(zero)
        self.functions.append((succ, 1))
        self._fn_arity[succ] = 1
        self._rules_changed()  # successor patterns now match numerals

    @property
    def has_arithmetic(self) -> bool:
        return self.zero is not None

    def function_arity(self, name: str) -> Optional[int]:
        return self._fn_arity.get(name)

    def predicate_arity(self, name: str) -> Optional[int]:
        return self._pred_arity.get(name)

    def is_constant(self, name: str) -> bool:
        return name in self.constants and name != self.zero

    # -- naming scheme -----------------------------------------------------

    def declare_name(self, const: str, formula: Formula) -> Const:
        """Register ``const`` as the canonical name of ``formula``.

        The constant may already exist (declared earlier to permit
        self-referential naming); sentences keep exactly one name.
        """
        if const not in self._symbols:
            self.add_constant(const)
        elif not self.is_constant(const):
            raise SignatureError(f"'{const}' is not a constant")
        if const in self._named_formula:
            raise SignatureError(f"constant '{const}' already names a formula")
        if free_vars(formula):
            raise SignatureError("only sentences can be named")
        self._assign_code(const)
        key = self.normalize_formula(formula)
        if key in self._name_of_formula:
            raise SignatureError(
                f"formula already named by '{self._name_of_formula[key]}'"
            )
        self._named_formula[const] = formula
        self._name_of_formula[key] = const
        return Const(const)

    def _assign_code(self, const: str) -> None:
        if not self.has_arithmetic or const in self._name_code:
            return
        code = len(self._name_code)
        self._name_code[const] = code
        self._code_name[code] = const
        self._add_rule(RewriteRule(Const(const), Numeral(code), label=f"code.{const}"))

    def name_of(self, formula: Formula) -> Const:
        """The canonical-name constant of a sentence (memoised; atomic)."""
        if free_vars(formula):
            raise SignatureError("only sentences have canonical names")
        with self._lock:
            key = self.normalize_formula(formula)
            existing = self._name_of_formula.get(key)
            if existing is not None:
                return Const(existing)
            const = self._fresh_name()
            self.constants.append(const)
            self._symbols.add(const)
            self._assign_code(const)
            self._named_formula[const] = key
            self._name_of_formula[key] = const
            return Const(const)

    def _fresh_name(self) -> str:
        while True:
            cand = f"q{self._fresh_counter}"
            self._fresh_counter += 1
            if cand not in self._symbols:
                return cand

    def named_formula(self, t: Term) -> Optional[Formula]:
        """The sentence named by a term, if its normal form is a name.

        In arithmetic signatures names normalise to their numeral codes,
        so numerals that are codes also resolve.
        """
        nf = self.normalize_term(t)
        if isinstance(nf, Const) and nf.name in self._named_formula:
            return self._named_formula[nf.name]
        if isinstance(nf, Numeral) and nf.value in self._code_name:
            return self._named_formula[self._code_name[nf.value]]
        return None

    @property
    def naming_scheme(self) -> dict[str, Formula]:
        return dict(self._named_formula)

    # -- rewrite rules -----------------------------------------------------

    @property
    def rewrites(self) -> tuple[RewriteRule, ...]:
        """The rewrite rules in the order they are tried; add rules with
        ``add_rewrite`` so that the index and the memo are dropped."""
        return self._rewrites

    def add_rewrite(self, lhs: Term, rhs: Term, label: str = "") -> None:
        rule = RewriteRule(lhs, rhs, label)
        validate_rule(self, rule)
        self._add_rule(rule)

    def _add_rule(self, rule: RewriteRule) -> None:
        self._rewrites += (rule,)
        self._rules_changed()

    def _rules_changed(self) -> None:
        self._rule_index = None
        self._normal_forms = {}

    # -- normalisation (delegates, kept here for convenience) --------------

    def normalize_term(self, t: Term, budget: Optional[int] = None) -> Term:
        return normalize_term(t, self, budget)

    def normalize_formula(self, f: Formula, budget: Optional[int] = None) -> Formula:
        return normalize_formula(f, self, budget)


# ---------------------------------------------------------------------------
# Rule validation: left-linearity and a recursive path order


def _rule_precedence(sig: Signature, root: str) -> int:
    # zero < succ < constants/quotes < declared functions (earlier = higher)
    if root == "#zero":
        return 0
    if root == "#succ":
        return 1
    if root == "#const":
        return 2
    fns = [f for f, _ in sig.functions if f != sig.succ]
    for i, f in enumerate(fns):
        if f == root:
            return 3 + (len(fns) - i)
    return 2


def _root_and_args(sig: Signature, t: Term) -> tuple[str, tuple[Term, ...]]:
    if isinstance(t, Const):
        return "#const", ()
    if isinstance(t, Numeral):
        if t.value == 0:
            return "#zero", ()
        return "#succ", (Numeral(t.value - 1),)
    if isinstance(t, App):
        if t.fn == sig.succ:
            return "#succ", t.args
        return t.fn, t.args
    if isinstance(t, Quote):
        return "#const", quote_arg_terms(t)
    raise TypeError(f"unexpected pattern term: {t!r}")


def _rpo_gt(sig: Signature, s: Term, t: Term) -> bool:
    if s == t:
        return False
    if isinstance(t, Var):
        return t.name in term_vars(s)
    if isinstance(s, Var):
        return False
    s_root, s_args = _root_and_args(sig, s)
    t_root, t_args = _root_and_args(sig, t)
    for a in s_args:
        if a == t or _rpo_gt(sig, a, t):
            return True
    ps, pt = _rule_precedence(sig, s_root), _rule_precedence(sig, t_root)
    if ps > pt:
        return all(_rpo_gt(sig, s, u) for u in t_args)
    if ps == pt and s_root == t_root:
        # lexicographic status
        for a, b in zip(s_args, t_args):
            if a == b:
                continue
            if _rpo_gt(sig, a, b):
                return all(_rpo_gt(sig, s, u) for u in t_args)
            return False
    return False


def validate_rule(sig: Signature, rule: RewriteRule) -> None:
    lhs_vars: list[str] = []

    def collect(t: Term) -> None:
        if isinstance(t, Var):
            lhs_vars.append(t.name)
        elif isinstance(t, App):
            for a in t.args:
                collect(a)
        elif isinstance(t, Quote):
            raise RuleOrientationError(f"quote not allowed on the left: {rule}")

    collect(rule.lhs)
    if len(lhs_vars) != len(set(lhs_vars)):
        raise RuleOrientationError(f"rule is not left-linear: {rule}")
    if not term_vars(rule.rhs) <= set(lhs_vars):
        raise RuleOrientationError(f"right side introduces variables: {rule}")
    if isinstance(rule.lhs, (Var, Numeral)):
        raise RuleOrientationError(f"left side must be constant- or function-rooted: {rule}")
    # Ground numeral right sides under a constant are decreasing by
    # precedence alone; spare the tower recursion.
    if isinstance(rule.lhs, Const) and isinstance(rule.rhs, Numeral):
        return
    if not _rpo_gt(sig, rule.lhs, rule.rhs):
        raise RuleOrientationError(f"rule not orientable left-to-right: {rule}")


# ---------------------------------------------------------------------------
# Rewriting


class _Budget:
    __slots__ = ("left",)

    def __init__(self, steps: int) -> None:
        self.left = steps

    def spend(self, steps: int = 1) -> None:
        self.left -= steps
        if self.left < 0:
            raise StepBudgetError("rewrite step budget exceeded")


def _canon(sig: Signature, t: Term) -> Term:
    """Fold successor applications over numerals into numeral literals."""
    if isinstance(t, App) and t.fn == sig.succ and isinstance(t.args[0], Numeral):
        return Numeral(t.args[0].value + 1)
    return t


def _match(sig: Signature, pattern: Term, subject: Term, binding: dict[str, Term]) -> bool:
    if isinstance(pattern, Var):
        binding[pattern.name] = subject
        return True
    if isinstance(pattern, Const):
        return pattern == subject
    if isinstance(pattern, Numeral):
        return pattern == subject
    if isinstance(pattern, App):
        if pattern.fn == sig.succ and isinstance(subject, Numeral) and subject.value >= 1:
            return _match(sig, pattern.args[0], Numeral(subject.value - 1), binding)
        if not isinstance(subject, App) or subject.fn != pattern.fn:
            return False
        if len(subject.args) != len(pattern.args):
            return False
        return all(
            _match(sig, p, s, binding) for p, s in zip(pattern.args, subject.args)
        )
    return False


def _instantiate(sig: Signature, rhs: Term, binding: dict[str, Term]) -> Term:
    if isinstance(rhs, Var):
        return binding[rhs.name]
    if isinstance(rhs, App):
        return _canon(
            sig, App(rhs.fn, tuple(_instantiate(sig, a, binding) for a in rhs.args))
        )
    if isinstance(rhs, Quote):
        body = rhs.body
        for x, t in binding.items():
            body = substitute(body, x, t)
        if free_vars(body):
            raise SyntaxError_("quote did not close under instantiation")
        # the quoted sentence's own terms are normalised through name_of
        return sig.name_of(body)
    return rhs


def _step_root(
    sig: Signature, t: Term, budget: _Budget, rules: tuple[RewriteRule, ...]
) -> Optional[Term]:
    """Rewrite ``t`` at the root by the first of ``rules`` that matches."""
    for rule in rules:
        binding: dict[str, Term] = {}
        if _match(sig, rule.lhs, t, binding):
            budget.spend()
            return _instantiate(sig, rule.rhs, binding)
    return None


def _index_rules(sig: Signature) -> dict[object, tuple[RewriteRule, ...]]:
    """Rules bucketed by the root of their left side, each bucket in rule
    order: a constant under itself, an application under its function
    symbol.  A successor application also goes under ``Numeral``, because
    it matches numerals >= 1 (see _match).  validate_rule admits no other
    left sides."""
    index: dict[object, list[RewriteRule]] = {}
    for rule in sig.rewrites:
        lhs = rule.lhs
        keys: tuple[object, ...] = (lhs,)
        if isinstance(lhs, App):
            keys = (lhs.fn, Numeral) if lhs.fn == sig.succ else (lhs.fn,)
        for key in keys:
            index.setdefault(key, []).append(rule)
    return {key: tuple(rules) for key, rules in index.items()}


def _rules_at_root(sig: Signature, t: Term) -> tuple[RewriteRule, ...]:
    """The rules whose left side can match ``t`` at the root, in rule order."""
    index = sig._rule_index
    if index is None:
        index = sig._rule_index = _index_rules(sig)
    if isinstance(t, App):
        return index.get(t.fn, ())
    if isinstance(t, Numeral):
        return index.get(Numeral, ())
    return index.get(t, ())


def _normalize_in(sig: Signature, t: Term, budget: _Budget) -> Term:
    """Innermost-leftmost normalisation, memoised per signature.

    A memo hit charges the steps the cached run spent, so the budget runs
    out exactly when it would have without the memo.  The entry goes into
    the memo that was current when ``t`` was first looked up: if the rules
    changed meanwhile, that memo has been dropped and the entry with it.
    """
    memo = sig._normal_forms
    hit = memo.get(t)
    if hit is not None:
        nf, steps = hit
        budget.spend(steps)
        return nf
    left = budget.left
    nf = _canon(sig, t)
    if isinstance(nf, App):
        nf = _canon(sig, App(nf.fn, tuple(_normalize_in(sig, a, budget) for a in nf.args)))
    while True:
        r = _step_root(sig, nf, budget, _rules_at_root(sig, nf))
        if r is None:
            break
        nf = _normalize_in(sig, r, budget)
    memo[t] = (nf, left - budget.left)
    return nf


def normalize_term(t: Term, sig: Signature, budget: Optional[int] = None) -> Term:
    """The unique normal form of a closed term under the coding equations.

    Rewrites innermost-leftmost; idempotent.  Raises StepBudgetError when
    the step budget is exhausted, which signals a non-terminating rule set.
    """
    if not term_is_closed(t):
        raise ValueError("normalize_term requires a closed term")
    return _normalize_in(sig, t, _Budget(budget or sig.max_rewrite_steps))


def _step_outermost(sig: Signature, t: Term, budget: _Budget) -> Optional[Term]:
    t = _canon(sig, t)
    r = _step_root(sig, t, budget, sig.rewrites)
    if r is not None:
        return r
    if isinstance(t, App):
        for i, a in enumerate(t.args):
            ra = _step_outermost(sig, a, budget)
            if ra is not None:
                args = list(t.args)
                args[i] = ra
                return _canon(sig, App(t.fn, tuple(args)))
    return None


def normalize_term_outermost(t: Term, sig: Signature, budget: Optional[int] = None) -> Term:
    """Outermost-leftmost normalisation; used to cross-check confluence.

    It scans the whole rule list and keeps no memo, so it is an
    independent reference for the indexed, memoised innermost strategy.
    """
    if not term_is_closed(t):
        raise ValueError("normalize_term requires a closed term")
    b = _Budget(budget or sig.max_rewrite_steps)
    while True:
        r = _step_outermost(sig, t, b)
        if r is None:
            return _canon(sig, t)
        t = r


def normalize_formula(f: Formula, sig: Signature, budget: Optional[int] = None) -> Formula:
    """Normalise every maximal closed subterm of a formula."""

    def fix_term(t: Term) -> Term:
        if term_is_closed(t):
            return normalize_term(t, sig, budget)
        if isinstance(t, App):
            return _canon(sig, App(t.fn, tuple(fix_term(a) for a in t.args)))
        return t

    def walk(g: Formula) -> Formula:
        if isinstance(g, Atom):
            return Atom(g.pred, tuple(fix_term(a) for a in g.args))
        if isinstance(g, Neg):
            return Neg(walk(g.body))
        if isinstance(g, Cond):
            return Cond(walk(g.lhs), walk(g.rhs))
        if isinstance(g, Exists):
            return Exists(g.var, walk(g.body))
        raise TypeError(f"not a formula: {g!r}")

    return walk(f)


def formulas_equal(a: Formula, b: Formula, sig: Signature) -> bool:
    """Syntactic equality after normalising all maximal closed subterms."""
    return normalize_formula(a, sig) == normalize_formula(b, sig)


# ---------------------------------------------------------------------------
# Closed-term enumeration


def _term_sort_key(sig: Signature, t: Term):
    if isinstance(t, Const):
        return (1, (sig.constants.index(t.name),))
    if isinstance(t, Numeral):
        if t.value == 0:
            return (1, (sig.constants.index(sig.zero),))
        sub = _term_sort_key(sig, Numeral(t.value - 1))
        return (t.value + 1, (_fn_index(sig, sig.succ), sub))
    if isinstance(t, App):
        subs = tuple(_term_sort_key(sig, a) for a in t.args)
        return (term_depth(t), (_fn_index(sig, t.fn),) + subs)
    raise TypeError(f"cannot order term: {t!r}")


def _fn_index(sig: Signature, fn: str) -> int:
    for i, (f, _) in enumerate(sig.functions):
        if f == fn:
            return i
    raise UnknownSymbolError(fn)


def enumerate_closed_terms(sig: Signature, n: int) -> list[Term]:
    """The first ``n`` closed terms of the canonical enumeration.

    Ordered by term depth, then by symbol declaration order, then
    left-to-right on arguments; total and stable over the declared symbols.
    If the declared language has fewer than ``n`` closed terms, all of
    them are returned.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    if not sig.constants:
        raise SignatureError("no constants: the language has no closed terms")
    if n == 0:
        return []
    level: list[Term] = [
        Numeral(0) if c == sig.zero else Const(c) for c in sig.constants
    ]
    by_depth: dict[int, list[Term]] = {1: list(level)}
    all_terms: list[Term] = list(level)
    depth = 1
    while len(all_terms) < n:
        depth += 1
        fresh: list[Term] = []
        for fn, arity in sig.functions:
            for combo in _arg_combos(by_depth, depth - 1, arity):
                fresh.append(_canon(sig, App(fn, combo)))
        if not fresh:
            break  # finite language
        fresh.sort(key=lambda t: _term_sort_key(sig, t))
        by_depth[depth] = fresh
        all_terms.extend(fresh)
    return all_terms[:n]


def _arg_combos(
    by_depth: dict[int, list[Term]], max_depth: int, arity: int
) -> Iterator[tuple[Term, ...]]:
    """Argument tuples whose maximum depth is exactly ``max_depth``."""
    pools: list[Term] = []
    for d in range(1, max_depth + 1):
        pools.extend(by_depth.get(d, []))
    if not by_depth.get(max_depth):
        return

    def rec(i: int, used_deep: bool, acc: list[Term]) -> Iterator[tuple[Term, ...]]:
        if i == arity:
            if used_deep:
                yield tuple(acc)
            return
        for t in pools:
            acc.append(t)
            yield from rec(i + 1, used_deep or term_depth(t) == max_depth, acc)
            acc.pop()
    yield from rec(0, False, [])


# ---------------------------------------------------------------------------
# Parsing


_TOKEN = re.compile(
    r"\s*(?:(?P<arrow>->)|(?P<darrow>=>)|(?P<ident>[A-Za-z_][A-Za-z0-9_']*)"
    r"|(?P<num>\d+)|(?P<sym>[~(),=])|(?P<bad>\S))"
)


@dataclass(slots=True)
class _Tok:
    kind: str
    text: str
    pos: int


def _tokenize(text: str) -> list[_Tok]:
    toks: list[_Tok] = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m or m.end() == pos and not m.lastgroup:
            break
        if m.lastgroup == "bad":
            raise ParseError(f"unexpected character '{m.group('bad')}'", m.start("bad"))
        if m.lastgroup is None:
            break
        toks.append(_Tok(m.lastgroup, m.group(m.lastgroup), m.start(m.lastgroup)))
        pos = m.end()
    return toks


class _Parser:
    def __init__(
        self,
        text: str,
        sig: Signature,
        bound: Optional[set[str]] = None,
        open_quotes: bool = False,
        lenient: bool = False,
    ):
        self.text = text
        self.sig = sig
        self.toks = _tokenize(text)
        self.i = 0
        self.bound: set[str] = set(bound or ())
        self.open_quotes = open_quotes
        self.lenient = lenient

    def peek(self) -> Optional[_Tok]:
        return self.toks[self.i] if self.i < len(self.toks) else None

    def next(self) -> _Tok:
        t = self.peek()
        if t is None:
            raise ParseError("unexpected end of input", len(self.text))
        self.i += 1
        return t

    def expect(self, text: str) -> _Tok:
        t = self.next()
        if t.text != text:
            raise ParseError(f"expected '{text}' but found '{t.text}'", t.pos)
        return t

    def at_end(self) -> bool:
        return self.i >= len(self.toks)

    # formula := cond
    # cond    := unary ('->' cond)?
    # unary   := '~' unary | 'Ex' var? unary | atom | '(' formula ')'
    def formula(self) -> Formula:
        lhs = self.unary()
        t = self.peek()
        if t is not None and t.kind == "arrow":
            self.next()
            return Cond(lhs, self.formula())
        return lhs

    def unary(self) -> Formula:
        t = self.peek()
        if t is None:
            raise ParseError("expected a formula", len(self.text))
        if t.text == "~":
            self.next()
            return Neg(self.unary())
        if t.kind == "ident" and t.text == "Ex":
            self.next()
            return self.quantified()
        if t.text == "(":
            self.next()
            f = self.formula()
            self.expect(")")
            return f
        if t.kind == "ident":
            return self.atom()
        raise ParseError(f"unexpected token '{t.text}' in formula", t.pos)

    def quantified(self) -> Formula:
        t = self.peek()
        if t is None:
            raise ParseError("expected a variable or formula after 'Ex'", len(self.text))
        # the identifier after 'Ex' is the binder unless it is a declared
        # predicate (then the binder was omitted and defaults to x)
        var = "x"
        is_body_start = (
            t.kind != "ident" or self.sig.predicate_arity(t.text) is not None
        )
        if not is_body_start:
            var = self.next().text
            if self.sig.is_constant(var) or self.sig.function_arity(var) is not None:
                raise ParseError(f"cannot bind declared symbol '{var}'", t.pos)
        was_bound = var in self.bound
        self.bound.add(var)
        try:
            body = self.unary()
        finally:
            if not was_bound:
                self.bound.discard(var)
        return Exists(var, body)

    def atom(self) -> Formula:
        t = self.next()
        name, pos = t.text, t.pos
        arity = self.sig.predicate_arity(name)
        args: tuple[Term, ...] = ()
        if self.peek() is not None and self.peek().text == "(":
            args = self.term_args()
        if arity is None:
            if not self.lenient:
                raise UnknownSymbolError(name, pos)
            self.sig.add_predicate(name, len(args))
            arity = len(args)
        if len(args) != arity:
            raise ParseError(
                f"predicate '{name}' expects {arity} argument(s), got {len(args)}", pos
            )
        return Atom(name, args)

    def term_args(self) -> tuple[Term, ...]:
        self.expect("(")
        args: list[Term] = []
        if self.peek() is not None and self.peek().text != ")":
            args.append(self.term())
            while self.peek() is not None and self.peek().text == ",":
                self.next()
                args.append(self.term())
        self.expect(")")
        return tuple(args)

    def term(self) -> Term:
        t = self.next()
        if t.kind == "num":
            if not self.sig.has_arithmetic:
                raise ParseError("numerals require arithmetic in the signature", t.pos)
            return Numeral(int(t.text))
        if t.kind != "ident":
            raise ParseError(f"expected a term, found '{t.text}'", t.pos)
        name, pos = t.text, t.pos
        if name == "quote":
            self.expect("(")
            body = self.formula()
            self.expect(")")
            if free_vars(body):
                if not (self.open_quotes or free_vars(body) <= self.bound):
                    raise UnknownSymbolError(
                        next(iter(free_vars(body) - self.bound)), pos
                    )
                return Quote(body)
            return self.sig.name_of(body)
        if self.peek() is not None and self.peek().text == "(":
            arity = self.sig.function_arity(name)
            args = self.term_args()
            if arity is None:
                if not self.lenient:
                    raise UnknownSymbolError(name, pos)
                self.sig.add_function(name, len(args))
                arity = len(args)
            if len(args) != arity:
                raise ParseError(
                    f"function '{name}' expects {arity} argument(s), got {len(args)}",
                    pos,
                )
            return _canon(self.sig, App(name, args))
        if name == self.sig.zero:
            return Numeral(0)
        if self.sig.is_constant(name):
            return Const(name)
        if self.lenient and name not in self.bound:
            self.sig.add_constant(name)
            return Const(name)
        return Var(name)


def parse_formula(text: str, sig: Signature, lenient: bool = False) -> Formula:
    """Parse concrete syntax into a Formula.

    Grammar: ``~`` negation, ``->`` conditional (right-associative),
    ``Ex <var>`` existential (the variable may be omitted, defaulting to
    ``x``), predicate application ``P(t1,...,tk)``, parentheses.  Terms
    are identifiers, applications ``f(t,...)``, numerals, and name
    literals ``quote(<formula>)``.  Bare identifiers that are not
    declared constants parse as variables.

    With ``lenient`` on, symbols are declared in the signature on first
    use instead of raising unknown-symbol errors, and unbound bare
    identifiers become constants; used by the command-line surface.
    """
    p = _Parser(text, sig, lenient=lenient)
    f = p.formula()
    if not p.at_end():
        tok = p.peek()
        raise ParseError(f"trailing input '{tok.text}'", tok.pos)
    return f


def parse_term(text: str, sig: Signature) -> Term:
    p = _Parser(text, sig)
    t = p.term()
    if not p.at_end():
        tok = p.peek()
        raise ParseError(f"trailing input '{tok.text}'", tok.pos)
    return t


def _parse_rule_side(text: str, sig: Signature) -> Term:
    p = _Parser(text, sig, open_quotes=True)
    t = p.term()
    if not p.at_end():
        tok = p.peek()
        raise ParseError(f"trailing input '{tok.text}'", tok.pos)
    return t


def load_signature(text: str) -> Signature:
    """Load a signature from its declarative text format.

    Lines: ``const a``, ``fun f/2``, ``pred P/1``, ``arith 0 s``,
    ``name l = <formula>``, ``rewrite <lhs> => <rhs>``.  Blank lines and
    ``#`` comments are ignored.
    """
    sig = Signature()
    pending_names: list[tuple[str, str, int]] = []
    pending_rules: list[tuple[str, int]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        head, _, rest = line.partition(" ")
        rest = rest.strip()
        try:
            if head == "const":
                sig.add_constant(rest)
            elif head == "fun":
                name, _, ar = rest.partition("/")
                sig.add_function(name.strip(), int(ar))
            elif head == "pred":
                name, _, ar = rest.partition("/")
                sig.add_predicate(name.strip(), int(ar))
            elif head == "arith":
                zero, succ = rest.split()
                sig.add_arithmetic(zero, succ)
            elif head == "name":
                const, _, formula_text = rest.partition("=")
                const = const.strip()
                if const not in sig._symbols:
                    sig.add_constant(const)
                pending_names.append((const, formula_text.strip(), lineno))
            elif head == "rewrite":
                pending_rules.append((rest, lineno))
            else:
                raise SignatureError(f"unknown directive '{head}'")
        except SyntaxError_ as e:
            raise SignatureError(f"line {lineno}: {e}") from e
    for const, formula_text, lineno in pending_names:
        try:
            sig.declare_name(const, parse_formula(formula_text, sig))
        except SyntaxError_ as e:
            raise SignatureError(f"line {lineno}: {e}") from e
    for rule_text, lineno in pending_rules:
        lhs_text, sep, rhs_text = rule_text.partition("=>")
        if not sep:
            raise SignatureError(f"line {lineno}: rewrite needs '=>'")
        try:
            sig.add_rewrite(
                _parse_rule_side(lhs_text.strip(), sig),
                _parse_rule_side(rhs_text.strip(), sig),
            )
        except SyntaxError_ as e:
            raise SignatureError(f"line {lineno}: {e}") from e
    return sig
