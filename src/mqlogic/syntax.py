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
from dataclasses import dataclass
from itertools import islice, product
from typing import Callable, Iterator, Optional, TypeVar


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


Term = Var | Const | Numeral | App | Quote


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


Formula = Atom | Neg | Cond | Exists


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


Env = dict[str, Term]  # variables to the terms that replace them


def _without(env: Env, var: str) -> Env:
    if var not in env:
        return env
    return {x: t for x, t in env.items() if x != var}


def substitute_term(t: Term, env: Env) -> Term:
    """``t`` with each variable of ``env`` replaced by its term."""
    if isinstance(t, Var):
        return env.get(t.name, t)
    if isinstance(t, App):
        return App(t.fn, tuple(substitute_term(a, env) for a in t.args))
    if isinstance(t, Quote):
        return Quote(_subst(t.body, env))
    return t


def substitute(f: Formula, x: str, t: Term) -> Formula:
    """Replace every free occurrence of variable ``x`` in ``f`` by ``t``.

    ``t`` must be closed, so no alpha-renaming is ever needed; bound
    occurrences are shielded by their binder.
    """
    if not term_is_closed(t):
        raise ValueError("substitution requires a closed term")
    return _subst(f, {x: t})


def _subst(f: Formula, env: Env) -> Formula:
    """``f`` with the free occurrences of each variable of ``env`` replaced
    by its term; a binder shields its own variable."""
    if isinstance(f, Atom):
        return Atom(f.pred, tuple(substitute_term(a, env) for a in f.args))
    if isinstance(f, Neg):
        return Neg(_subst(f.body, env))
    if isinstance(f, Cond):
        return Cond(_subst(f.lhs, env), _subst(f.rhs, env))
    if isinstance(f, Exists):
        inner = _without(env, f.var)
        return Exists(f.var, _subst(f.body, inner)) if inner else f
    raise TypeError(f"not a formula: {f!r}")


def atom_args(f: Formula, env: Env) -> Iterator[Term]:
    """The atom arguments of ``f`` under ``env``; a nested binder shields
    its variable, as ``_subst`` stops at it."""
    if isinstance(f, Atom):
        for arg in f.args:
            yield substitute_term(arg, env)
    elif isinstance(f, Neg):
        yield from atom_args(f.body, env)
    elif isinstance(f, Cond):
        yield from atom_args(f.lhs, env)
        yield from atom_args(f.rhs, env)
    elif isinstance(f, Exists):
        yield from atom_args(f.body, _without(env, f.var))


def term_weight(t: Term, const_weight: int, var_weight: int = 1) -> int:
    """The symbols of ``t``, counting a numeral n as the n + 1 symbols of
    its zero/successor tower and a constant and a variable as the given
    weights."""
    if isinstance(t, App):
        return 1 + sum(term_weight(a, const_weight, var_weight) for a in t.args)
    if isinstance(t, Numeral):
        return t.value + 1
    if isinstance(t, Const):
        return const_weight
    if isinstance(t, Var):
        return var_weight
    raise TypeError(f"no weight for {t!r}")


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

    The rule index and the constant weight are derived from the rule set
    and the successor symbol; ``_rules_changed`` drops them whenever
    either changes.  It drops the normal-form memo too, the package's one
    cache of normal forms, unless the new rule's left side is a constant
    that is no memo key, such as a new name's code rule.  Such a rule
    changes no entry: it can change only a run that visits the constant,
    and ``_normalize_in`` memoises every term it visits.
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
        self._rule_index: Optional[dict[object, tuple[RewriteRule, ...]]] = None
        self._normal_forms: dict[Term, tuple[Term, int]] = {}
        self._const_weight: Optional[int] = None

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
        # the key holds the new code when the sentence mentions ``const``
        n_codes, n_rules = len(self._name_code), len(self._rewrites)
        self._assign_code(const)
        key = normalize_formula(formula, self)
        if key in self._name_of_formula:
            self._drop_codes(n_codes, n_rules)
            raise SignatureError(
                f"formula already named by '{self._name_of_formula[key]}'"
            )
        self._named_formula[const] = formula
        self._name_of_formula[key] = const
        return Const(const)

    def _drop_codes(self, n_codes: int, n_rules: int) -> None:
        """Forget the codes and rules added since there were ``n_codes``
        and ``n_rules`` of them, with the names created on the way, so
        that a rejected declaration leaves no code, rule or name behind."""
        for name in list(self._name_code)[n_codes:]:
            del self._code_name[self._name_code.pop(name)]
            key = self._named_formula.pop(name, None)
            if key is not None:  # created by name_of while normalising
                del self._name_of_formula[key]
                self.constants.remove(name)
                self._symbols.remove(name)
        self._rewrites = self._rewrites[:n_rules]
        self._rules_changed()

    def _assign_code(self, const: str) -> None:
        if not self.has_arithmetic:
            return
        code = len(self._name_code)
        self._name_code[const] = code
        self._code_name[code] = const
        self._add_rule(RewriteRule(Const(const), Numeral(code), label=f"code.{const}"))

    def name_of(self, formula: Formula) -> Const:
        """The canonical-name constant of a sentence (memoised)."""
        if free_vars(formula):
            raise SignatureError("only sentences have canonical names")
        key = normalize_formula(formula, self)
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
        nf = normalize_term(t, self)
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
        ``add_rewrite`` so that the derived caches are dropped."""
        return self._rewrites

    def add_rewrite(self, lhs: Term, rhs: Term, label: str = "") -> None:
        rule = RewriteRule(lhs, rhs, label)
        validate_rule(self, rule)
        self._add_rule(rule)

    def _add_rule(self, rule: RewriteRule) -> None:
        self._rewrites += (rule,)
        keeps_memo = isinstance(rule.lhs, Const) and rule.lhs not in self._normal_forms
        self._rules_changed(keeps_memo)

    def _rules_changed(self, keeps_memo: bool = False) -> None:
        self._rule_index = None
        self._const_weight = None
        if not keeps_memo:
            self._normal_forms = {}


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
        return "#const", tuple(atom_args(t.body, {}))
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
        body = _subst(rhs.body, binding)
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


def constant_weight(sig: Signature) -> int:
    """A weight for constants under which every rewrite step makes a closed
    term strictly lighter (``term_weight``), or 0 when the rules admit
    none.  Such a term then normalises in fewer steps than its weight,
    through terms no heavier than itself, and creates no name.

    The weight is one more than the heaviest right side of a rule for a
    constant (validate_rule admits only zero/successor terms there), or
    1 without such rules.  Every right side must then be quote-free,
    repeat no variable and be lighter than its left side, a variable
    weighing 1.  Left sides are linear, so each variable's instance moves
    into the result at most once and the step loses at least what the
    rule loses.  Cached per rule set.
    """
    if sig._const_weight is None:
        rules = sig.rewrites
        weight = 0
        if not any(isinstance(u, Quote) for r in rules for u in subterms(r.rhs)):
            weight = 1 + max(
                (term_weight(r.rhs, 0) for r in rules if isinstance(r.lhs, Const)),
                default=0,
            )
            if not all(
                _is_linear(r.rhs) and term_weight(r.rhs, weight) < term_weight(r.lhs, weight)
                for r in rules
            ):
                weight = 0
        sig._const_weight = weight
    return sig._const_weight


def _is_linear(t: Term) -> bool:
    names = [u.name for u in subterms(t) if isinstance(u, Var)]
    return len(names) == len(set(names))


def _normalize_in(sig: Signature, t: Term, budget: _Budget) -> Term:
    """Innermost-leftmost normalisation, memoised per signature.

    Arguments are normalised by recursion, and the chain of root steps by
    a loop: each term on the chain is looked up in the memo in turn, and
    gets an entry with the steps spent from its lookup on.  A memo hit
    charges the steps the cached run spent, so the budget runs out exactly
    when it would have without the memo.  An entry goes into the memo that
    was current when its term was looked up: if a rule change dropped that
    memo meanwhile, the entry goes with it.
    """
    chain = None  # (term, memo, budget left) at each lookup before the last
    while True:
        memo = sig._normal_forms
        hit = memo.get(t)
        if hit is not None:
            nf, steps = hit
            budget.spend(steps)
            break
        left = budget.left
        nf = _canon(sig, t)
        if isinstance(nf, App):
            nf = _canon(sig, App(nf.fn, tuple(_normalize_in(sig, a, budget) for a in nf.args)))
        r = _step_root(sig, nf, budget, _rules_at_root(sig, nf))
        if r is None:
            memo[t] = (nf, left - budget.left)
            break
        if chain is None:
            chain = []
        chain.append((t, memo, left))
        t = r
    if chain is not None:
        for u, memo, left in reversed(chain):
            memo[u] = (nf, left - budget.left)
    return nf


def normalize_term(t: Term, sig: Signature) -> Term:
    """The unique normal form of a closed term under the coding equations.

    Rewrites innermost-leftmost; idempotent.  Raises StepBudgetError when
    a run needs more than ``sig.max_rewrite_steps`` steps, which signals a
    non-terminating rule set.  Memo hits, all closed, are answered first.
    """
    hit = sig._normal_forms.get(t)
    if hit is not None and hit[1] <= sig.max_rewrite_steps:
        return hit[0]
    if not term_is_closed(t):
        raise ValueError("normalize_term requires a closed term")
    return _normalize_in(sig, t, _Budget(sig.max_rewrite_steps))


def normalize_formula(f: Formula, sig: Signature) -> Formula:
    """Normalise every maximal closed subterm of a formula.

    A signature with no rewrite rule and no arithmetic has nothing to
    rewrite and no successor to fold, so every closed term is already
    normal and ``f`` itself is returned.  The signature is read at each
    call: a later ``add_rewrite`` or ``add_arithmetic`` applies at once."""
    if not sig.rewrites and sig.succ is None and isinstance(f, (Atom, Neg, Cond, Exists)):
        return f

    def fix_term(t: Term) -> Term:
        if term_is_closed(t):
            return normalize_term(t, sig)
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
    terms: list[Term] = [
        Numeral(0) if c == sig.zero else Const(c) for c in sig.constants
    ][:n]
    last = 0  # the index of the first term of the last depth
    while len(terms) < n:
        # The next depth: every argument tuple with an argument at the last
        # depth, the terms from ``last`` on.  ``terms`` is in enumeration
        # order, so ``product`` yields the next depth in that order too, and
        # only the terms wanted are built.
        known = tuple(enumerate(terms))
        fresh = (
            _canon(sig, App(fn, tuple(t for _, t in args)))
            for fn, arity in sig.functions
            for args in product(known, repeat=arity)
            if max(i for i, _ in args) >= last
        )
        terms.extend(islice(fresh, n - len(terms)))
        if len(terms) == len(known):
            break  # finite language
        last = len(known)
    return terms


# ---------------------------------------------------------------------------
# Parsing


# Whitespace matches no token, so ``finditer`` skips it; every other
# character starts a token, if only a ``bad`` one.
_TOKEN = re.compile(
    r"(?P<arrow>->)|(?P<darrow>=>)|(?P<ident>[A-Za-z_][A-Za-z0-9_']*)"
    r"|(?P<num>\d+)|(?P<sym>[~(),=])|(?P<bad>\S)"
)

_Token = tuple[str, str, int]  # kind, text, position


def _tokenize(text: str) -> list[_Token]:
    """The tokens of ``text``, in one pass of the token pattern."""
    toks = [(m.lastgroup, m.group(), m.start()) for m in _TOKEN.finditer(text)]
    for kind, tok, pos in toks:
        if kind == "bad":
            raise ParseError(f"unexpected character '{tok}'", pos)
    return toks


_T = TypeVar("_T")


class _Parser:
    def __init__(
        self,
        text: str,
        sig: Signature,
        open_quotes: bool = False,
        lenient: bool = False,
    ):
        self.text = text
        self.sig = sig
        self.toks = _tokenize(text)
        self.i = 0
        self.bound: set[str] = set()
        self.open_quotes = open_quotes
        self.lenient = lenient

    def peek(self) -> Optional[_Token]:
        return self.toks[self.i] if self.i < len(self.toks) else None

    def peek_text(self) -> Optional[str]:
        return self.toks[self.i][1] if self.i < len(self.toks) else None

    def next(self) -> _Token:
        t = self.peek()
        if t is None:
            raise ParseError("unexpected end of input", len(self.text))
        self.i += 1
        return t

    def expect(self, text: str) -> _Token:
        t = self.next()
        if t[1] != text:
            raise ParseError(f"expected '{text}' but found '{t[1]}'", t[2])
        return t

    def whole(self, parse: Callable[[], _T]) -> _T:
        """What ``parse`` reads, which must be the whole input."""
        result = parse()
        tok = self.peek()
        if tok is not None:
            raise ParseError(f"trailing input '{tok[1]}'", tok[2])
        return result

    # formula := cond
    # cond    := unary ('->' cond)?
    # unary   := '~' unary | 'Ex' var? unary | atom | '(' formula ')'
    def formula(self) -> Formula:
        lhs = self.unary()
        if self.peek_text() == "->":
            self.next()
            return Cond(lhs, self.formula())
        return lhs

    def unary(self) -> Formula:
        t = self.peek()
        if t is None:
            raise ParseError("expected a formula", len(self.text))
        kind, text, pos = t
        if text == "~":
            self.next()
            return Neg(self.unary())
        if kind == "ident" and text == "Ex":
            self.next()
            return self.quantified()
        if text == "(":
            self.next()
            f = self.formula()
            self.expect(")")
            return f
        if kind == "ident":
            return self.atom()
        raise ParseError(f"unexpected token '{text}' in formula", pos)

    def quantified(self) -> Formula:
        t = self.peek()
        if t is None:
            raise ParseError("expected a variable or formula after 'Ex'", len(self.text))
        kind, var, pos = t
        # the identifier after 'Ex' is the binder unless it is a declared
        # predicate (then the binder was omitted and defaults to x)
        if kind != "ident" or self.sig.predicate_arity(var) is not None:
            var = "x"
        else:
            self.next()
            if self.sig.is_constant(var) or self.sig.function_arity(var) is not None:
                raise ParseError(f"cannot bind declared symbol '{var}'", pos)
        was_bound = var in self.bound
        self.bound.add(var)
        try:
            body = self.unary()
        finally:
            if not was_bound:
                self.bound.discard(var)
        return Exists(var, body)

    def atom(self) -> Formula:
        _, name, pos = self.next()
        arity = self.sig.predicate_arity(name)
        args: tuple[Term, ...] = ()
        if self.peek_text() == "(":
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
        if self.peek_text() not in (None, ")"):
            args.append(self.term())
            while self.peek_text() == ",":
                self.next()
                args.append(self.term())
        self.expect(")")
        return tuple(args)

    def term(self) -> Term:
        kind, name, pos = self.next()
        if kind == "num":
            if not self.sig.has_arithmetic:
                raise ParseError("numerals require arithmetic in the signature", pos)
            return Numeral(int(name))
        if kind != "ident":
            raise ParseError(f"expected a term, found '{name}'", pos)
        if name == "quote":
            self.expect("(")
            body = self.formula()
            self.expect(")")
            free = free_vars(body)
            if free and not self.open_quotes:
                raise ParseError(f"quote of an open formula: '{min(free)}' is free", pos)
            return Quote(body) if free else self.sig.name_of(body)
        if self.peek_text() == "(":
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
    return p.whole(p.formula)


def parse_term(text: str, sig: Signature) -> Term:
    p = _Parser(text, sig)
    return p.whole(p.term)


def directives(text: str) -> Iterator[tuple[int, str, str, int]]:
    """(line number, head, rest, column of rest in the line) of each
    directive line of ``text``: ``#`` comments are dropped, blank lines
    skipped, and the head is the line's first word, which a run of blanks
    or tabs ends."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].rstrip()
        words = line.split(None, 1)
        if words:
            rest = words[1] if len(words) == 2 else ""
            yield lineno, words[0], rest, len(line) - len(rest)


def load_signature(text: str) -> Signature:
    """Load a signature from its declarative text format.

    Lines: ``const a``, ``fun f/2``, ``pred P/1``, ``arith 0 s``,
    ``name l = <formula>``, ``rewrite <lhs> => <rhs>``.  Blank lines and
    ``#`` comments are ignored.
    """
    sig = Signature()
    # parsed once every symbol is declared; each text is padded with blanks
    # to its column, so that parse errors give positions in the line
    pending_names: list[tuple[str, str, int]] = []
    pending_rules: list[tuple[str, int, int]] = []
    for lineno, head, rest, column in directives(text):
        try:
            if head == "const":
                sig.add_constant(rest)
            elif head in ("fun", "pred"):
                name, _, ar = rest.partition("/")
                try:
                    arity = int(ar)
                except ValueError:
                    raise SignatureError(f"{head} takes <symbol>/<arity>, got '{rest}'")
                (sig.add_function if head == "fun" else sig.add_predicate)(name.strip(), arity)
            elif head == "arith":
                if len(rest.split()) != 2:
                    raise SignatureError(f"arith takes <zero> <successor>, got '{rest}'")
                sig.add_arithmetic(*rest.split())
            elif head == "name":
                const, _, formula_text = rest.partition("=")
                formula_text = " " * (column + len(const) + 1) + formula_text
                const = const.strip()
                if const not in sig._symbols:
                    sig.add_constant(const)
                pending_names.append((const, formula_text, lineno))
            elif head == "rewrite":
                pending_rules.append((rest, column, lineno))
            else:
                raise SignatureError(f"unknown directive '{head}'")
        except SyntaxError_ as e:
            raise SignatureError(f"line {lineno}: {e}") from e
    for const, formula_text, lineno in pending_names:
        try:
            sig.declare_name(const, parse_formula(formula_text, sig))
        except SyntaxError_ as e:
            raise SignatureError(f"line {lineno}: {e}") from e
    for rule_text, column, lineno in pending_rules:
        lhs_text, sep, rhs_text = rule_text.partition("=>")
        if not sep:
            raise SignatureError(f"line {lineno}: rewrite needs '=>'")
        rhs_text = " " * (column + len(lhs_text) + 2) + rhs_text
        try:
            p = _Parser(" " * column + lhs_text.rstrip(), sig, open_quotes=True)
            lhs = p.whole(p.term)
            p = _Parser(rhs_text, sig, open_quotes=True)
            sig.add_rewrite(lhs, p.whole(p.term))
        except SyntaxError_ as e:
            raise SignatureError(f"line {lineno}: {e}") from e
    return sig
