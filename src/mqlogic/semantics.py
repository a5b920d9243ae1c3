"""Continuum-valued evaluation of sentences and sequents.

Values are exact rationals in [0, 1].  The existential quantifier comes in
two modes: ``sup`` takes the supremum over the closed-term instances and
``sum`` the clamped infinite series over them.  The instance family over
the (countably infinite) closed-term enumeration is represented exactly as
a finite explicit part plus a constant tail, so series either reduce to a
finite sum or diverge and clamp to 1.

Each clause is written once, in a formula walker over a small value
algebra: ``eval_formula`` and ``sequent_sound`` run it over integer
numerators and ``piecewise.eval_parametric`` over affine functions of
one unknown atom value, one cell of [0, 1] at a time.  The value clauses
(negation, the conditional, the existential, side sums and sequent
soundness) add, subtract and compare, and take the unit ``one``: ``ONE``
for rationals, or an integer scale for integer numerators over it.
Every clause maps multiples of 1/scale to multiples of 1/scale, so
evaluation over the lcm of the valuation's denominators (and a sampler
over the lcm of what it drew) is exact.

Over integers, an existential walks its tail instance first and its
explicit instances only as ``exists_value`` reads them: a sum-mode one
returns 1 on a positive tail without collecting them, or stops once their
sum reaches 1, and a sup-mode one returns 1 on a tail of 1, or stops at
the first instance of value 1.  It does so only where no skipped walk
could raise or create a name (``_EvalState``), and walks every instance,
explicit ones first, everywhere else.

Normal forms are memoised by the signature alone.  An evaluation keeps
the valuation's relevant terms and, where it stops early, one memo: the
value of each subformula per binding of its own free variables, so a
subformula under a binder that it does not mention is walked once per
instance of the binders it does mention.  Every other atom visit
resolves its value afresh.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field, replace
from fractions import Fraction
from math import lcm
from typing import Any, Callable, Iterable, Iterator, Optional

from .multiset import OMEGA, Multiplicity, Sequent, SequentSide
from .syntax import (
    Atom,
    Cond,
    Const,
    Env,
    Exists,
    Formula,
    Neg,
    Signature,
    SyntaxError_,
    Term,
    _IDENT,
    _without,
    atom_args,
    constant_weight,
    directives,
    free_vars,
    normalize_formula,
    normalize_term,
    parse_formula,
    render_formula,
    render_term,
    substitute_term,
    subterms,
    term_is_closed,
    term_vars,
    term_weight,
)

ZERO = Fraction(0)
ONE = Fraction(1)


class SemanticsError(Exception):
    """Base class for evaluation failures."""


class OpenFormulaError(SemanticsError):
    pass


class UngroundedError(SemanticsError):
    """Transparent unfolding exhausted its budget: a liar-like cycle."""


class ValuationError(SemanticsError):
    """A malformed line in a valuation file: an input error."""


def unit(q, one=ONE):
    """``q`` checked to lie in [0, ``one``]."""
    if not (0 <= q <= one):
        raise ValueError(f"value out of [0,1]: {q}")
    return q


def _unit_fraction(v) -> Fraction:
    """``v`` as a Fraction checked to lie in [0, 1]; a Fraction in that
    range is returned as it is."""
    if type(v) is Fraction and 0 <= v <= 1:
        return v
    return unit(Fraction(v))


# ---------------------------------------------------------------------------
# Valuations


SUP = "sup"
SUM = "sum"

_TAIL_CONST = Const("$tail")


@dataclass
class Valuation:
    """Finite description of a valuation on the closed atoms.

    ``atom_values`` fixes finitely many closed atoms; every other atom
    takes its predicate's default (0 unless configured).  ``mode`` selects
    the quantifier clause.  With ``transparent`` on, truth atoms over
    canonical names evaluate as the named sentence, unfolding at most
    ``unfold_budget`` times.  ``unknown`` designates one atom whose value
    is left symbolic for parametric evaluation.
    """

    sig: Signature
    mode: str = SUM
    atom_values: dict[Formula, Fraction] = field(default_factory=dict)
    predicate_defaults: dict[str, Fraction] = field(default_factory=dict)
    transparent: bool = False
    unfold_budget: int = 64
    unknown: Optional[Formula] = None

    def __post_init__(self) -> None:
        if self.mode not in (SUP, SUM):
            raise ValueError(f"mode must be '{SUP}' or '{SUM}'")
        normalized: dict[Formula, Fraction] = {}
        for atom, v in self.atom_values.items():
            if not isinstance(atom, Atom) or free_vars(atom):
                raise ValueError(f"atom map keys must be closed atoms: {atom!r}")
            normalized[normalize_formula(atom, self.sig)] = _unit_fraction(v)
        self.atom_values = normalized
        self.predicate_defaults = {
            p: _unit_fraction(v) for p, v in self.predicate_defaults.items()
        }
        if self.unknown is not None:
            self.unknown = normalize_formula(self.unknown, self.sig)

    def default_of(self, pred: str) -> Fraction:
        return self.predicate_defaults.get(pred, ZERO)

    def with_unknown_assigned(self, value: Fraction) -> "Valuation":
        """Resolve the designated unknown atom to a concrete value."""
        if self.unknown is None:
            raise ValueError("no unknown atom designated")
        atoms = dict(self.atom_values)
        atoms[self.unknown] = unit(value)
        return replace(self, atom_values=atoms, unknown=None)


_Keyed = dict[int, tuple[str, ...]]  # id of a keyed node -> its free variables


class _EvalState:
    """What one evaluation carries: the unfolding budget and the memos that
    die with it.  Normal forms come from the signature's memo.

    With ``keyed`` given, an existential walks its tail first and its
    explicit instances only as ``exists_value`` reads them (see
    ``_instances``), so that an existential of either mode skips the walks
    its value no longer depends on.  ``evaluate`` gives it only when a
    skipped or reordered walk could neither raise nor change what a later
    walk sees, so that the values, the errors and the names created are
    those of walking every instance, explicit ones first:

    - no unknown is designated, since the integer algebra raises at it;
    - the valuation is not transparent, or the sentence has no truth
      atom, so no walk unfolds, spends budget or raises UngroundedError;
    - every rewrite step makes a closed term lighter (``constant_weight``),
      so no rule has a quote right side that could create a name, and a
      term normalises in fewer steps than its weight, through terms no
      heavier than itself;
    - no term the evaluation can build is heavy enough to come near the
      step budget or the recursion limit.  An instance is a subterm of an
      atom-map key or of an atom argument under the instances bound
      outside it, so weighing each variable as the heaviest such term,
      once per binder level, bounds every term a walk normalises or
      renders; that bound plus the sentence's depth must stay under a
      thirty-second of the recursion limit.

    Those conditions make every walk pure as well: it reads no unknown,
    unfolds nothing, creates no name and spends no budget, so a node's
    value depends on nothing but the values of its own free variables.
    ``keyed`` (from ``_shape``) maps each node whose free variables are a
    strict subset of the variables bound above it to those free
    variables, and ``memo`` keeps the value of each such node per binding
    of them: ``Ex x Ex y (P(x) -> Q(y))`` walks ``P(x)`` once per instance
    of ``x``, not once per pair.  Only such a node can be reached twice
    under one binding of its own variables.  Without ``keyed`` there is
    no memo, and every instance is walked, explicit ones first.
    """

    __slots__ = ("valuation", "unfolds_left", "valuation_terms", "keyed", "memo")

    def __init__(self, valuation: Valuation, keyed: Optional[_Keyed] = None) -> None:
        self.valuation = valuation
        self.unfolds_left = valuation.unfold_budget
        self.keyed = keyed
        # (id of a keyed node, the values of its free variables) -> its value
        self.memo: dict[tuple, Any] = {}
        # (normal forms seen, representatives) of the atom-map keys and the
        # unknown; computed at the first quantifier
        self.valuation_terms: Optional[tuple[set[Term], list[Term]]] = None

    def atom_key(self, atom: Atom) -> Formula:
        """``normalize_formula`` of a closed atom."""
        sig = self.valuation.sig
        return Atom(atom.pred, tuple(normalize_term(t, sig) for t in atom.args))


def _visit(
    state: _EvalState, terms: Iterable[Term], seen: set[Term], out: list[Term]
) -> None:
    """Append each closed subterm of ``terms`` whose normal form is not
    yet in ``seen``: the first-seen representative of each normal form."""
    sig = state.valuation.sig
    for t in terms:
        for sub in subterms(t):
            if not term_is_closed(sub):
                continue
            nf = normalize_term(sub, sig)
            if nf not in seen:
                seen.add(nf)
                out.append(sub)


def _relevant_terms(state: _EvalState, body: Formula, env: Env) -> list[Term]:
    """Closed terms that can distinguish an instance from the tail:
    subterms of atom-map keys, of the unknown and of the body under
    ``env``, deduplicated by normal form and sorted by rendering."""
    if state.valuation_terms is None:
        valuation = state.valuation
        atoms = list(valuation.atom_values)
        if valuation.unknown is not None:
            atoms.append(valuation.unknown)
        seen: set[Term] = set()
        out: list[Term] = []
        _visit(state, (arg for atom in atoms for arg in atom.args), seen, out)
        state.valuation_terms = (seen, out)
    seen, out = state.valuation_terms
    seen, out = set(seen), list(out)
    _visit(state, atom_args(body, env), seen, out)
    out.sort(key=render_term)
    return out


# ---------------------------------------------------------------------------
# The semantic clauses, written once over a value algebra


def exists_value(explicit: Iterable, tail, mode: str, one=ONE):
    """The existential over an instance family (explicit values plus the
    common value of every other instance): the supremum, or the clamped
    series, which diverges as soon as the tail is positive.  Neither reads
    an explicit value once its value is 1: the supremum stops at a tail or
    at the first explicit value equal to 1, the series at the explicit
    value at which it reaches 1."""
    if mode == SUP:
        if tail == one:
            return one
        best = tail
        for v in explicit:
            if v == one:
                return one
            if v > best:
                best = v
        return best
    if tail > 0:
        return one
    return side_sum(((v, 1) for v in explicit), one=one)


def neg_value(a, one=ONE):
    return one - a


def cond_value(a, b, one=ONE):
    return one if a <= b else one - a + b


def _no_unknown() -> Fraction:
    raise SemanticsError("atom has a symbolic value; use parametric evaluation")


@dataclass(frozen=True)
class ValueAlgebra:
    """What the formula walker needs from a value domain: atom values
    lifted from rationals, the value of the designated unknown atom, and
    the unit ``one`` that the value clauses take.  A domain's values mix
    with plain numbers under +, - and the comparisons."""

    constant: Callable[[Fraction], Any]
    unknown: Callable[[], Any]
    one: Any


def _scaled(valuation: Valuation) -> tuple[ValueAlgebra, int]:
    """The algebra of integer numerators over one scale, and that scale:
    the lcm of the denominators in the valuation's maps."""
    one = lcm(
        *(q.denominator for q in valuation.atom_values.values()),
        *(q.denominator for q in valuation.predicate_defaults.values()),
    )
    constant = lambda q: q.numerator * (one // q.denominator)
    return ValueAlgebra(constant, _no_unknown, one), one


def _walk(alg: ValueAlgebra, state: _EvalState, f: Formula, env: Env):
    """Value of ``f`` with its free variables read from ``env``; a keyed
    node is walked once per binding of its free variables."""
    if state.keyed is not None:
        names = state.keyed.get(id(f))
        if names is not None:
            key = (id(f), *[env[x] for x in names])
            value = state.memo.get(key)
            if value is None:
                value = state.memo[key] = _node_value(alg, state, f, env)
            return value
    return _node_value(alg, state, f, env)


def _node_value(alg: ValueAlgebra, state: _EvalState, f: Formula, env: Env):
    """Value of ``f`` under ``env`` by its semantic clause."""
    valuation = state.valuation
    if isinstance(f, Atom):
        atom = Atom(f.pred, tuple(substitute_term(a, env) for a in f.args)) if env else f
        key = state.atom_key(atom)
        if valuation.unknown is not None and key == valuation.unknown:
            return alg.unknown()
        if valuation.transparent and f.pred == "T" and f.args:
            named = valuation.sig.named_formula(key.args[0])
            if named is not None:
                if state.unfolds_left <= 0:
                    raise UngroundedError(
                        f"transparent unfolding exhausted at {render_formula(atom)}"
                    )
                state.unfolds_left -= 1
                return _walk(alg, state, named, {})
        q = valuation.atom_values.get(key)
        return alg.constant(valuation.default_of(f.pred) if q is None else q)
    if isinstance(f, Neg):
        return neg_value(_walk(alg, state, f.body, env), alg.one)
    if isinstance(f, Cond):
        a = _walk(alg, state, f.lhs, env)
        return cond_value(a, _walk(alg, state, f.rhs, env), alg.one)
    if isinstance(f, Exists):
        explicit, tail = _instances(alg, state, f.body, f.var, env)
        return exists_value(explicit, tail, valuation.mode, alg.one)
    raise TypeError(f"not a formula: {f!r}")


def _instances(
    alg: ValueAlgebra, state: _EvalState, body: Formula, var: str, env: Env
) -> tuple[Iterable, Any]:
    """The values of the instances of ``Ex var body`` under ``env``: one
    per relevant term, and the common value of every other instance.
    With ``keyed`` the tail is walked first, and the explicit instances
    only as they are read."""
    env = _without(env, var)
    if state.keyed is None:
        vacuous = var not in free_vars(body)
    else:  # a vacuous binder's body is keyed, since ``var`` is bound above it
        names = state.keyed.get(id(body))
        vacuous = names is not None and var not in names
    if state.keyed is not None or not vacuous:
        # with ``keyed`` a vacuous binder's every instance is the tail
        explicit = () if vacuous else _explicit_values(alg, state, body, var, env)
        if state.keyed is None:
            explicit = list(explicit)
        return explicit, _walk(alg, state, body, {**env, var: _TAIL_CONST})
    # A vacuous binder: every instance is the same walk.  Walk once and
    # charge what the other walks would spend; if the budget cannot cover
    # them, make them, so that it runs out at the same atom.
    terms = _relevant_terms(state, body, env)
    before = state.unfolds_left
    value = _walk(alg, state, body, env)
    repeat_cost = (before - state.unfolds_left) * len(terms)
    if repeat_cost <= state.unfolds_left:
        state.unfolds_left -= repeat_cost
    else:
        for _ in terms:
            _walk(alg, state, body, env)
    return [value] * len(terms), value


def _explicit_values(
    alg: ValueAlgebra, state: _EvalState, body: Formula, var: str, env: Env
) -> Iterator:
    """The value of each relevant instance, walked as it is read."""
    for t in _relevant_terms(state, body, env):
        yield _walk(alg, state, body, {**env, var: t})


def evaluate(valuation: Valuation, f: Formula, alg: ValueAlgebra):
    """Value of a sentence in the algebra's domain.

    Raises OpenFormulaError on free variables and UngroundedError when
    transparent unfolding cycles past its budget.
    """
    if free_vars(f):
        raise OpenFormulaError(f"not a sentence: {render_formula(f)}")
    return _walk(alg, _EvalState(valuation, _pure_walk_keys(valuation, f)), f, {})


def _pure_walk_keys(valuation: Valuation, f: Formula) -> Optional[_Keyed]:
    """When no instance walk in the sentence ``f`` can raise or create a
    name, so that walking instances lazily and once per binding is exact,
    the memo's keyed nodes (see ``_EvalState``); otherwise None."""
    const_weight = constant_weight(valuation.sig)
    if valuation.unknown is not None or not const_weight:
        return None
    args: list[Term] = []
    keyed: _Keyed = {}
    depth, binders, truth, _ = _shape(f, args, frozenset(), keyed)
    if not binders or (truth and valuation.transparent):
        return None
    heaviest = max(
        [const_weight]  # the tail constant
        + [term_weight(t, const_weight) for atom in valuation.atom_values for t in atom.args]
    )
    for _ in range(binders + 1):
        heaviest = max([heaviest] + [term_weight(t, const_weight, heaviest) for t in args])
    if 32 * (depth + heaviest) > sys.getrecursionlimit():
        return None
    return keyed


def _shape(
    f: Formula, args: list[Term], bound: frozenset[str], keyed: _Keyed
) -> tuple[int, int, bool, frozenset[str]]:
    """The depth of ``f``, its deepest nesting of binders, whether it has a
    truth atom, and its free variables.  Appends its atom arguments to
    ``args``, and keys each node whose free variables are a strict subset
    of ``bound``, the variables bound above it: ``keyed`` maps its id to
    its free variables."""
    if isinstance(f, Atom):
        args.extend(f.args)
        # in a sentence, what no binder is above has no free variable
        free = frozenset().union(*map(term_vars, f.args)) if bound else frozenset()
        shape = 1, 0, f.pred == "T", free
    elif isinstance(f, Cond):
        d1, b1, t1, v1 = _shape(f.lhs, args, bound, keyed)
        d2, b2, t2, v2 = _shape(f.rhs, args, bound, keyed)
        shape = 1 + max(d1, d2), max(b1, b2), t1 or t2, v1 | v2
    elif isinstance(f, Neg):
        depth, binders, truth, free = _shape(f.body, args, bound, keyed)
        shape = 1 + depth, binders, truth, free
    else:
        depth, binders, truth, free = _shape(f.body, args, bound | {f.var}, keyed)
        shape = 1 + depth, binders + 1, truth, free - {f.var}
    if shape[3] < bound:
        keyed[id(f)] = tuple(shape[3])
    return shape


def eval_formula(valuation: Valuation, f: Formula) -> Fraction:
    """Exact value of a sentence under the valuation."""
    alg, one = _scaled(valuation)
    return unit(Fraction(evaluate(valuation, f, alg), one))


# ---------------------------------------------------------------------------
# Sequent evaluation


def side_sum(
    entries: Iterable[tuple[Any, Multiplicity]], negate: bool = False, one=ONE
):
    """min(1, sum of the values, or of 1 - value with ``negate``), copies
    counted.  Omega copies of a positive term diverge and clamp to 1.
    Reads no entry past the one at which the sum reaches 1."""
    total = ZERO if one is ONE else 0  # rationals in, a rational out
    for v, m in entries:
        if negate:
            v = one - v
        if v < 0:
            raise ValueError("extended sums are nonnegative")
        if m is OMEGA:
            if v > 0:
                return one
        else:
            total += v if m == 1 else v * m
            if total >= one:
                return one
    return total


def value_sequent_sound(
    ant: Iterable[tuple[Any, Multiplicity]],
    suc: Iterable[tuple[Any, Multiplicity]],
    one=ONE,
) -> bool:
    """Soundness over member values: 1 - side_sum(ant, negate) <= side_sum(suc)."""
    return one - side_sum(ant, True, one) <= side_sum(suc, one=one)


def _side_values(valuation: Valuation, side: SequentSide, alg: ValueAlgebra, one):
    """Member values of a side, copies kept, as numerators over ``one``."""
    if side.families:
        raise SemanticsError("sequent carries omega-indexed families")
    return [(unit(evaluate(valuation, f, alg), one), m) for f, m in side.items()]


def eval_antecedent(valuation: Valuation, gamma: SequentSide) -> Fraction:
    """1 - min(1, sum of (1 - value) over the antecedent, copies counted).

    An omega-multiplicity formula below value 1 makes the inner series
    diverge (result 0); at value exactly 1 it contributes nothing.
    """
    alg, one = _scaled(valuation)
    gaps = side_sum(_side_values(valuation, gamma, alg, one), True, one)
    return Fraction(one - gaps, one)


def eval_succedent(valuation: Valuation, delta: SequentSide) -> Fraction:
    """min(1, sum of values over the succedent, copies counted)."""
    alg, one = _scaled(valuation)
    return Fraction(side_sum(_side_values(valuation, delta, alg, one), one=one), one)


def sequent_sound(valuation: Valuation, s: Sequent) -> bool:
    """Whether antecedent value <= succedent value under the valuation."""
    return eval_antecedent(valuation, s.ant) <= eval_succedent(valuation, s.suc)


# ---------------------------------------------------------------------------
# The series inequality behind the omega-premise left rule


@dataclass(frozen=True)
class TailSeq:
    """An omega-sequence of unit values: explicit prefix + constant tail,
    in the unit ``one``."""

    explicit: tuple
    tail: Any
    one: Any = ONE

    def __post_init__(self) -> None:
        values = (*self.explicit, self.tail)
        unit(min(values), self.one)
        unit(max(values), self.one)

    def prefix(self, n: int) -> tuple:
        """The first ``n`` values."""
        return (self.explicit + (self.tail,) * n)[:n]

    def entries(self) -> list:
        """Side entries: each explicit value once, the tail omega times."""
        return [(v, 1) for v in self.explicit] + [(self.tail, OMEGA)]


def hypothesis_bound(g, c, one=ONE):
    """The least d_i for which index i of the omega-premise left rule's
    hypothesis holds: 1 - min(1, (1-g_i) + (1-c_i))."""
    return one - min(one, (one - g) + (one - c))


@dataclass(frozen=True)
class SeriesCheck:
    hypothesis_explicit: tuple[bool, ...]
    hypothesis_tail: bool
    conclusion_holds: bool
    lhs: Any  # in the unit of the checked sequences
    rhs: Any

    @property
    def hypothesis_all(self) -> bool:
        return all(self.hypothesis_explicit) and self.hypothesis_tail


def check_lemma1_instance(
    gamma: TailSeq, chi: TailSeq, delta: TailSeq, mode: str = SUM
) -> SeriesCheck:
    """Check one instance of the series inequality used by the omega-premise
    left rule.

    Hypothesis at index i: 1 - min(1, (1-g_i) + (1-c_i)) <= d_i.
    Conclusion: 1 - min(1, sum(1-g_i) + (1 - min(1, sum c_i))) <= min(1, sum d_i),
    with the three series evaluated exactly: the soundness of the sequent
    gamma, Ex chi |- delta under the ``mode`` quantifier clause (sum c_i
    is sup c_i under the sup clause).  The three sequences must share one
    unit.
    """
    one = gamma.one
    if chi.one != one or delta.one != one:
        raise ValueError("the sequences must share one unit")
    n = max(len(gamma.explicit), len(chi.explicit), len(delta.explicit))
    hyp = tuple(
        hypothesis_bound(g, c, one) <= d
        for g, c, d in zip(gamma.prefix(n), chi.prefix(n), delta.prefix(n))
    )
    hyp_tail = hypothesis_bound(gamma.tail, chi.tail, one) <= delta.tail
    ex_chi = exists_value(list(chi.explicit), chi.tail, mode, one)
    lhs = one - side_sum(gamma.entries() + [(ex_chi, 1)], True, one)
    rhs = side_sum(delta.entries(), one=one)
    return SeriesCheck(hyp, hyp_tail, lhs <= rhs, lhs, rhs)


def load_valuation(text: str, sig: Optional[Signature] = None) -> Valuation:
    """Load a valuation from its text format.

    Lines: ``mode sum|sup``, ``default P = p/q``, ``atom P(a) = p/q``,
    ``transparent on|off``, ``unknown T(l)``, each at most once (per
    predicate or per atom's normal form).  Blank lines and ``#`` comments
    are ignored.  Without an explicit signature, symbols are inferred from
    use (atoms declare predicates, bare identifiers become constants);
    with one, a default names a declared predicate.
    """
    lenient = sig is None
    sig = Signature() if lenient else sig
    mode = SUM
    atom_values: dict[Formula, Fraction] = {}
    atom_lines: list[tuple[Formula, int]] = []
    defaults: dict[str, Fraction] = {}
    transparent = False
    unknown: Optional[Formula] = None

    def read_atom(text: str, directive: str) -> Formula:
        try:
            atom = parse_formula(text, sig, lenient=lenient)
        except SyntaxError_ as e:
            raise ValueError(f"{e} in '{text}'") from e
        if not isinstance(atom, Atom):
            raise ValueError(f"{directive} takes a single atom")
        return atom

    once: set[str] = set()  # the heads of the lines given at most once
    for lineno, head, rest, _ in directives(text):
        try:
            if head in ("mode", "transparent", "unknown"):
                if head in once:
                    raise ValueError(f"a second {head} line")
                once.add(head)
            if head == "mode":
                if rest not in (SUP, SUM):
                    raise ValueError(f"mode must be '{SUP}' or '{SUM}'")
                mode = rest
            elif head == "default":
                pred, _, value = rest.partition("=")
                pred = pred.strip()
                if not _IDENT.match(pred):
                    raise ValueError(f"default takes a predicate name, not '{pred}'")
                if not lenient and sig.predicate_arity(pred) is None:
                    raise ValueError(f"unknown predicate '{pred}'")
                if pred in defaults:
                    raise ValueError(f"a second default line for '{pred}'")
                defaults[pred] = unit(Fraction(value.strip()))
            elif head == "atom":
                atom_text, _, value = rest.partition("=")
                atom = read_atom(atom_text.strip(), "atom")
                atom_values[atom] = unit(Fraction(value.strip()))
                atom_lines.append((atom, lineno))
            elif head == "transparent":
                if rest not in ("on", "off"):
                    raise ValueError("transparent takes on|off")
                transparent = rest == "on"
            elif head == "unknown":
                unknown = read_atom(rest, "unknown")
            else:
                raise ValueError(f"unknown directive '{head}'")
        except (ValueError, ZeroDivisionError) as e:
            raise ValuationError(f"valuation line {lineno}: {e}") from e
    valuation = Valuation(
        sig,
        mode=mode,
        atom_values=atom_values,
        predicate_defaults=defaults,
        transparent=transparent,
        unknown=unknown,
    )
    if len(valuation.atom_values) < len(atom_lines):  # two lines share a normal form
        seen: set[Formula] = set()
        for atom, lineno in atom_lines:
            key = normalize_formula(atom, sig)
            if key in seen:
                msg = f"a second atom line for {render_formula(key)}"
                raise ValuationError(f"valuation line {lineno}: {msg}")
            seen.add(key)
    return valuation


def value_to_json(value: Fraction) -> dict:
    return {"value": str(value)}


def lemma1_conclusion_finite_oracle(
    gamma: TailSeq, chi: TailSeq, delta: TailSeq
) -> Optional[bool]:
    """Naive finite-sum recomputation of the conclusion inequality.

    Only defined when all three series converge (every tail contribution
    vanishes); returns None otherwise.  Independent of ``side_sum``: plain
    rational sums and comparisons, whatever unit the sequences are in.
    """
    one = gamma.one
    if gamma.tail != one or chi.tail != 0 or delta.tail != 0:
        return None
    g, c, d = ([Fraction(v, one) for v in s.explicit] for s in (gamma, chi, delta))
    s_gaps = sum((1 - v for v in g), Fraction(0))
    s_chi = sum(c, Fraction(0))
    s_delta = sum(d, Fraction(0))
    lhs = 1 - min(Fraction(1), s_gaps + (1 - min(Fraction(1), s_chi)))
    rhs = min(Fraction(1), s_delta)
    return lhs <= rhs
