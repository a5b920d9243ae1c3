"""The eager closed-term enumeration that the tests check
``enumerate_closed_terms`` against: it builds every term of each depth,
sorts the depth by an explicit order key, and truncates at the end."""

from itertools import product

from mqlogic.syntax import (
    App,
    Const,
    Numeral,
    Quote,
    Signature,
    SignatureError,
    Term,
    Var,
    _canon,
)


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


def _fn_index(sig: Signature, fn: str) -> int:
    return [f for f, _ in sig.functions].index(fn)


def term_sort_key(sig: Signature, t: Term):
    """Depth, then symbol declaration order, then the arguments left to
    right."""
    if isinstance(t, Const):
        return (1, (sig.constants.index(t.name),))
    if isinstance(t, Numeral):
        if t.value == 0:
            return (1, (sig.constants.index(sig.zero),))
        sub = term_sort_key(sig, Numeral(t.value - 1))
        return (t.value + 1, (_fn_index(sig, sig.succ), sub))
    if isinstance(t, App):
        subs = tuple(term_sort_key(sig, a) for a in t.args)
        return (term_depth(t), (_fn_index(sig, t.fn),) + subs)
    raise TypeError(f"cannot order term: {t!r}")


def enumerate_closed_terms_eager(sig: Signature, n: int) -> list[Term]:
    if not sig.constants:
        raise SignatureError("no constants: the language has no closed terms")
    all_terms: list[Term] = [
        Numeral(0) if c == sig.zero else Const(c) for c in sig.constants
    ]
    depth = 1
    while len(all_terms) < n:
        fresh: list[Term] = [
            _canon(sig, App(fn, args))
            for fn, arity in sig.functions
            for args in product(all_terms, repeat=arity)
            if any(term_depth(a) == depth for a in args)
        ]
        if not fresh:
            break  # finite language
        depth += 1
        fresh.sort(key=lambda t: term_sort_key(sig, t))
        all_terms.extend(fresh)
    return all_terms[:n]
