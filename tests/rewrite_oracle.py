"""The outermost rewriting oracle that the tests check ``normalize_term``
against."""

from typing import Optional

from mqlogic.syntax import (
    App,
    Signature,
    Term,
    _Budget,
    _canon,
    _step_root,
    term_is_closed,
)


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
