"""Builtin signatures and derivations for the canned experiments.

Two constructions are provided:

* ``prop3_derivation``: over a signature with a single constant naming a
  negated vacuously-quantified truth atom, derives the empty-antecedent
  sequent refuting that sentence.  Checkable under the multiplicative
  vacuous-quantification policy; under the additive policy the final
  omega-copies step fails.

* ``prop1_derivation``: over an arithmetic signature with a truth-coding
  function pair, derives both the per-numeral refutations of the iterated
  truth sentence (desk-scale omega-inconsistency witnesses) and the final
  empty-antecedent sequent refuting its existential closure.
"""

from __future__ import annotations

from dataclasses import dataclass

from .calculus import Derivation, SlotRef, UniformFamily
from .multiset import OMEGA, FormulaFamily, Sequent
from .syntax import (
    App,
    Atom,
    Const,
    Exists,
    Neg,
    Numeral,
    Quote,
    Signature,
    Term,
    Var,
)


@dataclass(frozen=True)
class BuiltinDerivation:
    sig: Signature
    derivation: Derivation
    witnesses: tuple[Sequent, ...] = ()


# ---------------------------------------------------------------------------
# Self-referential name over a bare truth signature


def liar_signature() -> Signature:
    """Signature with one constant ``l`` naming ``~Ex x T(l)``."""
    sig = Signature()
    target = Neg(Exists("x", Atom("T", (Const("l"),))))
    sig.declare_name("l", target)
    return sig


def prop3_derivation() -> BuiltinDerivation:
    """The omega-copies derivation of ``|- ~Ex x T(l)``.

    Two premise families (all slots identical), one truth-introduction on
    each side, and the omega-copies right-quantifier step in the middle.
    """
    sig = liar_signature()
    l = Const("l")
    tl = Atom("T", (l,))
    ex_tl = Exists("x", tl)
    nex_tl = Neg(ex_tl)
    mk = Sequent.make

    leaf = Derivation(mk(sig, ant=[(tl, 1)], suc=[(tl, 1)]), "Init", principal=tl)
    fam1 = UniformFamily("n", 0, leaf)
    n2 = Derivation(
        mk(sig, ant=[(ex_tl, 1)], suc=[(tl, OMEGA)]),
        "ExistsLw",
        family=fam1,
        principal=ex_tl,
    )
    n3 = Derivation(
        mk(sig, suc=[(nex_tl, 1), (tl, OMEGA)]), "NegR", (n2,), principal=nex_tl
    )
    n4 = Derivation(mk(sig, suc=[(tl, OMEGA)]), "TR", (n3,), principal=tl)
    n5 = Derivation(mk(sig, suc=[(ex_tl, 1)]), "ExistsRw", (n4,), principal=ex_tl)
    n6 = Derivation(mk(sig, ant=[(nex_tl, 1)]), "NegL", (n5,), principal=nex_tl)
    n7 = Derivation(mk(sig, ant=[(tl, 1)]), "TL", (n6,), principal=tl)
    fam2 = UniformFamily("k", 0, n7)
    n8 = Derivation(
        mk(sig, ant=[(ex_tl, 1)]), "ExistsLw", family=fam2, principal=ex_tl
    )
    n9 = Derivation(mk(sig, suc=[(nex_tl, 1)]), "NegR", (n8,), principal=nex_tl)
    return BuiltinDerivation(sig, n9)


# ---------------------------------------------------------------------------
# Iterated truth coding over arithmetic


def truth_coding_signature() -> Signature:
    """Arithmetic signature with the coding pair: a one-place name-of-truth
    function and a two-place iterator, plus a self-referential name ``mu``
    for the negated existential closure of the iterated truth atom."""
    sig = Signature()
    sig.add_arithmetic("0", "s")
    sig.add_function("fm", 2)
    sig.add_function("tdot", 1)
    mu = Const("mu")
    target = Neg(Exists("x", Atom("T", (App("fm", (Var("x"), mu)),))))
    sig.declare_name("mu", target)
    sig.add_rewrite(App("fm", (Numeral(0), Var("y"))), Var("y"), "fm.zero")
    sig.add_rewrite(
        App("fm", (App("s", (Var("n"),)), Var("y"))),
        App("tdot", (App("fm", (Var("n"), Var("y"))),)),
        "fm.succ",
    )
    sig.add_rewrite(
        App("tdot", (Var("t"),)), Quote(Atom("T", (Var("t"),))), "tdot.name"
    )
    return sig


def prop1_derivation(k: int = 8) -> BuiltinDerivation:
    """The derivation tree ending in ``|- ~Ex x T(fm(x, mu))``.

    The left-quantifier premise family is uniform in the numeral index
    (each slot derived by Init then truth-introduction, with the coding
    equations absorbed by normalisation); the closing family of
    refutations ``T(fm(i, mu)) |-`` is inductive, each slot applying the
    truth-elimination rule to the previous one.  ``k`` only sizes the
    witness list exposed for inspection.
    """
    sig = truth_coding_signature()
    mu = Const("mu")

    def fm(t: Term) -> Atom:
        return Atom("T", (App("fm", (t, mu)),))

    x = Var("x")
    body = fm(x)
    ex_body = Exists("x", body)
    neg_ex = Neg(ex_body)
    mk = Sequent.make

    n = Var("n")
    succ_n = App("s", (n,))
    leaf = Derivation(
        mk(sig, ant=[(fm(n), 1)], suc=[(fm(n), 1)]), "Init", principal=fm(n)
    )
    step = Derivation(
        mk(sig, ant=[(fm(n), 1)], suc=[(fm(succ_n), 1)]),
        "TR",
        (leaf,),
        principal=fm(succ_n),
    )
    fam1 = UniformFamily("n", 0, step)
    tail_family = FormulaFamily("n", 0, fm(succ_n))
    e1 = Derivation(
        mk(sig, ant=[(ex_body, 1)], suc_families=[tail_family]),
        "ExistsLw",
        family=fam1,
        principal=ex_body,
    )
    e2 = Derivation(
        mk(sig, suc=[(neg_ex, 1)], suc_families=[tail_family]),
        "NegR",
        (e1,),
        principal=neg_ex,
    )
    e3 = Derivation(
        mk(sig, suc=[(fm(Numeral(0)), 1)], suc_families=[tail_family]),
        "TR",
        (e2,),
        principal=fm(Numeral(0)),
    )
    e4 = Derivation(
        mk(sig, suc=[(ex_body, 1)]), "ExistsRw", (e3,), principal=ex_body
    )
    e5 = Derivation(mk(sig, ant=[(neg_ex, 1)]), "NegL", (e4,), principal=neg_ex)
    e6 = Derivation(
        mk(sig, ant=[(fm(Numeral(0)), 1)]), "TL", (e5,), principal=fm(Numeral(0))
    )

    m = Var("m")
    tl_step = Derivation(
        mk(sig, ant=[(fm(m), 1)]), "TL", (SlotRef(1),), principal=fm(m)
    )
    fam2 = UniformFamily("m", 1, tl_step, (e6,))
    e7 = Derivation(
        mk(sig, ant=[(ex_body, 1)]), "ExistsLw", family=fam2, principal=ex_body
    )
    e8 = Derivation(mk(sig, suc=[(neg_ex, 1)]), "NegR", (e7,), principal=neg_ex)

    witnesses = tuple(
        mk(sig, ant=[(fm(Numeral(i)), 1)]) for i in range(k + 1)
    )
    return BuiltinDerivation(sig, e8, witnesses)
