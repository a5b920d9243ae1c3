import json

import pytest

from mqlogic.calculus import (
    ADDITIVE,
    MULTIPLICATIVE,
    CheckError,
    Derivation,
    SequentFamily,
    UniformFamily,
    check_derivation,
    check_instance,
    derivation_from_json,
    derivation_to_json,
)
from mqlogic.derivations import (
    liar_signature,
    prop1_derivation,
    prop3_derivation,
    truth_coding_signature,
)
from mqlogic.multiset import OMEGA, FormulaFamily, Sequent
from mqlogic.syntax import (
    App,
    Atom,
    Cond,
    Const,
    Exists,
    Neg,
    Numeral,
    Signature,
    Var,
)


@pytest.fixture
def lsig():
    return liar_signature()


def _tl(lsig):
    return Atom("T", (Const("l"),))


class TestPropositionalRules:
    def test_single_init_node(self, lsig):
        tl = _tl(lsig)
        d = Derivation(
            Sequent.make(lsig, ant=[(tl, 1)], suc=[(tl, 1)]), "Init"
        )
        assert check_derivation(d, lsig).ok

    def test_init_requires_shared_formula(self, lsig):
        tl = _tl(lsig)
        d = Derivation(
            Sequent.make(lsig, ant=[(tl, 1)], suc=[(Neg(tl), 1)]), "Init"
        )
        assert not check_derivation(d, lsig).ok

    def test_neg_rules(self, lsig):
        tl = _tl(lsig)
        leaf = Derivation(
            Sequent.make(lsig, ant=[(tl, 1)], suc=[(tl, 1)]), "Init"
        )
        negl = Derivation(
            Sequent.make(lsig, ant=[(tl, 1), (Neg(tl), 1)]),
            "NegL",
            (leaf,),
        )
        assert check_derivation(negl, lsig).ok
        negr = Derivation(
            Sequent.make(lsig, suc=[(tl, 1), (Neg(tl), 1)]),
            "NegR",
            (leaf,),
        )
        assert check_derivation(negr, lsig).ok

    def test_cond_right(self, lsig):
        tl = _tl(lsig)
        leaf = Derivation(
            Sequent.make(lsig, ant=[(tl, 1)], suc=[(tl, 1)]), "Init"
        )
        condr = Derivation(
            Sequent.make(lsig, suc=[(Cond(tl, tl), 1)]), "CondR", (leaf,)
        )
        assert check_derivation(condr, lsig).ok

    def test_cond_left_context_split(self, lsig):
        tl = _tl(lsig)
        ntl = Neg(tl)
        p0 = Derivation(
            Sequent.make(lsig, ant=[(ntl, 1)], suc=[(tl, 1), (ntl, 1)]),
            "Init",
        )
        p1 = Derivation(
            Sequent.make(lsig, ant=[(tl, 2)], suc=[(tl, 1)]), "Init"
        )
        concl = Sequent.make(
            lsig,
            ant=[(Cond(tl, tl), 1), (ntl, 1), (tl, 1)],
            suc=[(ntl, 1), (tl, 1)],
        )
        d = Derivation(concl, "CondL", (p0, p1), principal=Cond(tl, tl))
        assert check_derivation(d, lsig).ok

    def test_wrong_premise_rejected(self, lsig):
        tl = _tl(lsig)
        leaf = Derivation(
            Sequent.make(lsig, ant=[(tl, 1)], suc=[(tl, 1)]), "Init"
        )
        bad = Derivation(
            Sequent.make(lsig, ant=[(Neg(tl), 1)]), "NegL", (leaf,)
        )
        report = check_derivation(bad, lsig)
        assert not report.ok
        assert "expected premise" in report.per_node[0].message

    def test_absent_principal_fails_the_node(self, lsig):
        tl = _tl(lsig)
        leaf = Sequent.make(lsig, ant=[(tl, 1)], suc=[(tl, 1)])
        verdict = check_instance(
            lsig, "NegL", [leaf], Sequent.make(lsig, suc=[(tl, 1)]), principal=Neg(tl)
        )
        assert not verdict.ok
        assert "principal formula ~T(l) does not occur" in verdict.message
        for rule, concl, principal in (
            ("NegR", Sequent.make(lsig, ant=[(tl, 1)]), Neg(tl)),
            ("TR", Sequent.make(lsig, ant=[(tl, 1)]), tl),
            ("TL", Sequent.make(lsig, suc=[(tl, 1)]), tl),
        ):
            verdict = check_instance(lsig, rule, [leaf], concl, principal=principal)
            assert not verdict.ok and "does not occur" in verdict.message, rule


class TestTruthRules:
    def test_tr_and_tl_roundtrip(self, lsig):
        tl = _tl(lsig)
        nex = Neg(Exists("x", tl))
        leaf = Derivation(
            Sequent.make(lsig, ant=[(nex, 1)], suc=[(nex, 1)]), "Init"
        )
        tr = Derivation(
            Sequent.make(lsig, ant=[(nex, 1)], suc=[(tl, 1)]),
            "TR",
            (leaf,),
        )
        assert check_derivation(tr, lsig).ok
        tl_node = Derivation(
            Sequent.make(lsig, ant=[(tl, 1)], suc=[(nex, 1)]),
            "TL",
            (leaf,),
        )
        assert check_derivation(tl_node, lsig).ok

    def test_truth_rules_need_naming(self):
        sig = Signature()
        sig.add_constant("c")
        tc = Atom("T", (Const("c"),))
        leaf = Derivation(
            Sequent.make(sig, ant=[(tc, 1)], suc=[(tc, 1)]), "Init"
        )
        node = Derivation(
            Sequent.make(sig, ant=[(tc, 1)], suc=[(tc, 1)]), "TR", (leaf,)
        )
        report = check_derivation(node, sig)
        assert not report.ok
        assert "naming" in report.per_node[0].message

    def test_non_name_term_rejected(self, lsig):
        tl = _tl(lsig)
        lsig.add_constant("c")
        tc = Atom("T", (Const("c"),))
        leaf = Derivation(
            Sequent.make(lsig, ant=[(tl, 1)], suc=[(tl, 1)]), "Init"
        )
        node = Derivation(
            Sequent.make(lsig, ant=[(tl, 1)], suc=[(tc, 1)]),
            "TR",
            (leaf,),
            principal=tc,
        )
        report = check_derivation(node, lsig)
        assert not report.ok
        assert "canonical name" in report.per_node[0].message

    def test_coding_step(self):
        sig = truth_coding_signature()
        mu = Const("mu")

        def fmT(t):
            return Atom("T", (App("fm", (t, mu)),))

        prem = Sequent.make(
            sig, ant=[(fmT(Numeral(0)), 1)], suc=[(fmT(Numeral(0)), 1)]
        )
        concl = Sequent.make(
            sig, ant=[(fmT(Numeral(0)), 1)], suc=[(fmT(Numeral(1)), 1)]
        )
        assert check_instance(sig, "TR", [prem], concl).ok


class TestOmegaRules:
    def test_exists_left_family_omega_copies(self, lsig):
        tl = _tl(lsig)
        ex = Exists("x", tl)
        fam = SequentFamily(
            "n", 0, Sequent.make(lsig, ant=[(tl, 1)], suc=[(tl, 1)])
        )
        concl = Sequent.make(lsig, ant=[(ex, 1)], suc=[(tl, OMEGA)])
        assert check_instance(
            lsig, "ExistsLw", [], concl, MULTIPLICATIVE, family=fam
        ).ok

    def test_exists_right_policy_matrix(self, lsig):
        tl = _tl(lsig)
        ex = Exists("x", tl)
        prem_w = Sequent.make(lsig, suc=[(tl, OMEGA)])
        prem_1 = Sequent.make(lsig, suc=[(tl, 1)])
        concl = Sequent.make(lsig, suc=[(ex, 1)])
        assert check_instance(lsig, "ExistsRw", [prem_w], concl, MULTIPLICATIVE).ok
        assert not check_instance(lsig, "ExistsRw", [prem_1], concl, MULTIPLICATIVE).ok
        assert check_instance(lsig, "ExistsRw", [prem_1], concl, ADDITIVE).ok
        assert not check_instance(lsig, "ExistsRw", [prem_w], concl, ADDITIVE).ok

    def test_exists_left_single_premise_by_policy(self, lsig):
        tl = _tl(lsig)
        ex = Exists("x", tl)
        prem = Sequent.make(lsig, ant=[(tl, 1)], suc=[(tl, 1)])
        concl = Sequent.make(lsig, ant=[(ex, 1)], suc=[(tl, 1)])
        assert check_instance(lsig, "ExistsLw", [prem], concl, ADDITIVE).ok
        assert not check_instance(lsig, "ExistsLw", [prem], concl, MULTIPLICATIVE).ok

    def test_exists_right_context_transfer(self, lsig):
        tl = _tl(lsig)
        ex = Exists("x", tl)
        extra = Neg(tl)
        prem = Sequent.make(lsig, suc=[(tl, OMEGA), (extra, 1)])
        concl = Sequent.make(lsig, suc=[(ex, 1), (extra, 1)])
        assert check_instance(lsig, "ExistsRw", [prem], concl, MULTIPLICATIVE).ok
        concl_missing = Sequent.make(lsig, suc=[(ex, 1)])
        assert not check_instance(
            lsig, "ExistsRw", [prem], concl_missing, MULTIPLICATIVE
        ).ok

    def test_nonvacuous_right_needs_full_family(self):
        sig = truth_coding_signature()
        mu = Const("mu")

        def fmT(t):
            return Atom("T", (App("fm", (t, mu)),))

        ex = Exists("x", fmT(Var("x")))
        fam = FormulaFamily("n", 0, fmT(App("s", (Var("n"),))))
        prem_full = Sequent.make(
            sig, suc=[(fmT(Numeral(0)), 1)], suc_families=[fam]
        )
        concl = Sequent.make(sig, suc=[(ex, 1)])
        assert check_instance(sig, "ExistsRw", [prem_full], concl).ok
        # dropping the numeral-zero instance breaks the coverage
        prem_partial = Sequent.make(sig, suc_families=[fam])
        verdict = check_instance(sig, "ExistsRw", [prem_partial], concl)
        assert not verdict.ok
        assert "not covered" in verdict.message


class TestBuiltinDerivations:
    def test_prop3_multiplicative(self):
        built = prop3_derivation()
        report = check_derivation(built.derivation, built.sig, MULTIPLICATIVE, 4)
        assert report.ok
        nex = Neg(Exists("x", Atom("T", (Const("l"),))))
        assert built.derivation.conclusion == Sequent.make(
            built.sig, suc=[(nex, 1)]
        )

    def test_prop3_additive_fails_at_right_rule(self):
        built = prop3_derivation()
        report = check_derivation(built.derivation, built.sig, ADDITIVE, 4)
        assert not report.ok
        failing = [n for n in report.per_node if not n.ok]
        assert failing[0].rule == "ExistsRw"

    def test_prop3_has_omega_copies_node(self):
        built = prop3_derivation()
        report = check_derivation(built.derivation, built.sig, MULTIPLICATIVE, 4)
        assert any(n.sequent == " |- T(l)^w" for n in report.per_node)

    def test_prop1_checks_and_certifies_witnesses(self):
        built = prop1_derivation(k=3)
        report = check_derivation(built.derivation, built.sig, MULTIPLICATIVE, 3)
        assert report.ok
        checked = set(report.checked_sequents())
        for witness in built.witnesses:
            assert witness.render() in checked

    def test_prop1_final_sequent(self):
        built = prop1_derivation(k=2)
        expected = Sequent.make(
            built.sig,
            suc=[
                (
                    Neg(
                        Exists(
                            "x", Atom("T", (App("fm", (Var("x"), Const("mu"))),))
                        )
                    ),
                    1,
                )
            ],
        )
        assert built.derivation.conclusion == expected

    def test_prop1_missing_equation_detected(self):
        from mqlogic.derivations import _require_coding
        from mqlogic.syntax import SignatureError

        sig = Signature()
        sig.add_arithmetic("0", "s")
        sig.add_function("fm", 2)
        sig.add_function("tdot", 1)
        sig.declare_name(
            "mu",
            Neg(Exists("x", Atom("T", (App("fm", (Var("x"), Const("mu"))),)))),
        )
        sig.add_rewrite(App("fm", (Numeral(0), Var("y"))), Var("y"), "fm.zero")
        with pytest.raises(SignatureError) as exc:
            _require_coding(sig)
        assert "fm.succ" in str(exc.value)


class TestReports:
    def test_determinism_byte_for_byte(self):
        built = prop3_derivation()
        a = check_derivation(built.derivation, built.sig, MULTIPLICATIVE, 4).dumps()
        built2 = prop3_derivation()
        b = check_derivation(built2.derivation, built2.sig, MULTIPLICATIVE, 4).dumps()
        assert a == b

    def test_failure_reports_node_path(self, lsig):
        tl = _tl(lsig)
        leaf = Derivation(
            Sequent.make(lsig, ant=[(tl, 1)], suc=[(tl, 1)]), "Init"
        )
        bad = Derivation(
            Sequent.make(lsig, ant=[(Neg(tl), 2)]), "NegL", (leaf,)
        )
        outer = Derivation(
            Sequent.make(lsig, suc=[(Neg(Neg(tl)), 1)], ant=[(Neg(tl), 1)]),
            "NegR",
            (bad,),
        )
        report = check_derivation(outer, lsig)
        assert not report.ok
        assert report.per_node[-1].path == "root.0"


class TestJsonRoundTrip:
    def test_prop3_roundtrip(self):
        built = prop3_derivation()
        data = json.loads(json.dumps(derivation_to_json(built.derivation)))
        again = derivation_from_json(data, built.sig)
        assert check_derivation(again, built.sig, MULTIPLICATIVE, 4).ok

    def test_prop1_roundtrip_with_slot_refs(self):
        built = prop1_derivation(k=2)
        data = json.loads(json.dumps(derivation_to_json(built.derivation)))
        again = derivation_from_json(data, built.sig)
        assert check_derivation(again, built.sig, MULTIPLICATIVE, 2).ok

    def test_bad_rule_id_rejected(self, lsig):
        with pytest.raises(CheckError):
            Derivation(Sequent.make(lsig), "Cut")
