import json
from collections import Counter
from fractions import Fraction as F

import pytest

from mqlogic import calculus, multiset, syntax
from mqlogic.calculus import (
    ADDITIVE,
    MULTIPLICATIVE,
    CheckError,
    Derivation,
    SequentFamily,
    SlotRef,
    UniformFamily,
    Verdict,
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
from mqlogic.multiset import OMEGA, FormulaFamily, Sequent, formula_reader, parse_sequent
from mqlogic.semantics import Valuation, sequent_sound
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
    free_vars,
    load_signature,
    normalize_formula,
    parse_formula,
)
from test_check_reports import drawn_derivations


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


def test_depth_below_one_rejected(lsig):
    tl = _tl(lsig)
    leaf = Sequent.make(lsig, ant=[(tl, 1)], suc=[(tl, 1)])
    with pytest.raises(CheckError, match="depth must be >= 1"):
        check_instance(lsig, "Init", [], leaf, depth=0)


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

    @pytest.mark.parametrize(
        "rule, premise, conclusion",
        [
            ("TL", "~Ex x T(l), T(c) |-", "T(c), T(l) |-"),
            ("TR", "|- ~Ex x T(l), T(c)", "|- T(c), T(l)"),
        ],
        ids=["TL", "TR"],
    )
    def test_unnamed_truth_atom_is_passed_over(self, lsig, rule, premise, conclusion):
        """Without a principal, T(c) (c names no sentence) is a candidate
        that does not fit, and the search goes on to T(l)."""
        lsig.add_constant("c")
        premises = [parse_sequent(premise, lsig)]
        concl = parse_sequent(conclusion, lsig)
        assert check_instance(lsig, rule, premises, concl) == Verdict(True)
        tc = Atom("T", (Const("c"),))
        assert check_instance(lsig, rule, premises, concl, principal=tc) == Verdict(
            False, "term c does not normalize to a canonical name"
        )

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

    @pytest.mark.parametrize(
        "build", [lambda: prop1_derivation(k=4), prop3_derivation], ids=["prop1", "prop3"]
    )
    def test_builtin_json_is_a_fixed_point(self, build):
        built = build()
        data = json.loads(json.dumps(derivation_to_json(built.derivation)))
        assert derivation_to_json(derivation_from_json(data, built.sig)) == data

    def test_drawn_json_is_a_fixed_point(self):
        for d, sig, _ in drawn_derivations():
            data = json.loads(json.dumps(derivation_to_json(d)))
            assert derivation_to_json(derivation_from_json(data, sig)) == data


def _formula_texts(node) -> set:
    """Every formula text in a derivation's JSON."""
    if isinstance(node, list):
        return set().union(*map(_formula_texts, node))
    texts = set()
    if isinstance(node, dict):
        for key, value in node.items():
            if key in ("ant", "suc"):
                texts.update(text for text, _ in value)
            elif key == "formula":
                texts.add(value)
            else:
                texts |= _formula_texts(value)
    return texts


def _fresh_reader(sig):
    """A reader that parses and normalises every text afresh."""

    def read(text):
        f = parse_formula(text, sig)
        return f, normalize_formula(f, sig)

    return read


class TestFormulaTable:
    """A load parses and normalises each distinct formula text once."""

    # The premise is read before the root's sequent, while q0 is undeclared,
    # so its T(q0) is open.  The root's quote(~T(0)) then names ~T(0) q0
    # (code 1), and the root's T(q0), the same text, is closed.
    QUOTED = {
        "seq": {"ant": [["T(quote(~T(0)))", 1], ["T(q0)", 1]], "suc": [["T(q0)", 1]]},
        "rule": "Init",
        "premises": [{"seq": {"ant": [["T(q0)", 1]], "suc": [["T(q0)", 1]]}, "rule": "Init"}],
    }

    def test_a_name_declared_mid_load_is_seen(self, monkeypatch):
        sig = truth_coding_signature()
        loaded = derivation_from_json(self.QUOTED, sig)
        monkeypatch.setattr(calculus, "formula_reader", _fresh_reader)
        fresh_sig = truth_coding_signature()
        fresh = derivation_from_json(self.QUOTED, fresh_sig)
        assert json.dumps(derivation_to_json(loaded)) == json.dumps(derivation_to_json(fresh))
        report = check_derivation(loaded, sig)
        assert report.dumps() == check_derivation(fresh, fresh_sig).dumps()
        [premise] = loaded.premises
        assert free_vars(premise.conclusion.suc.support()[0]) == {"q0"}
        assert loaded.conclusion.suc.support() == [Atom("T", (Numeral(1),))]

    def test_each_distinct_text_is_parsed_once(self, monkeypatch):
        built = prop1_derivation(k=4)
        data = json.loads(json.dumps(derivation_to_json(built.derivation)))
        parsed = Counter()
        parse = multiset.parse_formula

        def counting(text, sig, **kwargs):
            parsed[text] += 1
            return parse(text, sig, **kwargs)

        monkeypatch.setattr(multiset, "parse_formula", counting)
        derivation_from_json(data, built.sig)
        assert set(parsed.values()) == {1}
        assert set(parsed) == _formula_texts(data)


class TestSlotReferences:
    """A slot reference names an earlier slot: offset 0 would let a slot
    be its own premise, and a negative offset a later slot."""

    @staticmethod
    def truth_teller_json(offset: int) -> dict:
        # Ex x B |- T(t)^w from the template B |- T(t) by TR, where t = T(t)
        step = {
            "seq": {"ant": [["B", 1]], "suc": [["T(t)", 1]]},
            "rule": "TR",
            "principal": {"formula": "T(t)"},
            "premises": [{"slotRef": offset}],
        }
        return {
            "seq": {"ant": [["Ex x B", 1]], "suc": [["T(t)", "w"]]},
            "rule": "ExistsLw",
            "principal": {"formula": "Ex x B"},
            "family": {"var": "n", "start": 0, "template": step},
        }

    @pytest.mark.parametrize("offset", [0, -1])
    def test_offset_below_one_rejected(self, offset):
        sig = load_signature("pred B/0\npred T/1\nname t = T(t)\n")
        with pytest.raises(CheckError, match="offset must be >= 1"):
            SlotRef(offset)
        with pytest.raises(CheckError, match="offset must be >= 1"):
            derivation_from_json(self.truth_teller_json(offset), sig)

    def test_circular_conclusion_is_unsound(self):
        """Why the circular derivation must not check: its conclusion fails
        at B = 1, T(t) = 0, a fixed point of t's naming."""
        sig = load_signature("pred B/0\npred T/1\nname t = T(t)\n")
        t_of_t = Atom("T", (Const("t"),))
        v = Valuation(sig, atom_values={Atom("B", ()): F(1), t_of_t: F(0)})
        seq = Sequent.from_json(self.truth_teller_json(1)["seq"], sig, formula_reader(sig))
        assert not sequent_sound(v, seq)


# Over pred P/1 and const a, n and k are variables, so P(n) is open.
OPEN_SIG = "pred P/1\nconst a\n"
OPEN_EXISTS_RIGHT = {
    "seq": {"ant": [], "suc": [["Ex x P(n)", 1]]},
    "rule": "ExistsRw",
    "premises": [{"seq": {"ant": [], "suc": [["P(n)", "w"]]}, "rule": "Init"}],
}
OPEN_EXISTS_LEFT = {
    "seq": {"ant": [["Ex x P(n)", 1]], "suc": []},
    "rule": "ExistsLw",
    "principal": {"formula": "Ex x P(n)"},
    "family": {
        "var": "k",
        "start": 0,
        "template": {"seq": {"ant": [["P(n)", 1]], "suc": []}, "rule": "Init"},
    },
}


SLOT_PAST_TERMS = {
    "seq": {
        "ant": [["Ex x P(x)", 1]],
        "suc": [],
        "sucFams": [{"var": "n", "start": 0, "formula": "P(n)"}],
    },
    "rule": "ExistsLw",
    "principal": {"formula": "Ex x P(x)"},
    "family": {
        "var": "n",
        "start": 0,
        "template": {"seq": {"ant": [["P(n)", 1]], "suc": [["P(n)", 1]]}, "rule": "Init"},
    },
}


class TestOpenMembers:
    """Derivation sides may hold open formulas; the checker judges a node
    over them rather than raising."""

    def test_vacuous_right_rule_over_an_open_body(self):
        sig = load_signature(OPEN_SIG)
        body = Atom("P", (Var("n"),))
        premise = Sequent.make(sig, suc=[(body, OMEGA)])
        conclusion = Sequent.make(sig, suc=[(Exists("x", body), 1)])
        verdict = check_instance(sig, "ExistsRw", [premise], conclusion)
        assert isinstance(verdict, Verdict) and verdict.ok

    @pytest.mark.parametrize(
        "data", [OPEN_EXISTS_RIGHT, OPEN_EXISTS_LEFT], ids=["exists-right", "exists-left"]
    )
    def test_derivation_fails_at_its_init_premise(self, data):
        sig = load_signature(OPEN_SIG)
        report = check_derivation(derivation_from_json(data, sig), sig)
        assert not report.ok
        assert [(n.rule, n.ok) for n in report.per_node] == [
            (data["rule"], True), ("Init", False)
        ]


class TestFamilySlots:
    def test_family_slot_past_the_closed_terms_fails_its_node(self):
        # over the one constant a, slot 0 is P(a) |- P(a) and slot 1 has no
        # closed term to instantiate at
        sig = load_signature(OPEN_SIG)
        report = check_derivation(derivation_from_json(SLOT_PAST_TERMS, sig), sig)
        assert not report.ok
        assert [(n.path, n.ok) for n in report.per_node] == [
            ("root", True), ("root.fam[0]", True), ("root.fam[1]", False)
        ]
        assert report.per_node[-1].message == (
            "family slot 1 exceeds the closed terms of the signature"
        )
        assert report.family_spot_checks == [("root", 0, True), ("root", 1, False)]

    def test_family_slot_without_constants_fails_its_node(self):
        # with no constant there is no closed term at all, so slot 0 fails
        sig = load_signature("pred P/1\n")
        report = check_derivation(derivation_from_json(SLOT_PAST_TERMS, sig), sig)
        assert not report.ok
        assert [(n.path, n.ok) for n in report.per_node] == [
            ("root", True), ("root.fam[0]", False)
        ]
        assert report.per_node[-1].message == (
            "family slot 0 exceeds the closed terms of the signature"
        )
        assert report.family_spot_checks == [("root", 0, False)]


def _slot_past_terms_with(template_seq=None, **family):
    data = json.loads(json.dumps(SLOT_PAST_TERMS))
    if template_seq is not None:
        data["family"]["template"]["seq"] = template_seq
    data["family"].update(family)
    return data


# an explicit slot or a template whose succedent holds a family
NESTED_FAMILY = {"var": "m", "start": 0, "formula": "P(m)"}


class TestFamilyStructure:
    """Each way a family's structure can be ill-formed fails its node with
    its own message."""

    @pytest.mark.parametrize(
        "sig_text, data, path, message",
        [
            (
                OPEN_SIG,
                _slot_past_terms_with({"ant": [["Ex n P(n)", 1]], "suc": [["Ex n P(n)", 1]]}),
                "root",
                "family index 'n' rebound by a quantifier in the template",
            ),
            (
                OPEN_SIG,
                {"seq": {"ant": [["P(a)", 1]], "suc": [["P(a)", 1]]}, "rule": "Init",
                 "premises": [{"slotRef": 1}]},
                "root",
                "slot reference outside a family template",
            ),
            (
                "pred B/0\npred T/1\nname t = T(t)\n",
                TestSlotReferences.truth_teller_json(1),
                "root.fam[0]",
                "slot reference before the first slot",
            ),
            (
                OPEN_SIG,
                _slot_past_terms_with(
                    {"ant": [["P(n)", 1]], "suc": [["P(n)", 1]], "sucFams": [NESTED_FAMILY]}
                ),
                "root",
                "nested families in a premise template",
            ),
            (
                OPEN_SIG,
                _slot_past_terms_with(start=1, explicit=[{
                    "seq": {"ant": [["P(a)", 1]], "suc": [], "sucFams": [NESTED_FAMILY]},
                    "rule": "Init",
                }]),
                "root",
                "explicit premise slots must be family-free",
            ),
            (
                OPEN_SIG,
                _slot_past_terms_with({"ant": [["P(n)", 1]], "suc": [["P(n)", "w"]]}),
                "root",
                "index-dependent context needs finite multiplicity",
            ),
        ],
        ids=[
            "rebound-index", "slot-ref-outside", "slot-ref-before-first",
            "nested-template", "explicit-slot-family", "omega-index-context",
        ],
    )
    def test_fails_its_node(self, sig_text, data, path, message):
        sig = load_signature(sig_text)
        report = check_derivation(derivation_from_json(data, sig), sig)
        assert not report.ok
        failed = report.per_node[-1]
        assert (failed.path, failed.ok, failed.message) == (path, False, message)


class TestSlotTable:
    """One check normalises each family-slot instance once and keeps it in
    a table keyed by the family and the signature's constant count."""

    @pytest.mark.parametrize("k", [64, 128])
    def test_prop1_checks_at_depth(self, k):
        built = prop1_derivation(k)
        assert check_derivation(built.derivation, built.sig, MULTIPLICATIVE, k).ok

    def test_normalisations_grow_linearly_with_depth(self, monkeypatch):
        calls = Counter()
        normalize = syntax.normalize_formula

        def counting(f, sig):
            calls["n"] += 1
            return normalize(f, sig)

        for module in (syntax, multiset, calculus):
            monkeypatch.setattr(module, "normalize_formula", counting)
        counts = []
        for k in (32, 64, 128):
            built = prop1_derivation(k)
            calls.clear()
            assert check_derivation(built.derivation, built.sig, MULTIPLICATIVE, k).ok
            counts.append(calls["n"])
        assert all(b <= 2.5 * a for a, b in zip(counts, counts[1:])), counts

    def test_two_families_in_one_residual(self):
        # Q(s(n)) covers 1, 2, ...; Q(z(n)) sorts after it and covers only 0,
        # so the instance at 0 is found in the second family's own slots
        sig = load_signature("arith 0 s\nfun z/1\npred Q/1\nrewrite z(x) => 0\n")
        n = Var("n")
        successors = FormulaFamily("n", 0, _q(App("s", (n,))))
        zeros = FormulaFamily("n", 0, _q(App("z", (n,))))
        conclusion = Sequent.make(sig, suc=[(Exists("x", _q(Var("x"))), 1)])
        premise = Sequent.make(sig, suc_families=[zeros, successors])
        assert premise.suc.families == (successors, zeros)
        assert check_instance(sig, "ExistsRw", [premise], conclusion).ok
        premise = Sequent.make(sig, suc_families=[successors])
        verdict = check_instance(sig, "ExistsRw", [premise], conclusion)
        assert verdict == Verdict(
            False, "instance at closed term 0 is not covered by the premise family"
        )

    def test_a_new_constant_moves_the_slots(self):
        # without arithmetic a slot's term comes from the enumeration, which
        # a name created mid-check extends: slot 1 becomes the new constant
        sig = load_signature("const a\nfun f/1\npred Q/1\n")
        checker = calculus._RuleChecker(sig, MULTIPLICATIVE, 3)
        fam = FormulaFamily("n", 0, _q(Var("n")))
        a = Const("a")
        fa = App("f", (a,))
        at = checker._slot_forms(fam)
        assert [at(s) for s in range(3)] == [_q(a), _q(fa), _q(App("f", (fa,)))]
        q0 = sig.name_of(_q(a))
        at = checker._slot_forms(fam)
        assert [at(s) for s in range(3)] == [_q(a), _q(q0), _q(fa)]

    # normalising g(t) names P(t): a new constant that moves the enumeration
    QUOTING_SIG = "const a\nfun g/1\nfun h/1\npred P/1\npred Q/1\nrewrite g(x) => quote(P(x))\n"
    # SLOT_PAST_TERMS over Q: Ex x Q(x) |- Q(n)[n>=0] from Q(n) |- Q(n)
    EXISTS_LEFT_OVER_Q = json.loads(json.dumps(SLOT_PAST_TERMS).replace("P(", "Q("))

    @pytest.mark.parametrize("depth", [2, 4, 8])
    @pytest.mark.parametrize("rules", ["quoting", "rule-free"])
    def test_names_created_mid_check_move_spot_checks_and_slots_alike(self, depth, rules):
        sig_text = self.QUOTING_SIG
        if rules == "rule-free":
            sig_text = sig_text.replace("rewrite g(x) => quote(P(x))\n", "")
        sig = load_signature(sig_text)
        for _ in range(2):  # a fresh signature, then the same one reused
            data = self.EXISTS_LEFT_OVER_Q
            report = check_derivation(derivation_from_json(data, sig), sig, MULTIPLICATIVE, depth)
            assert report.ok, [n.message for n in report.per_node if not n.ok]
        assert (len(sig.constants) > 1) == (rules == "quoting")

    @pytest.mark.parametrize("depth", [2, 4, 8])
    def test_names_created_mid_check_keep_exists_right_covered(self, depth):
        sig = load_signature(self.QUOTING_SIG)
        premise = Sequent.make(sig, suc_families=[FormulaFamily("n", 0, _q(Var("n")))])
        conclusion = Sequent.make(sig, suc=[(Exists("x", _q(Var("x"))), 1)])
        for _ in range(2):
            verdict = check_instance(sig, "ExistsRw", [premise], conclusion, depth=depth)
            assert verdict == Verdict(True)


def _q(t):
    return Atom("Q", (t,))


ARITH_SIG = "arith 0 s\npred P/1\npred Q/1\npred R/2\n"


class TestInstanceMatching:
    """ExistsRw reads instance families and explicit instances by their
    structure, through every connective of the body."""

    @pytest.mark.parametrize(
        "body, template",
        [
            ("~P(x)", "~P(n)"),
            ("(P(x) -> Q(x))", "P(n) -> Q(n)"),
            ("Ex y R(x, y)", "Ex y R(n, y)"),
        ],
        ids=["neg", "cond", "exists"],
    )
    def test_family_of_instances_through_a_connective(self, body, template):
        sig = load_signature(ARITH_SIG)
        family = FormulaFamily("n", 0, parse_formula(template, sig))
        premise = Sequent.make(sig, suc_families=[family])
        conclusion = Sequent.make(sig, suc=[(parse_formula(f"Ex x {body}", sig), 1)])
        assert check_instance(sig, "ExistsRw", [premise], conclusion) == Verdict(True)

    def test_explicit_instance_past_the_spot_check_prefix(self):
        # the witness 50 is found in the instance itself: no spot-checked
        # term or small numeral reaches it
        sig = load_signature(ARITH_SIG)
        family = FormulaFamily("n", 0, parse_formula("P(n)", sig))
        premise = Sequent.make(sig, suc=[(parse_formula("P(50)", sig), 1)], suc_families=[family])
        conclusion = Sequent.make(sig, suc=[(parse_formula("Ex x P(x)", sig), 1)])
        assert check_instance(sig, "ExistsRw", [premise], conclusion, depth=4) == Verdict(True)


# Ex x Ex z R(x, z) |- (Ex y R(n, y))[n>=0], whose template holds a family
# over m in a premise: each slot instantiates it, and the side it concludes
NESTED_FAMILIES = {
    "seq": {
        "ant": [["Ex x Ex z R(x, z)", 1]],
        "suc": [],
        "sucFams": [{"var": "n", "start": 0, "formula": "Ex y R(n, y)"}],
    },
    "rule": "ExistsLw",
    "principal": {"formula": "Ex x Ex z R(x, z)"},
    "family": {"var": "n", "start": 0, "template": {
        "seq": {"ant": [["Ex z R(n, z)", 1]], "suc": [["Ex y R(n, y)", 1]]},
        "rule": "ExistsRw",
        "premises": [{
            "seq": {
                "ant": [["Ex z R(n, z)", 1]],
                "suc": [],
                "sucFams": [{"var": "m", "start": 0, "formula": "R(n, m)"}],
            },
            "rule": "ExistsLw",
            "principal": {"formula": "Ex z R(n, z)"},
            "family": {"var": "m", "start": 0, "template": {
                "seq": {"ant": [["R(n, m)", 1]], "suc": [["R(n, m)", 1]]}, "rule": "Init",
            }},
        }],
    }},
}


def test_template_with_a_nested_family_instantiates_per_slot():
    sig = load_signature(ARITH_SIG)
    report = check_derivation(derivation_from_json(NESTED_FAMILIES, sig), sig, depth=2)
    assert report.ok, [n.message for n in report.per_node if not n.ok]
    assert [(n.path, n.sequent) for n in report.per_node[1:]] == [
        ("root.fam[0]", "Ex z R(0, z) |- Ex y R(0, y)"),
        ("root.fam[0].0", "Ex z R(0, z) |- R(0, m)[m>=0]"),
        ("root.fam[0].0.fam[0]", "R(0, 0) |- R(0, 0)"),
        ("root.fam[0].0.fam[1]", "R(0, 1) |- R(0, 1)"),
        ("root.fam[1]", "Ex z R(1, z) |- Ex y R(1, y)"),
        ("root.fam[1].0", "Ex z R(1, z) |- R(1, m)[m>=0]"),
        ("root.fam[1].0.fam[0]", "R(1, 0) |- R(1, 0)"),
        ("root.fam[1].0.fam[1]", "R(1, 1) |- R(1, 1)"),
    ]
