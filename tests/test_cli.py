import copy
import json
import os
import random
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from mqlogic.cli import main
from mqlogic.calculus import Derivation, derivation_to_json
from mqlogic.derivations import liar_signature, prop1_derivation, prop3_derivation
from mqlogic.fuzz import generate_derivation, toy_signature
from mqlogic.multiset import Sequent
from mqlogic.syntax import Atom, Const, Neg


@pytest.fixture
def half_val(tmp_path):
    p = tmp_path / "half.val"
    p.write_text("mode sum\ndefault P = 1/2\n")
    return str(p)


@pytest.fixture
def sup_val(tmp_path):
    p = tmp_path / "sup.val"
    p.write_text("mode sup\ndefault P = 1/2\n")
    return str(p)


@pytest.fixture
def liar_sig(tmp_path):
    p = tmp_path / "liar.sig"
    p.write_text("pred T/1\nname l = ~Ex x T(l)\n")
    return str(p)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out.strip()
    return code, out


class TestEval:
    def test_sum_divergent(self, capsys, half_val):
        code, out = run(capsys, "eval", "-v", half_val, "-f", "Ex x P(x)")
        assert code == 0
        assert json.loads(out) == {"value": "1"}

    def test_sup(self, capsys, sup_val):
        code, out = run(capsys, "eval", "-v", sup_val, "-f", "Ex x P(x)")
        assert code == 0
        assert json.loads(out) == {"value": "1/2"}

    def test_negation_of_zero_atom(self, capsys, tmp_path):
        p = tmp_path / "v.val"
        p.write_text("mode sum\natom P(a) = 0\n")
        code, out = run(capsys, "eval", "-v", str(p), "-f", "~P(a)")
        assert code == 0
        assert json.loads(out) == {"value": "1"}

    def test_parse_error_exit_2(self, capsys, half_val):
        assert main(["eval", "-v", half_val, "-f", "P(a) ->"]) == 2

    @pytest.mark.parametrize(
        "formula",
        [
            "(" * 600 + "P(a)" + ")" * 600,
            "~" * 2000 + "P(a)",
            " -> ".join(["P(a)"] * 2001),
        ],
        ids=["parentheses", "negations", "conditionals"],
    )
    def test_deep_nesting_exit_2(self, capsys, half_val, formula):
        assert main(["eval", "-v", half_val, "-f", formula]) == 2
        err = capsys.readouterr().err
        assert f"recursion limit ({sys.getrecursionlimit()})" in err

    def test_open_quote_under_binder_exit_2(self, capsys, tmp_path):
        v = tmp_path / "t.val"
        v.write_text("mode sup\ntransparent on\ndefault P = 1/2\n")
        code, out = run(capsys, "eval", "-v", str(v), "-f", "T(quote(P(a)))")
        assert code == 0 and json.loads(out) == {"value": "1/2"}
        assert main(["eval", "-v", str(v), "-f", "Ex x T(quote(P(x)))"]) == 2
        assert "quote of an open formula: 'x'" in capsys.readouterr().err

    def test_semantic_error_exit_3(self, capsys, tmp_path, liar_sig):
        v = tmp_path / "t.val"
        v.write_text("mode sum\ntransparent on\n")
        code = main(["eval", "-v", str(v), "--sig", liar_sig, "-f", "T(l)"])
        assert code == 3

    @pytest.mark.parametrize(
        "line",
        [
            "mode foo",
            "atom P(a) = 1/0",
            "atom P(a) = x",
            "limit 3",
            "atom P(a) = 3/2",
            "default P = 2",
            "default  = 1/2",
            "default P x = 1/2",
            "atom P(a = 1/2",
            "unknown P(",
            "atom P(a) = 1/3\natom P(a) = 1/2",
            "default P = 1/3",
            "mode sup\nmode sum",
            "transparent on\ntransparent off",
        ],
        ids=[
            "mode",
            "zero-denominator",
            "not-a-number",
            "unknown-directive",
            "atom-out-of-range",
            "default-out-of-range",
            "default-without-predicate",
            "default-of-two-words",
            "atom-parse-error",
            "unknown-parse-error",
            "second-atom",
            "second-default",
            "second-mode",
            "second-transparent",
        ],
    )
    def test_malformed_valuation_exit_2(self, capsys, tmp_path, line):
        v = tmp_path / "bad.val"
        v.write_text(f"default P = 1/2\n{line}\n")
        assert main(["eval", "-v", str(v), "-f", "P(a)"]) == 2
        last = 2 + line.count("\n")  # the faulty line is the last one
        assert f"valuation line {last}:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "text, message",
        [
            ("default Q = 1/2\n", "valuation line 2: unknown predicate 'Q'"),
            ("atom Q(a) = 1/2\n", "valuation line 2: unknown symbol 'Q' (at position 0) in 'Q(a)'"),
            ("atom P(a = 1/2\n", "valuation line 2: unexpected end of input (at position 3) in 'P(a'"),
            ("unknown P(a)\nunknown P(b)\n", "valuation line 3: a second unknown line"),
            (
                "atom P(a) = 1/2\natom P(f(a)) = 1/3\n",
                "valuation line 3: a second atom line for P(a)",
            ),
        ],
        ids=[
            "undeclared-default",
            "undeclared-atom",
            "atom-parse-error",
            "second-unknown",
            "second-atom-after-normalisation",
        ],
    )
    def test_malformed_valuation_over_a_signature_exit_2(self, capsys, tmp_path, text, message):
        sig = tmp_path / "p.sig"
        sig.write_text("pred P/1\nconst a\nconst b\nfun f/1\nrewrite f(x) => x\n")
        v = tmp_path / "bad.val"
        v.write_text(f"default P = 1/2\n{text}")
        assert main(["eval", "-v", str(v), "--sig", str(sig), "-f", "P(a)"]) == 2
        assert capsys.readouterr().err == f"input error: {message}\n"

    @pytest.mark.parametrize(
        "sig_text, val_text",
        [
            ("pred P/1\nconst\ta\n", "atom P(a) = 1/2\n"),
            (None, "atom\tP(a) = 1/2\n"),
        ],
        ids=["signature", "valuation"],
    )
    def test_tab_after_the_directive(self, capsys, tmp_path, sig_text, val_text):
        v = tmp_path / "t.val"
        v.write_text(val_text)
        argv = ["eval", "-v", str(v), "-f", "P(a)"]
        if sig_text is not None:
            sig = tmp_path / "t.sig"
            sig.write_text(sig_text)
            argv += ["--sig", str(sig)]
        code, out = run(capsys, *argv)
        assert code == 0
        assert json.loads(out) == {"value": "1/2"}

    @pytest.mark.parametrize(
        "k, code, expected",
        [(5000, 0, '{"value": "0"}'), (20000, 2, "rewrite step budget exceeded")],
    )
    def test_long_rewrite_chain(self, capsys, tmp_path, k, code, expected):
        # f(k) rewrites to f(0) in k root steps: a loop takes them, so only
        # the step budget (10,000) bounds the chain
        sig = tmp_path / "chain.sig"
        sig.write_text("arith 0 s\nfun f/1\npred P/1\nrewrite f(s(x)) => f(x)\n")
        v = tmp_path / "t.val"
        v.write_text("mode sum\n")
        argv = ["eval", "-v", str(v), "--sig", str(sig), "-f", f"P(f({k}))"]
        assert main(argv) == code
        captured = capsys.readouterr()
        assert expected in (captured.out if code == 0 else captured.err)

    def test_empty_valuation_path_exit_2(self, capsys):
        assert main(["eval", "-v", "", "-f", "P(a)"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("input error:") and "Traceback" not in err


class TestCheckSequent:
    def test_sound(self, capsys, half_val):
        code, out = run(
            capsys, "check-sequent", "-v", half_val, "-s", "P(a) |- P(a), P(b)"
        )
        assert code == 0
        assert json.loads(out)["sound"] is True

    def test_unsound_exit_1(self, capsys, half_val):
        code, out = run(capsys, "check-sequent", "-v", half_val, "-s", "|-")
        assert code == 1
        data = json.loads(out)
        assert data == {"sound": False, "antecedent": "1", "succedent": "0"}


INIT = {"seq": {"ant": [["T(l)", 1]], "suc": [["T(l)", 1]]}, "rule": "Init"}
# Over pred P/1 and const a, n and k are variables, so P(n) is open.
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

# Over pred P/1 and const a, the family's slot 1 has no closed term.
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


class TestCheckDerivation:
    def test_policies(self, capsys, tmp_path, liar_sig):
        built = prop3_derivation()
        d = tmp_path / "d.json"
        d.write_text(json.dumps(derivation_to_json(built.derivation)))
        code, _ = run(
            capsys,
            "check-derivation",
            "-d",
            str(d),
            "--sig",
            liar_sig,
            "--policy",
            "mult",
            "--depth",
            "4",
        )
        assert code == 0
        code2, out2 = run(
            capsys,
            "check-derivation",
            "-d",
            str(d),
            "--sig",
            liar_sig,
            "--policy",
            "add",
            "--depth",
            "4",
            "--json",
        )
        assert code2 == 1
        assert json.loads(out2)["ok"] is False

    def test_absent_principal_exit_1(self, capsys, tmp_path, liar_sig):
        sig = liar_signature()
        tl = Atom("T", (Const("l"),))
        leaf = Derivation(Sequent.make(sig, ant=[(tl, 1)], suc=[(tl, 1)]), "Init")
        bad = Derivation(
            Sequent.make(sig, suc=[(tl, 1)]), "NegL", (leaf,), principal=Neg(tl)
        )
        d = tmp_path / "bad.json"
        d.write_text(json.dumps(derivation_to_json(bad)))
        code, out = run(
            capsys, "check-derivation", "-d", str(d), "--sig", liar_sig, "--json"
        )
        assert code == 1
        report = json.loads(out)
        assert report["ok"] is False
        [node] = report["perNode"]
        assert (node["path"], node["rule"], node["ok"]) == ("root", "NegL", False)
        assert "principal formula ~T(l) does not occur" in node["message"]

    @pytest.mark.parametrize(
        "data, depth, message",
        [
            ({"rule": "Init"}, "8", "lacks the field 'seq'"),
            ([], "8", "must be a JSON object"),
            ({**INIT, "rule": "Bogus"}, "8", "unknown rule id 'Bogus'"),
            (
                {
                    "seq": {"ant": [["Ex x T(x)", 1]], "suc": []},
                    "rule": "ExistsLw",
                    "family": {"var": "n", "start": 1, "template": INIT},
                },
                "8",
                "start index must equal the explicit-slot count",
            ),
            (
                {
                    "seq": {"ant": [["Ex x T(x)", 1]], "suc": []},
                    "rule": "ExistsLw",
                    "family": {"var": None, "start": 0, "template": INIT},
                },
                "8",
                "family index must be a variable name, got None",
            ),
            (INIT, "0", "depth must be >= 1"),
            (
                {**INIT, "rule": "TL", "premises": [{"slotRef": 0}]},
                "8",
                "slot reference offset must be >= 1",
            ),
            *(
                (
                    {**INIT, "rule": "TL", "premises": [{"slotRef": ref}]},
                    "8",
                    f"'slotRef' must be a JSON int, got {ref!r}",
                )
                for ref in (1.9, True, "2")
            ),
            *(
                (
                    {
                        "seq": {"ant": [["Ex x T(x)", 1]], "suc": []},
                        "rule": "ExistsLw",
                        "family": {"var": "n", "start": start, "template": INIT},
                    },
                    "8",
                    f"'start' must be a JSON int, got {start!r}",
                )
                for start in (0.0, False)
            ),
            (
                {**INIT, "seq": {"suc": [], "sucFams": [
                    {"var": None, "start": 0, "formula": "T(l)"}]}},
                "8",
                "'var' must be a JSON str, got None",
            ),
            (
                {**INIT, "seq": {"suc": [], "sucFams": [
                    {"var": "n", "start": -3, "formula": "T(n)"}]}},
                "8",
                "'start' must be a JSON int >= 0, got -3",
            ),
            *(
                (
                    {**INIT, "seq": {"ant": [["T(l)", m]], "suc": [["T(l)", 1]]}},
                    "8",
                    f"'multiplicity' must be a JSON int >= 1, got {m!r}",
                )
                for m in (1.9, True, "3")
            ),
            *(
                (
                    {**INIT, "seq": {"ant": side, "suc": [["T(l)", 1]]}},
                    "8",
                    f"'ant' must be a JSON list, got {side!r}",
                )
                for side in ("", {})
            ),
            (
                {**INIT, "premises": {}},
                "8",
                "'premises' must be a JSON list, got {}",
            ),
            *(
                (
                    {**INIT, "seq": {"ant": [member], "suc": [["T(l)", 1]]}},
                    "8",
                    f"'ant' members must be [formula, multiplicity] pairs, got {member!r}",
                )
                for member in (["T(l)", 1, 2], ["T(l)"])
            ),
            (
                {
                    "seq": {"ant": [["Ex x T(x)", 1]], "suc": []},
                    "rule": "ExistsLw",
                    "family": {"var": "n", "start": 0, "template": INIT, "explicit": {}},
                },
                "8",
                "'explicit' must be a JSON list, got {}",
            ),
            (
                {**INIT, "seq": {**INIT["seq"], "sucFams": {}}},
                "8",
                "'sucFams' must be a JSON list, got {}",
            ),
            ({**INIT, "seq": []}, "8", "'seq' must be a JSON dict, got []"),
            (
                {
                    "seq": {"ant": [["Ex x T(x)", 1]], "suc": []},
                    "rule": "ExistsLw",
                    "family": [],
                },
                "8",
                "'family' must be a JSON dict, got []",
            ),
            (
                {**INIT, "seq": {**INIT["seq"], "sucFams": [[1]]}},
                "8",
                "'sucFams[0]' must be a JSON dict, got [1]",
            ),
            (
                {**INIT, "principal": "T(l)"},
                "8",
                "'principal' must be a JSON dict, got 'T(l)'",
            ),
        ],
        ids=["missing-seq", "top-level-list", "bad-rule", "start-mismatch",
             "family-var-null", "depth-0", "slot-ref-0", "slot-ref-float",
             "slot-ref-bool", "slot-ref-string", "family-start-float",
             "family-start-bool", "sequent-family-var-null",
             "sequent-family-start-negative", "multiplicity-float",
             "multiplicity-bool", "multiplicity-string", "side-string",
             "side-object", "premises-object", "member-triple", "member-single",
             "explicit-object", "families-object", "seq-list", "family-list",
             "family-entry-list", "principal-string"],
    )
    def test_malformed_input_exit_2(
        self, capsys, tmp_path, liar_sig, data, depth, message
    ):
        d = tmp_path / "d.json"
        d.write_text(json.dumps(data))
        code = main(
            ["check-derivation", "-d", str(d), "--sig", liar_sig, "--depth", depth]
        )
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("input error:") and message in err


    @pytest.mark.parametrize(
        "data",
        [
            {
                "seq": {"ant": [["T(c)", 1], ["T(l)", 1]], "suc": [["~Ex x T(l)", 1]]},
                "rule": "TL",
                "premises": [{"seq": {"ant": [["~Ex x T(l)", 1], ["T(c)", 1]],
                                      "suc": [["~Ex x T(l)", 1]]}, "rule": "Init"}],
            },
            {
                "seq": {"ant": [["~Ex x T(l)", 1]], "suc": [["T(c)", 1], ["T(l)", 1]]},
                "rule": "TR",
                "premises": [{"seq": {"ant": [["~Ex x T(l)", 1]],
                                      "suc": [["T(c)", 1], ["~Ex x T(l)", 1]]},
                              "rule": "Init"}],
            },
        ],
        ids=["TL", "TR"],
    )
    def test_truth_rule_finds_its_principal(self, capsys, tmp_path, data):
        """Without a principal, T(c) (c names no sentence) is passed over
        and T(l) is found."""
        s = tmp_path / "s.sig"
        s.write_text("pred T/1\nconst c\nname l = ~Ex x T(l)\n")
        d = tmp_path / "d.json"
        d.write_text(json.dumps(data))
        code, out = run(capsys, "check-derivation", "-d", str(d), "--sig", str(s))
        assert code == 0, out

    @pytest.mark.parametrize(
        "data", [OPEN_EXISTS_RIGHT, OPEN_EXISTS_LEFT], ids=["exists-right", "exists-left"]
    )
    def test_open_members_get_a_report(self, capsys, tmp_path, data):
        s = tmp_path / "s.sig"
        s.write_text("pred P/1\nconst a\n")
        d = tmp_path / "d.json"
        d.write_text(json.dumps(data))
        code, out = run(
            capsys, "check-derivation", "-d", str(d), "--sig", str(s), "--json"
        )
        assert code == 1
        nodes = json.loads(out)["perNode"]
        assert [(n["rule"], n["ok"]) for n in nodes] == [
            (data["rule"], True), ("Init", False)
        ]

    def test_family_slot_past_the_closed_terms_exit_1(self, capsys, tmp_path):
        s = tmp_path / "s.sig"
        s.write_text("pred P/1\nconst a\n")
        d = tmp_path / "d.json"
        d.write_text(json.dumps(SLOT_PAST_TERMS))
        code, out = run(
            capsys, "check-derivation", "-d", str(d), "--sig", str(s), "--json"
        )
        assert code == 1
        node = json.loads(out)["perNode"][-1]
        assert (node["path"], node["ok"]) == ("root.fam[1]", False)
        assert node["message"] == "family slot 1 exceeds the closed terms of the signature"

    def test_family_slot_without_constants_exit_1(self, capsys, tmp_path):
        s = tmp_path / "s.sig"
        s.write_text("pred P/1\n")
        d = tmp_path / "d.json"
        d.write_text(json.dumps(SLOT_PAST_TERMS))
        code, out = run(
            capsys, "check-derivation", "-d", str(d), "--sig", str(s), "--json"
        )
        assert code == 1
        node = json.loads(out)["perNode"][-1]
        assert (node["path"], node["ok"]) == ("root.fam[0]", False)
        assert node["message"] == "family slot 0 exceeds the closed terms of the signature"


class TestFileErrors:
    @pytest.mark.parametrize(
        "command", [["eval", "-f", "P", "-v"], ["check-derivation", "--sig", "SIG", "-d"]],
        ids=["eval", "check-derivation"],
    )
    def test_directory_as_input_exit_2(self, capsys, tmp_path, liar_sig, command):
        argv = [liar_sig if a == "SIG" else a for a in command] + [str(tmp_path)]
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith("input error:")


class TestClosedStdout:
    """A standard output whose reader has gone ends the run with exit 2
    and nothing on stderr."""

    SRC = Path(__file__).resolve().parent.parent / "src"
    SCRIPT = SRC.parent / "scripts" / "run_repro.py"

    @pytest.mark.parametrize(
        "argv",
        [["-m", "mqlogic.cli", "repro", "prop1"], [str(SCRIPT), "--json"]],
        ids=["mqlogic-repro", "run_repro"],
    )
    def test_exit_2_quietly(self, argv):
        read_end, write_end = os.pipe()
        os.close(read_end)
        env = {**os.environ, "PYTHONPATH": str(self.SRC)}
        try:
            proc = subprocess.run(
                [sys.executable, *argv], stdout=write_end, stderr=subprocess.PIPE,
                env=env, timeout=300,
            )
        finally:
            os.close(write_end)
        assert (proc.returncode, proc.stderr.decode()) == (2, "")


class TestFuzzCommand:
    def test_json_output(self, capsys):
        code, out = run(
            capsys,
            "fuzz",
            "--rule",
            "Init",
            "--mode",
            "sum",
            "--samples",
            "100",
            "--seed",
            "1",
        )
        assert code == 0
        data = json.loads(out)
        assert data["violationIndex"] is None

    def test_env_seed_override(self, capsys, monkeypatch):
        monkeypatch.setenv("MQLOGIC_SEED", "123")
        code, out = run(
            capsys,
            "fuzz",
            "--rule",
            "Init",
            "--mode",
            "sum",
            "--samples",
            "10",
            "--seed",
            "0",
        )
        assert code == 0
        assert json.loads(out)["seed"] == 123

    @pytest.mark.parametrize(
        "option, field",
        [
            ("--max-context-size=-2", "max_context_size"),
            ("--max-family-prefix=-1", "max_family_prefix"),
        ],
    )
    def test_negative_bound_exit_2(self, capsys, option, field):
        code = main(["fuzz", "--rule", "Init", "--samples", "10", option])
        err = capsys.readouterr().err
        assert code == 2
        assert f"{field} must be >= 0" in err


class TestSolveSelfref:
    @pytest.mark.parametrize("mode", ["sum", "sup"])
    def test_liar(self, capsys, tmp_path, liar_sig, mode):
        v = tmp_path / "liar.val"
        v.write_text(f"mode {mode}\nunknown T(l)\n")
        code, out = run(
            capsys,
            "solve-selfref",
            "-v",
            str(v),
            "--sig",
            liar_sig,
            "-f",
            "~Ex x T(l)",
        )
        assert code == 0
        data = json.loads(out)
        if mode == "sum":  # 1 at v = 0, 0 above: no fixed point
            assert data["fixedPoints"]["empty"] is True
            assert len(data["pieces"]) == 2
        else:  # 1 - v on [0, 1]
            assert data["fixedPoints"]["points"] == ["1/2"]
            assert [(p["a"], p["b"]) for p in data["pieces"]] == [("-1", "1")]


class TestRepro:
    def test_prop2_json(self, capsys):
        code, out = run(capsys, "repro", "prop2", "--json")
        assert code == 0
        data = json.loads(out)
        assert data["status"] == "pass"

    def test_prop3_plain(self, capsys):
        code, out = run(capsys, "repro", "prop3")
        assert code == 0
        assert "prop3: pass" in out

    def test_small_thm1(self, capsys):
        code, out = run(capsys, "repro", "thm1", "--json", "--samples", "500")
        assert code == 0
        data = json.loads(out)
        assert data["evidence"]["randomSearch"]["violationIndex"] is not None

    @pytest.mark.parametrize(
        "exp_id, option, value",
        [
            ("lemma1", "--samples", "0"),
            ("lemma1", "--samples", "-3"),
            ("prop1", "--depth", "-1"),
        ],
    )
    def test_size_below_one_exit_2(self, capsys, exp_id, option, value):
        code = main(["repro", exp_id, option, value])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert f"{option[2:]} must be >= 1, got {value}" in captured.err


# ---------------------------------------------------------------------------
# check-derivation on damaged input: derivation JSON from the generator and
# the builtin derivations, then keys deleted, fields given the wrong type,
# bad rule ids, bad slot references and start/explicit mismatches.  Last, a
# slot reference, family start or multiplicity may be given a number that is
# not a JSON integer (a float, bool or numeric string), or a family index a
# value that is not a string; the loader must refuse that with exit 2.

SIGNATURES = {
    "toy": "pred P/1\npred Q/1\nconst a\nconst b\n",
    "liar": "pred T/1\nname l = ~Ex x T(l)\n",
    "coding": (
        "arith 0 s\nfun fm/2\nfun tdot/1\nname mu = ~Ex x T(fm(x, mu))\n"
        "rewrite fm(0, y) => y\nrewrite fm(s(n), y) => tdot(fm(n, y))\n"
        "rewrite tdot(t) => quote(T(t))\n"
    ),
}
WRONG_VALUES = [None, 0, -1, 1.5, True, "", "x", "w", [], [[1]], {}, {"formula": 3}]
BAD_RULES = ["Bogus", "", "init", "Cut", 7, None]
SLOT_OFFSETS = [0, -1, -4, 1, 2, 10**6, "1", "x", None, 1.5, []]
NOT_INTEGERS = [1.9, 1.0, 0.0, True, False, "1", "3", "0"]
NOT_NAMES = [None, 0, 1.5, True, [], {}]


def _json_dicts(x):
    if isinstance(x, dict):
        yield x
        for v in x.values():
            yield from _json_dicts(v)
    elif isinstance(x, list):
        for v in x:
            yield from _json_dicts(v)


@st.composite
def damaged_derivations(draw):
    base = draw(st.sampled_from(["toy", "liar", "coding"]))
    if base == "toy":
        rng = random.Random(draw(st.integers(0, 10**6)))
        d = generate_derivation(rng, toy_signature(), draw(st.integers(0, 3)))
    else:
        d = (prop3_derivation() if base == "liar" else prop1_derivation(2)).derivation
    data = derivation_to_json(d)
    for _ in range(draw(st.integers(1, 3))):
        node = draw(st.sampled_from(list(_json_dicts(data))))
        damage = draw(st.sampled_from(["delete", "retype", "rule", "slotRef", "start"]))
        if damage == "delete" and node:
            del node[draw(st.sampled_from(sorted(node)))]
        elif damage == "retype" and node:
            value = copy.deepcopy(draw(st.sampled_from(WRONG_VALUES)))
            node[draw(st.sampled_from(sorted(node)))] = value
        elif damage == "rule":
            node["rule"] = draw(st.sampled_from(BAD_RULES))
        elif damage == "slotRef":
            ref = {"slotRef": draw(st.sampled_from(SLOT_OFFSETS))}
            premises = node.get("premises")
            node["premises"] = (premises if isinstance(premises, list) else []) + [ref]
        elif damage == "start":
            node["start"] = draw(st.integers(-2, 4))
    if draw(st.integers(0, 19)) == 0:
        data = draw(st.sampled_from([[], [data], "x", 3, None]))
    refused = draw(st.booleans()) and _damage_number(draw, data)
    return SIGNATURES[base], data, refused


def _damage_number(draw, data) -> bool:
    """Give one slot reference, family start or multiplicity a value that
    is not a JSON integer, or one family index a value that is not a
    string; False when ``data`` has no such field."""
    dicts = list(_json_dicts(data))
    fields = [(n, "var") for n in dicts if "var" in n]
    fields += [(n, "start") for n in dicts if "var" in n]
    fields += [(n, "premises") for n in dicts if "seq" in n]
    fields += [
        (entry, 1)
        for n in dicts
        for side in ("ant", "suc")
        if isinstance(n.get(side), list)
        for entry in n[side]
        if isinstance(entry, list) and len(entry) == 2
    ]
    if not fields:
        return False
    node, key = draw(st.sampled_from(fields))
    if key == "var":
        node[key] = copy.deepcopy(draw(st.sampled_from(NOT_NAMES)))
    elif key == "premises":
        premises = node.get("premises")
        ref = {"slotRef": draw(st.sampled_from(NOT_INTEGERS))}
        node["premises"] = (premises if isinstance(premises, list) else []) + [ref]
    else:
        node[key] = draw(st.sampled_from(NOT_INTEGERS))
    return True


@settings(max_examples=300, deadline=None)
@given(damaged_derivations())
def test_check_derivation_on_damaged_input(case):
    """No exception escapes, and the exit code is 0, 1 or 2; it is 2 when a
    number is not a JSON integer or a family index is not a string."""
    sig_text, data, refused = case
    with tempfile.TemporaryDirectory() as tmp:
        sig, d = Path(tmp) / "s.sig", Path(tmp) / "d.json"
        sig.write_text(sig_text)
        d.write_text(json.dumps(data))
        argv = ["check-derivation", "-d", str(d), "--sig", str(sig), "--depth", "2"]
        code = main(argv)
    assert code == 2 if refused else code in (0, 1, 2)
