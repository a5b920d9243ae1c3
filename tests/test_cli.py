import json

import pytest

from mqlogic.cli import main
from mqlogic.calculus import Derivation, derivation_to_json
from mqlogic.derivations import liar_signature, prop3_derivation
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

    def test_semantic_error_exit_3(self, capsys, tmp_path, liar_sig):
        v = tmp_path / "t.val"
        v.write_text("mode sum\ntransparent on\n")
        code = main(["eval", "-v", str(v), "--sig", liar_sig, "-f", "T(l)"])
        assert code == 3


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


class TestSolveSelfref:
    def test_liar(self, capsys, tmp_path, liar_sig):
        v = tmp_path / "liar.val"
        v.write_text("mode sum\nunknown T(l)\n")
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
        assert data["fixedPoints"]["empty"] is True
        assert len(data["pieces"]) == 2


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
