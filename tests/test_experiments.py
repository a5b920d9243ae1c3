import json

import pytest

from mqlogic.experiments import EXPERIMENT_IDS, run_experiment


class TestAllExperiments:
    @pytest.mark.parametrize("exp_id", EXPERIMENT_IDS)
    def test_passes(self, exp_id):
        samples = 2000 if exp_id in ("thm1", "lemma1", "thm2-fuzz") else None
        result = run_experiment(exp_id, seed=0, samples=samples)
        assert result.passed, json.dumps(result.evidence)[:500]
        assert result.runtime_ms < 60_000

    def test_unknown_id_rejected(self):
        with pytest.raises(ValueError):
            run_experiment("thm3")


class TestReproducibility:
    @pytest.mark.parametrize("exp_id", ["thm1", "lemma1", "thm2-fuzz"])
    def test_same_seed_same_evidence(self, exp_id):
        a = run_experiment(exp_id, seed=9, samples=500)
        b = run_experiment(exp_id, seed=9, samples=500)
        assert a.evidence == b.evidence

    def test_json_shape(self):
        result = run_experiment("prop2")
        data = result.to_json()
        assert set(data) == {"id", "status", "seed", "runtimeMs", "evidence"}
        json.dumps(data)  # serialisable


class TestEvidenceDetails:
    def test_thm1_counterexample_recorded(self):
        result = run_experiment("thm1", samples=2000)
        ce = result.evidence["counterexample"]
        assert ce["premiseSound"] and not ce["conclusionSound"]
        assert result.evidence["quantifierValues"] == {"sup": "1/2", "sum": "1"}
        assert result.evidence["randomSearch"]["violationIndex"] is not None

    def test_lemma1_covers_tail_combos(self):
        result = run_experiment("lemma1", samples=400)
        combos = result.evidence["tailCombos"]
        assert all(count > 0 for count in combos.values())
        assert result.evidence["convergentOracleChecks"] > 0

    def test_prop1_witness_list(self):
        result = run_experiment("prop1", depth=8)
        assert len(result.evidence["witnesses"]) == 9
        assert all(result.evidence["witnessesCertified"])

    def test_prop3_policy_evidence(self):
        result = run_experiment("prop3")
        assert result.evidence["multiplicativeOk"]
        assert result.evidence["additiveFailsAt"] == "ExistsRw"

    def test_vacuous_compare_matrix(self):
        result = run_experiment("vacuous-compare")
        matrix = result.evidence["rightRuleInstances"]
        assert matrix["omegaCopiesMultiplicative"]
        assert not matrix["omegaCopiesAdditive"]
        assert not matrix["oneCopyMultiplicative"]
        assert matrix["oneCopyAdditive"]
