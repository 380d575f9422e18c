import dataclasses
import json
import math
import warnings
from pathlib import Path

import numpy as np
import pytest

from stocklab.core import BaseStock, Dataset, NonStationary, SystemParams
from stocklab.demand import IndependentNormals, InstanceHyper, draw, make_rng, marginal_pmfs
from stocklab.emit import emit_results, write_records_csv
from stocklab import perm
from stocklab.experiments import (
    ExperimentConfig,
    MetricsRecord,
    _best_in_class,
    _crossing_point,
    _fits,
    _random_feasible,
    _sanity_check_fit,
    run_ee_vs_T,
    run_erm_vs_perm,
    run_experiment,
    run_oos_vs_N,
)
from stocklab.evaluate import ModelRisk, exact_risk, policy_losses
from stocklab.fitters import FitResult, erm_St


def small_system(**kw):
    defaults = dict(T=3, L=0, h=1.0, b=9.0, K=0.0, U=20.0, x1=0.0)
    defaults.update(kw)
    return SystemParams(**defaults)


class TestConfig:
    def test_defaults_per_kind(self):
        cfg = ExperimentConfig(kind="ee-vs-T", sweep=(5,), system=small_system())
        assert cfg.classes == ("base-stock", "ss", "st")
        assert cfg.dataset_reps == 20
        cfg = ExperimentConfig(kind="oos-vs-N-St", sweep=(2, 4), system=small_system())
        assert cfg.dataset_reps == 100

    def test_from_dict_fills_fixed_cost_from_cycle_length(self):
        cfg = ExperimentConfig.from_dict({
            "kind": "oos-vs-N-sS",
            "sweep": [2, 20],
            "system": {"T": 20, "L": 0, "h": 1.0, "b": 9.0, "U": 20.0},
            "hyper": {"p_cycle": 2.0, "sigma0": 5.0},
        })
        assert cfg.system.K == pytest.approx(18.0)

    def test_validation_errors(self):
        with pytest.raises(ValueError, match="kind"):
            ExperimentConfig(kind="nope", sweep=(1,), system=small_system())
        with pytest.raises(ValueError, match="sweep"):
            ExperimentConfig(kind="ee-vs-T", sweep=(), system=small_system())
        with pytest.raises(ValueError, match="missing required key"):
            ExperimentConfig.from_dict({"sweep": [1]})
        with pytest.raises(ValueError, match="bad config field"):
            ExperimentConfig.from_dict({
                "kind": "ee-vs-T", "sweep": [1],
                "system": {"T": 1}, "bogus_flag": 3,
            })

    def test_from_json(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({
            "kind": "ee-vs-T", "sweep": [3],
            "system": {"T": 3, "U": 20.0}, "instance_count": 1,
            "dataset_reps": 2, "n_train": 4,
        }))
        cfg = ExperimentConfig.from_json(str(path))
        assert cfg.sweep == (3,)

    def test_removed_evaluation_knobs_are_rejected(self):
        for key, value in (("eval_mode", "mc"), ("best_in_class_mode", "erm")):
            with pytest.raises(ValueError, match="bad config field"):
                ExperimentConfig.from_dict({
                    "kind": "ee-vs-T", "sweep": [3], "system": {"T": 3}, key: value,
                })

    def test_readme_config_block_lists_every_field(self):
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        section = readme.split("## Experiment configs", 1)[1]
        block = section.split("```json", 1)[1].split("```", 1)[0]
        fields = {f.name for f in dataclasses.fields(ExperimentConfig)}
        assert set(json.loads(block)) == fields


class TestCrossing:
    def test_clean_crossing(self):
        assert _crossing_point([2, 4, 8], [1.0, 1.0, 1.2], [1.2, 1.1, 1.0]) == 8
        assert _crossing_point([2, 4, 8], [1.0, 1.2, 1.3], [1.2, 1.1, 1.0]) == 4

    def test_no_crossing(self):
        assert math.isnan(_crossing_point([2, 4], [1.0, 1.0], [1.2, 1.1]))

    def test_flip_must_persist(self):
        # a transient flip at 2 does not count; the persistent one at 4 does
        assert _crossing_point([1, 2, 3, 4], [0, 2, 0, 2], [1, 1, 1, 1]) == 4


class TestEvaluator:
    def test_monte_carlo_sample_drawn_only_on_fallback(self):
        p = small_system()
        exact = ModelRisk(IndependentNormals((10.0,) * 3, (5.0,) * 3), p, 50, (7, 1))
        exact(BaseStock(12.0))
        exact(NonStationary((12.5, 11.0, 10.0)))
        assert exact.eval_paths is None  # integer marginals: every level scored exactly
        model = IndependentNormals((10.0,) * 3, (5.0,) * 3, integerize=False)  # no pmfs: Monte Carlo
        evaluator = ModelRisk(model, p, 50, (7, 1))
        assert evaluator.mode == "mc"
        assert evaluator.eval_paths is None
        policy = NonStationary((12.5, 11.0, 10.0))
        with pytest.warns(RuntimeWarning, match="Monte-Carlo"):
            risk = evaluator(policy)
        np.testing.assert_array_equal(evaluator.eval_paths, draw(model, 50, (7, 1)).as_matrix())
        assert risk == evaluator(policy)

    def test_monte_carlo_fallback_warns_once(self):
        p = small_system()
        model = IndependentNormals((10.0,) * 3, (5.0,) * 3, integerize=False)
        evaluator = ModelRisk(model, p, 50, (7, 1))
        with pytest.warns(RuntimeWarning) as caught:
            evaluator(NonStationary((12.5, 11.0, 10.0)))
            evaluator(BaseStock(12.0))
        assert len(caught) == 1
        assert "this demand model" in str(caught[0].message)
        assert "estimated" in str(caught[0].message)

    def test_fractional_fit_scored_exactly_under_integer_model(self):
        p = small_system()
        model = IndependentNormals((10.0,) * 3, (5.0,) * 3)
        D = draw(model, 10, 0).as_matrix()
        fit = erm_St(Dataset.from_matrix(D + 0.25), p).policy
        assert any(v != int(v) for v in fit.levels)
        evaluator = ModelRisk(model, p, 50, (7, 1))
        assert evaluator.mode == "exact"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            risk = evaluator(fit)
        assert evaluator.eval_paths is None
        assert risk == exact_risk(fit, marginal_pmfs(model), p)


class TestSanityCheck:
    @pytest.mark.parametrize("policy_class", ["base-stock", "ss", "st", "eoq"])
    def test_planted_bad_fit_names_the_first_beater(self, policy_class):
        p = small_system(L=1, K=2.0, x1=-1.0)
        data = draw(IndependentNormals((10.0,) * 4, (5.0,) * 4), 6, (3, 0))
        fit = FitResult(policy=BaseStock(0.0), in_sample_risk=0.0, method="planted",
                        diagnostics={"delta": 4.0})
        # the 20 random policies, drawn and scored one at a time
        rng = make_rng(9, 1)
        others = [_random_feasible(fit, policy_class, p, rng) for _ in range(20)]
        alts = [float(policy_losses(o, data.as_matrix(), p).mean()) for o in others]
        best = int(np.argmin(alts))
        _sanity_check_fit(dataclasses.replace(fit, in_sample_risk=alts[best]),
                          policy_class, data, p, (9, 1))
        # only the best random policy beats a fit just above it; one above
        # every random policy is beaten first by the first one drawn
        for risk, first in ((alts[best] + 2e-9, best), (max(alts) + 1.0, 0)):
            with pytest.raises(AssertionError) as caught:
                _sanity_check_fit(dataclasses.replace(fit, in_sample_risk=risk),
                                  policy_class, data, p, (9, 1))
            assert str(caught.value).endswith(f"beaten by {others[first]} ({alts[first]})")


class TestRunners:
    def test_ee_vs_T_smoke_and_determinism(self):
        cfg = ExperimentConfig(
            kind="ee-vs-T", sweep=(2, 4), system=small_system(),
            instance_count=2, dataset_reps=3, n_train=5, seed=3,
        )
        records = run_ee_vs_T(cfg)
        assert records == run_experiment(cfg)
        kinds = {(r.sweep_value, r.policy_class, r.metric) for r in records}
        assert len(kinds) == 2 * 3 * 2
        for r in records:
            if r.metric == "oos-ratio":
                assert r.value >= 1.0 - 1e-9  # denominator is the exact optimum
            if r.metric == "ee-ratio":
                assert r.value >= -1e-9

    def test_ee_vs_T_solves_one_dp_per_horizon_and_instance(self, monkeypatch):
        calls = []
        solve = perm.solve_dp
        monkeypatch.setattr(perm, "solve_dp", lambda *args: calls.append(1) or solve(*args))
        cfg = ExperimentConfig(
            kind="ee-vs-T", sweep=(2, 3), system=small_system(),
            instance_count=2, dataset_reps=1, n_train=3, seed=3,
        )
        assert "st" in cfg.classes
        run_ee_vs_T(cfg)
        assert len(calls) == 2 * 2

    def test_best_in_class_with_pmfs_is_the_product_fit(self):
        model = IndependentNormals((4.0, 6.0, 5.0), (2.0, 3.0, 1.5), cap=8.0)
        cfg = ExperimentConfig(kind="oos-vs-N-sS", sweep=(2,), system=small_system(K=4.0))
        for K, classes in ((0.0, ("base-stock", "eoq", "ss", "st")),
                           (4.0, ("base-stock", "eoq", "ss"))):
            p = small_system(K=K, U=8.0)
            evaluator = ModelRisk(model, p)
            for c in classes:
                fit = perm.perm_fit(evaluator.pmfs, p, c)
                risk = _best_in_class(c, evaluator, cfg, (1,))
                assert risk == fit.in_sample_risk
                assert risk == pytest.approx(evaluator(fit.policy), rel=1e-12)

    def test_st_grid_oracle_counts_the_first_T_levels(self):
        # at T = 2, L = 1 the unit grid on [0, 40] has 41^2 = 1,681 level
        # vectors, within the 20,000 for which the grid oracle fits
        p = small_system(T=2, L=1)
        cfg = ExperimentConfig(kind="oos-vs-N-St", sweep=(2,), system=p)
        data = Dataset.from_matrix([[3.0, 9.0, 4.0], [12.0, 0.0, 7.0]])
        (fit,) = _fits("st", [data], p, cfg)
        assert fit.method == "grid-oracle"
        assert fit.diagnostics["candidate_count"] == 41**2

    def test_st_fit_under_a_huge_integer_cap_builds_no_grid_axis(self):
        # a unit axis on [0, 1e12] would take 7.28 TiB; the descent fits instead
        p = small_system(T=2, H=1e12)
        cfg = ExperimentConfig(kind="oos-vs-N-St", sweep=(2,), system=p)
        data = Dataset.from_matrix([[3.0, 9.0], [12.0, 0.0]])
        (fit,) = _fits("st", [data], p, cfg)
        assert fit.method == "coordinate-descent"

    def test_ee_vs_T_requires_zero_fixed_cost(self):
        cfg = ExperimentConfig(kind="ee-vs-T", sweep=(2,), system=small_system(K=1.0),
                               instance_count=1, dataset_reps=1, n_train=2)
        with pytest.raises(ValueError, match="K"):
            run_ee_vs_T(cfg)

    def test_oos_vs_N_sS_smoke(self):
        cfg = ExperimentConfig(
            kind="oos-vs-N-sS", sweep=(2, 6),
            system=small_system(T=6, K=18.0),
            hyper=InstanceHyper(sigma0=5.0),
            instance_count=2, dataset_reps=4, seed=5,
        )
        records = run_oos_vs_N(cfg)
        crossing = [r for r in records if r.metric == "crossing-N"]
        assert len(crossing) == 1
        curve = [r for r in records if r.metric == "oos-ratio"]
        assert {r.policy_class for r in curve} == {"base-stock", "eoq", "ss"}
        for r in curve:
            assert r.value > 0

    def test_oos_vs_N_St_ratio_floors_at_one(self):
        cfg = ExperimentConfig(
            kind="oos-vs-N-St", sweep=(4, 12),
            system=small_system(T=3),
            instance_count=2, dataset_reps=5, seed=6,
        )
        records = run_oos_vs_N(cfg)
        for r in records:
            if r.metric == "oos-ratio":
                # denominator is the best-in-class risk of the richest class
                assert r.value >= 1.0 - 1e-9 or r.policy_class != "st"

    def test_erm_vs_perm_independent(self):
        cfg = ExperimentConfig(
            kind="erm-vs-perm-ind", sweep=(4, 16),
            system=small_system(T=2),
            instance_count=3, dataset_reps=10, seed=7,
        )
        records = run_erm_vs_perm(cfg)
        assert [r.sweep_value for r in records] == [4, 16]
        assert all(r.metric == "erm-perm-ratio" for r in records)
        assert records[0].value >= records[1].value - 0.05  # gap shrinks with N

    def test_erm_vs_perm_correlated_product_control(self):
        cfg = ExperimentConfig(
            kind="erm-vs-perm-corr", sweep=(0.0,),
            system=small_system(T=2),
            hyper=InstanceHyper(support_size=5, support_form="product"),
            instance_count=3, seed=8,
        )
        records = run_erm_vs_perm(cfg)
        assert records[0].value == pytest.approx(1.0, abs=0.01)

    def test_erm_vs_perm_correlated_negative_rho(self):
        cfg = ExperimentConfig(
            kind="erm-vs-perm-corr", sweep=(-1.0,),
            system=small_system(T=2),
            hyper=InstanceHyper(support_size=5),
            instance_count=4, seed=9,
        )
        records = run_erm_vs_perm(cfg)
        assert records[0].value <= 1.0 + 1e-9

    def test_kind_mismatch(self):
        cfg = ExperimentConfig(kind="ee-vs-T", sweep=(2,), system=small_system(),
                               instance_count=1, dataset_reps=1, n_train=2)
        with pytest.raises(ValueError, match="kind"):
            run_oos_vs_N(cfg)
        with pytest.raises(ValueError, match="kind"):
            run_erm_vs_perm(cfg)


class TestEmit:
    def make_records(self):
        return [
            MetricsRecord("ee-vs-T", 20.0, "base-stock", "ee-ratio", 0.02, 0.003, 1,
                          (0.019, 0.021)),
            MetricsRecord("ee-vs-T", 60.0, "base-stock", "ee-ratio", 0.018, 0.002, 1,
                          (0.017, 0.019)),
            MetricsRecord("ee-vs-T", 20.0, "st", "ee-ratio", 0.05, 0.004, 1,
                          (0.048, 0.052)),
            MetricsRecord("ee-vs-T", 60.0, "st", "ee-ratio", 0.055, 0.004, 1,
                          (0.054, 0.056)),
        ]

    def test_csv_layout(self, tmp_path):
        path = tmp_path / "results.csv"
        write_records_csv(self.make_records(), str(path))
        lines = path.read_text().splitlines()
        assert lines[0] == "kind,sweepValue,class,metric,value,stderr,seed,instanceId"
        assert len(lines) == 1 + 4 * 3  # aggregate + two instances per record

    def test_byte_stable_and_chart_structure(self, tmp_path):
        records = self.make_records()
        out = tmp_path / "run"
        emit_results(records, str(out))
        first = (out / "results.csv").read_bytes()
        chart = (out / "chart-ee-ratio.svg").read_text()
        emit_results(records, str(out))
        assert (out / "results.csv").read_bytes() == first
        assert chart == (out / "chart-ee-ratio.svg").read_text()
        # two series, one polyline each, x ticks from the sweep
        assert chart.count("<polyline") == 2
        assert "base-stock" in chart and "st" in chart
        assert "20" in chart and "60" in chart

    def test_single_record_chart(self, tmp_path):
        rec = MetricsRecord("gap", 1.0, "grid", "gap", 0.1, 0.0, 0, (0.1,))
        paths = emit_results([rec], str(tmp_path / "single"))
        assert any(p.endswith("results.csv") for p in paths)
        assert any(p.endswith("chart-gap.svg") for p in paths)

    def test_empty_records_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="records"):
            emit_results([], str(tmp_path / "x"))

    def test_metadata_mentions_rng(self, tmp_path):
        cfg = ExperimentConfig(kind="ee-vs-T", sweep=(2,), system=small_system(),
                               instance_count=1, dataset_reps=1, n_train=2)
        emit_results(self.make_records(), str(tmp_path / "m"), cfg)
        meta = json.loads((tmp_path / "m" / "metadata.json").read_text())
        assert meta["rng"] == "numpy-PCG64"
        assert meta["config"]["kind"] == "ee-vs-T"
        assert meta["seed"] == cfg.seed
