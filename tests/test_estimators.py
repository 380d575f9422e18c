import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stocklab import evaluate
from stocklab.core import ORDER_EPS, BaseStock, Dataset, SystemParams, simulate
from stocklab.demand import Deterministic, FiniteSupport, IIDNormal, draw, support_atoms
from stocklab.evaluate import st_losses
from stocklab.estimators import (
    base_stock_kinks,
    base_stock_loss_matrix,
    ge_estimate,
    rademacher_estimate,
    regression_slope,
)


def params(**kw):
    defaults = dict(T=2, L=0, h=1.0, b=9.0, K=0.0, U=10.0, x1=0.0)
    defaults.update(kw)
    return SystemParams(**defaults)


class TestLossMatrix:
    def test_matches_direct_evaluation(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            T, L = int(rng.integers(1, 5)), int(rng.integers(0, 2))
            p = params(T=T, L=L, K=float(rng.choice([0.0, 2.0])), U=6.0)
            D = rng.uniform(0, 6, (4, T + L))
            levels = rng.uniform(0, p.level_cap(), 7)
            got = base_stock_loss_matrix(levels, D, p)
            for j, S in enumerate(levels):
                want = [simulate(BaseStock(S), row, p).avg_loss for row in D]
                assert got[j] == pytest.approx(want, abs=1e-10)

    def test_kinks_cover_all_lead_sums(self):
        p = params(T=2, L=1, U=10.0)
        D = np.array([[1.0, 2.0, 3.0]])
        kinks = base_stock_kinks(D, p)
        assert 3.0 in kinks and 5.0 in kinks  # d1+d2, d2+d3
        assert kinks[0] == 0.0 and kinks[-1] == p.level_cap()


class TestRademacher:
    def test_singleton_class_centers_on_zero(self):
        rng = np.random.default_rng(1)
        losses = rng.uniform(0, 5, (1, 30))
        rep = rademacher_estimate(loss_matrix=losses, draws=4000, seed=2)
        assert abs(rep.estimate) <= 4 * rep.stderr

    def test_single_sample_closed_form(self):
        # N = 1: sup over sign * loss averages to (max loss - min loss) / 2
        p = params(T=1, h=1.0, b=1.0, U=4.0)
        data = Dataset.from_matrix([[2.0]])
        rep = rademacher_estimate(data, p, draws=6000, seed=3)
        kinks = base_stock_kinks(data.as_matrix(), p)
        losses = base_stock_loss_matrix(kinks, data.as_matrix(), p).ravel()
        want = (losses.max() - losses.min()) / 2
        assert rep.estimate == pytest.approx(want, abs=4 * max(rep.stderr, 1e-12))
        assert rep.exact_sup

    def test_generalization_bound_holds(self):
        # mean GE <= 2 mean Rademacher complexity, within noise
        p = params(T=2, U=4.0)
        model = FiniteSupport(((1.0, 3.0), (2.0, 0.0), (4.0, 1.0)))
        n = 5
        ge = ge_estimate(model, n, p, reps=300, seed=4)
        rads = []
        for rep in range(300):
            data = draw(model, n, (4, rep, 0))
            rads.append(rademacher_estimate(data, p, draws=60, seed=(4, rep, 2)).estimate)
        bound = 2 * float(np.mean(rads))
        noise = 3 * (ge.stderr + 2 * float(np.std(rads) / np.sqrt(len(rads))))
        assert ge.mean_ge <= bound + noise

    def test_requires_input(self):
        with pytest.raises(ValueError):
            rademacher_estimate(draws=10)

    def test_dataset_width_must_match_horizon(self):
        data = Dataset.from_matrix([[1.0, 2.0], [3.0, 0.0]])
        with pytest.raises(ValueError, match="expected T \\+ L = 3"):
            rademacher_estimate(data, params(T=3), draws=10)


class TestGeEstimate:
    def test_deterministic_model_has_zero_ge(self):
        p = params(T=3, U=6.0)
        rep = ge_estimate(Deterministic((1.0, 4.0, 2.0)), 4, p, reps=5, seed=5)
        assert rep.mean_ge == pytest.approx(0.0, abs=1e-12)

    def test_finite_support_matches_exhaustive_datasets(self):
        # two atoms, N = 2: enumerate all 4 equally likely datasets exactly
        p = params(T=1, h=1.0, b=1.0, U=4.0)
        atoms = ((1.0,), (3.0,))
        model = FiniteSupport(atoms)
        cands = np.array([0.0, 1.0, 3.0, 4.0])
        amat = np.asarray(atoms)
        true_risks = base_stock_loss_matrix(cands, amat, p).mean(axis=1)

        total = 0.0
        for i in (0, 1):
            for j in (0, 1):
                D = np.asarray([atoms[i], atoms[j]])
                emp = base_stock_loss_matrix(cands, D, p).mean(axis=1)
                total += (true_risks - emp).max() / 4
        rep = ge_estimate(model, 2, p, reps=4000, seed=6)
        assert rep.mean_ge == pytest.approx(total, abs=4 * rep.stderr)

    def test_ge_decays_with_sample_size(self):
        p = params(T=2, U=20.0)
        model = IIDNormal(10.0, 5.0, 2)
        sizes = [8, 32, 128]
        means = [
            ge_estimate(model, n, p, reps=150, seed=7).mean_ge for n in sizes
        ]
        slope = regression_slope(np.log(sizes), np.log(means))
        assert -0.8 <= slope <= -0.2

    def test_grid_classes_flagged_approximate(self):
        p = params(T=2, U=4.0, Hlo=-4.0, x1=-4.0)
        model = IIDNormal(2.0, 1.0, 2, cap=4.0)
        rep = ge_estimate(model, 3, p, policy_class="ss", reps=3, seed=8,
                          eval_samples=200)
        assert not rep.exact_sup
        rep = ge_estimate(model, 3, p, policy_class="st", reps=2, seed=9,
                          eval_samples=200)
        assert not rep.exact_sup

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_st_matches_product_loop(self, data):
        T = data.draw(st.integers(1, 3))
        L = data.draw(st.integers(0, 2))
        p = params(T=T, L=L, h=data.draw(st.sampled_from([0.0, 0.5, 1.0])),
                   b=data.draw(st.sampled_from([0.0, 1.0, 3.0])), U=3.0,
                   x1=-float(data.draw(st.integers(0, 2))),
                   H=float(data.draw(st.integers(1, 2))))
        if data.draw(st.booleans()):
            cell = st.one_of(st.integers(0, 3).map(float),
                             st.floats(0.0, 3.0).filter(lambda v: v == 0.0 or v > ORDER_EPS))
            atoms = data.draw(st.lists(st.tuples(*[cell] * (T + L)), min_size=1, max_size=4))
            model = FiniteSupport(tuple(atoms))
        else:
            model = IIDNormal(1.5, 1.0, T + L, cap=3.0, integerize=data.draw(st.booleans()))
        step = data.draw(st.sampled_from([0.5, 1.0]))
        kw = dict(policy_class="st", reps=2, eval_samples=30, grid_step=step,
                  seed=data.draw(st.integers(0, 9)))
        n_train = data.draw(st.integers(1, 4))
        got = ge_estimate(model, n_train, p, **kw)
        want = product_loop_ge_st(model, n_train, p, **kw)
        assert [v.hex() for v in got.values] == [v.hex() for v in want]

    def test_st_chunks_match_one_chunk(self, monkeypatch):
        p = params(T=2, L=1, h=0.5, b=2.0, U=3.0, H=2.0)
        model = IIDNormal(1.5, 1.0, 3, cap=3.0)
        kw = dict(policy_class="st", reps=3, eval_samples=40, grid_step=0.5, seed=4)
        whole = ge_estimate(model, 3, p, **kw)
        # 120 cells over 40 eval paths x 2 periods: one combination per chunk
        monkeypatch.setattr(evaluate, "_BLOCK_CELLS", 120)
        chunked = ge_estimate(model, 3, p, **kw)
        assert chunked == whole
        assert list(chunked.values) == product_loop_ge_st(model, 3, p, **kw)

    def test_regression_slope(self):
        assert regression_slope([0.0, 1.0, 2.0], [1.0, 3.0, 5.0]) == pytest.approx(2.0)


def product_loop_ge_st(model, n_train, p, policy_class, reps, eval_samples, grid_step, seed):
    """ge_estimate(..., "st") by two st_losses calls per combination of all
    T + L levels in itertools.product order."""
    assert policy_class == "st"
    axis = np.arange(0.0, p.level_cap() + grid_step / 2, grid_step)
    atoms = support_atoms(model)
    values = []
    for rep in range(reps):
        D = draw(model, n_train, (seed, rep, 0)).as_matrix()
        D_eval = atoms if atoms is not None else draw(model, eval_samples, (seed, rep, 1)).as_matrix()
        best = -math.inf
        for combo in itertools.product(axis, repeat=p.horizon):
            lv = np.asarray(combo)
            best = max(best, float(st_losses(lv, D_eval, p).mean() - st_losses(lv, D, p).mean()))
        values.append(best)
    return values
