import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stocklab.core import (
    BaseStock,
    Dataset,
    NonStationary,
    SsPolicy,
    SystemParams,
    simulate,
)
from stocklab import evaluate
from stocklab.demand import FiniteSupport, IndependentNormals, draw
from stocklab.evaluate import (
    ModelRisk,
    base_stock_kinks,
    base_stock_loss_matrix,
    base_stock_risk_curve,
    best_integer_ss,
    dataset_risk,
    enumerate_product_risk,
    exact_base_stock_risk,
    exact_risk,
    exact_ss_risk,
    exact_ss_risks,
    exact_st_risk,
    finite_support_risk,
    lead_pmf,
    policy_losses,
    ss_losses_grid,
    st_losses,
    st_losses_grid,
)
from stocklab.fitters import erm_base_stock


def rand_pmf(rng, size):
    w = rng.uniform(0.05, 1.0, size)
    return w / w.sum()


class TestBatchLossesMatchSimulate:
    def test_base_stock(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            T, L = int(rng.integers(1, 7)), int(rng.integers(0, 3))
            p = SystemParams(T=T, L=L, h=rng.uniform(0, 2), b=rng.uniform(0, 2),
                             K=rng.uniform(0, 4), U=9.0, x1=-rng.uniform(0, 2))
            D = rng.uniform(0, 9.0, (4, T + L))
            S = float(rng.uniform(0, p.level_cap()))
            got = policy_losses(BaseStock(S), D, p)
            want = [simulate(BaseStock(S), row, p).avg_loss for row in D]
            assert got == pytest.approx(want, rel=1e-10, abs=1e-10)

    def test_ss_grid(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            T, L = int(rng.integers(1, 7)), int(rng.integers(0, 3))
            p = SystemParams(T=T, L=L, h=rng.uniform(0, 2), b=rng.uniform(0, 2),
                             K=rng.uniform(0, 4), U=9.0, x1=-rng.uniform(0, 25),
                             H=50.0, Hlo=-25.0)
            D = rng.uniform(0, 9.0, (3, T + L))
            s_vals = rng.uniform(-20, 8, 5)
            S_vals = s_vals + rng.uniform(0, 15, 5)
            S_vals = np.maximum(S_vals, 0.0)
            got = ss_losses_grid(s_vals, S_vals, D, p)
            for k in range(5):
                pol = SsPolicy(float(s_vals[k]), float(S_vals[k]))
                want = [simulate(pol, row, p, unchecked=True).avg_loss for row in D]
                assert got[k] == pytest.approx(want, rel=1e-10, abs=1e-10)

    def test_ss_grid_first_order_delayed_when_s_below_x1(self):
        p = SystemParams(T=4, L=0, h=1.0, b=1.0, K=5.0, U=5.0, x1=0.0)
        D = np.array([[2.0, 2.0, 2.0, 2.0]])
        got = ss_losses_grid(np.array([-3.0]), np.array([4.0]), D, p)[0]
        want = simulate(SsPolicy(-3.0, 4.0), D[0], p, unchecked=True).avg_loss
        assert got == pytest.approx(want)

    def test_st(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            T, L = int(rng.integers(1, 7)), int(rng.integers(0, 3))
            p = SystemParams(T=T, L=L, h=rng.uniform(0, 2), b=rng.uniform(0, 2),
                             K=rng.uniform(0, 4), U=9.0, x1=-rng.uniform(0, 2))
            D = rng.uniform(0, 9.0, (4, T + L))
            levels = rng.uniform(0, p.level_cap(), T + L)
            got = st_losses(levels, D, p)
            pol = NonStationary(tuple(levels))
            want = [simulate(pol, row, p).avg_loss for row in D]
            assert got == pytest.approx(want, rel=1e-10, abs=1e-10)

    def test_st_with_positive_x1_unchecked(self):
        p = SystemParams(T=6, L=0, h=0.0, b=0.0, K=1.0, U=1.0, x1=1.0)
        levels = np.array([1.0, 0.0, 0.5, 0.0, 0.25, 0.0])
        D = np.array([[0.0, 0.5, 0.0, 0.25, 0.0, 0.0]])
        got = st_losses(levels, D, p)[0]
        want = simulate(NonStationary(tuple(levels)), D[0], p, unchecked=True).avg_loss
        assert got == pytest.approx(want)

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_st_grid_rows_match_simulate(self, data):
        # levels and demands sit on a grid of 1/64, so no order is dust-sized
        # and simulate drops none of them
        def sixty_fourths(hi):
            return st.integers(0, 64 * hi).map(lambda k: k / 64)

        T = data.draw(st.integers(1, 5))
        L = data.draw(st.integers(0, 2))
        p = SystemParams(
            T=T, L=L, h=data.draw(st.floats(0.0, 2.0)), b=data.draw(st.floats(0.0, 2.0)),
            K=data.draw(st.one_of(st.just(0.0), st.floats(0.01, 4.0))), U=4.0,
            x1=-data.draw(sixty_fourths(2)),
        )
        n = data.draw(st.integers(1, 4))
        cell = st.one_of(st.integers(0, 4).map(float), sixty_fourths(4))
        D = np.asarray(data.draw(st.lists(cell, min_size=n * (T + L), max_size=n * (T + L))))
        D = D.reshape(n, T + L)
        n_pol = data.draw(st.integers(1, 5))
        cap = int(p.level_cap())
        levels = np.asarray(data.draw(st.lists(
            sixty_fourths(cap), min_size=n_pol * (T + L), max_size=n_pol * (T + L),
        ))).reshape(n_pol, T + L)
        got = st_losses_grid(levels, D, p)
        assert got.shape == (n_pol, n)
        for row, lv in zip(got, levels):
            np.testing.assert_array_equal(row, st_losses(lv, D, p))
            want = [simulate(NonStationary(tuple(lv)), d, p).avg_loss for d in D]
            assert row == pytest.approx(want, rel=0, abs=1e-12)

    def test_st_grid_rejects_width_mismatch(self):
        p = SystemParams(T=2, L=1)
        with pytest.raises(ValueError, match="shape"):
            st_losses_grid(np.zeros((3, 2)), np.zeros((4, 3)), p)

    def test_dataset_risk_matches_mean(self):
        rng = np.random.default_rng(3)
        p = SystemParams(T=3, L=1, U=6.0, K=2.0)
        data = draw(IndependentNormals((3.0,) * 4, (1.0,) * 4, cap=6.0), 10, seed=0)
        pol = BaseStock(5.0)
        want = np.mean([simulate(pol, row, p).avg_loss for row in data.as_matrix()])
        assert dataset_risk(pol, data, p) == pytest.approx(want)

    def test_dataset_risk_rejects_width_mismatch(self):
        data = Dataset.from_matrix([[3.0, 7.0], [2.0, 5.0]])
        with pytest.raises(ValueError, match="expected T \\+ L = 5"):
            dataset_risk(BaseStock(5.0), data, SystemParams(T=5, U=10.0))


class TestExactRisk:
    def test_against_enumeration(self):
        # oracle: full enumeration of the product support with simulate
        rng = np.random.default_rng(4)
        for _ in range(40):
            T, L = int(rng.integers(1, 4)), int(rng.integers(0, 2))
            p = SystemParams(T=T, L=L, h=rng.uniform(0, 2), b=rng.uniform(0, 2),
                             K=rng.uniform(0, 3), U=4.0, x1=-float(rng.integers(0, 3)),
                             H=40.0, Hlo=-10.0)
            pmfs = [rand_pmf(rng, int(rng.integers(2, 5))) for _ in range(T + L)]
            policies = [
                BaseStock(float(rng.integers(0, 6))),
                SsPolicy(float(rng.integers(-4, 2)), float(rng.integers(2, 8))),
                NonStationary(tuple(float(v) for v in rng.integers(0, 6, T + L))),
                SsPolicy(float(rng.uniform(-4, 1)), float(rng.uniform(1, 7))),
                NonStationary(tuple(rng.uniform(0, 6, T + L))),
            ]
            for q in (p, replace(p, x1=-rng.uniform(0, 3))):
                for pol in policies:
                    got = exact_risk(pol, pmfs, q)
                    want = enumerate_product_risk(pol, pmfs, q)
                    assert got == pytest.approx(want, rel=1e-9, abs=1e-9), (pol, q)

    def test_st_fractional_levels_scored_exactly(self):
        p = SystemParams(T=2, L=0, U=4.0)
        pmfs = [np.array([0.5, 0.5])] * 2
        policy = NonStationary((1.5, 1.0))
        assert exact_risk(policy, pmfs, p) == pytest.approx(
            enumerate_product_risk(policy, pmfs, p), rel=0, abs=1e-12
        )

    def test_lead_pmf_convolution(self):
        pmfs = [np.array([0.5, 0.5]), np.array([0.25, 0.75])]
        got = lead_pmf(pmfs, 1, 1)
        assert got == pytest.approx([0.125, 0.5, 0.375])

    def test_delta_zero_fixed_cost(self):
        # order-every-period policy: K charged whenever the position is
        # strictly below S when ordering
        p = SystemParams(T=2, L=0, h=0.0, b=0.0, K=1.0, U=2.0, x1=0.0, Hlo=-5.0)
        pmfs = [np.array([0.5, 0.5]), np.array([0.5, 0.5])]
        pol = SsPolicy(2.0, 2.0)
        got = exact_risk(pol, pmfs, p)
        want = enumerate_product_risk(pol, pmfs, p)
        assert got == pytest.approx(want)


class TestModelRisk:
    def test_finite_support(self):
        p = SystemParams(T=2, L=0, U=8.0)
        model = FiniteSupport(((3.0, 7.0), (1.0, 2.0)))
        pol = BaseStock(4.0)
        a = simulate(pol, (3.0, 7.0), p).avg_loss
        b = simulate(pol, (1.0, 2.0), p).avg_loss
        assert ModelRisk(model, p)(pol) == pytest.approx((a + b) / 2)
        assert finite_support_risk(pol, model.as_matrix(), p) == pytest.approx((a + b) / 2)

    def test_finite_support_rejects_dust_atom(self):
        # simulate drops the dust order and gives 0.5; the closed form gave 0.0
        p = SystemParams(T=2, h=0.0, b=1.0, K=1.0)
        with pytest.raises(ValueError, match="ORDER_EPS"):
            finite_support_risk(BaseStock(1e-12), [[1e-12, 0.0]], p)

    def test_finite_support_rejects_nan_atom(self):
        p = SystemParams(T=2, U=8.0)
        with pytest.raises(ValueError, match="finite"):
            finite_support_risk(BaseStock(4.0), [[3.0, math.nan]], p)

    def test_deterministic_model(self):
        p = SystemParams(T=2, L=0, U=8.0)
        pol = BaseStock(4.0)
        want = simulate(pol, (3.0, 7.0), p).avg_loss
        assert ModelRisk(FiniteSupport(((3.0, 7.0),)), p)(pol) == pytest.approx(want)

    def test_exact_vs_mc_agreement(self):
        p = SystemParams(T=3, L=0, U=20.0)
        model = IndependentNormals((10.0,) * 3, (5.0,) * 3)
        pol = BaseStock(12.0)
        exact = ModelRisk(model, p)(pol)
        losses = policy_losses(pol, draw(model, 40_000, seed=5).as_matrix(), p)
        assert abs(losses.mean() - exact) < 4 * losses.std(ddof=1) / math.sqrt(len(losses))

    def test_mode_is_chosen_from_the_model(self):
        p = SystemParams(T=2, L=0, U=20.0)
        for model, mode in (
            (FiniteSupport(((3.0, 7.0), (1.0, 2.0))), "finite-support"),
            (FiniteSupport(((3.0, 7.0),)), "finite-support"),
            (IndependentNormals((10.0,) * 2, (5.0,) * 2), "exact"),
            (IndependentNormals((10.0,) * 2, (5.0,) * 2, cap=20.5), "mc"),
            (IndependentNormals((10.0,) * 2, (5.0,) * 2, integerize=False), "mc"),
        ):
            assert ModelRisk(model, p).mode == mode

    def test_monte_carlo_fallback_warns_once(self):
        p = SystemParams(T=3, L=0, U=20.0)
        model = IndependentNormals((10.0,) * 3, (5.0,) * 3, integerize=False)
        pol = BaseStock(12.0)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            risk = ModelRisk(model, p, eval_samples=60, seed=(3, 1))(pol)
        assert [type(w.message) for w in caught] == [RuntimeWarning]
        assert "Monte-Carlo paths, not exact" in str(caught[0].message)
        D = draw(model, 60, (3, 1)).as_matrix()
        assert risk == float(policy_losses(pol, D, p).mean())

    def test_base_stock_closed_forms_reject_positive_x1(self):
        # S = 1 would fit with risk 2/3, though S = 0 scores 0 from x1 = 1
        p = SystemParams(T=3, U=4.0, x1=1.0)
        D = np.array([[1.0, 0.0, 0.0]])
        pmfs = [np.array([0.5, 0.5])] * 3
        for call in (
            lambda: base_stock_kinks(D, p),
            lambda: base_stock_risk_curve(np.array([0.0, 1.0]), D, p),
            lambda: base_stock_loss_matrix(np.array([0.0, 1.0]), D, p),
            lambda: exact_base_stock_risk(np.array([0.0, 1.0]), pmfs, p),
            lambda: erm_base_stock(Dataset.from_matrix(D), p),
        ):
            with pytest.raises(ValueError, match=r"needs x1 <= 0, got x1=1\.0"):
                call()
        assert policy_losses(BaseStock(0.0), D, p)[0] == 0.0

    def test_policy_losses_base_stock_positive_x1(self):
        p = SystemParams(T=3, L=0, U=4.0, K=1.0, x1=2.0)
        D = np.array([[1.0, 3.0, 0.0]])
        got = policy_losses(BaseStock(2.0), D, p)[0]
        want = simulate(BaseStock(2.0), D[0], p, unchecked=True).avg_loss
        assert got == pytest.approx(want)


@st.composite
def base_stock_cases(draw_, min_K=0.0):
    """A system with lead time 0..2 and a matrix of fractional demands."""
    T = draw_(st.integers(1, 5))
    L = draw_(st.integers(0, 2))
    p = SystemParams(
        T=T, L=L, h=draw_(st.floats(0.0, 2.0)), b=draw_(st.floats(0.0, 2.0)),
        K=draw_(st.floats(min_K, 5.0)), U=8.0, x1=-draw_(st.floats(0.0, 3.0)),
    )
    n = draw_(st.integers(1, 4))
    # A positive demand at or below ORDER_EPS makes simulate drop that order
    # and fold it into the next one, which can then draw a fixed charge the
    # order-every-period closed form does not count.  A Dataset rejects such
    # dust, so it is excluded here too.
    demand = st.one_of(st.just(0.0), st.floats(1e-6, 8.0))
    cells = draw_(st.lists(demand, min_size=n * (T + L), max_size=n * (T + L)))
    return p, np.asarray(cells).reshape(n, T + L)


class TestBaseStockKernel:
    @settings(max_examples=150, deadline=None)
    @given(case=base_stock_cases(min_K=0.01), data=st.data())
    def test_loss_matrix_matches_simulate(self, case, data):
        p, D = case
        levels = data.draw(st.lists(st.floats(0.0, p.level_cap()), min_size=1, max_size=6))
        levels += [float(v) for v in D.ravel()[:2] if v <= p.level_cap()]
        got = base_stock_loss_matrix(levels, D, p)
        assert got.shape == (len(levels), len(D))
        for j, S in enumerate(levels):
            want = [simulate(BaseStock(S), row, p).avg_loss for row in D]
            assert got[j] == pytest.approx(want, rel=1e-9, abs=1e-9)

    def test_exact_risk_of_a_dust_first_order_matches_enumeration(self):
        # simulate drops a first order S - x1 of at most ORDER_EPS, so the
        # level waits at x1 until the first positive demand
        pmfs = [np.array([0.5, 0.25, 0.25])] * 4
        for T, L, K, x1 in [(1, 0, 0.0, 0.0), (2, 1, 1.5, 0.0), (3, 0, 2.0, -4e-13)]:
            p = SystemParams(T=T, L=L, h=0.5, b=2.0, K=K, U=3.0, x1=x1)
            for S in (0.0, 5e-13, 1e-12):
                want = enumerate_product_risk(BaseStock(S), pmfs[: T + L], p)
                assert exact_base_stock_risk(S, pmfs, p) == pytest.approx(want, rel=0, abs=1e-14)

    def test_loss_matrix_blocks_match_one_block(self, monkeypatch):
        rng = np.random.default_rng(8)
        p = SystemParams(T=4, L=1, h=1.0, b=3.0, K=2.0, U=6.0, x1=-1.0)
        D = rng.uniform(0.0, 6.0, (11, 5))
        levels = rng.uniform(0.0, p.level_cap(), 7)
        whole = base_stock_loss_matrix(levels, D, p)
        monkeypatch.setattr(evaluate, "_BLOCK_CELLS", 20)  # blocks of 2 paths
        blocked = base_stock_loss_matrix(levels, D, p)
        np.testing.assert_array_equal(blocked, whole)
        assert blocked.flags.c_contiguous

    @settings(max_examples=150, deadline=None)
    @given(case=base_stock_cases())
    def test_pooled_risk_at_fit_matches_simulate(self, case):
        p, D = case
        fit = erm_base_stock(Dataset.from_matrix(D), p)
        S = fit.policy.S
        want = np.mean([simulate(BaseStock(S), row, p).avg_loss for row in D])
        assert base_stock_risk_curve([S], D, p)[0] == pytest.approx(want, rel=1e-9, abs=1e-9)
        assert fit.in_sample_risk == pytest.approx(want, rel=1e-9, abs=1e-9)

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_exact_risk_curve_matches_enumeration(self, data):
        T = data.draw(st.integers(1, 3))
        L = data.draw(st.integers(0, 1))
        p = SystemParams(
            T=T, L=L, h=data.draw(st.floats(0.0, 2.0)), b=data.draw(st.floats(0.0, 2.0)),
            K=data.draw(st.floats(0.0, 3.0)), U=3.0, x1=-float(data.draw(st.integers(0, 2))),
        )
        pmfs = []
        for _ in range(T + L):
            w = np.asarray(data.draw(st.lists(st.floats(0.05, 1.0), min_size=1, max_size=3)))
            pmfs.append(w / w.sum())
        levels = np.asarray(
            data.draw(st.lists(st.floats(0.0, p.level_cap()), min_size=1, max_size=4))
            + list(range(int(p.level_cap()) + 1)), dtype=float,
        )
        curve = exact_base_stock_risk(levels, pmfs, p)
        assert curve.shape == levels.shape
        for S, risk in zip(levels, curve):
            assert risk == pytest.approx(exact_base_stock_risk(S, pmfs, p), rel=0, abs=1e-12)
            want = enumerate_product_risk(BaseStock(S), pmfs, p)
            assert risk == pytest.approx(want, rel=0, abs=1e-12)


def pmf_lists(data, n, max_size):
    """n random pmfs on 0 .. max_size - 1, some with a zero mass at 0."""
    pmfs = []
    for _ in range(n):
        w = data.draw(st.lists(st.sampled_from([0.0, 0.1, 0.35, 0.7, 1.0]),
                               min_size=1, max_size=max_size))
        w = np.asarray(w) if sum(w) > 0 else np.ones(len(w))
        pmfs.append(w / w.sum())
    return pmfs


def quarters(lo, hi):
    return st.integers(4 * lo, 4 * hi).map(lambda k: k / 4)


class TestLatticeKernel:
    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_matches_enumeration(self, data):
        # x1 and S sit on a grid of quarters, so simulate's (s, S) positions
        # are exact; s and the per-period levels may be any float.  With
        # x1 = -1e-13 a first order up to S = 0 (or to a level 0) is dust.
        # That x1 leaves simulate's later positions S - k off by an ulp (it
        # adds x1 - demand to an order S - x1), so s then sits an eighth off
        # the quarters, away from every S - k, where the ulp would decide.
        T = data.draw(st.integers(1, 3))
        L = data.draw(st.integers(0, 2))
        dust = data.draw(st.booleans())
        p = SystemParams(
            T=T, L=L, h=data.draw(st.floats(0.0, 2.0)), b=data.draw(st.floats(0.0, 2.0)),
            K=data.draw(st.one_of(st.just(0.0), st.floats(0.0, 4.0))), U=3.0,
            x1=-1e-13 if dust else data.draw(quarters(-3, 2)),
        )
        pmfs = pmf_lists(data, T + L, 3)
        S = data.draw(quarters(0, 5))
        if dust:
            s_values = quarters(-4, 5).map(lambda v: v + 0.125)
        else:
            s_values = st.one_of(quarters(-4, 5), st.floats(-4.0, 5.0))
        s = data.draw(s_values.filter(lambda v: v <= S))
        level = st.one_of(quarters(0, 5), st.floats(0.0, 5.0))
        levels = data.draw(st.lists(level, min_size=T + L, max_size=T + L))
        ss, per_period = SsPolicy(s, S), NonStationary(levels)
        for policy, got in ((ss, exact_ss_risk(ss, pmfs, p)),
                            (per_period, exact_st_risk(levels, pmfs, p))):
            want = enumerate_product_risk(policy, pmfs, p)
            assert got == pytest.approx(want, rel=0, abs=1e-12), policy


def double_loop_best_ss(pmfs, p):
    """Every integer pair scored by exact_ss_risk; ties by (risk, S - s, S)."""
    lo, hi, _ = p.ss_bounds()
    best = None
    for S in range(max(math.ceil(lo), 0), math.floor(hi) + 1):
        for s in range(math.ceil(lo), S + 1):
            key = (exact_ss_risk(SsPolicy(float(s), float(S)), pmfs, p), S - s, S)
            if best is None or key < best:
                best = key
    risk, gap, S = best
    return SsPolicy(float(S - gap), float(S)), risk


class TestExactSsSearch:
    @settings(max_examples=120, deadline=None)
    @given(data=st.data())
    def test_best_integer_ss_matches_double_loop(self, data):
        T = data.draw(st.integers(1, 4))
        L = data.draw(st.integers(0, 2))
        x1 = data.draw(st.one_of(st.integers(-4, 2).map(float), st.floats(-4.0, 2.0)))
        # Hlo < x1, so the pairs with s < x1 take the exact_ss_risk fallback
        Hlo = float(math.floor(x1) - data.draw(st.integers(1, 3)))
        p = SystemParams(
            T=T, L=L, h=data.draw(st.floats(0.0, 2.0)), b=data.draw(st.floats(0.0, 3.0)),
            K=data.draw(st.one_of(st.just(0.0), st.floats(0.0, 4.0))), U=3.0, x1=x1,
            H=float(data.draw(st.integers(max(math.ceil(Hlo), 0), 6))), Hlo=Hlo,
        )
        pmfs = pmf_lists(data, T + L, 4)
        policy, risk = best_integer_ss(pmfs, p)
        want_policy, want_risk = double_loop_best_ss(pmfs, p)
        assert policy == want_policy
        assert risk == want_risk  # the same float, bit for bit

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_batch_scores_each_policy_as_alone(self, data):
        # a mixed batch: pairs with s < x1 (the lattice kernel) and pairs
        # with s >= x1 on several gaps (the per-gap propagation); each gets
        # the float of a call of its own, bit for bit
        T = data.draw(st.integers(1, 4))
        L = data.draw(st.integers(0, 2))
        x1 = data.draw(st.one_of(st.integers(-3, 2).map(float), st.floats(-3.0, 2.0)))
        p = SystemParams(
            T=T, L=L, h=data.draw(st.floats(0.0, 2.0)), b=data.draw(st.floats(0.0, 9.0)),
            K=data.draw(st.one_of(st.just(0.0), st.floats(0.0, 4.0))), U=12.0, x1=x1,
        )
        weights = st.lists(st.floats(0.01, 1.0), min_size=1, max_size=12)
        pmfs = [np.asarray(w) / sum(w) for w in
                (data.draw(weights) for _ in range(T + L))]
        top = max(x1, 0.0)
        pairs = [(x1 - 1.0, top + 1.0), (x1 - 0.5, top), (top, top), (top, top + 2.0),
                 (top + 1.0, top + 4.5)]
        for _ in range(data.draw(st.integers(0, 12))):
            s = data.draw(st.one_of(st.integers(-5, 6).map(float), st.floats(-5.0, 6.0)))
            pairs.append((s, max(s, 0.0) + data.draw(st.floats(0.0, 8.0))))
        s_vals, S_vals = np.array(pairs).T
        batch = exact_ss_risks(s_vals, S_vals, pmfs, p)
        alone = [exact_ss_risk(SsPolicy(s, S), pmfs, p) for s, S in pairs]
        assert [float(r).hex() for r in batch] == [r.hex() for r in alone]
        levels = np.asarray(data.draw(st.lists(
            st.one_of(st.integers(0, 30).map(float), st.floats(0.0, 30.0)),
            min_size=1, max_size=40)))
        p0 = replace(p, x1=min(x1, 0.0))
        curve = exact_base_stock_risk(levels, pmfs, p0)
        alone = [exact_base_stock_risk(S, pmfs, p0) for S in levels]
        assert [float(r).hex() for r in curve] == [r.hex() for r in alone]

    def test_all_ties_pick_the_first_pair_without_the_lattice(self, monkeypatch):
        # h = b = K = 0: every pair has risk 0, so the first pair in ss_pairs
        # order wins; with Hlo >= x1 every pair takes the per-gap propagation
        calls = []
        lattice = evaluate._lattice_risk
        monkeypatch.setattr(evaluate, "_lattice_risk",
                            lambda *args: calls.append(1) or lattice(*args))
        pmfs = [np.full(21, 1 / 21)] * 20
        p = SystemParams(T=20, h=0.0, b=0.0, K=0.0, U=20.0, x1=-25.0, H=45.0, Hlo=-25.0)
        s, S = evaluate.ss_pairs(np.arange(-25, 46))
        assert (s[0], S[0]) == (0.0, 0.0)
        assert best_integer_ss(pmfs, p) == (SsPolicy(0.0, 0.0), 0.0)
        assert calls == []
        # the pairs with s < x1 are the ones scored on the lattice
        best_integer_ss(pmfs[:2], replace(p, T=2, x1=-23.0))
        assert len(calls) == int((s < -23.0).sum()) == 2 * 46

    def test_one_float_for_one_policy_at_x1_equal_to_S(self):
        # at x1 == S no policy orders in period 1, so (S, S) and (S - 1, S)
        # are one policy; the smaller gap wins the tie
        rng = np.random.default_rng(13)
        for _ in range(200):
            T, L, H = int(rng.integers(1, 5)), int(rng.integers(0, 3)), int(rng.integers(1, 6))
            p = SystemParams(T=T, L=L, h=rng.uniform(0.1, 2.0), b=rng.uniform(0.1, 9.0),
                             K=0.0, U=4.0, x1=float(H), H=float(H), Hlo=-1.0)
            pmfs = [rand_pmf(rng, int(rng.integers(1, 5))) for _ in range(T + L)]
            same = exact_ss_risks(np.array([H, H - 1.0]), np.array([H, H], dtype=float), pmfs, p)
            assert same[0].hex() == same[1].hex()
            assert best_integer_ss(pmfs, p)[0] != SsPolicy(H - 1.0, float(H))

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_below_x1_equal_to_S_matches_enumeration(self, data):
        T = data.draw(st.integers(1, 3))
        L = data.draw(st.integers(0, 2))
        S = data.draw(quarters(0, 4))
        p = SystemParams(T=T, L=L, h=data.draw(st.floats(0.0, 2.0)),
                         b=data.draw(st.floats(0.0, 2.0)), K=data.draw(st.floats(0.0, 3.0)),
                         U=3.0, x1=S)
        pmfs = pmf_lists(data, T + L, 3)
        s_vals = np.array([S - data.draw(st.floats(0.0, 4.0, exclude_min=True))
                           for _ in range(3)])
        got = exact_ss_risks(s_vals, np.full(3, S), pmfs, p)
        for s, risk in zip(s_vals, got):
            want = enumerate_product_risk(SsPolicy(s, S), pmfs, p)
            assert risk == pytest.approx(want, rel=0, abs=1e-12), s

    def test_empty_grid_rejected(self):
        p = SystemParams(T=2, U=3.0, H=-1.0, Hlo=-2.0)
        with pytest.raises(ValueError, match="empty"):
            best_integer_ss([np.array([0.5, 0.5])] * 2, p)

    def test_reorder_decided_by_position_not_rounded_gap(self):
        # S - s rounds to 1.0, but the position S - 1 = 0 stays above s, so
        # simulate places no second order
        p = SystemParams(T=2, L=0, h=0.0, b=0.0, K=1.0, x1=-2.0)
        pmfs = [np.array([0.5, 0.5]), np.array([1.0])]
        policy = SsPolicy(-3e-17, 1.0)
        want = enumerate_product_risk(policy, pmfs, p)
        assert want == 0.5
        assert exact_ss_risk(policy, pmfs, p) == want
        assert exact_ss_risks(np.array([policy.s]), np.array([policy.S]), pmfs, p)[0] == want

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_gap_curve_matches_enumeration(self, data):
        # x1 and S sit on a grid of quarters, so every lattice position
        # (x1 - k, S - k) is exact and agrees with simulate's; s is any float.
        T = data.draw(st.integers(1, 3))
        L = data.draw(st.integers(0, 1))
        x1 = data.draw(quarters(-3, 2))
        p = SystemParams(
            T=T, L=L, h=data.draw(st.floats(0.0, 2.0)), b=data.draw(st.floats(0.0, 2.0)),
            K=data.draw(st.floats(0.0, 3.0)), U=3.0, x1=x1,
        )
        pmfs = pmf_lists(data, T + L, 3)
        top = max(x1, 0.0)
        pairs = [
            (top, top),  # gap 0; the period-1 order is empty when x1 >= 0
            (top + 1.0, top + 1.0),  # gap 0: an order in every period with demand
            (top + 0.5, top + 2.0),
            (top + 0.25, top + 1.75),  # fractional gap and S
        ]
        for _ in range(data.draw(st.integers(0, 4))):
            s = data.draw(st.floats(-4.0, 5.0))
            S = math.ceil(4 * max(s, 0.0)) / 4 + data.draw(quarters(0, 4))
            pairs.append((s, S))
        s_vals, S_vals = np.array(pairs).T
        got = exact_ss_risks(s_vals, S_vals, pmfs, p)
        for (s, S), risk in zip(pairs, got):
            want = enumerate_product_risk(SsPolicy(s, S), pmfs, p)
            assert risk == pytest.approx(want, rel=0, abs=1e-12), (s, S)
