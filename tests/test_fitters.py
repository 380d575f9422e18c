import itertools
import math
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stocklab.core import (
    ORDER_EPS,
    BaseStock,
    BudgetError,
    Dataset,
    NonStationary,
    SsPolicy,
    SystemParams,
    simulate,
    validate_policy,
)
from stocklab import evaluate, fitters
from stocklab.demand import make_rng
from stocklab.evaluate import (
    dataset_risk,
    lead_demand_sums,
    prefix_sums,
    ss_losses_grid,
    st_losses,
    st_losses_grid,
)
from stocklab.perm import build_marginals, perm_fit

from stocklab.fitters import (
    FitResult,
    StOptions,
    erm_St,
    erm_St_batch,
    erm_base_stock,
    erm_eoq_base_stock,
    erm_sS,
    fit_level_fixed_gap,
    grid_oracle,
    square_root_gap,
)


def params(**kw):
    defaults = dict(T=2, L=0, h=1.0, b=9.0, K=0.0, U=10.0, x1=0.0)
    defaults.update(kw)
    return SystemParams(**defaults)


def ss_ready(p):
    """Copy of p with x1 at the reorder-point lower bound (the class default)."""
    lo, _, _ = p.ss_bounds()
    return params(T=p.T, L=p.L, h=p.h, b=p.b, K=p.K, U=p.U, H=p.H, Hlo=p.Hlo, x1=lo)


def demand_floats(hi):
    """Floats in [0, hi] that a Dataset accepts: 0 or above ORDER_EPS."""
    return st.floats(0.0, hi).filter(lambda v: v == 0.0 or v > ORDER_EPS)


def random_instance(rng, integer=False, max_T=5, max_N=5):
    T = int(rng.integers(1, max_T + 1))
    L = int(rng.integers(0, 2))
    n = int(rng.integers(1, max_N + 1))
    U = 8.0
    p = params(T=T, L=L, h=float(rng.uniform(0.1, 1.5)), b=float(rng.uniform(0.1, 1.5)),
               K=float(rng.choice([0.0, rng.uniform(0, 3)])), U=U)
    if integer:
        D = rng.integers(0, int(U) + 1, (n, T + L)).astype(float)
    else:
        D = rng.uniform(0, U, (n, T + L))
    return Dataset.from_matrix(D), p


class TestErmBaseStock:
    def test_single_sequence(self):
        data = Dataset.from_matrix([[3.0, 7.0]])
        res = erm_base_stock(data, params())
        assert res.policy == BaseStock(7.0)
        assert res.in_sample_risk == pytest.approx(2.0)
        # oracle: fine grid confirms the minimum
        oracle = grid_oracle(data, "base-stock", 0.01, params())
        assert oracle.policy.S == pytest.approx(7.0)
        assert oracle.in_sample_risk >= res.in_sample_risk - 1e-12

    def test_constant_demand_zero_loss(self):
        data = Dataset.from_matrix([[4.0, 4.0, 4.0]])
        res = erm_base_stock(data, params(T=3))
        assert res.policy == BaseStock(4.0)
        assert res.in_sample_risk == pytest.approx(0.0)

    def test_matches_grid_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(60):
            data, p = random_instance(rng)
            res = erm_base_stock(data, p)
            oracle = grid_oracle(data, "base-stock", 1e-3, p)
            assert res.in_sample_risk <= oracle.in_sample_risk + 1e-3
            assert oracle.in_sample_risk <= res.in_sample_risk + 1e-3

    def test_never_beaten_by_grid(self):
        rng = np.random.default_rng(1)
        for _ in range(300):
            data, p = random_instance(rng)
            res = erm_base_stock(data, p)
            oracle = grid_oracle(data, "base-stock", 1e-3, p)
            assert oracle.in_sample_risk >= res.in_sample_risk - 1e-6

    def test_smallest_level_on_ties(self):
        # flat segment between the two kinks: smallest kink wins
        data = Dataset.from_matrix([[2.0], [6.0]])
        p = params(T=1, h=1.0, b=1.0)
        res = erm_base_stock(data, p)
        assert res.policy.S == 2.0
        assert res.method == "critical-fractile"
        assert res.diagnostics == {}

    def test_level_zero_wins_a_tie_with_the_fractile(self):
        # from x1 = 0, level 0 saves the first order's K = 1 and costs 1
        # more than the fractile, level 1, in the three periods: an exact tie
        data = Dataset.from_matrix([[1.0, 2.0, 0.0]])
        for x1, want in ((0.0, 0.0), (-1e-13, 0.0), (-1.0, 1.0)):
            p = params(T=3, h=1.0, b=1.0, K=1.0, x1=x1)
            assert erm_base_stock(data, p).policy == BaseStock(want)

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_smallest_level_among_exact_ties(self, data):
        T = data.draw(st.integers(1, 3))
        L = data.draw(st.integers(0, 2))
        rate = st.sampled_from([0.0, 0.3, 0.5, 0.7, 1.0, 2.0, 9.0])
        p = params(T=T, L=L, h=data.draw(rate), b=data.draw(rate), U=4.0,
                   K=data.draw(st.sampled_from([0.0, 0.5, 1.0, 2.5])),
                   x1=data.draw(st.sampled_from([0.0, -1e-13, -1.0])),
                   H=data.draw(st.sampled_from([None, 2.5, 4.0, 6.75])))
        n = data.draw(st.integers(1, 4))
        cell = st.one_of(st.integers(0, 4).map(float), st.integers(0, 40).map(lambda k: k / 10))
        D = np.reshape(data.draw(st.lists(cell, min_size=n * (T + L), max_size=n * (T + L))),
                       (n, T + L))
        kinks = evaluate.base_stock_kinks(D, p)
        risks = [fraction_base_stock_risk(S, D, p) for S in kinks]
        want = kinks[risks.index(min(risks))]
        assert erm_base_stock(Dataset.from_matrix(D), p).policy == BaseStock(float(want))

    def test_risk_matches_mean_simulated_loss(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            data, p = random_instance(rng)
            res = erm_base_stock(data, p)
            want = np.mean([simulate(res.policy, row, p).avg_loss for row in data.as_matrix()])
            assert res.in_sample_risk == pytest.approx(want, abs=1e-9)


def fraction_base_stock_risk(S, D, p):
    """The empirical risk of base-stock level S (x1 <= 0) in exact rational
    arithmetic on the floats: the mean over the paths of c(S - a) at every
    lead-time demand sum a, plus K for every charged order."""
    h, b = Fraction(p.h), Fraction(p.b)
    cost = 0
    for a in map(Fraction, lead_demand_sums(D, p.L).ravel().tolist()):
        cost += h * (Fraction(S) - a) if a <= S else b * (a - Fraction(S))
    orders = int((D[:, : p.T - 1] > ORDER_EPS).sum()) + len(D) * int(S - p.x1 > ORDER_EPS)
    return (cost + Fraction(p.K) * orders) / (len(D) * p.T)


class TestErmEoq:
    def test_gap_formula(self):
        p = params(T=20, K=18.0, U=20.0)
        assert square_root_gap(10.0, p) == pytest.approx(20.0)
        for h, b in ((0.0, 9.0), (1.0, 0.0)):
            with pytest.raises(ValueError, match="h > 0 and b > 0"):
                square_root_gap(10.0, params(T=20, h=h, b=b, K=18.0))

    def test_zero_fixed_cost_reduces_to_base_stock(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            data, p = random_instance(rng)
            p = params(T=p.T, L=p.L, h=p.h, b=p.b, K=0.0, U=p.U)
            eoq = erm_eoq_base_stock(data, p)
            base = erm_base_stock(data, p)
            assert eoq.in_sample_risk == pytest.approx(base.in_sample_risk, abs=1e-9)
            assert eoq.policy.S == pytest.approx(base.policy.S)

    def test_restricted_class_never_beats_full_search(self):
        rng = np.random.default_rng(4)
        for _ in range(25):
            data, p = random_instance(rng, integer=True, max_T=4, max_N=3)
            if p.K == 0:
                continue
            # the fixed-gap class has no reorder-point bound, so widen the
            # (s, S) search space until the fixed-gap slice is inside it and
            # fit both on that shared system
            lo = min(p.ss_bounds()[0], -square_root_gap(data.as_matrix().mean(), p)) - 1.0
            wide = params(T=p.T, L=p.L, h=p.h, b=p.b, K=p.K, U=p.U, Hlo=lo, x1=lo)
            eoq = erm_eoq_base_stock(data, wide)
            full = erm_sS(data, wide, mode="exact")
            assert eoq.in_sample_risk >= full.in_sample_risk - 1e-9

    @pytest.mark.parametrize("delta", [-1.0, math.nan, math.inf])
    def test_fixed_gap_rejects_unusable_gap(self, delta):
        data = Dataset.from_matrix([[3.0, 7.0]])
        with pytest.raises(ValueError, match="delta must be a finite number >= 0"):
            fit_level_fixed_gap(data, params(), delta)

    def test_fixed_gap_fit_matches_dense_grid(self):
        # oracle: dense S grid at the same fixed gap
        rng = np.random.default_rng(5)
        for _ in range(25):
            data, p = random_instance(rng)
            delta = float(rng.uniform(0, 10))
            res = fit_level_fixed_gap(data, p, delta)
            grid = np.arange(0.0, p.level_cap() + delta + 1e-9, 1e-3)
            risks = ss_losses_grid(grid - delta, grid, data.as_matrix(), p).mean(axis=1)
            assert res.in_sample_risk <= risks.min() + 1e-3


class TestErmSs:
    def test_zero_k_single_sequence(self):
        data = Dataset.from_matrix([[3.0, 7.0]])
        res = erm_sS(data, params(), mode="exact")
        assert res.in_sample_risk == pytest.approx(2.0)
        assert res.policy.delta == 0.0
        assert res.policy.S == pytest.approx(7.0)

    def test_large_fixed_cost_orders_once(self):
        data = Dataset.from_matrix([[3.0, 7.0]])
        p = params(K=100.0, H=10.0)
        res = erm_sS(data, p, mode="exact")
        assert res.in_sample_risk == pytest.approx(53.5)
        assert res.policy.S == pytest.approx(10.0)
        assert res.policy.delta > 3.0

    def test_integer_grid_example(self):
        data = Dataset.from_matrix([[3.0, 7.0]])
        p = params(K=100.0, H=10.0, Hlo=-10.0, x1=-10.0)
        res = erm_sS(data, p, mode="integer-grid")
        assert res.in_sample_risk == pytest.approx(53.5)

    def test_exact_matches_integer_grid(self):
        rng = np.random.default_rng(6)
        integral_cases = 0
        for _ in range(60):
            data, base = random_instance(rng, integer=True, max_T=5, max_N=4)
            p = params(T=base.T, L=base.L, h=base.h, b=base.b, K=base.K,
                       U=base.U, H=12.0, Hlo=-6.0, x1=-6.0)
            exact = erm_sS(data, p, mode="exact")
            grid = erm_sS(data, p, mode="integer-grid")
            # exact can only improve on the integer grid
            assert exact.in_sample_risk <= grid.in_sample_risk + 1e-9
            if exact.policy.S == round(exact.policy.S):
                integral_cases += 1
                assert exact.in_sample_risk == pytest.approx(
                    grid.in_sample_risk, abs=1e-9
                )
        assert integral_cases >= 40  # integer demands mostly give integral optima

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_integer_grid_is_the_first_exact_minimum(self, data):
        T = data.draw(st.integers(1, 4))
        L = data.draw(st.integers(0, 2))
        # zero cost rates and fractional bounds give ties and ragged grids;
        # two fractional bounds with no integer between them an empty axis
        bound = st.one_of(st.none(), st.integers(-4, 8).map(float),
                          st.integers(-16, 32).map(lambda v: v / 4))
        H, Hlo = data.draw(bound), data.draw(bound)
        if H is not None and Hlo is not None and Hlo > H:
            H, Hlo = Hlo, H
        p = ss_ready(params(T=T, L=L, h=data.draw(st.sampled_from([0.0, 0.5, 1.0])),
                            b=data.draw(st.sampled_from([0.0, 1.0, 9.0])),
                            K=data.draw(st.sampled_from([0.0, 0.5, 3.0, 18.0])), U=1.0,
                            H=H, Hlo=Hlo))
        p = replace(p, x1=p.x1 - data.draw(st.sampled_from([0.0, 0.5, 2.0])))
        n = data.draw(st.integers(1, 4))
        D = data.draw(st.lists(st.integers(0, 4), min_size=n * (T + L), max_size=n * (T + L)))
        dataset = Dataset.from_matrix(np.reshape(D, (n, T + L)).astype(float))
        try:
            want = exact_total_erm_sS(dataset, p)
        except ValueError:
            with pytest.raises(ValueError):
                erm_sS(dataset, p, mode="integer-grid")
            return
        got = erm_sS(dataset, p, mode="integer-grid")
        assert got.policy == want.policy
        assert got.in_sample_risk.hex() == want.in_sample_risk.hex()
        assert got.diagnostics == want.diagnostics

    def test_integer_grid_takes_the_first_exact_tie(self):
        # (0, 0) and (1, 1) both cost 5 in total; float means of path losses
        # divided by T round them apart
        data = Dataset.from_matrix([[0.0, 0.0, 0.0], [1.0, 1.0, 3.0]])
        p = params(T=3, h=1.0, b=1.0, U=4.0, H=4.0, Hlo=0.0, x1=0.0)
        assert erm_sS(data, p, mode="integer-grid").policy == SsPolicy(0.0, 0.0)

    def test_integer_grid_rejects_an_empty_axis(self):
        data = Dataset.from_matrix([[3.0, 7.0]])
        with pytest.raises(ValueError, match="empty"):
            erm_sS(data, params(H=0.75, Hlo=0.25, x1=0.0), mode="integer-grid")

    @pytest.mark.parametrize("zeros", [False, True])
    def test_integer_grid_blocks_match_one_block(self, monkeypatch, zeros):
        # 200 paths x 20 periods: 4 gaps a block, and the all-zero data ties
        # S = 0 across the first 26 gaps, so the blocks must keep the first
        rng = np.random.default_rng(21)
        D = np.zeros((200, 20)) if zeros else rng.integers(0, 21, (200, 20)).astype(float)
        data = Dataset.from_matrix(D)
        p = params(T=20, h=1.0, b=9.0, K=18.0, U=20.0, H=45.0, Hlo=-25.0, x1=-25.0)
        shapes = []
        order_windows = fitters._order_windows

        def spy(served, D, p):
            shapes.append(served.shape)
            return order_windows(served, D, p)

        monkeypatch.setattr(fitters, "_order_windows", spy)
        blocked = erm_sS(data, p, mode="integer-grid")
        assert len(shapes) == 18 and all(math.prod(shape) <= 2**14 for shape in shapes)
        shapes.clear()
        monkeypatch.setattr(fitters, "_WINDOW_BLOCK_CELLS", 2**30)
        whole = erm_sS(data, p, mode="integer-grid")
        assert shapes == [(71, 200, 20)]
        assert blocked == whole
        if zeros:
            assert blocked.policy == SsPolicy(0.0, 0.0)

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_exact_matches_per_row_enumeration(self, data):
        T = data.draw(st.integers(1, 5))
        L = data.draw(st.integers(0, 2))
        bound = st.one_of(st.none(), st.integers(-6, 12).map(float),
                          st.integers(-24, 48).map(lambda v: v / 4))
        H, Hlo = data.draw(bound), data.draw(bound)
        if H is not None and Hlo is not None and Hlo > H:
            H, Hlo = Hlo, H
        p = ss_ready(params(T=T, L=L, h=data.draw(st.sampled_from([0.0, 0.5, 1.0, 2.5])),
                            b=data.draw(st.sampled_from([0.0, 1.0, 9.0])),
                            K=data.draw(st.one_of(st.sampled_from([0.0, 3.0, 18.0]),
                                                  st.floats(0.0, 20.0))),
                            U=6.0, H=H, Hlo=Hlo))
        p = replace(p, x1=p.x1 - data.draw(st.sampled_from([0.0, 0.5, 2.0])))
        n = data.draw(st.integers(1, 5))
        cell = data.draw(st.sampled_from([st.integers(0, 6).map(float), demand_floats(6.0)]))
        D = data.draw(st.lists(cell, min_size=n * (T + L), max_size=n * (T + L)))
        dataset = Dataset.from_matrix(np.reshape(D, (n, T + L)))
        try:
            want = per_row_erm_sS(dataset, p)
        except ValueError:
            with pytest.raises(ValueError):
                erm_sS(dataset, p, mode="exact")
            return
        got = erm_sS(dataset, p, mode="exact")
        assert (got.policy.s.hex(), got.policy.S.hex()) == (
            want.policy.s.hex(), want.policy.S.hex())
        assert got.in_sample_risk.hex() == want.in_sample_risk.hex()
        assert got.diagnostics == want.diagnostics

    def test_exact_keeps_s_at_the_reorder_point_bound(self):
        # (-4.23, 5.29) and (-6, 3.12) tie; S - (S - Hlo) = 3.12 - 9.12 rounds to
        # -6.000000000000001, and an s below x1 = Hlo places no first order
        data = Dataset.from_matrix([[3.12, 0.0, 0.0, 3.92, 0.0], [1.51, 0.84, 2.94, 0.37, 0.0]])
        p = params(T=5, h=1.0, b=1.0, K=3.0, U=6.0, Hlo=-6.0, x1=-6.0)
        fit = erm_sS(data, p, mode="exact")
        assert fit.policy == SsPolicy(-6.0, 3.12)
        assert fit.in_sample_risk == pytest.approx(2.347, abs=1e-12)

    def test_exact_scores_the_reorder_point_bound_at_gap_zero(self):
        # at gap 0, S = Hlo leaves s = Hlo and is feasible; every pair costs 0
        data = Dataset.from_matrix([[0.0]])
        p = params(T=1, h=0.0, b=0.0, K=0.0, Hlo=1.0, x1=1.0)
        fit = erm_sS(data, p, mode="exact")
        assert fit.policy == SsPolicy(1.0, 1.0)
        assert fit.in_sample_risk == 0.0

    def test_rejects_infinite_reorder_point_bound(self):
        data = Dataset.from_matrix([[3.0, 7.0]])
        fits = (
            erm_sS, lambda d, p: erm_sS(d, p, mode="integer-grid"),
            lambda d, p: grid_oracle(d, "ss", 1.0, p),
            lambda d, p: perm_fit(build_marginals(d), p, "ss"),
        )
        for fit in fits:
            with pytest.raises(ValueError, match="finite reorder-point bound Hlo, got -inf"):
                fit(data, params(Hlo=-math.inf, x1=-1.0))

    @pytest.mark.parametrize("Hlo,H", [(-3.0, 5.0), (0.0, 6.0), (-6.0, 0.0), (2.0, 4.0)])
    def test_integer_grid_budget_is_grid_oracles(self, monkeypatch, Hlo, H):
        # on integer bounds the integer grid is grid_oracle's unit grid, so
        # both raise past the same budget and return the same pick below it
        data = Dataset.from_matrix([[3.0, 1.0], [0.0, 2.0]])
        p = params(H=H, Hlo=Hlo, x1=Hlo)
        axis = np.arange(Hlo, H + 1.0)
        points = sum(1 for s in axis for S in axis if 0.0 <= S and s <= S)
        for budget in (points - 1, points, points + 1):
            monkeypatch.setattr(fitters, "GRID_BUDGET", budget)
            if budget < points:
                with pytest.raises(BudgetError):
                    grid_oracle(data, "ss", 1.0, p)
                with pytest.raises(BudgetError):
                    erm_sS(data, p, mode="integer-grid")
            else:
                oracle = grid_oracle(data, "ss", 1.0, p)
                grid = erm_sS(data, p, mode="integer-grid")
                assert grid.policy == oracle.policy
                assert grid.in_sample_risk == oracle.in_sample_risk
                assert grid.diagnostics["candidate_count"] == oracle.diagnostics["candidate_count"]

    def test_integer_grid_rejects_fractional_demands(self):
        data = Dataset.from_matrix([[0.5, 1.0]])
        with pytest.raises(ValueError, match="integer"):
            erm_sS(data, params(), mode="integer-grid")

    def test_risk_monotone_in_bounds(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            data, p = random_instance(rng, integer=True, max_T=4, max_N=3)
            wide = params(T=p.T, L=p.L, h=p.h, b=p.b, K=p.K, U=p.U, H=25.0, Hlo=-10.0, x1=-10.0)
            narrow = params(T=p.T, L=p.L, h=p.h, b=p.b, K=p.K, U=p.U, H=12.0, Hlo=-2.0, x1=-10.0)
            r_wide = erm_sS(data, wide, mode="exact").in_sample_risk
            r_narrow = erm_sS(data, narrow, mode="exact").in_sample_risk
            assert r_wide <= r_narrow + 1e-9

    def test_nesting_with_base_stock(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            data, p = random_instance(rng)
            p0 = params(T=p.T, L=p.L, h=p.h, b=p.b, K=0.0, U=p.U, H=p.level_cap(), Hlo=-5.0, x1=-5.0)
            ss = erm_sS(data, p0, mode="exact")
            base = erm_base_stock(data, params(T=p.T, L=p.L, h=p.h, b=p.b, K=0.0, U=p.U, H=p0.H))
            assert ss.in_sample_risk <= base.in_sample_risk + 1e-9


class TestErmSt:
    def test_single_sequence_perfect_fit(self):
        data = Dataset.from_matrix([[3.0, 7.0]])
        res = erm_St(data, params())
        assert res.in_sample_risk == pytest.approx(0.0, abs=1e-12)
        assert res.policy.levels[0] == pytest.approx(3.0)
        assert res.policy.levels[1] == pytest.approx(7.0)

    def test_requires_zero_fixed_cost(self):
        data = Dataset.from_matrix([[1.0, 2.0]])
        with pytest.raises(ValueError, match="K"):
            erm_St(data, params(K=1.0))

    def test_positive_initial_stock(self):
        # restart 0 starts from the base-stock fit made at x1 = 0
        data = Dataset.from_matrix([[1.0, 0.0, 0.0]])
        p = params(T=3, x1=1.0)
        res = erm_St(data, p)
        assert res.in_sample_risk == 0.0
        assert res.in_sample_risk == simulate(res.policy, (1.0, 0.0, 0.0), p, unchecked=True).avg_loss

    def test_matches_exhaustive_enumeration(self):
        # oracle: full integer-level grid on tiny instances
        rng = np.random.default_rng(9)
        for _ in range(50):
            T = int(rng.integers(1, 4))
            n = int(rng.integers(1, 4))
            p = params(T=T, h=float(rng.uniform(0.2, 1.2)), b=float(rng.uniform(0.2, 1.2)),
                       U=4.0)
            D = rng.integers(0, 5, (n, T)).astype(float)
            data = Dataset.from_matrix(D)
            res = erm_St(data, p)
            oracle = grid_oracle(data, "st", 1.0, p)
            assert res.in_sample_risk <= oracle.in_sample_risk + 1e-6

    def test_not_worse_than_base_stock(self):
        rng = np.random.default_rng(10)
        for _ in range(20):
            data, p = random_instance(rng)
            p0 = params(T=p.T, L=p.L, h=p.h, b=p.b, K=0.0, U=p.U)
            st = erm_St(data, p0)
            base = erm_base_stock(data, p0)
            assert st.in_sample_risk <= base.in_sample_risk + 1e-8

    def test_deterministic(self):
        data = Dataset.from_matrix([[3.0, 5.0, 1.0], [2.0, 6.0, 2.0]])
        p = params(T=3)
        a = erm_St(data, p, StOptions(seed=5))
        b = erm_St(data, p, StOptions(seed=5))
        assert a.policy == b.policy
        assert a.in_sample_risk == b.in_sample_risk

    @pytest.mark.parametrize("field", ["restarts", "max_sweeps"])
    @pytest.mark.parametrize("value", [0, -3])
    def test_options_need_a_positive_count(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be >= 1, got {value}"):
            StOptions(**{field: value})
        assert getattr(StOptions(**{field: 1}), field) == 1

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_matches_per_restart_loop(self, data):
        T = data.draw(st.integers(1, 8))
        L = data.draw(st.integers(0, 2))
        U = float(data.draw(st.sampled_from([3, 8, 20])))
        p = params(T=T, L=L, h=data.draw(st.sampled_from([0.0, 0.5, 1.0, 1.3])),
                   b=data.draw(st.sampled_from([0.0, 1.0, 3.0, 9.0])), U=U,
                   x1=data.draw(st.sampled_from([0.0, -2.0, -0.25, 1.5, 4.0])),
                   H=data.draw(st.sampled_from([None, 0.0, 2.5, 6.0])))
        n = data.draw(st.integers(1, 6))
        cell = st.one_of(st.integers(0, int(U)).map(float),
                         st.integers(0, 4 * int(U)).map(lambda v: v / 4),
                         demand_floats(U))
        D = np.asarray(data.draw(st.lists(cell, min_size=n * (T + L), max_size=n * (T + L))))
        dataset = Dataset.from_matrix(D.reshape(n, T + L))
        opts = StOptions(restarts=data.draw(st.sampled_from([1, 3, 8])),
                         max_sweeps=data.draw(st.sampled_from([1, 2, 100])),
                         seed=data.draw(st.integers(0, 50)))
        assert hexed(erm_St(dataset, p, opts)) == hexed(per_restart_erm_St(dataset, p, opts))

    def test_restarts_converge_at_different_sweeps(self):
        # the restarts leave the batch at different sweeps, and some never converge
        rng = np.random.default_rng(12)
        D = rng.integers(0, 21, (12, 30)).astype(float)
        data = Dataset.from_matrix(D)
        p = params(T=30, U=20.0)
        for max_sweeps in (1, 2, 3, 100):
            opts = StOptions(max_sweeps=max_sweeps, seed=3)
            got = erm_St(data, p, opts)
            assert hexed(got) == hexed(per_restart_erm_St(data, p, opts))
        assert not erm_St(data, p, StOptions(max_sweeps=1, seed=3)).diagnostics["converged"]

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_batch_matches_one_fit_per_dataset(self, data):
        T = data.draw(st.integers(1, 8))
        L = data.draw(st.integers(0, 2))
        U = float(data.draw(st.sampled_from([3, 8, 20])))
        p = params(T=T, L=L, h=data.draw(st.sampled_from([0.0, 0.5, 1.0, 1.3])),
                   b=data.draw(st.sampled_from([0.0, 1.0, 3.0, 9.0])), U=U,
                   x1=data.draw(st.sampled_from([0.0, -2.0, -0.25, 1.5])),
                   H=data.draw(st.sampled_from([None, 0.0, 2.5, 6.0])))
        n = data.draw(st.integers(1, 5))
        cell = st.one_of(st.integers(0, int(U)).map(float),
                         st.integers(0, 4 * int(U)).map(lambda v: v / 4),
                         demand_floats(U))
        datasets = [
            Dataset.from_matrix(np.reshape(data.draw(st.lists(
                cell, min_size=n * (T + L), max_size=n * (T + L))), (n, T + L)))
            for _ in range(data.draw(st.integers(1, 4)))
        ]
        opts = StOptions(restarts=data.draw(st.sampled_from([1, 3, 8])),
                         max_sweeps=data.draw(st.sampled_from([1, 2, 100])),
                         seed=data.draw(st.integers(0, 50)))
        got = erm_St_batch(datasets, p, opts)
        assert [hexed(fit) for fit in got] == [hexed(erm_St(d, p, opts)) for d in datasets]

    def test_batch_needs_equal_path_counts(self):
        p = params()
        assert erm_St_batch([], p) == []
        with pytest.raises(ValueError, match="equal N"):
            erm_St_batch([Dataset.from_matrix([[1.0, 2.0]]),
                          Dataset.from_matrix([[1.0, 2.0], [3.0, 4.0]])], p)

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_line_search_reaches_the_best_event(self, data):
        # oracle: score 0, the cap and every event position of every path
        # and order period t .. T with coordinate t replaced
        T = data.draw(st.one_of(st.integers(1, 8), st.sampled_from([20, 60, 100])))
        L = data.draw(st.integers(0, 2))
        p = params(T=T, L=L, h=data.draw(st.sampled_from([0.0, 0.5, 1.0, 1.3])),
                   b=data.draw(st.sampled_from([0.0, 1.0, 3.0, 9.0])), U=20.0,
                   x1=data.draw(st.sampled_from([0.0, -3.0, -0.25, 2.5])),
                   H=data.draw(st.sampled_from([None, 0.0, 7.5])))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        n = data.draw(st.integers(1, 4))
        D = rng.integers(0, 21, (n, T + L)).astype(float)
        if data.draw(st.booleans()):
            D = np.round(rng.uniform(0.0, 20.0, D.shape), 3)
        cap = p.level_cap()
        levels = np.zeros(T + L)
        levels[:T] = rng.choice([0.0, cap, *rng.uniform(0.0, cap, 3)], T)
        t = data.draw(st.integers(1, T))
        pre = prefix_sums(D)
        scores = levels[None, :T] + pre[:, :T]
        head = np.max(scores[:, : t - 1], axis=1, initial=-np.inf)[None, :]
        pick = fitters._coordinate_minima(levels[None, :], t, head, pre[None], p, cap)[0]

        scores[:, t - 1] = -np.inf
        G = np.maximum.accumulate(np.maximum(scores, p.x1), axis=1)[:, t - 1 :]
        A = pre[:, t - 1 : t]
        events = np.concatenate([(G - A).ravel(), (pre[:, t + L : T + L + 1] - A).ravel()])
        cands = np.concatenate([[0.0, cap], events[(events >= 0.0) & (events <= cap)], [pick]])
        grid = np.repeat(levels[None, :], len(cands), axis=0)
        grid[:, t - 1] = cands
        risks = st_losses_grid(grid, D, p).mean(axis=1)
        best = risks[:-1].min()
        assert 0.0 <= pick <= cap
        assert risks[-1] <= best + 1e-12 * abs(best)

    @pytest.mark.parametrize("H", [math.inf, -1.0])
    def test_rejects_unusable_level_cap(self, H):
        data = Dataset.from_matrix([[3.0, 7.0]])
        fits = (
            erm_St, erm_base_stock, erm_eoq_base_stock, erm_sS,
            lambda d, p: erm_sS(d, p, mode="integer-grid"),
            lambda d, p: grid_oracle(d, "st", 1.0, p),
            lambda d, p: grid_oracle(d, "ss", 1.0, p),
            lambda d, p: perm_fit(build_marginals(d), p, "ss"),
        )
        for fit in fits:
            with pytest.raises(ValueError, match="level cap"):
                fit(data, params(H=H))

    def test_risk_matches_mean_simulated_loss(self):
        data = Dataset.from_matrix([[3.0, 5.0, 1.0], [2.0, 6.0, 2.0]])
        p = params(T=3)
        res = erm_St(data, p)
        want = np.mean([simulate(res.policy, row, p).avg_loss for row in data.as_matrix()])
        assert res.in_sample_risk == pytest.approx(want, abs=1e-9)


def per_restart_coordinate_minimum(S, t, D, pre, p, cap):
    """One restart's exact line search in coordinate t, event by event over
    the whole suffix t .. T, scored from 0 at level 0 with slopes
    c_h h + c_b b from integer unit counts."""
    n, horizon = D.shape
    scores = S[None, :] + pre[:, :horizon]
    scores[:, t - 1] = -np.inf
    run = np.maximum.accumulate(scores, axis=1)
    G = np.maximum(run[:, t - 1 : p.T], p.x1)
    A = pre[:, t - 1][:, None]
    W = pre[:, t + p.L : p.T + p.L + 1]
    v1 = (G - A).ravel()
    v2 = (W - A).ravel()
    sloped = v1 < v2
    positions = np.concatenate([v1[sloped], v2[sloped], v1[~sloped]])
    k, rest = int(sloped.sum()), int((~sloped).sum())
    h_units = np.concatenate([np.zeros(k, int), np.ones(k, int), np.ones(rest, int)])
    b_units = np.concatenate([-np.ones(k, int), np.ones(k, int), np.zeros(rest, int)])
    order = np.argsort(positions, kind="stable")
    positions = positions[order]
    h_units = h_units[order]
    b_units = b_units[order]
    start = int(np.searchsorted(positions, 0.0, side="right"))
    stop = int(np.searchsorted(positions, cap, side="left"))
    c_h = int(h_units[:start].sum()) + np.concatenate([[0], np.cumsum(h_units[start:stop])])
    c_b = int(b_units[:start].sum()) + np.concatenate([[0], np.cumsum(b_units[start:stop])])
    pts = np.concatenate([[0.0], positions[start:stop], [cap]])
    slopes = c_h * p.h + c_b * p.b
    values = np.concatenate([[0.0], np.cumsum(slopes * np.diff(pts))])
    return float(pts[int(np.argmin(values))])


def per_restart_erm_St(data, p, opts):
    """erm_St with one restart at a time and one line search per restart and
    coordinate; the first strict minimum over restarts wins."""
    D = data.as_matrix()
    n, horizon = D.shape
    cap = p.level_cap()
    pre = np.concatenate([np.zeros((n, 1)), np.cumsum(D, axis=1)], axis=1)
    fractile = p.b / (p.b + p.h) if p.b + p.h > 0 else 0.5
    quantiles = np.quantile(lead_demand_sums(D, p.L), fractile, axis=0)
    jitter = fitters.ST_JITTER * cap
    rng = make_rng(opts.seed)
    base = erm_base_stock(data, replace(p, x1=min(p.x1, 0.0))).policy.S
    starts = [np.full(p.T, base)]
    for _ in range(max(opts.restarts - 1, 0)):
        starts.append(np.clip(quantiles + rng.uniform(-jitter, jitter, p.T), 0.0, cap))
    best_levels, best_risk, converged, sweeps_used = None, np.inf, False, 0
    for start in starts:
        levels = np.zeros(horizon)
        levels[: p.T] = np.clip(start, 0.0, cap)
        risk = float(st_losses(levels, D, p).mean())
        ok = False
        for _ in range(opts.max_sweeps):
            for t in range(1, p.T + 1):
                levels[t - 1] = per_restart_coordinate_minimum(levels, t, D, pre, p, cap)
            new_risk = float(st_losses(levels, D, p).mean())
            sweeps_used += 1
            if risk - new_risk < fitters.ST_TOL:
                risk = min(risk, new_risk)
                ok = True
                break
            risk = new_risk
        if risk < best_risk:
            best_risk, best_levels, converged = risk, levels.copy(), ok
    policy = NonStationary(tuple(best_levels))
    return fitters.FitResult(
        policy=policy,
        in_sample_risk=dataset_risk(policy, data, p),
        method="coordinate-descent",
        diagnostics={"restarts": len(starts), "converged": converged,
                     "sweeps": sweeps_used, "tol": fitters.ST_TOL},
    )


def exact_total_erm_sS(data, p):
    """erm_sS(mode="integer-grid") by brute force: every integer (s, S) pair's
    total cost, simulate's per-period losses summed as Fractions, with ties
    to the smaller gap, then the smaller S."""
    lo, hi, capped = p.ss_bounds()
    axis = range(math.ceil(lo), math.floor(hi) + 1)
    rows = data.as_matrix().tolist()
    best, count = None, 0
    for S in (S for S in axis if S >= 0):
        for s in (s for s in axis if s <= S):
            policy = SsPolicy(float(s), float(S))
            total = sum(Fraction(v) for row in rows
                        for v in simulate(policy, row, p, unchecked=True).per_period_loss.tolist())
            count += 1
            if best is None or (total, S - s, S) < best[0]:
                best = ((total, S - s, S), policy)
    if best is None:
        raise ValueError("empty integer (s, S) grid")
    policy = best[1]
    return FitResult(policy, dataset_risk(policy, data, p), "integer-grid",
                     {"candidate_count": count, "capped_bounds": capped})


def per_row_erm_sS(data, p):
    """erm_sS(mode="exact") row by row: Python running sums give every row's
    gap breakpoints and, per gap interval, its reorder times and windows;
    the interval's candidates are scored in exact arithmetic, and the
    intervals compared by their picks' float risks."""
    D = data.as_matrix()
    lo, hi, capped = p.ss_bounds()
    if not math.isfinite(lo) or not math.isfinite(hi):
        raise ValueError("unbounded class")
    bps = set()
    for row in D.tolist():
        for i in range(p.T - 1):
            acc = 0.0
            for v in row[i : p.T - 1]:
                acc += v
                bps.add(acc)
    delta_cap = hi - lo
    intervals = [(0.0, 0.0, 0.0)]
    prev = 0.0
    for v in sorted(v for v in bps if 0.0 < v <= delta_cap):
        intervals.append((prev, v, (prev + v) / 2.0))
        prev = v
    if delta_cap > prev:
        intervals.append((prev, delta_cap, (prev + delta_cap) / 2.0))

    n = len(D)
    scale = n * p.T
    best = None
    n_cands = 0
    for a, b, rep in intervals:
        windows, n_orders = [], 0
        for row in D:
            times, acc = [1], 0.0
            for t in range(2, p.T + 1):
                acc += row[t - 2]
                if acc >= rep:
                    times.append(t)
                    acc = 0.0
            n_orders += len(times)
            prefix = np.concatenate([[0.0], np.cumsum(row)])
            for tj, tnext in zip(times, times[1:] + [p.T + 1]):
                windows.append(prefix[tj + p.L : tnext + p.L] - prefix[tj - 1])
        windows = np.concatenate(windows)
        # the least S over the bound: lo itself at gap 0
        bound = lo + a + (0.0 if rep == 0.0 else 1e-9)
        cands = np.unique(np.concatenate([windows, [0.0, hi, min(max(bound, 0.0), hi)]]))
        cands = cands[(cands >= 0.0) & (cands <= hi)]
        cands = cands[cands - lo > a if a > 0 or b > 0 else cands - lo >= 0]
        if not len(cands):
            continue
        risks = evaluate.sorted_prefix_costs(cands, windows[None, :], p)[0] / scale
        if rep == 0.0:
            later = int((D[:, : p.T - 1] > ORDER_EPS).sum())
        else:
            later = n_orders - n
        # every candidate's holding and backlog cost summed as Fractions; the
        # interval's pick is its smallest exact minimizer with the K's
        costs = [sum((Fraction(p.h) * max(Fraction(S) - Fraction(w), 0)
                      + Fraction(p.b) * max(Fraction(w) - Fraction(S), 0)
                      for w in windows.tolist()), Fraction(0))
                 for S in cands.tolist()]
        totals = [cost + Fraction(p.K) * (later + n * (S - p.x1 > ORDER_EPS))
                  for cost, S in zip(costs, cands.tolist())]
        k = totals.index(min(totals))
        # erm_sS scores the lowest candidate and the smallest minimizer of
        # the cost, the windows' critical fractile clamped above it
        n_cands += 1 + (costs.index(min(costs)) > 0)
        if p.K > 0:
            first = (cands - p.x1 > ORDER_EPS).astype(float)
            risks = risks + p.K * (later + n * first) / scale
        S = float(cands[k])
        cand = (float(risks[k]), 0.0 if rep == 0.0 else min(rep, S - lo), S, rep)
        if best is None or cand < best:
            best = cand
    if best is None:
        raise ValueError("no feasible (s, S) candidate")
    _, _, S, rep = best
    # s = S - rep, or lo when the interval's gap reaches S - lo
    policy = SsPolicy(S if rep == 0.0 else max(S - rep, lo), S)
    return FitResult(policy, dataset_risk(policy, data, p), "gap-interval-enumeration",
                     {"candidate_count": n_cands, "interval_count": len(intervals),
                      "capped_bounds": capped})


def hexed(result):
    """Levels, risk and diagnostics of a fit, floats as float.hex."""
    def h(v):
        return v if isinstance(v, (bool, int, str)) else float(v).hex()
    return ([h(v) for v in result.policy.levels], h(result.in_sample_risk),
            {k: h(v) for k, v in result.diagnostics.items()})


def product_loop_st(data, step, p):
    """grid_oracle("st") by one st_losses call per combination of all T + L
    levels in itertools.product order; the first strict minimum wins."""
    D = data.as_matrix()
    axis = np.arange(0.0, p.level_cap() + step / 2, step)
    best_combo, best_risk = None, np.inf
    for combo in itertools.product(axis, repeat=p.horizon):
        risk = float(st_losses(np.asarray(combo), D, p).mean())
        if risk < best_risk:
            best_combo, best_risk = combo, risk
    policy = NonStationary(best_combo)
    return fitters.FitResult(
        policy=policy,
        in_sample_risk=float(st_losses(policy.as_array(), D, p).mean()),
        method="grid-oracle",
        diagnostics={"candidate_count": len(axis) ** p.T, "step": step},
    )


class TestGridOracle:
    def test_trivial_examples(self):
        data = Dataset.from_matrix([[3.0, 7.0]])
        assert grid_oracle(data, "base-stock", 1.0, params()).policy.S == 7.0
        p = params(Hlo=-10.0, H=10.0, x1=-10.0)
        assert grid_oracle(data, "ss", 1.0, p).in_sample_risk == pytest.approx(2.0)

    def test_st_equals_base_stock_at_horizon_one(self):
        data = Dataset.from_matrix([[4.0], [6.0]])
        p = params(T=1)
        st = grid_oracle(data, "st", 1.0, p)
        base = grid_oracle(data, "base-stock", 1.0, p)
        assert st.in_sample_risk == pytest.approx(base.in_sample_risk)

    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_st_matches_product_loop(self, data):
        T = data.draw(st.integers(1, 3))
        L = data.draw(st.integers(0, 2))
        p = params(T=T, L=L, h=data.draw(st.sampled_from([0.0, 0.5, 1.0])),
                   b=data.draw(st.sampled_from([0.0, 1.0, 3.0])),
                   K=data.draw(st.sampled_from([0.0, 0.5, 2.0])), U=2.0,
                   x1=-float(data.draw(st.integers(0, 2))),
                   H=float(data.draw(st.integers(1, 3))))
        n = data.draw(st.integers(1, 4))
        cell = st.one_of(st.integers(0, 3).map(float), demand_floats(3.0))
        D = np.asarray(data.draw(st.lists(cell, min_size=n * (T + L), max_size=n * (T + L))))
        dataset = Dataset.from_matrix(D.reshape(n, T + L))
        step = data.draw(st.sampled_from([0.5, 1.0]))
        got = grid_oracle(dataset, "st", step, p)
        want = product_loop_st(dataset, step, p)
        assert got.policy == want.policy
        assert got.in_sample_risk == want.in_sample_risk  # the same float
        assert got.diagnostics == want.diagnostics

    def test_st_chunks_match_one_chunk(self, monkeypatch):
        # h = 0 makes every high enough combination tie at risk 0, so the
        # earliest one must win across chunk boundaries
        data = Dataset.from_matrix([[1.0, 2.0, 0.0], [2.0, 0.0, 1.0], [0.5, 1.0, 0.5]])
        p = params(T=2, L=1, h=0.0, b=2.0, U=3.0, H=3.0)
        whole = grid_oracle(data, "st", 0.5, p)
        monkeypatch.setattr(evaluate, "_BLOCK_CELLS", 20)  # chunks of 3 combinations
        chunked = grid_oracle(data, "st", 0.5, p)
        assert chunked == whole
        assert chunked == product_loop_st(data, 0.5, p)

    def test_budget(self):
        data = Dataset.from_matrix([[1.0] * 8])
        with pytest.raises(BudgetError):
            grid_oracle(data, "st", 0.5, params(T=8))

    def test_st_grid_counts_the_first_T_levels(self, monkeypatch):
        # at T = 2, L = 3 the grid scores 81^2 level vectors, not 81^5
        data = Dataset.from_matrix([[3.0, 9.0, 0.0, 14.0, 2.0], [11.0, 4.0, 7.0, 0.0, 5.0]])
        p = SystemParams(T=2, L=3, U=20)
        fit = grid_oracle(data, "st", 1.0, p)
        assert fit.diagnostics["candidate_count"] == 81**2
        monkeypatch.setattr(fitters, "GRID_BUDGET", 81**2)
        assert grid_oracle(data, "st", 1.0, p) == fit
        monkeypatch.setattr(fitters, "GRID_BUDGET", 81**2 - 1)
        with pytest.raises(BudgetError):
            grid_oracle(data, "st", 1.0, p)

    def test_no_grid_point_past_the_class_bound(self):
        # arange's last point, 21, lies past H = 20.6
        data = Dataset.from_matrix([[25.0, 25.0]])
        p = params(U=20.0, H=20.6)
        for cls, want in (("base-stock", BaseStock(20.0)), ("st", NonStationary((20.0, 20.0))),
                          ("ss", SsPolicy(20.0, 20.0))):
            fit = grid_oracle(data, cls, 1.0, p)
            assert fit.policy == want
            validate_policy(fit.policy, p)

    def test_grid_point_within_rounding_of_the_bound_is_the_bound(self):
        # arange(0, 0.35, 0.1) ends at 0.30000000000000004, past H = 0.3 by a rounding
        data = Dataset.from_matrix([[1.0]])
        p = params(T=1, U=1.0, H=0.3)
        axis = evaluate.grid_axis(0.0, 0.3, 0.1)
        assert axis.tolist() == np.arange(0.0, 0.3, 0.1).tolist() + [0.3]
        fit = grid_oracle(data, "base-stock", 0.1, p)
        assert fit.policy == BaseStock(0.3)
        validate_policy(fit.policy, p)

    @pytest.mark.parametrize("step", [0.0, -1.0, math.nan, math.inf])
    def test_rejects_unusable_step(self, step):
        data = Dataset.from_matrix([[1.0]])
        for cls in ("base-stock", "ss", "st"):
            with pytest.raises(ValueError, match="grid step must be positive and finite"):
                grid_oracle(data, cls, step, params(T=1))

    def test_unknown_class(self):
        data = Dataset.from_matrix([[1.0]])
        with pytest.raises(ValueError, match="class"):
            grid_oracle(data, "nope", 1.0, params(T=1))
