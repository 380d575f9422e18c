import itertools
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stocklab.core import (
    BaseStock,
    BudgetError,
    Dataset,
    NonStationary,
    SsPolicy,
    SystemParams,
    simulate,
)
from stocklab.evaluate import (
    cost_array,
    enumerate_product_risk,
    exact_base_stock_levels,
    exact_base_stock_risk,
    exact_risk,
    exact_ss_risks,
    exact_st_risk,
    lead_pmf,
    ss_pairs,
)
from stocklab import fitters
from stocklab.fitters import erm_St, square_root_gap
from stocklab.perm import (
    build_marginals,
    perm_fit,
    perm_risk,
    product_partition,
    solve_dp,
)


def params(**kw):
    defaults = dict(T=2, L=0, h=1.0, b=9.0, K=0.0, U=10.0, x1=0.0)
    defaults.update(kw)
    return SystemParams(**defaults)


PAPER_TABLE = np.array([[1.0, 3.0, 5.0], [2.0, 4.0, 6.0]])


class TestMarginals:
    def test_example_table(self):
        pmfs = build_marginals(Dataset.from_matrix(PAPER_TABLE))
        assert len(pmfs) == 3
        np.testing.assert_array_equal(pmfs[0], [0.0, 0.5, 0.5])
        np.testing.assert_array_equal(pmfs[2], [0.0] * 5 + [0.5, 0.5])

    def test_single_sample_point_masses(self):
        pmfs = build_marginals(Dataset.from_matrix([[4.0, 2.0]]))
        np.testing.assert_array_equal(pmfs[0], [0.0, 0.0, 0.0, 0.0, 1.0])
        np.testing.assert_array_equal(pmfs[1], [0.0, 0.0, 1.0])

    def test_row_permutation_invariant(self):
        a = build_marginals(Dataset.from_matrix(PAPER_TABLE))
        b = build_marginals(Dataset.from_matrix(PAPER_TABLE[::-1]))
        assert all(np.array_equal(f, g) for f, g in zip(a, b, strict=True))

    def test_multiplicity(self):
        pmfs = build_marginals(Dataset.from_matrix([[1.0], [1.0], [3.0]]))
        assert pmfs[0] == pytest.approx([0.0, 2 / 3, 0.0, 1 / 3])


class TestProductLaw:
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_product_law_matches_enumeration(self, data):
        T = data.draw(st.integers(1, 3))
        p = params(T=T, L=data.draw(st.integers(0, 1)), U=4.0)
        n = data.draw(st.integers(1, 4))
        D = np.array(data.draw(st.lists(
            st.lists(st.integers(0, 4), min_size=p.horizon, max_size=p.horizon),
            min_size=n, max_size=n,
        )), dtype=float)
        pmfs = build_marginals(Dataset.from_matrix(D))
        assert len(pmfs) == p.horizon
        for t, f in enumerate(pmfs):
            assert f.sum() == pytest.approx(1.0, abs=1e-12)
            values, counts = np.unique(D[:, t], return_counts=True)
            assert len(f) == values[-1] + 1
            np.testing.assert_array_equal(np.flatnonzero(f), values)
            np.testing.assert_array_equal(f[values.astype(int)], counts / n)
        fit = perm_fit(pmfs, p, "st")
        assert fit.in_sample_risk == pytest.approx(
            enumerate_product_risk(fit.policy, pmfs, p), abs=1e-9
        )
        level = st.integers(0, 6).map(float)
        policies = [
            BaseStock(data.draw(level)),
            SsPolicy(*sorted((data.draw(level), data.draw(level)))),
            NonStationary(tuple(data.draw(level) for _ in range(p.horizon))),
        ]
        for pol in policies:
            assert perm_risk(pol, pmfs, p) == pytest.approx(
                enumerate_product_risk(pol, pmfs, p), abs=1e-9
            )


class TestProductPartition:
    def test_paper_demand_table(self):
        groups = product_partition(2, 3)
        rendered = set()
        for group in groups:
            rendered.add(
                frozenset(
                    "".join(str(int(PAPER_TABLE[idx][t])) for t, idx in enumerate(tup))
                    for tup in group
                )
            )
        expected = {
            frozenset({"135", "246"}),
            frozenset({"136", "245"}),
            frozenset({"145", "236"}),
            frozenset({"146", "235"}),
        }
        assert rendered == expected

    def test_single_sample(self):
        assert product_partition(1, 3) == [[(0, 0, 0)]]

    @pytest.mark.parametrize("n,periods", [(2, 2), (3, 2), (2, 3), (3, 3), (4, 4)])
    def test_disjoint_and_covering(self, n, periods):
        groups = product_partition(n, periods)
        assert len(groups) == n ** (periods - 1)
        all_tuples = set()
        for group in groups:
            assert len(group) == n
            # within a group each original entry appears exactly once per period
            for t in range(periods):
                assert sorted(tup[t] for tup in group) == list(range(n))
            all_tuples.update(group)
        assert all_tuples == set(itertools.product(range(n), repeat=periods))

    def test_budget(self):
        with pytest.raises(BudgetError):
            product_partition(10, 12)


class TestPermFit:
    def test_newsvendor_uniform_two_atoms(self):
        pmfs = build_marginals(Dataset.from_matrix([[1.0], [2.0]]))
        p = params(T=1)
        res = perm_fit(pmfs, p, "st")
        assert res.policy.levels[0] == 2.0
        assert res.in_sample_risk == pytest.approx(0.5)
        # enumerate S in {0, 1, 2}: risks 13.5, 4.5, 0.5
        risks = [perm_risk(BaseStock(float(S)), pmfs, p) for S in (0, 1, 2)]
        assert risks == pytest.approx([13.5, 4.5, 0.5])

    def test_point_mass_reduces_to_single_sequence_fit(self):
        data = Dataset.from_matrix([[3.0, 7.0]])
        p = params()
        res = perm_fit(build_marginals(data), p, "st")
        assert res.in_sample_risk == pytest.approx(0.0, abs=1e-12)
        erm = erm_St(data, p)
        assert erm.in_sample_risk == pytest.approx(res.in_sample_risk, abs=1e-9)

    def test_fitted_risk_equals_dp_root_and_policy_evaluation(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            T = int(rng.integers(1, 4))
            n = int(rng.integers(1, 5))
            p = params(T=T, L=int(rng.integers(0, 2)), U=5.0)
            D = rng.integers(0, 5, (n, p.horizon)).astype(float)
            pmfs = build_marginals(Dataset.from_matrix(D))
            res = perm_fit(pmfs, p, "st")
            assert perm_risk(res.policy, pmfs, p) == pytest.approx(
                res.in_sample_risk, abs=1e-9
            )

    def test_product_risk_matches_exhaustive_product(self):
        pmfs = build_marginals(Dataset.from_matrix([[1.0, 2.0], [2.0, 1.0]]))
        p = params()
        res = perm_fit(pmfs, p, "st")
        want = enumerate_product_risk(res.policy, pmfs, p)
        assert res.in_sample_risk == pytest.approx(want, abs=1e-9)

    def test_fit_is_class_optimal(self):
        rng = np.random.default_rng(1)
        p = params(T=2, U=4.0)
        D = rng.integers(0, 5, (3, 2)).astype(float)
        pmfs = build_marginals(Dataset.from_matrix(D))
        res = perm_fit(pmfs, p, "st")
        for _ in range(100):
            levels = tuple(float(v) for v in rng.integers(0, 5, 2))
            assert perm_risk(NonStationary(levels), pmfs, p) >= res.in_sample_risk - 1e-9

    def test_ss_fit_on_nonstationary_is_optimal_and_silent(self):
        # the best-in-class search fits non-stationary pmfs on purpose, so
        # the library does not warn; `stocklab perm` does
        p = params(T=2, K=5.0, U=4.0, H=6.0, Hlo=-4.0, x1=-4.0)
        pmfs = build_marginals(Dataset.from_matrix([[1.0, 3.0], [2.0, 4.0]]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = perm_fit(pmfs, p, "ss")
        # the fitted pair is optimal among a sample of integer pairs
        for s in range(-4, 4):
            for S in range(max(s, 0), 7):
                assert perm_risk(SsPolicy(float(s), float(S)), pmfs, p) >= res.in_sample_risk - 1e-9

    def test_base_stock_fit_is_the_best_level(self):
        rng = np.random.default_rng(4)
        for _ in range(30):
            T, L = int(rng.integers(1, 5)), int(rng.integers(0, 3))
            p = params(T=T, L=L, h=rng.uniform(0.1, 2.0), b=rng.uniform(0.1, 9.0),
                       K=rng.uniform(0.0, 3.0), U=4.0, x1=-float(rng.integers(0, 3)))
            D = rng.integers(0, 5, (3, T + L)).astype(float)
            pmfs = build_marginals(Dataset.from_matrix(D))
            res = perm_fit(pmfs, p, "base-stock")
            assert res.policy.S in exact_base_stock_levels(pmfs, p)
            assert res.in_sample_risk == exact_risk(res.policy, pmfs, p)
            levels = rng.uniform(0.0, p.level_cap(), 50)
            assert (exact_base_stock_risk(levels, pmfs, p) >= res.in_sample_risk - 1e-12).all()

    def test_base_stock_fit_keeps_to_a_fractional_cap(self):
        # demand is always 4, so the risk falls with S up to the cap H = 2.5
        pmfs = [np.array([0.0, 0.0, 0.0, 0.0, 1.0])] * 2
        p = params(h=0.1, H=2.5)
        assert exact_base_stock_levels(pmfs, p).tolist() == [0.0, 1.0, 2.0, 2.5]
        assert perm_fit(pmfs, p, "base-stock").policy == BaseStock(2.5)

    def test_eoq_fit_pins_the_square_root_gap(self):
        p = params(T=3, K=6.0, U=4.0, H=5.0)
        D = np.array([[1.0, 3.0, 2.0], [2.0, 4.0, 0.0]])
        pmfs = build_marginals(Dataset.from_matrix(D))
        res = perm_fit(pmfs, p, "eoq")
        gap = square_root_gap(float(D.mean()), p)
        assert res.policy.S - res.policy.s == pytest.approx(gap, rel=1e-12)
        # the best S on the 0.05 grid of [0, H + gap]
        S = np.arange(0.0, 5.0 + gap + 1e-9, 0.05)
        assert res.in_sample_risk == exact_ss_risks(S - gap, S, pmfs, p).min()
        assert res.in_sample_risk == exact_risk(res.policy, pmfs, p)

    @pytest.mark.parametrize("policy_class, bound, message", [
        ("base-stock", {"H": math.inf}, "finite level cap H >= 0, got inf"),
        ("eoq", {"H": math.inf}, "finite level cap H >= 0, got inf"),
        ("ss", {"H": math.inf}, "finite level cap H >= 0, got inf"),
        ("ss", {"Hlo": -math.inf, "x1": -3.0}, "finite reorder-point bound Hlo, got -inf"),
        ("ss", {"x1": 0.0, "Hlo": -1.0}, "must not exceed the reorder-point bound"),
    ])
    def test_bounds_checked_as_the_data_fitters_do(self, policy_class, bound, message):
        pmfs = build_marginals(Dataset.from_matrix([[1.0, 3.0], [2.0, 4.0]]))
        with pytest.raises(ValueError, match=message):
            perm_fit(pmfs, params(K=2.0, **bound), policy_class)

    @settings(max_examples=120, deadline=None)
    @given(data=st.data())
    def test_st_fit_is_the_best_integer_grid_policy_in_the_bounds(self, data):
        T = data.draw(st.integers(1, 3))
        L = data.draw(st.integers(0, 1))
        p = params(T=T, L=L, h=float(data.draw(st.sampled_from([0, 1, 2]))),
                   b=float(data.draw(st.sampled_from([0, 1, 4]))), U=4.0,
                   x1=float(data.draw(st.integers(-2, 2))),
                   H=data.draw(st.sampled_from([0.0, 1.0, 2.0, 2.5, 6.0])))
        rows = data.draw(st.lists(st.lists(st.integers(0, 4), min_size=T + L, max_size=T + L),
                                  min_size=1, max_size=4))
        pmfs = build_marginals(Dataset.from_matrix(np.array(rows, dtype=float)))
        res = perm_fit(pmfs, p, "st")
        levels = res.policy.levels
        assert all(0.0 <= v <= p.H for v in levels[:T])
        assert res.in_sample_risk == pytest.approx(exact_st_risk(levels, pmfs, p), abs=1e-9)
        best = min(
            exact_st_risk(combo + (0.0,) * L, pmfs, p)
            for combo in itertools.product(np.arange(math.floor(p.H) + 1.0), repeat=T)
        )
        assert res.in_sample_risk == pytest.approx(best, abs=1e-9)

    def test_st_levels_stay_in_the_class_bounds(self):
        # the unbounded DP would order up to (6, 5) at H = 2, and to negative
        # levels at b = 0, where every level in [0, H] has risk 0
        pmfs = build_marginals(Dataset.from_matrix([[5.0, 5.0], [6.0, 4.0]]))
        assert perm_fit(pmfs, params(H=2.0), "st").policy.levels == (2.0, 2.0)
        assert perm_fit(pmfs, params(b=0.0), "st").policy.levels == (0.0, 0.0)
        with pytest.raises(ValueError, match="finite level cap H >= 0, got inf"):
            perm_fit(pmfs, params(H=math.inf), "st")

    def test_level_cap_needs_order_up_to_targets(self):
        with pytest.raises(ValueError, match="K = 0"):
            solve_dp([np.array([0.5, 0.5])], params(T=1, K=1.0), cap=2.0)

    def test_ss_pairs_counted_against_the_grid_budget(self, monkeypatch):
        # the integers in [-2, 3]: S = 0, 1, 2, 3 pair with 3, 4, 5, 6 points
        p = params(T=1, H=3.0, Hlo=-2.0, x1=-2.0)
        pmfs = build_marginals(Dataset.from_matrix([[1.0], [2.0]]))
        want = perm_fit(pmfs, p, "ss")
        monkeypatch.setattr(fitters, "GRID_BUDGET", 18)
        assert perm_fit(pmfs, p, "ss") == want
        monkeypatch.setattr(fitters, "GRID_BUDGET", 17)
        with pytest.raises(BudgetError, match="18 points"):
            perm_fit(pmfs, p, "ss")

    def test_st_requires_zero_fixed_cost(self):
        pmfs = build_marginals(Dataset.from_matrix([[1.0]]))
        with pytest.raises(ValueError, match="K"):
            perm_fit(pmfs, params(T=1, K=1.0), "st")

    def test_non_integer_support_rejected(self):
        with pytest.raises(ValueError, match="integer demands"):
            build_marginals(Dataset.from_matrix([[0.5]]))


def two_path_fit(pmfs, p, policy_class):
    """perm_fit's base-stock, ss and eoq searches as two exact kernels: the
    levels by exact_base_stock_risk, the pairs by exact_ss_risks."""
    if policy_class == "base-stock":
        S = exact_base_stock_levels(pmfs, p)
        risks = exact_base_stock_risk(S, pmfs, p)
        j = int(np.argmin(risks))
        return BaseStock(float(S[j])), float(risks[j])
    if policy_class == "ss":
        lo, hi, _ = p.ss_bounds()
        s, S = ss_pairs(np.arange(math.ceil(lo), math.floor(hi) + 1.0))
    else:
        mu = sum(float(np.arange(len(f)) @ f) for f in pmfs) / len(pmfs)
        gap = square_root_gap(mu, p)
        S = np.arange(0.0, p.level_cap() + gap + 1e-9, 0.05)
        s = S - gap
    risks = exact_ss_risks(s, S, pmfs, p)
    j = int(np.argmin(risks))
    return SsPolicy(float(s[j]), float(S[j])), float(risks[j])


class TestPermFitParity:
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_picks_and_risks_of_the_two_kernel_searches(self, data):
        # one class_risks call per search gives the floats of the two kernels
        T = data.draw(st.integers(1, 3))
        L = data.draw(st.integers(0, 1))
        Hlo = float(data.draw(st.integers(-3, 0)))
        p = params(T=T, L=L, h=data.draw(st.floats(0.1, 2.0)), b=data.draw(st.floats(0.1, 9.0)),
                   K=data.draw(st.sampled_from([0.0, 1.5, 4.0])), U=4.0,
                   H=float(data.draw(st.integers(1, 6))), Hlo=Hlo,
                   x1=Hlo - data.draw(st.sampled_from([0.0, 0.5])))
        n = data.draw(st.integers(1, 4))
        rows = data.draw(st.lists(st.lists(st.integers(0, 4).map(float), min_size=T + L,
                                           max_size=T + L), min_size=n, max_size=n))
        pmfs = build_marginals(Dataset.from_matrix(rows))
        for policy_class in ("base-stock", "ss", "eoq"):
            fit = perm_fit(pmfs, p, policy_class)
            policy, risk = two_path_fit(pmfs, p, policy_class)
            assert fit.policy == policy, policy_class
            assert fit.in_sample_risk.hex() == risk.hex(), policy_class


class TestPermRisk:
    def test_point_mass_equals_simulated_loss(self):
        data = Dataset.from_matrix([[3.0, 7.0]])
        p = params()
        pmfs = build_marginals(data)
        pol = BaseStock(5.0)
        assert perm_risk(pol, pmfs, p) == pytest.approx(
            simulate(pol, (3.0, 7.0), p).avg_loss
        )

    def test_two_by_two_product(self):
        pmfs = build_marginals(Dataset.from_matrix([[1.0, 2.0], [2.0, 1.0]]))
        p = params()
        pol = BaseStock(2.0)
        # the four equally likely sequences, simulated one by one
        want = np.mean([simulate(pol, seq, p).avg_loss
                        for seq in ((1.0, 1.0), (1.0, 2.0), (2.0, 1.0), (2.0, 2.0))])
        assert perm_risk(pol, pmfs, p) == pytest.approx(want)
        assert enumerate_product_risk(pol, pmfs, p) == pytest.approx(want)


def deep_grid_dp(pmfs, p, cap=None):
    """The backward DP of solve_dp on a grid reaching (T + L) umax below
    min(x1, 0), with one shifted copy of V per demand value: (risk, targets)."""
    umax = max(len(f) - 1 for f in pmfs)
    bottom = min(int(p.x1), 0) - p.horizon * umax
    top = max((p.L + 1) * umax, int(p.x1)) + 1
    grid = np.arange(bottom, top + 1)
    size = len(grid)
    span = slice(0, size) if cap is None else slice(-bottom, math.floor(cap) - bottom + 1)
    V = np.zeros(size)
    levels = []
    for t in range(p.T, 0, -1):
        lead = lead_pmf(pmfs, t, p.L)
        diffs = grid[:, None] - np.arange(len(lead))[None, :]
        Ec = cost_array(diffs, p) @ lead / p.T
        EV = np.zeros(size)
        if t < p.T:
            for k, fk in enumerate(pmfs[t - 1]):
                if fk == 0.0:
                    continue
                EV += fk * (np.concatenate([np.full(k, V[0]), V[:-k]]) if k else V)
        W = Ec + EV
        j = span.start + int(np.argmin(W[span]))
        levels.append(int(grid[j]))
        V = W.copy()
        V[:j] = W[j]
    levels.reverse()
    return float(V[int(p.x1) - bottom]), tuple(levels)


def uneven_pmfs(data, n):
    """n pmfs of lengths 1 to 21, with zero masses among them."""
    pmfs = []
    for _ in range(n):
        w = data.draw(st.lists(st.sampled_from([0.0, 0.0, 0.05, 0.3, 1.0]),
                               min_size=1, max_size=21))
        w = np.asarray(w) if sum(w) > 0 else np.ones(len(w))
        pmfs.append(w / w.sum())
    return pmfs


class TestOptimalDp:
    def test_newsvendor(self):
        p = params(T=1)
        pmf = np.array([0.0, 0.5, 0.5])
        sol = solve_dp([pmf], p)
        assert sol.risk == pytest.approx(0.5)
        assert sol.order_up_to == (2,)

    def test_deterministic_zero_risk_without_fixed_cost(self):
        p = params(T=3)
        pmfs = [np.array([0.0, 0.0, 1.0])] * 3  # demand always 2
        sol = solve_dp(pmfs, p)
        assert sol.risk == pytest.approx(0.0)
        assert sol.order_up_to == (2, 2, 2)

    def test_fixed_cost_rejected(self):
        with pytest.raises(ValueError, match="K = 0"):
            solve_dp([np.array([0.0, 1.0])] * 2, params(T=2, K=3.0, U=2.0))

    def test_extracted_policy_achieves_dp_value(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            T = int(rng.integers(1, 5))
            p = params(T=T, L=int(rng.integers(0, 2)), U=4.0)
            pmfs = []
            for _ in range(p.horizon):
                w = rng.uniform(0.05, 1, 5)
                pmfs.append(w / w.sum())
            sol = solve_dp(pmfs, p)
            levels = tuple(float(v) for v in sol.order_up_to) + (0.0,) * p.L
            achieved = exact_risk(NonStationary(levels), pmfs, p)
            assert achieved == pytest.approx(sol.risk, abs=1e-9)

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_matches_the_deep_grid_dp(self, data):
        # costs such as 0.3 round, so a product over fewer rows could move them
        cap_kind = data.draw(st.sampled_from(["none", "zero", "fractional", "level-cap"]))
        b = data.draw(st.floats(0.0 if cap_kind != "none" else 0.1, 9.0))
        p = params(T=data.draw(st.integers(1, 12)), L=data.draw(st.integers(0, 2)),
                   h=data.draw(st.floats(0.0, 3.0)), b=b, U=6.0,
                   x1=float(data.draw(st.sampled_from([-25, -3, 0, 2, 5]))))
        pmfs = uneven_pmfs(data, p.horizon)
        cap = {"none": None, "zero": 0.0, "level-cap": p.level_cap(),
               "fractional": data.draw(st.floats(0.0, 25.0))}[cap_kind]
        sol = solve_dp(pmfs, p, cap)
        risk, targets = deep_grid_dp(pmfs, p, cap)
        assert sol.risk.hex() == risk.hex()
        assert sol.order_up_to == targets
        assert sol.grid_lo == min(int(p.x1), 0)

    @pytest.mark.parametrize("seed", [425, 524, 604, 632, 1526])
    def test_expected_costs_keep_the_deep_product(self, seed):
        # on these instances a product over the kept rows alone rounds some
        # expected cost differently from the product over the deep grid
        rng = np.random.default_rng(seed)
        p = params(T=int(rng.integers(1, 13)), L=int(rng.integers(0, 3)), h=0.3, b=3.0,
                   U=20.0, x1=float(rng.choice([-25, -3, 0, 2, 5])))
        pmfs = []
        for _ in range(p.horizon):
            w = rng.uniform(0, 1, int(rng.integers(1, 22)))
            w[rng.uniform(0, 1, len(w)) < 0.2] = 0.0
            pmfs.append(w / w.sum() if w.sum() > 0 else np.ones(len(w)) / len(w))
        for cap in (None, 19.5):
            sol = solve_dp(pmfs, p, cap)
            risk, targets = deep_grid_dp(pmfs, p, cap)
            assert (sol.risk.hex(), sol.order_up_to) == (risk.hex(), targets)

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_uncapped_without_backlog_cost_keeps_the_risk(self, data):
        # with b = 0 and no cap the cost-to-go is flat below 0, and the
        # target there is the first minimum: the bottom of each DP's own
        # grid.  So only the risk is the deep grid's; a target may move
        # from that grid's bottom to min(x1, 0).
        p = params(T=data.draw(st.integers(1, 12)), L=data.draw(st.integers(0, 2)),
                   h=data.draw(st.floats(0.0, 3.0)), b=0.0, U=6.0,
                   x1=float(data.draw(st.sampled_from([-25, -3, 0, 2, 5]))))
        pmfs = uneven_pmfs(data, p.horizon)
        sol = solve_dp(pmfs, p)
        risk, targets = deep_grid_dp(pmfs, p)
        assert sol.risk.hex() == risk.hex()
        assert all(a == b or a == sol.grid_lo for a, b in zip(sol.order_up_to, targets))

    def test_dp_beats_integer_level_enumeration(self):
        # oracle: exhaustive search over integer level vectors at K=0
        rng = np.random.default_rng(5)
        p = params(T=2, U=3.0)
        for _ in range(10):
            pmfs = []
            for _ in range(2):
                w = rng.uniform(0.05, 1, 4)
                pmfs.append(w / w.sum())
            sol = solve_dp(pmfs, p)
            best = min(
                exact_risk(NonStationary((float(a), float(b))), pmfs, p)
                for a in range(4)
                for b in range(4)
            )
            assert sol.risk == pytest.approx(best, abs=1e-9)
