import math

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
    delta_breakpoints,
    read_demands_csv,
    reorder_schedule,
    simulate,
    write_demands_csv,
)
from stocklab.evaluate import base_stock_loss


def params(**kw):
    defaults = dict(T=2, L=0, h=1.0, b=9.0, K=0.0, U=10.0, x1=0.0)
    defaults.update(kw)
    return SystemParams(**defaults)


class TestSimulate:
    def test_base_stock_two_periods(self):
        p = params()
        traj = simulate(BaseStock(5.0), (3.0, 7.0), p)
        assert traj.per_period_loss.tolist() == [2.0, 18.0]
        assert traj.avg_loss == 10.0

    def test_base_stock_with_lead_time_and_fixed_cost(self):
        p = params(T=2, L=1, h=1.0, b=1.0, K=10.0)
        traj = simulate(BaseStock(4.0), (2.0, 1.0, 3.0), p)
        # period 2: y = 4 - 2 = 2, demand 1 -> holding 1, plus K on arrival
        # period 3: y = 2 - 1 + 2 = 3, demand 3 -> 0, plus K on arrival
        assert traj.per_period_loss.tolist() == [11.0, 10.0]
        assert traj.avg_loss == 10.5

    def test_ss_with_zero_gap_matches_base_stock(self):
        p = params(Hlo=-10.0, x1=-10.0)
        traj = simulate(SsPolicy(7.0, 7.0), (3.0, 7.0), p)
        ref = simulate(BaseStock(7.0), (3.0, 7.0), params())
        assert traj.avg_loss == ref.avg_loss == 2.0

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="demand length"):
            simulate(BaseStock(5.0), (3.0, 7.0, 1.0), params())

    def test_out_of_bound_policy_rejected_unless_unchecked(self):
        p = params()
        with pytest.raises(ValueError, match="outside"):
            simulate(BaseStock(99.0), (3.0, 7.0), p)
        traj = simulate(BaseStock(99.0), (3.0, 7.0), p, unchecked=True)
        assert traj.avg_loss == pytest.approx((96 + 92) / 2)

    def test_positive_x1_requires_unchecked(self):
        p = params(x1=1.0)
        with pytest.raises(ValueError, match="x1"):
            simulate(BaseStock(5.0), (3.0, 7.0), p)
        simulate(BaseStock(5.0), (3.0, 7.0), p, unchecked=True)

    def test_conservation_identities(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            T = int(rng.integers(1, 6))
            L = int(rng.integers(0, 3))
            p = params(T=T, L=L, U=8.0, K=float(rng.uniform(0, 3)), x1=float(-rng.uniform(0, 2)))
            d = rng.uniform(0, 8.0, T + L)
            policy = NonStationary(tuple(rng.uniform(0, p.level_cap(), T + L)))
            traj = simulate(policy, d, p)
            for t in range(1, T + L + 1):
                assert traj.x[t] + d[t - 1] == pytest.approx(traj.y[t - 1], abs=1e-12)
                arrival = traj.q[t - p.L - 1] if t - p.L >= 1 else 0.0
                assert traj.y[t - 1] - traj.x[t - 1] == pytest.approx(arrival, abs=1e-12)

    def test_base_stock_steady_state_orders(self):
        # q^t = d^{t-1} for t >= 2 once the position has been raised to S
        rng = np.random.default_rng(3)
        p = params(T=4, L=2, U=5.0, x1=-1.5)
        d = rng.uniform(0, 5.0, 6)
        traj = simulate(BaseStock(8.0), d, p)
        assert traj.q[0] == pytest.approx(8.0 - p.x1)
        assert traj.q[1:].tolist() == pytest.approx(d[:-1].tolist())

    def test_per_period_loss_bound(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            T = int(rng.integers(1, 6))
            L = int(rng.integers(0, 3))
            base = params(T=T, L=L, U=6.0, h=float(rng.uniform(0.1, 1.5)),
                          b=float(rng.uniform(0.1, 1.5)), K=float(rng.uniform(0, 2)))
            lo, hi, _ = base.ss_bounds()
            p = params(T=T, L=L, U=6.0, h=base.h, b=base.b, K=base.K, x1=lo)
            d = rng.uniform(0, 6.0, T + L)
            policy = SsPolicy(float(rng.uniform(lo, 0.0)), float(rng.uniform(0.0, min(hi, 12.0))))
            traj = simulate(policy, d, p)
            bound = (L + 1) * p.U * max(p.h, p.b) + abs(lo) * p.b + p.K
            assert traj.avg_loss <= bound + 1e-9


class TestBaseStockLoss:
    def test_worked_examples(self):
        p = params()
        assert base_stock_loss(7.0, (3.0, 7.0), p) == 2.0
        assert base_stock_loss(0.0, (3.0, 7.0), p) == 45.0

    def test_matches_simulation_on_random_cases(self):
        # oracle: the step-by-step simulator
        rng = np.random.default_rng(42)
        for _ in range(1000):
            T = int(rng.integers(1, 8))
            L = int(rng.integers(0, 4))
            p = params(
                T=T, L=L,
                h=float(rng.uniform(0, 2)), b=float(rng.uniform(0, 2)),
                K=float(rng.uniform(0, 5)), U=10.0,
                x1=float(-rng.uniform(0, 3)),
            )
            d = rng.uniform(0, 10.0, T + L)
            S = float(rng.uniform(0, p.level_cap()))
            closed = base_stock_loss(S, d, p)
            simulated = simulate(BaseStock(S), d, p).avg_loss
            assert closed == pytest.approx(simulated, rel=1e-12, abs=1e-12)

    @settings(max_examples=200, deadline=None)
    @given(
        data=st.data(),
        lam=st.floats(0.0, 1.0),
    )
    def test_convex_in_level(self, data, lam):
        T = data.draw(st.integers(1, 5))
        L = data.draw(st.integers(0, 2))
        d = data.draw(
            st.lists(st.floats(0, 10), min_size=T + L, max_size=T + L)
        )
        p = params(T=T, L=L, h=data.draw(st.floats(0, 1)), b=data.draw(st.floats(0, 1)))
        s1 = data.draw(st.floats(0, 30))
        s2 = data.draw(st.floats(0, 30))
        mid = lam * s1 + (1 - lam) * s2
        lhs = base_stock_loss(mid, d, p)
        rhs = lam * base_stock_loss(s1, d, p) + (1 - lam) * base_stock_loss(s2, d, p)
        assert lhs <= rhs + 1e-9

    def test_nonstationary_equal_levels_matches_base_stock(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            T = int(rng.integers(1, 6))
            L = int(rng.integers(0, 3))
            p = params(T=T, L=L, K=0.0, U=7.0)
            d = rng.uniform(0, 7.0, T + L)
            S = float(rng.uniform(0, p.level_cap()))
            a = simulate(NonStationary((S,) * (T + L)), d, p).avg_loss
            b = simulate(BaseStock(S), d, p).avg_loss
            assert a == b


class TestReorderSchedule:
    def test_figure_instance(self):
        p = params(T=3)
        d = (4.0, 3.0, 1.0)
        assert reorder_schedule(3.0, d, p).times == (1, 2, 3)
        assert reorder_schedule(5.0, d, p).times == (1, 3)
        assert reorder_schedule(8.0, d, p).times == (1,)

    def test_matches_simulated_order_periods(self):
        rng = np.random.default_rng(12)
        for _ in range(200):
            T = int(rng.integers(1, 8))
            L = int(rng.integers(0, 3))
            p = params(T=T, L=L, U=6.0, Hlo=-30.0, H=60.0, x1=-30.0)
            d = rng.uniform(0.01, 6.0, T + L)
            delta = float(rng.uniform(0, 12.0))
            S = float(rng.uniform(0.1, 20.0))
            traj = simulate(SsPolicy(S - delta, S), d, p)
            ordered = tuple(t for t in range(1, p.T + 1) if traj.q[t - 1] > 0)
            assert ordered == reorder_schedule(delta, d, p).times

    def test_loss_constant_between_breakpoints(self):
        rng = np.random.default_rng(9)
        for _ in range(100):
            T = int(rng.integers(2, 8))
            p = params(T=T, L=int(rng.integers(0, 2)), U=6.0, Hlo=-40.0, H=80.0, x1=-40.0, K=1.0)
            d = rng.uniform(0.1, 6.0, p.horizon)
            bps = delta_breakpoints(d, p)
            S = float(rng.uniform(10.0, 30.0))
            grid = [0.0] + bps
            for lo, hi in zip(grid[:-1], grid[1:]):
                if hi - lo < 1e-9:
                    continue
                # interior points only: at an exact breakpoint the simulated
                # position comparison may round differently than the demand sum
                deltas = (lo + (hi - lo) * 0.25, lo + (hi - lo) * 0.5, lo + (hi - lo) * 0.75)
                losses = {
                    simulate(SsPolicy(S - dd, S), d, p).avg_loss for dd in deltas
                }
                assert max(losses) - min(losses) <= 1e-12 * max(1.0, max(losses))


class TestDeltaBreakpoints:
    def test_figure_instance(self):
        assert delta_breakpoints((4.0, 3.0, 1.0), params(T=3)) == [3.0, 4.0, 7.0]

    def test_zero_demand(self):
        assert delta_breakpoints((0.0,) * 5, params(T=5, L=0)) == [0.0]

    def test_schedule_constant_between_adjacent_breakpoints(self):
        # oracle: evaluate the schedule at midpoints and just past breakpoints
        rng = np.random.default_rng(2)
        for _ in range(200):
            T = int(rng.integers(2, 9))
            p = params(T=T)
            d = np.round(rng.uniform(0, 5.0, T), 2)
            bps = delta_breakpoints(d, p)
            assert bps == sorted(set(bps))
            assert len(bps) <= T * (T - 1) / 2
            edges = [0.0] + bps + [bps[-1] + 1.0]
            for lo, hi in zip(edges[:-1], edges[1:]):
                if hi - lo <= 1e-9:
                    continue
                mid = reorder_schedule((lo + hi) / 2, d, p).times
                right = reorder_schedule(hi if hi <= bps[-1] else hi + 5.0, d, p).times
                assert mid == right

    def test_schedule_changes_across_breakpoints(self):
        d = (4.0, 3.0, 1.0)
        p = params(T=3)
        seen = {reorder_schedule(delta, d, p).times for delta in (0.0, 3.5, 5.0, 9.0)}
        assert len(seen) == 4


class TestCsvRoundTrip:
    def test_round_trip(self, tmp_path):
        data = Dataset.from_matrix([[1.5, 2.25, 0.0], [4.0, 0.125, 9.75]])
        path = tmp_path / "demands.csv"
        write_demands_csv(data, str(path))
        back = read_demands_csv(str(path))
        assert back == data
        header = path.read_text().splitlines()[0]
        assert header == "t1,t2,t3"


class TestValidation:
    def test_system_params(self):
        with pytest.raises(ValueError):
            SystemParams(T=0)
        with pytest.raises(ValueError):
            SystemParams(T=1, L=-1)
        with pytest.raises(ValueError):
            SystemParams(T=1, U=0.0)
        with pytest.raises(ValueError):
            SystemParams(T=1, h=-0.5)

    @pytest.mark.parametrize("name", ["h", "b", "K", "U", "x1", "H", "Hlo"])
    def test_nan_parameter_rejected(self, name):
        with pytest.raises(ValueError, match=f"^{name} must be a number"):
            SystemParams(T=1, **{name: math.nan})

    @pytest.mark.parametrize("name", ["h", "b", "K", "U", "x1"])
    @pytest.mark.parametrize("value", [math.inf, -math.inf])
    def test_infinite_parameter_rejected(self, name, value):
        with pytest.raises(ValueError, match=f"^{name} must be finite"):
            SystemParams(T=1, **{name: value})

    def test_infinite_upper_bound_accepted(self):
        # the shattering constructions leave the order-up-to class unbounded
        assert SystemParams(T=2, H=math.inf, Hlo=-1.0).level_cap() == math.inf

    def test_policy_structure(self):
        with pytest.raises(ValueError):
            SsPolicy(3.0, 2.0)
        with pytest.raises(ValueError):
            BaseStock(-1.0)
        with pytest.raises(ValueError):
            NonStationary((1.0, -2.0))

    def test_ss_bounds_defaults(self):
        p = params(T=4, L=1, h=0.5, b=0.5, U=2.0)
        lo, hi, capped = p.ss_bounds()
        assert hi == pytest.approx((1 + 1) * 2.0 / 0.5)
        assert lo == pytest.approx(min(0.0, 4.0 * (1 - 2.0)))
        assert not capped
        # zero holding cost falls back to a finite cap
        lo, hi, capped = params(h=0.0).ss_bounds()
        assert capped and np.isfinite(hi)
        # b > 1 clamps the lower bound to zero
        lo, _, _ = params(b=9.0).ss_bounds()
        assert lo == 0.0

    def test_dataset_shape(self):
        with pytest.raises(ValueError):
            Dataset.from_matrix([[1.0, 2.0], [3.0]])
        with pytest.raises(ValueError):
            Dataset(())
