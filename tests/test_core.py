import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stocklab.core import (
    ORDER_EPS,
    BaseStock,
    Dataset,
    NonStationary,
    SsPolicy,
    SystemParams,
    delta_breakpoints,
    demand_matrix,
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
        with pytest.raises(ValueError, match="ORDER_EPS"):
            base_stock_loss(1e-12, (1e-12, 0.0), params(h=0.0, b=1.0, K=1.0))

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
            st.lists(st.floats(0, 10).filter(lambda v: v == 0.0 or v > ORDER_EPS),
                     min_size=T + L, max_size=T + L)
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


def order_periods(served):
    """The order periods of one (gap, row) schedule: its distinct entries."""
    return tuple(sorted(set(served.tolist())))


class TestReorderSchedule:
    def test_figure_instance(self):
        p = params(T=3)
        served = reorder_schedule([3.0, 5.0, 8.0], np.array([[4.0, 3.0, 1.0]]), p)
        assert served.shape == (3, 1, 3)
        assert served[:, 0].tolist() == [[1, 2, 3], [1, 1, 3], [1, 1, 1]]
        assert [order_periods(g[0]) for g in served] == [(1, 2, 3), (1, 3), (1,)]

    def test_matches_simulated_order_periods(self):
        rng = np.random.default_rng(12)
        for _ in range(60):
            T = int(rng.integers(1, 8))
            L = int(rng.integers(0, 3))
            p = params(T=T, L=L, U=6.0, Hlo=-30.0, H=60.0, x1=-30.0)
            D = rng.uniform(0.01, 6.0, (int(rng.integers(1, 5)), T + L))
            gaps = rng.uniform(0, 12.0, int(rng.integers(1, 5)))
            served = reorder_schedule(gaps, D, p)
            assert served.shape == (len(gaps), len(D), T)
            for delta, per_row in zip(gaps, served):
                S = float(rng.uniform(0.1, 20.0))
                for d, row_served in zip(D, per_row):
                    traj = simulate(SsPolicy(S - delta, S), d, p)
                    ordered = tuple(t for t in range(1, p.T + 1) if traj.q[t - 1] > 0)
                    assert ordered == order_periods(row_served)

    @pytest.mark.parametrize("gap", [-1.0, -1e-300, math.nan])
    def test_rejects_negative_or_nan_gap(self, gap):
        with pytest.raises(ValueError, match="order gap must be a nonnegative number"):
            reorder_schedule([2.0, gap], np.ones((2, 3)), params(T=3))

    def test_loss_constant_between_breakpoints(self):
        rng = np.random.default_rng(9)
        for _ in range(100):
            T = int(rng.integers(2, 8))
            p = params(T=T, L=int(rng.integers(0, 2)), U=6.0, Hlo=-40.0, H=80.0, x1=-40.0, K=1.0)
            d = rng.uniform(0.1, 6.0, p.horizon)
            bps = delta_breakpoints(d[None, :], p).tolist()
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
        bps = delta_breakpoints(np.array([[4.0, 3.0, 1.0]]), params(T=3))
        assert bps.tolist() == [3.0, 4.0, 7.0]

    def test_zero_demand(self):
        assert delta_breakpoints(np.zeros((1, 5)), params(T=5, L=0)).tolist() == [0.0]

    def test_schedule_constant_between_adjacent_breakpoints(self):
        # oracle: evaluate the schedule at midpoints and just past breakpoints
        rng = np.random.default_rng(2)
        for _ in range(200):
            T = int(rng.integers(2, 9))
            p = params(T=T)
            d = np.round(rng.uniform(0, 5.0, (1, T)), 2)
            bps = delta_breakpoints(d, p).tolist()
            assert bps == sorted(set(bps))
            assert len(bps) <= T * (T - 1) / 2
            edges = [0.0] + bps + [bps[-1] + 1.0]
            pairs = [(lo, hi) for lo, hi in zip(edges[:-1], edges[1:]) if hi - lo > 1e-9]
            mid = reorder_schedule([(lo + hi) / 2 for lo, hi in pairs], d, p)
            right = reorder_schedule(
                [hi if hi <= bps[-1] else hi + 5.0 for _, hi in pairs], d, p
            )
            assert np.array_equal(mid, right)

    def test_schedule_changes_across_breakpoints(self):
        served = reorder_schedule([0.0, 3.5, 5.0, 9.0], np.array([[4.0, 3.0, 1.0]]), params(T=3))
        seen = {order_periods(g[0]) for g in served}
        assert len(seen) == 4

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_running_sums_bit_for_bit(self, data):
        # every sum of demands i..j of periods 1..T-1, added left to right
        T = data.draw(st.integers(1, 7))
        n = data.draw(st.integers(1, 4))
        cell = st.one_of(st.just(0.0), st.just(-0.0), st.integers(1, 9).map(float),
                         st.floats(ORDER_EPS, 50.0, exclude_min=True))
        D = np.array(data.draw(st.lists(st.lists(cell, min_size=T, max_size=T),
                                        min_size=n, max_size=n)))
        want = set()
        for row in D.tolist():
            for i in range(T - 1):
                acc = 0.0
                for v in row[i : T - 1]:
                    acc += v
                    want.add(acc)
        got = delta_breakpoints(D, params(T=T))
        assert [v.hex() for v in got.tolist()] == [v.hex() for v in sorted(want)]


class TestCsvRoundTrip:
    def test_writes_float_repr(self, tmp_path):
        # repr of Python floats; 1e-300 is dust, so 1e300 checks the exponent form
        path = tmp_path / "demands.csv"
        write_demands_csv(Dataset.from_matrix([[0.1, 1e300, 2.5, 20.0]]), str(path))
        assert path.read_bytes() == b"t1,t2,t3,t4\r\n0.1,1e+300,2.5,20.0\r\n"

    def test_round_trip(self, tmp_path):
        data = Dataset.from_matrix([[1.5, 2.25, 0.0], [4.0, 0.125, 9.75]])
        path = tmp_path / "demands.csv"
        write_demands_csv(data, str(path))
        back = read_demands_csv(str(path))
        assert back == data
        header = path.read_text().splitlines()[0]
        assert header == "t1,t2,t3"
        path.write_text("t1,t2\n1,2,3\n4,5,6\n")
        with pytest.raises(ValueError, match="every row needs 2 values"):
            read_demands_csv(str(path))


class TestDataset:
    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_from_matrix_keeps_every_bit(self, data):
        n, m = data.draw(st.integers(1, 4)), data.draw(st.integers(1, 5))
        cell = st.one_of(st.just(0.0), st.floats(ORDER_EPS, 1e300, exclude_min=True))
        M = np.reshape(data.draw(st.lists(cell, min_size=n * m, max_size=n * m)), (n, m))
        if data.draw(st.booleans()):
            M = np.asfortranarray(M)
        got = Dataset.from_matrix(M).as_matrix()
        assert got.dtype == np.float64 and got.flags.c_contiguous
        assert got.tobytes() == np.ascontiguousarray(M).tobytes()

    def test_copies_once_and_is_read_only(self):
        M = np.array([[1.0, 2.0], [3.0, 4.0]])
        data = Dataset.from_matrix(M)
        M[0, 0] = 9.0
        assert data.as_matrix()[0, 0] == 1.0
        with pytest.raises(ValueError, match="read-only"):
            data.as_matrix()[0, 0] = 5.0
        assert data.as_matrix() is data.as_matrix()
        assert demand_matrix(data, params(T=2)) is data.as_matrix()

    def test_shape_and_equality(self):
        data = Dataset.from_matrix([[1.0, 2.0, 0.0], [3.0, 4.0, 5.0]])
        assert (len(data), data.n_periods) == (2, 3)
        assert data == Dataset.from_matrix(np.array([[1.0, 2.0, 0.0], [3.0, 4.0, 5.0]]))
        assert data != Dataset.from_matrix([[1.0, 2.0, 0.0], [3.0, 4.0, 6.0]])
        assert data != Dataset.from_matrix([[1.0, 2.0, 0.0]])
        assert data != [[1.0, 2.0, 0.0], [3.0, 4.0, 5.0]]

    @pytest.mark.parametrize("matrix,message", [
        ([[1.0, 2.0], [3.0]], "array of numbers"),
        ([], "at least one sequence"),
        ([1.0, 2.0], "shape"),
        ([[1.0, math.nan]], "finite"),
        ([[math.inf, 1.0]], "finite"),
        ([[-math.inf]], "finite"),
        ([[2.0, -1.0]], "nonnegative"),
        ([[1e-12, 0.0]], "ORDER_EPS = 1e-12"),
        ([[3.0, 5e-324]], "ORDER_EPS"),
    ])
    def test_rejects_invalid_demands(self, matrix, message):
        with pytest.raises(ValueError, match=message):
            Dataset.from_matrix(matrix)

    def test_dust_rejected_where_the_closed_form_would_miss_it(self):
        # simulate drops the dust order of period 1 and folds it into period
        # 2's, which pays K; the closed form fitted S = 1e-12 at risk 0.0
        p = params(T=2, h=0.0, b=1.0, K=1.0)
        assert simulate(BaseStock(1e-12), [1e-12, 0.0], p).avg_loss == pytest.approx(0.5)
        with pytest.raises(ValueError, match="ORDER_EPS"):
            Dataset.from_matrix([[1e-12, 0.0]])
        assert len(Dataset.from_matrix([[2e-12, 0.0]])) == 1


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

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_policy_rejected(self, value):
        with pytest.raises(ValueError, match="^base-stock level must be finite"):
            BaseStock(value)
        with pytest.raises(ValueError, match=r"^\(s, S\) must be finite"):
            SsPolicy(value, 5.0)
        with pytest.raises(ValueError, match=r"^\(s, S\) must be finite"):
            SsPolicy(-1.0, value)
        with pytest.raises(ValueError, match="^order-up-to levels must be finite"):
            NonStationary((value, 1.0))

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
