import itertools
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stocklab import estimators, evaluate
from stocklab.core import (
    ORDER_EPS,
    BaseStock,
    BudgetError,
    Dataset,
    NonStationary,
    SsPolicy,
    SystemParams,
    simulate,
)
from stocklab.demand import (
    FiniteSupport,
    IndependentNormals,
    draw,
    marginal_pmfs,
    support_atoms,
)
from stocklab.evaluate import (
    ModelRisk,
    enumerate_product_risk,
    exact_ss_risk,
    exact_st_risk,
    ss_losses_grid,
    st_losses,
)
from stocklab.estimators import (
    base_stock_kinks,
    base_stock_loss_matrix,
    ge_estimate,
    rademacher_estimate,
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

    def test_dataset_width_must_match_horizon(self):
        data = Dataset.from_matrix([[1.0, 2.0], [3.0, 0.0]])
        with pytest.raises(ValueError, match="expected T \\+ L = 3"):
            rademacher_estimate(data, params(T=3), draws=10)


class TestGeEstimate:
    def test_deterministic_model_has_zero_ge(self):
        p = params(T=3, U=6.0)
        rep = ge_estimate(FiniteSupport(((1.0, 4.0, 2.0),)), 4, p, reps=5, seed=5)
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
        model = IndependentNormals((10.0,) * 2, (5.0,) * 2)
        sizes = [8, 32, 128]
        means = [
            ge_estimate(model, n, p, reps=150, seed=7).mean_ge for n in sizes
        ]
        slope = np.polyfit(np.log(sizes), np.log(means), 1)[0]
        assert -0.8 <= slope <= -0.2

    def test_grid_classes_flagged_approximate(self):
        p = params(T=2, U=4.0, Hlo=-4.0, x1=-4.0)
        model = IndependentNormals((2.0,) * 2, (1.0,) * 2, cap=4.0)
        rep = ge_estimate(model, 3, p, policy_class="ss", reps=3, seed=8)
        assert not rep.exact_sup
        rep = ge_estimate(model, 3, p, policy_class="st", reps=2, seed=9)
        assert not rep.exact_sup

    @pytest.mark.parametrize("policy_class,kw,message", [
        ("ss", dict(grid_step=0.0), "grid step must be positive"),
        ("st", dict(grid_step=-1.0), "grid step must be positive"),
        ("st", dict(grid_step=math.inf), "grid step must be positive"),
        ("st", dict(p=params(T=2, U=4.0, H=math.inf)), "finite level cap"),
        ("ss", dict(p=params(T=2, U=4.0, Hlo=-math.inf, x1=-4.0)),
         "finite reorder-point bound"),
    ])
    def test_grid_classes_reject_unusable_grids(self, policy_class, kw, message):
        kw = dict(dict(p=params(T=2, U=4.0, Hlo=-4.0, x1=-4.0)), **kw)
        model = IndependentNormals((2.0,) * 2, (1.0,) * 2, cap=4.0)
        with pytest.raises(ValueError, match=message):
            ge_estimate(model, 3, policy_class=policy_class, reps=1, **kw)

    def test_ss_grid_keeps_no_point_past_the_bound(self, monkeypatch):
        # arange(-4, 5.1) reaches 5, past H = 4.6; the pairs are counted
        # exactly, and before they are built
        p = params(T=2, U=4.0, H=4.6, Hlo=-4.0, x1=-4.0)
        model = IndependentNormals((2.0,) * 2, (1.0,) * 2, cap=4.0)
        axis = np.arange(-4.0, 5.0)
        seen = []
        pairs = evaluate.ss_pairs
        monkeypatch.setattr(evaluate, "ss_pairs", lambda a: seen.append(a.tolist()) or pairs(a))
        n_pairs = len(pairs(axis)[0])
        monkeypatch.setattr(estimators, "GE_GRID_BUDGET", n_pairs)
        ge_estimate(model, 3, p, policy_class="ss", reps=1)
        assert seen == [axis.tolist()]
        monkeypatch.setattr(estimators, "GE_GRID_BUDGET", n_pairs - 1)
        with pytest.raises(BudgetError):
            ge_estimate(model, 3, p, policy_class="ss", reps=1)
        assert len(seen) == 1

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
            # integer demands: the true side is the lattice kernel per row
            mu = data.draw(st.lists(st.floats(0.0, 3.0), min_size=T + L, max_size=T + L))
            sd = data.draw(st.lists(st.sampled_from([0.0, 0.5, 1.0, 2.0]),
                                    min_size=T + L, max_size=T + L))
            model = IndependentNormals(tuple(mu), tuple(sd), cap=3.0)
        step = data.draw(st.sampled_from([0.5, 1.0]))
        kw = dict(policy_class="st", reps=2, grid_step=step,
                  seed=data.draw(st.integers(0, 9)))
        n_train = data.draw(st.integers(1, 4))
        got = ge_estimate(model, n_train, p, **kw)
        want = product_loop_ge_st(model, n_train, p, **kw)
        assert [v.hex() for v in got.values] == [v.hex() for v in want]

    def test_st_chunks_match_one_chunk(self, monkeypatch):
        p = params(T=2, L=1, h=0.5, b=2.0, U=3.0, H=2.0)
        model = IndependentNormals((1.5,) * 3, (1.0,) * 3, cap=3.0)
        kw = dict(policy_class="st", reps=3, grid_step=0.5, seed=4)
        whole = ge_estimate(model, 3, p, **kw)
        # 6 cells over 3 training paths x 2 periods: one combination per chunk
        monkeypatch.setattr(evaluate, "_BLOCK_CELLS", 6)
        chunked = ge_estimate(model, 3, p, **kw)
        assert chunked == whole
        assert list(chunked.values) == product_loop_ge_st(model, 3, p, **kw)

    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_true_side_scored_once_matches_scoring_every_rep(self, data):
        T = data.draw(st.integers(1, 3))
        L = data.draw(st.integers(0, 2))
        p = params(T=T, L=L, h=data.draw(st.sampled_from([0.5, 1.0])),
                   b=data.draw(st.sampled_from([1.0, 3.0])),
                   K=data.draw(st.sampled_from([0.0, 1.5])), U=4.0,
                   x1=data.draw(st.sampled_from([0.0, -1e-13, -2.0])), H=2.0, Hlo=-2.0)
        if data.draw(st.booleans()):
            # integer draws: the true side is the model's pmfs, for every class
            mu = data.draw(st.lists(st.floats(0.0, 4.0), min_size=T + L, max_size=T + L))
            model = IndependentNormals(tuple(mu), (1.5,) * (T + L), cap=4.0)
        else:
            cell = st.one_of(st.integers(0, 4).map(float),
                             st.floats(0.0, 4.0).filter(lambda v: v == 0.0 or v > ORDER_EPS))
            atoms = data.draw(st.lists(st.tuples(*[cell] * (T + L)), min_size=1, max_size=5))
            model = FiniteSupport(tuple(atoms))
        policy_class = data.draw(st.sampled_from(["base-stock", "ss", "st"]))
        kw = dict(policy_class=policy_class, reps=4, grid_step=1.0,
                  seed=data.draw(st.integers(0, 9)))
        n_train = data.draw(st.integers(1, 4))
        got = ge_estimate(model, n_train, p, **kw)
        if policy_class == "st":
            want = product_loop_ge_st(model, n_train, p, **kw)
        else:
            want = rescored_ge(model, n_train, p, policy_class, kw["reps"], kw["seed"])
        assert [v.hex() for v in got.values] == [v.hex() for v in want]
        with mock.patch.object(estimators, "_GE_CELLS", 1):  # one rep per block
            assert ge_estimate(model, n_train, p, **kw) == got
        with mock.patch.object(estimators, "_GE_CELLS", 1 << 40):  # one block of every rep
            assert ge_estimate(model, n_train, p, **kw) == got

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_grid_classes_are_exact_risks_less_kernel_means(self, data):
        # each rep's value is the max over the grid of a policy's one-policy
        # exact risk less the kernel's mean loss on the rep's own training
        # paths, by float.hex; on the first two reps it is also the value of
        # simulate alone (the product support enumerated, and the training
        # paths), within 1e-9
        policy_class = data.draw(st.sampled_from(["ss", "st"]))
        T = data.draw(st.integers(1, 3))
        L = data.draw(st.integers(0, 2))
        p = params(T=T, L=L, h=data.draw(st.sampled_from([0.5, 1.0])),
                   b=data.draw(st.sampled_from([1.0, 3.0])),
                   K=data.draw(st.sampled_from([0.0, 1.5])) if policy_class == "ss" else 0.0,
                   U=2.0, x1=-float(data.draw(st.integers(0, 2))), H=2.0, Hlo=-2.0)
        mu = data.draw(st.lists(st.floats(0.0, 2.0), min_size=T + L, max_size=T + L))
        sd = data.draw(st.lists(st.sampled_from([0.0, 0.5, 1.0]), min_size=T + L, max_size=T + L))
        model = IndependentNormals(tuple(mu), tuple(sd), cap=2.0)
        step = data.draw(st.sampled_from([0.5, 1.0]))
        n_train, seed = data.draw(st.integers(1, 4)), data.draw(st.integers(0, 9))
        got = ge_estimate(model, n_train, p, policy_class, reps=3, seed=seed, grid_step=step)
        pmfs = marginal_pmfs(model)
        if policy_class == "ss":
            axis = np.arange(p.Hlo, p.H + step / 2, step)
            policies = [SsPolicy(s, S) for s in axis for S in axis if s <= S and S >= 0]
            true = [exact_ss_risk(pol, pmfs, p) for pol in policies]
            kernel = lambda pol, D: ss_losses_grid([pol.s], [pol.S], D, p)[0]
        else:
            axis = np.arange(0.0, p.H + step / 2, step)
            policies = [NonStationary(levels + (0.0,) * L)
                        for levels in itertools.product(axis.tolist(), repeat=T)]
            true = [exact_st_risk(pol.levels, pmfs, p) for pol in policies]
            kernel = lambda pol, D: st_losses(np.array(pol.levels), D, p)
        for rep, value in enumerate(got.values):
            D = draw(model, n_train, (seed, rep, 0)).as_matrix()
            want = max(float(t - kernel(pol, D).mean()) for pol, t in zip(policies, true))
            assert value.hex() == want.hex()
            if rep < 2:
                simulated = max(
                    enumerate_product_risk(pol, pmfs, p)
                    - np.mean([simulate(pol, row, p, unchecked=True).avg_loss for row in D])
                    for pol in policies)
                assert value == pytest.approx(simulated, abs=1e-9)

    @pytest.mark.parametrize("policy_class", ["base-stock", "ss", "st"])
    def test_training_draws_are_the_only_draws(self, monkeypatch, policy_class):
        # the true side comes from the pmfs: no evaluation sample is drawn
        p = params(T=2, L=1, U=4.0, Hlo=-2.0, x1=-2.0, H=3.0)
        model = IndependentNormals((1.0, 3.0, 2.0), (1.5,) * 3, cap=4.0)
        keys = []
        monkeypatch.setattr(estimators, "draw",
                            lambda m, n, key: keys.append((n, key)) or draw(m, n, key))
        ge_estimate(model, 3, p, policy_class, reps=5, seed=7)
        assert keys == [(3, (7, rep, 0)) for rep in range(5)]

    @pytest.mark.parametrize("policy_class", ["base-stock", "ss", "st"])
    @pytest.mark.parametrize("model", [
        IndependentNormals((2.0,) * 2, (1.0,) * 2, cap=4.0, integerize=False),
        IndependentNormals((2.0,) * 2, (1.0,) * 2, cap=4.5),
    ], ids=["continuous", "fractional-cap"])
    def test_model_without_exact_risks_rejected(self, monkeypatch, model, policy_class):
        p = params(T=2, U=4.0, Hlo=-2.0, x1=-2.0)
        assert ModelRisk(model, p).mode == "mc"
        monkeypatch.setattr(estimators, "draw", mock.Mock(side_effect=AssertionError("drawn")))
        with pytest.raises(ValueError, match="neither a finite support nor integer per-period pmfs"):
            ge_estimate(model, 3, p, policy_class, reps=2)

    @pytest.mark.parametrize("policy_class", ["ss", "st"])
    def test_grid_class_reps_stack_on_a_finite_support(self, monkeypatch, policy_class):
        # with room for every rep in one block, each grid chunk is scored once
        # on all 6 reps' stacked paths, and each rep keeps its own values
        p = params(T=2, L=1, h=0.5, b=3.0, K=1.5, U=4.0, x1=-2.0, H=3.0, Hlo=-2.0)
        model = FiniteSupport(((1.0, 0.0, 3.0), (4.0, 2.0, 1.0), (0.0, 3.0, 2.0), (2.0, 1.0, 0.0)))
        n_train, reps = 3, 6
        monkeypatch.setattr(estimators, "_GE_CELLS", 1 << 40)
        kernel = {"ss": "ss_losses_grid", "st": "st_losses_grid"}[policy_class]
        paths = []
        scored = getattr(evaluate, kernel)
        monkeypatch.setattr(evaluate, kernel,
                            lambda *a: paths.append(len(a[-2])) or scored(*a))
        kw = dict(policy_class=policy_class, reps=reps, grid_step=1.0, seed=2)
        got = ge_estimate(model, n_train, p, **kw)
        assert paths == [len(support_atoms(model)), reps * n_train]
        if policy_class == "st":
            want = product_loop_ge_st(model, n_train, p, **kw)
        else:
            want = rescored_ge(model, n_train, p, "ss", reps, 2)
        assert len(set(want)) > 1  # the reps differ, so a mixed-up stack shows
        assert [v.hex() for v in got.values] == [v.hex() for v in want]

    @pytest.mark.parametrize("per_block", [1, 2, 3, 7, None])
    @pytest.mark.parametrize("kind", ["pmfs", "atoms"])
    def test_rep_blocks_match_scoring_each_rep(self, monkeypatch, kind, per_block):
        # 7 reps in blocks of per_block reps (the last one short), or in the
        # blocks of the default cell bound
        p = params(T=3, L=1, h=0.5, b=3.0, K=1.5, U=4.0, x1=-1.0, H=6.0)
        if kind == "pmfs":
            model = IndependentNormals((1.0, 3.0, 2.0, 4.0), (1.5,) * 4, cap=4.0, integerize=True)
            kinks = evaluate.exact_base_stock_levels(marginal_pmfs(model), p)
        else:
            model = FiniteSupport(((1.0, 0.5, 3.0, 2.25), (4.0, 0.0, 1.0, 1.0), (2.0, 2.0, 0.0, 3.5)))
            kinks = base_stock_kinks(support_atoms(model), p)
        n_train, reps = 5, 7
        if per_block is not None:
            cells = n_train * max(p.horizon, len(kinks))
            monkeypatch.setattr(estimators, "_GE_CELLS", cells * per_block + cells - 1)
        paths = []
        monkeypatch.setattr(evaluate, "base_stock_loss_matrix",
                            lambda lv, D, p: paths.append(len(D)) or base_stock_loss_matrix(lv, D, p))
        got = ge_estimate(model, n_train, p, reps=reps, seed=3)
        block = per_block or reps
        sizes = [min(block, reps - lo) * n_train for lo in range(0, reps, block)]
        true_side = [] if kind == "pmfs" else [len(support_atoms(model))]
        assert paths == true_side + sizes
        want = rescored_ge(model, n_train, p, "base-stock", reps, 3)
        assert [v.hex() for v in got.values] == [v.hex() for v in want]

    def test_off_curve_kink_raises(self, monkeypatch):
        # a fractional demand planted in rep 2 gives a kink between the
        # integer levels of the exact curve
        p = params(T=2, U=6.0)
        model = IndependentNormals((2.0, 3.0), (1.0, 2.0), cap=6.0, integerize=True)

        def planted(model_, n, key):
            data = draw(model_, n, key)
            if key[1] != 2:
                return data
            rows = data.as_matrix().copy()
            rows[0, 0] = 2.5
            return Dataset.from_matrix(rows)

        monkeypatch.setattr(estimators, "draw", planted)
        assert len(ge_estimate(model, 4, p, reps=2, seed=1).values) == 2
        with pytest.raises(AssertionError, match="kink off the true risk curve"):
            ge_estimate(model, 4, p, reps=3, seed=1)

    def test_integer_pmfs_score_the_true_curve_once(self, monkeypatch):
        # every empirical kink of integer demands is an integer level of the
        # exact curve, so one call scores every rep's true risks
        p = params(T=3, U=6.0)
        model = IndependentNormals((2.0, 3.0, 1.0), (1.0, 2.0, 1.0), cap=6.0, integerize=True)
        calls = []
        monkeypatch.setattr(estimators, "class_risks",
                            lambda c, S, *a: calls.append(len(S)) or evaluate.class_risks(c, S, *a))
        ge_estimate(model, 5, p, reps=20, seed=1)
        assert calls == [7]

    @pytest.mark.parametrize("policy_class", ["base-stock", "ss", "st"])
    def test_model_periods_checked(self, policy_class):
        # a three-period support at T = 2 was scored on its first periods
        p = params(T=2, U=8.0, Hlo=-2.0, x1=-2.0)
        with pytest.raises(ValueError, match="has 3 periods, expected T \\+ L = 2"):
            ge_estimate(FiniteSupport([[3.0, 7.0, 1.0]]), 3, p, policy_class, reps=2)

    def test_st_grid_counts_the_first_T_levels(self, monkeypatch):
        # the last L levels never reach the loss: at T = 2, L = 2 the grid
        # scores 61^2 level vectors, not 61^4
        p = SystemParams(T=2, L=2, U=20)
        model = FiniteSupport(((3.0, 0.0, 12.0, 5.0), (7.0, 20.0, 1.0, 0.0)))
        got = ge_estimate(model, 3, p, "st", reps=2)
        assert len(got.values) == 2
        monkeypatch.setattr(estimators, "GE_GRID_BUDGET", 61**2)
        assert ge_estimate(model, 3, p, "st", reps=2) == got
        monkeypatch.setattr(estimators, "GE_GRID_BUDGET", 61**2 - 1)
        with pytest.raises(BudgetError):
            ge_estimate(model, 3, p, "st", reps=2)


def product_loop_ge_st(model, n_train, p, policy_class, reps, grid_step, seed):
    """ge_estimate(..., "st") by one true risk and one st_losses call per rep
    for every combination of all T + L levels, in itertools.product order: the
    mean loss over the atoms, or exact_st_risk under the model's pmfs."""
    assert policy_class == "st"
    axis = np.arange(0.0, p.level_cap() + grid_step / 2, grid_step)
    atoms, pmfs = support_atoms(model), marginal_pmfs(model)
    combos = [np.asarray(combo) for combo in itertools.product(axis, repeat=p.horizon)]
    true = [st_losses(lv, atoms, p).mean() if atoms is not None else exact_st_risk(lv, pmfs, p)
            for lv in combos]
    values = []
    for rep in range(reps):
        D = draw(model, n_train, (seed, rep, 0)).as_matrix()
        values.append(max(float(t - st_losses(lv, D, p).mean()) for lv, t in zip(combos, true)))
    return values


def rescored_ge(model, n_train, p, policy_class, reps, seed):
    """ge_estimate's per-rep values for the base-stock class or (s, S) pairs
    on a unit grid, with the true risks scored apart from its blocks: over
    the atoms, or exactly under the model's pmfs, one (s, S) pair at a time
    and the base-stock candidates of each rep in a call of their own."""
    atoms, pmfs = support_atoms(model), marginal_pmfs(model)
    if policy_class == "ss":
        s, S = evaluate.ss_pairs(evaluate.grid_axis(p.Hlo, p.H, 1.0))
        if atoms is None:
            true = np.array([exact_ss_risk(SsPolicy(*pair), pmfs, p) for pair in zip(s, S)])
        else:
            true = evaluate.ss_losses_grid(s, S, atoms, p).mean(axis=1)
    values = []
    for rep in range(reps):
        D = draw(model, n_train, (seed, rep, 0)).as_matrix()
        if policy_class == "ss":
            emp = evaluate.ss_losses_grid(s, S, D, p).mean(axis=1)
        else:
            if atoms is None:
                cands = np.union1d(base_stock_kinks(D, p), evaluate.exact_base_stock_levels(pmfs, p))
                true = evaluate.exact_base_stock_risk(cands, pmfs, p)
            else:
                cands = np.union1d(base_stock_kinks(D, p), base_stock_kinks(atoms, p))
                true = base_stock_loss_matrix(cands, atoms, p).mean(axis=1)
            emp = base_stock_loss_matrix(cands, D, p).mean(axis=1)
        values.append(float((true - emp).max()))
    return values
