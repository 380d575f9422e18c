"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s``.  Criteria with stated
runtime budgets assert them.  Criterion 5 is expected to fail at M = 1:
an exact grid search shows the unit grid attains the tuned continuous risk
exactly (the every-period policy with level 1), so the asserted gap of at
least 0.04 cannot hold there; the finer grids all pass.
"""

import itertools
import math
import time

import numpy as np
import pytest

from stocklab.core import (
    BaseStock,
    Dataset,
    NonStationary,
    SystemParams,
    simulate,
)
from stocklab.demand import (
    FiniteSupport,
    InstanceHyper,
    draw,
    sample_instance,
)
from stocklab.estimators import (
    base_stock_kinks,
    base_stock_loss_matrix,
    ge_estimate,
    rademacher_estimate,
)
from stocklab.evaluate import exact_base_stock_risk
from stocklab.experiments import ExperimentConfig, run_experiment
from stocklab.fitters import erm_St, erm_base_stock, erm_sS, grid_oracle
from stocklab.perm import build_marginals, product_partition
from stocklab.shatter import (
    discretization_gap,
    gen_sS_prime_shatter,
    gen_st_K_shatter,
    gen_st_shatter,
    verify_shattering,
)

PAPER_TABLE = np.array([[1.0, 3.0, 5.0], [2.0, 4.0, 6.0]])


def report(n: int, ok: bool, text: str) -> None:
    print(f"ACCEPTANCE {n}: {'PASS' if ok else 'FAIL'} - {text}")
    assert ok, f"criterion {n}: {text}"


def test_criterion_1_dynamics_oracle_equivalence():
    start = time.time()
    rng = np.random.default_rng(1001)
    worst = 0.0
    for _ in range(1000):
        T = int(rng.integers(1, 9))
        L = int(rng.integers(0, 4))
        p = SystemParams(
            T=T, L=L,
            h=float(rng.uniform(0, 2)), b=float(rng.uniform(0, 2)),
            K=float(rng.uniform(0, 5)), U=10.0,
            x1=float(-rng.uniform(0, 3)),
        )
        d = rng.uniform(0, 10.0, T + L)
        S = float(rng.uniform(0, p.level_cap()))
        closed = float(base_stock_loss_matrix([S], Dataset.from_matrix([d]).as_matrix(), p)[0, 0])
        traj = simulate(BaseStock(S), d, p).avg_loss
        scale = max(abs(traj), 1e-9)
        worst = max(worst, abs(closed - traj) / scale)
        flat = simulate(
            NonStationary((S,) * (T + L)), d,
            SystemParams(T=T, L=L, h=p.h, b=p.b, K=0.0, U=10.0, x1=p.x1),
        ).avg_loss
        base = simulate(
            BaseStock(S), d,
            SystemParams(T=T, L=L, h=p.h, b=p.b, K=0.0, U=10.0, x1=p.x1),
        ).avg_loss
        assert flat == base
    elapsed = time.time() - start
    report(1, worst <= 1e-12 and elapsed < 5.0,
           f"closed form vs simulate: worst rel err {worst:.2e}, {elapsed:.1f}s")


def test_criterion_2_fitter_exactness():
    start = time.time()
    rng = np.random.default_rng(1002)
    worst_base = 0.0
    worst_ss = 0.0
    for _ in range(200):
        T = int(rng.integers(1, 6))
        L = int(rng.integers(0, 2))
        n = int(rng.integers(1, 5))
        h, b = float(rng.uniform(0.1, 1.5)), float(rng.uniform(0.1, 1.5))
        K = float(rng.choice([0.0, rng.uniform(0, 3)]))
        p = SystemParams(T=T, L=L, h=h, b=b, K=K, U=8.0)
        D = rng.uniform(0, 8.0, (n, T + L))
        data = Dataset.from_matrix(D)
        fit = erm_base_stock(data, p)
        oracle = grid_oracle(data, "base-stock", 1e-3, p)
        worst_base = max(worst_base, abs(fit.in_sample_risk - oracle.in_sample_risk))

        # integer instance with wide integer bounds for the (s, S) comparison
        Di = rng.integers(0, 9, (n, T + L)).astype(float)
        datai = Dataset.from_matrix(Di)
        pi = SystemParams(T=T, L=L, h=h, b=b, K=K, U=8.0,
                          H=float((L + 1) * 8 + 4), Hlo=-80.0, x1=-80.0)
        exact = erm_sS(datai, pi, mode="exact")
        grid = erm_sS(datai, pi, mode="integer-grid")
        worst_ss = max(worst_ss, abs(exact.in_sample_risk - grid.in_sample_risk))

    worst_st = 0.0
    for _ in range(50):
        T = int(rng.integers(1, 4))
        n = int(rng.integers(1, 4))
        p = SystemParams(T=T, L=0, h=float(rng.uniform(0.2, 1.2)),
                         b=float(rng.uniform(0.2, 1.2)), K=0.0, U=4.0)
        data = Dataset.from_matrix(rng.integers(0, 5, (n, T)).astype(float))
        res = erm_St(data, p)
        oracle = grid_oracle(data, "st", 1.0, p)
        worst_st = max(worst_st, res.in_sample_risk - oracle.in_sample_risk)
    elapsed = time.time() - start
    report(2, worst_base <= 1e-3 and worst_ss <= 1e-3 and worst_st <= 1e-6
           and elapsed < 120,
           f"base-stock {worst_base:.2e}, (s,S) {worst_ss:.2e}, "
           f"levels {worst_st:.2e}, {elapsed:.1f}s")


def test_criterion_3_shattering_constructions():
    start = time.time()
    rep_spike = verify_shattering(gen_st_shatter(12))
    inst_k = gen_st_K_shatter(10, 1.0)
    rep_k = verify_shattering(inst_k, gamma=0.9 * 0.1)
    rep_k_boundary = verify_shattering(inst_k, gamma=0.1)
    rep_prime = verify_shattering(gen_sS_prime_shatter(3, 0.5), gamma=0.5 / 16)
    elapsed = time.time() - start
    ok = (
        rep_spike.ok and rep_spike.subsets_checked == 4096
        and rep_k.ok and rep_k.subsets_checked == 64
        and not rep_k_boundary.ok
        and rep_prime.ok and rep_prime.subsets_checked == 8
        and elapsed < 60
    )
    report(3, ok,
           f"spike 4096 subsets={rep_spike.ok}, fixed-cost 64 subsets={rep_k.ok} "
           f"(boundary fails={not rep_k_boundary.ok}), prime 8 subsets={rep_prime.ok}, "
           f"{elapsed:.1f}s")


def test_criterion_4_partition():
    for n in range(1, 5):
        for periods in range(1, 5):
            groups = product_partition(n, periods)
            assert len(groups) == n ** (periods - 1)
            seen = set()
            for group in groups:
                assert len(group) == n
                for t in range(periods):
                    assert sorted(tup[t] for tup in group) == list(range(n))
                seen.update(group)
            assert seen == set(itertools.product(range(n), repeat=periods))
    rendered = {
        frozenset(
            "".join(str(int(PAPER_TABLE[idx][t])) for t, idx in enumerate(tup))
            for tup in group
        )
        for group in product_partition(2, 3)
    }
    expected = {
        frozenset({"135", "246"}),
        frozenset({"136", "245"}),
        frozenset({"145", "236"}),
        frozenset({"146", "235"}),
    }
    report(4, rendered == expected,
           "disjoint cover for all N <= 4, periods <= 4; reference partition matched")


@pytest.mark.parametrize("M", [1, 2, 4, 8, 16])
def test_criterion_5_discretization_gap(M):
    start = time.time()
    rep = discretization_gap(M, 200)
    elapsed = time.time() - start
    ok = (
        abs(rep.continuous_risk - 1 / (8 * M)) <= 1e-9
        and rep.gap >= 0.04
        and elapsed < 30
    )
    report(5, ok,
           f"M={M}: continuous {rep.continuous_risk:.6f} (want {1 / (8 * M):.6f}), "
           f"gap {rep.gap:.4f} (want >= 0.04), {elapsed:.1f}s")


def test_criterion_6_ge_scaling():
    start = time.time()
    p10 = SystemParams(T=10, L=0, h=1.0, b=9.0, K=0.0, U=20.0)
    hyper = InstanceHyper()
    model10 = sample_instance("ee-vs-T", (2042, 0), p10, hyper)
    sizes = [10, 40, 160]
    means = []
    for n in sizes:
        rep = ge_estimate(model10, n, p10, reps=500, seed=606)
        means.append(rep.mean_ge)
    slope = np.polyfit(np.log(sizes), np.log(means), 1)[0]

    p40 = SystemParams(T=40, L=0, h=1.0, b=9.0, K=0.0, U=20.0)
    model40 = sample_instance("ee-vs-T", (2042, 0), p40, hyper)
    ge40 = ge_estimate(model40, 40, p40, reps=500, seed=607).mean_ge
    ratio = ge40 / means[1]
    elapsed = time.time() - start
    ok = -0.65 <= slope <= -0.35 and ratio <= 1.5 and elapsed < 600
    report(6, ok,
           f"slope {slope:.3f} (want [-0.65, -0.35]), T-ratio {ratio:.3f} "
           f"(want <= 1.5), {elapsed:.0f}s")


@pytest.fixture(scope="module")
def figure1_records():
    cfg = ExperimentConfig(
        kind="ee-vs-T",
        sweep=(20, 60, 100),
        system=SystemParams(T=20, L=0, h=1.0, b=9.0, K=0.0, U=20.0),
        hyper=InstanceHyper(),
        instance_count=10,
        dataset_reps=20,
        n_train=20,
        seed=707,
    )
    start = time.time()
    records = run_experiment(cfg)
    return records, time.time() - start


def test_criterion_7a_figure1_ordering(figure1_records):
    records, elapsed = figure1_records
    ee = {
        (r.sweep_value, r.policy_class): r
        for r in records
        if r.metric == "ee-ratio"
    }
    ordering_ok = True
    details = []
    for T in (20, 60, 100):
        trio = [ee[(T, c)] for c in ("base-stock", "ss", "st")]
        for lo_rec, hi_rec in zip(trio[:-1], trio[1:]):
            slack = 2 * math.hypot(lo_rec.stderr, hi_rec.stderr)
            if lo_rec.value > hi_rec.value + slack:
                ordering_ok = False
        details.append(
            f"T={T}: " + " <= ".join(f"{r.value:.4f}" for r in trio)
        )
    report(7, ordering_ok and elapsed < 1800,
           "EE ordering " + "; ".join(details) + f"; {elapsed:.0f}s")


def test_criterion_7b_figure1_flatness(figure1_records):
    # Expected to fail for the one- and two-parameter classes: under the
    # independent per-period demands of this design their empirical risks
    # average N*T independent terms, so the EE decays with T (by about the
    # horizon ratio) instead of staying within a factor of 2.  The
    # per-period-level class is flat, as the theory says.
    records, _ = figure1_records
    ee = {
        (r.sweep_value, r.policy_class): r
        for r in records
        if r.metric == "ee-ratio"
    }
    details = []
    flat_ok = True
    for c in ("base-stock", "ss", "st"):
        vals = [ee[(T, c)].value for T in (20, 60, 100)]
        spread = max(vals) / max(min(vals), 1e-12)
        if spread > 2.0:
            flat_ok = False
        details.append(f"{c} spread {spread:.2f}")
    report(7, flat_ok, "EE flatness (max/min <= 2): " + "; ".join(details))


def test_criterion_7c_newsvendor_ratio():
    # Expected to fail: with levels tied at the smallest empirical-quantile
    # minimizer, exact computation over the stated instance distribution
    # gives an expected ratio near 1.08 (the asymptotic newsvendor regret
    # q(1-q)(h+b)/(2 N f) / R(opt) predicts about 1.076); the quoted 1.029
    # is not reproducible from the stated setup.
    cfg1 = ExperimentConfig(
        kind="ee-vs-T",
        sweep=(1,),
        system=SystemParams(T=1, L=0, h=1.0, b=9.0, K=0.0, U=20.0),
        hyper=InstanceHyper(),
        classes=("st",),
        instance_count=10,
        dataset_reps=20,
        n_train=20,
        seed=711,
    )
    rec1 = [r for r in run_experiment(cfg1) if r.metric == "oos-ratio"][0]
    report(7, 1.01 <= rec1.value <= 1.05,
           f"T=1 oos ratio {rec1.value:.4f} (want [1.01, 1.05])")


def test_criterion_8_crossings():
    start = time.time()
    # bounds widened beyond the normalized-cost formulas so the two-parameter
    # class nests the square-root-gap family (see the fixed-gap fitter notes)
    cfg_ss = ExperimentConfig(
        kind="oos-vs-N-sS",
        sweep=(2, 20),
        system=SystemParams(T=20, L=0, h=1.0, b=9.0, K=18.0, U=20.0,
                            H=45.0, Hlo=-25.0, x1=-25.0),
        hyper=InstanceHyper(sigma0=5.0),
        classes=("eoq", "ss"),
        instance_count=10,
        dataset_reps=100,
        seed=808,
    )
    recs = run_experiment(cfg_ss)
    curve = {
        (r.policy_class, r.sweep_value): r for r in recs if r.metric == "oos-ratio"
    }
    eoq2, ss2 = curve[("eoq", 2)], curve[("ss", 2)]
    eoq20, ss20 = curve[("eoq", 20)], curve[("ss", 20)]
    small_n = eoq2.value + 2 * math.hypot(eoq2.stderr, ss2.stderr) < ss2.value
    large_n = ss20.value + 2 * math.hypot(eoq20.stderr, ss20.stderr) < eoq20.value

    cfg_st = ExperimentConfig(
        kind="oos-vs-N-St",
        sweep=(2, 4, 6, 8, 12, 16, 20),
        system=SystemParams(T=5, L=0, h=1.0, b=9.0, K=0.0, U=20.0),
        hyper=InstanceHyper(nonst=0.5, sigma0=5.0),
        instance_count=10,
        dataset_reps=100,
        seed=809,
    )
    recs_st = run_experiment(cfg_st)
    crossing = [r for r in recs_st if r.metric == "crossing-N"][0]
    elapsed = time.time() - start
    ok = small_n and large_n and not math.isnan(crossing.value) and elapsed < 2700
    report(8, ok,
           f"fixed-cost: N=2 {eoq2.value:.4f} < {ss2.value:.4f}, "
           f"N=20 {ss20.value:.4f} < {eoq20.value:.4f}; "
           f"level-sweep crossing N*={crossing.value}; {elapsed:.0f}s")


def test_criterion_9_erm_vs_perm():
    start = time.time()
    cfg_ind = ExperimentConfig(
        kind="erm-vs-perm-ind",
        sweep=(4, 32),
        system=SystemParams(T=2, L=0, h=1.0, b=9.0, K=0.0, U=20.0),
        hyper=InstanceHyper(),
        instance_count=10,
        dataset_reps=100,
        seed=909,
    )
    ind = {r.sweep_value: r.value for r in run_experiment(cfg_ind)}

    base = dict(
        kind="erm-vs-perm-corr",
        system=SystemParams(T=2, L=0, h=1.0, b=9.0, K=0.0, U=20.0),
        instance_count=10,
        seed=910,
    )
    neg = run_experiment(ExperimentConfig(
        sweep=(-1.0,), hyper=InstanceHyper(support_size=5), **base
    ))[0].value
    control = run_experiment(ExperimentConfig(
        sweep=(0.0,), hyper=InstanceHyper(support_size=5, support_form="product"),
        **base
    ))[0].value
    elapsed = time.time() - start
    ok = (
        ind[4] >= 1.0
        and ind[32] <= 1.01
        and neg < 1.0
        and 0.99 <= control <= 1.01
        and elapsed < 1200
    )
    report(9, ok,
           f"independent: ratio(N=4) {ind[4]:.4f} >= 1, ratio(N=32) {ind[32]:.4f} "
           f"<= 1.01; correlated rho=-1 {neg:.4f} < 1; product control "
           f"{control:.4f} in [0.99, 1.01]; {elapsed:.0f}s")


def test_criterion_10_statistical_inequalities():
    # independent two-atom marginals realized as a product-form support; a
    # one-period lead time makes the loss couple adjacent periods, so the
    # product-distribution risk genuinely differs from the empirical risk
    atoms = tuple(
        (float(a), float(b), float(c))
        for a in (6.0, 14.0) for b in (9.0, 11.0) for c in (4.0, 16.0)
    )
    model = FiniteSupport(atoms)
    p = SystemParams(T=2, L=1, h=1.0, b=9.0, K=0.0, U=20.0)
    amat = np.asarray(atoms)
    n = 4
    reps = 2000

    true_kinks = base_stock_kinks(amat, p)
    star_risks = base_stock_loss_matrix(true_kinks, amat, p).mean(axis=1)
    r_star = float(star_risks.min())

    ee_vals, ge_vals, gex_vals, rad_vals = [], [], [], []
    for rep in range(reps):
        data = draw(model, n, (123, rep))
        D = data.as_matrix()
        cands = np.unique(np.concatenate([true_kinks, base_stock_kinks(D, p)]))
        true_curve = base_stock_loss_matrix(cands, amat, p).mean(axis=1)
        emp_curve = base_stock_loss_matrix(cands, D, p).mean(axis=1)
        ge_vals.append(float((true_curve - emp_curve).max()))

        fit_idx = int(np.argmin(emp_curve))
        ee_vals.append(float(true_curve[fit_idx]) - r_star)

        pmfs = build_marginals(data)
        perm_curve = np.array(
            [exact_base_stock_risk(float(S), pmfs, p) for S in cands]
        )
        gex_vals.append(float((true_curve - perm_curve).max()))

        rad_vals.append(
            rademacher_estimate(data, p, draws=64, seed=(124, rep)).estimate
        )

    def mean_se(vals):
        arr = np.asarray(vals)
        return float(arr.mean()), float(arr.std(ddof=1) / math.sqrt(len(arr)))

    ee_m, ee_se = mean_se(ee_vals)
    ge_m, ge_se = mean_se(ge_vals)
    gex_m, gex_se = mean_se(gex_vals)
    rad_m, rad_se = mean_se(rad_vals)

    ee_le_ge = ee_m <= ge_m + 2 * math.hypot(ee_se, ge_se)
    gex_le_ge = gex_m <= ge_m + 2 * math.hypot(gex_se, ge_se)
    prop1 = ge_m <= 2 * rad_m + 3 * math.hypot(ge_se, 2 * rad_se)
    ok = ee_le_ge and gex_le_ge and prop1
    report(10, ok,
           f"EE {ee_m:.4f} <= GE {ge_m:.4f}; product-GE {gex_m:.4f} <= GE; "
           f"GE <= 2 x Rademacher {2 * rad_m:.4f}")
