import itertools
import os
import subprocess
import sys
import typing

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.stats import norm

import stocklab
from stocklab.core import SystemParams
from stocklab.demand import (
    DemandModel,
    FiniteSupport,
    IndependentNormals,
    InstanceHyper,
    draw,
    fixed_cost_for_cycle,
    make_rng,
    marginal_pmfs,
    sample_instance,
    support_atoms,
    truncated_normal_pmf,
)
from stocklab.evaluate import ModelRisk


def iid(mu, sigma, n, cap=20.0, integerize=True):
    """One normal repeated in every period."""
    return IndependentNormals((mu,) * n, (sigma,) * n, cap, integerize)


def joint_support(rho, support_size, seed, n=2, sigma=5.0, integerize=True):
    """The erm-vs-perm-corr support of n periods with every mean 10 and deviation sigma."""
    hyper = InstanceHyper(nonst=0.0, sigma0=sigma, rho=rho, support_size=support_size,
                          integerize=integerize)
    return sample_instance("erm-vs-perm-corr", seed, SystemParams(T=n), hyper)


def test_deterministic_draw():
    data = draw(FiniteSupport(((4.0, 3.0, 1.0),)), 3, seed=0)
    assert len(data) == 3
    np.testing.assert_array_equal(data.as_matrix(), [[4.0, 3.0, 1.0]] * 3)


def test_integerized_draws_stay_in_range():
    model = IndependentNormals((5.0,) * 4, (30.0,) * 4, cap=20.0)
    data = draw(model, 1000, seed=1).as_matrix()
    assert data.min() >= 0
    assert data.max() <= 20
    assert np.all(data == np.rint(data))


def test_zero_variance_is_constant():
    data = draw(iid(10.0, 0.0, 3), 5, seed=2).as_matrix()
    assert np.all(data == 10.0)


def test_same_seed_bit_identical():
    model = iid(10.0, 5.0, 6)
    a = draw(model, 50, seed=123)
    b = draw(model, 50, seed=123)
    c = draw(model, 50, seed=124)
    assert a == b
    assert a != c


def test_truncated_rounded_mean_against_quadrature():
    # oracle: numeric integration of the normal density over rounding bins
    mu, sigma, cap = 10.0, 5.0, 20
    pmf = truncated_normal_pmf(mu, sigma, cap)
    mean_pmf = float(np.dot(np.arange(cap + 1), pmf))

    expected = 0.0
    for k in range(cap + 1):
        lo = -np.inf if k == 0 else k - 0.5
        hi = np.inf if k == cap else k + 0.5
        mass, _ = quad(lambda x: norm.pdf(x, mu, sigma), max(lo, mu - 12 * sigma), min(hi, mu + 12 * sigma))
        expected += k * mass
    assert mean_pmf == pytest.approx(expected, abs=1e-8)

    sample = draw(iid(mu, sigma, 1, cap=cap), 100_000, seed=9).as_matrix()
    assert abs(sample.mean() - expected) < 0.1


@settings(max_examples=200, deadline=None)
@given(mu=st.floats(-5.0, 25.0), sigma=st.floats(1e-3, 15.0), cap=st.integers(1, 40))
def test_pmf_matches_scipy_stats_formulation(mu, sigma, cap):
    # the cdf formerly came from scipy.stats; the pmfs must not move by a bit
    edges = np.arange(cap + 2) - 0.5
    cdf = norm.cdf(edges, loc=mu, scale=sigma)
    want = np.diff(cdf)
    want[0] = cdf[1]
    want[-1] = 1.0 - cdf[-2]
    got = truncated_normal_pmf(mu, sigma, cap)
    assert [v.hex() for v in got.tolist()] == [v.hex() for v in want.tolist()]


def test_import_leaves_scipy_stats_unloaded():
    # the child imports the same stocklab as this process
    root = os.path.dirname(os.path.dirname(stocklab.__file__))
    code = "import sys, stocklab; print('scipy.stats' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, cwd=root, env={**os.environ, "PYTHONPATH": root})
    assert out.stdout.strip() == "False"


def test_pmf_sums_to_one():
    for mu, sigma in [(10, 5), (0.5, 2.5), (19.5, 7.5), (10, 0)]:
        pmf = truncated_normal_pmf(mu, sigma, 20)
        assert pmf.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.all(pmf >= 0)


def test_marginal_pmfs_match_empirical():
    model = IndependentNormals((5.0, 12.0), (2.5, 7.5), cap=20.0)
    pmfs = marginal_pmfs(model)
    data = draw(model, 200_000, seed=4).as_matrix()
    for t, pmf in enumerate(pmfs):
        emp = np.bincount(data[:, t].astype(int), minlength=21) / len(data)
        assert np.max(np.abs(emp - pmf)) < 0.01


def test_correlated_support_autocorrelation_near_zero_at_rho_zero():
    model = joint_support(0.0, 20_000, seed=7)
    data = draw(model, 100_000, seed=8).as_matrix()
    corr = np.corrcoef(data[:, 0], data[:, 1])[0, 1]
    assert abs(corr) < 0.05


def test_correlated_support_degenerate_rho():
    for rho in (-1.0, 1.0):
        atoms = support_atoms(joint_support(rho, 500, seed=3, sigma=3.0, integerize=False))
        corr = np.corrcoef(atoms[:, 0], atoms[:, 1])[0, 1]
        assert corr == pytest.approx(rho, abs=0.05)


def test_support_is_deterministic_per_seed():
    a = joint_support(-0.5, 5, seed=11, n=3)
    b = joint_support(-0.5, 5, seed=11, n=3)
    assert np.array_equal(support_atoms(a), support_atoms(b))
    assert not np.array_equal(support_atoms(a), support_atoms(joint_support(-0.5, 5, seed=12, n=3)))


def test_finite_support_draw():
    model = FiniteSupport(((1.0, 2.0), (3.0, 4.0)))
    data = draw(model, 500, seed=5).as_matrix()
    assert set(map(tuple, data)) <= {(1.0, 2.0), (3.0, 4.0)}


def test_finite_support_keeps_one_read_only_array():
    model = FiniteSupport(((1.0, 2.0), (3.0, 4.0)))
    assert model.atoms.dtype == np.float64
    assert not model.atoms.flags.writeable
    assert model.as_matrix() is model.atoms
    assert support_atoms(model) is model.atoms
    assert model == FiniteSupport(np.array([[1.0, 2.0], [3.0, 4.0]]))
    assert model != FiniteSupport(((1.0, 2.0),))
    # a draw picks atoms by the generator's integers
    idx = make_rng(5).integers(0, 2, size=7)
    assert np.array_equal(draw(model, 7, seed=5).as_matrix(), model.atoms[idx])


def test_product_support_lists_combinations_in_product_order():
    hyper = InstanceHyper(support_form="product", support_size=3, integerize=False)
    atoms = sample_instance("erm-vs-perm-corr", 5, SystemParams(T=3, U=20.0), hyper).atoms
    cols = [atoms[::9, 0], atoms[:9:3, 1], atoms[:3, 2]]
    assert np.array_equal(atoms, np.array(list(itertools.product(*cols))))


@pytest.mark.parametrize("atom,message", [
    ((1.0, -1.0), "nonnegative"),
    ((1e-13, 0.0), "ORDER_EPS"),
    ((float("nan"), 1.0), "finite"),
])
def test_explicit_models_check_their_demands(atom, message):
    with pytest.raises(ValueError, match=message):
        FiniteSupport((atom,))  # a point mass
    with pytest.raises(ValueError, match=message):
        FiniteSupport(((1.0, 2.0), atom))
    with pytest.raises(ValueError, match="array of numbers"):
        FiniteSupport(((1.0, 2.0), (3.0,)))


class TestSampleInstance:
    def test_horizon_sweep_ranges(self):
        p = SystemParams(T=10, L=0, U=20.0)
        hyper = InstanceHyper()
        for seed in range(20):
            model = sample_instance("ee-vs-T", seed, p, hyper)
            assert all(5.0 <= m <= 15.0 for m in model.means)
            assert all(2.5 <= s <= 7.5 for s in model.stds)
            assert model.n_periods == 10

    def test_fixed_cost_formula(self):
        p = SystemParams(T=20, h=1.0, b=9.0)
        assert fixed_cost_for_cycle(2.0, p) == pytest.approx(18.0)
        assert fixed_cost_for_cycle(np.sqrt(2.0), p) == pytest.approx(9.0)

    def test_degenerate_nonstationarity(self):
        p = SystemParams(T=4, U=20.0)
        model = sample_instance("oos-vs-N-St", 0, p, InstanceHyper(nonst=0.0))
        assert all(m == 10.0 for m in model.means)
        assert all(s == 5.0 for s in model.stds)

    def test_iid_kind_ranges(self):
        p = SystemParams(T=20, U=20.0)
        for seed in range(20):
            model = sample_instance("oos-vs-N-sS", seed, p, InstanceHyper())
            assert model.means == (model.means[0],) * 20
            assert model.stds == (model.stds[0],) * 20
            assert 8.0 <= model.means[0] <= 12.0
            assert 4.0 <= model.stds[0] <= 6.0

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="kind"):
            sample_instance("nope", 0, SystemParams(T=1), InstanceHyper())

    def test_deterministic_in_seed(self):
        p = SystemParams(T=5, U=20.0)
        a = sample_instance("erm-vs-perm-corr", 3, p, InstanceHyper(rho=-0.8))
        b = sample_instance("erm-vs-perm-corr", 3, p, InstanceHyper(rho=-0.8))
        assert a == b


@pytest.mark.parametrize("kind,hyper", [
    ("ee-vs-T", InstanceHyper()),
    ("oos-vs-N-St", InstanceHyper()),
    ("oos-vs-N-sS", InstanceHyper()),
    ("erm-vs-perm-ind", InstanceHyper()),
    ("erm-vs-perm-corr", InstanceHyper(rho=-0.8)),
    ("erm-vs-perm-corr", InstanceHyper(support_form="product", support_size=2)),
])
def test_every_kind_samples_one_of_the_two_laws(kind, hyper):
    model = sample_instance(kind, 5, SystemParams(T=3, U=20.0), hyper)
    assert isinstance(model, (IndependentNormals, FiniteSupport))
    assert model.n_periods == 3


@pytest.mark.parametrize("law", typing.get_args(DemandModel))
def test_every_law_goes_through_every_entry_point(law):
    p = SystemParams(T=2, U=20.0)
    model = {
        IndependentNormals: iid(10.0, 5.0, 2),
        FiniteSupport: FiniteSupport(((3.0, 7.0), (1.0, 2.0))),
    }[law]
    D = draw(model, 50, seed=1).as_matrix()
    assert D.shape == (50, 2)
    pmfs, atoms = marginal_pmfs(model), support_atoms(model)
    if law is FiniteSupport:
        assert pmfs is None
        assert set(map(tuple, D)) <= set(map(tuple, atoms))
        assert ModelRisk(model, p).mode == "finite-support"
    else:
        assert atoms is None
        assert [len(f) for f in pmfs] == [21, 21]
        assert ModelRisk(model, p).mode == "exact"
