import dataclasses
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stocklab import fitters, shatter
from stocklab.core import BaseStock, BudgetError, Dataset, NonStationary, SsPolicy, SystemParams
from stocklab.evaluate import policy_losses
from stocklab.shatter import (
    ShatterFailure,
    ShatterInstance,
    discretization_gap,
    first_primes,
    gen_sS_prime_shatter,
    gen_st_K_shatter,
    gen_st_shatter,
    verify_shattering,
)


class TestSpikeInstance:
    def test_three_period_losses(self):
        inst = gen_st_shatter(3)
        pol = inst.policy_for_subset(frozenset({1}))
        losses = policy_losses(pol, inst.dataset.as_matrix(), inst.params)
        assert losses == pytest.approx([0.0, 1 / 6, 0.0])

    def test_single_sample(self):
        report = verify_shattering(gen_st_shatter(1))
        assert report.ok and report.subsets_checked == 2

    def test_full_enumeration(self):
        inst = gen_st_shatter(8)
        report = verify_shattering(inst)
        assert report.ok
        assert report.subsets_checked == 256

    def test_shifted_witnesses_fail_on_singletons(self):
        inst = gen_st_shatter(4)
        shifted = ShatterInstance(
            dataset=inst.dataset,
            witnesses=tuple(w + 1.0 for w in inst.witnesses),
            gamma=0.0,
            params=inst.params,
            policy_for_subset=inst.policy_for_subset,
            high_side="in",
        )
        report = verify_shattering(shifted)
        assert not report.ok
        failing_subsets = {f.subset for f in report.failures}
        for i in range(4):
            assert (i,) in failing_subsets

    def test_cap(self):
        with pytest.raises(BudgetError):
            verify_shattering(gen_st_shatter(17))
        assert verify_shattering(gen_st_shatter(17), cap=17).ok

    @pytest.mark.parametrize("gamma", [-1.0, float("nan"), float("inf")])
    def test_margin_must_be_finite_and_nonnegative(self, gamma):
        inst = gen_st_shatter(3)
        with pytest.raises(ValueError, match="margin must be a finite number >= 0"):
            dataclasses.replace(inst, gamma=gamma)
        with pytest.raises(ValueError, match="margin must be a finite number >= 0"):
            verify_shattering(inst, gamma=gamma)


class TestFixedCostInstance:
    def test_loss_table(self):
        inst = gen_st_K_shatter(10, 1.0)
        assert inst.meta["m"] == 6
        pol = inst.policy_for_subset(frozenset({2}))
        losses = policy_losses(pol, inst.dataset.as_matrix(), inst.params)
        want = [0.3] * 6
        want[2] = 0.1
        assert losses == pytest.approx(want)

    def test_margin_boundary(self):
        inst = gen_st_K_shatter(10, 1.0)
        assert verify_shattering(inst, gamma=0.9 * 0.1).ok
        assert not verify_shattering(inst, gamma=0.1).ok

    def test_full_enumeration(self):
        report = verify_shattering(gen_st_K_shatter(10, 1.0))
        assert report.ok and report.subsets_checked == 64

    def test_horizon_floor(self):
        with pytest.raises(ValueError, match="T"):
            gen_st_K_shatter(8, 1.0)

    def test_other_fixed_costs(self):
        inst = gen_st_K_shatter(11, 0.25)
        assert verify_shattering(inst).ok


class TestPrimeInstance:
    def test_first_primes(self):
        assert first_primes(5) == [2, 3, 5, 7, 11]

    def test_two_sample_layout(self):
        inst = gen_sS_prime_shatter(2, 0.5)
        assert inst.meta["primes"] == [2, 3]
        assert inst.meta["T"] == 12
        assert inst.meta["run_lengths"] == [3, 2]

    def test_two_sample_verifies_with_margin(self):
        inst = gen_sS_prime_shatter(2, 0.5)
        report = verify_shattering(inst)
        assert report.ok
        # achieved values straddle the witnesses by at least b/16 on each side
        for A in (frozenset(), frozenset({0}), frozenset({1}), frozenset({0, 1})):
            losses = policy_losses(
                inst.policy_for_subset(A), inst.dataset.as_matrix(), inst.params
            )
            for i, (loss, tau) in enumerate(zip(losses, inst.witnesses)):
                if i in A:
                    assert loss <= tau - 0.5 / 16
                else:
                    assert loss > tau + 0.5 / 16

    def test_three_samples(self):
        inst = gen_sS_prime_shatter(3, 0.5)
        assert inst.meta["T"] == 60
        report = verify_shattering(inst)
        assert report.ok and report.subsets_checked == 8

    def test_margin_monotone(self):
        inst = gen_sS_prime_shatter(2, 0.5)
        assert verify_shattering(inst, gamma=inst.gamma / 2).ok


def spike_levels(T, subset):
    """gen_st_shatter's levels for one subset, written per period."""
    return [0.5 if t in subset else 1.0 for t in range(T)]


def fixed_cost_levels(T, subset):
    """gen_st_K_shatter's levels for one subset, written per period."""
    m = T - 4
    delta = 1.0 / m
    levels = [0.0] * T
    levels[0] = 1.0
    for i in subset:  # sample i spikes in period i + 1
        levels[i + 1] = 1.0 - i * delta
    levels[m + 1] = 1.0 - (m - 1.0 / 3.0) * delta
    levels[m + 2] = 1.0 - (m - 2.0 / 3.0) * delta
    levels[m + 3] = 1.0 - (m - 1.0) * delta
    return levels


class TestBlockForm:
    @pytest.mark.parametrize("inst,levels", [
        *[(gen_st_shatter(T), spike_levels) for T in range(1, 7)],
        (gen_st_K_shatter(9, 0.5), fixed_cost_levels),
        (gen_st_K_shatter(10, 1.0), fixed_cost_levels),
    ], ids=lambda v: getattr(v, "label", "") + str(getattr(v, "size", "")))
    def test_block_rows_are_the_subset_policies(self, inst, levels):
        m, T = inst.size, inst.params.horizon
        bits = np.arange(2**m)
        member = (bits[:, None] >> np.arange(m) & 1).astype(bool)
        rows = inst.levels_for_block(member)
        assert rows.shape == (2**m, T)
        for b in bits:
            subset = frozenset(np.flatnonzero(member[b]).tolist())
            policy = inst.policy_for_subset(subset)
            assert rows[b].tobytes() == policy.as_array().tobytes()
            assert rows[b].tobytes() == np.asarray(levels(T, subset)).tobytes()

    @pytest.mark.parametrize("inst", [gen_st_shatter(7), gen_st_K_shatter(11, 0.4)],
                             ids=lambda inst: inst.label)
    def test_verifier_builds_no_policy_per_subset(self, inst):
        calls = []

        def counted(subset):
            calls.append(subset)
            return inst.policy_for_subset(subset)

        blocked = dataclasses.replace(inst, policy_for_subset=counted)
        gammas = (None, 0.0, 2 * inst.gamma + 0.01)
        got = [verify_shattering(blocked, gamma=g, collect=True) for g in gammas]
        # only the bound check of a checked instance asks for a policy
        assert len(calls) == (0 if inst.unchecked else len(gammas))
        by_policy = dataclasses.replace(inst, levels_for_block=None)
        for g, report in zip(gammas, got):
            want = verify_shattering(by_policy, gamma=g, collect=True)
            assert (report.ok, report.subsets_checked, report.failures) == \
                (want.ok, want.subsets_checked, want.failures)
            assert report.achieved.tobytes() == want.achieved.tobytes()
        assert not got[-1].ok


class TestVerifier:
    def test_gamma_monotonicity_on_generated_instances(self):
        for inst in (gen_st_shatter(5), gen_st_K_shatter(9, 0.5), gen_sS_prime_shatter(2, 0.3)):
            assert verify_shattering(inst).ok
            assert verify_shattering(inst, gamma=inst.gamma / 2).ok

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_matches_one_policy_losses_call_per_subset(self, data):
        m = data.draw(st.integers(1, 5))
        T = data.draw(st.integers(1, 3))
        L = data.draw(st.integers(0, 1))
        p = SystemParams(T=T, L=L, h=data.draw(st.sampled_from([0.0, 0.5, 1.0])),
                         b=data.draw(st.sampled_from([0.0, 1.0, 3.0])),
                         K=data.draw(st.sampled_from([0.0, 0.7])), U=3.0,
                         x1=data.draw(st.sampled_from([-2.0, -1.0, -0.5, -1e-13, 0.0, 1.0])))
        cell = st.one_of(st.integers(0, 3).map(float), st.floats(0.001, 3.0))
        rows = data.draw(st.lists(st.lists(cell, min_size=T + L, max_size=T + L),
                                  min_size=m, max_size=m))
        # each sample in a subset moves the policy by its own step
        base = np.array(data.draw(st.lists(st.floats(0.0, 3.0), min_size=T + L, max_size=T + L)))
        steps = np.array(data.draw(st.lists(st.sampled_from([0.0, 0.5, 1.0, 1.5]),
                                            min_size=m, max_size=m)))
        kind = data.draw(st.sampled_from(["st", "ss", "base-stock", "mixed"]))

        def policy_for(subset):
            shift = float(steps[sorted(subset)].sum())
            pick = kind if kind != "mixed" else ("st", "ss", "base-stock")[len(subset) % 3]
            if pick == "st":
                return NonStationary(tuple(base + shift))
            if pick == "ss":
                return SsPolicy(float(base[0]) - 1.0, float(base[0]) + shift)
            return BaseStock(float(base[-1]) + shift)

        inst = ShatterInstance(
            dataset=Dataset.from_matrix(rows),
            witnesses=tuple(data.draw(st.lists(st.floats(0.0, 4.0), min_size=m, max_size=m))),
            gamma=data.draw(st.sampled_from([0.0, 0.05, 0.5])),
            params=p,
            policy_for_subset=policy_for,
            high_side=data.draw(st.sampled_from(["in", "out"])),
            unchecked=True,
        )
        want = subset_loop_report(inst)
        got = [verify_shattering(inst, collect=True)]
        with mock.patch.object(shatter, "_SHATTER_CELLS", 1):  # one subset per block
            got.append(verify_shattering(inst, collect=True))
        for report in got:
            assert report.subsets_checked == 2**m
            assert (report.ok, report.failures) == want[:2]
            assert report.achieved.tobytes() == want[2].tobytes()


def subset_loop_report(inst):
    """(ok, failures, achieved) of ``verify_shattering(inst, collect=True)``
    by one ``policy_losses`` call per subset."""
    m = inst.size
    D = inst.dataset.as_matrix()
    witnesses = np.asarray(inst.witnesses)
    failures = []
    achieved = np.empty((2**m, m))
    for bits in range(2**m):
        subset = frozenset(i for i in range(m) if bits >> i & 1)
        values = policy_losses(inst.policy_for_subset(subset), D, inst.params)
        achieved[bits] = values
        member = np.array([i in subset for i in range(m)])
        high = member if inst.high_side == "in" else ~member
        bad_high = high & ~(values > witnesses + inst.gamma)
        bad_low = ~high & ~(values <= witnesses - inst.gamma)
        for bad, side in ((bad_high, "high"), (bad_low, "low")):
            failures.extend(
                ShatterFailure(tuple(sorted(subset)), int(i), float(values[i]),
                               float(witnesses[i]), side)
                for i in np.flatnonzero(bad)
            )
    return not failures, tuple(failures), achieved


class TestDiscretizationGap:
    def test_continuous_risk_formula(self):
        for M in (1, 2, 4, 8, 16):
            rep = discretization_gap(M, 200)
            assert rep.continuous_risk == pytest.approx(1 / (8 * M), abs=1e-9)

    def test_gap_omega_one_for_M_at_least_two(self):
        for M in (2, 4, 8, 16):
            rep = discretization_gap(M, 200)
            assert rep.gap >= 0.04

    def test_unit_grid_contains_the_tuned_policy(self):
        # at M = 1 the every-period policy (1, 1) reaches the continuous risk,
        # so the gap closes; the separation is genuine only for finer grids
        rep = discretization_gap(1, 200)
        assert rep.gap == pytest.approx(0.0, abs=1e-12)
        assert rep.grid_best_policy.S == 1.0

    def test_pairs_counted_against_the_grid_budget(self, monkeypatch):
        # the 1/M grid on [-2, 4] has (4M + 1)^2 pairs: 81 at M = 2
        want = discretization_gap(2, 8)
        monkeypatch.setattr(fitters, "GRID_BUDGET", 81)
        assert discretization_gap(2, 8) == want
        monkeypatch.setattr(fitters, "GRID_BUDGET", 80)
        with pytest.raises(BudgetError, match="81 points"):
            discretization_gap(2, 8)

    def test_validation(self):
        with pytest.raises(ValueError):
            discretization_gap(0)
        with pytest.raises(ValueError):
            discretization_gap(1, T=201)
