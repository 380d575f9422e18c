"""The benchmark's workloads: seeded inputs, timed operations and their checks.

Each workload keeps the kind, sweep and system parameters of
``tests/test_acceptance.py``; instance and replication counts are sized here
so that one round of a workload takes a few seconds.  The benchmark's
``--seed`` is added to the acceptance seeds, so ``--seed 0`` runs those seeds.

An operation is one top-level call: one experiment config run (including
``emit_results``, as ``stocklab experiment --out`` does) or one lab call.
Every check compares against a computation made apart from the code under
test (``simulate``, ``enumerate_product_risk``, a second algorithm) or
against a property the method must have; none compares against stored
output.  Checks that depend only on the inputs are computed once per
process and reused for every round.
"""

from __future__ import annotations

import functools
import math
import os
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

import stocklab
from stocklab.core import BaseStock, SsPolicy, SystemParams, simulate
from stocklab.demand import InstanceHyper, draw, marginal_pmfs, sample_instance
from stocklab.evaluate import (
    enumerate_product_risk,
    exact_base_stock_risk,
    exact_ss_risk,
    exact_st_risk,
)
from stocklab.experiments import ExperimentConfig
from stocklab.fitters import StOptions, erm_sS, erm_St, grid_oracle
from stocklab.perm import build_marginals, perm_fit, perm_risk, solve_dp
from stocklab.shatter import gen_st_shatter

TOL = 1e-9

# reps of each ge_estimate call, and how many of them are checked with simulate
GE_REPS = 150
GE_CHECKED_REPS = 2
RADEMACHER_DRAWS = 500
GAP_GRIDS = (1, 2, 4, 8, 16)


@dataclass(frozen=True)
class Operation:
    """One timed top-level call and the check of its output."""

    name: str
    run: Callable[[], object]
    check: Callable[[object], list[str]]
    config: dict | None = None  # the experiment config, as `stocklab experiment` reads it


# ---------------------------------------------------------------------------
# experiment workloads
# ---------------------------------------------------------------------------

T2_SYSTEM = {"T": 2, "L": 0, "h": 1.0, "b": 9.0, "K": 0.0, "U": 20.0}


def horizon_configs(seed: int) -> dict[str, dict]:
    return {"ee-vs-T": {
        "kind": "ee-vs-T", "sweep": [20, 60, 100],
        "system": {"T": 20, "L": 0, "h": 1.0, "b": 9.0, "K": 0.0, "U": 20.0},
        "instance_count": 1, "dataset_reps": 2, "n_train": 20, "seed": 707 + seed,
    }}


def fixed_cost_configs(seed: int) -> dict[str, dict]:
    return {"oos-vs-N-sS": {
        "kind": "oos-vs-N-sS", "sweep": [2, 20],
        "system": {"T": 20, "L": 0, "h": 1.0, "b": 9.0, "K": 18.0, "U": 20.0,
                   "H": 45.0, "Hlo": -25.0, "x1": -25.0},
        "hyper": {"sigma0": 5.0}, "classes": ["eoq", "ss"],
        "instance_count": 1, "dataset_reps": 2, "seed": 808 + seed,
    }}


def product_configs(seed: int) -> dict[str, dict]:
    corr = {"kind": "erm-vs-perm-corr", "system": T2_SYSTEM, "instance_count": 10,
            "seed": 910 + seed}
    return {
        "erm-vs-perm-ind": {
            "kind": "erm-vs-perm-ind", "sweep": [4, 32], "system": T2_SYSTEM,
            "instance_count": 5, "dataset_reps": 10, "seed": 909 + seed,
        },
        "erm-vs-perm-corr-neg": {**corr, "sweep": [-1.0], "hyper": {"support_size": 5}},
        "erm-vs-perm-corr-control": {
            **corr, "sweep": [0.0],
            "hyper": {"support_size": 5, "support_form": "product"},
        },
    }


def _record_shape(cfg: ExperimentConfig, records, expected: int) -> list[str]:
    errors = []
    if len(records) != expected:
        errors.append(f"{len(records)} records, expected {expected}")
    for r in records:
        if r.metric == "crossing-N":
            continue
        if len(r.instance_values) != cfg.instance_count:
            errors.append(f"{r.metric} {r.policy_class} at {r.sweep_value}: "
                          f"{len(r.instance_values)} instance values")
        if not all(math.isfinite(v) for v in r.instance_values):
            errors.append(f"{r.metric} {r.policy_class} at {r.sweep_value}: non-finite value")
    return errors


@functools.cache
def _dp_forward_errors(cfg: ExperimentConfig) -> list[str]:
    """Backward DP optimum equals the forward lattice risk of its own levels."""
    errors = []
    for sweep_idx, T in enumerate(cfg.sweep):
        p = replace(cfg.system, T=int(T))
        model = sample_instance(cfg.kind, (cfg.seed, 11, sweep_idx, 0), p, cfg.hyper)
        pmfs = marginal_pmfs(model)
        sol = solve_dp(pmfs, p)
        forward = exact_st_risk(list(sol.order_up_to) + [0] * p.L, pmfs, p)
        if forward is None or abs(sol.risk - forward) > TOL:
            errors.append(f"T={T}: solve_dp risk {sol.risk!r} != exact_st_risk {forward!r}")
    return errors


@functools.cache
def _mc_scored_st(cfg: ExperimentConfig) -> frozenset[tuple[float, int]]:
    """(T, instance) pairs where an ``erm_St`` fit has a fractional level.

    ``exact_st_risk`` cannot score such a fit, so the experiment scores it on
    a Monte-Carlo sample, and that estimate can land below the DP optimum and
    the best in class.  The fits are redone here as the experiment does them.
    """
    found = set()
    for sweep_idx, T in enumerate(cfg.sweep):
        p = replace(cfg.system, T=int(T))
        for inst in range(cfg.instance_count):
            model = sample_instance(cfg.kind, (cfg.seed, 11, sweep_idx, inst), p, cfg.hyper)
            pmfs = marginal_pmfs(model)
            for rep in range(cfg.dataset_reps):
                data = draw(model, cfg.n_train, (cfg.seed, 19, sweep_idx, inst, rep))
                fit = erm_St(data, p, StOptions(restarts=cfg.st_restarts, seed=cfg.seed))
                if exact_st_risk(fit.policy.levels, pmfs, p) is None:
                    found.add((T, inst))
    return frozenset(found)


def check_horizon(cfg: ExperimentConfig, records) -> list[str]:
    errors = _record_shape(cfg, records, 2 * len(cfg.sweep) * len(cfg.classes))
    for r in records:
        exempt = _mc_scored_st(cfg) if r.policy_class == "st" else frozenset()
        # an empty record is caught by _record_shape; a wholly exempt one has nothing to check
        low = min((v for i, v in enumerate(r.instance_values)
                   if (r.sweep_value, i) not in exempt), default=math.inf)
        if r.metric == "oos-ratio" and not low >= 1 - TOL:
            errors.append(f"{r.policy_class} T={r.sweep_value}: oos-ratio {low!r} < 1, "
                          "below the DP optimum")
        if r.metric == "ee-ratio" and not low >= -TOL:
            errors.append(f"{r.policy_class} T={r.sweep_value}: ee-ratio {low!r} < 0, "
                          "below the best in class")
    return errors + _dp_forward_errors(cfg)


def _mean_simulated_loss(policy, rows: np.ndarray, p: SystemParams) -> float:
    return float(np.mean([simulate(policy, row, p, unchecked=True).avg_loss for row in rows]))


@functools.cache
def _fixed_cost_reference_errors(cfg: ExperimentConfig) -> list[str]:
    errors = []
    p = cfg.system
    model = sample_instance(cfg.kind, (cfg.seed, 29, 0), p, cfg.hyper)
    for n_idx, n in enumerate(cfg.sweep):
        data = draw(model, int(n), (cfg.seed, 41, 0, n_idx, 0))
        exact = erm_sS(data, p, mode="exact")
        grid = erm_sS(data, p, mode="integer-grid")
        if exact.in_sample_risk > grid.in_sample_risk + TOL:
            errors.append(f"N={n}: exact erm_sS risk {exact.in_sample_risk!r} above "
                          f"integer-grid risk {grid.in_sample_risk!r}")
        for fit in (exact, grid):
            simulated = _mean_simulated_loss(fit.policy, data.as_matrix(), p)
            if abs(fit.in_sample_risk - simulated) > TOL:
                errors.append(f"N={n}: {fit.method} in-sample risk {fit.in_sample_risk!r} "
                              f"!= mean simulate loss {simulated!r}")
    short = replace(p, T=3)
    pmfs = marginal_pmfs(model)[: short.horizon]
    for policy in (SsPolicy(-25.0, 0.0), SsPolicy(5.0, 30.0), SsPolicy(12.5, 27.5)):
        lattice = exact_ss_risk(policy, pmfs, short)
        brute = enumerate_product_risk(policy, pmfs, short)
        if abs(lattice - brute) > TOL:
            errors.append(f"{policy}: exact_ss_risk {lattice!r} != "
                          f"enumerate_product_risk {brute!r}")
    return errors


def check_fixed_cost(cfg: ExperimentConfig, records) -> list[str]:
    errors = _record_shape(cfg, records, len(cfg.sweep) * len(cfg.classes) + 1)
    for r in records:
        low = min(r.instance_values, default=math.nan)
        if r.policy_class == "ss" and r.metric == "oos-ratio" and not low >= 1 - TOL:
            errors.append(f"ss N={r.sweep_value}: oos-ratio {low!r} < 1, "
                          "below the best in class")
    return errors + _fixed_cost_reference_errors(cfg)


@functools.cache
def _product_reference_errors(cfg: ExperimentConfig) -> list[str]:
    """The product-fit DP minimizes the product risk, so it beats the trajectory fit."""
    errors = []
    p = cfg.system
    model = sample_instance(cfg.kind, (cfg.seed, 47, 0), p, cfg.hyper)
    for n_idx, n in enumerate(cfg.sweep):
        data = draw(model, int(n), (cfg.seed, 59, 0, n_idx, 0))
        trajectory = grid_oracle(data, "st", 1.0, p)
        marginals = build_marginals(data)
        product = perm_fit(marginals, p, "st")
        risk = perm_risk(trajectory.policy, marginals, p)
        if risk < product.in_sample_risk - TOL:
            errors.append(f"N={n}: trajectory fit has product risk {risk!r} below "
                          f"the product-fit DP value {product.in_sample_risk!r}")
    return errors


def check_product(cfg: ExperimentConfig, records) -> list[str]:
    errors = _record_shape(cfg, records, len(cfg.sweep))
    for r in records:
        if not all(v > 0 for v in r.instance_values):
            errors.append(f"rho/N={r.sweep_value}: non-positive ratio")
    if cfg.kind == "erm-vs-perm-ind":
        errors += _product_reference_errors(cfg)
    elif cfg.hyper.support_form == "product":
        for r in records:
            worst = max([abs(r.value - 1)] + [abs(v - 1) for v in r.instance_values])
            if worst > TOL:
                errors.append(f"product-form control ratio is off 1 by {worst!r}")
    return errors


def experiment_operations(configs: dict[str, dict], check, out_dir: str) -> list[Operation]:
    ops = []
    for name, raw in configs.items():
        cfg = ExperimentConfig.from_dict(raw)
        target = os.path.join(out_dir, name)

        def run(cfg=cfg, target=target):
            records = stocklab.run_experiment(cfg)
            stocklab.emit_results(records, target, cfg)
            return records

        ops.append(Operation(name, run, functools.partial(check, cfg), config=raw))
    return ops


# ---------------------------------------------------------------------------
# complexity lab
# ---------------------------------------------------------------------------


@functools.cache
def _ge_rep_bounds(model, n_train: int, p: SystemParams, seed: int) -> tuple[float, ...]:
    """Per rep, max over integer levels of true risk minus simulated empirical risk.

    ``ge_estimate`` draws rep ``r``'s training set with key ``(seed, r, 0)``;
    its supremum runs over every level, so it can be no smaller.
    """
    pmfs = marginal_pmfs(model)
    levels = np.arange(0.0, p.level_cap() + 1.0)
    true = [exact_base_stock_risk(S, pmfs, p) for S in levels]
    bounds = []
    for rep in range(GE_CHECKED_REPS):
        rows = draw(model, n_train, (seed, rep, 0)).as_matrix()
        bounds.append(max(t - _mean_simulated_loss(BaseStock(S), rows, p)
                          for S, t in zip(levels, true)))
    return tuple(bounds)


def check_ge(model, n_train: int, p: SystemParams, seed: int, report) -> list[str]:
    if len(report.values) != GE_REPS or not report.exact_sup:
        return [f"n={n_train}: {len(report.values)} reps, exact_sup={report.exact_sup}"]
    return [
        f"n={n_train} rep {rep}: GE {value!r} below the simulated integer-level bound {bound!r}"
        for rep, (value, bound) in enumerate(zip(report.values, _ge_rep_bounds(model, n_train, p, seed)))
        if value < bound - TOL
    ]


def largest_loss(rows: np.ndarray, p: SystemParams) -> float:
    """Largest base-stock loss on any row; each loss is convex in S, so it
    sits at level 0 or at the cap."""
    return max(simulate(BaseStock(S), row, p).avg_loss
               for row in rows for S in (0.0, p.level_cap()))


def check_rademacher(bound: Callable[[], float], draws: int, report) -> list[str]:
    if report.draws != draws or not report.exact_sup or not math.isfinite(report.estimate):
        return [f"rademacher report {report!r} malformed"]
    if abs(report.estimate) > bound() + TOL:
        return [f"rademacher estimate {report.estimate!r} exceeds the largest loss {bound()!r}"]
    return []


def check_shatter(report) -> list[str]:
    if report.ok and report.subsets_checked == 4096:
        return []
    return [f"verify_shattering: ok={report.ok}, {report.subsets_checked} subsets "
            f"(expected ok with 4096), {len(report.failures)} failures"]


def check_gap(M: int, report) -> list[str]:
    if abs(report.continuous_risk - 1 / (8 * M)) <= TOL:
        return []
    return [f"M={M}: continuous risk {report.continuous_risk!r} != 1/(8M)"]


def _lab_call(name: str, *args, **kwargs) -> Callable[[], object]:
    """Call stocklab.<name> looked up at call time, so a traced run sees the wrapper."""
    return lambda: getattr(stocklab, name)(*args, **kwargs)


def complexity_operations(seed: int) -> list[Operation]:
    p10 = SystemParams(T=10, L=0, h=1.0, b=9.0, K=0.0, U=20.0)
    p40 = replace(p10, T=40)
    model10 = sample_instance("ee-vs-T", (2042 + seed, 0), p10, InstanceHyper())
    model40 = sample_instance("ee-vs-T", (2042 + seed, 0), p40, InstanceHyper())
    ge_runs = [(p10, model10, n, 606 + seed) for n in (10, 40, 160)]
    ge_runs.append((p40, model40, 40, 607 + seed))
    ops = [
        Operation(f"ge_estimate-T{p.T}-n{n}",
                  _lab_call("ge_estimate", model, n, p, reps=GE_REPS, seed=ge_seed),
                  functools.partial(check_ge, model, n, p, ge_seed))
        for p, model, n, ge_seed in ge_runs
    ]
    # the Rademacher sample is the n=160 training set of the first T=10 rep
    data = draw(model10, 160, (606 + seed, 0, 0))
    bound = functools.cache(lambda: largest_loss(data.as_matrix(), p10))
    ops.append(Operation(
        "rademacher_estimate",
        _lab_call("rademacher_estimate", data, p10, draws=RADEMACHER_DRAWS, seed=(606 + seed, 1)),
        functools.partial(check_rademacher, bound, RADEMACHER_DRAWS),
    ))
    ops.append(Operation("verify_shattering",
                         _lab_call("verify_shattering", gen_st_shatter(12)), check_shatter))
    for M in GAP_GRIDS:
        ops.append(Operation(f"discretization_gap-M{M}", _lab_call("discretization_gap", M),
                             functools.partial(check_gap, M)))
    return ops


# name -> operations from (seed, output directory)
WORKLOADS: dict[str, Callable[[int, str], list[Operation]]] = {
    "horizon-sweep":
        lambda seed, out: experiment_operations(horizon_configs(seed), check_horizon, out),
    "fixed-cost-crossing":
        lambda seed, out: experiment_operations(fixed_cost_configs(seed), check_fixed_cost, out),
    "product-fit":
        lambda seed, out: experiment_operations(product_configs(seed), check_product, out),
    "complexity-lab": lambda seed, out: complexity_operations(seed),
}
