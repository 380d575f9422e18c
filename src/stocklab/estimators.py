"""Monte-Carlo estimators of Rademacher complexity and generalization error.

For the stationary base-stock class both the sign-weighted supremum and the
true-minus-empirical-risk supremum are piecewise linear in the level, so the
suprema are exact once evaluated on the union of all kink points.  Other
classes fall back to a parameter grid and are flagged approximate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import BudgetError, Dataset, SystemParams, demand_matrix
from .demand import DemandModel, draw, make_rng, marginal_pmfs, support_atoms
from .evaluate import (
    base_stock_kinks,
    base_stock_loss_matrix,
    exact_base_stock_levels,
    exact_base_stock_risk,
    grid_axis,
    ss_losses_grid,
    ss_pairs,
    st_level_grid,
    st_losses_grid,
)
from .fitters import fit_cap, fit_ss_bounds


@dataclass(frozen=True)
class RademacherReport:
    estimate: float
    stderr: float
    draws: int
    exact_sup: bool


def rademacher_estimate(
    data: Dataset | None = None,
    p: SystemParams | None = None,
    loss_matrix: np.ndarray | None = None,
    draws: int = 200,
    seed: int | tuple[int, ...] = 0,
) -> RademacherReport:
    """Monte-Carlo mean over sign vectors of sup_policy (1/N) sum_i sign_i loss_i.

    Either pass a precomputed ``loss_matrix`` (policies x samples), or a
    dataset and system, for which the supremum over the base-stock class is
    exact via kink enumeration.
    """
    if draws < 1:
        raise ValueError("draws must be >= 1")
    exact = True
    if loss_matrix is None:
        if data is None or p is None:
            raise ValueError("need either loss_matrix or (data, p)")
        D = demand_matrix(data, p)
        loss_matrix = base_stock_loss_matrix(base_stock_kinks(D, p), D, p)
    else:
        loss_matrix = np.asarray(loss_matrix, dtype=float)
        exact = False
    n = loss_matrix.shape[1]
    key = seed if isinstance(seed, tuple) else (seed,)
    rng = make_rng(*key)
    signs = rng.choice([-1.0, 1.0], size=(draws, n))
    sups = (signs @ loss_matrix.T / n).max(axis=1)
    return RademacherReport(
        estimate=float(sups.mean()),
        stderr=float(sups.std(ddof=1) / math.sqrt(draws)) if draws > 1 else 0.0,
        draws=draws,
        exact_sup=exact,
    )


# ---------------------------------------------------------------------------
# generalization error
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GeReport:
    mean_ge: float
    stderr: float
    reps: int
    values: tuple[float, ...]
    exact_sup: bool


def ge_estimate(
    model: DemandModel,
    n_train: int,
    p: SystemParams,
    policy_class: str = "base-stock",
    reps: int = 100,
    eval_samples: int = 2000,
    seed: int = 0,
    grid_step: float = 1.0,
    grid_budget: int = 200_000,
) -> GeReport:
    """Mean over dataset replications of sup_policy (true risk - empirical risk).

    For the base-stock class the supremum is exact: both risks are piecewise
    linear in the level and every kink of either is a candidate.  For the
    reorder-point and per-period-level classes the supremum is taken over a
    parameter grid and the report is flagged approximate.
    """
    if reps < 1:
        raise ValueError("reps must be >= 1")
    exact = policy_class == "base-stock"
    if policy_class == "ss":
        lo, hi, _ = fit_ss_bounds(p)
        axis = grid_axis(lo, hi, grid_step)
        # the pairs s <= S with S >= 0: the j-th point of the sorted axis pairs
        # with the j + 1 points up to it
        if int((np.flatnonzero(axis >= 0.0) + 1).sum()) > grid_budget:
            raise BudgetError("(s, S) grid exceeds budget")
        s_vals, S_vals = ss_pairs(axis)
    elif policy_class == "st":
        axis = grid_axis(0.0, fit_cap(p.level_cap()), grid_step)
        if len(axis) ** p.horizon > grid_budget:
            raise BudgetError("per-period grid exceeds budget")
    elif not exact:
        raise ValueError(f"unknown policy class {policy_class!r}")
    values = []
    atoms = support_atoms(model)
    pmfs = marginal_pmfs(model) if atoms is None and exact else None
    for rep in range(reps):
        D = draw(model, n_train, (seed, rep, 0)).as_matrix()
        D_eval = atoms
        if D_eval is None and pmfs is None:
            D_eval = draw(model, eval_samples, (seed, rep, 1)).as_matrix()
        if exact:
            # every kink of the true and the empirical risk curve is a candidate
            if pmfs is not None:
                cands = np.union1d(base_stock_kinks(D, p), exact_base_stock_levels(pmfs, p))
                true_risks = exact_base_stock_risk(cands, pmfs, p)
            else:
                cands = np.union1d(base_stock_kinks(D, p), base_stock_kinks(D_eval, p))
                true_risks = base_stock_loss_matrix(cands, D_eval, p).mean(axis=1)
            emp = base_stock_loss_matrix(cands, D, p).mean(axis=1)
            values.append(float((true_risks - emp).max()))
        elif policy_class == "ss":
            emp = ss_losses_grid(s_vals, S_vals, D, p).mean(axis=1)
            true_risks = ss_losses_grid(s_vals, S_vals, D_eval, p).mean(axis=1)
            values.append(float((true_risks - emp).max()))
        else:
            # the last L levels never reach the loss, so the first T span every gap
            best = -math.inf
            for levels in st_level_grid(axis, p, max(len(D), len(D_eval))):
                gaps = (
                    st_losses_grid(levels, D_eval, p).mean(axis=1)
                    - st_losses_grid(levels, D, p).mean(axis=1)
                )
                best = max(best, float(gaps.max()))
            values.append(best)
    arr = np.asarray(values)
    return GeReport(
        mean_ge=float(arr.mean()),
        stderr=float(arr.std(ddof=1) / math.sqrt(reps)) if reps > 1 else 0.0,
        reps=reps,
        values=tuple(float(v) for v in arr),
        exact_sup=exact,
    )


def regression_slope(x: Sequence[float], y: Sequence[float]) -> float:
    """Least-squares slope of y against x."""
    return float(np.polyfit(np.asarray(x, dtype=float), np.asarray(y, dtype=float), 1)[0])
