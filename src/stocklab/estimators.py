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


def _base_stock_true_risks(
    levels: np.ndarray, pmfs: list[np.ndarray] | None, D_eval: np.ndarray | None, p: SystemParams
) -> np.ndarray:
    """True risks of base-stock levels: exact under pmfs, else the mean loss on D_eval."""
    if pmfs is not None:
        return exact_base_stock_risk(levels, pmfs, p)
    return base_stock_loss_matrix(levels, D_eval, p).mean(axis=1)


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

    The true risks are computed once per call when the model fixes them (a
    finite support, or exact pmfs for the base-stock class): the base-stock
    curve on its own kinks, which hold every kink of a draw from the model,
    and the grid classes chunk by chunk.  The values are those of scoring
    each rep afresh.  A model with neither draws a fresh Monte-Carlo
    evaluation sample in every rep.
    """
    if reps < 1:
        raise ValueError("reps must be >= 1")
    exact = policy_class == "base-stock"
    atoms = support_atoms(model)
    if policy_class == "ss":
        lo, hi, _ = fit_ss_bounds(p)
        axis = grid_axis(lo, hi, grid_step)
        # the pairs s <= S with S >= 0: the j-th point of the sorted axis pairs
        # with the j + 1 points up to it
        if int((np.flatnonzero(axis >= 0.0) + 1).sum()) > grid_budget:
            raise BudgetError("(s, S) grid exceeds budget")
        s_vals, S_vals = ss_pairs(axis)
        grid = lambda: [(s_vals, S_vals)]
        risks = lambda pairs, X: ss_losses_grid(*pairs, X, p).mean(axis=1)
    elif policy_class == "st":
        axis = grid_axis(0.0, fit_cap(p.level_cap()), grid_step)
        if len(axis) ** p.horizon > grid_budget:
            raise BudgetError("per-period grid exceeds budget")
        # the last L levels never reach the loss, so the first T span every gap
        n_paths = max(n_train, eval_samples if atoms is None else len(atoms))
        grid = lambda: st_level_grid(axis, p, n_paths)
        risks = lambda levels, X: st_losses_grid(levels, X, p).mean(axis=1)
    elif not exact:
        raise ValueError(f"unknown policy class {policy_class!r}")
    pmfs = marginal_pmfs(model) if atoms is None and exact else None
    # a finite support or exact pmfs make the true side the same in every rep
    fixed = atoms is not None or pmfs is not None
    if exact and fixed:
        true_kinks = (exact_base_stock_levels(pmfs, p) if pmfs is not None
                      else base_stock_kinks(atoms, p))
        true_risks = _base_stock_true_risks(true_kinks, pmfs, atoms, p)
    elif fixed:
        true_chunks = [risks(chunk, atoms) for chunk in grid()]
    values = []
    for rep in range(reps):
        D = draw(model, n_train, (seed, rep, 0)).as_matrix()
        D_eval = atoms
        if not fixed:
            D_eval = draw(model, eval_samples, (seed, rep, 1)).as_matrix()
        if exact:
            # every kink of the true and the empirical risk curve is a candidate
            if not fixed:
                true_kinks = base_stock_kinks(D_eval, p)
            cands = np.union1d(base_stock_kinks(D, p), true_kinks)
            # a draw from a fixed true side has no kink off the true curve's,
            # so the risks computed once serve every rep
            if fixed and len(cands) == len(true_kinks):
                true = true_risks
            else:
                true = _base_stock_true_risks(cands, pmfs, D_eval, p)
            emp = base_stock_loss_matrix(cands, D, p).mean(axis=1)
            values.append(float((true - emp).max()))
        else:
            gaps = (
                (true_chunks[k] if fixed else risks(chunk, D_eval)) - risks(chunk, D)
                for k, chunk in enumerate(grid())
            )
            values.append(max(float(gap.max()) for gap in gaps))
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
