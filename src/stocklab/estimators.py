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


# Path x max(T + L, levels) cells per base_stock_loss_matrix call of
# ge_estimate's fixed-true-side blocks: a block of reps this small keeps each
# of the kernel's temporaries to about 64 KiB, so stacking the reps' paths
# does not raise a run's peak memory.
_GE_CELLS = 1 << 13


def _fixed_base_stock_values(
    model: DemandModel, n_train: int, p: SystemParams, reps: int, seed: int,
    kinks: np.ndarray, true_risks: np.ndarray,
) -> list[float]:
    """Each rep's sup over base-stock levels of true minus empirical risk,
    when ``true_risks`` on ``kinks`` fix the true side.

    Every rep draws its training set under its own key; a block of reps has
    its paths stacked and scored in one kernel call, and each path's losses
    are the floats of scoring its rep alone.  A draw from the model has no
    kink off the true curve's, so ``kinks`` hold every candidate of every
    rep; a block that breaks this raises.
    """
    block = max(1, _GE_CELLS // (n_train * max(p.horizon, len(kinks))))
    values: list[float] = []
    for lo in range(0, reps, block):
        n_reps = min(block, reps - lo)
        stacked = np.concatenate(
            [draw(model, n_train, (seed, rep, 0)).as_matrix() for rep in range(lo, lo + n_reps)]
        )
        if not np.isin(base_stock_kinks(stacked, p), kinks).all():
            raise AssertionError(
                f"a draw in reps {lo}..{lo + n_reps - 1} has a kink off the true risk curve"
            )
        emp = base_stock_loss_matrix(kinks, stacked, p).reshape(len(kinks), n_reps, n_train)
        values.extend((true_risks[:, None] - emp.mean(axis=2)).max(axis=0).tolist())
    return values


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
    and the grid classes chunk by chunk.  The base-stock class then scores
    blocks of reps, their paths stacked, in one kernel call each.  The values
    are those of scoring each rep afresh.  A model with neither draws a fresh
    Monte-Carlo evaluation sample in every rep.
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
        if pmfs is not None:
            true_kinks = exact_base_stock_levels(pmfs, p)
            true_risks = exact_base_stock_risk(true_kinks, pmfs, p)
        else:
            true_kinks = base_stock_kinks(atoms, p)
            true_risks = base_stock_loss_matrix(true_kinks, atoms, p).mean(axis=1)
        values = _fixed_base_stock_values(model, n_train, p, reps, seed, true_kinks, true_risks)
    else:
        if fixed:
            true_chunks = [risks(chunk, atoms) for chunk in grid()]
        values = []
        for rep in range(reps):
            D = draw(model, n_train, (seed, rep, 0)).as_matrix()
            D_eval = atoms
            if not fixed:
                D_eval = draw(model, eval_samples, (seed, rep, 1)).as_matrix()
            if exact:
                # every kink of the true and the empirical risk curve is a candidate
                cands = np.union1d(base_stock_kinks(D, p), base_stock_kinks(D_eval, p))
                true = base_stock_loss_matrix(cands, D_eval, p).mean(axis=1)
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
