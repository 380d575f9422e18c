"""Monte-Carlo estimators of Rademacher complexity and generalization error.

For the stationary base-stock class both the sign-weighted supremum and the
true-minus-empirical-risk supremum are piecewise linear in the level, so the
suprema are exact once evaluated on the union of all kink points.  Other
classes fall back to a parameter grid and are flagged approximate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import Dataset, SystemParams, demand_matrix
from .demand import DemandModel, draw, make_rng
from .evaluate import (
    ModelRisk,
    base_stock_kinks,
    base_stock_loss_matrix,
    class_losses,
    class_risks,
    exact_base_stock_levels,
    grid_axis,
    policy_grid,
)
from .fitters import fit_cap, fit_ss_bounds


@dataclass(frozen=True)
class RademacherReport:
    estimate: float
    stderr: float
    draws: int
    exact_sup: bool


def rademacher_estimate(
    data: Dataset,
    p: SystemParams,
    draws: int = 200,
    seed: int | tuple[int, ...] = 0,
) -> RademacherReport:
    """Monte-Carlo mean over sign vectors of sup_policy (1/N) sum_i sign_i loss_i
    over the base-stock class, whose supremum is exact via kink enumeration.
    """
    if draws < 1:
        raise ValueError("draws must be >= 1")
    D = demand_matrix(data, p)
    loss_matrix = base_stock_loss_matrix(base_stock_kinks(D, p), D, p)
    n = loss_matrix.shape[1]
    key = seed if isinstance(seed, tuple) else (seed,)
    rng = make_rng(*key)
    signs = rng.choice([-1.0, 1.0], size=(draws, n))
    sups = (signs @ loss_matrix.T / n).max(axis=1)
    return RademacherReport(
        estimate=float(sups.mean()),
        stderr=float(sups.std(ddof=1) / math.sqrt(draws)) if draws > 1 else 0.0,
        draws=draws,
        exact_sup=True,
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


# Path x max(T + L, candidates) cells per scoring call of a block of
# ge_estimate's reps: a block of reps this small keeps each of the kernels'
# temporaries to about 64 KiB (times T for a per-period chunk), so stacking
# the reps' paths does not raise a run's peak memory.
_GE_CELLS = 1 << 13

# Most (s, S) pairs or per-period level vectors ge_estimate's grid classes
# score before it raises BudgetError.
GE_GRID_BUDGET = 200_000


def ge_estimate(
    model: DemandModel,
    n_train: int,
    p: SystemParams,
    policy_class: str = "base-stock",
    reps: int = 100,
    eval_samples: int = 2000,
    seed: int = 0,
    grid_step: float = 1.0,
) -> GeReport:
    """Mean over dataset replications of sup_policy (true risk - empirical risk).

    For the base-stock class the supremum is exact: both risks are piecewise
    linear in the level and every kink of either is a candidate.  For the
    reorder-point and per-period-level classes the supremum is taken over a
    parameter grid and the report is flagged approximate.

    Every class runs one loop over blocks of reps.  A block stacks its reps'
    training paths, drawn under keys ``(seed, rep, 0)``, and scores each
    chunk of candidates on them in one kernel call; each rep's value is the
    max over chunks of its true minus empirical risks, the floats of scoring
    the rep alone.  When the model fixes the true side (a finite support, or
    exact pmfs for the base-stock class), the true risks are computed once
    per call: the base-stock candidates are then the true curve's kinks,
    which hold every kink of a draw from the model (a block that breaks this
    raises).  Otherwise each rep is a block of its own with a fresh
    Monte-Carlo evaluation sample, key ``(seed, rep, 1)``, and the
    base-stock candidates are the kinks of both draws.
    """
    if reps < 1:
        raise ValueError("reps must be >= 1")
    if n_train < 1:
        raise ValueError("n_train must be >= 1")
    true_side = ModelRisk(model, p)  # the model's atoms and pmfs, its periods checked
    atoms = true_side.atoms
    pmfs = true_side.pmfs if atoms is None and policy_class == "base-stock" else None
    # a finite support or exact pmfs make the true side the same in every rep
    fixed = atoms is not None or pmfs is not None
    if policy_class == "base-stock":
        if fixed:
            kinks = base_stock_kinks(atoms, p) if pmfs is None else exact_base_stock_levels(pmfs, p)
        # a Monte-Carlo true side takes every kink of the true and the empirical curve
        chunks = lambda D, D_eval: [
            kinks if fixed else np.union1d(base_stock_kinks(D, p), base_stock_kinks(D_eval, p))
        ]
    elif policy_class in ("ss", "st"):
        lo, hi = fit_ss_bounds(p)[:2] if policy_class == "ss" else (0.0, fit_cap(p.level_cap()))
        grid = policy_grid(policy_class, grid_axis(lo, hi, grid_step, GE_GRID_BUDGET), p, GE_GRID_BUDGET)
        n_paths = max(n_train, eval_samples if atoms is None else len(atoms))
        chunks = lambda D, D_eval: grid.chunks(n_paths)
    else:
        raise ValueError(f"unknown policy class {policy_class!r}")
    score = lambda chunk, X: class_losses(policy_class, chunk, X, p)
    block = 1
    if fixed:
        true_risks = (class_risks("base-stock", kinks, pmfs, p) if pmfs is not None else
                      np.concatenate([score(c, atoms).mean(axis=1) for c in chunks(None, atoms)]))
        widest = len(next(iter(chunks(None, atoms))))
        block = max(1, _GE_CELLS // (n_train * max(p.horizon, widest)))
    values: list[float] = []
    for lo in range(0, reps, block):
        n_reps = min(block, reps - lo)
        D = np.concatenate(
            [draw(model, n_train, (seed, rep, 0)).as_matrix() for rep in range(lo, lo + n_reps)]
        )
        D_eval = atoms if fixed else draw(model, eval_samples, (seed, lo, 1)).as_matrix()
        if fixed and policy_class == "base-stock":
            if not np.isin(base_stock_kinks(D, p), kinks).all():
                raise AssertionError(
                    f"a draw in reps {lo}..{lo + n_reps - 1} has a kink off the true risk curve"
                )
        best = np.full(n_reps, -np.inf)
        done = 0  # candidates scored so far: where this chunk's fixed true risks start
        for chunk in chunks(D, D_eval):
            if fixed:
                true = true_risks[done : done + len(chunk)]
            else:
                true = score(chunk, D_eval).mean(axis=1)
            done += len(chunk)
            emp = score(chunk, D).reshape(len(chunk), n_reps, n_train).mean(axis=2)
            best = np.maximum(best, (true[:, None] - emp).max(axis=0))
        values.extend(best.tolist())
    arr = np.asarray(values)
    return GeReport(
        mean_ge=float(arr.mean()),
        stderr=float(arr.std(ddof=1) / math.sqrt(reps)) if reps > 1 else 0.0,
        reps=reps,
        values=tuple(values),
        exact_sup=policy_class == "base-stock",
    )

