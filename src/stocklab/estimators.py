"""Monte-Carlo estimators of Rademacher complexity and generalization error.

For the stationary base-stock class both the sign-weighted supremum and the
true-minus-empirical-risk supremum are piecewise linear in the level, so the
suprema are exact once evaluated on the union of all kink points.  Other
classes fall back to a parameter grid and are flagged approximate.  The
true side of the generalization error is the demand model's exact risk.
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
    seed: int = 0,
    grid_step: float = 1.0,
) -> GeReport:
    """Mean over dataset replications of sup_policy (true risk - empirical risk).

    The true risks are the model's exact ones, computed once per call: the
    mean loss over the atoms of a finite support, or the :func:`class_risks`
    of independent integer demands (the exact base-stock curve, the (s, S)
    lattice risks, and the lattice kernel per row of per-period levels).  A
    model with neither, a continuous model or a fractional cap, raises
    ValueError.  For the base-stock class the supremum is exact: the
    candidates are the true curve's kinks, which hold every kink of a draw
    from the model (a block that breaks this raises), and both risks are
    linear between them.  The reorder-point and per-period-level classes take
    the supremum over a parameter grid, and the report is flagged approximate.

    One loop runs over blocks of reps, each about 2^13 path x
    max(T + L, widest chunk) cells.  A block stacks its reps' training paths,
    drawn under keys ``(seed, rep, 0)``, and scores each chunk of candidates
    on them in one kernel call; each rep's value is the max over chunks of
    its true minus empirical risks, the floats of scoring the rep alone.
    """
    if reps < 1:
        raise ValueError("reps must be >= 1")
    if n_train < 1:
        raise ValueError("n_train must be >= 1")
    true_side = ModelRisk(model, p)  # the model's atoms and pmfs, its periods checked
    if true_side.mode == "mc":
        raise ValueError("ge_estimate needs exact true risks, and this demand model has "
                         "neither a finite support nor integer per-period pmfs")
    atoms, pmfs = true_side.atoms, true_side.pmfs
    if policy_class == "base-stock":
        kinks = base_stock_kinks(atoms, p) if pmfs is None else exact_base_stock_levels(pmfs, p)
        candidates = lambda: [kinks]
    elif policy_class in ("ss", "st"):
        lo, hi = fit_ss_bounds(p)[:2] if policy_class == "ss" else (0.0, fit_cap(p.level_cap()))
        grid = policy_grid(policy_class, grid_axis(lo, hi, grid_step, GE_GRID_BUDGET), p, GE_GRID_BUDGET)
        candidates = lambda: grid.chunks(n_train if atoms is None else max(n_train, len(atoms)))
    else:
        raise ValueError(f"unknown policy class {policy_class!r}")
    true_risks = [class_risks(policy_class, chunk, pmfs, p) if atoms is None
                  else class_losses(policy_class, chunk, atoms, p).mean(axis=1)
                  for chunk in candidates()]
    block = max(1, _GE_CELLS // (n_train * max(p.horizon, len(true_risks[0]))))
    values: list[float] = []
    for lo in range(0, reps, block):
        n_reps = min(block, reps - lo)
        D = np.concatenate(
            [draw(model, n_train, (seed, rep, 0)).as_matrix() for rep in range(lo, lo + n_reps)]
        )
        if policy_class == "base-stock" and not np.isin(base_stock_kinks(D, p), kinks).all():
            raise AssertionError(
                f"a draw in reps {lo}..{lo + n_reps - 1} has a kink off the true risk curve"
            )
        best = np.full(n_reps, -np.inf)
        for chunk, true in zip(candidates(), true_risks):
            emp = class_losses(policy_class, chunk, D, p).reshape(len(chunk), n_reps, n_train).mean(axis=2)
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
