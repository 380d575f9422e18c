"""Product empirical risk minimization and exact dynamic programming.

Per-period empirical marginals define a product distribution over demand
sequences; fitting against it is equivalent to a backward DP over the
inventory position, which is also how the exact optimum under a known
independent integer demand process is computed.  The same exact fit under a
model's pmfs is the best policy in a class.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .core import (
    BaseStock,
    BudgetError,
    Dataset,
    NonStationary,
    SsPolicy,
    SystemParams,
)
from . import fitters
from .evaluate import (
    class_risks,
    cost_array,
    exact_base_stock_levels,
    exact_risk,
    exact_ss_argmin,
    lead_pmf,
    policy_grid,
)
from .fitters import (
    FitResult,
    fit_cap,
    fit_ss_bounds,
    integer_ss_axis,
    square_root_gap,
)

PARTITION_BUDGET = 1_000_000


def build_marginals(data: Dataset) -> list[np.ndarray]:
    """Per-period empirical pmfs on {0, ..., max demand}, as ``marginal_pmfs`` returns.

    Period t's pmf is the frequency of each value in column t of the data;
    their product is the distribution product ERM fits against.
    """
    D = data.as_matrix()
    if not np.array_equal(D, np.rint(D)):
        raise ValueError("product fitting requires integer demands")
    return [np.bincount(col) / D.shape[0] for col in D.T.astype(np.intp)]


# ---------------------------------------------------------------------------
# disjoint partition of the product sample
# ---------------------------------------------------------------------------


def product_partition(n: int, periods: int) -> list[list[tuple[int, ...]]]:
    """Partition all n^periods index tuples into n^(periods-1) groups of n.

    Group (j_1, ..., j_{periods-1}) holds, for each i, the tuple whose
    period-t entry is shifted cyclically by j_t.  Within a group every
    original (sample, period) entry appears exactly once; indices are
    0-based.  More than ``PARTITION_BUDGET`` tuples raise BudgetError.
    """
    if n < 1 or periods < 1:
        raise ValueError("n and periods must be >= 1")
    if n**periods > PARTITION_BUDGET:
        raise BudgetError(f"{n}^{periods} tuples exceed the enumeration budget")
    groups = []
    for shifts in itertools.product(range(n), repeat=periods - 1):
        groups.append(
            [tuple([i] + [(i + j) % n for j in shifts]) for i in range(n)]
        )
    return groups


# ---------------------------------------------------------------------------
# backward DP over the inventory position
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DpSolution:
    """Backward-induction output over the integer position grid.

    ``grid_lo`` is min(x1, 0): the value function is constant at and below
    it, so the DP keeps no position lower.  ``grid_hi`` is the highest
    position kept.
    """

    risk: float
    order_up_to: tuple[int, ...]
    grid_lo: int
    grid_hi: int


def solve_dp(
    pmfs: Sequence[np.ndarray], p: SystemParams, cap: float | None = None
) -> DpSolution:
    """Exact optimum over all policies for independent integer demands, K = 0.

    State is the pre-order inventory position on an integer grid; the cost
    of ordering up to y in period t is the expected holding/backlog cost of
    y net of lead-time demand, charged 1/T per period.  Without a fixed cost
    the optimal action is order-up-to, and the per-period targets are
    returned; any K != 0 raises ValueError.

    With ``cap`` each target is the best integer level in [0, cap], which
    makes the solution the best policy of the per-period class within its
    level bounds: the cost-to-go W is convex, so every position below the
    target still orders up to it.

    The grid starts at min(x1, 0).  Every target is at least 0: with a cap
    by construction, and without one and with b > 0 because W then falls
    strictly as y rises to 0 from below, where the expected cost-to-go is
    constant.  Each period sets V to W[target] below the target, so V is one
    constant at and below the grid bottom, and a demand that takes the
    position below it reads V there.  So the targets, the risk and W on the
    grid are those of a grid reaching down to min(x1, 0) - (T + L) umax.
    With b = 0 and no cap, W is flat at and below 0, and the target is its
    first minimum there, the grid bottom: min(x1, 0) here and
    (T + L) umax lower on the deeper grid, with one risk on both.

    The expected costs are still one matrix-vector product per period over
    that deeper grid, whose rows below min(x1, 0) are dropped: a BLAS
    product may round a row differently with the number of rows it is
    given, and this keeps every expected cost, so every risk and target,
    the float it has always been.  The cost matrix is Toeplitz in (level,
    demand), so it is built once per call and lead-pmf length as one
    contiguous copy of a strided view over the costs of its levels: one
    buffer, and no full-size temporaries.
    """
    if len(pmfs) != p.horizon:
        raise ValueError(f"need {p.horizon} per-period pmfs")
    if p.x1 != int(p.x1):
        raise ValueError("DP requires an integer initial level")
    if p.K != 0:
        raise ValueError("the backward DP finds order-up-to targets, which need K = 0")
    umax = max(len(f) - 1 for f in pmfs)
    bottom = min(int(p.x1), 0)
    top = max((p.L + 1) * umax, int(p.x1)) + 1
    size = top - bottom + 1
    depth = p.horizon * umax
    # the grid indices a target may take: all, or the integers in [0, cap]
    span = slice(0, size) if cap is None else slice(-bottom, math.floor(cap) - bottom + 1)
    # shifts[k, i]: the index of position i less a demand of k, floored at the bottom
    shifts = np.maximum(np.arange(size)[None, :] - np.arange(umax + 1)[:, None], 0)
    costs: dict[int, np.ndarray] = {}
    V = np.zeros(size)
    levels: list[int] = []
    for t in range(p.T, 0, -1):
        lead = lead_pmf(pmfs, t, p.L)
        m = len(lead)
        if m not in costs:
            # row r, column k: the cost of level bottom - depth + r - k, which
            # is c[m - 1 + r - k]; the strided view reads only inside c
            c = cost_array(np.arange(bottom - depth - m + 1, top + 1), p)
            view = as_strided(c[m - 1 :], (depth + size, m), (c.strides[0], -c.strides[0]))
            costs[m] = np.ascontiguousarray(view)
        Ec = (costs[m] @ lead)[depth:] / p.T
        f = np.asarray(pmfs[t - 1], dtype=float)
        # numpy sums over the leading axis row by row, so in demand order
        W = Ec + (f[:, None] * V[shifts[: len(f)]]).sum(axis=0)
        j = span.start + int(np.argmin(W[span]))
        levels.append(bottom + j)
        W[:j] = W[j]
        V = W
    levels.reverse()
    return DpSolution(
        risk=float(V[int(p.x1) - bottom]),
        order_up_to=tuple(levels),
        grid_lo=bottom,
        grid_hi=top,
    )


# ---------------------------------------------------------------------------
# product-ERM fitting and risk
# ---------------------------------------------------------------------------


# the exact product-distribution risk of a policy, under the name the benchmark imports
perm_risk = exact_risk


def perm_fit(
    pmfs: Sequence[np.ndarray], p: SystemParams, policy_class: str = "st"
) -> FitResult:
    """Exact risk minimizer of a policy class under the product of per-period
    pmfs: the empirical marginals for product ERM, the model's for the best in
    class.  The bounds are checked as the data fitters check them.

    ``st`` is the backward DP (K = 0): its targets are the DP argmins over
    the integers in [0, H] and its risk the DP root value.  The others take the
    first minimum of their points' exact risks, the smaller gap, then the smaller
    S.  ``ss`` has every integer pair in the bounds (x1 at most Hlo), past the grid
    searches' ``GRID_BUDGET`` pairs a BudgetError: :func:`exact_ss_argmin` screens
    them all in one batched propagation and scores exactly only those near the
    least screened risk, for the pick and risk of scoring every pair; its
    diagnostics count the ``pairs`` and those ``rescored``.  ``base-stock`` scores
    every kink of the exact risk curve in [0, H], and ``eoq`` the square-root gap
    at the pmf mean with S on a 0.05 grid of [0, H + gap], in one
    :func:`class_risks` call each.
    """
    if policy_class == "st":
        sol = solve_dp(pmfs, p, fit_cap(p.level_cap()))
        levels = tuple(float(v) for v in sol.order_up_to) + (0.0,) * p.L
        return FitResult(policy=NonStationary(levels), in_sample_risk=sol.risk,
                         method="backward-dp", diagnostics={"grid": [sol.grid_lo, sol.grid_hi]})
    if policy_class == "base-stock":
        fit_cap(p.level_cap())
        points = exact_base_stock_levels(pmfs, p)
    elif policy_class == "ss":
        lo = fit_ss_bounds(p)[0]
        if p.x1 > lo:
            raise ValueError(f"x1={p.x1} must not exceed the reorder-point bound {lo}")
        (points,) = policy_grid("ss", integer_ss_axis(p), p, fitters.GRID_BUDGET).chunks(1)
        j, risk, rescored = exact_ss_argmin(points[:, 0], points[:, 1], pmfs, p)
        return FitResult(policy=SsPolicy(*map(float, points[j])), in_sample_risk=risk,
                         method="exact-ss-search", diagnostics={"pairs": len(points), "rescored": rescored})
    elif policy_class == "eoq":
        mu = sum(float(np.arange(len(f)) @ f) for f in pmfs) / len(pmfs)
        gap = square_root_gap(mu, p)
        S = np.arange(0.0, fit_cap(p.level_cap()) + gap + 1e-9, 0.05)
        points = np.stack([S - gap, S], axis=1)
    else:
        raise ValueError(f"unknown policy class {policy_class!r}")
    risks = class_risks("base-stock" if policy_class == "base-stock" else "ss", points, pmfs, p)
    j = int(np.argmin(risks))
    policy = BaseStock(float(points[j])) if points.ndim == 1 else SsPolicy(*map(float, points[j]))
    return FitResult(policy=policy, in_sample_risk=float(risks[j]),
                     method=f"exact-{policy_class}-search")
