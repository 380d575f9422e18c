"""Empirical risk minimization over the three policy classes.

The one-dimensional fitters are exact: the empirical risk is piecewise
linear in the level parameter, so enumerating its kinks finds a global
minimizer.  The reorder-point fitter enumerates gap intervals (between
consecutive-demand-sum breakpoints) within which the reorder schedule of
every sample is frozen.  The per-period-level fitter is a multi-start
cyclic coordinate descent whose line searches are themselves exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .core import (
    ORDER_EPS,
    BaseStock,
    BudgetError,
    Dataset,
    NonStationary,
    Policy,
    SsPolicy,
    SystemParams,
    delta_breakpoints,
    demand_matrix,
    reorder_schedule,
)
from .demand import make_rng
from .evaluate import (
    base_stock_kinks,
    base_stock_risk_curve,
    dataset_risk,
    grid_axis,
    lead_demand_sums,
    prefix_sums,
    sorted_prefix_costs,
    ss_losses_grid,
    ss_pairs,
    st_level_grid,
    st_losses,
    st_losses_grid,
)


@dataclass(frozen=True)
class FitResult:
    """A fitted policy with its in-sample risk and method diagnostics."""

    policy: Policy
    in_sample_risk: float
    method: str
    diagnostics: dict = field(default_factory=dict)


@dataclass(frozen=True)
class StOptions:
    """Options for the per-period-level local search."""

    restarts: int = 8
    max_sweeps: int = 100
    tol: float = 1e-8
    seed: int = 0
    jitter: float | None = None  # default: 5% of the level cap


def fit_cap(cap: float) -> float:
    """A level cap H, which a fit over levels in [0, H] needs finite and >= 0."""
    if not 0.0 <= cap < math.inf:
        raise ValueError(f"fitting needs a finite level cap H >= 0, got {cap}")
    return cap


def fit_ss_bounds(p: SystemParams) -> tuple[float, float, bool]:
    """The (s, S) bounds ``(Hlo, H, capped)``, with Hlo finite and H as :func:`fit_cap`."""
    lo, hi, capped = p.ss_bounds()
    if not math.isfinite(lo):
        raise ValueError(f"fitting needs a finite reorder-point bound Hlo, got {lo}")
    return lo, fit_cap(hi), capped


# ---------------------------------------------------------------------------
# stationary base-stock
# ---------------------------------------------------------------------------


def erm_base_stock(data: Dataset, p: SystemParams) -> FitResult:
    """Exact global minimizer of the empirical risk over levels in [0, H].

    The risk is convex piecewise-linear in the level with kinks at the
    lead-time demand sums, so it is evaluated at every kink in range plus
    the interval endpoints; ties go to the smallest level.
    """
    D = demand_matrix(data, p)
    fit_cap(p.level_cap())
    cands = base_stock_kinks(D, p)
    best = int(np.argmin(base_stock_risk_curve(cands, D, p)))
    policy = BaseStock(float(cands[best]))
    return FitResult(
        policy=policy,
        in_sample_risk=dataset_risk(policy, data, p),
        method="breakpoint-enumeration",
        diagnostics={"candidate_count": int(len(cands))},
    )


# ---------------------------------------------------------------------------
# (s, S) with a fixed gap (used by the square-root-gap variant)
# ---------------------------------------------------------------------------


def fit_level_fixed_gap(data: Dataset, p: SystemParams, delta: float) -> FitResult:
    """Exact minimization over S in [0, H + delta] of the (s, S) risk with
    s = S - delta.

    The level range extends above the one-level cap by the fixed gap so
    that the implied reorder point spans [-delta, H]; with the cap binding
    the family could never cover a full replenishment cycle plus safety
    stock.  The reorder schedule may depend on S through the timing of the
    first order when x1 > s, so candidates include every contiguous demand
    sum, every first-order threshold (and a point just below it, where the
    risk can jump), and the endpoints.  All candidates are evaluated by
    batch simulation, which makes the result exact for a piecewise-linear
    risk whose kinks and jumps all lie in the candidate set.
    """
    if not 0.0 <= delta < math.inf:
        raise ValueError(f"delta must be a finite number >= 0, got {delta}")
    D = demand_matrix(data, p)
    hi = fit_cap(p.level_cap()) + delta
    pre = prefix_sums(D)
    first, last = np.triu_indices(p.horizon + 1, 1)
    sums = pre[:, last] - pre[:, first]
    # first-order thresholds: S = x1 + delta - (demand before t)
    edges = p.x1 + delta - pre[:, : p.horizon]
    allc = np.unique(np.concatenate([[0.0, hi], sums[sums > 0].ravel(),
                                     edges.ravel(), (edges - 1e-9).ravel()]))
    allc = allc[(allc >= 0.0) & (allc <= hi)]  # keeps 0 and hi
    risks = ss_losses_grid(allc - delta, allc, D, p).mean(axis=1)
    best = int(np.argmin(risks))
    S = float(allc[best])
    policy = SsPolicy(S - delta, S)
    return FitResult(
        policy=policy,
        in_sample_risk=dataset_risk(policy, data, p),
        method="fixed-gap-breakpoint-enumeration",
        diagnostics={"candidate_count": int(len(allc)), "delta": delta},
    )


def square_root_gap(mu: float, p: SystemParams) -> float:
    """Cost-balancing order gap sqrt(2 K mu (h+b) / (h b)) for mean demand ``mu``."""
    if p.h <= 0 or p.b <= 0:
        raise ValueError("square-root gap requires h > 0 and b > 0")
    return math.sqrt(2.0 * p.K * mu * (p.h + p.b) / (p.h * p.b))


def erm_eoq_base_stock(data: Dataset, p: SystemParams) -> FitResult:
    """Single-parameter (s, S) fit with the gap pinned by the square-root formula."""
    delta = square_root_gap(float(demand_matrix(data, p).mean()), p)
    return replace(fit_level_fixed_gap(data, p, delta), method="square-root-gap")


# ---------------------------------------------------------------------------
# (s, S)
# ---------------------------------------------------------------------------


def erm_sS(data: Dataset, p: SystemParams, mode: str = "exact") -> FitResult:
    """Global empirical risk minimizer over reorder-point policies.

    ``exact`` mode enumerates gap intervals between demand-sum breakpoints;
    within an interval every sample's reorder schedule is frozen and the risk
    is convex piecewise-linear in S with kinks at the in-window demand sums.
    ``integer-grid`` mode is a brute-force search over integer (s, S) pairs
    and requires integer-valued demands.  Ties break toward the smallest gap,
    then the smallest S.
    """
    lo, hi, capped = fit_ss_bounds(p)
    if p.x1 > lo:
        raise ValueError(f"x1={p.x1} must not exceed the reorder-point bound {lo}")
    D = demand_matrix(data, p)

    if mode == "integer-grid":
        if not np.all(D == np.rint(D)):
            raise ValueError("integer-grid mode requires integer demands")
        span = math.floor(hi) - math.ceil(lo) + 1
        if span > 0 and span * span > 4_000_000:
            raise BudgetError(f"integer grid of {span}^2 pairs exceeds budget")
        s_vals, S_vals = ss_pairs(np.arange(math.ceil(lo), math.floor(hi) + 1))
        # listed in tie-break order, so the first minimum wins
        k = int(np.argmin(ss_losses_grid(s_vals, S_vals, D, p).mean(axis=1)))
        policy = SsPolicy(float(s_vals[k]), float(S_vals[k]))
        return FitResult(
            policy=policy,
            in_sample_risk=dataset_risk(policy, data, p),
            method="integer-grid",
            diagnostics={"candidate_count": int(len(s_vals)), "capped_bounds": capped},
        )

    if mode != "exact":
        raise ValueError(f"unknown mode {mode!r}")

    delta_cap = hi - lo
    bps = delta_breakpoints(D, p)
    ends = bps[(bps > 0.0) & (bps < delta_cap)].tolist() + [delta_cap]
    starts = [0.0] + ends[:-1]
    # (a, b, rep): the gap-0 interval, then one between each pair of adjacent
    # points of 0, the breakpoints below delta_cap, and delta_cap
    intervals = [(0.0, 0.0, 0.0)] + [
        (a, b, (a + b) / 2.0) for a, b in zip(starts, ends) if b > a
    ]

    n = len(D)
    scale = n * p.T
    pre = prefix_sums(D)
    # an order in period t >= 2 is charged if the demand since the last order
    # exceeds ORDER_EPS: at gap 0 that is period t - 1's demand, and at a
    # positive gap the order follows a positive one, which a dataset keeps
    # above ORDER_EPS
    charged = D[:, : p.T - 1] > ORDER_EPS
    # at most 2^16 interval x path x period cells per block bound the memory
    block = max(1, 2**16 // scale)
    best: tuple[float, float, float] | None = None  # (risk, delta, S)
    n_cands = 0
    for j in range(0, len(intervals), block):
        chunk = intervals[j : j + block]
        served = reorder_schedule(np.array([rep for _, _, rep in chunk]), D, p)
        # period t's window runs from the order that serves it to t + L
        windows = pre[:, p.L + 1 : p.T + p.L + 1] - pre[np.arange(n)[:, None], served - 1]
        reorders = ((served[:, :, 1:] == np.arange(2, p.T + 1)) & charged).sum(axis=(1, 2))
        for (a, b, rep), win, n_later in zip(chunk, windows, reorders):
            win = win.ravel()
            cands = np.unique(
                np.concatenate([win, [0.0, hi, min(max(lo + a + 1e-9, 0.0), hi)]])
            )
            cands = cands[(cands >= 0.0) & (cands <= hi)]
            # feasibility: some gap in the interval must satisfy s = S - gap >= lo
            feasible = cands - lo > a if a > 0 or b > 0 else cands - lo >= 0
            cands = cands[feasible]
            if not len(cands):
                continue
            n_cands += len(cands)
            risks = sorted_prefix_costs(cands, win[None, :], p)[0] / scale
            if p.K > 0:
                risks = risks + p.K * (n_later + n * (cands - p.x1 > ORDER_EPS)) / scale
            # only the interval's first minimizer can improve
            k = int(np.argmin(risks))
            S = float(cands[k])
            delta = 0.0 if rep == 0.0 else min(rep, S - lo)
            cand = (float(risks[k]), delta, S)
            if best is None or cand < best:
                best = cand

    if best is None:
        raise ValueError("no feasible (s, S) candidate")
    _, delta, S = best
    policy = SsPolicy(S - delta, S)
    return FitResult(
        policy=policy,
        in_sample_risk=dataset_risk(policy, data, p),
        method="gap-interval-enumeration",
        diagnostics={
            "candidate_count": n_cands,
            "interval_count": len(intervals),
            "capped_bounds": capped,
        },
    )


# ---------------------------------------------------------------------------
# per-period order-up-to levels
# ---------------------------------------------------------------------------


def _coordinate_minima(
    levels: np.ndarray,
    t: int,
    head: np.ndarray,
    pre: np.ndarray,
    p: SystemParams,
    cap: float,
) -> np.ndarray:
    """Exact minimizer over [0, cap] of each restart's empirical risk in coordinate t.

    ``levels`` holds one restart per row, shape (R, T + L), and ``head`` each
    restart's running maximum of S^i + D[1, i-1] over the periods i < t,
    shape (R, N).  Each charged period t̂ >= t + L contributes a piece that
    is flat until the coordinate's score overtakes the running maximum of
    the other levels, then follows the one-period cost; the total is
    piecewise linear, so it is minimized by sweeping its slope-change events.
    Events at or beyond the cap can never be picked, so they are dropped
    before the sort; each row's remaining events are padded at the cap with
    zero slope change, which leaves its running sums unchanged.
    """
    R = len(levels)
    scale = pre.shape[0] * p.T
    # running max over the order periods j = t .. T of x1, the earlier
    # periods' scores and the later ones'
    later = levels[:, None, t : p.T] + pre[None, :, t : p.T]
    G = np.maximum.accumulate(
        np.concatenate([np.maximum(head, p.x1)[:, :, None], later], axis=2), axis=2
    )
    A = pre[:, t - 1][:, None]
    W = pre[:, t + p.L : p.T + p.L + 1]
    gap = np.maximum(G, A) - W
    base = (p.h * np.maximum(gap, 0.0) - p.b * np.minimum(gap, 0.0)).reshape(R, -1).sum(
        axis=1
    ) / scale

    # every event of a path's period lies at or above its v1 = G - A, which
    # rises along the periods, so periods from the first one whose v1 reaches
    # the cap on every row and path hold no event that can be picked
    v1 = G - A
    m = int(np.searchsorted(v1.min(axis=(0, 1)), cap))
    v1 = v1[:, :, :m].reshape(R, -1)
    v2 = np.broadcast_to((W - A)[:, :m].ravel(), v1.shape)
    # events: sloped v1, sloped v2, unsloped v1, each in path-major order
    sloped = v1 < v2
    positions = np.concatenate([v1, v2, v1], axis=1)
    keep = np.concatenate([sloped, sloped, ~sloped], axis=1) & (positions < cap)
    deltas = np.repeat(np.array([-p.b, p.b + p.h, p.h]) / scale, v1.shape[1])
    counts = keep.sum(axis=1)
    filled = np.arange(counts.max(initial=0))[None, :] < counts[:, None]
    pos = np.full(filled.shape, cap)
    pos[filled] = positions[keep]
    step = np.zeros(filled.shape)
    step[filled] = np.broadcast_to(deltas, keep.shape)[keep]

    order = np.argsort(pos, axis=1, kind="stable")
    rows = np.arange(R)[:, None]
    pos = pos[rows, order]
    step = step[rows, order]
    start = np.minimum((pos <= 0.0).sum(axis=1), counts)
    # the slope at 0 sums each row's first events in sorted order
    slope0 = np.array([step[r, : start[r]].sum() for r in range(R)])
    lead = np.arange(pos.shape[1])[None, :] < start[:, None]
    zero = np.zeros((R, 1))
    pts = np.concatenate([zero, np.where(lead, 0.0, pos), np.full((R, 1), cap)], axis=1)
    slopes = slope0[:, None] + np.concatenate(
        [zero, np.cumsum(np.where(lead, 0.0, step), axis=1)], axis=1
    )
    values = base[:, None] + np.concatenate(
        [zero, np.cumsum(slopes * np.diff(pts, axis=1), axis=1)], axis=1
    )
    return pts[np.arange(R), np.argmin(values, axis=1)]


def erm_St(data: Dataset, p: SystemParams, opts: StOptions | None = None) -> FitResult:
    """Multi-start cyclic coordinate descent over per-period order-up-to levels.

    Requires K = 0 (the per-period-level class is fitted without fixed
    costs).  Restart 0 starts from the stationary base-stock fit, made at
    x1 = min(x1, 0) where its closed form holds (with K = 0 the fitted level
    does not depend on x1); later restarts start from per-period
    critical-fractile quantiles of lead-time demand plus seeded uniform
    jitter.  Each coordinate step is an exact line minimization, so every
    sweep is monotone.

    The restarts share one leading axis: every sweep runs one batched line
    search per coordinate over the restarts still descending, and a restart
    leaves that set at the sweep where its risk improves by less than
    ``tol``.  The best restart is the first with the smallest final risk;
    ``sweeps`` counts the sweeps of all restarts.
    """
    if p.K != 0:
        raise ValueError("per-period-level fitting requires K = 0")
    opts = opts or StOptions()
    D = demand_matrix(data, p)
    n, horizon = D.shape
    cap = fit_cap(p.level_cap())
    pre = prefix_sums(D)

    fractile = p.b / (p.b + p.h) if p.b + p.h > 0 else 0.5
    lead = lead_demand_sums(D, p.L)  # windows starting at t = 1 .. T
    quantiles = np.quantile(lead, fractile, axis=0)
    jitter = opts.jitter if opts.jitter is not None else 0.05 * cap
    rng = make_rng(opts.seed)

    start = erm_base_stock(data, replace(p, x1=min(p.x1, 0.0))).policy.S
    starts = [np.full(p.T, start)]
    for _ in range(max(opts.restarts - 1, 0)):
        starts.append(
            np.clip(quantiles + rng.uniform(-jitter, jitter, p.T), 0.0, cap)
        )

    levels = np.zeros((len(starts), horizon))
    levels[:, : p.T] = np.clip(starts, 0.0, cap)
    risk = st_losses_grid(levels, D, p).mean(axis=1)
    converged = np.zeros(len(starts), dtype=bool)
    live = np.arange(len(starts))
    sweeps_used = 0
    for _ in range(opts.max_sweeps):
        if not len(live):
            break
        cur = levels[live]
        head = np.full((len(live), n), -np.inf)  # running max of periods < t
        for t in range(1, p.T + 1):
            cur[:, t - 1] = _coordinate_minima(cur, t, head, pre, p, cap)
            head = np.maximum(head, cur[:, t - 1 : t] + pre[None, :, t - 1])
        levels[live] = cur
        new_risk = st_losses_grid(cur, D, p).mean(axis=1)
        sweeps_used += len(live)
        done = risk[live] - new_risk < opts.tol
        risk[live] = np.where(done, np.minimum(risk[live], new_risk), new_risk)
        converged[live[done]] = True
        live = live[~done]
    best = int(np.argmin(risk))
    return FitResult(
        policy=NonStationary(tuple(levels[best])),
        in_sample_risk=float(st_losses(levels[best], D, p).mean()),
        method="coordinate-descent",
        diagnostics={
            "restarts": len(starts),
            "converged": bool(converged[best]),
            "sweeps": sweeps_used,
            "tol": opts.tol,
        },
    )


# ---------------------------------------------------------------------------
# brute-force oracle
# ---------------------------------------------------------------------------


def grid_oracle(
    data: Dataset,
    policy_class: str,
    step: float,
    p: SystemParams,
    budget: int = 2_000_000,
) -> FitResult:
    """Exhaustive minimizer over a parameter grid, for tests and benchmarks.

    ``policy_class`` is one of ``base-stock``, ``ss``, ``st``.  Raises
    BudgetError when the grid would exceed ``budget`` points.

    For ``st`` the grid has ``len(axis) ** (T + L)`` points, but the last L
    levels never reach the loss, so :func:`st_level_grid` enumerates the
    first T in ``itertools.product`` order, in chunks scored by one
    broadcast kernel each, and the first minimum wins: the same pick as
    scanning every point in product order.
    """
    D = demand_matrix(data, p)

    if policy_class == "base-stock":
        grid = grid_axis(0.0, fit_cap(p.level_cap()), step)
        if len(grid) > budget:
            raise BudgetError("base-stock grid exceeds budget")
        best = int(np.argmin(base_stock_risk_curve(grid, D, p)))
        policy: Policy = BaseStock(float(grid[best]))
        count = len(grid)
    elif policy_class == "ss":
        lo, hi, _ = fit_ss_bounds(p)
        axis = grid_axis(lo, hi, step)
        if len(axis) * np.count_nonzero(axis >= 0.0) > budget:
            raise BudgetError("(s, S) grid exceeds budget")
        s_vals, S_vals = ss_pairs(axis)
        # listed in tie-break order, so the first minimum wins
        k = int(np.argmin(ss_losses_grid(s_vals, S_vals, D, p).mean(axis=1)))
        policy = SsPolicy(float(s_vals[k]), float(S_vals[k]))
        count = len(s_vals)
    elif policy_class == "st":
        axis = grid_axis(0.0, fit_cap(p.level_cap()), step)
        count = len(axis) ** p.horizon
        if count > budget:
            raise BudgetError("per-period grid exceeds budget")
        best_levels = None
        best_risk = math.inf
        for levels in st_level_grid(axis, p, len(D)):
            risks = st_losses_grid(levels, D, p).mean(axis=1)
            j = int(np.argmin(risks))
            if risks[j] < best_risk:
                best_risk = risks[j]
                best_levels = levels[j]
        policy = NonStationary(tuple(best_levels))
    else:
        raise ValueError(f"unknown policy class {policy_class!r}")

    return FitResult(
        policy=policy,
        in_sample_risk=dataset_risk(policy, data, p),
        method="grid-oracle",
        diagnostics={"candidate_count": int(count), "step": step},
    )
