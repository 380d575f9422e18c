"""Empirical risk minimization over the three policy classes.

The one-dimensional fitters are exact: the empirical risk is piecewise
linear in the level parameter, so its critical fractile, or the best of its
kinks, is a global minimizer.  The reorder-point fitter enumerates gap intervals (between
consecutive-demand-sum breakpoints) within which the reorder schedule of
every sample is frozen.  The per-period-level fitter is a multi-start
cyclic coordinate descent whose line searches are themselves exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import Sequence

import numpy as np

from .core import (
    ORDER_EPS,
    BaseStock,
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
    base_stock_fractile,
    check_closed_form_x1,
    class_losses,
    dataset_risk,
    grid_axis,
    lead_demand_sums,
    policy_grid,
    prefix_sums,
    sorted_prefix_costs,
    ss_losses_grid,
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


# The per-period-level descent: a restart stops at the sweep where its risk
# improves by less than ST_TOL, and restarts after the first jitter their
# quantile starts uniformly by up to ST_JITTER times the level cap.
ST_TOL = 1e-8
ST_JITTER = 0.05

# Most points a grid search scores before it raises BudgetError.
GRID_BUDGET = 2_000_000

# Gap x path x period cells per sorted_prefix_costs call of the integer
# (s, S) search: its temporaries stay at a few hundred KiB.
_WINDOW_BLOCK_CELLS = 1 << 14


@dataclass(frozen=True)
class StOptions:
    """Options for the per-period-level local search."""

    restarts: int = 8
    max_sweeps: int = 100
    seed: int = 0

    def __post_init__(self) -> None:
        for name in ("restarts", "max_sweeps"):
            value = getattr(self, name)
            if value < 1:
                raise ValueError(f"{name} must be >= 1, got {value}")


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


def integer_ss_axis(p: SystemParams) -> np.ndarray:
    """The integers in the (s, S) bounds of :func:`fit_ss_bounds`, as floats:
    the axis of the integer (s, S) searches.  Raises BudgetError, before it
    is built, past ``GRID_BUDGET`` points."""
    lo, hi, _ = fit_ss_bounds(p)
    return grid_axis(math.ceil(lo), math.floor(hi), 1.0, GRID_BUDGET)


# ---------------------------------------------------------------------------
# stationary base-stock
# ---------------------------------------------------------------------------


def erm_base_stock(data: Dataset, p: SystemParams) -> FitResult:
    """Exact global minimizer of the empirical risk over levels in [0, H].

    The risk is convex piecewise-linear in the level with kinks at the
    lead-time demand sums, so its smallest minimizer is their critical
    fractile (:func:`~stocklab.evaluate.base_stock_fractile`).  With K > 0 a
    level whose first order S - x1 exceeds ``ORDER_EPS`` pays K once more;
    from x1 >= -``ORDER_EPS`` level 0 does not, so it is compared with the
    fractile in exact arithmetic, and wins a tie.
    """
    D = demand_matrix(data, p)
    fit_cap(p.level_cap())
    check_closed_form_x1(p)
    S = base_stock_fractile(D, p)
    if p.K > 0 and -p.x1 <= ORDER_EPS < S - p.x1:
        # N T (risk(S) - risk(0)) is the cost at S less that at 0 over the M
        # lead-time demand sums a, (h + b) sum_{a <= S} (S - a) - b M S,
        # plus the K each of the N paths pays for S's first order
        a = [Fraction(v) for v in lead_demand_sums(D, p.L).ravel().tolist()]
        at, h, b = Fraction(S), Fraction(p.h), Fraction(p.b)
        if (h + b) * sum(at - v for v in a if v <= at) - b * len(a) * at + Fraction(p.K) * len(D) >= 0:
            S = 0.0
    policy = BaseStock(S)
    return FitResult(policy, dataset_risk(policy, data, p), "critical-fractile")


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


def _order_windows(served: np.ndarray, D: np.ndarray, p: SystemParams) -> tuple[np.ndarray, np.ndarray]:
    """The demand windows and charged reorders of (s, S) policies that order
    in period 1, from their reorder schedules ``served``, shape (gaps, N, T)
    (:func:`~stocklab.core.reorder_schedule`).

    Period t's level is S less window ``[g, i, t - 1]``, the demand from the
    order that serves t through t + L, read off one prefix-sum array; entry
    g of the second array counts the orders after period 1 that pay K.
    """
    pre = prefix_sums(D)
    windows = pre[:, p.L + 1 : p.T + p.L + 1] - pre[np.arange(len(D))[:, None], served - 1]
    # an order in period t >= 2 is charged if the demand since the last order
    # exceeds ORDER_EPS: at gap 0 that is period t - 1's demand, and at a
    # positive gap the order follows a positive one, which a dataset keeps
    # above ORDER_EPS
    charged = D[:, : p.T - 1] > ORDER_EPS
    reorders = ((served[:, :, 1:] == np.arange(2, p.T + 1)) & charged).sum(axis=(1, 2))
    return windows, reorders


def _integer_ss_pick(axis: np.ndarray, D: np.ndarray, p: SystemParams) -> SsPolicy:
    """The first (s, S) pair on the integer ``axis``, in ``ss_pairs``' (gap, S)
    order, of the smallest total cost on the paths of D (x1 at most every s).

    Every pair orders in period 1, so its schedule depends only on its gap
    g: one :func:`~stocklab.core.reorder_schedule` call gives every gap's,
    and one :func:`~stocklab.evaluate.sorted_prefix_costs` call per block of
    at most ``_WINDOW_BLOCK_CELLS`` gap x path x period cells (or of one gap)
    scores every S >= 0 on the axis against the block's windows; the cells
    with s = S - g off the axis are masked.  On integer demands the totals are
    exact for dyadic h, b and K, so the pick is the first exact minimum.
    """
    S = axis[axis >= 0.0]
    gaps = axis - axis[0]
    served = reorder_schedule(gaps, D, p)
    first = len(D) * (S - p.x1 > ORDER_EPS)
    block = max(1, _WINDOW_BLOCK_CELLS // (len(D) * p.T))
    best = (math.inf, 0.0, 0.0)  # (total, gap, S)
    for j in range(0, len(gaps), block):
        windows, reorders = _order_windows(served[j : j + block], D, p)
        g = gaps[j : j + block, None]
        totals = sorted_prefix_costs(S, windows.reshape(len(g), -1), p)
        if p.K > 0:
            totals += p.K * (reorders[:, None] + first[None, :])
        totals[S[None, :] - g < axis[0]] = math.inf
        row, col = np.unravel_index(np.argmin(totals), totals.shape)
        # a later block's pair wins only by a strictly smaller total
        if totals[row, col] < best[0]:
            best = (totals[row, col], g[row, 0], S[col])
    _, gap, level = best
    return SsPolicy(float(level - gap), float(level))


def erm_sS(data: Dataset, p: SystemParams, mode: str = "exact") -> FitResult:
    """Global empirical risk minimizer over reorder-point policies.

    ``exact`` mode enumerates gap intervals between demand-sum breakpoints;
    within an interval every sample's reorder schedule is frozen and the risk
    is convex piecewise-linear in S with kinks at the in-window demand sums.
    ``integer-grid`` mode searches the (s, S) pairs on the integers in the
    bounds, the points ``grid_oracle("ss", 1.0)`` searches, by their order
    windows (``_integer_ss_pick``), and requires integer-valued demands; its
    ``candidate_count`` is the pair count, checked against ``GRID_BUDGET``
    before any pair is scored.  Ties break toward the smallest gap, then the
    smallest S: exactly in ``integer-grid`` mode, whose totals are exact for
    dyadic h, b and K.
    """
    lo, hi, capped = fit_ss_bounds(p)
    if p.x1 > lo:
        raise ValueError(f"x1={p.x1} must not exceed the reorder-point bound {lo}")
    D = demand_matrix(data, p)

    if mode == "integer-grid":
        if not np.all(D == np.rint(D)):
            raise ValueError("integer-grid mode requires integer demands")
        axis = integer_ss_axis(p)
        count = policy_grid("ss", axis, p, GRID_BUDGET).count
        if not count:
            raise ValueError("empty (s, S) grid")
        policy = _integer_ss_pick(axis, D, p)
        return FitResult(policy, dataset_risk(policy, data, p), "integer-grid",
                         {"candidate_count": count, "capped_bounds": capped})

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
    # at most 2^16 interval x path x period cells per block bound the memory
    block = max(1, 2**16 // scale)
    best: tuple[float, float, float] | None = None  # (risk, delta, S)
    n_cands = 0
    for j in range(0, len(intervals), block):
        chunk = intervals[j : j + block]
        served = reorder_schedule(np.array([rep for _, _, rep in chunk]), D, p)
        windows, reorders = _order_windows(served, D, p)
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
    """Exact minimizer over [0, cap] of each row's empirical risk in coordinate t.

    ``levels`` holds one descent per row, shape (rows, T + L); ``pre`` the
    running demand sums of each row's dataset, shape (rows, N, T + L + 1);
    and ``head`` each row's running maximum of S^i + D[1, i-1] over the
    periods i < t, shape (rows, N).  Each charged period t̂ >= t + L
    contributes a piece that is flat until the coordinate's score overtakes
    the running maximum G of the other levels, then follows the one-period
    cost; the total is piecewise linear, so it is minimized by sweeping its
    slope-change events.

    Every event of a path's period lies at or above its v1 = G - A, which
    rises along the periods, so G, v1 and the windows W are built over the
    first 4, 8, ... periods of the suffix until the last one's v1 reaches
    the cap on every row and path.  Past that window a period's cost does
    not depend on the coordinate, so the line is scored up to a constant,
    from 0 at level 0, with slopes c_h h + c_b b from integer counts of h-
    and b-units.  Events at or beyond the cap are dropped; each row's others
    are padded at the cap with no units.  A flat piece then adds exactly 0
    whenever c_h h + c_b b is exactly 0, as it is for integer h and b, so
    the pick, the first minimum, is the smallest level among exact ties; and
    no row's floats depend on the other rows or on the window's width.
    """
    rows = len(head)
    suffix = p.T - t + 1
    A = pre[:, :, t - 1 : t]
    first = np.maximum(head, p.x1)[:, :, None]
    width = 4
    while True:
        w = min(width, suffix)
        later = levels[:, None, t : t + w - 1] + pre[:, :, t : t + w - 1]
        v1 = np.maximum.accumulate(np.concatenate([first, later], axis=2), axis=2) - A
        floor = v1.min(axis=(0, 1))
        if w == suffix or floor[-1] >= cap:
            break
        width *= 2
    m = int(np.searchsorted(floor, cap))
    v2 = (pre[:, :, t + p.L : t + p.L + m] - A).reshape(rows, -1)
    v1 = v1[:, :, :m].reshape(rows, -1)
    # events of kind 0: sloped v1 (-1 b-unit), 1: sloped v2 (+1 b-unit,
    # +1 h-unit), 2: unsloped v1 (+1 h-unit), each in path-major order; kind
    # 3 pads a row at the cap with no units
    sloped = v1 < v2
    positions = np.concatenate([v1, v2, v1], axis=1)
    keep = np.concatenate([sloped, sloped, ~sloped], axis=1) & (positions < cap)
    counts = keep.sum(axis=1)
    filled = np.arange(counts.max(initial=0))[None, :] < counts[:, None]
    pos = np.full(filled.shape, cap)
    pos[filled] = positions[keep]
    kinds = np.full(filled.shape, 3)
    kinds[filled] = np.broadcast_to(np.repeat(np.arange(3), v1.shape[1]), keep.shape)[keep]

    order = np.argsort(pos, axis=1, kind="stable")
    ix = np.arange(rows)[:, None]
    kinds = kinds[ix, order]
    c_h = np.cumsum(np.array([0, 1, 1, 0])[kinds], axis=1)
    c_b = np.cumsum(np.array([-1, 1, 0, 0])[kinds], axis=1)
    zero = np.zeros((rows, 1))
    pts = np.concatenate([zero, np.maximum(pos[ix, order], 0.0), np.full((rows, 1), cap)], axis=1)
    slopes = np.concatenate([zero, c_h * p.h + c_b * p.b], axis=1)
    values = np.concatenate([zero, np.cumsum(slopes * np.diff(pts, axis=1), axis=1)], axis=1)
    return pts[np.arange(rows), np.argmin(values, axis=1)]


def erm_St(data: Dataset, p: SystemParams, opts: StOptions | None = None) -> FitResult:
    """Multi-start cyclic coordinate descent over per-period order-up-to levels.

    Requires K = 0 (the per-period-level class is fitted without fixed
    costs).  Restart 0 starts from the stationary base-stock fit at x1 <= 0,
    the critical fractile of the pooled lead-time demand sums (with K = 0 it
    does not depend on x1); later restarts start from per-period
    critical-fractile quantiles of lead-time demand plus seeded uniform
    jitter.  Each coordinate step is an exact line minimization (its tie
    rule: the smallest level among exact ties; see ``_coordinate_minima``),
    so every sweep is monotone.

    The restarts share one leading axis: every sweep runs one batched line
    search per coordinate over the restarts still descending, and a restart
    leaves that set at the sweep where its risk improves by less than
    ``ST_TOL``.  The best restart is the first with the smallest final risk;
    ``sweeps`` counts the sweeps of all restarts.  This is the one-dataset
    case of :func:`erm_St_batch`.
    """
    return erm_St_batch([data], p, opts)[0]


def erm_St_batch(
    datasets: Sequence[Dataset], p: SystemParams, opts: StOptions | None = None
) -> list[FitResult]:
    """:func:`erm_St` on each of B datasets with the same number of paths, in
    one descent.

    The B x R (dataset, restart) pairs share the leading axis, dataset-major,
    and each row carries its dataset's prefix sums.  Each dataset keeps its
    own restarts (its base-stock start and quantiles, with the jitter drawn
    from ``opts.seed``, the same for every dataset), live set, convergence
    flags and ``sweeps`` count.  A row's line searches and risks do not
    depend on the other rows, so every fit is bit for bit the fit of its
    dataset alone.  Datasets of unequal N raise ValueError.
    """
    if p.K != 0:
        raise ValueError("per-period-level fitting requires K = 0")
    opts = opts or StOptions()
    Ds = [demand_matrix(data, p) for data in datasets]
    if len({len(D) for D in Ds}) > 1:
        raise ValueError("a batch of per-period-level fits needs datasets of equal N")
    cap = fit_cap(p.level_cap())
    if not Ds:
        return []

    fractile = p.b / (p.b + p.h) if p.b + p.h > 0 else 0.5
    jitter = ST_JITTER * cap
    rng = make_rng(opts.seed)
    noise = [rng.uniform(-jitter, jitter, p.T) for _ in range(opts.restarts - 1)]
    R = len(noise) + 1
    levels = np.zeros((len(Ds) * R, p.horizon))
    for k, D in enumerate(Ds):
        quantiles = np.quantile(lead_demand_sums(D, p.L), fractile, axis=0)
        start = base_stock_fractile(D, p)
        starts = [np.full(p.T, start)] + [np.clip(quantiles + e, 0.0, cap) for e in noise]
        levels[k * R : (k + 1) * R, : p.T] = np.clip(starts, 0.0, cap)

    pre = np.stack([prefix_sums(D) for D in Ds])
    owner = np.repeat(np.arange(len(Ds)), R)

    def mean_losses(rows: np.ndarray, lv: np.ndarray) -> np.ndarray:
        out = np.empty(len(rows))
        for k in np.unique(owner[rows]):
            mine = owner[rows] == k
            out[mine] = st_losses_grid(lv[mine], Ds[k], p).mean(axis=1)
        return out

    live = np.arange(len(levels))
    risk = mean_losses(live, levels)
    converged = np.zeros(len(levels), dtype=bool)
    sweeps = np.zeros(len(Ds), dtype=int)
    for _ in range(opts.max_sweeps):
        if not len(live):
            break
        cur = levels[live]
        rpre = pre[owner[live]]
        head = np.full(rpre.shape[:2], -np.inf)  # running max of periods < t
        for t in range(1, p.T + 1):
            cur[:, t - 1] = _coordinate_minima(cur, t, head, rpre, p, cap)
            head = np.maximum(head, cur[:, t - 1 : t] + rpre[:, :, t - 1])
        levels[live] = cur
        new_risk = mean_losses(live, cur)
        sweeps += np.bincount(owner[live], minlength=len(Ds))
        done = risk[live] - new_risk < ST_TOL
        risk[live] = np.where(done, np.minimum(risk[live], new_risk), new_risk)
        converged[live[done]] = True
        live = live[~done]

    fits = []
    for k, D in enumerate(Ds):
        best = k * R + int(np.argmin(risk[k * R : (k + 1) * R]))
        fits.append(FitResult(
            policy=NonStationary(tuple(levels[best])),
            in_sample_risk=float(st_losses(levels[best], D, p).mean()),
            method="coordinate-descent",
            diagnostics={
                "restarts": R,
                "converged": bool(converged[best]),
                "sweeps": int(sweeps[k]),
                "tol": ST_TOL,
            },
        ))
    return fits


# ---------------------------------------------------------------------------
# brute-force oracle
# ---------------------------------------------------------------------------


def grid_search(
    policy_class: str, axis: np.ndarray, D: np.ndarray, p: SystemParams
) -> tuple[Policy, float, int]:
    """The first smallest empirical risk on the paths of D over the class's
    grid on ``axis``: that policy, its risk and the grid's point count.

    Each chunk is scored by one :func:`~stocklab.evaluate.class_losses`
    call, and a later chunk's point wins only by a strictly smaller risk, so
    the pick is the first minimum in the grid's tie-break order.  Raises
    BudgetError, before any point is built, past ``GRID_BUDGET`` points.
    """
    grid = policy_grid(policy_class, axis, p, GRID_BUDGET)
    best, best_risk = None, math.inf
    for chunk in grid.chunks(len(D)):
        risks = class_losses(policy_class, chunk, D, p).mean(axis=1)
        j = int(np.argmin(risks))
        if risks[j] < best_risk:
            best, best_risk = chunk[j], float(risks[j])
    return grid.policy(best), best_risk, grid.count


def grid_oracle(data: Dataset, policy_class: str, step: float, p: SystemParams) -> FitResult:
    """Exhaustive minimizer over a parameter grid, for tests and benchmarks.

    ``policy_class`` is one of ``base-stock``, ``ss``, ``st``, searched by
    :func:`grid_search` on the points ``step`` apart in the class bounds,
    [Hlo, H] for ``ss`` and [0, H] for the others; ``candidate_count`` is
    the grid's point count, ``len(axis) ** T`` for ``st``.
    """
    D = demand_matrix(data, p)
    lo, hi = fit_ss_bounds(p)[:2] if policy_class == "ss" else (0.0, fit_cap(p.level_cap()))
    policy, _, count = grid_search(policy_class, grid_axis(lo, hi, step, GRID_BUDGET), D, p)
    return FitResult(policy, dataset_risk(policy, data, p), "grid-oracle",
                     {"candidate_count": count, "step": step})
