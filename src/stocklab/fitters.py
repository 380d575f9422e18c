"""Empirical risk minimization over the three policy classes.

The one-dimensional fitters are exact: the empirical risk is piecewise
linear in the level parameter, so its critical fractile, or the best of its
kinks, is a global minimizer.  The reorder-point fitter takes one clamped
critical fractile per class of gaps within which the reorder schedule of
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
    _BLOCK_CELLS,
    base_stock_fractile,
    check_closed_form_x1,
    class_losses,
    critical_fractile,
    dataset_risk,
    grid_axis,
    lead_demand_sums,
    policy_grid,
    prefix_sums,
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

# Gap x path x period cells per block of order windows that the (s, S) fits
# score: their temporaries stay at a few hundred KiB.
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
    if p.K > 0 and -p.x1 <= ORDER_EPS < S - p.x1 and _skips_first_order(
            lead_demand_sums(D, p.L), 0.0, S, len(D), p):
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
    in period 1, from their reorder schedules ``served``, shape (gaps, N, T):
    period t's level is S less window ``[g, i, t - 1]``, the demand from the
    order that serves t through t + L, read off one prefix-sum array; entry
    g of the second array counts the orders after period 1 that pay K."""
    pre = prefix_sums(D)
    windows = pre[:, p.L + 1 : p.T + p.L + 1] - pre[np.arange(len(D))[:, None], served - 1]
    # an order in period t >= 2 is charged if the demand since the last order
    # exceeds ORDER_EPS: at gap 0 that is period t - 1's demand, and at a
    # positive gap the order follows a positive one, which a dataset keeps
    # above ORDER_EPS
    charged = D[:, : p.T - 1] > ORDER_EPS
    reorders = ((served[:, :, 1:] == np.arange(2, p.T + 1)) & charged).sum(axis=(1, 2))
    return windows, reorders


def _skips_first_order(a: np.ndarray, low: float, level: float, n: int, p: SystemParams) -> bool:
    """Whether ``low``, whose n paths place no first order, costs at most
    ``level`` and its n first-order K's against the values a, in exact
    arithmetic: sum c(S - a) is (h + b) sum_{a <= S} (S - a) - b m S + const."""
    a, lo, S = [Fraction(v) for v in np.ravel(a).tolist()], Fraction(low), Fraction(level)
    rise = sum(S - v for v in a if v <= S) - sum(lo - v for v in a if v <= lo)
    return (Fraction(p.h) + Fraction(p.b)) * rise - Fraction(p.b) * len(a) * (S - lo) + Fraction(p.K) * n >= 0


def _gap_class_picks(gaps: np.ndarray, lows: np.ndarray, hi: float, D: np.ndarray, p: SystemParams,
                     above: tuple[float, np.ndarray] | None = None) -> tuple[np.ndarray, ...]:
    """Each (s, S) gap class's smallest S in [lowest S, hi] of the least total
    cost on the paths of D (x1 at most every s): the levels, their holding
    and backlog costs (:func:`~stocklab.evaluate.sorted_prefix_costs`'
    floats), their charged orders, and the count of levels scored.

    Class c orders with gap ``gaps[c]``; its lowest S is ``lows[c]`` or,
    with ``above = (lo, offsets)``, a smaller window w <= hi with
    w - lo > offsets[c].  Every pair orders in period 1, so its schedule
    depends only on its gap and its cost in S is sum c(S - w) over its
    windows w: only their critical fractile, clamped into [lowest S, hi],
    and the lowest S, the one level that can skip the first order's K, are
    scored, compared exactly; the lowest wins a tie.  One
    :func:`~stocklab.core.reorder_schedule` call covers ``_BLOCK_CELLS``
    cells, and ``_order_windows`` blocks of ``_WINDOW_BLOCK_CELLS``.
    """
    n, m = len(D), len(D) * p.T
    block = max(1, _WINDOW_BLOCK_CELLS // m)
    chunk = block * max(1, _BLOCK_CELLS // (block * m))
    levels, costs, charges = np.empty(len(gaps)), np.empty(len(gaps)), np.empty(len(gaps), dtype=np.intp)
    scored = 0
    for j in range(0, len(gaps), block):
        if j % chunk == 0:
            served = reorder_schedule(gaps[j : j + chunk], D, p)
        windows, reorders = _order_windows(served[j % chunk : j % chunk + block], D, p)
        rows = np.sort(windows.reshape(len(windows), -1), axis=1)
        low = lows[j : j + block]
        if above is not None:
            ok = (rows <= hi) & (rows - above[0] > above[1][j : j + block, None])
            low = np.minimum(low, np.where(ok, rows, np.inf).min(axis=1))
        S = critical_fractile(rows, low, hi, p)
        scored += len(S) + int((S > low).sum())
        if p.K > 0:
            for i in np.flatnonzero((low - p.x1 <= ORDER_EPS) & (S - p.x1 > ORDER_EPS)):
                if _skips_first_order(rows[i], low[i], S[i], n, p):
                    S[i] = low[i]
        # h (S k - prefix[k]) on the k windows below S, b (sum - prefix[k] - S (m - k)) on the rest
        k = (rows < S[:, None]).sum(axis=1)
        prefix = prefix_sums(rows)
        below = prefix[np.arange(len(rows)), k]
        costs[j : j + block] = p.h * (S * k - below) + p.b * ((prefix[:, -1] - below) - S * (m - k))
        charges[j : j + block] = reorders + n * (S - p.x1 > ORDER_EPS)
        levels[j : j + block] = S
    return levels, costs, charges, scored


def erm_sS(data: Dataset, p: SystemParams, mode: str = "exact") -> FitResult:
    """Global empirical risk minimizer over reorder-point policies.

    Both modes score classes of gaps that share every sample's reorder
    schedule, by one clamped critical fractile each (``_gap_class_picks``).
    ``exact`` mode has one class per gap interval (a, b] between demand-sum
    breakpoints, whose lowest S is the least of 0, H, Hlo + a + 1e-9 (Hlo
    itself at gap 0, all clipped into [0, H]) and the windows that leave
    s >= Hlo; ``candidate_count`` counts the levels scored.
    ``integer-grid`` mode, for integer demands, has one class per
    gap of the integer pairs in the bounds, ``grid_oracle("ss", 1.0)``'s
    points; ``candidate_count`` is their count, checked against
    ``GRID_BUDGET`` first.  Ties go to the smallest gap, then the smallest S:
    exactly within a class, and in ``integer-grid`` mode, whose totals are
    exact for dyadic h, b and K, across classes too.
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
        gaps = axis - axis[0]
        levels, costs, charges, _ = _gap_class_picks(gaps, np.maximum(axis, 0.0), axis[-1], D, p)
        g = int(np.argmin(costs + p.K * charges))
        policy = SsPolicy(float(levels[g] - gaps[g]), float(levels[g]))
        return FitResult(policy, dataset_risk(policy, data, p), "integer-grid",
                         {"candidate_count": count, "capped_bounds": capped})

    if mode != "exact":
        raise ValueError(f"unknown mode {mode!r}")

    # the gap-0 class, then one class per interval (a, b] between adjacent
    # edges: 0, the breakpoints between 0 and hi - lo, and hi - lo
    edges = np.unique(np.clip(np.append(delta_breakpoints(D, p), [0.0, hi - lo]), 0.0, hi - lo))
    a, reps = np.append(0.0, edges[:-1]), np.append(0.0, (edges[:-1] + edges[1:]) / 2.0)
    # S is feasible if a gap of the class leaves s = S - gap >= lo: S - lo > a,
    # or S - lo >= 0 at gap 0; a class with a feasible S has H among them
    offsets = np.append(np.nextafter(0.0, -1.0), a[1:])
    # the least S over the bound: lo itself at gap 0, lo + a + 1e-9 past it
    above = np.clip(lo + a + np.append(0.0, np.full(len(a) - 1, 1e-9)), 0.0, hi)
    fixed = np.stack([np.zeros_like(a), np.full_like(a, hi), above], axis=1)
    lows = np.where(fixed - lo > offsets[:, None], fixed, np.inf).min(axis=1)
    live = np.flatnonzero(lows < np.inf)
    if not len(live):
        raise ValueError("no feasible (s, S) candidate")
    levels, costs, charges, scored = _gap_class_picks(reps[live], lows[live], hi, D, p, (lo, offsets[live]))
    c = int(np.argmin(costs / (len(D) * p.T) + p.K * charges / (len(D) * p.T)))
    S = float(levels[c])
    # the class's gap, but no s below lo: S - (S - lo) can round below it
    policy = SsPolicy(S if live[c] == 0 else max(S - float(reps[live[c]]), lo), S)
    return FitResult(policy, dataset_risk(policy, data, p), "gap-interval-enumeration",
                     {"candidate_count": scored, "interval_count": len(reps), "capped_bounds": capped})


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
