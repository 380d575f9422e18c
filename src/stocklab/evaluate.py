"""Vectorized loss evaluation and exact risk computation.

``simulate`` in :mod:`stocklab.core` is the single-path reference; the batch
evaluators here reproduce its dynamics across whole datasets or policy grids
with numpy, and the ``exact_*`` functions compute true expected losses under
independent integer-valued demand processes by propagating probability mass
over integer lattices.
"""

from __future__ import annotations

import functools
import itertools
import math
import warnings
from fractions import Fraction
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

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
    demand_matrix,
    simulate,
)
from .demand import DemandModel, draw, marginal_pmfs, support_atoms


# Cells per kernel call: paths x levels in base_stock_loss_matrix, and
# policies x paths x periods in the per-period grid oracle's chunks; blocks
# keep each kernel's temporaries to a few times this size.
_BLOCK_CELLS = 1 << 20

# Policy x path x period cells per st_losses_grid call of block_losses: its
# temporaries stay at a few hundred KiB, below the peak memory that scoring
# the block's policies one at a time already reaches.
_POLICY_BLOCK_CELLS = 1 << 14


def cost_array(x: np.ndarray, p: SystemParams) -> np.ndarray:
    """Elementwise holding/backlogging cost."""
    return p.h * np.maximum(x, 0.0) - p.b * np.minimum(x, 0.0)


# ---------------------------------------------------------------------------
# batch empirical losses
# ---------------------------------------------------------------------------


def prefix_sums(D: np.ndarray) -> np.ndarray:
    """Running demand sums: column t of row i is d^1 + ... + d^t, shape (N, T + L + 1)."""
    return np.concatenate([np.zeros((D.shape[0], 1)), np.cumsum(D, axis=1)], axis=1)


def lead_demand_sums(D: np.ndarray, L: int) -> np.ndarray:
    """Sums d^{t-L} + ... + d^t for t = L+1 .. T+L, shape (N, T)."""
    csum = prefix_sums(D)
    return csum[:, L + 1 :] - csum[:, : D.shape[1] - L]


def sorted_prefix_costs(levels: np.ndarray, a: np.ndarray, p: SystemParams) -> np.ndarray:
    """Exact sum_j c(level - a[i, j]) for every row i and level, shape (n_rows, n_levels).

    With a row sorted, the k entries below a level cost h (k level - their
    prefix sum) and the other m - k cost b (their sum - (m - k) level).
    """
    lv = np.asarray(levels, dtype=float)
    rows = np.sort(np.asarray(a, dtype=float), axis=1)
    n, m = rows.shape
    prefix = prefix_sums(rows)
    order = np.argsort(lv, kind="stable")
    # entry a[i, j] lies below exactly the sorted levels from index pos on
    pos = np.searchsorted(lv[order], rows, side="right")
    pos += (len(lv) + 1) * np.arange(n)[:, None]
    counts = np.bincount(pos.ravel(), minlength=n * (len(lv) + 1)).reshape(n, -1)
    k = np.empty((n, len(lv)), dtype=np.intp)
    k[:, order] = np.cumsum(counts, axis=1)[:, :-1]
    below = np.take_along_axis(prefix, k, axis=1)
    hold = p.h * (lv * k - below)
    back = p.b * ((prefix[:, -1:] - below) - lv * (m - k))
    return hold + back


def check_closed_form_x1(p: SystemParams) -> None:
    """Reject x1 > 0, where the order-every-period closed form does not hold."""
    if p.x1 > 0:
        raise ValueError(f"the base-stock closed form needs x1 <= 0, got x1={p.x1}")


def base_stock_loss_matrix(levels: np.ndarray, D: np.ndarray, p: SystemParams) -> np.ndarray:
    """Exact loss ell(level, path) of base-stock levels, shape (n_levels, N).

    Requires ``S >= 0 >= x1`` so that the position is replenished to S every
    period; then the level at the end of each charged period t is S minus
    the demand of periods t-L .. t.

    A first order S - x1 in (0, ``ORDER_EPS``] is placed here, and
    :func:`~stocklab.core.simulate` drops it, so until the first positive
    demand the level sits above simulate's by at most ``ORDER_EPS``.  A
    path's loss then differs from simulate's ``avg_loss`` by at most
    max(h, b) ``ORDER_EPS``, and never by a K charge on demands a Dataset
    accepts (0 or above ``ORDER_EPS``).
    """
    check_closed_form_x1(p)
    lv = np.asarray(levels, dtype=float)
    sums = lead_demand_sums(D, p.L)
    out = np.empty((len(lv), len(sums)))
    step = max(1, _BLOCK_CELLS // max(len(lv), 1))
    for i in range(0, len(sums), step):
        out[:, i : i + step] = sorted_prefix_costs(lv, sums[i : i + step], p).T / p.T
    if p.K > 0:
        # per path, one charged order for each positive demand in periods
        # 1 .. T-1; per level, whether the period-1 order S - x1 is positive
        charges = (D[:, : p.T - 1] > ORDER_EPS).sum(axis=1)
        out += (p.K / p.T) * charges.astype(float)[None, :]
        out += (p.K / p.T) * (lv - p.x1 > ORDER_EPS)[:, None]
    return out


def base_stock_kinks(D: np.ndarray, p: SystemParams) -> np.ndarray:
    """Every lead-demand sum in [0, cap] plus the endpoints: the kinks of the
    piecewise-linear empirical risk, where its minimum and suprema lie.

    The risk has these kinks only when ``S >= 0 >= x1``, so x1 > 0 is rejected.
    """
    check_closed_form_x1(p)
    hi = p.level_cap()
    cands = np.concatenate([lead_demand_sums(D, p.L).ravel(), [0.0, hi]])
    return np.unique(cands[(cands >= 0.0) & (cands <= hi)])


def critical_fractile(a: np.ndarray, lo, hi, p: SystemParams) -> np.ndarray:
    """Row-wise critical fractile: for each row of ``a``, shape (rows, m), the
    smallest level in [lo, hi] (scalars or one per row) that minimizes
    sum_j c(level - a[i, j]), the k-th smallest entry clipped into [lo, hi]
    for the least integer k with h k >= b (m - k), or lo when k = 0.  k is
    found in exact arithmetic on h and b, so a tie goes to the smaller level.
    """
    h, b = Fraction(p.h), Fraction(p.b)
    k = math.ceil(b * a.shape[1] / (h + b)) if h + b > 0 else 0
    kth = np.partition(a, k - 1, axis=1)[:, k - 1] if k else np.full(len(a), -np.inf)
    return np.clip(kth, lo, hi)


def base_stock_fractile(D: np.ndarray, p: SystemParams) -> float:
    """The :func:`critical_fractile` in [0, H] of the pooled lead-time demand
    sums: the base-stock ERM when x1 <= 0 and K = 0 (x1 is not read)."""
    sums = lead_demand_sums(D, p.L).reshape(1, -1)
    return float(critical_fractile(sums, 0.0, p.level_cap(), p)[0])


def st_losses_grid(levels: np.ndarray, D: np.ndarray, p: SystemParams) -> np.ndarray:
    """Losses of many per-period order-up-to policies on every row of D.

    ``levels`` has one policy per row, shape (n_policies, T + L); the result
    has shape (n_policies, N).  Uses the running-max identity: the post-order
    position in period t is max(x1, max_{t'' <= t} (S^{t''} + D[1, t''-1]))
    - D[1, t-1], so the level after the period-t arrival is that maximum
    evaluated at t - L minus the demand accumulated through t.  Only periods
    1 .. T order anything that arrives in time, so the last L levels are
    never read.

    The kernel runs period-major: the scores live in one (T, n_policies, N)
    buffer, so each running-max step is an in-place operation on contiguous
    (n_policies, N) slices, and the cost is computed in that buffer with one
    work array.  The sum over periods is still taken on a
    (n_policies, N, T) contiguous copy: numpy sums 8 or more terms on
    a contiguous axis through 8 partial accumulators, not left to right,
    and the losses keep the floats of that order.

    A first order S^1 - x1 in (0, ``ORDER_EPS``] is placed here, and
    :func:`~stocklab.core.simulate` drops it, so until simulate's first
    order the level sits above simulate's by at most ``ORDER_EPS``.  A
    path's loss then differs from simulate's ``avg_loss`` by at most
    max(h, b) ``ORDER_EPS``, and never by a K charge unless a later score
    S^t + D[1, t-1] lies within 2 ``ORDER_EPS`` above x1.
    """
    lv = np.asarray(levels, dtype=float)
    n, horizon = D.shape
    if lv.ndim != 2 or lv.shape[1] != horizon:
        raise ValueError(f"levels must have shape (n_policies, T + L = {horizon})")
    pre = prefix_sums(D)
    m = np.empty((p.T, len(lv), n))
    np.add(lv[:, : p.T].T[:, :, None], pre[:, : p.T].T[:, None, :], out=m)
    np.maximum(m, p.x1, out=m)
    for t in range(1, p.T):
        np.maximum(m[t - 1], m[t], out=m[t])
    work = np.empty_like(m)
    if p.K > 0:
        # a period orders when its running max rises above the last one
        np.subtract(m[0], p.x1, out=work[0])
        np.subtract(m[1:], m[:-1], out=work[1:])
        orders = (work > ORDER_EPS).sum(axis=0)
    # m becomes the end-of-period levels, then cost_array of them, in place
    m -= pre[:, p.L + 1 : horizon + 1].T[:, None, :]
    np.minimum(m, 0.0, out=work)
    work *= p.b
    np.maximum(m, 0.0, out=m)
    m *= p.h
    m -= work
    total = m.transpose(1, 2, 0).copy().sum(axis=2)
    if p.K > 0:
        total += p.K * orders
    return total / p.T


def st_level_grid(axis: np.ndarray, p: SystemParams, n_paths: int) -> Iterator[np.ndarray]:
    """Every per-period policy with levels on ``axis``, in chunks for ``st_losses_grid``.

    Only the first T levels reach the loss, so only they are enumerated, in
    ``itertools.product`` order; the last L stay at ``axis[0]``.  Each chunk
    of shape (n_policies, T + L) scores in at most ``_BLOCK_CELLS`` policy x
    path x period cells on ``n_paths`` paths.
    """
    shape = (len(axis),) * p.T
    n_combos = len(axis) ** p.T
    chunk = max(1, _BLOCK_CELLS // (n_paths * p.T))
    for lo in range(0, n_combos, chunk):
        codes = np.arange(lo, min(lo + chunk, n_combos))
        levels = np.full((len(codes), p.horizon), axis[0])
        levels[:, : p.T] = axis[np.stack(np.unravel_index(codes, shape), axis=1)]
        yield levels


def st_losses(levels: np.ndarray, D: np.ndarray, p: SystemParams) -> np.ndarray:
    """Loss of one per-period order-up-to policy on every row of D, shape (N,)."""
    return st_losses_grid(np.asarray(levels, dtype=float)[None, :], D, p)[0]


def ss_losses_grid(
    s_vals: np.ndarray, S_vals: np.ndarray, D: np.ndarray, p: SystemParams
) -> np.ndarray:
    """Losses of many (s, S) policies on many paths, shape (n_policies, N).

    ``s_vals`` and ``S_vals`` are parallel arrays of policy parameters.
    The initial level is ``p.x1`` regardless of s, so policies with
    s < x1 simply place their first order later.
    """
    s = np.asarray(s_vals, dtype=float)[:, None]
    S = np.asarray(S_vals, dtype=float)[:, None]
    n_pol = s.shape[0]
    n = D.shape[0]
    pos = np.full((n_pol, n), float(p.x1))
    total = np.zeros((n_pol, n))
    csum = prefix_sums(D)
    # two work buffers serve every period: fresh temporaries of this size in
    # each period are returned to the OS and faulted back in
    work = np.empty((n_pol, n))
    cost = np.empty((n_pol, n))
    for t in range(1, p.T + 1):
        np.subtract(S, pos, out=work)
        order = (pos <= s) & (work > ORDER_EPS)
        post = np.where(order, S, pos)
        lead = (csum[:, t + p.L] - csum[:, t - 1])[None, :]
        # total += cost_array(post - lead, p), term by term in place
        np.subtract(post, lead, out=work)
        np.maximum(work, 0.0, out=cost)
        cost *= p.h
        np.minimum(work, 0.0, out=work)
        work *= p.b
        cost -= work
        total += cost
        if p.K > 0:
            np.multiply(order, p.K, out=cost)
            total += cost
        np.subtract(post, D[:, t - 1][None, :], out=pos)
    return total / p.T


def policy_losses(policy: Policy, D: np.ndarray, p: SystemParams) -> np.ndarray:
    """Per-path losses of a single policy, shape (N,): its row of :func:`block_losses`."""
    return block_losses([policy], D, p)[0]


def _class_points(policies: Sequence[Policy], p: SystemParams) -> Iterator[tuple[str, list[int], np.ndarray]]:
    """The one map from policies to class points: each class in the block with
    its policies' rows and points.  A base-stock level from x1 > 0, where its
    closed forms fail, is the point of levels S, ..., S."""
    groups: dict[str, list] = {}  # class -> (row, point) of each of its policies
    for i, policy in enumerate(policies):
        if isinstance(policy, BaseStock):
            cls, point = ("base-stock", policy.S) if p.x1 <= 0 else ("st", [policy.S] * p.horizon)
        elif isinstance(policy, SsPolicy):
            cls, point = "ss", (policy.s, policy.S)
        elif isinstance(policy, NonStationary):
            cls, point = "st", policy.levels
        else:
            raise TypeError(f"unknown policy type {type(policy)!r}")
        groups.setdefault(cls, []).append((i, point))
    for cls, members in groups.items():
        rows, points = zip(*members)
        yield cls, list(rows), np.array(points, dtype=float)


def block_losses(policies: Sequence[Policy], D: np.ndarray, p: SystemParams) -> np.ndarray:
    """Losses of a block of policies on every row of D, shape (n_policies, N): one :func:`class_losses`
    call per class, per-period levels in calls of at most ``_POLICY_BLOCK_CELLS`` cells.  Each
    row is computed on its own, so a policy gets the same floats in any block."""
    out = np.empty((len(policies), len(D)))
    for cls, rows, points in _class_points(policies, p):
        step = max(1, _POLICY_BLOCK_CELLS // D.size) if cls == "st" else len(rows)
        for i in range(0, len(rows), step):
            out[rows[i : i + step]] = class_losses(cls, points[i : i + step], D, p)
    return out


def dataset_risk(policy: Policy, data: Dataset, p: SystemParams) -> float:
    """Empirical risk: mean loss of the policy over the dataset."""
    return float(policy_losses(policy, demand_matrix(data, p), p).mean())


# ---------------------------------------------------------------------------
# exact risks under independent integer demands
# ---------------------------------------------------------------------------


def lead_pmf(pmfs: Sequence[np.ndarray], t: int, L: int) -> np.ndarray:
    """pmf of d^t + ... + d^{t+L} (1-indexed t) by convolution."""
    out = np.asarray(pmfs[t - 1], dtype=float)
    for k in range(t, t + L):
        out = np.convolve(out, pmfs[k])
    return out


def _expected_cost_of_level(level: np.ndarray | float, pmf: np.ndarray, p: SystemParams) -> np.ndarray:
    """E c(level - D) for D ~ pmf, broadcast over an array of levels."""
    lv = np.atleast_1d(np.asarray(level, dtype=float))
    diffs = lv[:, None] - np.arange(len(pmf))[None, :]
    # each row sums on its own: a matrix-vector product may round a row
    # differently with the number of rows it is given
    return (cost_array(diffs, p) * pmf).sum(axis=1)


def exact_base_stock_risk(
    S: float | np.ndarray, pmfs: Sequence[np.ndarray], p: SystemParams
) -> float | np.ndarray:
    """Exact expected loss of base-stock levels (requires S >= 0 >= x1).

    ``S`` may be one level, for which a float is returned, or an array of
    levels, for which the array of their risks is returned.  Each level's
    terms are added period by period in the same order either way.

    ``simulate`` drops a first order S - x1 of at most ``ORDER_EPS``, so such
    a level waits at x1 until the first positive demand.
    """
    check_closed_form_x1(p)
    lv = np.atleast_1d(np.asarray(S, dtype=float))
    dust = (lv - p.x1 > 0.0) & (lv - p.x1 <= ORDER_EPS)
    waiting = 1.0  # probability that no demand came before period t
    total = np.zeros(len(lv))
    for t in range(1, p.T + 1):
        lp = lead_pmf(pmfs, t, p.L)
        cost = _expected_cost_of_level(lv, lp, p)
        if dust.any():
            wait = _expected_cost_of_level(p.x1, lp, p)
            cost = np.where(dust, (1.0 - waiting) * cost + waiting * wait, cost)
        total += cost
        waiting *= pmfs[t - 1][0]
        if p.K > 0:
            if t == 1:
                total += p.K * (lv - p.x1 > ORDER_EPS)
            else:
                total += p.K * (1.0 - pmfs[t - 2][0])
    risks = total / p.T
    return float(risks[0]) if np.ndim(S) == 0 else risks


def exact_base_stock_levels(pmfs: Sequence[np.ndarray], p: SystemParams) -> np.ndarray:
    """Every kink of the exact base-stock risk curve in [0, cap], plus the cap.

    Lead-time demand is integer and at most (L + 1) times the largest
    per-period demand, so the curve is linear between those integers; none
    of them lies above a fractional cap.
    """
    umax = max(len(f) for f in pmfs) - 1
    cands = np.arange(0.0, math.floor(min((p.L + 1) * umax, p.level_cap())) + 1.0)
    return np.unique(np.append(cands, p.level_cap()))


def _reorder_offsets(top: float | np.ndarray, s: float | np.ndarray) -> np.ndarray:
    """Smallest integer k >= 0 with ``top - k <= s``, elementwise, as floats.

    This is the offset at which an (s, S) policy first reorders from
    position ``top`` on an integer demand lattice.  ``ceil(top - s)`` can be
    one off when the difference rounds across an integer, so the candidate
    is checked against the lattice positions themselves.
    """
    top = np.asarray(top, dtype=float)
    s = np.asarray(s, dtype=float)
    k = np.maximum(np.ceil(top - s), 0.0)
    k = k + (top - k > s)
    return k - ((k > 0) & (top - (k - 1) <= s))


def _lattice_risk(
    reorder: np.ndarray, target: np.ndarray, pmfs: Sequence[np.ndarray], p: SystemParams
) -> float:
    """Exact expected loss of ordering up to ``target[t - 1]`` in period t
    whenever the position is at or below ``reorder[t - 1]``, under independent
    integer demands.

    Every reachable position is a top (x1 or a target) minus an integer, so
    the mass lives in one array with a row per distinct fractional part of
    the tops and a column per integer; position ``frac + z`` is the same float
    as ``top - k``.  As in ``simulate``, a state orders if and only if its
    position is at or below the reorder point and its order exceeds
    ``ORDER_EPS``; that one mask moves its mass and charges K.
    """
    tops = np.append(target[: p.T], p.x1)
    base = np.floor(tops)
    fracs, row = np.unique(tops - base, return_inverse=True)
    umax = max(len(f) for f in pmfs) - 1
    # mass that places no order sits above min(reorder, target) - ORDER_EPS,
    # so one period of demand leaves it above the first column
    lo = int(min(base.min(), np.floor(reorder[: p.T].min()))) - umax - 2
    width = int(base.max()) - lo + 1
    col = (base - lo).astype(np.intp)
    lps = [lead_pmf(pmfs, t, p.L) for t in range(1, p.T + 1)]
    m = max(len(lp) for lp in lps)
    # the cost of every level a cell's position minus a lead demand can reach
    levels = fracs[:, None] + np.arange(lo - m + 1, lo + width)[None, :]
    costs = cost_array(levels, p)
    pos = levels[:, m - 1 :]
    mass = np.zeros((len(fracs), width + umax))  # the last umax columns stay empty
    mass[row[-1], col[-1]] = 1.0
    total = 0.0
    for t in range(p.T):
        # positions rise along a row, so the states that order are a prefix of it
        cuts = ((pos <= reorder[t]) & (target[t] - pos > ORDER_EPS)).sum(axis=1)
        ordered = 0.0
        for r in np.flatnonzero(cuts):
            ordered += mass[r, : cuts[r]].sum()
            mass[r, : cuts[r]] = 0.0
        mass[row[t], col[t]] += ordered
        total += p.K * ordered
        lp, f = lps[t], pmfs[t]
        for r in np.flatnonzero(mass.any(axis=1)):
            # the level after the lead demand, then the position after this period's
            total += float(np.convolve(mass[r, :width], lp[::-1]) @ costs[r, m - len(lp) :])
            mass[r, :width] = np.correlate(mass[r], f, "valid")[:width]
    return total / p.T


def exact_ss_risk(policy: SsPolicy, pmfs: Sequence[np.ndarray], p: SystemParams) -> float:
    """Exact expected loss of an (s, S) policy under independent integer demands:
    :func:`exact_ss_risks` on the one policy."""
    return float(exact_ss_risks(np.array([policy.s]), np.array([policy.S]), pmfs, p)[0])


def exact_st_risk(levels: Sequence[float], pmfs: Sequence[np.ndarray], p: SystemParams) -> float:
    """Exact expected loss of per-period order-up-to levels under independent integer demands."""
    lv = np.asarray(levels, dtype=float)
    return _lattice_risk(lv, lv, pmfs, p)


def exact_ss_risks(
    s_values: np.ndarray, S_values: np.ndarray, pmfs: Sequence[np.ndarray], p: SystemParams
) -> np.ndarray:
    """Exact expected losses of many (s, S) policies, given as parallel arrays.

    A policy with ``s >= x1`` orders up to S in period 1, and one with
    ``S == x1`` starts where that order would put it.  After period 1 the
    mass of either lives on offsets below S that move the same way for every
    S with the same first reorder offset (the smallest integer k with
    S - k <= s).  Those policies share one propagation per gap: the
    per-period lead-demand pmfs are folded into one distribution over offset
    plus lead demand, which prices every S at once, each on its own.  Any
    other policy (``s < x1 != S``) goes through the lattice kernel.  So a
    policy gets the same float in any batch as on its own, and (S, S) and
    (S - 1, S) at ``x1 == S``, one policy, get one float.
    """
    s = np.asarray(s_values, dtype=float)
    S = np.asarray(S_values, dtype=float)
    if s.shape != S.shape or s.ndim != 1:
        raise ValueError("s_values and S_values must be 1-D arrays of one length")
    if np.any(s > S) or np.any(S < 0):
        raise ValueError("every policy needs 0 <= S and s <= S")
    risks = np.empty(len(S))
    early = (s >= p.x1) | (S == p.x1)
    for i in np.flatnonzero(~early):
        risks[i] = _lattice_risk(np.full(p.T, s[i]), np.full(p.T, S[i]), pmfs, p)
    if early.any():
        # the lattice sees a gap only through the first offset that reorders;
        # an order at offset 0 is empty, so that gap moves as gap 1 does
        gaps = np.maximum(_reorder_offsets(S, s), 1.0)
        lps = [lead_pmf(pmfs, t, p.L) for t in range(1, p.T + 1)]
        for gap in np.unique(gaps[early]):
            sel = early & (gaps == gap)
            risks[sel] = _gap_risks(int(gap), S[sel], pmfs, lps, p)
    return risks


def _gap_risks(
    gap: int, S: np.ndarray, pmfs: Sequence[np.ndarray], lps: list[np.ndarray],
    p: SystemParams,
) -> np.ndarray:
    """Risks of the levels S of (s, S) policies at S after period 1 (x1 <= s
    or x1 == S) with first reorder offset ``gap`` >= 1."""
    umax = max(len(f) for f in pmfs) - 1
    size = gap + umax + 1
    post = np.zeros(size)
    post[0] = 1.0  # every path orders up to S in period 1
    fold = np.zeros(size + max(len(lp) for lp in lps) - 1)
    reorders = 0.0
    for t in range(1, p.T + 1):
        # an order at offset k >= gap costs K and moves its mass to offset 0
        due = post[gap:].sum()
        reorders += due
        post[gap:] = 0.0
        post[0] += due
        wait = np.convolve(post, lps[t - 1])
        fold[: len(wait)] += wait
        # with no lead time the lead demand is this period's demand
        post = (wait if p.L == 0 else np.convolve(post, pmfs[t - 1]))[:size]
    total = _expected_cost_of_level(S, fold, p)
    if p.K > 0:
        total += p.K * (reorders + (S - p.x1 > ORDER_EPS))
    return total / p.T


def grid_axis(lo: float, hi: float, step: float, max_points: float = math.inf) -> np.ndarray:
    """The points lo, lo + step, ... of [lo, hi], as ``np.arange`` spaces them.

    ``arange`` runs to hi + step / 2; of its points past hi, one within
    float rounding of hi becomes hi and the others go, so every point lies in
    the class bounds and those inside them keep their exact floats.  Raises
    BudgetError, before it builds any point, when the axis would hold more
    than ``max_points``: a class grid has at least as many points as its
    axis, unless it is empty.
    """
    if not 0.0 < step < math.inf:
        raise ValueError(f"grid step must be positive and finite, got {step}")
    # arange's length, less the one point past hi that it may drop
    if (hi + step / 2 - lo) / step - 1 > max_points:
        raise BudgetError(f"a grid axis from {lo} to {hi} at step {step} exceeds "
                          f"the budget of {max_points} points")
    axis = np.arange(lo, hi + step / 2, step)
    axis[(axis > hi) & (axis - hi <= 1e-9 * max(step, abs(lo), abs(hi)))] = hi
    return axis[axis <= hi]


def ss_pairs(axis: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Every pair s <= S of values on ``axis`` with S >= 0, as float arrays (s, S).

    The pairs are listed by gap S - s, then by S: the tie-break order of the
    (s, S) searches, so the first of the smallest risks is their pick.
    """
    axis = np.asarray(axis, dtype=float)
    s, S = np.meshgrid(axis, axis[axis >= 0.0], indexing="ij")
    keep = s <= S
    if not keep.any():
        raise ValueError("empty (s, S) grid")
    s, S = s[keep], S[keep]
    order = np.lexsort((S, S - s))
    return s[order], S[order]


def class_losses(policy_class: str, points: np.ndarray, D: np.ndarray, p: SystemParams) -> np.ndarray:
    """Losses of one class's policies on every row of D, shape (n_points, N),
    by the class's one empirical kernel: base-stock levels, shape (n,), by
    :func:`base_stock_loss_matrix` (x1 <= 0); (s, S) pairs, shape (n, 2), by
    :func:`ss_losses_grid`; per-period levels, shape (n, T + L), by
    :func:`st_losses_grid`."""
    if policy_class == "base-stock":
        return base_stock_loss_matrix(points, D, p)
    if policy_class == "ss":
        return ss_losses_grid(points[:, 0], points[:, 1], D, p)
    if policy_class == "st":
        return st_losses_grid(points, D, p)
    raise ValueError(f"unknown policy class {policy_class!r}")


def class_risks(policy_class: str, points: np.ndarray, pmfs: Sequence[np.ndarray], p: SystemParams) -> np.ndarray:
    """Exact risks of one class's points under independent integer demands, one pmf
    per period, shape (n,): by :func:`exact_base_stock_risk`, :func:`exact_ss_risks`,
    or :func:`exact_st_risk` per row, each the float of a call on its own."""
    if len(pmfs) != p.horizon:
        raise ValueError(f"need {p.horizon} per-period pmfs")
    if policy_class == "base-stock":
        return exact_base_stock_risk(points, pmfs, p)
    if policy_class == "ss":
        return exact_ss_risks(points[:, 0], points[:, 1], pmfs, p)
    if policy_class == "st":
        return np.array([exact_st_risk(row, pmfs, p) for row in points])
    raise ValueError(f"unknown policy class {policy_class!r}")


class PolicyGrid(NamedTuple):
    """A policy class's parameter grid, as :func:`policy_grid` builds it."""

    count: int
    chunks: Callable[[int], Iterable[np.ndarray]]
    policy: Callable[[np.ndarray], Policy]


def policy_grid(policy_class: str, axis: np.ndarray, p: SystemParams, budget: float = math.inf) -> PolicyGrid:
    """The grid of ``policy_class`` with its parameters on ``axis``, as every
    grid search reads it: ``count``, the number of points it scores, known
    before any is built; ``chunks(n_paths)``, the points in tie-break order
    in arrays :func:`class_losses` scores in one call each on ``n_paths``
    paths; and ``policy(point)``.  The points are the levels on the axis
    (``base-stock``, one chunk); every pair s <= S with S >= 0 of
    :func:`ss_pairs` (``ss``, one (pairs, 2) chunk, built once); or the
    len(axis) ** T level vectors of :func:`st_level_grid` (``st``: the last
    L levels never reach the loss).  A grid of more than ``budget`` points
    raises BudgetError before any point is built."""
    axis = np.asarray(axis, dtype=float)
    if policy_class == "base-stock":
        grid = PolicyGrid(len(axis), lambda n_paths: [axis], lambda S: BaseStock(float(S)))
    elif policy_class == "ss":
        # each S >= 0 on the axis pairs with every point at or below it
        count = int(np.searchsorted(np.sort(axis), axis[axis >= 0.0], side="right").sum())
        pairs = functools.cache(lambda: np.stack(ss_pairs(axis), axis=1))
        grid = PolicyGrid(count, lambda n_paths: [pairs()],
                          lambda sS: SsPolicy(float(sS[0]), float(sS[1])))
    elif policy_class == "st":
        grid = PolicyGrid(len(axis) ** p.T, lambda n_paths: st_level_grid(axis, p, n_paths),
                          lambda levels: NonStationary(tuple(levels)))
    else:
        raise ValueError(f"unknown policy class {policy_class!r}")
    if grid.count > budget:
        raise BudgetError(f"{policy_class} grid of {grid.count} points exceeds the budget {budget}")
    return grid


def exact_risk(policy: Policy, pmfs: Sequence[np.ndarray], p: SystemParams) -> float:
    """Exact expected loss under independent integer demands: the policy's row of :func:`class_risks`."""
    ((cls, _, point),) = _class_points([policy], p)
    return float(class_risks(cls, point, pmfs, p)[0])


def finite_support_risk(policy: Policy, atoms: np.ndarray, p: SystemParams) -> float:
    """Expected loss under the uniform distribution on the atoms (exact).

    The atoms get a dataset's demand checks.
    """
    return float(policy_losses(policy, Dataset.from_matrix(atoms).as_matrix(), p).mean())


class ModelRisk:
    """True risk of policies under one demand model, by a path chosen once.

    ``mode`` is ``finite-support`` when the model has a finite support (every
    atom is scored), else ``exact`` when it has independent integer marginals
    (the lattice risks), else ``mc``: the mean loss on one sample of
    ``eval_samples`` paths drawn under ``seed`` at the first call, which warns.
    ``eval_paths`` holds the atoms, or that sample once drawn: what is scored.
    """

    def __init__(
        self, model: DemandModel, p: SystemParams, eval_samples: int = 2000,
        seed: int | tuple[int, ...] = 0,
    ):
        if model.n_periods != p.horizon:
            raise ValueError(f"demand model has {model.n_periods} periods, expected T + L = {p.horizon}")
        self.model = model
        self.p = p
        self.eval_samples = eval_samples
        self.seed = seed
        self.atoms = support_atoms(model)
        self.pmfs = marginal_pmfs(model)
        # the model validated its atoms once, when it was built
        self.eval_paths: np.ndarray | None = self.atoms
        self.mode = "finite-support" if self.atoms is not None else (
            "exact" if self.pmfs is not None else "mc"
        )

    def __call__(self, policy: Policy) -> float:
        return float(self.risks([policy])[0])

    def risks(self, policies: Sequence[Policy]) -> np.ndarray:
        """Risks of a block of policies, each the float of a call on its own."""
        if self.mode == "exact":
            out = np.empty(len(policies))
            for cls, rows, points in _class_points(policies, self.p):
                out[rows] = class_risks(cls, points, self.pmfs, self.p)
            return out
        if self.eval_paths is None:
            warnings.warn(
                "this demand model has no exact risk; risks are estimated from "
                f"{self.eval_samples} Monte-Carlo paths, not exact",
                RuntimeWarning,
                stacklevel=2,
            )
            self.eval_paths = draw(self.model, self.eval_samples, self.seed).as_matrix()
        return block_losses(policies, self.eval_paths, self.p).mean(axis=1)


def enumerate_product_risk(
    policy: Policy, pmfs: Sequence[np.ndarray], p: SystemParams
) -> float:
    """Brute-force expected loss by enumerating the full product support.

    Test oracle for the lattice evaluators; cost is the product of support
    sizes, so only usable on tiny instances.
    """
    supports = [np.flatnonzero(f) for f in pmfs]
    count = 1
    for s in supports:
        count *= len(s)
        if count > 200_000:
            raise ValueError("product support too large to enumerate")
    total = 0.0
    for combo in itertools.product(*supports):
        prob = 1.0
        for t, v in enumerate(combo):
            prob *= pmfs[t][v]
        loss = simulate(policy, [float(v) for v in combo], p, unchecked=True).avg_loss
        total += prob * loss
    return total
