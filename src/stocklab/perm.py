"""Product empirical risk minimization and exact dynamic programming.

Per-period empirical marginals define a product distribution over demand
sequences; fitting against it is equivalent to a backward DP over the
inventory position, which is also how the exact optimum under a known
independent integer demand process is computed.
"""

from __future__ import annotations

import csv
import itertools
import math
import warnings
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import (
    BudgetError,
    Dataset,
    NonStationary,
    Policy,
    SystemParams,
)
from .demand import make_rng
from .evaluate import (
    best_integer_ss,
    cost_array,
    exact_risk,
    lead_pmf,
    policy_losses,
)
from .fitters import FitResult, fit_ss_bounds

PARTITION_BUDGET = 1_000_000


@dataclass(frozen=True)
class EmpiricalMarginals:
    """One discrete distribution per period, each uniform over observed values."""

    values: tuple[tuple[float, ...], ...]
    probs: tuple[tuple[float, ...], ...]

    def __post_init__(self) -> None:
        if len(self.values) != len(self.probs):
            raise ValueError("values and probs must align")
        for v, q in zip(self.values, self.probs):
            if len(v) != len(q):
                raise ValueError("values and probs must align per period")
            if abs(sum(q) - 1.0) > 1e-9:
                raise ValueError("probabilities must sum to 1")

    @property
    def n_periods(self) -> int:
        return len(self.values)

    @property
    def is_integer(self) -> bool:
        return all(v == int(v) and v >= 0 for per in self.values for v in per)

    @property
    def is_stationary(self) -> bool:
        return all(
            (self.values[t], self.probs[t]) == (self.values[0], self.probs[0])
            for t in range(1, self.n_periods)
        )

    def dense_pmfs(self) -> list[np.ndarray]:
        """Per-period pmfs on the integer lattice {0, ..., max value}."""
        if not self.is_integer:
            raise ValueError("dense pmfs require nonnegative integer support")
        out = []
        for vals, probs in zip(self.values, self.probs):
            pmf = np.zeros(int(max(vals)) + 1)
            for v, q in zip(vals, probs):
                pmf[int(v)] += q
            out.append(pmf)
        return out


def build_marginals(data: Dataset) -> EmpiricalMarginals:
    """Per-period empirical distributions (multiset of observed values)."""
    D = data.as_matrix()
    values = []
    probs = []
    for t in range(D.shape[1]):
        vals, counts = np.unique(D[:, t], return_counts=True)
        values.append(tuple(float(v) for v in vals))
        probs.append(tuple(float(c) / D.shape[0] for c in counts))
    return EmpiricalMarginals(tuple(values), tuple(probs))


def write_marginals_csv(marginals: EmpiricalMarginals, path: str) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["period", "value", "probability"])
        for t in range(marginals.n_periods):
            for v, q in zip(marginals.values[t], marginals.probs[t]):
                writer.writerow([t + 1, repr(v), repr(q)])


def read_marginals_csv(path: str) -> EmpiricalMarginals:
    periods: dict[int, list[tuple[float, float]]] = {}
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        if header != ["period", "value", "probability"]:
            raise ValueError(f"unexpected CSV header {header!r}")
        for row in reader:
            if not row:
                continue
            periods.setdefault(int(row[0]), []).append((float(row[1]), float(row[2])))
    values = []
    probs = []
    for t in sorted(periods):
        values.append(tuple(v for v, _ in periods[t]))
        probs.append(tuple(q for _, q in periods[t]))
    return EmpiricalMarginals(tuple(values), tuple(probs))


# ---------------------------------------------------------------------------
# disjoint partition of the product sample
# ---------------------------------------------------------------------------


def product_partition(
    n: int, periods: int, budget: int = PARTITION_BUDGET
) -> list[list[tuple[int, ...]]]:
    """Partition all n^periods index tuples into n^(periods-1) groups of n.

    Group (j_1, ..., j_{periods-1}) holds, for each i, the tuple whose
    period-t entry is shifted cyclically by j_t.  Within a group every
    original (sample, period) entry appears exactly once; indices are
    0-based.
    """
    if n < 1 or periods < 1:
        raise ValueError("n and periods must be >= 1")
    if n**periods > budget:
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
    """Backward-induction output over the integer position grid."""

    risk: float
    order_up_to: tuple[int, ...]
    reorder_points: tuple[int, ...] | None
    grid_lo: int
    grid_hi: int

    @property
    def is_order_up_to(self) -> bool:
        return self.reorder_points is None


def solve_dp(pmfs: Sequence[np.ndarray], p: SystemParams) -> DpSolution:
    """Exact optimum over all policies for independent integer demands.

    State is the pre-order inventory position on an integer grid; the cost
    of ordering up to y in period t is the expected holding/backlog cost of
    y net of lead-time demand, charged 1/T per period, plus K/T when an
    order is placed.  With K = 0 the optimal action is order-up-to and the
    per-period targets are returned; with K > 0 a reorder threshold is
    extracted as well.
    """
    if len(pmfs) != p.horizon:
        raise ValueError(f"need {p.horizon} per-period pmfs")
    if p.x1 != int(p.x1):
        raise ValueError("DP requires an integer initial level")
    umax = max(len(f) - 1 for f in pmfs)
    bottom = min(int(p.x1), 0) - p.horizon * umax
    top = max((p.L + 1) * umax, int(p.x1)) + 1
    grid = np.arange(bottom, top + 1)
    size = len(grid)
    V = np.zeros(size)
    levels: list[int] = []
    thresholds: list[int] = []
    for t in range(p.T, 0, -1):
        lead = lead_pmf(pmfs, t, p.L)
        diffs = grid[:, None] - np.arange(len(lead))[None, :]
        Ec = cost_array(diffs, p) @ lead / p.T
        if t == p.T:
            EV = np.zeros(size)
        else:
            f = pmfs[t - 1]
            EV = np.zeros(size)
            for k, fk in enumerate(f):
                if fk == 0.0:
                    continue
                shifted = np.concatenate([np.full(k, V[0]), V[:-k]]) if k else V
                EV += fk * shifted
        W = Ec + EV
        j = int(np.argmin(W))
        levels.append(int(grid[j]))
        if p.K == 0:
            V = W.copy()
            V[:j] = W[j]
        else:
            suffix = np.minimum.accumulate(W[::-1])[::-1]
            order_value = p.K / p.T + suffix
            V = np.minimum(W, order_value)
            below = np.flatnonzero(order_value < W)
            thresholds.append(int(grid[below.max()]) if len(below) else bottom - 1)
    levels.reverse()
    thresholds.reverse()
    root = float(V[int(p.x1) - bottom])
    return DpSolution(
        risk=root,
        order_up_to=tuple(levels),
        reorder_points=tuple(thresholds) if p.K > 0 else None,
        grid_lo=bottom,
        grid_hi=top,
    )


# ---------------------------------------------------------------------------
# product-ERM fitting and risk
# ---------------------------------------------------------------------------


def perm_risk(policy: Policy, marginals: EmpiricalMarginals, p: SystemParams) -> float:
    """Exact product-distribution risk of a policy (DP policy evaluation)."""
    value = exact_risk(policy, marginals.dense_pmfs(), p)
    if value is None:
        raise ValueError("exact product risk requires integer per-period levels")
    return value


def perm_risk_mc(
    policy: Policy,
    marginals: EmpiricalMarginals,
    p: SystemParams,
    n: int,
    seed: int | tuple[int, ...],
) -> tuple[float, float]:
    """Monte-Carlo product-distribution risk: (mean, standard error)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    key = seed if isinstance(seed, tuple) else (seed,)
    rng = make_rng(*key)
    cols = [
        np.asarray(vals)[rng.choice(len(vals), size=n, p=probs)]
        for vals, probs in zip(marginals.values, marginals.probs)
    ]
    D = np.column_stack(cols)
    losses = policy_losses(policy, D, p)
    return float(losses.mean()), float(losses.std(ddof=1) / math.sqrt(n))


def perm_fit(
    marginals: EmpiricalMarginals, p: SystemParams, policy_class: str = "st"
) -> FitResult:
    """Risk minimizer against the product of the empirical marginals.

    ``st``: backward DP (requires K = 0); the per-period order-up-to targets
    are the DP argmins and the fitted risk equals the DP root value.
    ``ss``: exhaustive integer (s, S) search scored by exact DP policy
    evaluation; stationary marginals are recommended (a warning is issued
    otherwise).
    """
    pmfs = marginals.dense_pmfs()
    if policy_class == "st":
        if p.K != 0:
            raise ValueError("product fitting of per-period levels requires K = 0")
        sol = solve_dp(pmfs, p)
        levels = list(sol.order_up_to) + [0] * p.L
        policy = NonStationary(tuple(float(v) for v in levels))
        return FitResult(
            policy=policy,
            in_sample_risk=sol.risk,
            method="backward-dp",
            diagnostics={"grid": [sol.grid_lo, sol.grid_hi]},
        )
    if policy_class == "ss":
        lo, _, _ = fit_ss_bounds(p)
        if p.x1 > lo:
            raise ValueError(f"x1={p.x1} must not exceed the reorder-point bound {lo}")
        if not marginals.is_stationary:
            warnings.warn(
                "fitting a stationary (s, S) policy against non-stationary marginals",
                stacklevel=2,
            )
        policy, risk = best_integer_ss(pmfs, p)
        return FitResult(
            policy=policy,
            in_sample_risk=risk,
            method="dp-policy-evaluation-grid",
            diagnostics={"experimental": True},
        )
    raise ValueError(f"unknown policy class {policy_class!r}")


def enumerate_product_sequences(
    marginals: EmpiricalMarginals, budget: int = PARTITION_BUDGET
) -> tuple[np.ndarray, np.ndarray]:
    """All product sequences and their probabilities (test/oracle helper)."""
    sizes = [len(v) for v in marginals.values]
    count = 1
    for s in sizes:
        count *= s
        if count > budget:
            raise BudgetError("product support exceeds budget")
    seqs = []
    probs = []
    for combo in itertools.product(*(range(s) for s in sizes)):
        seqs.append([marginals.values[t][k] for t, k in enumerate(combo)])
        pr = 1.0
        for t, k in enumerate(combo):
            pr *= marginals.probs[t][k]
        probs.append(pr)
    return np.asarray(seqs), np.asarray(probs)
