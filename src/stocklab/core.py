"""Exact simulation of a finite-horizon backlogged inventory system.

Period bookkeeping (1-indexed in the math, 0-indexed in arrays):
an order placed in period t arrives in period t + L, the on-hand level
after that arrival is y^t, demand d^t is then realized, and the next
level is x^{t+1} = y^t - d^t.  Losses are charged for periods
L+1 .. T+L and averaged over T.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import Iterable, Sequence, Union

import numpy as np

# Orders below this size are treated as zero so that fixed-cost charges are
# never triggered by floating-point dust.
ORDER_EPS = 1e-12

# Fallback multiplier for policy caps that would otherwise be infinite
# (order-up-to bound with h == 0, reorder-point bound with b == 0).
CAP_MULTIPLIER = 10.0


class BudgetError(RuntimeError):
    """Raised when an exhaustive computation would exceed its size budget."""


@dataclass(frozen=True)
class SystemParams:
    """Horizon, cost, lead-time and bound parameters of the system.

    ``H`` and ``Hlo`` are optional overrides for the policy-parameter
    bounds; when left as ``None`` the per-class defaults are used
    (see :meth:`level_cap` and :meth:`ss_bounds`).
    """

    T: int
    L: int = 0
    h: float = 1.0
    b: float = 9.0
    K: float = 0.0
    U: float = 20.0
    x1: float = 0.0
    H: float | None = None
    Hlo: float | None = None

    def __post_init__(self) -> None:
        for name in ("T", "L", "h", "b", "K", "U", "x1", "H", "Hlo"):
            value = getattr(self, name)
            if value is not None and math.isnan(value):
                raise ValueError(f"{name} must be a number, got nan")
        # H and Hlo may be infinite: an unbounded class is a legal bound
        for name in ("h", "b", "K", "U", "x1"):
            if math.isinf(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if self.T < 1 or int(self.T) != self.T:
            raise ValueError(f"T must be an integer >= 1, got {self.T}")
        if self.L < 0 or int(self.L) != self.L:
            raise ValueError(f"L must be an integer >= 0, got {self.L}")
        for name in ("h", "b", "K"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be nonnegative")
        if self.U <= 0:
            raise ValueError("U must be positive")
        if self.Hlo is not None and self.H is not None and self.Hlo > self.H:
            raise ValueError("Hlo must not exceed H")

    @property
    def horizon(self) -> int:
        """Total number of simulated periods, T + L."""
        return self.T + self.L

    def level_cap(self) -> float:
        """Upper bound on order-up-to levels for the one-level policy classes."""
        if self.H is not None:
            return self.H
        return (self.L + 1) * self.U

    def ss_bounds(self) -> tuple[float, float, bool]:
        """Bounds ``(Hlo, H)`` for reorder-point policies plus a capped flag.

        ``H = (L+1) U / h`` and ``Hlo = min(0, (L+1) U (1 - 1/b))``; a zero
        cost rate would make the corresponding bound infinite, in which case
        a finite cap of ``+-CAP_MULTIPLIER * (L+1) U`` is substituted and the
        returned flag is set.
        """
        base = (self.L + 1) * self.U
        capped = False
        if self.H is not None:
            hi = self.H
        elif self.h > 0:
            hi = base / self.h
        else:
            hi = CAP_MULTIPLIER * base
            capped = True
        if self.Hlo is not None:
            lo = self.Hlo
        elif self.b > 0:
            lo = min(0.0, base * (1.0 - 1.0 / self.b))
        else:
            lo = -CAP_MULTIPLIER * base
            capped = True
        return lo, hi, capped


@dataclass(frozen=True, eq=False)
class Dataset:
    """N demand sequences of one length T + L, as a read-only (N, T + L) array.

    The matrix is copied once into a C-contiguous float64 array that cannot
    be written to, and validated here, in one place: every value finite and
    nonnegative, none positive at or below ``ORDER_EPS`` (simulate drops such
    dust orders, which the closed-form losses do not model).
    """

    matrix: np.ndarray

    def __post_init__(self) -> None:
        try:
            D = np.array(self.matrix, dtype=float, order="C")
        except ValueError:
            raise ValueError("demands must form an (N, T + L) array of numbers") from None
        if D.shape[:1] == (0,):
            raise ValueError("dataset must contain at least one sequence")
        if D.ndim != 2:
            raise ValueError(f"demands must form an (N, T + L) array, got shape {D.shape}")
        if not np.isfinite(D).all():
            raise ValueError("demands must be finite numbers")
        if (D < 0).any():
            raise ValueError("demands must be nonnegative")
        if ((D > 0) & (D <= ORDER_EPS)).any():
            raise ValueError(f"demands must be 0 or larger than ORDER_EPS = {ORDER_EPS:g}")
        D.flags.writeable = False
        object.__setattr__(self, "matrix", D)

    def __len__(self) -> int:
        return self.matrix.shape[0]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Dataset):
            return NotImplemented
        return np.array_equal(self.matrix, other.matrix)

    @property
    def n_periods(self) -> int:
        return self.matrix.shape[1]

    def as_matrix(self) -> np.ndarray:
        """The read-only (N, T + L) demand array itself, not a copy."""
        return self.matrix

    @staticmethod
    def from_matrix(matrix: Iterable[Iterable[float]]) -> "Dataset":
        return Dataset(matrix)


@dataclass(frozen=True)
class BaseStock:
    """Order up to level S whenever the inventory position is below S."""

    S: float

    def __post_init__(self) -> None:
        if not math.isfinite(self.S):
            raise ValueError(f"base-stock level must be finite, got {self.S}")
        if self.S < 0:
            raise ValueError("base-stock level must be nonnegative")


@dataclass(frozen=True)
class SsPolicy:
    """Order up to S whenever the inventory position falls to or below s."""

    s: float
    S: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.s) and math.isfinite(self.S)):
            raise ValueError(f"(s, S) must be finite, got ({self.s}, {self.S})")
        if self.s > self.S:
            raise ValueError("reorder point s must not exceed order-up-to level S")
        if self.S < 0:
            raise ValueError("order-up-to level must be nonnegative")

    @property
    def delta(self) -> float:
        """Minimum order quantity S - s."""
        return self.S - self.s


@dataclass(frozen=True)
class NonStationary:
    """Per-period order-up-to levels, one for each of the T + L periods."""

    levels: tuple[float, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "levels", tuple(float(v) for v in self.levels))
        if not all(math.isfinite(v) for v in self.levels):
            raise ValueError(f"order-up-to levels must be finite, got {self.levels}")
        if any(v < 0 for v in self.levels):
            raise ValueError("order-up-to levels must be nonnegative")

    def as_array(self) -> np.ndarray:
        return np.asarray(self.levels, dtype=float)


Policy = Union[BaseStock, SsPolicy, NonStationary]


def demand_matrix(data: Dataset, p: SystemParams) -> np.ndarray:
    """The (N, T + L) demand array of ``data``; raises ValueError on any other width."""
    if data.n_periods != p.horizon:
        raise ValueError(
            f"dataset has {data.n_periods} periods per sequence, expected T + L = {p.horizon}"
        )
    return data.as_matrix()


@dataclass(frozen=True)
class Trajectory:
    """Per-period states and losses of one simulated path.

    Arrays are 0-indexed by period: ``x[0]`` is the initial level x^1 and
    ``x`` has one trailing entry for the post-horizon level.  ``per_period_loss``
    covers the charged window, periods L+1 .. T+L.
    """

    x: np.ndarray
    q: np.ndarray
    y: np.ndarray
    inventory_position: np.ndarray
    per_period_loss: np.ndarray
    avg_loss: float


def unit_cost(x: float, p: SystemParams) -> float:
    """One-period holding/backlogging cost h [x]^+ + b [-x]^+."""
    if x >= 0:
        return p.h * x
    return -p.b * x


def validate_policy(policy: Policy, p: SystemParams) -> None:
    """Raise ValueError if the policy parameters violate the class bounds."""
    if isinstance(policy, BaseStock):
        cap = p.level_cap()
        if not 0 <= policy.S <= cap:
            raise ValueError(f"base-stock level {policy.S} outside [0, {cap}]")
    elif isinstance(policy, SsPolicy):
        lo, hi, _ = p.ss_bounds()
        if not (lo <= policy.s and policy.S <= hi):
            raise ValueError(
                f"(s, S)=({policy.s}, {policy.S}) outside bounds [{lo}, {hi}]"
            )
        if p.x1 > lo:
            raise ValueError(
                f"initial level x1={p.x1} must not exceed the reorder-point bound {lo}"
            )
    elif isinstance(policy, NonStationary):
        cap = p.level_cap()
        if len(policy.levels) != p.horizon:
            raise ValueError(
                f"expected {p.horizon} levels, got {len(policy.levels)}"
            )
        if any(not 0 <= v <= cap for v in policy.levels):
            raise ValueError(f"order-up-to levels outside [0, {cap}]")
    else:
        raise TypeError(f"unknown policy type {type(policy)!r}")


def _order_up_to(policy: Policy, position: float, t: int) -> float:
    """The position after period t's order; ``position`` itself if none is due."""
    if isinstance(policy, BaseStock):
        return max(policy.S, position)
    if isinstance(policy, SsPolicy):
        return policy.S if position <= policy.s else position
    return max(policy.levels[t - 1], position)


def simulate(
    policy: Policy,
    d: Sequence[float],
    p: SystemParams,
    unchecked: bool = False,
) -> Trajectory:
    """Simulate one demand path and return the full trajectory.

    With ``unchecked=True`` the policy-bound and initial-level checks are
    skipped; this is how deliberately out-of-bound configurations (unbounded
    order-up-to levels, positive initial stock) are simulated.  The inventory
    position is the last order-up-to target (or x1) minus the demand since,
    as on the exact kernels' lattice, not the level plus the orders in transit.
    """
    demands = tuple(float(v) for v in d)
    n = p.horizon
    if len(demands) != n:
        raise ValueError(f"demand length {len(demands)} != T + L = {n}")
    if not unchecked:
        if p.x1 > 0:
            raise ValueError(f"initial level x1={p.x1} must be <= 0")
        validate_policy(policy, p)

    x = np.empty(n + 1)
    q = np.zeros(n)
    y = np.empty(n)
    pos = np.empty(n)
    loss = np.zeros(p.T)

    x[0] = p.x1
    top, since = p.x1, 0.0
    for t in range(1, n + 1):
        position = top - since
        pos[t - 1] = position
        target = _order_up_to(policy, position, t)
        if target - position > ORDER_EPS:
            q[t - 1] = target - position
            top, since = target, 0.0
        since += demands[t - 1]
        arrival = q[t - p.L - 1] if t - p.L >= 1 else 0.0
        y[t - 1] = x[t - 1] + arrival
        x[t] = y[t - 1] - demands[t - 1]
        if t >= p.L + 1:
            loss[t - p.L - 1] = unit_cost(x[t], p) + (p.K if arrival > 0 else 0.0)

    return Trajectory(
        x=x,
        q=q,
        y=y,
        inventory_position=pos,
        per_period_loss=loss,
        avg_loss=float(loss.sum() / p.T),
    )


def reorder_schedule(gaps: np.ndarray, D: np.ndarray, p: SystemParams) -> np.ndarray:
    """Order periods of (s, S) policies with gaps S - s, for every demand row.

    Entry ``[g, i, t - 1]`` is the last period at or before t, in 1..T, in
    which the policy with gap ``gaps[g]`` orders on row i of ``D``, an
    (N, >= T) array; shape (n_gaps, N, T).  An order is placed in period 1
    (``x1 <= s``), and the next one as soon as the demand accumulated since
    the last one reaches the gap.  Orders after period T cannot affect the
    loss window and are left out.
    """
    gaps = np.asarray(gaps, dtype=float)
    D = np.asarray(D, dtype=float)
    bad = gaps[~(gaps >= 0)]  # nan too
    if len(bad):
        raise ValueError(f"an order gap must be a nonnegative number, got {bad[0]}")
    if D.ndim != 2 or D.shape[1] < p.T:
        raise ValueError(f"need an (N, >= T = {p.T}) demand array, got shape {D.shape}")
    out = np.ones((len(gaps), len(D), p.T), dtype=np.intp)
    acc = np.zeros(out.shape[:2])
    for t in range(2, p.T + 1):
        acc += D[:, t - 2]
        hit = acc >= gaps[:, None]
        acc[hit] = 0.0
        out[:, :, t - 1] = np.where(hit, t, out[:, :, t - 2])
    return out


def delta_breakpoints(D: np.ndarray, p: SystemParams) -> np.ndarray:
    """Sorted distinct sums of consecutive demands within periods 1..T-1 of
    any row of the (N, >= T - 1) array ``D``.

    The reorder schedule for a gap is constant while the gap varies within
    any interval between adjacent breakpoints (closed on the right).  Each
    sum adds left to right from its first period, so it is the same float
    as a running sum; ``+ 0.0`` turns a ``-0.0`` demand's sum into 0.0.
    """
    D = np.asarray(D, dtype=float)
    sums = [np.cumsum(D[:, i : p.T - 1], axis=1).ravel() + 0.0 for i in range(p.T - 1)]
    return np.unique(np.concatenate([np.empty(0), *sums]))


def write_demands_csv(data: Dataset, path: str) -> None:
    """Write a dataset as CSV, one row per sequence, columns t1..t{T+L}."""
    n = data.n_periods
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"t{j}" for j in range(1, n + 1)])
        # repr of Python floats: numpy 2 would print np.float64(...)
        for row in data.as_matrix().tolist():
            writer.writerow([repr(v) for v in row])


def read_demands_csv(path: str) -> Dataset:
    """Read a dataset written by :func:`write_demands_csv`."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise ValueError(f"{path} is empty; expected a t1..tn header and rows")
        n = len(header)
        expected = [f"t{j}" for j in range(1, n + 1)]
        if header != expected:
            raise ValueError(f"unexpected CSV header {header!r}")
        rows = [[float(v) for v in row] for row in reader if row]
    if any(len(row) != n for row in rows):
        raise ValueError(f"{path}: every row needs {n} values, one per header column")
    return Dataset.from_matrix(rows)
