"""Margin-shattering instances for the policy classes, with exhaustive checks.

Each generated instance packages a dataset, per-sample witnesses, a margin,
and a map from subsets to policies; the verifier scores blocks of subsets'
policies on every sample with the batch kernels of :mod:`stocklab.evaluate`
and checks the two-sided witness inequalities.  The per-period-level
instances also map a whole block of subsets to one array of levels, which
the verifier scores without building a policy per subset.  Verification is
exponential in the dataset size by construction, so it is capped (override
via the verifier's ``cap`` argument).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .core import (
    BudgetError,
    Dataset,
    NonStationary,
    Policy,
    SsPolicy,
    SystemParams,
    simulate,
)
from . import fitters
from .evaluate import block_losses, grid_axis, st_losses_grid
from .fitters import grid_search

SUBSET_CAP = 16

# Policy x path x period cells per kernel call of the verifier: a block of
# subsets this small keeps the kernels' temporaries to a few tens of KiB.
_SHATTER_CELLS = 1 << 12


def check_margin(gamma: float) -> float:
    """Return the margin ``gamma``, or raise unless it is a finite number >= 0."""
    if not (math.isfinite(gamma) and gamma >= 0):
        raise ValueError(f"margin must be a finite number >= 0, got {gamma}")
    return gamma


@dataclass(frozen=True)
class ShatterInstance:
    """A candidate shattered dataset with witnesses and a subset-to-policy map.

    ``high_side`` records the instance's convention: ``"in"`` means the
    subset's policy must push the loss strictly above witness + margin on
    subset members (and at or below witness - margin off the subset);
    ``"out"`` swaps the roles.  Both conventions realize all sign patterns.

    ``levels_for_block``, when set, is the map in block form for a
    per-period-level class: it takes a block's (subsets x m) membership
    array and returns the subsets' levels, shape (subsets, T + L), each row
    the levels of ``policy_for_subset`` on that row's subset.
    """

    dataset: Dataset
    witnesses: tuple[float, ...]
    gamma: float
    params: SystemParams
    policy_for_subset: Callable[[frozenset[int]], Policy]
    high_side: str = "in"
    unchecked: bool = False
    label: str = ""
    meta: dict = field(default_factory=dict)
    levels_for_block: Callable[[np.ndarray], np.ndarray] | None = None

    def __post_init__(self) -> None:
        if len(self.witnesses) != len(self.dataset):
            raise ValueError("one witness per sample required")
        check_margin(self.gamma)
        if self.high_side not in ("in", "out"):
            raise ValueError("high_side must be 'in' or 'out'")

    @property
    def size(self) -> int:
        return len(self.dataset)


@dataclass(frozen=True)
class ShatterFailure:
    subset: tuple[int, ...]
    sample: int
    achieved: float
    witness: float
    side: str  # "high" or "low"


@dataclass(frozen=True)
class ShatterReport:
    ok: bool
    subsets_checked: int
    failures: tuple[ShatterFailure, ...]
    achieved: np.ndarray | None = None  # (2^m, m) losses when collected


def verify_shattering(
    inst: ShatterInstance,
    gamma: float | None = None,
    cap: int = SUBSET_CAP,
    collect: bool = False,
) -> ShatterReport:
    """Check every subset's policy against the witness inequalities.

    The subsets are walked in blocks, in the order of their bit patterns;
    each block's policies are scored on every sample in one batch kernel call
    and compared with the witnesses as one (subsets x samples) array.  An
    instance with ``levels_for_block`` gives the block's levels as one array,
    so no policy object is built per subset.
    Comparisons are exact (strictly above witness + margin on the high side,
    at or below witness - margin on the low side).  Returns the failing
    (subset, sample) pairs with achieved values, by subset and then high
    before low; with ``collect`` the full (subset, sample) value matrix is
    attached for export.
    """
    m = inst.size
    if m > cap:
        raise BudgetError(f"{m} samples imply 2^{m} subsets, above the cap {cap}")
    g = inst.gamma if gamma is None else check_margin(gamma)
    D = inst.dataset.as_matrix()
    if not inst.unchecked:
        # surface bound violations early on a representative subset
        simulate(inst.policy_for_subset(frozenset()), D[0], inst.params)
    witnesses = np.asarray(inst.witnesses)
    failures = []
    n_subsets = 2**m
    collected = np.empty((n_subsets, m)) if collect else None
    block = max(1, _SHATTER_CELLS // D.size)
    for lo in range(0, n_subsets, block):
        bits = range(lo, min(lo + block, n_subsets))
        member = (np.array(bits)[:, None] >> np.arange(m) & 1).astype(bool)
        if inst.levels_for_block is not None:
            values = st_losses_grid(inst.levels_for_block(member), D, inst.params)
        else:
            policies = [
                inst.policy_for_subset(frozenset(i for i in range(m) if b >> i & 1))
                for b in bits
            ]
            values = block_losses(policies, D, inst.params)
        if collected is not None:
            collected[lo : lo + len(bits)] = values
        high = member if inst.high_side == "in" else ~member
        bad_high = high & ~(values > witnesses + g)
        bad_low = ~high & ~(values <= witnesses - g)
        for r in np.flatnonzero((bad_high | bad_low).any(axis=1)):
            subset = tuple(np.flatnonzero(member[r]).tolist())
            for bad, side in ((bad_high[r], "high"), (bad_low[r], "low")):
                for i in np.flatnonzero(bad):
                    failures.append(
                        ShatterFailure(subset, int(i), float(values[r, i]),
                                       float(witnesses[i]), side)
                    )
    return ShatterReport(
        ok=not failures,
        subsets_checked=n_subsets,
        failures=tuple(failures),
        achieved=collected,
    )


def _one_subset_policy(
    levels_for_block: Callable[[np.ndarray], np.ndarray], m: int
) -> Callable[[frozenset[int]], Policy]:
    """``policy_for_subset`` of a block-form map: the levels of a one-row block."""

    def policy_for(subset: frozenset[int]) -> Policy:
        member = np.zeros((1, m), dtype=bool)
        member[0, list(subset)] = True
        return NonStationary(tuple(levels_for_block(member)[0].tolist()))

    return policy_for


# ---------------------------------------------------------------------------
# per-period-level class, no fixed cost: one spike per sample
# ---------------------------------------------------------------------------


def gen_st_shatter(T: int) -> ShatterInstance:
    """T samples shattered at margin zero by per-period order-up-to policies.

    Sample i spikes to 1 in period i and sits at 1/2 elsewhere; the subset's
    policy lowers its level to 1/2 exactly in subset periods, incurring a
    backlog of 1/2 there (loss 1/(2T)) and zero elsewhere.
    """
    if T < 1:
        raise ValueError("T must be >= 1")
    p = SystemParams(T=T, L=0, h=0.0, b=1.0, K=0.0, U=1.0, x1=0.0)
    rows = np.full((T, T), 0.5)
    np.fill_diagonal(rows, 1.0)
    dataset = Dataset.from_matrix(rows)

    def levels_for(member: np.ndarray) -> np.ndarray:
        return np.where(member, 0.5, 1.0)

    return ShatterInstance(
        dataset=dataset,
        witnesses=(0.0,) * T,
        gamma=0.0,
        params=p,
        policy_for_subset=_one_subset_policy(levels_for, T),
        high_side="in",
        label="st-spike",
        meta={"loss_high": 1.0 / (2 * T)},
        levels_for_block=levels_for,
    )


def gen_st_K_shatter(T: int, K: float) -> ShatterInstance:
    """T - 4 samples margin-shattered by per-period levels under fixed costs only.

    Costs are h = b = 0 with K in (0, 1], so the loss counts reorders.  The
    subset's policy triggers a single top-up of delta for subset members and
    three top-ups of delta/3 for non-members, i.e. losses K/T versus 3K/T
    against witnesses 2K/T; any margin below K/T verifies.

    The process starts fully stocked (initial level 1, simulated unchecked)
    so that period 1 places no order; starting empty would add one common
    reorder to every (subset, sample) pair and shift all losses by K/T.
    """
    if T < 9:
        raise ValueError("T must be >= 9 so that at least 5 samples are shattered")
    if not 0 < K <= 1:
        raise ValueError("K must lie in (0, 1]")
    m = T - 4
    delta = 1.0 / m
    p = SystemParams(T=T, L=0, h=0.0, b=0.0, K=K, U=1.0, x1=1.0)
    rows = np.zeros((m, T))
    for i in range(1, m + 1):
        rows[i - 1, i - 1] = i * delta
        rows[i - 1, m] = (m - i) * delta
    dataset = Dataset.from_matrix(rows)

    # 0-based sample i spikes in period i + 1; in the next period (index
    # i + 1) the level is 1 - i delta when i is in the subset, else 0
    tops = 1.0 - np.arange(m) * delta
    tail = [1.0 - (m - 1.0 / 3.0) * delta, 1.0 - (m - 2.0 / 3.0) * delta,
            1.0 - (m - 1.0) * delta]

    def levels_for(member: np.ndarray) -> np.ndarray:
        levels = np.zeros((len(member), T))
        levels[:, 0] = 1.0
        levels[:, 1 : m + 1] = np.where(member, tops, 0.0)
        levels[:, m + 1 :] = tail
        return levels

    tau = 2.0 * K / T
    return ShatterInstance(
        dataset=dataset,
        witnesses=(tau,) * m,
        gamma=0.9 * K / T,
        params=p,
        policy_for_subset=_one_subset_policy(levels_for, m),
        high_side="out",
        unchecked=True,
        label="st-fixed-cost",
        meta={"m": m, "delta": delta, "loss_low": K / T, "loss_high": 3 * K / T,
              "margin_sup": K / T},
        levels_for_block=levels_for,
    )


# ---------------------------------------------------------------------------
# reorder-point class: prime-product order gaps
# ---------------------------------------------------------------------------


def first_primes(m: int) -> list[int]:
    primes: list[int] = []
    candidate = 2
    while len(primes) < m:
        if all(candidate % q for q in primes):
            primes.append(candidate)
        candidate += 1
    return primes


def gen_sS_prime_shatter(m: int, b: float) -> ShatterInstance:
    """m samples margin-shattered by reorder-point policies via divisibility.

    Sample i's demand runs at 1 until the product of the first m primes
    divided by the i-th prime is hit, drops to 1/2 once, then stops.  The
    subset's policy uses an order gap equal to the product of the subset's
    primes: the gap divides sample i's run length exactly when i is off the
    subset, leaving a permanent half-unit backlog and a high loss.  Margin
    b/16 separates the two cases once the horizon is twice the prime product.

    Zero lead time only: with a lead time the post-drop position settles
    above the reorder point at a nonnegative on-hand level, so the free
    holding (h = 0) erases the permanent-backlog tail the margins rely on.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    if not 0 < b <= 0.5:
        raise ValueError("b must lie in (0, 1/2]")
    primes = first_primes(m)
    prod = math.prod(primes)
    T = 2 * prod
    big_p = [prod // q for q in primes]
    p = SystemParams(
        T=T, L=0, h=0.0, b=b, K=0.0, U=1.0, x1=-1.0, H=math.inf, Hlo=-1.0
    )
    rows = np.zeros((m, T))
    for i in range(m):
        rows[i, : big_p[i] - 1] = 1.0
        rows[i, big_p[i] - 1] = 0.5
    dataset = Dataset.from_matrix(rows)

    def policy_for(subset: frozenset[int]) -> Policy:
        gap = math.prod(primes[i] for i in subset) if subset else 1
        S = float(gap - 1)
        return SsPolicy(S - gap, S)

    witnesses = tuple(
        (b / (2 * T)) * ((T - P + 1) / 2.0 + P / q)
        for P, q in zip(big_p, primes)
    )
    return ShatterInstance(
        dataset=dataset,
        witnesses=witnesses,
        gamma=b / 16.0,
        params=p,
        policy_for_subset=policy_for,
        high_side="out",
        unchecked=True,
        label="ss-prime",
        meta={"primes": primes, "run_lengths": big_p, "T": T},
    )


# ---------------------------------------------------------------------------
# constant gap between the continuous class and any uniform grid
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GapReport:
    grid_best_risk: float
    continuous_risk: float
    gap: float
    grid_best_policy: SsPolicy


def discretization_gap(M: int, T: int = 200) -> GapReport:
    """Risk gap between a tuned continuous policy and the best 1/M-grid policy.

    Demand alternates between 1 and 1/(2M); ordering up to 1 + 1/(2M) with a
    matching gap replenishes every other period at risk exactly 1/(8M).  The
    grid search sweeps reorder-point policies whose parameters are multiples
    of 1/M, somewhat beyond the class bounds so the reported best is honest:
    the (4M + 1)^2 pairs on [-2, 4], so M >= 354 raises BudgetError past the
    grid searches' ``GRID_BUDGET``, before the axis is built.
    """
    if M < 1:
        raise ValueError("M must be >= 1")
    if T < 4 or T % 2:
        raise ValueError("T must be even and at least 4")
    p = SystemParams(T=T, L=0, h=0.5, b=0.5, K=0.0, U=1.0, x1=-1.0, H=2.0, Hlo=-1.0)
    d = np.tile([1.0, 1.0 / (2 * M)], T // 2)
    star = SsPolicy(0.0, 1.0 + 1.0 / (2 * M))
    continuous = simulate(star, d, p).avg_loss

    axis = grid_axis(-2 * M, 4 * M, 1.0, fitters.GRID_BUDGET) / M
    best, risk, _ = grid_search("ss", axis, d[None, :], p)
    return GapReport(
        grid_best_risk=risk,
        continuous_risk=continuous,
        gap=risk - continuous,
        grid_best_policy=best,
    )
