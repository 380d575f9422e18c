"""Seeded generators for the demand processes used in the experiments.

All randomness flows through numpy's PCG64 generator seeded via
``SeedSequence``; the generator name is recorded in experiment metadata so
runs are reproducible across platforms.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

from .core import Dataset, SystemParams

RNG_NAME = "numpy-PCG64"

# Eigenvalue floor for degenerate covariance factorizations (rho = +-1).
EIG_FLOOR = 1e-12


def make_rng(*key: int) -> np.random.Generator:
    """Generator derived deterministically from an integer key tuple."""
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(key)))


def clamp_round(values: np.ndarray, cap: float, integerize: bool) -> np.ndarray:
    """Clamp to [0, cap] first, then round half-to-even if integerizing."""
    out = np.clip(values, 0.0, cap)
    if integerize:
        out = np.rint(out)
    return out


@dataclass(frozen=True)
class IndependentNormals:
    """Independent per-period normals, truncated to [0, cap] and rounded."""

    means: tuple[float, ...]
    stds: tuple[float, ...]
    cap: float = 20.0
    integerize: bool = True

    def __post_init__(self) -> None:
        if len(self.means) != len(self.stds):
            raise ValueError("means and stds must have equal length")
        if self.cap <= 0:
            raise ValueError("cap must be positive")

    @property
    def n_periods(self) -> int:
        return len(self.means)


@dataclass(frozen=True)
class IIDNormal:
    """One normal distribution shared by every period."""

    mu: float
    sigma: float
    n_periods: int
    cap: float = 20.0
    integerize: bool = True

    def __post_init__(self) -> None:
        if self.cap <= 0:
            raise ValueError("cap must be positive")
        if self.n_periods < 1:
            raise ValueError("n_periods must be >= 1")


@dataclass(frozen=True)
class CorrelatedNormalSupport:
    """Uniform distribution over a finite support of joint-normal draws.

    The support consists of ``support_size`` draws from the multivariate
    normal with covariance ``sigma_k sigma_l rho^|k-l|``, clamped and rounded
    like the independent models.  ``support_seed`` fixes the support, so the
    model is a fully specified distribution.
    """

    means: tuple[float, ...]
    stds: tuple[float, ...]
    rho: float
    support_size: int
    support_seed: int
    cap: float = 20.0
    integerize: bool = True

    def __post_init__(self) -> None:
        if len(self.means) != len(self.stds):
            raise ValueError("means and stds must have equal length")
        if not -1.0 <= self.rho <= 1.0:
            raise ValueError("rho must lie in [-1, 1]")
        if self.support_size < 1:
            raise ValueError("support_size must be >= 1")
        if self.cap <= 0:
            raise ValueError("cap must be positive")

    @property
    def n_periods(self) -> int:
        return len(self.means)

    def covariance(self) -> np.ndarray:
        stds = np.asarray(self.stds)
        k = np.arange(len(stds))
        return np.outer(stds, stds) * self.rho ** np.abs(k[:, None] - k[None, :])

    def support(self) -> np.ndarray:
        """The (support_size, T+L) matrix of support atoms."""
        rng = make_rng(self.support_seed)
        cov = self.covariance()
        eigvals, eigvecs = np.linalg.eigh(cov)
        factor = eigvecs * np.sqrt(np.maximum(eigvals, EIG_FLOOR))
        z = rng.standard_normal((self.support_size, len(self.means)))
        raw = np.asarray(self.means) + z @ factor.T
        return clamp_round(raw, self.cap, self.integerize)


@dataclass(frozen=True)
class Deterministic:
    """A point mass on a single demand sequence."""

    sequence: tuple[float, ...]

    def __post_init__(self) -> None:
        Dataset.from_matrix([self.sequence])  # the demand checks of a dataset

    @property
    def n_periods(self) -> int:
        return len(self.sequence)


@dataclass(frozen=True)
class FiniteSupport:
    """Uniform distribution over an explicit list of demand sequences."""

    atoms: tuple[tuple[float, ...], ...]

    def __post_init__(self) -> None:
        Dataset.from_matrix(self.atoms)  # the demand checks of a dataset

    @property
    def n_periods(self) -> int:
        return len(self.atoms[0])

    def as_matrix(self) -> np.ndarray:
        return np.asarray(self.atoms, dtype=float)


DemandModel = Union[
    IndependentNormals, IIDNormal, CorrelatedNormalSupport, Deterministic, FiniteSupport
]


def draw(model: DemandModel, n: int, seed: int | tuple[int, ...]) -> Dataset:
    """Draw ``n`` demand sequences; bit-identical for identical arguments."""
    if n < 1:
        raise ValueError("n must be >= 1")
    key = seed if isinstance(seed, tuple) else (seed,)
    rng = make_rng(*key)
    if isinstance(model, IndependentNormals):
        raw = rng.normal(model.means, model.stds, size=(n, model.n_periods))
        return Dataset.from_matrix(clamp_round(raw, model.cap, model.integerize))
    if isinstance(model, IIDNormal):
        raw = rng.normal(model.mu, model.sigma, size=(n, model.n_periods))
        return Dataset.from_matrix(clamp_round(raw, model.cap, model.integerize))
    if isinstance(model, CorrelatedNormalSupport):
        support = model.support()
        idx = rng.integers(0, len(support), size=n)
        return Dataset.from_matrix(support[idx])
    if isinstance(model, Deterministic):
        return Dataset.from_matrix([model.sequence] * n)
    if isinstance(model, FiniteSupport):
        idx = rng.integers(0, len(model.atoms), size=n)
        return Dataset.from_matrix(model.as_matrix()[idx])
    raise TypeError(f"unknown demand model {type(model)!r}")


def truncated_normal_pmf(mu: float, sigma: float, cap: int) -> np.ndarray:
    """Probability mass over {0, ..., cap} of a clamped-and-rounded normal.

    The normal cdf is ``scipy.special.ndtr``, imported here so that importing
    stocklab does not load ``scipy.stats``.
    """
    if sigma == 0:
        pmf = np.zeros(cap + 1)
        pmf[int(np.rint(np.clip(mu, 0, cap)))] = 1.0
        return pmf
    from scipy.special import ndtr

    edges = np.arange(cap + 2) - 0.5
    cdf = ndtr((edges - mu) / sigma)
    pmf = np.diff(cdf)
    pmf[0] = cdf[1]
    pmf[-1] = 1.0 - cdf[-2]
    return pmf


def marginal_pmfs(model: DemandModel) -> list[np.ndarray] | None:
    """Per-period pmfs over {0, ..., cap} for independent integer models.

    Returns None when the model is not an independent integer-valued
    process (correlated supports, continuous models), in which case exact
    independent-demand evaluation is unavailable.
    """
    if isinstance(model, IndependentNormals) and model.integerize:
        cap = int(model.cap)
        if model.cap != cap:
            return None
        return [
            truncated_normal_pmf(mu, sd, cap)
            for mu, sd in zip(model.means, model.stds)
        ]
    if isinstance(model, IIDNormal) and model.integerize:
        cap = int(model.cap)
        if model.cap != cap:
            return None
        pmf = truncated_normal_pmf(model.mu, model.sigma, cap)
        return [pmf] * model.n_periods
    if isinstance(model, Deterministic):
        seq = np.asarray(model.sequence)
        if not np.all(seq == np.rint(seq)):
            return None
        pmfs = []
        for v in seq.astype(int):
            pmf = np.zeros(v + 1)
            pmf[v] = 1.0
            pmfs.append(pmf)
        return pmfs
    return None


def support_atoms(model: DemandModel) -> np.ndarray | None:
    """Explicit finite support as an (n_atoms, T+L) matrix, if the model has one."""
    if isinstance(model, Deterministic):
        return np.asarray([model.sequence], dtype=float)
    if isinstance(model, FiniteSupport):
        return model.as_matrix()
    if isinstance(model, CorrelatedNormalSupport):
        return model.support()
    return None


@dataclass(frozen=True)
class InstanceHyper:
    """Hyper-parameters of the instance samplers.

    ``nonst`` controls non-stationarity: per-period means are drawn from
    U((1-nonst) mu0, (1+nonst) mu0) and deviations from
    U((1-nonst) sigma0, (1+nonst) sigma0).  ``p_cycle`` is the target
    replenishment cycle length used to size the fixed ordering cost.
    """

    mu0: float = 10.0
    sigma0: float = 5.0
    nonst: float = 0.5
    cap: float = 20.0
    integerize: bool = True
    p_cycle: float = 2.0
    iid_mu_spread: float = 0.2
    iid_sigma_spread: float = 0.2
    support_size: int = 5
    rho: float = 0.0
    support_form: str = "joint"  # joint draws, or the product of per-period draws


def fixed_cost_for_cycle(p_cycle: float, p: SystemParams, mu: float = 10.0) -> float:
    """Fixed cost K making the cost-balancing order gap equal p_cycle * mu.

    Inverts the square-root order-gap formula
    gap = sqrt(2 K mu (h+b) / (h b)), so orders recur roughly every
    ``p_cycle`` periods; with h=1, b=9, mu=10 this is K = 4.5 p_cycle^2.
    """
    return p_cycle**2 * mu * p.h * p.b / (2.0 * (p.h + p.b))


def sample_instance(
    kind: str, seed: int | tuple[int, ...], p: SystemParams, hyper: InstanceHyper
) -> DemandModel:
    """Sample the demand model for one experiment instance.

    ``kind`` selects the generator family used by the corresponding
    experiment: per-period independent normals (``ee-vs-T``,
    ``oos-vs-N-St``, ``erm-vs-perm-ind``), a single shared normal
    (``oos-vs-N-sS``), or a correlated finite-support model
    (``erm-vs-perm-corr``).
    """
    key = seed if isinstance(seed, tuple) else (seed,)
    rng = make_rng(*key)
    n = p.horizon
    if kind in ("ee-vs-T", "oos-vs-N-St", "erm-vs-perm-ind"):
        means = rng.uniform((1 - hyper.nonst) * hyper.mu0, (1 + hyper.nonst) * hyper.mu0, n)
        stds = rng.uniform((1 - hyper.nonst) * hyper.sigma0, (1 + hyper.nonst) * hyper.sigma0, n)
        return IndependentNormals(tuple(means), tuple(stds), hyper.cap, hyper.integerize)
    if kind == "oos-vs-N-sS":
        mu = rng.uniform((1 - hyper.iid_mu_spread) * hyper.mu0, (1 + hyper.iid_mu_spread) * hyper.mu0)
        sigma = rng.uniform((1 - hyper.iid_sigma_spread) * hyper.sigma0, (1 + hyper.iid_sigma_spread) * hyper.sigma0)
        return IIDNormal(float(mu), float(sigma), n, hyper.cap, hyper.integerize)
    if kind == "erm-vs-perm-corr":
        means = rng.uniform((1 - hyper.nonst) * hyper.mu0, (1 + hyper.nonst) * hyper.mu0, n)
        stds = rng.uniform((1 - hyper.nonst) * hyper.sigma0, (1 + hyper.nonst) * hyper.sigma0, n)
        if hyper.support_form == "product":
            # control variant: per-period atoms drawn independently, support =
            # all combinations, so the true law is exactly a product law
            if hyper.support_size**n > 100_000:
                raise ValueError("product-form support too large to enumerate")
            cols = [
                clamp_round(rng.normal(means[t], stds[t], hyper.support_size),
                            hyper.cap, hyper.integerize)
                for t in range(n)
            ]
            atoms = tuple(
                tuple(float(v) for v in combo)
                for combo in itertools.product(*cols)
            )
            return FiniteSupport(atoms)
        if hyper.support_form != "joint":
            raise ValueError(f"unknown support_form {hyper.support_form!r}")
        support_seed = int(rng.integers(0, 2**31 - 1))
        return CorrelatedNormalSupport(
            tuple(means), tuple(stds), hyper.rho, hyper.support_size, support_seed,
            hyper.cap, hyper.integerize,
        )
    raise ValueError(f"unknown experiment kind {kind!r}")
