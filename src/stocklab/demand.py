"""Seeded generators for the demand processes used in the experiments.

All randomness flows through numpy's PCG64 generator seeded via
``SeedSequence``; the generator name is recorded in experiment metadata so
runs are reproducible across platforms.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Union

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
    """Independent per-period normals, clamped to [0, cap] and then rounded.

    The law of independent per-period demand: an i.i.d. model repeats one
    mean and one deviation, and a zero deviation puts all of a period's mass
    on the clamped, rounded mean.  ``integerize=False`` skips the rounding.
    """

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


@dataclass(frozen=True, eq=False)
class FiniteSupport:
    """Uniform distribution over an explicit list of demand sequences.

    The law on whole trajectories, which may be correlated across periods;
    a point mass is ``FiniteSupport((sequence,))``.  The atoms get a
    dataset's demand checks once and are kept as one read-only (n_atoms,
    T + L) float64 array.
    """

    atoms: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "atoms", Dataset.from_matrix(self.atoms).as_matrix())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FiniteSupport):
            return NotImplemented
        return np.array_equal(self.atoms, other.atoms)

    @property
    def n_periods(self) -> int:
        return self.atoms.shape[1]

    def as_matrix(self) -> np.ndarray:
        """The read-only atom array itself, not a copy."""
        return self.atoms


DemandModel = Union[IndependentNormals, FiniteSupport]


def draw(model: DemandModel, n: int, seed: int | tuple[int, ...]) -> Dataset:
    """Draw ``n`` demand sequences; bit-identical for identical arguments."""
    if n < 1:
        raise ValueError("n must be >= 1")
    key = seed if isinstance(seed, tuple) else (seed,)
    rng = make_rng(*key)
    if isinstance(model, IndependentNormals):
        raw = rng.normal(model.means, model.stds, size=(n, model.n_periods))
        return Dataset.from_matrix(clamp_round(raw, model.cap, model.integerize))
    if isinstance(model, FiniteSupport):
        idx = rng.integers(0, len(model.atoms), size=n)
        return Dataset.from_matrix(model.atoms[idx])
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
    """Per-period pmfs over {0, ..., cap} of an integer ``IndependentNormals``.

    Returns None for a finite support, which may be correlated across
    periods, and for a continuous model or a fractional cap; exact
    independent-demand evaluation is then unavailable.
    """
    if isinstance(model, IndependentNormals):
        cap = int(model.cap)
        if not model.integerize or model.cap != cap:
            return None
        return [
            truncated_normal_pmf(mu, sd, cap)
            for mu, sd in zip(model.means, model.stds)
        ]
    return None


def support_atoms(model: DemandModel) -> np.ndarray | None:
    """Explicit finite support as an (n_atoms, T+L) matrix, if the model has one."""
    if isinstance(model, FiniteSupport):
        return model.as_matrix()
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

    def __post_init__(self) -> None:
        for name in ("mu0", "sigma0", "nonst", "cap", "p_cycle", "iid_mu_spread",
                     "iid_sigma_spread", "support_size", "rho"):
            value = getattr(self, name)
            if (not isinstance(value, numbers.Real) or isinstance(value, bool)
                    or not math.isfinite(value)):
                raise ValueError(f"hyper {name} must be a finite number, got {value!r}")
        for name in ("mu0", "sigma0"):
            if getattr(self, name) < 0:
                raise ValueError(f"hyper {name} must be nonnegative")
        for name in ("cap", "p_cycle"):
            if getattr(self, name) <= 0:
                raise ValueError(f"hyper {name} must be positive")
        for name in ("nonst", "iid_mu_spread", "iid_sigma_spread"):
            if not 0 <= getattr(self, name) <= 1:
                raise ValueError(f"hyper {name} must lie in [0, 1]")
        if not isinstance(self.support_size, numbers.Integral) or self.support_size < 1:
            raise ValueError(
                f"hyper support_size must be an integer >= 1, got {self.support_size!r}")
        if not -1 <= self.rho <= 1:
            raise ValueError("hyper rho must lie in [-1, 1]")
        if not isinstance(self.integerize, bool):
            raise ValueError(
                f"hyper integerize must be true or false, got {self.integerize!r}")
        if self.support_form not in ("joint", "product"):
            raise ValueError(
                f"hyper support_form must be 'joint' or 'product', got {self.support_form!r}")


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
    ``oos-vs-N-St``, ``erm-vs-perm-ind``), one normal repeated in every
    period (``oos-vs-N-sS``), both as :class:`IndependentNormals`, or a
    finite support on whole sequences (``erm-vs-perm-corr``) as
    :class:`FiniteSupport`.  Its ``joint`` form draws ``support_size``
    atoms from the multivariate normal with covariance
    ``sigma_k sigma_l rho^|k-l|``, clamped and rounded like the independent
    models; its ``product`` form is every combination of per-period draws.
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
        return IndependentNormals((float(mu),) * n, (float(sigma),) * n, hyper.cap, hyper.integerize)
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
            # every combination, the last period varying fastest
            grids = np.meshgrid(*cols, indexing="ij")
            return FiniteSupport(np.stack(grids, axis=-1).reshape(-1, n))
        # the atoms come from their own generator, seeded from this one
        atom_rng = make_rng(int(rng.integers(0, 2**31 - 1)))
        k = np.arange(n)
        cov = np.outer(stds, stds) * hyper.rho ** np.abs(k[:, None] - k[None, :])
        eigvals, eigvecs = np.linalg.eigh(cov)
        factor = eigvecs * np.sqrt(np.maximum(eigvals, EIG_FLOOR))
        z = atom_rng.standard_normal((hyper.support_size, n))
        atoms = clamp_round(means + z @ factor.T, hyper.cap, hyper.integerize)
        return FiniteSupport(atoms)
    raise ValueError(f"unknown experiment kind {kind!r}")
