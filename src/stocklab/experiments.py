"""Experiment pipelines: estimation-error sweeps, sample-size sweeps, and
trajectory-fit versus product-fit comparisons.

Each runner replicates instances and dataset draws under derived seeds,
aggregates per-instance means into unweighted cross-instance means, and
returns metric records ready for CSV/SVG emission.  One ``ModelRisk`` per
instance evaluates risks: exactly whenever the demand model admits it
(finite support or independent integer marginals), otherwise on one shared
Monte-Carlo evaluation set.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .core import (
    BaseStock,
    Dataset,
    NonStationary,
    Policy,
    SsPolicy,
    SystemParams,
)
from .demand import (
    InstanceHyper,
    draw,
    fixed_cost_for_cycle,
    make_rng,
    sample_instance,
)
from .evaluate import (
    ModelRisk,
    best_integer_ss,
    exact_base_stock_levels,
    exact_base_stock_risk,
    exact_ss_risks,
    policy_losses,
)
from .fitters import (
    FitResult,
    StOptions,
    erm_St,
    erm_base_stock,
    erm_eoq_base_stock,
    erm_sS,
    grid_oracle,
    square_root_gap,
)
from .perm import build_marginals, perm_fit, solve_dp

EXPERIMENT_KINDS = (
    "ee-vs-T",
    "oos-vs-N-sS",
    "oos-vs-N-St",
    "erm-vs-perm-ind",
    "erm-vs-perm-corr",
)

POLICY_CLASSES = ("base-stock", "eoq", "ss", "st")

DEFAULT_CLASSES = {
    "ee-vs-T": ("base-stock", "ss", "st"),
    "oos-vs-N-sS": ("base-stock", "eoq", "ss"),
    "oos-vs-N-St": ("base-stock", "st"),
    "erm-vs-perm-ind": ("st",),
    "erm-vs-perm-corr": ("st",),
}

DEFAULT_DATASET_REPS = {
    "ee-vs-T": 20,
    "oos-vs-N-sS": 100,
    "oos-vs-N-St": 100,
    "erm-vs-perm-ind": 100,
    "erm-vs-perm-corr": 1,
}


@dataclass(frozen=True)
class ExperimentConfig:
    """Configuration of one experiment run (see README for the JSON schema)."""

    kind: str
    sweep: tuple[float, ...]
    system: SystemParams
    hyper: InstanceHyper = InstanceHyper()
    classes: tuple[str, ...] = ()
    instance_count: int = 10
    dataset_reps: int = 0  # 0 = per-kind default
    n_train: int = 20
    eval_samples: int = 2000
    best_in_class_samples: int = 2000
    st_restarts: int = 8
    seed: int = 0

    def __post_init__(self) -> None:
        if self.kind not in EXPERIMENT_KINDS:
            raise ValueError(f"unknown experiment kind {self.kind!r}")
        if not self.sweep:
            raise ValueError("sweep must be nonempty")
        # horizons and sample sizes are counts; only correlations are not
        if self.kind != "erm-vs-perm-corr" and not all(
            float(v).is_integer() for v in self.sweep
        ):
            raise ValueError(f"{self.kind} sweep values must be whole numbers")
        for name, low in (("instance_count", 1), ("dataset_reps", 0), ("n_train", 1),
                          ("eval_samples", 1), ("best_in_class_samples", 1),
                          ("st_restarts", 1), ("seed", 0)):
            value = getattr(self, name)
            if (not isinstance(value, numbers.Integral) or isinstance(value, bool)
                    or value < low):
                raise ValueError(f"{name} must be an integer >= {low}")
        if not self.classes:
            object.__setattr__(self, "classes", DEFAULT_CLASSES[self.kind])
        for c in self.classes:
            if c not in POLICY_CLASSES:
                raise ValueError(f"unknown policy class {c!r}")
        if self.dataset_reps == 0:
            object.__setattr__(
                self, "dataset_reps", DEFAULT_DATASET_REPS[self.kind]
            )

    @staticmethod
    def from_dict(raw: dict) -> "ExperimentConfig":
        if not isinstance(raw, dict):
            raise ValueError("config must be a JSON object")
        for key, shape, name in (("sweep", (list, tuple), "a list"),
                                 ("classes", (list, tuple), "a list"),
                                 ("system", dict, "an object"),
                                 ("hyper", dict, "an object")):
            if key in raw and not isinstance(raw[key], shape):
                raise ValueError(f"config key {key!r} must be {name}")
        if not all(isinstance(v, (int, float)) and not isinstance(v, bool)
                   for v in raw.get("sweep", ())):
            raise ValueError("config key 'sweep' must hold numbers")
        data = dict(raw)
        try:
            kind = data.pop("kind")
            sweep = tuple(data.pop("sweep"))
            system_raw = dict(data.pop("system"))
        except KeyError as exc:
            raise ValueError(f"config missing required key {exc.args[0]!r}") from exc
        hyper_raw = dict(data.pop("hyper", {}))
        try:
            hyper = InstanceHyper(**hyper_raw)
            if kind == "oos-vs-N-sS" and "K" not in system_raw:
                # size the fixed cost from the target replenishment cycle length
                probe = SystemParams(**{**system_raw, "K": 0.0})
                system_raw["K"] = fixed_cost_for_cycle(hyper.p_cycle, probe, mu=hyper.mu0)
            system = SystemParams(**system_raw)
        except TypeError as exc:
            raise ValueError(f"bad config field: {exc}") from exc
        if "classes" in data:
            data["classes"] = tuple(data["classes"])
        try:
            return ExperimentConfig(kind=kind, sweep=sweep, system=system,
                                    hyper=hyper, **data)
        except TypeError as exc:
            raise ValueError(f"bad config field: {exc}") from exc

    @staticmethod
    def from_json(path: str) -> "ExperimentConfig":
        with open(path) as fh:
            return ExperimentConfig.from_dict(json.load(fh))


@dataclass(frozen=True)
class MetricsRecord:
    """One aggregated metric curve point plus its per-instance values."""

    kind: str
    sweep_value: float
    policy_class: str
    metric: str
    value: float
    stderr: float
    seed: int
    instance_values: tuple[float, ...] = ()


def _aggregate(
    kind: str, sweep_value: float, policy_class: str, metric: str,
    per_instance: Sequence[float], seed: int,
) -> MetricsRecord:
    arr = np.asarray(per_instance, dtype=float)
    return MetricsRecord(
        kind=kind,
        sweep_value=float(sweep_value),
        policy_class=policy_class,
        metric=metric,
        value=float(arr.mean()),
        stderr=float(arr.std(ddof=1) / math.sqrt(len(arr))) if len(arr) > 1 else 0.0,
        seed=seed,
        instance_values=tuple(float(v) for v in arr),
    )


# ---------------------------------------------------------------------------
# fitting and evaluation helpers
# ---------------------------------------------------------------------------


def _fit(policy_class: str, data: Dataset, p: SystemParams, cfg: ExperimentConfig) -> FitResult:
    if policy_class == "base-stock":
        return erm_base_stock(data, p)
    if policy_class == "eoq":
        return erm_eoq_base_stock(data, p)
    if policy_class == "ss":
        return erm_sS(data, p, mode="integer-grid")
    if policy_class == "st":
        D = data.as_matrix()
        cap = p.level_cap()
        grid_points = (int(cap) + 1) ** p.horizon if cap == int(cap) else math.inf
        if np.all(D == np.rint(D)) and grid_points <= 20_000:
            return grid_oracle(data, "st", 1.0, p)
        return erm_St(data, p, StOptions(restarts=cfg.st_restarts, seed=cfg.seed))
    raise ValueError(f"unknown policy class {policy_class!r}")


def _best_in_class(
    policy_class: str, evaluator: ModelRisk, cfg: ExperimentConfig,
    seed_key: tuple[int, ...],
) -> tuple[Policy, float]:
    """Best-in-class policy and its true risk.

    It is computed exactly from the model's marginal pmfs where the class
    admits it (order-up-to classes via DP/kink enumeration, integer
    reorder-point grid); without pmfs it falls back to fitting on
    ``best_in_class_samples`` fresh draws.
    """
    p, pmfs = evaluator.p, evaluator.pmfs
    if pmfs is not None:
        if policy_class == "st" and p.K == 0:
            sol = solve_dp(pmfs, p)
            levels = tuple(float(v) for v in sol.order_up_to) + (0.0,) * p.L
            return NonStationary(levels), sol.risk
        if policy_class == "base-stock":
            cands = exact_base_stock_levels(pmfs, p)
            risks = exact_base_stock_risk(cands, pmfs, p)
            j = int(np.argmin(risks))
            return BaseStock(float(cands[j])), float(risks[j])
        if policy_class == "ss":
            return best_integer_ss(pmfs, p)
        if policy_class == "eoq":
            mu = sum(float(np.arange(len(f)) @ f) for f in pmfs) / len(pmfs)
            gap = square_root_gap(mu, p)
            grid = np.arange(0.0, p.level_cap() + gap + 1e-9, 0.05)
            risks = exact_ss_risks(grid - gap, grid, pmfs, p)
            j = int(np.argmin(risks))
            return SsPolicy(float(grid[j] - gap), float(grid[j])), float(risks[j])
    data = draw(evaluator.model, cfg.best_in_class_samples, seed_key)
    fit = _fit(policy_class, data, p, cfg)
    return fit.policy, evaluator(fit.policy)


def _random_feasible(
    fit: FitResult, policy_class: str, p: SystemParams, rng: np.random.Generator
) -> Policy:
    """A random policy from the family the fitter actually searched."""
    if policy_class == "base-stock":
        return BaseStock(float(rng.uniform(0, p.level_cap())))
    if policy_class == "eoq":
        gap = fit.diagnostics["delta"]
        S = float(rng.uniform(0, p.level_cap() + gap))
        return SsPolicy(S - gap, S)
    if policy_class == "ss":
        lo, hi, _ = p.ss_bounds()
        if fit.method == "integer-grid":
            s = int(rng.integers(math.ceil(lo), math.floor(hi) + 1))
            return SsPolicy(float(s), float(rng.integers(max(s, 0), math.floor(hi) + 1)))
        s = float(rng.uniform(lo, hi))
        return SsPolicy(s, float(rng.uniform(max(s, 0.0), hi)))
    return NonStationary(tuple(rng.uniform(0, p.level_cap(), p.horizon)))


def _sanity_check_fit(
    fit: FitResult, policy_class: str, data: Dataset, p: SystemParams,
    seed_key: tuple[int, ...],
) -> None:
    """The fitted policy must weakly beat random same-family policies in sample."""
    rng = make_rng(*seed_key)
    D = data.as_matrix()
    for _ in range(20):
        other = _random_feasible(fit, policy_class, p, rng)
        if isinstance(other, SsPolicy) and policy_class == "ss" and other.s < p.x1:
            continue  # outside the fitter's feasible region
        alt = float(policy_losses(other, D, p).mean())
        if fit.in_sample_risk > alt + 1e-9:
            raise AssertionError(
                f"fitted {policy_class} policy (risk {fit.in_sample_risk}) "
                f"beaten by {other} ({alt})"
            )


# ---------------------------------------------------------------------------
# runners
# ---------------------------------------------------------------------------


def run_ee_vs_T(cfg: ExperimentConfig) -> list[MetricsRecord]:
    """Estimation-error and out-of-sample ratios as the horizon grows.

    Requires K = 0 and an integer demand model; the unconstrained optimum is
    computed by exact DP per instance and used as the ratio denominator.
    """
    if cfg.kind != "ee-vs-T":
        raise ValueError(f"config kind {cfg.kind!r} is not ee-vs-T")
    if cfg.system.K != 0:
        raise ValueError("the horizon sweep requires K = 0")
    records: list[MetricsRecord] = []
    for sweep_idx, T in enumerate(cfg.sweep):
        p = replace(cfg.system, T=int(T))
        ee: dict[str, list[float]] = {c: [] for c in cfg.classes}
        oos: dict[str, list[float]] = {c: [] for c in cfg.classes}
        for inst in range(cfg.instance_count):
            model = sample_instance("ee-vs-T", (cfg.seed, 11, sweep_idx, inst), p, cfg.hyper)
            evaluator = ModelRisk(model, p, cfg.eval_samples, (cfg.seed, 13, sweep_idx, inst))
            if evaluator.pmfs is None:
                raise ValueError("the horizon sweep requires an integer demand model")
            r_opt = solve_dp(evaluator.pmfs, p).risk
            if r_opt <= 0:
                raise ValueError(
                    f"optimal risk is {r_opt} for instance {inst}; ratio undefined"
                )
            stars = {
                c: _best_in_class(c, evaluator, cfg, (cfg.seed, 17, sweep_idx, inst, ci))
                for ci, c in enumerate(cfg.classes)
            }
            ee_rep: dict[str, list[float]] = {c: [] for c in cfg.classes}
            oos_rep: dict[str, list[float]] = {c: [] for c in cfg.classes}
            for rep in range(cfg.dataset_reps):
                data = draw(model, cfg.n_train, (cfg.seed, 19, sweep_idx, inst, rep))
                for c in cfg.classes:
                    fit = _fit(c, data, p, cfg)
                    if rep == 0:
                        _sanity_check_fit(fit, c, data, p, (cfg.seed, 23, sweep_idx, inst))
                    risk = evaluator(fit.policy)
                    ee_rep[c].append(risk - stars[c][1])
                    oos_rep[c].append(risk)
            for c in cfg.classes:
                ee[c].append(float(np.mean(ee_rep[c])) / r_opt)
                oos[c].append(float(np.mean(oos_rep[c])) / r_opt)
        for c in cfg.classes:
            records.append(_aggregate(cfg.kind, T, c, "ee-ratio", ee[c], cfg.seed))
            records.append(_aggregate(cfg.kind, T, c, "oos-ratio", oos[c], cfg.seed))
    return records


def _crossing_point(sweep: Sequence[float], a: Sequence[float], b: Sequence[float]) -> float:
    """First sweep value where sign(a - b) flips and stays flipped; nan if none."""
    diff = np.asarray(a) - np.asarray(b)
    signs = np.sign(diff)
    for k in range(1, len(sweep)):
        if signs[k] != 0 and signs[k] != signs[0] and all(
            s == signs[k] or s == 0 for s in signs[k:]
        ):
            return float(sweep[k])
    return math.nan


def run_oos_vs_N(cfg: ExperimentConfig) -> list[MetricsRecord]:
    """Out-of-sample ratio curves as the sample size grows.

    The denominator is the best-in-class risk of the richest class of the
    comparison: the reorder-point class for the fixed-cost kind, the
    per-period-level class for the zero-fixed-cost kind.  A crossing record
    reports where the two headline curves trade places.
    """
    if cfg.kind == "oos-vs-N-sS":
        denom_class = "ss"
        pair = ("eoq", "ss")
        if cfg.system.K <= 0:
            raise ValueError("the fixed-cost comparison requires K > 0")
    elif cfg.kind == "oos-vs-N-St":
        denom_class = "st"
        pair = ("base-stock", "st")
        if cfg.system.K != 0:
            raise ValueError("the level-sweep comparison requires K = 0")
    else:
        raise ValueError(f"config kind {cfg.kind!r} is not an oos-vs-N kind")
    p = cfg.system
    per_instance: dict[tuple[str, float], list[float]] = {
        (c, n): [] for c in cfg.classes for n in cfg.sweep
    }
    for inst in range(cfg.instance_count):
        model = sample_instance(cfg.kind, (cfg.seed, 29, inst), p, cfg.hyper)
        evaluator = ModelRisk(model, p, cfg.eval_samples, (cfg.seed, 31, inst))
        _, r_star = _best_in_class(denom_class, evaluator, cfg, (cfg.seed, 37, inst))
        if r_star <= 0:
            raise ValueError(
                f"best-in-class risk is {r_star} for instance {inst}; ratio undefined"
            )
        for n_idx, n in enumerate(cfg.sweep):
            risks: dict[str, list[float]] = {c: [] for c in cfg.classes}
            for rep in range(cfg.dataset_reps):
                data = draw(model, int(n), (cfg.seed, 41, inst, n_idx, rep))
                for c in cfg.classes:
                    fit = _fit(c, data, p, cfg)
                    if rep == 0:
                        _sanity_check_fit(fit, c, data, p, (cfg.seed, 43, inst, n_idx))
                    risks[c].append(evaluator(fit.policy))
            for c in cfg.classes:
                per_instance[(c, n)].append(float(np.mean(risks[c])) / r_star)
    records = []
    for c in cfg.classes:
        for n in cfg.sweep:
            records.append(
                _aggregate(cfg.kind, n, c, "oos-ratio", per_instance[(c, n)], cfg.seed)
            )
    if pair[0] in cfg.classes and pair[1] in cfg.classes:
        a = [float(np.mean(per_instance[(pair[0], n)])) for n in cfg.sweep]
        b = [float(np.mean(per_instance[(pair[1], n)])) for n in cfg.sweep]
        records.append(
            MetricsRecord(
                kind=cfg.kind,
                sweep_value=_crossing_point(cfg.sweep, a, b),
                policy_class=f"{pair[0]}-vs-{pair[1]}",
                metric="crossing-N",
                value=_crossing_point(cfg.sweep, a, b),
                stderr=0.0,
                seed=cfg.seed,
            )
        )
    return records


def run_erm_vs_perm(cfg: ExperimentConfig) -> list[MetricsRecord]:
    """Ratio of trajectory-fit risk to product-fit risk.

    The independent kind sweeps the sample size; the correlated kind sweeps
    the correlation coefficient with both policies fitted directly on the
    model's finite support (the infinite-training-data regime).  Fixed costs
    must be zero.
    """
    if cfg.system.K != 0:
        raise ValueError("product-fit comparisons require K = 0")
    p = cfg.system
    records: list[MetricsRecord] = []
    if cfg.kind == "erm-vs-perm-ind":
        for n_idx, n in enumerate(cfg.sweep):
            ratios: list[float] = []
            for inst in range(cfg.instance_count):
                model = sample_instance(cfg.kind, (cfg.seed, 47, inst), p, cfg.hyper)
                evaluator = ModelRisk(model, p, cfg.eval_samples, (cfg.seed, 53, inst))
                erm_risks = []
                perm_risks = []
                for rep in range(cfg.dataset_reps):
                    data = draw(model, int(n), (cfg.seed, 59, inst, n_idx, rep))
                    erm_risks.append(evaluator(_fit("st", data, p, cfg).policy))
                    pfit = perm_fit(build_marginals(data), p, "st")
                    perm_risks.append(evaluator(pfit.policy))
                denom = float(np.mean(perm_risks))
                if denom <= 0:
                    raise ValueError(
                        f"product-fit risk is {denom} for instance {inst}; ratio undefined"
                    )
                ratios.append(float(np.mean(erm_risks)) / denom)
            records.append(
                _aggregate(cfg.kind, n, "st", "erm-perm-ratio", ratios, cfg.seed)
            )
        return records
    if cfg.kind == "erm-vs-perm-corr":
        for rho in cfg.sweep:
            if not -1.0 <= rho <= 1.0:
                raise ValueError(f"sweep value {rho} is not a correlation")
        for rho in cfg.sweep:
            ratios = []
            hyper = replace(cfg.hyper, rho=float(rho))
            for inst in range(cfg.instance_count):
                model = sample_instance(cfg.kind, (cfg.seed, 61, inst), p, hyper)
                evaluator = ModelRisk(model, p)
                data = Dataset.from_matrix(evaluator.atoms)
                erm_policy = _fit("st", data, p, cfg).policy
                perm_policy = perm_fit(build_marginals(data), p, "st").policy
                denom = evaluator(perm_policy)
                if denom <= 0:
                    raise ValueError(
                        f"product-fit risk is {denom} for instance {inst}; ratio undefined"
                    )
                ratios.append(evaluator(erm_policy) / denom)
            records.append(
                _aggregate(cfg.kind, rho, "st", "erm-perm-ratio", ratios, cfg.seed)
            )
        return records
    raise ValueError(f"config kind {cfg.kind!r} is not an erm-vs-perm kind")


def run_experiment(cfg: ExperimentConfig) -> list[MetricsRecord]:
    """Dispatch to the runner matching the configured kind."""
    if cfg.kind == "ee-vs-T":
        return run_ee_vs_T(cfg)
    if cfg.kind in ("oos-vs-N-sS", "oos-vs-N-St"):
        return run_oos_vs_N(cfg)
    return run_erm_vs_perm(cfg)
