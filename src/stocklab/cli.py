"""Command-line entry point.

Subcommands cover every library operation: ``simulate`` one policy on one
demand path, ``fit`` a policy class to a demand CSV, ``perm`` for
product-distribution fitting, ``shatter`` and ``gap`` for the
margin-shattering and discretization checks, ``rademacher`` for complexity
estimates, and ``experiment`` for full configured runs.

Exit codes: 0 success, 1 invalid input or configuration, 2 runtime or
budget failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import warnings
from dataclasses import asdict, replace

from . import __version__
from .core import (
    BaseStock,
    BudgetError,
    Dataset,
    NonStationary,
    Policy,
    SsPolicy,
    SystemParams,
    delta_breakpoints,
    read_demands_csv,
    reorder_schedule,
    simulate,
    write_demands_csv,
)
from .demand import InstanceHyper, sample_instance
from .emit import emit_results, write_metadata
from .estimators import ge_estimate, rademacher_estimate
from .experiments import POLICY_CLASSES, ExperimentConfig, run_experiment
from .fitters import (
    StOptions,
    erm_St,
    erm_base_stock,
    erm_eoq_base_stock,
    erm_sS,
    grid_oracle,
)
from .perm import build_marginals, perm_fit, product_partition
from .shatter import (
    discretization_gap,
    gen_sS_prime_shatter,
    gen_st_K_shatter,
    gen_st_shatter,
    verify_shattering,
)


def parse_policy(text: str) -> Policy:
    """Parse the compact policy grammar: base-stock:5 | ss:-2,7 | st:3,7,5."""
    try:
        name, _, rest = text.partition(":")
        values = [float(v) for v in rest.split(",")] if rest else []
        if name == "base-stock" and len(values) == 1:
            return BaseStock(values[0])
        if name == "ss" and len(values) == 2:
            return SsPolicy(values[0], values[1])
        if name == "st" and values:
            return NonStationary(tuple(values))
    except ValueError as exc:
        raise ValueError(f"--policy {text!r}: {exc}") from exc
    raise ValueError(
        f"--policy {text!r} is not of the form base-stock:S, ss:s,S or st:S1,...,Sn"
    )


def _add_system_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--T", type=int, required=True, help="number of charged periods")
    sub.add_argument("--L", type=int, default=0, help="lead time (default 0)")
    sub.add_argument("--h", type=float, default=1.0, help="unit holding cost")
    sub.add_argument("--b", type=float, default=9.0, help="unit backlog cost")
    sub.add_argument("--K", type=float, default=0.0, help="fixed ordering cost")
    sub.add_argument("--U", type=float, default=20.0, help="demand upper bound")
    sub.add_argument("--x1", type=float, default=None,
                     help="initial level (default: class-specific)")
    sub.add_argument("--H", type=float, default=None, help="policy upper bound override")
    sub.add_argument("--Hlo", type=float, default=None,
                     help="reorder-point lower bound override")


def _system_from_args(args: argparse.Namespace, needs_low_start: bool) -> SystemParams:
    p = SystemParams(T=args.T, L=args.L, h=args.h, b=args.b, K=args.K, U=args.U,
                     x1=0.0, H=args.H, Hlo=args.Hlo)
    if args.x1 is not None:
        return replace(p, x1=args.x1)
    if needs_low_start:
        lo, _, _ = p.ss_bounds()
        return replace(p, x1=lo)
    return p


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stocklab",
        description="Backlogged inventory simulation, policy fitting, and "
                    "generalization experiments.",
    )
    parser.add_argument("--version", action="version", version=f"stocklab {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)

    sim = subs.add_parser("simulate", help="simulate one policy on one demand path")
    sim.add_argument("--policy", required=True,
                     help="base-stock:S | ss:s,S | st:S1,...,Sn")
    sim.add_argument("--demands", required=True, help="comma-separated demand path")
    sim.add_argument("--unchecked", action="store_true",
                     help="skip policy-bound validation")
    sim.add_argument("--schedule", type=float, metavar="DELTA",
                     help="also print the reorder schedule for this order gap")
    sim.add_argument("--breakpoints", action="store_true",
                     help="also print the order-gap breakpoints of the path")
    sim.add_argument("--out", help="directory for trajectory CSV and metadata")
    _add_system_flags(sim)

    fit = subs.add_parser("fit", help="fit a policy class to a demand CSV by "
                                      "empirical risk minimization")
    fit.add_argument("--class", dest="policy_class", required=True,
                     choices=POLICY_CLASSES,
                     help="policy class to fit")
    fit.add_argument("--data", required=True, help="demand CSV (rows = sequences)")
    fit.add_argument("--mode", default="exact", choices=["exact", "integer-grid"],
                     help="(s, S) search mode")
    fit.add_argument("--restarts", type=int, default=8,
                     help="restarts for the per-period-level search")
    fit.add_argument("--seed", type=int, default=0, help="restart seed")
    fit.add_argument("--grid-oracle", type=float, metavar="STEP", default=None,
                     help="use the exhaustive grid oracle at this step instead "
                          "of the structured fitter")
    fit.add_argument("--out", help="directory for the fit record and metadata")
    _add_system_flags(fit)

    perm = subs.add_parser("perm",
                           help="fit against the product of per-period "
                                "empirical marginals via backward DP",
                           description="Fit against the product of per-period "
                                       "empirical marginals via backward DP.")
    perm.add_argument("--class", dest="policy_class", default="st",
                      choices=["st", "ss"], help="policy class to fit")
    perm.add_argument("--data", required=True, help="demand CSV (rows = sequences)")
    perm.add_argument("--partition", action="store_true",
                      help="also print the disjoint partition of the product "
                           "sample indices")
    perm.add_argument("--out", help="directory for the fit record and metadata")
    _add_system_flags(perm)

    sh = subs.add_parser("shatter", help="generate and verify a margin-shattering "
                                         "construction")
    sh.add_argument("--construction", required=True, choices=["st", "st-k", "ss-prime"],
                    help="st: per-period spikes; st-k: fixed-cost reorder counting; "
                         "ss-prime: prime-product order gaps")
    sh.add_argument("--T", type=int, help="horizon (st and st-k)")
    sh.add_argument("--K", type=float, default=1.0, help="fixed cost (st-k)")
    sh.add_argument("--m", type=int, help="sample count (ss-prime)")
    sh.add_argument("--b", type=float, default=0.5, help="backlog cost (ss-prime)")
    sh.add_argument("--gamma", type=float, default=None,
                    help="margin override (default: the instance's margin)")
    sh.add_argument("--cap", type=int, default=16, help="max shatterable samples")
    sh.add_argument("--verify", action="store_true", help="run the exhaustive check")
    sh.add_argument("--out", help="directory for the instance CSV and metadata")

    rad = subs.add_parser(
        "rademacher",
        help="Monte-Carlo complexity estimates for the base-stock loss class",
        description="Monte-Carlo Rademacher complexity of the base-stock loss "
                    "class on a dataset, or (with --ge) its generalization "
                    "error under a sampled demand model.",
    )
    rad.add_argument("--data", help="demand CSV (rows = sequences)")
    rad.add_argument("--draws", type=int, default=200, help="sign-vector draws")
    rad.add_argument("--seed", type=int, default=0, help="draw seed")
    rad.add_argument("--ge", action="store_true",
                     help="estimate the generalization error instead")
    rad.add_argument("--model-kind", default="ee-vs-T",
                     help="instance sampler kind for --ge")
    rad.add_argument("--n-train", type=int, default=20,
                     help="training sample size for --ge")
    rad.add_argument("--reps", type=int, default=100,
                     help="dataset replications for --ge")
    rad.add_argument("--eval-samples", type=int, default=2000,
                     help="fresh draws for the true-risk side of --ge")
    rad.add_argument("--out", help="directory for the estimate and metadata")
    _add_system_flags(rad)

    gap = subs.add_parser("gap", help="discretization gap of the 1/M grid on the "
                                      "alternating-demand instance")
    gap.add_argument("--M", type=int, required=True, help="grid fineness")
    gap.add_argument("--T", type=int, default=200, help="horizon (even)")
    gap.add_argument("--out", help="directory for the report and metadata")

    exp = subs.add_parser("experiment", help="run a configured experiment",
                          description="Run a configured experiment; kinds: "
                                      "ee-vs-T, oos-vs-N-sS, oos-vs-N-St, "
                                      "erm-vs-perm-ind, erm-vs-perm-corr.")
    exp.add_argument("--config", required=True, help="JSON experiment config")
    exp.add_argument("--out", required=True, help="output directory")
    exp.add_argument("--seed", type=int, default=None, help="override config seed")
    return parser


def _cmd_simulate(args: argparse.Namespace) -> int:
    policy = parse_policy(args.policy)
    try:
        demands = [float(v) for v in args.demands.split(",")]
    except ValueError as exc:
        raise ValueError(f"--demands: {exc}") from exc
    D = Dataset.from_matrix([demands]).as_matrix()  # the demand checks of a dataset
    p = _system_from_args(args, isinstance(policy, SsPolicy))
    traj = simulate(policy, demands, p, unchecked=args.unchecked)
    if args.schedule is not None:
        # the order periods are the distinct last-order periods; found before
        # the first line is printed, so a bad gap prints nothing
        times = sorted(set(reorder_schedule([args.schedule], D, p)[0, 0].tolist()))
    print(f"avgLoss {traj.avg_loss:g}")
    if args.schedule is not None:
        print("reorderPeriods " + ",".join(str(t) for t in times))
    if args.breakpoints:
        bps = delta_breakpoints(D, p).tolist()
        print("gapBreakpoints " + ",".join(f"{v:g}" for v in bps))
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        with open(os.path.join(args.out, "trajectory.csv"), "w") as fh:
            fh.write("t,x,q,y,position,loss\n")
            for t in range(1, p.horizon + 1):
                loss = traj.per_period_loss[t - p.L - 1] if t >= p.L + 1 else ""
                fh.write(
                    f"{t},{traj.x[t - 1]!r},{traj.q[t - 1]!r},{traj.y[t - 1]!r},"
                    f"{traj.inventory_position[t - 1]!r},{loss!r}\n"
                )
        write_metadata(args.out, {"command": "simulate", "avg_loss": traj.avg_loss,
                                  "policy": args.policy, "system": asdict(p)})
    return 0


def _policy_text(policy: Policy) -> str:
    if isinstance(policy, BaseStock):
        return f"base-stock:{policy.S:g}"
    if isinstance(policy, SsPolicy):
        return f"ss:{policy.s:g},{policy.S:g}"
    return "st:" + ",".join(f"{v:g}" for v in policy.levels)


def _cmd_fit(args: argparse.Namespace) -> int:
    data = read_demands_csv(args.data)
    p = _system_from_args(args, args.policy_class in ("ss",))
    if args.grid_oracle is not None:
        if args.policy_class == "eoq":
            raise ValueError("--grid-oracle supports base-stock, ss and st only")
        result = grid_oracle(data, args.policy_class, args.grid_oracle, p)
    elif args.policy_class == "base-stock":
        result = erm_base_stock(data, p)
    elif args.policy_class == "eoq":
        result = erm_eoq_base_stock(data, p)
    elif args.policy_class == "ss":
        result = erm_sS(data, p, mode=args.mode)
    else:
        result = erm_St(data, p, StOptions(restarts=args.restarts, seed=args.seed))
    print(f"policy {_policy_text(result.policy)}")
    print(f"inSampleRisk {result.in_sample_risk:.12g}")
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        record = {
            "class": args.policy_class,
            "policy": _policy_text(result.policy),
            "in_sample_risk": result.in_sample_risk,
            "method": result.method,
            "diagnostics": result.diagnostics,
        }
        with open(os.path.join(args.out, "fit.json"), "w") as fh:
            json.dump(record, fh, indent=2, sort_keys=True)
            fh.write("\n")
        write_metadata(args.out, {"command": "fit", "system": asdict(p),
                                  "seed": args.seed})
    return 0


def _cmd_perm(args: argparse.Namespace) -> int:
    data = read_demands_csv(args.data)
    p = _system_from_args(args, args.policy_class == "ss")
    result = perm_fit(build_marginals(data), p, args.policy_class)
    print(f"policy {_policy_text(result.policy)}")
    print(f"productRisk {result.in_sample_risk:.12g}")
    if args.partition:
        for group in product_partition(len(data), p.horizon):
            print("group " + " ".join("".join(map(str, tup)) for tup in group))
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        record = {
            "class": args.policy_class,
            "policy": _policy_text(result.policy),
            "product_risk": result.in_sample_risk,
            "method": result.method,
        }
        with open(os.path.join(args.out, "perm.json"), "w") as fh:
            json.dump(record, fh, indent=2, sort_keys=True)
            fh.write("\n")
        write_metadata(args.out, {"command": "perm", "system": asdict(p)})
    return 0


def _cmd_shatter(args: argparse.Namespace) -> int:
    if args.construction == "st":
        if args.T is None:
            raise ValueError("--T is required for --construction st")
        inst = gen_st_shatter(args.T)
    elif args.construction == "st-k":
        if args.T is None:
            raise ValueError("--T is required for --construction st-k")
        inst = gen_st_K_shatter(args.T, args.K)
    else:
        if args.m is None:
            raise ValueError("--m is required for --construction ss-prime")
        inst = gen_sS_prime_shatter(args.m, args.b)
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        write_demands_csv(inst.dataset, os.path.join(args.out, "instance.csv"))
        write_metadata(args.out, {
            "command": "shatter",
            "construction": args.construction,
            "witnesses": list(inst.witnesses),
            "gamma": args.gamma if args.gamma is not None else inst.gamma,
            "meta": inst.meta,
        })
    if args.verify:
        report = verify_shattering(inst, gamma=args.gamma, cap=args.cap,
                                   collect=bool(args.out))
        if args.out and report.achieved is not None:
            with open(os.path.join(args.out, "achieved.csv"), "w") as fh:
                fh.write("subset,sample,value,witness\n")
                for bits in range(report.achieved.shape[0]):
                    members = "+".join(
                        str(i) for i in range(inst.size) if bits >> i & 1
                    )
                    for i in range(inst.size):
                        fh.write(f"{members},{i},{float(report.achieved[bits, i])!r},"
                                 f"{float(inst.witnesses[i])!r}\n")
        if report.ok:
            print(f"ok ({report.subsets_checked} subsets)")
            return 0
        print(f"FAILED ({len(report.failures)} violations over "
              f"{report.subsets_checked} subsets)")
        for f in report.failures[:10]:
            print(f"  subset={f.subset} sample={f.sample} achieved={f.achieved:.6g} "
                  f"witness={f.witness:.6g} side={f.side}")
        return 1
    print(f"instance with {inst.size} samples (margin {inst.gamma:g}); "
          f"pass --verify to check all subsets")
    return 0


def _cmd_rademacher(args: argparse.Namespace) -> int:
    p = _system_from_args(args, False)
    if args.ge:
        model = sample_instance(args.model_kind, args.seed, p, InstanceHyper())
        ge = ge_estimate(model, args.n_train, p, reps=args.reps,
                         eval_samples=args.eval_samples, seed=args.seed)
        print(f"meanGE {ge.mean_ge:.6g}")
        print(f"stderr {ge.stderr:.6g}")
        if args.out:
            write_metadata(args.out, {
                "command": "rademacher --ge", "mean_ge": ge.mean_ge,
                "stderr": ge.stderr, "reps": ge.reps,
                "exact_sup": ge.exact_sup, "seed": args.seed,
            })
        return 0
    if not args.data:
        raise ValueError("--data is required unless --ge is given")
    data = read_demands_csv(args.data)
    report = rademacher_estimate(data, p, draws=args.draws, seed=args.seed)
    print(f"estimate {report.estimate:.6g}")
    print(f"stderr {report.stderr:.6g}")
    if args.out:
        write_metadata(args.out, {
            "command": "rademacher", "estimate": report.estimate,
            "stderr": report.stderr, "draws": report.draws,
            "exact_sup": report.exact_sup, "seed": args.seed,
        })
    return 0


def _cmd_gap(args: argparse.Namespace) -> int:
    report = discretization_gap(args.M, args.T)
    print(f"gridBestRisk {report.grid_best_risk:.10g}")
    print(f"continuousRisk {report.continuous_risk:.10g}")
    print(f"gap {report.gap:.10g}")
    if args.out:
        write_metadata(args.out, {
            "command": "gap", "M": args.M, "T": args.T,
            "grid_best_risk": report.grid_best_risk,
            "continuous_risk": report.continuous_risk,
            "gap": report.gap,
        })
    return 0


def _cmd_experiment(args: argparse.Namespace) -> int:
    try:
        cfg = ExperimentConfig.from_json(args.config)
    except FileNotFoundError as exc:
        raise ValueError(f"--config: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ValueError(f"--config {args.config}: invalid JSON ({exc})") from exc
    if args.seed is not None:
        cfg = replace(cfg, seed=args.seed)
    records = run_experiment(cfg)
    paths = emit_results(records, args.out, cfg)
    for path in paths:
        print(path)
    return 0


_HANDLERS = {
    "simulate": _cmd_simulate,
    "fit": _cmd_fit,
    "perm": _cmd_perm,
    "shatter": _cmd_shatter,
    "rademacher": _cmd_rademacher,
    "gap": _cmd_gap,
    "experiment": _cmd_experiment,
}


def _show_warning(message, category, filename, lineno, file=None, line=None) -> None:
    """Print a warning as one ``warning:`` line, like the ``error:`` lines."""
    print(f"warning: {message}", file=sys.stderr)


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse uses exit code 2 for usage errors; those are input errors
        return 0 if not exc.code else 1
    try:
        with warnings.catch_warnings():
            warnings.showwarning = _show_warning
            return _HANDLERS[args.command](args)
    except (ValueError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (BudgetError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
