"""Run-to-run spread of the end-to-end metrics, and how far two sets of runs agree.

    python3 bench/spread.py [--seeds 10] [--first-seed 1] [--sets 2]

Runs ``bench/run.py --trace 0`` on every workload in BENCHMARK.json, once per
seed, for ``run_seconds``.  Each set runs the same seeds; set 1 runs on every
workload before set 2 starts.  For every set and metric it prints the median
and the distance between the first and third quartiles as a share of the
median.  From the second set on it also prints how much worse the set's
median is than the first set's, as a share of the first.  Both figures are
shown next to the metric's bound.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def run_set(spec: dict, seeds: range) -> dict[str, dict]:
    """Per workload: every metric's values over the seeds, and the failed shares."""
    found = {}
    for workload in (w["name"] for w in spec["workloads"]):
        values: dict[str, list[float]] = {}
        shares = set()
        for seed in seeds:
            cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(spec["run_seconds"]), "--trace", "0"]
            out = subprocess.run(cmd, check=True, stdout=subprocess.PIPE, text=True).stdout
            result = json.loads(out.strip().splitlines()[-1])
            if not result["correct"]:
                print(f"{workload} seed {seed}: a check failed")
            shares.add(result["failed"] / result["attempted"])
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
        found[workload] = {"values": values, "shares": shares}
    return found


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--sets", type=int, default=2)
    args = parser.parse_args(argv)
    with open("BENCHMARK.json") as fh:
        spec = json.load(fh)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seeds = range(args.first_seed, args.first_seed + args.seeds)
    first: dict[str, dict[str, float]] = {}
    worst_spread = worst_shift = 0.0
    for set_no in range(1, args.sets + 1):
        for workload, found in run_set(spec, seeds).items():
            for name, vals in found["values"].items():
                median = statistics.median(vals)
                line = f"set {set_no} {workload} {name}: median {median:.4f}"
                if len(vals) >= 2:
                    q1, _, q3 = statistics.quantiles(vals, n=4)
                    spread = (q3 - q1) / median
                    worst_spread = max(worst_spread, spread / bounds[name])
                    line += f", quartile spread {spread:.4f}"
                base = first.setdefault(workload, {}).setdefault(name, median)
                if set_no > 1:
                    shift = median / base - 1
                    worst_shift = max(worst_shift, shift / bounds[name])
                    line += f", worse than set 1 by {shift:+.4f}"
                print(f"{line} (bound {bounds[name]}), values "
                      + " ".join(f"{v:.4f}" for v in vals), flush=True)
            print(f"set {set_no} {workload} failed share: {sorted(found['shares'])}", flush=True)
    print(f"largest quartile spread as a share of its bound: {worst_spread:.3f}")
    if args.sets > 1:
        print(f"largest worsening of a median against set 1, as a share of its bound: "
              f"{worst_shift:.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
