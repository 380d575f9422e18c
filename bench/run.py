"""Run one stocklab benchmark workload and print its metrics.

    python3 bench/run.py --workload horizon-sweep --seed 0 --seconds 30 --trace 0

Run it from the root of a stocklab checkout: it imports ``stocklab`` from
``./src`` and from nowhere else.  Every figure comes from fresh interpreters,
each a single process with one BLAS thread:

* ``--trace 0`` runs ``SETUP_SAMPLES - 1`` set-up-only interpreters, then one
  worker that sets up once more and times whole rounds of the workload for
  the rest of ``--seconds``.  It reports ``setup_s`` (median over all set-ups),
  ``run_s`` (mean round time) and ``peak_rss_mib`` (the worker's peak RSS).
* ``--trace 1`` runs one worker that alternates untraced and traced rounds
  and reports the per-layer metrics; its spans go to
  ``.bench_out/<workload>/seed<n>/spans.jsonl``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time

SETUP_SAMPLES = 5
HERE = os.path.dirname(os.path.abspath(__file__))


def parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def child(args: argparse.Namespace, env: dict, out_dir: str, seconds: float,
          setup_only: bool = False) -> dict:
    """Run worker.py in a fresh interpreter and return its JSON result."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", repr(seconds), "--trace", str(args.trace),
           "--out", out_dir]
    if setup_only:
        cmd.append("--setup-only")
    proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True,
                          timeout=seconds + 150)
    if proc.returncode != 0:
        raise SystemExit(f"worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    # turn SIGTERM into SystemExit, so subprocess.run kills and reaps the worker
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    begin = time.perf_counter()
    src = os.path.abspath("src")
    if not os.path.isfile(os.path.join(src, "stocklab", "__init__.py")):
        print("error: src/stocklab not found; run from the root of a stocklab checkout",
              file=sys.stderr)
        return 2
    env = dict(os.environ, PYTHONPATH=src, OMP_NUM_THREADS="1",
               OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    out_dir = os.path.abspath(os.path.join(".bench_out", args.workload, f"seed{args.seed}"))

    setups = []
    if not args.trace:
        for _ in range(SETUP_SAMPLES - 1):
            setups.append(child(args, env, out_dir, 0.0, setup_only=True)["setup_s"])
    result = child(args, env, out_dir, max(args.seconds - (time.perf_counter() - begin), 0.0))

    for name, digest in sorted(result["digests"].items()):
        print(f"sha256 {name} {digest}")
    if args.trace:
        metrics = result["metrics"]
        print(f"spans written to {result['spans']}")
        for name, metric in metrics.items():
            if metric["value"]:
                print(f"{name} {metric['value']:.6g} {metric['unit']}")
    else:
        setups.append(result["setup_s"])
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "run_s": {"value": statistics.fmean(result["run_s"]), "unit": "s"},
            "peak_rss_mib": {"value": result["peak_rss_mib"], "unit": "MiB"},
        }
        print(f"{args.workload} seed {args.seed}: "
              f"setup_s {metrics['setup_s']['value']:.4f} s (median of {len(setups)}), "
              f"run_s {metrics['run_s']['value']:.4f} s (mean of {len(result['run_s'])} rounds; "
              f"CPU {statistics.fmean(result['run_cpu_s']):.4f} s), "
              f"peak_rss_mib {metrics['peak_rss_mib']['value']:.1f} MiB")
    print(f"operations attempted {result['attempted']}, failed {result['failed']}")
    print(json.dumps({"correct": result["correct"], "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
