"""One benchmark process: set up a workload, time whole rounds of it, check outputs.

``run.py`` starts this script in a fresh interpreter with ``PYTHONPATH``
pointing at the checkout's ``src``.  It prints one JSON object as the last
line of its standard output:

* ``--setup-only``: ``setup_s`` alone (one more set-up sample);
* ``--trace 0``: ``setup_s``, the wall and CPU time of every round, peak RSS
  and the operation counts;
* ``--trace 1``: every per-layer metric.  Even rounds run untraced and odd
  rounds traced, so the tracing overhead is measured in the same process.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import statistics
import sys
import time
import traceback

from tracing import Tracer, per_layer_metrics


def parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", required=True, help="directory for emitted results and spans")
    parser.add_argument("--setup-only", action="store_true")
    return parser.parse_args(argv)


def sha256(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


class Tally:
    """Attempted and failed operations; ``correct`` turns false on a failed check."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.messages: set[str] = set()

    def record(self, op, output, error: str | None) -> None:
        self.attempted += 1
        if error is None:
            problems = op.check(output)
            if not problems:
                return
            self.correct = False
            error = "check failed: " + "; ".join(problems)
        self.failed += 1
        message = f"operation {op.name} failed: {error}"
        if message not in self.messages:
            self.messages.add(message)
            print(message, file=sys.stderr)


def run_round(ops) -> tuple[float, float, list]:
    """Run every operation once; return the summed wall and CPU times and the outputs."""
    wall = cpu = 0.0
    outputs = []
    for op in ops:
        start, cpu_start = time.perf_counter(), time.process_time()
        try:
            output, error = op.run(), None
        except Exception:  # an operation that raises counts as failed
            output, error = None, traceback.format_exc(limit=3)
        wall += time.perf_counter() - start
        cpu += time.process_time() - cpu_start
        outputs.append((op, output, error))
    return wall, cpu, outputs


def digests(ops, out_dir: str) -> dict[str, str]:
    found = {}
    for op in ops:
        for name in ("results.csv", "metadata.json"):
            path = os.path.join(out_dir, op.name, name)
            if op.config is not None and os.path.exists(path):
                found[f"{op.name}/{name}"] = sha256(path)
    return found


def measure(ops, seconds: float, tracer: Tracer | None,
            tally: Tally) -> tuple[list, list, list]:
    """Run whole rounds until the next one would end after ``seconds``.

    Returns the wall times of the untraced and of the traced rounds, and the
    CPU times of the untraced rounds.
    """
    min_rounds = 2 if tracer is not None else 3
    deadline = time.perf_counter() + seconds
    plain, traced, plain_cpu = [], [], []
    while True:
        round_start = time.perf_counter()
        if tracer is not None and len(plain) > len(traced):
            tracer.install()
            try:
                wall, _, outputs = run_round(ops)
            finally:
                tracer.uninstall()
            traced.append(wall)
        else:
            wall, cpu, outputs = run_round(ops)
            plain.append(wall)
            plain_cpu.append(cpu)
        for op, output, error in outputs:
            tally.record(op, output, error)
        last = time.perf_counter() - round_start
        if len(plain) + len(traced) >= min_rounds and time.perf_counter() + last > deadline:
            return plain, traced, plain_cpu


def layer_metrics(plain: list, traced: list, tracer: Tracer, import_s: float,
                  scipy_s: float) -> dict:
    """Per-layer metrics, each averaged over the traced rounds."""
    n = len(traced)
    values = {f"{name}.calls": count / n for name, count in tracer.calls().items()}
    values.update({f"{name}.self_s": t / n for name, t in tracer.self_times().items()})
    values.update({name: total / n for name, total in tracer.counters.items()})
    fits = values.pop("fitters.erm_St.fits", 0.0)
    converged = values.pop("fitters.erm_St.converged", 0.0)
    values["fitters.erm_St.converged_ratio"] = converged / fits if fits else 0.0
    values.update({
        "trace.run_s": statistics.fmean(traced),
        "trace.untraced_run_s": statistics.fmean(plain),
        "trace.overhead_s": statistics.fmean(traced) - statistics.fmean(plain),
        "trace.unwrapped_s": (sum(traced) - tracer.root_time()) / n,
        "setup.import_s": import_s,
        "setup.scipy_stats_s": scipy_s,
    })
    return {name: {"value": values.get(name, 0), "unit": unit}
            for name, unit, _ in per_layer_metrics()}


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    scipy_s = 0.0
    if args.trace:
        # traced runs report no setup_s, so they may split the import apart
        start = time.perf_counter()
        import scipy.stats  # noqa: F401  (the largest part of `import stocklab`)

        scipy_s = time.perf_counter() - start
    start = time.perf_counter()
    import stocklab  # noqa: F401

    import workloads

    import_s = time.perf_counter() - start + scipy_s
    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    ops = workloads.WORKLOADS[args.workload](args.seed, args.out)
    setup_s = time.perf_counter() - start
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    os.makedirs(args.out, exist_ok=True)
    for op in ops:
        if op.config is not None:
            os.makedirs(os.path.join(args.out, op.name), exist_ok=True)
            with open(os.path.join(args.out, op.name, "config.json"), "w") as fh:
                json.dump(op.config, fh, indent=2)
                fh.write("\n")

    tally = Tally()
    tracer = Tracer() if args.trace else None
    plain, traced, plain_cpu = measure(ops, args.seconds, tracer, tally)
    out = {"correct": tally.correct, "attempted": tally.attempted, "failed": tally.failed,
           "digests": digests(ops, args.out)}
    if tracer is None:
        out.update(setup_s=setup_s, run_s=plain, run_cpu_s=plain_cpu,
                   peak_rss_mib=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
    else:
        spans_path = os.path.join(args.out, "spans.jsonl")
        tracer.write_spans(spans_path)
        out.update(metrics=layer_metrics(plain, traced, tracer, import_s, scipy_s),
                   spans=spans_path)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
