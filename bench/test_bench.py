"""Self-test of the benchmark: every check catches a corrupted output.

    PYTHONPATH=src python3 -m pytest -q bench/test_bench.py

Each workload's operations run once for real (seed 0); their outputs must
pass, and each output corrupted by hand must fail its check and be counted
as a failed operation.
"""

from __future__ import annotations

import dataclasses
import json
import os

import numpy as np
import pytest

import stocklab
import tracing
import workloads
from worker import Tally

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _bump(records, predicate, value):
    """Copy of records with the first instance value of matching records set to value."""
    return [
        dataclasses.replace(r, instance_values=(value,) + r.instance_values[1:])
        if predicate(r) else r
        for r in records
    ]


CORRUPTIONS = {
    "horizon-sweep": {
        "ee-vs-T": [
            lambda recs: _bump(recs, lambda r: r.metric == "oos-ratio", 0.99),
            lambda recs: _bump(recs, lambda r: r.metric == "ee-ratio", -0.01),
            lambda recs: recs[:-1],
        ],
    },
    "fixed-cost-crossing": {
        "oos-vs-N-sS": [
            lambda recs: _bump(recs, lambda r: r.policy_class == "ss", 0.99),
            lambda recs: _bump(recs, lambda r: r.metric == "oos-ratio", float("nan")),
        ],
    },
    "product-fit": {
        "erm-vs-perm-ind": [lambda recs: _bump(recs, lambda r: True, 0.0)],
        "erm-vs-perm-corr-neg": [lambda recs: _bump(recs, lambda r: True, -1.0)],
        "erm-vs-perm-corr-control": [
            lambda recs: [dataclasses.replace(r, value=1.01) for r in recs],
        ],
    },
    "complexity-lab": {
        **{
            f"ge_estimate-T{T}-n{n}": [
                lambda rep: dataclasses.replace(rep, values=(-1e6,) + rep.values[1:]),
                lambda rep: dataclasses.replace(rep, values=rep.values[:-1]),
            ]
            for T, n in ((10, 10), (10, 40), (10, 160), (40, 40))
        },
        "rademacher_estimate": [lambda rep: dataclasses.replace(rep, estimate=1e6)],
        "verify_shattering": [
            lambda rep: dataclasses.replace(rep, ok=False),
            lambda rep: dataclasses.replace(rep, subsets_checked=2048),
        ],
        **{
            f"discretization_gap-M{M}": [
                lambda rep: dataclasses.replace(rep, continuous_risk=rep.continuous_risk + 1e-6),
            ]
            for M in workloads.GAP_GRIDS
        },
    },
}


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_checks_pass_real_outputs_and_catch_corrupted_ones(workload, tmp_path):
    ops = workloads.WORKLOADS[workload](0, str(tmp_path))
    assert sorted(op.name for op in ops) == sorted(CORRUPTIONS[workload])
    for op in ops:
        output = op.run()
        assert op.check(output) == [], op.name
        for corrupt in CORRUPTIONS[workload][op.name]:
            tally = Tally()
            tally.record(op, output, None)
            tally.record(op, corrupt(output), None)
            assert (tally.attempted, tally.failed, tally.correct) == (2, 1, False), op.name


def test_horizon_check_exempts_only_monte_carlo_scored_st_instances(tmp_path):
    (op,) = workloads.WORKLOADS["horizon-sweep"](0, str(tmp_path))
    records = op.run()
    exempt = workloads._mc_scored_st(op.check.args[0])
    # at seed 0 the T = 60 erm_St fit has a fractional level
    assert exempt == {(60, 0)}
    for T, expected in ((60, []), (20, ["oos-ratio"])):
        low = _bump(records, lambda r: (r.policy_class, r.metric, r.sweep_value)
                    == ("st", "oos-ratio", T), 0.5)
        assert [e.split(" ", 3)[2] for e in op.check(low)] == expected, T


def test_an_operation_that_raises_is_failed_but_not_incorrect():
    op = workloads.Operation("boom", lambda: 1 / 0, lambda out: [])
    tally = Tally()
    tally.record(op, None, "ZeroDivisionError")
    assert (tally.attempted, tally.failed, tally.correct) == (1, 1, True)


def test_tracer_wraps_every_binding_and_self_times_add_up():
    p = stocklab.SystemParams(T=4, L=0, h=1.0, b=9.0, K=0.0, U=20.0)
    data = stocklab.Dataset.from_matrix(np.arange(12.0).reshape(3, 4))
    original = stocklab.evaluate.st_losses
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert stocklab.fitters.st_losses is stocklab.evaluate.st_losses is not original
        stocklab.erm_St(data, p)
    finally:
        tracer.uninstall()
    assert stocklab.fitters.st_losses is stocklab.evaluate.st_losses is original
    names = {index: span[0] for index, span in enumerate(tracer.spans)}
    parents = {names[parent] for name, _, _, parent in tracer.spans
               if name == "evaluate.st_losses"}
    assert "fitters.erm_St" in parents
    assert sum(tracer.self_times().values()) == pytest.approx(tracer.root_time(), abs=1e-12)
    assert tracer.counters["fitters.erm_St.fits"] == 1


def test_benchmark_json_names_what_the_benchmark_reports():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == \
        tracing.per_layer_metrics()
    assert {m["name"] for m in spec["end_to_end"]} == {"setup_s", "run_s", "peak_rss_mib"}
