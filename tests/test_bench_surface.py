"""The benchmark's view of stocklab: every name it wraps or calls still exists.

``bench/tracing.py`` wraps ``stocklab.<module>.<function>`` for each entry of
``TARGETS``, and ``bench/workloads.py`` imports stocklab names and looks up
lab calls on ``stocklab`` at run time.  A removed or renamed function, or a
lab call whose arguments its function no longer binds, would only surface
in a benchmark run; these tests catch it in the test suite.
The bench files are loaded by path and left unchanged.
"""

import importlib
import importlib.util
import inspect
import os
import sys

import stocklab

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench")


def load_bench_module(name, monkeypatch):
    spec = importlib.util.spec_from_file_location(
        f"bench_{name}", os.path.join(BENCH, f"{name}.py")
    )
    module = importlib.util.module_from_spec(spec)
    # dataclasses resolve their string annotations through sys.modules
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_traced_targets_resolve(monkeypatch):
    tracing = load_bench_module("tracing", monkeypatch)
    assert tracing.TARGETS
    for module, func, _ in tracing.TARGETS:
        lab_module = importlib.import_module(f"stocklab.{module}")
        assert callable(getattr(lab_module, func, None)), f"stocklab.{module}.{func}"


def test_workload_lab_calls_resolve(monkeypatch):
    # loading runs the workloads' own `from stocklab... import` lines
    workloads = load_bench_module("workloads", monkeypatch)
    looked_up = []

    def record(name, *args, **kwargs):
        looked_up.append((name, args, kwargs))
        return lambda: None

    monkeypatch.setattr(workloads, "_lab_call", record)
    workloads.complexity_operations(0)
    assert looked_up
    for name, args, kwargs in looked_up:
        func = getattr(stocklab, name, None)
        assert callable(func), f"stocklab.{name}"
        # a removed or renamed keyword fails here, not in a benchmark run
        inspect.signature(func).bind(*args, **kwargs)

