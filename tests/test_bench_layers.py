"""The benchmark's layer map must follow the package.

bench/spans.py names the module and function of every traced layer. A layer
function that moves or is renamed only shows when a traced benchmark run
stops, so this checks the map against the package on every test run, and
that a traced solve's per-span evaluations add up to the objective's own
counts. bench/run.py counts the outcomes of a layer by the type name of
what it returned or raised; a renamed type only zeroes the count, so this
checks that every type name it counts is a class of the package. The
benchmark files are loaded read-only: no bytecode is written next to them,
and bench/run.py is parsed, not imported.
"""

import ast
import importlib
import importlib.util
import inspect
import sys
from pathlib import Path

import numpy as np
import pytest

import mtnpass
import oracles

BENCH = Path(__file__).resolve().parent.parent / "bench"
SPANS = BENCH / "spans.py"


def _load_spans(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("_bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_layer_resolves(monkeypatch):
    spans = _load_spans(monkeypatch)
    assert spans.LAYERS
    for layer, names in spans.LAYERS.items():
        module = importlib.import_module(f"mtnpass.{layer}")
        assert getattr(mtnpass, layer) is module
        for fname in names:
            fn = getattr(module, fname, None)
            assert callable(fn), f"mtnpass.{layer} has no function {fname}"
            assert fn.__module__ == module.__name__, \
                f"mtnpass.{layer}.{fname} is defined in {fn.__module__}"
    # The tracer resolves the same map; building one installs nothing.
    spans.Tracer(mtnpass)


def test_traced_solve_reconciles(monkeypatch):
    # One camel solve with analytic Hessians and one with finite-difference
    # ones. An evaluation made past the objective's counted methods (say a
    # finite-difference Hessian probe that skips Objective.gradient) would
    # reach the ledger but no span.
    spans = _load_spans(monkeypatch)
    a, b = (np.array(oracles.CAMEL_MINIMA[k][:2]) for k in (0, 2))
    for hessian in (oracles.camel_hessian, None):
        ledger = spans.Ledger(mtnpass.Objective)
        tracer = spans.Tracer(mtnpass)
        ledger.install()
        ledger.tracer = tracer
        tracer.install()
        try:
            obj = mtnpass.Objective(2, oracles.camel_value,
                                    oracles.camel_gradient, hessian)
            report = mtnpass.solve(obj, a, b)
        finally:
            tracer.uninstall()
            ledger.uninstall()
        assert report.saddle_found
        counts = ledger.take()
        assert counts == report.eval_counts
        assert counts["hessian"] > 0
        assert tracer.stats["driver.solve"]["calls"] == 1
        assert tracer.reconciles_with(counts)


def _outcome_types():
    """(metric, type name) for every outcome type bench/run.py's
    OUTCOME_METRICS counts: the X of each "ok:X" and "raised:X" key, and
    each type that a _raised(outcomes, ...) call leaves out."""
    tree = ast.parse((BENCH / "run.py").read_text())
    metrics = next(node.value for node in tree.body
                   if isinstance(node, ast.Assign)
                   and any(getattr(t, "id", None) == "OUTCOME_METRICS"
                           for t in node.targets))
    found = []
    for key, value in zip(metrics.keys, metrics.values):
        for node in ast.walk(value):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                kind, _, name = node.value.partition(":")
                if kind in ("ok", "raised") and name:
                    found.append((key.value, name))
            elif (isinstance(node, ast.Call)
                  and getattr(node.func, "id", None) == "_raised"):
                found.extend((key.value, arg.value) for arg in node.args[1:])
    return found


def _package_classes():
    return {name for module in vars(mtnpass).values() if inspect.ismodule(module)
            for name, cls in inspect.getmembers(module, inspect.isclass)
            if cls.__module__.startswith("mtnpass.")}


_GONE = pytest.mark.xfail(strict=True, reason="ReducedSegment is gone; step_pd "
                         "returns a LineSection (ROADMAP item 6)")
OUTCOME_TYPES = [pytest.param(metric, name, id=f"{metric}-{name}",
                              marks=_GONE if name == "ReducedSegment" else ())
                 for metric, name in _outcome_types()]


def test_outcome_metrics_were_found():
    assert len(OUTCOME_TYPES) >= 5


@pytest.mark.parametrize("metric, name", OUTCOME_TYPES)
def test_every_counted_outcome_type_exists(metric, name):
    assert name in _package_classes(), \
        f"{metric} counts the outcome type {name}, which mtnpass does not define"
