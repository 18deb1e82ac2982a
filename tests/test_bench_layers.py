"""The benchmark's layer map must follow the package.

bench/spans.py names the module and function of every traced layer. A layer
function that moves or is renamed only shows when a traced benchmark run
stops, so this checks the map against the package on every test run, and
that a traced solve's per-span evaluations add up to the objective's own
counts. The benchmark file is loaded read-only: no bytecode is written next
to it.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import numpy as np

import mtnpass
import oracles

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


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
