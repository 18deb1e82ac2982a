"""The benchmark's layer map must follow the package.

bench/spans.py names the module and function of every traced layer. A layer
function that moves or is renamed only shows when a traced benchmark run
stops, so this checks the map against the package on every test run. The
benchmark file is loaded read-only: no bytecode is written next to it.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import mtnpass

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
