"""Instrumentation applied to mtnpass from outside: evaluation counts and spans.

:class:`Ledger` finds every objective an operation builds and sums its
evaluation counters; it runs on every pass. :class:`Tracer` is the traced
mode: it wraps each public layer function at every module binding that
refers to it, times the objective's own callables, and charges evaluation
deltas to the innermost open span. Nothing under src/ is modified on disk;
the wrappers are installed for a traced pass and removed after it.
"""

from __future__ import annotations

import sys
import time

# Public functions traced per module. A module or function the package no
# longer has stops the traced run: the layer map here must follow the package,
# or a lost span would read as a saving.
LAYERS = {
    "line1d": ("find_level_crossings", "line_local_max", "line_local_min"),
    "pardist": ("derivatives_from_section", "eval_pardist"),
    "quadmodel": ("decompose", "newton_refine"),
    "subroutines": ("step_pd", "step_av", "step_l_up", "step_l_down"),
    "driver": ("init_state", "solve"),
    "verify": ("run_suite",),
}
MAX_SPAN_RECORDS = 50_000


class Ledger:
    """Registers the objectives built while it is installed.

    An objective whose value callable is a bound method of another objective
    (the driver's gradient watch) only forwards to it, so it is skipped and
    no evaluation counts twice.
    """

    def __init__(self, objective_cls):
        self.cls = objective_cls
        self.objectives = []
        self.tracer = None
        self._orig_init = None

    def install(self) -> None:
        cls, orig, ledger = self.cls, self.cls.__init__, self
        self._orig_init = orig

        def __init__(obj, n, value, gradient, hessian=None, name="objective"):
            forwarding = isinstance(getattr(value, "__self__", None), cls)
            tracer = ledger.tracer
            if tracer is not None and not forwarding:
                value, gradient = tracer.timed(value), tracer.timed(gradient)
                hessian = tracer.timed(hessian) if hessian is not None else None
            orig(obj, n, value, gradient, hessian, name)
            if not forwarding:
                ledger.objectives.append(obj)
                if tracer is not None:
                    tracer.count_evaluations(obj)

        cls.__init__ = __init__

    def uninstall(self) -> None:
        self.cls.__init__ = self._orig_init

    def take(self) -> dict:
        """Evaluation counts summed over the objectives built since the last take."""
        total = {"value": 0, "gradient": 0, "hessian": 0}
        for obj in self.objectives:
            for key, val in obj.eval_counts().items():
                total[key] += val
        self.objectives = []
        return total


def _new_stats() -> dict:
    return {"calls": 0, "self_s": 0.0, "incl_s": 0.0,
            "evals": [0, 0, 0], "incl_evals": [0, 0, 0], "outcomes": {}}


class Tracer:
    """Spans around mtnpass's layer functions, aggregated per span name."""

    def __init__(self, package):
        self.package = package
        self.tally = [0, 0, 0]          # value, gradient, Hessian evaluations
        self.stack = []
        self.stats = {}
        self.objective_s = 0.0
        self.spanned_evals = [0, 0, 0]  # inclusive evals of outermost spans
        self.records = []
        self.records_dropped = 0
        self.op_index = 0
        self._next_id = 0
        self._patches = []
        self.targets = []
        for layer, names in LAYERS.items():
            home = getattr(package, layer, None)
            if home is None:
                raise LookupError(f"mtnpass has no module {layer!r} to trace")
            for fname in names:
                if not callable(getattr(home, fname, None)):
                    raise LookupError(f"mtnpass.{layer} has no function {fname!r} to trace")
                self.targets.append((layer, fname, getattr(home, fname)))

    # -- objective hooks -----------------------------------------------------

    def timed(self, fn):
        """A callable of the objective, timed as a leaf of the open span."""
        clock = time.perf_counter

        def call(x):
            t0 = clock()
            try:
                return fn(x)
            finally:
                dt = clock() - t0
                self.objective_s += dt
                if self.stack:
                    self.stack[-1][3] += dt
        return call

    def count_evaluations(self, obj) -> None:
        """Shadow obj's evaluation methods so each counter delta reaches the tally."""
        for kind, attr, counter in ((0, "value", "n_value_evals"),
                                    (1, "gradient", "n_grad_evals"),
                                    (2, "hessian", "n_hess_evals")):
            setattr(obj, attr, self._counted(obj, getattr(obj, attr), counter, kind))

    def _counted(self, obj, method, counter, kind):
        tally = self.tally

        def call(x):
            before = getattr(obj, counter)
            try:
                return method(x)
            finally:
                tally[kind] += getattr(obj, counter) - before
        call.__self__ = obj  # still recognised as the objective's own method
        return call

    # -- spans -----------------------------------------------------------------

    def _enter(self, name):
        self._next_id += 1
        parent = self.stack[-1][5] if self.stack else 0
        self.stack.append([name, time.perf_counter(), tuple(self.tally), 0.0,
                           [0, 0, 0], self._next_id, parent])

    def _exit(self, outcome):
        t1 = time.perf_counter()
        name, t0, before, child_s, child_evals, span_id, parent = self.stack.pop()
        dur = t1 - t0
        incl = [self.tally[k] - before[k] for k in range(3)]
        st = self.stats.setdefault(name, _new_stats())
        st["calls"] += 1
        st["incl_s"] += dur
        st["self_s"] += dur - child_s
        for k in range(3):
            st["incl_evals"][k] += incl[k]
            st["evals"][k] += incl[k] - child_evals[k]
        st["outcomes"][outcome] = st["outcomes"].get(outcome, 0) + 1
        if self.stack:
            up = self.stack[-1]
            up[3] += dur
            for k in range(3):
                up[4][k] += incl[k]
        else:
            for k in range(3):
                self.spanned_evals[k] += incl[k]
        if len(self.records) < MAX_SPAN_RECORDS:
            self.records.append((span_id, parent, self.op_index, name, t0, t1))
        else:
            self.records_dropped += 1

    def _wrap(self, name, fn):
        tracer = self

        def traced(*args, **kwargs):
            span_name = name(*args, **kwargs) if callable(name) else name
            tracer._enter(span_name)
            try:
                out = fn(*args, **kwargs)
            except BaseException as err:
                tracer._exit("raised:" + type(err).__name__)
                raise
            tracer._exit("ok:" + type(out).__name__)
            return out
        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Wrap each traced function at every mtnpass module binding of it."""
        modules = [m for key, m in sys.modules.items()
                   if m is not None and (key == self.package.__name__
                                         or key.startswith(self.package.__name__ + "."))]
        for layer, fname, orig in self.targets:
            if layer == "verify":
                span_name = lambda suite, *a, **k: "verify." + suite.replace("-", "_")
            else:
                span_name = f"{layer}.{fname}"
            wrapped = self._wrap(span_name, orig)
            for mod in modules:
                for attr, val in list(vars(mod).items()):
                    if val is orig:
                        setattr(mod, attr, wrapped)
                        self._patches.append((mod, attr, orig))

    def uninstall(self) -> None:
        for mod, attr, orig in reversed(self._patches):
            setattr(mod, attr, orig)
        self._patches = []

    # -- results ---------------------------------------------------------------

    def outside_evals(self) -> list:
        """Evaluations made while no span was open."""
        return [self.tally[k] - self.spanned_evals[k] for k in range(3)]

    def reconciles_with(self, counts: dict) -> bool:
        """Per-span self evals plus evals outside spans equal the ledger's counts."""
        sums = self.outside_evals()
        for st in self.stats.values():
            for k in range(3):
                sums[k] += st["evals"][k]
        return sums == [counts["value"], counts["gradient"], counts["hessian"]]

    def to_dict(self) -> dict:
        return {
            "spans": {name: dict(st) for name, st in sorted(self.stats.items())},
            "objective_self_s": self.objective_s,
            "evals_outside_spans": self.outside_evals(),
            "span_records": {
                "fields": ["id", "parent", "operation", "name", "start_s", "end_s"],
                "rows": self.records,
                "dropped": self.records_dropped,
            },
        }
