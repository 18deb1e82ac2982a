"""Run one benchmark workload and print its metrics as JSON on the last line.

    python3 bench/run.py --workload pairs-2d --seed 1 --seconds 15 --trace 0

With --trace 0 the metrics are the end-to-end ones of BENCHMARK.json; with
--trace 1 they are the per-layer ones, and the spans and per-layer totals
are also written to bench_out/trace-<workload>-seed<seed>.json. mtnpass is
imported from src/ of the checkout this file sits in; without it the run
exits non-zero and prints no result.
"""

import os

# Pin BLAS and OpenMP pools to one thread before numpy is first imported, in
# this process and in the set-up processes it starts.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS", "BLIS_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import gc
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spans
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / "bench_out"
SETUP_REPEATS = 5

# Per-layer span metrics: span name -> fields reported per operation.
SPAN_FIELDS = {
    "line1d.find_level_crossings": ("calls", "self_s", "value_evals", "grad_evals"),
    "line1d.line_local_max": ("calls", "self_s", "value_evals", "grad_evals"),
    "line1d.line_local_min": ("calls", "self_s", "value_evals", "grad_evals"),
    "pardist.derivatives_from_section": ("calls", "self_s", "grad_evals", "hess_evals"),
    "pardist.eval_pardist": ("calls", "self_s"),
    "quadmodel.decompose": ("calls", "self_s"),
    "quadmodel.newton_refine": ("calls", "self_s", "grad_evals", "hess_evals"),
    "subroutines.step_pd": ("calls", "self_s", "value_evals", "grad_evals"),
    "subroutines.step_av": ("calls", "self_s"),
    "subroutines.step_l_up": ("calls", "self_s"),
    "subroutines.step_l_down": ("calls", "self_s"),
    "driver.init_state": ("calls", "self_s", "value_evals"),
}
_EVAL_INDEX = {"value_evals": 0, "grad_evals": 1, "hess_evals": 2}


def _raised(outcomes, *excluded):
    return sum(n for key, n in outcomes.items()
               if key.startswith("raised:") and key[7:] not in excluded)


# Outcome counts: metric -> (span name, count from the span's outcomes).
OUTCOME_METRICS = {
    "subroutines.step_pd.reduced": ("subroutines.step_pd",
                                    lambda o: o.get("ok:ReducedSegment", 0)),
    "subroutines.step_pd.hit_zero": ("subroutines.step_pd",
                                     lambda o: o.get("ok:HitZero", 0)),
    "subroutines.step_pd.stalled": ("subroutines.step_pd",
                                    lambda o: o.get("ok:PdStalled", 0)),
    "subroutines.step_pd.raised": ("subroutines.step_pd", _raised),
    "subroutines.step_av.stalled": ("subroutines.step_av",
                                    lambda o: o.get("raised:AvStalled", 0)),
    "subroutines.step_l_up.failed": ("subroutines.step_l_up", _raised),
    # A critical candidate from l-down is handed to Newton: not a failure.
    "subroutines.step_l_down.failed": ("subroutines.step_l_down",
                                       lambda o: _raised(o, "CriticalCandidate")),
}
# Stop rules, by the prefix of SolveReport.message.
STOP_RULES = {"small_gradient": "small gradient observed",
              "newton_handoff": "newton handoff",
              "gap_closed": "endpoint gap closed",
              "critical_candidate": "critical candidate from l-down"}
SUITE_SPANS = ("quadratic_oracle", "grad_formulas", "hessian_stability", "convexity")


def import_mtnpass():
    """Import mtnpass from src/ of this checkout, and nowhere else."""
    src = ROOT / "src"
    if not (src / "mtnpass" / "__init__.py").is_file():
        raise SystemExit(f"error: no mtnpass package under {src}")
    sys.path.insert(0, str(src))
    import mtnpass
    if Path(mtnpass.__file__).resolve().parent != (src / "mtnpass").resolve():
        raise SystemExit(f"error: mtnpass was imported from {mtnpass.__file__}")
    return mtnpass


def time_setup(workload: str, seed: int) -> float:
    """Seconds from a fresh interpreter to mtnpass imported and inputs built."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
           "--workload", workload, "--seed", str(seed)]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                          timeout=120)
    elapsed = time.perf_counter() - t0
    if proc.returncode != 0:
        raise SystemExit("error: set-up failed:\n" + proc.stderr.decode()[-2000:])
    return elapsed


def run_pass(ops, ledger, tracer=None):
    """Run every operation once; returns (seconds, outputs, eval counts)."""
    gc.collect()
    outputs = []
    t0 = time.perf_counter()
    for k, op in enumerate(ops):
        if tracer is not None:
            tracer.op_index = k
        try:
            out = op.run()
        except Exception as err:  # a failed operation is counted, not fatal
            out = err
        outputs.append(out)
    wall = time.perf_counter() - t0
    return wall, outputs, ledger.take()


def failure(op, out):
    """Why the operation failed, or None when it returned a result."""
    if isinstance(out, Exception):
        return f"{type(out).__name__}: {out}"
    if op.is_solve and out.status != "SaddleFound":
        return f"{out.status}: {out.message}"
    return None


def judge(ops, passes):
    """(correct, attempted, failed) over all passes, with problems on stderr."""
    correct, attempted, failed = True, 0, 0
    for _, outputs, counts in passes:
        for op, out in zip(ops, outputs):
            attempted += 1
            why = failure(op, out)
            if why is not None:
                failed += 1
                print(f"failed: {op.name}: {why}", file=sys.stderr)
                continue
            problems = op.check(out)
            if problems:
                correct = False
                print(f"incorrect: {op.name}: {'; '.join(problems)}", file=sys.stderr)
        if counts != passes[0][2]:
            correct = False
            print(f"incorrect: evaluation counts changed between passes: "
                  f"{passes[0][2]} then {counts}", file=sys.stderr)
    return correct, attempted, failed


def end_to_end(ops, setup, timed, rss_mb):
    counts = timed[0][2]
    n = len(ops)
    return {
        "setup_s": (statistics.median(setup), "s"),
        "wall_s": (statistics.median(w for w, _, _ in timed), "s"),
        "value_evals_per_op": (counts["value"] / n, "count"),
        "grad_evals_per_op": (counts["gradient"] / n, "count"),
        "hess_evals_per_op": (counts["hessian"] / n, "count"),
        "peak_rss_mb": (rss_mb, "MB"),
    }


def per_layer(ops, tracer, traced, untraced):
    n_ops = len(ops) * len(traced)
    stats = tracer.stats
    empty = {"calls": 0, "self_s": 0.0, "incl_s": 0.0, "evals": [0, 0, 0],
             "outcomes": {}}
    out = {"objective.self_s": (tracer.objective_s / n_ops, "s")}
    for span, fields in SPAN_FIELDS.items():
        st = stats.get(span, empty)
        for field in fields:
            if field == "calls":
                out[f"{span}.calls"] = (st["calls"] / n_ops, "count")
            elif field == "self_s":
                out[f"{span}.self_s"] = (st["self_s"] / n_ops, "s")
            else:
                out[f"{span}.{field}"] = (st["evals"][_EVAL_INDEX[field]] / n_ops, "count")
    for metric, (span, count) in OUTCOME_METRICS.items():
        out[metric] = (count(stats.get(span, empty)["outcomes"]) / n_ops, "count")

    reports = [r for _, outputs, _ in traced for op, r in zip(ops, outputs)
               if op.is_solve and failure(op, r) is None]
    out["driver.solve.iterations"] = (
        sum(r.iterations for r in reports) / n_ops, "count")
    for rule, prefix in STOP_RULES.items():
        out[f"driver.stop.{rule}"] = (
            sum(r.message.startswith(prefix) for r in reports) / n_ops, "count")
    for suite in SUITE_SPANS:
        st = stats.get(f"verify.{suite}", empty)
        out[f"verify.{suite}.s"] = (st["incl_s"] / st["calls"] if st["calls"] else 0.0, "s")
    out["trace.overhead_s"] = (statistics.median(w for w, _, _ in traced)
                               - statistics.median(w for w, _, _ in untraced), "s")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="import mtnpass, build the inputs and exit "
                             "(what setup_s times)")
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")

    mtnpass = import_mtnpass()
    if args.setup_only:
        workloads.build(args.workload, args.seed, mtnpass)
        return 0

    setup = [] if args.trace else [time_setup(args.workload, args.seed)
                                   for _ in range(SETUP_REPEATS)]
    ops = workloads.build(args.workload, args.seed, mtnpass)
    ledger = spans.Ledger(mtnpass.Objective)
    ledger.install()
    tracer = spans.Tracer(mtnpass) if args.trace else None

    passes = [run_pass(ops, ledger)]  # warm-up
    untraced, traced = [], []
    start = time.perf_counter()
    while True:
        untraced.append(run_pass(ops, ledger))
        if tracer is not None:
            ledger.tracer = tracer
            tracer.install()
            try:
                traced.append(run_pass(ops, ledger, tracer))
            finally:
                tracer.uninstall()
                ledger.tracer = None
        if time.perf_counter() - start >= args.seconds:
            break
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    ledger.uninstall()
    passes += untraced + traced

    correct, attempted, failed = judge(ops, passes)
    if tracer is None:
        metrics = end_to_end(ops, setup, untraced, rss_mb)
    else:
        metrics = per_layer(ops, tracer, traced, untraced)
        traced_counts = {k: v * len(traced) for k, v in traced[0][2].items()}
        if not tracer.reconciles_with(traced_counts):
            correct = False
            print("incorrect: per-span evaluations do not add up to the "
                  "end-to-end counts", file=sys.stderr)
        OUT.mkdir(exist_ok=True)
        doc = {"workload": args.workload, "seed": args.seed,
               "operations": [op.name for op in ops],
               "traced_passes": len(traced), "untraced_passes": len(untraced),
               "untraced_wall_s": [w for w, _, _ in untraced],
               "traced_wall_s": [w for w, _, _ in traced],
               "end_to_end_evals": traced_counts,
               "reconciled": tracer.reconciles_with(traced_counts),
               "metrics": {k: v for k, (v, _) in metrics.items()},
               **tracer.to_dict()}
        path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
        path.write_text(json.dumps(doc, indent=1) + "\n")
        print(f"trace written to {path}", file=sys.stderr)

    for name, (value, unit) in metrics.items():
        print(f"{name:45s} {value:.6g} {unit}", file=sys.stderr)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": v, "unit": u}
                                  for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
