"""Check that the benchmark is steady: two sets of runs of the same code.

    python3 bench/selfcheck.py --runs 10 [--workload pairs-2d ...]

Each run is `bench/run.py --trace 0` with its own seed (set k = 0, 1 uses
seeds k*1000 + 1 .. k*1000 + runs). For every end-to-end metric of every
workload, `setup_s` included, it prints each set's median and quartiles, the
spread (interquartile distance over the median) against the metric's bound,
and how far the second set's median moved from the first's in the metric's
worse direction. It also checks that the share of failed operations is
identical across the sets and that the evaluation counts repeat exactly.
Writes bench_out/selfcheck.json and exits non-zero when any check fails.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
COUNT_METRICS = ("value_evals_per_op", "grad_evals_per_op", "hess_evals_per_op")
SETS = 2


def run_once(workload, seed, seconds):
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise SystemExit(f"run failed: {' '.join(cmd)}\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summary(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--workload", action="append",
                        help="workload to run (repeatable; default all)")
    args = parser.parse_args(argv)
    names = args.workload or [w["name"] for w in spec["workloads"]]
    if args.runs < 2:
        parser.error("--runs must be at least 2 to form quartiles")

    results = {}
    for k in range(SETS):
        for w in names:
            for r in range(args.runs):
                seed = 1000 * k + r + 1
                out = run_once(w, seed, args.seconds)
                results.setdefault(w, []).append((k, seed, out))
                print(f"set {k} {w} seed {seed}: correct={out['correct']} "
                      f"attempted={out['attempted']} failed={out['failed']} "
                      + " ".join(f"{m}={v['value']:.6g}"
                                 for m, v in out["metrics"].items()),
                      file=sys.stderr, flush=True)

    ok = True
    report = {}
    for w in names:
        rows = results[w]
        report[w] = {}
        shares = {out["failed"] / out["attempted"] for _, _, out in rows}
        if len(shares) != 1 or not all(out["correct"] for _, _, out in rows):
            ok = False
            print(f"FAIL {w}: failed shares {sorted(shares)}, correct "
                  f"{[out['correct'] for _, _, out in rows]}")
        for metric in spec["end_to_end"]:
            m, bound = metric["name"], metric["bound"]
            sets = [summary([out["metrics"][m]["value"] for k, _, out in rows if k == s])
                    for s in range(SETS)]
            first, second = sets[0]["median"], sets[1]["median"]
            sign = 1.0 if metric["better"] == "lower" else -1.0
            drift = sign * (second - first) / first
            worst = max(s["spread"] for s in sets)
            checks = [drift <= bound, worst <= bound]
            if m in COUNT_METRICS:
                checks.append(len({out["metrics"][m]["value"] for _, _, out in rows}) == 1)
            verdict = "ok" if all(checks) else "FAIL"
            note = "" if worst <= bound / 3 else " (spread above bound/3)"
            ok &= verdict == "ok"
            report[w][m] = {"sets": sets, "drift": drift, "bound": bound, "ok": verdict == "ok"}
            print(f"{verdict:4s} {w:14s} {m:20s} bound {bound:<5g} "
                  + " | ".join(f"med {s['median']:.6g} q1 {s['q1']:.6g} q3 {s['q3']:.6g} "
                               f"spread {s['spread']:.4f}" for s in sets)
                  + f" | drift {drift:+.4f}{note}")
    out_dir = ROOT / "bench_out"
    out_dir.mkdir(exist_ok=True)
    (out_dir / "selfcheck.json").write_text(json.dumps(
        {"runs": args.runs, "sets": SETS, "seconds": args.seconds,
         "report": report,
         "raw": {w: [{"set": k, "seed": s, **out} for k, s, out in rows]
                 for w, rows in results.items()}}, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
