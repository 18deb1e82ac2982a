"""Identity corpus: 120 fixed solves and the verify suites, dumped and
compared between two trees.

    PYTHONPATH=src python tests/identity_corpus.py dump OUT.jsonl
    python tests/identity_corpus.py compare BEFORE.jsonl AFTER.jsonl

`dump` solves the corpus with the mtnpass on the path and writes one JSON
line per solve: its name, the report without eval_counts, the trace and the
eval counts. It then writes one line per `run_suite` report: the four suites
at seeds 0 and 1, each named "suite:NAME:SEED", with the value / gradient /
Hessian counts summed over the objectives the suite builds (counted by the
benchmark's `spans.Ledger`, installed around the call). A convexity suite's
line also holds, in call order, the per-level `ConvexityReport.to_dict()`
of every `verify._probe_convexity` call (the tightness sweep's per-radius
reports among them), recorded by a wrapper installed in the same way;
the suite report itself holds only the swept radii. A last line, named
"package", holds the number of lines of the imported package's *.py. The
corpus is

- every ordered pair of minima of the benchmark's camel and Mueller-Brown
  surfaces (bench/surfaces.py, 36 pairs), with analytic and with
  finite-difference Hessians;
- every ordered pair of tests/oracles.CAMEL_MINIMA on mtnpass's camel (30);
- the benchmark's rotated wells (bench/workloads.WELLS) and
  double_well(40, 40003), value and gradient only (8);
- oracles.DoubleWell at n = 3, 5, 6, 8, 12, in both Hessian modes (10).

`compare` lists, per solve, a change of status or iteration count, a change
of the step sequence, a change of the report message (the stop rule that
fired), a report or trace that differs only in the bits of its numbers
(with the largest relative difference), and evaluation counts that rose;
then the tally, with the solves whose counts rose split by their final
status and the number of solves whose count of each kind fell;
then the summed counts and the status tally of both dumps, the summed
counts of each dump's solves per final status (so a saving on certified
solves shows apart from one on breakdowns), and the summed counts of the
solves whose objective has no Hessian callable (the ":fd" solves and the
rotated wells, whose Hessians are finite differences of the gradient) apart
from those of the rest; then every suite with its counts
before -> after and, when its report differs, the largest relative
difference, which of its counts rose, how many of its probe calls'
reports differ, and each entry of the report that differs, before ->
after; and last the package's line count before -> after ("n/a" for a
dump without it). It exits 1 when any solve changed its status, iteration count, step
sequence or message, any suite changed its failure count or any of its
probe reports, or any solve or suite made more evaluations of any kind, and
0 otherwise. The bench modules are read, never written. Pytest does not
collect this file.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.dont_write_bytecode = True  # leave no cache files under bench/
sys.path[:0] = [str(HERE), str(HERE.parent / "bench")]

ORACLE_WELL_DIMS = (3, 5, 6, 8, 12)
EXTRA_WELL = (40, 40003)
COUNT_KEYS = ("value", "gradient", "hessian")
STATUSES = ("SaddleFound", "MaxIter", "Breakdown")
SUITE_SEEDS = (0, 1)


def corpus():
    """(name, objective factory, a, b) for every solve of the corpus."""
    import numpy as np

    import oracles
    import surfaces
    import workloads
    from mtnpass.objective import Objective, six_hump_camel

    cases = []
    for surface in (surfaces.camel(), surfaces.mueller_brown()):
        m = surface.minima
        for i in range(len(m)):
            for j in range(len(m)):
                if i == j:
                    continue
                for mode, hess in (("analytic", surface.hessian), ("fd", None)):
                    cases.append((f"{surface.name}:{i}->{j}:{mode}",
                                  lambda s=surface, h=hess: Objective(
                                      2, s.value, s.gradient, h, name=s.name),
                                  m[i], m[j]))
    minima = [np.array(p[:2]) for p in oracles.CAMEL_MINIMA]
    for i in range(len(minima)):
        for j in range(len(minima)):
            if i != j:
                cases.append((f"oracle-camel:{i}->{j}", six_hump_camel,
                              minima[i], minima[j]))
    for n, seed in list(workloads.WELLS) + [EXTRA_WELL]:
        well = surfaces.double_well(n, seed)
        a, b = well.minima()
        cases.append((f"well-n{n}-s{seed}",
                      lambda w=well: Objective(w.n, w.value, w.gradient),
                      a, b))
    for n in ORACLE_WELL_DIMS:
        well = oracles.DoubleWell(n)
        a, b = well.minima()
        for mode in ("analytic", "fd"):
            hess = well.hessian if mode == "analytic" else None
            cases.append((f"oracle-well-n{n}:{mode}",
                          lambda w=well, h=hess: Objective(w.n, w.value,
                                                           w.gradient, h),
                          a, b))
    return cases


def _suite_row(suite: str, seed: int) -> dict:
    """run_suite(suite, seed), the evaluation counts of its objectives and,
    for the convexity suite, the per-level reports of every
    verify._probe_convexity call, in call order."""
    import spans
    from mtnpass import verify
    from mtnpass.objective import Objective

    probe, probes = verify._probe_convexity, []

    def recorded(*args, **kwargs):
        out = probe(*args, **kwargs)
        probes.append([report.to_dict() for report, _ in out.values()])
        return out

    ledger = spans.Ledger(Objective)
    ledger.install()
    verify._probe_convexity = recorded
    try:
        report = verify.run_suite(suite, seed)
    finally:
        verify._probe_convexity = probe
        ledger.uninstall()
    row = {"name": f"suite:{suite}:{seed}", "suite": report,
           "counts": ledger.take()}
    if suite == "convexity":
        row["probes"] = probes
    return row


def dump(path: str) -> None:
    from mtnpass.driver import solve
    from mtnpass.verify import SUITES

    import mtnpass

    with open(path, "w") as out:
        for name, make, a, b in corpus():
            report = solve(make(), a, b)
            summary = report.to_dict()
            counts = summary.pop("eval_counts")
            out.write(json.dumps({
                "name": name, "report": summary, "counts": counts,
                "trace": [r.to_dict() for r in report.trace]},
                sort_keys=True) + "\n")
        for suite in SUITES:
            for seed in SUITE_SEEDS:
                out.write(json.dumps(_suite_row(suite, seed),
                                     sort_keys=True) + "\n")
        package = Path(mtnpass.__file__).resolve().parent
        lines = sum(len(f.read_text().splitlines())
                    for f in package.glob("*.py"))
        out.write(json.dumps({"name": "package", "lines": lines}) + "\n")


def _fd_hessians(name: str) -> bool:
    """The solve's objective has no Hessian callable (see corpus)."""
    return name.endswith(":fd") or name.startswith("well-n")


def _load(path: str) -> dict:
    with open(path) as f:
        rows = [json.loads(line) for line in f if line.strip()]
    return {row["name"]: row for row in rows}


def _differences(x, y, key: str = ""):
    """(key, before, after) for each entry where two like documents differ,
    keyed by its path of dict keys and list indices; a whole entry where
    their shapes differ."""
    if x == y:
        return
    if isinstance(x, dict) and isinstance(y, dict) and x.keys() == y.keys():
        for k in sorted(x):
            yield from _differences(x[k], y[k], f"{key}.{k}" if key else k)
    elif isinstance(x, list) and isinstance(y, list) and len(x) == len(y):
        for i, (p, q) in enumerate(zip(x, y)):
            yield from _differences(p, q, f"{key}[{i}]")
    else:
        yield key, x, y


def _max_rel_diff(x, y) -> float:
    """Largest relative difference between the numbers of two like documents;
    inf where their shapes or any value that is not a number differ."""
    def rel(p, q) -> float:
        if all(isinstance(z, (int, float)) and not isinstance(z, bool)
               for z in (p, q)):
            return abs(p - q) / max(abs(p), abs(q))
        return math.inf
    return max((rel(p, q) for _, p, q in _differences(x, y)), default=0.0)


def _counts(counts: dict) -> str:
    return " / ".join(str(counts[k]) for k in COUNT_KEYS)


def _rose(old: dict, new: dict) -> dict:
    """The kinds whose evaluation count rose, with (before, after)."""
    return {k: (old["counts"][k], new["counts"][k]) for k in COUNT_KEYS
            if new["counts"][k] > old["counts"][k]}


def _probe_note(old: dict, new: dict) -> tuple[str, bool]:
    """A note on the per-level convexity reports of two suite rows, and
    whether they differ."""
    po, pn = old.get("probes"), new.get("probes")
    if po is None and pn is None:
        return "", False
    if po is None or pn is None or len(po) != len(pn):
        return ", probe reports differ in their calls", True
    differ = sum(p != q for p, q in zip(po, pn))
    if differ:
        return f", {differ} of {len(po)} probe calls' reports differ", True
    return f", {len(po)} probe calls' reports identical", False


def compare_suites(before: dict, after: dict) -> int:
    """Print every suite's counts and whether its report or its probe
    reports differ; returns the number of suites whose failure count
    changed, whose probe reports differ or whose counts rose."""
    identical = changed = rose = 0
    for name, old in before.items():
        new = after[name]
        ro, rn = old["suite"], new["suite"]
        counts = f"counts {_counts(old['counts'])} -> {_counts(new['counts'])}"
        kinds = _rose(old, new)
        if kinds:
            rose += 1
            counts += f" (rose: {', '.join(kinds)})"
        note, probes_differ = _probe_note(old, new)
        if ro == rn and not probes_differ:
            identical += 1
            print(f"{name}: identical, {counts}{note}")
            continue
        failures_changed = ro["failures"] != rn["failures"]
        changed += failures_changed or probes_differ
        if failures_changed:
            note = f", failures {ro['failures']} -> {rn['failures']}" + note
        print(f"{name}: differs, largest relative difference "
              f"{_max_rel_diff(ro, rn):.2e}{note}, {counts}")
        for key, x, y in _differences(ro, rn):
            print(f"  {key}: {x!r} -> {y!r}")
    print(f"{len(before)} suite reports: {identical} identical, "
          f"{rose} with counts that rose")
    return changed + rose


def compare(before_path: str, after_path: str) -> int:
    """Print the per-solve and per-suite differences; returns the number of
    solves whose status, iteration count, step sequence or message changed,
    plus the number whose counts rose, plus the number of suites whose
    failure count or probe reports changed or whose counts rose."""
    before, after = _load(before_path), _load(after_path)
    lines = [side.pop("package", {}).get("lines", "n/a")
             for side in (before, after)]
    if before.keys() != after.keys():
        print("the dumps hold different solves or suites:",
              sorted(before.keys() ^ after.keys()))
        return 1
    suites = {k: before.pop(k) for k in list(before) if "suite" in before[k]}
    tally = {"identical": 0, "bits": 0, "message": 0, "steps": 0, "outcome": 0,
             "counts rose": 0}
    fell = dict.fromkeys(COUNT_KEYS, 0)
    rose_by_status = dict.fromkeys(STATUSES, 0)
    groups = ("all", "finite-difference Hessians", "analytic Hessians")
    totals = {side: {group: dict.fromkeys(COUNT_KEYS, 0) for group in groups}
              for side in ("before", "after")}
    solves = dict.fromkeys(groups, 0)
    statuses = {"before": dict.fromkeys(STATUSES, 0),
                "after": dict.fromkeys(STATUSES, 0)}
    by_status = {side: {status: dict.fromkeys(COUNT_KEYS, 0)
                        for status in STATUSES} for side in statuses}
    for name, old in before.items():
        new = after[name]
        group = groups[1] if _fd_hessians(name) else groups[2]
        solves[group] += 1
        for side, row in (("before", old), ("after", new)):
            status = row["report"]["status"]
            statuses[side][status] += 1
            for k in COUNT_KEYS:
                totals[side]["all"][k] += row["counts"][k]
                totals[side][group][k] += row["counts"][k]
                by_status[side][status][k] += row["counts"][k]
        ro, rn = old["report"], new["report"]
        steps_old = [r["step"] for r in old["trace"]]
        steps_new = [r["step"] for r in new["trace"]]
        if (ro["status"], ro["iterations"]) != (rn["status"], rn["iterations"]):
            tally["outcome"] += 1
            print(f"{name}: outcome {ro['status']}/{ro['iterations']} -> "
                  f"{rn['status']}/{rn['iterations']}, f {ro['f']!r} -> {rn['f']!r}")
        elif steps_old != steps_new:
            tally["steps"] += 1
            print(f"{name}: steps {steps_old} -> {steps_new}")
        elif ro["message"] != rn["message"]:
            tally["message"] += 1
            print(f"{name}: message {ro['message']!r} -> {rn['message']!r}")
        elif (ro, old["trace"]) != (rn, new["trace"]):
            tally["bits"] += 1
            rel = _max_rel_diff([ro, old["trace"]], [rn, new["trace"]])
            print(f"{name}: bits only, largest relative difference {rel:.2e}")
        else:
            tally["identical"] += 1
        rose = _rose(old, new)
        if rose:
            tally["counts rose"] += 1
            rose_by_status[rn["status"]] += 1
            print(f"{name}: counts rose {rose}")
        for k in COUNT_KEYS:
            fell[k] += new["counts"][k] < old["counts"][k]
    by_final = ", ".join(f"{v} {k}" for k, v in rose_by_status.items())
    print(f"{len(before)} solves: " + ", ".join(f"{v} {k}" for k, v in tally.items())
          + f" ({by_final}); counts fell: "
          + ", ".join(f"{v} {k}" for k, v in fell.items()))
    for side in ("before", "after"):
        print(f"summed counts {side}: {_counts(totals[side]['all'])}; "
              + ", ".join(f"{v} {k}" for k, v in statuses[side].items()))
    for status in STATUSES:
        print(f"  {status}: {statuses['before'][status]} solves "
              f"{_counts(by_status['before'][status])} -> "
              f"{statuses['after'][status]} solves "
              f"{_counts(by_status['after'][status])}")
    for group in groups[1:]:
        print(f"  {group} ({solves[group]} solves): "
              f"{_counts(totals['before'][group])} -> {_counts(totals['after'][group])}")
    failed = (tally["outcome"] + tally["steps"] + tally["message"]
              + tally["counts rose"] + compare_suites(suites, after))
    print(f"package lines: {lines[0]} -> {lines[1]}")
    return failed


def main(argv: list[str]) -> int:
    if len(argv) == 2 and argv[0] == "dump":
        dump(argv[1])
        return 0
    if len(argv) == 3 and argv[0] == "compare":
        return 1 if compare(argv[1], argv[2]) else 0
    print(__doc__.split("\n\n")[1], file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
