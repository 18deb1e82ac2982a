"""Command-line front end.

Subcommands: `solve` runs the saddle search and writes JSON report/trace
files, `contour` exports a CSV value grid (and optionally an iterate
polyline from a saved trace) for external plotting, and `verify` runs one
of the numerical verification suites. Output files carry no timestamps, so
identical inputs and seeds reproduce them byte for byte.

Exit codes: 0 success, 1 solver non-convergence or suite failures, 2 usage
or configuration errors. The environment variable MTNPASS_LOG (quiet, info,
debug) controls diagnostic logging on stderr.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np

from .driver import SolveConfig, solve
from .errors import MtnpassError
from .objective import Objective, builtin
from .quadmodel import quadratic_from_json
from .verify import SUITES, run_suite

EXIT_OK = 0
EXIT_NO_CONVERGENCE = 1
EXIT_USAGE = 2

_SOLVE_CONFIG_KEYS = {"function", "model", "a", "b", "gtol", "max_iter",
                      "radius", "seed", "out", "grid"}


class UsageError(Exception):
    pass


def _setup_logging() -> None:
    name = os.environ.get("MTNPASS_LOG", "quiet").strip().lower()
    level = {"quiet": logging.WARNING, "info": logging.INFO,
             "debug": logging.DEBUG}.get(name, logging.WARNING)
    logging.basicConfig(stream=sys.stderr, level=level,
                        format="%(levelname)s %(name)s: %(message)s")


def _parse_point(text: str, name: str) -> np.ndarray:
    try:
        vals = [float(part) for part in text.split(",")]
    except ValueError:
        raise UsageError(f"{name}: expected comma-separated reals, got {text!r}")
    if not vals:
        raise UsageError(f"{name}: empty point")
    return np.array(vals)


def _as_int(value) -> int:
    """int(value), refusing booleans and non-integral reals instead of truncating."""
    if isinstance(value, bool) or (isinstance(value, float)
                                   and not value.is_integer()):
        raise ValueError(f"expected an integer, got {value!r}")
    return int(value)


def _as_real(value) -> float:
    """float(value), refusing booleans: JSON true is not 1.0."""
    if isinstance(value, bool):
        raise ValueError(f"expected a real, got {value!r}")
    return float(value)


# SolveConfig's fields, each with the conversion its flag or config value takes.
_SETTINGS = {"gtol": _as_real, "max_iter": _as_int, "radius": _as_real,
             "seed": _as_int}


def _config_point(spec, name: str) -> np.ndarray:
    """A point given as a comma-separated string or as a JSON list of finite reals."""
    try:
        point = (_parse_point(spec, name) if isinstance(spec, str)
                 else np.array([_as_real(c) for c in spec]) if isinstance(spec, list)
                 else np.asarray(spec, dtype=float))
    except (TypeError, ValueError):
        raise UsageError(f"{name}: expected a list of reals, got {spec!r}")
    if not np.all(np.isfinite(point)):
        raise UsageError(f"{name}: coordinates must be finite, got {spec!r}")
    return point


def _load_objective(function: str | None, model_path: str | None) -> Objective:
    if function == "quadratic" or (function is None and model_path):
        if not model_path:
            raise UsageError("--function quadratic requires --model <json>")
        try:
            return quadratic_from_json(model_path)
        except (OSError, TypeError, ValueError) as err:
            raise UsageError(f"cannot load quadratic model: {err}")
    if not function:
        raise UsageError("one of --function or --model is required")
    try:
        return builtin(function)
    except ValueError as err:
        raise UsageError(str(err))


def _write_json(path: Path, payload: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, sort_keys=True, indent=2)
        fh.write("\n")


def _read_config_file(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as err:
        raise UsageError(f"cannot read config file: {err}")
    if not isinstance(doc, dict):
        raise UsageError("config file must hold a JSON object")
    unknown = set(doc) - _SOLVE_CONFIG_KEYS
    if unknown:
        raise UsageError(f"unknown config keys: {sorted(unknown)}")
    for key in ("function", "model", "out"):
        if key in doc and not isinstance(doc[key], str):
            raise UsageError(f"config key {key!r} must be a string")
    return doc


def cmd_solve(args: argparse.Namespace) -> int:
    cfg = _read_config_file(args.config) if args.config else {}

    def pick(flag, key, default=None):
        return flag if flag is not None else cfg.get(key, default)

    function = pick(args.function, "function")
    model = pick(args.model, "model")
    a_spec = pick(args.a, "a")
    b_spec = pick(args.b, "b")
    if a_spec is None or b_spec is None:
        raise UsageError("both endpoints --a and --b are required")
    a = _config_point(a_spec, "--a")
    b = _config_point(b_spec, "--b")

    obj = _load_objective(function, model)
    if a.shape != (obj.n,) or b.shape != (obj.n,):
        raise UsageError(f"endpoints must have dimension {obj.n}")

    # A setting that no flag and no config key gives keeps SolveConfig's
    # default. A config key set to null is given, and fails its conversion.
    given = {key: pick(getattr(args, key), key) for key in _SETTINGS
             if getattr(args, key) is not None or key in cfg}
    try:
        config = SolveConfig(**{key: _SETTINGS[key](value)
                                for key, value in given.items()})
    except (TypeError, ValueError) as err:
        raise UsageError(f"bad solver configuration: {err}")

    out_dir = Path(pick(args.out, "out", "."))
    grid_spec = _validated_grid(cfg.get("grid")) if "grid" in cfg else None

    try:
        report = solve(obj, a, b, config)
    except MtnpassError as err:
        print(f"solve failed: {err}", file=sys.stderr)
        return EXIT_NO_CONVERGENCE

    inputs = {
        "function": function or "quadratic",
        "a": [float(c) for c in a],
        "b": [float(c) for c in b],
        **asdict(config),
    }
    trace_records = [r.to_dict() for r in report.trace]
    _write_json(out_dir / "report.json",
                {"inputs": inputs, "report": report.to_dict()})
    _write_json(out_dir / "trace.json",
                {"inputs": inputs, "records": trace_records})
    if grid_spec is not None:
        _write_grid_csv(obj, grid_spec["bounds"], grid_spec["resolution"],
                        out_dir / "grid.csv")
        _write_trace_csv(trace_records, out_dir / "grid_trace.csv")
    print(f"{report.status}: x* = {[float(c) for c in report.x]}, "
          f"f = {report.f:.12g}, |grad f| = {report.grad_norm:.3e}, "
          f"morse index = {report.morse_index}")
    return EXIT_OK if report.saddle_found else EXIT_NO_CONVERGENCE


def _validated_grid(spec) -> dict:
    if not isinstance(spec, dict) or set(spec) != {"bounds", "resolution"}:
        raise UsageError("grid spec needs exactly the keys bounds and resolution")
    bounds = _config_point(spec["bounds"], "grid bounds")
    try:
        resolution = _as_int(spec["resolution"])
    except (TypeError, ValueError) as err:
        raise UsageError(f"grid resolution must be an integer: {err}")
    if bounds.shape != (4,):
        raise UsageError("grid bounds need x1min,x1max,x2min,x2max")
    if not (bounds[0] < bounds[1] and bounds[2] < bounds[3]):
        raise UsageError("grid bounds must satisfy min < max on both axes")
    if resolution < 2:
        raise UsageError("grid resolution must be at least 2")
    return {"bounds": bounds, "resolution": resolution}


def _write_grid_csv(obj: Objective, bounds: np.ndarray, resolution: int,
                    out: Path) -> None:
    if obj.n != 2:
        raise UsageError("grid export requires a two-dimensional objective")
    out.parent.mkdir(parents=True, exist_ok=True)
    xs = np.linspace(bounds[0], bounds[1], resolution)
    ys = np.linspace(bounds[2], bounds[3], resolution)
    with open(out, "w", encoding="utf-8") as fh:
        fh.write("x1,x2,f\n")
        for x1 in xs:
            for x2 in ys:
                f_val = obj.value(np.array([x1, x2]))
                fh.write(f"{float(x1)!r},{float(x2)!r},{float(f_val)!r}\n")


def _write_trace_csv(records: list, out: Path) -> None:
    with open(out, "w", encoding="utf-8") as fh:
        fh.write("iter,kind,x1,x2,l,g\n")
        for r in records:
            fh.write(f"{r['iteration']},{r['step']},{r['x'][0]!r},"
                     f"{r['x'][1]!r},{r['level']!r},{r['gap']!r}\n")


def _is_real(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _read_trace(path: str) -> list:
    """The records of a solve's trace.json, checked for what the trace CSV needs."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as err:
        raise UsageError(f"cannot read trace file: {err}")
    records = doc.get("records") if isinstance(doc, dict) else None
    if not isinstance(records, list):
        raise UsageError("trace file must hold an object with a list of records")
    for k, r in enumerate(records):
        if not (isinstance(r, dict) and isinstance(r.get("iteration"), int)
                and isinstance(r.get("step"), str)
                and _is_real(r.get("level")) and _is_real(r.get("gap"))
                and isinstance(r.get("x"), list) and len(r["x"]) == 2
                and all(_is_real(c) for c in r["x"])):
            raise UsageError(f"trace record {k} needs an integer iteration, a "
                             "step name, a real level and gap, and a 2-D x")
    return records


def cmd_contour(args: argparse.Namespace) -> int:
    obj = _load_objective(args.function, args.model)
    grid = _validated_grid({"bounds": _parse_point(args.bounds, "--bounds").tolist(),
                            "resolution": args.resolution})
    records = _read_trace(args.trace) if args.trace else None
    out = Path(args.out)
    _write_grid_csv(obj, grid["bounds"], grid["resolution"], out)

    if records is not None:
        trace_out = out.with_name(out.stem + "_trace.csv")
        _write_trace_csv(records, trace_out)
        print(f"wrote {out} and {trace_out}")
    else:
        print(f"wrote {out}")
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    report = run_suite(args.suite, seed=args.seed)
    out_dir = Path(args.out)
    _write_json(out_dir / f"{args.suite}.json", report)
    failures = int(report.get("failures", 1))
    print(f"suite {args.suite}: {'PASS' if failures == 0 else 'FAIL'} "
          f"({failures} failures)")
    return EXIT_OK if failures == 0 else EXIT_NO_CONVERGENCE


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mtnpass",
        description="Saddle-point search via parallel-distance level sets.")
    sub = parser.add_subparsers(dest="command", required=True)

    ps = sub.add_parser("solve", help="run the saddle search between two points")
    ps.add_argument("--config", help="JSON config file; flags override its keys")
    ps.add_argument("--function", help="builtin objective name, or 'quadratic'")
    ps.add_argument("--model", help="JSON file with H, g, c for a quadratic")
    ps.add_argument("--a", help="first endpoint, comma-separated reals")
    ps.add_argument("--b", help="second endpoint, comma-separated reals")
    ps.add_argument("--gtol", type=float,
                    help=f"gradient tolerance (default {SolveConfig.gtol})")
    ps.add_argument("--max-iter", dest="max_iter", type=int,
                    help=f"iteration limit (default {SolveConfig.max_iter})")
    ps.add_argument("--radius", type=float,
                    help=f"trust-region radius (default {SolveConfig.radius})")
    ps.add_argument("--seed", type=int,
                    help=f"seed recorded in reports (default {SolveConfig.seed})")
    ps.add_argument("--out", help="output directory (default .)")
    ps.set_defaults(func=cmd_solve)

    pc = sub.add_parser("contour", help="export a CSV grid of f for plotting")
    pc.add_argument("--function", help="builtin objective name, or 'quadratic'")
    pc.add_argument("--model", help="JSON file with H, g, c for a quadratic")
    pc.add_argument("--bounds", required=True,
                    help="x1min,x1max,x2min,x2max")
    pc.add_argument("--resolution", type=int, required=True,
                    help="grid points per axis (>= 2)")
    pc.add_argument("--out", required=True, help="output CSV path")
    pc.add_argument("--trace",
                    help="trace.json from a solve; also writes <out>_trace.csv")
    pc.set_defaults(func=cmd_contour)

    pv = sub.add_parser("verify", help="run a numerical verification suite")
    pv.add_argument("--suite", required=True, choices=SUITES)
    pv.add_argument("--seed", type=int, default=0)
    pv.add_argument("--out", default=".", help="output directory (default .)")
    pv.set_defaults(func=cmd_verify)
    return parser


_POINT_OPTIONS = {"--a", "--b", "--bounds"}


def _merge_point_values(argv: list[str]) -> list[str]:
    """Join point options with values that begin with a minus sign and then
    a digit, a point, "inf" or "nan".

    argparse would otherwise read `--b -0.1,0.7` (or `--a -inf,0`) as a
    missing argument.
    """
    out = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        nxt = argv[i + 1] if i + 1 < len(argv) else None
        if tok in _POINT_OPTIONS and nxt is not None and nxt.startswith("-") \
                and len(nxt) > 1 and (nxt[1].isdigit() or nxt[1] == "."
                                      or nxt[1:4].lower() in ("inf", "nan")):
            out.append(f"{tok}={nxt}")
            i += 2
        else:
            out.append(tok)
            i += 1
    return out


def main(argv=None) -> int:
    _setup_logging()
    parser = build_parser()
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = parser.parse_args(_merge_point_values(list(argv)))
    except SystemExit as exc:
        # argparse has printed its usage message or --help: hand the exit
        # code back like every other outcome
        return exc.code
    try:
        return args.func(args)
    except UsageError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
