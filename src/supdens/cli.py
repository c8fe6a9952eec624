"""Command-line interface: fit, eval, solve, simulate, joint.

Inputs are headerless CSVs of finite reals (one column; d columns for
`joint`).  Data goes to the output stream (a file via --output, else stdout);
diagnostics go to stderr.  Exit codes: 0 success, 1 usage error, 2 data
error, 3 numeric non-convergence.  No output file is created on a nonzero
exit: results are rendered fully before anything is written.
"""

from __future__ import annotations

import argparse
import itertools
import json
import sys
from typing import List, Optional, Sequence

import numpy as np

from .bandwidth import lscv_bandwidth
from .errors import ConfigError, DataError, NumericError
from .estimators import (
    BOUNDARY_KERNEL,
    NAIVE,
    REFLECTION,
    FittedEstimator,
    Sample,
    SupportInterval,
    evaluate_grid,
)
from .joint import MultiSample, fit_joint
from .kernels import get_kernel
from .simulate import ExperimentSpec, TABLE_METHODS, run_experiment
from .solver import SupportMode, fit, solve_support

__all__ = ["run_cli", "main"]

_METHOD_NAMES = {"naive": NAIVE, "reflection": REFLECTION, "boundary-kernel": BOUNDARY_KERNEL}
_METHOD_LABELS = {m.label: m for m in TABLE_METHODS}
_CORRECTED_METHODS = ("reflection", "boundary-kernel")
# --mode choices: SupportMode kinds with "-" for "_"
_MODES = ("known", "proposed", "extremes", "half-known-lower", "half-known-upper")


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # exit 1 instead of argparse's 2
        raise UsageError(message)


def _read_csv(path: str, columns: Optional[int] = None) -> np.ndarray:
    """Headerless CSV of finite reals; returns an (n, d) array."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    rows: List[List[float]] = []
    for i, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        cells = line.split(",")
        try:
            row = [float(c) for c in cells]
        except ValueError:
            raise DataError(f"{path}:{i}: not a number: {line!r}") from None
        if not all(np.isfinite(row)):
            raise DataError(f"{path}:{i}: non-finite value")
        rows.append(row)
    if not rows:
        raise DataError(f"{path}: no data rows")
    widths = {len(r) for r in rows}
    if len(widths) != 1:
        raise DataError(f"{path}: ragged rows (widths {sorted(widths)})")
    arr = np.asarray(rows, dtype=float)
    if columns is not None and arr.shape[1] != columns:
        raise DataError(f"{path}: expected {columns} column(s), found {arr.shape[1]}")
    return arr


def _write_output(text: str, path: Optional[str]) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
        return
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise UsageError(f"cannot write {path}: {exc}") from exc


def _parse_grid(spec: str) -> np.ndarray:
    try:
        lo_s, hi_s, cnt_s = spec.split(":")
        lo, hi, cnt = float(lo_s), float(hi_s), int(cnt_s)
    except ValueError:
        raise UsageError(f"grid must be min:max:count, got {spec!r}") from None
    if cnt < 1:
        raise UsageError("grid count must be at least 1")
    if cnt == 1:
        return np.asarray([lo])
    if not lo < hi:
        raise UsageError("grid needs min < max")
    return np.linspace(lo, hi, cnt)


def _parse_mode(args) -> Optional[SupportMode]:
    """The --mode SupportMode, given only the --lower/--upper endpoints its kind takes."""
    if args.mode is None:
        return None
    kind = args.mode.replace("-", "_")
    lower = args.lower if kind in ("known", "half_known_lower") else None
    upper = args.upper if kind in ("known", "half_known_upper") else None
    return SupportMode(kind, lower, upper)


def _parse_bandwidth(policy: str, d: int = 1):
    """--bandwidth for d coordinates: "lscv", or d positive floats (one value is shared)."""
    if policy == "lscv":
        return policy
    try:
        hs = [float(v) for v in policy.split(",")]
    except ValueError:
        raise UsageError(f"--bandwidth must be 'lscv' or numbers, got {policy!r}") from None
    if len(hs) not in (1, d):
        raise UsageError(f"--bandwidth needs one value or one per coordinate ({d}), got {policy!r}")
    if not all(h > 0 for h in hs):
        raise UsageError("--bandwidth must be positive")
    return hs * (d // len(hs))


def _fmt(v: float) -> str:
    return format(float(v), ".17g")


def _grid_csv(rows: np.ndarray, header: str, labels=None) -> str:
    """The header, then per row its label (if given) and its values, as `_fmt` writes them."""
    # one %-format per row writes each value as format(v, ".17g") does, at a
    # fraction of the per-value calls
    fmt = ",".join(["%.17g"] * rows.shape[1])
    lines = (fmt % tuple(row.tolist()) for row in rows)
    if labels is not None:
        lines = (f"{label},{line}" for label, line in zip(labels, lines))
    return "\n".join([header, *lines]) + "\n"


# -- subcommand handlers --------------------------------------------------------


def _univariate_inputs(args):
    """(kernel, sample, method, mode, h) from the options that fit and solve share."""
    kernel = get_kernel(args.kernel)
    sample = Sample(_read_csv(args.input, columns=1)[:, 0])
    mode = _parse_mode(args)
    h = _parse_bandwidth(args.bandwidth)
    h = lscv_bandwidth(sample, kernel) if h == "lscv" else h[0]
    return kernel, sample, _METHOD_NAMES[args.method], mode, h


def _cmd_fit(args) -> int:
    kernel, sample, method, mode, h = _univariate_inputs(args)
    est, report = fit(sample, h, kernel, method, mode)
    model = {
        "method": args.method,
        "kernel": args.kernel,
        "bandwidth": h,
        "support": {"lower": est.support.lower, "upper": est.support.upper},
        "solve_report": report.to_dict() if report is not None else None,
        "sample": [float(v) for v in sample.values],
    }
    _write_output(json.dumps(model, indent=2) + "\n", args.output)
    return 0


def _cmd_eval(args) -> int:
    try:
        with open(args.model, "r", encoding="utf-8") as fh:
            model = json.load(fh)
    except OSError as exc:
        raise DataError(f"cannot read {args.model}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise DataError(f"{args.model}: invalid JSON: {exc}") from exc
    try:
        kernel = get_kernel(model["kernel"])
        method = _METHOD_NAMES[model["method"]]
        sample = Sample(model["sample"])
        h = float(model["bandwidth"])
        support = SupportInterval(float(model["support"]["lower"]), float(model["support"]["upper"]))
    except (KeyError, TypeError, ValueError) as exc:
        raise DataError(f"{args.model}: malformed model: {exc}") from exc
    # the estimator checks itself, so a model edited by hand into an invalid one fails here
    est = FittedEstimator(method, sample, h, support, kernel)
    grid = _parse_grid(args.grid)
    rows = evaluate_grid(est, grid)
    if args.format == "json":
        records = [{"x": r[0], "pdf": r[1], "cdf": r[2]} for r in rows]
        _write_output(json.dumps(records, indent=2) + "\n", args.output)
    else:
        _write_output(_grid_csv(rows, "x,pdf,cdf"), args.output)
    return 0


def _cmd_solve(args) -> int:
    kernel, sample, method, mode, h = _univariate_inputs(args)
    report = solve_support(sample, h, kernel, method, mode)
    payload = {
        "method": args.method,
        "mode": args.mode,
        "kernel": args.kernel,
        "bandwidth": h,
        "n": sample.n,
        **report.to_dict(),
    }
    _write_output(json.dumps(payload, indent=2) + "\n", args.output)
    return 0


def _parse_dist(spec: str) -> dict:
    """The ExperimentSpec shapes {p, q} of a --dist beta:p,q; ExperimentSpec checks them."""
    try:
        family, params = spec.split(":")
        p_s, q_s = params.split(",")
        p, q = float(p_s), float(q_s)
    except ValueError:
        raise UsageError(f"--dist must look like beta:p,q, got {spec!r}") from None
    if family != "beta":
        raise UsageError(f"only the beta family is built in, got {family!r}")
    return {"p": p, "q": q}


def _method_spec(label: str):
    label = label.strip()
    if label not in _METHOD_LABELS:
        raise UsageError(f"unknown method label {label!r}; choose from {sorted(_METHOD_LABELS)}")
    return _METHOD_LABELS[label]


# simulate config keys (each named like its flag's attribute) and value parsers
_SIM_CONFIG_KEYS = {
    "dist": str.split,
    "n": lambda value: [int(v) for v in value.split()],
    "reps": int,
    "seed": int,
    "kernel": str,
    "bandwidth": str,
    "methods": str,
    "format": str,
}


def _load_sim_config(path: str, args) -> None:
    """Apply `key = value` lines to unset simulate options (flags win).

    Keys are those of _SIM_CONFIG_KEYS; dist and n take space-separated lists.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    for i, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise DataError(f"{path}:{i}: expected key = value, got {raw!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in _SIM_CONFIG_KEYS:
            raise DataError(f"{path}:{i}: unknown key {key!r}")
        if getattr(args, key) is None:
            try:
                setattr(args, key, _SIM_CONFIG_KEYS[key](value))
            except ValueError:
                raise DataError(f"{path}:{i}: bad value for {key}: {value!r}") from None


def _cmd_simulate(args) -> int:
    if args.config is not None:
        _load_sim_config(args.config, args)
    fmt = args.format or "csv"
    if fmt not in ("csv", "json"):
        raise UsageError(f"format must be csv or json, got {fmt!r}")
    # ExperimentSpec holds the defaults: it is passed only the options that are set
    given = {key: getattr(args, key) for key in ("reps", "seed") if getattr(args, key) is not None}
    if args.kernel:
        given["kernel"] = get_kernel(args.kernel)
    if args.methods is not None:
        given["methods"] = tuple(_method_spec(label) for label in args.methods.split(","))
    if args.bandwidth:
        hs = _parse_bandwidth(args.bandwidth)
        given["bandwidth"] = hs if hs == "lscv" else hs[0]
    if args.n:
        given["ns"] = tuple(args.n)
    dists = [_parse_dist(d) for d in args.dist] if args.dist else [{}]
    results = [run_experiment(ExperimentSpec(**dist, **given)) for dist in dists]
    if fmt == "json":
        chunks = [result.detail_json() for result in results]
        text = json.dumps(chunks if len(chunks) > 1 else chunks[0], indent=2) + "\n"
    else:
        # the distributions after the first drop their repeated header
        tables = [result.table_csv() for result in results]
        text = tables[0] + "".join(table.split("\n", 1)[1] for table in tables[1:])
    _write_output(text, args.output)
    return 0


def _cmd_joint(args) -> int:
    kernel = get_kernel(args.kernel)
    arr = _read_csv(args.input)
    data = MultiSample(arr)
    d = data.d
    mode = _parse_mode(args)
    method = _METHOD_NAMES[args.method]
    hs = _parse_bandwidth(args.bandwidth, d)
    if hs == "lscv":
        hs = [lscv_bandwidth(data.coordinate(j), kernel) for j in range(d)]
    est = fit_joint(data, hs, kernel, method, mode)
    grid_specs = args.grid.split(";")
    if len(grid_specs) == 1:
        axes = [_parse_grid(grid_specs[0]) for _ in range(d)]
    elif len(grid_specs) == d:
        axes = [_parse_grid(g) for g in grid_specs]
    else:
        raise UsageError(f"--grid needs 1 or {d} semicolon-separated specs")
    pdf_t = est.pdf_grid(axes)
    cdf_t = est.cdf_grid(axes)
    # each axis value is formatted once; product() walks the grid in the C
    # order of the ij-indexed tensors
    coords = (",".join(c) for c in itertools.product(*[[_fmt(v) for v in axis] for axis in axes]))
    header = ",".join(f"x{j + 1}" for j in range(d)) + ",pdf,cdf"
    out_text = _grid_csv(np.column_stack([pdf_t.ravel(), cdf_t.ravel()]), header, coords)
    report_text = None
    if args.report is not None:
        payload = {
            "bandwidths": hs,
            "rectangle": [list(pair) for pair in est.rectangle],
            "reports": [r.to_dict() if r is not None else None for r in est.reports],
        }
        report_text = json.dumps(payload, indent=2) + "\n"
    _write_output(out_text, args.output)
    if report_text is not None:
        _write_output(report_text, args.report)
    return 0


# -- parser ----------------------------------------------------------------------


def _build_parser() -> _Parser:
    parser = _Parser(prog="supdens", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def estimator_options(p, methods, modes, mode_required=True):
        p.add_argument("--input", required=True, help="headerless CSV of observations")
        p.add_argument("--kernel", default="epanechnikov", choices=["epanechnikov", "gaussian"])
        p.add_argument("--bandwidth", default="lscv", help="'lscv' or a positive number")
        p.add_argument("--output", default=None, help="output path (default stdout)")
        p.add_argument("--method", required=True, choices=methods)
        p.add_argument("--mode", required=mode_required, choices=modes)
        p.add_argument("--lower", type=float, default=None)
        p.add_argument("--upper", type=float, default=None)

    p_fit = sub.add_parser("fit", help="fit an estimator and persist the model as JSON")
    estimator_options(p_fit, sorted(_METHOD_NAMES), _MODES, mode_required=False)
    p_fit.set_defaults(handler=_cmd_fit)

    p_eval = sub.add_parser("eval", help="evaluate a persisted model on a grid")
    p_eval.add_argument("--model", required=True, help="model JSON written by fit")
    p_eval.add_argument("--grid", required=True, help="min:max:count")
    p_eval.add_argument("--format", default="csv", choices=["csv", "json"])
    p_eval.add_argument("--output", default=None)
    p_eval.set_defaults(handler=_cmd_eval)

    p_solve = sub.add_parser("solve", help="estimate support endpoints; prints a JSON report")
    # solve_support has nothing to solve in a known mode
    estimator_options(p_solve, _CORRECTED_METHODS, _MODES[1:])
    p_solve.set_defaults(handler=_cmd_solve)

    p_sim = sub.add_parser("simulate", help="Monte Carlo boundary-ISE comparison table")
    p_sim.add_argument("--config", default=None,
                       help="key = value file with the same options (flags win)")
    p_sim.add_argument("--dist", action="append", help="beta:p,q (repeatable; default beta:1,1)")
    p_sim.add_argument("--n", action="append", type=int, help="sample size (repeatable)")
    p_sim.add_argument("--reps", type=int, default=None)
    p_sim.add_argument("--seed", type=int, default=None)
    p_sim.add_argument("--kernel", default=None, choices=["epanechnikov", "gaussian"])
    p_sim.add_argument("--bandwidth", default=None)
    p_sim.add_argument("--methods", default=None,
                       help="comma list from: " + ",".join(sorted(_METHOD_LABELS)))
    p_sim.add_argument("--format", default=None, choices=["csv", "json"])
    p_sim.add_argument("--output", default=None)
    p_sim.set_defaults(handler=_cmd_simulate)

    p_joint = sub.add_parser("joint", help="fit a joint estimator and evaluate on a tensor grid")
    estimator_options(p_joint, _CORRECTED_METHODS, _MODES)
    p_joint.add_argument("--grid", required=True,
                         help="min:max:count, or d specs separated by ';'")
    p_joint.add_argument("--report", default=None, help="optional path for the JSON solve reports")
    p_joint.set_defaults(handler=_cmd_joint)

    return parser


def run_cli(argv: Sequence[str]) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(list(argv))
        return args.handler(args)
    except (UsageError, ConfigError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except NumericError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return 3


def main() -> None:
    sys.exit(run_cli(sys.argv[1:]))


if __name__ == "__main__":
    main()
