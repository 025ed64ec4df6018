"""Command-line interface: integrations, Christoffel tables, verification.

Subcommands: christoffel | geodesic | flow | exp | verify.

Outputs are pure functions of the model file and flags; repeated invocations
produce byte-identical CSV/JSON.  Files are written to a temporary name and
atomically renamed, so no partial output survives an error.

Exit codes: 0 success, 1 verification failure, else the `exit_code` of the
error's type (`errors.py`): 2 model or usage error or an output path that
cannot be written, 3 failed integration.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
from functools import lru_cache, partial
from itertools import product
from pathlib import Path

import numpy as np

from .cotangent import energy_series, integrate_flow, phase_from_ic
from .errors import ModelError, OutputError, SuperGeometryError
from .expmap import exp_jacobian_check
from .geodesics import Trajectory, integrate_geodesic, integrate_goertsches
from .geometry import SuperPoint, christoffel_at, metric_validate
from .grassmann import dim
from .model import ModelFile, _finite, bundled_models, load_model, \
    tolerance_override
from .verify import SUITES, run_suites


# ---------------------------------------------------------------------------
# serialization helpers


def _mask_str(mask: int, L: int) -> str:
    """Bit-string rendering of a generator mask; rightmost bit = generator 1."""
    return format(mask, f"0{max(L, 1)}b")


def _atomic_write(path: str | Path, text: str) -> None:
    """Write `text` to a temporary file beside `path` and rename it there.
    The temporary file never survives; an OS error on the way is an
    `OutputError` naming the path."""
    path = Path(path)
    tmp = None
    try:
        fd, tmp = tempfile.mkstemp(dir=path.parent or Path("."),
                                   prefix=path.name, suffix=".tmp")
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException as exc:
        if tmp is not None:
            try:
                os.unlink(tmp)
            except OSError:
                pass
        if isinstance(exc, OSError):
            raise OutputError(
                f"cannot write {path}: {exc.strerror or exc}") from exc
        raise


def _sample_csv(header: str, curve, *columns: np.ndarray) -> str:
    """`header`, then one row per (t, coordinate, mask) of a sampled curve
    with the repr of each (T, n, 2^L) column's float there."""
    keys = [f"{name},{_mask_str(mask, curve.L)}"
            for name in curve.sig.names for mask in range(dim(curve.L))]
    places = product(map(repr, curve.ts.tolist()), keys)
    values = zip(*(map(repr, col.reshape(-1).tolist()) for col in columns))
    return header + "\n" + "".join(f"{t},{key},{','.join(vals)}\n"
                                   for (t, key), vals in zip(places, values))


def trajectory_csv(traj: Trajectory) -> str:
    """One row per (t, coordinate, mask): t,coordinate,mask,position,velocity."""
    return _sample_csv("t,coordinate,mask,position,velocity", traj,
                       traj.positions, traj.velocities)


def flow_csv(flow, energies: np.ndarray) -> str:
    """Trajectory CSV with a momentum block and the energy per (t, mask)."""
    return _sample_csv("t,coordinate,mask,position,momentum,energy", flow,
                       flow.positions, flow.momenta,
                       np.broadcast_to(energies[:, None, :], flow.positions.shape))


def _emit(text: str, out: str | None) -> None:
    if out:
        _atomic_write(out, text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# argument handling


def _parse_point(model: ModelFile, args) -> SuperPoint:
    if args.ic and args.point:
        raise ModelError("give --point or --ic, not both")
    if args.ic:
        return model.initial_condition(args.ic).position
    if args.point:
        values = {}
        for part in args.point.split(","):
            if "=" not in part:
                raise ModelError(f"bad --point component {part!r}; "
                                 "expected name=value")
            key, _, val = part.partition("=")
            key = key.strip()
            if key in values:
                raise ModelError(f"--point gives {key!r} more than once")
            try:
                values[key] = _finite(float(val), f"--point {key}")
            except ValueError:
                raise ModelError(f"bad --point value {val!r}") from None
        missing = set(model.sig.even_names) - set(values)
        if missing:
            raise ModelError(f"--point is missing {sorted(missing)}")
        extra = set(values) - set(model.sig.even_names)
        if extra:
            raise ModelError(f"--point has non-even coordinates {sorted(extra)}")
        body = [values[n] for n in model.sig.even_names]
        return SuperPoint.body_point(model.sig, model.L, body)
    raise ModelError("provide --point or --ic")


def _parse_tols(pairs) -> dict[str, float]:
    out = {}
    for pair in pairs or []:
        key, sep, val = pair.partition("=")
        if not sep:
            raise ModelError(f"bad --tol {pair!r}; expected name=value")
        try:
            value = float(val)
        except ValueError:
            raise ModelError(f"bad --tol value {val!r}") from None
        if key in out:
            raise ModelError(f"--tol gives {key!r} more than once")
        out[key] = tolerance_override(key, value, f"--tol {key}")
    return out


def _number(text: str, strict: bool) -> float:
    """argparse type: `text` as a finite number > 0 if `strict`, else >= 0."""
    try:
        value = float(text)
    except ValueError:
        value = float("nan")
    if not (value < float("inf") and (value > 0.0 if strict else value >= 0.0)):
        raise argparse.ArgumentTypeError(
            f"expected a finite number {'>' if strict else '>='} 0, "
            f"got {text!r}")
    return value


_positive = partial(_number, strict=True)  # a step or span
_nonnegative = partial(_number, strict=False)  # a threshold


def _model_default(model: ModelFile, args, key: str) -> float:
    """The flag `key` if it was given, else the model's default."""
    value = getattr(args, key)
    return model.defaults[key] if value is None else value


# ---------------------------------------------------------------------------
# subcommands


def _require_valid_metric(model: ModelFile, points) -> None:
    """The metric gate of every command: the `metric_invariants` check of
    `verify`, at the model's tolerance."""
    report = metric_validate(model.chart, points,
                             model.tolerance("metric_invariants"))
    if not report.ok:
        raise ModelError(f"metric validation failed: {report.first_violation}")


def cmd_christoffel(args) -> int:
    model = load_model(args.model)
    point = _parse_point(model, args)
    _require_valid_metric(model, [point])
    table = christoffel_at(model.chart, point)
    entries = list(table.nonzero(tol=args.tol))
    if not entries:
        print("(all Christoffel symbols vanish at the point)")
        return 0
    for (k, i, j), value in entries:
        print(f"Gamma^{k}_{{{i},{j}}} = {value}")
    return 0


def cmd_geodesic(args) -> int:
    model = load_model(args.model)
    ic = model.initial_condition(args.ic)
    _require_valid_metric(model, [ic.position])
    integrate = (integrate_goertsches if args.mode == "goertsches"
                 else integrate_geodesic)
    traj = integrate(model.chart, ic, _model_default(model, args, "t_end"),
                     _model_default(model, args, "dt"))
    _emit(trajectory_csv(traj), args.out)
    return 0


def cmd_flow(args) -> int:
    model = load_model(args.model)
    ic = model.initial_condition(args.ic)
    _require_valid_metric(model, [ic.position])
    flow = integrate_flow(model.chart, phase_from_ic(model.chart, ic),
                          _model_default(model, args, "t_end"),
                          _model_default(model, args, "dt"))
    _emit(flow_csv(flow, energy_series(model.chart, flow)), args.out)
    return 0


def cmd_exp(args) -> int:
    model = load_model(args.model)
    point = _parse_point(model, args)
    model.chart.check_point(point)  # exit 2 here, not 3 from the first step
    _require_valid_metric(model, [point])
    rep = exp_jacobian_check(model.chart, point.body_even(), h=args.h,
                             dt=_model_default(model, args, "dt"))
    report = {
        "model": model.name,
        "point": [float(v) for v in rep.point],
        "h": rep.h,
        "dt": rep.dt,
        "matrix": [[float(v) for v in row] for row in rep.matrix],
        "even_deviation": rep.even_dev,
        "odd_deviation": rep.odd_dev,
        "passed": (rep.even_dev <= model.tolerance("exp_identity_even")
                   and rep.odd_dev <= model.tolerance("exp_identity_odd")),
    }
    _emit(json.dumps(report, indent=2) + "\n", args.out)
    return 0 if report["passed"] else 1


def cmd_verify(args) -> int:
    model = load_model(args.model)
    overrides = _parse_tols(args.tol)
    report = run_suites(model, suites=tuple(args.suite), overrides=overrides)
    _emit(json.dumps(report, indent=2) + "\n", args.out)
    return 0 if report["passed"] else 1


# ---------------------------------------------------------------------------
# entry point


@lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: parsing keeps no
    state in it, and every call of `main` gets a namespace of its own.
    `main` runs the handler `cmd_<command>` it finds in this module then."""
    parser = argparse.ArgumentParser(
        prog="supergeodesics",
        description="Supergeodesics, the geodesic flow and the exponential "
                    "map on Riemannian supermanifold charts.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp, ic_required=False):
        sp.add_argument("--model", required=True,
                        help="model file path or bundled name "
                             f"({', '.join(bundled_models())})")
        if ic_required:
            sp.add_argument("--ic", required=True,
                            help="named initial condition from the model")

    sp = sub.add_parser("christoffel",
                        help="print nonzero Christoffel symbols at a point")
    common(sp)
    sp.add_argument("--point", help="body point, e.g. 'x=2.0,y=0.0'")
    sp.add_argument("--ic", help="use the position of a named initial condition")
    sp.add_argument("--tol", type=_nonnegative, default=1e-12,
                    help="threshold below which entries count as zero")

    sp = sub.add_parser("geodesic", help="integrate a supergeodesic to CSV")
    common(sp, ic_required=True)
    sp.add_argument("--mode", choices=("paper", "goertsches"), default="paper")
    sp.add_argument("--t-end", dest="t_end", type=_positive, default=None)
    sp.add_argument("--dt", type=_positive, default=None)
    sp.add_argument("--out", help="output CSV path (stdout if omitted)")

    sp = sub.add_parser("flow", help="integrate the cotangent flow to CSV")
    common(sp, ic_required=True)
    sp.add_argument("--t-end", dest="t_end", type=_positive, default=None)
    sp.add_argument("--dt", type=_positive, default=None)
    sp.add_argument("--out", help="output CSV path (stdout if omitted)")

    sp = sub.add_parser("exp", help="Jacobian check of the exponential map")
    common(sp)
    sp.add_argument("--point", help="body point, e.g. 'x=0.0'")
    sp.add_argument("--ic", help="use the position of a named initial condition")
    sp.add_argument("--h", type=_positive, default=1e-4,
                    help="finite-difference step for even directions")
    sp.add_argument("--dt", type=_positive, default=None)
    sp.add_argument("--out", help="output JSON path (stdout if omitted)")

    sp = sub.add_parser("verify", help="run verification suites to JSON")
    common(sp)
    sp.add_argument("--suite", action="append", default=None,
                    choices=("all",) + SUITES,
                    help="suite to run (repeatable; default all)")
    sp.add_argument("--tol", action="append", metavar="NAME=VALUE",
                    help="override a tolerance (repeatable)")
    sp.add_argument("--out", help="output JSON path (stdout if omitted)")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "suite", None) is None and args.command == "verify":
        args.suite = ["all"]
    try:
        return globals()[f"cmd_{args.command}"](args)
    except SuperGeometryError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
