"""Command-line interface: integrations, Christoffel tables, verification.

Subcommands: christoffel | geodesic | flow | exp | verify.

Outputs are pure functions of the model file and flags; repeated invocations
produce byte-identical CSV/JSON.  Files are written to a temporary name and
atomically renamed, so no partial output survives an error.

Exit codes: 0 success, 1 verification failure, 2 model or usage error,
3 integration failure: the integration left the chart domain or, at an RK4
stage, the domain of a function in the metric, a stage overflowed, a step
produced a non-finite state, or the metric body turned singular.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
from pathlib import Path

import numpy as np

from .cotangent import energy_series, integrate_flow, phase_from_ic
from .errors import IntegrationFailure, LeftDomain, ModelError, SingularBody, \
    SuperGeometryError
from .expmap import exp_jacobian_check
from .geodesics import Trajectory, integrate_geodesic, integrate_goertsches
from .geometry import SuperPoint, christoffel_at, metric_validate
from .grassmann import dim
from .model import ModelFile, bundled_models, load_model
from .verify import SUITES, run_suites


# ---------------------------------------------------------------------------
# serialization helpers


def _mask_str(mask: int, L: int) -> str:
    """Bit-string rendering of a generator mask; rightmost bit = generator 1."""
    return format(mask, f"0{max(L, 1)}b")


def _atomic_write(path: str | Path, text: str) -> None:
    path = Path(path)
    fd, tmp = tempfile.mkstemp(dir=path.parent or Path("."), prefix=path.name,
                               suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def trajectory_csv(traj: Trajectory) -> str:
    """One row per (t, coordinate, mask): t,coordinate,mask,position,velocity."""
    names = traj.sig.names
    D = dim(traj.L)
    lines = ["t,coordinate,mask,position,velocity"]
    for s in range(len(traj)):
        t = repr(float(traj.ts[s]))
        for i, name in enumerate(names):
            for mask in range(D):
                lines.append(f"{t},{name},{_mask_str(mask, traj.L)},"
                             f"{float(traj.positions[s, i, mask])!r},"
                             f"{float(traj.velocities[s, i, mask])!r}")
    return "\n".join(lines) + "\n"


def flow_csv(flow, energies: np.ndarray) -> str:
    """Trajectory CSV with a momentum block and the energy per (t, mask)."""
    names = flow.sig.names
    D = dim(flow.L)
    lines = ["t,coordinate,mask,position,momentum,energy"]
    for s in range(len(flow)):
        t = repr(float(flow.ts[s]))
        for i, name in enumerate(names):
            for mask in range(D):
                lines.append(f"{t},{name},{_mask_str(mask, flow.L)},"
                             f"{float(flow.positions[s, i, mask])!r},"
                             f"{float(flow.momenta[s, i, mask])!r},"
                             f"{float(energies[s, mask])!r}")
    return "\n".join(lines) + "\n"


def _emit(text: str, out: str | None) -> None:
    if out:
        _atomic_write(out, text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# argument handling


def _parse_point(model: ModelFile, args) -> SuperPoint:
    if getattr(args, "ic", None):
        return model.initial_condition(args.ic).position
    if getattr(args, "point", None):
        values = {}
        for part in args.point.split(","):
            if "=" not in part:
                raise ModelError(f"bad --point component {part!r}; "
                                 "expected name=value")
            key, _, val = part.partition("=")
            try:
                values[key.strip()] = float(val)
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
            out[key] = float(val)
        except ValueError:
            raise ModelError(f"bad --tol value {val!r}") from None
    return out


# ---------------------------------------------------------------------------
# subcommands


def _require_valid_metric(model: ModelFile, points) -> None:
    report = metric_validate(model.chart, points)
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
    t_end = args.t_end if args.t_end is not None else model.defaults["t_end"]
    dt = args.dt if args.dt is not None else model.defaults["dt"]
    integrate = (integrate_goertsches if args.mode == "goertsches"
                 else integrate_geodesic)
    traj = integrate(model.chart, ic, t_end, dt)
    _emit(trajectory_csv(traj), args.out)
    return 0


def cmd_flow(args) -> int:
    model = load_model(args.model)
    ic = model.initial_condition(args.ic)
    _require_valid_metric(model, [ic.position])
    t_end = args.t_end if args.t_end is not None else model.defaults["t_end"]
    dt = args.dt if args.dt is not None else model.defaults["dt"]
    flow = integrate_flow(model.chart, phase_from_ic(model.chart, ic),
                          t_end, dt)
    _emit(flow_csv(flow, energy_series(model.chart, flow)), args.out)
    return 0


def cmd_exp(args) -> int:
    model = load_model(args.model)
    point = _parse_point(model, args)
    _require_valid_metric(model, [point])
    dt = args.dt if args.dt is not None else model.defaults["dt"]
    rep = exp_jacobian_check(model.chart, point.body_even(), h=args.h, dt=dt)
    report = {
        "model": model.name,
        "point": [float(v) for v in rep.point],
        "h": rep.h,
        "dt": rep.dt,
        "matrix": [[float(v) for v in row] for row in rep.matrix],
        "even_deviation": rep.even_dev,
        "odd_deviation": rep.odd_dev,
        "passed": rep.passed(),
    }
    _emit(json.dumps(report, indent=2) + "\n", args.out)
    return 0 if rep.passed() else 1


def cmd_verify(args) -> int:
    model = load_model(args.model)
    overrides = _parse_tols(args.tol)
    report = run_suites(model, suites=tuple(args.suite), overrides=overrides)
    _emit(json.dumps(report, indent=2) + "\n", args.out)
    return 0 if report["passed"] else 1


# ---------------------------------------------------------------------------
# entry point


def build_parser() -> argparse.ArgumentParser:
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
    sp.add_argument("--tol", type=float, default=1e-12,
                    help="threshold below which entries count as zero")
    sp.set_defaults(func=cmd_christoffel)

    sp = sub.add_parser("geodesic", help="integrate a supergeodesic to CSV")
    common(sp, ic_required=True)
    sp.add_argument("--mode", choices=("paper", "goertsches"), default="paper")
    sp.add_argument("--t-end", dest="t_end", type=float, default=None)
    sp.add_argument("--dt", type=float, default=None)
    sp.add_argument("--out", help="output CSV path (stdout if omitted)")
    sp.set_defaults(func=cmd_geodesic)

    sp = sub.add_parser("flow", help="integrate the cotangent flow to CSV")
    common(sp, ic_required=True)
    sp.add_argument("--t-end", dest="t_end", type=float, default=None)
    sp.add_argument("--dt", type=float, default=None)
    sp.add_argument("--out", help="output CSV path (stdout if omitted)")
    sp.set_defaults(func=cmd_flow)

    sp = sub.add_parser("exp", help="Jacobian check of the exponential map")
    common(sp)
    sp.add_argument("--point", help="body point, e.g. 'x=0.0'")
    sp.add_argument("--ic", help="use the position of a named initial condition")
    sp.add_argument("--h", type=float, default=1e-4,
                    help="finite-difference step for even directions")
    sp.add_argument("--dt", type=float, default=None)
    sp.add_argument("--out", help="output JSON path (stdout if omitted)")
    sp.set_defaults(func=cmd_exp)

    sp = sub.add_parser("verify", help="run verification suites to JSON")
    common(sp)
    sp.add_argument("--suite", action="append", default=None,
                    choices=("all",) + SUITES,
                    help="suite to run (repeatable; default all)")
    sp.add_argument("--tol", action="append", metavar="NAME=VALUE",
                    help="override a tolerance (repeatable)")
    sp.add_argument("--out", help="output JSON path (stdout if omitted)")
    sp.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "suite", None) is None and args.command == "verify":
        args.suite = ["all"]
    try:
        return args.func(args)
    except ModelError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (LeftDomain, IntegrationFailure, SingularBody) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except SuperGeometryError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
