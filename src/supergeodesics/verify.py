"""Verification suites: machine-checkable invariants of a loaded model.

Each suite returns a list of named checks with a measured deviation and a
tolerance; `cmd_verify` serializes them as JSON.  The classical oracles used
for body-reduction checks (plain real RK4 on the reduced metric and on the
classical cotangent system) are independent code paths from the graded
integrators they certify.

Metric-compatibility oracle
---------------------------
Expanding the defining property of a metric connection on the coordinate
fields X = d_i, Y = d_j, Z = d_k, using nabla_{d_i} d_j = sum_l Gamma^l_ij d_l
and the graded function-linearity of the pairing
(g(fY, Z) = f g(Y,Z) and g(Y, fZ) = (-1)^{|f||Y|} f g(Y,Z)) gives

    d_i g_jk = sum_l Gamma^l_ij * g_lk
             + sum_l (-1)^{|j|(|k|+|l|)} Gamma^l_ik * g_jl .

This signed expansion is fixed here once and checked at random points.

Verify as one plan
------------------
`Fixtures` decodes a model's verify data before any suite runs.  On first
use, `Fixtures.exp` lists every exp row the requested suites need (the
Jacobian rows of the exp suite; the naturality and linearization rows of
the isometry suite) and, for the geodesic and flow suites, the suite
geodesic.  It integrates each distinct row once, in one batched paper-mode
run per (L, h, steps), with the suite geodesic as the one recorded row of
the run whose grid it shares (`expmap.ExpTable`).  The checks read their
exp values from that table.  Only the determinism re-runs, the flow and the
classical oracles integrate on their own.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .cotangent import (
    energy_series,
    integrate_flow,
    parity_violation_max,
    phase_from_ic,
    roundtrip_check,
)
from .errors import ModelError
from .expmap import (
    ExpTable,
    TangentFiberPoint,
    _jacobian_rows,
    _linearization_rows,
    _naturality_rows,
    exp_jacobian_checks,
    isometry_check,
    linearization_test,
    naturality_check,
    numerical_tangent_map,
    probe_points,
    tangent_map_matrix,
)
from .geodesics import (
    InitialCondition,
    Trajectory,
    covariant_derivative_t,
    integrate_geodesic,
    metric_speed,
)
from .geometry import BodyGeometry, MetricChart, SuperPoint, _chunks, \
    _last_axes, metric_validate, reduce_body
from .grassmann import GrassmannElement, batched_mul, dim, mask_parity
from .model import ModelFile, vector_from_spec
from .superexpr import SuperMorphism

TOLERANCES: dict[str, float] = {
    "metric_invariants": 1e-10,
    "christoffel_symmetry": 1e-10,
    "christoffel_parity": 1e-10,
    "metric_compatibility": 1e-8,
    "beta_compatibility": 1e-10,
    "geodesic_residual": 1e-6,
    "speed_drift": 1e-8,
    "body_reduction": 1e-8,
    "determinism": 0.0,
    "energy_drift": 1e-8,
    "parity_preservation": 0.0,
    "roundtrip": 1e-6,
    "flow_body_reduction": 1e-8,
    "exp_identity_even": 1e-5,
    "exp_identity_odd": 1e-9,
    "tangent_map_agreement": 1e-12,
    "isometry_condition": 1e-8,
    "naturality": 1e-6,
    "negative_control_min": 1e-3,
    "geodesic_symmetry": 1e-6,
    "identity_linearization": 1e-9,
}

SUITES = ("metric", "geodesic", "flow", "exp", "isometry")

# finite-difference step of the even rows of the exp Jacobian
_JACOBIAN_H = 1e-4


@dataclass
class Check:
    name: str
    passed: bool
    max_deviation: float
    tolerance: float
    details: str = ""

    def as_dict(self) -> dict:
        return {"name": self.name, "passed": bool(self.passed),
                "max_deviation": float(self.max_deviation),
                "tolerance": float(self.tolerance), "details": self.details}


def _tol(model: ModelFile, overrides: dict | None, key: str) -> float:
    if overrides and key in overrides:
        return overrides[key]
    if key in model.tolerances:
        return model.tolerances[key]
    return TOLERANCES[key]


def _bounded(model: ModelFile, overrides: dict | None, name: str, dev: float,
             details: str = "") -> Check:
    """The check `name`: it passes when `dev` is within its tolerance."""
    tol = _tol(model, overrides, name)
    return Check(name, dev <= tol, dev, tol, details)


def _seed(model: ModelFile, salt: str = "") -> int:
    return zlib.crc32((model.name + salt).encode())


def random_superpoint(chart: MetricChart, L: int, rng: np.random.Generator,
                      soul_scale: float = 0.2) -> SuperPoint:
    """A parity-correct random point with body inside the chart box."""
    sig = chart.sig
    mpar = mask_parity(L)
    even_masks = np.nonzero(mpar == 0)[0][1:]
    odd_masks = np.nonzero(mpar == 1)[0]
    values: dict[str, GrassmannElement] = {}
    for name in sig.even_names:
        lo, hi = chart.domain.get(name, (-2.0, 2.0))
        lo, hi = max(lo, -2.0), min(hi, 2.0)
        pad = 0.05 * (hi - lo)
        arr = np.zeros(dim(L))
        arr[0] = rng.uniform(lo + pad, hi - pad)
        if len(even_masks):
            arr[even_masks] = soul_scale * rng.uniform(-1.0, 1.0, len(even_masks))
        values[name] = GrassmannElement(L, arr)
    for name in sig.odd_names:
        arr = np.zeros(dim(L))
        if len(odd_masks):
            arr[odd_masks] = 0.5 * rng.uniform(-1.0, 1.0, len(odd_masks))
        values[name] = GrassmannElement(L, arr)
    return SuperPoint(sig, L, values)


class Fixtures:
    """A model's verify fixtures for the `suites` that will run, decoded
    before any suite runs (a bad one raises `ModelError`); the body geometry
    and the planned integrations (`exp`, `geodesic`) are built on first use
    and shared by every suite."""

    def __init__(self, model: ModelFile, suites=SUITES):
        cfg, sig = model.verify_config, model.sig
        self.model, self.chart = model, model.chart
        self.suites = frozenset(suites)
        name = cfg.get("ic")
        self.ic: InitialCondition | None = (
            model.initial_condition(name) if name
            else next(iter(model.initial_conditions.values()), None))
        self.dt, self.t_end = model.defaults["dt"], model.defaults["t_end"]
        boxes = [model.chart.domain.get(n, (-1.0, 1.0)) for n in sig.even_names]
        self.base = np.asarray(cfg.get("base_point", [
            (max(lo, -1.0) + min(hi, 1.0)) / 2.0 for lo, hi in boxes]), dtype=float)
        self.exp_points = ([np.asarray(p, dtype=float) for p in cfg["exp_points"]]
                           if "exp_points" in cfg else
                           [self.base + off for off in (-0.2, -0.1, 0.0, 0.1, 0.2)])
        L = max(model.L, 1) if sig.n_odd else model.L
        self.vectors = [vector_from_spec(v, sig, L, self.base,
                                         f"verify.vectors[{i}]")
                        for i, v in enumerate(cfg.get("vectors", []))]

    def run_ic(self) -> InitialCondition:
        if self.ic is None:
            raise ModelError(f"model {self.model.name!r} has no initial "
                             "condition to verify")
        return self.ic

    @cached_property
    def body(self) -> BodyGeometry:
        return reduce_body(self.chart)

    @cached_property
    def exp(self) -> ExpTable:
        """Every exp row of the planned suites, and the suite geodesic if the
        geodesic or flow suite is planned, integrated once (module
        docstring)."""
        rows: list[TangentFiberPoint] = []
        if "exp" in self.suites:
            for q in self.exp_points:
                rows += _jacobian_rows(self.chart.sig, q, _JACOBIAN_H)
        if "isometry" in self.suites:
            rows += _isometry_rows(self)
        curve = ((self.run_ic(), self.t_end, self.dt)
                 if self.suites & {"geodesic", "flow"} else None)
        return ExpTable(self.chart, rows, self.dt, curve)

    @property
    def geodesic(self) -> Trajectory:
        if self.exp.curve is None:
            raise LookupError("the suite geodesic was not planned")
        return self.exp.curve


def _isometry_rows(fx: Fixtures) -> list[TangentFiberPoint]:
    """The exp rows of `run_isometry_suite`, from the row helpers of the
    checks it runs."""
    cfg = fx.model.verify_config
    rows: list[TangentFiberPoint] = []
    if fx.vectors:
        for name in (*cfg.get("isometries", []),
                     *cfg.get("negative_controls", [])):
            rows += _naturality_rows(fx.chart, fx.model.morphism(name),
                                     fx.base, fx.vectors)
    if cfg.get("point_symmetries"):
        rows += _linearization_rows(fx.vectors, -1.0)
    return rows + _linearization_rows(fx.vectors, 1.0)


# ---------------------------------------------------------------------------
# classical oracles (independent code paths on the reduced geometry)


def classical_geodesic(body: BodyGeometry, x0, v0, t_end: float,
                       dt: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Plain real RK4 for the classical geodesic equation on the body."""
    steps = max(1, round(t_end / dt))
    h = t_end / steps
    x = np.asarray(x0, dtype=float).copy()
    v = np.asarray(v0, dtype=float).copy()
    ts = np.arange(steps + 1) * h
    xs = np.empty((steps + 1, body.m))
    vs = np.empty((steps + 1, body.m))
    xs[0], vs[0] = x, v

    def acc(x, v):
        gamma = body.christoffel(x)
        return -np.einsum("kij,i,j->k", gamma, v, v)

    for s in range(steps):
        k1x, k1v = v, acc(x, v)
        k2x, k2v = v + 0.5 * h * k1v, acc(x + 0.5 * h * k1x, v + 0.5 * h * k1v)
        k3x, k3v = v + 0.5 * h * k2v, acc(x + 0.5 * h * k2x, v + 0.5 * h * k2v)
        k4x, k4v = v + h * k3v, acc(x + h * k3x, v + h * k3v)
        x = x + (h / 6.0) * (k1x + 2 * k2x + 2 * k3x + k4x)
        v = v + (h / 6.0) * (k1v + 2 * k2v + 2 * k3v + k4v)
        xs[s + 1], vs[s + 1] = x, v
    return ts, xs, vs


def classical_cotangent_flow(body: BodyGeometry, x0, p0, t_end: float,
                             dt: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Plain real RK4 for the classical cotangent geodesic flow:
    dq/dt = g^{-1} p, dp_i/dt = -1/2 p^T (d_i g^{-1}) p."""
    steps = max(1, round(t_end / dt))
    h = t_end / steps
    q = np.asarray(x0, dtype=float).copy()
    p = np.asarray(p0, dtype=float).copy()
    ts = np.arange(steps + 1) * h
    qs = np.empty((steps + 1, body.m))
    ps = np.empty((steps + 1, body.m))
    qs[0], ps[0] = q, p

    def rhs(q, p):
        ginv = body.metric_inverse(q)
        dG = body.dmetric(q)
        dginv = -np.einsum("ik,akl,lj->aij", ginv, dG, ginv)
        qdot = ginv @ p
        pdot = -0.5 * np.einsum("k,akj,j->a", p, dginv, p)
        return qdot, pdot

    for s in range(steps):
        k1q, k1p = rhs(q, p)
        k2q, k2p = rhs(q + 0.5 * h * k1q, p + 0.5 * h * k1p)
        k3q, k3p = rhs(q + 0.5 * h * k2q, p + 0.5 * h * k2p)
        k4q, k4p = rhs(q + h * k3q, p + h * k3p)
        q = q + (h / 6.0) * (k1q + 2 * k2q + 2 * k3q + k4q)
        p = p + (h / 6.0) * (k1p + 2 * k2p + 2 * k3p + k4p)
        qs[s + 1], ps[s + 1] = q, p
    return ts, qs, ps


# ---------------------------------------------------------------------------
# suites


def run_metric_suite(fx: Fixtures, overrides: dict | None = None,
                     n_points: int = 100) -> list[Check]:
    model, chart = fx.model, fx.chart
    L = model.L
    rng = np.random.default_rng(_seed(model, "metric"))
    samples = [random_superpoint(chart, L, rng) for _ in range(8)]
    checks: list[Check] = []

    report = metric_validate(chart, samples, tol=_tol(model, overrides,
                                                      "metric_invariants"))
    checks.append(Check("metric_invariants", report.ok, 0.0,
                        _tol(model, overrides, "metric_invariants"),
                        report.first_violation or ""))
    if not report.ok:
        return checks

    kern = chart.kernel(L)
    par = chart.sig.parity_vector()
    # the masks of the wrong parity for Gamma^k_ij, |Gamma^k_ij| = |i|+|j|+|k|
    wrong = mask_parity(L) != (par[:, None, None, None] + par[:, None, None]
                               + par[:, None]) % 2
    sym_dev = 0.0
    par_dev = 0.0
    compat_dev = 0.0
    pts = np.stack([random_superpoint(chart, L, rng).as_array()
                    for _ in range(n_points)])
    for c in _chunks(n_points, kern.n, kern.D):
        env = kern.env(pts[c])
        G = kern.eval_metric(env)
        gamma = kern.christoffel(env)
        # graded symmetry Gamma^k_ij = (-1)^{|i||j|} Gamma^k_ji
        sym = gamma - kern.s1[:, :, None] * gamma.swapaxes(-3, -2)
        sym_dev = max(sym_dev, float(np.max(np.abs(sym))))
        if wrong.any():
            par_dev = max(par_dev, float(np.max(np.abs(gamma[..., wrong]))))
        # metric compatibility (oracle in the module docstring)
        dG = kern.eval_dmetric(env)
        gT = gamma.transpose(_last_axes(gamma.ndim, (1, 2, 0, 3)))  # Gamma^l_ij
        t1 = batched_mul(gT[..., :, :, :, None, :], G[..., None, None, :, :, :], L)
        term1 = t1.sum(axis=-3)          # [i,j,k] = sum_l Gamma^l_ij g_lk
        a = gT[..., :, None, :, :, :]    # [i,1,k,l] = Gamma^l_ik
        b = G[..., None, :, None, :, :]  # [1,j,1,l] = g_jl
        t2 = batched_mul(a, b, L)        # [i,j,k,l]
        t2 = kern.s3[None, :, :, :, None] * t2  # (-1)^{|j|(|k|+|l|)}
        term2 = t2.sum(axis=-2)
        resid = dG - term1 - term2
        compat_dev = max(compat_dev, float(np.max(np.abs(resid))))

    checks.append(_bounded(model, overrides, "christoffel_symmetry", sym_dev))
    checks.append(_bounded(model, overrides, "christoffel_parity", par_dev))
    checks.append(_bounded(model, overrides, "metric_compatibility",
                           compat_dev, f"{n_points} random points"))

    beta_dev = 0.0
    m = chart.sig.n_even
    for q in fx.exp_points:
        p0 = SuperPoint.body_point(chart.sig, 0, q)
        gamma0 = chart.kernel(0).christoffel(chart.kernel(0).env(p0.as_array()))
        beta_dev = max(beta_dev, float(np.max(np.abs(
            gamma0[:m, :m, :m, 0] - fx.body.christoffel(q)))))
    checks.append(_bounded(model, overrides, "beta_compatibility", beta_dev))
    return checks


def run_geodesic_suite(fx: Fixtures,
                       overrides: dict | None = None) -> list[Check]:
    model, chart = fx.model, fx.chart
    checks: list[Check] = []

    traj = fx.geodesic

    resid = covariant_derivative_t(chart, traj, traj.velocities)
    resid_dev = float(np.max(np.abs(resid)))
    checks.append(_bounded(model, overrides, "geodesic_residual", resid_dev))

    speed = metric_speed(chart, traj)
    drift = float(np.max(np.abs(speed - speed[0])))
    checks.append(_bounded(model, overrides, "speed_drift", drift))

    m = chart.sig.n_even
    x0 = traj.positions[0, :m, 0]
    v0 = traj.velocities[0, :m, 0]
    _, xs, _ = classical_geodesic(fx.body, x0, v0, fx.t_end, fx.dt)
    body_dev = float(np.max(np.abs(traj.positions[:, :m, 0] - xs)))
    checks.append(_bounded(model, overrides, "body_reduction", body_dev,
                           "vs independent classical integrator"))

    again = integrate_geodesic(chart, fx.run_ic(), fx.t_end, fx.dt)
    identical = (np.array_equal(traj.positions, again.positions)
                 and np.array_equal(traj.velocities, again.velocities))
    checks.append(Check("determinism", identical,
                        0.0 if identical else float(np.max(np.abs(
                            traj.positions - again.positions))),
                        _tol(model, overrides, "determinism"),
                        "bitwise-identical re-run"))
    return checks


def run_flow_suite(fx: Fixtures,
                   overrides: dict | None = None) -> list[Check]:
    model, chart = fx.model, fx.chart
    checks: list[Check] = []

    I = phase_from_ic(chart, fx.run_ic())
    flow = integrate_flow(chart, I, fx.t_end, fx.dt)

    H = energy_series(chart, flow)
    drift = float(np.max(np.abs(H - H[0])))
    checks.append(_bounded(model, overrides, "energy_drift", drift))

    pv = parity_violation_max(flow)
    checks.append(_bounded(model, overrides, "parity_preservation", pv,
                           "exact zero check"))

    rt = roundtrip_check(chart, fx.geodesic, flow,
                         tolerance=_tol(model, overrides, "roundtrip"))
    checks.append(Check("roundtrip", rt.passed, rt.max_dev, rt.tolerance,
                        f"flow->geodesic {rt.flow_to_geodesic_dev:.3g}, "
                        f"geodesic->flow {rt.geodesic_to_flow_dev:.3g}, "
                        f"initial velocity {rt.initial_velocity_dev:.3g}"))

    m = chart.sig.n_even
    q0 = flow.positions[0, :m, 0]
    p0 = flow.momenta[0, :m, 0]
    _, qs, ps = classical_cotangent_flow(fx.body, q0, p0, fx.t_end, fx.dt)
    dev = max(float(np.max(np.abs(flow.positions[:, :m, 0] - qs))),
              float(np.max(np.abs(flow.momenta[:, :m, 0] - ps))))
    checks.append(_bounded(model, overrides, "flow_body_reduction", dev,
                           "vs independent classical cotangent flow"))

    again = integrate_flow(chart, I, fx.t_end, fx.dt)
    identical = (np.array_equal(flow.positions, again.positions)
                 and np.array_equal(flow.momenta, again.momenta))
    checks.append(Check("determinism", identical, 0.0,
                        _tol(model, overrides, "determinism"),
                        "bitwise-identical re-run"))
    return checks


def run_exp_suite(fx: Fixtures,
                  overrides: dict | None = None) -> list[Check]:
    model, chart = fx.model, fx.chart
    checks: list[Check] = []
    even_dev = 0.0
    odd_dev = 0.0
    for rep in exp_jacobian_checks(chart, fx.exp_points, h=_JACOBIAN_H,
                                   dt=fx.dt, exp=fx.exp):
        even_dev = max(even_dev, rep.even_dev)
        odd_dev = max(odd_dev, rep.odd_dev)
    checks.append(_bounded(model, overrides, "exp_identity_even", even_dev,
                           f"{len(fx.exp_points)} body points, h=1e-4"))
    checks.append(_bounded(model, overrides, "exp_identity_odd", odd_dev,
                           "exact coefficient extraction"))

    agree_dev = 0.0
    for name, phi in model.morphisms.items():
        sym = tangent_map_matrix(phi, fx.base)
        num = numerical_tangent_map(phi, fx.base).matrix
        agree_dev = max(agree_dev, float(np.max(np.abs(sym - num))))
    checks.append(_bounded(model, overrides, "tangent_map_agreement",
                           agree_dev, "symbolic tangent map vs numerical Jacobian"))
    return checks


def run_isometry_suite(fx: Fixtures,
                       overrides: dict | None = None) -> list[Check]:
    model, chart = fx.model, fx.chart
    cfg = model.verify_config
    dt, base, vectors = fx.dt, fx.base, fx.vectors
    L = vectors[0].L if vectors else max(model.L, 1)
    samples = probe_points(chart, base, L)
    checks: list[Check] = []

    iso_tol = _tol(model, overrides, "isometry_condition")
    nat_tol = _tol(model, overrides, "naturality")
    neg_min = _tol(model, overrides, "negative_control_min")

    for name in cfg.get("isometries", []):
        phi = model.morphism(name)
        iso = isometry_check(chart, chart, phi, samples, tolerance=iso_tol)
        checks.append(Check(f"isometry_condition[{name}]", iso.passed,
                            iso.max_dev, iso_tol))
        # naturality presumes the isometry: a failed condition is the report
        if vectors and iso.passed:
            nat = naturality_check(chart, phi, base, vectors, dt=dt,
                                   tolerance=nat_tol,
                                   isometry_samples=samples, exp=fx.exp)
            checks.append(Check(f"naturality[{name}]", nat.passed,
                                nat.max_dev, nat_tol))

    for name in cfg.get("negative_controls", []):
        phi = model.morphism(name)
        iso = isometry_check(chart, chart, phi, samples, tolerance=iso_tol)
        dev = 0.0
        if vectors:
            nat = naturality_check(chart, phi, base, vectors, dt=dt,
                                   isometry_samples=samples,
                                   require_isometry=False, exp=fx.exp)
            dev = nat.max_dev
        ok = (not iso.passed) and (not vectors or dev > neg_min)
        checks.append(Check(f"negative_control[{name}]", ok, dev, neg_min,
                            f"isometry condition dev {iso.max_dev:.3g}; "
                            "naturality deviation must exceed tolerance"))

    for name in cfg.get("point_symmetries", []):
        phi = model.morphism(name)
        rep = linearization_test(chart, phi, base, vectors, dt=dt,
                                 tangent_sign=-1.0,
                                 tolerance=_tol(model, overrides,
                                                "geodesic_symmetry"),
                                 exp=fx.exp)
        checks.append(Check(f"geodesic_symmetry[{name}]", rep.passed,
                            rep.max_dev, rep.tolerance, rep.reason))

    identity = SuperMorphism.identity(chart.sig)
    rep = linearization_test(chart, identity, base, vectors, dt=dt,
                             tolerance=_tol(model, overrides,
                                            "identity_linearization"),
                             exp=fx.exp)
    checks.append(Check("identity_linearization", rep.passed, rep.max_dev,
                        rep.tolerance, rep.reason))
    return checks


_SUITE_RUNNERS = {
    "metric": run_metric_suite,
    "geodesic": run_geodesic_suite,
    "flow": run_flow_suite,
    "exp": run_exp_suite,
    "isometry": run_isometry_suite,
}


def run_suites(model: ModelFile, suites=("all",),
               overrides: dict | None = None) -> dict:
    """Run the requested suites; returns a JSON-ready report."""
    wanted = list(SUITES) if "all" in suites else [s for s in SUITES
                                                   if s in suites]
    unknown = set(suites) - set(SUITES) - {"all"}
    if unknown:
        raise ModelError(f"unknown suites {sorted(unknown)}; "
                         f"choose from {('all',) + SUITES}")
    fx = Fixtures(model, wanted)
    report: dict = {"model": model.name, "suites": {}, "passed": True}
    for suite in wanted:
        checks = _SUITE_RUNNERS[suite](fx, overrides)
        report["suites"][suite] = [c.as_dict() for c in checks]
        if not all(c.passed for c in checks):
            report["passed"] = False
    return report
