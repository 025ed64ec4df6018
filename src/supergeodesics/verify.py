"""Verification suites: machine-checkable invariants of a loaded model.

Each suite returns a list of named checks with a measured deviation and a
tolerance; `cmd_verify` serializes them as JSON.  The classical oracles of
the body-reduction checks, the geodesic equation of the reduced metric and
the classical cotangent system, step through one plain real RK4 loop
(`_real_rk4`) and read `BodyGeometry`: no graded kernel, product or stepper,
so they stay independent of the integrators they certify.

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
use, `Fixtures.exp` decides every gate (the isometry conditions and the
linearization gates, each evaluated once and handed to its check) and
lists every exp row the requested suites will read: the Jacobian rows of
the exp suite, and the naturality and linearization rows of the isometry
suite whose gates pass.  For the geodesic and flow suites it adds the suite
geodesic.  It integrates each distinct row once, in one batched paper-mode
run per (L, h, steps), with the suite geodesic as the one recorded row of
the run whose grid it shares (`expmap.ExpTable`).  The checks read their
exp values from that table.

Every integration of the plan is a job of `Fixtures.jobs` (`jobs.Jobs`):
each run of the table, and (`Fixtures.runs`) the geodesic's determinism
re-run, the suite flow and its re-run, and the two classical oracles.  The
jobs are independent, so they run in forked workers when more than one CPU
is available.  `Fixtures.exp` queues the `runs` before the table's own, so
when the table is read first, as under `--suite all`, one dispatch starts
every job.  The parent keeps the planning, every check and the report.
The suites read each result in the serial order, so the first failure
raised is the one the serial program reaches first.  With one CPU the jobs
run inline, each at its first read: the serial program.
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
    IsometryReport,
    TangentFiberPoint,
    _jacobian_rows,
    _linearization_gate,
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
from .jobs import Jobs
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


def _determinism(fx: Fixtures, *pairs: tuple[np.ndarray, np.ndarray]) -> Check:
    """The determinism check of a re-run: it passes when every (run, re-run)
    pair of arrays is bitwise identical, and its deviation is the largest
    absolute difference over all of them."""
    return Check("determinism", all(np.array_equal(a, b) for a, b in pairs),
                 max(float(np.max(np.abs(a - b))) for a, b in pairs),
                 fx.tol("determinism"), "bitwise-identical re-run")


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


def _body_point(chart: MetricChart, value, key: str) -> np.ndarray:
    """`value` as a body point of `chart`, or a `ModelError` naming `key`."""
    try:
        q = np.asarray(value, dtype=float)
    except (TypeError, ValueError):
        q = np.empty(0)
    if (q.shape != (chart.sig.n_even,) or not np.isfinite(q).all()
            or not chart.domain_contains(q)):
        raise ModelError(f"{key} {value!r} is not a body point: it needs "
                         f"{chart.sig.n_even} finite coordinates strictly "
                         "inside the chart domain")
    return q


class Fixtures:
    """A model's verify fixtures for the `suites` that will run under the
    tolerance `overrides`, decoded before any suite runs (a bad one raises
    `ModelError`); the body geometry, the gates and the planned integrations
    (`runs`, `exp`, `geodesic`) are built on first use and shared by every
    suite.  The integrations are jobs of `jobs` (module docstring)."""

    def __init__(self, model: ModelFile, suites=SUITES,
                 overrides: dict | None = None):
        cfg, sig, chart = model.verify_config, model.sig, model.chart
        self.model, self.chart = model, chart
        self.suites = frozenset(suites)
        self.overrides = overrides or {}
        self.jobs = Jobs()
        name = cfg.get("ic")
        self.ic: InitialCondition | None = (
            model.initial_condition(name) if name
            else next(iter(model.initial_conditions.values()), None))
        self.dt, self.t_end = model.defaults["dt"], model.defaults["t_end"]
        # a point the model leaves out has a default, named as such
        key = {k: f"verify.{k}" if k in cfg else f"the default verify.{k}"
               for k in ("base_point", "exp_points")}
        boxes = [chart.domain.get(n, (-1.0, 1.0)) for n in sig.even_names]
        self.base = _body_point(chart, cfg.get("base_point", [
            (max(lo, -1.0) + min(hi, 1.0)) / 2.0 for lo, hi in boxes]),
            key["base_point"])
        offsets = (-0.2, -0.1, 0.0, 0.1, 0.2)
        self.exp_points = [
            _body_point(chart, p, f"{key['exp_points']}[{i}]")
            for i, p in enumerate(cfg.get("exp_points", [
                (self.base + off).tolist() for off in offsets]))]
        L = max(model.L, 1) if sig.n_odd else model.L
        self.vectors = [vector_from_spec(v, sig, L, self.base,
                                         f"verify.vectors[{i}]")
                        for i, v in enumerate(cfg.get("vectors", []))]

    def tol(self, key: str) -> float:
        return self.overrides.get(key, self.model.tolerances.get(
            key, TOLERANCES[key]))

    def bounded(self, name: str, dev: float, details: str = "") -> Check:
        """The check `name`: it passes when `dev` is within its tolerance."""
        tol = self.tol(name)
        return Check(name, dev <= tol, dev, tol, details)

    def run_ic(self) -> InitialCondition:
        if self.ic is None:
            raise ModelError(f"model {self.model.name!r} has no initial "
                             "condition to verify")
        return self.ic

    @cached_property
    def body(self) -> BodyGeometry:
        return reduce_body(self.chart)

    @cached_property
    def isometry(self) -> dict[str, IsometryReport]:
        """The isometry condition of every morphism listed under
        `isometries` or `negative_controls`, at probe points around the base
        point; the gate of its naturality check."""
        cfg = self.model.verify_config
        L = self.vectors[0].L if self.vectors else max(self.model.L, 1)
        probes = probe_points(self.chart, self.base, L)
        return {name: isometry_check(self.chart, self.chart,
                                     self.model.morphism(name), probes,
                                     tolerance=self.tol("isometry_condition"))
                for name in (*cfg.get("isometries", []),
                             *cfg.get("negative_controls", []))}

    @cached_property
    def linearization_gates(self) -> dict[str, str]:
        """Why the hypotheses of each linearization test fail, or "" if
        they hold (`expmap._linearization_gate`), by check name."""
        return {name: _linearization_gate(self.chart, phi, self.base,
                                          self.vectors, sign)
                for name, _, phi, sign in _linearizations(self)}

    @cached_property
    def runs(self) -> dict[str, int]:
        """The jobs of the integrations the geodesic and flow suites read
        besides the suite geodesic, queued on first use (module
        docstring)."""
        chart, jobs, t_end, dt = self.chart, self.jobs, self.t_end, self.dt
        runs: dict[str, int] = {}
        if not self.suites & {"geodesic", "flow"}:
            return runs
        ic = self.run_ic()
        m = chart.sig.n_even
        # relative costs, per step: coefficients of the graded state plus 8
        # for the calls around them; a flow right-hand side costs about 1.5
        # of a geodesic one, a classical one about 6
        steps = t_end / dt if dt > 0 else 0.0
        graded = steps * (dim(ic.L) + 8)

        def flow():
            return integrate_flow(chart, phase_from_ic(chart, ic), t_end, dt)

        def body_geodesic():
            pos, vel = ic.position.as_array(), ic.velocity_array()
            return classical_geodesic(self.body, pos[:m, 0], vel[:m, 0],
                                      t_end, dt)

        def body_flow():
            I = phase_from_ic(chart, ic)
            return classical_cotangent_flow(
                self.body, I.position.as_array()[:m, 0],
                I.momentum_array()[:m, 0], t_end, dt)

        if "geodesic" in self.suites:
            runs["body_geodesic"] = jobs.add(
                "the classical geodesic", 6 * steps, body_geodesic)
            runs["geodesic_again"] = jobs.add(
                "the geodesic's determinism re-run", graded,
                lambda: integrate_geodesic(chart, ic, t_end, dt))
        if "flow" in self.suites:
            runs["flow"] = jobs.add("the suite flow", 1.5 * graded, flow)
            runs["body_flow"] = jobs.add(
                "the classical cotangent flow", 6 * steps, body_flow)
            runs["flow_again"] = jobs.add(
                "the flow's determinism re-run", 1.5 * graded, flow)
        return runs

    def run(self, name: str):
        """The result of the planned integration `name` (`runs`)."""
        return self.jobs.result(self.runs[name])

    @cached_property
    def exp(self) -> ExpTable:
        """Every exp row the planned suites will read, and the suite
        geodesic if the geodesic or flow suite is planned, integrated once
        (module docstring)."""
        rows: list[TangentFiberPoint] = []
        if "exp" in self.suites:
            for q in self.exp_points:
                rows += _jacobian_rows(self.chart.sig, q, _JACOBIAN_H)
        if "isometry" in self.suites:
            rows += _isometry_rows(self)
        curve = ((self.run_ic(), self.t_end, self.dt)
                 if self.suites & {"geodesic", "flow"} else None)
        self.runs  # queued first, so that one dispatch starts every job
        return ExpTable(self.chart, rows, self.dt, curve, self.jobs)

    @property
    def geodesic(self) -> Trajectory:
        if self.exp.curve is None:
            raise LookupError("the suite geodesic was not planned")
        return self.exp.curve


def _naturality_names(fx: Fixtures) -> tuple[list[str], list[str]]:
    """(isometries, negative controls) whose naturality `run_isometry_suite`
    measures: none without vectors to shoot, and an isometry only if it
    passes its condition, which naturality presumes."""
    cfg = fx.model.verify_config
    if not fx.vectors:
        return [], []
    return ([name for name in cfg.get("isometries", [])
             if fx.isometry[name].passed], cfg.get("negative_controls", []))


def _linearizations(fx: Fixtures):
    """(check, tolerance key, morphism, sign) of each linearization test."""
    for name in fx.model.verify_config.get("point_symmetries", []):
        yield (f"geodesic_symmetry[{name}]", "geodesic_symmetry",
               fx.model.morphism(name), -1.0)
    yield ("identity_linearization", "identity_linearization",
           SuperMorphism.identity(fx.chart.sig), 1.0)


def _isometry_rows(fx: Fixtures) -> list[TangentFiberPoint]:
    """The exp rows `run_isometry_suite` reads: those of each check whose
    gates, shared with the check, pass."""
    rows: list[TangentFiberPoint] = []
    natural, controls = _naturality_names(fx)
    for name in [*natural, *controls]:
        rows += _naturality_rows(fx.chart, fx.model.morphism(name), fx.base,
                                 fx.vectors)
    for name, _, _, sign in _linearizations(fx):
        if not fx.linearization_gates[name]:
            rows += _linearization_rows(fx.vectors, sign)
    return rows


# ---------------------------------------------------------------------------
# classical oracles (independent code paths on the reduced geometry)


def _real_rk4(rhs, y0: np.ndarray, t_end: float,
              dt: float) -> tuple[np.ndarray, np.ndarray]:
    """Plain real RK4 for y' = rhs(y) on the grid of (t_end, dt): the
    sample times and the state at each of them."""
    steps = max(1, round(t_end / dt))
    h = t_end / steps
    ys = np.empty((steps + 1, len(y0)))
    ys[0] = y = y0
    for s in range(steps):
        k1 = rhs(y)
        k2 = rhs(y + 0.5 * h * k1)
        k3 = rhs(y + 0.5 * h * k2)
        k4 = rhs(y + h * k3)
        y = y + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        ys[s + 1] = y
    return np.arange(steps + 1) * h, ys


def classical_geodesic(body: BodyGeometry, x0, v0, t_end: float,
                       dt: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Plain real RK4 for the classical geodesic equation on the body."""
    m = body.m

    def rhs(y):
        x, v = y[:m], y[m:]
        return np.concatenate(
            (v, -np.einsum("kij,i,j->k", body.christoffel(x), v, v)))

    ts, ys = _real_rk4(rhs, np.concatenate((x0, v0)).astype(float), t_end, dt)
    return ts, ys[:, :m], ys[:, m:]


def classical_cotangent_flow(body: BodyGeometry, x0, p0, t_end: float,
                             dt: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Plain real RK4 for the classical cotangent geodesic flow:
    dq/dt = g^{-1} p, dp_i/dt = -1/2 p^T (d_i g^{-1}) p."""
    m = body.m

    def rhs(y):
        q, p = y[:m], y[m:]
        ginv, dG = body.fields(q)
        dginv = -np.einsum("ik,akl,lj->aij", ginv, dG, ginv)
        return np.concatenate(
            (ginv @ p, -0.5 * np.einsum("k,akj,j->a", p, dginv, p)))

    ts, ys = _real_rk4(rhs, np.concatenate((x0, p0)).astype(float), t_end, dt)
    return ts, ys[:, :m], ys[:, m:]


# ---------------------------------------------------------------------------
# suites


def run_metric_suite(fx: Fixtures, n_points: int = 100) -> list[Check]:
    model, chart = fx.model, fx.chart
    L = model.L
    rng = np.random.default_rng(_seed(model, "metric"))
    samples = [random_superpoint(chart, L, rng) for _ in range(8)]
    checks: list[Check] = []

    report = metric_validate(chart, samples, tol=fx.tol("metric_invariants"))
    checks.append(Check("metric_invariants", report.ok, 0.0,
                        fx.tol("metric_invariants"),
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

    checks.append(fx.bounded("christoffel_symmetry", sym_dev))
    checks.append(fx.bounded("christoffel_parity", par_dev))
    checks.append(fx.bounded("metric_compatibility", compat_dev,
                             f"{n_points} random points"))

    beta_dev = 0.0
    m = chart.sig.n_even
    for q in fx.exp_points:
        p0 = SuperPoint.body_point(chart.sig, 0, q)
        gamma0 = chart.kernel(0).christoffel(chart.kernel(0).env(p0.as_array()))
        beta_dev = max(beta_dev, float(np.max(np.abs(
            gamma0[:m, :m, :m, 0] - fx.body.christoffel(q)))))
    checks.append(fx.bounded("beta_compatibility", beta_dev))
    return checks


def run_geodesic_suite(fx: Fixtures) -> list[Check]:
    chart = fx.chart
    checks: list[Check] = []

    traj = fx.geodesic

    resid = covariant_derivative_t(chart, traj, traj.velocities)
    resid_dev = float(np.max(np.abs(resid)))
    checks.append(fx.bounded("geodesic_residual", resid_dev))

    speed = metric_speed(chart, traj)
    drift = float(np.max(np.abs(speed - speed[0])))
    checks.append(fx.bounded("speed_drift", drift))

    m = chart.sig.n_even
    _, xs, _ = fx.run("body_geodesic")
    body_dev = float(np.max(np.abs(traj.positions[:, :m, 0] - xs)))
    checks.append(fx.bounded("body_reduction", body_dev,
                             "vs independent classical integrator"))

    again = fx.run("geodesic_again")
    checks.append(_determinism(fx, (traj.positions, again.positions),
                               (traj.velocities, again.velocities)))
    return checks


def run_flow_suite(fx: Fixtures) -> list[Check]:
    chart = fx.chart
    checks: list[Check] = []

    flow = fx.run("flow")

    H = energy_series(chart, flow)
    drift = float(np.max(np.abs(H - H[0])))
    checks.append(fx.bounded("energy_drift", drift))

    pv = parity_violation_max(flow)
    checks.append(fx.bounded("parity_preservation", pv, "exact zero check"))

    rt = roundtrip_check(chart, fx.geodesic, flow)
    checks.append(fx.bounded("roundtrip", rt.max_dev,
                             f"flow->geodesic {rt.flow_to_geodesic_dev:.3g}, "
                             f"geodesic->flow {rt.geodesic_to_flow_dev:.3g}, "
                             f"initial velocity {rt.initial_velocity_dev:.3g}"))

    m = chart.sig.n_even
    _, qs, ps = fx.run("body_flow")
    dev = max(float(np.max(np.abs(flow.positions[:, :m, 0] - qs))),
              float(np.max(np.abs(flow.momenta[:, :m, 0] - ps))))
    checks.append(fx.bounded("flow_body_reduction", dev,
                             "vs independent classical cotangent flow"))

    again = fx.run("flow_again")
    checks.append(_determinism(fx, (flow.positions, again.positions),
                               (flow.momenta, again.momenta)))
    return checks


def run_exp_suite(fx: Fixtures) -> list[Check]:
    model, chart = fx.model, fx.chart
    checks: list[Check] = []
    even_dev = 0.0
    odd_dev = 0.0
    for rep in exp_jacobian_checks(chart, fx.exp_points, h=_JACOBIAN_H,
                                   dt=fx.dt, exp=fx.exp):
        even_dev = max(even_dev, rep.even_dev)
        odd_dev = max(odd_dev, rep.odd_dev)
    checks.append(fx.bounded("exp_identity_even", even_dev,
                             f"{len(fx.exp_points)} body points, h=1e-4"))
    checks.append(fx.bounded("exp_identity_odd", odd_dev,
                             "exact coefficient extraction"))

    agree_dev = 0.0
    for name, phi in model.morphisms.items():
        sym = tangent_map_matrix(phi, fx.base)
        num = numerical_tangent_map(phi, fx.base).matrix
        agree_dev = max(agree_dev, float(np.max(np.abs(sym - num))))
    checks.append(fx.bounded("tangent_map_agreement", agree_dev,
                             "symbolic tangent map vs numerical Jacobian"))
    return checks


def run_isometry_suite(fx: Fixtures) -> list[Check]:
    cfg = fx.model.verify_config
    natural, controls = _naturality_names(fx)
    # the isometries among them have passed their condition already
    devs = {name: naturality_check(fx.chart, fx.model.morphism(name), fx.base,
                                   fx.vectors, dt=fx.dt, require_isometry=False,
                                   exp=fx.exp, isometry=fx.isometry[name]
                                   ).max_dev
            for name in [*natural, *controls]}
    nat_tol, neg_min = fx.tol("naturality"), fx.tol("negative_control_min")
    checks: list[Check] = []

    for name in cfg.get("isometries", []):
        iso = fx.isometry[name]
        checks.append(Check(f"isometry_condition[{name}]", iso.passed,
                            iso.max_dev, iso.tolerance))
        if name in natural:
            checks.append(Check(f"naturality[{name}]", devs[name] <= nat_tol,
                                devs[name], nat_tol))

    for name in cfg.get("negative_controls", []):
        iso, dev = fx.isometry[name], devs.get(name, 0.0)
        ok = (not iso.passed) and (not fx.vectors or dev > neg_min)
        checks.append(Check(f"negative_control[{name}]", ok, dev, neg_min,
                            f"isometry condition dev {iso.max_dev:.3g}; "
                            "naturality deviation must exceed tolerance"))

    for name, key, phi, sign in _linearizations(fx):
        rep = linearization_test(fx.chart, phi, fx.base, fx.vectors, dt=fx.dt,
                                 tangent_sign=sign, tolerance=fx.tol(key),
                                 exp=fx.exp, gate=fx.linearization_gates[name])
        checks.append(Check(name, rep.passed, rep.max_dev, rep.tolerance,
                            rep.reason))
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
    fx = Fixtures(model, wanted, overrides)
    report: dict = {"model": model.name, "suites": {}, "passed": True}
    with fx.jobs:
        for suite in wanted:
            checks = _SUITE_RUNNERS[suite](fx)
            report["suites"][suite] = [c.as_dict() for c in checks]
            if not all(c.passed for c in checks):
                report["passed"] = False
    return report
