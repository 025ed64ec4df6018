"""Verification suites: machine-checkable invariants of a loaded model.

Each suite returns a list of named checks with a measured deviation and a
tolerance; `cmd_verify` serializes them as JSON.

The library checks only measure; one judge decides pass or fail.  Every
tolerance-bounded check is made by `Fixtures.bounded`, which reads the
tolerance of the check's name up to any "[" through `ModelFile.tolerance`:
the run's override, else the model's, else `model.TOLERANCES`.  Only
`metric_invariants` (which also fails on a structural violation),
`negative_control[..]` (which must fail) and `determinism` (which must be
bitwise) build their `Check` by hand.

The default base point is the middle of the chart's window of half-width 1
(`MetricChart.window`), the random points lie in that of half-width 2.

The classical oracles of the body-reduction checks, the geodesic equation
of the reduced metric and the classical cotangent system, step through one
plain real RK4 loop (`_real_rk4`) and read `BodyGeometry`: no graded
kernel, product or stepper, so they stay independent of the integrators
they certify.

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
use, `Fixtures.checks` builds once each exp check the requested suites
will measure (`expmap.ExpCheck`), deciding every gate on the way: the
isometry conditions pick whose naturality is measured, and a linearization
test whose gates fail reads no rows.  `Fixtures.exp` integrates each
distinct row of those checks once, in one batched paper-mode run per
(L, t_end, dt), with the suite geodesic of the geodesic and flow suites as
the one recorded row of the run it shares (`expmap.ExpTable`).  Each suite
measures its checks from that table (`Fixtures.measure`).

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
    ExpCheck,
    ExpTable,
    TangentFiberPoint,
    isometry_check,
    numerical_tangent_map,
    plan_jacobians,
    plan_linearization,
    plan_naturality,
    probe_points,
    tangent_map_matrix,
)
from .geodesics import (
    InitialCondition,
    Trajectory,
    _grid,
    _run_cost,
    _sample_array,
    _sample_times,
    covariant_derivative_t,
    integrate_geodesic,
    metric_speed,
)
from .geometry import BodyGeometry, MetricChart, SuperPoint, _chunks, \
    _last_axes, metric_validate, reduce_body
from .grassmann import GrassmannElement, batched_mul, dim, mask_parity
from .jobs import Jobs
from .model import ModelFile, _finite, _name, _section, decoded, \
    grassmann_value
from .superexpr import ChartSignature, SuperMorphism

SUITES = ("metric", "geodesic", "flow", "exp", "isometry")

# finite-difference step of the even rows of the exp Jacobian
_JACOBIAN_H = 1e-4
_METRIC_POINTS = 100  # random points of the metric suite
_SOUL_SCALE = 0.2  # the scale of their even soul coefficients


@dataclass
class Check:
    name: str
    passed: bool
    max_deviation: float
    tolerance: float
    details: str = ""

    def as_dict(self) -> dict:
        return {"name": self.name, "passed": bool(self.passed),
                # strict JSON: a deviation that is not finite is written null
                "max_deviation": (float(self.max_deviation)
                                  if np.isfinite(self.max_deviation) else None),
                "tolerance": float(self.tolerance), "details": self.details}


def _determinism(*pairs: tuple[np.ndarray, np.ndarray]) -> Check:
    """The determinism check of a re-run: it passes when every (run, re-run)
    pair of arrays is bitwise identical, whatever the tolerances, and its
    deviation is the largest absolute difference over all of them."""
    return Check("determinism", all(np.array_equal(a, b) for a, b in pairs),
                 max(float(np.max(np.abs(a - b))) for a, b in pairs), 0.0,
                 "bitwise-identical re-run")


def _seed(model: ModelFile, salt: str = "") -> int:
    return zlib.crc32((model.name + salt).encode())


def random_superpoint(chart: MetricChart, L: int,
                      rng: np.random.Generator) -> SuperPoint:
    """A parity-correct random point with body in the chart's window."""
    sig = chart.sig
    mpar = mask_parity(L)
    even_masks = np.nonzero(mpar == 0)[0][1:]
    odd_masks = np.nonzero(mpar == 1)[0]
    values: dict[str, GrassmannElement] = {}
    for name in sig.even_names:
        lo, hi = chart.window(name, 2.0)
        pad = 0.05 * (hi - lo)
        arr = np.zeros(dim(L))
        arr[0] = rng.uniform(lo + pad, hi - pad)
        if len(even_masks):
            arr[even_masks] = _SOUL_SCALE * rng.uniform(-1.0, 1.0, len(even_masks))
        values[name] = GrassmannElement(L, arr)
    for name in sig.odd_names:
        arr = np.zeros(dim(L))
        if len(odd_masks):
            arr[odd_masks] = 0.5 * rng.uniform(-1.0, 1.0, len(odd_masks))
        values[name] = GrassmannElement(L, arr)
    return SuperPoint(sig, L, values)


def _body_point(chart: MetricChart, value, key: str) -> np.ndarray:
    """`value` as a body point of `chart`, a list of numbers of the model
    rule (`model._finite`), or a `ModelError` naming `key`."""
    try:
        q = np.array([_finite(v, key) for v in value]
                     if isinstance(value, list) else [])
    except ModelError:
        q = np.empty(0)
    if q.shape != (chart.sig.n_even,) or not chart.domain_contains(q):
        raise ModelError(f"{key} {value!r} is not a body point: it needs "
                         f"{chart.sig.n_even} finite coordinates strictly "
                         "inside the chart domain")
    return q


def vector_from_spec(raw, sig: ChartSignature, L: int, base,
                     where: str = "vector") -> TangentFiberPoint:
    """Decode a tangent-vector spec {coord: grassmann value} at a body point."""
    if not isinstance(raw, dict):
        raise ModelError(f"{where}: expected an object, got {raw!r}")
    vec = {n: grassmann_value(v, L, f"{where}.{n}") for n, v in raw.items()}
    return decoded(where, TangentFiberPoint, sig, L, base, vec)


class Fixtures:
    """A model's verify fixtures for the `suites` that will run under the
    tolerance `overrides`, decoded before any suite runs (a bad one raises
    `ModelError`); the body geometry, the gates, the exp checks (`checks`)
    and the planned integrations (`runs`, `exp`, `geodesic`) are built on
    first use and shared by every suite.  The integrations are jobs of
    `jobs` (module docstring)."""

    def __init__(self, model: ModelFile, suites=SUITES,
                 overrides: dict | None = None):
        cfg, sig, chart = model.verify_config, model.sig, model.chart
        self.model, self.chart = model, chart
        self.suites = frozenset(suites)
        self.overrides = overrides or {}
        self.jobs = Jobs()
        name = _name(cfg.get("ic", ""), "verify.ic")
        self.ic: InitialCondition | None = (
            model.initial_condition(name) if name
            else next(iter(model.initial_conditions.values()), None))
        self.dt, self.t_end = model.defaults["dt"], model.defaults["t_end"]
        # a point the model leaves out has a default, named as such
        key = {k: f"verify.{k}" if k in cfg else f"the default verify.{k}"
               for k in ("base_point", "exp_points")}
        self.base = _body_point(chart, cfg.get("base_point", [
            sum(chart.window(n, 1.0)) / 2.0 for n in sig.even_names]),
            key["base_point"])
        lists = {k: _section(cfg, k, "verify", list) for k in (
            "exp_points", "vectors", "isometries", "negative_controls",
            "point_symmetries")}
        if "exp_points" not in cfg:
            lists["exp_points"] = [(self.base + off).tolist()
                                   for off in (-0.2, -0.1, 0.0, 0.1, 0.2)]
        self.exp_points = [_body_point(chart, p, f"{key['exp_points']}[{i}]")
                           for i, p in enumerate(lists["exp_points"])]
        self.L = max(model.L, 1) if sig.n_odd else model.L
        self.vectors = [vector_from_spec(v, sig, self.L, self.base,
                                         f"verify.vectors[{i}]")
                        for i, v in enumerate(lists["vectors"])]
        self.isometries, self.negative_controls, self.point_symmetries = (
            [_name(v, f"verify.{k}[{i}]") for i, v in enumerate(lists[k])]
            for k in ("isometries", "negative_controls", "point_symmetries"))

    def tol(self, key: str) -> float:
        return self.model.tolerance(key, self.overrides)

    def bounded(self, name: str, dev: float, details: str = "") -> Check:
        """The check `name`: it passes when `dev` is within the tolerance
        of the name up to any "[" (a deviation of nan or inf fails)."""
        tol = self.tol(name.partition("[")[0])
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
    def isometry(self) -> dict[str, Check]:
        """The isometry condition check of every morphism listed under
        `isometries` or `negative_controls`, probed for the rows' `L` around
        the base point; the gate of its naturality check."""
        probes = probe_points(self.chart, self.base, self.L)
        return {name: self.bounded(
                    f"isometry_condition[{name}]",
                    isometry_check(self.chart, self.chart,
                                   self.model.morphism(name), probes))
                for name in (*self.isometries, *self.negative_controls)}

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
        # a flow step costs about 1.5 geodesic steps, a classical one 6
        steps = t_end / dt if dt > 0 else 0.0
        graded = _run_cost(t_end, dt, dim(ic.L))

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
    def checks(self) -> dict[str, ExpCheck]:
        """The exp check of each measurement the planned suites read:
        "exp_identity", the Jacobians at the exp points, "naturality[name]"
        per `_naturality_names`, and each linearization test by check name."""
        chart, base, vectors = self.chart, self.base, self.vectors
        checks: dict[str, ExpCheck] = {}
        if "exp" in self.suites:
            checks["exp_identity"] = plan_jacobians(chart, self.exp_points,
                                                    _JACOBIAN_H, self.dt)
        if "isometry" in self.suites:
            natural, controls = _naturality_names(self)
            for name in [*natural, *controls]:
                checks[f"naturality[{name}]"] = plan_naturality(
                    chart, self.model.morphism(name), base, vectors)
            tol = self.tol("isometry_condition")
            for name, phi, sign in _linearizations(self):
                checks[name] = plan_linearization(chart, phi, base, vectors,
                                                  sign, tol)
        return checks

    @cached_property
    def exp(self) -> ExpTable:
        """The rows of every check and, for the geodesic and flow suites,
        the suite geodesic, integrated once (module docstring)."""
        rows = [v for check in self.checks.values() for v in check.rows]
        curve = ((self.run_ic(), self.t_end, self.dt)
                 if self.suites & {"geodesic", "flow"} else None)
        self.runs  # queued first, so that one dispatch starts every job
        return ExpTable(self.chart, rows, self.dt, curve, self.jobs)

    def measure(self, name: str):
        """The measurement of the planned check `name`, read from `exp`."""
        check = self.checks[name]
        return check.finish(self.exp(self.chart, check.rows, self.dt))

    @property
    def geodesic(self) -> Trajectory:
        if self.exp.curve is None:
            raise LookupError("the suite geodesic was not planned")
        return self.exp.curve


def _naturality_names(fx: Fixtures) -> tuple[list[str], list[str]]:
    """(isometries, negative controls) whose naturality `run_isometry_suite`
    measures: none without vectors to shoot, and an isometry only if it
    passes its condition, which naturality presumes."""
    if not fx.vectors:
        return [], []
    return ([name for name in fx.isometries if fx.isometry[name].passed],
            fx.negative_controls)


def _linearizations(fx: Fixtures):
    """(check, morphism, sign) of each linearization test."""
    for name in fx.point_symmetries:
        yield f"geodesic_symmetry[{name}]", fx.model.morphism(name), -1.0
    yield "identity_linearization", SuperMorphism.identity(fx.chart.sig), 1.0


# ---------------------------------------------------------------------------
# classical oracles (independent code paths on the reduced geometry)


def _real_rk4(rhs, x0, v0, t_end: float,
              dt: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Plain real RK4 for y' = rhs(y) from y = (x0, v0) on the grid of
    (t_end, dt): the sample times and both halves of y at each of them."""
    shape = (len(x0) + len(v0),)
    steps, h = _grid(t_end, dt, shape)
    ys = _sample_array(steps + 1, shape)
    ys[0] = y = np.concatenate((x0, v0)).astype(float)
    for s in range(steps):
        k1 = rhs(y)
        k2 = rhs(y + 0.5 * h * k1)
        k3 = rhs(y + 0.5 * h * k2)
        k4 = rhs(y + h * k3)
        y = y + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        ys[s + 1] = y
    return _sample_times(steps, h), ys[:, :len(x0)], ys[:, len(x0):]


def classical_geodesic(body: BodyGeometry, x0, v0, t_end: float,
                       dt: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Plain real RK4 for the classical geodesic equation on the body."""
    m = body.m

    def rhs(y):
        x, v = y[:m], y[m:]
        return np.concatenate(
            (v, -np.einsum("kij,i,j->k", body.christoffel(x), v, v)))

    return _real_rk4(rhs, x0, v0, t_end, dt)


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

    return _real_rk4(rhs, x0, p0, t_end, dt)


# ---------------------------------------------------------------------------
# suites


def run_metric_suite(fx: Fixtures) -> list[Check]:
    model, chart = fx.model, fx.chart
    L = model.L
    rng = np.random.default_rng(_seed(model, "metric"))
    samples = [random_superpoint(chart, L, rng) for _ in range(8)]
    checks: list[Check] = []

    tol = fx.tol("metric_invariants")
    report = metric_validate(chart, samples, tol)
    checks.append(Check("metric_invariants", report.ok, report.max_deviation,
                        tol, report.first_violation or ""))
    if not report.ok:
        return checks

    kern = chart.kernel(L)
    par = chart.sig.parity_vector()
    # the masks of the wrong parity for Gamma^k_ij, |Gamma^k_ij| = |i|+|j|+|k|
    wrong = mask_parity(L) != (par[:, None, None, None] + par[:, None, None]
                               + par[:, None]) % 2
    sym_dev = par_dev = compat_dev = 0.0
    pts = np.stack([random_superpoint(chart, L, rng).as_array()
                    for _ in range(_METRIC_POINTS)])
    for c in _chunks(_METRIC_POINTS, kern.n, kern.D):
        G, dG = kern._eval_live(pts[c])
        gamma = kern.christoffel(pts[c])
        # graded symmetry Gamma^k_ij = (-1)^{|i||j|} Gamma^k_ji
        sym = gamma - kern.s1[:, :, None] * gamma.swapaxes(-3, -2)
        sym_dev = max(sym_dev, float(np.max(np.abs(sym))))
        if wrong.any():
            par_dev = max(par_dev, float(np.max(np.abs(gamma[..., wrong]))))
        # metric compatibility (oracle in the module docstring)
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
                             f"{_METRIC_POINTS} random points"))

    beta_dev = 0.0
    m = chart.sig.n_even
    for q in fx.exp_points:
        p0 = SuperPoint.body_point(chart.sig, 0, q)
        gamma0 = chart.kernel(0).christoffel(p0.as_array())
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
    checks.append(_determinism((traj.positions, again.positions),
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
    checks.append(_determinism((flow.positions, again.positions),
                               (flow.momenta, again.momenta)))
    return checks


def run_exp_suite(fx: Fixtures) -> list[Check]:
    checks: list[Check] = []
    even_dev = odd_dev = 0.0
    for rep in fx.measure("exp_identity"):
        even_dev = max(even_dev, rep.even_dev)
        odd_dev = max(odd_dev, rep.odd_dev)
    checks.append(fx.bounded("exp_identity_even", even_dev,
                             f"{len(fx.exp_points)} body points, h=1e-4"))
    checks.append(fx.bounded("exp_identity_odd", odd_dev,
                             "exact coefficient extraction"))

    agree_dev = 0.0
    for name, phi in fx.model.morphisms.items():
        sym = tangent_map_matrix(phi, fx.base)
        num = numerical_tangent_map(phi, fx.base).matrix
        agree_dev = max(agree_dev, float(np.max(np.abs(sym - num))))
    checks.append(fx.bounded("tangent_map_agreement", agree_dev,
                             "symbolic tangent map vs numerical Jacobian"))
    return checks


def run_isometry_suite(fx: Fixtures) -> list[Check]:
    natural, controls = _naturality_names(fx)
    devs = {name: fx.measure(f"naturality[{name}]")
            for name in [*natural, *controls]}
    neg_min = fx.tol("negative_control_min")
    checks: list[Check] = []

    for name in fx.isometries:
        checks.append(fx.isometry[name])
        if name in natural:
            checks.append(fx.bounded(f"naturality[{name}]", devs[name]))

    for name in fx.negative_controls:
        iso, dev = fx.isometry[name], devs.get(name, 0.0)
        ok = (not iso.passed) and (not fx.vectors or dev > neg_min)
        checks.append(Check(f"negative_control[{name}]", ok, dev, neg_min,
                            f"isometry condition dev {iso.max_deviation:.3g}; "
                            "naturality deviation must exceed tolerance"))

    for name, _, _ in _linearizations(fx):
        rep = fx.measure(name)
        checks.append(fx.bounded(name, rep.max_dev, rep.reason))
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
