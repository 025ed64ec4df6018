"""Exponential map, tangent maps, and isometry verification.

exp_q is realized through the geodesic integrator: shoot the geodesic with
initial position q (a body point, vanishing odd coordinates) and initial
velocity v, and read the position at t = 1.  The equivalence with the
cotangent-flow construction is covered by the round-trip checks.

The Jacobian of exp_q at 0 is assembled numerically: even directions by
central differences of the body output, odd directions by reading the
coefficient linear in a single odd generator.  Nilpotent directions admit no
epsilon limits, so the odd block is extracted exactly, never differenced.

Batching: every check needs several exp values (2m + 1 per Jacobian point,
v and T Phi v for naturality, v and +-v for linearization), and takes them
from an `exp` callable with the signature of `_exp_batch`.  By default that
is `_exp_batch` itself: one batched RK4 run per generator count L on
(rows, n, 2^L) arrays, on the chart's kernel for that L.  `verify` instead
builds an `ExpTable` from the rows of every check it will run (each check's
rows come from one helper, `_jacobian_rows`, `_naturality_rows` or
`_linearization_rows`, which the check calls too), integrates each distinct
row once, and passes the table as `exp`; the suite geodesic rides along as
the one recorded row of the run whose (L, h, steps) it shares (`_shoot`).
There each run is one job of the verify's `jobs.Jobs`, so the runs may go
to forked workers.  Every row keeps the bits of its serial `exp_at`, so a
check reports the same numbers batched, planned or not.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable, Mapping, Sequence

import numpy as np

from .errors import SignatureMismatch
from .geodesics import InitialCondition, Trajectory, _grid, _paper_rhs, \
    _paper_trajectory, _rk4, integrate_geodesic
from .geometry import MetricChart, SuperPoint, _chunks
from .grassmann import GrassmannElement, dim
from .jobs import Jobs
from .superexpr import (
    ChartSignature,
    Const,
    Expr,
    SuperMorphism,
    add,
    eval_dense,
    evaluate,
    mul,
    partial_derivative,
    substitute,
)


# ---------------------------------------------------------------------------
# tangent-fiber data


class TangentFiberPoint:
    """A tangent vector at a body point: real base plus a Grassmann-valued
    component per coordinate, checked by the coordinate values rule of
    `ChartSignature` (a missing component is zero)."""

    __slots__ = ("sig", "L", "base", "vector")

    def __init__(self, sig: ChartSignature, L: int, base,
                 vector: Mapping[str, GrassmannElement]):
        base_arr = np.asarray(base, dtype=float).reshape(-1)
        if base_arr.shape != (sig.n_even,):
            raise ValueError(f"base must have {sig.n_even} components")
        vec = sig.graded(L, vector, "component")
        base_arr.flags.writeable = False
        object.__setattr__(self, "sig", sig)
        object.__setattr__(self, "L", L)
        object.__setattr__(self, "base", base_arr)
        object.__setattr__(self, "vector", vec)

    def __setattr__(self, name, value):
        raise AttributeError("TangentFiberPoint is immutable")

    def __reduce__(self):
        return TangentFiberPoint, (self.sig, self.L, self.base, self.vector)

    def to_initial_condition(self) -> InitialCondition:
        position = SuperPoint.body_point(self.sig, self.L, self.base)
        return InitialCondition(self.L, position, self.vector)

    def scaled(self, factor: float) -> "TangentFiberPoint":
        return TangentFiberPoint(
            self.sig, self.L, self.base,
            {name: factor * v for name, v in self.vector.items()})


class LinearTangentMap:
    """The real Jacobian block matrix of a morphism at a body point.

    matrix[i][j] = body of d_{q_i} Phi*(q_j) at the point; parity forces the
    mixed even/odd blocks to vanish identically.
    """

    __slots__ = ("source", "target", "matrix")

    def __init__(self, source: ChartSignature, target: ChartSignature,
                 matrix: np.ndarray):
        mat = np.asarray(matrix, dtype=float)
        if mat.shape != (source.dimension, target.dimension):
            raise ValueError("matrix shape does not match the signatures")
        ps, pt = source.parity_vector(), target.parity_vector()
        mixed = ps[:, None] != pt[None, :]
        if np.any(mat[mixed] != 0.0):
            raise ValueError("mixed-parity Jacobian entries must vanish")
        mat.flags.writeable = False
        object.__setattr__(self, "source", source)
        object.__setattr__(self, "target", target)
        object.__setattr__(self, "matrix", mat)

    def __setattr__(self, name, value):
        raise AttributeError("LinearTangentMap is immutable")

    def __reduce__(self):
        return LinearTangentMap, (self.source, self.target, self.matrix)

    def apply(self, vector: Mapping[str, GrassmannElement],
              L: int) -> dict[str, GrassmannElement]:
        """w_j = sum_i v_i * matrix[i][j] (real scaling of coefficients)."""
        names_in = self.source.names
        out: dict[str, GrassmannElement] = {}
        for j, name_out in enumerate(self.target.names):
            acc = GrassmannElement.zero(L)
            for i, name_in in enumerate(names_in):
                m = self.matrix[i, j]
                if m != 0.0 and name_in in vector:
                    acc = acc + m * vector[name_in]
            out[name_out] = acc
        return out

    def deviation_from_identity(self, sign: float = 1.0) -> float:
        n = self.matrix.shape[0]
        return float(np.max(np.abs(self.matrix - sign * np.eye(n))))


# ---------------------------------------------------------------------------
# the exponential map


def exp_at(chart: MetricChart, v: TangentFiberPoint, dt: float = 1e-3) -> SuperPoint:
    """exp_q(v): position at t = 1 of the geodesic shot from (q, v)."""
    traj = integrate_geodesic(chart, v.to_initial_condition(), 1.0, dt)
    return traj.position_at(len(traj) - 1)


def _shoot(chart: MetricChart, vectors: Sequence[TangentFiberPoint],
           dt: float, curve: tuple[InitialCondition, float, float] | None = None,
           jobs: Jobs | None = None
           ) -> tuple[list[SuperPoint], Trajectory | None]:
    """exp of each of `vectors` and, given `curve` = (ic, t_end, dt), that
    geodesic as `integrate_geodesic` returns it, in one batched paper-mode
    run per (L, h, steps) among them.  The curve is a row of the run whose
    grid it shares and the only row whose samples are recorded.  Given
    `jobs`, each run is one job of it, all queued before the first is read;
    without, they run here in turn."""
    if any(v.sig != chart.sig for v in vectors):
        raise SignatureMismatch("tangent vector lives on a different chart")
    ics = [v.to_initial_condition() for v in vectors]
    grids = [(v.L, *_grid(1.0, dt)) for v in vectors]
    curve_row = len(vectors)  # the curve's index in ics and grids, if any
    if curve is not None:
        ic, t_end, curve_dt = curve
        if ic.position.sig != chart.sig:
            raise SignatureMismatch("initial condition lives on a different chart")
        ics.append(ic)
        grids.append((ic.L, *_grid(t_end, curve_dt)))

    def run(kern, state, h, steps, record):
        final, samples, _ = _rk4(lambda st: _paper_rhs(kern, st), state, h,
                                 steps, chart, record)
        return final[:, :kern.n], samples

    runs = []
    for grid in sorted(set(grids)):
        L, steps, h = grid
        rows = [r for r, g in enumerate(grids) if g == grid]
        state = np.stack([np.concatenate((ics[r].position.as_array(),
                                          ics[r].velocity_array()))
                          for r in rows])
        record = rows.index(curve_row) if curve_row in rows else None
        runs.append((L, rows, f"the exp run of {len(rows)} rows at L={L}, "
                     f"{steps} steps of {h:g}", steps * (len(rows) * dim(L) + 8),
                     partial(run, chart.kernel(L), state, h, steps, record)))
    if jobs is None:
        results = (fn() for *_, fn in runs)
    else:
        ids = [jobs.add(name, cost, fn) for _, _, name, cost, fn in runs]
        results = map(jobs.result, ids)
    outs: list[SuperPoint | None] = [None] * len(vectors)
    traj = None
    for (L, rows, *_), (final, samples) in zip(runs, results):
        for r, p in zip(rows, final):
            if r != curve_row:
                outs[r] = SuperPoint.from_array(chart.sig, L, p)
        if samples is not None:
            traj = _paper_trajectory(chart, L, t_end, curve_dt, samples)
    return outs, traj


def _exp_batch(chart: MetricChart, vectors: Sequence[TangentFiberPoint],
               dt: float = 1e-3) -> list[SuperPoint]:
    """[exp_at(chart, v, dt) for v in vectors], integrated as one batched RK4
    run per generator count L among them (see the module docstring)."""
    return _shoot(chart, vectors, dt)[0]


ExpFn = Callable[[MetricChart, Sequence[TangentFiberPoint], float],
                 list[SuperPoint]]


def _row_key(v: TangentFiberPoint) -> tuple[int, bytes, bytes]:
    """(L, base bytes, coefficient bytes in signature order): the whole input
    of an exp row; bytes keep -0.0 apart from 0.0."""
    return v.L, v.base.tobytes(), v.sig.pack(v.vector).tobytes()


class ExpTable:
    """exp values of planned rows on one chart and grid, each distinct row
    integrated once, plus an optional recorded geodesic `curve` = (ic,
    t_end, dt) (see `_shoot`).

    Called like `_exp_batch`, it looks the rows up; a row, chart or dt that
    was not planned raises `LookupError`, nothing is integrated on demand.
    Given `jobs`, its runs are jobs of it (`_shoot`).
    """

    def __init__(self, chart: MetricChart, rows: Sequence[TangentFiberPoint],
                 dt: float,
                 curve: tuple[InitialCondition, float, float] | None = None,
                 jobs: Jobs | None = None):
        distinct: dict[tuple, TangentFiberPoint] = {}
        for v in rows:
            distinct.setdefault(_row_key(v), v)
        self.chart, self.dt = chart, dt
        outs, self.curve = _shoot(chart, list(distinct.values()), dt, curve,
                                  jobs)
        self._values = dict(zip(distinct, outs))

    def __call__(self, chart: MetricChart, vectors: Sequence[TangentFiberPoint],
                 dt: float = 1e-3) -> list[SuperPoint]:
        if chart is not self.chart or dt != self.dt:
            raise LookupError("exp rows on another chart or grid were not planned")
        try:
            return [self._values[_row_key(v)] for v in vectors]
        except KeyError:
            raise LookupError("an exp row was not planned") from None


# ---------------------------------------------------------------------------
# tangent maps of morphisms


def tangent_signature(sig: ChartSignature, prefix: str = "v_") -> ChartSignature:
    fiber_even = tuple(prefix + n for n in sig.even_names)
    fiber_odd = tuple(prefix + n for n in sig.odd_names)
    clash = (set(fiber_even) | set(fiber_odd)) & set(sig.names)
    if clash:
        raise ValueError(f"fiber names collide with coordinates: {sorted(clash)}")
    return ChartSignature(sig.even_names + fiber_even, sig.odd_names + fiber_odd)


def tangent_map(phi: SuperMorphism, prefix: str = "v_") -> SuperMorphism:
    """The tangent map on the doubled charts (q_i, v_i):

        (TPhi)*(q_j) = Phi*(q_j)
        (TPhi)*(v_j) = sum_i v_i * d_{q_i} Phi*(q_j)
    """
    src_t = tangent_signature(phi.source, prefix)
    tgt_t = tangent_signature(phi.target, prefix)
    pullbacks: dict[str, Expr] = {}
    for name in phi.target.names:
        pullbacks[name] = phi.pullbacks[name]
        terms = []
        for qi in phi.source.names:
            d = partial_derivative(phi.pullbacks[name], qi, phi.source)
            terms.append(mul(src_t.variable(prefix + qi), d))
        pullbacks[prefix + name] = add(*terms)
    return SuperMorphism(src_t, tgt_t, pullbacks)


def tangent_map_matrix(phi: SuperMorphism, q, prefix: str = "v_") -> np.ndarray:
    """Jacobian blocks read off the symbolic tangent map.

    Evaluates the fiber pullbacks at unit fiber seeds over the body point;
    odd directions are seeded with a single generator and the linear
    coefficient extracted exactly.  Cross-checks numerical_tangent_map.
    """
    tphi = tangent_map(phi, prefix)
    src, tgt = phi.source, phi.target
    mat = np.zeros((src.dimension, tgt.dimension))
    q_arr = np.asarray(q, dtype=float).reshape(-1)
    for i, qi in enumerate(src.names):
        odd_dir = src.parity_of(qi) == 1
        L = 1 if odd_dir else 0
        values: dict[str, GrassmannElement] = {}
        for a, name in enumerate(src.even_names):
            values[name] = GrassmannElement.from_scalar(q_arr[a], L)
        for name in src.odd_names:
            values[name] = GrassmannElement.zero(L)
        for name in src.names:
            if name == qi:
                seed = (GrassmannElement.generator(0, 1) if odd_dir
                        else GrassmannElement.from_scalar(1.0, 0))
            else:
                seed = GrassmannElement.zero(L)
            values[prefix + name] = seed
        for j, qj in enumerate(tgt.names):
            out = evaluate(tphi.pullbacks[prefix + qj], values, L)
            mat[i, j] = out.coeffs[1] if odd_dir else out.body
    return mat


def numerical_tangent_map(phi: SuperMorphism, q) -> LinearTangentMap:
    """Jacobian blocks of the morphism at a body point (odd entries are zero
    automatically: odd superfunctions have vanishing body)."""
    point = SuperPoint.body_point(phi.source, 0, q)
    ns, nt = phi.source.dimension, phi.target.dimension
    mat = np.zeros((ns, nt))
    for i, qi in enumerate(phi.source.names):
        for j, qj in enumerate(phi.target.names):
            d = partial_derivative(phi.pullbacks[qj], qi, phi.source)
            mat[i, j] = evaluate(d, point).body
    return LinearTangentMap(phi.source, phi.target, mat)


def apply_morphism(phi: SuperMorphism, point: SuperPoint) -> SuperPoint:
    """Image coordinates of a Grassmann-valued point under the morphism."""
    return SuperPoint(phi.target, point.L,
                      phi.apply_values(point.values, point.L))


def body_image(phi: SuperMorphism, q) -> np.ndarray:
    """Body image of a body point under the reduced map."""
    point = SuperPoint.body_point(phi.source, 0, q)
    image = apply_morphism(phi, point)
    return image.body_even()


# ---------------------------------------------------------------------------
# Jacobian of exp at 0


@dataclass
class ExpJacobianReport:
    point: np.ndarray
    h: float
    dt: float
    matrix: np.ndarray
    even_dev: float   # even rows vs identity (finite differences)
    odd_dev: float    # odd rows vs identity (exact coefficient extraction)

    def passed(self, tol_even: float = 1e-5, tol_odd: float = 1e-9) -> bool:
        return self.even_dev <= tol_even and self.odd_dev <= tol_odd


def _jacobian_rows(sig: ChartSignature, q: np.ndarray,
                   h: float) -> list[TangentFiberPoint]:
    """The exp arguments of one Jacobian: +h and -h on each even direction
    (L = 0), then one run seeding generator a on odd slot a (L = n_odd)."""
    rows = [TangentFiberPoint(sig, 0, q,
                              {name: GrassmannElement.from_scalar(s * h, 0)})
            for name in sig.even_names for s in (+1.0, -1.0)]
    if sig.n_odd:
        seeds = {odd: GrassmannElement.generator(a, sig.n_odd)
                 for a, odd in enumerate(sig.odd_names)}
        rows.append(TangentFiberPoint(sig, sig.n_odd, q, seeds))
    return rows


def _jacobian_report(sig: ChartSignature, q: np.ndarray, h: float, dt: float,
                     outs: Sequence[SuperPoint]) -> ExpJacobianReport:
    """Assemble the report from exp of the `_jacobian_rows`, in that order."""
    m, n = sig.n_even, sig.n_odd
    dim_total = sig.dimension
    mat = np.zeros((dim_total, dim_total))
    for i in range(m):
        plus, minus = outs[2 * i], outs[2 * i + 1]
        mat[i, :m] = (plus.body_even() - minus.body_even()) / (2.0 * h)
    if n:
        out = outs[2 * m]
        for a in range(n):
            mask = 1 << a
            for b, odd_out in enumerate(sig.odd_names):
                mat[m + a, m + b] = out.values[odd_out].coeffs[mask]
    eye = np.eye(dim_total)
    even_dev = float(np.max(np.abs(mat[:m] - eye[:m]))) if m else 0.0
    odd_dev = float(np.max(np.abs(mat[m:] - eye[m:]))) if n else 0.0
    return ExpJacobianReport(q, h, dt, mat, even_dev, odd_dev)


def exp_jacobian_checks(chart: MetricChart, points, h: float = 1e-4,
                        dt: float = 1e-3,
                        exp: ExpFn | None = None) -> list[ExpJacobianReport]:
    """`exp_jacobian_check` at each body point, with the exp arguments of all
    the points taken from one `exp` call (default `_exp_batch`)."""
    qs = [np.asarray(q, dtype=float).reshape(-1) for q in points]
    rows = [_jacobian_rows(chart.sig, q, h) for q in qs]
    outs = iter((exp or _exp_batch)(chart, [v for r in rows for v in r], dt))
    return [_jacobian_report(chart.sig, q, h, dt, [next(outs) for _ in r])
            for q, r in zip(qs, rows)]


def exp_jacobian_check(chart: MetricChart, q, h: float = 1e-4,
                       dt: float = 1e-3) -> ExpJacobianReport:
    """Numerical linearization of v -> exp_q(v) at v = 0, against identity.

    Even directions: central differences of the body output at +/- h.  Odd
    directions: one combined run seeding a distinct generator on every odd
    slot; the single-generator coefficients isolate the linear response
    exactly (products of two seeded generators land on other masks).  The
    2m + 1 exp values are integrated as one batch.
    """
    return exp_jacobian_checks(chart, [q], h, dt)[0]


# ---------------------------------------------------------------------------
# isometries


@dataclass
class IsometryReport:
    max_dev: float
    tolerance: float
    n_samples: int

    @property
    def passed(self) -> bool:
        return self.max_dev <= self.tolerance


def isometry_check(m_src: MetricChart, m_dst: MetricChart, phi: SuperMorphism,
                   samples: Sequence[SuperPoint],
                   tolerance: float = 1e-8) -> IsometryReport:
    """Coordinate condition for an isometry, evaluated at sample points:

        g^src_ij = sum_{k,l} (-1)^{|q_k|(|q_j|+|q_l|)}
                   d_i Phi*(q_k) * d_j Phi*(q_l) * Phi*(g^dst_kl)
    """
    if phi.source != m_src.sig or phi.target != m_dst.sig:
        raise SignatureMismatch("morphism does not connect the two charts")
    if any(p.sig != m_src.sig for p in samples):
        raise SignatureMismatch("sample point lives on a different chart")
    src, dst = m_src.sig, m_dst.sig
    ps, pt = src.parity_vector(), dst.parity_vector()
    dphi = [[partial_derivative(phi.pullbacks[qk], qi, src)
             for qk in dst.names] for qi in src.names]
    pulled = [[substitute(m_dst.entries[k][l], phi.pullbacks)
               for l in range(dst.dimension)] for k in range(dst.dimension)]

    rhs_exprs: list[list[Expr]] = []
    for i in range(src.dimension):
        row = []
        for j in range(src.dimension):
            terms = []
            for k in range(dst.dimension):
                for l in range(dst.dimension):
                    sign = -1.0 if (pt[k] * (ps[j] + pt[l])) % 2 else 1.0
                    terms.append(mul(Const(sign), dphi[i][k], dphi[j][l],
                                     pulled[k][l]))
            row.append(add(*terms))
        rhs_exprs.append(row)

    dev = 0.0
    for L in sorted({p.L for p in samples}):
        pts = np.stack([p.as_array() for p in samples if p.L == L])
        for c in _chunks(len(pts), src.dimension, dim(L)):
            env = dict(zip(src.names, pts[c].swapaxes(0, -2)))
            for i in range(src.dimension):
                for j in range(src.dimension):
                    lhs = eval_dense(m_src.entries[i][j], env, L)
                    rhs = eval_dense(rhs_exprs[i][j], env, L)
                    dev = max(dev, float(np.max(np.abs(lhs - rhs))))
    return IsometryReport(dev, tolerance, len(samples))


def probe_points(chart: MetricChart, q, L: int,
                 offsets: Sequence[float] = (0.0, 0.09, -0.07)) -> list[SuperPoint]:
    """Deterministic sample points near a body point, with soul content."""
    sig = chart.sig
    q_arr = np.asarray(q, dtype=float).reshape(-1)
    points = []
    for idx, off in enumerate(offsets):
        body = q_arr + off
        if not chart.domain_contains(body):
            continue
        values = {}
        for i, name in enumerate(sig.even_names):
            v = GrassmannElement.from_scalar(body[i], L)
            if L >= 2 and i == 0:
                v = v + GrassmannElement.basis(0b11, L, 0.05 * (idx + 1))
            values[name] = v
        for a, name in enumerate(sig.odd_names):
            if L:
                g = a % L
                values[name] = (0.3 + 0.1 * a) * GrassmannElement.generator(g, L)
            else:
                values[name] = GrassmannElement.zero(L)
        points.append(SuperPoint(sig, L, values))
    return points


# ---------------------------------------------------------------------------
# naturality and faithful linearization


@dataclass
class NaturalityReport:
    isometry_dev: float
    per_vector: list[float]
    tolerance: float

    @property
    def max_dev(self) -> float:
        return max(self.per_vector) if self.per_vector else 0.0

    @property
    def passed(self) -> bool:
        return self.max_dev <= self.tolerance


def _naturality_rows(chart: MetricChart, phi: SuperMorphism, q,
                     vectors: Sequence[TangentFiberPoint]
                     ) -> list[TangentFiberPoint]:
    """The exp arguments of `naturality_check`: the vectors v at q, then
    T_q Phi v at Phi(q)."""
    T = numerical_tangent_map(phi, q)
    q_img = body_image(phi, q)
    return [*vectors, *(TangentFiberPoint(chart.sig, v.L, q_img,
                                          T.apply(v.vector, v.L))
                        for v in vectors)]


def naturality_check(chart: MetricChart, phi: SuperMorphism, q,
                     vectors: Sequence[TangentFiberPoint], dt: float = 1e-3,
                     tolerance: float = 1e-6,
                     isometry_samples: Sequence[SuperPoint] | None = None,
                     require_isometry: bool = True,
                     exp: ExpFn | None = None,
                     isometry: IsometryReport | None = None) -> NaturalityReport:
    """Compare Phi(exp_q(v)) with exp_{Phi(q)}(T_q Phi v) on test vectors.

    With `require_isometry` the morphism must first pass the coordinate
    isometry condition; pass False to measure the deviation of a negative
    control.  The condition is `isometry` if the caller has measured it, or
    is measured here at `isometry_samples`.  The exp values come from `exp`
    (default `_exp_batch`).
    """
    if isometry is None:
        L = vectors[0].L if vectors else 0
        if isometry_samples is None:
            isometry_samples = probe_points(chart, q,
                                            max(L, min(chart.sig.n_odd, 2)))
        isometry = isometry_check(chart, chart, phi, isometry_samples)
    if require_isometry and not isometry.passed:
        raise ValueError("morphism fails the isometry condition "
                         f"(dev {isometry.max_dev:.3g})")
    outs = (exp or _exp_batch)(chart, _naturality_rows(chart, phi, q, vectors),
                               dt)
    devs = [_max_dev(chart.sig, apply_morphism(phi, out), rhs)
            for out, rhs in zip(outs, outs[len(vectors):])]
    return NaturalityReport(isometry.max_dev, devs, tolerance)


def _max_dev(sig: ChartSignature, a: SuperPoint, b: SuperPoint) -> float:
    return max(float(np.max(np.abs(a.values[n].coeffs - b.values[n].coeffs)))
               for n in sig.names)


@dataclass
class LinearizationReport:
    hypotheses_met: bool
    reason: str
    max_dev: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.hypotheses_met and self.max_dev <= self.tolerance


def _linearization_rows(vectors: Sequence[TangentFiberPoint],
                        tangent_sign: float) -> list[TangentFiberPoint]:
    """The exp arguments of `linearization_test`: v, then tangent_sign * v."""
    return [*vectors, *(v.scaled(tangent_sign) for v in vectors)]


def _linearization_gate(chart: MetricChart, phi: SuperMorphism, q,
                        vectors: Sequence[TangentFiberPoint],
                        tangent_sign: float) -> str:
    """Why the hypotheses of `linearization_test` fail, or "" if they hold.
    Gates, in order: the isometry condition, the fixed body point, and
    T_q Phi = tangent_sign * id."""
    L = vectors[0].L if vectors else 0
    samples = probe_points(chart, q, max(L, min(chart.sig.n_odd, 2)))
    iso = isometry_check(chart, chart, phi, samples)
    if not iso.passed:
        return f"isometry condition fails (dev {iso.max_dev:.3g})"
    q_arr = np.asarray(q, dtype=float).reshape(-1)
    if np.max(np.abs(body_image(phi, q_arr) - q_arr)) > 1e-10:
        return "base point is not fixed"
    t_dev = numerical_tangent_map(phi, q_arr).deviation_from_identity(tangent_sign)
    if t_dev > 1e-9:
        return f"tangent map differs from {tangent_sign:+g}*id (dev {t_dev:.3g})"
    return ""


def linearization_test(chart: MetricChart, phi: SuperMorphism, q,
                       vectors: Sequence[TangentFiberPoint], dt: float = 1e-3,
                       tangent_sign: float = 1.0,
                       tolerance: float = 1e-6,
                       exp: ExpFn | None = None,
                       gate: str | None = None) -> LinearizationReport:
    """Computable content of faithful linearization on a single chart.

    Gates first: `gate` if the caller has evaluated `_linearization_gate`
    for these arguments, else that is evaluated here.  With sign +1 the
    check is Phi(exp_q(v)) = exp_q(v); with sign -1 (a candidate geodesic
    symmetry) it is Phi(exp_q(v)) = exp_q(-v).  The exp values come from
    `exp` (default `_exp_batch`).
    """
    reason = (_linearization_gate(chart, phi, q, vectors, tangent_sign)
              if gate is None else gate)
    if reason:
        return LinearizationReport(False, reason, np.inf, tolerance)
    outs = (exp or _exp_batch)(chart, _linearization_rows(vectors, tangent_sign),
                               dt)
    dev = max((_max_dev(chart.sig, apply_morphism(phi, out), rhs)
               for out, rhs in zip(outs, outs[len(vectors):])), default=0.0)
    return LinearizationReport(True, "", dev, tolerance)
