"""Exponential map, tangent maps, and isometry verification.

exp_q is realized through the geodesic integrator: shoot the geodesic with
initial position q (a body point, vanishing odd coordinates) and initial
velocity v, and read the position at t = 1.  The equivalence with the
cotangent-flow construction is covered by the round-trip checks.

The checks measure only: each returns its deviation, a float or a report of
deviations, and takes no tolerance.  `verify` and the CLI judge every one
against the tolerance a run reads through `model.ModelFile.tolerance`.  The
one tolerance used here is that of the gates of a linearization test,
which decide whether it measures at all: `plan_linearization` takes it, and
the standalone `linearization_test` reads `model.TOLERANCES`.

The Jacobian of exp_q at 0 is assembled numerically: even directions by
central differences of the body output, odd directions by reading the
coefficient linear in a single odd generator.  Nilpotent directions admit no
epsilon limits, so the odd block is extracted exactly, never differenced.

Batching: every check needs several exp values (2m + 1 per Jacobian point,
v and T Phi v for naturality, v and +-v for linearization), which only its
builder (`plan_jacobians`, `plan_naturality`, `plan_linearization`) knows:
an `ExpCheck` of the rows and the function that finishes their exp values
into the measurement.  An `ExpTable` integrates each distinct row once, in
one batched RK4 run per (L, t_end, dt) on (rows, 2n, 2^L) arrays
(`_shoot`).  A public check reads a table of its own rows; `verify` one
table of the rows of every check it runs (see there).  Every row keeps the
bits of its serial `exp_at`, so a check reports the same numbers from
either table.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Any, Callable, Mapping, Sequence

import numpy as np

from .errors import SignatureMismatch
from .geodesics import InitialCondition, Trajectory, _paper_rhs, _record, \
    _run, _run_cost, integrate_geodesic
from .geometry import MetricChart, SuperPoint, _chunks
from .grassmann import MAX_GENERATORS, GrassmannElement, _Frozen, dim
from .jobs import Jobs
from .model import TOLERANCES
from .superexpr import (
    ChartSignature,
    Const,
    Expr,
    Program,
    SuperMorphism,
    add,
    mul,
    partial_derivative,
    substitute,
)


# ---------------------------------------------------------------------------
# tangent-fiber data


class TangentFiberPoint(_Frozen):
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
        self._init(sig=sig, L=L, base=base_arr, vector=vec)

    def to_initial_condition(self) -> InitialCondition:
        position = SuperPoint.body_point(self.sig, self.L, self.base)
        return InitialCondition(self.L, position, self.vector)

    def scaled(self, factor: float) -> "TangentFiberPoint":
        return TangentFiberPoint(
            self.sig, self.L, self.base,
            {name: factor * v for name, v in self.vector.items()})


class LinearTangentMap(_Frozen):
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
        self._init(source=source, target=target, matrix=mat)

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


def _exp_run(chart: MetricChart, ics: Sequence[InitialCondition],
             t_end: float, dt: float, record):
    """One batched run of `_shoot`: the final positions, the samples and the
    grid, all that a worker sends back (the unread first stages would double
    the pickled result of the recorded run)."""
    final, samples, _, grid = _run(
        chart, [(ic.position, ic.velocity_array()) for ic in ics],
        _paper_rhs, t_end, dt, record)
    return final[:, :chart.sig.dimension], samples, grid


def _shoot(chart: MetricChart, vectors: Sequence[TangentFiberPoint],
           dt: float, curve: tuple[InitialCondition, float, float] | None = None,
           jobs: Jobs | None = None
           ) -> tuple[list[SuperPoint], Trajectory | None]:
    """exp of each of `vectors` and, given `curve` = (ic, t_end, dt), that
    geodesic as `integrate_geodesic` returns it, in one batched paper-mode
    run (`geodesics._run`) per (L, t_end, dt) among them.  The curve is a
    row of the run whose key it shares and the only row whose samples are
    recorded.  Given `jobs`, each run is one job of it, all queued before
    the first is read; without, they run here in turn."""
    ics = [v.to_initial_condition() for v in vectors]
    keys = [(v.L, 1.0, dt) for v in vectors]
    curve_row = len(vectors)  # the curve's index in ics and keys, if any
    if curve is not None:
        ics.append(curve[0])
        keys.append((curve[0].L, *curve[1:]))
    runs = []
    for key in sorted(set(keys)):
        L, t_end, run_dt = key
        rows = [r for r, k in enumerate(keys) if k == key]
        record = rows.index(curve_row) if curve_row in rows else None
        runs.append((L, rows, f"the exp run of {len(rows)} rows at L={L}, "
                     f"t_end={t_end:g}, dt={run_dt:g}",
                     _run_cost(t_end, run_dt, len(rows) * dim(L)),
                     partial(_exp_run, chart, [ics[r] for r in rows], t_end,
                             run_dt, record)))
    if jobs is None:
        results = (fn() for *_, fn in runs)
    else:
        ids = [jobs.add(name, cost, fn) for _, _, name, cost, fn in runs]
        results = map(jobs.result, ids)
    outs: list[SuperPoint | None] = [None] * len(ics)
    traj = None
    for (L, rows, *_), (final, samples, grid) in zip(runs, results):
        for r, p in zip(rows, final):
            outs[r] = SuperPoint.from_array(chart.sig, L, p)
        if samples is not None:
            traj = _record(Trajectory, chart, L, *curve[1:], grid, samples,
                           mode="paper")
    return outs[:len(vectors)], traj


def _row_key(v: TangentFiberPoint) -> tuple[int, bytes, bytes]:
    """(L, base bytes, coefficient bytes in signature order): the whole input
    of an exp row; bytes keep -0.0 apart from 0.0."""
    return v.L, v.base.tobytes(), v.sig.pack(v.vector).tobytes()


class ExpTable:
    """exp values of planned rows on one chart and grid, each distinct row
    integrated once, plus an optional recorded geodesic `curve` = (ic,
    t_end, dt) (see `_shoot`).

    `table(chart, vectors, dt)` looks the rows up; a row, chart or dt that
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


@dataclass(frozen=True)
class ExpCheck:
    """An exp-map check: the exp rows it reads and `finish`, which turns
    their exp values, in row order, into its measurement."""

    rows: tuple[TangentFiberPoint, ...]
    finish: Callable[[list[SuperPoint]], Any]

    def measure(self, chart: MetricChart, dt: float):
        """The measurement, from one table of the check's own rows."""
        return self.finish(ExpTable(chart, self.rows, dt)(chart, self.rows, dt))


# ---------------------------------------------------------------------------
# tangent maps of morphisms

def fiber_names(sig: ChartSignature) -> dict[str, str]:
    """The fiber coordinate of each coordinate q on the doubled chart: v_q,
    or with the first of the prefixes vv_, vvv_, ... whose names all miss
    the coordinates of `sig`."""
    prefix = "v_"
    while any(prefix + n in sig.names for n in sig.names):
        prefix = "v" + prefix
    return {n: prefix + n for n in sig.names}


def tangent_signature(sig: ChartSignature) -> ChartSignature:
    fiber = fiber_names(sig)
    return ChartSignature(sig.even_names + tuple(map(fiber.get, sig.even_names)),
                          sig.odd_names + tuple(map(fiber.get, sig.odd_names)))


def tangent_map(phi: SuperMorphism) -> SuperMorphism:
    """The tangent map on the doubled charts (q_i, v_i):

        (TPhi)*(q_j) = Phi*(q_j)
        (TPhi)*(v_j) = sum_i v_i * d_{q_i} Phi*(q_j)
    """
    src_t = tangent_signature(phi.source)
    tgt_t = tangent_signature(phi.target)
    src_v, tgt_v = fiber_names(phi.source), fiber_names(phi.target)
    pullbacks: dict[str, Expr] = {}
    for name in phi.target.names:
        pullbacks[name] = phi.pullbacks[name]
        terms = []
        for qi in phi.source.names:
            d = partial_derivative(phi.pullbacks[name], qi, phi.source)
            terms.append(mul(src_t.variable(src_v[qi]), d))
        pullbacks[tgt_v[name]] = add(*terms)
    return SuperMorphism(src_t, tgt_t, pullbacks)


def tangent_map_matrix(phi: SuperMorphism, q) -> np.ndarray:
    """Jacobian blocks read off the symbolic tangent map.

    Runs one program of the fiber pullbacks per unit fiber seed over the
    body point; odd directions are seeded with a single generator and the
    linear coefficient extracted exactly.  Cross-checks numerical_tangent_map.
    """
    tphi = tangent_map(phi)
    src, tgt = phi.source, phi.target
    src_v, tgt_v = fiber_names(src), fiber_names(tgt)
    fibers = Program(tphi.pullbacks[tgt_v[qj]] for qj in tgt.names)
    mat = np.zeros((src.dimension, tgt.dimension))
    q_arr = np.asarray(q, dtype=float).reshape(-1)
    for i, qi in enumerate(src.names):
        odd_dir = src.parity_of(qi) == 1
        L = 1 if odd_dir else 0
        values = dict(SuperPoint.body_point(src, L, q_arr).values)
        values.update({v: GrassmannElement.zero(L) for v in src_v.values()})
        values[src_v[qi]] = (GrassmannElement.generator(0, 1) if odd_dir
                             else GrassmannElement.from_scalar(1.0, 0))
        mat[i] = [out.coeffs[1] if odd_dir else out.body
                  for out in fibers.evaluate(values, L)]
    return mat


def numerical_tangent_map(phi: SuperMorphism, q) -> LinearTangentMap:
    """Jacobian blocks of the morphism at a body point from one program run
    (odd entries are zero: odd superfunctions have vanishing body)."""
    src, tgt = phi.source, phi.target
    point = SuperPoint.body_point(src, 0, q)
    partials = Program(partial_derivative(phi.pullbacks[qj], qi, src)
                       for qi in src.names for qj in tgt.names)
    bodies = [d.body for d in partials.evaluate(point, 0)]
    return LinearTangentMap(src, tgt, np.reshape(
        bodies, (src.dimension, tgt.dimension)))


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


def _jacobian_reports(sig: ChartSignature, qs: Sequence[np.ndarray],
                      h: float, dt: float, outs: Sequence[SuperPoint]
                      ) -> list[ExpJacobianReport]:
    """One report per body point of `qs`, from exp of the `_jacobian_rows`
    of each, in that order."""
    m, n = sig.n_even, sig.n_odd
    eye = np.eye(sig.dimension)
    outs = iter(outs)
    reports = []
    for q in qs:
        mat = np.zeros_like(eye)
        for i in range(m):
            plus, minus = next(outs), next(outs)
            mat[i, :m] = (plus.body_even() - minus.body_even()) / (2.0 * h)
        if n:
            out = next(outs)
            for a in range(n):
                for b, odd_out in enumerate(sig.odd_names):
                    mat[m + a, m + b] = out.values[odd_out].coeffs[1 << a]
        even_dev = float(np.max(np.abs(mat[:m] - eye[:m]))) if m else 0.0
        odd_dev = float(np.max(np.abs(mat[m:] - eye[m:]))) if n else 0.0
        reports.append(ExpJacobianReport(q, h, dt, mat, even_dev, odd_dev))
    return reports


def plan_jacobians(chart: MetricChart, points, h: float, dt: float) -> ExpCheck:
    """The check of `exp_jacobian_checks`: the `_jacobian_rows` of each
    body point, finished into one report per point."""
    qs = [np.asarray(q, dtype=float).reshape(-1) for q in points]
    return ExpCheck(tuple(v for q in qs for v in _jacobian_rows(chart.sig, q, h)),
                    partial(_jacobian_reports, chart.sig, qs, h, dt))


def exp_jacobian_checks(chart: MetricChart, points, h: float = 1e-4,
                        dt: float = 1e-3) -> list[ExpJacobianReport]:
    """`exp_jacobian_check` at each body point, from one table of the rows
    of all the points."""
    return plan_jacobians(chart, points, h, dt).measure(chart, dt)


def exp_jacobian_check(chart: MetricChart, q, h: float = 1e-4,
                       dt: float = 1e-3) -> ExpJacobianReport:
    """Numerical linearization of v -> exp_q(v) at v = 0, against identity.

    Even directions: central differences of the body output at +/- h.  Odd
    directions: one combined run seeding a distinct generator on every odd
    slot; the single-generator coefficients isolate the linear response
    exactly (products of two seeded generators land on other masks).
    """
    return exp_jacobian_checks(chart, [q], h, dt)[0]


# ---------------------------------------------------------------------------
# isometries


def isometry_check(m_src: MetricChart, m_dst: MetricChart, phi: SuperMorphism,
                   samples: Sequence[SuperPoint]) -> float:
    """The largest deviation from the coordinate condition for an isometry
    over the sample points:

        g^src_ij = sum_{k,l} (-1)^{|q_k|(|q_j|+|q_l|)}
                   d_i Phi*(q_k) * d_j Phi*(q_l) * Phi*(g^dst_kl)

    The two sides of every (i, j), in row order, are one program, run once
    per chunk of samples (`geometry._chunks`).
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

    sides: list[Expr] = []  # g^src_ij, then its right-hand side
    for i in range(src.dimension):
        for j in range(src.dimension):
            terms = []
            for k in range(dst.dimension):
                for l in range(dst.dimension):
                    sign = -1.0 if (pt[k] * (ps[j] + pt[l])) % 2 else 1.0
                    terms.append(mul(Const(sign), dphi[i][k], dphi[j][l],
                                     pulled[k][l]))
            sides += [m_src.entries[i][j], add(*terms)]
    program = Program(sides)

    dev = 0.0
    for L in sorted({p.L for p in samples}):
        pts = np.stack([p.as_array() for p in samples if p.L == L])
        for c in _chunks(len(pts), src.dimension, dim(L)):
            vals = program.run(dict(zip(src.names, pts[c].swapaxes(0, -2))), L)
            for lhs, rhs in zip(vals[::2], vals[1::2]):
                dev = max(dev, float(np.max(np.abs(lhs - rhs))))
    return dev


_PROBE_OFFSETS = (0.0, 0.09, -0.07)  # body offsets from the body point


def probe_points(chart: MetricChart, q, L: int) -> list[SuperPoint]:
    """Deterministic sample points near a body point, with soul content, that
    probe the isometry condition for exp rows over L generators: over
    max(L, n_odd) generators, at most `MAX_GENERATORS`, so that odd
    coordinate a gets generator a of its own and a metric term in a product
    of two odd coordinates, zero where they share a generator, is seen."""
    sig = chart.sig
    L = min(max(L, sig.n_odd), MAX_GENERATORS)
    q_arr = np.asarray(q, dtype=float).reshape(-1)
    points = []
    for idx, off in enumerate(_PROBE_OFFSETS):
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
            values[name] = ((0.3 + 0.1 * a) * GrassmannElement.generator(a % L, L)
                            if L else GrassmannElement.zero(L))
        points.append(SuperPoint(sig, L, values))
    return points


# ---------------------------------------------------------------------------
# naturality and faithful linearization


def plan_naturality(chart: MetricChart, phi: SuperMorphism, q,
                    vectors: Sequence[TangentFiberPoint]) -> ExpCheck:
    """The check of `naturality_check`: the rows v at q, then T_q Phi v at
    Phi(q), finished into the deviation."""
    T = numerical_tangent_map(phi, q)
    q_img = body_image(phi, q)
    return ExpCheck((*vectors, *(TangentFiberPoint(chart.sig, v.L, q_img,
                                                   T.apply(v.vector, v.L))
                                 for v in vectors)),
                    partial(_image_dev, chart.sig, phi, count=len(vectors)))


def naturality_check(chart: MetricChart, phi: SuperMorphism, q,
                     vectors: Sequence[TangentFiberPoint],
                     dt: float = 1e-3) -> float:
    """The largest deviation of Phi(exp_q(v)) from exp_{Phi(q)}(T_q Phi v)
    over the test vectors.

    A measurement only: naturality presumes an isometry, and whether Phi is
    one is decided by `isometry_check`.
    """
    return plan_naturality(chart, phi, q, vectors).measure(chart, dt)


def _image_dev(sig: ChartSignature, phi: SuperMorphism,
               outs: Sequence[SuperPoint], count: int) -> float:
    """max over i < count of the deviation of Phi(outs[i]) from outs[count + i]."""
    return max((max(float(np.max(np.abs(a.values[n].coeffs - b.values[n].coeffs)))
                    for n in sig.names)
                for a, b in zip(map(partial(apply_morphism, phi), outs[:count]),
                                outs[count:])), default=0.0)


@dataclass
class LinearizationReport:
    hypotheses_met: bool
    reason: str
    max_dev: float  # inf when the hypotheses fail


def plan_linearization(chart: MetricChart, phi: SuperMorphism, q,
                       vectors: Sequence[TangentFiberPoint],
                       tangent_sign: float, tolerance: float) -> ExpCheck:
    """The check of `linearization_test`, its gates decided here, in order:
    the isometry condition (within `tolerance`), the fixed body point, and
    T_q Phi = tangent_sign * id.  If one fails, the check reads no rows and
    reports why; else its rows are v, then tangent_sign * v."""
    def failed(reason: str) -> ExpCheck:
        return ExpCheck((), lambda _: LinearizationReport(False, reason, np.inf))

    samples = probe_points(chart, q, vectors[0].L if vectors else 0)
    iso_dev = isometry_check(chart, chart, phi, samples)
    if not iso_dev <= tolerance:
        return failed(f"isometry condition fails (dev {iso_dev:.3g})")
    q_arr = np.asarray(q, dtype=float).reshape(-1)
    if np.max(np.abs(body_image(phi, q_arr) - q_arr)) > 1e-10:
        return failed("base point is not fixed")
    t_dev = numerical_tangent_map(phi, q_arr).deviation_from_identity(tangent_sign)
    if t_dev > 1e-9:
        return failed(f"tangent map differs from {tangent_sign:+g}*id "
                      f"(dev {t_dev:.3g})")
    dev = partial(_image_dev, chart.sig, phi, count=len(vectors))
    return ExpCheck((*vectors, *(v.scaled(tangent_sign) for v in vectors)),
                    lambda outs: LinearizationReport(True, "", dev(outs)))


def linearization_test(chart: MetricChart, phi: SuperMorphism, q,
                       vectors: Sequence[TangentFiberPoint], dt: float = 1e-3,
                       tangent_sign: float = 1.0) -> LinearizationReport:
    """Computable content of faithful linearization on a single chart.

    Gates first (`plan_linearization`), at the isometry tolerance of
    `TOLERANCES`.  With sign +1 the check is Phi(exp_q(v)) = exp_q(v); with
    sign -1 (a candidate geodesic symmetry) it is Phi(exp_q(v)) = exp_q(-v).
    """
    return plan_linearization(chart, phi, q, vectors, tangent_sign,
                              TOLERANCES["isometry_condition"]
                              ).measure(chart, dt)
