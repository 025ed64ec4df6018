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
v and T Phi v for naturality, v and +-v for linearization).  `_exp_batch`
groups them by generator count L and integrates each group as the rows of
one RK4 run on (rows, n, 2^L) arrays, on the chart's kernel for that L.
Every row keeps the bits of its serial `exp_at`, so a check reports the
same numbers batched or not.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .errors import MismatchedGeneratorCount, ParityViolation, SignatureMismatch
from .geodesics import InitialCondition, _acceleration, _grid, _rk4, \
    integrate_geodesic
from .geometry import MetricChart, SuperPoint
from .grassmann import GrassmannElement, Parity
from .superexpr import (
    ChartSignature,
    Const,
    Expr,
    SuperMorphism,
    add,
    evaluate,
    mul,
    partial_derivative,
    substitute,
)


# ---------------------------------------------------------------------------
# tangent-fiber data


class TangentFiberPoint:
    """A tangent vector at a body point: real base plus a Grassmann-valued,
    parity-matching component per coordinate."""

    __slots__ = ("sig", "L", "base", "vector")

    def __init__(self, sig: ChartSignature, L: int, base,
                 vector: Mapping[str, GrassmannElement]):
        base_arr = np.asarray(base, dtype=float).reshape(-1)
        if base_arr.shape != (sig.n_even,):
            raise ValueError(f"base must have {sig.n_even} components")
        vec: dict[str, GrassmannElement] = {}
        for name in sig.names:
            v = vector.get(name, GrassmannElement.zero(L))
            if v.L != L:
                raise MismatchedGeneratorCount(f"component {name}: L={v.L}")
            want = Parity.EVEN if sig.parity_of(name) == 0 else Parity.ODD
            if not v.has_parity(want):
                raise ParityViolation(f"component {name} must be {want.name.lower()}")
            vec[name] = v
        base_arr.flags.writeable = False
        object.__setattr__(self, "sig", sig)
        object.__setattr__(self, "L", L)
        object.__setattr__(self, "base", base_arr)
        object.__setattr__(self, "vector", vec)

    def __setattr__(self, name, value):
        raise AttributeError("TangentFiberPoint is immutable")

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


def _exp_batch(chart: MetricChart, vectors: Sequence[TangentFiberPoint],
               dt: float = 1e-3) -> list[SuperPoint]:
    """[exp_at(chart, v, dt) for v in vectors], integrated as one batched RK4
    run per generator count L among them (see the module docstring)."""
    if any(v.sig != chart.sig for v in vectors):
        raise SignatureMismatch("tangent vector lives on a different chart")
    steps, h = _grid(1.0, dt)
    out: list[SuperPoint | None] = [None] * len(vectors)
    for L in sorted({v.L for v in vectors}):
        rows = [r for r, v in enumerate(vectors) if v.L == L]
        ics = [vectors[r].to_initial_condition() for r in rows]
        kern = chart.kernel(L)
        pos = np.stack([ic.position.as_array() for ic in ics])
        vel = np.stack([ic.velocity_array() for ic in ics])
        run = _rk4(lambda st: (st[1], _acceleration(kern, *st)), (pos, vel),
                   h, steps, chart)
        for (pos, _), _ in run:
            pass
        for r, p in zip(rows, pos):
            out[r] = SuperPoint.from_array(chart.sig, L, p)
    return out


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
                        dt: float = 1e-3) -> list[ExpJacobianReport]:
    """`exp_jacobian_check` at each body point, with the exp arguments of all
    the points integrated as one batch."""
    qs = [np.asarray(q, dtype=float).reshape(-1) for q in points]
    rows = [_jacobian_rows(chart.sig, q, h) for q in qs]
    outs = iter(_exp_batch(chart, [v for r in rows for v in r], dt))
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
    for p in samples:
        for i in range(src.dimension):
            for j in range(src.dimension):
                lhs = evaluate(m_src.entries[i][j], p)
                rhs = evaluate(rhs_exprs[i][j], p, p.L)
                dev = max(dev, float(np.max(np.abs(lhs.coeffs - rhs.coeffs))))
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


def naturality_check(chart: MetricChart, phi: SuperMorphism, q,
                     vectors: Sequence[TangentFiberPoint], dt: float = 1e-3,
                     tolerance: float = 1e-6,
                     isometry_samples: Sequence[SuperPoint] | None = None,
                     require_isometry: bool = True) -> NaturalityReport:
    """Compare Phi(exp_q(v)) with exp_{Phi(q)}(T_q Phi v) on test vectors.

    With `require_isometry` the morphism must first pass the coordinate
    isometry condition; pass False to measure the deviation of a negative
    control.
    """
    L = vectors[0].L if vectors else 0
    if isometry_samples is None:
        isometry_samples = probe_points(chart, q, max(L, min(chart.sig.n_odd, 2)))
    iso = isometry_check(chart, chart, phi, isometry_samples)
    if require_isometry and not iso.passed:
        raise ValueError(
            f"morphism fails the isometry condition (dev {iso.max_dev:.3g})")
    T = numerical_tangent_map(phi, q)
    q_img = body_image(phi, q)
    mapped = [TangentFiberPoint(chart.sig, v.L, q_img, T.apply(v.vector, v.L))
              for v in vectors]
    outs = _exp_batch(chart, [*vectors, *mapped], dt)
    devs = [_max_dev(chart.sig, apply_morphism(phi, out), rhs)
            for out, rhs in zip(outs, outs[len(vectors):])]
    return NaturalityReport(iso.max_dev, devs, tolerance)


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


def linearization_test(chart: MetricChart, phi: SuperMorphism, q,
                       vectors: Sequence[TangentFiberPoint], dt: float = 1e-3,
                       tangent_sign: float = 1.0,
                       tolerance: float = 1e-6) -> LinearizationReport:
    """Computable content of faithful linearization on a single chart.

    Gates, in order: the isometry condition, the fixed body point, and
    T_q Phi = tangent_sign * id.  With sign +1 the check is
    Phi(exp_q(v)) = exp_q(v); with sign -1 (a candidate geodesic symmetry)
    it is Phi(exp_q(v)) = exp_q(-v).
    """
    L = vectors[0].L if vectors else 0
    samples = probe_points(chart, q, max(L, min(chart.sig.n_odd, 2)))
    iso = isometry_check(chart, chart, phi, samples)
    if not iso.passed:
        return LinearizationReport(False, f"isometry condition fails "
                                   f"(dev {iso.max_dev:.3g})", np.inf, tolerance)
    q_arr = np.asarray(q, dtype=float).reshape(-1)
    q_img = body_image(phi, q_arr)
    if np.max(np.abs(q_img - q_arr)) > 1e-10:
        return LinearizationReport(False, "base point is not fixed",
                                   np.inf, tolerance)
    T = numerical_tangent_map(phi, q_arr)
    t_dev = T.deviation_from_identity(tangent_sign)
    if t_dev > 1e-9:
        return LinearizationReport(
            False, f"tangent map differs from {tangent_sign:+g}*id "
            f"(dev {t_dev:.3g})", np.inf, tolerance)
    outs = _exp_batch(chart, [*vectors, *(v.scaled(tangent_sign) for v in vectors)],
                      dt)
    dev = max((_max_dev(chart.sig, apply_morphism(phi, out), rhs)
               for out, rhs in zip(outs, outs[len(vectors):])), default=0.0)
    return LinearizationReport(True, "", dev, tolerance)
