"""Graded metric charts: validation, pointwise inverse metric, Christoffel
symbols, and reduction to the underlying classical geometry.

All pointwise linear algebra happens over the Grassmann algebra.  The
inverse metric is computed from the numeric body-matrix inverse followed by
a terminating Neumann series in the nilpotent remainder, so the identity
sum_k g^{ik} g_{kj} = delta_ij holds exactly (to floating rounding).
Christoffel symbols are evaluated pointwise:

    Gamma^k_ij = 1/2 sum_l [ d_i g_jl + (-1)^{|i||j|} d_j g_il
                             - (-1)^{|l|(|i|+|j|)} d_l g_ij ] * g^{lk}

with the factor order exactly as written.

Batch convention: the numeric kernel takes states of shape (..., n, 2^L).
Leading axes are a batch of independent points over the kernel's L
generators (for instance the rows of one batched RK4 run); every method maps
them to the same leading axes of its result, and a batch row has the bits of
the same point evaluated alone.
Arrays that do not depend on the point (constant metric entries or
partials) stay unbatched and broadcast, so code indexes from the right:
`...` indexing, negative axes, `swapaxes` and `transpose` with axis tuples
built from each array's own `ndim`.  Diagnostics over many points call the
kernel on the row slices of `_chunks`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Iterator, Mapping, Sequence

import numpy as np

from .errors import InvalidPoint, SingularBody
from .grassmann import _TENSOR_MAX, GrassmannElement, Parity, batched_mul, dim
from .superexpr import (
    ChartSignature,
    Const,
    Expr,
    Program,
    as_expr,
    eval_dense,
    parse_expression,
    partial_derivative,
    substitute,
)


# ---------------------------------------------------------------------------
# points


class SuperPoint:
    """Grassmann values of every chart coordinate, checked by the coordinate
    values rule of `ChartSignature`; a missing coordinate raises
    `InvalidPoint`."""

    __slots__ = ("sig", "L", "values")

    def __init__(self, sig: ChartSignature, L: int,
                 values: Mapping[str, GrassmannElement]):
        missing = set(sig.names) - set(values)
        if missing:
            raise InvalidPoint(f"missing coordinates {sorted(missing)}")
        object.__setattr__(self, "sig", sig)
        object.__setattr__(self, "L", L)
        object.__setattr__(self, "values", sig.graded(L, values, "coordinate"))

    def __setattr__(self, name, value):
        raise AttributeError("SuperPoint is immutable")

    def __reduce__(self):
        return SuperPoint, (self.sig, self.L, self.values)

    @classmethod
    def from_array(cls, sig: ChartSignature, L: int, arr: np.ndarray) -> "SuperPoint":
        return cls(sig, L, sig.unpack(L, arr))

    @classmethod
    def body_point(cls, sig: ChartSignature, L: int, even_values) -> "SuperPoint":
        """Point with real even coordinates and vanishing odd coordinates."""
        if isinstance(even_values, Mapping):
            evens = dict(even_values)
        else:
            evens = dict(zip(sig.even_names, even_values))
        values = {name: GrassmannElement.from_scalar(float(evens[name]), L)
                  for name in sig.even_names}
        values.update({name: GrassmannElement.zero(L) for name in sig.odd_names})
        return cls(sig, L, values)

    def as_array(self) -> np.ndarray:
        return self.sig.pack(self.values)

    def body_even(self) -> np.ndarray:
        return np.array([self.values[name].body for name in self.sig.even_names])

    def __eq__(self, other):
        return (isinstance(other, SuperPoint) and other.sig == self.sig
                and other.L == self.L
                and all(other.values[n] == self.values[n] for n in self.sig.names))

    def __repr__(self):
        inner = ", ".join(f"{n}={v}" for n, v in self.values.items())
        return f"SuperPoint({inner})"


# ---------------------------------------------------------------------------
# the metric chart and its numeric kernel


class MetricChart:
    """A chart of dimension m|n with a graded metric matrix of expressions.

    `entries[i][j]` may be an expression, an expression string, or a number.
    The `domain` maps even coordinate names to open (lo, hi) body intervals;
    nondegeneracy is certified only at visited points, never extrapolated.
    """

    def __init__(self, sig: ChartSignature,
                 entries: Sequence[Sequence[Expr | str | float]],
                 domain: Mapping[str, tuple[float, float]] | None = None,
                 name: str = "metric"):
        self.sig = sig
        self.name = name
        n = sig.dimension
        if len(entries) != n or any(len(row) != n for row in entries):
            raise ValueError(f"metric matrix must be {n}x{n}")
        rows = []
        for row in entries:
            rows.append(tuple(parse_expression(e, sig) if isinstance(e, str)
                              else as_expr(e) for e in row))
        self.entries: tuple[tuple[Expr, ...], ...] = tuple(rows)
        dom: dict[str, tuple[float, float]] = {}
        for name_, box in (domain or {}).items():
            if name_ not in sig.even_names:
                raise ValueError(f"domain bound for non-even coordinate {name_!r}")
            lo, hi = float(box[0]), float(box[1])
            if not lo < hi:
                raise ValueError(f"empty domain for {name_!r}")
            dom[name_] = (lo, hi)
        self.domain = dom
        # the bounded even slots and their bounds, for `outside_domain`
        boxed = [i for i, name_ in enumerate(sig.even_names) if name_ in dom]
        self._box = (np.array(boxed, dtype=int),
                     np.array([dom[sig.even_names[i]][0] for i in boxed]),
                     np.array([dom[sig.even_names[i]][1] for i in boxed]))
        self._dg: tuple | None = None
        self._kernels: dict[int, _Kernel] = {}

    def dg(self) -> tuple:
        """Symbolic partials dg[a][i][j] = d_{q_a} g_ij (cached)."""
        if self._dg is None:
            names = self.sig.names
            self._dg = tuple(
                tuple(tuple(partial_derivative(self.entries[i][j], a, self.sig)
                            for j in range(len(names)))
                      for i in range(len(names)))
                for a in names)
        return self._dg

    def kernel(self, L: int) -> "_Kernel":
        k = self._kernels.get(L)
        if k is None:
            k = _Kernel(self, L)
            self._kernels[L] = k
        return k

    def outside_domain(self, bodies: np.ndarray) -> np.ndarray:
        """Per row of `bodies` (rows, n_even): whether some bounded even
        coordinate is not strictly inside its interval."""
        idx, lo, hi = self._box
        b = bodies[:, idx]
        return ~((lo < b) & (b < hi)).all(axis=1)

    def domain_contains(self, body_even: np.ndarray) -> bool:
        body = np.asarray(body_even, dtype=float).reshape(1, -1)
        return not self.outside_domain(body)[0]

    def check_point(self, p: SuperPoint) -> None:
        if p.sig != self.sig:
            raise InvalidPoint("point signature does not match the chart")
        if not self.domain_contains(p.body_even()):
            raise InvalidPoint(f"body {p.body_even()} outside chart domain")


@lru_cache(maxsize=None)
def _last_axes(ndim: int, order: tuple[int, ...]) -> tuple[int, ...]:
    """Transpose axes that permute the trailing len(order) axes by `order`
    and keep the leading (batch) axes in place."""
    lead = ndim - len(order)
    return tuple(range(lead)) + tuple(lead + o for o in order)


def _chunks(total: int, n: int, D: int) -> Iterator[slice]:
    """Slices of `total` points for batched kernel calls over n coordinates
    and D = 2^L coefficients, sized so that a call's largest temporary, the
    products of the (rows, n, n, n, n) outer product of a Christoffel
    contraction, stays near 256 KB.  A product's temporary is the dense
    (2^L)^2 outer product up to `grassmann._TENSOR_MAX` and the 3^L gathered
    mask pairs above it.  Slicing changes no bits (module docstring)."""
    L = D.bit_length() - 1
    per_product = D * D if L <= _TENSOR_MAX else 3 ** L
    step = max(1, (1 << 18) // (8 * n ** 4 * per_product))
    for start in range(0, total, step):
        yield slice(start, start + step)


class _Kernel:
    """Per-(chart, L) numeric engine working on raw coefficient arrays.

    Positions/velocities are (..., n, 2^L) arrays in signature order; leading
    axes are a batch of independent states (see the module docstring).
    Constant metric entries and constant partials are prebaked, unbatched;
    the non-constant ones, metric entries first, are compiled into one
    `superexpr.Program`, and `fields` fills G and dG from one run of it per
    right-hand side.  What never changes is built here once: the identity
    of the Neumann series, and the inverse metric or the Christoffel bracket
    when they are constant.
    """

    def __init__(self, chart: MetricChart, L: int):
        self.chart = chart
        self.sig = chart.sig
        self.L = L
        self.D = dim(L)
        n = self.sig.dimension
        self.n = n
        par = self.sig.parity_vector()
        self.par = par
        self.s1 = np.where((par[:, None] * par[None, :]) % 2, -1.0, 1.0)
        e2 = par[None, None, :] * (par[:, None, None] + par[None, :, None])
        self.s2 = np.where(e2 % 2, -1.0, 1.0)
        e3 = par[:, None, None] * (par[None, :, None] + par[None, None, :])
        self.s3 = np.where(e3 % 2, -1.0, 1.0)

        # live entries: their index behind any batch axes, and one program
        # for all of their expressions, the metric's first
        live: list[Expr] = []
        self._g_const = np.zeros((n, n, self.D))
        self._g_live: list[tuple] = []
        for i in range(n):
            for j in range(n):
                e = chart.entries[i][j]
                if e.free_vars():
                    self._g_live.append((..., i, j, slice(None)))
                    live.append(e)
                else:
                    self._g_const[i, j] = eval_dense(e, {}, L)
        dg = chart.dg()
        self._dg_const = np.zeros((n, n, n, self.D))
        self._dg_live: list[tuple] = []
        for a in range(n):
            for i in range(n):
                for j in range(n):
                    e = dg[a][i][j]
                    if e.free_vars():
                        self._dg_live.append((..., a, i, j, slice(None)))
                        live.append(e)
                    else:
                        self._dg_const[a, i, j] = eval_dense(e, {}, L)
        self._program = Program(live)
        self.is_flat = not self._dg_live and not self._dg_const.any()
        self._eye = np.zeros((n, n, self.D))  # the identity matrix
        self._eye[np.arange(n), np.arange(n), 0] = 1.0
        self._ginv_const = self.inverse(self._g_const) if not self._g_live else None
        self._bracket_const = (self._make_bracket(self._dg_const)
                               if not self._dg_live else None)
        for arr in (self._g_const, self._dg_const, self._eye):
            arr.flags.writeable = False

    def env(self, pos: np.ndarray) -> dict[str, np.ndarray]:
        return dict(zip(self.sig.names, pos.swapaxes(0, -2)))

    def _eval_live(self, env: Mapping[str, np.ndarray], count: int | None = None):
        """(G, dG) with the live entries filled in from one program run over
        the first `count` live expressions (all by default); an array with
        none of its entries run is its read-only constant."""
        ng = len(self._g_live)
        vals = self._program.run(env, self.L, count) if self._program.code else []
        return (_filled(self._g_const, self._g_live, vals[:ng]),
                _filled(self._dg_const, self._dg_live, vals[ng:]))

    def eval_metric(self, env: Mapping[str, np.ndarray]) -> np.ndarray:
        return self._eval_live(env, len(self._g_live))[0]

    def eval_dmetric(self, env: Mapping[str, np.ndarray]) -> np.ndarray:
        return self._eval_live(env)[1]

    def fields(self, env: Mapping[str, np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
        """(g^{-1}, dG) at the env's points, from one program run."""
        G, dG = self._eval_live(env)
        if self._ginv_const is not None:
            return self._ginv_const, dG
        return self.inverse(G), dG

    def inverse(self, G: np.ndarray) -> np.ndarray:
        """Pointwise inverse metric: body inverse plus Neumann series.

        The series is 1 + sum_{k=1..L} (-N)^k for N = body^-1 G - 1 and
        stops early once a term vanishes; at L = 0 it is 1 even if N keeps a
        rounding residue of the body.  The first term is -N itself: the
        product by the identity is exact and could only flip signed zeros,
        which never reach the sum."""
        body = G[..., 0]
        try:
            body_inv = np.linalg.inv(body)
        except np.linalg.LinAlgError as exc:
            raise SingularBody(f"metric body is singular: {exc}") from exc
        # N = body^-1 G - 1; subtracting the identity's zeros changes no bit
        flat = G.reshape(G.shape[:-2] + (self.n * self.D,))
        N = (body_inv @ flat).reshape(G.shape) - self._eye
        X = self._eye
        if self.L and np.count_nonzero(N):
            term = -N
            X = X + term
            for _ in range(self.L - 1):
                tmp = batched_mul(term[..., :, :, None, :], N[..., None, :, :, :],
                                  self.L)
                term = -tmp.sum(axis=-3)
                if not np.count_nonzero(term):
                    break
                X = X + term
        # right-multiply by the real body inverse
        return (X.swapaxes(-1, -2) @ body_inv[..., None, :, :]).swapaxes(-1, -2)

    def metric_inverse(self, env: Mapping[str, np.ndarray]) -> np.ndarray:
        if self._ginv_const is not None:
            return self._ginv_const
        return self.inverse(self.eval_metric(env))

    def _make_bracket(self, dG: np.ndarray) -> np.ndarray:
        """[i,j,l] = d_i g_jl + (-1)^{|i||j|} d_j g_il
        - (-1)^{|l|(|i|+|j|)} d_l g_ij, the bracket of the Christoffel
        symbols (module docstring), from dG[..., a, i, j] = d_a g_ij."""
        t2 = dG.transpose(_last_axes(dG.ndim, (1, 0, 2, 3)))  # [i,j,l] <- d_j g_il
        t3 = dG.transpose(_last_axes(dG.ndim, (1, 2, 0, 3)))  # [i,j,l] <- d_l g_ij
        return dG + self.s1[:, :, None, None] * t2 - self.s2[:, :, :, None] * t3

    def christoffel(self, env: Mapping[str, np.ndarray]) -> np.ndarray:
        """Christoffel table as a (..., n, n, n, 2^L) array indexed [k, i, j]."""
        if self.is_flat:
            return np.zeros((self.n, self.n, self.n, self.D))
        ginv, dG = self.fields(env)
        bracket = self._bracket_const
        if bracket is None:
            bracket = self._make_bracket(dG)
        tmp = batched_mul(bracket[..., None, :], ginv[..., None, None, :, :, :],
                          self.L)
        gamma = 0.5 * tmp.sum(axis=-3)  # [i,j,k,D]
        return gamma.transpose(_last_axes(gamma.ndim, (2, 0, 1, 3)))

    def dginv(self, ginv: np.ndarray, dG: np.ndarray) -> np.ndarray:
        """Partials of the inverse metric, [a,i,j] = d_a g^{ij}, from the
        inverse metric and dG at the same points (`fields`).

        Obtained by differentiating sum_k g^{ik} g_{kj} = delta_ij:
        d_a g^{ij} = -sum_{k,b} (-1)^{|a|(|i|+|k|)} g^{ik} * d_a(g_kb) * g^{bj}.
        """
        if self.is_flat:
            return np.zeros((self.n, self.n, self.n, self.D))
        tmp = batched_mul(ginv[..., None, :, :, None, :],
                          dG[..., :, None, :, :, :], self.L)
        step1 = (self.s3[:, :, :, None, None] * tmp).sum(axis=-3)  # [a,i,b,D]
        tmp2 = batched_mul(step1[..., :, :, :, None, :],
                           ginv[..., None, None, :, :, :], self.L)
        return -tmp2.sum(axis=-3)


def _filled(const: np.ndarray, live: list[tuple], vals: list) -> np.ndarray:
    """`const` with the value of each live index filled in, batched like
    the values; `const` itself if no value is given."""
    if not vals:
        return const
    rows = ()
    for v in vals:
        if v.ndim > len(rows) + 1:
            rows = v.shape[:-1]
    if rows:
        out = np.empty(rows + const.shape)
        out[...] = const
    else:
        out = const.copy()
    for idx, v in zip(live, vals):
        out[idx] = v
    return out


# ---------------------------------------------------------------------------
# the Christoffel table and public operations


@dataclass
class ChristoffelTable:
    """Pointwise Christoffel symbols Gamma[k][i][j] over the algebra."""

    sig: ChartSignature
    L: int
    values: np.ndarray  # (n, n, n, 2^L), indexed [k, i, j]

    def _index(self, which) -> int:
        return which if isinstance(which, int) else self.sig.index(which)

    def entry(self, k, i, j) -> GrassmannElement:
        return GrassmannElement(
            self.L, self.values[self._index(k), self._index(i), self._index(j)])

    def nonzero(self, tol: float = 0.0):
        names = self.sig.names
        n = len(names)
        for k in range(n):
            for i in range(n):
                for j in range(n):
                    coeffs = self.values[k, i, j]
                    if np.any(np.abs(coeffs) > tol):
                        yield (names[k], names[i], names[j]), \
                            GrassmannElement(self.L, coeffs)


@dataclass
class MetricReport:
    """Result of validating a metric chart at sample points."""

    ok: bool
    first_violation: str | None
    failures: list[str] = field(default_factory=list)


def metric_validate(chart: MetricChart, samples: Sequence[SuperPoint],
                    tol: float = 1e-10) -> MetricReport:
    """Check the graded-metric invariants at the sample points.

    Verifies: even odd-dimension, entry parity |g_ij| = |i|+|j|, graded
    symmetry g_ij = (-1)^{|i||j|} g_ji, and nondegenerate symmetric /
    antisymmetric body blocks.
    """
    failures: list[str] = []
    sig = chart.sig
    n = sig.dimension
    par = sig.parity_vector()

    if sig.n_odd % 2:
        failures.append(f"odd dimension {sig.n_odd} is not even; the "
                        "antisymmetric odd-odd body block would be degenerate")

    for i in range(n):
        for j in range(n):
            e = chart.entries[i][j]
            if isinstance(e, Const) and e.value == 0.0:
                continue
            expected = (par[i] + par[j]) % 2
            p = e.parity()
            if p is Parity.NONHOMOGENEOUS or p.value != expected:
                failures.append(
                    f"entry ({sig.names[i]},{sig.names[j]}) has parity "
                    f"{p.name}, expected {'EVEN' if expected == 0 else 'ODD'}")

    if not failures:
        for p in samples:
            kern = chart.kernel(p.L)
            env = kern.env(p.as_array())
            G = kern.eval_metric(env)
            sym_dev = np.max(np.abs(G - kern.s1[:, :, None] * G.transpose(1, 0, 2)))
            if sym_dev > tol:
                failures.append(
                    f"graded symmetry violated at {p!r} (deviation {sym_dev:.3g})")
                break
            body = G[:, :, 0]
            m = sig.n_even
            bee = body[:m, :m]
            if abs(np.linalg.det(bee)) <= 1e-12:
                failures.append(f"even-even body block degenerate at {p!r}")
                break
            if sig.n_odd:
                boo = body[m:, m:]
                if abs(np.linalg.det(boo)) <= 1e-12:
                    failures.append(f"odd-odd body block degenerate at {p!r}")
                    break

    return MetricReport(ok=not failures,
                        first_violation=failures[0] if failures else None,
                        failures=failures)


def metric_inverse_at(chart: MetricChart, p: SuperPoint) -> list[list[GrassmannElement]]:
    """Inverse metric at a point; sum_k G[i][k]*g_kj(p) = delta_ij exactly."""
    chart.check_point(p)
    kern = chart.kernel(p.L)
    ginv = kern.metric_inverse(kern.env(p.as_array()))
    return [[GrassmannElement(p.L, ginv[i, j]) for j in range(kern.n)]
            for i in range(kern.n)]


def christoffel_at(chart: MetricChart, p: SuperPoint) -> ChristoffelTable:
    """Christoffel symbols of the metric connection at a point."""
    chart.check_point(p)
    kern = chart.kernel(p.L)
    values = kern.christoffel(kern.env(p.as_array()))
    return ChristoffelTable(chart.sig, p.L, values)


# ---------------------------------------------------------------------------
# reduction to the body


class BodyGeometry:
    """The classical geometry underlying a chart: the even-even metric block
    with all odd coordinates and souls set to zero, plus its classical
    Christoffel symbols (computed with the ungraded formula).  One
    `superexpr.Program` holds the m^2 entries, then the m^3 partials; `metric`
    runs its prefix and `fields` all of it."""

    def __init__(self, chart: MetricChart):
        sig = chart.sig
        self.even_names = sig.even_names
        self.domain = dict(chart.domain)
        m = sig.n_even
        self.m = m
        kill_odd = {name: Const(0.0) for name in sig.odd_names}
        self.entries = tuple(
            tuple(substitute(chart.entries[i][j], kill_odd) for j in range(m))
            for i in range(m))
        body_sig = ChartSignature(sig.even_names, ())
        entries = [e for row in self.entries for e in row]
        self._program = Program(entries + [partial_derivative(e, a, body_sig)
                                           for a in sig.even_names
                                           for e in entries])

    def _run(self, x, count: int | None = None) -> np.ndarray:
        env = {name: np.array([float(x[i])])
               for i, name in enumerate(self.even_names)}
        return np.array([v[0] for v in self._program.run(env, 0, count)])

    def metric(self, x) -> np.ndarray:
        return self._run(x, self.m ** 2).reshape(self.m, self.m)

    def fields(self, x) -> tuple[np.ndarray, np.ndarray]:
        """(g^{-1}, dG) at x from one program run; dG[a,i,j] = d_a g_ij."""
        m = self.m
        vals = self._run(x)
        return (np.linalg.inv(vals[:m * m].reshape(m, m)),
                vals[m * m:].reshape(m, m, m))

    def christoffel(self, x) -> np.ndarray:
        """Classical symbols [k,i,j] from the ungraded coordinate formula."""
        ginv, dG = self.fields(x)
        bracket = dG + dG.transpose(1, 0, 2) - dG.transpose(1, 2, 0)
        # bracket[i,j,l] = d_i g_jl + d_j g_il - d_l g_ij
        return 0.5 * np.einsum("ijl,lk->kij", bracket, ginv)


def reduce_body(chart: MetricChart) -> BodyGeometry:
    """Classical metric and Christoffel evaluator on the body."""
    return BodyGeometry(chart)
