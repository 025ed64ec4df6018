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
built from each array's own `ndim`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Mapping, Sequence

import numpy as np

from .errors import (
    InvalidPoint,
    MismatchedGeneratorCount,
    ParityViolation,
    SingularBody,
)
from .grassmann import GrassmannElement, Parity, batched_mul, dim
from .superexpr import (
    ChartSignature,
    Const,
    Expr,
    as_expr,
    eval_dense,
    parse_expression,
    partial_derivative,
    substitute,
)


# ---------------------------------------------------------------------------
# points


class SuperPoint:
    """Parity-respecting assignment of Grassmann values to chart coordinates."""

    __slots__ = ("sig", "L", "values")

    def __init__(self, sig: ChartSignature, L: int,
                 values: Mapping[str, GrassmannElement]):
        missing = set(sig.names) - set(values)
        if missing:
            raise InvalidPoint(f"missing coordinates {sorted(missing)}")
        extra = set(values) - set(sig.names)
        if extra:
            raise InvalidPoint(f"unknown coordinates {sorted(extra)}")
        vals: dict[str, GrassmannElement] = {}
        for name in sig.names:
            v = values[name]
            if v.L != L:
                raise MismatchedGeneratorCount(f"{name}: L={v.L}, expected {L}")
            want = Parity.EVEN if sig.parity_of(name) == 0 else Parity.ODD
            if not v.has_parity(want):
                raise ParityViolation(
                    f"coordinate {name} needs a {want.name.lower()} value, "
                    f"got parity {v.parity.name}")
            vals[name] = v
        object.__setattr__(self, "sig", sig)
        object.__setattr__(self, "L", L)
        object.__setattr__(self, "values", vals)

    def __setattr__(self, name, value):
        raise AttributeError("SuperPoint is immutable")

    @classmethod
    def from_array(cls, sig: ChartSignature, L: int, arr: np.ndarray) -> "SuperPoint":
        return cls(sig, L, {name: GrassmannElement(L, arr[i])
                            for i, name in enumerate(sig.names)})

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
        return np.stack([self.values[name].coeffs for name in self.sig.names])

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

    def domain_contains(self, body_even: np.ndarray) -> bool:
        for i, name in enumerate(self.sig.even_names):
            box = self.domain.get(name)
            if box is not None and not box[0] < body_even[i] < box[1]:
                return False
        return True

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


class _Kernel:
    """Per-(chart, L) numeric engine working on raw coefficient arrays.

    Positions/velocities are (..., n, 2^L) arrays in signature order; leading
    axes are a batch of independent states (see the module docstring).
    Constant metric entries and constant partials are prebaked, unbatched;
    only the non-constant expressions are re-evaluated per point.
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

        # live entries as (index behind any batch axes, expression)
        self._g_const = np.zeros((n, n, self.D))
        self._g_live: list[tuple[tuple, Expr]] = []
        for i in range(n):
            for j in range(n):
                e = chart.entries[i][j]
                if e.free_vars():
                    self._g_live.append(((..., i, j, slice(None)), e))
                else:
                    self._g_const[i, j] = eval_dense(e, {}, L)
        dg = chart.dg()
        self._dg_const = np.zeros((n, n, n, self.D))
        self._dg_live: list[tuple[tuple, Expr]] = []
        for a in range(n):
            for i in range(n):
                for j in range(n):
                    e = dg[a][i][j]
                    if e.free_vars():
                        self._dg_live.append(((..., a, i, j, slice(None)), e))
                    else:
                        self._dg_const[a, i, j] = eval_dense(e, {}, L)
        self.is_flat = not self._dg_live and not self._dg_const.any()
        self._ginv_const = self.inverse(self._g_const) if not self._g_live else None
        for arr in (self._g_const, self._dg_const):
            arr.flags.writeable = False

    def env(self, pos: np.ndarray) -> dict[str, np.ndarray]:
        return dict(zip(self.sig.names, pos.swapaxes(0, -2)))

    def _eval_live(self, const: np.ndarray, live, env) -> np.ndarray:
        """`const` with the live entries filled in, batched like the env."""
        vals = [eval_dense(e, env, self.L) for _, e in live]
        rows = ()
        for v in vals:
            if v.ndim > len(rows) + 1:
                rows = v.shape[:-1]
        if rows:
            out = np.empty(rows + const.shape)
            out[...] = const
        else:
            out = const.copy()
        for (idx, _), v in zip(live, vals):
            out[idx] = v
        return out

    def eval_metric(self, env: Mapping[str, np.ndarray]) -> np.ndarray:
        if not self._g_live:
            return self._g_const
        return self._eval_live(self._g_const, self._g_live, env)

    def eval_dmetric(self, env: Mapping[str, np.ndarray]) -> np.ndarray:
        if not self._dg_live:
            return self._dg_const
        return self._eval_live(self._dg_const, self._dg_live, env)

    def inverse(self, G: np.ndarray) -> np.ndarray:
        """Pointwise inverse metric: body inverse plus Neumann series."""
        body = G[..., 0]
        try:
            body_inv = np.linalg.inv(body)
        except np.linalg.LinAlgError as exc:
            raise SingularBody(f"metric body is singular: {exc}") from exc
        n, D = self.n, self.D
        rows = G.shape[:-3]
        diag = (Ellipsis, np.arange(n), np.arange(n), 0)
        N = (body_inv @ G.reshape(rows + (n, n * D))).reshape(G.shape)
        N[diag] -= 1.0
        X = np.zeros(G.shape)
        X[diag] = 1.0
        if N.any():
            term = X
            for _ in range(self.L):
                tmp = batched_mul(term[..., :, :, None, :], N[..., None, :, :, :],
                                  self.L)
                term = -tmp.sum(axis=-3)
                if not term.any():
                    break
                X = X + term
        # right-multiply by the real body inverse
        return (X.swapaxes(-1, -2) @ body_inv[..., None, :, :]).swapaxes(-1, -2)

    def metric_inverse(self, env: Mapping[str, np.ndarray]) -> np.ndarray:
        if self._ginv_const is not None:
            return self._ginv_const
        return self.inverse(self.eval_metric(env))

    def christoffel(self, env: Mapping[str, np.ndarray],
                    ginv: np.ndarray | None = None) -> np.ndarray:
        """Christoffel table as a (..., n, n, n, 2^L) array indexed [k, i, j]."""
        if self.is_flat:
            return np.zeros((self.n, self.n, self.n, self.D))
        if ginv is None:
            ginv = self.metric_inverse(env)
        dG = self.eval_dmetric(env)
        t2 = dG.transpose(_last_axes(dG.ndim, (1, 0, 2, 3)))  # [i,j,l] <- d_j g_il
        t3 = dG.transpose(_last_axes(dG.ndim, (1, 2, 0, 3)))  # [i,j,l] <- d_l g_ij
        bracket = (dG + self.s1[:, :, None, None] * t2
                   - self.s2[:, :, :, None] * t3)
        tmp = batched_mul(bracket[..., None, :], ginv[..., None, None, :, :, :],
                          self.L)
        gamma = 0.5 * tmp.sum(axis=-3)  # [i,j,k,D]
        return gamma.transpose(_last_axes(gamma.ndim, (2, 0, 1, 3)))

    def dginv(self, env: Mapping[str, np.ndarray],
              ginv: np.ndarray | None = None) -> np.ndarray:
        """Partials of the inverse metric, [a,i,j] = d_a g^{ij}.

        Obtained by differentiating sum_k g^{ik} g_{kj} = delta_ij:
        d_a g^{ij} = -sum_{k,b} (-1)^{|a|(|i|+|k|)} g^{ik} * d_a(g_kb) * g^{bj}.
        """
        if self.is_flat:
            return np.zeros((self.n, self.n, self.n, self.D))
        if ginv is None:
            ginv = self.metric_inverse(env)
        dG = self.eval_dmetric(env)
        tmp = batched_mul(ginv[..., None, :, :, None, :],
                          dG[..., :, None, :, :, :], self.L)
        step1 = (self.s3[:, :, :, None, None] * tmp).sum(axis=-3)  # [a,i,b,D]
        tmp2 = batched_mul(step1[..., :, :, :, None, :],
                           ginv[..., None, None, :, :, :], self.L)
        return -tmp2.sum(axis=-3)


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
    Christoffel symbols (computed with the ungraded formula)."""

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
        self._sig = body_sig
        self._d_entries = tuple(
            tuple(tuple(partial_derivative(self.entries[i][j], a, body_sig)
                        for j in range(m)) for i in range(m))
            for a in sig.even_names)

    def _env(self, x) -> dict[str, np.ndarray]:
        return {name: np.array([float(x[i])])
                for i, name in enumerate(self.even_names)}

    def metric(self, x) -> np.ndarray:
        env = self._env(x)
        return np.array([[eval_dense(self.entries[i][j], env, 0)[0]
                          for j in range(self.m)] for i in range(self.m)])

    def metric_inverse(self, x) -> np.ndarray:
        return np.linalg.inv(self.metric(x))

    def dmetric(self, x) -> np.ndarray:
        env = self._env(x)
        return np.array([[[eval_dense(self._d_entries[a][i][j], env, 0)[0]
                           for j in range(self.m)] for i in range(self.m)]
                         for a in range(self.m)])

    def christoffel(self, x) -> np.ndarray:
        """Classical symbols [k,i,j] from the ungraded coordinate formula."""
        ginv = self.metric_inverse(x)
        dG = self.dmetric(x)  # [a,i,j] = d_a g_ij
        bracket = dG + dG.transpose(1, 0, 2) - dG.transpose(1, 2, 0)
        # bracket[i,j,l] = d_i g_jl + d_j g_il - d_l g_ij
        return 0.5 * np.einsum("ijl,lk->kij", bracket, ginv)


def reduce_body(chart: MetricChart) -> BodyGeometry:
    """Classical metric and Christoffel evaluator on the body."""
    return BodyGeometry(chart)
