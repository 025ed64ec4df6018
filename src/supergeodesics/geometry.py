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

Structural zeros: a partial d_a g_ij whose expression is a constant zero
vanishes at every point, and so does a bracket entry [i,j,l] made only of
such partials.  `_Kernel` records once which of them can be nonzero.  Above
`grassmann._TENSOR_MAX` the Christoffel contraction and the first product
of `_Kernel.dginv` multiply only the rows that can be nonzero, and leave
+0.0 in the rows they skip, in front of the same sum.  A skipped row is an
exact zero, and adding a zero changes no nonzero bit of a sum, only, at
most, the sign of a coefficient that is zero anyway; the RK4 state absorbs
that sign, since +0 + -0 = +0.  At or below the cutoff every row is
multiplied: the products there are BLAS calls, whose rows keep their bits
only while their count stays the same.

The chart owns its coordinate box: `check_state` guards the stepper, and
`window` places the default and random points of `verify`.

Batch convention: the numeric kernel takes positions of shape (..., n, 2^L);
only `_eval_live` names their rows for the expression program.  Leading axes
are a batch of independent points over the kernel's L generators (for
instance the rows of one batched RK4 run); every method maps them to the
same leading axes of its result, and a batch row has the bits of the same
point evaluated alone.
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

from .errors import DomainError, InvalidPoint, LeftDomain, SingularBody
from .grassmann import (
    _TENSOR_MAX,
    GrassmannElement,
    Parity,
    Prepared,
    _Frozen,
    batched_mul,
    dim,
    prepare,
    product_temporary,
)
from .superexpr import (
    ChartSignature,
    Const,
    Expr,
    Program,
    as_expr,
    parse_expression,
    partial_derivative,
    substitute,
)


# ---------------------------------------------------------------------------
# points


class SuperPoint(_Frozen):
    """Grassmann values of every chart coordinate, checked by the coordinate
    values rule of `ChartSignature`; a missing coordinate raises
    `InvalidPoint`."""

    __slots__ = ("sig", "L", "values")

    def __init__(self, sig: ChartSignature, L: int,
                 values: Mapping[str, GrassmannElement]):
        missing = set(sig.names) - set(values)
        if missing:
            raise InvalidPoint(f"missing coordinates {sorted(missing)}")
        self._init(sig=sig, L=L, values=sig.graded(L, values, "coordinate"))

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
        # the bounded even slots and their bounds (`outside_domain`)
        boxed = [i for i, name_ in enumerate(sig.even_names) if name_ in dom]
        self._box = (np.array(boxed, dtype=int),
                     np.array([dom[sig.even_names[i]][0] for i in boxed]),
                     np.array([dom[sig.even_names[i]][1] for i in boxed]))
        self._dg: tuple | None = None
        self._kernels: dict[int, _Kernel] = {}

    def dg(self) -> tuple:
        """Symbolic partials dg[a][i][j] = d_{q_a} g_ij (cached); one that
        cannot be formed (an overflowing fold) is a `DomainError` naming it."""
        if self._dg is None:
            names = self.sig.names
            self._dg = tuple(
                tuple(tuple(self._partial(i, j, a) for j in range(len(names)))
                      for i in range(len(names)))
                for a in names)
        return self._dg

    def _partial(self, i: int, j: int, a: str) -> Expr:
        try:
            return partial_derivative(self.entries[i][j], a, self.sig)
        except DomainError as exc:
            names = self.sig.names
            raise DomainError(f"model {self.name!r}: bad metric: d/d{a} of "
                              f"entry ({names[i]},{names[j]}): {exc}") from exc

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
        return not self.outside_domain(
            np.asarray(body_even, dtype=float).reshape(1, -1))[0]

    def check_state(self, state: np.ndarray, t: float) -> None:
        """`LeftDomain` naming the first batch row of `state` (..., k, 2^L),
        positions first, whose body is outside the box (checked per step)."""
        idx, lo, hi = self._box
        b = state[..., idx, 0]
        inside = (lo < b) & (b < hi)
        if not inside.all():
            m = self.sig.n_even
            first = inside.reshape(-1, len(idx)).all(axis=1).argmin()
            raise LeftDomain(f"body {state[..., :m, 0].reshape(-1, m)[first]} "
                             f"left the chart domain at t={t:g}")

    def window(self, name: str, half: float) -> tuple[float, float]:
        """The box of `name` cut to [-half, half], else its 2*half end nearest 0."""
        lo, hi = self.domain.get(name, (-half, half))
        if max(lo, -half) < min(hi, half):
            return max(lo, -half), min(hi, half)
        return ((lo, min(hi, lo + 2 * half)) if lo > 0
                else (max(lo, hi - 2 * half), hi))

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
    pair products of an (rows, n, n, n, n) product, stays near 256 KB
    (`grassmann.product_temporary` per product).  That product is the
    Christoffel contraction, or, where the contraction skips its
    structurally zero rows (module docstring), the second product of
    `_Kernel.dginv`, which skips none.  Slicing changes no bits (module
    docstring)."""
    step = max(1, (1 << 18) // (8 * n ** 4 * product_temporary(D.bit_length() - 1)))
    for start in range(0, total, step):
        yield slice(start, start + step)


class _Kernel:
    """Per-(chart, L) numeric engine working on raw coefficient arrays.

    Positions/velocities are (..., n, 2^L) arrays in signature order; leading
    axes are a batch of independent states (see the module docstring).
    One pass sorts the metric entries and their partials into constant ones,
    prebaked unbatched from one program run, and live ones, compiled,
    metric entries first, into one `superexpr.Program`: every evaluation
    fills G and dG from one full run of it, and `fields`, the one source of
    g^{-1}, inverts that G.  What never changes is built here once: the
    identity of the Neumann series, the inverse metric or the Christoffel
    bracket when they are constant, and the structural-zero plan (module
    docstring): the bracket entries that can be nonzero, the rows of each
    Christoffel block that `_block_rows` derives from them, and the rows of
    `dginv`'s first product.
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

        self._g_const = np.zeros((n, n, self.D))
        self._dg_const = np.zeros((n, n, n, self.D))
        # live: an index behind any batch axes, in `at`, and the expression;
        # fixed: (array, index, expression) of a constant one
        self._g_live, self._dg_live = [], []
        live, fixed = [], []
        entries = [e for row in chart.entries for e in row]
        partials = [e for block in chart.dg() for row in block for e in row]
        for const, exprs, at in ((self._g_const, entries, self._g_live),
                                 (self._dg_const, partials, self._dg_live)):
            for idx, e in zip(np.ndindex(const.shape[:-1]), exprs):
                if e.free_vars():
                    at.append((..., *idx, slice(None)))
                    live.append(e)
                else:
                    fixed.append((const, idx, e))
        values = Program(e for *_, e in fixed).run({}, L)
        for (const, idx, _), v in zip(fixed, values):
            const[idx] = v
        self._program = Program(live)
        self.is_flat = not self._dg_live and not self._dg_const.any()
        # the structural-zero plan: the partials d_a g_ij that can be
        # nonzero, and the bracket entries [i,j,l] built from them
        dg_nz = self._dg_const.any(axis=-1)
        for idx in self._dg_live:
            dg_nz[idx[1:-1]] = True
        self._bracket_nz = (dg_nz | dg_nz.transpose(1, 0, 2)
                            | dg_nz.transpose(1, 2, 0))
        self._blocks: dict = {}
        self._table_rows = self._block_rows(slice(None), slice(None))
        self._dginv_rows = None
        a, k, b = np.nonzero(dg_nz)
        if L > _TENSOR_MAX and len(a) < n ** 3:
            # [r, i] = s3[a_r, i, k_r], the sign of row r = (a, k, b) of the
            # first product of `dginv`, and where the row goes among (a, kb)
            self._dginv_rows = (a, k, b, self.s3[a, :, k][..., None], k * n + b)
        self._eye = np.zeros((n, n, self.D))  # the identity matrix
        self._eye[np.arange(n), np.arange(n), 0] = 1.0
        self._ginv_const = self.inverse(self._g_const) if not self._g_live else None
        self._bracket_const = (self._make_bracket(self._dg_const)
                               if not self._dg_live else None)
        for arr in (self._g_const, self._dg_const, self._eye, self._ginv_const):
            if arr is not None:
                arr.flags.writeable = False

    def _eval_live(self, pos: np.ndarray):
        """(G, dG) at `pos`, batched like it, with the live entries filled
        in from one run of the program; an array without live entries is
        its read-only constant."""
        ng, rows = len(self._g_live), pos.shape[:-2]
        vals = (self._program.run({name: pos[..., i, :] for i, name
                                   in enumerate(self.sig.names)}, self.L)
                if self._program.code else [])
        return (_filled(self._g_const, self._g_live, vals[:ng], rows),
                _filled(self._dg_const, self._dg_live, vals[ng:], rows))

    def eval_metric(self, pos: np.ndarray) -> np.ndarray:
        return self._eval_live(pos)[0]

    def eval_dmetric(self, pos: np.ndarray) -> np.ndarray:
        return self._eval_live(pos)[1]

    def fields(self, pos: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(g^{-1}, dG) at the positions, from one program run."""
        G, dG = self._eval_live(pos)
        if self._ginv_const is not None:
            return self._ginv_const, dG
        return self.inverse(G), dG

    def inverse(self, G: np.ndarray) -> np.ndarray:
        """Pointwise inverse metric: body inverse plus Neumann series.

        The series is 1 + sum_{k=1..L} (-N)^k for N = body^-1 G - 1 and
        stops early once a term vanishes.  The first term is -N itself: the
        product by the identity is exact and could only flip signed zeros,
        which never reach the sum.

        At L = 0 the series is 1 even if N keeps a rounding residue of the
        body, so the inverse is the body inverse, as (..., n, n, 1): no N is
        built and the identity product is skipped.  That product's only
        effect on bits is to turn -0.0 into +0.0, which `+ 0.0` does."""
        body = G[..., 0]
        try:
            body_inv = np.linalg.inv(body)
        except np.linalg.LinAlgError as exc:
            raise SingularBody(f"metric body is singular: {exc}") from exc
        if not self.L:
            return body_inv[..., None] + 0.0
        # N = body^-1 G - 1; subtracting the identity's zeros changes no bit
        flat = G.reshape(G.shape[:-2] + (self.n * self.D,))
        N = (body_inv @ flat).reshape(G.shape) - self._eye
        X = self._eye
        if np.count_nonzero(N):
            term = -N
            X = X + term
            right = prepare(N[..., None, :, :, :], self.L)  # of every term
            for _ in range(self.L - 1):
                tmp = batched_mul(term[..., :, :, None, :], right, self.L)
                term = -tmp.sum(axis=-3)
                if not np.count_nonzero(term):
                    break
                X = X + term
        # right-multiply by the real body inverse
        return (X.swapaxes(-1, -2) @ body_inv[..., None, :, :]).swapaxes(-1, -2)

    def _make_bracket(self, dG: np.ndarray) -> np.ndarray:
        """[i,j,l] = d_i g_jl + (-1)^{|i||j|} d_j g_il
        - (-1)^{|l|(|i|+|j|)} d_l g_ij, the bracket of the Christoffel
        symbols (module docstring), from dG[..., a, i, j] = d_a g_ij."""
        t2 = dG.transpose(_last_axes(dG.ndim, (1, 0, 2, 3)))  # [i,j,l] <- d_j g_il
        t3 = dG.transpose(_last_axes(dG.ndim, (1, 2, 0, 3)))  # [i,j,l] <- d_l g_ij
        return dG + self.s1[:, :, None, None] * t2 - self.s2[:, :, :, None] * t3

    def _block_rows(self, i: slice, j: slice):
        """The skip plan of the Christoffel block over rows `i`, columns `j`:
        above `_TENSOR_MAX`, the flat indices into its (i, j, l) bracket
        entries that can be nonzero and the l of each; None where every
        entry can be nonzero, or at L <= `_TENSOR_MAX`, whose products run
        as BLAS calls that must keep their row counts."""
        if self.L <= _TENSOR_MAX:
            return None
        key = (i.indices(self.n), j.indices(self.n))
        if key not in self._blocks:
            live = self._bracket_nz[i, j, :].reshape(-1)
            rows = np.flatnonzero(live)
            self._blocks[key] = (rows, rows % self.n) if len(rows) < len(live) else None
        return self._blocks[key]

    def _contract(self, b: np.ndarray, g: np.ndarray | Prepared,
                  plan) -> np.ndarray:
        """Gamma[k, i, j] = 1/2 sum_l b[i,j,l] * g[l,k] (module docstring)
        for a block b of the bracket and g of g^{-1}, [k, i, j]-indexed.
        With a `_block_rows` plan, rows whose bracket entry is a structural
        zero are not multiplied; they are +0.0 in the table the sum runs
        over (module docstring)."""
        if plan is None:
            tmp = batched_mul(b[..., None, :], g[..., None, None, :, :, :],
                              self.L)
        else:
            rows, ls = plan
            flat = b.reshape(b.shape[:-4] + (-1, self.D))
            prod = batched_mul(flat[..., rows, None, :], g[..., ls, :, :],
                               self.L)
            tmp = np.zeros(prod.shape[:-3] + (flat.shape[-2],)
                           + prod.shape[-2:])
            tmp[..., rows, :, :] = prod
            tmp = tmp.reshape(prod.shape[:-3] + b.shape[-4:-1]
                              + prod.shape[-2:])
        gamma = 0.5 * tmp.sum(axis=-3)  # [i,j,k,D]
        return gamma.transpose(_last_axes(gamma.ndim, (2, 0, 1, 3)))

    def christoffel(self, pos: np.ndarray, blocks=None):
        """Christoffel table as a (..., n, n, n, 2^L) array indexed [k, i, j];
        with `blocks`, a sequence of (k, i, j) index slices, the list of
        those blocks of it instead, from one evaluation of the fields.
        Above `_TENSOR_MAX` only the blocks are contracted; at or below it
        the table is contracted whole and sliced, one BLAS call whose rows
        have the bits of the table's in every other caller."""
        if self.is_flat:
            table = np.zeros((self.n, self.n, self.n, self.D))
        else:
            ginv, dG = self.fields(pos)
            bracket = self._bracket_const
            if bracket is None:
                bracket = self._make_bracket(dG)
            ginv = prepare(ginv, self.L)
            if blocks is not None and self.L > _TENSOR_MAX:
                return [self._contract(bracket[..., i, j, :, :],
                                       ginv[..., :, k, :],
                                       self._block_rows(i, j))
                        for k, i, j in blocks]
            table = self._contract(bracket, ginv, self._table_rows)
        if blocks is None:
            return table
        return [table[..., k, i, j, :] for k, i, j in blocks]

    def dginv(self, ginv: np.ndarray | Prepared, dG: np.ndarray) -> np.ndarray:
        """Partials of the inverse metric, [a,i,j] = d_a g^{ij}, from the
        inverse metric (plain or `Prepared`) and dG at the same points
        (`fields`).

        Obtained by differentiating sum_k g^{ik} g_{kj} = delta_ij:
        d_a g^{ij} = -sum_{k,b} (-1)^{|a|(|i|+|k|)} g^{ik} * d_a(g_kb) * g^{bj}.
        Above `_TENSOR_MAX` the first product multiplies only the rows whose
        d_a g_kb can be nonzero (module docstring).
        """
        if self.is_flat:
            return np.zeros((self.n, self.n, self.n, self.D))
        if isinstance(ginv, Prepared):
            g = ginv.coeffs
        else:
            g, ginv = ginv, prepare(ginv, self.L)
        if self._dginv_rows is None:
            tmp = batched_mul(g[..., None, :, :, None, :],
                              dG[..., :, None, :, :, :], self.L)
            tmp = self.s3[:, :, :, None, None] * tmp  # [a,i,k,b,D]
        else:
            a, k, b, sign, kb = self._dginv_rows
            prod = batched_mul(g.swapaxes(-3, -2)[..., k, :, :],  # g^{i k_r}
                               dG[..., a, k, b, None, :], self.L)
            n = self.n
            tmp = np.zeros(prod.shape[:-3] + (n, n, n, n, self.D))
            # row r goes to [a_r, :, k_r, b_r] through an (a, kb, i) view
            view = np.moveaxis(tmp.reshape(tmp.shape[:-3] + (n * n, self.D)),
                               -3, -2)
            view[..., a, kb, :, :] = sign * prod
        step1 = tmp.sum(axis=-3)  # [a,i,b,D]
        tmp2 = batched_mul(step1[..., :, :, :, None, :],
                           ginv[..., None, None, :, :, :], self.L)
        return -tmp2.sum(axis=-3)


def _filled(const: np.ndarray, live: list, vals: list, rows) -> np.ndarray:
    """`const` batched over `rows` with the value of each live index filled
    in; `const` itself if it has no live index."""
    if not live:
        return const
    out = np.empty(rows + const.shape)
    out[...] = const
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
    max_deviation: float  # largest graded-symmetry deviation (inf: not finite)
    failures: list[str] = field(default_factory=list)


def metric_validate(chart: MetricChart, samples: Sequence[SuperPoint],
                    tol: float = 1e-10) -> MetricReport:
    """Check the graded-metric invariants at the sample points.

    Verifies: even odd-dimension, entry parity |g_ij| = |i|+|j|, a finite
    metric (one that overflows or is not finite is a violation), graded
    symmetry g_ij = (-1)^{|i||j|} g_ji within `tol`, and nondegenerate
    symmetric / antisymmetric body blocks.  The graded symmetry is measured
    at every sample, even past a violation; a NaN deviation fails.
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

    max_dev = 0.0
    if not failures:
        m = sig.n_even
        for p in samples:
            kern = chart.kernel(p.L)
            try:
                with np.errstate(over="ignore", invalid="ignore"):
                    G = kern.eval_metric(p.as_array())
                finite = np.isfinite(G).all()
            except OverflowError:  # math.exp of a body overflowed
                finite = False
            if not finite:
                failures.append(f"metric is not finite at {p!r}")
                max_dev = np.inf
                continue
            sym_dev = float(np.max(np.abs(
                G - kern.s1[:, :, None] * G.transpose(1, 0, 2))))
            max_dev = max(max_dev, sym_dev)
            body = G[:, :, 0]
            if not sym_dev <= tol:
                failures.append(
                    f"graded symmetry violated at {p!r} (deviation {sym_dev:.3g})")
            elif not abs(np.linalg.det(body[:m, :m])) > 1e-12:
                failures.append(f"even-even body block degenerate at {p!r}")
            elif sig.n_odd and not abs(np.linalg.det(body[m:, m:])) > 1e-12:
                failures.append(f"odd-odd body block degenerate at {p!r}")

    return MetricReport(ok=not failures,
                        first_violation=failures[0] if failures else None,
                        max_deviation=max_dev, failures=failures)


def metric_inverse_at(chart: MetricChart, p: SuperPoint) -> list[list[GrassmannElement]]:
    """Inverse metric at a point; sum_k G[i][k]*g_kj(p) = delta_ij exactly."""
    chart.check_point(p)
    kern = chart.kernel(p.L)
    ginv = kern.fields(p.as_array())[0]
    return [[GrassmannElement(p.L, ginv[i, j]) for j in range(kern.n)]
            for i in range(kern.n)]


def christoffel_at(chart: MetricChart, p: SuperPoint) -> ChristoffelTable:
    """Christoffel symbols of the metric connection at a point."""
    chart.check_point(p)
    return ChristoffelTable(chart.sig, p.L,
                            chart.kernel(p.L).christoffel(p.as_array()))


# ---------------------------------------------------------------------------
# reduction to the body


class BodyGeometry:
    """The classical geometry underlying a chart: the even-even metric block
    with all odd coordinates and souls set to zero, plus its classical
    Christoffel symbols (computed with the ungraded formula).  One
    `superexpr.Program` holds the m^2 entries, then the m^3 partials, and
    `metric` and `fields` each read one full run of it."""

    def __init__(self, chart: MetricChart):
        sig = chart.sig
        self.even_names = sig.even_names
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

    def _run(self, x) -> np.ndarray:
        env = {name: np.array([float(x[i])])
               for i, name in enumerate(self.even_names)}
        return np.array([v[0] for v in self._program.run(env, 0)])

    def metric(self, x) -> np.ndarray:
        return self._run(x)[:self.m ** 2].reshape(self.m, self.m)

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
