"""Real Grassmann algebra on L anticommuting generators.

An element is stored as a dense vector of 2^L coefficients indexed by bitmask:
bit g of a mask selects generator g (0-based), and the coefficient multiplies
the product of the selected generators in increasing order.  Mask 0 carries
the scalar ("body") coefficient; everything else is the nilpotent soul.

Basis products carry the sign of the transpositions needed to merge the two
sorted generator lists; products of masks sharing a generator vanish.

Products run in one of three regimes.  `mul_dense` is the row-independent
product (and so are `invert_dense`, `GrassmannElement` and the programs of
`superexpr`); `batched_mul` is the contraction kernel of the right-hand sides.

* L = 0, both: Lambda_0 = R, and a product is the real `a * b`, the bits of
  its one pair term a * 1 * b.
* L >= 1 in `mul_dense`, L > `_TENSOR_MAX` (3) in `batched_mul`: gather the
  two factors' coefficients at the pairs of one cached, read-only table per
  L (the 3^L disjoint mask pairs (i, j) with their signs, grouped by i | j),
  multiply with the signs and sum each group (`np.add.reduceat`): 3^L
  multiply-adds, no BLAS call, and a row's bits do not depend on the rows
  beside it.  A stack whose pair temporaries would exceed `_CHUNK_ELEMENTS`
  elements (32 MB of float64) runs in chunks of its flattened leading axes.
* 0 < L <= `_TENSOR_MAX` in `batched_mul`: one (rows, 4^L) @ (4^L, 2^L)
  BLAS call with the dense (2^L)^3 structure tensor, faster there than the
  gather; its sums associate as the BLAS kernel chooses.

A pair term is a_I * S * b_J, and since S = +-1 the sign may sit on either
gathered factor without changing a bit: it goes on the smaller of the two.
A right factor that many products share (N across the terms of a Neumann
series, g^{-1} across one right-hand side) can be `prepare`d once, as
S * take(b, J) above `_TENSOR_MAX` (operand packing, as in Goto & van de
Geijn, "Anatomy of High-Performance Matrix Multiplication", ACM TOMS 34(3),
2008); its products then gather only the left factor.
"""

from __future__ import annotations

import math
import numbers
from enum import Enum
from functools import lru_cache
from typing import Iterable, Sequence

import numpy as np

from .errors import MismatchedGeneratorCount, OddElement, ZeroBody

MAX_GENERATORS = 12  # memory/runtime guard
_TENSOR_MAX = 3      # dense (2^L)^3 product tensor up to this L
_CHUNK_ELEMENTS = 1 << 22  # pair-product elements per temporary above it


class Parity(Enum):
    EVEN = 0
    ODD = 1
    NONHOMOGENEOUS = 2


def parity_product(a: Parity, b: Parity) -> Parity:
    if a is Parity.NONHOMOGENEOUS or b is Parity.NONHOMOGENEOUS:
        return Parity.NONHOMOGENEOUS
    return Parity.EVEN if a is b else Parity.ODD


def dim(L: int) -> int:
    return 1 << L


def _check_L(L: int) -> None:
    if not 0 <= L <= MAX_GENERATORS:
        raise ValueError(f"generator count must be in 0..{MAX_GENERATORS}, got {L}")


@lru_cache(maxsize=None)
def mask_parity(L: int) -> np.ndarray:
    """Per-mask popcount parity (0 even, 1 odd), shape (2^L,)."""
    masks = np.arange(dim(L), dtype=np.uint64)
    pops = np.bitwise_count(masks).astype(np.int64)
    pops.flags.writeable = False
    return pops & 1


def merge_sign(a: int, b: int) -> float:
    """Sign of the basis product mask_a * mask_b; 0.0 if they share a generator.

    Counted as the number of transpositions needed to merge the two sorted
    generator products into one increasing product.
    """
    if a & b:
        return 0.0
    swaps = 0
    bb = b
    while bb:
        g = (bb & -bb).bit_length() - 1
        swaps += (a >> (g + 1)).bit_count()
        bb &= bb - 1
    return -1.0 if swaps & 1 else 1.0


@lru_cache(maxsize=None)
def _pairs(L: int):
    """The 3^L disjoint mask pairs as (I, J, S, starts), read-only.

    Pair p multiplies mask I[p] by mask J[p] with sign S[p] = merge_sign;
    pairs are sorted by K = I | J, and starts[k] is the offset of the group
    with K == k (every k has 2^popcount(k) pairs, so no group is empty).
    Built one generator at a time: adding a highest generator t turns each
    pair (i, j) into (i, j), (i|t, j) and (i, j|t), where moving t left past
    the generators of j costs (-1)^popcount(j).
    """
    I = np.zeros(1, dtype=np.intp)
    J = np.zeros(1, dtype=np.intp)
    S = np.ones(1)
    for t in range(L):
        bit = 1 << t
        flip = np.where(np.bitwise_count(J) & 1, -1.0, 1.0)
        I = np.concatenate([I, I | bit, I])
        J = np.concatenate([J, J, J | bit])
        S = np.concatenate([S, S * flip, S])
    K = I | J
    order = np.argsort(K, kind="stable")
    starts = np.searchsorted(K[order], np.arange(dim(L)))
    table = (I[order], J[order], S[order], starts)
    for arr in table:
        arr.flags.writeable = False
    return table


def product_temporary(L: int) -> int:
    """Elements of one product's temporary in `batched_mul`: the (2^L)^2
    outer product up to `_TENSOR_MAX`, the 3^L mask pairs above it."""
    return dim(L) ** 2 if L <= _TENSOR_MAX else 3 ** L


@lru_cache(maxsize=None)
def _dense_tensor(L: int) -> np.ndarray:
    """Structure tensor T[i * 2^L + j, i | j] = merge_sign(i, j), (D^2, D)."""
    D = dim(L)
    I, J, S, _ = _pairs(L)
    T2 = np.zeros((D * D, D))
    T2[I * D + J, I | J] = S
    T2.flags.writeable = False
    return T2


class Prepared:
    """A right factor b of many products over L > `_TENSOR_MAX` generators,
    prepared once by `prepare`: `coeffs` is b, and `pairs` is S * take(b, J),
    the signed gathered coefficients of its pair terms.  Index it like b on
    every axis but the last, which stays whole."""

    __slots__ = ("coeffs", "pairs")

    def __init__(self, coeffs: np.ndarray, pairs: np.ndarray):
        self.coeffs, self.pairs = coeffs, pairs

    def __getitem__(self, idx) -> "Prepared":
        return Prepared(self.coeffs[idx], self.pairs[idx])


def prepare(b: np.ndarray, L: int) -> np.ndarray | Prepared:
    """b as the right factor of many products over L generators: `Prepared`
    above `_TENSOR_MAX`, b itself at or below it.  Each product with it has
    the bits of the same product with b."""
    if L <= _TENSOR_MAX:
        return b
    _, J, S, _ = _pairs(L)
    pairs = b.take(J, -1)
    pairs *= S
    return Prepared(b, pairs)


def _pair_terms(a: np.ndarray, b: np.ndarray | Prepared, L: int) -> np.ndarray:
    """The pair terms a_I * S * b_J of a gathered product, with the sign on
    the smaller gathered factor unless b is prepared."""
    I, J, S, _ = _pairs(L)
    left = a.take(I, -1)
    if isinstance(b, Prepared):
        return left * b.pairs
    right = b.take(J, -1)
    if left.size <= right.size:
        left *= S
    else:
        right *= S
    return left * right


def _mul(a: np.ndarray, b: np.ndarray | Prepared, L: int) -> np.ndarray:
    """Grassmann product of stacked coefficient arrays, row by row (leading
    axes broadcast); b may be `Prepared` (above `_TENSOR_MAX`).  The real
    product a * b at L = 0, the gathered pair terms summed per result mask
    at every L >= 1 (module docstring)."""
    if L == 0:
        return a * b
    # rows(a) * rows(b) bounds the broadcast row count from above
    coeffs = b.coeffs if isinstance(b, Prepared) else b
    if a.size * coeffs.size // dim(L) ** 2 * 3 ** L > _CHUNK_ELEMENTS:
        rows = np.broadcast_shapes(a.shape[:-1], coeffs.shape[:-1])
        if math.prod(rows) * 3 ** L > _CHUNK_ELEMENTS:
            return _mul_chunks(a, b, L, rows)
    return np.add.reduceat(_pair_terms(a, b, L), _pairs(L)[3], axis=-1)


def _mul_chunks(a: np.ndarray, b: np.ndarray | Prepared, L: int,
                rows: tuple) -> np.ndarray:
    """`_mul` at L >= 1 in chunks of the flattened broadcast `rows`, each
    gathered from the rows of a and b (or of b's pairs) behind it; a row has
    the bits it has unchunked."""
    coeffs = b.coeffs if isinstance(b, Prepared) else b
    ia, ib = (np.broadcast_to(np.arange(math.prod(x.shape[:-1])).reshape(
        x.shape[:-1]), rows).reshape(-1) for x in (a, coeffs))
    flat_a = a.reshape(-1, a.shape[-1])
    flat_b = (Prepared(coeffs.reshape(-1, coeffs.shape[-1]),
                       b.pairs.reshape(-1, b.pairs.shape[-1]))
              if isinstance(b, Prepared) else coeffs.reshape(-1, coeffs.shape[-1]))
    out = np.empty((len(ia), a.shape[-1]))
    step = max(1, _CHUNK_ELEMENTS // 3 ** L)
    for r in range(0, len(out), step):
        out[r:r + step] = np.add.reduceat(
            _pair_terms(flat_a[ia[r:r + step]], flat_b[ib[r:r + step]], L),
            _pairs(L)[3], axis=-1)
    return out.reshape(rows + (a.shape[-1],))


def mul_dense(a: np.ndarray, b: np.ndarray | Prepared, L: int) -> np.ndarray:
    """Product of two coefficient vectors over the L-generator algebra, a
    gather at every L >= 1 (module docstring).

    Leading axes, if any, are rows of independent products (they broadcast);
    each row has the bits of the same product of two single vectors.  The
    right factor may be `Prepared`.
    """
    return _mul(a, b, L)


def batched_mul(a: np.ndarray, b: np.ndarray | Prepared, L: int) -> np.ndarray:
    """Elementwise Grassmann product of stacked coefficient arrays.

    Leading axes broadcast; the trailing axis has length 2^L.  The right
    factor may be `Prepared`.  One BLAS call at 0 < L <= `_TENSOR_MAX`.
    """
    if 0 < L <= _TENSOR_MAX:
        outer = a[..., :, None] * b[..., None, :]
        shape = outer.shape
        flat = outer.reshape(-1, shape[-1] * shape[-1])
        return (flat @ _dense_tensor(L)).reshape(shape[:-1])
    return _mul(a, b, L)


def invert_dense(a: np.ndarray, L: int, check_even: bool = True) -> np.ndarray:
    """Inverse of an even element with nonzero body.

    Finite Neumann series a^-1 = (1/body) * sum_k (-soul/body)^k, which
    terminates because the soul is nilpotent.  Leading axes are rows, each
    inverted with its own body, with the bits it has inverted alone.
    """
    a = np.asarray(a, dtype=float)
    body = a[..., :1]
    if not body.all():
        raise ZeroBody("element with zero body is not invertible")
    if check_even and np.any(a[..., mask_parity(L) == 1] != 0.0):
        raise OddElement("only even elements are invertible")
    step = -(a / body)
    step[..., 0] = 0.0
    out = np.zeros(a.shape)
    out[..., 0] = 1.0
    term = out
    step = prepare(step, L)  # the right factor of every term
    for _ in range(L):
        term = mul_dense(term, step, L)
        if not term.any():
            break
        out = out + term
    return out / body


@lru_cache(maxsize=None)
def _strip_plan(L: int, gen: int):
    D = dim(L)
    bit = 1 << gen
    masks = np.arange(D)
    src = masks[(masks & bit) != 0]
    dst = src ^ bit
    low_pop = np.bitwise_count((src & (bit - 1)).astype(np.uint64)).astype(np.int64)
    signs = np.where(low_pop & 1, -1.0, 1.0)
    return src, dst, signs


def strip_generator(arr: np.ndarray, L: int, gen: int) -> np.ndarray:
    """Left derivative with respect to generator `gen` on raw coefficients.

    Masks containing the generator map to the mask without it, with the sign
    of moving the generator to the front past the smaller ones.
    Supports stacked arrays (trailing axis = coefficients).
    """
    if not 0 <= gen < max(L, 1):
        raise ValueError(f"generator index {gen} out of range for L={L}")
    out = np.zeros_like(arr)
    if L == 0:
        return out
    src, dst, signs = _strip_plan(L, gen)
    out[..., dst] = signs * arr[..., src]
    return out


class _Frozen:
    """Base of the immutable value types.  A subclass lists its fields in
    `__slots__` in constructor order and sets them once with `_init`; any
    later assignment raises, and copy, deepcopy and pickle rebuild the
    value by calling the constructor with the slots."""

    __slots__ = ()

    def _init(self, **slots) -> None:
        for name, value in slots.items():
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __reduce__(self):
        return type(self), tuple(getattr(self, name) for name in self.__slots__)


class GrassmannElement(_Frozen):
    """An element of the Grassmann algebra on L generators.

    Immutable value type; arithmetic via operators.  Generators in text
    renderings are called t1..tL, so '2 + 0.5*t1^t2' has body 2 and a
    coefficient 0.5 on the product of the first two generators.
    """

    __slots__ = ("L", "coeffs")

    def __init__(self, L: int, coeffs: np.ndarray | Sequence[float] | None = None):
        _check_L(L)
        if coeffs is None:
            arr = np.zeros(dim(L))
        else:
            arr = np.array(coeffs, dtype=float).reshape(-1)
            if arr.shape != (dim(L),):
                raise ValueError(f"expected {dim(L)} coefficients, got {arr.shape}")
        arr.flags.writeable = False
        self._init(L=L, coeffs=arr)

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, L: int) -> "GrassmannElement":
        return cls(L)

    @classmethod
    def from_scalar(cls, value: float, L: int) -> "GrassmannElement":
        arr = np.zeros(dim(L))
        arr[0] = float(value)
        return cls(L, arr)

    @classmethod
    def basis(cls, mask: int, L: int, coeff: float = 1.0) -> "GrassmannElement":
        if not 0 <= mask < dim(L):
            raise ValueError(f"mask {mask} out of range for L={L}")
        arr = np.zeros(dim(L))
        arr[mask] = coeff
        return cls(L, arr)

    @classmethod
    def generator(cls, g: int, L: int) -> "GrassmannElement":
        """The g-th generator (0-based)."""
        return cls.basis(1 << g, L)

    @classmethod
    def from_pairs(cls, pairs: Iterable[Sequence[float]], L: int) -> "GrassmannElement":
        arr = np.zeros(dim(L))
        for mask, coeff in pairs:
            m = int(mask)
            if not 0 <= m < dim(L):
                raise ValueError(f"mask {m} out of range for L={L}")
            arr[m] += float(coeff)
        return cls(L, arr)

    def to_pairs(self) -> list[list[float]]:
        """JSON-friendly [(mask, coefficient), ...] for nonzero coefficients."""
        return [[int(m), float(self.coeffs[m])] for m in np.nonzero(self.coeffs)[0]]

    # -- arithmetic --------------------------------------------------------

    def _need_same_L(self, other: "GrassmannElement") -> None:
        if self.L != other.L:
            raise MismatchedGeneratorCount(f"L={self.L} vs L={other.L}")

    def __add__(self, other):
        if isinstance(other, GrassmannElement):
            self._need_same_L(other)
            return GrassmannElement(self.L, self.coeffs + other.coeffs)
        if isinstance(other, numbers.Real):
            arr = self.coeffs.copy()
            arr[0] += float(other)
            return GrassmannElement(self.L, arr)
        return NotImplemented

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, (GrassmannElement, numbers.Real)):
            return self + (-1.0) * (other if isinstance(other, GrassmannElement)
                                    else GrassmannElement.from_scalar(other, self.L))
        return NotImplemented

    def __rsub__(self, other):
        if isinstance(other, numbers.Real):
            return GrassmannElement.from_scalar(other, self.L) - self
        return NotImplemented

    def __mul__(self, other):
        if isinstance(other, GrassmannElement):
            self._need_same_L(other)
            return GrassmannElement(self.L, mul_dense(self.coeffs, other.coeffs, self.L))
        if isinstance(other, numbers.Real):
            return GrassmannElement(self.L, self.coeffs * float(other))
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, numbers.Real):
            return GrassmannElement(self.L, self.coeffs * float(other))
        return NotImplemented

    def __neg__(self):
        return GrassmannElement(self.L, -self.coeffs)

    def __truediv__(self, other):
        if isinstance(other, numbers.Real):
            return GrassmannElement(self.L, self.coeffs / float(other))
        if isinstance(other, GrassmannElement):
            return self * other.invert()
        return NotImplemented

    def invert(self) -> "GrassmannElement":
        """Multiplicative inverse; requires an even element with nonzero body."""
        return GrassmannElement(self.L, invert_dense(self.coeffs, self.L))

    # -- structure ---------------------------------------------------------

    @property
    def parity(self) -> Parity:
        par = mask_parity(self.L)
        has_even = bool(np.any(self.coeffs[par == 0] != 0.0))
        has_odd = bool(np.any(self.coeffs[par == 1] != 0.0))
        if has_even and has_odd:
            return Parity.NONHOMOGENEOUS
        if has_odd:
            return Parity.ODD
        return Parity.EVEN  # zero counts as even

    def has_parity(self, parity: Parity) -> bool:
        """True if every coefficient on a mask of the other parity is zero.

        The zero element passes for either parity.
        """
        par = mask_parity(self.L)
        wrong = self.coeffs[par != (0 if parity is Parity.EVEN else 1)]
        return not wrong.any()

    @property
    def body(self) -> float:
        return float(self.coeffs[0])

    @property
    def soul(self) -> "GrassmannElement":
        arr = self.coeffs.copy()
        arr[0] = 0.0
        return GrassmannElement(self.L, arr)

    def body_soul(self) -> tuple[float, "GrassmannElement"]:
        return self.body, self.soul

    def is_zero(self, tol: float = 0.0) -> bool:
        return bool(np.all(np.abs(self.coeffs) <= tol))

    def equals(self, other: "GrassmannElement", tol: float = 0.0) -> bool:
        """Coefficient-wise equality with absolute tolerance (default exact)."""
        if not isinstance(other, GrassmannElement) or self.L != other.L:
            return False
        if tol == 0.0:
            return bool(np.array_equal(self.coeffs, other.coeffs))
        return bool(np.all(np.abs(self.coeffs - other.coeffs) <= tol))

    def __eq__(self, other):
        if isinstance(other, numbers.Real):
            other = GrassmannElement.from_scalar(other, self.L)
        if not isinstance(other, GrassmannElement):
            return NotImplemented
        return self.equals(other)

    def __hash__(self):
        # as `==`: -0.0 is 0.0, and a soul-free element its body (not nan)
        c = self.coeffs + 0.0
        if c[1:].any() or np.isnan(c[0]):
            return hash((self.L, c.tobytes()))
        return hash(float(c[0]))

    # -- rendering ---------------------------------------------------------

    def __str__(self):
        parts = []
        for m in np.nonzero(self.coeffs)[0]:
            c = self.coeffs[m]
            if m == 0:
                parts.append(f"{c:g}")
                continue
            gens = "^".join(f"t{g + 1}" for g in range(self.L) if m & (1 << g))
            parts.append(f"{c:g}*{gens}")
        return " + ".join(parts) if parts else "0"

    def __repr__(self):
        return f"GrassmannElement(L={self.L}, {self})"
