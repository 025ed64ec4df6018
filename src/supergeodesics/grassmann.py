"""Real Grassmann algebra on L anticommuting generators.

An element is stored as a dense vector of 2^L coefficients indexed by bitmask:
bit g of a mask selects generator g (0-based), and the coefficient multiplies
the product of the selected generators in increasing order.  Mask 0 carries
the scalar ("body") coefficient; everything else is the nilpotent soul.

Basis products carry the sign of the transpositions needed to merge the two
sorted generator lists; products of masks sharing a generator vanish.

Products are computed from one cached, read-only table per L: the 3^L
disjoint mask pairs (i, j) with their signs, grouped by the result mask
i | j.  Above `_TENSOR_MAX` (L > 3) a product gathers the two factors'
coefficients at the pairs, multiplies them with the signs and sums each
group (`np.add.reduceat`): 3^L multiply-adds, where a contraction with the
dense (2^L)^3 structure tensor does 8^L.  For L <= `_TENSOR_MAX` the table
is scattered into that dense tensor, reshaped to (4^L, 2^L), and a product
is one contraction, which is faster there than the gather.  A stack of
products whose pair temporaries would exceed `_CHUNK_ELEMENTS` elements
(32 MB of float64) is computed in chunks of its flattened leading axes.
"""

from __future__ import annotations

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


@lru_cache(maxsize=None)
def _dense_tensor(L: int) -> np.ndarray:
    """Structure tensor T[i * 2^L + j, i | j] = merge_sign(i, j), (D^2, D)."""
    D = dim(L)
    I, J, S, _ = _pairs(L)
    T2 = np.zeros((D * D, D))
    T2[I * D + J, I | J] = S
    T2.flags.writeable = False
    return T2


def _mul(a: np.ndarray, b: np.ndarray, L: int, rowwise: bool = False) -> np.ndarray:
    """Grassmann product of stacked coefficient arrays (leading axes broadcast).

    Up to `_TENSOR_MAX` all leading axes are flattened into one
    (rows, 4^L) @ (4^L, 2^L) BLAS call.  With `rowwise` each row is a call of
    its own, (1, 4^L) @ (4^L, 2^L), which BLAS runs as the gemv a single
    vector gets: its sums associate differently from gemm, and a row must
    not change its bits with the number of rows beside it.
    """
    if L <= _TENSOR_MAX:
        outer = a[..., :, None] * b[..., None, :]
        shape = outer.shape
        K = shape[-1] * shape[-1]
        rows = shape[:-2] + (1, K) if rowwise else (-1, K)
        return (outer.reshape(rows) @ _dense_tensor(L)).reshape(shape[:-1])
    I, J, S, starts = _pairs(L)
    # rows(a) * rows(b) bounds the broadcast row count from above
    if a.size * b.size // dim(L) ** 2 * len(I) <= _CHUNK_ELEMENTS:
        return np.add.reduceat(np.take(a, I, -1) * S * np.take(b, J, -1),
                               starts, axis=-1)
    shape = np.broadcast_shapes(a.shape, b.shape)
    flat_a = np.broadcast_to(a, shape).reshape(-1, shape[-1])
    flat_b = np.broadcast_to(b, shape).reshape(-1, shape[-1])
    out = np.empty(flat_a.shape)
    step = max(1, _CHUNK_ELEMENTS // len(I))
    for r in range(0, len(out), step):
        out[r:r + step] = np.add.reduceat(
            np.take(flat_a[r:r + step], I, -1) * S
            * np.take(flat_b[r:r + step], J, -1), starts, axis=-1)
    return out.reshape(shape)


def mul_dense(a: np.ndarray, b: np.ndarray, L: int) -> np.ndarray:
    """Product of two coefficient vectors over the L-generator algebra.

    Leading axes, if any, are rows of independent products (they broadcast);
    each row has the bits of the same product of two single vectors.
    """
    return _mul(a, b, L, rowwise=True)


def batched_mul(a: np.ndarray, b: np.ndarray, L: int) -> np.ndarray:
    """Elementwise Grassmann product of stacked coefficient arrays.

    Leading axes broadcast; the trailing axis has length 2^L.
    """
    return _mul(a, b, L)


def invert_dense(a: np.ndarray, L: int, check_even: bool = True) -> np.ndarray:
    """Inverse of an even element with nonzero body.

    Finite Neumann series a^-1 = (1/body) * sum_k (-soul/body)^k, which
    terminates because the soul is nilpotent.  Leading axes are rows, each
    inverted with its own body.
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


class GrassmannElement:
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
        object.__setattr__(self, "L", L)
        object.__setattr__(self, "coeffs", arr)

    def __setattr__(self, name, value):
        raise AttributeError("GrassmannElement is immutable")

    def __reduce__(self):
        return GrassmannElement, (self.L, self.coeffs)

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

    def has_parity(self, parity: Parity, tol: float = 0.0) -> bool:
        """True if all coefficients on masks of the other parity are within tol.

        The zero element passes for either parity.
        """
        par = mask_parity(self.L)
        wrong = self.coeffs[par != (0 if parity is Parity.EVEN else 1)]
        return bool(np.all(np.abs(wrong) <= tol))

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
        return hash((self.L, self.coeffs.tobytes()))

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
