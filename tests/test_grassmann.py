"""Grassmann algebra: arithmetic examples, laws on random elements, errors."""

import itertools

import numpy as np
import pytest

from supergeodesics import grassmann
from supergeodesics.errors import MismatchedGeneratorCount, OddElement, ZeroBody
from supergeodesics.grassmann import (
    MAX_GENERATORS,
    GrassmannElement as G,
    Parity,
    batched_mul,
    dim,
    invert_dense,
    mask_parity,
    merge_sign,
    mul_dense,
    strip_generator,
)


def random_element(rng, L, parity=None, body_min=None):
    coeffs = rng.uniform(-1.0, 1.0, dim(L))
    if parity is not None:
        coeffs[mask_parity(L) != parity] = 0.0
    if body_min is not None:
        body = rng.uniform(body_min, 1.0) * rng.choice([-1.0, 1.0])
        coeffs[0] = body
    return G(L, coeffs)


def reference_product(a, b, L):
    """Oracle: sum of merge_sign(i, j) * a_i * b_j over disjoint mask pairs."""
    D = dim(L)
    out = np.zeros(D)
    for i in range(D):
        comp = (D - 1) ^ i
        j = comp
        while True:  # every submask j of the complement of i
            out[i | j] += merge_sign(i, j) * a[i] * b[j]
            if j == 0:
                break
            j = (j - 1) & comp
    return out


class TestArithmetic:
    def test_generators_anticommute(self):
        t1, t2 = G.generator(0, 2), G.generator(1, 2)
        assert t1 * t2 == G.basis(0b11, 2)
        assert t2 * t1 == -1.0 * G.basis(0b11, 2)

    def test_generator_squares_vanish(self):
        t1 = G.generator(0, 2)
        assert (1 + t1) * (1 + t1) == 1 + 2.0 * t1

    def test_nilpotency_truncates(self):
        a = 2 + G.basis(0b11, 2)
        b = 3 - G.basis(0b11, 2)
        assert a * b == 6 + G.basis(0b11, 2)

    def test_mismatched_generator_count(self):
        with pytest.raises(MismatchedGeneratorCount):
            G.generator(0, 1) * G.generator(0, 2)

    def test_generator_cap(self):
        with pytest.raises(ValueError):
            G(13)

    def test_scalar_ops(self):
        a = G.from_scalar(2.0, 2)
        assert 3.0 * a == G.from_scalar(6.0, 2)
        assert a / 2.0 == G.from_scalar(1.0, 2)
        assert a - 1 == G.from_scalar(1.0, 2)


class TestInversion:
    def test_identity(self):
        one = G.from_scalar(1.0, 2)
        assert one.invert() == one

    def test_neumann_series(self):
        a = 2 + G.basis(0b11, 2)
        inv = a.invert()
        assert inv == 0.5 - 0.25 * G.basis(0b11, 2)
        assert a * inv == G.from_scalar(1.0, 2)

    def test_zero_body(self):
        with pytest.raises(ZeroBody):
            G.generator(0, 2).invert()

    def test_odd_component_with_body(self):
        with pytest.raises(OddElement):
            (1 + G.generator(0, 2)).invert()

    def test_division_by_element(self):
        a = 2 + G.basis(0b11, 2)
        assert (G.from_scalar(1.0, 2) / a).equals(a.invert(), 1e-15)

    def test_random_inverses(self, rng):
        # 1000 even elements with |body| >= 0.1, product error <= 1e-10
        worst = 0.0
        for _ in range(1000):
            a = random_element(rng, 4, parity=0, body_min=0.1)
            prod = a * a.invert()
            expect = np.zeros(dim(4))
            expect[0] = 1.0
            worst = max(worst, np.max(np.abs(prod.coeffs - expect)))
        assert worst <= 1e-10


    @pytest.mark.parametrize("L", range(5))
    def test_rows_invert_with_their_own_body(self, rng, L):
        a = rng.uniform(-1.0, 1.0, (7, dim(L)))
        a[:, mask_parity(L) == 1] = 0.0
        a[:, 0] += np.arange(7) + 2.0
        inv = invert_dense(a, L)
        for r in range(7):
            assert np.array_equal(inv[r], invert_dense(a[r], L))


class TestParity:
    def test_examples(self):
        assert G.generator(0, 2).parity is Parity.ODD
        assert (3 + G.basis(0b11, 2)).parity is Parity.EVEN
        assert (1 + G.generator(0, 2)).parity is Parity.NONHOMOGENEOUS
        assert G.zero(2).parity is Parity.EVEN

    def test_multiplication_table(self, rng):
        for pa in (0, 1):
            for pb in (0, 1):
                for _ in range(50):
                    a = random_element(rng, 3, parity=pa)
                    b = random_element(rng, 3, parity=pb)
                    prod = a * b
                    expected = (pa + pb) % 2
                    assert prod.has_parity(
                        Parity.EVEN if expected == 0 else Parity.ODD)

    def test_graded_commutativity(self, rng):
        for L, pa, pb in itertools.product((3, 7, 8), (0, 1), (0, 1)):
            for _ in range(50):
                a = random_element(rng, L, parity=pa)
                b = random_element(rng, L, parity=pb)
                sign = -1.0 if pa and pb else 1.0
                assert (a * b).equals(sign * (b * a), 1e-13)


class TestLaws:
    def test_associativity_distributivity(self, rng):
        for L, count in ((3, 1000), (7, 50), (8, 50)):
            for _ in range(count):
                a = random_element(rng, L)
                b = random_element(rng, L)
                c = random_element(rng, L)
                assert ((a * b) * c).equals(a * (b * c), 1e-12)
                assert (a * (b + c)).equals(a * b + a * c, 1e-12)

    def test_merge_sign_by_reordering(self):
        # t2*t1*t3 needs one transposition to sort
        assert merge_sign(0b010, 0b101) == -1.0
        assert merge_sign(0b001, 0b110) == 1.0
        assert merge_sign(0b011, 0b010) == 0.0


class TestProductKernel:
    @pytest.mark.parametrize("L", range(MAX_GENERATORS + 1))
    def test_mul_dense_matches_reference(self, rng, L):
        for _ in range(1 if L >= 10 else 3):
            a, b = rng.uniform(-1.0, 1.0, (2, dim(L)))
            np.testing.assert_allclose(mul_dense(a, b, L),
                                       reference_product(a, b, L),
                                       rtol=0, atol=1e-12)

    @pytest.mark.parametrize("L", range(MAX_GENERATORS + 1))
    def test_batched_mul_matches_rows(self, rng, L):
        # the (n,n,1,D) x (1,n,n,D) broadcast of the Christoffel contraction
        n = 3 if L < 10 else 2
        a = rng.uniform(-1.0, 1.0, (n, n, 1, dim(L)))
        b = rng.uniform(-1.0, 1.0, (1, n, n, dim(L)))
        out = batched_mul(a, b, L)
        assert out.shape == (n, n, n, dim(L))
        for i, j, k in np.ndindex(n, n, n):
            np.testing.assert_allclose(out[i, j, k],
                                       mul_dense(a[i, j, 0], b[0, j, k], L),
                                       rtol=0, atol=1e-12)

    @pytest.mark.parametrize("L", range(7))
    def test_mul_dense_rows_equal_single_products(self, rng, L):
        # At L = 2 a coefficient of a mixed-parity product sums four terms,
        # which a gemm over many rows associates unlike a single gemv.
        a, b = rng.uniform(-1.0, 1.0, (2, 25, dim(L)))
        rows, bcast = mul_dense(a, b, L), mul_dense(a[3], b, L)
        for r in range(25):
            assert np.array_equal(rows[r], mul_dense(a[r], b[r], L))
            assert np.array_equal(bcast[r], mul_dense(a[3], b[r], L))

    def test_chunked_batch_equals_unchunked_rows(self, rng):
        L = MAX_GENERATORS
        a = rng.uniform(-1.0, 1.0, (3, 1, dim(L)))
        b = rng.uniform(-1.0, 1.0, (1, 3, dim(L)))
        assert 9 * 3 ** L > grassmann._CHUNK_ELEMENTS >= 3 ** L
        out = batched_mul(a, b, L)
        for i, j in np.ndindex(3, 3):
            assert np.array_equal(out[i, j], mul_dense(a[i, 0], b[0, j], L))


class TestBodySoul:
    def test_examples(self):
        body, soul = (2 + G.basis(0b11, 2)).body_soul()
        assert body == 2.0
        assert soul == G.basis(0b11, 2)
        assert G.from_scalar(5.0, 2).body_soul() == (5.0, G.zero(2))
        t1 = G.generator(0, 2)
        assert t1.body_soul() == (0.0, t1)

    def test_soul_nilpotent(self, rng):
        a = random_element(rng, 4, parity=0)
        s = a.soul
        power = G.from_scalar(1.0, 4)
        for _ in range(dim(4).bit_length()):
            power = power * s
        assert power.is_zero()


class TestSerialization:
    def test_pairs_roundtrip(self, rng):
        a = random_element(rng, 3)
        again = G.from_pairs(a.to_pairs(), 3)
        assert a == again

    def test_text_rendering(self):
        a = 2 + 0.5 * G.basis(0b11, 2)
        assert str(a) == "2 + 0.5*t1^t2"
        assert str(G.zero(1)) == "0"

    def test_equality_tolerance(self):
        a = G.from_scalar(1.0, 1)
        b = G.from_scalar(1.0 + 1e-13, 1)
        assert a != b
        assert a.equals(b, 1e-12)


class TestStripGenerator:
    def test_left_derivative_sign(self):
        # d/dt2 (t1^t2) = -t1: stripping t2 passes t1
        arr = G.basis(0b11, 2).coeffs
        out = strip_generator(arr, 2, 1)
        assert out[0b01] == -1.0
        out0 = strip_generator(arr, 2, 0)
        assert out0[0b10] == 1.0

    def test_absent_generator(self):
        arr = G.basis(0b01, 2).coeffs
        assert not strip_generator(arr, 2, 1).any()
