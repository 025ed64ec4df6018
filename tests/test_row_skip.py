"""Products a right-hand side skips, bit for bit (L = 4, 5, 6).

Above `grassmann._TENSOR_MAX` the kernel multiplies only the product rows
that can be nonzero, and prepares the right factors it reuses:

* the two Christoffel blocks of Goertsches mode are slices of the table;
* the Christoffel table and `dginv`, with the rows of structurally zero
  bracket entries and partials skipped, are `np.array_equal` to the dense
  contraction below, written with the pair-term product as it was before
  factors were prepared;
* a paper-mode, a Goertsches and a flow run at L = 6 equal the runs with
  that dense reference patched in, in every bit and every sign of zero;
* batched rows equal serial runs;
* a prepared right factor gives the bits of the plain one, unchunked and
  in chunks;
* the assumption the skip rests on: dropping an all-zero row from the
  contraction sum keeps every nonzero bit;
* the work count: product rows per right-hand side on a 2|2 chart at L = 6.

Charts: `curved_r22` and a 2|2 chart with random coefficients whose
partials include constant nonzero ones and structural zeros.
"""

import numpy as np
import pytest

from supergeodesics import grassmann
from supergeodesics.cotangent import PhasePoint, _flow_rhs, integrate_flow
from supergeodesics.geodesics import (
    InitialCondition,
    _goertsches_rhs,
    _grid,
    _paper_rhs,
    _rk4,
    integrate_geodesic,
    integrate_goertsches,
)
from supergeodesics.geometry import MetricChart, SuperPoint, _Kernel
from supergeodesics.grassmann import _pairs, batched_mul, dim, mul_dense, prepare
from supergeodesics.superexpr import ChartSignature
from supergeodesics.verify import random_superpoint

LS = (4, 5, 6)


def sparse_r22(seed: int) -> MetricChart:
    """A 2|2 chart with random coefficients: d_x g_xx and d_th1 g_x,th1 are
    nonzero constants, and most partials are structural zeros."""
    rng = np.random.default_rng(seed)
    a, b, c, d, e, f = (f"{rng.uniform(0.05, 0.3):.4f}" for _ in range(6))
    odd = f"{d}*th2 + {e}*y*th1"
    return MetricChart(ChartSignature(("x", "y"), ("th1", "th2")), [
        [f"1 + {a}*x", "0", f"{b}*th1", "0"],
        ["0", f"1 + {c}*x*y", "0", odd],
        [f"{b}*th1", "0", "0", f"1 + {f}*y"],
        ["0", odd, f"-(1 + {f}*y)", "0"]],
        {"x": (-1.0, 1.0), "y": (-1.0, 1.0)}, name=f"sparse_r22_{seed}")


@pytest.fixture(params=["curved_r22", "sparse_r22"])
def chart(request):
    if request.param == "sparse_r22":
        return sparse_r22(7)
    return request.getfixturevalue(request.param)


def reference_mul(a, b, L):
    """The product above `_TENSOR_MAX` as one pair-term expression, with the
    sign on the left factor and nothing prepared."""
    I, J, S, starts = _pairs(L)
    b = getattr(b, "coeffs", b)
    return np.add.reduceat(np.take(a, I, -1) * S * np.take(b, J, -1),
                           starts, axis=-1)


def dense_christoffel(kern, pos, blocks=None):
    """Gamma[k, i, j] from every n^4 row of the contraction."""
    ginv, dG = kern.fields(pos)
    bracket = kern._make_bracket(dG)
    tmp = reference_mul(bracket[..., None, :], ginv[..., None, None, :, :, :],
                        kern.L)
    gamma = np.moveaxis(0.5 * tmp.sum(axis=-3), -2, -4)  # [i,j,k] -> [k,i,j]
    if blocks is None:
        return gamma
    return tuple(gamma[..., k, i, j, :] for k, i, j in blocks)


def dense_dginv(kern, ginv, dG):
    """d_a g^{ij} from every n^4 row of both products."""
    ginv = getattr(ginv, "coeffs", ginv)
    tmp = reference_mul(ginv[..., None, :, :, None, :],
                        dG[..., :, None, :, :, :], kern.L)
    step1 = (kern.s3[:, :, :, None, None] * tmp).sum(axis=-3)
    tmp2 = reference_mul(step1[..., :, :, :, None, :],
                         ginv[..., None, None, :, :, :], kern.L)
    return -tmp2.sum(axis=-3)


def dense_inverse(kern, G):
    """The Neumann series with N gathered again for every term."""
    body_inv = np.linalg.inv(G[..., 0])
    flat = G.reshape(G.shape[:-2] + (kern.n * kern.D,))
    N = (body_inv @ flat).reshape(G.shape) - kern._eye
    X = kern._eye
    if np.count_nonzero(N):
        term = -N
        X = X + term
        for _ in range(kern.L - 1):
            tmp = reference_mul(term[..., :, :, None, :], N[..., None, :, :, :],
                                kern.L)
            term = -tmp.sum(axis=-3)
            if not np.count_nonzero(term):
                break
            X = X + term
    return (X.swapaxes(-1, -2) @ body_inv[..., None, :, :]).swapaxes(-1, -2)


def states(chart, L, rows, seed):
    """`rows` random (position, velocity) pairs, stacked; positions halved
    toward 0 so that short runs stay inside the box."""
    rng = np.random.default_rng(seed)
    pos = np.stack([random_superpoint(chart, L, rng).as_array()
                    for _ in range(rows)])
    vel = np.stack([random_superpoint(chart, L, rng).as_array()
                    for _ in range(rows)])
    return 0.5 * pos, vel


def assert_same_bits(x, y):
    assert np.array_equal(x, y)
    assert np.array_equal(np.signbit(x), np.signbit(y))


# ---------------------------------------------------------------------------
# the layers against the dense reference


@pytest.mark.parametrize("L", LS)
def test_goertsches_blocks_are_slices_of_the_table(chart, L):
    kern = chart.kernel(L)
    pos = states(chart, L, 3, L)[0]
    m = chart.sig.n_even
    even, odd = slice(None, m), slice(m, None)
    blocks = ((even, even, even), (odd, even, odd))
    table = kern.christoffel(pos)
    for block, (k, i, j) in zip(kern.christoffel(pos, blocks), blocks):
        assert np.array_equal(block, table[..., k, i, j, :])


@pytest.mark.parametrize("L", LS)
@pytest.mark.parametrize("batch", [(), (3,)])
def test_layers_equal_dense_reference(chart, L, batch):
    kern = chart.kernel(L)
    assert kern._dginv_rows is not None  # the skip is on above _TENSOR_MAX
    pos = states(chart, L, 3, 10 + L)[0]
    pos = pos[0] if batch == () else pos
    G, dG = kern._eval_live(pos)
    ginv = kern.inverse(G)
    assert np.array_equal(ginv, dense_inverse(kern, G))
    assert np.array_equal(kern.christoffel(pos), dense_christoffel(kern, pos))
    assert np.array_equal(kern.dginv(ginv, dG), dense_dginv(kern, ginv, dG))


def test_skip_is_off_up_to_the_tensor_cutoff(chart):
    # at L <= 3 every `batched_mul` product is a BLAS call, whose rows keep
    # their bits only while their count does not change
    for L in range(grassmann._TENSOR_MAX + 1):
        kern = chart.kernel(L)
        assert kern._dginv_rows is None
        assert kern._block_rows(slice(None), slice(None)) is None


# ---------------------------------------------------------------------------
# whole runs


def test_runs_at_l6_equal_dense_runs(chart, monkeypatch):
    L, m = 6, chart.sig.n_even
    pos, vel = states(chart, L, 1, 6)
    ic = InitialCondition(L, SuperPoint.from_array(chart.sig, L, pos[0]),
                          chart.sig.unpack(L, vel[0]))
    phase = PhasePoint(ic.position, chart.sig.unpack(L, vel[0]))

    def runs():
        paper = integrate_geodesic(chart, ic, 0.02, 0.01)
        goertsches = integrate_goertsches(chart, ic, 0.02, 0.01)
        flow = integrate_flow(chart, phase, 0.02, 0.01)
        return (paper.positions, paper.velocities, goertsches.positions,
                goertsches.velocities, flow.positions, flow.momenta)

    skipped = runs()
    # the dense reference in the kernel and the product
    monkeypatch.setattr(grassmann, "_mul", reference_mul)
    monkeypatch.setattr(_Kernel, "christoffel", dense_christoffel)
    monkeypatch.setattr(_Kernel, "dginv", dense_dginv)
    monkeypatch.setattr(_Kernel, "inverse", dense_inverse)
    for got, want in zip(skipped, runs()):
        assert_same_bits(got, want)
    # the odd velocities of Goertsches mode are first stages, unsummed
    assert skipped[3][:, m:].any()


@pytest.mark.parametrize("L", LS)
@pytest.mark.parametrize("mode", ["paper", "goertsches", "flow"])
def test_batched_rows_equal_serial_runs(chart, L, mode):
    rows, m = 3, chart.sig.n_even
    pos, vel = states(chart, L, rows, 20 + L)
    kern = chart.kernel(L)
    if mode == "goertsches":
        state = np.concatenate((pos, vel[:, :m]), axis=-2)
        rhs = lambda s: _goertsches_rhs(kern, m, s)  # noqa: E731
    else:
        state = np.concatenate((pos, vel), axis=-2)
        rhs = (lambda s: _paper_rhs(kern, s)) if mode == "paper" else \
            (lambda s: _flow_rhs(kern, s))
    steps, h = _grid(0.02, 0.01)
    final = _rk4(rhs, state, h, steps, chart)[0]
    for r in range(rows):
        alone = _rk4(rhs, state[r], h, steps, chart)[0]
        assert_same_bits(final[r], alone)


# ---------------------------------------------------------------------------
# the prepared factor


@pytest.mark.parametrize("L, a_rows, b_rows", [
    (4, (3, 1), (1, 3)),
    (10, (4, 4, 1), (1, 4, 4)),  # rows(a) * rows(b) over the cap, 64 rows not
    (12, (3, 1), (1, 3)),        # 9 rows of 3^12 pairs: in chunks
])
def test_prepared_factor_keeps_the_bits(L, a_rows, b_rows):
    rng = np.random.default_rng(L)
    a = rng.uniform(-1.0, 1.0, a_rows + (dim(L),))
    b = rng.uniform(-1.0, 1.0, b_rows + (dim(L),))
    a[..., ::5] = 0.0
    b[..., ::3] = -0.0
    out = batched_mul(a, prepare(b, L), L)
    assert_same_bits(out, batched_mul(a, b, L))
    row = (1,) * (len(a_rows) - 1) + (2,)
    assert_same_bits(out[row], mul_dense(a[row[:-1] + (0,)], b[(0,) + row[1:]], L))


# ---------------------------------------------------------------------------
# the assumption, and the work count


def test_dropped_zero_row_keeps_nonzero_bits():
    # the contraction sums along axis -3; an all-zero row there, of either
    # sign, changes no nonzero bit of the sum and at most the sign of a zero
    rng = np.random.default_rng(5)
    tmp = rng.uniform(-1.0, 1.0, (3, 4, 5, 2, 64))
    tmp[..., ::7] = 0.0  # coefficients that are zero in every row
    for row in range(5):
        for zero in (0.0, -0.0):
            with_zero = tmp.copy()
            with_zero[..., row, :, :] = zero
            dropped = with_zero.copy()
            dropped[..., row, :, :] = 0.0
            got, want = dropped.sum(axis=-3), with_zero.sum(axis=-3)
            nonzero = want != 0.0
            assert np.array_equal(got[nonzero], want[nonzero])
            assert not got[~nonzero].any()


def test_product_rows_per_rhs_at_l6(curved_r22, monkeypatch):
    # a return to the dense contraction (673, 617 and 993 rows) fails here
    L, m = 6, curved_r22.sig.n_even
    kern = curved_r22.kernel(L)
    pos, vel = states(curved_r22, L, 1, 3)
    st = np.concatenate((pos[0], vel[0]))
    rows, inner = [0], grassmann._mul

    def counting(a, b, L):
        b_shape = getattr(b, "coeffs", b).shape
        rows[0] += int(np.prod(np.broadcast_shapes(a.shape[:-1], b_shape[:-1])))
        return inner(a, b, L)

    monkeypatch.setattr(grassmann, "_mul", counting)
    for rhs, state, most in ((_paper_rhs, st, 501),
                             (lambda k, s: _goertsches_rhs(k, m, s), st[:6], 385),
                             (_flow_rhs, st, 809)):
        rows[0] = 0
        rhs(kern, state)
        assert rows[0] <= most
