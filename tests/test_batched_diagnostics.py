"""The per-sample diagnostics run batched over the time axis, in chunks of
`geometry._chunks`; every batched value must have the bits of the
single-sample loop kept here as the reference.

Curves are random parity-correct arrays with bodies inside the chart box (the
diagnostics do not need a geodesic), with a sample count smaller than one
chunk and one that is not a multiple of the chunk.
"""

import numpy as np
import pytest

from supergeodesics.cotangent import (
    FlowState,
    energy_series,
    parity_violation_max,
    roundtrip_check,
)
from supergeodesics.errors import NonHomogeneousField
from supergeodesics.expmap import isometry_check
from supergeodesics.geodesics import (
    Trajectory,
    _connection,
    _time_derivative,
    covariant_derivative_t,
    covariant_derivative_theta,
    metric_speed,
)
from supergeodesics.geometry import SuperPoint, _chunks
from supergeodesics.grassmann import batched_mul, dim, mask_parity, strip_generator
from supergeodesics.superexpr import (
    Const,
    SuperMorphism,
    add,
    eval_dense,
    mul,
    partial_derivative,
    substitute,
)


def chunk_rows(chart, L):
    return next(_chunks(1 << 30, chart.sig.dimension, dim(L))).stop


def random_curve(chart, L, T, rng):
    """(positions, velocities, momenta), each (T, n, 2^L) and parity-correct;
    even bodies of the positions in (-0.5, 0.5)."""
    sig = chart.sig
    n, D = sig.dimension, dim(L)
    allowed = mask_parity(L)[None, :] == sig.parity_vector()[:, None]
    pos, vel, mom = (rng.uniform(-s, s, (T, n, D)) * allowed
                     for s in (0.2, 0.5, 0.5))
    pos[:, :sig.n_even, 0] = rng.uniform(-0.5, 0.5, (T, sig.n_even))
    return pos, vel, mom


def reference_connection(kern, positions, X, Y, out):
    for s in range(len(positions)):
        gamma = kern.christoffel(positions[s])
        out[s] += _connection(kern, gamma, X[s], Y[s])
    return out


def reference_isometry_dev(m_src, m_dst, phi, points):
    """max over the points and (i, j) of |g^src_ij - sum_{k,l}
    (-1)^{|q_k|(|q_j|+|q_l|)} d_i Phi*(q_k) d_j Phi*(q_l) Phi*(g^dst_kl)|,
    each side its own `eval_dense` at one point."""
    src, dst = m_src.sig, m_dst.sig
    ps, pt = src.parity_vector(), dst.parity_vector()
    d = [[partial_derivative(phi.pullbacks[qk], qi, src) for qk in dst.names]
         for qi in src.names]
    pulled = [[substitute(e, phi.pullbacks) for e in row]
              for row in m_dst.entries]
    rhs = [[add(*(mul(Const(-1.0 if (pt[k] * (ps[j] + pt[l])) % 2 else 1.0),
                      d[i][k], d[j][l], pulled[k][l])
                  for k in range(dst.dimension)
                  for l in range(dst.dimension)))
            for j in range(src.dimension)] for i in range(src.dimension)]
    dev = 0.0
    for p in points:
        env = {name: v.coeffs for name, v in p.values.items()}
        for i in range(src.dimension):
            for j in range(src.dimension):
                diff = (eval_dense(m_src.entries[i][j], env, p.L)
                        - eval_dense(rhs[i][j], env, p.L))
                dev = max(dev, float(np.max(np.abs(diff))))
    return dev


# L = 4 on a 1|2 chart: chunks sized by the gathered pairs of `_chunks`
CASES = [(chart, L, size) for chart in ("c1x_r12", "curved_r22")
         for L in range(4) for size in ("small", "ragged")] + [
    ("c1x_r12", 4, size) for size in ("small", "ragged")]


@pytest.mark.parametrize("n, L, rows", [
    (3, 3, 6),   # 8 B * 3^4 * (2^3)^2 dense outer products: 41 KB per row
    (3, 4, 4),   # 8 B * 3^4 * 3^4 gathered pairs: 52 KB per row
    (2, 5, 8),   # 8 B * 2^4 * 3^5: 31 KB per row
    (4, 6, 1),   # 8 B * 4^4 * 3^6: 1.5 MB, already one row over the target
])
def test_chunk_rows_from_product_temporary(n, L, rows):
    assert next(_chunks(1 << 30, n, dim(L))).stop == rows


@pytest.fixture(params=CASES, ids=lambda c: f"{c[0]}-L{c[1]}-{c[2]}")
def case(request, rng):
    name, L, size = request.param
    chart = request.getfixturevalue(name)
    step = chunk_rows(chart, L)
    assert step > 1
    T = step - 1 if size == "small" else 2 * step + 1
    pos, vel, mom = random_curve(chart, L, T, rng)
    ts = np.arange(T) * 1e-2
    traj = Trajectory(chart.sig, L, ts, pos, vel, {"dt": 1e-2})
    flow = FlowState(chart.sig, L, ts, pos.copy(), mom, {"dt": 1e-2})
    return chart, chart.kernel(L), traj, flow


def test_covariant_derivative_t(case):
    chart, kern, traj, _ = case
    if len(traj) < 5:
        pytest.skip("a chunk here holds fewer samples than the time stencil")
    X = traj.velocities
    ref = reference_connection(kern, traj.positions, X, traj.velocities,
                               _time_derivative(X, traj.dt))
    assert np.array_equal(covariant_derivative_t(chart, traj, X), ref)


def test_covariant_derivative_theta(case):
    chart, kern, traj, _ = case
    X = traj.velocities  # even field: |X(q_k)| = |q_k|
    signs = np.where(traj.sig.parity_vector() % 2, -1.0, 1.0)
    ref = reference_connection(kern, traj.positions, signs[None, :, None] * X,
                               strip_generator(traj.positions, traj.L, 0),
                               strip_generator(X, traj.L, 0))
    assert np.array_equal(covariant_derivative_theta(chart, traj, X), ref)


def test_metric_speed(case):
    chart, kern, traj, _ = case
    ref = np.empty((len(traj), kern.D))
    for s in range(len(traj)):
        G = kern.eval_metric(traj.positions[s])
        v = traj.velocities[s]
        vv = batched_mul(v[:, None, :], v[None, :, :], kern.L)
        ref[s] = batched_mul(vv, G.transpose(1, 0, 2), kern.L).sum(axis=(0, 1))
    assert np.array_equal(metric_speed(chart, traj), ref)


def test_energy_series(case):
    chart, kern, _, flow = case
    ref = np.empty((len(flow), kern.D))
    for s in range(len(flow)):
        ginv = kern.fields(flow.positions[s])[0]
        p = flow.momenta[s]
        t1 = batched_mul(p[:, None, :], ginv, kern.L)
        ref[s] = 0.5 * batched_mul(t1, p[None, :, :], kern.L).sum(axis=(0, 1))
    assert np.array_equal(energy_series(chart, flow), ref)


def test_roundtrip_lowered_velocity(case):
    chart, kern, traj, flow = case
    ref = 0.0
    for s in range(len(traj)):
        G = kern.eval_metric(traj.positions[s])
        p = batched_mul(traj.velocities[s][:, None, :], G, kern.L).sum(axis=0)
        ref = max(ref, float(np.max(np.abs(p - flow.momenta[s]))))
    assert roundtrip_check(chart, traj, flow).geodesic_to_flow_dev == ref


def test_isometry_check(case):
    chart, _, traj, _ = case
    # not an isometry, so the condition has a deviation to report
    scale = SuperMorphism(chart.sig, chart.sig,
                          {n: f"{n}*(1 + 0.01*x)" if n == "x" else n
                           for n in chart.sig.names})
    points = [SuperPoint.from_array(chart.sig, traj.L, p)
              for p in traj.positions[:40]]
    ref = reference_isometry_dev(chart, chart, scale, points)
    assert ref > 0.0
    assert isometry_check(chart, chart, scale, points) == ref


def test_parity_violation_max(case):
    _, _, _, flow = case
    par, mpar = flow.sig.parity_vector(), mask_parity(flow.L)
    flow.momenta[len(flow) // 2, -1, 0] = -0.37  # an odd slot on the body mask
    if flow.L:
        flow.positions[-1, 0, 1] = 0.25          # an even slot on an odd mask
    ref = 0.0
    for arr in (flow.positions, flow.momenta):
        for i in range(arr.shape[1]):
            wrong = mpar != par[i]
            if wrong.any():
                ref = max(ref, float(np.max(np.abs(arr[:, i, wrong]))))
    assert ref == 0.37
    assert parity_violation_max(flow) == ref


def test_theta_rejects_mixed_field(case):
    chart, _, traj, _ = case
    X = traj.velocities.copy()
    X[-1, -1, 0] = 1.0  # an odd slot on the body mask: |X| would be 1 there
    with pytest.raises(NonHomogeneousField):
        covariant_derivative_theta(chart, traj, X)
