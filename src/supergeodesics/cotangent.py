"""Energy function, Hamiltonian field and geodesic flow on the cotangent chart.

The flow field is defined by its component equations

    dq_i/dt = sum_j p_j * g^{ji}
    dp_i/dt = -1/2 sum_{k,j} (-1)^{|q_i||q_k|} p_k * d_{q_i}(g^{kj}) * p_j

with H = 1/2 sum_{i,j} p_i * g^{ij} * p_j, all factor orders exactly as
written.  No graded differential forms are represented; these equations are
the definition used here.  The partials of the inverse metric come from
differentiating sum_k g^{ik} g_{kj} = delta_ij pointwise.

Musical maps: `flat` lowers a velocity to momenta (p_j = sum_i v_i * g_ij),
`sharp` raises momenta to a velocity (v_i = sum_j p_j * g^{ji}); they are
mutually inverse.

`energy_series` and the round trip's lowered velocities run batched, one
kernel call per chunk of samples (`geometry._chunks`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from .geodesics import InitialCondition, Trajectory, _record, _run, _Samples
from .geometry import MetricChart, SuperPoint, _chunks, _Kernel
from .grassmann import GrassmannElement, Prepared, _Frozen, batched_mul, \
    mask_parity, prepare


# ---------------------------------------------------------------------------
# phase-space data


class PhasePoint(_Frozen):
    """A point of the cotangent chart: position plus momenta p_i with
    parity |p_i| = |q_i|, checked by the coordinate values rule of
    `ChartSignature` (a missing momentum is zero)."""

    __slots__ = ("position", "momenta")

    def __init__(self, position: SuperPoint,
                 momenta: Mapping[str, GrassmannElement]):
        self._init(position=position,
                   momenta=position.sig.graded(position.L, momenta, "momentum"))

    @property
    def L(self) -> int:
        return self.position.L

    def momentum_array(self) -> np.ndarray:
        return self.position.sig.pack(self.momenta)


@dataclass
class FlowState(_Samples):
    """Trajectory of the geodesic flow on the cotangent chart."""

    sig: object
    L: int
    ts: np.ndarray
    positions: np.ndarray  # (T, n, 2^L)
    momenta: np.ndarray    # (T, n, 2^L)
    metadata: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# energy and Hamiltonian field


def _energy(kern: _Kernel, pos: np.ndarray, mom: np.ndarray) -> np.ndarray:
    ginv = kern.fields(pos)[0]
    t1 = batched_mul(mom[..., :, None, :], ginv, kern.L)  # [i,j] = p_i g^{ij}
    t2 = batched_mul(t1, mom[..., None, :, :], kern.L)    # [i,j] = p_i g^{ij} p_j
    return 0.5 * t2.sum(axis=(-3, -2))


def energy_at(chart: MetricChart, s: PhasePoint) -> GrassmannElement:
    """H = 1/2 sum_{i,j} p_i * g^{ij} * p_j (an even element)."""
    chart.check_point(s.position)
    kern = chart.kernel(s.L)
    return GrassmannElement(
        s.L, _energy(kern, s.position.as_array(), s.momentum_array()))


def _xh(kern: _Kernel, pos: np.ndarray, mom: np.ndarray):
    """Component equations of the Hamiltonian field at a phase point."""
    ginv, dG = kern.fields(pos)
    ginv = prepare(ginv, kern.L)  # the right factor of qdot and of dginv
    qdot = _sharp_arrays(kern, ginv, mom)  # dq_i = sum_j p_j * g^{ji}
    if kern.is_flat:
        return qdot, np.zeros_like(mom)
    dginv = kern.dginv(ginv, dG)  # [a,k,j] = d_a g^{kj}
    # dp_i = -1/2 sum_{k,j} (-1)^{|q_i||q_k|} p_k * d_i(g^{kj}) * p_j
    u = batched_mul(mom[..., None, :, None, :], dginv, kern.L)  # p_k d_i g^{kj}
    u = batched_mul(u, mom[..., None, None, :, :], kern.L)      # [i,k,j] *= p_j
    u = kern.s1[:, :, None, None] * u                           # (-1)^{|i||k|}
    pdot = -0.5 * u.sum(axis=(-3, -2))
    return qdot, pdot


def _flow_rhs(kern: _Kernel, st: np.ndarray) -> np.ndarray:
    """d/dt of the flow state (pos, mom), one (..., 2n, 2^L) array."""
    n = kern.n
    return np.concatenate(_xh(kern, st[..., :n, :], st[..., n:, :]), axis=-2)


def xh_at(chart: MetricChart, s: PhasePoint):
    """(dq_i/dt, dp_i/dt) of the geodesic flow field at a phase point."""
    chart.check_point(s.position)
    kern = chart.kernel(s.L)
    qdot, pdot = _xh(kern, s.position.as_array(), s.momentum_array())
    return chart.sig.unpack(s.L, qdot), chart.sig.unpack(s.L, pdot)


# ---------------------------------------------------------------------------
# flow integration


def integrate_flow(chart: MetricChart, I: PhasePoint,
                   t_end: float, dt: float) -> FlowState:
    """Fixed-step RK4 for the Hamiltonian flow; deterministic output."""
    _, samples, _, grid = _run(chart, (I.position, I.momentum_array()),
                               _flow_rhs, t_end, dt)
    return _record(FlowState, chart, I.L, t_end, dt, grid, samples)


def energy_series(chart: MetricChart, flow: FlowState) -> np.ndarray:
    """H at every sample of a flow, shape (n_samples, 2^L)."""
    kern = chart.kernel(flow.L)
    out = np.empty((len(flow), kern.D))
    for c in _chunks(len(flow), kern.n, kern.D):
        out[c] = _energy(kern, flow.positions[c], flow.momenta[c])
    return out


def parity_violation_max(flow: FlowState) -> float:
    """Largest coefficient sitting on a wrong-parity mask (should be 0.0)."""
    wrong = mask_parity(flow.L) != flow.sig.parity_vector()[:, None]  # [i, mask]
    if not wrong.any():
        return 0.0
    return max(float(np.max(np.abs(arr[:, wrong])))
               for arr in (flow.positions, flow.momenta))


# ---------------------------------------------------------------------------
# musical isomorphisms


def _flat_arrays(kern: _Kernel, pos: np.ndarray, vel: np.ndarray) -> np.ndarray:
    G = kern.eval_metric(pos)
    t = batched_mul(vel[..., :, None, :], G, kern.L)  # [i,j] = v_i g_ij
    return t.sum(axis=-3)


def _sharp_arrays(kern: _Kernel, ginv: np.ndarray | Prepared,
                  mom: np.ndarray) -> np.ndarray:
    t = batched_mul(mom[..., :, None, :], ginv, kern.L)  # [j,i] = p_j g^{ji}
    return t.sum(axis=-3)


def flat(chart: MetricChart, pos: SuperPoint,
         velocity: Mapping[str, GrassmannElement]) -> dict[str, GrassmannElement]:
    """Lower a velocity to momenta: p_j = sum_i v_i * g_ij at the position."""
    chart.check_point(pos)
    kern = chart.kernel(pos.L)
    p = _flat_arrays(kern, pos.as_array(), chart.sig.pack(velocity))
    return chart.sig.unpack(pos.L, p)


def sharp(chart: MetricChart, pos: SuperPoint,
          momenta: Mapping[str, GrassmannElement]) -> dict[str, GrassmannElement]:
    """Raise momenta to a velocity: v_i = sum_j p_j * g^{ji} at the position."""
    chart.check_point(pos)
    kern = chart.kernel(pos.L)
    ginv = kern.fields(pos.as_array())[0]
    v = _sharp_arrays(kern, ginv, chart.sig.pack(momenta))
    return chart.sig.unpack(pos.L, v)


def phase_from_ic(chart: MetricChart, ic: InitialCondition) -> PhasePoint:
    """The flat-mapped phase point of a tangent initial condition."""
    return PhasePoint(ic.position, flat(chart, ic.position, ic.velocity))


# ---------------------------------------------------------------------------
# the geodesic / flow round trip


@dataclass
class RoundtripReport:
    """Agreement between geodesic integration and the projected flow."""

    flow_to_geodesic_dev: float   # positions of the flow vs the geodesic
    geodesic_to_flow_dev: float   # lowered geodesic velocity vs flow momenta
    initial_velocity_dev: float   # sharp(flat(v0)) vs v0 at t=0

    @property
    def max_dev(self) -> float:
        return max(self.flow_to_geodesic_dev, self.geodesic_to_flow_dev)


def roundtrip_check(chart: MetricChart, traj: Trajectory,
                    flow: FlowState) -> RoundtripReport:
    """Both directions of the geodesic / integral-curve correspondence.

    `traj` is an integrated geodesic and `flow` the flow integrated from its
    lowered initial condition (`phase_from_ic`) on the same time grid.
    (a) compare the projected flow positions with the geodesic; (b) lower the
    geodesic velocity along the curve and compare with the flow momenta.
    """
    if traj.L != flow.L or not np.array_equal(traj.ts, flow.ts):
        raise ValueError("geodesic and flow differ in L or time grid")
    kern = chart.kernel(traj.L)

    dev_a = float(np.max(np.abs(flow.positions - traj.positions)))

    dev_b = 0.0
    for c in _chunks(len(traj), kern.n, kern.D):
        p = _flat_arrays(kern, traj.positions[c], traj.velocities[c])
        dev_b = max(dev_b, float(np.max(np.abs(p - flow.momenta[c]))))

    ginv0 = kern.fields(traj.positions[0])[0]
    v_back = _sharp_arrays(kern, ginv0, flow.momenta[0])
    dev_init = float(np.max(np.abs(v_back - traj.velocities[0])))

    return RoundtripReport(dev_a, dev_b, dev_init)
