"""Supergeodesic integration and covariant derivatives along a curve.

Two notions of geodesic are integrated on a fixed time grid with classical
RK4, expanding every coordinate into its 2^L Grassmann coefficients (the
expanded system is a smooth real ODE, so the integration is deterministic):

* "paper" mode: the second-order system
      d2/dt2 q_k + sum_{i,j} (dq_i/dt) * (dq_j/dt) * Gamma^k_ji = 0
  for every coordinate, even and odd alike.
* "goertsches" mode: second-order in the even coordinates (with the sum
  restricted to even indices) and first-order in the odd ones,
      d/dt o_d + sum_{i even, b odd} o_b * (dq_i/dt) * Gamma^d_ib = 0.
  Odd coordinates carry value-only initial data; odd velocity entries of the
  initial condition are ignored in this mode.

Both modes, the cotangent flow and the batched exponential map step through
the one RK4 loop `_rk4`, which also turns a failing stage or a non-finite
state into a typed error that names t.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from .errors import (
    DomainError,
    GridTooShort,
    IntegrationFailure,
    LeftDomain,
    MismatchedGeneratorCount,
    NonHomogeneousField,
    ParityViolation,
    SignatureMismatch,
    SuperGeometryError,
)
from .geometry import MetricChart, SuperPoint, _Kernel
from .grassmann import (
    GrassmannElement,
    Parity,
    batched_mul,
    dim,
    mask_parity,
    strip_generator,
)


# ---------------------------------------------------------------------------
# initial data and trajectories


class InitialCondition:
    """Grassmann-valued position and velocity data for a geodesic.

    Encodes a morphism from the odd parameter space with L generators into
    the tangent bundle: each coordinate gets a position value and a velocity
    value of the coordinate's own parity.
    """

    __slots__ = ("L", "position", "velocity")

    def __init__(self, L: int, position: SuperPoint,
                 velocity: Mapping[str, GrassmannElement]):
        if position.L != L:
            raise MismatchedGeneratorCount(
                f"position has L={position.L}, expected {L}")
        sig = position.sig
        vel: dict[str, GrassmannElement] = {}
        for name in sig.names:
            v = velocity.get(name, GrassmannElement.zero(L))
            if v.L != L:
                raise MismatchedGeneratorCount(f"velocity {name}: L={v.L}")
            want = Parity.EVEN if sig.parity_of(name) == 0 else Parity.ODD
            if not v.has_parity(want):
                raise ParityViolation(
                    f"velocity of {name} must be {want.name.lower()}")
            vel[name] = v
        object.__setattr__(self, "L", L)
        object.__setattr__(self, "position", position)
        object.__setattr__(self, "velocity", vel)

    def __setattr__(self, name, value):
        raise AttributeError("InitialCondition is immutable")

    def velocity_array(self) -> np.ndarray:
        sig = self.position.sig
        return np.stack([self.velocity[name].coeffs for name in sig.names])


@dataclass
class Trajectory:
    """Time-ordered samples of a supercurve and its velocity.

    Stored struct-of-arrays: positions and velocities have shape
    (n_samples, n_coords, 2^L) in signature order.
    """

    sig: object
    L: int
    ts: np.ndarray
    positions: np.ndarray
    velocities: np.ndarray
    metadata: dict = field(default_factory=dict)

    def __len__(self):
        return len(self.ts)

    def position_at(self, idx: int) -> SuperPoint:
        return SuperPoint.from_array(self.sig, self.L, self.positions[idx])

    def velocity_at(self, idx: int) -> dict[str, GrassmannElement]:
        return {name: GrassmannElement(self.L, self.velocities[idx, i])
                for i, name in enumerate(self.sig.names)}

    def samples(self):
        for idx, t in enumerate(self.ts):
            yield float(t), self.position_at(idx), self.velocity_at(idx)

    @property
    def dt(self) -> float:
        return float(self.metadata.get("dt", self.ts[1] - self.ts[0]))


# ---------------------------------------------------------------------------
# right-hand sides


def _acceleration(kern: _Kernel, pos: np.ndarray, vel: np.ndarray) -> np.ndarray:
    """a_k = -sum_{i,j} v_i * v_j * Gamma^k_ji, in exactly that factor order."""
    if kern.is_flat:
        return np.zeros_like(pos)
    gamma = kern.christoffel(kern.env(pos))
    # vv[i,j] = v_i v_j
    vv = batched_mul(vel[..., :, None, :], vel[..., None, :, :], kern.L)
    gt = gamma.swapaxes(-3, -2)  # [k,i,j] <- Gamma[k,j,i]
    tmp = batched_mul(vv[..., None, :, :, :], gt, kern.L)
    return -tmp.sum(axis=(-3, -2))


def geodesic_rhs(chart: MetricChart, pos: SuperPoint,
                 vel: Mapping[str, GrassmannElement]) -> dict[str, GrassmannElement]:
    """Accelerations of the supergeodesic equation at a state."""
    chart.check_point(pos)
    kern = chart.kernel(pos.L)
    varr = np.stack([vel[name].coeffs for name in chart.sig.names])
    acc = _acceleration(kern, pos.as_array(), varr)
    return {name: GrassmannElement(pos.L, acc[i])
            for i, name in enumerate(chart.sig.names)}


def _grid(t_end: float, dt: float) -> tuple[int, float]:
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    if t_end <= 0.0:
        raise ValueError("t_end must be positive")
    steps = max(1, round(t_end / dt))
    return steps, t_end / steps


def _check_domain(chart: MetricChart, pos: np.ndarray, t: float) -> None:
    """Every batch row of `pos` (..., n, 2^L) has its body in the chart box."""
    m = chart.sig.n_even
    for body in pos[..., :m, 0].reshape(-1, m):
        if not chart.domain_contains(body):
            raise LeftDomain(f"body {body} left the chart domain at t={t:g}")


# what a stage may raise: a function evaluated outside its domain, or a
# floating-point overflow (math.exp, or numpy under np.errstate(raise))
_STAGE_ERRORS = (DomainError, OverflowError, FloatingPointError)


def _stage_error(exc: Exception, t: float) -> SuperGeometryError:
    """The typed error for an exception raised by an RK4 stage."""
    if isinstance(exc, DomainError):
        return LeftDomain(f"a stage of the step from t={t:g} left the domain: {exc}")
    return IntegrationFailure(f"a stage of the step from t={t:g} failed: "
                              f"{type(exc).__name__}: {exc}")


def _rk4(rhs, state: tuple[np.ndarray, ...], h: float, steps: int,
         chart: MetricChart):
    """Classical fixed-step RK4, the one stepper behind every integrator.

    `state` is a tuple of arrays whose first entry holds the positions on
    `chart`, and `rhs(state)` returns their derivatives as a tuple of arrays.
    Arrays may carry leading batch axes: each row then gets exactly the
    arithmetic of its own serial run.  Yields (state, k1) at t = s * h for
    s = 0 .. steps - 1, where k1 = rhs(state) is the first stage of the step
    from there, and finally (state, None) at t = steps * h; the caller may
    use each k1, so nothing is evaluated twice.

    Guard, owned here for every caller: the initial state and every new
    state must have their bodies in the chart's coordinate box (`LeftDomain`
    otherwise).  A stage that leaves a function's domain raises `LeftDomain`,
    one that overflows raises `IntegrationFailure`, and so does a step whose
    new state is not finite; each names the t the step started from.
    """
    _check_domain(chart, state[0], 0.0)
    s = 0
    try:
        for s in range(steps):
            k1 = rhs(state)
            yield state, k1
            k2 = rhs(tuple(x + 0.5 * h * k for x, k in zip(state, k1)))
            k3 = rhs(tuple(x + 0.5 * h * k for x, k in zip(state, k2)))
            k4 = rhs(tuple(x + h * k for x, k in zip(state, k3)))
            state = tuple(x + (h / 6.0) * (a + 2.0 * b + 2.0 * c + d)
                          for x, a, b, c, d in zip(state, k1, k2, k3, k4))
            if not all(np.isfinite(x).all() for x in state):
                raise IntegrationFailure(
                    f"the step from t={s * h:g} produced a non-finite state")
            _check_domain(chart, state[0], (s + 1) * h)
    except _STAGE_ERRORS as exc:
        raise _stage_error(exc, s * h) from exc
    yield state, None


def integrate_geodesic(chart: MetricChart, ic: InitialCondition,
                       t_end: float, dt: float) -> Trajectory:
    """Fixed-step RK4 for the supergeodesic equation; deterministic output."""
    if ic.position.sig != chart.sig:
        raise SignatureMismatch("initial condition lives on a different chart")
    steps, h = _grid(t_end, dt)
    kern = chart.kernel(ic.L)
    n, D = kern.n, kern.D
    pos = ic.position.as_array().astype(float)
    vel = ic.velocity_array().astype(float)

    ts = np.arange(steps + 1) * h
    positions = np.empty((steps + 1, n, D))
    velocities = np.empty((steps + 1, n, D))
    run = _rk4(lambda st: (st[1], _acceleration(kern, *st)), (pos, vel), h,
               steps, chart)
    for s, ((pos, vel), _) in enumerate(run):
        positions[s], velocities[s] = pos, vel

    return Trajectory(chart.sig, ic.L, ts, positions, velocities,
                      metadata={"dt": h, "requested_dt": dt, "t_end": t_end,
                                "mode": "paper", "metric": chart.name})


def _goertsches_rhs(kern: _Kernel, even_idx, odd_idx, pos, vel_even):
    """(d pos, d vel_even): mixed 2nd/1st-order right-hand side."""
    dpos = np.zeros(pos.shape)
    dpos[..., even_idx, :] = vel_even
    if kern.is_flat:
        return dpos, np.zeros_like(vel_even)
    gamma = kern.christoffel(kern.env(pos))
    # even: f_k'' = -sum_{i,j even} f_i' * f_j' * Gamma^k_ji
    vv = batched_mul(vel_even[..., :, None, :], vel_even[..., None, :, :], kern.L)
    gee = gamma[(...,) + np.ix_(even_idx, even_idx, even_idx) + (slice(None),)]
    tmp = batched_mul(vv[..., None, :, :, :], gee.swapaxes(-3, -2), kern.L)
    dvel = -tmp.sum(axis=(-3, -2))
    # odd: o_d' = -sum_{i even, b odd} o_b * f_i' * Gamma^d_ib
    if len(odd_idx):
        o = pos[..., odd_idx, :]
        # fo[b,i] = o_b f_i', gob[d,i,b] = Gamma^d_ib
        fo = batched_mul(o[..., :, None, :], vel_even[..., None, :, :], kern.L)
        gob = gamma[(...,) + np.ix_(odd_idx, even_idx, odd_idx) + (slice(None),)]
        tmp = batched_mul(fo.swapaxes(-3, -2)[..., None, :, :, :], gob, kern.L)
        dpos[..., odd_idx, :] = -tmp.sum(axis=(-3, -2))
    return dpos, dvel


def integrate_goertsches(chart: MetricChart, ic: InitialCondition,
                         t_end: float, dt: float) -> Trajectory:
    """Integrate the first-order-in-odd alternative geodesic system.

    Odd coordinates evolve by their own first-order equation; the stored
    velocity samples for odd slots are the time derivatives of the odd
    positions, read off the first RK4 stage of each step (one more
    right-hand side call at the final sample).  Odd velocity entries of `ic`
    are not used.
    """
    if ic.position.sig != chart.sig:
        raise SignatureMismatch("initial condition lives on a different chart")
    steps, h = _grid(t_end, dt)
    kern = chart.kernel(ic.L)
    sig = chart.sig
    n, D = kern.n, kern.D
    even_idx = np.arange(sig.n_even)
    odd_idx = np.arange(sig.n_even, n)
    pos = ic.position.as_array().astype(float)
    vel_even = ic.velocity_array()[even_idx].astype(float)

    ts = np.arange(steps + 1) * h
    positions = np.empty((steps + 1, n, D))
    velocities = np.empty((steps + 1, n, D))

    def rhs(st):
        return _goertsches_rhs(kern, even_idx, odd_idx, *st)

    run = _rk4(rhs, (pos, vel_even), h, steps, chart)
    for s, ((pos, vel_even), k1) in enumerate(run):
        if k1 is None:
            try:
                k1 = rhs((pos, vel_even))
            except _STAGE_ERRORS as exc:
                raise _stage_error(exc, ts[s - 1]) from exc
        positions[s] = pos
        velocities[s, even_idx] = vel_even
        velocities[s, odd_idx] = k1[0][odd_idx]

    return Trajectory(chart.sig, ic.L, ts, positions, velocities,
                      metadata={"dt": h, "requested_dt": dt, "t_end": t_end,
                                "mode": "goertsches", "metric": chart.name})


# ---------------------------------------------------------------------------
# covariant derivatives along a trajectory


def _as_field_array(traj: Trajectory, field) -> np.ndarray:
    if isinstance(field, np.ndarray):
        arr = field
    else:
        names = traj.sig.names
        arr = np.zeros((len(traj), len(names), dim(traj.L)))
        for i, name in enumerate(names):
            if name in field:
                arr[:, i, :] = field[name]
    if arr.shape != traj.positions.shape:
        raise ValueError(f"field shape {arr.shape} does not match trajectory")
    return arr


def _time_derivative(arr: np.ndarray, h: float) -> np.ndarray:
    """4th-order differences: central in the interior, one-sided 5-point
    stencils at the boundary (a 2nd-order edge stencil would dominate the
    residual at dt = 1e-3)."""
    T = arr.shape[0]
    if T < 5:
        raise GridTooShort("need at least 5 samples for the stencil")
    out = np.empty_like(arr)
    out[2:-2] = (arr[:-4] - 8.0 * arr[1:-3] + 8.0 * arr[3:-1] - arr[4:]) / (12.0 * h)
    out[0] = (-25.0 * arr[0] + 48.0 * arr[1] - 36.0 * arr[2]
              + 16.0 * arr[3] - 3.0 * arr[4]) / (12.0 * h)
    out[1] = (-3.0 * arr[0] - 10.0 * arr[1] + 18.0 * arr[2]
              - 6.0 * arr[3] + arr[4]) / (12.0 * h)
    out[-1] = (25.0 * arr[-1] - 48.0 * arr[-2] + 36.0 * arr[-3]
               - 16.0 * arr[-4] + 3.0 * arr[-5]) / (12.0 * h)
    out[-2] = (3.0 * arr[-1] + 10.0 * arr[-2] - 18.0 * arr[-3]
               + 6.0 * arr[-4] - arr[-5]) / (12.0 * h)
    return out


def _add_connection_terms(kern: _Kernel, positions: np.ndarray, X: np.ndarray,
                          Y: np.ndarray, out: np.ndarray) -> np.ndarray:
    """out[s, k] += sum_{i,j} X_i * Y_j * Gamma^k_ji at every sample s of the
    curve; returns `out`."""
    for s in range(len(positions)):
        gamma = kern.christoffel(kern.env(positions[s]))
        xy = batched_mul(X[s][:, None, :], Y[s][None, :, :], kern.L)
        tmp = batched_mul(xy[None, :, :, :], gamma.transpose(0, 2, 1, 3), kern.L)
        out[s] += tmp.sum(axis=(1, 2))
    return out


def covariant_derivative_t(chart: MetricChart, traj: Trajectory,
                           field) -> np.ndarray:
    """Components of the even covariant derivative of a field along the curve:

        (d/dt) X(q_k) + sum_{i,j} X(q_i) * v_j * Gamma^k_ji

    `field` is an (n_samples, n_coords, 2^L) array or a mapping from
    coordinate names to (n_samples, 2^L) arrays; the result has the full
    array shape.  The time derivative uses the grid stencil above.
    """
    X = _as_field_array(traj, field)
    kern = chart.kernel(traj.L)
    out = _time_derivative(X, traj.dt)
    if kern.is_flat:
        return out
    return _add_connection_terms(kern, traj.positions, X, traj.velocities, out)


def _field_parity(traj: Trajectory, X: np.ndarray) -> int:
    """Parity |X| of a homogeneous field: |X(q_k)| = |X| + |q_k| for all k."""
    par = traj.sig.parity_vector()
    mpar = mask_parity(traj.L)
    found: set[int] = set()
    for i in range(X.shape[1]):
        nz = np.any(X[:, i, :] != 0.0, axis=0)
        for p in np.unique(mpar[nz]):
            found.add((int(p) + int(par[i])) % 2)
    if len(found) > 1:
        raise NonHomogeneousField("field mixes parities across slots/masks")
    return found.pop() if found else 0


def covariant_derivative_theta(chart: MetricChart, traj: Trajectory,
                               field, generator: int = 0) -> np.ndarray:
    """Components of the odd covariant derivative along the curve:

        d_th X(q_k) + sum_{i,j} (-1)^{|X|+|q_i|} X(q_i) * d_th(q_j) * Gamma^k_ji

    where d_th strips the chosen odd generator of the parameter space from
    the Grassmann coefficients (left derivative).  The field must be
    homogeneous.  Diagnostic use only.
    """
    X = _as_field_array(traj, field)
    x_par = _field_parity(traj, X)
    kern = chart.kernel(traj.L)
    out = strip_generator(X, traj.L, generator)
    if kern.is_flat:
        return out
    par = traj.sig.parity_vector()
    signs = np.where((x_par + par) % 2, -1.0, 1.0)  # per slot i
    dth_pos = strip_generator(traj.positions, traj.L, generator)
    return _add_connection_terms(kern, traj.positions,
                                 signs[None, :, None] * X, dth_pos, out)


# ---------------------------------------------------------------------------
# conserved quantity


def metric_speed(chart: MetricChart, traj: Trajectory) -> np.ndarray:
    """g(dq/dt, dq/dt) along the trajectory as a (n_samples, 2^L) array.

    Computed as sum_{i,j} v_i * v_j * g_ji; constant along geodesics in
    every Grassmann coefficient.
    """
    kern = chart.kernel(traj.L)
    out = np.empty((len(traj), kern.D))
    for s in range(len(traj)):
        G = kern.eval_metric(kern.env(traj.positions[s]))
        v = traj.velocities[s]
        vv = batched_mul(v[:, None, :], v[None, :, :], kern.L)
        tmp = batched_mul(vv, G.transpose(1, 0, 2), kern.L)
        out[s] = tmp.sum(axis=(0, 1))
    return out
