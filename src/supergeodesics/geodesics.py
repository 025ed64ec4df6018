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

Both modes, the cotangent flow and the batched exponential map start every
run in the one entry point `_run`, which checks the chart, computes the grid
(`_grid`), builds the state and steps it with the one RK4 loop `_rk4`.  The
loop turns a failing stage or a non-finite state into a typed error that
names t, and records one batch row's samples and first stages k1 (the
Goertsches odd velocities).  `_sample_array` and `_record`, which makes
every `Trajectory` and `cotangent.FlowState`, own a run record.

State layout: `_rk4` advances one array of shape (..., k, 2^L), so a stage
and the step's combination are one numpy expression each.  Along the
coordinate axis its first n rows are the positions, followed by

* paper mode: the n velocities (k = 2n);
* Goertsches mode: the m velocities of the even coordinates (k = n + m);
* the cotangent flow: the n momenta (k = 2n).

A right-hand side returns the derivative in the same layout.  Elementwise
IEEE arithmetic does not depend on how the rows are laid out, so no
coefficient's bits depend on the layout either.

The diagnostics along a curve (covariant derivatives, `metric_speed`) run
batched, one kernel call per chunk of samples (`geometry._chunks`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache, partial
from typing import Mapping, Sequence

import numpy as np

from .errors import (
    DomainError,
    GridTooShort,
    IntegrationFailure,
    LeftDomain,
    MismatchedGeneratorCount,
    NonHomogeneousField,
    SignatureMismatch,
    SuperGeometryError,
)
from .geometry import MetricChart, SuperPoint, _chunks, _Kernel
from .grassmann import (
    GrassmannElement,
    _Frozen,
    batched_mul,
    mask_parity,
    strip_generator,
)


# ---------------------------------------------------------------------------
# initial data and trajectories


class InitialCondition(_Frozen):
    """Grassmann-valued position and velocity data for a geodesic.

    Encodes a morphism from the odd parameter space with L generators into
    the tangent bundle: each coordinate gets a position value and a velocity
    value of the coordinate's own parity.  The velocity is checked by the
    coordinate values rule of `ChartSignature` (a missing entry is zero).
    """

    __slots__ = ("L", "position", "velocity")

    def __init__(self, L: int, position: SuperPoint,
                 velocity: Mapping[str, GrassmannElement]):
        if position.L != L:
            raise MismatchedGeneratorCount(
                f"position has L={position.L}, expected {L}")
        self._init(L=L, position=position,
                   velocity=position.sig.graded(L, velocity, "velocity"))

    def velocity_array(self) -> np.ndarray:
        return self.position.sig.pack(self.velocity)


class _Samples:
    """The sample times `ts` and run `metadata` of a recorded run."""

    def __len__(self):
        return len(self.ts)

    @property
    def dt(self) -> float:
        return float(self.metadata.get("dt", self.ts[1] - self.ts[0]))


@dataclass
class Trajectory(_Samples):
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

    def position_at(self, idx: int) -> SuperPoint:
        return SuperPoint.from_array(self.sig, self.L, self.positions[idx])

    def velocity_at(self, idx: int) -> dict[str, GrassmannElement]:
        return self.sig.unpack(self.L, self.velocities[idx])

    def samples(self):
        for idx, t in enumerate(self.ts):
            yield float(t), self.position_at(idx), self.velocity_at(idx)


# ---------------------------------------------------------------------------
# right-hand sides


def _connection(kern: _Kernel, gamma: np.ndarray, X: np.ndarray,
                Y: np.ndarray) -> np.ndarray:
    """sum_{i,j} X_i * Y_j * Gamma^k_ji, in exactly that factor order, for
    X, Y of shape (..., n, 2^L) and gamma[..., k, i, j] = Gamma^k_ij."""
    xy = batched_mul(X[..., :, None, :], Y[..., None, :, :], kern.L)
    gt = gamma.swapaxes(-3, -2)  # [k,i,j] <- Gamma[k,j,i]
    return batched_mul(xy[..., None, :, :, :], gt, kern.L).sum(axis=(-3, -2))


def _acceleration(kern: _Kernel, pos: np.ndarray, vel: np.ndarray) -> np.ndarray:
    """a_k = -sum_{i,j} v_i * v_j * Gamma^k_ji, in exactly that factor order."""
    if kern.is_flat:
        return np.zeros_like(pos)
    return -_connection(kern, kern.christoffel(pos), vel, vel)


def geodesic_rhs(chart: MetricChart, pos: SuperPoint,
                 vel: Mapping[str, GrassmannElement]) -> dict[str, GrassmannElement]:
    """Accelerations of the supergeodesic equation at a state."""
    chart.check_point(pos)
    kern = chart.kernel(pos.L)
    acc = _acceleration(kern, pos.as_array(), chart.sig.pack(vel))
    return chart.sig.unpack(pos.L, acc)


# The most steps one run may take: far above the bundled models' default
# grids (1000 steps) and the benchmark's (2000), and about an hour at L <= 2.
MAX_STEPS = 10**7


def _grid(t_end: float, dt: float,
          shape: Sequence[int] = ()) -> tuple[int, float]:
    """(steps, h) of the fixed grid of (t_end, dt).  A step count that is
    not finite, whose steps + 1 float64 samples of `shape` numpy could not
    describe (more bytes than `np.intp` counts), or that exceeds `MAX_STEPS`
    is `IntegrationFailure` before anything is allocated or stepped."""
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    if t_end <= 0.0:
        raise ValueError("t_end must be positive")
    if not math.isfinite(t_end / dt):
        raise IntegrationFailure(f"the grid of t_end={t_end:g}, dt={dt:g} "
                                 "has no finite step count")
    steps = max(1, round(t_end / dt))
    if (steps + 1) * math.prod(shape) * 8 > np.iinfo(np.intp).max:
        raise IntegrationFailure(f"cannot record {steps + 1:.6g} samples of "
                                 f"shape {tuple(shape)}: the grid of "
                                 f"t_end={t_end:g}, dt={dt:g} is too fine")
    if steps > MAX_STEPS:
        raise IntegrationFailure(f"the grid of t_end={t_end:g}, dt={dt:g} "
                                 f"has {steps:.6g} steps, more than the "
                                 f"{MAX_STEPS:.0e} one run may take")
    return steps, t_end / steps


def _run_cost(t_end: float, dt: float, coefficients: int) -> float:
    """The `jobs.Jobs` cost of a graded run over (t_end, dt) whose state has
    `coefficients` coefficients: per step, those plus 8 for the calls."""
    return (t_end / dt if dt > 0.0 else 0.0) * (coefficients + 8)


def _sample_times(steps: int, h: float) -> np.ndarray:
    return np.arange(steps + 1) * h


def _sample_array(count: int, shape: Sequence[int]) -> np.ndarray:
    """Room for `count` samples of `shape`, or `IntegrationFailure`."""
    try:
        return np.empty((count, *shape))
    except (ValueError, MemoryError) as exc:
        raise IntegrationFailure(f"cannot record {count:.6g} samples of "
                                 f"shape {tuple(shape)}: {exc}") from None


def _record(cls, chart: MetricChart, L: int, t_end: float, dt: float,
            grid: tuple[int, float], samples: np.ndarray, **mode):
    """The `cls` (`Trajectory` or `cotangent.FlowState`) of the samples
    (T, k, 2^L), positions first, of a run of (t_end, dt) on `grid`."""
    steps, h = grid
    n = chart.sig.dimension
    return cls(chart.sig, L, _sample_times(steps, h), samples[:, :n].copy(),
               samples[:, n:].copy(),
               metadata={"dt": h, "requested_dt": dt, "t_end": t_end, **mode,
                         "metric": chart.name})


# what a stage may raise: a function evaluated outside its domain, or a
# floating-point overflow (math.exp, or numpy under `_raising`)
_STAGE_ERRORS = (DomainError, OverflowError, FloatingPointError)


def _raising() -> np.errstate:
    """The numpy error state of a graded step: each floating-point error
    that numpy would warn of (by default overflow, invalid and divide)
    raises `FloatingPointError` instead; a caller's other setting stands."""
    return np.errstate(**{k: "raise" for k, v in np.geterr().items()
                          if v == "warn"})


def _stage_error(exc: Exception, t: float) -> SuperGeometryError:
    """The typed error for an exception raised by an RK4 stage."""
    if isinstance(exc, DomainError):
        return LeftDomain(f"a stage of the step from t={t:g} left the domain: {exc}")
    return IntegrationFailure(f"a stage of the step from t={t:g} failed: "
                              f"{type(exc).__name__}: {exc}")


def _rk4(rhs, state: np.ndarray, h: float, steps: int, chart: MetricChart,
         record=None):
    """Classical fixed-step RK4, the one stepper behind every integrator.

    `state` is one array (..., k, 2^L) whose first n rows along the
    coordinate axis are the positions on `chart` (module docstring), and
    `rhs(state)` returns its derivative as an array of the same shape.
    Leading axes are a batch: each row then gets exactly the arithmetic of
    its own serial run.  Returns (state, samples, k1s): the state at
    t = steps * h and, if `record` indexes one row of the leading axes (`()`
    for an unbatched state), that row at t = s * h for s = 0 .. steps and
    its first stage k1 = rhs(state) of the step from each s < steps (None
    without `record`).

    Guards for every caller: a body outside the chart box
    (`MetricChart.check_state`) or a stage outside a function's domain
    raises `LeftDomain`; an overflowing stage, a non-finite step or samples
    numpy cannot hold (before the first step) raise `IntegrationFailure`.
    Each error from a step names the t that step started from.
    """
    chart.check_state(state, 0.0)
    samples = k1s = None
    if record is not None:
        samples = _sample_array(steps + 1, state[record].shape)
        k1s = _sample_array(steps, state[record].shape)
        samples[0] = state[record]
    half, sixth = 0.5 * h, h / 6.0
    s = 0
    try:
        with _raising():
            for s in range(steps):
                k1 = rhs(state)
                k2 = rhs(state + half * k1)
                k3 = rhs(state + half * k2)
                k4 = rhs(state + h * k3)
                state = state + sixth * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
                if not np.isfinite(state).all():
                    raise IntegrationFailure(
                        f"the step from t={s * h:g} produced a non-finite state")
                chart.check_state(state, (s + 1) * h)
                if record is not None:
                    samples[s + 1], k1s[s] = state[record], k1[record]
    except _STAGE_ERRORS as exc:
        raise _stage_error(exc, s * h) from exc
    return state, samples, k1s


def _run(chart: MetricChart, rows, rhs, t_end: float, dt: float, record=()):
    """The one run behind every integrator, and the only caller of `_rk4`.
    `rows` is one initial row (position `SuperPoint`, the (k - n, 2^L) block
    after it in the state) or a list of rows of one L, a batch, all on
    `chart` (else `SignatureMismatch`); `rhs(kern, state)` is the derivative
    at the kernel of that L, `record` as in `_rk4`.  Returns (final state,
    samples, k1s, (steps, h)) on the grid of (t_end, dt)."""
    batch = rows if isinstance(rows, list) else [rows]
    if any(pos.sig != chart.sig for pos, _ in batch):
        raise SignatureMismatch("initial condition lives on a different chart")
    state = [np.concatenate((pos.as_array(), block)) for pos, block in batch]
    state = np.stack(state) if batch is rows else state[0]
    steps, h = _grid(t_end, dt, state.shape[-2:])
    kern = chart.kernel(batch[0][0].L)
    return (*_rk4(partial(rhs, kern), state, h, steps, chart, record),
            (steps, h))


def _paper_rhs(kern: _Kernel, st: np.ndarray) -> np.ndarray:
    """d/dt of the paper-mode state (pos, vel), one (..., 2n, 2^L) array."""
    vel = st[..., kern.n:, :]
    return np.concatenate((vel, _acceleration(kern, st[..., :kern.n, :], vel)),
                          axis=-2)


def integrate_geodesic(chart: MetricChart, ic: InitialCondition,
                       t_end: float, dt: float) -> Trajectory:
    """Fixed-step RK4 for the supergeodesic equation; deterministic output."""
    _, samples, _, grid = _run(chart, (ic.position, ic.velocity_array()),
                               _paper_rhs, t_end, dt)
    return _record(Trajectory, chart, ic.L, t_end, dt, grid, samples,
                   mode="paper")


@lru_cache(maxsize=None)
def _goertsches_blocks(m: int, n: int) -> tuple:
    """The blocks of Gamma[k, i, j] that Goertsches mode reads, as (k, i, j)
    slices: [even, even, even], then [odd, even, odd] if there are odd
    coordinates."""
    even, odd = slice(None, m), slice(m, None)
    return ((even, even, even),) + (((odd, even, odd),) if m < n else ())


def _goertsches_rhs(kern: _Kernel, m: int, st: np.ndarray) -> np.ndarray:
    """d/dt of the Goertsches state (pos, vel_even): mixed 2nd/1st order."""
    n = kern.n
    pos, vel_even = st[..., :n, :], st[..., n:, :]
    out = np.zeros(st.shape)
    out[..., :m, :] = vel_even
    if kern.is_flat:
        return out
    gamma = kern.christoffel(pos, _goertsches_blocks(m, n))
    # even: f_k'' = -sum_{i,j even} f_i' * f_j' * Gamma^k_ji
    out[..., n:, :] = -_connection(kern, gamma[0], vel_even, vel_even)
    # odd: o_d' = -sum_{i even, b odd} o_b * f_i' * Gamma^d_ib
    if m < n:
        out[..., m:n, :] = -_connection(kern, gamma[1], pos[..., m:, :],
                                        vel_even)
    return out


def integrate_goertsches(chart: MetricChart, ic: InitialCondition,
                         t_end: float, dt: float) -> Trajectory:
    """Integrate the first-order-in-odd alternative geodesic system.

    Odd coordinates evolve by their own first-order equation; the stored
    velocity samples for odd slots are the time derivatives of the odd
    positions, read off the first RK4 stage of each step (one more
    right-hand side call at the final sample).  Odd velocity entries of `ic`
    are not used.
    """
    n, m = chart.sig.dimension, chart.sig.n_even
    final, samples, k1s, (steps, h) = _run(
        chart, (ic.position, ic.velocity_array()[:m]),
        lambda kern, st: _goertsches_rhs(kern, m, st), t_end, dt)
    try:
        with _raising():
            k1_end = _goertsches_rhs(chart.kernel(ic.L), m, final)
    except _STAGE_ERRORS as exc:
        raise _stage_error(exc, (steps - 1) * h) from exc
    # the odd velocities after the even ones, in signature order
    odd_vel = np.concatenate((k1s[:, m:n], k1_end[None, m:n]))
    return _record(Trajectory, chart, ic.L, t_end, dt, (steps, h),
                   np.concatenate((samples, odd_vel), axis=1), mode="goertsches")


# ---------------------------------------------------------------------------
# covariant derivatives along a trajectory


def _as_field_array(traj: Trajectory, field) -> np.ndarray:
    if isinstance(field, np.ndarray):
        arr = field
    else:
        arr = np.zeros(traj.positions.shape)
        for name, values in field.items():
            arr[:, traj.sig.index(name), :] = values
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
    for c in _chunks(len(positions), kern.n, kern.D):
        gamma = kern.christoffel(positions[c])
        out[c] += _connection(kern, gamma, X[c], Y[c])
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
    nz = np.any(X != 0.0, axis=0)  # [k, mask]: X(q_k) uses the mask somewhere
    parity = (traj.sig.parity_vector()[:, None] + mask_parity(traj.L)) % 2
    found = set(parity[nz].tolist())
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
    for c in _chunks(len(traj), kern.n, kern.D):
        G = kern.eval_metric(traj.positions[c])
        v = traj.velocities[c]
        vv = batched_mul(v[..., :, None, :], v[..., None, :, :], kern.L)
        tmp = batched_mul(vv, G.swapaxes(-3, -2), kern.L)
        out[c] = tmp.sum(axis=(-3, -2))
    return out
