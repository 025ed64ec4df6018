"""Geodesic integration in both modes, covariant derivatives, conservation."""

import re

import numpy as np
import pytest

from supergeodesics import geodesics
from supergeodesics.errors import GridTooShort, IntegrationFailure, LeftDomain, \
    UnknownCoordinate
from supergeodesics.geodesics import (
    InitialCondition,
    covariant_derivative_t,
    covariant_derivative_theta,
    geodesic_rhs,
    integrate_geodesic,
    integrate_goertsches,
    metric_speed,
)
from supergeodesics.cotangent import PhasePoint, integrate_flow, phase_from_ic
from supergeodesics.expmap import TangentFiberPoint, _shoot
from supergeodesics.geometry import MetricChart, SuperPoint, reduce_body
from supergeodesics.grassmann import GrassmannElement as G, dim, mul_dense
from supergeodesics.superexpr import ChartSignature
from supergeodesics.verify import classical_cotangent_flow, classical_geodesic


def make_ic(chart, L, body, velocity):
    pos = SuperPoint.body_point(chart.sig, L, body)
    return InitialCondition(L, pos, velocity)


class TestRhs:
    def test_flat_vanishes(self, flat_r12):
        pos = SuperPoint.body_point(flat_r12.sig, 2, [0.0])
        vel = {"x": G.from_scalar(0.7, 2), "th1": G.generator(0, 2),
               "th2": G.generator(1, 2)}
        acc = geodesic_rhs(flat_r12, pos, vel)
        assert all(v.is_zero() for v in acc.values())

    def test_classical_oracle(self, diag_x2):
        # diag(1, x^2) at x=2 with v=(0,1): a_x = -Gamma^x_yy = +2
        pos = SuperPoint.body_point(diag_x2.sig, 0, [2.0, 0.0])
        vel = {"x": G.zero(0), "y": G.from_scalar(1.0, 0)}
        acc = geodesic_rhs(diag_x2, pos, vel)
        assert acc["x"].body == pytest.approx(2.0, abs=1e-12)
        assert acc["y"].body == pytest.approx(0.0, abs=1e-12)

    def test_graded_oracle(self, c1x_r12):
        # hand expansion: a_th1 = -2 v_x v_th1 Gamma^th1_{x th1} = -th1
        pos = SuperPoint.body_point(c1x_r12.sig, 1, [0.0])
        vel = {"x": G.from_scalar(1.0, 1), "th1": G.generator(0, 1),
               "th2": G.zero(1)}
        acc = geodesic_rhs(c1x_r12, pos, vel)
        assert acc["th1"].equals(-1.0 * G.generator(0, 1), 1e-12)
        assert acc["x"].is_zero(1e-15)


class TestIntegration:
    def test_flat_straight_line(self, flat_r12):
        ic = make_ic(flat_r12, 1, [0.0], {"x": G.from_scalar(1.0, 1)})
        traj = integrate_geodesic(flat_r12, ic, 1.0, 1e-2)
        assert traj.positions[-1, 0, 0] == pytest.approx(1.0, abs=1e-14)
        assert not traj.positions[:, 1:, :].any()

    def test_flat_odd_closed_form(self, flat_r12):
        ic = make_ic(flat_r12, 1, [0.0], {"th1": G.generator(0, 1)})
        traj = integrate_geodesic(flat_r12, ic, 1.0, 1e-2)
        idx = flat_r12.sig.index("th1")
        expect = traj.ts  # coefficient of theta grows linearly
        assert np.max(np.abs(traj.positions[:, idx, 1] - expect)) < 1e-12

    def test_determinism_bitwise(self, c1x_r12):
        ic = make_ic(c1x_r12, 2, [0.0],
                     {"x": G.from_scalar(0.8, 2), "th1": G.generator(0, 2)})
        t1 = integrate_geodesic(c1x_r12, ic, 0.3, 1e-2)
        t2 = integrate_geodesic(c1x_r12, ic, 0.3, 1e-2)
        assert np.array_equal(t1.positions, t2.positions)
        assert np.array_equal(t1.velocities, t2.velocities)

    def test_left_domain(self, diag_x2):
        ic = make_ic(diag_x2, 0, [0.5, 0.0], {"x": G.from_scalar(-1.0, 0)})
        with pytest.raises(LeftDomain):
            integrate_geodesic(diag_x2, ic, 1.0, 1e-2)

    def test_trajectory_accessors(self, flat_r12):
        ic = make_ic(flat_r12, 1, [0.0], {"x": G.from_scalar(1.0, 1)})
        traj = integrate_geodesic(flat_r12, ic, 0.1, 1e-2)
        t, pos, vel = next(iter(traj.samples()))
        assert t == 0.0
        assert pos == ic.position
        assert vel["x"] == G.from_scalar(1.0, 1)


class TestGoertsches:
    def test_flat_odd_constant(self, flat_r12):
        pos = SuperPoint(flat_r12.sig, 1, {
            "x": G.zero(1), "th1": G.generator(0, 1), "th2": G.zero(1)})
        ic = InitialCondition(1, pos, {"th1": 0.7 * G.generator(0, 1)})
        traj = integrate_goertsches(flat_r12, ic, 1.0, 1e-2)
        idx = flat_r12.sig.index("th1")
        assert np.max(np.abs(traj.positions[:, idx, 1] - 1.0)) < 1e-14

    def test_modes_diverge_on_odd_data(self, flat_r12):
        pos = SuperPoint(flat_r12.sig, 1, {
            "x": G.zero(1), "th1": G.generator(0, 1), "th2": G.zero(1)})
        ic = InitialCondition(1, pos, {"x": G.from_scalar(0.5, 1),
                                       "th1": 0.7 * G.generator(0, 1)})
        paper = integrate_geodesic(flat_r12, ic, 1.0, 1e-2)
        goertsches = integrate_goertsches(flat_r12, ic, 1.0, 1e-2)
        idx = flat_r12.sig.index("th1")
        # paper mode: affine 1 + 0.7 t; goertsches: constant 1
        assert np.max(np.abs(paper.positions[:, idx, 1]
                             - (1.0 + 0.7 * paper.ts))) < 1e-12
        assert np.max(np.abs(goertsches.positions[:, idx, 1] - 1.0)) < 1e-14
        # even parts agree between modes on a flat metric
        assert np.max(np.abs(paper.positions[:, 0, :]
                             - goertsches.positions[:, 0, :])) < 1e-14

    def test_curved_odd_closed_form(self, c1x_r12):
        # With x(t) = t the odd equation reads o' = -o * c'/(2c), whose
        # solution is o(t) = c(t)^{-1/2} = (1 + t)^{-1/2} (hand-derived).
        pos = SuperPoint(c1x_r12.sig, 1, {
            "x": G.zero(1), "th1": G.generator(0, 1), "th2": G.zero(1)})
        ic = InitialCondition(1, pos, {"x": G.from_scalar(1.0, 1)})
        traj = integrate_goertsches(c1x_r12, ic, 1.0, 1e-3)
        idx = c1x_r12.sig.index("th1")
        expect = (1.0 + traj.ts) ** -0.5
        assert np.max(np.abs(traj.positions[:, idx, 1] - expect)) < 1e-10


    def test_four_rhs_calls_per_step(self, c1x_r12, monkeypatch):
        # the first stage of each step doubles as that sample's odd velocity
        calls = []
        rhs = geodesics._goertsches_rhs

        def counted(*args):
            calls.append(args)
            return rhs(*args)

        monkeypatch.setattr(geodesics, "_goertsches_rhs", counted)
        pos = SuperPoint(c1x_r12.sig, 2, {
            "x": G.from_scalar(0.1, 2), "th1": G.generator(0, 2),
            "th2": 0.5 * G.generator(1, 2)})
        ic = InitialCondition(2, pos, {"x": G.from_scalar(0.8, 2)})
        traj = integrate_goertsches(c1x_r12, ic, 0.1, 1e-2)
        assert len(traj) - 1 == 10
        assert len(calls) == 4 * 10 + 1
        # the stored odd velocities are the right-hand side at each sample
        kern, m = calls[0][:2]
        for s in range(len(traj)):
            d = rhs(kern, m, np.concatenate((traj.positions[s],
                                             traj.velocities[s, :m])))
            assert np.array_equal(traj.velocities[s, m:], d[m:kern.n])


class TestStepperGuard:
    """A start outside the chart box, overflow and non-finite states end an
    integration as typed errors."""

    def test_start_outside_domain(self, diag_x2):
        ic = make_ic(diag_x2, 0, [0.1, 0.0], {"y": G.from_scalar(1.0, 0)})
        runs = [lambda: integrate_geodesic(diag_x2, ic, 0.1, 1e-2),
                lambda: integrate_goertsches(diag_x2, ic, 0.1, 1e-2),
                lambda: integrate_flow(diag_x2, PhasePoint(ic.position, {}),
                                       0.1, 1e-2),
                lambda: _shoot(diag_x2, [TangentFiberPoint(
                    diag_x2.sig, 0, [0.1, 0.0], {})], 1e-2)[0]]
        for run in runs:
            with pytest.raises(LeftDomain, match="at t=0$"):
                run()

    def test_first_row_outside_is_named(self, diag_x2):
        # rows 1 and 2 start outside x > 0.2, row 0 inside
        rows = [TangentFiberPoint(diag_x2.sig, 0, base, {"x": G.from_scalar(vx, 0)})
                for base, vx in (([1.0, 0.0], 0.0), ([0.1, 0.5], 0.0),
                                 ([0.15, 0.0], 0.0))]
        body = np.array([0.1, 0.5])
        with pytest.raises(LeftDomain, match=re.escape(
                f"body {body} left the chart domain at t=0") + "$"):
            _shoot(diag_x2, rows, 1e-2)[0]
        rows = [TangentFiberPoint(diag_x2.sig, 0, [1.0, 0.0],
                                  {"x": G.from_scalar(vx, 0)})
                for vx in (0.0, -85.0, -95.0)]
        # rows 1 and 2 leave in the first step, to x = 0.15 and 0.05
        with pytest.raises(LeftDomain, match=r"body \[0\.15\d* .*at t=0\.01$"):
            _shoot(diag_x2, rows, 1e-2)[0]

    def test_box_comparison_matches_per_coordinate_rule(self, rng):
        sig = ChartSignature(("x", "y", "z"), ("th",))
        chart = MetricChart(sig, [["1", "0", "0", "0"], ["0", "1", "0", "0"],
                                  ["0", "0", "1", "0"], ["0", "0", "0", "0"]],
                            {"x": (-1.0, 1.0), "z": (0.0, 2.0)})
        special = [-1.0, 1.0, 0.0, 2.0, np.nan, np.inf, -np.inf]
        bodies = rng.uniform(-3.0, 3.0, (400, 3))
        bodies[rng.random(bodies.shape) < 0.2] = rng.choice(special, 1)
        want = [not (-1.0 < x < 1.0 and 0.0 < z < 2.0) for x, _, z in bodies]
        assert chart.outside_domain(bodies).tolist() == want
        assert [not chart.domain_contains(b) for b in bodies] == want
        # the stepper's guard on states (rows, k, 2^L) stacked from them
        state = np.zeros((len(bodies), 8, 2))
        state[:, :3, 0] = bodies
        inside = state[~np.array(want)]
        chart.check_state(inside, 0.5)
        for i in np.flatnonzero(want)[::3]:
            # one outside row among the inside ones, or a run of rows
            mixed = np.insert(inside, i % len(inside), state[i], axis=0)
            rows = slice(i, i + 1 + i % 9)
            first = bodies[rows][np.flatnonzero(want[rows])[0]]
            for st, body in ((mixed, bodies[i]), (state[rows], first)):
                with pytest.raises(LeftDomain, match=re.escape(
                        f"body {body} left the chart domain at t=0.5") + "$"):
                    chart.check_state(st, 0.5)
        # leading axes of any shape: the first row in C order
        first = bodies[want.index(True)]
        with pytest.raises(LeftDomain, match=re.escape(f"body {first} ")):
            chart.check_state(state.reshape(20, 20, 8, 2), 0.5)

    @pytest.mark.parametrize("oracle", [classical_geodesic,
                                        classical_cotangent_flow])
    def test_classical_grid_too_large_to_record(self, diag_x2, oracle):
        # numpy refuses the sample array before allocating anything
        with pytest.raises(IntegrationFailure,
                           match=r"^cannot record 1e\+300 samples of shape \(4,\)"):
            oracle(reduce_body(diag_x2), [2.0, 0.0], [0.0, 1.0], 1.0, 1e-300)

    def test_step_count_capped(self, diag_x2):
        cap = geodesics.MAX_STEPS
        assert geodesics._grid(1.0, 1.0 / cap)[0] == cap
        message = r"has 1e\+09 steps, more than the 1e\+07 one run may take$"
        with pytest.raises(IntegrationFailure, match=message):
            geodesics._grid(1.0, 1e-9)
        with pytest.raises(IntegrationFailure, match=message):
            classical_geodesic(reduce_body(diag_x2), [2.0, 0.0], [0.0, 1.0],
                               1.0, 1e-9)

    @pytest.fixture(scope="class")
    def blowup(self):
        # g_yy = exp(x^2) overflows math.exp once |x| passes about 26.6
        sig = ChartSignature(("x", "y"), ())
        chart = MetricChart(sig, [["1", "0"], ["0", "exp(x^2)"]], name="blowup")
        return chart, make_ic(chart, 0, [1.0, 0.0],
                              {"x": G.from_scalar(5.0, 0),
                               "y": G.from_scalar(5.0, 0)})

    @pytest.mark.parametrize("integrate", [integrate_geodesic,
                                           integrate_goertsches])
    def test_stage_overflow(self, blowup, integrate):
        chart, ic = blowup
        with pytest.raises(IntegrationFailure, match=r"t=1\.49 .*OverflowError"):
            integrate(chart, ic, 5.0, 1e-2)

    def test_numpy_overflow_raised_under_errstate(self, blowup):
        chart, ic = blowup
        with np.errstate(over="raise", invalid="raise"):
            with pytest.raises(IntegrationFailure, match="FloatingPointError"):
                integrate_flow(chart, phase_from_ic(chart, ic), 5.0, 1e-2)

    def test_non_finite_state(self, blowup):
        chart, ic = blowup
        with np.errstate(all="ignore"):
            with pytest.raises(IntegrationFailure, match="non-finite state"):
                integrate_flow(chart, phase_from_ic(chart, ic), 5.0, 1e-2)


class TestCovariantDerivatives:
    def test_geodesic_residual(self, c1x_r12):
        ic = make_ic(c1x_r12, 2, [0.0],
                     {"x": G.from_scalar(1.0, 2), "th1": G.generator(0, 2),
                      "th2": G.generator(1, 2)})
        traj = integrate_geodesic(c1x_r12, ic, 0.5, 1e-3)
        resid = covariant_derivative_t(c1x_r12, traj, traj.velocities)
        assert np.max(np.abs(resid)) <= 1e-6

    def test_constant_field_flat(self, flat_r12):
        ic = make_ic(flat_r12, 1, [0.0], {"x": G.from_scalar(1.0, 1)})
        traj = integrate_geodesic(flat_r12, ic, 0.2, 1e-2)
        X = np.zeros_like(traj.positions)
        X[:, 0, 0] = 3.0
        out = covariant_derivative_t(flat_r12, traj, X)
        assert np.max(np.abs(out)) < 1e-12

    def test_pure_time_derivative(self, flat_r12):
        ic = make_ic(flat_r12, 1, [0.0], {"x": G.from_scalar(1.0, 1)})
        traj = integrate_geodesic(flat_r12, ic, 0.2, 1e-2)
        X = np.zeros_like(traj.positions)
        X[:, 0, 0] = traj.ts**2
        out = covariant_derivative_t(flat_r12, traj, X)
        assert np.max(np.abs(out[:, 0, 0] - 2.0 * traj.ts)) < 1e-9

    @pytest.mark.parametrize("derivative", [covariant_derivative_t,
                                            covariant_derivative_theta])
    def test_unknown_field_name(self, c1x_r12, derivative):
        ic = make_ic(c1x_r12, 1, [0.0], {"x": G.from_scalar(1.0, 1)})
        traj = integrate_geodesic(c1x_r12, ic, 0.05, 1e-2)
        field = {"x": traj.velocities[:, 0], "xx": traj.velocities[:, 0]}
        with pytest.raises(UnknownCoordinate, match="xx"):
            derivative(c1x_r12, traj, field)

    def test_grid_too_short(self, flat_r12):
        ic = make_ic(flat_r12, 1, [0.0], {"x": G.from_scalar(1.0, 1)})
        traj = integrate_geodesic(flat_r12, ic, 0.02, 1e-2)
        with pytest.raises(GridTooShort):
            covariant_derivative_t(flat_r12, traj, traj.velocities)

    def test_theta_derivative_strips_generator(self, flat_r12):
        ic = make_ic(flat_r12, 1, [0.0], {"x": G.from_scalar(1.0, 1)})
        traj = integrate_geodesic(flat_r12, ic, 0.2, 1e-2)
        idx = flat_r12.sig.index("th1")
        X = np.zeros_like(traj.positions)
        X[:, idx, 1] = traj.ts  # X(th1) = t * theta
        out = covariant_derivative_theta(flat_r12, traj, X, generator=0)
        assert np.max(np.abs(out[:, idx, 0] - traj.ts)) < 1e-14
        # theta-free field along a theta-free curve gives zero
        Y = np.zeros_like(traj.positions)
        Y[:, 0, 0] = 1.0
        assert not covariant_derivative_theta(flat_r12, traj, Y).any()

    def test_theta_parity_sign_flip(self, c1x_r12):
        # For real-coefficient X on chart slots, Y = theta1 * X satisfies
        # cov_theta(Y) = X - theta1 * cov_theta(X): the Christoffel term
        # flips sign with the field parity.
        ic = make_ic(c1x_r12, 2, [0.1],
                     {"x": G.from_scalar(0.6, 2), "th1": G.generator(0, 2),
                      "th2": G.generator(1, 2)})
        traj = integrate_geodesic(c1x_r12, ic, 0.1, 1e-2)
        T, n, D = traj.positions.shape
        X = np.zeros((T, n, D))
        X[:, 0, 0] = 1.3  # even field, real coefficients
        theta1 = G.generator(0, 2).coeffs
        Y = np.zeros((T, n, D))
        for s in range(T):
            for i in range(n):
                Y[s, i] = mul_dense(theta1, X[s, i], 2)
        cov_x = covariant_derivative_theta(c1x_r12, traj, X, generator=0)
        cov_y = covariant_derivative_theta(c1x_r12, traj, Y, generator=0)
        expect = np.empty_like(cov_y)
        for s in range(T):
            for i in range(n):
                expect[s, i] = X[s, i] - mul_dense(theta1, cov_x[s, i], 2)
        assert np.max(np.abs(cov_y - expect)) < 1e-12


class TestSpeed:
    def test_conserved_along_geodesic(self, c1x_r12):
        ic = make_ic(c1x_r12, 2, [0.0],
                     {"x": G.from_scalar(1.0, 2), "th1": G.generator(0, 2),
                      "th2": G.generator(1, 2)})
        traj = integrate_geodesic(c1x_r12, ic, 0.5, 1e-3)
        speed = metric_speed(c1x_r12, traj)
        assert np.max(np.abs(speed - speed[0])) <= 1e-10

    def test_flat_value(self, flat_r12):
        ic = make_ic(flat_r12, 2, [0.0], {"x": G.from_scalar(2.0, 2)})
        traj = integrate_geodesic(flat_r12, ic, 0.1, 1e-2)
        speed = metric_speed(flat_r12, traj)
        assert speed[0, 0] == pytest.approx(4.0)
