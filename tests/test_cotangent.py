"""Energy, Hamiltonian field, flow integration, musical maps, round trip."""

import numpy as np
import pytest

from supergeodesics.cotangent import (
    PhasePoint,
    energy_at,
    energy_series,
    flat,
    integrate_flow,
    parity_violation_max,
    phase_from_ic,
    roundtrip_check,
    sharp,
    xh_at,
)
from supergeodesics.errors import ParityViolation
from supergeodesics.geodesics import InitialCondition, integrate_geodesic
from supergeodesics.geometry import SuperPoint
from supergeodesics.grassmann import GrassmannElement as G, Parity, dim, mask_parity


def phase(chart, L, body, momenta):
    return PhasePoint(SuperPoint.body_point(chart.sig, L, body), momenta)


class TestEnergy:
    def test_flat_even_momentum(self, flat_r12):
        s = phase(flat_r12, 2, [0.0], {"x": G.from_scalar(1.0, 2)})
        assert energy_at(flat_r12, s) == G.from_scalar(0.5, 2)

    def test_flat_odd_momenta(self, flat_r12):
        # hand expansion of (1/2) sum p_i g^{ij} p_j with the odd block
        s = phase(flat_r12, 2, [0.0],
                  {"th1": G.generator(0, 2), "th2": G.generator(1, 2)})
        assert energy_at(flat_r12, s).equals(-1.0 * G.basis(0b11, 2), 1e-14)

    def test_zero_momenta(self, c1x_r12):
        s = phase(c1x_r12, 2, [0.3], {})
        assert energy_at(c1x_r12, s).is_zero()

    def test_energy_is_even(self, c1x_r12):
        s = phase(c1x_r12, 2, [0.2],
                  {"x": G.from_scalar(0.7, 2), "th1": G.generator(0, 2)})
        assert energy_at(c1x_r12, s).parity is Parity.EVEN


class TestHamiltonianField:
    def test_flat_even_block(self, flat_r12):
        s = phase(flat_r12, 2, [0.0], {"x": G.from_scalar(2.0, 2)})
        qdot, pdot = xh_at(flat_r12, s)
        assert qdot["x"] == G.from_scalar(2.0, 2)
        assert all(v.is_zero() for v in pdot.values())

    def test_flat_odd_block_wiring(self, flat_r12):
        # g^{th2 th1} = 1, g^{th1 th2} = -1
        s = phase(flat_r12, 2, [0.0],
                  {"th1": G.generator(0, 2), "th2": G.generator(1, 2)})
        qdot, _ = xh_at(flat_r12, s)
        assert qdot["th1"].equals(G.generator(1, 2), 1e-14)
        assert qdot["th2"].equals(-1.0 * G.generator(0, 2), 1e-14)

    def test_classical_oracle(self, diag_x2):
        # q_dot = g^{-1} p, p_dot_x = -1/2 d_x(x^-2) p_y^2 = x^-3 = 1/8
        s = phase(diag_x2, 0, [2.0, 0.0], {"y": G.from_scalar(1.0, 0)})
        qdot, pdot = xh_at(diag_x2, s)
        assert qdot["y"].body == pytest.approx(0.25, abs=1e-12)
        assert qdot["x"].body == pytest.approx(0.0, abs=1e-12)
        assert pdot["x"].body == pytest.approx(0.125, abs=1e-12)
        assert pdot["y"].body == pytest.approx(0.0, abs=1e-12)

    def test_zero_momenta_give_zero(self, c1x_r12):
        s = phase(c1x_r12, 2, [0.1], {})
        qdot, pdot = xh_at(c1x_r12, s)
        assert all(v.is_zero() for v in qdot.values())
        assert all(v.is_zero() for v in pdot.values())

    def test_parity_enforced(self, flat_r12):
        with pytest.raises(ParityViolation):
            phase(flat_r12, 1, [0.0], {"x": G.generator(0, 1)})


class TestFlow:
    def test_flat_straight_line(self, flat_r12):
        s = phase(flat_r12, 1, [0.0], {"x": G.from_scalar(1.0, 1)})
        flow = integrate_flow(flat_r12, s, 1.0, 1e-2)
        assert flow.positions[-1, 0, 0] == pytest.approx(1.0, abs=1e-13)
        assert np.max(np.abs(flow.momenta[:, 0, 0] - 1.0)) < 1e-13

    def test_energy_conserved(self, c1x_r12):
        ic = InitialCondition(2, SuperPoint.body_point(c1x_r12.sig, 2, [0.0]),
                              {"x": G.from_scalar(1.0, 2),
                               "th1": G.generator(0, 2),
                               "th2": G.generator(1, 2)})
        flow = integrate_flow(c1x_r12, phase_from_ic(c1x_r12, ic), 0.5, 1e-3)
        H = energy_series(c1x_r12, flow)
        assert np.max(np.abs(H - H[0])) <= 1e-10

    def test_parity_preservation_exact(self, c1x_r12):
        ic = InitialCondition(2, SuperPoint.body_point(c1x_r12.sig, 2, [0.0]),
                              {"x": G.from_scalar(0.5, 2),
                               "th1": G.generator(0, 2)})
        flow = integrate_flow(c1x_r12, phase_from_ic(c1x_r12, ic), 0.3, 1e-2)
        assert parity_violation_max(flow) == 0.0


class TestMusicalMaps:
    def test_flat_even_identity(self, flat_r12):
        pos = SuperPoint.body_point(flat_r12.sig, 2, [0.0])
        v = {"x": G.from_scalar(1.5, 2), "th1": G.zero(2), "th2": G.zero(2)}
        p = flat(flat_r12, pos, v)
        assert p["x"] == v["x"]

    def test_classical_lowering(self, diag_x2):
        pos = SuperPoint.body_point(diag_x2.sig, 0, [2.0, 0.0])
        v = {"x": G.zero(0), "y": G.from_scalar(1.0, 0)}
        p = flat(diag_x2, pos, v)
        assert p["y"].body == pytest.approx(4.0, abs=1e-13)

    def test_sharp_flat_inverse_random(self, c1x_r12, rng):
        from supergeodesics.verify import random_superpoint
        sig = c1x_r12.sig
        mpar = mask_parity(2)
        for _ in range(100):
            pos = random_superpoint(c1x_r12, 2, rng)
            vel = {}
            for name in sig.names:
                want = sig.parity_of(name)
                arr = np.zeros(dim(2))
                sel = mpar == want
                arr[sel] = rng.uniform(-1.0, 1.0, int(sel.sum()))
                vel[name] = G(2, arr)
            back = sharp(c1x_r12, pos, flat(c1x_r12, pos, vel))
            for name in sig.names:
                assert back[name].equals(vel[name], 1e-10)


class TestRoundtrip:
    def test_flat_exact(self, flat_r12):
        ic = InitialCondition(1, SuperPoint.body_point(flat_r12.sig, 1, [0.0]),
                              {"x": G.from_scalar(1.0, 1),
                               "th1": G.generator(0, 1)})
        traj = integrate_geodesic(flat_r12, ic, 1.0, 1e-2)
        flow = integrate_flow(flat_r12, phase_from_ic(flat_r12, ic), 1.0, 1e-2)
        rep = roundtrip_check(flat_r12, traj, flow)
        assert rep.max_dev < 1e-12
        assert rep.initial_velocity_dev < 1e-14
        assert rep.max_dev <= 1e-6

    def test_mismatched_curves_rejected(self, flat_r12):
        ic = InitialCondition(1, SuperPoint.body_point(flat_r12.sig, 1, [0.0]),
                              {"x": G.from_scalar(1.0, 1)})
        traj = integrate_geodesic(flat_r12, ic, 1.0, 1e-2)
        coarse = integrate_flow(flat_r12, phase_from_ic(flat_r12, ic), 1.0, 2e-2)
        at_L0 = integrate_flow(flat_r12, phase(flat_r12, 0, [0.0], {}), 1.0, 1e-2)
        for flow in (coarse, at_L0):
            with pytest.raises(ValueError, match="L or time grid"):
                roundtrip_check(flat_r12, traj, flow)

    def test_curved_quick(self, c1x_r12):
        ic = InitialCondition(2, SuperPoint.body_point(c1x_r12.sig, 2, [0.0]),
                              {"x": G.from_scalar(1.0, 2),
                               "th1": G.generator(0, 2),
                               "th2": G.generator(1, 2)})
        traj = integrate_geodesic(c1x_r12, ic, 0.5, 1e-3)
        flow = integrate_flow(c1x_r12, phase_from_ic(c1x_r12, ic), 0.5, 1e-3)
        rep = roundtrip_check(c1x_r12, traj, flow)
        assert rep.max_dev <= 1e-6

    def test_flow_matches_geodesic_velocity(self, diag_x2):
        ic = InitialCondition(0, SuperPoint.body_point(diag_x2.sig, 0, [2.0, 0.0]),
                              {"y": G.from_scalar(1.0, 0)})
        traj = integrate_geodesic(diag_x2, ic, 0.5, 1e-3)
        flow = integrate_flow(diag_x2, phase_from_ic(diag_x2, ic), 0.5, 1e-3)
        assert np.max(np.abs(traj.positions - flow.positions)) < 1e-10
