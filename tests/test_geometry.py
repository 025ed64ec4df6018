"""Metric validation, inverse metric, Christoffel oracles, body reduction.

The curved-metric expectations are frozen from hand derivations done before
implementation:

* diag(1, x^2) (classical): Gamma^y_xy = Gamma^y_yx = 1/x, Gamma^x_yy = -x.
* g_xx = 1, g_{th1 th2} = -g_{th2 th1} = c(x) with c(x) = 1 + x:
  expanding the graded coordinate formula gives
      Gamma^{th1}_{x th1} = Gamma^{th2}_{x th2} =  c'/(2c),
      Gamma^x_{th1 th2}   = -c'/2,   Gamma^x_{th2 th1} = +c'/2,
  all other symbols zero.
"""

import numpy as np
import pytest

from supergeodesics.cotangent import PhasePoint, _xh
from supergeodesics.errors import (
    InvalidPoint,
    MismatchedGeneratorCount,
    ParityViolation,
    SingularBody,
    UnknownCoordinate,
)
from supergeodesics.expmap import TangentFiberPoint
from supergeodesics.geodesics import InitialCondition, _acceleration
from supergeodesics.geometry import (
    ChristoffelTable,
    MetricChart,
    SuperPoint,
    christoffel_at,
    metric_inverse_at,
    metric_validate,
    reduce_body,
)
from supergeodesics.grassmann import GrassmannElement as G, dim, mask_parity
from supergeodesics.superexpr import ChartSignature
from supergeodesics.verify import random_superpoint


def gamma_dense(chart, point):
    table = christoffel_at(chart, point)
    return table.values


class TestSuperPoint:
    def test_parity_enforced(self, sig_r12):
        with pytest.raises(Exception):
            SuperPoint(sig_r12, 1, {"x": G.generator(0, 1),
                                    "th1": G.zero(1), "th2": G.zero(1)})

    def test_missing_coordinate(self, sig_r12):
        with pytest.raises(InvalidPoint):
            SuperPoint(sig_r12, 1, {"x": G.zero(1)})

    def test_array_roundtrip(self, sig_r12):
        p = SuperPoint(sig_r12, 2, {
            "x": 1 + G.basis(0b11, 2, 0.5),
            "th1": G.generator(0, 2), "th2": G.generator(1, 2)})
        again = SuperPoint.from_array(sig_r12, 2, p.as_array())
        assert again == p
        assert p.body_even() == pytest.approx([1.0])


# each record's constructor on (sig, L, values), returning its checked values
RECORDS = {
    "SuperPoint": lambda sig, L, vals: SuperPoint(sig, L, vals).values,
    "InitialCondition": lambda sig, L, vals: InitialCondition(
        L, SuperPoint.body_point(sig, L, [0.0]), vals).velocity,
    "PhasePoint": lambda sig, L, vals: PhasePoint(
        SuperPoint.body_point(sig, L, [0.0]), vals).momenta,
    "TangentFiberPoint": lambda sig, L, vals: TangentFiberPoint(
        sig, L, [0.0], vals).vector,
}


@pytest.mark.parametrize("record", sorted(RECORDS))
class TestCoordinateValuesRule:
    """The one rule of ChartSignature.graded, as each record applies it."""

    @staticmethod
    def full():
        return {"th2": G.generator(1, 2), "th1": 0.5 * G.generator(0, 2),
                "x": 1 + G.basis(0b11, 2, 0.5)}

    def test_values_in_signature_order(self, sig_r12, record):
        vals = RECORDS[record](sig_r12, 2, self.full())
        assert list(vals) == ["x", "th1", "th2"]
        assert all(vals[n] == v for n, v in self.full().items())

    def test_unknown_name(self, sig_r12, record):
        with pytest.raises(UnknownCoordinate, match="xx"):
            RECORDS[record](sig_r12, 2, {**self.full(), "xx": G.zero(2)})

    def test_wrong_generator_count(self, sig_r12, record):
        with pytest.raises(MismatchedGeneratorCount):
            RECORDS[record](sig_r12, 2, {**self.full(), "x": G.from_scalar(1, 1)})

    def test_wrong_parity(self, sig_r12, record):
        with pytest.raises(ParityViolation):
            RECORDS[record](sig_r12, 2,
                            {**self.full(), "th1": G.from_scalar(1, 2)})

    def test_missing_coordinate(self, sig_r12, record):
        x = G.from_scalar(0.3, 2)
        if record == "SuperPoint":
            with pytest.raises(InvalidPoint):
                RECORDS[record](sig_r12, 2, {"x": x})
        else:
            assert RECORDS[record](sig_r12, 2, {"x": x}) == {
                "x": x, "th1": G.zero(2), "th2": G.zero(2)}

    def test_pack_unpack_roundtrip(self, sig_r12, record):
        vals = RECORDS[record](sig_r12, 2, self.full())
        arr = sig_r12.pack(vals)
        assert arr.shape == (3, dim(2))
        assert sig_r12.unpack(2, arr) == vals


class TestValidation:
    def test_flat_passes(self, flat_r12):
        samples = [SuperPoint.body_point(flat_r12.sig, 2, [0.3])]
        report = metric_validate(flat_r12, samples)
        assert report.ok and report.max_deviation == 0.0

    def test_symmetry_deviation_measured(self):
        # g_xy - g_yx = 1e-9 * x: measured at every sample, past a violation
        sig = ChartSignature(("x", "y"), ())
        chart = MetricChart(sig, [["1", "0.1*x"], ["0.100000001*x", "x^2"]])
        samples = [SuperPoint.body_point(sig, 0, [x, 0.0]) for x in (1.0, 2.0)]
        loose, tight = (metric_validate(chart, samples, tol)
                        for tol in (1e-6, 1e-10))
        assert loose.ok and not tight.ok
        assert "deviation 1e-09" in tight.first_violation
        assert loose.max_deviation == tight.max_deviation
        assert abs(tight.max_deviation - 2e-9) < 1e-15

    def test_symmetric_odd_block_fails(self, sig_r12):
        broken = MetricChart(sig_r12, [["1", "0", "0"],
                                       ["0", "0", "1"],
                                       ["0", "1", "0"]])
        report = metric_validate(
            broken, [SuperPoint.body_point(sig_r12, 2, [0.0])])
        assert not report.ok
        assert "symmetry" in report.first_violation

    def test_odd_dimension_must_be_even(self):
        sig = ChartSignature(("x",), ("th",))
        chart = MetricChart(sig, [["1", "0"], ["0", "th"]])
        report = metric_validate(chart, [])
        assert not report.ok
        assert "odd dimension" in report.first_violation

    def test_degenerate_block_detected(self, sig_r12):
        degenerate = MetricChart(sig_r12, [["1", "0", "0"],
                                           ["0", "0", "x"],
                                           ["0", "-x", "0"]])
        p = SuperPoint.body_point(sig_r12, 2, [0.0])
        report = metric_validate(degenerate, [p])
        assert not report.ok
        assert "degenerate" in report.first_violation


class TestWindow:
    """`MetricChart.window`: the part of the box near the origin where
    `verify` places its default and random points."""

    @pytest.mark.parametrize("box, half, window", [
        (None, 2.0, (-2.0, 2.0)),
        ((-0.8, 20.0), 1.0, (-0.8, 1.0)),
        ((0.2, 100.0), 2.0, (0.2, 2.0)),
        ((-0.5, 0.5), 2.0, (-0.5, 0.5)),
        ((5.0, 10.0), 1.0, (5.0, 7.0)),
        ((5.0, 10.0), 2.0, (5.0, 9.0)),
        ((5.0, 6.0), 2.0, (5.0, 6.0)),
        ((1.0, 3.0), 1.0, (1.0, 3.0)),
        ((-10.0, -5.0), 1.0, (-7.0, -5.0)),
        ((-3.0, -1.0), 2.0, (-2.0, -1.0)),
    ], ids=["unbounded", "clipped_above", "clipped", "inside", "far_above",
            "far_above_wide", "far_narrow", "touching", "far_below",
            "clipped_below"])
    def test_window(self, box, half, window):
        sig = ChartSignature(("x",), ())
        chart = MetricChart(sig, [["1"]], {"x": box} if box else None)
        assert chart.window("x", half) == window


class TestInverse:
    def test_identity_metric(self, flat_r22):
        p = SuperPoint.body_point(flat_r22.sig, 2, [0.0, 0.0])
        ginv = metric_inverse_at(flat_r22, p)
        assert ginv[0][0] == G.from_scalar(1.0, 2)
        assert ginv[0][1] == G.zero(2)

    def test_odd_block_inverse(self, flat_r12):
        # block [[0, 1], [-1, 0]] inverts to [[0, -1], [1, 0]]
        p = SuperPoint.body_point(flat_r12.sig, 2, [0.0])
        ginv = metric_inverse_at(flat_r12, p)
        assert ginv[1][2] == G.from_scalar(-1.0, 2)
        assert ginv[2][1] == G.from_scalar(1.0, 2)

    def test_matches_scalar_inversion(self):
        sig = ChartSignature(("x",), ())
        chart = MetricChart(sig, [["x"]], {"x": (0.5, 10.0)})
        value = 2 + G.basis(0b11, 2)
        p = SuperPoint(sig, 2, {"x": value})
        ginv = metric_inverse_at(chart, p)
        assert ginv[0][0].equals(value.invert(), 1e-15)

    def test_inverse_identity_at_random_points(self, c1x_r12, rng):
        from supergeodesics.grassmann import mul_dense
        kern = c1x_r12.kernel(2)
        for _ in range(20):
            p = random_superpoint(c1x_r12, 2, rng)
            pos = p.as_array()
            Gm = kern.eval_metric(pos)
            ginv = kern.fields(pos)[0]
            for i in range(3):
                for j in range(3):
                    acc = np.zeros(dim(2))
                    for k in range(3):
                        acc += mul_dense(ginv[i, k], Gm[k, j], 2)
                    acc[0] -= 1.0 if i == j else 0.0
                    assert np.max(np.abs(acc)) < 1e-13

    def test_singular_body(self):
        sig = ChartSignature(("x",), ())
        chart = MetricChart(sig, [["x"]])
        p = SuperPoint.body_point(sig, 0, [0.0])
        with pytest.raises(SingularBody):
            metric_inverse_at(chart, p)

    def test_point_outside_domain(self, c1x_r12):
        p = SuperPoint.body_point(c1x_r12.sig, 2, [-0.9])
        with pytest.raises(InvalidPoint):
            metric_inverse_at(c1x_r12, p)


class TestChristoffel:
    def test_flat_vanishes(self, flat_r12):
        p = SuperPoint.body_point(flat_r12.sig, 2, [1.0])
        assert not gamma_dense(flat_r12, p).any()

    def test_classical_oracle(self, diag_x2):
        p = SuperPoint.body_point(diag_x2.sig, 0, [2.0, 0.0])
        table = christoffel_at(diag_x2, p)
        assert table.entry("y", "x", "y").body == pytest.approx(0.5, abs=1e-10)
        assert table.entry("y", "y", "x").body == pytest.approx(0.5, abs=1e-10)
        assert table.entry("x", "y", "y").body == pytest.approx(-2.0, abs=1e-10)
        nonzero = dict(table.nonzero(1e-12))
        assert len(nonzero) == 3

    def test_graded_oracle(self, c1x_r12):
        # c(x) = 1 + x at x = 0 and x = 0.5
        for x0, half_cp_over_c, half_cp in ((0.0, 0.5, 0.5),
                                            (0.5, 1.0 / 3.0, 0.5)):
            p = SuperPoint.body_point(c1x_r12.sig, 2, [x0])
            table = christoffel_at(c1x_r12, p)
            assert table.entry("th1", "x", "th1").body == pytest.approx(
                half_cp_over_c, abs=1e-10)
            assert table.entry("th2", "x", "th2").body == pytest.approx(
                half_cp_over_c, abs=1e-10)
            assert table.entry("x", "th1", "th2").body == pytest.approx(
                -half_cp, abs=1e-10)
            assert table.entry("x", "th2", "th1").body == pytest.approx(
                half_cp, abs=1e-10)
            assert len(dict(table.nonzero(1e-12))) == 6

    def test_parity_and_symmetry(self, c1x_r12, rng):
        sig = c1x_r12.sig
        par = sig.parity_vector()
        mpar = mask_parity(2)
        for _ in range(25):
            p = random_superpoint(c1x_r12, 2, rng)
            gamma = gamma_dense(c1x_r12, p)
            for k in range(3):
                for i in range(3):
                    for j in range(3):
                        expected = (par[k] + par[i] + par[j]) % 2
                        wrong = gamma[k, i, j][mpar != expected]
                        assert np.max(np.abs(wrong), initial=0.0) <= 1e-10
                        sign = -1.0 if par[i] and par[j] else 1.0
                        assert np.max(np.abs(
                            gamma[k, i, j] - sign * gamma[k, j, i])) <= 1e-10


class TestBodyReduction:
    def test_flat_reduces_to_line(self, flat_r12):
        body = reduce_body(flat_r12)
        assert body.metric([3.0]) == pytest.approx(np.eye(1))
        assert not body.christoffel([3.0]).any()

    def test_classical_block(self, sig_r22):
        chart = MetricChart(
            sig_r22,
            [["1", "0", "0", "0"], ["0", "x^2", "0", "0"],
             ["0", "0", "0", "1 + x"], ["0", "0", "-(1 + x)", "0"]],
            {"x": (0.5, 10.0)})
        body = reduce_body(chart)
        x = [2.0, 1.0]
        assert np.allclose(body.metric(x), np.diag([1.0, 4.0]))
        gamma = body.christoffel(x)
        assert gamma[1, 0, 1] == pytest.approx(0.5)
        assert gamma[0, 1, 1] == pytest.approx(-2.0)

    def test_beta_compatibility(self, c1x_r12):
        # body of the super symbols (even sector) equals the classical ones
        body = reduce_body(c1x_r12)
        for x0 in (-0.3, 0.0, 0.7, 1.5):
            p = SuperPoint.body_point(c1x_r12.sig, 0, [x0])
            gamma = christoffel_at(c1x_r12, p).values
            assert gamma[:1, :1, :1, 0] == pytest.approx(
                body.christoffel([x0]), abs=1e-12)


class TestBatchAxis:
    """States with a leading batch axis: every row has the bits of its own
    single-point evaluation."""

    @staticmethod
    def kernel_values(kern, pos, vel):
        ginv = kern.fields(pos)[0]
        dG = kern.eval_dmetric(pos)
        return (kern.eval_metric(pos), dG, ginv,
                kern.christoffel(pos), kern.dginv(ginv, dG),
                _acceleration(kern, pos, vel), *_xh(kern, pos, vel))

    @pytest.mark.parametrize("L", [0, 1, 2, 3, 4])
    def test_rows_match_single_points(self, curved_r22, c1x_r12, rng, L):
        for chart in (curved_r22, c1x_r12):
            kern = chart.kernel(L)
            pos, vel = (np.stack([random_superpoint(chart, L, rng).as_array()
                                  for _ in range(5)]) for _ in range(2))
            batched = self.kernel_values(kern, pos, vel)
            for r in range(len(pos)):
                single = self.kernel_values(kern, pos[r], vel[r])
                for got, want in zip(batched, single):
                    got = np.broadcast_to(got, (5,) + want.shape)
                    assert np.array_equal(got[r], want)
