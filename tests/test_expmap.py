"""Exponential map, tangent maps, isometry condition, naturality."""

import dataclasses

import numpy as np
import pytest

from supergeodesics.expmap import (
    LinearTangentMap,
    TangentFiberPoint,
    apply_morphism,
    body_image,
    exp_at,
    exp_jacobian_check,
    isometry_check,
    linearization_test,
    naturality_check,
    numerical_tangent_map,
    probe_points,
    tangent_map,
    tangent_map_matrix,
)
from supergeodesics import expmap, geodesics, verify
from supergeodesics.errors import LeftDomain
from supergeodesics.geodesics import integrate_geodesic
from supergeodesics.expmap import _exp_batch, _jacobian_rows
from supergeodesics.geometry import MetricChart, SuperPoint, metric_validate
from supergeodesics.grassmann import GrassmannElement as G, mask_parity
from supergeodesics.model import bundled_models, load_model
from supergeodesics.superexpr import ChartSignature, SuperMorphism, evaluate
from supergeodesics.verify import Fixtures, run_suites


def vec(sig, L, base, components):
    return TangentFiberPoint(sig, L, base, components)


@pytest.fixture(scope="module")
def rot_flat22(sig_r22):
    phi = 0.7
    return SuperMorphism(sig_r22, sig_r22, {
        "x": f"cos({phi})*x - sin({phi})*y",
        "y": f"sin({phi})*x + cos({phi})*y",
        "th1": "th1", "th2": "th2"})


@pytest.fixture(scope="module")
def odd_scaling(sig_r12):
    return SuperMorphism(sig_r12, sig_r12, {
        "x": "x", "th1": "2*th1", "th2": "0.5*th2"})


class TestExp:
    def test_flat_translation(self, flat_r12):
        v = vec(flat_r12.sig, 2, [0.5],
                {"x": G.from_scalar(0.7, 2), "th1": G.generator(0, 2),
                 "th2": 0.3 * G.generator(1, 2)})
        out = exp_at(flat_r12, v, dt=1e-2)
        assert out.values["x"].equals(G.from_scalar(1.2, 2), 1e-12)
        assert out.values["th1"].equals(G.generator(0, 2), 1e-12)
        assert out.values["th2"].equals(0.3 * G.generator(1, 2), 1e-12)

    def test_zero_vector(self, c1x_r12):
        v = vec(c1x_r12.sig, 2, [0.3], {})
        out = exp_at(c1x_r12, v, dt=1e-2)
        assert out.values["x"].equals(G.from_scalar(0.3, 2), 1e-13)
        assert out.values["th1"].is_zero()

    def test_flat_odd_seed(self, flat_r12):
        v = vec(flat_r12.sig, 1, [0.0], {"th1": G.generator(0, 1)})
        out = exp_at(flat_r12, v, dt=1e-2)
        assert out.values["th1"].equals(G.generator(0, 1), 1e-12)


class TestTangentMaps:
    def test_identity(self, sig_r12):
        ident = SuperMorphism.identity(sig_r12)
        t = tangent_map(ident)
        assert t.pullbacks["v_x"] == t.source.variable("v_x")
        num = numerical_tangent_map(ident, [0.4])
        assert np.allclose(num.matrix, np.eye(3))

    def test_rotation_acts_on_fibers(self, rot_flat22, sig_r22):
        t = tangent_map(rot_flat22)
        num = numerical_tangent_map(rot_flat22, [0.0, 0.0])
        c, s = np.cos(0.7), np.sin(0.7)
        assert num.matrix[0, 0] == pytest.approx(c)
        assert num.matrix[1, 0] == pytest.approx(-s)
        # fiber pullback evaluates to the same rotation
        point = {n: G.from_scalar(0.0, 0) for n in t.source.even_names}
        point.update({n: G.zero(0) for n in t.source.odd_names})
        point["v_x"] = G.from_scalar(1.0, 0)
        out = evaluate(t.pullbacks["v_x"], point)
        assert out.body == pytest.approx(c)

    def test_chain_rule(self):
        sig = ChartSignature(("x",), ())
        phi = SuperMorphism(sig, sig, {"x": "x^2"})
        num = numerical_tangent_map(phi, [3.0])
        assert num.matrix[0, 0] == pytest.approx(6.0)

    def test_odd_scaling_block(self, odd_scaling):
        num = numerical_tangent_map(odd_scaling, [0.0])
        assert np.allclose(num.matrix, np.diag([1.0, 2.0, 0.5]))

    def test_symbolic_numeric_agreement(self, rot_flat22, odd_scaling,
                                        sig_r12):
        nonlinear = SuperMorphism(sig_r12, sig_r12, {
            "x": "x + x^2", "th1": "exp(x)*th1", "th2": "th2 + x*th1"})
        for phi, q in ((rot_flat22, [0.3, -0.2]), (odd_scaling, [0.5]),
                       (nonlinear, [0.4])):
            sym = tangent_map_matrix(phi, q)
            num = numerical_tangent_map(phi, q).matrix
            assert np.max(np.abs(sym - num)) < 1e-12

    def test_mixed_blocks_must_vanish(self, sig_r12):
        bad = np.eye(3)
        bad[0, 1] = 0.5
        with pytest.raises(ValueError):
            LinearTangentMap(sig_r12, sig_r12, bad)


class TestExpJacobian:
    def test_flat_exact(self, flat_r12):
        rep = exp_jacobian_check(flat_r12, [0.0], h=1e-4, dt=1e-2)
        assert rep.even_dev < 1e-10
        assert rep.odd_dev < 1e-12
        assert rep.passed()

    def test_curved_within_tolerance(self, c1x_r12):
        rep = exp_jacobian_check(c1x_r12, [0.0], h=1e-4, dt=1e-3)
        assert rep.even_dev <= 1e-5
        assert rep.odd_dev <= 1e-9

    def test_classical_chart(self, diag_x2):
        rep = exp_jacobian_check(diag_x2, [2.0, 0.0], h=1e-4, dt=1e-3)
        assert rep.even_dev <= 1e-5
        assert rep.odd_dev == 0.0


class TestIsometryCheck:
    def test_identity_passes(self, c1x_r12):
        ident = SuperMorphism.identity(c1x_r12.sig)
        samples = probe_points(c1x_r12, [0.0], 2)
        rep = isometry_check(c1x_r12, c1x_r12, ident, samples)
        assert rep.passed and rep.max_dev == 0.0

    def test_rotation_is_isometry(self, flat_r22, rot_flat22):
        samples = probe_points(flat_r22, [0.0, 0.0], 2)
        rep = isometry_check(flat_r22, flat_r22, rot_flat22, samples)
        assert rep.passed

    def test_odd_symplectic_scaling(self, flat_r12, sig_r12):
        # th1 -> a th1, th2 -> th2/a preserves the odd block [[0,1],[-1,0]]
        phi = SuperMorphism(sig_r12, sig_r12, {
            "x": "x", "th1": "3*th1", "th2": "th2/3"})
        samples = probe_points(flat_r12, [0.0], 2)
        assert isometry_check(flat_r12, flat_r12, phi, samples).passed

    def test_c1x_odd_scaling(self, c1x_r12, odd_scaling):
        samples = probe_points(c1x_r12, [0.2], 2)
        assert isometry_check(c1x_r12, c1x_r12, odd_scaling, samples).passed

    def test_non_isometry_fails(self, c1x_r12, sig_r12):
        bad = SuperMorphism(sig_r12, sig_r12, {
            "x": "x", "th1": "2*th1", "th2": "2*th2"})
        samples = probe_points(c1x_r12, [0.2], 2)
        rep = isometry_check(c1x_r12, c1x_r12, bad, samples)
        assert not rep.passed
        assert rep.max_dev > 1e-2


class TestNaturality:
    def test_identity_zero_deviation(self, c1x_r12):
        ident = SuperMorphism.identity(c1x_r12.sig)
        vectors = [vec(c1x_r12.sig, 2, [0.0],
                       {"x": G.from_scalar(0.5, 2),
                        "th1": G.generator(0, 2)})]
        rep = naturality_check(c1x_r12, ident, [0.0], vectors, dt=1e-2)
        assert rep.max_dev == 0.0

    def test_flat_linear_isometry(self, flat_r22, rot_flat22):
        vectors = [vec(flat_r22.sig, 2, [0.0, 0.0],
                       {"x": G.from_scalar(0.6, 2),
                        "y": G.from_scalar(-0.4, 2),
                        "th1": G.generator(0, 2),
                        "th2": G.generator(1, 2)})]
        rep = naturality_check(flat_r22, rot_flat22, [0.0, 0.0], vectors,
                               dt=1e-2)
        assert rep.max_dev < 1e-12

    def test_curved_isometry(self, c1x_r12, odd_scaling):
        vectors = [vec(c1x_r12.sig, 2, [0.0],
                       {"x": G.from_scalar(0.5, 2),
                        "th1": G.generator(0, 2),
                        "th2": G.generator(1, 2)})]
        rep = naturality_check(c1x_r12, odd_scaling, [0.0], vectors, dt=1e-3)
        assert rep.max_dev <= 1e-6

    def test_negative_control_exceeds(self, c1x_r12, sig_r12):
        bad = SuperMorphism(sig_r12, sig_r12, {
            "x": "x", "th1": "2*th1", "th2": "2*th2"})
        vectors = [vec(c1x_r12.sig, 2, [0.0],
                       {"x": G.from_scalar(0.5, 2),
                        "th1": G.generator(0, 2),
                        "th2": G.generator(1, 2)})]
        with pytest.raises(ValueError):
            naturality_check(c1x_r12, bad, [0.0], vectors, dt=1e-2)
        rep = naturality_check(c1x_r12, bad, [0.0], vectors, dt=1e-2,
                               require_isometry=False)
        assert rep.max_dev > 1e-3


class TestLinearization:
    def test_identity_passes(self, c1x_r12):
        ident = SuperMorphism.identity(c1x_r12.sig)
        vectors = [vec(c1x_r12.sig, 2, [0.0],
                       {"x": G.from_scalar(0.4, 2),
                        "th1": G.generator(0, 2)})]
        rep = linearization_test(c1x_r12, ident, [0.0], vectors, dt=1e-2)
        assert rep.hypotheses_met and rep.passed

    def test_pi_rotation_hypotheses_not_met(self, flat_r22, sig_r22):
        # rotation by pi fixes 0 but has tangent map -id, not id
        pi_rot = SuperMorphism(sig_r22, sig_r22, {
            "x": "-x", "y": "-y", "th1": "th1", "th2": "th2"})
        vectors = [vec(sig_r22, 2, [0.0, 0.0], {"x": G.from_scalar(0.5, 2)})]
        rep = linearization_test(flat_r22, pi_rot, [0.0, 0.0], vectors,
                                 dt=1e-2)
        assert not rep.hypotheses_met
        assert "tangent map" in rep.reason

    def test_isometry_gate_fires_first(self, c1x_r12, sig_r12):
        bad = SuperMorphism(sig_r12, sig_r12, {
            "x": "x", "th1": "2*th1", "th2": "2*th2"})
        vectors = [vec(sig_r12, 2, [0.0], {"x": G.from_scalar(0.4, 2)})]
        rep = linearization_test(c1x_r12, bad, [0.0], vectors, dt=1e-2)
        assert not rep.hypotheses_met
        assert "isometry" in rep.reason

    def test_geodesic_symmetry_sign_flip(self, flat_r22, sig_r22):
        reflection = SuperMorphism(sig_r22, sig_r22, {
            "x": "-x", "y": "-y", "th1": "-th1", "th2": "-th2"})
        vectors = [vec(sig_r22, 2, [0.0, 0.0],
                       {"x": G.from_scalar(0.5, 2),
                        "y": G.from_scalar(-0.3, 2),
                        "th1": G.generator(0, 2),
                        "th2": G.generator(1, 2)})]
        rep = linearization_test(flat_r22, reflection, [0.0, 0.0], vectors,
                                 dt=1e-2, tangent_sign=-1.0)
        assert rep.hypotheses_met and rep.passed

    def test_moved_base_point_rejected(self, flat_r12, sig_r12):
        shift = SuperMorphism(sig_r12, sig_r12, {
            "x": "x + 1", "th1": "th1", "th2": "th2"})
        vectors = [vec(sig_r12, 2, [0.0], {"x": G.from_scalar(0.3, 2)})]
        rep = linearization_test(flat_r12, shift, [0.0], vectors, dt=1e-2)
        assert not rep.hypotheses_met
        assert "fixed" in rep.reason


class TestMorphismApplication:
    def test_apply_and_body_image(self, sig_r12, flat_r12):
        phi = SuperMorphism(sig_r12, sig_r12, {
            "x": "x + 1", "th1": "th1", "th2": "x*th2"})
        p = SuperPoint(sig_r12, 1, {"x": G.from_scalar(2.0, 1),
                                    "th1": G.generator(0, 1),
                                    "th2": G.zero(1)})
        out = apply_morphism(phi, p)
        assert out.values["x"].body == 3.0
        assert np.allclose(body_image(phi, [2.0]), [3.0])


# ---------------------------------------------------------------------------
# batched exp values


def assert_rows_equal_serial(chart, vectors, dt):
    """Every row of one batched run has the bits of its own serial exp_at."""
    batched = _exp_batch(chart, vectors, dt)
    assert len(batched) == len(vectors)
    for v, out in zip(vectors, batched):
        ref = exp_at(chart, v, dt)
        assert out.L == v.L
        for name in chart.sig.names:
            assert np.array_equal(out.values[name].coeffs,
                                  ref.values[name].coeffs), (v.L, name)


def random_vector(sig, L, base, rng, scale=0.3):
    """A parity-correct tangent vector with soul on every allowed mask."""
    par = mask_parity(L)
    comps = {}
    for name in sig.names:
        want = sig.parity_of(name)
        coeffs = np.where(par == want, rng.uniform(-scale, scale, 1 << L), 0.0)
        comps[name] = G(L, coeffs)
    return TangentFiberPoint(sig, L, base, comps)


@pytest.fixture(scope="module")
def curved_r12(sig_r12):
    """A 1|2 chart whose metric evaluates log, exp, sin and a reciprocal."""
    return MetricChart(sig_r12, [
        ["exp(x/2) + 1/(2 + x^2)", "0.3*sin(x)*th2", "0"],
        ["0.3*sin(x)*th2", "0", "log(3 + x)"],
        ["0", "-log(3 + x)", "0"]], name="curved_r12")


class TestBatchedExp:
    @pytest.mark.parametrize("name", bundled_models())
    def test_bundled_verify_rows(self, name):
        # the rows the exp and isometry suites batch: Jacobian rows at every
        # exp point (L = 0 and L = n_odd mixed) plus the test vectors and
        # their negatives
        model = load_model(name)
        fx = Fixtures(model)
        rows = [v for q in fx.exp_points
                for v in _jacobian_rows(model.sig, q, 1e-4)]
        rows += fx.vectors + [v.scaled(-1.0) for v in fx.vectors]
        assert_rows_equal_serial(model.chart, rows, 1e-2)

    def test_curved_chart_is_valid(self, curved_r12):
        samples = [SuperPoint.body_point(curved_r12.sig, 2, [x])
                   for x in (-0.5, 0.0, 0.7)]
        assert metric_validate(curved_r12, samples).ok

    def test_mixed_L_rows(self, curved_r12, curved_r22, rng):
        for chart in (curved_r12, curved_r22):
            sig = chart.sig
            rows = [random_vector(sig, L, np.full(sig.n_even, base), rng)
                    for L, base in ((3, 0.2), (0, -0.1), (2, 0.4), (1, 0.0),
                                    (3, -0.3), (0, 0.5), (1, 0.3), (2, -0.2))]
            assert_rows_equal_serial(chart, rows, 1e-2)

    def test_rows_at_L4(self, curved_r12, rng):
        sig = curved_r12.sig
        rows = [random_vector(sig, 4, [base], rng) for base in (0.1, -0.2, 0.3)]
        assert_rows_equal_serial(curved_r12, rows, 2e-2)

    def test_jacobian_rows_batched(self, curved_r12):
        reps = expmap.exp_jacobian_checks(curved_r12, [[0.0], [0.4]], dt=1e-2)
        for q, rep in zip(([0.0], [0.4]), reps):
            one = exp_jacobian_check(curved_r12, q, dt=1e-2)
            assert np.array_equal(rep.matrix, one.matrix)
            assert rep.passed(tol_even=1e-3)

    def test_domain_error_in_one_row(self, curved_r12, rng):
        # the last stage of the first step evaluates log(3 + x) at x < -3
        sig = curved_r12.sig
        dive = TangentFiberPoint(sig, 2, [0.0], {"x": G.from_scalar(-500.0, 2)})
        rows = [random_vector(sig, 2, [0.1], rng), dive,
                random_vector(sig, 0, [0.2], rng)]
        with pytest.raises(LeftDomain, match="t=0 .*log undefined"):
            _exp_batch(curved_r12, rows, 1e-2)
        with pytest.raises(LeftDomain, match="t=0 .*log undefined"):
            exp_at(curved_r12, dive, 1e-2)

    def test_empty_batch(self, curved_r12):
        assert _exp_batch(curved_r12, [], 1e-2) == []

    @pytest.mark.parametrize("name", bundled_models())
    @pytest.mark.usefixtures("one_worker")
    def test_suites_match_serial_reference(self, name, monkeypatch):
        # the same suites with every exp value and the suite geodesic
        # integrated on their own
        model = coarse(name)
        batched = run_suites(model, ("all",))
        calls = []

        def serial(chart, vectors, dt, curve=None, jobs=None):
            calls.append((len(vectors), curve))
            return ([exp_at(chart, v, dt) for v in vectors],
                    None if curve is None else integrate_geodesic(chart, *curve))

        monkeypatch.setattr(expmap, "_shoot", serial)
        assert run_suites(model, ("all",)) == batched
        # the planner went through the serial reference, once
        assert len(calls) == 1 and calls[0][0] > 0 and calls[0][1] is not None


def coarse(name):
    """A bundled model at dt = 1e-2."""
    model = load_model(name)
    return dataclasses.replace(model, defaults={**model.defaults, "dt": 1e-2})


def paper_runs(monkeypatch):
    """Record the initial state of every paper-mode RK4 run as (pos, vel),
    split off the one state array.  The serial runs step through the `_rk4`
    of `geodesics`, the planned ones through the `_rk4` that `expmap`
    imports; the flow steps through the one `cotangent` imports and is not
    recorded."""
    runs = []
    inner = geodesics._rk4

    def recorded(rhs, state, h, steps, chart, record=None):
        n = state.shape[-2] // 2
        runs.append((state[..., :n, :], state[..., n:, :]))
        return inner(rhs, state, h, steps, chart, record)

    for module in (expmap, geodesics):
        monkeypatch.setattr(module, "_rk4", recorded)
    return runs


def state_keys(L, pos, vel):
    """One key per row of a batched (or unbatched) initial state."""
    pos, vel = pos.reshape(-1, *pos.shape[-2:]), vel.reshape(-1, *vel.shape[-2:])
    return [(L, p.tobytes(), v.tobytes()) for p, v in zip(pos, vel)]


def row_key(v):
    ic = v.to_initial_condition()
    return state_keys(v.L, ic.position.as_array(), ic.velocity_array())[0]


@pytest.mark.usefixtures("one_worker")
class TestVerifyPlan:
    @pytest.mark.parametrize("name, runs", [("c1x_r12", 3), ("diag_x2", 2),
                                            ("flat_r12", 3), ("flat_r22", 3)])
    def test_paper_runs_per_model(self, name, runs, monkeypatch):
        # one planned run per (L, grid) plus the serial determinism re-run
        recorded = paper_runs(monkeypatch)
        run_suites(coarse(name), ("all",))
        assert len(recorded) == runs

    @pytest.mark.parametrize("name", bundled_models())
    def test_every_planned_row_integrated_once(self, name, monkeypatch):
        model = coarse(name)
        asked = []
        lookup = expmap.ExpTable.__call__

        def asking(table, chart, vectors, dt=1e-3):
            asked.extend(row_key(v) for v in vectors)
            return lookup(table, chart, vectors, dt)

        monkeypatch.setattr(expmap.ExpTable, "__call__", asking)
        recorded = paper_runs(monkeypatch)
        run_suites(model, ("all",))
        batched = [st for st in recorded if st[0].ndim == 3]
        assert len(batched) == len(recorded) - 1  # the determinism re-run
        rows = [k for st in batched
                for k in state_keys(int(np.log2(st[0].shape[-1])), *st)]
        ic = Fixtures(model).run_ic()
        curve = state_keys(ic.L, ic.position.as_array(), ic.velocity_array())[0]
        assert len(rows) == len(set(rows))
        assert sorted(rows) == sorted(set(asked) | {curve})

    def test_each_gate_evaluated_once(self, monkeypatch):
        # 10 isometry conditions (`Fixtures.isometry`, which naturality
        # reads) and 6 linearization gates, which their tests read
        calls = []
        inner = expmap.isometry_check

        def counted(*args, **kwargs):
            calls.append(args)
            return inner(*args, **kwargs)

        for module in (expmap, verify):
            monkeypatch.setattr(module, "isometry_check", counted)
        for name in bundled_models():
            run_suites(coarse(name), ("isometry",))
        assert len(calls) == 16

    def test_metric_suite_integrates_nothing(self, monkeypatch):
        recorded = paper_runs(monkeypatch)
        for name in bundled_models():
            run_suites(coarse(name), ("metric",))
        assert recorded == []

    @pytest.mark.parametrize("name", bundled_models())
    def test_exp_suite_integrates_jacobian_rows_only(self, name, monkeypatch):
        model = coarse(name)
        recorded = paper_runs(monkeypatch)
        run_suites(model, ("exp",))
        rows = {k for st in recorded
                for k in state_keys(int(np.log2(st[0].shape[-1])), *st)}
        fx = Fixtures(model)
        want = {row_key(v) for q in fx.exp_points
                for v in _jacobian_rows(model.sig, q, 1e-4)}
        assert rows == want
        assert len(recorded) == len({k[0] for k in want})

    def test_unplanned_row_raises(self):
        model = coarse("c1x_r12")
        fx = Fixtures(model, ("isometry",))
        v = fx.vectors[0]
        assert fx.exp(model.chart, [v], fx.dt) == fx.exp(model.chart, [v],
                                                          fx.dt)
        with pytest.raises(LookupError):
            fx.exp(model.chart, [v.scaled(0.5)], fx.dt)
        with pytest.raises(LookupError):
            fx.exp(model.chart, [v], 2 * fx.dt)
        with pytest.raises(LookupError):
            fx.geodesic

    @pytest.mark.parametrize("listing", [
        {"point_symmetries": ["odd_scaling"]},
        {"isometries": ["odd_scaling", "odd_scaling_bad"]}])
    def test_only_rows_read_are_planned(self, listing, monkeypatch):
        # a check stopped by a gate (T_q Phi is not -id; the isometry
        # condition fails) reads no exp rows, so none are planned for it
        base = coarse("c1x_r12")
        model = dataclasses.replace(
            base, verify_config={**base.verify_config, **listing})

        def on_demand(chart, vectors, dt=1e-3):
            return [exp_at(chart, v, dt) for v in vectors]

        with monkeypatch.context() as patch:
            patch.setattr(Fixtures, "exp", property(lambda fx: on_demand))
            reference = run_suites(model, ("isometry",))

        planned, asked = [], []
        shoot, lookup = expmap._shoot, expmap.ExpTable.__call__

        def planning(chart, vectors, dt, curve=None, jobs=None):
            planned.extend(row_key(v) for v in vectors)
            return shoot(chart, vectors, dt, curve, jobs)

        def asking(table, chart, vectors, dt=1e-3):
            asked.extend(row_key(v) for v in vectors)
            return lookup(table, chart, vectors, dt)

        monkeypatch.setattr(expmap, "_shoot", planning)
        monkeypatch.setattr(expmap.ExpTable, "__call__", asking)
        assert run_suites(model, ("isometry",)) == reference
        assert len(planned) == len(set(planned))
        assert set(planned) == set(asked)
