"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL line.

All tolerances are pinned here; expensive integrations are shared through
module-scoped fixtures.  The bundled models are the four shipped fixtures.
"""

import numpy as np
import pytest

from supergeodesics.cli import main as cli_main
from supergeodesics.cotangent import (
    energy_series,
    integrate_flow,
    phase_from_ic,
    roundtrip_check,
)
from supergeodesics.expmap import exp_jacobian_checks, naturality_check
from supergeodesics.geodesics import (
    integrate_geodesic,
    integrate_goertsches,
    metric_speed,
)
from supergeodesics.geometry import SuperPoint, christoffel_at, reduce_body
from supergeodesics.grassmann import GrassmannElement as G, dim, mask_parity
from supergeodesics.model import load_model, vector_from_spec
from supergeodesics.verify import (
    classical_geodesic,
    run_metric_suite,
)

MODEL_NAMES = ("flat_r12", "c1x_r12", "diag_x2", "flat_r22")
DT = 1e-3
T_END = 1.0


def report(number, description, passed, detail=""):
    tag = "PASS" if passed else "FAIL"
    print(f"[AC{number:02d}] {tag} {description} {detail}".rstrip())
    assert passed, f"acceptance criterion {number} failed: {description} {detail}"


@pytest.fixture(scope="module")
def models():
    return {name: load_model(name) for name in MODEL_NAMES}


@pytest.fixture(scope="module")
def runs(models):
    """Per model: geodesic trajectory, flow, and the round-trip report for
    the model's designated verification initial condition."""
    out = {}
    for name, model in models.items():
        ic = model.initial_condition(model.verify_config["ic"])
        traj = integrate_geodesic(model.chart, ic, T_END, DT)
        flow = integrate_flow(model.chart, phase_from_ic(model.chart, ic),
                              T_END, DT)
        rt = roundtrip_check(model.chart, traj, flow, tolerance=1e-6)
        out[name] = {"ic": ic, "traj": traj, "flow": flow, "roundtrip": rt}
    return out


def test_ac1_flat_closed_form(models):
    """Flat R^{1|2}, odd velocity theta on slot th1: position is t*theta."""
    model = models["flat_r12"]
    ic = model.initial_condition("odd_slope")
    assert ic.L == 1
    traj = integrate_geodesic(model.chart, ic, T_END, DT)
    final = traj.positions[-1]
    expect = np.zeros_like(final)
    expect[model.sig.index("th1"), 1] = 1.0  # t * theta at t = 1
    dev = float(np.max(np.abs(final - expect)))
    report(1, "flat closed form t*theta at t=1", dev <= 1e-9, f"dev={dev:.3g}")


def test_ac2_christoffel_oracles(models):
    """Hand-derived Christoffel values on both curved fixtures, to 1e-10."""
    diag = models["diag_x2"].chart
    dev = 0.0
    for x0 in (2.0, 3.0):
        table = christoffel_at(diag, SuperPoint.body_point(diag.sig, 0,
                                                           [x0, 0.0]))
        dev = max(dev, abs(table.entry("y", "x", "y").body - 1.0 / x0))
        dev = max(dev, abs(table.entry("y", "y", "x").body - 1.0 / x0))
        dev = max(dev, abs(table.entry("x", "y", "y").body + x0))

    c1x = models["c1x_r12"].chart
    for x0 in (0.0, 0.5):
        c, cp = 1.0 + x0, 1.0
        table = christoffel_at(c1x, SuperPoint.body_point(c1x.sig, 2, [x0]))
        dev = max(dev, abs(table.entry("th1", "x", "th1").body
                           - 0.5 * cp / c))
        dev = max(dev, abs(table.entry("th2", "x", "th2").body
                           - 0.5 * cp / c))
        dev = max(dev, abs(table.entry("x", "th1", "th2").body + 0.5 * cp))
        dev = max(dev, abs(table.entry("x", "th2", "th1").body - 0.5 * cp))
    report(2, "Christoffel symbols match hand-derived values", dev <= 1e-10,
           f"dev={dev:.3g}")


def test_ac3_roundtrip_both_directions(runs):
    """Geodesics and projected flow agree coefficient-wise both ways."""
    worst = 0.0
    for name in MODEL_NAMES:
        rt = runs[name]["roundtrip"]
        worst = max(worst, rt.flow_to_geodesic_dev, rt.geodesic_to_flow_dev)
    report(3, "geodesic/flow round trip on all bundled metrics",
           worst <= 1e-6, f"max dev={worst:.3g}")


def test_ac4_conservation(models, runs):
    """Energy along the flow and speed along geodesics drift <= 1e-8."""
    worst = 0.0
    for name in MODEL_NAMES:
        chart = models[name].chart
        H = energy_series(chart, runs[name]["flow"])
        worst = max(worst, float(np.max(np.abs(H - H[0]))))
        speed = metric_speed(chart, runs[name]["traj"])
        worst = max(worst, float(np.max(np.abs(speed - speed[0]))))
    report(4, "energy and speed conservation over [0,1]", worst <= 1e-8,
           f"max drift={worst:.3g}")


def test_ac5_body_reduction(models, runs):
    """Body of even coordinates matches an independent classical integrator."""
    worst = 0.0
    for name in MODEL_NAMES:
        chart = models[name].chart
        traj = runs[name]["traj"]
        m = chart.sig.n_even
        body = reduce_body(chart)
        _, xs, _ = classical_geodesic(body, traj.positions[0, :m, 0],
                                      traj.velocities[0, :m, 0], T_END, DT)
        worst = max(worst, float(np.max(np.abs(traj.positions[:, :m, 0] - xs))))
    report(5, "body reduction matches the classical geodesic oracle",
           worst <= 1e-8, f"max dev={worst:.3g}")


def test_ac6_exp_jacobian_identity(models):
    """Numerical T_0 exp_q on a 5-point grid per metric: identity blocks."""
    worst_even = 0.0
    worst_odd = 0.0
    for name in MODEL_NAMES:
        model = models[name]
        points = model.verify_config["exp_points"]
        assert len(points) == 5
        for rep in exp_jacobian_checks(model.chart, points, h=1e-4, dt=DT):
            worst_even = max(worst_even, rep.even_dev)
            worst_odd = max(worst_odd, rep.odd_dev)
    passed = worst_even <= 1e-5 and worst_odd <= 1e-9
    report(6, "T_0 exp_q = id (even via h=1e-4 differences, odd exact)",
           passed, f"even dev={worst_even:.3g}, odd dev={worst_odd:.3g}")


def test_ac7_isometry_naturality(models):
    """Naturality on every bundled isometry fixture; negative controls
    must exceed 1e-3."""
    worst = 0.0
    n_isometries = 0
    for name in MODEL_NAMES:
        model = models[name]
        cfg = model.verify_config
        base = np.asarray(cfg["base_point"], dtype=float)
        L = max(model.L, 1) if model.sig.n_odd else model.L
        vectors = [vector_from_spec(s, model.sig, L, base)
                   for s in cfg["vectors"]]
        for iso_name in cfg["isometries"]:
            rep = naturality_check(model.chart, model.morphism(iso_name),
                                   base, vectors, dt=DT)
            worst = max(worst, rep.max_dev)
            n_isometries += 1
        for bad_name in cfg.get("negative_controls", []):
            rep = naturality_check(model.chart, model.morphism(bad_name),
                                   base, vectors, dt=DT,
                                   require_isometry=False)
            assert rep.isometry_dev > 1e-3
            assert rep.max_dev > 1e-3, (name, bad_name, rep.max_dev)
    passed = worst <= 1e-6 and n_isometries >= 6
    report(7, f"naturality on {n_isometries} isometry fixtures "
           "(negative controls exceed 1e-3)", passed, f"max dev={worst:.3g}")


def test_ac8_mode_divergence(models):
    """Same odd data: second-order mode is affine with nonzero slope in t,
    first-order mode is constant, coefficient-wise."""
    model = models["flat_r12"]
    ic = model.initial_condition("goertsches_demo")
    paper = integrate_geodesic(model.chart, ic, T_END, DT)
    goer = integrate_goertsches(model.chart, ic, T_END, DT)
    idx = model.sig.index("th1")
    slope = ic.velocity["th1"].coeffs[1]
    assert slope != 0.0
    affine_dev = float(np.max(np.abs(
        paper.positions[:, idx, 1] - (1.0 + slope * paper.ts))))
    const_dev = float(np.max(np.abs(goer.positions[:, idx, 1] - 1.0)))
    other_masks = [m for m in range(dim(1)) if m != 1]
    clean = float(np.max(np.abs(paper.positions[:, idx, other_masks])))
    passed = affine_dev <= 1e-9 and const_dev <= 1e-12 and clean == 0.0
    report(8, "integration modes diverge on odd data (affine vs constant)",
           passed, f"affine dev={affine_dev:.3g}, const dev={const_dev:.3g}")


def test_ac9_structural_invariants(models, rng):
    """Gamma symmetry/parity and metric compatibility at 100 random points
    per metric; Grassmann laws on 1000 triples; inversion on 1000 elements."""
    failed = []
    for name in MODEL_NAMES:
        for check in run_metric_suite(models[name], n_points=100):
            if not check.passed:
                failed.append((name, check.name, check.max_deviation))

    worst_law = 0.0
    for _ in range(1000):
        coeffs = rng.uniform(-1.0, 1.0, (3, dim(3)))
        a, b, c = (G(3, row) for row in coeffs)
        worst_law = max(worst_law, float(np.max(np.abs(
            ((a * b) * c).coeffs - (a * (b * c)).coeffs))))
        worst_law = max(worst_law, float(np.max(np.abs(
            (a * (b + c)).coeffs - (a * b + a * c).coeffs))))

    worst_inv = 0.0
    mpar = mask_parity(4)
    for _ in range(1000):
        arr = rng.uniform(-1.0, 1.0, dim(4))
        arr[mpar == 1] = 0.0
        arr[0] = rng.uniform(0.1, 1.0) * rng.choice([-1.0, 1.0])
        a = G(4, arr)
        prod = (a * a.invert()).coeffs.copy()
        prod[0] -= 1.0
        worst_inv = max(worst_inv, float(np.max(np.abs(prod))))

    passed = not failed and worst_law <= 1e-12 and worst_inv <= 1e-10
    report(9, "structural invariants (metric suites, algebra laws, inverses)",
           passed, f"laws={worst_law:.3g}, inverses={worst_inv:.3g}, "
           f"suite failures={failed}")


def test_ac10_cli_determinism(tmp_path, capsys):
    """Repeated geodesic/flow invocations produce byte-identical CSV."""
    outputs = {}
    for tag, argv in {
        "geo": ["geodesic", "--model", "c1x_r12", "--ic", "run",
                "--dt", "0.001", "--t-end", "1.0"],
        "flow": ["flow", "--model", "c1x_r12", "--ic", "run",
                 "--dt", "0.001", "--t-end", "1.0"],
    }.items():
        paths = []
        for attempt in range(2):
            path = tmp_path / f"{tag}{attempt}.csv"
            code = cli_main(argv + ["--out", str(path)])
            assert code == 0
            paths.append(path.read_bytes())
        outputs[tag] = paths[0] == paths[1]
    capsys.readouterr()
    passed = all(outputs.values())
    report(10, "repeated CLI integrations are byte-identical", passed,
           str(outputs))
