"""CLI subcommands: tables, CSV determinism, verification, error codes."""

import json
import warnings
from importlib import resources

import numpy as np
import pytest

from supergeodesics import cli, errors, expmap, geodesics, verify
from supergeodesics.cli import main
from supergeodesics.model import load_model
from supergeodesics.superexpr import _MAX_EXPONENT, _MAX_NESTING
from supergeodesics.verify import Fixtures


def count_calls(monkeypatch, module, name):
    """Wrap module.name; returns the list its calls append to."""
    calls = []
    inner = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return inner(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def bundled_doc(name):
    path = resources.files("supergeodesics.models") / f"{name}.json"
    return json.loads(path.read_text())


def write_model(tmp_path, name, data):
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(data))
    return str(path)


BROKEN_METRIC = {
    "schema_version": 1,
    "name": "broken",
    "signature": {"even": ["x"], "odd": ["th1", "th2"]},
    "metric": [["1", "0", "0"], ["0", "0", "1"], ["0", "1", "0"]],
    "L": 2,
    "initial_conditions": {
        "run": {"position": {"x": 0.0}, "velocity": {"x": 1.0}}},
    "verify": {"ic": "run"},
}

TIGHT_DOMAIN = {
    "schema_version": 1,
    "name": "tight",
    "signature": {"even": ["x", "y"], "odd": []},
    "metric": [["1", "0"], ["0", "x^2"]],
    "domain": {"x": [0.5, 2.2]},
    "L": 0,
    "initial_conditions": {
        "escape": {"position": {"x": 2.0, "y": 0.0},
                   "velocity": {"x": 1.0, "y": 0.0}}},
}

# log(g_yy) is defined only for x > 0: the step from t=0.01 starts at x=1.4
# inside the domain box, and its last stage evaluates the metric at x=-0.1.
LOG_CHART = {
    "schema_version": 1,
    "name": "logx",
    "signature": {"even": ["x", "y"], "odd": []},
    "metric": [["1", "0"], ["0", "log(x)"]],
    "domain": {"x": [1.2, 10.0]},
    "L": 0,
    "initial_conditions": {
        "dive": {"position": {"x": 2.9, "y": 0.0},
                 "velocity": {"x": -150.0, "y": 0.0}}},
}


# g_yy = exp(x^2) blows up along this geodesic: the geodesic's stages
# overflow math.exp, and the flow's state overflows to inf and nan.
OVERFLOW_CHART = {
    "schema_version": 1,
    "name": "overflow",
    "signature": {"even": ["x", "y"], "odd": []},
    "metric": [["1", "0"], ["0", "exp(x^2)"]],
    "L": 0,
    "initial_conditions": {
        "blowup": {"position": {"x": 1.0, "y": 0.0},
                   "velocity": {"x": 5.0, "y": 5.0}}},
}


class TestChristoffel:
    def test_table_matches_oracle(self, capsys):
        code, out, _ = run(capsys, "christoffel", "--model", "diag_x2",
                           "--point", "x=2.0,y=0.0")
        assert code == 0
        lines = sorted(out.strip().splitlines())
        assert lines == [
            "Gamma^x_{y,y} = -2",
            "Gamma^y_{x,y} = 0.5",
            "Gamma^y_{y,x} = 0.5",
        ]

    def test_flat_empty_table(self, capsys):
        code, out, _ = run(capsys, "christoffel", "--model", "flat_r12",
                           "--point", "x=0.0")
        assert code == 0
        assert "vanish" in out

    def test_invalid_model_exits_2(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code, _, err = run(capsys, "christoffel", "--model", str(bad),
                           "--point", "x=0.0")
        assert code == 2
        assert "error" in err

    def test_unknown_model_exits_2(self, capsys):
        code, _, err = run(capsys, "christoffel", "--model", "nope",
                           "--point", "x=0.0")
        assert code == 2


class TestGeodesicCommand:
    def test_deterministic_csv(self, capsys, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (a, b):
            code, _, _ = run(capsys, "geodesic", "--model", "flat_r12",
                             "--ic", "odd_slope", "--dt", "0.01",
                             "--t-end", "0.5", "--out", str(out))
            assert code == 0
        assert a.read_bytes() == b.read_bytes()

    def test_closed_form_in_csv(self, capsys, tmp_path):
        out = tmp_path / "t.csv"
        run(capsys, "geodesic", "--model", "flat_r12", "--ic", "odd_slope",
            "--dt", "0.01", "--t-end", "1.0", "--out", str(out))
        rows = [r.split(",") for r in out.read_text().splitlines()[1:]]
        final_th1 = [r for r in rows
                     if r[0] == "1.0" and r[1] == "th1" and r[2] == "1"]
        assert len(final_th1) == 1
        assert abs(float(final_th1[0][3]) - 1.0) < 1e-9

    def test_mode_flag_switches_behavior(self, capsys, tmp_path):
        outs = {}
        for mode in ("paper", "goertsches"):
            path = tmp_path / f"{mode}.csv"
            code, _, _ = run(capsys, "geodesic", "--model", "flat_r12",
                             "--ic", "goertsches_demo", "--mode", mode,
                             "--dt", "0.01", "--t-end", "1.0",
                             "--out", str(path))
            assert code == 0
            outs[mode] = path.read_text()
        assert outs["paper"] != outs["goertsches"]

        def th1_at_end(text):
            for row in text.splitlines()[1:]:
                cells = row.split(",")
                if cells[0] == "1.0" and cells[1] == "th1" and cells[2] == "1":
                    return float(cells[3])
            raise AssertionError("row not found")

        assert th1_at_end(outs["paper"]) == pytest.approx(1.7, abs=1e-9)
        assert th1_at_end(outs["goertsches"]) == pytest.approx(1.0, abs=1e-12)

    def test_left_domain_exits_3_no_partial_file(self, capsys, tmp_path):
        model = write_model(tmp_path, "tight", TIGHT_DOMAIN)
        out = tmp_path / "traj.csv"
        code, _, err = run(capsys, "geodesic", "--model", model,
                           "--ic", "escape", "--dt", "0.01",
                           "--t-end", "1.0", "--out", str(out))
        assert code == 3
        assert not out.exists()

    @pytest.mark.parametrize("command", [("geodesic", "--mode", "paper"),
                                         ("geodesic", "--mode", "goertsches"),
                                         ("flow",)])
    def test_stage_outside_function_domain_exits_3(self, capsys, tmp_path,
                                                   command):
        model = write_model(tmp_path, "logx", LOG_CHART)
        out = tmp_path / "traj.csv"
        code, _, err = run(capsys, *command, "--model", model, "--ic", "dive",
                           "--dt", "0.01", "--t-end", "1.0", "--out", str(out))
        assert code == 3
        assert "t=0.01" in err
        assert not out.exists()

    @pytest.mark.parametrize("command", [("geodesic", "--mode", "paper"),
                                         ("geodesic", "--mode", "goertsches"),
                                         ("flow",)])
    def test_overflow_exits_3(self, capsys, tmp_path, command):
        model = write_model(tmp_path, "overflow", OVERFLOW_CHART)
        out = tmp_path / "traj.csv"
        with np.errstate(all="ignore"):
            code, _, err = run(capsys, *command, "--model", model,
                               "--ic", "blowup", "--dt", "0.01",
                               "--t-end", "5", "--out", str(out))
        assert code == 3
        assert "t=" in err
        assert not out.exists()

    # numpy refuses either sample array before allocating anything
    @pytest.mark.parametrize("t_end, dt, count", [
        ("1e15", "1e-3", "1e+18"), ("1", "1e-300", "1e+300")],
        ids=["long", "fine"])
    @pytest.mark.parametrize("command", [("geodesic", "--mode", "paper"),
                                         ("geodesic", "--mode", "goertsches"),
                                         ("flow",)])
    def test_grid_too_large_to_record_exits_3(self, capsys, tmp_path, command,
                                              t_end, dt, count):
        out = tmp_path / "traj.csv"
        code, stdout, err = run(capsys, *command, "--model", "c1x_r12",
                                "--ic", "run", "--t-end", t_end, "--dt", dt,
                                "--out", str(out))
        assert code == 3 and stdout == ""
        assert err.startswith(f"error: cannot record {count} samples")
        assert err.count("\n") == 1 and "Traceback" not in err
        assert not out.exists()

    def test_function_domain_error_in_constant_exits_2(self, capsys, tmp_path):
        bad = dict(LOG_CHART, metric=[["1", "0"], ["0", "log(-1)"]])
        model = write_model(tmp_path, "logneg", bad)
        code, _, err = run(capsys, "geodesic", "--model", model, "--ic", "dive",
                           "--out", str(tmp_path / "x.csv"))
        assert code == 2
        assert "log" in err

    @pytest.mark.parametrize("part,key,value", [("velocity", "xx", 5.0),
                                                ("position", "thh", [[1, 0.3]])])
    def test_unknown_coordinate_exits_2(self, capsys, tmp_path, part, key,
                                        value):
        doc = bundled_doc("c1x_r12")
        doc["initial_conditions"]["run"][part][key] = value
        model = write_model(tmp_path, "typo", doc)
        out = tmp_path / "traj.csv"
        code, _, err = run(capsys, "geodesic", "--model", model,
                           "--ic", "run", "--out", str(out))
        assert code == 2
        assert repr(key) in err
        assert not out.exists()

    def test_unknown_ic_exits_2(self, capsys):
        code, _, err = run(capsys, "geodesic", "--model", "flat_r12",
                           "--ic", "nope", "--out", "/dev/null")
        assert code == 2
        assert "initial condition" in err


class TestFlowCommand:
    def test_energy_column_constant(self, capsys, tmp_path):
        out = tmp_path / "f.csv"
        code, _, _ = run(capsys, "flow", "--model", "c1x_r12", "--ic", "run",
                         "--dt", "0.005", "--t-end", "0.2", "--out", str(out))
        assert code == 0
        rows = [r.split(",") for r in out.read_text().splitlines()[1:]]
        body_energy = sorted({float(r[5]) for r in rows if r[2] == "00"})
        assert body_energy
        assert body_energy[-1] - body_energy[0] <= 1e-8

    def test_deterministic(self, capsys, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (a, b):
            code, _, _ = run(capsys, "flow", "--model", "flat_r12",
                             "--ic", "mixed", "--dt", "0.01",
                             "--t-end", "0.3", "--out", str(out))
            assert code == 0
        assert a.read_bytes() == b.read_bytes()


class TestExpCommand:
    def test_report(self, capsys):
        code, out, _ = run(capsys, "exp", "--model", "flat_r12",
                           "--point", "x=0.0", "--dt", "0.01")
        assert code == 0
        report = json.loads(out)
        assert report["passed"] is True
        assert report["even_deviation"] < 1e-9


class TestVerifyCommand:
    def test_metric_suite_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "--model", "flat_r12",
                           "--suite", "metric")
        assert code == 0
        report = json.loads(out)
        assert report["passed"] is True
        assert {c["name"] for c in report["suites"]["metric"]} >= {
            "metric_invariants", "christoffel_symmetry",
            "metric_compatibility"}

    def test_broken_metric_fails_exit_1(self, capsys, tmp_path):
        model = write_model(tmp_path, "broken", BROKEN_METRIC)
        code, out, _ = run(capsys, "verify", "--model", model,
                           "--suite", "metric")
        assert code == 1
        report = json.loads(out)
        assert report["passed"] is False
        first = report["suites"]["metric"][0]
        assert first["name"] == "metric_invariants"
        assert not first["passed"]

    def test_tolerance_override(self, capsys):
        code, out, _ = run(capsys, "verify", "--model", "flat_r12",
                           "--suite", "metric", "--tol",
                           "metric_compatibility=1e-30")
        report = json.loads(out)
        names = {c["name"]: c for c in report["suites"]["metric"]}
        assert names["metric_compatibility"]["tolerance"] == 1e-30

    def test_bad_suite_rejected(self, capsys):
        with pytest.raises(SystemExit):
            run(capsys, "verify", "--model", "flat_r12", "--suite", "bogus")

    def test_unknown_vector_coordinate_exits_2(self, capsys, tmp_path):
        doc = bundled_doc("c1x_r12")
        doc["verify"]["vectors"][1]["xx"] = 0.5
        model = write_model(tmp_path, "typo", doc)
        out = tmp_path / "report.json"
        code, _, err = run(capsys, "verify", "--model", model,
                           "--suite", "isometry", "--out", str(out))
        assert code == 2
        assert "verify.vectors[1]" in err and "'xx'" in err
        assert not out.exists()

    @pytest.mark.usefixtures("one_worker")
    def test_bad_vector_fails_before_any_integration(self, capsys, tmp_path,
                                                      monkeypatch):
        doc = bundled_doc("c1x_r12")
        doc["verify"]["vectors"][0]["xx"] = 0.5
        model = write_model(tmp_path, "typo", doc)
        calls = count_calls(monkeypatch, verify, "integrate_geodesic")
        code, _, err = run(capsys, "verify", "--model", model)
        assert code == 2
        assert "verify.vectors[0]" in err and "'xx'" in err
        assert calls == []

    @pytest.mark.parametrize("suites, runs", [(("geodesic", "flow"), 2),
                                              (("flow",), 1)])
    @pytest.mark.usefixtures("one_worker")
    def test_suite_geodesic_integrated_once(self, monkeypatch, suites, runs):
        # paper-mode RK4 runs: the suite geodesic is one planned run that
        # the flow suite's round trip reuses; the geodesic suite's
        # determinism check integrates it once more, serially.  Every run
        # steps through the `_rk4` of `geodesics`; the flow's are not counted
        calls = count_calls(monkeypatch, geodesics, "_rk4")
        report = verify.run_suites(load_model("flat_r12"), suites)
        assert report["passed"] is True
        assert sum(rhs.func is geodesics._paper_rhs
                   for rhs, *_ in calls) == runs

    def test_failed_isometry_reported_exit_1(self, capsys, tmp_path):
        # naturality presumes the isometry; its failed condition is the report
        doc = bundled_doc("c1x_r12")
        doc["verify"]["isometries"] = ["odd_scaling_bad"]
        model = write_model(tmp_path, "bad_isometry", doc)
        code, out, err = run(capsys, "verify", "--model", model,
                             "--suite", "isometry")
        assert code == 1 and "Traceback" not in err
        checks = {c["name"]: c for c in json.loads(out)["suites"]["isometry"]}
        assert checks["isometry_condition[odd_scaling_bad]"]["passed"] is False
        assert "naturality[odd_scaling_bad]" not in checks
        assert checks["identity_linearization"]["passed"] is True

    @pytest.mark.usefixtures("one_worker")
    def test_one_isometry_tolerance_per_run(self, capsys, tmp_path,
                                            monkeypatch):
        # point_reflection is listed as an isometry and as a point symmetry:
        # its isometry check and its linearization gate decide the same
        # condition, both at the run's isometry_condition tolerance
        reflection = load_model("flat_r12").morphism("point_reflection")
        inner, seen = verify.plan_linearization, []

        def spy(chart, phi, q, vectors, sign, tolerance):
            if phi.pullbacks == reflection.pullbacks:
                seen.append(tolerance)
            return inner(chart, phi, q, vectors, sign, tolerance)

        monkeypatch.setattr(verify, "plan_linearization", spy)
        model = write_model(tmp_path, "flat", coarse_doc("flat_r12"))
        code, out, err = run(capsys, "verify", "--model", model, "--suite",
                             "isometry", "--tol", "isometry_condition=1e-3")
        assert code == 0 and err == ""
        checks = {c["name"]: c for c in json.loads(out)["suites"]["isometry"]}
        assert seen == [1e-3]
        assert checks["isometry_condition[point_reflection]"]["tolerance"] \
            == 1e-3

    def test_gated_symmetry_rows_not_integrated(self, capsys, tmp_path):
        # odd_scaling is no geodesic symmetry (T_q Phi is not -id), so its
        # -v rows are never read; the one of x = 0.9 from x = 0 would leave
        # x > -0.8 before t = 1 and, integrated, end the run with exit 3
        vectors = bundled_doc("c1x_r12")["verify"]["vectors"]
        vectors[0]["x"] = 0.9
        model = write_model(tmp_path, "symmetry", coarse_doc(
            "c1x_r12", point_symmetries=["odd_scaling"], vectors=vectors))
        code, out, err = run(capsys, "verify", "--model", model,
                             "--suite", "isometry")
        assert code == 1 and err == ""
        checks = {c["name"]: c for c in json.loads(out)["suites"]["isometry"]}
        assert not checks["geodesic_symmetry[odd_scaling]"]["passed"]
        assert "tangent map differs from -1*id" in \
            checks["geodesic_symmetry[odd_scaling]"]["details"]
        assert checks["identity_linearization"]["passed"] is True

    def test_report_written_to_file(self, capsys, tmp_path):
        out = tmp_path / "report.json"
        code, _, _ = run(capsys, "verify", "--model", "flat_r12",
                         "--suite", "metric", "--out", str(out))
        assert code == 0
        assert json.loads(out.read_text())["model"] == "flat_r12"


def coarse_doc(name, **verify):
    """A bundled model at dt = 1e-2, with `verify` entries replaced."""
    doc = bundled_doc(name)
    doc["defaults"]["dt"] = 1e-2
    doc["verify"].update(verify)
    return doc


class TestVerifyFixtures:
    # diag_x2 has x in (0.2, 100) and y unbounded
    @pytest.mark.parametrize("verify_cfg, suite, message", [
        ({"base_point": [0.1, 0.0], "vectors": []}, "isometry",
         "verify.base_point [0.1, 0.0] is not a body point"),
        ({"base_point": [0.1, 0.0]}, "isometry",
         "verify.base_point [0.1, 0.0] is not a body point"),
        ({"base_point": [2.0]}, "all",
         "verify.base_point [2.0] is not a body point"),
        ({"base_point": [2.0, float("nan")]}, "all",
         "verify.base_point [2.0, nan] is not a body point"),
        ({"exp_points": [[1.0, 0.0], [0.1, 0.0]]}, "exp",
         "verify.exp_points[1] [0.1, 0.0] is not a body point"),
    ], ids=["base_outside", "base_outside_with_vectors", "base_too_short",
            "base_not_finite", "exp_point_outside"])
    def test_bad_point_exits_2(self, capsys, tmp_path, verify_cfg, suite,
                               message):
        model = write_model(tmp_path, "bad_point",
                            coarse_doc("diag_x2", **verify_cfg))
        code, out, err = run(capsys, "verify", "--model", model,
                             "--suite", suite)
        assert code == 2 and out == "" and "Traceback" not in err
        assert message in err

    def test_default_point_in_far_box(self, capsys, tmp_path):
        # the box x in (5, 10) misses [-1, 1]: the default base point is the
        # middle of its window (5, 7), and the default exp points lie around it
        doc = coarse_doc("flat_r12")
        doc["domain"] = {"x": [5.0, 10.0]}
        del doc["verify"]["base_point"], doc["verify"]["exp_points"]
        model = write_model(tmp_path, "far_default", doc)
        assert Fixtures(load_model(model)).base.tolist() == [6.0]
        for suite in ("metric", "exp"):
            code, out, err = run(capsys, "verify", "--model", model,
                                 "--suite", suite)
            assert code == 0 and err == ""
            assert json.loads(out)["passed"] is True

    def test_far_box_model_verifies(self, capsys, tmp_path):
        # diag_x2 moved to x in (5, 10): its points and initial condition
        # shifted by 5 into the box, the random points in the window (5, 9)
        doc = bundled_doc("diag_x2")
        doc["domain"]["x"] = [5.0, 10.0]
        for ic in doc["initial_conditions"].values():
            ic["position"]["x"] += 5.0
        cfg = doc["verify"]
        cfg["base_point"][0] += 5.0
        for q in cfg["exp_points"]:
            q[0] += 5.0
        model = write_model(tmp_path, "far_diag_x2", doc)
        code, out, err = run(capsys, "verify", "--model", model)
        assert code == 0 and err == ""
        report = json.loads(out)
        assert all(c["passed"] for checks in report["suites"].values()
                   for c in checks)
        del cfg["base_point"]
        far = load_model(write_model(tmp_path, "far_default", doc))
        assert Fixtures(far).base.tolist() == [6.0, 0.0]


@pytest.mark.usefixtures("one_worker")
class TestDeterminismCheck:
    @pytest.mark.parametrize("suite, name, nth, block", [
        ("flow", "integrate_flow", 2, "momenta"),
        ("geodesic", "integrate_geodesic", 1, "velocities")])
    def test_rerun_differing_in_one_block(self, tmp_path, monkeypatch, suite,
                                          name, nth, block):
        # the nth call is the re-run (the suite geodesic itself is planned);
        # it differs from the run only in one coefficient of `block`
        model = load_model(write_model(tmp_path, "m", coarse_doc("flat_r22")))
        calls = []
        inner = getattr(verify, name)

        def rerun(*args):
            out = inner(*args)
            calls.append(out)
            if len(calls) == nth:
                getattr(out, block)[-1, 0, 0] += 1e-12
            return out

        monkeypatch.setattr(verify, name, rerun)
        checks = {c["name"]: c for c in
                  verify.run_suites(model, (suite,))["suites"][suite]}
        assert len(calls) == nth
        assert checks["determinism"]["passed"] is False
        assert 0.99e-12 < checks["determinism"]["max_deviation"] < 1.01e-12


class TestMetricGate:
    def test_invalid_metric_rejected_with_message(self, capsys, tmp_path):
        model = write_model(tmp_path, "broken", BROKEN_METRIC)
        code, _, err = run(capsys, "christoffel", "--model", model,
                           "--point", "x=0.0")
        assert code == 2
        assert "validation failed" in err
        code, _, err = run(capsys, "geodesic", "--model", model,
                           "--ic", "run", "--out", str(tmp_path / "x.csv"))
        assert code == 2
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize("argv", [
        ("geodesic", "--ic", "orbit"),
        ("christoffel", "--ic", "orbit"),
        ("exp", "--ic", "orbit"),
    ], ids=lambda argv: argv[0])
    def test_gate_reads_model_tolerance(self, capsys, tmp_path, argv):
        # g_xy and g_yx differ by 2e-9 at the orbit's x = 2: beyond the
        # table's metric_invariants tolerance, within the model's override
        doc = asymmetric_doc()
        code, _, err = run(capsys, *argv, "--model",
                           write_model(tmp_path, "asym", doc))
        assert code == 2
        assert "graded symmetry violated" in err and "2e-09" in err
        doc["tolerances"] = {"metric_invariants": 1e-6}
        code, _, err = run(capsys, *argv, "--model",
                           write_model(tmp_path, "asym", doc))
        assert code == 0 and err == ""

    def test_verify_reports_symmetry_deviation(self, capsys, tmp_path):
        # the same gate as a verify check, with the deviation it measured
        doc = asymmetric_doc()
        for tolerances, passed in (({}, False),
                                   ({"metric_invariants": 1e-6}, True)):
            doc["tolerances"] = tolerances
            _, out, _ = run(capsys, "verify", "--model",
                            write_model(tmp_path, "asym", doc),
                            "--suite", "metric")
            check = json.loads(out)["suites"]["metric"][0]
            assert check["name"] == "metric_invariants"
            assert check["passed"] is passed
            assert 1e-9 < check["max_deviation"] < 2.1e-9


class TestLimits:
    """A grid or metric text past the documented limits ends in one typed
    error line, never a traceback or a numpy warning."""

    @pytest.mark.parametrize("argv", [
        ("geodesic", "--t-end", "1e300", "--dt", "1e-300"),
        ("geodesic", "--mode", "goertsches", "--t-end", "1e300",
         "--dt", "1e-300"),
        ("flow", "--t-end", "1e300", "--dt", "1e-300"),
        ("exp", "--dt", "1e-310"),
        # finite, but 1e300 samples: refused before the first step, not run
        ("exp", "--dt", "1e-300"),
        # samples numpy could describe, but 1e9 steps, past MAX_STEPS
        ("exp", "--dt", "1e-9"),
        ("geodesic", "--dt", "1e-9"),
    ], ids=" ".join)
    def test_step_count_rule_exits_3(self, capsys, tmp_path, monkeypatch,
                                     argv):
        def refuse(*args):
            raise AssertionError("a refused grid reached the stepper")

        monkeypatch.setattr(geodesics, "_rk4", refuse)
        out = tmp_path / "out"
        code, stdout, err = run(capsys, *argv, "--model", "c1x_r12",
                                "--ic", "run", "--out", str(out))
        assert code == 3 and stdout == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "Traceback" not in err and not out.exists()

    METRIC_TEXT = {
        "nesting": "(" * 400 + "1" + ")" * 400,
        "exp_constant": "exp(1000)",
        "folded_overflow": "1 + 0*exp(1000)",
        "infinite_literal": "1e400*x",
        "overflowing_metric": "exp(1000*(x + 1))",
        # loads, but the constant fold of its partial d/dx overflows
        "overflowing_partial": "1 + (1e200*x)^2",
        # past the bound, refused at load: a power compiles to |k| products
        "huge_exponent": f"1 + x^{_MAX_EXPONENT + 1}",
    }

    @pytest.mark.parametrize("case", METRIC_TEXT)
    @pytest.mark.parametrize("argv", [
        ("christoffel", "--ic", "run"),
        ("geodesic", "--ic", "run", "--t-end", "0.01", "--dt", "0.01"),
        ("verify", "--suite", "metric"),
    ], ids=lambda argv: argv[0])
    def test_metric_text_that_cannot_be_computed(self, capsys, tmp_path,
                                                 case, argv):
        doc = bundled_doc("c1x_r12")
        doc["metric"][0][0] = self.METRIC_TEXT[case]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(capsys, *argv, "--model",
                                 write_model(tmp_path, case, doc))
        assert "Traceback" not in err and "RuntimeWarning" not in err
        if case == "overflowing_metric" and argv[0] == "verify":
            # the metric gate counts the overflowing samples as violations
            check = strict_json(out)["suites"]["metric"][0]
            assert code == 1 and err == ""
            assert check["name"] == "metric_invariants"
            assert check["passed"] is False
            assert "metric is not finite" in check["details"]
        else:
            assert code == 2 and out == ""
            assert err.startswith("error: ") and err.count("\n") == 1
        if case == "overflowing_partial":
            assert err == ("error: model 'c1x_r12': bad metric: d/dx of entry "
                           "(x,x): a constant overflows to inf\n")
        if case == "huge_exponent":
            assert f"exceeds {_MAX_EXPONENT}" in err

    @pytest.mark.parametrize("depth, code", [(_MAX_NESTING, 0),
                                             (_MAX_NESTING + 1, 2)])
    def test_nesting_bound(self, capsys, tmp_path, depth, code):
        # at the bound, the kernel differentiates the nested entry and steps
        doc = bundled_doc("c1x_r12")
        doc["metric"][0][0] = "1 + " + "x/(3 + " * depth + "x" + ")" * depth
        out = tmp_path / "traj.csv"
        got, _, err = run(capsys, "geodesic", "--model",
                          write_model(tmp_path, "deep", doc), "--ic", "run",
                          "--t-end", "0.01", "--dt", "0.01", "--out", str(out))
        assert got == code and "Traceback" not in err
        assert out.exists() == (code == 0)
        if code:
            assert f"parentheses nest deeper than {_MAX_NESTING}" in err


def asymmetric_doc():
    """diag_x2 with g_xy = 0.1 x and g_yx = 0.100000001 x."""
    doc = bundled_doc("diag_x2")
    doc["metric"] = [["1", "0.1*x"], ["0.100000001*x", "x^2"]]
    return doc


class TestVerifyAllSuites:
    def test_flat_model_all_suites(self, capsys):
        code, out, _ = run(capsys, "verify", "--model", "flat_r12")
        assert code == 0
        report = json.loads(out)
        assert report["passed"] is True
        assert set(report["suites"]) == {"metric", "geodesic", "flow", "exp",
                                         "isometry"}

    def test_curved_model_all_suites(self, capsys):
        code, out, _ = run(capsys, "verify", "--model", "c1x_r12")
        assert code == 0
        report = json.loads(out)
        assert report["passed"] is True
        failing = [c for suite in report["suites"].values()
                   for c in suite if not c["passed"]]
        assert failing == []


# ---------------------------------------------------------------------------
# bad input exits 2 with a message; every JSON report is strict JSON


def usage_error(capsys, *argv):
    """stderr of a CLI call that argparse rejects with exit 2."""
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    captured = capsys.readouterr()
    assert exc.value.code == 2 and captured.out == ""
    return captured.err


def no_constant(token):
    raise ValueError(f"non-finite JSON token {token}")


def strict_json(text):
    """`json.loads` that rejects NaN, Infinity and -Infinity."""
    return json.loads(text, parse_constant=no_constant)


class TestBadFlags:
    @pytest.mark.parametrize("argv", [
        ("geodesic", "--ic", "run", "--dt", "0"),
        ("geodesic", "--ic", "run", "--dt=-1e-3"),
        ("geodesic", "--ic", "run", "--t-end", "nan"),
        ("geodesic", "--ic", "run", "--mode", "goertsches", "--dt", "inf"),
        ("flow", "--ic", "run", "--dt", "0"),
        ("flow", "--ic", "run", "--t-end", "-1"),
        ("exp", "--point", "x=0", "--h", "0"),
        ("exp", "--point", "x=0", "--h", "nan"),
        ("exp", "--point", "x=0", "--h", "1e400"),
        ("exp", "--point", "x=0", "--dt", "-0.01"),
        ("exp", "--point", "x=0", "--dt", "x"),
    ], ids=" ".join)
    def test_step_or_span_not_positive_finite(self, capsys, argv):
        err = usage_error(capsys, argv[0], "--model", "c1x_r12", *argv[1:])
        assert "Traceback" not in err
        assert "expected a finite number > 0" in err

    @pytest.mark.parametrize("value", ["nan", "-1", "inf", "x"])
    def test_christoffel_threshold_finite_nonnegative(self, capsys, value):
        # Gamma^x_{th1,th2} = -0.5 at x = 0.5: no threshold may hide it
        err = usage_error(capsys, "christoffel", "--model", "c1x_r12",
                          "--point", "x=0.5", "--tol", value)
        assert "Traceback" not in err
        assert "expected a finite number >= 0" in err

    @pytest.mark.parametrize("command, model, value", [
        ("christoffel", "c1x_r12", "nan"),
        ("exp", "c1x_r12", "nan"),
        ("christoffel", "c1x_r12", "-inf"),
        ("exp", "flat_r12 without domain", "inf"),
    ])
    def test_point_not_finite(self, capsys, tmp_path, command, model, value):
        if model == "flat_r12 without domain":
            doc = bundled_doc("flat_r12")
            del doc["domain"]
            model = write_model(tmp_path, "boundless", doc)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(capsys, command, "--model", model,
                                 "--point", f"x={value}")
        assert code == 2 and out == "" and "Traceback" not in err
        assert f"--point x: expected a finite number, got {value}" in err

    @pytest.mark.parametrize("pair, message", [
        ("metric_compatibilty=1",
         "--tol metric_compatibilty: unknown tolerance"),
        # the determinism check is bitwise whatever a tolerance says
        ("determinism=5", "--tol determinism: unknown tolerance"),
        ("roundtrip=-1e-6", "--tol roundtrip: expected a finite number >= 0"),
        ("roundtrip=nan", "--tol roundtrip: expected a finite number >= 0"),
        ("roundtrip=inf", "--tol roundtrip: expected a finite number >= 0"),
    ])
    def test_bad_tolerance_override(self, capsys, pair, message):
        code, out, err = run(capsys, "verify", "--model", "flat_r12",
                             "--suite", "metric", "--tol", pair)
        assert code == 2 and out == "" and "Traceback" not in err
        assert message in err

    def test_exp_point_outside_box_before_integrating(self, capsys,
                                                      monkeypatch):
        # c1x_r12 has x in (-0.8, 20): as `christoffel`, `exp` rejects x = 50
        # as a usage error, before any exp row is integrated
        shot = count_calls(monkeypatch, expmap, "_shoot")
        for command in ("christoffel", "exp"):
            code, out, err = run(capsys, command, "--model", "c1x_r12",
                                 "--point", "x=50")
            assert code == 2 and out == "" and "Traceback" not in err
            assert "body [50.] outside chart domain" in err
        assert shot == []


class TestModelFields:
    @pytest.mark.parametrize("edit, message", [
        ({"L": "x"}, "L: expected an integer from 0 to 12, got 'x'"),
        ({"L": -1}, "L: expected an integer from 0 to 12, got -1"),
        ({"L": 2.7}, "L: expected an integer from 0 to 12, got 2.7"),
        ({"L": 13}, "L: expected an integer from 0 to 12, got 13"),
        ({"L": True}, "L: expected an integer from 0 to 12, got True"),
        ({"defaults": {"dt": 0}}, "defaults.dt: expected a finite number > 0"),
        ({"defaults": {"t_end": -1.0}},
         "defaults.t_end: expected a finite number > 0"),
        ({"defaults": {"dt": float("nan")}},
         "defaults.dt: expected a finite number > 0"),
        ({"defaults": {"dt": "0.01"}},
         "defaults.dt: expected a finite number > 0"),
        ({"defaults": {"step": 0.01}}, "unknown default 'step'"),
        ({"defaults": [0.01]}, "defaults must be an object"),
        ({"domain": {"x": [1]}}, "domain.x: expected [lo, hi], got [1]"),
        ({"domain": {"x": "ab"}}, "domain.x: expected [lo, hi]"),
        ({"domain": {"x": ["a", 1]}},
         "domain.x[0]: expected a finite number, got 'a'"),
        ({"domain": {"x": [-1, float("inf")]}},
         "domain.x[1]: expected a finite number > -1"),
        ({"domain": {"x": [2.0, 1.0]}},
         "domain.x[1]: expected a finite number > 2, got 1.0"),
        ({"tolerances": {"roundtrip": "b"}},
         "tolerances.roundtrip: expected a finite number >= 0, got 'b'"),
        ({"tolerances": {"roundtrip": -1e-6}},
         "tolerances.roundtrip: expected a finite number >= 0"),
        ({"tolerances": {"rondtrip": 1e-6}},
         "tolerances.rondtrip: unknown tolerance 'rondtrip'"),
        ({"initial_conditions": {"run": 5}},
         "initial_conditions: run must be an object, got 5"),
        ({"signature": "x"}, "signature must be an object, got 'x'"),
        ({"signature": {"even": "x", "odd": ["th1", "th2"]}},
         "signature: even must be an array, got 'x'"),
        ({"morphisms": [1]}, "morphisms must be an object, got [1]"),
        ({"morphisms": {"m": {"pullbacks": 5}}},
         "morphisms['m']: pullbacks must be an object, got 5"),
        ({"metric": 5}, "bad metric"),
        ({"verify": [1]}, "verify must be an object, got [1]"),
        ({"verify": {"vectors": 5}}, "verify: vectors must be an array, got 5"),
        ({"verify": {"vectors": [5]}},
         "verify.vectors[0]: expected an object, got 5"),
        ({"verify": {"exp_points": 3}},
         "verify: exp_points must be an array, got 3"),
        ({"verify": {"isometries": 5}},
         "verify: isometries must be an array, got 5"),
        ({"verify": {"negative_controls": "shift"}},
         "verify: negative_controls must be an array, got 'shift'"),
        ({"verify": {"point_symmetries": {}}},
         "verify: point_symmetries must be an array, got {}"),
    ], ids=lambda v: json.dumps(v) if isinstance(v, dict) else "")
    def test_bad_field_exits_2(self, capsys, tmp_path, edit, message):
        model = write_model(tmp_path, "fields", {**bundled_doc("c1x_r12"),
                                                 **edit})
        code, out, err = run(capsys, "verify", "--model", model,
                             "--suite", "metric")
        assert code == 2 and out == "" and "Traceback" not in err
        assert message in err

    @pytest.mark.parametrize("L", ["x", -1, 2.5, 13])
    def test_bad_initial_condition_L(self, capsys, tmp_path, L):
        doc = bundled_doc("c1x_r12")
        doc["initial_conditions"]["run"]["L"] = L
        code, out, err = run(capsys, "geodesic", "--model",
                             write_model(tmp_path, "ic_L", doc), "--ic", "run")
        assert code == 2 and out == "" and "Traceback" not in err
        assert ("initial_conditions['run'].L: expected an integer from 0 to "
                f"12, got {L!r}") in err

    @pytest.mark.parametrize("part, key, value, message", [
        ("velocity", "x", float("inf"), "x: expected a finite number, got inf"),
        ("position", "x", float("nan"), "x: expected a finite number, got nan"),
        ("position", "x", True, "x: expected a finite number, got True"),
        ("position", "x", "0.5", "x: expected a finite number, got '0.5'"),
        ("velocity", "th1", [[1, float("inf")]],
         "th1[0]: expected a finite number, got inf"),
        ("velocity", "th1", [[True, 1.0]],
         "th1[0]: mask must be an integer, got True"),
        ("velocity", "th1", [[1.0, 1.0]],
         "th1[0]: mask must be an integer, got 1.0"),
        ("velocity", "th1", [[1]], "th1[0]: expected [mask, coeff], got [1]"),
        ("velocity", "th1", [[8, 1.0]], "th1: bad Grassmann value"),
        ("velocity", "th1", [[1, 1e308], [1, 1e308]],
         "th1: the coefficients of a mask sum to a number that is not finite"),
    ], ids=str)
    def test_bad_grassmann_value(self, capsys, tmp_path, part, key, value,
                                 message):
        doc = bundled_doc("c1x_r12")
        doc["initial_conditions"]["run"][part][key] = value
        code, out, err = run(capsys, "geodesic", "--model",
                             write_model(tmp_path, "value", doc), "--ic", "run")
        assert code == 2 and out == "" and "Traceback" not in err
        assert f"initial_conditions['run'].{part}.{message}" in err

    @pytest.mark.parametrize("override, argv", [
        # the default dt: even deviation 1.6e-14
        ({"exp_identity_even": 1e-14}, ()),
        # odd deviation 6.7e-16
        ({"exp_identity_odd": 1e-16}, ("--dt", "0.01")),
    ], ids=["even", "odd"])
    def test_exp_reads_model_tolerances(self, capsys, tmp_path, override,
                                        argv):
        doc = bundled_doc("c1x_r12")
        model = write_model(tmp_path, "tight", doc)
        code, out, _ = run(capsys, "exp", "--model", model, "--point", "x=0.0",
                           *argv)
        assert code == 0 and strict_json(out)["passed"] is True
        doc["tolerances"] = override
        model = write_model(tmp_path, "tight", doc)
        code, out, err = run(capsys, "exp", "--model", model, "--point",
                             "x=0.0", *argv)
        assert code == 1 and err == ""
        assert strict_json(out)["passed"] is False

    def test_valid_fields_load(self, capsys, tmp_path):
        doc = bundled_doc("c1x_r12")
        doc.update(defaults={"dt": 0.01, "t_end": 0.02},
                   tolerances={"roundtrip": 0, "metric_compatibility": 1e-9},
                   domain={"x": [-0.8, 20]})
        code, out, err = run(capsys, "verify", "--model",
                             write_model(tmp_path, "fields", doc),
                             "--suite", "metric")
        assert code == 0 and err == ""
        checks = strict_json(out)["suites"]["metric"]
        assert {c["name"]: c["tolerance"] for c in checks}[
            "metric_compatibility"] == 1e-9


class TestStrictJson:
    def test_gate_stopped_linearization_writes_null(self, capsys, tmp_path):
        # odd_scaling is no geodesic symmetry: its test stops at the gate
        # with no deviation measured, which the report writes as null
        model = write_model(tmp_path, "symmetry", coarse_doc(
            "c1x_r12", point_symmetries=["odd_scaling"]))
        code, out, err = run(capsys, "verify", "--model", model,
                             "--suite", "isometry")
        assert code == 1 and err == ""
        report = strict_json(out)
        checks = {c["name"]: c for c in report["suites"]["isometry"]}
        stopped = checks["geodesic_symmetry[odd_scaling]"]
        assert stopped["passed"] is False and stopped["max_deviation"] is None
        assert report["passed"] is False

    @pytest.mark.parametrize("argv", [
        ("verify", "--model", "flat_r22", "--suite", "isometry"),
        ("exp", "--model", "c1x_r12", "--point", "x=0.5", "--dt", "0.01"),
    ], ids=" ".join)
    def test_reports_are_strict(self, capsys, argv):
        code, out, _ = run(capsys, *argv)
        assert code == 0
        strict_json(out)


# A 1|2 chart whose metric has a term in th1*th2, which vanishes at every
# point over one generator: only probes over two generators see that the
# shift x -> x + 0.1 is no isometry (deviation 0.012).
ODD_PRODUCT_CHART = {
    "schema_version": 1,
    "name": "odd_product",
    "signature": {"even": ["x"], "odd": ["th1", "th2"]},
    "metric": [["1 + x*th1*th2", "0", "0"], ["0", "0", "1"], ["0", "-1", "0"]],
    "domain": {"x": [-1, 1]},
    "L": 1,
    "initial_conditions": {
        "run": {"position": {"x": 0.0}, "velocity": {"x": 0.1}}},
    "morphisms": {"shift": {"pullbacks": {"x": "x + 0.1", "th1": "th1",
                                          "th2": "th2"}}},
    "verify": {"isometries": ["shift"]},
}

# A 1|4 chart with a term in th1*th3 and "L": 2: over two generators the
# probes would give th1 and th3 the same one, and the term would vanish at
# every probe; over one generator per odd coordinate the shift x -> x + 0.1
# fails the isometry condition.
ODD_PAIRS_CHART = {
    "schema_version": 1,
    "name": "odd_pairs",
    "signature": {"even": ["x"], "odd": ["th1", "th2", "th3", "th4"]},
    "metric": [["1 + x*th1*th3", "0", "0", "0", "0"],
               ["0", "0", "1", "0", "0"], ["0", "-1", "0", "0", "0"],
               ["0", "0", "0", "0", "1"], ["0", "0", "0", "-1", "0"]],
    "domain": {"x": [-1, 1]},
    "L": 2,
    "initial_conditions": {
        "run": {"position": {"x": 0.0}, "velocity": {"x": 0.1}}},
    "morphisms": {"shift": {"pullbacks": {
        "x": "x + 0.1", "th1": "th1", "th2": "th2", "th3": "th3",
        "th4": "th4"}}},
    "verify": {"isometries": ["shift"]},
}

# a flat 2|0 chart with a coordinate named like the fiber of the other
FIBER_NAMED_CHART = {
    "schema_version": 1,
    "name": "fiber_named",
    "signature": {"even": ["x", "v_x"], "odd": []},
    "metric": [["1", "0"], ["0", "1"]],
    "domain": {"x": [-5, 5], "v_x": [-5, 5]},
    "morphisms": {"swap": {"pullbacks": {"x": "v_x", "v_x": "x"}}},
}


def c1x_with(*keys, value):
    """c1x_r12 with `value` at the path `keys`."""
    doc = bundled_doc("c1x_r12")
    node = doc
    for key in keys[:-1]:
        node = node[key]
    node[keys[-1]] = value
    return doc


class TestOneErrorLine:
    # (model, argv after the model, exit code, text of the error line, or
    # of stdout when the code is 0 or 1)
    @pytest.mark.parametrize("doc, argv, code, text", [
        (c1x_with("verify", "point_symmetries", value=[[1]]), ("verify",), 2,
         "verify.point_symmetries[0]: expected a name, got [1]"),
        (c1x_with("verify", "negative_controls", value=[{"a": 1}]),
         ("verify",), 2,
         "verify.negative_controls[0]: expected a name, got {'a': 1}"),
        (c1x_with("verify", "ic", value=[1]), ("verify",), 2,
         "verify.ic: expected a name, got [1]"),
        (c1x_with("name", value=5), ("verify",), 2,
         "model 'model': name: expected a name, got 5"),
        (c1x_with("name", value=None), ("verify",), 2,
         "name: expected a name, got None"),
        (c1x_with("name", value=["a"]), ("verify",), 2,
         "name: expected a name, got ['a']"),
        (c1x_with("metric", 0, 0, value=True),
         ("christoffel", "--point", "x=0"), 2,
         "bad metric: cannot treat True as an expression"),
        (c1x_with("morphisms", "odd_scaling", "pullbacks", "x", value=True),
         ("christoffel", "--point", "x=0"), 2,
         "morphisms['odd_scaling']: cannot treat True as an expression"),
        (c1x_with("morphisms", "odd_scaling", "pullbacks", "x", value=[1]),
         ("christoffel", "--point", "x=0"), 2,
         "morphisms['odd_scaling']: cannot treat [1] as an expression"),
        (c1x_with("verify", "exp_points", value=[["0.1"]]),
         ("verify", "--suite", "exp"), 2,
         "verify.exp_points[0] ['0.1'] is not a body point"),
        (c1x_with("verify", "exp_points", value=[[True]]),
         ("verify", "--suite", "exp"), 2,
         "verify.exp_points[0] [True] is not a body point"),
        (c1x_with("initial_conditions", "run", "velocity", "x", value=1e200),
         ("geodesic", "--ic", "run"), 3,
         "the step from t=0 failed: FloatingPointError: overflow"),
        (FIBER_NAMED_CHART, ("verify", "--suite", "exp"), 0,
         '"name": "tangent_map_agreement",\n        "passed": true'),
        (ODD_PRODUCT_CHART, ("verify", "--suite", "isometry"), 1,
         '"name": "isometry_condition[shift]",\n        "passed": false,\n'
         '        "max_deviation": 0.012,'),
        (ODD_PAIRS_CHART, ("verify", "--suite", "isometry"), 1,
         '"name": "isometry_condition[shift]",\n        "passed": false,\n'
         '        "max_deviation": 0.015,'),
        # {tmp} is the test's temporary directory
        (bundled_doc("diag_x2"), ("geodesic", "--ic", "orbit", "--t-end",
                                  "0.01", "--out", "{tmp}/missing/x.csv"), 2,
         "cannot write {tmp}/missing/x.csv: No such file or directory"),
        (bundled_doc("diag_x2"), ("geodesic", "--ic", "orbit", "--t-end",
                                  "0.01", "--out", "{tmp}"), 2,
         "cannot write {tmp}: Is a directory"),
        (bundled_doc("diag_x2"), ("verify", "--suite", "metric", "--out",
                                  "{tmp}/missing/r.json"), 2,
         "cannot write {tmp}/missing/r.json: No such file or directory"),
        (bundled_doc("diag_x2"), ("verify", "--suite", "metric", "--out",
                                  "{tmp}"), 2,
         "cannot write {tmp}: Is a directory"),
        (bundled_doc("c1x_r12"), ("christoffel", "--point", "x=0.5,x=0.7"), 2,
         "--point gives 'x' more than once"),
        (bundled_doc("c1x_r12"), ("exp", "--point", "x=0.5, x =0.5"), 2,
         "--point gives 'x' more than once"),
        (bundled_doc("c1x_r12"), ("christoffel", "--ic", "run", "--point",
                                  "x=0.7"), 2,
         "give --point or --ic, not both"),
        (bundled_doc("c1x_r12"), ("exp", "--ic", "run", "--point", "x=0.3"),
         2, "give --point or --ic, not both"),
        (bundled_doc("c1x_r12"), ("verify", "--suite", "metric", "--tol",
                                  "metric_invariants=1e-300", "--tol",
                                  "metric_invariants=1"), 2,
         "--tol gives 'metric_invariants' more than once"),
    ], ids=["point_symmetry", "negative_control", "ic", "name_number",
            "name_null", "name_list", "metric_bool", "pullback_bool",
            "pullback_list", "exp_point_string", "exp_point_bool",
            "stage_overflow", "fiber_named_coordinate", "isometry_at_L1",
            "isometry_at_L2_four_odd", "geodesic_out_missing_dir",
            "geodesic_out_is_dir", "verify_out_missing_dir",
            "verify_out_is_dir", "christoffel_point_repeated",
            "exp_point_repeated", "christoffel_point_and_ic",
            "exp_point_and_ic", "verify_tol_repeated"])
    def test_bad_input(self, capsys, tmp_path, doc, argv, code, text):
        model = write_model(tmp_path, "model", doc)
        argv = [arg.replace("{tmp}", str(tmp_path)) for arg in argv]
        got, out, err = run(capsys, argv[0], "--model", model, *argv[1:])
        assert got == code
        assert err.count("error:") == err.count("\n") == (1 if code > 1 else 0)
        assert "Traceback" not in err and "Warning" not in err
        assert text.replace("{tmp}", str(tmp_path)) in (err if code > 1 else out)
        # no temporary output file is left beside the output
        for where in (tmp_path, tmp_path.parent):
            assert not list(where.glob("*.tmp"))


ERROR_TYPES = [cls for cls in vars(errors).values() if isinstance(cls, type)
               and issubclass(cls, errors.SuperGeometryError)]


@pytest.mark.parametrize("error", ERROR_TYPES, ids=lambda cls: cls.__name__)
def test_exit_code_declared_by_the_error(capsys, monkeypatch, error):
    # exit 3 on a failed integration, else 2, for every command
    failed = {errors.LeftDomain, errors.IntegrationFailure, errors.SingularBody}
    assert error.exit_code == (3 if error in failed else 2)

    def fail(args):
        raise error("the message")

    for command, argv in [("christoffel", ()), ("geodesic", ("--ic", "run")),
                          ("flow", ("--ic", "run")), ("exp", ()),
                          ("verify", ())]:
        monkeypatch.setattr(cli, f"cmd_{command}", fail)
        got, out, err = run(capsys, command, "--model", "c1x_r12", *argv)
        assert (got, out, err) == (error.exit_code, "", "error: the message\n")


@pytest.mark.parametrize("name", ["c1x_r12", "diag_x2", "flat_r12",
                                  "flat_r22", "odd_product"])
def test_isometry_gates_probe_at_one_L(monkeypatch, tmp_path, name):
    # the isometry checks of verify and the linearization gate decide the
    # same condition, so they probe it over the same generator count
    inner, seen = expmap.probe_points, {}

    def spy(caller):
        def probe(chart, q, L):
            points = inner(chart, q, L)
            seen.setdefault(caller, set()).update(p.L for p in points)
            return points
        return probe

    monkeypatch.setattr(verify, "probe_points", spy("isometry"))
    monkeypatch.setattr(expmap, "probe_points", spy("linearization"))
    model = (write_model(tmp_path, name, ODD_PRODUCT_CHART)
             if name == "odd_product" else name)
    fx = Fixtures(load_model(model), ("isometry",))
    fx.isometry  # probes for the isometry checks
    fx.checks  # and for each linearization gate
    assert len(seen["isometry"]) == 1
    assert seen["isometry"] == seen["linearization"]


def test_parser_built_once_and_calls_do_not_leak(monkeypatch, tmp_path):
    # one parser per process; a repeatable flag of one call is not seen by
    # the next call (argparse copies the list it appends to)
    assert cli.build_parser() is cli.build_parser()
    seen = []
    monkeypatch.setattr(cli, "run_suites", lambda model, suites, overrides:
                        seen.append((suites, overrides)) or {"passed": True})
    out = str(tmp_path / "report.json")
    for argv in (["--suite", "metric", "--suite", "geodesic",
                  "--tol", "metric_invariants=1e-9",
                  "--tol", "geodesic_residual=1e-6"],
                 ["--suite", "flow", "--tol", "metric_invariants=1e-7"],
                 []):
        assert main(["verify", "--model", "c1x_r12", "--out", out, *argv]) == 0
    assert seen == [(("metric", "geodesic"), {"metric_invariants": 1e-9,
                                              "geodesic_residual": 1e-6}),
                    (("flow",), {"metric_invariants": 1e-7}),
                    (("all",), {})]
