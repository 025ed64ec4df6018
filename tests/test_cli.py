"""CLI subcommands: tables, CSV determinism, verification, error codes."""

import json
from importlib import resources

import numpy as np
import pytest

from supergeodesics import expmap, geodesics, verify
from supergeodesics.cli import main
from supergeodesics.model import load_model


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
        # determinism check integrates it once more, serially.  They step
        # through the `_rk4` that `expmap` and `geodesics` import; the flow's
        # own, imported by `cotangent`, is not counted
        calls = [count_calls(monkeypatch, module, "_rk4")
                 for module in (expmap, geodesics)]
        report = verify.run_suites(load_model("flat_r12"), suites)
        assert report["passed"] is True
        assert sum(map(len, calls)) == runs

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

    def test_bad_default_point_exits_2(self, capsys, tmp_path):
        # the default base point is the middle of the box clipped to
        # [-1, 1], here 3.0, outside x in (5, 10)
        doc = coarse_doc("flat_r12")
        doc["domain"] = {"x": [5.0, 10.0]}
        del doc["verify"]["base_point"]
        model = write_model(tmp_path, "bad_default", doc)
        code, _, err = run(capsys, "verify", "--model", model)
        assert code == 2
        assert "the default verify.base_point [3.0] is not a body point" in err


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
