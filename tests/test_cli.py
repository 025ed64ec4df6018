"""CLI subcommands: tables, CSV determinism, verification, error codes."""

import json

import numpy as np
import pytest

from supergeodesics.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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

    def test_report_written_to_file(self, capsys, tmp_path):
        out = tmp_path / "report.json"
        code, _, _ = run(capsys, "verify", "--model", "flat_r12",
                         "--suite", "metric", "--out", str(out))
        assert code == 0
        assert json.loads(out.read_text())["model"] == "flat_r12"


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
