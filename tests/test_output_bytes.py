"""Byte-identity guard for the integrating commands and the verify report.

`geodesic --mode paper`, `geodesic --mode goertsches` and `flow` over
`--t-end 0.05` on the four bundled models and on one curved 2|2 chart at
L = 6 must write CSVs with the sha256 recorded below.  A change to the
right-hand sides, the stepper, the inverse metric or the expression
evaluation that moves a single bit of any coefficient fails here.

The same three commands at real points must write the sha256 recorded in
`REAL_POINT_EXPECTED`: `c1x_r12` and `flat_r22` at L = 0, and `diag_x2`
from a velocity of signed zeros.  There the sign of a zero coefficient
reaches the CSV, so a real-product shortcut that moved one fails here.

`verify --suite all` on the four bundled models at `dt = 1e-2` must write
the report with the sha256 recorded below, whether its integrations run
inline or in forked workers.  Only this report shows the
classical oracles, the body geometry and every check's deviation, so a
change to any of them that moves a bit fails here.

The digests hold with numpy 2.4.6 on scipy-openblas (OpenBLAS 0.3.31,
DYNAMIC_ARCH) when OpenBLAS picks its SkylakeX kernel family at run time
(`scipy_openblas_get_corename64_` in numpy's bundled library names it),
single- and two-threaded.  Another kernel family may associate a product's
sums differently: under `OPENBLAS_CORETYPE=Sandybridge` the three
`curved_r22_L6` CSV digests fail.  So a failure on another host may be a
BLAS kernel difference, not a regression; re-record the digests there only
from a commit whose outputs are trusted.
"""

import hashlib
import json
from importlib import resources

import pytest

from supergeodesics import jobs
from supergeodesics.cli import main

COMMANDS = {
    "paper": ("geodesic", "--mode", "paper"),
    "goertsches": ("geodesic", "--mode", "goertsches"),
    "flow": ("flow",),
}

# the first initial condition of each bundled model
BUNDLED_IC = {"flat_r12": "odd_slope", "c1x_r12": "run", "diag_x2": "orbit",
              "flat_r22": "mixed"}


def _soul(parity, body, k, L=6):
    """Deterministic coefficients on every mask of the given parity."""
    pairs = [[0, body]] if parity == 0 else []
    pairs += [[m, ((m * 37 + k * 11) % 19 - 9) / 200.0]
              for m in range(1, 1 << L) if bin(m).count("1") % 2 == parity]
    return pairs


CURVED_L6 = {
    "schema_version": 1, "name": "curved_r22_L6",
    "signature": {"even": ["x", "y"], "odd": ["th1", "th2"]},
    "metric": [
        ["1 + 0.3*y^2", "0.1*x*y", "0.2*th2", "0.15*x*th1"],
        ["0.1*x*y", "1 + 0.4*x^2", "0.1*th1", "0.2*th2"],
        ["0.2*th2", "0.1*th1", "0", "1 + 0.3*x"],
        ["0.15*x*th1", "0.2*th2", "-(1 + 0.3*x)", "0"]],
    "domain": {"x": [-1.0, 1.0], "y": [-1.0, 1.0]},
    "L": 6,
    "initial_conditions": {"guard": {
        "position": {"x": _soul(0, 0.1, 1), "y": _soul(0, -0.15, 2),
                     "th1": _soul(1, 0.0, 3), "th2": _soul(1, 0.0, 4)},
        "velocity": {"x": _soul(0, 0.4, 5), "y": _soul(0, 0.3, 6),
                     "th1": _soul(1, 0.0, 7), "th2": _soul(1, 0.0, 8)}}},
    "defaults": {"dt": 0.01, "t_end": 0.05},
}

EXPECTED = {
    "paper:flat_r12":
        "44b6cda646e899cbe931ec75b3a27193af0a583724f00d5baae070fcc83bb774",
    "goertsches:flat_r12":
        "17f9383e6d0bd9e3333ccc83f8e4b631323303caeda3ebb105dd7efbd8536b58",
    "flow:flat_r12":
        "d9831b4f10a4a45e30396e33440f0766530d222841e8d273b685926543faf6a6",
    "paper:c1x_r12":
        "e530a10dec79fa55dba8ebe303c9964b18dcecf891d75732f72a827394e69a7b",
    "goertsches:c1x_r12":
        "f9b1b81eb089310c72a68454e795b2b017b8f48c8a4d22e7d7059c8f6d701e4e",
    "flow:c1x_r12":
        "e9efd1a150b881f1dce4ccb5a9f4c6c7f704624500d6b3f727c832038a27eec7",
    "paper:diag_x2":
        "04bcd3fce699347da7d710dbf92080c1773992526f77a8edae306fc29e657b7f",
    "goertsches:diag_x2":
        "04bcd3fce699347da7d710dbf92080c1773992526f77a8edae306fc29e657b7f",
    "flow:diag_x2":
        "72e82c3f09610b4078dec71b57ca1945020551895472e3a46ad368c3e038ba9c",
    "paper:flat_r22":
        "dec7a75d32028d94e4ec7ed5ff64a694af18ee12551ee5bc9c798f90ddea73a5",
    "goertsches:flat_r22":
        "8198c5476463729b91b0f533427f606407dec990646c7753a5856d02f92f9a5a",
    "flow:flat_r22":
        "ccdc26d29e63d0b651e88ac6dd8fe2eb094beb66e2b5cd1c011fdcb19ff4f24d",
    "paper:curved_r22_L6":
        "0eb93f8190d5595e1e4501caf770e5fec16459b10009b0b833620ccdd32ad31b",
    "goertsches:curved_r22_L6":
        "b5e4912d2b736cc76d23ad2e21f29caeac0427a99db2da9ec8b2d3644f24da8c",
    "flow:curved_r22_L6":
        "dbe037f6673c49eabfbb54be6ab1b7e3cba39aaa24e9c404c3afc3db92711462",
}


def cases():
    for model, ic in BUNDLED_IC.items():
        for cmd in COMMANDS:
            yield model, ic, cmd
    for cmd in COMMANDS:
        yield "curved_r22_L6", "guard", cmd


def digest(tmp_path, model, ic, cmd):
    if model == "curved_r22_L6":
        path = tmp_path / "curved_r22_L6.json"
        path.write_text(json.dumps(CURVED_L6))
        model = str(path)
    out = tmp_path / "out.csv"
    code = main([*COMMANDS[cmd], "--model", model, "--ic", ic,
                 "--t-end", "0.05", "--out", str(out)])
    assert code == 0
    return hashlib.sha256(out.read_bytes()).hexdigest()


@pytest.mark.parametrize("model, ic, cmd", list(cases()))
def test_csv_bytes_unchanged(tmp_path, model, ic, cmd):
    assert digest(tmp_path, model, ic, cmd) == EXPECTED[f"{cmd}:{model}"]


def bundled_doc(model, **changes):
    doc = json.loads((resources.files("supergeodesics.models")
                      / f"{model}.json").read_text())
    doc.update(changes)
    return doc


# real points, where the sign of a zero coefficient could show: two charts
# with odd coordinates at L = 0 (no soul), and a velocity of signed zeros
REAL_POINT = {
    "c1x_r12_L0": bundled_doc(
        "c1x_r12", name="c1x_r12_L0", L=0, initial_conditions={"real": {
            "position": {"x": 0.0}, "velocity": {"x": 1.0}}}),
    "flat_r22_L0": bundled_doc(
        "flat_r22", name="flat_r22_L0", L=0, initial_conditions={"real": {
            "position": {"x": 0.1, "y": -0.2},
            "velocity": {"x": 0.7, "y": 0.4}}}),
    "diag_x2_minus_zero": bundled_doc(
        "diag_x2", name="diag_x2_minus_zero", initial_conditions={"real": {
            "position": {"x": 2.0, "y": 0.0},
            "velocity": {"x": -0.0, "y": -0.0}}}),
}

REAL_POINT_EXPECTED = {
    "paper:c1x_r12_L0":
        "1fff112332809218baa4a506893af09d2ddffdd04b04ada4de030b88ddb6e911",
    "goertsches:c1x_r12_L0":
        "4080eaa3607af94456b4ab114db801e8138d43bef5f2a6a6a20f8ab825c60846",
    "flow:c1x_r12_L0":
        "3a6fb206f48ab078922d786a90a9e2106ea1e31783de9ccc21322f0cf2e42583",
    "paper:flat_r22_L0":
        "cb2c7253446cf92583845a70b0be642272b1b7e2c0bf00d7901418e9985ef541",
    "goertsches:flat_r22_L0":
        "cb2c7253446cf92583845a70b0be642272b1b7e2c0bf00d7901418e9985ef541",
    "flow:flat_r22_L0":
        "8fda7ee2f550ec955d246e92ccfee72c77c9fac9ea64771a9fcbb974dc047e36",
    "paper:diag_x2_minus_zero":
        "009ffadcbd164b0bb9dbdb22b560365d55f2cc59361778ff272a6e8605a7e96b",
    "goertsches:diag_x2_minus_zero":
        "009ffadcbd164b0bb9dbdb22b560365d55f2cc59361778ff272a6e8605a7e96b",
    "flow:diag_x2_minus_zero":
        "ebf5102d912a61c72463e778bffc7c8dd3f6c9924aa34de89a3d96e940bfc802",
}


@pytest.mark.parametrize("cmd", list(COMMANDS))
@pytest.mark.parametrize("model", list(REAL_POINT))
def test_real_point_csv_bytes_unchanged(tmp_path, model, cmd):
    path = tmp_path / f"{model}.json"
    path.write_text(json.dumps(REAL_POINT[model]))
    assert (digest(tmp_path, str(path), "real", cmd)
            == REAL_POINT_EXPECTED[f"{cmd}:{model}"])


VERIFY_EXPECTED = {
    "flat_r12":
        "f3820d163f0f989115bf317133082907b0ee629b86a06a478bfd14e79512569c",
    "c1x_r12":
        "163cdf26578c79ff26cfecc6566ff87edc5af766d8213ad0e1206ce38672c468",
    "diag_x2":
        "d3666e4ed6e702f018dbe7d4fda828058c30538286f054c4273b9a482d292c1c",
    "flat_r22":
        "4be728d47218745f9c8fa89f9b0714aef42ab5871f25bfec44f24ec96a71a5ed",
}


def verify_digest(tmp_path, model):
    doc = json.loads((resources.files("supergeodesics.models")
                      / f"{model}.json").read_text())
    doc["defaults"]["dt"] = 1e-2
    path = tmp_path / f"{model}.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "report.json"
    assert main(["verify", "--model", str(path), "--out", str(out)]) == 0
    return hashlib.sha256(out.read_bytes()).hexdigest()


@pytest.mark.parametrize("model", list(VERIFY_EXPECTED))
def test_verify_report_bytes_unchanged(tmp_path, model):
    assert verify_digest(tmp_path, model) == VERIFY_EXPECTED[model]


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("model", list(VERIFY_EXPECTED))
def test_verify_report_bytes_any_worker_count(tmp_path, monkeypatch, model,
                                              workers):
    # the integrations inline, or in two forked workers on any host
    monkeypatch.setattr(jobs, "_cpus", lambda: workers)
    assert verify_digest(tmp_path, model) == VERIFY_EXPECTED[model]
