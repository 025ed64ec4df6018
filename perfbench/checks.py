"""Correctness gate applied to the output of every benchmark op.

A failed check makes the op count as failed; it never aborts the run.

* exit code 0 and no exception (checked by the caller);
* verify: `passed` is true and the check names equal the recorded ones;
* CSV: every value finite, (steps+1) * n * 2^L rows in (t, coordinate, mask)
  order, and wrong-parity coefficients exactly 0;
* flow: the energy column is constant per mask to within 1e-8 (AC4);
* on the recorded seed, values agree with the golden outputs to 1e-10
  absolute.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from workloads import Op

ENERGY_TOL = 1e-8
GOLDEN_TOL = 1e-10
GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
VERIFY_SUITES = ("metric", "geodesic", "flow", "exp", "isometry")


def _suites(op: Op) -> tuple[str, ...]:
    return VERIFY_SUITES if "all" in op.suites else op.suites


def load_golden(workload: str) -> dict:
    path = GOLDEN_DIR / f"{workload}.json"
    return json.loads(path.read_text()) if path.is_file() else {}


def parse_csv(op: Op, text: str) -> tuple[np.ndarray, list[str]]:
    """Numeric columns as a (steps+1, n, 2^L, cols) array, plus problems."""
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    n, D = len(op.coords), 1 << op.L
    expected_rows = (op.steps + 1) * n * D
    if len(lines) - 1 != expected_rows:
        return np.empty(0), [f"{len(lines) - 1} rows, expected {expected_rows}"]
    width = max(op.L, 1)
    labels = [(c, format(m, f"0{width}b")) for c, _ in op.coords for m in range(D)]
    rows = [ln.split(",") for ln in lines[1:]]
    for k, row in enumerate(rows):
        if (row[1], row[2]) != labels[k % (n * D)]:
            return np.empty(0), [f"row {k + 1} labelled {row[1:3]}, "
                                 f"expected {list(labels[k % (n * D)])}"]
    values = np.array([[row[0]] + row[3:] for row in rows], dtype=float)
    if not np.all(np.isfinite(values)):
        return np.empty(0), ["non-finite value in the CSV"]
    return values[:, 1:].reshape(op.steps + 1, n, D, -1), []


def _mask_parity(L: int) -> np.ndarray:
    return np.array([bin(m).count("1") % 2 for m in range(1 << L)])


def _wrong_parity(op: Op) -> np.ndarray:
    """(n, 2^L) mask of coefficients whose parity differs from the slot's."""
    par = np.array([p for _, p in op.coords])
    return (par[:, None] + _mask_parity(op.L)[None, :]) % 2 == 1


def check_csv(op: Op, text: str, golden: dict | None) -> list[str]:
    arr, problems = parse_csv(op, text)
    if problems:
        return problems
    wrong = _wrong_parity(op)
    # position, velocity/momentum: parity of the slot; energy: even
    for col in range(2):
        leak = np.max(np.abs(arr[:, wrong, col]), initial=0.0)
        if leak != 0.0:
            problems.append(f"wrong-parity coefficient {leak:.3g} in column {col + 3}")
    if op.kind == "flow":
        energy = arr[:, 0, :, 2]
        if np.any(energy[:, _mask_parity(op.L) == 1] != 0.0):
            problems.append("energy has an odd coefficient")
        drift = float(np.max(np.abs(energy - energy[0])))
        if drift > ENERGY_TOL:
            problems.append(f"energy drift {drift:.3g} > {ENERGY_TOL:g}")
    if golden is not None and golden.get("steps") == op.steps:
        got = arr[golden["slices"]]
        want = np.array(golden["values"])
        dev = float(np.max(np.abs(got - want))) if got.shape == want.shape else np.inf
        if not dev <= GOLDEN_TOL:
            problems.append(f"golden deviation {dev:.3g} > {GOLDEN_TOL:g}")
    return problems


def check_verify(op: Op, text: str, golden: dict | None,
                 compare_values: bool) -> list[str]:
    report = json.loads(text)
    problems = [] if report.get("passed") is True else ["verify report not passed"]
    if golden is None:
        return problems + [f"no golden check names for {op.name}"]
    for suite in _suites(op):
        got = [(c["name"], c["max_deviation"]) for c in report["suites"].get(suite, [])]
        want = golden["suites"].get(suite, [])
        if [g[0] for g in got] != [w[0] for w in want]:
            problems.append(f"{suite}: check names {[g[0] for g in got]} "
                            f"!= {[w[0] for w in want]}")
        elif compare_values:
            dev = max((abs(g[1] - w[1]) for g, w in zip(got, want)), default=0.0)
            if dev > GOLDEN_TOL:
                problems.append(f"{suite}: golden deviation {dev:.3g}")
    return problems


def check_output(op: Op, data: bytes, golden: dict, seed: int) -> list[str]:
    """Problems with one op's output; golden values apply on the golden seed."""
    entry = golden.get("ops", {}).get(op.name)
    on_seed = golden.get("seed") == seed
    try:
        text = data.decode()
        if op.is_csv:
            return check_csv(op, text, entry if on_seed else None)
        return check_verify(op, text, entry, on_seed)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return [f"unreadable output: {exc!r}"]


# ---------------------------------------------------------------------------
# recording


def golden_entry(op: Op, data: bytes) -> dict:
    """What `check_output` compares against, taken from a trusted output."""
    text = data.decode()
    if not op.is_csv:
        report = json.loads(text)
        return {"suites": {s: [[c["name"], c["max_deviation"]] for c in checks]
                           for s, checks in report["suites"].items()}}
    arr, problems = parse_csv(op, text)
    if problems:
        raise ValueError(f"{op.name}: {problems}")
    slices = sorted({0, op.steps // 2, op.steps} if op.L < 6 else {op.steps})
    return {"steps": op.steps, "slices": slices, "values": arr[slices].tolist()}
