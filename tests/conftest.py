"""Shared chart fixtures for the test suite."""

import numpy as np
import pytest

from supergeodesics import ChartSignature, MetricChart, jobs


@pytest.fixture(scope="session")
def sig_r12():
    return ChartSignature(("x",), ("th1", "th2"))


@pytest.fixture(scope="session")
def sig_r22():
    return ChartSignature(("x", "y"), ("th1", "th2"))


@pytest.fixture(scope="session")
def flat_r12(sig_r12):
    return MetricChart(sig_r12,
                       [["1", "0", "0"], ["0", "0", "1"], ["0", "-1", "0"]],
                       {"x": (-50.0, 50.0)}, name="flat_r12")


@pytest.fixture(scope="session")
def c1x_r12(sig_r12):
    return MetricChart(
        sig_r12,
        [["1", "0", "0"], ["0", "0", "1 + x"], ["0", "-(1 + x)", "0"]],
        {"x": (-0.8, 20.0)}, name="c1x_r12")


@pytest.fixture(scope="session")
def diag_x2():
    sig = ChartSignature(("x", "y"), ())
    return MetricChart(sig, [["1", "0"], ["0", "x^2"]],
                       {"x": (0.2, 100.0), "y": (-100.0, 100.0)},
                       name="diag_x2")


@pytest.fixture(scope="session")
def flat_r22(sig_r22):
    return MetricChart(
        sig_r22,
        [["1", "0", "0", "0"], ["0", "1", "0", "0"],
         ["0", "0", "0", "1"], ["0", "0", "-1", "0"]],
        {"x": (-50.0, 50.0), "y": (-50.0, 50.0)}, name="flat_r22")


@pytest.fixture(scope="session")
def curved_r22(sig_r22):
    # a full even block, whose LAPACK inverse leaves a body residue
    return MetricChart(sig_r22, [
        ["1 + 0.3*y^2", "0.1*x*y", "0.2*th2", "0.15*x*th1"],
        ["0.1*x*y", "1 + 0.4*x^2", "0.1*th1", "0.2*th2"],
        ["0.2*th2", "0.1*th1", "0", "1 + 0.3*x"],
        ["0.15*x*th1", "0.2*th2", "-(1 + 0.3*x)", "0"]],
        {"x": (-1.0, 1.0), "y": (-1.0, 1.0)}, name="curved_r22")


@pytest.fixture
def rng():
    return np.random.default_rng(20240)


@pytest.fixture
def one_worker(monkeypatch):
    """Run the integrations of a `verify` inline, in this process, so that a
    test counting or patching them here sees every one."""
    monkeypatch.setattr(jobs, "_cpus", lambda: 1)
