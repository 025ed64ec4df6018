"""The integrations of `verify` in forked workers: the same report, the
same first error, no process left behind."""

import json
import os
import signal
import subprocess
import sys
import textwrap
from importlib import resources
from pathlib import Path

import pytest

from supergeodesics import jobs, verify
from supergeodesics.cli import main
from supergeodesics.errors import IntegrationFailure, LeftDomain

SRC = Path(__file__).resolve().parents[1] / "src"


@pytest.fixture(autouse=True)
def bounded():
    """Fail a test that waits on a worker for more than two minutes."""
    def expire(signum, frame):
        raise TimeoutError("no result from the workers in 120 s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(120)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)


@pytest.fixture
def workers(monkeypatch):
    """Set the CPU count the jobs see; returns the pids of forked workers."""
    pids = []
    fork = os.fork

    def recorded():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", recorded)

    def cpus(n):
        monkeypatch.setattr(jobs, "_cpus", lambda: n)
        return pids
    return cpus


def assert_reaped(pids):
    for pid in pids:
        with pytest.raises(ChildProcessError):
            os.waitpid(pid, os.WNOHANG)


def model_file(tmp_path, name="c1x_r12", **velocity):
    """A bundled model at dt = 1e-2, with the x velocity of the verify ic
    (`ic`) or of the first verify vector (`vector`) set."""
    doc = json.loads((resources.files("supergeodesics.models")
                      / f"{name}.json").read_text())
    doc["defaults"]["dt"] = 1e-2
    if "ic" in velocity:
        doc["initial_conditions"]["run"]["velocity"]["x"] = velocity["ic"]
    if "vector" in velocity:
        doc["verify"]["vectors"][0]["x"] = velocity["vector"]
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(doc))
    return str(path)


def raising(exc):
    def job():
        raise exc
    return job


class TestJobs:
    def test_first_read_failure_is_raised(self, workers):
        # b is dispatched first and fails first, but a is read first
        pids = workers(2)
        with jobs.Jobs() as q:
            a = q.add("job a", 1.0, raising(LeftDomain("a left")))
            b = q.add("job b", 9.0, raising(IntegrationFailure("b failed")))
            c = q.add("job c", 5.0, lambda: 7)
            with pytest.raises(LeftDomain, match="a left"):
                q.result(a)
            with pytest.raises(IntegrationFailure, match="b failed"):
                q.result(b)
            assert q.result(c) == 7
        assert len(pids) == 2
        assert_reaped(pids)

    def test_inline_with_one_cpu(self, workers):
        pids = workers(1)
        ran = []
        q = jobs.Jobs()
        a = q.add("job a", 1.0, lambda: ran.append("a") or "a")
        b = q.add("job b", 9.0, lambda: ran.append("b") or "b")
        assert (q.result(b), q.result(a), q.result(b)) == ("b", "a", "b")
        assert ran == ["b", "a"] and pids == []

    def test_dead_worker_names_its_job(self, workers):
        pids = workers(2)
        with jobs.Jobs() as q:
            a = q.add("the dying job", 1.0, lambda: os._exit(7))
            b = q.add("job b", 1.0, lambda: "b")
            with pytest.raises(IntegrationFailure, match=r"running the dying "
                               r"job died \(exit status 7\)"):
                q.result(a)
            assert q.result(b) == "b"
        assert_reaped(pids)


    def test_job_left_by_dead_workers_fails(self, workers):
        # both workers die before either takes c
        pids = workers(2)
        with jobs.Jobs() as q:
            for name in ("dying job 1", "dying job 2"):
                q.add(name, 2.0, lambda: os._exit(7))
            c = q.add("job c", 1.0, lambda: "c")
            with pytest.raises(IntegrationFailure,
                               match="no worker finished job c"):
                q.result(c)
        assert_reaped(pids)


class TestParallelVerify:
    def test_report_returns_with_no_worker_left(self, workers, tmp_path):
        pids = workers(2)
        code = main(["verify", "--model", model_file(tmp_path, "flat_r12"),
                     "--out", str(tmp_path / "r.json")])
        assert code == 0 and len(pids) == 2
        assert_reaped(pids)

    @pytest.mark.parametrize("suite, t", [("flow", "0.4"), ("all", "0.2")])
    def test_left_domain_as_inline(self, workers, tmp_path, capsys, suite, t):
        # from x = 0, the verify geodesic and flow leave x > -0.8 at t = 0.4
        # and the first test vector's exp row at t = 0.2: `--suite flow`
        # reads the flow first, `all` the exp run of that row (and of the
        # suite geodesic) first
        model = model_file(tmp_path, ic=-2.0, vector=-4.0)
        results = []
        for n in (1, 2):
            pids = workers(n)
            code = main(["verify", "--model", model, "--suite", suite])
            results.append((code, capsys.readouterr()))
            assert_reaped(pids)
        (code1, out1), (code2, out2) = results
        assert code1 == code2 == 3
        assert out1.out == out2.out == ""
        assert out1.err == out2.err
        assert f"left the chart domain at t={t}\n" in out1.err

    def test_dead_worker_exits_3(self, workers, tmp_path, capsys,
                                 monkeypatch):
        monkeypatch.setattr(verify, "integrate_flow", lambda *a: os._exit(7))
        pids = workers(2)
        code = main(["verify", "--model", model_file(tmp_path),
                     "--suite", "flow"])
        err = capsys.readouterr().err
        assert code == 3 and "Traceback" not in err
        assert "the worker process running the suite flow died " \
            "(exit status 7)" in err
        assert_reaped(pids)

    def test_report_printed_once(self, tmp_path):
        # stdout is a pipe, so "before" is still buffered at the fork
        script = textwrap.dedent("""
            import sys
            from supergeodesics import jobs
            from supergeodesics.cli import main
            jobs._cpus = lambda: 2
            sys.stdout.write("before\\n")
            sys.exit(main(["verify", "--model", sys.argv[1]]))
        """)
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        env["PYTHONPATH"] = str(SRC)
        proc = subprocess.run(
            [sys.executable, "-c", script, model_file(tmp_path, "flat_r12")],
            capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.count("before\n") == 1
        assert proc.stdout.count('"model": "flat_r12"') == 1
