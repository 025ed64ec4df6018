#!/usr/bin/env python3
"""Benchmark of the supergeodesics command line, end to end and per layer.

    python3 perfbench/run.py --workload {verify_bundled,trajectory_bundled,soul_L6}
                             --seed N --seconds S --trace {0,1}

Run from anywhere; the package is imported from `src/` next to this
directory.  One single-process, closed-loop caller runs the workload's fixed
op list (`supergeodesics.cli.main(argv)` with `--out` to a scratch
directory) in passes until `--seconds` have elapsed, at least once.  Every
op output is checked (see checks.py); failures are counted, never fatal.

End-to-end metrics (`--trace 0`, tracing off):
  setup_s      median wall time of SETUP_REPEATS fresh processes that each
               import the package, generate the inputs from the seed, load
               and validate the models and run one warm-up op of each kind
  wall_s       time of the op list: sum over ops of the median op latency
               across passes
  peak_rss_mb  peak resident set size of this process
fail_frac (failed / attempted ops) is printed and recorded with them.

`--trace 1` runs the same untimed passes, then one traced pass, and reports
the per-layer metrics of spans.py.  The last stdout line is one JSON object
{"correct", "attempted", "failed", "metrics"}; a fuller record, with
provenance and per-op latencies, goes to .bench_out/ at the repository root.

`--record-golden` rewrites perfbench/golden/<workload>.json from one pass on
the default seed; it is meant for a commit whose outputs are trusted.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
TMP_DIR = ROOT / ".bench_tmp"

DEFAULT_SEED = 1
HELD_OUT_SEED = 2      # not used while tuning the benchmark
SETUP_REPEATS = 5


def cap_blas_threads() -> int:
    """Cap BLAS threads at the CPUs this process may use; before numpy."""
    nproc = len(os.sched_getaffinity(0))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(nproc)
    return nproc


def parse_args(argv=None):
    import workloads

    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="tiny ops and one set-up repeat (for the smoke test)")
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    p.add_argument("--record-golden", action="store_true")
    return p.parse_args(argv)


# ---------------------------------------------------------------------------
# set-up and ops


def set_up(args, scratch: Path):
    """Import, generate inputs, load and validate models, warm up."""
    import workloads
    from supergeodesics import cli  # noqa: F401  (importing is a set-up step)
    from supergeodesics.geometry import metric_validate
    from supergeodesics.model import load_model

    wl = workloads.build(args.workload, args.seed, SRC, scratch, args.smoke)
    for spec in wl.model_specs:
        model = load_model(spec)
        points = [ic.position for ic in model.initial_conditions.values()]
        report = metric_validate(model.chart, points)
        if not report.ok:
            raise SystemExit(f"model {spec}: {report.first_violation}")
    for op in wl.warmups:
        rc, _, _, err = run_op(op, scratch / "warmup.out")
        if rc != 0:
            raise SystemExit(f"warm-up {op.name} failed: exit {rc} {err}")
    return wl


def run_op(op, out: Path):
    """(exit code, seconds, output bytes, error) of one CLI invocation."""
    from supergeodesics import cli

    err = ""
    if out.exists():
        out.unlink()
    t0 = time.perf_counter()
    try:
        rc = cli.main(list(op.argv) + ["--out", str(out)])
    except SystemExit as exc:  # argparse usage errors
        rc, err = exc.code, "SystemExit"
    except Exception as exc:  # an op failure is counted, never fatal
        rc, err = None, repr(exc)
    seconds = time.perf_counter() - t0
    data = out.read_bytes() if out.exists() else b""
    return rc, seconds, data, err


class Runner:
    """Runs passes over the op list and applies the correctness gate."""

    def __init__(self, args, wl, scratch: Path, golden: dict):
        self.args, self.wl, self.scratch, self.golden = args, wl, scratch, golden
        self.attempted = 0
        self.failures: list[dict] = []
        self.digests: dict[str, str] = {}
        self.outputs: dict[str, bytes] = {}

    def execute(self, op, label: str) -> float:
        import checks

        rc, seconds, data, err = run_op(op, self.scratch / "op.out")
        self.attempted += 1
        problems = [] if rc == 0 else [f"exit code {rc} {err}".strip()]
        if rc == 0:
            problems += checks.check_output(op, data, self.golden, self.args.seed)
        digest = hashlib.sha256(data).hexdigest()
        first = self.digests.setdefault(op.name, digest)
        if digest != first:
            problems.append("output differs from the first run of this op")
        if self.args.record_golden:
            self.outputs[op.name] = data
        if problems:
            self.failures.append({"op": op.name, "run": label, "problems": problems})
        return seconds

    def passes(self, seconds: float, label: str, trace_hook=None) -> list[list[float]]:
        """Run the op list until `seconds` have elapsed, at least once."""
        out: list[list[float]] = []
        t0 = time.perf_counter()
        while True:
            lat = []
            for k, op in enumerate(self.wl.ops):
                if trace_hook:
                    trace_hook(k)
                lat.append(self.execute(op, f"{label}{len(out)}"))
            out.append(lat)
            if time.perf_counter() - t0 >= seconds:
                return out


def list_wall(passes: list[list[float]]) -> float:
    return sum(statistics.median(col) for col in zip(*passes))


def timed_setups(args, n: int) -> list[float]:
    """Wall time of `n` fresh processes that only set up this workload."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"] + (["--smoke"] if args.smoke else [])
    times = []
    for _ in range(n):
        t0 = time.perf_counter()
        subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - t0)
    return times


# ---------------------------------------------------------------------------
# provenance and output


def provenance(args, nproc: int) -> dict:
    import numpy as np

    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    sha = None
    try:
        res = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"],
                             cwd=ROOT, capture_output=True, text=True, timeout=10)
        top, _, head = res.stdout.strip().partition("\n")
        if res.returncode == 0 and Path(top).resolve() == ROOT:
            sha = head
    except (OSError, subprocess.SubprocessError):
        pass
    return {"git_sha": sha, "python": platform.python_version(),
            "numpy": np.__version__, "blas": blas.get("name"),
            "blas_version": blas.get("version"),
            "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
            "nproc": nproc, "seed": args.seed, "seconds": args.seconds,
            "workload": args.workload, "trace": args.trace, "smoke": args.smoke,
            "platform": platform.platform()}


def record_golden(runner: Runner) -> None:
    import checks

    if runner.args.seed != DEFAULT_SEED or runner.args.smoke:
        raise SystemExit("--record-golden needs the default seed and full ops")
    ops = {op.name: checks.golden_entry(op, runner.outputs[op.name])
           for op in runner.wl.ops}
    checks.GOLDEN_DIR.mkdir(exist_ok=True)
    path = checks.GOLDEN_DIR / f"{runner.wl.name}.json"
    path.write_text(json.dumps({"seed": DEFAULT_SEED, "ops": ops}, indent=1) + "\n")
    print(f"golden outputs written to {path}")


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "supergeodesics" / "cli.py").is_file():
        print(f"error: no supergeodesics package under {SRC}", file=sys.stderr)
        return 2
    nproc = cap_blas_threads()
    sys.path.insert(0, str(SRC))
    TMP_DIR.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(dir=TMP_DIR))
    os.environ["TMPDIR"] = str(scratch)
    tempfile.tempdir = str(scratch)
    try:
        if args.setup_only:
            set_up(args, scratch)
            return 0
        return bench(args, nproc, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def bench(args, nproc: int, scratch: Path) -> int:
    setup_times = timed_setups(args, 1 if args.smoke else SETUP_REPEATS)
    t0 = time.perf_counter()
    wl = set_up(args, scratch)
    own_setup_s = time.perf_counter() - t0

    import checks

    runner = Runner(args, wl, scratch, checks.load_golden(wl.name))
    passes = runner.passes(args.seconds, "pass")
    wall_s = list_wall(passes)
    # AC10: the cheapest op once more, byte-identical to its timed output
    cheapest = min(range(len(wl.ops)), key=lambda k: passes[0][k])
    runner.execute(wl.ops[cheapest], "repeat")
    if args.record_golden:
        record_golden(runner)

    record = {
        "provenance": provenance(args, nproc),
        "ops": [op.name for op in wl.ops],
        "op_latency_s": passes,
        "setup_s_samples": setup_times,
        "setup_in_process_s": own_setup_s,
        "attempted": runner.attempted,
        "failures": runner.failures,
    }
    if args.trace:
        metrics, units = trace_pass(args, runner, wall_s, record)
    else:
        metrics = {"setup_s": statistics.median(setup_times), "wall_s": wall_s,
                   "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
        units = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}
    failed = len(runner.failures)  # at most one entry per op run
    fail_frac = failed / runner.attempted
    record.update(failed=failed, fail_frac=fail_frac, metrics=metrics)

    OUT_DIR.mkdir(exist_ok=True)
    out = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1) + "\n")

    print(f"provenance {json.dumps(record['provenance'], sort_keys=True)}")
    print(f"workload {args.workload} seed {args.seed}: {len(wl.ops)} ops x "
          f"{len(passes)} passes, {runner.attempted} attempted, {failed} failed")
    for f in runner.failures:
        print(f"FAILED {f['op']} ({f['run']}): {'; '.join(f['problems'])}")
    shown = dict(metrics)
    if not args.trace:
        shown["fail_frac"] = fail_frac
        units["fail_frac"] = "ratio"
    for k, v in shown.items():
        print(f"  {k:<44} {v:>16.6g} {units[k]}")
    if args.trace:
        shares = record["trace"]["self_share_by_layer"]
        print("self time / traced op wall: "
              + ", ".join(f"{k} {v:.3f}" for k, v in shares.items()))
    print(f"record {out.relative_to(ROOT)}")
    print(json.dumps({"correct": failed == 0, "attempted": runner.attempted,
                      "failed": failed,
                      "metrics": {k: {"value": v, "unit": units[k]}
                                  for k, v in metrics.items()}}))
    return 0


def trace_pass(args, runner: Runner, wall_s: float, record: dict):
    """One traced pass; per-layer metrics and their units."""
    import spans
    from supergeodesics import grassmann

    tracer = spans.Tracer()
    tracer.install()

    def set_op(k):
        tracer.op = k

    traced = runner.passes(0.0, "traced", trace_hook=set_op)[0]
    traced_wall = sum(traced)
    names = [op.name for op in runner.wl.ops]
    metrics, extra = tracer.report(traced_wall, names, grassmann)
    metrics["trace.overhead_frac"] = traced_wall / wall_s - 1.0
    OUT_DIR.mkdir(exist_ok=True)
    tracer.write(OUT_DIR / f"spans-{args.workload}.npz", names)
    record.update(traced_latency_s=traced, trace=extra)
    if metrics["trace.coverage"] < spans.MIN_COVERAGE:
        raise SystemExit(f"trace coverage {metrics['trace.coverage']:.3f} is "
                         f"below {spans.MIN_COVERAGE}: spans miss op time")
    ordered = {k: metrics[k] for k in spans.PER_LAYER_UNITS}
    return ordered, dict(spans.PER_LAYER_UNITS)


if __name__ == "__main__":
    sys.exit(main())
