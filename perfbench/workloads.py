"""Seeded inputs and fixed op lists of the three benchmark workloads.

Every op is one CLI invocation, `supergeodesics.cli.main(argv)`, whose output
goes to `--out`.  The program sees only the files generated here and argv.

* verify_bundled: `verify --suite all` on the four bundled models as shipped;
  the seed fixes only the op order.  All L <= 2: per-call numpy overhead, many
  short integrations and per-sample diagnostic loops dominate.
* trajectory_bundled: both geodesic modes and the flow over a long horizon on
  copies of the bundled charts with initial conditions drawn from the seed.
  Each op is one long serial integration at L <= 2 plus CSV formatting.
* soul_L6: the same three commands over a few steps on a curved 2|2 chart
  generated from the seed at L = 6, with soul on every mask of the right
  parity; the Grassmann product dominates.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

BUNDLED = ("flat_r12", "c1x_r12", "diag_x2", "flat_r22")

DT = 1e-3
TRAJECTORY_T_END = 2.0
SOUL_STEPS = 10
SOUL_L = 6
WARMUP_STEPS = 2

# How the body of each bundled chart moves: its even-even block is flat, in
# Cartesian or in polar (r, angle) coordinates, so body geodesics are straight
# lines in the plane and the domain check below is exact.
BODY_COORDS = {"flat_r12": "cartesian", "c1x_r12": "cartesian",
               "diag_x2": "polar", "flat_r22": "cartesian"}


@dataclass(frozen=True)
class Op:
    """One CLI invocation and what its output must look like."""

    name: str                 # stable id, e.g. "flow:c1x_r12"
    kind: str                 # "verify" | "geodesic-paper" | "geodesic-goertsches" | "flow"
    argv: tuple[str, ...]     # without --out
    coords: tuple[tuple[str, int], ...] = ()   # (name, parity) in chart order
    L: int = 0
    steps: int = 0
    suites: tuple[str, ...] = ()

    @property
    def is_csv(self) -> bool:
        return self.kind != "verify"


@dataclass
class Workload:
    name: str
    ops: list[Op]                      # in the seeded order
    warmups: list[Op]                  # one untimed op per command kind
    model_specs: list[str]             # loaded and validated in set-up


def bundled_doc(src: Path, name: str) -> dict:
    return json.loads((src / "supergeodesics" / "models" / f"{name}.json").read_text())


def _coords(doc: dict) -> tuple[tuple[str, int], ...]:
    sig = doc["signature"]
    return (tuple((n, 0) for n in sig["even"])
            + tuple((n, 1) for n in sig.get("odd", [])))


def _masks(L: int, parity: int) -> list[int]:
    return [m for m in range(1 << L) if m and bin(m).count("1") % 2 == parity]


def _verify_op(model: str, suites: tuple[str, ...]) -> Op:
    argv = ["verify", "--model", model]
    for s in suites:
        argv += ["--suite", s]
    return Op(f"verify:{model}", "verify", tuple(argv), suites=suites)


def _csv_ops(label: str, path: Path, doc: dict, L: int, t_end: float) -> list[Op]:
    steps = max(1, round(t_end / DT))
    common = ("--model", str(path), "--ic", "bench",
              "--t-end", repr(t_end), "--dt", repr(DT))
    coords = _coords(doc)
    return [Op(f"{kind}:{label}", kind, argv + common, coords, L, steps)
            for kind, argv in (
                ("geodesic-paper", ("geodesic", "--mode", "paper")),
                ("geodesic-goertsches", ("geodesic", "--mode", "goertsches")),
                ("flow", ("flow",)))]


def _warmups(ops: list[Op], t_end: float) -> list[Op]:
    """The first op of each kind, shortened to `t_end`."""
    seen: dict[str, Op] = {}
    for op in ops:
        if op.kind in seen:
            continue
        argv = list(op.argv)
        if "--t-end" in argv:
            argv[argv.index("--t-end") + 1] = repr(t_end)
        seen[op.kind] = Op(f"warmup-{op.name}", op.kind, tuple(argv), op.coords,
                           op.L, max(1, round(t_end / DT)), op.suites)
    return list(seen.values())


# ---------------------------------------------------------------------------
# verify_bundled


def verify_bundled(seed: int, src: Path, tmp: Path, smoke: bool) -> Workload:
    suites = ("metric",) if smoke else ("all",)
    ops = [_verify_op(m, suites) for m in BUNDLED]
    random.Random(seed).shuffle(ops)
    warm = [_verify_op(ops[0].argv[2], ("metric",))]
    return Workload("verify_bundled", ops, warm, list(BUNDLED))


# ---------------------------------------------------------------------------
# trajectory_bundled


def _ic_ranges(doc: dict):
    """Body value range per (field, even coordinate) and the largest odd
    coefficient per field, over the model's bundled initial conditions."""
    sig = doc["signature"]
    body = {f: {c: [] for c in sig["even"]} for f in ("position", "velocity")}
    soul = {"position": 0.0, "velocity": 0.0}
    for ic in doc["initial_conditions"].values():
        for f in ("position", "velocity"):
            raw = ic.get(f, {})
            for c in sig["even"]:
                body[f][c].append(float(raw.get(c, 0.0)))
            for c in sig.get("odd", []):
                for _, coeff in raw.get(c, []) or []:
                    soul[f] = max(soul[f], abs(float(coeff)))
    return ({f: {c: (min(v), max(v)) for c, v in body[f].items()} for f in body},
            soul)


def _body_path(geom: str, x0: list[float], v0: list[float], ts: list[float]):
    """Body positions at times `ts` of the straight-line body geodesic."""
    if geom == "cartesian":
        return [[x + v * t for x, v in zip(x0, v0)] for t in ts]
    r0, th0 = x0
    vr, vth = v0
    p0 = (r0 * math.cos(th0), r0 * math.sin(th0))
    vel = (vr * math.cos(th0) - r0 * vth * math.sin(th0),
           vr * math.sin(th0) + r0 * vth * math.cos(th0))
    out = []
    for t in ts:
        px, py = p0[0] + vel[0] * t, p0[1] + vel[1] * t
        turn = math.atan2(p0[0] * py - p0[1] * px, p0[0] * px + p0[1] * py)
        out.append([math.hypot(px, py), th0 + turn])
    return out


def _inside(doc: dict, path, margin: float = 0.01) -> bool:
    for i, c in enumerate(doc["signature"]["even"]):
        lo, hi = doc["domain"].get(c, (-math.inf, math.inf))
        pad = margin * (hi - lo) if math.isfinite(hi - lo) else 0.0
        if not all(lo + pad < x[i] < hi - pad for x in path):
            return False
    return True


def _draw_ic(rng: random.Random, doc: dict, name: str, t_end: float) -> dict:
    """Parity-respecting IC inside the bundled ICs' coefficient ranges whose
    body stays inside the domain (with a margin) over [0, t_end]."""
    body, soul = _ic_ranges(doc)
    sig = doc["signature"]
    L = int(doc.get("L", 0))
    ts = [t_end * k / 100 for k in range(101)]
    for _ in range(1000):
        ic: dict = {"position": {}, "velocity": {}}
        for f in ("position", "velocity"):
            for c in sig["even"]:
                lo, hi = body[f][c]
                ic[f][c] = round(rng.uniform(lo, hi), 6)
            for c in sig.get("odd", []):
                a = soul[f]
                ic[f][c] = [[m, round(rng.uniform(-a, a), 6)] for m in _masks(L, 1)]
        x0 = [ic["position"][c] for c in sig["even"]]
        v0 = [ic["velocity"][c] for c in sig["even"]]
        if _inside(doc, _body_path(BODY_COORDS[name], x0, v0, ts)):
            return ic
    raise RuntimeError(f"no initial condition for {name} stays inside the domain")


def trajectory_bundled(seed: int, src: Path, tmp: Path, smoke: bool) -> Workload:
    rng = random.Random(seed)
    t_end = 5 * DT if smoke else TRAJECTORY_T_END
    ops: list[Op] = []
    paths = []
    for name in BUNDLED:
        doc = bundled_doc(src, name)
        doc["initial_conditions"] = {"bench": _draw_ic(rng, doc, name,
                                                       TRAJECTORY_T_END)}
        path = tmp / f"{name}.json"
        path.write_text(json.dumps(doc, indent=1))
        paths.append(str(path))
        ops += _csv_ops(name, path, doc, int(doc.get("L", 0)), t_end)
    rng.shuffle(ops)
    return Workload("trajectory_bundled", ops, _warmups(ops, WARMUP_STEPS * DT),
                    paths)


# ---------------------------------------------------------------------------
# soul_L6


def _soul(rng: random.Random, parity: int, body: float, L: int) -> list:
    pairs = [[0, body]] if parity == 0 else []
    pairs += [[m, round(rng.uniform(-0.1, 0.1), 6)] for m in _masks(L, parity)]
    return pairs


def soul_doc(rng: random.Random) -> dict:
    """Curved 2|2 chart: x/y-dependent even block, x-dependent odd-odd block
    and odd mixed entries; ICs carry soul on every mask of the right parity."""
    def u(lo: float, hi: float) -> str:
        return f"{rng.uniform(lo, hi):.4f}"

    a, b, c, d = u(0.2, 0.5), u(0.2, 0.5), u(-0.2, 0.2), u(0.1, 0.4)
    f1, f2, f3, f4 = (u(0.05, 0.3) for _ in range(4))
    metric = [
        [f"1 + {a}*y^2", f"{c}*x*y", f"{f1}*th2", f"{f2}*x*th1"],
        [f"{c}*x*y", f"1 + {b}*x^2", f"{f3}*th1", f"{f4}*th2"],
        [f"{f1}*th2", f"{f3}*th1", "0", f"1 + {d}*x"],
        [f"{f2}*x*th1", f"{f4}*th2", f"-(1 + {d}*x)", "0"],
    ]
    L = SOUL_L
    ic: dict = {}
    for f, span in (("position", 0.2), ("velocity", 0.5)):
        ic[f] = {c_: _soul(rng, 0, round(rng.uniform(-span, span), 6), L)
                 for c_ in ("x", "y")}
        ic[f].update({c_: _soul(rng, 1, 0.0, L) for c_ in ("th1", "th2")})
    return {"schema_version": 1, "name": "soul_L6",
            "signature": {"even": ["x", "y"], "odd": ["th1", "th2"]},
            "metric": metric, "domain": {"x": [-1.0, 1.0], "y": [-1.0, 1.0]},
            "L": L, "initial_conditions": {"bench": ic},
            "defaults": {"dt": DT, "t_end": SOUL_STEPS * DT}}


def soul_L6(seed: int, src: Path, tmp: Path, smoke: bool) -> Workload:
    # Body coordinates start in [-0.2, 0.2] with speeds in [-0.5, 0.5] and
    # move for SOUL_STEPS * DT = 0.01, so they stay far inside (-1, 1).
    rng = random.Random(seed)
    doc = soul_doc(rng)
    path = tmp / "soul_L6.json"
    path.write_text(json.dumps(doc, indent=1))
    steps = 2 if smoke else SOUL_STEPS
    ops = _csv_ops("soul_L6", path, doc, SOUL_L, steps * DT)
    rng.shuffle(ops)
    return Workload("soul_L6", ops, _warmups(ops, DT), [str(path)])


BUILDERS = {"verify_bundled": verify_bundled,
            "trajectory_bundled": trajectory_bundled,
            "soul_L6": soul_L6}
WORKLOADS = tuple(BUILDERS)


def build(name: str, seed: int, src: Path, tmp: Path, smoke: bool = False) -> Workload:
    return BUILDERS[name](seed, src, tmp, smoke)
