"""Span tracing at a fixed table of `supergeodesics` layer boundaries.

`Tracer.install()` replaces each boundary function by a wrapper in every
loaded `supergeodesics` module namespace that refers to it (and in dicts held
by those namespaces), and each boundary method on its class.  No source file
is edited, and the untraced run never installs the wrappers.

A span is (boundary, start, end, parent span, op).  Spans stay in memory in
typed arrays and are written once at the end.  Self time is a span's
duration minus the durations of its direct child spans; since spans of one
thread nest, this is the part of the interval no child covers.
"""

from __future__ import annotations

import functools
import os
import sys
import time
from array import array
from collections import defaultdict

import numpy as np

# (module, qualified name) of every traced boundary, grouped by layer.
BOUNDARIES: tuple[tuple[str, str], ...] = (
    ("grassmann", "batched_mul"), ("grassmann", "mul_dense"),
    ("grassmann", "invert_dense"),
    ("geometry", "_Kernel.inverse"), ("geometry", "_Kernel.christoffel"),
    ("geometry", "_Kernel.dginv"), ("geometry", "_Kernel.eval_metric"),
    ("geometry", "_Kernel.eval_dmetric"), ("geometry", "MetricChart.kernel"),
    ("geometry", "metric_validate"),
    ("superexpr", "eval_dense"), ("superexpr", "evaluate"),
    ("superexpr", "partial_derivative"), ("superexpr", "parse_expression"),
    ("superexpr", "substitute"),
    ("geodesics", "integrate_geodesic"), ("geodesics", "integrate_goertsches"),
    ("geodesics", "_acceleration"), ("geodesics", "_goertsches_rhs"),
    ("geodesics", "covariant_derivative_t"), ("geodesics", "metric_speed"),
    ("cotangent", "integrate_flow"), ("cotangent", "_xh"),
    ("cotangent", "_energy"), ("cotangent", "energy_series"),
    ("cotangent", "roundtrip_check"),
    ("expmap", "exp_at"), ("expmap", "exp_jacobian_check"),
    ("expmap", "isometry_check"), ("expmap", "naturality_check"),
    ("expmap", "linearization_test"),
    ("verify", "run_metric_suite"), ("verify", "run_geodesic_suite"),
    ("verify", "run_flow_suite"), ("verify", "run_exp_suite"),
    ("verify", "run_isometry_suite"), ("verify", "classical_geodesic"),
    ("verify", "classical_cotangent_flow"),
    ("model", "load_model"),
    ("cli", "main"), ("cli", "trajectory_csv"), ("cli", "flow_csv"),
    ("cli", "_atomic_write"),
)
SPAN_NAMES = tuple(f"{m}.{q}" for m, q in BOUNDARIES)

# name -> unit of every per-layer metric, in report order
PER_LAYER_UNITS: dict[str, str] = {}
for _name in SPAN_NAMES:
    PER_LAYER_UNITS[f"{_name}.calls"] = "count"
    PER_LAYER_UNITS[f"{_name}.self_s"] = "s"
PER_LAYER_UNITS.update({
    "grassmann.products": "count", "grassmann.useful_ratio": "ratio",
    "geometry.neumann_terms_max": "count", "geometry.neumann_terms_mean": "count",
    "geodesics.rk4_steps": "count", "geodesics.rhs_per_step": "count",
    "geodesics.step_us": "us", "cotangent.rk4_steps": "count",
    "expmap.integrations_per_jacobian": "count", "cli.out_bytes": "bytes",
    "trace.overhead_frac": "ratio", "trace.coverage": "ratio"})

PACKAGE = "supergeodesics"
MIN_COVERAGE = 0.95


def _id(name: str) -> int:
    return SPAN_NAMES.index(name)


def executed_madds(grassmann, L: int) -> int:
    """Multiply-adds one coefficient-vector product executes on the product
    path the code selects for `L` (computed from its size cutoffs, not
    measured): (2^L)^3 on the dense-tensor path, (2^L)^2 on the XOR-table
    path, and 3^L otherwise (a kernel that visits only disjoint pairs)."""
    if L <= getattr(grassmann, "_TENSOR_MAX", -1):
        return 8 ** L
    if L <= getattr(grassmann, "_TABLE_MAX", -1):
        return 4 ** L
    return 3 ** L


class Tracer:
    def __init__(self):
        self.names = array("H")
        self.parents = array("i")
        self.ops = array("H")
        self.starts = array("d")
        self.ends = array("d")
        self.stack = [-1]
        self.op = 0
        self.products: dict[int, int] = defaultdict(int)   # L -> products
        self.rk4_steps: dict[str, int] = defaultdict(int)  # layer -> steps
        self.out_bytes = 0

    # -- recording ---------------------------------------------------------

    def _wrap(self, fn, sid: int, after=None):
        names, parents, ops = self.names, self.parents, self.ops
        starts, ends, stack = self.starts, self.ends, self.stack
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(starts)
            names.append(sid)
            parents.append(stack[-1])
            ops.append(tracer.op)
            stack.append(i)
            starts.append(clock())
            ends.append(0.0)
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()
            if after is not None:
                after(args, kwargs, result)
            return result

        return traced

    def _count_products(self, batched: bool):
        bm = _id("grassmann.batched_mul")

        def after(args, kwargs, result):
            L = args[2] if len(args) > 2 else kwargs["L"]
            if batched:
                # one product per leading index of the broadcast result
                n = result.size // result.shape[-1]
            elif self.stack[-1] >= 0 and self.names[self.stack[-1]] == bm:
                return  # a row of a batched product, already counted
            else:
                n = 1
            self.products[L] += n
        return after

    def _count_steps(self, layer: str):
        def after(args, kwargs, result):
            self.rk4_steps[layer] += len(result) - 1
        return after

    def _count_bytes(self, args, kwargs, result):
        self.out_bytes += os.path.getsize(args[0])

    def install(self) -> None:
        """Wrap every boundary; the package must already be imported."""
        hooks = {
            "grassmann.batched_mul": self._count_products(True),
            "grassmann.mul_dense": self._count_products(False),
            "geodesics.integrate_geodesic": self._count_steps("geodesics"),
            "geodesics.integrate_goertsches": self._count_steps("geodesics"),
            "cotangent.integrate_flow": self._count_steps("cotangent"),
            "cli._atomic_write": self._count_bytes,
        }
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))]
        for sid, (mod_name, qual) in enumerate(BOUNDARIES):
            module = sys.modules[f"{PACKAGE}.{mod_name}"]
            if "." in qual:
                cls_name, attr = qual.split(".")
                cls = getattr(module, cls_name)
                orig = cls.__dict__[attr]
                setattr(cls, attr, self._wrap(orig, sid, hooks.get(SPAN_NAMES[sid])))
                continue
            orig = getattr(module, qual)
            wrapper = self._wrap(orig, sid, hooks.get(SPAN_NAMES[sid]))
            for mod in modules:
                for key, val in list(vars(mod).items()):
                    if val is orig:
                        setattr(mod, key, wrapper)
                    elif isinstance(val, dict):
                        for k, v in list(val.items()):
                            if v is orig:
                                val[k] = wrapper

    # -- reporting ---------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        return {"name": np.frombuffer(self.names, dtype=np.uint16),
                "parent": np.frombuffer(self.parents, dtype=np.int32),
                "op": np.frombuffer(self.ops, dtype=np.uint16),
                "start": np.frombuffer(self.starts, dtype=np.float64),
                "end": np.frombuffer(self.ends, dtype=np.float64)}

    def write(self, path, op_names: list[str]) -> None:
        """All spans as arrays in one .npz file."""
        np.savez(path, span_names=np.array(SPAN_NAMES),
                 op_names=np.array(op_names), **self.arrays())

    def report(self, op_wall_s: float, op_names: list[str], grassmann) -> tuple[dict, dict]:
        """(per-layer metrics without trace.overhead_frac, extra breakdowns)."""
        a = self.arrays()
        name, parent = a["name"].astype(np.intp), a["parent"].astype(np.intp)
        dur = a["end"] - a["start"]
        N, K = len(dur), len(SPAN_NAMES)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=N)
        self_t = dur - child
        calls = np.bincount(name, minlength=K)
        self_s = np.bincount(name, weights=self_t, minlength=K)

        m: dict[str, float] = {}
        for k, span in enumerate(SPAN_NAMES):
            m[f"{span}.calls"] = int(calls[k])
            m[f"{span}.self_s"] = float(self_s[k])

        products = sum(self.products.values())
        executed = sum(n * executed_madds(grassmann, L) for L, n in self.products.items())
        useful = sum(n * 3 ** L for L, n in self.products.items())
        m["grassmann.products"] = products
        m["grassmann.useful_ratio"] = useful / executed if executed else 0.0

        # Neumann-series terms: batched products directly under each inverse
        inv = name == _id("geometry._Kernel.inverse")
        bm = (name == _id("grassmann.batched_mul")) & has_parent
        terms = np.bincount(parent[bm], minlength=N)[inv]
        m["geometry.neumann_terms_max"] = int(terms.max()) if terms.size else 0
        m["geometry.neumann_terms_mean"] = float(terms.mean()) if terms.size else 0.0

        geo_steps = self.rk4_steps["geodesics"]
        integ = (name == _id("geodesics.integrate_geodesic")) | (
            name == _id("geodesics.integrate_goertsches"))
        rhs = calls[_id("geodesics._acceleration")] + calls[_id("geodesics._goertsches_rhs")]
        m["geodesics.rk4_steps"] = geo_steps
        m["geodesics.rhs_per_step"] = float(rhs / geo_steps) if geo_steps else 0.0
        m["geodesics.step_us"] = (float(dur[integ].sum() / geo_steps * 1e6)
                                  if geo_steps else 0.0)
        m["cotangent.rk4_steps"] = self.rk4_steps["cotangent"]

        # integrations under each exp_jacobian_check span, also per op
        jac = _nearest(parent, name == _id("expmap.exp_jacobian_check"))
        runs = (integ | (name == _id("cotangent.integrate_flow"))) & (jac >= 0)
        per_jac = np.bincount(jac[runs], minlength=N)
        jac_spans = np.flatnonzero(name == _id("expmap.exp_jacobian_check"))
        m["expmap.integrations_per_jacobian"] = (float(per_jac[jac_spans].mean())
                                                 if jac_spans.size else 0.0)
        by_op = defaultdict(list)
        for s in jac_spans:
            by_op[op_names[a["op"][s]]].append(int(per_jac[s]))

        m["cli.out_bytes"] = self.out_bytes
        roots = ~has_parent
        m["trace.coverage"] = float(self_t.sum() / op_wall_s) if op_wall_s else 0.0
        extra = {
            "spans": N,
            "root_spans": int(roots.sum()),
            "integrations_per_jacobian_by_op": {k: sorted(set(v)) for k, v in by_op.items()},
            "products_by_L": {str(L): n for L, n in sorted(self.products.items())},
            "self_share_by_layer": _shares(self_s, op_wall_s),
        }
        return m, extra


def _nearest(parent: np.ndarray, is_target: np.ndarray) -> np.ndarray:
    """Index of each span's nearest proper ancestor with `is_target`, or -1;
    one vectorized step up the span tree per nesting level."""
    out = np.full(len(parent), -1, dtype=np.intp)
    up = parent.copy()
    active = up >= 0
    while active.any():
        idx = np.flatnonzero(active)
        hit = is_target[up[idx]]
        out[idx[hit]] = up[idx[hit]]
        rest = idx[~hit]
        up[rest] = parent[up[rest]]
        active[:] = False
        active[rest[up[rest] >= 0]] = True
    return out


def _shares(self_s: np.ndarray, op_wall_s: float) -> dict[str, float]:
    layers: dict[str, float] = defaultdict(float)
    for k, (mod, _) in enumerate(BOUNDARIES):
        layers[mod] += float(self_s[k])
    return {k: v / op_wall_s for k, v in layers.items()} if op_wall_s else dict(layers)
