"""Model files: JSON descriptions of a chart, metric, initial data and
verification fixtures.

Schema (version 1)::

    {
      "schema_version": 1,
      "name": "...",
      "signature": {"even": ["x"], "odd": ["th1", "th2"]},
      "metric": [["1", "0", ...], ...],          # expression strings
      "domain": {"x": [lo, hi]},                  # open body box, even coords
      "L": 2,                                     # default generator count
      "initial_conditions": {
        "name": {"L": 1,                          # optional override
                 "position": {"x": 0.0, "th1": [[1, 1.0]]},
                 "velocity": {...}}},
      "morphisms": {"name": {"pullbacks": {"x": "x", ...}}},
      "defaults": {"dt": 0.001, "t_end": 1.0},
      "tolerances": {...},                        # per-check overrides
      "verify": {"ic": "name", "exp_points": [[...], ...],
                 "base_point": [...], "vectors": [{...}, ...],
                 "isometries": [...], "negative_controls": [...],
                 "point_symmetries": [...]}
    }

Grassmann values are either a plain number (body value; odd coordinates only
accept 0) or a list of [mask, coefficient] pairs, where bit g of the integer
mask selects generator g.
The keys of a position, a velocity and a `verify.vectors` entry must be
chart coordinates; a missing one is zero and an unknown one is a ModelError
(the rule of `ChartSignature.graded`).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path
from typing import Mapping

from .errors import ModelError, SuperGeometryError
from .geodesics import InitialCondition
from .geometry import MetricChart, SuperPoint
from .grassmann import MAX_GENERATORS, GrassmannElement
from .superexpr import ChartSignature, SuperMorphism

SCHEMA_VERSION = 1

# the tolerance of each tolerance-bounded verify check, by key; a run reads
# one through `ModelFile.tolerance`
TOLERANCES: dict[str, float] = {
    "metric_invariants": 1e-10,
    "christoffel_symmetry": 1e-10,
    "christoffel_parity": 1e-10,
    "metric_compatibility": 1e-8,
    "beta_compatibility": 1e-10,
    "geodesic_residual": 1e-6,
    "speed_drift": 1e-8,
    "body_reduction": 1e-8,
    "energy_drift": 1e-8,
    "parity_preservation": 0.0,
    "roundtrip": 1e-6,
    "flow_body_reduction": 1e-8,
    "exp_identity_even": 1e-5,
    "exp_identity_odd": 1e-9,
    "tangent_map_agreement": 1e-12,
    "isometry_condition": 1e-8,
    "naturality": 1e-6,
    "negative_control_min": 1e-3,
    "geodesic_symmetry": 1e-6,
    "identity_linearization": 1e-9,
}


def grassmann_value(raw, L: int, where: str) -> GrassmannElement:
    """Decode a model-file Grassmann value (number or [[mask, coeff], ...]):
    every number finite, every mask an integer, and the coefficients of a
    mask that repeats summed to a finite number."""
    if not isinstance(raw, list):
        return GrassmannElement.from_scalar(_finite(raw, where), L)
    sums: dict[int, float] = {}
    for i, pair in enumerate(raw):
        if not isinstance(pair, list) or len(pair) != 2:
            raise ModelError(f"{where}[{i}]: expected [mask, coeff], "
                             f"got {pair!r}")
        mask, coeff = pair
        if isinstance(mask, bool) or not isinstance(mask, int):
            raise ModelError(f"{where}[{i}]: mask must be an integer, "
                             f"got {mask!r}")
        sums[mask] = sums.get(mask, 0.0) + _finite(coeff, f"{where}[{i}]")
    if not all(map(math.isfinite, sums.values())):
        raise ModelError(f"{where}: the coefficients of a mask sum to a "
                         f"number that is not finite in {raw!r}")
    return decoded(f"{where}: bad Grassmann value {raw!r}",
                   GrassmannElement.from_pairs, sums.items(), L)


@dataclass
class ModelFile:
    """A loaded and validated model."""

    name: str
    chart: MetricChart
    L: int
    initial_conditions: dict[str, InitialCondition]
    morphisms: dict[str, SuperMorphism]
    defaults: dict[str, float]
    tolerances: dict[str, float]
    verify_config: dict = field(default_factory=dict)

    @property
    def sig(self) -> ChartSignature:
        return self.chart.sig

    def initial_condition(self, name: str) -> InitialCondition:
        try:
            return self.initial_conditions[name]
        except KeyError:
            raise ModelError(
                f"model {self.name!r} has no initial condition {name!r}; "
                f"available: {sorted(self.initial_conditions)}") from None

    def morphism(self, name: str) -> SuperMorphism:
        try:
            return self.morphisms[name]
        except KeyError:
            raise ModelError(
                f"model {self.name!r} has no morphism {name!r}; "
                f"available: {sorted(self.morphisms)}") from None

    def tolerance(self, key: str,
                  overrides: Mapping[str, float] | None = None) -> float:
        """The tolerance `key` of a run: its entry in the run's `overrides`,
        else in this model's `tolerances`, else in `TOLERANCES`."""
        return (overrides or {}).get(key, self.tolerances.get(
            key, TOLERANCES[key]))


def bundled_models() -> list[str]:
    """Names of the model files shipped with the package."""
    out = []
    for entry in resources.files("supergeodesics.models").iterdir():
        if entry.name.endswith(".json"):
            out.append(entry.name[:-len(".json")])
    return sorted(out)


def _read_model_text(spec: str | Path) -> tuple[str, str]:
    path = Path(spec)
    if path.suffix == ".json" or path.exists():
        try:
            return path.stem, path.read_text()
        except OSError as exc:
            raise ModelError(f"cannot read model file {path}: {exc}") from exc
    candidate = resources.files("supergeodesics.models") / f"{spec}.json"
    if candidate.is_file():
        return str(spec), candidate.read_text()
    raise ModelError(f"no model file or bundled model named {spec!r}; "
                     f"bundled: {bundled_models()}")


def _finite(raw, where: str, least: float = -math.inf,
            strict: bool = False) -> float:
    """`raw` as a float: a finite JSON number >= `least` (> if `strict`),
    else a `ModelError` naming `where`."""
    try:
        ok = (isinstance(raw, (int, float)) and not isinstance(raw, bool)
              and math.isfinite(raw)
              and (raw > least if strict else raw >= least))
    except OverflowError:  # an int beyond float range
        ok = False
    if not ok:
        bound = (f" {'>' if strict else '>='} {least:g}"
                 if least > -math.inf else "")
        raise ModelError(f"{where}: expected a finite number{bound}, "
                         f"got {raw!r}")
    return float(raw)


def _name(raw, where: str) -> str:
    """A name in a model file: a JSON string, else a `ModelError` naming
    `where`."""
    if not isinstance(raw, str):
        raise ModelError(f"{where}: expected a name, got {raw!r}")
    return raw


def _generator_count(raw, where: str) -> int:
    if isinstance(raw, bool) or not isinstance(raw, int) \
            or not 0 <= raw <= MAX_GENERATORS:
        raise ModelError(f"{where}: expected an integer from 0 to "
                         f"{MAX_GENERATORS}, got {raw!r}")
    return raw


def _bounds(raw, where: str) -> tuple[float, float]:
    """A domain interval [lo, hi]: two finite numbers with lo < hi."""
    if not isinstance(raw, list) or len(raw) != 2:
        raise ModelError(f"{where}: expected [lo, hi], got {raw!r}")
    lo = _finite(raw[0], f"{where}[0]")
    return lo, _finite(raw[1], f"{where}[1]", lo, strict=True)


def tolerance_override(name: str, raw, where: str) -> float:
    """A tolerance override, found at `where`: the name of a verify check's
    tolerance (`TOLERANCES`) and a finite number >= 0."""
    if name not in TOLERANCES:
        raise ModelError(f"{where}: unknown tolerance {name!r}; "
                         f"known: {sorted(TOLERANCES)}")
    return _finite(raw, where, 0.0)


def decoded(where: str, build, *args):
    """`build(*args)`, decoding model data found at `where`: a failure is a
    `ModelError` naming `where`; a `ModelError` passes through unchanged."""
    try:
        return build(*args)
    except ModelError:
        raise
    except (SuperGeometryError, ValueError, TypeError) as exc:
        raise ModelError(f"{where}: {exc}") from exc


def _section(data: Mapping, key: str, where: str, kind: type = dict):
    """The object under `key` ({} if absent), or with `kind=list` the array
    ([] if absent), else a `ModelError`."""
    raw = data.get(key, kind())
    if not isinstance(raw, kind):
        what = "an object" if kind is dict else "an array"
        raise ModelError(f"{where}: {key} must be {what}, got {raw!r}")
    return raw


def _require(data: Mapping, key: str, where: str):
    if key not in data:
        raise ModelError(f"{where}: missing required key {key!r}")
    return data[key]


def _build_ic(name: str, raw: Mapping, sig: ChartSignature,
              default_L: int) -> InitialCondition:
    where = f"initial_conditions[{name!r}]"
    L = _generator_count(raw.get("L", default_L), f"{where}.L")
    _require(raw, "position", where)
    position = {n: grassmann_value(v, L, f"{where}.position.{n}")
                for n, v in _section(raw, "position", where).items()}
    velocity = {n: grassmann_value(v, L, f"{where}.velocity.{n}")
                for n, v in _section(raw, "velocity", where).items()}
    return decoded(where, lambda: InitialCondition(
        L, SuperPoint(sig, L, sig.graded(L, position, "position")), velocity))


def load_model(spec: str | Path) -> ModelFile:
    """Load a model by path or bundled name; raises ModelError on problems."""
    name, text = _read_model_text(spec)
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ModelError(f"model {name!r}: invalid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ModelError(f"model {name!r}: top level must be an object")
    version = data.get("schema_version", SCHEMA_VERSION)
    if version != SCHEMA_VERSION:
        raise ModelError(f"model {name!r}: unsupported schema_version {version}")
    name = _name(data.get("name", name), f"model {name!r}: name")
    where = f"model {name!r}"

    _require(data, "signature", name)
    sig_raw = _section(data, "signature", where)
    sig_where = f"{where}: signature"
    sig = decoded(f"{where}: bad signature", ChartSignature,
                  _section(sig_raw, "even", sig_where, list),
                  _section(sig_raw, "odd", sig_where, list))

    metric_raw = _require(data, "metric", name)
    domain = {k: _bounds(v, f"{where}: domain.{k}")
              for k, v in _section(data, "domain", where).items()}
    chart = decoded(f"{where}: bad metric", MetricChart, sig, metric_raw,
                    domain, name)

    L = _generator_count(data.get("L", 0), f"{where}: L")
    ics_raw = _section(data, "initial_conditions", where)
    ics = {ic_name: _build_ic(ic_name, _section(ics_raw, ic_name,
                                                "initial_conditions"), sig, L)
           for ic_name in ics_raw}

    morphisms = {}
    ms_raw = _section(data, "morphisms", where)
    for m_name in ms_raw:
        m_where = f"morphisms[{m_name!r}]"
        m_raw = _section(ms_raw, m_name, "morphisms")
        _require(m_raw, "pullbacks", m_where)
        morphisms[m_name] = decoded(m_where, SuperMorphism, sig, sig,
                                    _section(m_raw, "pullbacks", m_where))

    defaults = {"dt": 1e-3, "t_end": 1.0}
    for k, v in _section(data, "defaults", where).items():
        if k not in defaults:
            raise ModelError(f"{where}: unknown default {k!r}; "
                             f"known: {sorted(defaults)}")
        defaults[k] = _finite(v, f"{where}: defaults.{k}", 0.0, strict=True)
    tolerances = {k: tolerance_override(k, v, f"{where}: tolerances.{k}")
                  for k, v in _section(data, "tolerances", where).items()}
    verify_config = _section(data, "verify", where)

    return ModelFile(name=name, chart=chart, L=L, initial_conditions=ics,
                     morphisms=morphisms, defaults=defaults,
                     tolerances=tolerances, verify_config=verify_config)

