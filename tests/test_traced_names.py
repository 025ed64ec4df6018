"""Every boundary the benchmark's tracer wraps still exists.

`perfbench/spans.py` resolves each (module, qualified name) of `BOUNDARIES`
with `getattr` when `--trace 1` installs its wrappers; a renamed or deleted
function would otherwise show only in a traced benchmark run.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def boundaries():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans.BOUNDARIES


@pytest.mark.parametrize("module, qual", boundaries())
def test_boundary_resolves(module, qual):
    obj = importlib.import_module(f"supergeodesics.{module}")
    for part in qual.split("."):
        obj = getattr(obj, part)
    assert callable(obj)
