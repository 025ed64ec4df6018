"""The immutable value types survive copy, deepcopy and pickle bit for bit."""

import copy
import pickle

import numpy as np
import pytest

from supergeodesics import (
    ChartSignature,
    GrassmannElement,
    InitialCondition,
    LinearTangentMap,
    PhasePoint,
    SuperPoint,
    TangentFiberPoint,
)

SIG = ChartSignature(("x",), ("th1", "th2"))
L = 2
# -0.0 in a coefficient, a base and a matrix entry: the bits must survive
EVEN = GrassmannElement(L, [-0.0, 0.0, 0.0, 0.25])
ODD = GrassmannElement(L, [0.0, 1.5, -0.0, 0.0])
POINT = SuperPoint(SIG, L, {"x": EVEN, "th1": ODD, "th2": ODD})

VALUES = {
    "GrassmannElement": EVEN,
    "SuperPoint": POINT,
    "InitialCondition": InitialCondition(L, POINT, {"x": EVEN, "th2": ODD}),
    "PhasePoint": PhasePoint(POINT, {"th1": ODD}),
    "TangentFiberPoint": TangentFiberPoint(SIG, L, [-0.0], {"x": EVEN}),
    "LinearTangentMap": LinearTangentMap(SIG, SIG, np.diag([-0.0, 2.0, 0.5])),
}

ROUND_TRIPS = {
    "copy": copy.copy,
    "deepcopy": copy.deepcopy,
    "pickle": lambda v: pickle.loads(pickle.dumps(v)),
}


def leaves(value):
    """The arrays and plain fields of a value type, in slot order."""
    if isinstance(value, np.ndarray):
        return [value]
    if isinstance(value, dict):
        return [x for k, v in value.items() for x in [k, *leaves(v)]]
    slots = getattr(type(value), "__slots__", ())
    if slots:
        return [x for name in slots for x in leaves(getattr(value, name))]
    return [value]


@pytest.mark.parametrize("how", list(ROUND_TRIPS))
@pytest.mark.parametrize("name", list(VALUES))
def test_round_trip_keeps_bits(name, how):
    value = VALUES[name]
    again = ROUND_TRIPS[how](value)
    assert type(again) is type(value)
    before, after = leaves(value), leaves(again)
    assert len(before) == len(after)
    for a, b in zip(before, after):
        if isinstance(a, np.ndarray):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
            assert not b.flags.writeable
        else:
            assert a == b
    with pytest.raises(AttributeError, match="immutable"):
        again.L = 3
