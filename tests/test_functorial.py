"""The generator count is functorial: embedding Lambda_L0 into Lambda_L0+1
(coefficients on the masks without the new top generator, zeros on the
others) is an algebra homomorphism, and the computations here commute with
it bit for bit.

* `superexpr.Program.run`, with non-constant products, a reciprocal and an
  elementary function of mixed-parity data, at L0 = 1..7: the lower half
  of the L0 + 1 result is `np.array_equal` to the L0 result, sign of zero
  included, and the upper half is all zero.

A product at L >= 1 gathers its pair terms; the pairs of a mask without
the top generator, and their order, do not depend on L, and every pair
term the embedding adds is zero.
"""

import numpy as np
import pytest

from supergeodesics.grassmann import dim
from supergeodesics.superexpr import ChartSignature, Program, parse_expression

SIG = ChartSignature(("x", "y"), ("th1", "th2"))
EXPRS = ("x*y*th1 + y*y", "1/(2 + x*y*th1*th2)", "exp(x*th1*th2 + y)*x",
         "sin(x*y)*th2 + cos(y)*th1*x")


def embed(v: np.ndarray) -> np.ndarray:
    """v over L0 generators as an element over L0 + 1 (trailing axis)."""
    return np.concatenate((v, np.zeros(v.shape)), axis=-1)


@pytest.mark.parametrize("L0", range(1, 8))
def test_program_run_commutes_with_embedding(L0):
    rng = np.random.default_rng(L0)
    prog = Program([parse_expression(t, SIG) for t in EXPRS])
    env = {name: rng.uniform(-1.0, 1.0, (3, dim(L0))) for name in SIG.names}
    for v in env.values():
        v[rng.random(v.shape) < 0.2] = 0.0
        v[rng.random(v.shape) < 0.1] = -0.0
    low = prog.run(env, L0)
    high = prog.run({name: embed(v) for name, v in env.items()}, L0 + 1)
    for want, got in zip(low, high):
        want = np.broadcast_to(want, got[..., :dim(L0)].shape)
        assert got[..., :dim(L0)].tobytes() == want.tobytes()
        assert not got[..., dim(L0):].any()
