"""Structural invariants on random inputs.

* parity along curves: no coefficient of a position or velocity sample of a
  paper-mode or Goertsches geodesic sits on a mask of the wrong parity, at
  L = 0-4 and 6 (the flow's is a verify check, `parity_preservation`);
* the stacking rule of `batched_mul` at L <= 3: independent products of
  two or more rows each, stacked into one call, keep the bits of the
  separate calls;
* the algebra laws at every L = 0-12: associativity, left and right
  distributivity, graded commutativity of homogeneous elements and
  a * a^-1 = 1 for even a.  Integer coefficients in [-3, 3] and even bodies
  in {+-1, +-2, +-4} keep every sum and product exact, so each law holds
  bit for bit;
* on random 2|2 metrics, drawn as expression strings so that the parser and
  `partial_derivative` run too, at L <= 6: the Christoffel symbols' graded
  symmetry and parity, metric compatibility and beta compatibility (the
  metric suite of `verify`), the speed along short paper-mode geodesics and
  the energy along short flows, each within its `TOLERANCES` entry.

Hypothesis runs derandomized; each example draws one integer seed for numpy.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from supergeodesics.cotangent import PhasePoint, energy_series, integrate_flow
from supergeodesics.geodesics import InitialCondition, integrate_geodesic, \
    integrate_goertsches, metric_speed
from supergeodesics.geometry import MetricChart
from supergeodesics.grassmann import GrassmannElement, batched_mul, dim, \
    mask_parity
from supergeodesics.model import TOLERANCES, ModelFile
from supergeodesics.superexpr import ChartSignature
from supergeodesics.verify import Fixtures, random_superpoint, \
    run_metric_suite

seeds = st.integers(0, 2**32 - 1)


@pytest.mark.parametrize("L", [0, 1, 2, 3, 4, 6])
@pytest.mark.parametrize("goertsches", [False, True],
                         ids=["paper", "goertsches"])
@settings(derandomize=True, max_examples=8, deadline=None, database=None)
@given(seed=seeds, curved=st.booleans())
def test_geodesic_keeps_parity(c1x_r12, curved_r22, L, goertsches, seed,
                               curved):
    # bodies start at least 5 % of the box inside it and move at most 0.06
    chart = curved_r22 if curved else c1x_r12
    rng = np.random.default_rng(seed)
    position = random_superpoint(chart, L, rng)
    velocity = random_superpoint(chart, L, rng).values
    integrate = integrate_goertsches if goertsches else integrate_geodesic
    traj = integrate(chart, InitialCondition(L, position, velocity), 0.03, 0.01)
    wrong = mask_parity(L) != chart.sig.parity_vector()[:, None]  # [i, mask]
    assert traj.positions.shape[1:] == wrong.shape
    assert not traj.positions[:, wrong].any()
    assert not traj.velocities[:, wrong].any()


@pytest.mark.parametrize("L", [0, 1, 2, 3])
@settings(derandomize=True, max_examples=25, deadline=None, database=None)
@given(rows=st.lists(st.integers(2, 9), min_size=2, max_size=5),
       inner=st.sampled_from([(), (1,), (3,), (2, 2)]), seed=seeds)
def test_stacked_products_keep_their_bits(L, rows, inner, seed):
    """The rows of a batched product of M >= 2 rows have the same bits for
    every M.  This holds for the gemm of OpenBLAS's SkylakeX kernel family
    (OpenBLAS 0.3.31 as numpy 2.4.6 bundles it), not for every BLAS: under
    `OPENBLAS_CORETYPE=Haswell` it fails at L = 2 and 3, where a product is
    a BLAS call.  A failure on another host may be that kernel difference,
    not a regression."""
    rng = np.random.default_rng(seed)
    pairs = [(rng.uniform(-1.0, 1.0, (M, *inner, dim(L))),
              rng.uniform(-1.0, 1.0, (M, *inner, dim(L)))) for M in rows]
    stacked = batched_mul(np.concatenate([a for a, _ in pairs]),
                          np.concatenate([b for _, b in pairs]), L)
    for part, (a, b) in zip(np.split(stacked, np.cumsum(rows)[:-1]), pairs):
        assert np.array_equal(part, batched_mul(a, b, L))


def integer_element(rng, L, parity=None):
    """Integer coefficients in [-3, 3], zero on the masks off `parity`."""
    coeffs = rng.integers(-3, 4, dim(L)).astype(float)
    if parity is not None:
        coeffs[mask_parity(L) != parity] = 0.0
    return GrassmannElement(L, coeffs)


def associativity(rng, L):
    a, b, c = (integer_element(rng, L) for _ in range(3))
    return (a * b) * c, a * (b * c)


def left_distributivity(rng, L):
    a, b, c = (integer_element(rng, L) for _ in range(3))
    return a * (b + c), a * b + a * c


def right_distributivity(rng, L):
    a, b, c = (integer_element(rng, L) for _ in range(3))
    return (a + b) * c, a * c + b * c


def graded_commutativity(rng, L):
    p, q = rng.integers(0, 2, 2)
    a, b = integer_element(rng, L, p), integer_element(rng, L, q)
    return a * b, (-1.0) ** (p * q) * (b * a)


def even_inverse(rng, L):
    a = integer_element(rng, L, 0)
    a = a - a.body + float(rng.choice([-4, -2, -1, 1, 2, 4]))
    return a * a.invert(), GrassmannElement.from_scalar(1.0, L)


@pytest.mark.parametrize("L", range(13))
@pytest.mark.parametrize("law", [associativity, left_distributivity,
                                 right_distributivity, graded_commutativity,
                                 even_inverse], ids=lambda law: law.__name__)
def test_algebra_law(law, L):
    # the products above L = 9 cost 3^L each: one example there
    @settings(derandomize=True, max_examples=10 if L <= 9 else 1,
              deadline=None, database=None)
    @given(seed=seeds)
    def holds(seed):
        lhs, rhs = law(np.random.default_rng(seed), L)
        assert np.array_equal(lhs.coeffs, rhs.coeffs)

    holds()


SIG_22 = ChartSignature(("x", "y"), ("th1", "th2"))
BOX = {"x": (-1.0, 1.0), "y": (-1.0, 1.0)}
# coefficients of at most 0.2 and shapes of at most 1.1 in the box keep both
# body blocks nondegenerate everywhere in it
coefficients = st.integers(-2, 2).map(lambda k: k / 10)
shapes = st.sampled_from(["sin(x)^2", "cos(x*y)", "exp(-x^2)", "log(2 + x)",
                          "1/(2 + y)", "x*y^3"])


@st.composite
def random_metrics(draw):
    """The entries of a graded 2|2 metric as expression strings: even
    entries in the even-even and odd-odd blocks (the latter antisymmetric),
    odd ones in the mixed blocks, and even souls th1*th2 in some."""
    c = [f"({v})" for v in draw(st.lists(coefficients, min_size=15,
                                         max_size=15))]
    u, w = draw(shapes), draw(shapes)
    gxx = f"1 + {c[0]}*y^2 + {c[1]}*{u} + {c[2]}*th1*th2"
    gyy = f"1 + {c[3]}*x^2 + {c[4]}*{w}"
    gxy = f"{c[5]}*x*y + {c[6]}*th1*th2"
    f = f"1 + {c[7]}*x + {c[8]}*cos(y)"
    x1, x2 = f"{c[9]}*th1 + {c[10]}*x*th2", f"{c[11]}*y*th1 + {c[12]}*th2"
    y1, y2 = f"{c[13]}*th2", f"{c[14]}*exp(x)*th1"
    return [[gxx, gxy, x1, x2], [gxy, gyy, y1, y2], [x1, y1, "0", f],
            [x2, y2, f"-({f})", "0"]]


@pytest.mark.parametrize("L", [2, 4, 6])
@settings(derandomize=True, max_examples=4, deadline=None, database=None)
@given(entries=random_metrics())
def test_christoffel_invariants_on_random_metrics(L, entries):
    chart = MetricChart(SIG_22, entries, BOX, name="random")
    model = ModelFile("random", chart, L, {}, {}, {"dt": 1e-3, "t_end": 1.0},
                      {}, {})
    checks = run_metric_suite(Fixtures(model, ("metric",)))
    assert [c.name for c in checks] == [
        "metric_invariants", "christoffel_symmetry", "christoffel_parity",
        "metric_compatibility", "beta_compatibility"]
    assert all(c.passed for c in checks), [c for c in checks if not c.passed]


@pytest.mark.parametrize("L", [0, 2, 4, 6])
@settings(derandomize=True, max_examples=3, deadline=None, database=None)
@given(entries=random_metrics(), seed=seeds)
def test_speed_and_energy_conserved_on_random_metrics(L, entries, seed):
    # bodies start at least 5 % of the box inside it and move at most 0.06
    chart = MetricChart(SIG_22, entries, BOX, name="random")
    rng = np.random.default_rng(seed)
    position = random_superpoint(chart, L, rng)
    velocity = random_superpoint(chart, L, rng).values
    traj = integrate_geodesic(chart, InitialCondition(L, position, velocity),
                              0.03, 0.01)
    speed = metric_speed(chart, traj)
    assert np.max(np.abs(speed - speed[0])) <= TOLERANCES["speed_drift"]
    flow = integrate_flow(chart, PhasePoint(position, velocity), 0.03, 0.01)
    H = energy_series(chart, flow)
    assert np.max(np.abs(H - H[0])) <= TOLERANCES["energy_drift"]
