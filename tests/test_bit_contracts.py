"""Bit-level contracts of the serial right-hand side, on random inputs.

* batch rows: a row of a batched paper-mode run or flow run on the one-array
  stepper is `np.array_equal` to its own serial run, and so are the samples
  and first stages `_rk4` records for one row;
* the Neumann series of `_Kernel.inverse`, whose first term is -N, matches
  an oracle that computes that term as the product by the identity;
* the metric fields come from one evaluation: G and dG are batched like the
  positions on a chart whose entries depend on the point; on a constant
  chart, they and g^{-1} are the read-only constants themselves; and the
  g^{-1} of `_Kernel.fields` is the inverse of `eval_metric`, bit for bit;
* the program of `superexpr` matches a node-by-node tree evaluation.

Hypothesis runs derandomized; each example draws one integer seed for numpy.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from supergeodesics.cotangent import PhasePoint, _flow_rhs, integrate_flow
from supergeodesics.errors import DomainError, ZeroBody
from supergeodesics.geodesics import (
    InitialCondition,
    _goertsches_rhs,
    _grid,
    _paper_rhs,
    _rk4,
    integrate_geodesic,
)
from supergeodesics.geometry import SuperPoint
from supergeodesics.grassmann import batched_mul, dim, invert_dense, mask_parity, \
    mul_dense
from supergeodesics.superexpr import (
    Const,
    EvenVar,
    Fun,
    IntPow,
    OddVar,
    Product,
    Program,
    Recip,
    Sum,
    Var,
    _fun_value,
    add,
    fun,
    mul,
    pow_int,
    recip,
)
from supergeodesics.verify import random_superpoint

FAST = settings(derandomize=True, max_examples=12, deadline=None, database=None)
seeds = st.integers(0, 2**32 - 1)


def random_states(chart, L, rows, rng):
    """`rows` parity-correct (position, velocity) pairs, stacked."""
    pos = np.stack([random_superpoint(chart, L, rng).as_array()
                    for _ in range(rows)])
    vel = np.stack([random_superpoint(chart, L, rng).as_array()
                    for _ in range(rows)])
    return pos, vel


# ---------------------------------------------------------------------------
# batch rows against serial runs


@FAST
@given(L=st.integers(0, 3), rows=st.integers(2, 4), seed=seeds,
       curved=st.booleans())
def test_paper_run_rows_match_serial(c1x_r12, curved_r22, L, rows, seed, curved):
    chart = curved_r22 if curved else c1x_r12
    rng = np.random.default_rng(seed)
    pos, vel = random_states(chart, L, rows, rng)
    steps, h = _grid(0.03, 0.01)
    record = int(rng.integers(rows))
    kern = chart.kernel(L)
    final, samples, _ = _rk4(lambda s: _paper_rhs(kern, s),
                             np.concatenate((pos, vel), axis=-2), h, steps,
                             chart, record=record)
    for r in range(rows):
        ic = InitialCondition(L, SuperPoint.from_array(chart.sig, L, pos[r]),
                              chart.sig.unpack(L, vel[r]))
        traj = integrate_geodesic(chart, ic, 0.03, 0.01)
        assert np.array_equal(final[r, :kern.n], traj.positions[-1])
        if r == record:
            assert np.array_equal(samples[:, :kern.n], traj.positions)
            assert np.array_equal(samples[:, kern.n:], traj.velocities)


@FAST
@given(L=st.integers(0, 3), rows=st.integers(2, 4), seed=seeds,
       curved=st.booleans())
def test_flow_rows_match_serial(c1x_r12, curved_r22, L, rows, seed, curved):
    chart = curved_r22 if curved else c1x_r12
    rng = np.random.default_rng(seed)
    pos, mom = random_states(chart, L, rows, rng)
    steps, h = _grid(0.03, 0.01)
    kern = chart.kernel(L)
    final, _, _ = _rk4(lambda s: _flow_rhs(kern, s),
                       np.concatenate((pos, mom), axis=-2), h, steps, chart)
    for r in range(rows):
        phase = PhasePoint(SuperPoint.from_array(chart.sig, L, pos[r]),
                           chart.sig.unpack(L, mom[r]))
        flow = integrate_flow(chart, phase, 0.03, 0.01)
        assert np.array_equal(final[r, :kern.n], flow.positions[-1])
        assert np.array_equal(final[r, kern.n:], flow.momenta[-1])


@FAST
@given(L=st.integers(0, 3), rows=st.integers(1, 4), seed=seeds,
       curved=st.booleans())
def test_recorded_row_and_first_stages(c1x_r12, curved_r22, L, rows, seed,
                                       curved):
    # the recorded row at every sample, and its first stage of every step,
    # are those of the same state run alone
    chart = curved_r22 if curved else c1x_r12
    rng = np.random.default_rng(seed)
    pos, vel = random_states(chart, L, rows, rng)
    kern, m = chart.kernel(L), chart.sig.n_even
    state = np.concatenate((pos, vel[:, :m]), axis=-2)
    steps, h = _grid(0.03, 0.01)
    record = int(rng.integers(rows))

    def rhs(s):
        return _goertsches_rhs(kern, m, s)

    final, samples, k1s = _rk4(rhs, state, h, steps, chart, record=record)
    alone, alone_samples, alone_k1s = _rk4(rhs, state[record], h, steps, chart,
                                           record=())
    assert samples.shape == (steps + 1,) + state.shape[1:]
    assert k1s.shape == (steps,) + state.shape[1:]
    assert np.array_equal(final[record], alone)
    assert np.array_equal(samples, alone_samples)
    assert np.array_equal(samples[-1], final[record])
    assert np.array_equal(k1s, alone_k1s)
    for s in range(steps):
        assert np.array_equal(k1s[s], rhs(samples[s]))
    assert _rk4(rhs, state, h, steps, chart)[1:] == (None, None)


# ---------------------------------------------------------------------------
# the Neumann series of the inverse metric


def oracle_inverse(kern, G):
    """The series as it was first written: X starts as the identity and
    every term, the first included, is the product of the last by N."""
    body_inv = np.linalg.inv(G[..., 0])
    n, D = kern.n, kern.D
    rows = G.shape[:-3]
    N = (body_inv @ G.reshape(rows + (n, n * D))).reshape(G.shape)
    N[..., np.arange(n), np.arange(n), 0] -= 1.0
    X = np.zeros(G.shape)
    X[..., np.arange(n), np.arange(n), 0] = 1.0
    if N.any():
        term = X
        for _ in range(kern.L):
            tmp = batched_mul(term[..., :, :, None, :], N[..., None, :, :, :],
                              kern.L)
            term = -tmp.sum(axis=-3)
            if not term.any():
                break
            X = X + term
    return (X.swapaxes(-1, -2) @ body_inv[..., None, :, :]).swapaxes(-1, -2)


def random_graded_metric(kern, rows, rng):
    """A graded metric at random points: even entries of the even block and
    odd-odd block, odd mixed entries, graded symmetric, with exact zeros on
    the masks of the wrong parity; `rows` is the batch shape."""
    n, D, par = kern.n, kern.D, kern.par
    mpar = mask_parity(kern.L)
    G = rng.uniform(-0.3, 0.3, rows + (n, n, D))
    for i in range(n):
        for j in range(n):
            G[..., i, j, mpar != (par[i] + par[j]) % 2] = 0.0
    G = 0.5 * (G + kern.s1[:, :, None] * G.swapaxes(-3, -2))
    m = int((par == 0).sum())
    G[..., np.arange(m), np.arange(m), 0] += 1.5
    for a in range(m, n, 2):
        G[..., a, a + 1, 0] += 1.0
        G[..., a + 1, a, 0] -= 1.0
    return G


@settings(derandomize=True, max_examples=24, deadline=None, database=None)
@given(L=st.integers(1, 8), batch=st.sampled_from([(), (1,), (3,)]),
       seed=seeds)
def test_inverse_matches_identity_product_oracle(curved_r22, L, batch, seed):
    kern = curved_r22.kernel(L)
    G = random_graded_metric(kern, batch, np.random.default_rng(seed))
    assert np.array_equal(kern.inverse(G), oracle_inverse(kern, G))


def test_l0_residue_adds_no_term(curved_r22):
    # at L = 0 the series has no term, even when body^-1 G - 1 is not zero
    kern = curved_r22.kernel(0)
    rng = np.random.default_rng(7)
    for _ in range(200):
        G = random_graded_metric(kern, (), rng)
        body_inv = np.linalg.inv(G[..., 0])
        if np.count_nonzero(body_inv @ G[..., 0] - np.eye(kern.n)):
            break
    else:
        raise AssertionError("no metric with a body residue found")
    assert np.array_equal(kern.inverse(G)[..., 0], body_inv)
    assert np.array_equal(kern.inverse(G), oracle_inverse(kern, G))


# ---------------------------------------------------------------------------
# the metric fields: one evaluation, the one source of the inverse metric


def random_positions(chart, L, batch, rng):
    """Parity-correct positions of batch shape `batch`."""
    rows = [random_superpoint(chart, L, rng).as_array()
            for _ in range(int(np.prod(batch)))]
    return np.reshape(rows, batch + rows[0].shape)


@FAST
@given(L=st.integers(0, 4), batch=st.sampled_from([(), (1,), (3,), (2, 3)]),
       seed=seeds)
def test_live_fields_batched_like_positions(curved_r22, L, batch, seed):
    kern = curved_r22.kernel(L)
    n, D = kern.n, kern.D
    pos = random_positions(curved_r22, L, batch, np.random.default_rng(seed))
    assert kern.eval_metric(pos).shape == batch + (n, n, D)
    assert kern.eval_dmetric(pos).shape == batch + (n, n, n, D)
    ginv, dG = kern.fields(pos)
    assert ginv.shape == batch + (n, n, D)
    assert dG.shape == batch + (n, n, n, D)


@FAST
@given(L=st.integers(0, 4), batch=st.sampled_from([(), (3,), (2, 3)]),
       seed=seeds)
def test_constant_fields_are_the_constants(flat_r22, L, batch, seed):
    kern = flat_r22.kernel(L)
    pos = random_positions(flat_r22, L, batch, np.random.default_rng(seed))
    G, dG = kern.eval_metric(pos), kern.eval_dmetric(pos)
    assert G is kern._g_const and dG is kern._dg_const
    assert not G.flags.writeable and not dG.flags.writeable
    ginv, dG = kern.fields(pos)
    assert ginv is kern._ginv_const and dG is kern._dg_const
    assert not ginv.flags.writeable


@FAST
@given(L=st.integers(0, 4), batch=st.sampled_from([(), (3,)]), seed=seeds,
       curved=st.booleans())
def test_fields_inverse_is_inverse_of_metric(c1x_r12, curved_r22, L, batch,
                                             seed, curved):
    chart = curved_r22 if curved else c1x_r12
    kern = chart.kernel(L)
    pos = random_positions(chart, L, batch, np.random.default_rng(seed))
    ginv, dG = kern.fields(pos)
    assert ginv.tobytes() == kern.inverse(kern.eval_metric(pos)).tobytes()
    assert dG.tobytes() == kern.eval_dmetric(pos).tobytes()


# ---------------------------------------------------------------------------
# the expression program against a node-by-node evaluation


def tree_eval(e, env, L):
    """Each node evaluated on its own, operands left to right."""
    if isinstance(e, Const):
        out = np.zeros(dim(L))
        out[0] = e.value
        return out
    if isinstance(e, Var):
        return env[e.name]
    if isinstance(e, Sum):
        out = tree_eval(e.terms[0], env, L)
        for t in e.terms[1:]:
            out = out + tree_eval(t, env, L)
        return out
    if isinstance(e, Product):
        out = tree_eval(e.factors[0], env, L)
        for f in e.factors[1:]:
            out = mul_dense(out, tree_eval(f, env, L), L)
        return out
    if isinstance(e, IntPow):
        v = out = tree_eval(e.base, env, L)
        for _ in range(e.exponent - 1):
            out = mul_dense(out, v, L)
        return out
    if isinstance(e, Recip):
        try:
            return invert_dense(tree_eval(e.base, env, L), L, check_even=False)
        except ZeroBody as exc:
            raise DomainError(f"reciprocal undefined: {exc}") from exc
    assert isinstance(e, Fun)
    return _fun_value(e.name, tree_eval(e.arg, env, L), L)


def expressions():
    """Random expressions over x, y | th1, th2 from the smart constructors;
    reciprocals and functions take even arguments only."""
    leaves = st.one_of(
        st.sampled_from([EvenVar("x"), EvenVar("y"), OddVar("th1"),
                         OddVar("th2")]),
        st.floats(-2.0, 2.0, allow_nan=False).map(Const))

    def grow(children):
        even = children.filter(lambda e: e.parity().name == "EVEN")
        return st.one_of(
            st.tuples(children, children).map(lambda ab: add(*ab)),
            st.lists(children, min_size=2, max_size=3).map(lambda fs: mul(*fs)),
            st.tuples(even, st.integers(2, 3)).map(lambda bk: pow_int(*bk)),
            even.map(lambda e: recip(add(e, Const(3.0)))),
            st.tuples(st.sampled_from(["exp", "sin", "cos"]), even).map(
                lambda fe: fun(*fe)))

    return st.recursive(leaves, grow, max_leaves=10)


@settings(derandomize=True, max_examples=60, deadline=None, database=None)
@given(exprs=st.lists(expressions(), min_size=1, max_size=3), seed=seeds,
       L=st.integers(0, 4), rows=st.sampled_from([(), (3,)]))
def test_program_matches_tree_evaluation(exprs, seed, L, rows):
    rng = np.random.default_rng(seed)
    env = {}
    for name, odd in (("x", 0), ("y", 0), ("th1", 1), ("th2", 1)):
        v = rng.uniform(-0.5, 0.5, rows + (dim(L),))
        v[..., mask_parity(L) != odd] = 0.0
        env[name] = v
    program = Program(exprs)
    try:
        want = [tree_eval(e, env, L) for e in exprs]
    except DomainError as exc:
        try:
            program.run(env, L)
        except DomainError as got:
            assert str(got) == str(exc)
        else:
            raise AssertionError("the program raised no DomainError")
        return
    got = program.run(env, L)
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert np.array_equal(np.broadcast_to(g, w.shape), w)
