"""Coefficient families, their declared constants and their exact neutral solves."""

import dataclasses
import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from fracstab import make_additive_noise, make_bounded_smooth, make_linear
from fracstab.coefficients import (NEUTRAL_TOL, _neutral_solver, _newton_schedule,
                                   _solve_neutral)


def test_linear_family_constants():
    z = np.zeros((2, 2))
    zero = make_linear(z, z, z)
    assert zero.L_g == zero.L_b == zero.L_sigma == 0.0

    cs = make_linear(0.05 * np.eye(2), z, z)
    assert cs.L_g == pytest.approx(0.05)

    s = np.array([[0.0, 0.1], [0.0, 0.0]])
    cs = make_linear(z, z, s)
    assert cs.L_sigma == pytest.approx(0.1)


def test_linear_family_is_linear():
    g_mat = np.array([[0.2, -0.1], [0.3, 0.4]])
    cs = make_linear(g_mat, np.zeros((2, 2)), np.zeros((2, 2)))
    rng = np.random.default_rng(0)
    x, y = rng.normal(size=2), rng.normal(size=2)
    np.testing.assert_allclose(cs.g(0.3, x + y), cs.g(0.3, x) + cs.g(0.3, y), rtol=1e-14)
    np.testing.assert_allclose(cs.g(0.0, x), g_mat @ x, rtol=1e-15)


def test_linear_family_is_batch_invariant():
    # a path's coefficient value must not depend on the batch it is evaluated in
    rng = np.random.default_rng(1)
    g_mat = rng.normal(size=(3, 3))
    cs = make_linear(g_mat, g_mat, g_mat)
    x = rng.normal(size=(50, 3))
    whole = cs.g(0.0, x)
    rows = np.concatenate([cs.g(0.0, x[i:i + 1]) for i in range(50)])
    np.testing.assert_array_equal(whole, rows)
    np.testing.assert_allclose(whole, x @ g_mat.T, rtol=0.0, atol=1e-14)


def test_linear_shape_mismatch():
    with pytest.raises(ValueError):
        make_linear(np.eye(2), np.eye(3), np.eye(2))


def test_bounded_smooth_family():
    cs = make_bounded_smooth(0.0, 0.3, -0.2)
    x = np.array([0.5, -1.0])
    assert not cs.g(0.0, x).any()
    np.testing.assert_allclose(cs.b(1.0, x), 0.3 * np.sin(x), rtol=1e-15)
    assert cs.L_b == pytest.approx(0.3)
    assert cs.L_sigma == pytest.approx(0.2)
    # vanishing at the origin, exactly
    assert not cs.b(0.7, np.zeros(2)).any()
    # componentwise 1-Lipschitz scaling
    y = np.array([0.1, 0.2])
    assert np.all(np.abs(cs.b(0.0, x) - cs.b(0.0, y)) <= 0.3 * np.abs(x - y) + 1e-15)
    with pytest.raises(ValueError):
        make_bounded_smooth(np.inf, 0.0, 0.0)


def test_builtin_families_pass_verifiers():
    # random search for a Euclidean ratio ||f(t,x)-f(t,y)|| / ||x-y|| above the
    # declared constant, pairs from the ball of radius 10, times in [0, 1]
    families = [
        make_linear(0.05 * np.eye(2), 0.1 * np.eye(2), np.array([[0.0, 0.1], [0.0, 0.0]])),
        make_bounded_smooth(0.2, 0.1, 0.05),
    ]
    times = np.linspace(0.0, 1.0, 65)[:, None]
    for cs in families:
        for fn, L in ((cs.g, cs.L_g), (cs.b, cs.L_b), (cs.sigma, cs.L_sigma)):
            rng = np.random.default_rng(7)
            x, y = rng.uniform(-10.0, 10.0, size=(2, 400, 2))
            t = rng.uniform(0.0, 1.0, size=(400, 1))
            ratio = np.linalg.norm(fn(t, x) - fn(t, y), axis=1) / np.linalg.norm(x - y, axis=1)
            assert ratio.max() <= L * (1 + 1e-9), (L, ratio.max())
            assert np.linalg.norm(fn(times, np.zeros((65, 2))), axis=1).max() <= 1e-14
        assert cs.assumptions_verified


def test_additive_noise_family_flags():
    cs = make_additive_noise(0.3, dim=2)
    assert not cs.assumptions_verified
    x = np.ones((5, 2))
    np.testing.assert_array_equal(cs.sigma(0.0, x), np.full((5, 2), 0.3))
    assert not cs.g(0.0, x).any()
    # does not vanish at zero
    np.testing.assert_array_equal(cs.sigma(0.0, np.zeros(2)), [0.3, 0.3])


def test_negative_declared_constant_rejected():
    from fracstab import CoefficientSet

    with pytest.raises(ValueError):
        CoefficientSet(g=lambda t, x: x, b=lambda t, x: x, sigma=lambda t, x: x,
                       L_g=-1.0, L_b=0.0, L_sigma=0.0)


_FAMILIES = {
    "linear": lambda rng, n: make_linear(*(rng.normal(size=(3, n, n)))),
    "bounded_smooth": lambda rng, n: make_bounded_smooth(*rng.normal(size=3)),
    "additive_noise": lambda rng, n: make_additive_noise(rng.normal(size=n), dim=n),
}


@settings(max_examples=40, deadline=None)
@given(family=st.sampled_from(sorted(_FAMILIES)), seed=st.integers(0, 2**32 - 1),
       x=st.integers(1, 3).flatmap(lambda n: hnp.arrays(
           float, st.tuples(st.integers(1, 40), st.just(n)),
           elements=st.floats(-1e3, 1e3, allow_nan=False))))
def test_whole_path_call_matches_node_calls(family, seed, x):
    # the simulator calls a coefficient once per Picard sweep on the whole
    # path with a column of times; the built-in families ignore t and act
    # row by row, so that call is the node-by-node calls bit for bit
    rng = np.random.default_rng(seed)
    cs = _FAMILIES[family](rng, x.shape[1])
    times = np.sort(rng.uniform(0.0, 10.0, size=x.shape[0]))
    for fn in (cs.g, cs.b, cs.sigma):
        whole = np.asarray(fn(times[:, None], x))
        rows = np.concatenate([np.asarray(fn(float(t), x[j:j + 1])) for j, t in enumerate(times)])
        assert whole.shape == x.shape
        assert whole.tobytes() == rows.tobytes()


# ------------------------------------------------------------ neutral solves

NON_NORMAL_G = [[0.1, 0.8], [0.0, 0.1]]  # declared L_g 0.9, spectral radius 0.1


@st.composite
def neutral_cases(draw):
    """(coefficients, rhs): the non-normal G, a random G with ||G||_inf up to
    0.99, or the sine family with |c| < 0.99, and a batch of right-hand sides."""
    kind = draw(st.sampled_from(["non_normal", "linear", "sine"]))
    n = 2 if kind == "non_normal" else draw(st.integers(1, 3))
    zero = np.zeros((n, n))
    if kind == "non_normal":
        coeffs = make_linear(NON_NORMAL_G, zero, zero)
    elif kind == "linear":
        g = draw(hnp.arrays(float, (n, n), elements=st.floats(-1.0, 1.0)))
        scale = draw(st.floats(0.0, 0.99)) / max(np.max(np.sum(np.abs(g), axis=1)), 1.0)
        coeffs = make_linear(scale * g, zero, zero)
    else:
        coeffs = make_bounded_smooth(draw(st.floats(-0.99, 0.99)), 0.1, 0.1)
    rhs = draw(hnp.arrays(float, st.tuples(st.integers(1, 30), st.just(n)),
                          elements=st.floats(-1e3, 1e3)))
    return coeffs, rhs


@settings(max_examples=80, deadline=None)
@given(case=neutral_cases(), cut=st.integers(1, 29))
def test_exact_neutral_solve_residual_and_batching(case, cut):
    coeffs, rhs = case
    solve = _neutral_solver(coeffs)
    x = solve(0.5, rhs)
    residual = np.abs(x + coeffs.g(0.5, x) - rhs).max(axis=-1)
    assert np.all(residual <= NEUTRAL_TOL * (1.0 + np.abs(x).max(axis=-1)))
    # each path's solution depends on its own row alone
    split = np.concatenate([solve(0.5, part) for part in (rhs[:cut], rhs[cut:]) if len(part)])
    rows = np.concatenate([solve(0.5, rhs[j:j + 1]) for j in range(rhs.shape[0])])
    assert split.tobytes() == x.tobytes()
    assert rows.tobytes() == x.tobytes()


def test_newton_schedule_with_a_subnormal_coefficient():
    # a / (2 (1 - a)) underflows to 0 for the smallest subnormal a, which
    # left the step count dividing by zero; every step is tested instead
    assert _newton_schedule(5e-324) == (0, 1)
    solve = _neutral_solver(make_bounded_smooth(5e-324, 0.1, 0.1))
    np.testing.assert_array_equal(solve(0.5, np.array([[0.0], [2.0]])), [[0.0], [2.0]])


@settings(max_examples=30, deadline=None)
@given(case=neutral_cases())
def test_exact_neutral_solve_stays_with_g(case):
    coeffs, rhs = case
    exact = _neutral_solver(coeffs)(0.5, rhs)
    calls = []

    # a functools.wraps wrapper (a tracer, say) keeps the exact solve
    @functools.wraps(coeffs.g)
    def traced(t, x):
        calls.append(t)
        return coeffs.g(t, x)

    wrapped = _neutral_solver(dataclasses.replace(coeffs, g=traced))(0.5, rhs)
    assert wrapped.tobytes() == exact.tobytes()
    assert not calls

    # an unrelated callable falls back to the sweeps, which call it
    def other(t, x):
        calls.append(t)
        return coeffs.g(t, x)

    swept = _neutral_solver(dataclasses.replace(coeffs, g=other))(0.5, rhs)
    assert calls
    assert swept.tobytes() == _solve_neutral(rhs, other, 0.5, coeffs.L_g).tobytes()
