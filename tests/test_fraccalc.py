"""Special functions and discrete fractional operators."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fracstab import (
    FractionalOrder,
    beta_fn,
    gamma_fn,
    ml_kernel,
    ml_matrix,
    ml_norm_sup,
    ml_scalar,
    rl_derivative_grid,
    rl_integral_grid,
)
from fracstab.errors import AccuracyWarning

from oracle_fixtures import (
    BETA_0625_0625,
    GAMMA_0_75,
    JORDAN_A06_T5,
    JORDAN_A06_T05,
    JORDAN_A06_T50,
    JORDAN_A075_T5,
    JORDAN_A075_T05,
    JORDAN_A075_T50,
    JORDAN_A09_T5,
    JORDAN_A09_T05,
    JORDAN_A09_T50,
    M_JORDAN_A075_T50,
    M_ROTATION_A075_T50,
    NEAR_DEFECTIVE_A075,
    ML_A06_B06_ZM10P30J,
    ML_A06_B15_ZM3P4J,
    ML_A06_B075_ZM40,
    ML_A06_B1_ZM8,
    ML_A075_B075_ROTATION_T50,
    ML_A075_B075_Z725P1864J,
    ML_A075_B075_ZM1,
    ML_A075_B075_ZM15,
    ML_A075_B075_ZM30,
    ML_A075_B075_ZM30P30J,
    ML_A075_B075_ZM100P50J,
    ML_A075_B075_ZM277P831J,
    ML_A075_B1_ZM6P15J,
    ML_A075_B15_ZM12,
    ML_A075_B1_ZM25,
    ML_A095_B095_ZM7,
    ML_A095_B095_ZM25,
    ML_A095_B1_ZM3,
    ML_A099_B099_ZM25,
    ML_A099_B099_ZM40P30J,
    ML_A09_B09_ZM10,
    ML_A09_B09_ZM201,
    ML_A09_B09_ZM25P1J,
    ML_A09_B09_ZM277P831J,
    ML_A09_B15_ZM5,
    RECIP_GAMMA_0_75,
    RL_INT_T_A075_AT1,
)


# ---------------------------------------------------------------- gamma/beta

def test_gamma_basic_values():
    assert gamma_fn(1.0) == pytest.approx(1.0, rel=1e-14)
    assert gamma_fn(0.5) == pytest.approx(math.sqrt(math.pi), rel=1e-14)
    assert gamma_fn(0.75) == pytest.approx(GAMMA_0_75, rel=1e-12)


def test_gamma_reflection_region():
    # Gamma(-1/2) = -2 sqrt(pi), Gamma(-3/2) = 4 sqrt(pi) / 3
    assert gamma_fn(-0.5) == pytest.approx(-2.0 * math.sqrt(math.pi), rel=1e-12)
    assert gamma_fn(-1.5) == pytest.approx(4.0 * math.sqrt(math.pi) / 3.0, rel=1e-12)


def test_gamma_recurrence_over_range():
    # Gamma(x+1) = x Gamma(x) across [-50, 50] away from poles
    for x in np.arange(-49.6, 49.6, 0.73):
        if abs(x - round(x)) < 1e-6:
            continue
        assert gamma_fn(x + 1.0) == pytest.approx(x * gamma_fn(x), rel=5e-12)


def test_gamma_rejects_poles():
    for x in (0.0, -1.0, -7.0):
        with pytest.raises(ValueError):
            gamma_fn(x)


def test_beta_values_and_symmetry():
    assert beta_fn(1.0, 1.0) == pytest.approx(1.0, rel=1e-14)
    assert beta_fn(0.5, 0.5) == pytest.approx(math.pi, rel=1e-13)
    assert beta_fn(0.625, 0.625) == pytest.approx(BETA_0625_0625, rel=1e-12)
    assert beta_fn(2.3, 0.7) == pytest.approx(beta_fn(0.7, 2.3), rel=1e-14)


def test_beta_domain_errors():
    with pytest.raises(ValueError):
        beta_fn(0.0, 1.0)
    with pytest.raises(ValueError):
        beta_fn(1.0, -2.0)


# ---------------------------------------------------------------- ml_scalar

def test_ml_reduces_to_exponential():
    for z in np.linspace(-20.0, 20.0, 41):
        assert ml_scalar(1.0, 1.0, float(z)) == pytest.approx(math.exp(z), rel=1e-10)


def test_ml_at_zero_and_cosh():
    assert ml_scalar(0.75, 0.75, 0.0) == pytest.approx(RECIP_GAMMA_0_75, rel=1e-13)
    assert ml_scalar(2.0, 1.0, 1.0) == pytest.approx(math.cosh(1.0), rel=1e-13)
    # E_{2,1}(z) = cosh(sqrt(z)); at z = -1 that is cos(1)
    assert ml_scalar(2.0, 1.0, -1.0) == pytest.approx(math.cos(1.0), rel=1e-13)


def test_ml_against_frozen_oracle():
    cases = [
        (0.75, 0.75, -1.0, ML_A075_B075_ZM1),
        (0.75, 0.75, -15.0, ML_A075_B075_ZM15),
        (0.75, 0.75, -30.0, ML_A075_B075_ZM30),
        (0.6, 1.0, -8.0, ML_A06_B1_ZM8),
        (0.9, 0.9, -10.0, ML_A09_B09_ZM10),
        (0.6, 0.75, -40.0, ML_A06_B075_ZM40),
        (0.75, 1.0, -2.5, ML_A075_B1_ZM25),
        (0.75, 1.5, -12.0, ML_A075_B15_ZM12),
    ]
    for alpha, beta, z, expected in cases:
        assert ml_scalar(alpha, beta, z) == pytest.approx(expected, rel=2e-8), (alpha, beta, z)
    # a -> 1, at a tighter tolerance
    peaks = [
        (0.9, 0.9, -2.01, ML_A09_B09_ZM201),
        (0.95, 0.95, -2.5, ML_A095_B095_ZM25),
        (0.95, 0.95, -7.0, ML_A095_B095_ZM7),
        (0.99, 0.99, -2.5, ML_A099_B099_ZM25),
        (0.95, 1.0, -3.0, ML_A095_B1_ZM3),
        (0.9, 1.5, -5.0, ML_A09_B15_ZM5),
    ]
    for alpha, beta, z, expected in peaks:
        assert ml_scalar(alpha, beta, z) == pytest.approx(expected, rel=1e-12), (alpha, beta, z)


def test_ml_recurrence_identity():
    # E_{a,b}(z) = 1/Gamma(b) + z E_{a,a+b}(z)
    zs = np.linspace(-10.0, 10.0, 41)
    for alpha in (0.6, 0.75, 0.9):
        for beta in (0.75, 1.0):
            for z in zs:
                left = ml_scalar(alpha, beta, float(z))
                right = 1.0 / gamma_fn(beta) + z * ml_scalar(alpha, alpha + beta, float(z))
                assert abs(left - right) <= 1e-9 * (1.0 + abs(left)), (alpha, beta, z)


def test_ml_complex_input_returns_complex():
    val = ml_scalar(0.75, 1.0, 0.3 + 0.2j)
    assert isinstance(val, complex)
    # conjugate symmetry for real coefficients
    conj = ml_scalar(0.75, 1.0, 0.3 - 0.2j)
    assert conj == pytest.approx(val.conjugate(), rel=1e-12)


def test_fractional_order_validation():
    FractionalOrder(0.75, 2)
    FractionalOrder(1.0, 4)
    with pytest.raises(ValueError):
        FractionalOrder(0.5, 2)
    with pytest.raises(ValueError):
        FractionalOrder(1.2, 2)
    with pytest.raises(ValueError):
        FractionalOrder(0.75, 1)


# ---------------------------------------------------------------- ml_matrix

def test_ml_matrix_zero_matrix():
    out = ml_matrix(0.75, 0.9, np.zeros((3, 3)))
    np.testing.assert_allclose(out, np.eye(3) / gamma_fn(0.9), rtol=1e-14)


def test_ml_matrix_diagonal_consistency():
    d = np.diag([-1.0, -2.0])
    out = ml_matrix(0.75, 0.75, d)
    expect = np.diag([ml_scalar(0.75, 0.75, -1.0), ml_scalar(0.75, 0.75, -2.0)])
    np.testing.assert_allclose(out, expect, rtol=1e-10, atol=1e-14)


def test_ml_matrix_rotation_generator():
    rot = np.array([[0.0, 1.0], [-1.0, 0.0]])
    out = ml_matrix(1.0, 1.0, rot)
    expect = np.array([[math.cos(1.0), math.sin(1.0)], [-math.sin(1.0), math.cos(1.0)]])
    np.testing.assert_allclose(out, expect, atol=1e-9)


def test_ml_matrix_similarity_invariance():
    rng = np.random.default_rng(11)
    m = rng.normal(size=(4, 4)) * 0.6
    p = np.eye(4) + 0.3 * rng.normal(size=(4, 4))
    lhs = ml_matrix(0.75, 1.0, p @ m @ np.linalg.inv(p))
    rhs = p @ ml_matrix(0.75, 1.0, m) @ np.linalg.inv(p)
    norm = np.max(np.sum(np.abs(rhs), axis=1))
    assert np.max(np.sum(np.abs(lhs - rhs), axis=1)) <= 1e-7 * norm


def test_ml_matrix_input_validation():
    with pytest.raises(ValueError):
        ml_matrix(0.75, 1.0, np.ones((2, 3)))
    with pytest.raises(ValueError):
        ml_matrix(0.75, 1.0, np.array([[np.inf]]))


# --------------------------------------------------- one evaluator, any batch

# real arguments across the negative axis and past the poles of small
# positive ones, small complex ones, and ("sector", r, y): |z| = r and
# |arg z| from a pi/2 (y = 0) to pi (|y| = 1), with the sign of y, where the
# poles s* = z^(1/a) sweep across both contours
_ARGS = st.one_of(st.floats(-40.0, 8.0).map(lambda x: ("z", x, 0.0)),
                  st.tuples(st.just("z"), st.floats(-1.5, 1.5), st.floats(-1.5, 1.5)),
                  st.tuples(st.just("sector"), st.floats(0.0, 60.0), st.floats(-1.0, 1.0)))


def _argument(alpha, kind, x, y):
    if kind == "z":
        return complex(x, y)
    half = alpha * math.pi / 2.0
    angle = math.copysign(half + abs(y) * (math.pi - half), y)
    return x * complex(math.cos(angle), math.sin(angle))


@settings(max_examples=30, deadline=None)
@given(alpha=st.sampled_from((0.6, 0.75, 0.9, 0.99)), beta=st.sampled_from(("a", 1.0, 1.5)),
       args=st.lists(_ARGS, min_size=1, max_size=40), size=st.integers(1, 300),
       cut=st.integers(0, 300))
def test_ml_values_are_batch_invariant(alpha, beta, args, size, cut):
    # a value's bits depend on its argument alone, whatever block boundaries
    # (of the row sums' argument blocks or of the caller's split) and
    # whichever contours the other arguments take
    from fracstab.fraccalc import _ml_values

    beta = alpha if beta == "a" else beta

    def values(z):
        return _ml_values(alpha, beta, z)[0]

    z = np.resize(np.array([_argument(alpha, *a) for a in args], dtype=complex), size)
    whole = values(z)
    split = np.concatenate((values(z[:cut]), values(z[cut:])))
    single = np.concatenate([values(z[i:i + 1]) for i in range(len(z))])
    assert whole.tobytes() == split.tobytes() == single.tobytes()
    x = z.real[z.imag == 0.0]
    real_whole = values(x.astype(complex)).real
    assert real_whole.tobytes() == np.array([ml_scalar(alpha, beta, float(v)) for v in x]).tobytes()


@settings(max_examples=40, deadline=None)
@given(alpha=st.sampled_from((0.6, 0.75, 0.9, 0.99)), beta=st.sampled_from(("a", 1.0, 1.5)),
       r=st.floats(0.0, 60.0), y=st.floats(-1.0, 1.0))
def test_ml_identities_across_the_sector(alpha, beta, r, y):
    # E_{a,b}(z) = 1/Gamma(b) + z E_{a,a+b}(z), and E(conj z) = conj E(z),
    # on |arg z| in [a pi/2, pi], |z| <= 60
    beta = alpha if beta == "a" else beta
    z = _argument(alpha, "sector", r, y)
    left = ml_scalar(alpha, beta, z)
    shifted = z * ml_scalar(alpha, alpha + beta, z)
    scale = abs(left) + abs(shifted) + 1.0 / gamma_fn(beta)
    assert abs(left - (1.0 / gamma_fn(beta) + shifted)) <= 1e-11 * scale, (alpha, beta, z)
    assert abs(ml_scalar(alpha, beta, z.conjugate()) - left.conjugate()) <= 1e-12 * abs(left)


def test_ml_against_complex_oracle():
    cases = [
        (0.75, 0.75, -30 + 30j, ML_A075_B075_ZM30P30J),
        (0.75, 0.75, -100 + 50j, ML_A075_B075_ZM100P50J),
        (0.6, 0.6, -10 + 30j, ML_A06_B06_ZM10P30J),
        (0.75, 0.75, -2.77 + 8.31j, ML_A075_B075_ZM277P831J),
        (0.9, 0.9, -2.77 + 8.31j, ML_A09_B09_ZM277P831J),
        (0.75, 0.75, 7.25 + 18.64j, ML_A075_B075_Z725P1864J),
        (0.75, 1.0, -6 + 15j, ML_A075_B1_ZM6P15J),
        (0.9, 0.9, -25 + 1j, ML_A09_B09_ZM25P1J),
        (0.6, 1.5, -3 + 4j, ML_A06_B15_ZM3P4J),
        (0.99, 0.99, -40 + 30j, ML_A099_B099_ZM40P30J),
        (0.75, 0.75, complex(-(50.0**0.75), 3.0 * 50.0**0.75), ML_A075_B075_ROTATION_T50),
    ]
    for alpha, beta, z, expected in cases:
        value = ml_scalar(alpha, beta, z)
        assert abs(value - expected) <= 1e-12 * abs(expected), (alpha, beta, z)


def test_ml_kernel_of_the_jordan_block_and_the_rotation():
    # E(t^a J) = [[E, t^a E'], [0, E]] for J = [[-1, 1], [0, -1]], whose
    # eigenbasis is defective (resolvent path); the rotation takes the eigen
    # path with complex eigenvalues
    jordan = np.array([[-1.0, 1.0], [0.0, -1.0]])
    fixtures = {(0.6, 0.5): JORDAN_A06_T05, (0.6, 5.0): JORDAN_A06_T5, (0.6, 50.0): JORDAN_A06_T50,
                (0.75, 0.5): JORDAN_A075_T05, (0.75, 5.0): JORDAN_A075_T5,
                (0.75, 50.0): JORDAN_A075_T50, (0.9, 0.5): JORDAN_A09_T05,
                (0.9, 5.0): JORDAN_A09_T5, (0.9, 50.0): JORDAN_A09_T50}
    for (alpha, t), (e, de) in fixtures.items():
        tau = t**alpha
        expect = np.array([[e, tau * de], [0.0, e]])
        got = ml_kernel(alpha, alpha, jordan, [t])[0]
        np.testing.assert_allclose(got, expect, rtol=1e-12, atol=0.0, err_msg=str((alpha, t)))
    assert ml_norm_sup(jordan, 0.75, 50.0) == pytest.approx(M_JORDAN_A075_T50, rel=1e-12)
    rotation = np.array([[-1.0, 3.0], [-3.0, -1.0]])
    assert ml_norm_sup(rotation, 0.75, 50.0) == pytest.approx(M_ROTATION_A075_T50, rel=1e-12)
    e = ML_A075_B075_ROTATION_T50
    np.testing.assert_allclose(ml_kernel(0.75, 0.75, rotation, [50.0])[0],
                               [[e.real, e.imag], [-e.imag, e.real]], rtol=1e-12)


@pytest.mark.parametrize("seed", [0, 10, 11])
def test_ml_kernel_of_a_near_defective_matrix(seed):
    # P diag(J2(-1), J2(-3)) P^-1 rounds to a diagonalisable matrix with
    # cond(V) near 9e7, where V diag(E) V^-1 would lose about cond(V) eps;
    # compared with the similarity transform of the Jordan closed form
    p = np.random.default_rng(seed).uniform(-1.0, 1.0, (4, 4))
    jordan = np.diag([-1.0, -1.0, -3.0, -3.0]) + np.diag([1.0, 0.0, 1.0], 1)
    mat = p @ jordan @ np.linalg.inv(p)
    times = [0.5, 5.0, 20.0]
    table = ml_kernel(0.75, 0.75, mat, times)
    for k, t in enumerate(times):
        blocks = np.zeros((4, 4))
        for i, lam in ((0, -1.0), (2, -3.0)):
            e, de = NEAR_DEFECTIVE_A075[lam, t]
            blocks[i:i + 2, i:i + 2] = [[e, t**0.75 * de], [0.0, e]]
        expect = p @ blocks @ np.linalg.inv(p)
        err = np.abs(table[k] - expect).sum(axis=1).max() / np.abs(expect).sum(axis=1).max()
        assert err <= 1e-12, (t, err)


_TRIANGULAR = np.array([[-1.0, 0.7, 0.2], [0.0, -2.0, -0.4], [0.0, 0.0, -3.0]])
_ROTATION = np.array([[-1.0, 3.0], [-3.0, -1.0]])
_JORDAN = np.array([[-1.0, 1.0], [0.0, -1.0]])


@pytest.mark.parametrize("mat, t_max", [
    (_TRIANGULAR, 50.0),  # eigen path
    (_ROTATION, 0.5),  # complex eigenvalues
    (_JORDAN, 5.0),  # defective: resolvent path
    (_ROTATION, 50.0),  # poles crossing both contours
    (_JORDAN, 50.0),
])
def test_ml_kernel_nodes_match_ml_matrix(mat, t_max):
    # a node's matrix is the same bits in any grid, on both paths, and
    # agrees with ml_matrix of t^a A (its own eigendecomposition)
    times = np.linspace(0.0, t_max, 301)
    table = ml_kernel(0.75, 0.75, mat, times)
    assert table.shape == (len(times),) + mat.shape
    for k in range(len(times)):
        assert table[k].tobytes() == ml_kernel(0.75, 0.75, mat, times[k:k + 1])[0].tobytes(), k
    for k in (1, 150, 300):
        np.testing.assert_allclose(table[k], ml_matrix(0.75, 0.75, times[k] ** 0.75 * mat),
                                   rtol=1e-12, atol=1e-15)


def test_ml_kernel_refuses_poles_outside_the_resolvent_contour():
    # a defective block whose pole lies outside the contour would need a
    # derivative residue
    with pytest.raises(ValueError, match="not supported"):
        ml_kernel(0.75, 0.75, np.array([[1.0, 1.0], [0.0, 1.0]]), [0.0, 1.0])


def test_ml_kernel_warns_once_per_call():
    # deep on the negative axis the row sum loses digits like |z| eps against
    # values of size |z|^-2; one warning names the worst argument
    times = np.linspace(0.0, 50.0, 65)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        ml_kernel(0.99, 0.99, np.array([[-3000.0]]), times)
    assert [w.category for w in caught] == [AccuracyWarning]
    assert "of 65 arguments" in str(caught[0].message)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        ml_kernel(0.75, 0.75, np.array([[-10.0]]), times)


def test_ml_kernel_input_validation():
    with pytest.raises(ValueError):
        ml_kernel(0.75, 0.75, np.ones((2, 3)), [0.0, 1.0])
    with pytest.raises(ValueError):
        ml_kernel(0.75, 0.75, -np.eye(2), [0.0, -1.0])
    with pytest.raises(ValueError):
        ml_kernel(0.0, 0.75, -np.eye(2), [0.0, 1.0])


# ------------------------------------------------------- grid operators

def test_rl_integral_constant_exact():
    n_steps = 200
    dt = 1.0 / n_steps
    t = np.arange(n_steps + 1) * dt
    out = rl_integral_grid(np.ones(n_steps + 1), 0.5, dt)
    np.testing.assert_allclose(out[1:], t[1:] ** 0.5 / gamma_fn(1.5), rtol=1e-12)
    assert out[0] == 0.0


def test_rl_integral_zero_and_linear():
    n_steps = 512
    dt = 1.0 / n_steps
    assert not rl_integral_grid(np.zeros(n_steps + 1), 0.75, dt).any()
    t = np.arange(n_steps + 1) * dt
    out = rl_integral_grid(t, 0.75, dt)
    # I^a t = Gamma(2)/Gamma(2+a) t^{1+a}; first-order scheme
    assert out[-1] == pytest.approx(RL_INT_T_A075_AT1, abs=5e-3)
    finer = rl_integral_grid(np.arange(2 * n_steps + 1) / (2 * n_steps), 0.75, dt / 2)
    assert abs(finer[-1] - RL_INT_T_A075_AT1) < abs(out[-1] - RL_INT_T_A075_AT1)


def rl_integral_loop(f, alpha, dt):
    """O(N^2) reference: the product-integration sum node by node."""
    f = np.asarray(f, dtype=float)
    m = np.arange(f.shape[0], dtype=float)
    coeff = m[1:] ** alpha - m[:-1] ** alpha
    out = np.zeros_like(f)
    for n in range(1, f.shape[0]):
        out[n] = dt**alpha / gamma_fn(alpha + 1.0) * (coeff[:n][::-1] @ f[:n])
    return out


@pytest.mark.parametrize("alpha", [0.25, 0.75, 1.0])
@pytest.mark.parametrize("n_nodes", [2, 3, 257, 1000])
def test_rl_integral_matches_loop_reference(alpha, n_nodes):
    # the FFT convolution reorders the sums, so the bits may differ; its
    # roundoff is bounded by the largest output value
    dt = 1.0 / n_nodes
    t = np.arange(n_nodes) * dt
    samples = np.column_stack((np.ones(n_nodes), np.exp(3.0 * t),
                               np.random.default_rng(n_nodes).normal(size=n_nodes)))
    out = rl_integral_grid(samples, alpha, dt)
    ref = rl_integral_loop(samples, alpha, dt)
    assert out[0].tolist() == [0.0, 0.0, 0.0]
    np.testing.assert_allclose(out, ref, rtol=0.0, atol=1e-13 * np.abs(ref).max())
    np.testing.assert_array_equal(rl_integral_grid(samples[:, 1], alpha, dt), out[:, 1])


def test_rl_derivative_of_integral_recovers_f():
    n_steps = 512
    dt = 1.0 / n_steps
    t = np.arange(n_steps + 1) * dt
    f = np.sin(t) + 1.5
    for alpha in (0.6, 0.75, 0.9):
        back = rl_derivative_grid(rl_integral_grid(f, alpha, dt), alpha, dt)
        sel = t >= 0.25
        assert np.max(np.abs(back[sel] - f[sel])) < 0.02, alpha


def test_rl_composition_error_shrinks_under_refinement():
    for alpha in (0.6, 0.75, 0.9):
        errs = []
        for n_steps in (128, 256):
            dt = 1.0 / n_steps
            t = np.arange(n_steps + 1) * dt
            f = 1.0 + t + t**2
            back = rl_derivative_grid(rl_integral_grid(f, alpha, dt), alpha, dt)
            sel = t >= 0.25
            errs.append(np.max(np.abs(back[sel] - f[sel])))
        assert errs[1] < errs[0]


def test_rl_derivative_annihilates_singular_mode():
    # D^a t^(a-1) = 0; the discrete residual shrinks under refinement
    alpha = 0.75
    prev = None
    for n_steps in (256, 512, 1024):
        dt = 1.0 / n_steps
        t = np.arange(n_steps + 1) * dt
        f = np.zeros(n_steps + 1)
        f[1:] = t[1:] ** (alpha - 1.0)
        out = rl_derivative_grid(f, alpha, dt)
        resid = np.max(np.abs(out[t >= 0.5]))
        if prev is not None:
            assert resid < prev
        prev = resid
    assert prev < 0.05


def test_rl_operator_validation():
    with pytest.raises(ValueError):
        rl_integral_grid(np.ones(8), 1.5, 0.1)
    with pytest.raises(ValueError):
        rl_integral_grid(np.ones(8), 0.5, 0.0)
    with pytest.raises(ValueError):
        rl_derivative_grid(np.ones(2), 0.75, 0.1)
    with pytest.raises(ValueError):
        rl_derivative_grid(np.ones(8), 1.0, 0.1)


def test_rl_integral_vector_valued():
    n_steps = 64
    dt = 1.0 / n_steps
    f = np.stack([np.ones(n_steps + 1), np.zeros(n_steps + 1)], axis=1)
    out = rl_integral_grid(f, 0.5, dt)
    assert out.shape == f.shape
    assert not out[:, 1].any()
    t = np.arange(n_steps + 1) * dt
    np.testing.assert_allclose(out[1:, 0], t[1:] ** 0.5 / gamma_fn(1.5), rtol=1e-12)
