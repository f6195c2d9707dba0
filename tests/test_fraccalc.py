"""Special functions and the discrete fractional integral."""

import cmath
import math
import re
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
    ml_norm_sup,
    ml_scalar,
    rl_integral_grid,
)
from fracstab.errors import AccuracyWarning
from fracstab.fraccalc import _CONTOURS, _betainc_aa, _contour_choice, _contour_rule, _poles

from oracle_fixtures import (
    BETA_0625_0625,
    BETA_300_05,
    BETA_VALUES,
    BETAINC_AA,
    GAMMA_0_75,
    GAMMA_VALUES,
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


def test_gamma_and_beta_against_mpmath():
    # Gamma at a, 2a, a + 1 and Beta at (a, a), (a, 2a) for a in (1/2, 1]
    for x, want in GAMMA_VALUES.items():
        assert abs(gamma_fn(x) - want) <= 2e-15 * abs(want), x
    for (a, b), want in BETA_VALUES.items():
        assert abs(beta_fn(a, b) - want) <= 2e-15 * abs(want), (a, b)


def test_gamma_overflow_and_beta_fallback():
    assert gamma_fn(200.0) == math.inf
    # Gamma(300) overflows, so B(300, 1/2) comes from the lgamma form
    value = beta_fn(300.0, 0.5)
    assert math.isfinite(value)
    assert value == math.exp(math.lgamma(300.0) + math.lgamma(0.5) - math.lgamma(300.5))
    assert value == pytest.approx(BETA_300_05, rel=1e-12)


# ------------------------------------------------------- incomplete beta

EPS = np.finfo(float).eps


def test_betainc_aa_against_mpmath():
    # relative on [0, 1/2], where the series is summed, absolute above it,
    # where the value is 1 - I_(1-x)
    for (a, x), want in BETAINC_AA.items():
        got = float(_betainc_aa(a, np.array([x]))[0])
        if x <= 0.5:
            assert abs(got - want) <= 8 * EPS * want, (a, x)
        else:
            assert abs(got - want) <= 4 * EPS, (a, x)


@pytest.mark.parametrize("a", [0.55, 0.6, 0.75, 0.9, 0.99, 1.0])
def test_betainc_aa_matches_scipy_values_and_cells(a):
    from scipy.special import betainc

    x = np.sort(np.random.default_rng(0).uniform(0.0, 1.0, 10**5))
    got, want = _betainc_aa(a, x), betainc(a, a, x)
    assert np.max(np.abs(got - want)) <= 2e-15
    assert np.max(np.abs(np.diff(got) - np.diff(want))) <= 2e-15


@settings(max_examples=200, deadline=None)
@given(a=st.floats(0.5, 1.0, exclude_min=True),
       xs=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=40))
def test_betainc_aa_symmetry_and_monotonicity(a, xs):
    # 1 - x is exact for x in [1/2, 1], so both sides take the same pair
    upper = np.array([x for x in xs if x >= 0.5] + [0.5])
    sym = _betainc_aa(a, upper) + _betainc_aa(a, 1.0 - upper)
    assert np.all(np.abs(sym - 1.0) <= 2 * EPS)
    x = np.sort(np.concatenate([xs, [0.0, np.nextafter(0.5, 0.0), 0.5,
                                     np.nextafter(0.5, 1.0), 1.0]]))
    values = _betainc_aa(a, x)
    assert values[0] == 0.0 and values[-1] == 1.0
    assert np.all(np.diff(values) >= 0.0)


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
    # a p that is no finite number gets the package's refusal, not an
    # OverflowError or the conversion error of int()
    for p in (math.inf, math.nan):
        with pytest.raises(ValueError, match=r"^p must be an integer >= 2, got "):
            FractionalOrder(0.75, p)


# ------------------------------------- matrix function: ml_kernel at t = 1

def test_ml_matrix_zero_matrix():
    out = ml_kernel(0.75, 0.9, np.zeros((3, 3)), [1.0])[0]
    np.testing.assert_allclose(out, np.eye(3) / gamma_fn(0.9), rtol=1e-14)


def test_ml_matrix_diagonal_consistency():
    d = np.diag([-1.0, -2.0])
    out = ml_kernel(0.75, 0.75, d, [1.0])[0]
    expect = np.diag([ml_scalar(0.75, 0.75, -1.0), ml_scalar(0.75, 0.75, -2.0)])
    np.testing.assert_allclose(out, expect, rtol=1e-10, atol=1e-14)


def test_ml_matrix_rotation_generator():
    rot = np.array([[0.0, 1.0], [-1.0, 0.0]])
    out = ml_kernel(1.0, 1.0, rot, [1.0])[0]
    expect = np.array([[math.cos(1.0), math.sin(1.0)], [-math.sin(1.0), math.cos(1.0)]])
    np.testing.assert_allclose(out, expect, atol=1e-9)


def test_ml_matrix_similarity_invariance():
    rng = np.random.default_rng(11)
    m = rng.normal(size=(4, 4)) * 0.6
    p = np.eye(4) + 0.3 * rng.normal(size=(4, 4))
    lhs = ml_kernel(0.75, 1.0, p @ m @ np.linalg.inv(p), [1.0])[0]
    rhs = p @ ml_kernel(0.75, 1.0, m, [1.0])[0] @ np.linalg.inv(p)
    norm = np.max(np.sum(np.abs(rhs), axis=1))
    assert np.max(np.sum(np.abs(lhs - rhs), axis=1)) <= 1e-7 * norm


def test_ml_matrix_input_validation():
    with pytest.raises(ValueError):
        ml_kernel(0.75, 1.0, np.ones((2, 3)), [1.0])
    with pytest.raises(ValueError):
        ml_kernel(0.75, 1.0, np.array([[np.inf]]), [1.0])


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
    # agrees with the t = 1 value of t^a A (its own eigendecomposition)
    times = np.linspace(0.0, t_max, 301)
    table = ml_kernel(0.75, 0.75, mat, times)
    assert table.shape == (len(times),) + mat.shape
    for k in range(len(times)):
        assert table[k].tobytes() == ml_kernel(0.75, 0.75, mat, times[k:k + 1])[0].tobytes(), k
    for k in (1, 150, 300):
        np.testing.assert_allclose(table[k], ml_kernel(0.75, 0.75, times[k] ** 0.75 * mat,
                                                       [1.0])[0], rtol=1e-12, atol=1e-15)


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


def test_overflowing_values_are_infinite_not_nan():
    # e^(z^(1/a)) overflows far out on the positive real axis
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert ml_scalar(0.75, 0.75, 400.0) == math.inf
        assert ml_norm_sup([[40.0]], 0.75, 50.0) == math.inf
        table = ml_kernel(0.75, 0.75, np.diag([40.0, -1.0]), [0.0, 1.0, 50.0])
    assert not np.isnan(table).any()
    assert np.all(np.isfinite(table[:2])) and np.all(np.isinf(table[2]))


def test_overflowing_complex_values_are_infinite_not_nan():
    # the residue e^(s*) overflows off the real axis too
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        value = ml_scalar(0.75, 0.75, 400.0 + 1.0j)
        mat = np.array([[40.0, 5.0], [-5.0, 40.0]])
        table = ml_kernel(0.75, 0.75, mat, [0.0, 1.0, 50.0])
        sup = ml_norm_sup(mat, 0.75, 50.0)
    assert cmath.isinf(value) and not cmath.isnan(value)
    assert not np.isnan(table).any()
    assert np.all(np.isfinite(table[:2])) and np.all(table[2] == np.inf)
    assert sup == math.inf


@pytest.mark.parametrize("z", [1e232j, 1e300j])
def test_far_decaying_complex_values_are_finite(z):
    # |z|^(1/a) overflows to a pole at -inf + inf j, whose residue
    # e^(s*) s*^(1-b) underflows to 0; the value is tiny, its digits lost
    with pytest.warns(AccuracyWarning):
        value = ml_scalar(0.75, 0.75, z)
    assert cmath.isfinite(value)


def test_far_growing_complex_value_stays_infinite():
    # here Re s* = +inf, and e^(s*) really overflows
    assert ml_scalar(0.75, 0.75, 1e300 + 1e300j) == complex(math.inf, math.inf)


# a NaN part has no value to print
@pytest.mark.parametrize("z", [math.nan, complex(math.nan, 1.0), complex(1.0, math.nan)])
def test_ml_scalar_refuses_nan(z):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="NaN"):
            ml_scalar(0.75, 0.75, z)


# an infinite part has no value either: on the negative axis the row sum
# read 0 with a spurious warning, on the positive axis numpy warned
@pytest.mark.parametrize("z", [math.inf, -math.inf, complex(1.0, math.inf),
                               complex(-math.inf, 1.0)])
def test_ml_scalar_refuses_infinite_argument(z):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="infinite"):
            ml_scalar(0.75, 0.75, z)


@pytest.mark.parametrize("alpha, beta, name", [
    (math.nan, 0.75, "alpha"),
    (math.inf, 0.75, "alpha"),
    (-0.5, 0.75, "alpha"),
    (0.75, math.nan, "beta"),
    (0.75, math.inf, "beta"),
    (0.75, -math.inf, "beta"),
])
def test_ml_functions_refuse_bad_orders(alpha, beta, name):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for call in (lambda: ml_scalar(alpha, beta, 1.0),
                     lambda: ml_kernel(alpha, beta, -np.eye(2), [0.0, 1.0])):
            with pytest.raises(ValueError, match=name):
                call()


def test_exact_zero_value_does_not_warn():
    # the exponential's value underflows to 0 with a zero roundoff estimate,
    # which is not an excess
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert ml_scalar(1.0, 1.0, -1000.0) == 0.0


def test_huge_negative_argument_warns_only_of_accuracy():
    # |z|^(1/a) overflows in the pole computation; the row sum's roundoff
    # against a value that underflows is the one honest warning
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        value = ml_scalar(0.75, 0.75, -1e300)
    assert math.isfinite(value)
    assert [w.category for w in caught] == [AccuracyWarning]


def _two_sided(alpha, beta, x):
    """E_{a,b}(x) for a real x summed over the whole contour the evaluator
    takes, u < 0 included, with the residue of an outside pole; returns
    (value, roundoff estimate eps (sum |terms| + |residue| / a))."""
    z = np.array([x], dtype=complex)
    poles = _poles(alpha, z)
    root = np.sqrt(poles).real
    mu, h, n = _CONTOURS[int(_contour_choice(root)[0])]
    sigma, c = _contour_rule(alpha, beta, mu, h, n)
    terms = c / (sigma - x)
    p = poles[0][root[0] > math.sqrt(mu)]
    residue = (np.exp(p) * p ** (1.0 - beta)).sum() / alpha
    value = (terms.sum() + residue).real
    return value, 2.220446049250313e-16 * (np.abs(terms).sum() + abs(residue))


# both contours: the negative axis and the positive axis from the first
# contour, and the positive arguments whose pole lies near it from the second
@settings(max_examples=80, deadline=None)
@given(alpha=st.floats(0.5, 1.0, exclude_min=True), beta=st.sampled_from(("a", 1.0, "a+")),
       x=st.one_of(st.floats(-80.0, 0.0), st.floats(0.2, 2.5), st.floats(2.5, 20.0)))
def test_real_argument_half_contour_matches_two_sided_sum(alpha, beta, x):
    beta = {"a": alpha, "a+": alpha + 0.5}.get(beta, beta)
    if alpha == 1.0 and beta == 1.0:
        return  # served by exp, not by the contour
    want, err = _two_sided(alpha, beta, x)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", AccuracyWarning)
        got = ml_scalar(alpha, beta, x)
    assert abs(got - want) <= 4.0 * err, (got, want, err)


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


def test_rl_operator_validation():
    with pytest.raises(ValueError):
        rl_integral_grid(np.ones(8), 1.5, 0.1)
    with pytest.raises(ValueError):
        rl_integral_grid(np.ones(8), 0.5, 0.0)
    # an infinite step gave [0, inf, inf, ...]
    with pytest.raises(ValueError, match="^grid step must be finite and positive, got inf$"):
        rl_integral_grid(np.ones(8), 0.5, math.inf)


def _samples_with(node, value, shape=(9,)):
    f = np.ones(shape)
    f[node] = value
    return f


# a non-finite sample gave NaN at every later node (and an infinite one two
# RuntimeWarnings), although the nodes up to it do not depend on it
@pytest.mark.parametrize("samples,node", [
    pytest.param(_samples_with(6, math.nan), 6, id="nan"),
    pytest.param(_samples_with(3, math.inf), 3, id="inf"),
    pytest.param(_samples_with(0, -math.inf), 0, id="first-node"),
    pytest.param(_samples_with((8, 1), math.nan, (9, 2)), 8, id="column"),
])
def test_rl_integral_refuses_non_finite_samples(samples, node):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=f"^rl_integral_grid requires finite samples, "
                                             f"got a non-finite one at node {node}$"):
            rl_integral_grid(samples, 0.75, 0.1)


# a (6, 2, 3) array was convolved along its last axis, up to 0.37 off the
# per-column results, and a 0-D sample raised IndexError
@pytest.mark.parametrize("shape", [(6, 2, 3), ()], ids=["3-D", "0-D"])
def test_rl_integral_refuses_samples_of_another_shape(shape):
    with pytest.raises(ValueError, match=re.escape(
            f"rl_integral_grid requires samples of shape (N+1,) or (N+1, n), got {shape}")):
        rl_integral_grid(np.ones(shape), 0.75, 0.1)


def test_rl_integral_vector_valued():
    n_steps = 64
    dt = 1.0 / n_steps
    f = np.stack([np.ones(n_steps + 1), np.zeros(n_steps + 1)], axis=1)
    out = rl_integral_grid(f, 0.5, dt)
    assert out.shape == f.shape
    assert not out[:, 1].any()
    t = np.arange(n_steps + 1) * dt
    np.testing.assert_allclose(out[1:, 0], t[1:] ** 0.5 / gamma_fn(1.5), rtol=1e-12)
