"""Stability constants against an independently coded formula oracle."""

import decimal
import math

import numpy as np
import pytest

from fracstab import (
    CoefficientSet,
    CriterionInputs,
    FractionalOrder,
    TimeGrid,
    beta_fn,
    caputo_ms_criterion,
    certify,
    delta_for_epsilon,
    make_additive_noise,
    make_linear,
    pth_moment_curve,
    rl_integral_grid,
    stability_constant,
    stability_verdict,
    theta,
)
from fracstab.criteria import c_p, neutral_gate
from fracstab.errors import CriterionError

from homogeneous import closed_form_homogeneous


# Oracle: the same constants written out directly from their definitions,
# sharing no code with the package (math.gamma only).

def oracle_beta(a, b):
    return math.gamma(a) * math.gamma(b) / math.gamma(a + b)


def oracle_cp(p):
    return (p * (p - 1) / 2.0) ** (p / 2.0)


def oracle_theta(p, alpha, T, lg, lb, ls, a_norm, m):
    q = (p * alpha - 1.0) / (p - 1.0)
    term1 = lg**p * a_norm**p * m**p * oracle_beta(q, q) ** (p - 1) * T ** (p * alpha - 1)
    term2 = lb**p * m**p * oracle_beta(q, q) ** (p - 1) * T ** (p * alpha - 1)
    term3 = (oracle_cp(p) * ls**p * m**p * T ** (p * (alpha - 1) + p / 2.0)
             * oracle_beta(2 * alpha - 1, 2 * alpha - 1) ** (p / 2.0))
    return 4.0 ** (p - 1) * (term1 + term2 + term3)


def oracle_k_stab(p, alpha, T, lg, lb, ls, a_norm, m):
    r = (p - 1.0) / (p * alpha - 1.0)
    inner = (lg**p
             + lg**p * a_norm**p * m**p * r ** (p - 1) * T ** (p * alpha - 1)
             + lb**p * m**p * r ** (p - 1) * T ** (p * alpha - 1)
             + oracle_cp(p) * ls**p * m**p * (T ** (2 * alpha - 1) / (2 * alpha - 1)) ** (p / 2.0))
    return 6.0 ** (p - 1) * inner


def oracle_delta(p, alpha, T, lg, lb, ls, a_norm, m, eps):
    k = oracle_k_stab(p, alpha, T, lg, lb, ls, a_norm, m)
    return 0.99 * min(eps, (1.0 - k) * eps / (6.0 ** (p - 1) * m**p * T ** (p * (alpha - 1))))


def oracle_caputo(alpha, T, lg, lb, ls, a_norm, m):
    f = m**2 * T ** (2 * alpha - 1) / (2 * alpha - 1)
    return 4.0 * (lg**2 * a_norm**2 * f + lb**2 * f + ls**2 * f)


def bench_inputs(**overrides):
    params = dict(order=FractionalOrder(0.75, 2), T=1.0, L_g=0.05, L_b=0.05,
                  L_sigma=0.05, A_norm=1.0, M=1.0)
    params.update(overrides)
    return CriterionInputs(**params)


def contraction(inputs):
    """The contraction constant of ``inputs``, which only ``certify`` forms:
    that of a scalar linear system with the same norms, M overridden."""
    cert = certify(np.array([[-inputs.A_norm]]),
                   make_linear([[inputs.L_g]], [[inputs.L_b]], [[inputs.L_sigma]]),
                   inputs.order, inputs.T, m_override=inputs.M)
    assert cert.inputs == inputs
    return cert.contraction


def test_worked_values_to_six_digits():
    inputs = bench_inputs()
    assert theta(inputs) == pytest.approx(0.03 * math.pi, rel=1e-12)
    assert theta(inputs) == pytest.approx(0.0942478, rel=1e-6)
    assert contraction(inputs) == pytest.approx(0.03 * math.pi / 0.99, rel=1e-12)
    assert stability_constant(inputs) == pytest.approx(0.105, rel=1e-12)
    assert delta_for_epsilon(inputs, 1.0) == pytest.approx(0.99 * 0.895 / 6.0, rel=1e-12)
    assert caputo_ms_criterion(inputs) == pytest.approx(0.06, rel=1e-12)


def test_constants_match_oracle_on_grid():
    orders = [FractionalOrder(a, p) for a in (0.6, 0.75, 0.9) for p in (2, 3, 4)]
    rng = np.random.default_rng(5)
    for order in orders:
        for _ in range(5):
            lg, lb, ls = rng.uniform(0.0, 0.2, 3)
            a_norm = rng.uniform(0.1, 3.0)
            m = rng.uniform(0.5, 2.0)
            T = rng.uniform(0.5, 10.0)
            inputs = CriterionInputs(order=order, T=T, L_g=lg, L_b=lb, L_sigma=ls,
                                     A_norm=a_norm, M=m)
            args = (order.p, order.alpha, T, lg, lb, ls, a_norm, m)
            assert theta(inputs) == pytest.approx(oracle_theta(*args), rel=5e-13)
            assert stability_constant(inputs) == pytest.approx(oracle_k_stab(*args), rel=5e-13)
            if oracle_k_stab(*args) < 1.0:
                assert delta_for_epsilon(inputs, 2.0) == pytest.approx(
                    oracle_delta(*args, 2.0), rel=5e-13)


def test_mean_square_specialisation_consistency():
    # independent p = 2 reduction: B(1/2,1/2) = pi, C_2 = 1
    for alpha in (0.6, 0.75, 0.9):
        for T in (0.5, 1.0, 4.0):
            inputs = bench_inputs(order=FractionalOrder(alpha, 2), T=T,
                                  L_g=0.03, L_b=0.07, L_sigma=0.02, A_norm=1.4, M=0.9)
            q = (2 * alpha - 1.0)
            direct = 4.0 * (
                (0.03**2 * 1.4**2 + 0.07**2) * 0.9**2 * oracle_beta(q, q) * T**q
                + 0.02**2 * 0.9**2 * T ** (2 * (alpha - 1) + 1) * oracle_beta(q, q)
            )
            assert theta(inputs) == pytest.approx(direct, rel=1e-12)


def test_zero_lipschitz_trivia():
    inputs = bench_inputs(L_g=0.0, L_b=0.0, L_sigma=0.0)
    assert theta(inputs) == 0.0
    assert contraction(inputs) == 0.0
    assert stability_constant(inputs) == 0.0
    assert delta_for_epsilon(inputs, 1.0) == pytest.approx(0.99 * min(1.0, 1.0 / 6.0))
    assert caputo_ms_criterion(inputs) == 0.0


def test_theta_monotone_in_horizon():
    t1 = theta(bench_inputs(T=1.0))
    t2 = theta(bench_inputs(T=2.0))
    assert t2 > t1


def test_monotone_in_each_argument():
    base = bench_inputs()
    for fn in (theta, stability_constant, contraction):
        ref = fn(base)
        for kw in ("L_g", "L_b", "L_sigma", "M", "A_norm", "T"):
            bumped = bench_inputs(**{kw: getattr(base, kw) * 1.5})
            assert fn(bumped) >= ref, (fn.__name__, kw)


def test_theta_homogeneity_in_lipschitz_constants():
    for p in (2, 3):
        base = bench_inputs(order=FractionalOrder(0.75, p))
        for c in (0.5, 2.0):
            scaled = bench_inputs(order=FractionalOrder(0.75, p),
                                  L_g=0.05 * c, L_b=0.05 * c, L_sigma=0.05 * c)
            assert theta(scaled) == pytest.approx(c**p * theta(base), rel=1e-12)


def test_caputo_quadratic_scaling_and_p_rejection():
    base = bench_inputs()
    scaled = bench_inputs(L_g=0.1, L_b=0.1, L_sigma=0.1)
    assert caputo_ms_criterion(scaled) == pytest.approx(4.0 * caputo_ms_criterion(base), rel=1e-12)
    with pytest.raises(ValueError):
        caputo_ms_criterion(bench_inputs(order=FractionalOrder(0.75, 4)))


def test_neutral_gate_boundary():
    inputs = bench_inputs(L_g=0.5)  # 4 * 0.25 = 1 exactly
    cert = certify(np.array([[-1.0]]), make_linear([[0.5]], [[0.05]], [[0.05]]),
                   inputs.order, inputs.T, m_override=1.0)
    assert cert.inputs == inputs
    assert cert.neutral_gate == 1.0
    assert cert.contraction == math.inf
    assert not cert.verdict_existence


def test_delta_requires_subunit_stability_constant():
    inputs = bench_inputs(L_sigma=3.0)
    assert stability_constant(inputs) >= 1.0
    with pytest.raises(CriterionError):
        delta_for_epsilon(inputs, 1.0)


def test_non_finite_inputs_are_refused():
    # an infinite input is refused by name, not built on: with M = inf a
    # certificate passed, and delta fell back to epsilon through inf - inf
    for field in ("T", "L_g", "L_b", "L_sigma", "A_norm", "M"):
        with pytest.raises(ValueError, match=f"^{field} must be finite, got inf$"):
            bench_inputs(**{field: math.inf})
    for g in ([[math.nan]], [[math.inf]]):
        with pytest.raises(ValueError, match="finite"):
            make_linear(g, [[0.0]], [[0.0]])


def _curve():
    grid = TimeGrid(T=1.0, N=64)
    single = closed_form_homogeneous(np.array([[-1.0]]), np.array([1.0]), 0.75, grid)
    return pth_moment_curve(single, 2)


def _zero(t, x):
    return 0.0 * x


NAN_CASES = {
    "TimeGrid.T": lambda: TimeGrid(T=math.nan, N=4),
    **{f"CriterionInputs.{field}": (lambda field=field: bench_inputs(**{field: math.nan}))
       for field in ("T", "L_g", "L_b", "L_sigma", "A_norm", "M")},
    **{f"CoefficientSet.{field}": (lambda field=field: CoefficientSet(
        _zero, _zero, _zero, **{"L_g": 0.0, "L_b": 0.0, "L_sigma": 0.0, field: math.nan}))
       for field in ("L_g", "L_b", "L_sigma")},
    "delta_for_epsilon.epsilon": lambda: delta_for_epsilon(bench_inputs(), math.nan),
    "rl_integral_grid.dt": lambda: rl_integral_grid(np.ones(5), 0.75, math.nan),
    "stability_verdict.epsilon": lambda: stability_verdict(_curve(), math.nan, 0.01),
    "stability_verdict.tail_tol": lambda: stability_verdict(_curve(), 1.0, math.nan),
    "beta_fn": lambda: beta_fn(math.nan, 0.5),
}


@pytest.mark.parametrize("make", list(NAN_CASES.values()), ids=list(NAN_CASES))
def test_nan_fails_the_range_checks(make):
    with pytest.raises(ValueError):
        make()


def test_certificate_refuses_an_infinite_kernel_bound():
    zero = np.zeros((1, 1))
    with pytest.raises(ValueError, match="^M must be finite"):
        certify(np.array([[-1.0]]), make_linear(zero, zero, zero), FractionalOrder(0.75, 2),
                5.0, m_override=math.inf)


def test_delta_never_exceeds_epsilon():
    rng = np.random.default_rng(2)
    for _ in range(50):
        inputs = bench_inputs(T=rng.uniform(0.2, 20.0), M=rng.uniform(0.2, 1.5),
                              L_g=rng.uniform(0, 0.1), L_b=rng.uniform(0, 0.1),
                              L_sigma=rng.uniform(0, 0.1))
        eps = rng.uniform(0.01, 5.0)
        if stability_constant(inputs) < 1.0:
            assert delta_for_epsilon(inputs, eps) <= eps


def test_certify_stable_benchmark():
    coeffs = make_linear([[0.05]], [[0.05]], [[0.05]])
    cert = certify(np.array([[-1.0]]), coeffs, FractionalOrder(0.75, 2), T=1.0)
    assert cert.verdict_existence
    assert cert.verdict_stability
    assert cert.sector.in_sector
    assert cert.inputs.M == pytest.approx(0.8160489390982630, rel=1e-10)
    assert cert.contraction >= cert.theta
    assert cert.c_p == 1.0
    assert cert.stability_note is None
    assert cert.contraction == theta(cert.inputs) / (1.0 - cert.neutral_gate)
    # flags recomputable from the stored numbers
    assert cert.verdict_existence == (cert.neutral_gate < 1 and cert.contraction < 1)
    assert cert.verdict_stability == (cert.sector.in_sector and coeffs.assumptions_verified
                                      and cert.k_stab < 1)


def test_certify_out_of_sector_never_stable():
    coeffs = make_linear([[0.0]], [[0.0]], [[0.0]])
    cert = certify(np.array([[1.0]]), coeffs, FractionalOrder(0.75, 2), T=1.0)
    assert not cert.sector.in_sector
    assert not cert.verdict_stability
    assert cert.stability_note == "spectrum outside the stability sector"


def test_certify_unverified_coefficients_never_stable():
    # additive noise does not vanish at zero: the theorem does not apply,
    # whatever its constants say
    cert = certify(np.array([[-1.0]]), make_additive_noise(0.5), FractionalOrder(0.75, 2),
                   T=1.0)
    assert cert.sector.in_sector and cert.k_stab < 1.0
    assert not cert.verdict_stability
    assert cert.stability_note == "coefficients not verified to vanish at zero"
    # the sector is named first when both hypotheses fail
    outside = certify(np.array([[1.0]]), make_additive_noise(0.5), FractionalOrder(0.75, 2),
                      T=1.0)
    assert outside.stability_note == "spectrum outside the stability sector"


def test_certify_names_a_stability_constant_not_below_one():
    coeffs = make_linear([[0.05]], [[0.05]], [[3.0]])
    cert = certify(np.array([[-1.0]]), coeffs, FractionalOrder(0.75, 2), T=1.0)
    assert cert.sector.in_sector and cert.k_stab >= 1.0
    assert not cert.verdict_stability
    assert cert.stability_note == "criterion fails"


def test_certify_strong_neutral_term_kills_existence():
    coeffs = make_linear([[0.6]], [[0.0]], [[0.0]])
    cert = certify(np.array([[-1.0]]), coeffs, FractionalOrder(0.75, 2), T=1.0)
    assert cert.neutral_gate == pytest.approx(4 * 0.36, rel=1e-12)
    assert not cert.verdict_existence
    assert cert.contraction == math.inf


def _order_inputs(p, **kw):
    return bench_inputs(order=FractionalOrder(0.75, p), **kw)


# C_p = (p(p-1)/2)^(p/2) leaves the doubles at p = 152, and is refused as it
# is reported; M = 1e3 takes M^p out at p = 103, and there Theta and k_stab
# themselves are past the largest double; with L_g = 1 the gate is 4^512 =
# 2^1024 at p = 513, just past it
@pytest.mark.parametrize("call, message", [
    (lambda: c_p(152), "C_p overflows a double at p = 152"),
    (lambda: theta(_order_inputs(200)), "C_p overflows a double at p = 200"),
    (lambda: stability_constant(_order_inputs(200)), "C_p overflows a double at p = 200"),
    (lambda: theta(_order_inputs(103, M=1e3)), "Theta overflows a double at p = 103"),
    (lambda: stability_constant(_order_inputs(103, M=1e3)),
     "k_stab overflows a double at p = 103"),
    (lambda: neutral_gate(_order_inputs(513, L_g=1.0)),
     "the neutral gate overflows a double at p = 513"),
    (lambda: certify(np.array([[-1.0]]), make_linear([[0.05]], [[0.05]], [[0.05]]),
                     FractionalOrder(0.75, 200), T=1.0), "C_p overflows a double at p = 200"),
])
def test_overflowing_powers_of_p_are_refused(call, message):
    with pytest.raises(ValueError, match=message):
        call()


def test_constants_one_order_below_the_overflow_are_numbers():
    assert math.isfinite(c_p(151))
    assert math.isfinite(neutral_gate(_order_inputs(512)))
    inputs = _order_inputs(151, T=1e-8, L_g=0.0, L_b=0.0, L_sigma=0.0)
    assert math.isfinite(delta_for_epsilon(inputs, 1.0))


def _huge_and_tiny(**kw):
    # L_g^p ||A||^p M^p overflows a double while T^(pa-1) underflows to 0:
    # the plain products are inf * 0
    return _order_inputs(100, T=1e-5, A_norm=100.0, M=1e3, **kw)


def _decimal_theta_and_k(inputs):
    """Theta and k_stab in 40-digit decimals, whose exponents do not leave
    the range; every power of T here has an integer exponent."""
    alpha, p = inputs.order.alpha, inputs.order.p
    q = (p * alpha - 1.0) / (p - 1.0)
    with decimal.localcontext() as ctx:
        ctx.prec, ctx.Emax, ctx.Emin = 40, 10**6, -10**6
        d = decimal.Decimal
        lg, lb, ls, a, m, t = (d(x) for x in (inputs.L_g, inputs.L_b, inputs.L_sigma,
                                               inputs.A_norm, inputs.M, inputs.T))
        drift = t ** int(p * alpha - 1.0)
        bq = d(beta_fn(q, q)) ** (p - 1)
        r = d(p - 1) / d(p * alpha - 1.0)
        noise_t = t ** int(p * (alpha - 0.5))
        th = 4 ** (p - 1) * (lg**p * a**p * m**p * bq * drift + lb**p * m**p * bq * drift
                             + d(c_p(p)) * ls**p * m**p * noise_t
                             * d(beta_fn(2 * alpha - 1, 2 * alpha - 1)) ** (p // 2))
        k = 6 ** (p - 1) * (lg**p + lg**p * a**p * m**p * r ** (p - 1) * drift
                            + lb**p * m**p * r ** (p - 1) * drift
                            + d(c_p(p)) * ls**p * m**p * (2 * t.sqrt()) ** (d(p) / 2))
        return float(th), float(k)


def test_constants_whose_plain_products_fail_are_taken_in_logarithms():
    # no noise term: both constants are doubles (NaN before)
    inputs = _huge_and_tiny(L_sigma=0.0)
    want_theta, want_k = _decimal_theta_and_k(inputs)
    assert 1e80 < want_theta < 1e100 and 1e80 < want_k < 1e100
    assert theta(inputs) == pytest.approx(want_theta, rel=1e-12)
    assert stability_constant(inputs) == pytest.approx(want_k, rel=1e-12)
    with pytest.raises(CriterionError, match="stability constant .* is not below 1"):
        delta_for_epsilon(inputs, 1.0)
    # with the noise term both are past the largest double: refused, not NaN
    for fn, name in ((theta, "Theta"), (stability_constant, "k_stab")):
        with pytest.raises(CriterionError, match=f"^{name} overflows a double at p = 100$"):
            fn(_huge_and_tiny())
    # a product past the doubles whose powers are not (+inf before)
    with pytest.raises(CriterionError, match="^Theta overflows a double at p = 102$"):
        theta(_order_inputs(102, M=1e3))
    # the Caputo value past the doubles (+inf before)
    with pytest.raises(CriterionError, match="^the Caputo criterion overflows a double at p = 2$"):
        caputo_ms_criterion(bench_inputs(A_norm=1e10, M=1e154))


# A power past the doubles is taken in logarithms, as a product past them
# is: only a value past the largest double is refused
def test_constants_whose_powers_overflow_are_taken_in_logarithms():
    # M^2 = 1e320 and L^2 = 1e-322 leave the doubles, but only L M = 0.1 enters
    inputs = bench_inputs(M=1e160, L_g=1e-161, L_b=1e-161, L_sigma=1e-161)
    want_theta, want_k = _decimal_theta_and_k(inputs)
    assert theta(inputs) == pytest.approx(want_theta, rel=1e-12)
    assert stability_constant(inputs) == pytest.approx(want_k, rel=1e-12)
    # 4 (3 L^2 M^2) T^(2a-1)/(2a-1) at T = 1
    assert caputo_ms_criterion(inputs) == pytest.approx(0.24, rel=1e-12)
    # 4^512 leaves the doubles: 4^512 0.25^513 is 0.25, and 4^512 0.05^513
    # (about 1e-359) underflows to 0
    assert neutral_gate(_order_inputs(513, L_g=0.25)) == pytest.approx(0.25, rel=1e-12)
    assert neutral_gate(_order_inputs(513)) == 0.0
    # T^(p(a-1)) = 1e340 leaves the doubles, so the bound, about e^-1051, is 0
    inputs = _order_inputs(151, T=1e-9, L_g=0.0, L_b=0.0, L_sigma=0.0)
    assert delta_for_epsilon(inputs, 1.0) == 0.0


def test_delta_survives_an_underflowing_denominator():
    # M^p underflows, so 6^(p-1) M^p T^(p(a-1)) is 0 in doubles (a division
    # by zero before): the bound exceeds epsilon, and delta is 0.99 epsilon
    inputs = _order_inputs(40, M=1e-20)
    assert stability_constant(inputs) < 1.0
    assert delta_for_epsilon(inputs, 1.0) == 0.99
    assert delta_for_epsilon(inputs, 1e-300) == 0.99 * 1e-300


def test_certify_refuses_an_overflowed_kernel():
    coeffs = make_linear([[0.05]], [[0.05]], [[0.05]])
    with pytest.raises(ValueError, match="overflowed"):
        certify(np.array([[40.0]]), coeffs, FractionalOrder(0.75, 2), T=50.0)
    # complex eigenvalues: the overflowed kernel is infinite, not NaN
    two = make_linear(0.05 * np.eye(2), 0.05 * np.eye(2), 0.05 * np.eye(2))
    with pytest.raises(ValueError, match="overflowed.* is inf,"):
        certify(np.array([[40.0, 5.0], [-5.0, 40.0]]), two, FractionalOrder(0.75, 2), T=50.0)


def test_certify_m_override():
    coeffs = make_linear([[0.05]], [[0.05]], [[0.05]])
    cert = certify(np.array([[-1.0]]), coeffs, FractionalOrder(0.75, 2), T=1.0,
                   m_override=1.0)
    assert cert.inputs.M == 1.0
    assert cert.theta == pytest.approx(0.03 * math.pi, rel=1e-12)


def test_input_validation():
    with pytest.raises(ValueError):
        bench_inputs(T=-1.0)
    with pytest.raises(ValueError):
        bench_inputs(L_g=-0.1)
    with pytest.raises(ValueError):
        bench_inputs(M=0.0)
    assert neutral_gate(bench_inputs()) == pytest.approx(4 * 0.05**2)
    assert c_p(2) == 1.0 and c_p(4) == 36.0
