"""Stability constants against an independently coded formula oracle."""

import math

import numpy as np
import pytest

from fracstab import (
    CriterionInputs,
    FractionalOrder,
    caputo_ms_criterion,
    certify,
    contraction_constant,
    delta_for_epsilon,
    make_linear,
    stability_constant,
    theta,
)
from fracstab.criteria import c_p, neutral_gate
from fracstab.errors import CriterionError, NeutralTermError


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


def test_worked_values_to_six_digits():
    inputs = bench_inputs()
    assert theta(inputs) == pytest.approx(0.03 * math.pi, rel=1e-12)
    assert theta(inputs) == pytest.approx(0.0942478, rel=1e-6)
    assert contraction_constant(inputs) == pytest.approx(0.03 * math.pi / 0.99, rel=1e-12)
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
    assert contraction_constant(inputs) == 0.0
    assert stability_constant(inputs) == 0.0
    assert delta_for_epsilon(inputs, 1.0) == pytest.approx(0.99 * min(1.0, 1.0 / 6.0))
    assert caputo_ms_criterion(inputs) == 0.0


def test_theta_monotone_in_horizon():
    t1 = theta(bench_inputs(T=1.0))
    t2 = theta(bench_inputs(T=2.0))
    assert t2 > t1


def test_monotone_in_each_argument():
    base = bench_inputs()
    for fn in (theta, stability_constant, contraction_constant):
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
    with pytest.raises(NeutralTermError):
        contraction_constant(inputs)


def test_delta_requires_subunit_stability_constant():
    inputs = bench_inputs(L_sigma=3.0)
    assert stability_constant(inputs) >= 1.0
    with pytest.raises(CriterionError):
        delta_for_epsilon(inputs, 1.0)


def test_non_finite_inputs_are_refused():
    # a NaN stability constant is not below 1, so it admits no delta
    with pytest.raises(CriterionError):
        delta_for_epsilon(bench_inputs(M=math.nan), 1.0)
    for g in ([[math.nan]], [[math.inf]]):
        with pytest.raises(ValueError, match="finite"):
            make_linear(g, [[0.0]], [[0.0]])


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
    # flags recomputable from the stored numbers
    assert cert.verdict_existence == (cert.neutral_gate < 1 and cert.contraction < 1)
    assert cert.verdict_stability == (cert.sector.in_sector and cert.k_stab < 1)


def test_certify_out_of_sector_never_stable():
    coeffs = make_linear([[0.0]], [[0.0]], [[0.0]])
    cert = certify(np.array([[1.0]]), coeffs, FractionalOrder(0.75, 2), T=1.0)
    assert not cert.sector.in_sector
    assert not cert.verdict_stability


def test_certify_strong_neutral_term_kills_existence():
    coeffs = make_linear([[0.6]], [[0.0]], [[0.0]])
    cert = certify(np.array([[-1.0]]), coeffs, FractionalOrder(0.75, 2), T=1.0)
    assert cert.neutral_gate == pytest.approx(4 * 0.36, rel=1e-12)
    assert not cert.verdict_existence
    assert cert.contraction == math.inf


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
