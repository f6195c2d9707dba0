"""Closed-form stability constants and the certificate that bundles them.

For moment order p, fractional order a in (1/2, 1], horizon T, Lipschitz
constants (L_g, L_b, L_s), drift norm ||A|| and kernel bound
M = sup_{[0,T]} ||E_{a,a}(t^a A)||, with q = (pa-1)/(p-1), r = 1/q and
C_p = (p(p-1)/2)^(p/2):

* contraction driver
  Theta = 4^(p-1) [ L_g^p ||A||^p M^p B(q,q)^(p-1) T^(pa-1)
                  + L_b^p        M^p B(q,q)^(p-1) T^(pa-1)
                  + C_p L_s^p    M^p T^(p(a-1)+p/2) B(2a-1,2a-1)^(p/2) ],
* contraction constant Theta / (1 - 4^(p-1) L_g^p), defined while the
  neutral gate 4^(p-1) L_g^p stays below 1,
* stability constant (Hoelder form, exactly as used in the epsilon-delta
  argument; it is NOT derived from Theta and neither implies the other)
  k = 6^(p-1) [ L_g^p + L_g^p ||A||^p M^p r^(p-1) T^(pa-1)
              + L_b^p M^p r^(p-1) T^(pa-1)
              + C_p L_s^p M^p (T^(2a-1)/(2a-1))^(p/2) ],
* the largest admissible moment bound for a given epsilon,
  delta = 0.99 * min(eps, (1 - k) eps / (6^(p-1) M^p T^(p(a-1)))),
  returned with a 0.99 safety factor so the defining inequality is strict,
* the mean-square criterion for the Caputo variant (p = 2 only)
  4 (L_g^2 ||A||^2 + L_b^2 + L_s^2) M^2 T^(2a-1)/(2a-1) < 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .coefficients import CoefficientSet
from .errors import CriterionError, NeutralTermError
from .fraccalc import FractionalOrder, beta_fn
from .spectral import SectorVerdict, eigenvalues, matrix_norm, ml_norm_sup, sector_check

__all__ = [
    "CriterionInputs",
    "Certificate",
    "c_p",
    "theta",
    "contraction_constant",
    "stability_constant",
    "delta_for_epsilon",
    "caputo_ms_criterion",
    "certify",
]


@dataclass(frozen=True)
class CriterionInputs:
    order: FractionalOrder
    T: float
    L_g: float
    L_b: float
    L_sigma: float
    A_norm: float
    M: float

    def __post_init__(self):
        if self.T <= 0:
            raise ValueError(f"T must be positive, got {self.T}")
        for name, val in (("L_g", self.L_g), ("L_b", self.L_b), ("L_sigma", self.L_sigma)):
            if val < 0:
                raise ValueError(f"{name} must be nonnegative, got {val}")
        if self.A_norm < 0 or self.M <= 0:
            raise ValueError("A_norm must be >= 0 and M > 0")


@dataclass(frozen=True)
class Certificate:
    """Every computed stability constant plus the derived verdicts.

    ``contraction`` is +inf when the neutral gate 4^(p-1) L_g^p reaches 1
    (the fixed-point argument fails structurally).  Verdicts are
    recomputable from the stored numbers: existence requires the gate and
    the contraction constant below 1; stability requires sector membership
    and the stability constant below 1.  ``theta`` and ``k_stab`` are both
    reported; the theory states them independently.
    """

    theta: float
    c_p: float
    contraction: float
    k_stab: float
    neutral_gate: float
    sector: SectorVerdict
    verdict_existence: bool
    verdict_stability: bool
    inputs: CriterionInputs
    assumption_note: str = (
        "integrability/essential-boundedness of b(.,0), sigma(.,0) implied by "
        "the vanishing condition for built-in families; recorded, not enforced"
    )


def c_p(p: int) -> float:
    """Moment constant (p(p-1)/2)^(p/2) from the Burkholder-type bound."""
    return (p * (p - 1) / 2.0) ** (p / 2.0)


def _validate_exponents(order: FractionalOrder):
    alpha, p = order.alpha, order.p
    if 2.0 * alpha - 1.0 <= 0.0:
        raise ValueError(f"2*alpha - 1 must be positive, got alpha={alpha}")
    q = (p * alpha - 1.0) / (p - 1.0)
    if q <= 0.0:
        raise ValueError(f"(p*alpha - 1)/(p - 1) must be positive, got {q}")
    return q


def theta(inputs: CriterionInputs) -> float:
    """Contraction driver Theta (see module docstring)."""
    alpha, p = inputs.order.alpha, inputs.order.p
    q = _validate_exponents(inputs.order)
    bq = beta_fn(q, q) ** (p - 1)
    b2 = beta_fn(2 * alpha - 1.0, 2 * alpha - 1.0) ** (p / 2.0)
    mp_ = inputs.M**p
    t_drift = inputs.T ** (p * alpha - 1.0)
    t_noise = inputs.T ** (p * (alpha - 1.0) + p / 2.0)
    return 4.0 ** (p - 1) * (
        inputs.L_g**p * inputs.A_norm**p * mp_ * bq * t_drift
        + inputs.L_b**p * mp_ * bq * t_drift
        + c_p(p) * inputs.L_sigma**p * mp_ * t_noise * b2
    )


def neutral_gate(inputs: CriterionInputs) -> float:
    return 4.0 ** (inputs.order.p - 1) * inputs.L_g ** inputs.order.p


def contraction_constant(inputs: CriterionInputs) -> float:
    """Theta / (1 - 4^(p-1) L_g^p); existence verdict is (result < 1)."""
    gate = neutral_gate(inputs)
    if gate >= 1.0:
        raise NeutralTermError(
            f"neutral term too strong: 4^(p-1) L_g^p = {gate:.6g} >= 1"
        )
    return theta(inputs) / (1.0 - gate)


def stability_constant(inputs: CriterionInputs) -> float:
    """Hoelder-form constant of the epsilon-delta stability argument."""
    alpha, p = inputs.order.alpha, inputs.order.p
    _validate_exponents(inputs.order)
    r = (p - 1.0) / (p * alpha - 1.0)
    mp_ = inputs.M**p
    t_drift = inputs.T ** (p * alpha - 1.0)
    noise = (inputs.T ** (2 * alpha - 1.0) / (2 * alpha - 1.0)) ** (p / 2.0)
    return 6.0 ** (p - 1) * (
        inputs.L_g**p
        + inputs.L_g**p * inputs.A_norm**p * mp_ * r ** (p - 1) * t_drift
        + inputs.L_b**p * mp_ * r ** (p - 1) * t_drift
        + c_p(p) * inputs.L_sigma**p * mp_ * noise
    )


def delta_for_epsilon(inputs: CriterionInputs, epsilon: float) -> float:
    """Largest admissible delta (times 0.99) for a given epsilon.

    Raises :class:`CriterionError` unless the stability constant is below 1
    (a NaN constant included), in which case no delta exists by this
    sufficient condition.  Always returns delta <= epsilon.
    """
    if epsilon <= 0:
        raise ValueError(f"epsilon must be positive, got {epsilon}")
    k = stability_constant(inputs)
    if not k < 1.0:  # also a NaN k
        raise CriterionError(f"criterion fails: stability constant {k:.6g} is not below 1")
    alpha, p = inputs.order.alpha, inputs.order.p
    denom = 6.0 ** (p - 1) * inputs.M**p * inputs.T ** (p * (alpha - 1.0))
    return 0.99 * min(epsilon, (1.0 - k) * epsilon / denom)


def caputo_ms_criterion(inputs: CriterionInputs) -> float:
    """Mean-square criterion value for the Caputo-derivative variant (p=2);
    the verdict is (value < 1)."""
    if inputs.order.p != 2:
        raise ValueError("the mean-square criterion is stated only for p = 2")
    alpha = inputs.order.alpha
    factor = inputs.M**2 * inputs.T ** (2 * alpha - 1.0) / (2 * alpha - 1.0)
    return 4.0 * (
        inputs.L_g**2 * inputs.A_norm**2 + inputs.L_b**2 + inputs.L_sigma**2
    ) * factor


def certify(a_mat, coeffs: CoefficientSet, order: FractionalOrder, T: float,
            m_override: float | None = None, n_norm_nodes=256) -> Certificate:
    """Compose sector check, kernel bound and all constants into a Certificate.

    ``m_override`` substitutes a caller-supplied kernel bound M for the grid
    scan (e.g. the crude analytic choice M = 1 used in worked comparisons).
    """
    sector = sector_check(eigenvalues(a_mat), order.alpha)
    m_val = float(m_override) if m_override is not None else ml_norm_sup(
        a_mat, order.alpha, T, n_norm_nodes
    )
    inputs = CriterionInputs(
        order=order,
        T=T,
        L_g=coeffs.L_g,
        L_b=coeffs.L_b,
        L_sigma=coeffs.L_sigma,
        A_norm=matrix_norm(a_mat),
        M=m_val,
    )
    th = theta(inputs)
    gate = neutral_gate(inputs)
    try:
        contraction = contraction_constant(inputs)
    except NeutralTermError:
        contraction = math.inf
    k = stability_constant(inputs)
    return Certificate(
        theta=th,
        c_p=c_p(order.p),
        contraction=contraction,
        k_stab=k,
        neutral_gate=gate,
        sector=sector,
        verdict_existence=(gate < 1.0 and contraction < 1.0),
        verdict_stability=(sector.in_sector and k < 1.0),
        inputs=inputs,
    )
