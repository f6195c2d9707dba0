"""Closed-form stability constants and the certificate that bundles them.

For moment order p, fractional order a in (1/2, 1], horizon T, Lipschitz
constants (L_g, L_b, L_s), drift norm ||A|| and kernel bound
M = sup_{[0,T]} ||E_{a,a}(t^a A)||, with q = (pa-1)/(p-1), r = 1/q and
C_p = (p(p-1)/2)^(p/2):

* contraction driver
  Theta = 4^(p-1) [ L_g^p ||A||^p M^p B(q,q)^(p-1) T^(pa-1)
                  + L_b^p        M^p B(q,q)^(p-1) T^(pa-1)
                  + C_p L_s^p    M^p T^(p(a-1)+p/2) B(2a-1,2a-1)^(p/2) ],
* contraction constant Theta / (1 - 4^(p-1) L_g^p) while the neutral gate
  4^(p-1) L_g^p stays below 1, and +inf otherwise (only :func:`certify`
  forms it),
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

``certify`` decides both verdicts and names the first failed hypothesis of
the stability verdict.  C_p, which the certificate reports, is refused from
p = 152 on, where it overflows a double, with a ``ValueError`` naming p.
Every other product of powers is taken in logarithms where a power or the
plain product leaves the doubles (an overflowing factor beside an
underflowing one), so no constant is NaN or infinite: one whose value is
past the largest double exceeds 1, and is refused with a
:class:`CriterionError` (also a ``ValueError``) naming p and the constant.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

from .coefficients import CoefficientSet
from .errors import CriterionError
from .fraccalc import FractionalOrder, beta_fn
from .spectral import SectorVerdict, eigenvalues, matrix_norm, ml_norm_sup, sector_check

__all__ = [
    "CriterionInputs",
    "Certificate",
    "c_p",
    "theta",
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
        for name in ("T", "L_g", "L_b", "L_sigma", "A_norm", "M"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        if not self.T > 0:
            raise ValueError(f"T must be positive, got {self.T}")
        for name, val in (("L_g", self.L_g), ("L_b", self.L_b), ("L_sigma", self.L_sigma)):
            if not val >= 0:
                raise ValueError(f"{name} must be nonnegative, got {val}")
        if not (self.A_norm >= 0 and self.M > 0):
            raise ValueError(f"A_norm must be >= 0 and M > 0, got {self.A_norm} and {self.M}")


@dataclass(frozen=True)
class Certificate:
    """Every computed stability constant plus the derived verdicts.

    ``contraction`` is +inf when the neutral gate 4^(p-1) L_g^p reaches 1
    (the fixed-point argument fails structurally).  Verdicts are
    recomputable from the stored numbers and the coefficient set: existence
    requires the gate and the contraction constant below 1; stability
    requires sector membership, coefficients verified to satisfy the
    theorem's hypotheses (``CoefficientSet.assumptions_verified``) and the
    stability constant below 1, and ``stability_note`` names the first of
    these that fails (None when the verdict holds).  ``theta`` and
    ``k_stab`` are both reported; the theory states them independently.
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
    stability_note: str | None


def _is_zero(term) -> bool:
    """Whether a product of (b, e) powers is exactly zero: a zero base."""
    return any(b == 0 and e > 0 for b, e in term)


def _log_power_sum(lead, terms) -> float:
    """log of lead_b^lead_e times the sum over ``terms`` of prod b^e, each a
    list of (b, e) pairs with b >= 0."""
    logs = [math.fsum(e * math.log(b) for b, e in (lead, *term) if e != 0)
            for term in terms if not _is_zero(term)]
    if not logs:
        return -math.inf
    top = max(logs)
    return top + math.log(math.fsum(math.exp(x - top) for x in logs))


def _power_sum(name: str, p: int, lead, *terms) -> float:
    """lead_b^lead_e times the sum over ``terms`` of prod b^e, each a list of
    (b, e) pairs with b >= 0.

    The plain expression, with its bits, when every power is a double, the
    value is finite and no term lost every digit to underflow; otherwise the
    same sum in logarithms.  A value past the largest double is refused
    with :class:`CriterionError`.
    """
    try:
        products = [math.prod([float(b) ** e for b, e in term]) for term in terms]
        value = float(lead[0]) ** lead[1] * sum(products)
        if math.isfinite(value) and (0.0 not in products or all(
                x > 0 or _is_zero(t) for x, t in zip(products, terms))):
            return value
    except OverflowError:  # a power past the doubles, which the logarithms take
        pass
    log_value = _log_power_sum(lead, terms)
    if not log_value < math.log(sys.float_info.max):  # also NaN, from an infinite input
        raise CriterionError(f"{name} overflows a double at p = {p}")
    return math.exp(log_value)


def c_p(p: int) -> float:
    """Moment constant (p(p-1)/2)^(p/2) from the Burkholder-type bound."""
    try:
        return (p * (p - 1) / 2.0) ** (p / 2.0)
    except OverflowError:
        raise ValueError(f"C_p overflows a double at p = {p}") from None


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
    m_p, bq = (inputs.M, p), (beta_fn(q, q), p - 1)
    t_drift = (inputs.T, p * alpha - 1.0)
    return _power_sum(
        "Theta", p, (4.0, p - 1),
        [(inputs.L_g, p), (inputs.A_norm, p), m_p, bq, t_drift],
        [(inputs.L_b, p), m_p, bq, t_drift],
        [(c_p(p), 1), (inputs.L_sigma, p), m_p, (inputs.T, p * (alpha - 1.0) + p / 2.0),
         (beta_fn(2 * alpha - 1.0, 2 * alpha - 1.0), p / 2.0)])


def neutral_gate(inputs: CriterionInputs) -> float:
    p = inputs.order.p
    return _power_sum("the neutral gate", p, (4.0, p - 1), [(inputs.L_g, p)])


def stability_constant(inputs: CriterionInputs) -> float:
    """Hoelder-form constant of the epsilon-delta stability argument."""
    alpha, p = inputs.order.alpha, inputs.order.p
    _validate_exponents(inputs.order)
    r = (p - 1.0) / (p * alpha - 1.0)
    m_p, r_p = (inputs.M, p), (r, p - 1)
    t_drift = (inputs.T, p * alpha - 1.0)
    return _power_sum(
        "k_stab", p, (6.0, p - 1),
        [(inputs.L_g, p)],
        [(inputs.L_g, p), (inputs.A_norm, p), m_p, r_p, t_drift],
        [(inputs.L_b, p), m_p, r_p, t_drift],
        [(c_p(p), 1), (inputs.L_sigma, p), m_p,
         (inputs.T ** (2 * alpha - 1.0) / (2 * alpha - 1.0), p / 2.0)])


def delta_for_epsilon(inputs: CriterionInputs, epsilon: float) -> float:
    """Largest admissible delta (times 0.99) for a given epsilon.

    Raises :class:`CriterionError` unless the stability constant is below 1,
    in which case no delta exists by this sufficient condition.  Always
    returns 0 <= delta <= epsilon; a denominator that leaves the doubles, or
    one of whose powers does, is taken in logarithms.
    """
    if not (math.isfinite(epsilon) and epsilon > 0):
        raise ValueError(f"epsilon must be finite and positive, got {epsilon}")
    k = stability_constant(inputs)
    if not k < 1.0:
        raise CriterionError(f"criterion fails: stability constant {k:.6g} is not below 1")
    alpha, p = inputs.order.alpha, inputs.order.p
    denom = [(6.0, p - 1), (inputs.M, p), (inputs.T, p * (alpha - 1.0))]
    try:
        plain = math.prod(float(b) ** e for b, e in denom)
    except OverflowError:  # a power past the doubles, which the logarithms take
        plain = math.inf
    if 0.0 < plain < math.inf:
        bound = (1.0 - k) * epsilon / plain
    else:
        log_bound = math.log(1.0 - k) + math.log(epsilon) - _log_power_sum((1.0, 1), [denom])
        bound = math.exp(log_bound) if log_bound < math.log(epsilon) else epsilon
    return 0.99 * min(epsilon, bound)


def caputo_ms_criterion(inputs: CriterionInputs) -> float:
    """Mean-square criterion value for the Caputo-derivative variant (p=2);
    the verdict is (value < 1)."""
    if inputs.order.p != 2:
        raise ValueError("the mean-square criterion is stated only for p = 2")
    alpha = inputs.order.alpha
    factor = [(inputs.M, 2), (inputs.T, 2 * alpha - 1.0), (2 * alpha - 1.0, -1)]
    return _power_sum("the Caputo criterion", 2, (4.0, 1),
                      [(inputs.L_g, 2), (inputs.A_norm, 2), *factor],
                      [(inputs.L_b, 2), *factor], [(inputs.L_sigma, 2), *factor])


def certify(a_mat, coeffs: CoefficientSet, order: FractionalOrder, T: float,
            m_override: float | None = None) -> Certificate:
    """Compose sector check, kernel bound and all constants into a Certificate.

    ``m_override`` substitutes a caller-supplied kernel bound M for the grid
    scan (e.g. the crude analytic choice M = 1 used in worked comparisons).
    Raises ``ValueError`` when the scanned M is not finite: the kernel
    E_{a,a}(t^a A) overflowed on [0, T], and no constant can be built on it.
    """
    sector = sector_check(eigenvalues(a_mat), order.alpha)
    if m_override is not None:
        m_val = float(m_override)
    else:
        m_val = ml_norm_sup(a_mat, order.alpha, T)
        if not math.isfinite(m_val):
            raise ValueError(
                f"the kernel E_{{a,a}}(t^a A) overflowed on [0, T] (T={T}, a={order.alpha}): "
                f"M = sup ||E_{{a,a}}(t^a A)|| is {m_val}, so no certificate can be built")
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
    contraction = th / (1.0 - gate) if gate < 1.0 else math.inf
    k = stability_constant(inputs)
    if not sector.in_sector:
        note = "spectrum outside the stability sector"
    elif not coeffs.assumptions_verified:
        note = "coefficients not verified to vanish at zero"
    elif not k < 1.0:  # also a NaN k
        note = "criterion fails"
    else:
        note = None
    return Certificate(
        theta=th,
        c_p=c_p(order.p),
        contraction=contraction,
        k_stab=k,
        neutral_gate=gate,
        sector=sector,
        verdict_existence=(gate < 1.0 and contraction < 1.0),
        verdict_stability=note is None,
        inputs=inputs,
        stability_note=note,
    )
