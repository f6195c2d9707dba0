"""Coefficient triples (g, b, sigma) of the neutral system and their verifiers.

Coefficients map (t, x) -> R^n and must be globally Lipschitz in x with
declared constants and vanish at x = 0 for the stability theory to apply.
Two built-in families satisfy both by construction:

* linear      g(t, x) = G x  (Lipschitz constant = max row sum of G),
* bounded smooth  g(t, x) = c * sin(x) componentwise (constant |c|).

Constant (additive-noise) coefficients deliberately violate the vanishing
condition; they are provided for variance benchmarks and are flagged
``assumptions_verified=False`` so certificates cannot claim more than was
checked.

Callables must be pure, re-entrant, and vectorised over leading axes:
``f(t, x)`` with ``x`` of shape (..., n) returns the same shape.  ``t`` is a
float or an array that broadcasts against the leading axes of ``x``: the
marches call with one time and a batch of paths, a Picard sweep calls once
with the column ``times[:, None]`` and the whole path of shape (N+1, n).
Callables must therefore not branch on a scalar ``t`` (``if t > 1``); use
array operations such as ``np.where``.  The built-in families ignore ``t``
and act row by row, so a whole-path call gives the node-by-node values bit
for bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

__all__ = [
    "CoefficientSet",
    "LipschitzReport",
    "make_linear",
    "make_bounded_smooth",
    "make_additive_noise",
    "verify_lipschitz",
    "verify_vanishing",
]

CoefficientFn = Callable[[float | np.ndarray, np.ndarray], np.ndarray]


@dataclass(frozen=True)
class CoefficientSet:
    g: CoefficientFn
    b: CoefficientFn
    sigma: CoefficientFn
    L_g: float
    L_b: float
    L_sigma: float
    family_tag: str = "custom"
    assumptions_verified: bool = False

    def __post_init__(self):
        for name, val in (("L_g", self.L_g), ("L_b", self.L_b), ("L_sigma", self.L_sigma)):
            if val < 0:
                raise ValueError(f"{name} must be nonnegative, got {val}")


@dataclass(frozen=True)
class LipschitzReport:
    max_ratio: float
    passed: bool
    witness: tuple = field(default=())


def _apply_matrix(mat, x):
    """x @ mat.T over the last axis of x, summed in a fixed order.

    BLAS picks its kernel (and with it the rounding) by the number of rows,
    which would make a path's value depend on the batch it is evaluated in.
    """
    out = x[..., :1] * mat[:, 0]
    for k in range(1, mat.shape[1]):
        out = out + x[..., k:k + 1] * mat[:, k]
    return out


def _matmap(mat):
    mat = np.atleast_2d(np.asarray(mat, dtype=float))

    def f(t, x):
        return _apply_matrix(mat, np.asarray(x))

    return f


def _row_sum_norm(mat):
    return float(np.max(np.sum(np.abs(np.atleast_2d(mat)), axis=1)))


def make_linear(G, B, S) -> CoefficientSet:
    """Linear family g = Gx, b = Bx, sigma = Sx with declared constants equal
    to the max-row-sum norms.  All-zero matrices are tagged as the zero family."""
    G = np.atleast_2d(np.asarray(G, dtype=float))
    B = np.atleast_2d(np.asarray(B, dtype=float))
    S = np.atleast_2d(np.asarray(S, dtype=float))
    if not (G.shape == B.shape == S.shape) or G.shape[0] != G.shape[1]:
        raise ValueError(f"matrix shapes must agree and be square, got {G.shape}, {B.shape}, {S.shape}")
    tag = "zero" if not (G.any() or B.any() or S.any()) else "linear"
    return CoefficientSet(
        g=_matmap(G),
        b=_matmap(B),
        sigma=_matmap(S),
        L_g=_row_sum_norm(G),
        L_b=_row_sum_norm(B),
        L_sigma=_row_sum_norm(S),
        family_tag=tag,
        assumptions_verified=True,
    )


def make_bounded_smooth(c_g, c_b, c_s) -> CoefficientSet:
    """Componentwise sine family f(t, x) = c * sin(x); 1-Lipschitz times |c|,
    vanishing at 0 exactly."""
    for c in (c_g, c_b, c_s):
        if not np.isfinite(c):
            raise ValueError("coefficients must be finite scalars")

    def scaled_sine(c):
        def f(t, x):
            return c * np.sin(np.asarray(x))

        return f

    return CoefficientSet(
        g=scaled_sine(c_g),
        b=scaled_sine(c_b),
        sigma=scaled_sine(c_s),
        L_g=abs(c_g),
        L_b=abs(c_b),
        L_sigma=abs(c_s),
        family_tag="bounded_smooth",
        assumptions_verified=True,
    )


def make_additive_noise(s, dim=1) -> CoefficientSet:
    """Constant diffusion sigma(t, x) = s (g = b = 0).

    Violates the vanishing-at-zero condition on purpose (additive-noise
    variance benchmark); flagged unverified so it can only be simulated, not
    certified.
    """
    s_vec = np.broadcast_to(np.asarray(s, dtype=float), (dim,)).copy()

    def zero(t, x):
        return np.zeros_like(np.asarray(x, dtype=float))

    def const(t, x):
        x = np.asarray(x, dtype=float)
        return np.broadcast_to(s_vec, x.shape).copy()

    return CoefficientSet(
        g=zero,
        b=zero,
        sigma=const,
        L_g=0.0,
        L_b=0.0,
        L_sigma=0.0,
        family_tag="custom",
        assumptions_verified=False,
    )


def verify_lipschitz(f, L_declared, n, n_trials=1000, seed=0, radius=10.0, horizon=1.0):
    """Random search for Lipschitz violations of ``f`` against ``L_declared``.

    Samples pairs from the ball of radius 10 and times in [0, horizon];
    passes iff the largest observed ratio ||f(t,x)-f(t,y)|| / ||x-y|| stays
    within L*(1+1e-9).  A failing report carries the witness (t, x, y).
    """
    if n_trials < 100:
        raise ValueError("verify_lipschitz requires n_trials >= 100")
    rng = np.random.default_rng(seed)
    max_ratio = 0.0
    witness = ()
    for _ in range(n_trials):
        x = rng.uniform(-radius, radius, size=n)
        y = rng.uniform(-radius, radius, size=n)
        if not np.any(x != y):
            continue
        t = rng.uniform(0.0, horizon)
        num = np.linalg.norm(np.asarray(f(t, x)) - np.asarray(f(t, y)))
        den = np.linalg.norm(x - y)
        ratio = num / den
        if ratio > max_ratio:
            max_ratio = ratio
            witness = (t, x.copy(), y.copy())
    passed = max_ratio <= L_declared * (1.0 + 1e-9)
    return LipschitzReport(max_ratio=float(max_ratio), passed=bool(passed),
                           witness=() if passed else witness)


def verify_vanishing(f, T=1.0, n_nodes=64, n=1) -> bool:
    """True iff ||f(t, 0)|| <= 1e-14 on a uniform time grid over [0, T]."""
    zero = np.zeros(n)
    for t in np.linspace(0.0, T, n_nodes + 1):
        if np.linalg.norm(np.asarray(f(float(t), zero))) > 1e-14:
            return False
    return True
