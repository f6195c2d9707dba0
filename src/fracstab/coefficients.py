"""Coefficient triples (g, b, sigma) of the neutral system and their neutral solves.

Coefficients map (t, x) -> R^n and must be globally Lipschitz in x with
declared constants and vanish at x = 0 for the stability theory to apply.
Two built-in families satisfy both by construction:

* linear      g(t, x) = G x  (Lipschitz constant = max row sum of G),
* bounded smooth  g(t, x) = c * sin(x) componentwise (constant |c|).

Constant (additive-noise) coefficients deliberately violate the vanishing
condition; they are provided for variance benchmarks and are flagged
``assumptions_verified=False``, as is any custom ``CoefficientSet`` by
default, so a certificate built on them carries no stability verdict.

Callables must be pure, re-entrant, and vectorised over leading axes:
``f(t, x)`` with ``x`` of shape (..., n) returns the same shape.  ``t`` is a
float or an array that broadcasts against the leading axes of ``x``: the
marches call with one time and a batch of paths, a Picard sweep calls once
with the column ``times[:, None]`` and the whole path, (N+1, n), and its
neutral solve takes the nodes of the path as rows, (N, n), with a column of
their times, (N, 1).
Callables must therefore not branch on a scalar ``t`` (``if t > 1``); use
array operations such as ``np.where``.  The built-in families ignore ``t``
and act row by row, so a whole-path call gives the node-by-node values bit
for bit.

Both schemes solve the neutral equation x + g(t, x) = rhs at every node with
one solver, the marches node by node and a Picard sweep at all nodes at
once, each row to the one tolerance ``NEUTRAL_TOL`` relative to 1 + its max
norm.
The ``g`` of each built-in family with L_g < 1 carries its finished solve
``solve(t, rhs)``, found through :func:`_neutral_solver`: the linear family
applies (I + G)^(-1), the sine family runs Newton's method with a step
count fixed in advance by the Kantorovich bound.  Any other ``g`` is solved
by fixed-point sweeps whose count comes from the declared L_g, capped at
twice that count (at least 100).  The solve is looked up on the callable
itself, so a ``functools.wraps`` wrapper of a built-in ``g`` (which declares
it as ``__wrapped__`` and must compute the same values) keeps the exact
solve, and any other callable gets the sweeps.  The maps of the linear
family declare their matrix in the same way (:func:`_declared_matrix`), and
the schemes fold a drift whose maps all declare one into one product; sigma
is called as it is.
"""

from __future__ import annotations

import inspect
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ConvergenceError
from .spectral import matrix_norm

__all__ = [
    "CoefficientSet",
    "make_linear",
    "make_bounded_smooth",
    "make_additive_noise",
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
    assumptions_verified: bool = False

    def __post_init__(self):
        for name, val in (("L_g", self.L_g), ("L_b", self.L_b), ("L_sigma", self.L_sigma)):
            if not val >= 0:
                raise ValueError(f"{name} must be nonnegative, got {val}")


def _apply_matrix(mat, x, out=None):
    """x @ mat.T over the last axis of x, summed in a fixed order.

    BLAS picks its kernel (and with it the rounding) by the number of rows,
    which would make a path's value depend on the batch it is evaluated in.
    With ``out`` (any view of the result's shape that does not overlap x,
    such as the transposed ring row of a march) the product is written
    there in place and ``out`` is returned; the bits do not depend on where
    the result goes.
    """
    out = np.multiply(x[..., :1], mat[:, 0], out=out)
    for k in range(1, mat.shape[1]):
        out += x[..., k:k + 1] * mat[:, k]
    return out


def _matmap(mat):
    """The map x -> mat x, declaring ``mat`` as its ``matrix`` (see
    :func:`_declared_matrix`)."""
    mat = np.atleast_2d(np.asarray(mat, dtype=float))

    def f(t, x):
        return _apply_matrix(mat, np.asarray(x))

    f.matrix = mat
    return f


def _declared_matrix(fn):
    """The matrix that a coefficient of the linear family declares, found
    through ``functools.wraps`` wrappers like its neutral solve, or None.
    The schemes fold the drift of coefficients that all declare one into a
    single fixed-order product."""
    return getattr(inspect.unwrap(fn), "matrix", None)


# ------------------------------------------------------------ neutral solves

# Tolerance of every neutral solve: a path's last step is at most this
# times 1 + the max norm of its state.
NEUTRAL_TOL = 1e-12


def _unchecked_sweeps(L_g):
    """Sweeps of x <- rhs - g(t, x) that need no convergence test.

    If g vanishes at 0 and is L_g-Lipschitz in the max norm, the a-priori
    estimate of the contraction principle bounds the step of sweep k from
    x_0 = rhs by L_g^k (1 + L_g) / (1 - L_g) |x_k|, so sweep k passes the
    test step <= NEUTRAL_TOL (1 + |x_k|) once that factor is below the
    tolerance.  Without a usable bound (L_g = 0) every sweep is tested.
    """
    if not 0.0 < L_g < 1.0:
        return 1
    return max(1, math.ceil(math.log(NEUTRAL_TOL * (1.0 - L_g) / (1.0 + L_g)) / math.log(L_g)))


def _default_max_iter(L_g):
    """Iteration cap of a neutral solve: twice the a-priori sweep count, so
    a true contraction rate up to the square root of the declared L_g still
    converges, and never below 100."""
    return max(100, 2 * _unchecked_sweeps(L_g))


def _settle(update, x, rhs, n_free, t, max_iter, note):
    """Iterate x <- update(rhs, x, t) per path (row) and return the limit.

    ``t`` is one time for all rows (a march step) or a column with a time
    per row (the nodes of a Picard sweep); a column follows its rows as
    they freeze.

    The first n_free - 1 updates are untested.  From update n_free on every
    update is tested, and each path is frozen the moment its own step falls
    to NEUTRAL_TOL (1 + |x|) in the max norm.  A path still moving after
    ``max_iter`` updates in all raises ConvergenceError, whose message ends
    with ``note`` on the assumptions of the updates.  The schedule does not
    depend on the data and each path stops on its own values, so results are
    identical under any batching of the paths.
    """
    out = np.empty_like(rhs)
    active = np.arange(rhs.shape[0])
    xa, ra, ta = x, rhs, t
    # non-finite states propagate deliberately; the march's finiteness check
    # reports them per path
    with np.errstate(invalid="ignore", over="ignore"):
        for _ in range(n_free - 1):
            xa = update(ra, xa, ta)
        for _ in range(n_free, max_iter + 1):
            x_new = update(ra, xa, ta)
            moved = np.abs(x_new - xa)
            if moved.size and moved.max() <= NEUTRAL_TOL:
                # every path passes its own test (a NaN fails this one and
                # falls through to the per-path test)
                out[active] = x_new
                return out
            step = moved.max(axis=-1)
            size = np.abs(x_new).max(axis=-1)
            going = ~(step <= NEUTRAL_TOL * (1.0 + size)) & np.isfinite(size)
            if going.all():
                xa = x_new
                continue
            out[active] = x_new
            if not going.any():
                return out
            active, xa, ra = active[going], x_new[going], ra[going]
            if np.ndim(ta):
                ta = ta[going]
    # ta now holds the times of the rows still going
    stuck = step[going] / (1.0 + size[going])
    worst = int(np.argmax(stuck))
    rows = "paths" if np.ndim(t) == 0 else "path nodes"
    raise ConvergenceError(
        "neutral-term fixed point did not converge at "
        f"t={float(np.broadcast_to(ta, (stuck.size, 1))[worst, 0])!r}: "
        f"{going.sum()} of {rhs.shape[0]} {rows} in the batch still move after "
        f"{max_iter} steps, largest step/(1+|x|) = {stuck[worst]:.3g} "
        f"against tol={NEUTRAL_TOL:.3g} "
        f"({note})"
    )


def _solve_neutral(rhs, g_fn, t, L_g):
    """Fixed point x = rhs - g(t, x) by sweeps; linear convergence at rate L_g < 1.

    The number of untested sweeps comes from :func:`_unchecked_sweeps` (L_g
    and the tolerance alone).  When g vanishes at 0 and contracts at the
    declared L_g every path passes the first test; when either assumption
    fails, a path keeps sweeping with a test on every sweep, up to the cap
    of :func:`_default_max_iter` (see :func:`_settle`).
    """
    return _settle(lambda r, x, t: r - g_fn(t, x), rhs, rhs,
                   _unchecked_sweeps(L_g), t, _default_max_iter(L_g),
                   f"declared L_g={L_g:.6g}; the sweeps contract only if g is "
                   "L_g-Lipschitz with L_g < 1 and the states stay finite")


def _linear_solver(G):
    """Exact neutral solve of g = G x: x = (I + G)^(-1) rhs, one fixed-order
    product per node.  I + G is invertible since ||G||_inf = L_g < 1."""
    inverse = np.linalg.inv(np.eye(G.shape[0]) + G)

    def solve(t, rhs):
        return _apply_matrix(inverse, rhs)

    return solve


def _newton_schedule(a):
    """(bisections, Newton steps of which all but the last run untested) for
    x + c sin x = rhs with |c| = a < 1.

    f(x) = x + c sin x - rhs has f' >= 1 - a and |f''| <= a, and its root
    lies within a of rhs.  b bisections of [rhs - a, rhs + a] start Newton
    within r = a 2^-b of the root; from there the errors obey
    K e_{k+1} <= (K e_k)^2 with K = a / (2 (1 - a)), so K e_k <= q^(2^k)
    with q = K r.  b is the least with q <= 1/2, which holds for every
    a < 1 (Kantorovich gives nothing without bisections from a ~ 0.73 on).
    Newton step k + 1 moves by at most e_k + e_{k+1} <= 2 e_k, so step n
    passes the test step <= NEUTRAL_TOL (1 + |x|) once
    2 q^(2^(n-1)) / K <= NEUTRAL_TOL.  Without a usable bound (K = 0, also
    for a subnormal a) every step is tested.
    """
    K = a / (2.0 * (1.0 - a))
    if not K > 0.0:
        return 0, 1
    q, n_bisect = K * a, 0
    while q > 0.5:
        q, n_bisect = q / 2.0, n_bisect + 1
    n = 1
    while 2.0 * q ** 2.0 ** (n - 1) / K > NEUTRAL_TOL:
        n += 1
    return n_bisect, n


def _sine_solver(c):
    """Exact neutral solve of g = c sin x componentwise, |c| < 1, by Newton's
    method with the schedule of :func:`_newton_schedule`."""
    a = abs(c)
    n_bisect, n_free = _newton_schedule(a)
    max_iter = _default_max_iter(a)
    note = "Newton's method for x + c sin x = rhs, |c| < 1, stalls only on non-finite states"

    def newton(rhs, x, t):
        return x - (x + c * np.sin(x) - rhs) / (1.0 + c * np.cos(x))

    def solve(t, rhs):
        x = rhs
        # each bisection halves a bracket around the root and keeps x at its middle
        for k in range(1, n_bisect + 1):
            x = x - np.sign(x + c * np.sin(x) - rhs) * (a * 0.5**k)
        return _settle(newton, x, rhs, n_free, t, max_iter, note)

    return solve


def _neutral_solver(coeffs):
    """``solve(t, rhs)`` returning x with x + g(t, x) = rhs for each row of rhs.

    The exact solve of a built-in family is kept on its ``g`` callable and
    found through ``functools.wraps`` wrappers; any other ``g`` is solved by
    :func:`_solve_neutral`.  Requires L_g < 1.  The exact solves set no
    ``np.errstate`` of their own: their callers, the marches and the Picard
    sweeps, let non-finite states through under one and refuse them by node.
    """
    exact = getattr(inspect.unwrap(coeffs.g), "neutral_solve", None)
    if exact is not None:
        return exact
    return lambda t, rhs: _solve_neutral(rhs, coeffs.g, t, coeffs.L_g)


def make_linear(G, B, S) -> CoefficientSet:
    """Linear family g = Gx, b = Bx, sigma = Sx with declared constants equal
    to the max-row-sum norms (all-zero matrices give the zero family).

    Each map declares its matrix as its ``matrix`` attribute, and g its
    exact neutral solve (I + G)^(-1) when L_g < 1.  The marches and Picard
    fold the drift b - A g (or b + A x) of such maps into one matrix, so a
    march step makes three fixed-order products: the drift, sigma and the
    neutral solve.  A wrapper that does not declare the map with
    ``functools.wraps`` hides the matrix and the solve, and its system
    takes the generic drift and the fixed-point sweeps.
    """
    G = np.atleast_2d(np.asarray(G, dtype=float))
    B = np.atleast_2d(np.asarray(B, dtype=float))
    S = np.atleast_2d(np.asarray(S, dtype=float))
    if not (G.shape == B.shape == S.shape) or G.shape[0] != G.shape[1]:
        raise ValueError(f"matrix shapes must agree and be square, got {G.shape}, {B.shape}, {S.shape}")
    if not all(np.all(np.isfinite(m)) for m in (G, B, S)):
        raise ValueError("coefficient matrices must be finite")
    L_g = matrix_norm(G)
    g = _matmap(G)
    if L_g < 1.0:
        # the marches refuse L_g >= 1, where I + G may be singular
        g.neutral_solve = _linear_solver(G)
    return CoefficientSet(
        g=g,
        b=_matmap(B),
        sigma=_matmap(S),
        L_g=L_g,
        L_b=matrix_norm(B),
        L_sigma=matrix_norm(S),
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

    g = scaled_sine(c_g)
    if abs(c_g) < 1.0:
        # the marches refuse L_g >= 1, where Newton's schedule has no bound
        g.neutral_solve = _sine_solver(c_g)
    return CoefficientSet(
        g=g,
        b=scaled_sine(c_b),
        sigma=scaled_sine(c_s),
        L_g=abs(c_g),
        L_b=abs(c_b),
        L_sigma=abs(c_s),
        assumptions_verified=True,
    )


def make_additive_noise(s, dim=1) -> CoefficientSet:
    """Constant diffusion sigma(t, x) = s (g = b = 0).

    Violates the vanishing-at-zero condition on purpose (additive-noise
    variance benchmark); flagged unverified, so its certificate carries the
    constants but no stability verdict.
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
        assumptions_verified=False,
    )
