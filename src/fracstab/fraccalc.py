"""Scalar and matrix Mittag-Leffler functions and discrete Riemann-Liouville
operators on uniform grids.

The two-parameter Mittag-Leffler function

    E_{a,b}(z) = sum_{k>=0} z^k / Gamma(a k + b)

is the kernel of every solution formula in this package.  Plain summation of
the series in double precision is catastrophically ill-conditioned on the
negative real axis once |z| grows past a handful (the terms peak near
exp(|z|^(1/a)) before cancelling), so evaluation is split into three branches:

* direct series for small arguments and for all complex / nonnegative ones
  (positive-term sums never cancel),
* a real-line spectral representation
  E_{a,b}(z) = int_0^inf K_{a,b}(r, z) dr  for real z < 0, 0 < a < 1,
  taken with a fixed double-exponential (tanh-sinh) rule split at the
  integrand's near-pole peak (no residue terms arise because
  |arg z| = pi > a*pi),
* the algebraic asymptotic expansion
  E_{a,b}(z) ~ -sum_{k=1..K} z^{-k} / Gamma(b - a k)  for real z << 0.

Every branch works on whole arrays of arguments, and each argument's value
depends on that argument alone (fixed-order sums, per-element series
stopping), so it is the same bits whatever batch it is evaluated in.
:func:`ml_kernel` evaluates E_{a,b}(t^a A) on a whole time grid from one
eigendecomposition; :func:`ml_scalar` and :func:`ml_matrix` are one-argument
calls of the same evaluator.

The Riemann-Liouville integral I^a f(t) = (1/Gamma(a)) int_0^t (t-r)^(a-1) f(r) dr
is discretised by product integration: the kernel factor is integrated
exactly against a piecewise-constant left-value interpolant of f, matching
the Ito (left-point) convention of the stochastic quadrature elsewhere in
the package.  D^a is the backward difference of I^(1-a).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.special import gamma as _scipy_gamma
from scipy.special import gammaln as _gammaln
from scipy.special import rgamma as _rgamma

from .errors import AccuracyWarning, ConditioningWarning, ConvergenceError

__all__ = [
    "FractionalOrder",
    "MLEvalPolicy",
    "DEFAULT_POLICY",
    "gamma_fn",
    "beta_fn",
    "ml_scalar",
    "ml_matrix",
    "ml_kernel",
    "rl_integral_grid",
    "rl_derivative_grid",
]

_EPS = 2.220446049250313e-16

# Below this the direct series is safe on the negative real axis: the largest
# series term stays small enough that cancellation cannot eat into the
# quadrature-level accuracy of the integral branch.
_SERIES_NEG_REAL_LIMIT = 2.0


@dataclass(frozen=True)
class FractionalOrder:
    """Fractional order ``alpha`` and moment order ``p``.

    ``alpha`` lives in (1/2, 1]; the right endpoint is admitted beyond the
    fractional regime so classical-SDE sanity checks can reuse the same code
    paths.  ``p >= 2`` must be an integer.
    """

    alpha: float
    p: int = 2

    def __post_init__(self):
        if not 0.5 < self.alpha <= 1.0:
            raise ValueError(f"alpha must lie in (1/2, 1], got {self.alpha}")
        if int(self.p) != self.p or self.p < 2:
            raise ValueError(f"p must be an integer >= 2, got {self.p}")
        object.__setattr__(self, "p", int(self.p))


@dataclass(frozen=True)
class MLEvalPolicy:
    """Truncation and branch-switch control for Mittag-Leffler evaluation."""

    series_tol: float = 1e-13
    series_max_terms: int = 600
    asymptotic_switch_radius: float = 25.0
    asymptotic_terms: int = 10

    def __post_init__(self):
        if self.series_tol <= 0:
            raise ValueError("series_tol must be positive")
        if self.series_max_terms < 50:
            raise ValueError("series_max_terms must be >= 50")
        if self.asymptotic_switch_radius <= 0:
            raise ValueError("asymptotic_switch_radius must be positive")
        if self.asymptotic_terms < 2:
            raise ValueError("asymptotic_terms must be >= 2")


DEFAULT_POLICY = MLEvalPolicy()


def gamma_fn(x: float) -> float:
    """Gamma function on the real line.

    Rejects the poles at nonpositive integers (within 1e-12).  Relative
    accuracy is at machine level over the range used here; the library
    routine already applies reflection below 1/2.
    """
    if x <= 0 and abs(x - round(x)) <= 1e-12:
        raise ValueError(f"gamma_fn pole at nonpositive integer x={x}")
    return float(_scipy_gamma(x))


def beta_fn(a: float, b: float) -> float:
    """Euler beta function B(a, b) = Gamma(a)Gamma(b)/Gamma(a+b), a, b > 0."""
    if a <= 0 or b <= 0:
        raise ValueError(f"beta_fn requires positive arguments, got ({a}, {b})")
    return float(math.exp(_gammaln(a) + _gammaln(b) - _gammaln(a + b)))


def _series_sum(first, operand, ratios, step, norm, bound):
    """Sum a batch of term-recursive series, each stopped by its own rule.

    Series e runs term_0 = first[e], term_k = step(term_{k-1}, operand[e])
    * ratios[k-1] and stops after two consecutive terms with norm(term) <=
    bound(partial sum) at k >= 4 (alternating sums can pass through zero on
    a single term).  Stopped series leave the batch, so each one's arithmetic
    depends on its own operand alone.  Returns (sums, largest term norm,
    converged), batched along axis 0 like ``first``.
    """
    total = first.copy()
    peak = norm(first)
    converged = np.zeros(len(first), dtype=bool)
    idx = np.arange(len(first))
    term, part, top = first, first, peak
    streak = np.zeros(len(first), dtype=int)
    for k, ratio in enumerate(ratios, start=1):
        if idx.size == 0:
            break
        term = step(term, operand) * ratio
        part = part + term
        size = norm(term)
        top = np.maximum(top, size)
        streak = np.where(size <= bound(part), streak + 1, 0)
        if k < 4:
            continue
        done = streak >= 2
        if done.any():
            total[idx[done]], peak[idx[done]] = part[done], top[done]
            converged[idx[done]] = True
            keep = ~done
            idx, term, part, top, streak, operand = (
                idx[keep], term[keep], part[keep], top[keep], streak[keep], operand[keep])
    total[idx], peak[idx] = part, top
    return total, peak, converged


def _series_ratios(alpha, beta, n_terms):
    """Gamma(a (k-1) + b) / Gamma(a k + b) for k = 1 .. n_terms - 1, through
    gammaln so that numerator and denominator cannot overflow separately."""
    k = np.arange(1, n_terms, dtype=float)
    return np.exp(_gammaln(alpha * (k - 1.0) + beta) - _gammaln(alpha * k + beta))


def _ml_series(alpha, beta, z, tol, max_terms):
    """Direct power series on a 1-D array ``z``, element by element.

    Returns (sums, largest term modulus, converged) arrays.
    """
    first = np.full(z.shape, _rgamma(beta), dtype=z.dtype)
    return _series_sum(first, z, _series_ratios(alpha, beta, max_terms),
                       lambda term, zz: term * zz, np.abs,
                       lambda part: tol * (1.0 + np.abs(part)))


def _ml_asymptotic_neg(alpha, beta, z, n_terms):
    """Algebraic expansion -sum_{k=1..K} z^{-k}/Gamma(b - a k) on a 1-D array
    of real z << 0.

    Reciprocal-gamma zeros (b - a k a nonpositive integer) drop terms exactly,
    e.g. the k = 1 term vanishes identically when b = a.
    """
    total = np.zeros(z.shape)
    for k in range(1, n_terms + 1):
        total -= z ** (-k) * _rgamma(beta - alpha * k)
    return total


def _tanh_sinh_rule(step, half_nodes):
    """Nodes in (0, 1) and weights of the tanh-sinh rule of Takahasi & Mori
    (1974) with the given step and 2 * half_nodes + 1 nodes; at the outermost
    nodes the distance to the end point underflows the double mantissa."""
    t = np.arange(-half_nodes, half_nodes + 1) * step
    s = 0.5 * math.pi * np.sinh(t)
    return 1.0 / (1.0 + np.exp(-2.0 * s)), 0.25 * math.pi * step * np.cosh(t) / np.cosh(s) ** 2


# The rule of each piece of the spectral integral: with 207 nodes its error
# against mpmath is <= 2e-14 relative for a <= 0.95 and 2 < x < 25, and up
# to 2e-13 at a = 0.99, x near 25, like adaptive QUADPACK.
_DE_NODES, _DE_WEIGHTS = _tanh_sinh_rule(1.0 / 32.0, 103)
# Arguments per block of the spectral integral: its (arguments x nodes)
# temporaries stay near 0.2 MB each (and 128 ran faster than 64 or 256).
_ARG_BLOCK = 128


def _ml_neg_real_integral(alpha, beta, x):
    """E_{a,b}(-x) on a 1-D array of x > 0, 0 < a < 1, via the spectral
    representation

        E_{a,b}(z) = int_0^inf K(r) dr,
        K(r) = (1/(a pi)) r^((1-b)/a) exp(-r^(1/a))
               * (r sin(pi(1-b)) - z sin(pi(1-b+a))) / (r^2 - 2 r z cos(a pi) + z^2).

    Valid (without residue terms) because |arg z| = pi > a*pi.  For b > 1 the
    prefactor r^((1-b)/a) would be singular at 0, so b is first lowered with
    the exact relation E_{a,b}(z) = (E_{a,b-a}(z) - 1/Gamma(b-a)) / z.

    The integral is taken on [0, 45^a], past which exp(-r^(1/a)) <= 1e-19,
    with the fixed tanh-sinh rule on each side of the denominator's minimum
    r_p = x |cos(a pi)| (capped at half the range): the peak there has width
    x sin(a pi) and is missed by a rule that does not cluster nodes at it as
    a -> 1.  The denominator is summed as (r + x cos(a pi))^2 + (x sin(a pi))^2,
    which does not cancel near the peak (ten times closer to mpmath at
    a = 0.99).  Arguments are taken in blocks of ``_ARG_BLOCK`` and each one's
    sum runs in a fixed order, so a value never depends on its batch.
    """
    if beta > 1.0:
        inner = _ml_neg_real_integral(alpha, beta - alpha, x)
        return (inner - _rgamma(beta - alpha)) / -x
    cos_api = math.cos(alpha * math.pi)
    sin_api = math.sin(alpha * math.pi)
    s1 = math.sin(math.pi * (1.0 - beta))
    s2 = math.sin(math.pi * (1.0 - beta + alpha))
    expo = (1.0 - beta) / alpha
    inv_alpha = 1.0 / alpha
    r_max = 45.0**alpha
    out = np.empty(x.shape)
    for lo in range(0, x.size, _ARG_BLOCK):
        xb = x[lo:lo + _ARG_BLOCK, None]
        r_p = np.minimum(xb * abs(cos_api), 0.5 * r_max)
        total = 0.0
        for a, b in ((0.0, r_p), (r_p, r_max)):
            r = a + (b - a) * _DE_NODES
            f = (r**expo * np.exp(-(r**inv_alpha)) * (r * s1 + xb * s2)
                 / ((r + xb * cos_api) ** 2 + (xb * sin_api) ** 2))
            total = total + (b - a)[:, 0] * np.einsum("an,n->a", f, _DE_WEIGHTS)
        out[lo:lo + _ARG_BLOCK] = total / (alpha * math.pi)
    return out


def _ml_values(alpha, beta, z, policy):
    """E_{a,b} on a 1-D array ``z`` (real or complex), branch by element.

    Returns (values, absolute uncertainty of the series-served values, series
    that hit the term cap); the uncertainty is 0 on the other branches.
    """
    values = np.empty_like(z)
    err = np.zeros(z.shape)
    failed = np.zeros(z.shape, dtype=bool)
    if alpha == 1.0 and beta == 1.0:
        # the exponential, at full relative accuracy deep on the negative axis
        # where the series would cancel
        values[:] = np.exp(z)
        return values, err, failed
    x = z.real
    real = z.imag == 0.0
    zero = real & (x == 0.0)
    neg = real & (x < 0.0) & (alpha < 1.0)
    asym = neg & (x <= -policy.asymptotic_switch_radius)
    integ = neg & ~asym & (x < -_SERIES_NEG_REAL_LIMIT)
    series = ~(zero | asym | integ)
    values[zero] = _rgamma(beta)
    values[asym] = _ml_asymptotic_neg(alpha, beta, x[asym], policy.asymptotic_terms)
    values[integ] = _ml_neg_real_integral(alpha, beta, -x[integ])
    total, max_abs, converged = _ml_series(alpha, beta, z[series], policy.series_tol,
                                           policy.series_max_terms)
    values[series] = total
    err[series] = max_abs * 4.0 * _EPS
    failed[series] = ~converged
    return values, err, failed


def _raise_or_warn(what, args, values, err, failed, policy, norm, stacklevel):
    """Raise :class:`ConvergenceError` if any series hit its term cap, and
    emit one :class:`AccuracyWarning` naming the worst argument if any
    series cancelled beyond tolerance."""
    if failed.any():
        i = int(np.flatnonzero(failed)[0])
        raise ConvergenceError(
            f"{what} series did not meet tol={policy.series_tol} within "
            f"{policy.series_max_terms} terms at {args[i]} "
            f"({int(failed.sum())} of {failed.size} arguments)"
        )
    excess = err / (max(policy.series_tol, 1e-12) * (1.0 + norm(values)))
    if excess.size and excess.max() > 1.0:
        i = int(np.argmax(excess))
        warnings.warn(
            f"{what} at {args[i]}: series cancellation leaves ~{err[i]:.1e} absolute "
            f"uncertainty (argument outside the stable branches; {int((excess > 1.0).sum())} "
            f"of {excess.size} arguments affected)",
            AccuracyWarning,
            stacklevel=stacklevel + 1,
        )


def ml_scalar(alpha, beta, z, policy: MLEvalPolicy = DEFAULT_POLICY):
    """Two-parameter Mittag-Leffler function E_{a,b}(z), a > 0.

    Returns a float for real ``z`` and a complex number otherwise.  Branch
    selection follows the module docstring; outside the branches of proven
    accuracy (large non-real arguments suffering series cancellation) the
    series value is returned with an :class:`AccuracyWarning`.  A one-argument
    call of the evaluator behind :func:`ml_kernel`.

    Raises :class:`ConvergenceError` if the series hits its term cap.
    """
    if alpha <= 0:
        raise ValueError(f"ml_scalar requires alpha > 0, got {alpha}")
    is_complex = isinstance(z, complex)
    args = np.array([z], dtype=complex if is_complex else float)
    values, err, failed = _ml_values(alpha, beta, args, policy)
    _raise_or_warn(f"E_{{{alpha},{beta}}}", args, values, err, failed, policy, np.abs, 2)
    return complex(values[0]) if is_complex else float(values[0])


def _op_norms(mats):
    """Maximum absolute row sum of each matrix of a stack (..., n, n), the
    matrix norm fixed throughout."""
    return np.abs(mats).sum(axis=-1).max(axis=-1)


def _ml_stack(alpha, beta, mat, scale, decomposition, policy):
    """E_{a,b}(s_k M) for every s_k of the 1-D array ``scale``, shape
    (len(scale), n, n): per eigenvalue when ``decomposition`` = (w, V) of M is
    given and V is acceptably conditioned, else the matrix series.  Called
    directly by the public functions, whose caller the warnings point at."""
    n = mat.shape[0]
    if decomposition is not None:
        w, v = (np.asarray(a) for a in decomposition)
        cond = np.linalg.cond(v) if np.all(np.isfinite(v)) else math.inf
        if cond <= 1e8:
            args = (scale[:, None] * w[None, :]).ravel()
            values, err, failed = _ml_values(alpha, beta, args, policy)
            _raise_or_warn(f"E_{{{alpha},{beta}}}", args, values, err, failed, policy,
                           np.abs, 3)
            # V diag(e_k) V^-1 in a fixed summation order, not through BLAS,
            # so a node's matrix never depends on how many nodes share the call
            out = np.einsum("ij,kj,jl->kil", v, values.reshape(len(scale), n), np.linalg.inv(v))
            return np.ascontiguousarray(out.real)
        warnings.warn(
            f"eigenvector basis condition estimate {cond:.2e} > 1e8; "
            "falling back to the matrix series",
            ConditioningWarning,
            stacklevel=3,
        )
    mats = scale[:, None, None] * mat
    first = np.broadcast_to(np.eye(n) * _rgamma(beta), mats.shape).copy()
    tol = policy.series_tol
    total, max_norm, converged = _series_sum(
        first, mats, _series_ratios(alpha, beta, policy.series_max_terms),
        lambda term, m: np.einsum("kij,kjl->kil", term, m), _op_norms,
        lambda part: tol * np.maximum(1.0, _op_norms(part)))
    _raise_or_warn("matrix Mittag-Leffler", [f"a matrix of norm {s:.3g}" for s in _op_norms(mats)],
                   total, max_norm * 4.0 * _EPS, ~converged, policy, _op_norms, 3)
    return total


def _square(mat, name):
    mat = np.asarray(mat, dtype=float)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValueError(f"{name} requires a square matrix, got shape {mat.shape}")
    if not np.all(np.isfinite(mat)):
        raise ValueError(f"{name} requires finite entries")
    return mat


def ml_matrix(alpha, beta, mat, policy: MLEvalPolicy = DEFAULT_POLICY, decomposition=None):
    """Matrix Mittag-Leffler function sum_{k>=0} M^k / Gamma(a k + b).

    The baseline is the term-recursive series, truncated when the running
    term's operator norm falls below ``series_tol`` times the partial sum's.
    If ``decomposition`` supplies eigenvalues and eigenvectors ``(w, V)`` of
    ``mat`` and ``V`` is acceptably conditioned, the scalar function is
    applied per eigenvalue instead, which stays accurate for spectra far out
    on the negative axis where the series cancels.  An ill-conditioned ``V``
    (estimate > 1e8) triggers a :class:`ConditioningWarning` and falls back
    to the series.  A one-node call of the evaluator behind
    :func:`ml_kernel`.
    """
    if alpha <= 0:
        raise ValueError(f"ml_matrix requires alpha > 0, got {alpha}")
    mat = _square(mat, "ml_matrix")
    return _ml_stack(alpha, beta, mat, np.ones(1), decomposition, policy)[0]


def ml_kernel(alpha, beta, mat, times, policy: MLEvalPolicy = DEFAULT_POLICY):
    """E_{a,b}(t_k^a A) for every node t_k >= 0 of ``times``, shape
    (len(times), n, n), from one eigendecomposition of A.

    Eigen path: when the eigenvector basis V of A has condition estimate
    <= 1e8, the scalar function is evaluated on the whole (nodes x
    eigenvalues) argument array t_k^a lambda_j at once and each node's matrix
    is V diag(E(t_k^a lambda)) V^-1, summed in a fixed order.  Fallback
    (ill-conditioned or defective V): one :class:`ConditioningWarning` naming
    the estimate, then the matrix series of every t_k^a A, batched over the
    nodes with each node's own stopping rule.

    Raises :class:`ConvergenceError` if any node's series hits its term cap;
    emits at most one :class:`AccuracyWarning` per call, naming the argument
    with the worst cancellation estimate and how many arguments exceeded the
    tolerance.  Every value depends only on its own node: ``ml_kernel(...)[k]``
    equals :func:`ml_matrix` of t_k^a A with the eigenpairs (t_k^a w, V) bit
    for bit.
    """
    if alpha <= 0:
        raise ValueError(f"ml_kernel requires alpha > 0, got {alpha}")
    mat = _square(mat, "ml_kernel")
    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or not np.all(times >= 0.0) or not np.all(np.isfinite(times)):
        raise ValueError("ml_kernel requires a 1-D array of finite times >= 0")
    return _ml_stack(alpha, beta, mat, times**alpha, np.linalg.eig(mat), policy)


def _causal_convolution(spectra, hists, M):
    """Causal convolutions over a whole grid by zero-padded real FFTs:
    out[n, i] = sum over the terms (h, i, k) of sum_{m=1..n} w_ik[m] hists[h][n-m, k]
    for n = 0 .. N, with every history of shape (N+1, dim).

    ``spectra`` lists (mu, [(h, i, k, w_hat)]) with w_hat the length-M rfft of
    the balanced kernel e^(-mu m) w_ik[m] over the lags m = 0 .. N (w_ik[0] = 0);
    M >= 2(N+1), so no product wraps onto the nodes 0 .. N.  Per rate mu each
    history is balanced to e^(-mu j) h[j] and transformed once over all its
    components, the products are summed in the frequency domain, and one
    inverse transform is scaled back by e^(mu n).
    """
    # imported on use: a module-level import here loads scipy.fft earlier in
    # the package import than the simulator does, which was measured to raise
    # the peak RSS of the process by about 0.6 MB
    from scipy import fft as sp_fft

    n_nodes, dim = hists[0].shape
    nodes = np.arange(n_nodes)[:, None]
    out = np.zeros((n_nodes, dim))
    for mu, terms in spectra:
        h_hats = {h: sp_fft.rfft(hists[h] * np.exp(-mu * nodes), M, axis=0)
                  for h in {term[0] for term in terms}}
        total = np.zeros((M // 2 + 1, dim), dtype=complex)
        for h, i, k, w_hat in terms:
            total[:, i] += w_hat * h_hats[h][:, k]
        out += sp_fft.irfft(total, M, axis=0)[:n_nodes] * np.exp(mu * nodes)
    return out


def rl_integral_grid(samples, alpha, dt):
    """Riemann-Liouville integral I^a on a uniform grid, left-value product
    integration.

    ``samples`` has shape (N+1,) or (N+1, n) :  values f(t_j) at t_j = j*dt.
    Node 0 of the output is zero.  Exact for constant f:
    I^a 1 = t^a / Gamma(a+1).  The weights decay with the lag, so one
    unbalanced FFT convolution takes the whole grid in O(N log N).
    """
    if not 0.0 < alpha <= 1.0:
        raise ValueError(f"rl_integral_grid requires alpha in (0, 1], got {alpha}")
    if dt <= 0:
        raise ValueError("grid step must be positive")
    from scipy import fft as sp_fft  # on use, as in _causal_convolution

    f = np.asarray(samples, dtype=float)
    squeeze = f.ndim == 1
    if squeeze:
        f = f[:, None]
    n_nodes = f.shape[0]
    m = np.arange(n_nodes, dtype=float)
    # integral of the kernel over the cell with lag m, none at lag 0
    coeff = np.concatenate(([0.0], m[1:] ** alpha - m[:-1] ** alpha))
    M = sp_fft.next_fast_len(max(2 * n_nodes, 1), real=True)
    w_hat = sp_fft.rfft(coeff, M)
    out = _causal_convolution([(0.0, [(0, k, k, w_hat) for k in range(f.shape[1])])], (f,), M)
    out *= dt**alpha / gamma_fn(alpha + 1.0)
    out[:1] = 0.0
    return out[:, 0] if squeeze else out


def rl_derivative_grid(samples, alpha, dt):
    """Riemann-Liouville derivative D^a = d/dt I^(1-a) on a uniform grid.

    Backward first difference of the product-integrated I^(1-a).  Node 0 is
    set to zero and is not meaningful; the composition identity
    D^a(I^a f) = f holds away from t = 0 at first order in dt.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"rl_derivative_grid requires alpha in (0, 1), got {alpha}")
    f = np.asarray(samples, dtype=float)
    if f.shape[0] < 3:
        raise ValueError("rl_derivative_grid needs at least 3 grid nodes")
    lower = rl_integral_grid(f, 1.0 - alpha, dt)
    out = np.zeros_like(lower)
    out[1:] = np.diff(lower, axis=0) / dt
    return out
