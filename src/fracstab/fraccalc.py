"""Scalar and matrix Mittag-Leffler functions and discrete Riemann-Liouville
operators on uniform grids.

The two-parameter Mittag-Leffler function

    E_{a,b}(z) = sum_{k>=0} z^k / Gamma(a k + b)

is the kernel of every solution formula in this package.  Its series
cancels catastrophically in double precision once |z| grows past a handful,
so every value is taken instead from the inverse Laplace transform

    E_{a,b}(z) = (1/2 pi i) int_C e^s s^(a-b) / (s^a - z) ds

on a parabolic contour s(u) = mu (1 + iu)^2 (Garrappa 2015, SIAM J. Numer.
Anal. 53:1350; contours after Weideman & Trefethen 2007, Math. Comp.
76:1341), plus the residue (1/a) e^(s*) s*^(1-b) of each principal-sheet
pole s* = z^(1/a) that lies outside the contour.  The trapezoid rule in u
turns the integral into a row sum  sum_k c_k / (sigma_k - z)  whose nodes
sigma_k = s_k^a and weights c_k depend on (a, b, mu) alone, so all
arguments that share a contour share its nodes.  The contours are the fixed
``_CONTOURS``; each argument takes the first whose parabola stays
``_POLE_GAP`` away from every pole (in the distance that sets the trapezoid
rule's error), so a pole never sits on the contour.  Only a = b = 1 is
served apart, by ``exp``.  Each value's roundoff is estimated as
eps sum_k |c_k / (sigma_k - z)|; a call whose estimate exceeds ``ML_TOL``
relative to some value emits one :class:`AccuracyWarning`.

Arguments are taken in fixed-size blocks and every row sum runs in a fixed
order, so a value is the same bits whatever batch it is evaluated in.
:func:`ml_kernel` evaluates E_{a,b}(t^a A) on a whole time grid from one
eigendecomposition; when the eigenvector basis is ill-conditioned or
defective it sums the resolvents c_k (sigma_k I - t^a A)^(-1) on the same
nodes instead.  :func:`ml_scalar` and :func:`ml_matrix` are one-argument
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

from .errors import AccuracyWarning

__all__ = [
    "FractionalOrder",
    "ML_TOL",
    "gamma_fn",
    "beta_fn",
    "ml_scalar",
    "ml_matrix",
    "ml_kernel",
    "rl_integral_grid",
    "rl_derivative_grid",
]

_EPS = 2.220446049250313e-16

# Relative roundoff estimate above which a Mittag-Leffler value warns.
ML_TOL = 1e-10
# Parabolic contours (mu, h, n): nodes s = mu (1 + iu)^2 at u = h j, |j| <= n.
# e^s has fallen below e^-60 at the ends, and the roundoff grows like e^mu,
# so mu stays small.  The second contour serves the arguments whose pole
# comes near the first; mu is 9 times smaller, so no pole is near both.
_CONTOURS = ((1.0, 0.1, 80), (1.0 / 9.0, 0.1, 240))
# A pole s* maps to u* with |Im u*| = |1 - Re sqrt(s*) / sqrt(mu)|; the
# trapezoid error it causes falls like exp(-2 pi |Im u*| / h).  Against
# mpmath on the real axis, on rays across the sector and with poles placed
# along the parabolas, the worst relative error is 1.2e-12 (at a = 0.99,
# |z| near 80, roundoff) with this gap, against 2e-9 with 0.3.
_POLE_GAP = 0.5
# Terms (arguments x nodes) per block of the row sums: each complex
# temporary stays at 128 kB (larger blocks raised the peak RSS, smaller
# ones ran slower).
_BLOCK_TERMS = 1 << 13


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


def _contour_rule(alpha, beta, mu, h, n):
    """Nodes sigma_k = s_k^a and weights c_k of the trapezoid rule for
    (1/2 pi i) int e^s s^(a-b) / (s^a - z) ds on s(u) = mu (1 + iu)^2."""
    w = 1.0 + 1j * h * np.arange(-n, n + 1)
    s = mu * w * w
    # ds = 2 i mu w du, and h / (2 pi i) * 2 i mu = h mu / pi
    return s**alpha, (h * mu / math.pi) * w * np.exp(s) * s ** (alpha - beta)


def _poles(alpha, z):
    """Principal-sheet poles of s^(a-b) / (s^a - z) for a 1-D array ``z``:
    s* = |z|^(1/a) e^(i (arg z + 2 pi j) / a) for the j with
    |arg z + 2 pi j| < a pi (one j at most for a <= 1), shape (len(z), J),
    NaN where branch j has none."""
    jmax = math.ceil((alpha + 1.0) / 2.0) - 1
    angle = np.angle(z)[:, None] + 2.0 * math.pi * np.arange(-jmax, jmax + 1)
    poles = np.abs(z)[:, None] ** (1.0 / alpha) * np.exp(1j * angle / alpha)
    return np.where(np.abs(angle) < alpha * math.pi, poles, np.nan)


def _contour_choice(root):
    """Index into ``_CONTOURS`` per row of ``root`` = Re sqrt(s*) of the
    poles (NaN where none): the first contour that stays ``_POLE_GAP`` from
    every pole of the row, else the one farthest from its nearest pole."""
    gaps = np.stack([np.fmin.reduce(np.abs(1.0 - root / math.sqrt(mu)), axis=1,
                                    initial=np.inf) for mu, _, _ in _CONTOURS])
    ok = gaps >= _POLE_GAP
    return np.where(ok.any(axis=0), ok.argmax(axis=0), gaps.argmax(axis=0))


def _ml_values(alpha, beta, z):
    """E_{a,b} on a 1-D complex array ``z``; returns (values, roundoff
    estimates eps sum_k |c_k / (sigma_k - z)|)."""
    if alpha == 1.0 and beta == 1.0:
        # the exponential, at full relative accuracy deep on the negative axis
        return np.exp(z), np.zeros(z.shape)
    values = np.empty(z.shape, dtype=complex)
    err = np.empty(z.shape)
    poles = _poles(alpha, z)
    root = np.sqrt(poles).real
    choice = _contour_choice(root)
    for k, (mu, h, n) in enumerate(_CONTOURS):
        idx = np.flatnonzero(choice == k)
        if not idx.size:
            continue
        sigma, c = _contour_rule(alpha, beta, mu, h, n)
        step = _BLOCK_TERMS // len(sigma)
        for lo in range(0, idx.size, step):
            sel = idx[lo:lo + step]
            terms = c / (sigma - z[sel, None])
            values[sel] = terms.sum(axis=1)
            err[sel] = np.abs(terms).sum(axis=1)
        p = poles[idx]
        with np.errstate(over="ignore", invalid="ignore"):
            residues = np.where(root[idx] > math.sqrt(mu), np.exp(p) * p ** (1.0 - beta), 0.0)
        values[idx] += residues.sum(axis=1) / alpha
    return values, _EPS * err


def _warn_inaccurate(what, args, err, size, stacklevel):
    """One :class:`AccuracyWarning` naming the worst argument if any
    roundoff estimate ``err`` exceeds ``ML_TOL`` relative to the size of
    its value (a NaN counts as exceeding)."""
    with np.errstate(divide="ignore", invalid="ignore"):
        excess = np.nan_to_num(err / (ML_TOL * size), nan=np.inf)
    if excess.size and excess.max() > 1.0:
        i = int(np.argmax(excess))
        warnings.warn(
            f"{what} at {args[i]}: roundoff estimate {err[i]:.1e} against a value of size "
            f"{size[i]:.3g} exceeds the relative tolerance {ML_TOL:g} "
            f"({int((excess > 1.0).sum())} of {excess.size} arguments affected)",
            AccuracyWarning,
            stacklevel=stacklevel + 1,
        )


def ml_scalar(alpha, beta, z):
    """Two-parameter Mittag-Leffler function E_{a,b}(z), a > 0.

    Returns a float for real ``z`` and a complex number otherwise, from the
    contour quadrature of the module docstring (``exp`` at a = b = 1).
    Emits an :class:`AccuracyWarning` when the roundoff estimate exceeds
    ``ML_TOL`` relative to the value.  A one-argument call of the evaluator
    behind :func:`ml_kernel`.
    """
    if alpha <= 0:
        raise ValueError(f"ml_scalar requires alpha > 0, got {alpha}")
    is_complex = isinstance(z, complex)
    args = np.array([z], dtype=complex)
    values, err = _ml_values(alpha, beta, args)
    _warn_inaccurate(f"E_{{{alpha},{beta}}}", args, err, np.abs(values), 2)
    return complex(values[0]) if is_complex else float(values[0].real)


def _schur(mat):
    """Complex Schur form mat = Q T Q^H, by deflating one eigenvector at a
    time with a unitary whose first column it is.  Eigenvectors have
    residuals at roundoff level even where the basis is defective, so the
    entries left below the diagonal of T are of that size; callers read
    only the upper triangle."""
    n = mat.shape[0]
    t = mat.astype(complex)
    q = np.eye(n, dtype=complex)
    for k in range(n - 1):
        v = np.linalg.eig(t[k:, k:])[1][:, :1]
        u = np.linalg.qr(v, mode="complete")[0]
        t[k:] = u.conj().T @ t[k:]
        t[:, k:] = t[:, k:] @ u
        q[:, k:] = q[:, k:] @ u
    return t, q


def _ml_resolvent(alpha, beta, mat, scale):
    """E_{a,b}(s_k M) = sum_j c_j (sigma_j I - s_k M)^(-1) on the first
    contour, for each s_k of ``scale``; returns (matrices, roundoff
    estimates of their norms).

    With M = Q T Q^H every resolvent is Q (sigma_j I - s_k T)^(-1) Q^H, and
    the triangular inverses are taken by back substitution on all (node,
    contour node) pairs at once.  The contour nodes with u < 0 are the
    conjugates of those with u > 0, and so are the resolvents of a real M,
    so only u >= 0 is summed.  Raises ``ValueError`` if a pole of some
    s_k T_ii lies near or outside the contour, where a residue would need
    derivatives.
    """
    t, q = _schur(mat)
    lam = np.diag(t)
    n = len(lam)
    mu, h, m = _CONTOURS[0]
    poles = _poles(alpha, (scale[:, None] * lam).ravel())
    outside = (np.sqrt(poles).real > math.sqrt(mu) * (1.0 - _POLE_GAP)).any(axis=1)
    if outside.any():
        k = int(np.flatnonzero(outside)[0]) // n
        raise ValueError(
            f"E_{{{alpha},{beta}}}(t^a A) at t^a = {scale[k]:.6g}: A has an ill-conditioned "
            "eigenvector basis and an eigenvalue whose pole lies near or outside the "
            "quadrature contour; this case is not supported")
    sigma, c = _contour_rule(alpha, beta, mu, h, m)
    sigma, c = sigma[m:], 2.0 * c[m:]
    c[0] /= 2.0
    total = np.zeros((len(scale), n, n), dtype=complex)
    err = np.zeros((len(scale), n, n))
    step = max(1, _BLOCK_TERMS // (len(sigma) * n))
    for lo in range(0, len(scale), step):
        tau = scale[lo:lo + step, None]
        diag = [1.0 / (sigma - tau * lam[i]) for i in range(n)]
        for j in range(n):
            # column j of (sigma - tau T)^(-1), from the diagonal upwards
            col = {j: diag[j]}
            for i in range(j - 1, -1, -1):
                col[i] = tau * diag[i] * sum(t[i, k] * col[k] for k in range(i + 1, j + 1))
            for i, x in col.items():
                terms = c * x
                total[lo:lo + step, i, j] = terms.sum(axis=-1)
                err[lo:lo + step, i, j] = np.abs(terms).sum(axis=-1)
    # Q S Q^H and |Q| e |Q|^T in a fixed summation order, as on the eigen path
    out = np.einsum("ij,kjl,ml->kim", q, total, q.conj()).real
    bound = np.einsum("ij,kjl,ml->kim", np.abs(q), err, np.abs(q))
    return np.ascontiguousarray(out), _EPS * bound.sum(axis=-1).max(axis=-1)


def _ml_stack(alpha, beta, mat, scale):
    """E_{a,b}(s_k M) for every s_k of the 1-D array ``scale``, shape
    (len(scale), n, n): per eigenvalue when the eigenvector basis V of M is
    well conditioned, else by resolvents.  V diag(e) V^-1 loses about
    cond(V) eps relative to the matrix, so the eigen path serves only
    cond(V) eps <= ``ML_TOL``.  Called directly by the public functions,
    whose caller the warning points at."""
    n = mat.shape[0]
    w, v = np.linalg.eig(mat)
    cond = np.linalg.cond(v) if np.all(np.isfinite(v)) else math.inf
    what = f"E_{{{alpha},{beta}}}"
    if cond * _EPS <= ML_TOL:
        args = (scale[:, None] * w[None, :]).ravel().astype(complex)
        values, err = _ml_values(alpha, beta, args)
        _warn_inaccurate(what, args, err, np.abs(values), 3)
        # V diag(e_k) V^-1 in a fixed summation order, not through BLAS,
        # so a node's matrix never depends on how many nodes share the call
        out = np.einsum("ij,kj,jl->kil", v, values.reshape(len(scale), n), np.linalg.inv(v))
        return np.ascontiguousarray(out.real)
    out, err = _ml_resolvent(alpha, beta, mat, scale)
    _warn_inaccurate(f"{what}(s A) of an ill-conditioned A, s = t^a,", scale, err,
                     np.abs(out).sum(axis=-1).max(axis=-1), 3)
    return out


def _square(mat, name):
    mat = np.asarray(mat, dtype=float)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValueError(f"{name} requires a square matrix, got shape {mat.shape}")
    if not np.all(np.isfinite(mat)):
        raise ValueError(f"{name} requires finite entries")
    return mat


def ml_matrix(alpha, beta, mat):
    """Matrix Mittag-Leffler function sum_{k>=0} M^k / Gamma(a k + b).

    A one-node call of the evaluator behind :func:`ml_kernel`: per
    eigenvalue when the eigenvector basis is well conditioned, else by
    resolvents on the quadrature nodes.
    """
    if alpha <= 0:
        raise ValueError(f"ml_matrix requires alpha > 0, got {alpha}")
    mat = _square(mat, "ml_matrix")
    return _ml_stack(alpha, beta, mat, np.ones(1))[0]


def ml_kernel(alpha, beta, mat, times):
    """E_{a,b}(t_k^a A) for every node t_k >= 0 of ``times``, shape
    (len(times), n, n), from one eigendecomposition of A.

    Eigen path: when the eigenvector basis V of A has condition estimate
    cond(V) <= ``ML_TOL`` / eps (about 4.5e5), the scalar function is
    evaluated on the whole (nodes x eigenvalues) argument array
    t_k^a lambda_j at once and each node's matrix is V diag(E(t_k^a lambda))
    V^-1, summed in a fixed order; it loses about cond(V) eps.  Resolvent
    path (ill-conditioned or defective V): each node's matrix is
    sum_j c_j (sigma_j I - t_k^a A)^(-1) on the first contour's nodes, which
    needs no eigenvectors and no derivatives; it raises ``ValueError`` if a
    pole of some t_k^a lambda lies near or outside that contour (never for
    a spectrum on the negative real axis with a < 1).

    Emits at most one :class:`AccuracyWarning` per call, naming the
    argument with the largest roundoff estimate relative to its value and
    how many arguments exceed ``ML_TOL``.  Every value depends only on its
    own node: ``ml_kernel(...)[k]`` equals the call on ``times[k:k+1]`` bit
    for bit.
    """
    if alpha <= 0:
        raise ValueError(f"ml_kernel requires alpha > 0, got {alpha}")
    mat = _square(mat, "ml_kernel")
    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or not np.all(times >= 0.0) or not np.all(np.isfinite(times)):
        raise ValueError("ml_kernel requires a 1-D array of finite times >= 0")
    return _ml_stack(alpha, beta, mat, times**alpha)


def _causal_convolution(spectra, hists, M, lo, out):
    """Add causal convolutions, taken by zero-padded real FFTs, into ``out``:
    out[i, ..., n - lo] += sum over the terms (h, i, k) of
    sum_m w_ik[m] hists[h][k, ..., n - m] for the rows n = lo .. lo + R - 1,
    with time-last histories of shape (dim, ..., length) and ``out`` of
    shape (dim, ..., R).

    ``spectra`` lists (mu, [(h, i, k, w_hat)]) with w_hat the length-M rfft of
    the balanced kernel e^(-mu m) w_ik[m] over K lags m = 0 .. K - 1
    (w_ik[0] = 0).  With histories of length H, M >= lo + R and
    M >= H + K - 1 - lo keep the circular products exact on the output
    rows.  Per rate mu each history is balanced to e^(-mu j) h[j] and
    transformed once over all its components, the products are summed in
    the frequency domain, and one inverse transform is scaled back by
    e^(mu n) and added into ``out``.  Transforms run along the last axis
    alone, so each row of the middle axes gets the same result whatever
    else shares the call.
    """
    # imported on use: a module-level import here loads scipy.fft earlier in
    # the package import than the simulator does, which was measured to raise
    # the peak RSS of the process by about 0.6 MB
    from scipy import fft as sp_fft

    hi = lo + out.shape[-1]
    src = np.arange(hists[0].shape[-1])
    dst = np.arange(lo, hi)
    for mu, terms in spectra:
        h_hats = {h: sp_fft.rfft(hists[h] * np.exp(-mu * src), M, axis=-1)
                  for h in {term[0] for term in terms}}
        total = np.zeros(out.shape[:-1] + (M // 2 + 1,), dtype=complex)
        for h, i, k, w_hat in terms:
            total[i] += w_hat * h_hats[h][k]
        out += sp_fft.irfft(total, M, axis=-1)[..., lo:hi] * np.exp(mu * dst)


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
    out = np.zeros(f.shape)
    _causal_convolution([(0.0, [(0, k, k, w_hat) for k in range(f.shape[1])])], (f.T,), M,
                        0, out.T)
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
