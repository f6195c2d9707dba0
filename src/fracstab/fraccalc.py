"""Scalar and matrix Mittag-Leffler functions and the discrete
Riemann-Liouville integral on uniform grids.

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
served apart, by ``exp``.  The nodes come in conjugate pairs u, -u, and
for a real z so do their terms: a real argument sums the half u >= 0 alone,
with doubled weights (u = 0 once), and keeps the real parts, half the work
of the complex arguments' whole-contour sum.  An argument below the real
axis is evaluated at its conjugate, so E(conj z) = conj E(z) exactly.
Each value's roundoff is
estimated as eps sum_k |c_k / (sigma_k - z)| over the terms it sums; a call
whose estimate exceeds ``ML_TOL`` relative to some value emits one
:class:`AccuracyWarning`.

Arguments are taken in fixed-size blocks and every row sum runs in a fixed
order, so a value is the same bits whatever batch it is evaluated in.
:func:`ml_kernel` evaluates E_{a,b}(t^a A) on a whole time grid from one
eigendecomposition; when the eigenvector basis is ill-conditioned or
defective it sums the resolvents c_k (sigma_k I - t^a A)^(-1) on the same
nodes instead.  :func:`ml_scalar` is a one-argument call of the same
evaluator, and the matrix function E_{a,b}(M) is the one-node kernel
``ml_kernel(a, b, M, [1.0])[0]``.

Gamma and Beta are taken from ``math.gamma`` (``math.lgamma`` only where a
Gamma factor of B overflows), the incomplete beta I_x(a, a) of the singular
cell weights from its power series (:func:`_betainc_aa`), and the FFT
convolutions from ``numpy.fft``, so this module needs nothing beyond numpy
and the standard library.

The Riemann-Liouville integral I^a f(t) = (1/Gamma(a)) int_0^t (t-r)^(a-1) f(r) dr
is discretised by product integration: the kernel factor is integrated
exactly against a piecewise-constant left-value interpolant of f, matching
the Ito (left-point) convention of the stochastic quadrature elsewhere in
the package.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import AccuracyWarning

__all__ = [
    "FractionalOrder",
    "ML_TOL",
    "gamma_fn",
    "beta_fn",
    "ml_scalar",
    "ml_kernel",
    "rl_integral_grid",
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
        if not (self.p >= 2 and float(self.p).is_integer()):
            raise ValueError(f"p must be an integer >= 2, got {self.p}")
        object.__setattr__(self, "p", int(self.p))


def gamma_fn(x: float) -> float:
    """Gamma function on the real line, from ``math.gamma``.

    Rejects the poles at nonpositive integers (within 1e-12) and returns
    +inf where the value overflows (x > 171.6).  Relative accuracy is at
    machine level over the range used here; ``math.gamma`` already applies
    reflection below 1/2.
    """
    if x <= 0 and abs(x - round(x)) <= 1e-12:
        raise ValueError(f"gamma_fn pole at nonpositive integer x={x}")
    try:
        return math.gamma(x)
    except OverflowError:
        return math.inf


def beta_fn(a: float, b: float) -> float:
    """Euler beta function B(a, b) = Gamma(a)Gamma(b)/Gamma(a+b), a, b > 0.

    Taken from ``math.gamma`` as written; once a Gamma factor overflows it
    is exp(lgamma(a) + lgamma(b) - lgamma(a + b)), which loses a few more
    digits to the cancelling logarithms.
    """
    if not (a > 0 and b > 0):
        raise ValueError(f"beta_fn requires positive arguments, got ({a}, {b})")
    try:
        value = math.gamma(a) * math.gamma(b) / math.gamma(a + b)
    except OverflowError:
        value = math.inf
    if math.isfinite(value):
        return value
    return math.exp(math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b))


def _betainc_aa(a, x):
    """Regularised incomplete beta I_x(a, a) for a in (1/2, 1] and an array
    of x in [0, 1]: the weight of the singular product s^(a-1) (t-s)^(a-1)
    over [0, x t], as a share of its integral over [0, t].

    On y = min(x, 1 - x) <= 1/2 the series B_y(a, a) = y^a sum_k
    (1-a)_k y^k / (k! (a+k)) (DLMF 8.17.7) is summed in Horner form; every
    term is positive, so the sum is accurate to a few eps relative, and
    I_x = 1 - I_(1-x) above 1/2.  The k-th term is below 2^-k / (a+k), so
    the terms past k = 52 add less than 2^-52 = eps relative to the first,
    1/a >= 1, and 53 terms are summed.  The sum is divided by
    B(a, a) = 2 B_(1/2)(a, a) from the same series, not by ``beta_fn``: then
    I_(1/2) is exactly 1/2, so the values do not step down where the mirror
    takes over, and this B is within 0.6 eps of mpmath against 3.6 eps for
    ``beta_fn`` (a in {0.55, 0.6, 0.75, 0.9, 0.99}).  Each value depends on
    its own x alone, whatever array it comes in.
    """
    x = np.asarray(x, dtype=float)
    # in place from here on, so that only y and the sum are allocated; the
    # last y is 1/2, for B(a, a)
    y = np.append(np.minimum(x, 1.0 - x), 0.5)
    coeffs = [1.0 / a]
    ratio = 1.0
    for k in range(1, 53):
        ratio *= (k - a) / k  # (1-a)_k / k!
        coeffs.append(ratio / (a + k))
    total = np.full_like(y, coeffs[-1])
    for c in coeffs[-2::-1]:
        total *= y
        total += c
    total *= np.power(y, a, out=y)
    low = total[:-1].reshape(x.shape)
    low /= 2.0 * total[-1]
    return np.subtract(1.0, low, out=low, where=x > 0.5)


def _contour_rule(alpha, beta, mu, h, n):
    """Nodes sigma_k = s_k^a and weights c_k of the trapezoid rule for
    (1/2 pi i) int e^s s^(a-b) / (s^a - z) ds on s(u) = mu (1 + iu)^2."""
    w = 1.0 + 1j * h * np.arange(-n, n + 1)
    s = mu * w * w
    # ds = 2 i mu w du, and h / (2 pi i) * 2 i mu = h mu / pi
    return s**alpha, (h * mu / math.pi) * w * np.exp(s) * s ** (alpha - beta)


def _half_rule(sigma, c):
    """The nodes u >= 0 of a rule from :func:`_contour_rule`, with doubled
    weights (the node u = 0 once): node -u's term c / (sigma - z) is the
    conjugate of node u's for a real argument z, so the real part of the
    half sum is the whole sum."""
    n = len(sigma) // 2
    weights = 2.0 * c[n:]
    weights[0] /= 2.0
    return sigma[n:], weights


def _poles(alpha, z):
    """Principal-sheet poles of s^(a-b) / (s^a - z) for a 1-D array ``z``:
    s* = |z|^(1/a) e^(i (arg z + 2 pi j) / a) for the j with
    |arg z + 2 pi j| < a pi (one j at most for a <= 1), shape (len(z), J),
    NaN where branch j has none.  A pole whose modulus overflows comes out
    infinite, without a numpy warning."""
    jmax = math.ceil((alpha + 1.0) / 2.0) - 1
    angle = np.angle(z)[:, None] + 2.0 * math.pi * np.arange(-jmax, jmax + 1)
    with np.errstate(over="ignore", invalid="ignore"):
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


def _row_sums(sigma, c, z):
    """sum_k c_k / (sigma_k - z) and sum_k |c_k / (sigma_k - z)| for each
    argument of the 1-D array ``z``, in blocks of ``_BLOCK_TERMS`` terms;
    for a real ``z`` only the real parts of the terms are summed."""
    real = np.isrealobj(z)
    sums = np.empty(z.shape, dtype=float if real else complex)
    moduli = np.empty(z.shape)
    step = _BLOCK_TERMS // len(sigma)
    for lo in range(0, z.size, step):
        terms = c / (sigma - z[lo:lo + step, None])
        sums[lo:lo + step] = (terms.real if real else terms).sum(axis=1)
        moduli[lo:lo + step] = np.abs(terms).sum(axis=1)
    return sums, moduli


def _ml_values(alpha, beta, z):
    """E_{a,b} on a 1-D complex array ``z``; returns (values, roundoff
    estimates eps sum_k |c_k / (sigma_k - z)|).  A real argument sums the
    contour's half u >= 0 (:func:`_half_rule`), a complex one the whole
    contour; the choice is made per argument.  An argument below the real
    axis is evaluated at its conjugate and the value conjugated back, so
    E(conj z) = conj E(z) holds to the bit."""
    if alpha == 1.0 and beta == 1.0:
        # the exponential, at full relative accuracy deep on the negative axis
        return np.exp(z), np.zeros(z.shape)
    lower = z.imag < 0.0
    z = np.where(lower, z.conj(), z)
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
        on_axis = z[idx].imag == 0.0
        real, cplx = idx[on_axis], idx[~on_axis]
        values[real], err[real] = _row_sums(*_half_rule(sigma, c), z[real].real)
        values[cplx], err[cplx] = _row_sums(sigma, c, z[cplx])
        p = poles[idx]
        with np.errstate(over="ignore", invalid="ignore"):
            # a pole at Re s* = -inf (|z|^(1/a) overflowed) has e^(s*) = 0
            residues = np.where((root[idx] > math.sqrt(mu)) & (p.real > -math.inf),
                                np.exp(p) * p ** (1.0 - beta), 0.0)
            values[idx] += residues.sum(axis=1) / alpha
        # where e^(s*) overflows, complex arithmetic on the infinite residue
        # leaves NaN; the value is infinite: +inf for a real argument (the
        # positive axis for a <= 2) and inf + inf j, an infinite modulus
        # without a phase, off the real axis
        over = idx[~np.isfinite(residues).all(axis=1)]
        values[over] = np.where(z[over].imag == 0.0, complex(math.inf, 0.0),
                                complex(math.inf, math.inf))
    # an infinite value keeps its inf + inf j
    np.conjugate(values, out=values, where=lower & np.isfinite(values))
    return values, _EPS * err


def _warn_inaccurate(what, args, err, size, stacklevel):
    """One :class:`AccuracyWarning` naming the worst argument if any
    roundoff estimate ``err`` exceeds ``ML_TOL`` relative to the size of
    its value (a NaN counts as exceeding; a zero estimate, as of an exact
    value, never does)."""
    with np.errstate(divide="ignore", invalid="ignore"):
        excess = np.nan_to_num(np.where(err == 0.0, 0.0, err / (ML_TOL * size)), nan=np.inf)
    if excess.size and excess.max() > 1.0:
        i = int(np.argmax(excess))
        warnings.warn(
            f"{what} at {args[i]}: roundoff estimate {err[i]:.1e} against a value of size "
            f"{size[i]:.3g} exceeds the relative tolerance {ML_TOL:g} "
            f"({int((excess > 1.0).sum())} of {excess.size} arguments affected)",
            AccuracyWarning,
            stacklevel=stacklevel + 1,
        )


def _check_order(name, alpha, beta):
    """The parameter checks shared by the Mittag-Leffler entry points."""
    if not (alpha > 0 and math.isfinite(alpha)):
        raise ValueError(f"{name} requires a finite alpha > 0, got {alpha}")
    if not math.isfinite(beta):
        raise ValueError(f"{name} requires a finite beta, got {beta}")


def ml_scalar(alpha, beta, z):
    """Two-parameter Mittag-Leffler function E_{a,b}(z), a > 0.

    Returns a float for real ``z`` and a complex number otherwise, from the
    contour quadrature of the module docstring (``exp`` at a = b = 1).
    Where the value overflows it is infinite: +inf for real ``z``, and
    inf + inf j (an infinite modulus, no phase) for complex ``z``.  Emits an
    :class:`AccuracyWarning` when the roundoff estimate exceeds ``ML_TOL``
    relative to the value.  Raises ``ValueError`` unless alpha is a finite
    number > 0 and beta is finite, and when the real or the imaginary part
    of ``z`` is NaN or infinite.  A one-argument call of the evaluator behind :func:`ml_kernel`.
    """
    _check_order("ml_scalar", alpha, beta)
    is_complex = isinstance(z, complex)
    args = np.array([z], dtype=complex)
    if np.isnan(args[0]):
        raise ValueError(f"ml_scalar requires z without a NaN part, got {z}")
    if np.isinf(args[0]):
        raise ValueError(f"ml_scalar requires z without an infinite part, got {z}")
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
    sigma, c = _half_rule(*_contour_rule(alpha, beta, mu, h, m))
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
    cond(V) eps <= ``ML_TOL``.  Called directly by :func:`ml_kernel`,
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
        values = values.reshape(len(scale), n)
        out = np.einsum("ij,kj,jl->kil", v, values, np.linalg.inv(v))
        # a node with an overflowed (infinite) eigenvalue value has an infinite
        # norm; complex arithmetic on it would leave NaN in every entry
        out[np.isinf(values).any(axis=1)] = np.inf
        return np.ascontiguousarray(out.real)
    out, err = _ml_resolvent(alpha, beta, mat, scale)
    _warn_inaccurate(f"{what}(s A) of an ill-conditioned A, s = t^a,", scale, err,
                     np.abs(out).sum(axis=-1).max(axis=-1), 3)
    return out


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
    a spectrum on the negative real axis with a < 1).  A node at which
    some eigenvalue's value overflows (is infinite) is +inf in every entry: its
    norm is infinite.

    Emits at most one :class:`AccuracyWarning` per call, naming the
    argument with the largest roundoff estimate relative to its value and
    how many arguments exceed ``ML_TOL``.  Every value depends only on its
    own node: ``ml_kernel(...)[k]`` equals the call on ``times[k:k+1]`` bit
    for bit.
    """
    _check_order("ml_kernel", alpha, beta)
    mat = np.asarray(mat, dtype=float)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValueError(f"ml_kernel requires a square matrix, got shape {mat.shape}")
    if not np.all(np.isfinite(mat)):
        raise ValueError("ml_kernel requires finite entries")
    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or not np.all(times >= 0.0) or not np.all(np.isfinite(times)):
        raise ValueError("ml_kernel requires a 1-D array of finite times >= 0")
    return _ml_stack(alpha, beta, mat, times**alpha)


def _fast_len(n):
    """The smallest 5-smooth length 2^i 3^j 5^k >= n (n >= 1), a length the
    real FFT factors into its fastest radices."""
    best = 1 << (n - 1).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            # the smallest power-of-two multiple of p35 that reaches n
            best = min(best, p35 << (-(-n // p35) - 1).bit_length())
            p35 *= 3
        p5 *= 5
    return best


def _causal_convolution(spectra, hists, M, lo, out):
    """Add causal convolutions, taken by zero-padded real FFTs, into ``out``:
    out[i, ..., n - lo] += sum over the terms (h, i, k) of
    sum_m w_ik[m] hists[h][k, ..., n - m] for the rows n = lo .. lo + R - 1,
    with time-last histories of shape (dim, ..., length) and ``out`` of
    shape (dim, ..., R).

    ``spectra`` lists (mu, [(h, i, k, w_hat)]) with w_hat the length-M rfft of
    the balanced kernel e^(-mu m) w_ik[m] over K indices m = 0 .. K - 1.
    With histories of length H, M >= lo + R and
    M >= H + K - 1 - lo keep the circular products exact on the output
    rows.  Per rate mu each history is balanced to e^(-mu j) h[j] and
    transformed once over all its components (at mu = 0 all histories in
    one call, unbalanced), the products are summed in the frequency domain
    into zeros, so a component with no term of that rate gets zeros, and
    one inverse transform is scaled back by e^(mu n) and added into
    ``out``.  A decaying kernel (mu = 0) skips both balancing multiplies,
    whose factors would all be exactly 1, so its result is the same bits.
    Transforms run along the last axis alone, so each row of the middle
    axes gets the same result whatever else shares the call.

    The marches' far field (``simulator._far_field``) calls this for each
    batch of paths of each block of the blocked convolution, so its
    temporaries live for one batch; a march stays O(N log^2 N) per path.
    """
    hi = lo + out.shape[-1]
    if any(mu for mu, _ in spectra):
        src, dst = np.arange(hists[0].shape[-1]), np.arange(lo, hi)
    for mu, terms in spectra:
        if mu == 0:
            h_hats = np.fft.rfft(hists, M, axis=-1)
        else:
            h_hats = {h: np.fft.rfft(hists[h] * np.exp(-mu * src), M, axis=-1)
                      for h in {term[0] for term in terms}}
        total = np.zeros(out.shape[:-1] + (M // 2 + 1,), dtype=complex)
        for h, i, k, w_hat in terms:
            total[i] += w_hat * h_hats[h][k]
        part = np.fft.irfft(total, M, axis=-1)[..., lo:hi]
        if mu:
            part *= np.exp(mu * dst)
        out += part


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
    if not (dt > 0 and math.isfinite(dt)):
        raise ValueError(f"grid step must be finite and positive, got {dt}")
    f = np.asarray(samples, dtype=float)
    squeeze = f.ndim == 1
    if squeeze:
        f = f[:, None]
    n_nodes = f.shape[0]
    m = np.arange(n_nodes, dtype=float)
    # integral of the kernel over the cell with lag m, none at lag 0
    coeff = np.concatenate(([0.0], m[1:] ** alpha - m[:-1] ** alpha))
    M = _fast_len(max(2 * n_nodes, 1))
    w_hat = np.fft.rfft(coeff, M)
    out = np.zeros(f.shape)
    _causal_convolution([(0.0, [(0, k, k, w_hat) for k in range(f.shape[1])])], (f.T,), M,
                        0, out.T)
    out *= dt**alpha / gamma_fn(alpha + 1.0)
    out[:1] = 0.0
    return out[:, 0] if squeeze else out
