"""Spectra, the fractional stability sector, and long-horizon kernel profiles.

A matrix A is admissible for order ``a`` when every eigenvalue lies in the
sector  {lambda != 0 : |arg(lambda)| > a*pi/2}.  For such A the kernel
t^(a-1) E_{a,a}(t^a A) decays algebraically; this module estimates the
constants behind that statement on finite grids:

* ``ml_norm_sup``  sup over [0, T] of ||E_{a,a}(t^a A)||,
* ``kernel_bounds_profile``  a plateau time t0 with the tail coefficient
  sup_{t>=t0} t^(2a) ||E_{a,a}(t^a A)||  (so that t^(a-1)||E_{a,a}(t^a A)||
  is bounded by tail_coefficient / t^(a+1) past t0), and the supremum of
  t^(1-a) int_0^t (t-s)^(a-1) ||E_{a,a}((t-s)^a A)|| s^(a-1) ds,
  whose finiteness drives the asymptotic estimates downstream.

The profile runs on one fixed grid, ``PROFILE_NODES`` uniform cells on
[0, ``PROFILE_T_MAX``].  The convolution's exact cell weights
int s^(a-1)(t_n - s)^(a-1) ds on it depend only on the order a, never on
A: they are built once per order, each node's full row, and kept for the
last order (about 4 MB), so a sweep over matrices at one order computes
them once.  A node's convolution is then one contiguous dot product of its
row with the cell averages of ||E_{a,a}|| in reverse order.

All suprema are grid estimates and are labelled as such; the matrix norm is
the maximum absolute row sum throughout.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ProfileDivergenceError
from .fraccalc import _betainc_aa, beta_fn, ml_kernel

__all__ = [
    "Spectrum",
    "SectorVerdict",
    "KernelBoundsReport",
    "matrix_norm",
    "eigenvalues",
    "sector_check",
    "ml_norm_sup",
    "kernel_bounds_profile",
]

# Cells of the uniform grid on which ml_norm_sup samples the kernel norm.
ML_NORM_NODES = 256
# Horizon and cells of the uniform grid of kernel_bounds_profile.
PROFILE_T_MAX = 100.0
PROFILE_NODES = 1000


def matrix_norm(mat):
    """Maximum absolute row sum of a matrix (a float), or of each matrix of
    a stack (..., n, n) (an array)."""
    norms = np.abs(np.atleast_2d(np.asarray(mat, dtype=float))).sum(axis=-1).max(axis=-1)
    return float(norms) if norms.ndim == 0 else norms


@dataclass(frozen=True)
class Spectrum:
    """All eigenvalues of a real matrix plus an eigenpair residual
    max_i ||A v_i - lambda_i v_i|| / ||v_i||."""

    eigenvalues: np.ndarray
    residual: float


@dataclass(frozen=True)
class SectorVerdict:
    """Membership of a spectrum in the stability sector |arg| > a*pi/2.

    ``margin`` is min_lambda(|arg lambda| - a*pi/2) in radians; membership
    requires a positive margin and no zero eigenvalue.
    """

    in_sector: bool
    margin: float
    offending_eigenvalue: complex | None = None


@dataclass(frozen=True)
class KernelBoundsReport:
    """Grid estimates of the long-horizon kernel constants.

    ``t0`` is the first grid node past which t^(2a)||E_{a,a}(t^a A)|| is
    non-increasing and ``tail_coefficient`` its supremum from there on; ``conv_sup``
    is the grid supremum of the weighted singular convolution (see module
    docstring).  Both t0 and tail_coefficient are reported as observed; no
    monotone relation between them is assumed.  ``conv_tail_change`` is the
    relative growth of the running supremum over the last decade of the
    grid, [``PROFILE_T_MAX``/10, ``PROFILE_T_MAX``], and ``conv_running`` the
    full running-supremum curve, kept so stabilisation can be inspected on
    any window.
    """

    kernel_sup: float
    t0: float
    tail_coefficient: float
    conv_sup: float
    conv_tail_change: float
    conv_running: np.ndarray


def eigenvalues(mat) -> Spectrum:
    """Full spectrum of a real square matrix with an eigenpair residual.

    Backed by the LAPACK nonsymmetric eigensolver; the residual certifies
    the result (<= ~1e-8 * ||A|| for the sizes handled here, n <= 50).
    """
    mat = np.atleast_2d(np.asarray(mat, dtype=float))
    if mat.shape[0] != mat.shape[1]:
        raise ValueError(f"eigenvalues requires a square matrix, got {mat.shape}")
    if not np.all(np.isfinite(mat)):
        raise ValueError("eigenvalues requires finite entries")
    w, v = np.linalg.eig(mat)
    norms = np.linalg.norm(v, axis=0)
    resid = np.linalg.norm(mat @ v - v * w[None, :], axis=0) / norms
    return Spectrum(eigenvalues=w, residual=float(np.max(resid)))


def sector_check(spectrum: Spectrum, alpha: float) -> SectorVerdict:
    """Test spec(A) against the sector |arg(lambda)| > alpha*pi/2, 0 excluded."""
    if not 0.5 < alpha <= 1.0:
        raise ValueError(f"sector_check requires alpha in (1/2, 1], got {alpha}")
    w = np.asarray(spectrum.eigenvalues)
    half_angle = alpha * math.pi / 2.0
    margins = np.abs(np.angle(w)) - half_angle
    worst = int(np.argmin(margins))
    margin = float(margins[worst])
    zeros = np.abs(w) == 0.0
    if np.any(zeros):
        bad = w[zeros][0]
        return SectorVerdict(False, margin, complex(bad))
    if margin <= 0.0:
        return SectorVerdict(False, margin, complex(w[worst]))
    return SectorVerdict(True, margin, None)


def ml_norm_sup(a_mat, alpha, T):
    """Grid estimate of M = sup_{t in [0,T]} ||E_{a,a}(t^a A)|| (max row sum).

    The grid is uniform, ``ML_NORM_NODES`` cells, and includes both endpoints.
    """
    if not (math.isfinite(T) and T > 0):
        raise ValueError(f"ml_norm_sup requires a finite T > 0, got {T}")
    times = np.linspace(0.0, T, ML_NORM_NODES + 1)
    return float(np.max(matrix_norm(ml_kernel(alpha, alpha, np.atleast_2d(a_mat), times))))


@functools.lru_cache(maxsize=1)
def _profile_cells(alpha):
    """Exact cell weights of the profile grid t_j = j PROFILE_T_MAX /
    PROFILE_NODES: row n - 1 holds the n weights
    int_{t_j}^{t_(j+1)} s^(a-1) (t_n - s)^(a-1) ds, j = 0 .. n - 1, of node
    n.  The weight is symmetric about t_n / 2, so only the first half,
    diff(I_{t_j / t_n}(a, a)) for j <= (n + 1) // 2, is taken from the
    incomplete beta and mirrored, then scaled by B(a, a) t_n^(2a - 1).  The
    incomplete beta takes the arguments of a batch of consecutive rows in
    one call, about 2^12 of them.

    The rows depend only on the order, so they are kept for the last one
    (about 4 MB).  The rows are read-only, as every caller shares them.
    """
    times = np.arange(PROFILE_NODES + 1) * (PROFILE_T_MAX / PROFILE_NODES)
    b_aa = beta_fn(alpha, alpha)
    # a row has at most PROFILE_NODES // 2 + 2 arguments, so a batch about
    # 2^12; temporaries that small leave the rows unfragmented in the heap,
    # which bounds the table's peak RSS
    batch = (1 << 13) // PROFILE_NODES
    rows = []
    for first in range(1, PROFILE_NODES + 1, batch):
        nodes = range(first, min(first + batch, PROFILE_NODES + 1))
        # row n's differences start where its arguments do; the difference
        # across two rows' arguments is never read
        diffs = np.diff(_betainc_aa(alpha, np.concatenate(
            [times[: (n + 1) // 2 + 1] / times[n] for n in nodes])))
        start = 0
        for n in nodes:
            half = (n + 1) // 2
            low = diffs[start: start + half]
            start += half + 1
            row = np.concatenate((low, low[: n - half][::-1]))
            row *= b_aa
            row *= times[n] ** (2.0 * alpha - 1.0)
            row.flags.writeable = False
            rows.append(row)
    return tuple(rows)


def kernel_bounds_profile(a_mat, alpha) -> KernelBoundsReport:
    """Profile the two long-horizon kernel bounds on [0, ``PROFILE_T_MAX``],
    ``PROFILE_NODES`` cells.

    Requires sector membership (checked); raises
    :class:`ProfileDivergenceError` when the profiled quantities grow through
    the grid end, which signals an out-of-sector matrix or an insufficient
    horizon.

    The inner convolution integrand carries integrable singularities at both
    endpoints; each subinterval is integrated exactly against the full weight
    s^(a-1)(t-s)^(a-1) (regularised incomplete beta), with the smooth
    Mittag-Leffler norm factor averaged at the subinterval endpoints.  The
    cell table (:func:`_profile_cells`) depends only on alpha; it is built
    on the first call with an order and kept for the last order (about
    4 MB), so calls that share the order compute it once.  The cell
    averages are reversed once per call, and each node is then one BLAS dot
    product of two contiguous arrays.
    """
    a_mat = np.atleast_2d(np.asarray(a_mat, dtype=float))
    verdict = sector_check(eigenvalues(a_mat), alpha)
    if not verdict.in_sector:
        raise ProfileDivergenceError(
            "spectrum outside the stability sector, the kernel profile diverges; "
            f"margin={verdict.margin:.4g}, offending={verdict.offending_eigenvalue}"
        )

    times = np.arange(PROFILE_NODES + 1) * (PROFILE_T_MAX / PROFILE_NODES)
    psi = matrix_norm(ml_kernel(alpha, alpha, a_mat, times))

    kernel_sup = float(np.max(psi))

    # plateau of phi(t) = t^(2a) ||E_{a,a}(t^a A)||
    phi = times ** (2.0 * alpha) * psi
    increasing = np.diff(phi) > phi[:-1] * 1e-10
    if increasing[-1] or not np.any(~increasing):
        raise ProfileDivergenceError(
            "t^(2a)||E_{a,a}(t^a A)|| still grows at the end of the grid "
            f"(t_max={PROFILE_T_MAX}); no plateau found"
        )
    last_growth = int(np.nonzero(increasing)[0][-1])
    i0 = last_growth + 1
    t0 = float(times[i0])
    tail_coefficient = float(np.max(phi[i0:]))

    # weighted singular convolution C(t) = t^(1-a) * Q(t): node n's cells
    # against the averages of psi on cells n-1 .. 0, one contiguous dot each
    cells = _profile_cells(alpha)
    rev = np.ascontiguousarray((0.5 * (psi[1:] + psi[:-1]))[::-1])
    conv = np.zeros(PROFILE_NODES + 1)
    for n in range(1, PROFILE_NODES + 1):
        conv[n] = times[n] ** (1.0 - alpha) * float(cells[n - 1] @ rev[PROFILE_NODES - n:])
    running = np.maximum.accumulate(conv)
    conv_sup = float(running[-1])
    i_decade = int(np.searchsorted(times, PROFILE_T_MAX / 10.0))
    growth = float((running[-1] - running[i_decade]) / max(running[-1], 1e-300))
    if growth > 0.10:
        raise ProfileDivergenceError(
            "running supremum of the weighted singular convolution grew "
            f"{growth:.1%} over the last decade of t; profile has not stabilised"
        )

    return KernelBoundsReport(
        kernel_sup=kernel_sup,
        t0=t0,
        tail_coefficient=tail_coefficient,
        conv_sup=conv_sup,
        conv_tail_change=growth,
        conv_running=running,
    )
