"""Monte Carlo construction of mild solutions of the fractional stochastic
neutral system

    D^a (X(t) + g(t, X(t))) = A X(t) + b(t, X(t)) + sigma(t, X(t)) dW/dt,
    I^(1-a) (X + g(., X))|_{t=0} = rho,        a in (1/2, 1],

on a uniform grid t_n = n*dt.  Three equivalent representations are
discretised:

* ``simulate_mild``  marches the variation-of-constants form
  X(t) = t^(a-1) E_{a,a}(t^a A) rho - g(t, X(t))
         - int_0^t A (t-s)^(a-1) E_{a,a}((t-s)^a A) g(s, X(s)) ds
         + int_0^t   (t-s)^(a-1) E_{a,a}((t-s)^a A) b(s, X(s)) ds
         + int_0^t   (t-s)^(a-1) E_{a,a}((t-s)^a A) sigma(s, X(s)) dW(s).
* ``simulate_integral_form``  marches the second-kind Volterra form
  X + g(., X) = t^(a-1) rho / Gamma(a) + I^a [A X + b(., X) + sigma(., X) dW/dt]
  with the constant kernel (t-s)^(a-1)/Gamma(a) and the memory term A X.
* ``picard_path_solve``  iterates the whole-path solution operator of the
  discrete mild system on one path to its fixed point (Banach's contraction
  principle), reporting the sweeps and the contraction ratio.  It sweeps on
  the whole path (Jacobi) the equations the mild march solves node by node
  (Gauss-Seidel): both take them from ``_mild_scheme`` and share one neutral
  solve.  A sweep calls the drift and sigma once on the whole path and
  takes both history integrals with one FFT convolution, zero-padded to
  the power of two M >= 2N, O(N log N).

Quadrature conventions (shared): on each cell the singular scalar factor
(t_n - s)^(a-1) is integrated exactly and multiplies the left-point values
of kernel and coefficient (Ito convention).  The stochastic convolution uses
variance-matched weights kappa so that the per-cell Ito isometry is exact
even on the singular last cell (2a - 1 > 0).  Coefficient evaluations at the
singular node 0 use the convention X_0 := 0; their cell contributions vanish
under refinement and are exactly zero for vanishing coefficient families.
The schemes return the weighted states t^(1-a) X(t), the one form that is
finite on all of [0, T]: its limit at t = 0 is rho / Gamma(a).

The marches take each history integral as a discrete convolution over the
lags.  Lags inside a base block of 64 nodes are summed directly at every
step; the rest is added block by block with real FFTs zero-padded to
the power of two 2L for a block of L history rows (Hairer, Lubich &
Schlichte 1985), so a march costs O(N log^2 N) per path instead of
O(N^2).  A kernel that grows across a block (A outside the stability
sector) is balanced by its growth rate before the transform, so the far
field keeps the node-wise relative accuracy of a direct sum;
decaying kernels (growth rate mu = 0) skip the balancing multiplies.  In
the mild form A commutes with E_{a,a}(t^a A), so the neutral memory and
the drift share one convolution of b - A g; in the integral form the
memory term shares the drift weight.  Each march thus keeps two history
sums, drift and noise, over rows that it keeps in one ring of the largest
power of two below N (at least 64) rows, a node's drift row beside its
noise row: every block a sum reads is aligned to its own length, a power
of two dividing the ring's, so it lies contiguous in the ring and is not
yet overwritten.  A row is component-major, (dim, paths), so each direct
sum walks the paths contiguously, and one einsum per kernel entry takes
both sums of a step.  A march thus holds the states and a history of about
N/2 rows, and every node's sums keep the bits of sums over a full-length
history.

A step writes its drift row and its noise row sigma dW into the ring in
place.  The linear family declares its matrices
(:func:`~fracstab.coefficients.make_linear`), so its drift is folded into
one matrix F once per run: a step makes three fixed-order products, F x,
sigma's S x and the neutral solve.  The folded drift may round differently
from b, g and A taken one by one, which every other family (or a wrapper
hiding the matrices) does.  The increments are marched time-major, (N, P),
so a step reads one contiguous row.  The far field transforms the paths
in batches whose temporaries live for one batch, bounded by
``_FFT_BATCH``.

At each node the neutral term leaves the equation x + g(t_n, x) = rhs, in the
marches and in every Picard sweep alike.  The built-in families solve it
exactly (:mod:`fracstab.coefficients`): the linear family by one fixed-order
product with (I + G)^(-1), the sine family by Newton's method with a step count
fixed by the Kantorovich bound.  Any other g is solved by sweeps x <- rhs -
g(t_n, x): if g vanishes at 0 and is L_g-Lipschitz in the max norm, Banach's
a-priori estimate bounds the step after k sweeps by L_g^k (1 + L_g)/(1 - L_g)
|x_k|, so the sweep count follows from L_g and the tolerance alone.  Either
count of steps runs without a convergence test and only the last step is
tested, per path (per node of the path in a Picard sweep).  A path that fails
that test (g not vanishing at 0, or a declared L_g below the true contraction
rate) keeps iterating with a test on every step until it converges or the cap
(twice the sweep count, at least 100) raises ConvergenceError.  The tolerance
is ``coefficients.NEUTRAL_TOL``.

Paths are independent given their increments.  All reductions are per path
(direct sums in a fixed order, per-path transforms, and fixed-order matrix
products instead of BLAS), so a path's states do not depend on which other
paths share its ensemble.  Every caller runs a march's scheme tag through
``_solve``: the library schemes on their ensemble, ``fracstab convergence``
on each grid, and ``_ensemble_chunks`` (``fracstab simulate``) chunk by
chunk of paths in one set of buffers, never holding the ensemble whole.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .coefficients import CoefficientSet, _apply_matrix, _declared_matrix, _neutral_solver
from .errors import ConvergenceError, SimulationNumericError
from .fraccalc import FractionalOrder, _betainc_aa, beta_fn, gamma_fn, ml_kernel

__all__ = [
    "TimeGrid",
    "SystemSpec",
    "BrownianEnsemble",
    "PathEnsemble",
    "PicardResult",
    "brownian_increments",
    "simulate_mild",
    "simulate_integral_form",
    "picard_path_solve",
]


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid 0 = t_0 < ... < t_N = T."""

    T: float
    N: int

    def __post_init__(self):
        if not (math.isfinite(self.T) and self.T > 0):
            raise ValueError(f"T must be finite and positive, got {self.T}")
        if isinstance(self.N, bool) or not isinstance(self.N, numbers.Integral):
            raise ValueError(f"N must be an integer, got {self.N!r}")
        if self.N < 2:
            raise ValueError(f"N must be >= 2, got {self.N}")

    @property
    def dt(self) -> float:
        return self.T / self.N

    @property
    def nodes(self) -> np.ndarray:
        return np.arange(self.N + 1) * self.dt


@dataclass(frozen=True)
class SystemSpec:
    """Problem instance: drift matrix, weighted initial datum, coefficients,
    and the fractional/moment orders."""

    A: np.ndarray
    rho: np.ndarray
    coeffs: CoefficientSet
    order: FractionalOrder

    def __post_init__(self):
        a = np.atleast_2d(np.asarray(self.A, dtype=float))
        rho = np.atleast_1d(np.asarray(self.rho, dtype=float))
        if a.shape[0] != a.shape[1]:
            raise ValueError(f"A must be square, got {a.shape}")
        if rho.shape != (a.shape[0],):
            raise ValueError(f"rho shape {rho.shape} does not match A {a.shape}")
        if not (np.all(np.isfinite(a)) and np.all(np.isfinite(rho))):
            raise ValueError("A and rho must be finite")
        object.__setattr__(self, "A", a)
        object.__setattr__(self, "rho", rho)

    @property
    def n(self) -> int:
        return self.A.shape[0]


@dataclass(frozen=True)
class BrownianEnsemble:
    """Per-path Brownian increments, Normal(0, dt), shape (n_paths, N).

    Path i is generated from a counter-based stream keyed by
    (master_seed, i) alone, so the ensemble is independent of scheduling and
    reproducible path by path.
    """

    increments: np.ndarray


@dataclass(frozen=True)
class PathEnsemble:
    """Simulated weighted states on a grid: ``weighted[i, j]`` is
    t_j^(1-a) X(t_j) for path i, with the finite limit rho/Gamma(a) at
    j = 0, where X itself diverges like t^(a-1).
    """

    weighted: np.ndarray
    grid: TimeGrid


@dataclass(frozen=True)
class PicardResult:
    weighted: np.ndarray
    grid: TimeGrid
    iterations: int
    contraction_ratio: float


def brownian_increments(grid: TimeGrid, n_paths: int, master_seed: int) -> BrownianEnsemble:
    """Draw the increment matrix (n_paths, N), path i keyed by (master_seed, i)."""
    if n_paths < 1:
        raise ValueError("n_paths must be >= 1")
    out = np.empty((n_paths, grid.N))
    _draw_increments(grid, master_seed, 0, out.T)
    return BrownianEnsemble(increments=out)


# Paths drawn into one scratch block by _draw_increments before it is
# transposed into place
_DRAW_PATHS = 16


def _draw_increments(grid, master_seed, first, out):
    """Fill the columns of ``out`` (N, paths), time-major, with the
    increments of the paths first, first + 1, ..., each from its own
    (master_seed, path) stream.  Each path is drawn whole into a scratch of
    at most ``_DRAW_PATHS`` paths, which is then transposed into place."""
    sqrt_dt = math.sqrt(grid.dt)
    n_paths = out.shape[1]
    scratch = np.empty((min(_DRAW_PATHS, n_paths), grid.N))
    for p0 in range(0, n_paths, scratch.shape[0]):
        rows = scratch[:n_paths - p0]
        for r, row in enumerate(rows):
            seq = np.random.SeedSequence(master_seed, spawn_key=(first + p0 + r,))
            np.random.Generator(np.random.Philox(seq)).standard_normal(out=row)
            row *= sqrt_dt
        out[:, p0:p0 + rows.shape[0]] = rows.T


def _cell_weights(alpha, grid):
    """Quadrature weights of the cells, indexed by lag - 1.

    d[m-1]     exact integral of (t_n - s)^(a-1) over the cell with lag m,
    kappa[m-1] variance-matched stochastic weight for the same cell.
    """
    m = np.arange(grid.N + 1, dtype=float)
    d = grid.dt**alpha * np.diff(m**alpha) / alpha
    kappa = grid.dt ** (alpha - 1.0) * np.sqrt(
        np.diff(m ** (2.0 * alpha - 1.0)) / (2.0 * alpha - 1.0)
    )
    return d, kappa


def _mild_scheme(system: SystemSpec, grid: TimeGrid):
    """The discrete variation-of-constants system as the (free, w_f, w_s,
    drift) of :func:`_march`, with E[m] = E_{a,a}((m dt)^a A):

        free[n] = t_n^(a-1) E[n] rho,   w_f = d E[1:],   w_s = kappa E[1:],
        drift = b - A g,

    d, kappa the cell weights of :func:`_cell_weights`.  The march solves
    this system node by node and :func:`_picard` iterates it on a whole
    path; each builds it once per call.  E comes from one
    :func:`~fracstab.fraccalc.ml_kernel` call for the whole grid.  Raises
    :class:`SimulationNumericError` at the first node where E is not finite
    (it overflowed), before any step is taken.
    """
    alpha = system.order.alpha
    d, kappa = _cell_weights(alpha, grid)
    times = grid.nodes
    E = ml_kernel(alpha, alpha, system.A, times)
    finite = np.isfinite(E).all(axis=(1, 2))
    if not finite.all():
        n = int(np.argmin(finite))
        raise SimulationNumericError(
            f"the mild kernel E_{{a,a}}(t^a A) is not finite at node {n} (t = {times[n]:.6g}) "
            f"of the grid (T={grid.T}, N={grid.N}); it overflowed, so the scheme cannot run",
            node=n)
    free = np.zeros((grid.N + 1, system.n))
    free[1:] = times[1:, None] ** (alpha - 1.0) * np.einsum("nij,j->ni", E[1:], system.rho)
    g = system.coeffs.g
    # A commutes with E(A): the neutral memory -A E g shares the weight d E with b
    drift = _drift(system, -1.0, g, _declared_matrix(g))
    return free, d[:, None, None] * E[1:], kappa[:, None, None] * E[1:], drift


def _integral_scheme(system: SystemSpec, grid: TimeGrid):
    """The second-kind Volterra system as the (free, w_f, w_s, drift) of
    :func:`_march`: kernel (t-s)^(a-1)/Gamma(a) and memory term A X."""
    alpha = system.order.alpha
    inv_gamma = 1.0 / gamma_fn(alpha)
    d, kappa = _cell_weights(alpha, grid)
    t = grid.nodes[1:]
    free = np.zeros((grid.N + 1, system.n))
    free[1:] = (t ** (alpha - 1.0) * inv_gamma)[:, None] * system.rho
    # exact first-cell weight for the singular memory cell:
    # int_0^dt s^(a-1) (t_n - s)^(a-1) ds, applied to A rho / Gamma(a)
    cell0 = (beta_fn(alpha, alpha) * _betainc_aa(alpha, grid.dt / t)
             * t ** (2.0 * alpha - 1.0))
    free[1:] += (inv_gamma * cell0)[:, None] * (system.A @ (system.rho / gamma_fn(alpha)))
    eye = np.eye(system.n)
    # the memory term shares the weight d / Gamma(a) with b
    drift = _drift(system, 1.0, lambda t, x: x, eye)
    return (free, (inv_gamma * d)[:, None, None] * eye,
            (inv_gamma * kappa)[:, None, None] * eye, drift)


# The scheme tags of the marches, each resolved by _scheme and run by _solve
_SCHEMES = ("mild", "integral_form")


def _scheme(system: SystemSpec, grid: TimeGrid, tag):
    """The (free, w_f, w_s, drift) system of the scheme ``tag`` of
    ``_SCHEMES``: :func:`_mild_scheme` or :func:`_integral_scheme`."""
    return (_mild_scheme if tag == "mild" else _integral_scheme)(system, grid)


def _drift(system, sign, memory, memory_matrix):
    """The drift row ``drift(t, x, out=None)`` = b(t, x) + sign A memory(t, x)
    of a scheme (sign = -1, memory g in the mild form), written into ``out``
    when it is given.

    When b and the memory term both declare a matrix (the linear family,
    :func:`~fracstab.coefficients.make_linear`), they are folded into
    F = B + sign A M once, and a row is the one fixed-order product F x, as
    batch-independent as the three it replaces; it may round differently
    from them.  Any other family takes b, the memory term and A x its
    product one by one.
    """
    A, b = system.A, system.coeffs.b
    b_matrix = _declared_matrix(b)
    if b_matrix is not None and memory_matrix is not None:
        matrix = b_matrix + sign * (A @ memory_matrix)

        def folded(t, x, out=None):
            return _apply_matrix(matrix, x, out)

        return folded
    combine = np.subtract if sign < 0 else np.add

    def drift(t, x, out=None):
        return combine(b(t, x), _apply_matrix(A, np.asarray(memory(t, x))), out=out)

    return drift


# History rows and targets (node n is target n - 1) inside one aligned block
# of this many are summed directly at each step; a power of two, so every
# full far-field transform has power-of-two length.
_BASE_BLOCK = 64
# Real elements (components x paths x transform length) per batched far-field
# transform; bounds the FFT scratch memory whatever the ensemble size.
_FFT_BATCH = 1 << 14


def _kernel_entries(w_f, w_s):
    """The (i, k, w) that every history sum reads: the columns (i, k) not
    identically zero in the drift or noise kernel, (N, dim, dim) indexed by
    lag - 1, with w (2, N) stacking the column of w_f on that of w_s."""
    dim = w_f.shape[1]
    return [(i, k, np.stack((w_f[:, i, k], w_s[:, i, k])))
            for i in range(dim) for k in range(dim)
            if np.any(w_f[:, i, k]) or np.any(w_s[:, i, k])]


def _ring_rows(n_steps):
    """Rows R of a march's history ring: the largest power of two below N,
    at least one base block, at most N.  History row j is kept in ring row
    j mod R until row j + R overwrites it.

    Every block the march reads is aligned to its own length L, a power of
    two dividing R, so it lies contiguous in the ring: the base block of the
    per-step sums, and the history block [c - L, c) of every far-field
    block, whose L <= c < N makes L <= R.
    """
    return min(n_steps, max(_BASE_BLOCK, 1 << ((n_steps - 1).bit_length() - 1)))


def _ring_width(n_values):
    """Doubles per ring row of n values: an odd number of 64-byte lines."""
    return 8 * (-(-n_values // 8) | 1)


def _ring(n_ring, dim, n_paths, flat=None):
    """The history ring of a march, (R, 2, dim, P): row r holds the drift
    row and the noise row of one node, each component-major.  It lies on
    the flat buffer ``flat`` (a new one when not given).

    A row is padded to an odd number of 64-byte lines: rows a multiple of
    4 KiB apart all fall in one set of the CPU caches, and the far field
    gathers a block one path at a time, down its rows.  With odd rows the
    rows spread over all sets; gathering 1024 rows of 512 paths took 3.0 ms
    with rows 4 KiB apart and 0.55 ms with the padding.
    """
    width = _ring_width(2 * dim * n_paths)
    if flat is None:
        flat = np.empty(n_ring * width)
    return (flat[:n_ring * width].reshape(n_ring, width)[:, :2 * dim * n_paths]
            .reshape(n_ring, 2, dim, n_paths))


def _ring_block(ring, lo, hi):
    """The history rows lo .. hi - 1 of the ring, an L-aligned block (see
    :func:`_ring_rows`), as a view of shape (rows, 2, dim, paths)."""
    start = lo % ring.shape[0]
    return ring[start:start + hi - lo]


def _direct_sum(entries, block, lag, out):
    """out[:, i] += sum_j w[h, lag - 1 - j] block[j, h, k, :] over the
    entries (i, k, w) of :func:`_kernel_entries` and the drift and noise
    histories h = 0, 1: the rows of ``block`` (rows, 2, dim, P) lie lag,
    lag - 1, ... nodes before the target, and each row is component-major,
    so a component's paths are contiguous.  One einsum takes the drift and
    the noise sum of an entry, and the sums are added drift first, then
    noise, each in the order of the entries.

    einsum without BLAS: the reduction order depends only on the lag range,
    so every path gets the same sum whatever the batch it is marched in; a
    lone path too, as the march sums at most a base block of lags (numpy
    would chunk a one-path sum past 8192).  A lone path keeps the bits of a
    batch only while einsum adds its lags one by one in order, as it does
    for every path of a batch.  einsum switches to a SIMD reduction, which
    adds in another order, when both operands are contiguous along the
    lags; so the kernel operand must stay the negative-stride view
    ``w[:, ...][:, ::-1]``, never a contiguous copy (the padded ring rows
    of ``block`` are not contiguous either).  With a contiguous copy of the
    reversed kernel, a one-history sum over contiguous rows
    (``einsum("m,mp->p")`` for one component) changed the bits of 705 of
    1000 random lone-path sums of 1 to 64 lags.
    """
    rows = block.shape[0]
    sums = [np.einsum("hm,mhp->hp", w[:, lag - rows:lag][:, ::-1], block[:, :, k])
            for _, k, w in entries]
    for h in (0, 1):
        for (i, _, _), total in zip(entries, sums):
            target = out[:, i]
            target += total[h]


def _block_spectra(entries, n_lags, M):
    """Kernel transforms of one far-field block shape (or of a whole path),
    grouped by balancing rate: a list of (mu, [(history index h, i, k, rfft
    of the balanced e^(-mu m) w[h, m] over the indices m = lag - 1 = 0 ..
    n_lags - 1)]) over the :func:`_kernel_entries` (i, k, w), the drift
    terms first.  Each term's rate is taken between the two halves of
    those indices, so it sees as many lags late as early in a block that
    the end of the grid cuts short too."""
    groups = {}
    half = n_lags // 2
    index = np.arange(float(n_lags))
    for h in (0, 1):
        for i, k, w in entries:
            early = np.abs(w[h, :half]).max()
            late = np.abs(w[h, half:n_lags]).max()
            # growth per node from the indices [0, half) to [half, n_lags)
            mu = math.log(late / early) / (n_lags - half) if late > early > 0 else 0.0
            w_hat = np.fft.rfft(w[h, :n_lags] * np.exp(-mu * index), M)
            groups.setdefault(mu, []).append((h, i, k, w_hat))
    return sorted(groups.items())


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

    Its callers are the marches' far field (:func:`_far_field`), for each
    batch of paths of each block of the blocked convolution at M = 2L, so
    its temporaries live for one batch and a march stays O(N log^2 N) per
    path, and the Picard sweep (:func:`_picard`), on the whole path at the
    power of two M >= 2N.
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


def _far_field(entries, ring, acc, c, spectra):
    """Add the finished history block [c - L, c) to the targets [c, c + L)
    below N, read from the march's history ring; target t is node t + 1
    of acc, shaped (P, N+1, dim).

    Blocked convolution (Hairer, Lubich & Schlichte 1985, in its
    divide-and-conquer form) of the N history rows with the N targets:
    L is the largest base-block multiple such that [c - L, c) is the left
    half of an aligned dyadic block of length 2L, so every pair (history j,
    target t >= j) in different base blocks is added exactly once, by the
    left half that closes first.  A block's kernel indices t - j = lag - 1
    span 1 .. 2L - 1; with zero-padded transforms of length M = 2L >= L + R
    (R targets, fewer than L only in the block that the end of the grid
    cuts short) the circular product is exact on the target rows.  As
    L <= c < N, every block lies in the ring.

    A transform's roundoff is bounded by the norms of the whole block, so a
    kernel that grows across the block (a matrix outside the stability
    sector) is balanced first: w[m] h[j] = e^(mu t) (e^(-mu m) w[m])
    (e^(-mu j) h[j]), with block-local j, t and the entry's own growth rate
    mu >= 0 over the block's indices (:func:`_block_spectra`), so each
    target keeps the relative accuracy of a direct sum.  Decaying kernels
    have mu = 0 and skip the balancing multiplies; the drift and noise
    products of each rate are summed in the frequency domain by
    :func:`_causal_convolution`.  Transforms are per path, so batching
    paths cannot change the result.

    ``spectra`` holds the kernel transforms of the march by block length
    L + R.  Each batch of paths is gathered path-major and transformed on
    its own, so the temporaries of the transforms live for one batch,
    bounded by ``_FFT_BATCH``.
    """
    L = _BASE_BLOCK
    while c % (2 * L) == 0:
        L *= 2
    hi = min(c + L, acc.shape[1] - 1)
    n_lags = L + hi - c
    M = 2 * L
    if n_lags not in spectra:
        spectra[n_lags] = _block_spectra(entries, n_lags, M)
    n_paths, dim = acc.shape[0], acc.shape[2]
    batch = max(1, _FFT_BATCH // (dim * M))
    block = _ring_block(ring, c - L, c)
    for p0 in range(0, n_paths, batch):
        p1 = min(p0 + batch, n_paths)
        # path-major histories (2, dim, paths, L)
        hists = np.ascontiguousarray(block[..., p0:p1].transpose(1, 2, 3, 0))
        _causal_convolution(spectra[n_lags], hists, M, L,
                            acc[p0:p1, c + 1:hi + 1].transpose(2, 0, 1))


def _check_finite(states, n0, n1, scheme, first):
    """Refuse the first of the nodes n0 .. n1 - 1 where a state is not
    finite, naming the paths (numbered from ``first``) that are not finite
    there."""
    block = states[:, n0:n1]
    if np.all(np.isfinite(block)):
        return
    finite = np.all(np.isfinite(block), axis=2)
    n = int(np.argmin(finite.all(axis=0)))
    bad = (first + np.flatnonzero(~finite[:, n])).tolist()
    raise SimulationNumericError(
        f"{scheme}: non-finite state at node {n0 + n} for paths {bad[:8]}",
        path_indices=bad,
        node=n0 + n,
    )


def _weight(states, system, grid):
    """Weight the states (P, N+1, dim) in place: node 0 gets rho/Gamma(a),
    nodes 1..N the factor t^(1-a)."""
    alpha = system.order.alpha
    states[:, 0, :] = system.rho / gamma_fn(alpha)
    states[:, 1:, :] *= grid.nodes[None, 1:, None] ** (1.0 - alpha)


def _march(system, grid, increments, scheme, scheme_tag, states, flat=None, first=0):
    """Shared time-marching core of the mild and integral-form schemes:

        x_n = free[n] + sum_{j<n} w_f[n-j] f_j + sum_{j<n} w_s[n-j] s_j - g(t_n, x_n),

    f_j = drift(t_j, x_j), s_j = sigma(t_j, x_j) dW_j, with X_0 := 0 at node 0;
    the arrays w_f and w_s hold lag m at index m - 1.  Node n sums directly
    the rows of the base block that holds row n - 1, at most 64; every other
    part of the two history sums is added ahead of time by
    :func:`_far_field`, into the nodes of the state array not yet marched.
    All paths of ``increments`` are marched together; it is time-major,
    (N, P), so step j reads row j (the library schemes pass the transposed
    view of their ensemble).  Each coefficient is called at most once per
    node (the linear family's b and g not at all, see :func:`_drift`), and
    the rows f_j and s_j are written in place into one history ring of
    :func:`_ring_rows` rows (:func:`_ring`), component-major (dim, P).

    Marches into the states (P, N+1, dim) and into the ring buffer
    ``flat`` when it is given (a chunk's buffers); a new ring is freed on
    return, before the caller weights the states.
    Each base block of nodes is checked for finiteness before the far field
    reads it and after the last step: a non-finite state raises
    :class:`SimulationNumericError` at its first node, naming its paths
    numbered from ``first``.
    """
    free, w_f, w_s, drift = scheme
    sigma, solve = system.coeffs.sigma, _neutral_solver(system.coeffs)
    n_steps, n_paths, dim = grid.N, increments.shape[1], system.n
    times = grid.nodes
    entries = _kernel_entries(w_f, w_s)
    n_ring = _ring_rows(n_steps)
    ring = _ring(n_ring, dim, n_paths, flat)
    states.fill(0.0)
    spectra = {}
    x = np.zeros((n_paths, dim))
    checked = 1
    # an overflow reaches a later state, which _check_finite refuses by node
    with np.errstate(over="ignore", invalid="ignore"):
        for n in range(n_steps):
            # the history rows of node n, then the state of node n + 1
            row = ring[n % n_ring]
            drift(times[n], x, row[0].T)
            np.multiply(sigma(times[n], x), increments[n][:, None], out=row[1].T)
            if (n + 1) % _BASE_BLOCK == 0 and n + 1 < n_steps:
                _check_finite(states, checked, n + 1, scheme_tag, first)
                checked = n + 1
                _far_field(entries, ring, states, n + 1, spectra)
            rhs = free[n + 1] + states[:, n + 1]
            lo = n - n % _BASE_BLOCK
            _direct_sum(entries, _ring_block(ring, lo, n + 1), n + 1 - lo, rhs)
            x = solve(times[n + 1], rhs)
            states[:, n + 1] = x
    _check_finite(states, checked, n_steps + 1, scheme_tag, first)


def _check_inputs(system, grid, increments):
    """Refuse a neutral term that is not a contraction, and increments that
    are not a 2-D array of (paths >= 1, N)."""
    if system.coeffs.L_g >= 1.0:
        raise ValueError(
            f"the neutral fixed point requires L_g < 1, got L_g={system.coeffs.L_g}"
        )
    shape = increments.shape
    if len(shape) != 2 or shape[0] < 1 or shape[1] != grid.N:
        raise ValueError(
            f"ensemble increments must have shape (paths >= 1, {grid.N}) for the grid, "
            f"got {shape}"
        )


def _solve(system, grid, tag, increments, built=None, states=None, flat=None, first=0):
    """The weighted states (P, N+1, dim) of the scheme ``tag`` of
    ``_SCHEMES`` on the time-major increments (N, P): the inputs checked,
    the :func:`_scheme` built unless ``built`` is given, the paths marched
    (:func:`_march`) into ``states`` and the ring buffer ``flat`` when they
    are given and into new arrays otherwise, and the states weighted in
    place (:func:`_weight`).  An error names its paths numbered from
    ``first``."""
    _check_inputs(system, grid, increments.T)
    built = built or _scheme(system, grid, tag)
    if states is None:
        states = np.empty((increments.shape[1], grid.N + 1, system.n))
    _march(system, grid, increments, built, tag, states, flat, first)
    _weight(states, system, grid)
    return states


def simulate_mild(system: SystemSpec, grid: TimeGrid,
                  ensemble: BrownianEnsemble) -> PathEnsemble:
    """March the variation-of-constants scheme over the ensemble.

    Kernel matrices E_{a,a}((m dt)^a A) are computed once and shared by
    all paths, which are marched together.  Raises
    :class:`SimulationNumericError` before the first step if a kernel
    matrix is not finite (it overflowed).
    """
    return PathEnsemble(_solve(system, grid, "mild", ensemble.increments.T), grid)


def simulate_integral_form(system: SystemSpec, grid: TimeGrid,
                           ensemble: BrownianEnsemble) -> PathEnsemble:
    """March the second-kind Volterra scheme (memory term A X), whose
    constant kernel (t-s)^(a-1)/Gamma(a) needs no Mittag-Leffler evaluation."""
    return PathEnsemble(_solve(system, grid, "integral_form", ensemble.increments.T), grid)


# Stopping rule of the Picard solve (see picard_path_solve)
_PICARD_TOL = 1e-10
_PICARD_MAX_SWEEPS = 200


def picard_path_solve(system: SystemSpec, grid: TimeGrid, path_increments) -> PicardResult:
    """Whole-path fixed-point iteration of the solution operator on the
    increments (N,) of one path, with the sweep count and the last
    contraction-ratio estimate in the result.

    Starts from the zero path.  A sweep takes the drift b - A g and the
    noise at the previous iterate into one FFT convolution, each kernel
    entry balanced by its growth rate over the path as in the far field,
    and solves x + g(t_n, x) = free + history at every node with the
    march's neutral solve.  The path stops when the weighted sup-norm
    change drops to ``_PICARD_TOL`` (1 + the weighted sup norm of the
    iterate); past ``_PICARD_MAX_SWEEPS`` sweeps it raises
    :class:`ConvergenceError` with the last contraction-ratio estimate, and
    a non-finite iterate raises :class:`SimulationNumericError` naming its
    first bad node and path 0.  The fixed point is the march's solution of
    the same discrete system (:func:`_mild_scheme`), which refuses a
    non-finite kernel matrix up front with :class:`SimulationNumericError`.
    """
    inc = np.atleast_1d(np.asarray(path_increments, dtype=float))
    if inc.ndim != 1 or inc.shape[0] != grid.N:
        raise ValueError(f"path_increments must have shape ({grid.N},)")
    _check_inputs(system, grid, inc[None])
    states, iterations, ratio = _picard(system, grid, inc, _mild_scheme(system, grid))
    _weight(states[None], system, grid)
    return PicardResult(weighted=states, grid=grid, iterations=iterations,
                        contraction_ratio=float(ratio))


def _picard(system, grid, increments, scheme):
    """(states (N+1, dim), sweeps, last contraction ratio) of the Picard
    iteration of :func:`picard_path_solve` on the increments (N,) of one
    path, for the :func:`_mild_scheme` tuple ``scheme``.  The neutral solve
    takes the nodes 1..N as rows, t as a column."""
    free, w_f, w_s, drift = scheme
    sigma, solve = system.coeffs.sigma, _neutral_solver(system.coeffs)
    times = grid.nodes[:, None]
    w_time = times[1:] ** (1.0 - system.order.alpha)
    # the whole path is one block
    M = 1 << (2 * grid.N - 1).bit_length()
    spectra = _block_spectra(_kernel_entries(w_f, w_s), grid.N, M)
    dw = np.append(increments, 0.0)[:, None]  # no increment after the last node
    x = np.zeros((grid.N + 1, system.n))
    prev_change, ratio = 0.0, math.nan
    for sweep in range(1, _PICARD_MAX_SWEEPS + 1):
        # an overflow leaves a non-finite node, refused below by its index
        with np.errstate(over="ignore", invalid="ignore"):
            # left-point coefficient values on the whole path; x[0] = 0 is X_0 := 0
            f, s = drift(times, x), np.asarray(sigma(times, x)) * dw
            rhs = free[1:].copy()
            _causal_convolution(spectra, (f.T, s.T), M, 0, rhs.T)
            x_new = np.zeros_like(x)
            x_new[1:] = solve(times[1:], rhs)
        finite = np.isfinite(x_new).all(axis=1)
        if not finite.all():
            n = int(np.argmin(finite))
            raise SimulationNumericError(
                f"picard: non-finite iterate at node {n} (t = {times[n, 0]:.6g}) "
                f"in sweep {sweep}", path_indices=[0], node=n)
        change = np.max(np.abs(w_time * (x_new[1:] - x[1:])))
        if prev_change > 0:
            ratio = change / prev_change
        prev_change, x = change, x_new
        if change <= _PICARD_TOL * (1.0 + np.max(np.abs(w_time * x[1:]))):
            return x, sweep, ratio
    raise ConvergenceError(
        f"Picard iteration did not reach tol={_PICARD_TOL} (relative) in "
        f"{_PICARD_MAX_SWEEPS} sweeps; last contraction ratio estimate {ratio:.4g}")


# Bytes of the buffers of one chunk of :func:`_ensemble_chunks`: its
# increments, states and history ring
_CHUNK_BYTES = 32 << 20
# Paths per block of the moment reduction (moments._MomentSums): each chunk
# but the last is a whole number of blocks
_PATH_BLOCK = 64


def _chunk_doubles(n_paths, n_steps, dim):
    """Doubles of the buffers :func:`_ensemble_chunks` allocates for a
    chunk of P paths: increments (N, P), states (P, N+1, dim) and the
    padded rows of the march's history ring (:func:`_ring`).

    The budget leaves out what a chunk allocates while it runs: the draw
    scratch of :func:`_draw_increments` (at most 8 * 16 * N bytes) and one
    far-field batch's temporaries (under 1 MB by ``_FFT_BATCH``).  So
    ``test_simulate_in_chunks_keeps_the_bytes_of_one_chunk`` bounds a run's
    peak by two chunks' buffers: at N = 1024 one 64-path chunk's (1.57 MB)
    exceed both together."""
    return (n_paths * n_steps, n_paths * (n_steps + 1) * dim,
            _ring_rows(n_steps) * _ring_width(2 * dim * n_paths))


def _chunk_edges(n_paths, n_steps, dim):
    """Path edges of the fewest balanced chunks of an ensemble whose first
    chunk's buffers (:func:`_chunk_doubles`) fit in ``_CHUNK_BYTES``.  Each
    chunk but the last is a whole number of ``_PATH_BLOCK`` paths, at least
    one block whatever the budget, and no chunk is larger than the
    first."""
    n_blocks, n_chunks = -(-n_paths // _PATH_BLOCK), 1
    while n_chunks < n_blocks and _CHUNK_BYTES < 8 * sum(_chunk_doubles(
            min(n_paths, _PATH_BLOCK * -(-n_blocks // n_chunks)), n_steps, dim)):
        n_chunks += 1
    return [min(n_paths, _PATH_BLOCK * -(-k * n_blocks // n_chunks))
            for k in range(n_chunks + 1)]


def _ensemble_chunks(system, grid, n_paths, master_seed, tag):
    """Yield (first path, weighted states (paths, N+1, dim)) chunk by chunk,
    in path order, for the march ``tag`` of ``_SCHEMES`` over the ensemble
    ``brownian_increments(grid, n_paths, master_seed)``, without building it.

    The scheme is built once per run (:func:`_scheme`).  Each chunk of
    :func:`_chunk_edges` draws its increments from the paths' own streams
    and is solved and weighted by :func:`_solve` in one set of buffers
    (:func:`_chunk_doubles`), sized for the first chunk and reused by the
    others: a yielded array holds its chunk only until the next one is
    requested.  A chunk's draw scratch and far-field temporaries, under
    8 * 16 * N bytes and 1 MB, come on top (see :func:`_chunk_doubles`).
    As a path does not depend on the paths solved with it, every path
    keeps the bits of the whole-ensemble functions.  A chunk
    that fails stops the run with the error of the whole-ensemble function
    on that chunk, its paths numbered in the ensemble.
    """
    if n_paths < 1:
        raise ValueError("n_paths must be >= 1")
    n_steps, dim = grid.N, system.n
    built = _scheme(system, grid, tag)
    edges = _chunk_edges(n_paths, n_steps, dim)
    flat_inc, flat_states, flat = (np.empty(n) for n in _chunk_doubles(edges[1], n_steps, dim))
    for p0, p1 in zip(edges, edges[1:]):
        n = p1 - p0
        # time-major, so each step of a march reads one contiguous row
        increments = flat_inc[:n * n_steps].reshape(n_steps, n)
        states = flat_states[:n * (n_steps + 1) * dim].reshape(n, n_steps + 1, dim)
        _draw_increments(grid, master_seed, p0, increments)
        yield p0, _solve(system, grid, tag, increments, built, states, flat, p0)
