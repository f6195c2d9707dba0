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
* ``simulate_integral_form``  marches the second-kind Volterra form with the
  constant kernel (t-s)^(a-1)/Gamma(a) and the linear memory term A X(s)
  (the self-consistent form; a literal variant with A g(s, X(s)) under the
  integral is available behind ``as_printed=True`` for comparison).
* ``picard_path_solve``  iterates the whole-path solution operator to its
  fixed point on one path; the marching schemes are its triangular solve.
  A sweep calls each coefficient once on the whole path and takes both
  history integrals with one zero-padded FFT convolution, O(N log N).

Quadrature conventions (shared): on each cell the singular scalar factor
(t_n - s)^(a-1) is integrated exactly and multiplies the left-point values
of kernel and coefficient (Ito convention).  The stochastic convolution uses
variance-matched weights kappa so that the per-cell Ito isometry is exact
even on the singular last cell (2a - 1 > 0).  Coefficient evaluations at the
singular node 0 use the convention X_0 := 0; their cell contributions vanish
under refinement and are exactly zero for vanishing coefficient families.
The state at t = 0 exists only in weighted coordinates,
t^(1-a) X(t) -> rho / Gamma(a); ``values`` holds NaN there.

The marches take each history integral as a discrete convolution over the
lags.  Lags inside a base block of 64 nodes are summed directly at every
step; the rest is added block by block with zero-padded real FFTs
(Hairer, Lubich & Schlichte 1985), so a march costs O(N log^2 N) per path
instead of O(N^2).  A kernel that grows across a block (A outside the
stability sector) is balanced by its growth rate before the transform, so
the far field keeps the node-wise relative accuracy of a direct sum.  In
the mild form A commutes with E_{a,a}(t^a A), so the neutral memory and
the drift share one convolution of b - A g; in the integral form the
memory term shares the drift weight.  Each march thus keeps two history
sums.

At each node the neutral term leaves the equation x + g(t_n, x) = rhs.  The
built-in families solve it exactly (:mod:`fracstab.coefficients`): the
linear family by one fixed-order product with (I + G)^(-1), the sine family
by Newton's method with a step count fixed by the Kantorovich bound.  Any
other g is solved by sweeps x <- rhs - g(t_n, x): if g vanishes at 0 and is
L_g-Lipschitz in the max norm, Banach's a-priori estimate bounds the step
after k sweeps by L_g^k (1 + L_g)/(1 - L_g) |x_k|, so the sweep count
follows from L_g and the tolerance alone.  Either count of steps runs
without a convergence test and only the last step is tested, per path.  A
path that fails that test (g not vanishing at 0, or a declared L_g below the
true contraction rate) keeps iterating with a test on every step until it
converges or the cap (twice the sweep count, at least 100) raises
ConvergenceError.  The tolerance is ``coefficients.NEUTRAL_TOL``.

Paths are independent given their increments.  All reductions are per path
(direct sums in a fixed order, per-path transforms, and fixed-order matrix
products instead of BLAS), so a path's states do not depend on which other
paths share its ensemble.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import fft as sp_fft
from scipy.special import betainc

from .coefficients import CoefficientSet, _apply_matrix, _neutral_solver
from .errors import ConvergenceError, SimulationNumericError
from .fraccalc import FractionalOrder, _causal_convolution, beta_fn, gamma_fn, ml_kernel

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
    "closed_form_homogeneous",
]


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid 0 = t_0 < ... < t_N = T."""

    T: float
    N: int

    def __post_init__(self):
        if self.T <= 0:
            raise ValueError(f"T must be positive, got {self.T}")
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
    master_seed: int
    n_paths: int


@dataclass(frozen=True)
class PathEnsemble:
    """Simulated states on a grid.

    ``values[i, j]`` is X(t_j) for path i (NaN at j = 0 where X diverges like
    t^(a-1)); ``weighted[i, j]`` is t_j^(1-a) X(t_j) with the finite limit
    rho/Gamma(a) stored at j = 0.
    """

    values: np.ndarray
    weighted: np.ndarray
    grid: TimeGrid
    scheme_tag: str
    master_seed: int
    n_paths: int


@dataclass(frozen=True)
class PicardResult:
    values: np.ndarray
    weighted: np.ndarray
    grid: TimeGrid
    iterations: int
    contraction_ratio: float


def brownian_increments(grid: TimeGrid, n_paths: int, master_seed: int) -> BrownianEnsemble:
    """Draw the increment matrix (n_paths, N), path i keyed by (master_seed, i)."""
    if n_paths < 1:
        raise ValueError("n_paths must be >= 1")
    sqrt_dt = math.sqrt(grid.dt)
    out = np.empty((n_paths, grid.N))
    for i in range(n_paths):
        seq = np.random.SeedSequence(master_seed, spawn_key=(i,))
        rng = np.random.Generator(np.random.Philox(seq))
        out[i] = rng.standard_normal(grid.N) * sqrt_dt
    return BrownianEnsemble(increments=out, master_seed=int(master_seed), n_paths=int(n_paths))


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


class _KernelTable:
    """Grid kernels of the variation-of-constants form.

    E[m]       E_{a,a}((m dt)^a A), shape (N+1, dim, dim),
    homog[n]   t_n^(a-1) E[n] rho, shape (N+1, dim),
    d, kappa   the cell weights of :func:`_cell_weights`.

    E comes from one :func:`~fracstab.fraccalc.ml_kernel` call for the whole
    grid (per eigenvalue when the eigenbasis of A is well conditioned), so
    building the table is cheap enough to repeat on every call.
    """

    def __init__(self, system: SystemSpec, grid: TimeGrid):
        alpha = system.order.alpha
        self.d, self.kappa = _cell_weights(alpha, grid)
        times = grid.nodes
        self.E = ml_kernel(alpha, alpha, system.A, times)
        self.homog = np.zeros((grid.N + 1, system.n))
        self.homog[1:] = times[1:, None] ** (alpha - 1.0) * np.einsum(
            "nij,j->ni", self.E[1:], system.rho
        )


# History and target nodes inside one aligned block of this many nodes are
# summed directly at each step; a power of two, so every full far-field
# transform has power-of-two length.
_BASE_BLOCK = 64
# Real elements (components x paths x transform length) per batched far-field
# transform; bounds the FFT scratch memory whatever the ensemble size.
_FFT_BATCH = 1 << 14


def _kernel_entries(w):
    """The (i, k, w[:, i, k]) columns of a lag-indexed kernel w of shape
    (N, dim, dim) that are not identically zero."""
    dim = w.shape[1]
    return [(i, k, np.ascontiguousarray(w[:, i, k]))
            for i in range(dim) for k in range(dim) if np.any(w[:, i, k])]


def _direct_sum(entries, hist, lo, hi, n, out):
    """out[:, i] += sum_{j=lo}^{hi-1} w_ik[n-j] hist[j, :, k] over the entries.

    einsum without BLAS: the reduction order depends only on the lag range,
    so every path gets the same sum whatever the batch it is marched in.
    """
    for i, k, w in entries:
        out[:, i] += np.einsum("m,mp->p", w[n - hi:n - lo][::-1], hist[lo:hi, :, k])


def _block_spectra(kernels, L, n_targets, M):
    """Kernel transforms of one far-field block shape (or of a whole path,
    split in two for the rates), grouped by balancing rate: a list of
    (mu, [(history index, i, k, rfft of the balanced e^(-mu m) w_ik[m] over
    the lags m = 1 .. L + n_targets - 1)])."""
    groups = {}
    n_lags = L + n_targets - 1
    lags = np.arange(1.0, n_lags + 1)
    for h, entries in enumerate(kernels):
        for i, k, w in entries:
            early = np.abs(w[:L - 1]).max()
            late = np.abs(w[L - 1:n_lags]).max()
            # growth per node from the lags [1, L) to [L, L + n_targets)
            mu = math.log(late / early) / n_targets if late > early > 0 else 0.0
            w_hat = sp_fft.rfft(np.concatenate(([0.0], w[:n_lags] * np.exp(-mu * lags))), M)
            groups.setdefault(mu, []).append((h, i, k, w_hat))
    return sorted(groups.items())


def _far_field(kernels, hists, acc, c, spectra):
    """Add the finished history block [c - L, c) to the nodes [c, c + L) of
    acc, shaped (P, N+1, dim).

    Blocked convolution (Hairer, Lubich & Schlichte 1985, in its
    divide-and-conquer form): L is the largest base-block multiple such that
    [c - L, c) is the left half of an aligned dyadic block of length 2L, so
    every pair (history j, target n) in different base blocks is added
    exactly once, by the left half that closes first.  The lags of one block
    span 1 .. 2L - 1; with zero-padded transforms of length M >= L + R (R
    targets) the circular product is exact on the target rows.

    A transform's roundoff is bounded by the norms of the whole block, so a
    kernel that grows across the block (a matrix outside the stability
    sector) is balanced first: w[m] h[j] = e^(mu n) (e^(-mu m) w[m])
    (e^(-mu j) h[j]), with block-local j, n and the entry's own growth rate
    mu >= 0 over the block's lags (:func:`_block_spectra`), so each target
    keeps the relative accuracy of a direct sum.  Decaying kernels have
    mu = 0, so the drift and noise products of a decaying kernel are summed
    in the frequency domain by
    :func:`~fracstab.fraccalc._causal_convolution`.  Transforms are per
    path, so batching paths cannot change the result.  ``spectra`` holds
    the kernel transforms of this march by block shape.
    """
    L = _BASE_BLOCK
    while c % (2 * L) == 0:
        L *= 2
    hi = min(c + L, acc.shape[1])
    n_targets = hi - c
    M = sp_fft.next_fast_len(L + n_targets, real=True)
    if (L, n_targets) not in spectra:
        spectra[L, n_targets] = _block_spectra(kernels, L, n_targets, M)
    n_paths, dim = acc.shape[0], acc.shape[2]
    batch = max(1, _FFT_BATCH // (dim * M))
    for p0 in range(0, n_paths, batch):
        p1 = min(p0 + batch, n_paths)
        # path-major contiguous blocks (dim, paths, L)
        blocks = [np.ascontiguousarray(hist[c - L:c, p0:p1].transpose(2, 1, 0))
                  for hist in hists]
        _causal_convolution(spectra[L, n_targets], blocks, M, L,
                            acc[p0:p1, c:hi].transpose(2, 0, 1))


def _check_finite(x, n, scheme):
    if np.all(np.isfinite(x)):
        return
    bad = np.nonzero(~np.all(np.isfinite(x), axis=-1))[0]
    raise SimulationNumericError(
        f"{scheme}: non-finite state at node {n} for paths {bad[:8].tolist()}",
        path_indices=bad.tolist(),
        node=n,
    )


def _package(values, system, grid, tag, master_seed):
    """Assemble a PathEnsemble from the states (P, N+1, dim), taken over."""
    alpha = system.order.alpha
    times = grid.nodes
    values[:, 0, :] = np.nan
    weighted = np.empty_like(values)
    weighted[:, 0, :] = system.rho / gamma_fn(alpha)
    weighted[:, 1:, :] = times[None, 1:, None] ** (1.0 - alpha) * values[:, 1:, :]
    return PathEnsemble(values=values, weighted=weighted, grid=grid, scheme_tag=tag,
                        master_seed=master_seed, n_paths=values.shape[0])


def _march(system, grid, ensemble, scheme, scheme_tag):
    """Shared time-marching core of the mild and integral-form schemes:

        x_n = free[n] + sum_{j<n} w_f[n-j] f_j + sum_{j<n} w_s[n-j] s_j - g(t_n, x_n),

    f_j = drift(t_j, x_j), s_j = sigma(t_j, x_j) dW_j, with X_0 := 0 at node 0.
    Lags inside a base block are summed directly at each step; every other
    part of the two history sums is added ahead of time by
    :func:`_far_field`, into the nodes of the state array not yet marched.
    All paths of the ensemble are marched together.  Returns the states
    (P, N+1, dim); histories are kept time-major and freed on return, before
    the caller packages the states.
    """
    _check_inputs(system, grid, ensemble)
    free, w_f, w_s, drift = scheme
    coeffs = system.coeffs
    solve = _neutral_solver(coeffs)
    increments = ensemble.increments
    n_steps, dim = grid.N, system.n
    n_paths = increments.shape[0]
    times = grid.nodes
    kernels = (_kernel_entries(w_f), _kernel_entries(w_s))
    hists = (np.empty((n_steps, n_paths, dim)), np.empty((n_steps, n_paths, dim)))
    states = np.zeros((n_paths, n_steps + 1, dim))
    spectra = {}

    def record(j, x):
        hists[0][j] = drift(times[j], x)
        hists[1][j] = coeffs.sigma(times[j], x) * increments[:, j, None]

    record(0, np.zeros((n_paths, dim)))
    for n in range(1, n_steps + 1):
        rhs = free[n] + states[:, n]
        lo = n - n % _BASE_BLOCK
        for entries, hist in zip(kernels, hists):
            _direct_sum(entries, hist, lo, n, n, rhs)
        x = solve(times[n], rhs)
        _check_finite(x, n, scheme_tag)
        states[:, n] = x
        if n < n_steps:
            record(n, x)
            if (n + 1) % _BASE_BLOCK == 0:
                _far_field(kernels, hists, states, n + 1, spectra)
    return states


def _check_inputs(system, grid, ensemble):
    if system.coeffs.L_g >= 1.0:
        raise ValueError(
            f"the neutral fixed point requires L_g < 1, got L_g={system.coeffs.L_g}"
        )
    if ensemble.increments.shape[1] != grid.N:
        raise ValueError(
            f"ensemble has {ensemble.increments.shape[1]} increments per path, "
            f"grid expects {grid.N}"
        )


def simulate_mild(system: SystemSpec, grid: TimeGrid,
                  ensemble: BrownianEnsemble) -> PathEnsemble:
    """March the variation-of-constants scheme over the ensemble.

    Kernel matrices E_{a,a}((m dt)^a A) are precomputed once and shared by
    all paths, which are marched together.
    """
    table = _KernelTable(system, grid)
    g, b = system.coeffs.g, system.coeffs.b

    def drift(t, x):
        # A commutes with E(A): the neutral memory -A E g shares the weight d E with b
        return b(t, x) - _apply_matrix(system.A, np.asarray(g(t, x)))

    scheme = (table.homog, table.d[:, None, None] * table.E[1:],
              table.kappa[:, None, None] * table.E[1:], drift)
    states = _march(system, grid, ensemble, scheme, "mild")
    return _package(states, system, grid, "mild", ensemble.master_seed)


def simulate_integral_form(system: SystemSpec, grid: TimeGrid, ensemble: BrownianEnsemble,
                           as_printed=False) -> PathEnsemble:
    """March the second-kind Volterra scheme (memory term A X).

    ``as_printed=True`` switches the memory term to + A g(s, X(s)) for
    side-by-side comparison with the self-consistent form.  The constant
    kernel (t-s)^(a-1)/Gamma(a) needs no Mittag-Leffler evaluation.
    """
    alpha = system.order.alpha
    inv_gamma = 1.0 / gamma_fn(alpha)
    d, kappa = _cell_weights(alpha, grid)
    t = grid.nodes[1:]
    free = np.zeros((grid.N + 1, system.n))
    free[1:] = (t ** (alpha - 1.0) * inv_gamma)[:, None] * system.rho
    if not as_printed:
        # exact first-cell weight for the singular memory cell:
        # int_0^dt s^(a-1) (t_n - s)^(a-1) ds, applied to A rho / Gamma(a)
        cell0 = (beta_fn(alpha, alpha) * betainc(alpha, alpha, grid.dt / t)
                 * t ** (2.0 * alpha - 1.0))
        free[1:] += (inv_gamma * cell0)[:, None] * (system.A @ (system.rho / gamma_fn(alpha)))
    memory = system.coeffs.g if as_printed else (lambda t, x: x)
    b = system.coeffs.b

    def drift(t, x):
        # the memory term shares the weight d / Gamma(a) with b
        return b(t, x) + _apply_matrix(system.A, np.asarray(memory(t, x)))

    eye = np.eye(system.n)
    scheme = (free, (inv_gamma * d)[:, None, None] * eye,
              (inv_gamma * kappa)[:, None, None] * eye, drift)
    tag = "integral_form_as_printed" if as_printed else "integral_form"
    states = _march(system, grid, ensemble, scheme, tag)
    return _package(states, system, grid, tag, ensemble.master_seed)


def picard_path_solve(system: SystemSpec, grid: TimeGrid, path_increments,
                      max_iter=200, tol=1e-10) -> PicardResult:
    """Whole-path fixed-point iteration of the solution operator on one path.

    Starts from the zero path and applies the full right-hand side of the
    variation-of-constants form with all state evaluations held at the
    previous iterate: one call of each coefficient on the whole path and
    one FFT convolution per sweep, with each kernel entry balanced by its
    growth rate over the path as in the far field.  Stops when the weighted
    sup-norm change drops to ``tol`` (1 + the weighted sup norm of the
    iterate); raises :class:`ConvergenceError` with the last
    contraction-ratio estimate otherwise.  The fixed point
    coincides with the time-marching solution of the same discrete system.
    """
    if system.coeffs.L_g >= 1.0:
        raise ValueError("picard_path_solve requires L_g < 1")
    inc = np.atleast_1d(np.asarray(path_increments, dtype=float))
    if inc.ndim != 1 or inc.shape[0] != grid.N:
        raise ValueError(f"path_increments must have shape ({grid.N},)")
    table = _KernelTable(system, grid)
    coeffs = system.coeffs
    n_nodes = grid.N + 1
    times = grid.nodes[:, None]
    w_time = times[1:] ** (1.0 - system.order.alpha)
    dw = np.append(inc, 0.0)[:, None]  # no increment after the last node
    kernels = (_kernel_entries(table.d[:, None, None] * table.E[1:]),
               _kernel_entries(table.kappa[:, None, None] * table.E[1:]))
    # the whole path is one block, its growth rates taken between the halves
    M = sp_fft.next_fast_len(2 * n_nodes, real=True)
    half = (n_nodes + 1) // 2
    spectra = _block_spectra(kernels, half, n_nodes - half, M)

    x = np.zeros((n_nodes, system.n))
    prev_change = None
    ratio = math.nan
    iterations = 0
    for iterations in range(1, max_iter + 1):
        # left-point coefficient values on the whole path; x[0] = 0 is X_0 := 0
        g_hist = np.asarray(coeffs.g(times, x))
        drift = np.asarray(coeffs.b(times, x)) - _apply_matrix(system.A, g_hist)
        noise = np.asarray(coeffs.sigma(times, x)) * dw
        # A commutes with E(A): the neutral memory shares the weight d E with b;
        # the neutral term itself is taken at the previous iterate
        history = np.zeros((n_nodes, system.n))
        _causal_convolution(spectra, (drift.T, noise.T), M, 0, history.T)
        x_new = table.homog + history - g_hist
        x_new[0] = 0.0

        change = np.max(np.abs(w_time * (x_new[1:] - x[1:])))
        if prev_change is not None and prev_change > 0:
            ratio = change / prev_change
        prev_change = change
        x = x_new
        if change <= tol * (1.0 + np.max(np.abs(w_time * x[1:]))):
            break
    else:
        raise ConvergenceError(
            f"Picard iteration did not reach tol={tol} (relative) in {max_iter} sweeps; "
            f"last contraction ratio estimate {ratio:.4g}"
        )

    ens = _package(x[None], system, grid, "picard", 0)
    return PicardResult(values=ens.values[0], weighted=ens.weighted[0], grid=grid,
                        iterations=iterations, contraction_ratio=float(ratio))


def closed_form_homogeneous(a_mat, rho, alpha, grid: TimeGrid) -> PathEnsemble:
    """Exact homogeneous solution X(t) = t^(a-1) E_{a,a}(t^a A) rho.

    Returned as a single deterministic path (NaN value at node 0; weighted
    value rho/Gamma(a) there).  For alpha = 1 this reduces to exp(t A) rho.
    """
    a_mat = np.atleast_2d(np.asarray(a_mat, dtype=float))
    rho = np.atleast_1d(np.asarray(rho, dtype=float))
    dim = a_mat.shape[0]
    times = grid.nodes[1:]
    vals = np.full((1, grid.N + 1, dim), np.nan)
    weighted = np.empty((1, grid.N + 1, dim))
    weighted[0, 0] = rho / gamma_fn(alpha)
    weighted[0, 1:] = np.einsum("nij,j->ni", ml_kernel(alpha, alpha, a_mat, times), rho)
    vals[0, 1:] = times[:, None] ** (alpha - 1.0) * weighted[0, 1:]
    return PathEnsemble(values=vals, weighted=weighted, grid=grid,
                        scheme_tag="closed_form", master_seed=0, n_paths=1)
