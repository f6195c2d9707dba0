"""Path schemes: determinism, degenerate collapse, variance, coincidence."""

import collections
import dataclasses
import functools
import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import fft as sp_fft
from scipy.special import betainc

from fracstab import (
    CoefficientSet,
    BrownianEnsemble,
    FractionalOrder,
    PathEnsemble,
    SystemSpec,
    TimeGrid,
    brownian_increments,
    gamma_fn,
    make_additive_noise,
    make_bounded_smooth,
    make_linear,
    ml_kernel,
    ml_scalar,
    picard_path_solve,
    simulate_integral_form,
    simulate_mild,
)
from fracstab import simulator
from fracstab.coefficients import NEUTRAL_TOL, _solve_neutral
from fracstab.errors import ConvergenceError, SimulationNumericError

from homogeneous import closed_form_homogeneous
from mean_square import mild_second_moment

ORDER = FractionalOrder(0.75, 2)


def scalar_system(a=-1.0, rho=1.0, L=0.05, coeffs=None):
    if coeffs is None:
        coeffs = make_linear([[L]], [[L]], [[L]])
    return SystemSpec(A=np.array([[a]]), rho=np.array([rho]), coeffs=coeffs, order=ORDER)


def zero_system(a=-1.0, rho=1.0):
    z = np.zeros((1, 1))
    return scalar_system(a=a, rho=rho, coeffs=make_linear(z, z, z))


def unweighted(out, alpha=ORDER.alpha):
    """X(t) at the nodes 1..N, from the weighted states of a result."""
    return out.weighted[..., 1:, :] * out.grid.nodes[1:, None] ** (alpha - 1.0)


# ---------------------------------------------------------------- ensembles

def test_brownian_moments():
    grid = TimeGrid(T=1.0, N=8)
    ens = brownian_increments(grid, 100_000, 2024)
    dt = grid.dt
    j = 3
    mean = ens.increments[:, j].mean()
    assert abs(mean) <= 4.0 * math.sqrt(dt / 100_000)
    var = ens.increments[:, j].var(ddof=1)
    assert abs(var - dt) <= 0.05 * dt


def test_brownian_determinism_and_per_path_keying():
    grid = TimeGrid(T=1.0, N=32)
    a = brownian_increments(grid, 10, 7)
    b = brownian_increments(grid, 10, 7)
    np.testing.assert_array_equal(a.increments, b.increments)
    # path i depends on (master_seed, i) alone, not on n_paths
    c = brownian_increments(grid, 3, 7)
    np.testing.assert_array_equal(a.increments[:3], c.increments)
    d = brownian_increments(grid, 10, 8)
    assert not np.array_equal(a.increments, d.increments)


@pytest.mark.parametrize("T,N,message", [
    (math.inf, 4, "T must be finite"), (-math.inf, 4, "T must be finite"),
    (math.nan, 4, "T must be finite"), (1.0, 2.5, "N must be an integer"),
    (1.0, True, "N must be an integer"), (1.0, 4.0, "N must be an integer"),
])
def test_time_grid_refuses_non_finite_T_and_non_integer_N(T, N, message):
    with pytest.raises(ValueError, match=f"^{message}"):
        TimeGrid(T=T, N=N)


# ------------------------------------------------------- degenerate collapse

def test_all_schemes_collapse_to_closed_form():
    system = zero_system()
    grid = TimeGrid(T=1.0, N=512)
    ens = brownian_increments(grid, 3, 11)
    reference = closed_form_homogeneous(system.A, system.rho, ORDER.alpha, grid)

    mild = simulate_mild(system, grid, ens)
    assert np.nanmax(np.abs(mild.weighted - reference.weighted[0])) < 1e-12

    integral = simulate_integral_form(system, grid, ens)
    err = np.nanmax(np.abs(integral.weighted - reference.weighted[0]))
    assert err < 5e-3
    finer = simulate_integral_form(system, TimeGrid(T=1.0, N=1024),
                                   brownian_increments(TimeGrid(T=1.0, N=1024), 3, 11))
    assert np.nanmax(np.abs(finer.weighted - closed_form_homogeneous(
        system.A, system.rho, ORDER.alpha, TimeGrid(T=1.0, N=1024)).weighted[0])) < err

    picard = picard_path_solve(system, grid, ens.increments[0])
    assert picard.iterations <= 2  # the solution operator is constant here
    assert np.nanmax(np.abs(picard.weighted - reference.weighted[0])) < 1e-12


def test_integral_form_zero_coefficients_zero_drift_exact():
    system = zero_system(a=0.0)
    grid = TimeGrid(T=1.0, N=128)
    ens = brownian_increments(grid, 2, 0)
    out = simulate_integral_form(system, grid, ens)
    t = grid.nodes[1:]
    expect = t ** (ORDER.alpha - 1.0) / gamma_fn(ORDER.alpha)
    np.testing.assert_allclose(unweighted(out)[0, :, 0], expect, rtol=1e-13)


def test_weighted_initialisation_and_consistency():
    system = scalar_system()
    grid = TimeGrid(T=1.0, N=64)
    ens = brownian_increments(grid, 4, 3)
    for out in (simulate_mild(system, grid, ens), simulate_integral_form(system, grid, ens)):
        np.testing.assert_allclose(out.weighted[:, 0, 0], 1.0 / gamma_fn(0.75), rtol=1e-14)


# the marches, whose paths are independent of each other
SCHEMES = {
    "mild": simulate_mild,
    "integral_form": simulate_integral_form,
}


def picard_paths(system, grid, ens):
    """picard_path_solve on every path of an ensemble, stacked as one."""
    return PathEnsemble(np.stack([picard_path_solve(system, grid, inc).weighted
                                  for inc in ens.increments]), grid)


# the marches and Picard, path by path
SOLVERS = {**SCHEMES, "picard": picard_paths}


def row_slice(ens, lo, hi):
    """The paths lo .. hi - 1 of an ensemble, as an ensemble of their own."""
    return BrownianEnsemble(increments=ens.increments[lo:hi])


def planar_system(coeffs):
    a_mat = np.array([[-1.0, 0.3], [-0.2, -2.0]])
    return SystemSpec(A=a_mat, rho=np.array([1.0, -0.5]), coeffs=coeffs, order=ORDER)


def sine_newton(rhs, c_g):
    """x + c_g sin x = rhs per row, by Newton's method from x = rhs run until
    each row's step falls to 1e-12 (1 + |x|)."""
    x = rhs.copy()
    active = np.ones(rhs.shape[0], dtype=bool)
    while active.any():
        x_new = x - (x + c_g * np.sin(x) - rhs) / (1 + c_g * np.cos(x))
        step = np.max(np.abs(x_new - x), axis=1)
        x = np.where(active[:, None], x_new, x)
        active &= step > 1e-12 * (1 + np.max(np.abs(x_new), axis=1))
    return x


def direct_sum_march(system, grid, ens, scheme, c_g):
    """O(N^2) reference march: the three history sums of the unfused scheme
    (neutral memory, drift, noise) taken directly over the whole history at
    every step, with the same quadrature as the package.  The neutral term
    is the sine family g = c_g sin x, solved exactly at each node by
    :func:`sine_newton`."""
    alpha, dim, n_steps = ORDER.alpha, system.n, grid.N
    coeffs, a_mat, rho = system.coeffs, system.A, system.rho
    times = grid.nodes
    m = np.arange(n_steps + 1, dtype=float)
    d = grid.dt**alpha * np.diff(m**alpha) / alpha
    kappa = grid.dt ** (alpha - 1.0) * np.sqrt(np.diff(m ** (2 * alpha - 1)) / (2 * alpha - 1))
    inv_gamma = 1.0 / gamma_fn(alpha)
    if scheme == "mild":

        def kernel(t):
            if dim == 1:
                return ml_scalar(alpha, alpha, t**alpha * a_mat[0, 0]) * np.eye(1)
            # its own eigendecomposition of t^a A at every node
            return ml_kernel(alpha, alpha, t**alpha * a_mat, [1.0])[0]

        E = np.array([kernel(t) for t in times])
        w_mem = -d[:, None, None] * (a_mat @ E[1:])
        w_b = d[:, None, None] * E[1:]
        w_s = kappa[:, None, None] * E[1:]
        free = np.zeros((n_steps + 1, dim))
        free[1:] = times[1:, None] ** (alpha - 1) * (E[1:] @ rho)
        memory = coeffs.g
    else:
        w_mem = w_b = inv_gamma * d[:, None, None] * np.eye(dim)
        w_s = inv_gamma * kappa[:, None, None] * np.eye(dim)
        t = times[1:]
        free = np.zeros((n_steps + 1, dim))
        free[1:] = (t ** (alpha - 1) * inv_gamma)[:, None] * rho
        memory = lambda t, x: x @ a_mat.T
        cell0 = (math.gamma(alpha) ** 2 / math.gamma(2 * alpha)
                 * betainc(alpha, alpha, grid.dt / t) * t ** (2 * alpha - 1))
        free[1:] += (inv_gamma * cell0)[:, None] * (a_mat @ rho) * inv_gamma
    n_paths = ens.increments.shape[0]
    x_hist = np.zeros((n_steps + 1, n_paths, dim))
    mem, b, s = (np.zeros((n_steps, n_paths, dim)) for _ in range(3))
    x = np.zeros((n_paths, dim))
    for n in range(n_steps + 1):
        if n:
            rhs = free[n] + sum(np.einsum("mik,mpk->pi", wt[:n][::-1], h[:n])
                                for wt, h in ((w_mem, mem), (w_b, b), (w_s, s)))
            x = sine_newton(rhs, c_g)
            x_hist[n] = x
        if n < n_steps:
            mem[n] = memory(times[n], x)
            b[n] = coeffs.b(times[n], x)
            s[n] = coeffs.sigma(times[n], x) * ens.increments[:, n, None]
    return x_hist.transpose(1, 0, 2)


# N = 256 and 300 run the far field at two and three block levels (base
# block 64); 300 also ends on a partial block.  For the marches' history
# rings: 64 is a single base block, 65 wraps its ring of 64 rows, 1024
# reads blocks as long as its ring of 512 rows, and 1088 ends on a partial
# block of a ring of 1024 rows
@pytest.mark.parametrize("dim,n_steps", [(1, 256), (2, 300), (1, 64), (2, 65), (1, 1024),
                                         (2, 1088)])
@pytest.mark.parametrize("scheme", sorted(SCHEMES))
def test_scheme_determinism_and_chunk_independence(scheme, dim, n_steps):
    coeffs = make_bounded_smooth(0.2, 0.1, 0.1)
    system = scalar_system(coeffs=coeffs) if dim == 1 else planar_system(coeffs)
    simulate = SCHEMES[scheme]
    grid = TimeGrid(T=1.0, N=n_steps)
    ens = brownian_increments(grid, 40, 123)
    base = simulate(system, grid, ens)
    again = simulate(system, grid, ens)
    np.testing.assert_array_equal(base.weighted, again.weighted)
    # a path's states do not depend on the other paths marched with it
    for lo, hi in ((3, 4), (10, 17), (1, 40)):
        part = simulate(system, grid, row_slice(ens, lo, hi))
        np.testing.assert_array_equal(base.weighted[lo:hi], part.weighted)


# Decaying kernels at N = 256 and 300 (two and three block levels, the
# latter ending on a partial block), 1029 (a last block of five targets
# against 1024 history rows) and the history rings' N = 64, 65, 1024 and
# 1088 (see test_scheme_determinism_and_chunk_independence), then matrices
# outside the stability sector, where the mild kernel grows like e^(c t):
# one rate, two rates on the diagonal, a growing oscillation.  At T = 50 one
# top-level far-field block spans 25 (N = 512) or 21 (N = 300) time units,
# so an unbalanced transform loses every digit on the growing paths.
@pytest.mark.parametrize("a_mat,T,n_steps", [
    pytest.param([[-1.0]], 4.0, 256, id="scalar-256"),
    pytest.param([[-1.0]], 4.0, 300, id="scalar-300"),
    pytest.param([[-1.0, 0.3], [-0.2, -2.0]], 4.0, 300, id="planar-300"),
    pytest.param([[-1.0]], 4.0, 1029, id="scalar-1029"),
    pytest.param([[-1.0, 0.3], [-0.2, -2.0]], 4.0, 1029, id="planar-1029"),
    pytest.param([[-1.0]], 4.0, 64, id="scalar-64"),
    pytest.param([[-1.0, 0.3], [-0.2, -2.0]], 4.0, 65, id="planar-65"),
    pytest.param([[-1.0]], 4.0, 1024, id="scalar-1024"),
    pytest.param([[-1.0, 0.3], [-0.2, -2.0]], 4.0, 1088, id="planar-1088"),
    pytest.param([[1.0]], 50.0, 512, id="one-rate"),
    pytest.param([[1.0, 0.0], [0.0, 0.3]], 50.0, 300, id="two-rates"),
    pytest.param([[0.5, 0.3], [-0.2, 0.2]], 50.0, 300, id="rotation"),
    pytest.param([[0.5, 0.3], [-0.2, 0.2]], 50.0, 1088, id="rotation-1088"),
])
@pytest.mark.parametrize("scheme", sorted(SCHEMES))
def test_march_matches_direct_sum_reference(scheme, a_mat, T, n_steps):
    a_mat = np.array(a_mat)
    rho = np.array([1.0, -0.5])[:a_mat.shape[0]]
    system = SystemSpec(A=a_mat, rho=rho, coeffs=make_bounded_smooth(0.2, 0.3, 0.3),
                        order=ORDER)
    grid = TimeGrid(T=T, N=n_steps)
    ens = brownian_increments(grid, 8, 31)
    out = SCHEMES[scheme](system, grid, ens)
    ref = direct_sum_march(system, grid, ens, scheme, c_g=0.2)
    # node by node, relative to the largest state of the path so far (the
    # node's own size, except where a component crosses zero)
    gap = np.max(np.abs(unweighted(out) - ref[:, 1:]), axis=2)
    scale = np.maximum.accumulate(np.max(np.abs(ref[:, 1:]), axis=2), axis=1)
    assert np.all(gap <= 1e-12 * scale), np.max(gap / scale)


def node_calls_only(f):
    """A plain function, without a declared neutral solve, that refuses a
    call on more than one time."""

    def call(t, x):
        if np.ndim(t):
            raise AssertionError("a coefficient called on a block of times")
        return f(t, x)

    return call


# The march keeps its histories in rings of half the grid (N = 128, 1024) or
# of 1024 rows (N = 1088) and calls each coefficient once per node; its
# states are the bits of the march over full-length histories
@pytest.mark.parametrize("n_steps", [128, 1024, 1088])
@pytest.mark.parametrize("scheme", sorted(SCHEMES))
def test_history_rings_keep_the_bits_of_full_histories(monkeypatch, scheme, n_steps):
    sine = make_bounded_smooth(0.2, 0.3, 0.3)
    coeffs = CoefficientSet(g=node_calls_only(sine.g), b=node_calls_only(sine.b),
                            sigma=node_calls_only(sine.sigma), L_g=0.2, L_b=0.3, L_sigma=0.3)
    system = planar_system(coeffs)
    grid = TimeGrid(T=4.0, N=n_steps)
    ens = brownian_increments(grid, 5, 8)
    out = SCHEMES[scheme](system, grid, ens)
    monkeypatch.setattr(simulator, "_ring_rows", lambda n: n)
    full = SCHEMES[scheme](system, grid, ens)
    assert out.weighted.tobytes() == full.weighted.tobytes()


def test_lone_path_keeps_its_bits_on_a_long_grid():
    # numpy takes a one-path sum of more than 8192 lags in chunks, unlike
    # the paths of a batch: the march must sum no such run of lags directly
    system = scalar_system()
    grid = TimeGrid(T=50.0, N=32768)
    ens = brownian_increments(grid, 2, 9)
    pair = simulate_mild(system, grid, ens)
    alone = simulate_mild(system, grid, row_slice(ens, 1, 2))
    assert pair.weighted[1:].tobytes() == alone.weighted.tobytes()


@pytest.mark.parametrize("dim", [1, 2])
def test_march_allocates_about_two_ensembles(dim):
    coeffs = make_linear(0.05 * np.eye(dim), 0.05 * np.eye(dim), 0.05 * np.eye(dim))
    system = scalar_system(coeffs=coeffs) if dim == 1 else planar_system(coeffs)
    grid = TimeGrid(T=50.0, N=1024)
    ens = brownian_increments(grid, 1000, 4)
    array_bytes = 1000 * (grid.N + 1) * dim * 8
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        out = simulate_mild(system, grid, ens)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    # the states, weighted in place, and two rings of half the grid;
    # full-length histories and a weighting temporary made 3.1
    assert peak <= 2.6 * array_bytes, peak / array_bytes
    assert out.weighted.nbytes == array_bytes


# _solve weights the states it is given in place; the march is stubbed to
# leave them as they are
@pytest.mark.parametrize("dim", [1, 2])
def test_solve_weights_the_states_in_place(monkeypatch, dim):
    system = scalar_system() if dim == 1 else planar_system(make_bounded_smooth(0.2, 0.1, 0.1))
    grid = TimeGrid(T=50.0, N=1024)
    states = np.random.default_rng(dim).standard_normal((1000, grid.N + 1, dim))
    expect = states[:, 1:] * grid.nodes[1:, None] ** (1.0 - ORDER.alpha)
    increments = np.zeros((grid.N, 1000))
    built = simulator._scheme(system, grid, "mild")
    monkeypatch.setattr(simulator, "_march", lambda *args: None)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        out = simulator._solve(system, grid, "mild", increments, built, states)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    # a second weighted array made 1.0
    assert peak <= 0.1 * states.nbytes, peak / states.nbytes
    assert out is states
    np.testing.assert_array_equal(out[:, 0], np.broadcast_to(
        system.rho / gamma_fn(ORDER.alpha), (1000, dim)))
    np.testing.assert_array_equal(out[:, 1:], expect)


# Every target past its own base block is served by one far-field block
# per block level, taken by transforms and read whole from the rings;
# direct sums read at most one base block.  N = 300, 1029 and 2049 end on a
# partial block of 44, 5 and 1 targets, the last two against 1024 and 2048
# history rows.
@pytest.mark.parametrize("n_steps", [256, 300, 1029, 2049])
def test_march_blocks_fit_the_base_block_and_the_ring(monkeypatch, n_steps):
    sums, blocks = [], []
    direct_sum, convolve = simulator._direct_sum, simulator._causal_convolution

    def recording_sum(entries, block, lag, out):
        sums.append(block.shape[0])
        return direct_sum(entries, block, lag, out)

    def recording_convolution(spectra, hists, M, lo, out):
        blocks.append((lo, hists[0].shape[-1]))
        return convolve(spectra, hists, M, lo, out)

    monkeypatch.setattr(simulator, "_direct_sum", recording_sum)
    monkeypatch.setattr(simulator, "_causal_convolution", recording_convolution)
    system = scalar_system(coeffs=make_bounded_smooth(0.2, 0.3, 0.3))
    grid = TimeGrid(T=4.0, N=n_steps)
    simulate_mild(system, grid, brownian_increments(grid, 3, 5))
    assert max(sums) <= simulator._BASE_BLOCK
    # one block [c - L, c) per far-field point c = 64, 128, ... below N
    assert len(blocks) == len(range(simulator._BASE_BLOCK, n_steps, simulator._BASE_BLOCK))
    assert all(lo == length <= simulator._ring_rows(n_steps) for lo, length in blocks)


# The direct sum of a step gives a lone path the bits it gets in a batch, for
# every lag count of a base block and 1 to 3 components
@settings(max_examples=60, deadline=None)
@given(lag=st.integers(1, simulator._BASE_BLOCK), dim=st.integers(1, 3),
       seed=st.integers(0, 2**32 - 1))
def test_direct_sum_gives_a_lone_path_the_bits_of_a_batch(lag, dim, seed):
    rng = np.random.default_rng(seed)
    n_paths, n_ring = 9, 2 * simulator._BASE_BLOCK
    w_f, w_s = rng.standard_normal((2, 200, dim, dim))
    entries = simulator._kernel_entries(w_f, w_s)
    ring = simulator._ring(n_ring, dim, n_paths)
    ring[...] = rng.standard_normal(ring.shape)
    lo = simulator._BASE_BLOCK
    batch = rng.standard_normal((n_paths, dim))
    lone = batch.copy()
    simulator._direct_sum(entries, simulator._ring_block(ring, lo, lo + lag), lag, batch)
    for p in range(n_paths):
        alone = simulator._ring(n_ring, dim, 1)
        alone[...] = ring[..., p:p + 1]
        simulator._direct_sum(entries, simulator._ring_block(alone, lo, lo + lag), lag,
                              lone[p:p + 1])
    assert lone.tobytes() == batch.tobytes()


def toeplitz_convolution(kernels, hists, lo, n_out):
    """The causal convolution of _causal_convolution as an O(N^2) sum:
    out[i, :, n - lo] = sum over the kernel columns (h, i, k) of
    sum_j w_ik[n - j] hists[h][k, :, j], rows n = lo .. lo + n_out - 1."""
    dim, n_paths, n_hist = hists[0].shape
    lags = np.arange(lo, lo + n_out)[:, None] - np.arange(n_hist)[None, :]
    valid = (lags >= 0) & (lags < kernels[0].shape[0])
    out = np.zeros((dim, n_paths, n_out))
    for h, i, k in np.ndindex(2, dim, dim):
        column = kernels[h][:, i, k]
        toeplitz = np.where(valid, column[np.clip(lags, 0, len(column) - 1)], 0.0)
        out[i] += hists[h][k] @ toeplitz.T
    return out


# The far field's convolution, fed the kernel transforms of _block_spectra,
# against the O(N^2) sum, in the far field's layout (a block of history
# rows, then targets past it) and in Picard's (the whole path, from row 0).
# Each entry of the drift and noise kernels is zero, decaying or growing,
# each growing entry at its own rate, so a component can have no term in
# some rate's group, and one with no term at all gets exactly nothing.
@settings(max_examples=80, deadline=None)
@given(dim=st.integers(1, 3), n_hist=st.integers(3, 64), n_paths=st.integers(1, 3),
       whole=st.booleans(),
       kinds=st.lists(st.sampled_from(["zero", "decay", "grow"]), min_size=18, max_size=18),
       seed=st.integers(0, 2**32 - 1))
@example(dim=2, n_hist=64, n_paths=2, whole=False, kinds=["grow", "zero", "zero", "decay"] * 2,
         seed=0)
def test_causal_convolution_matches_the_direct_sum(dim, n_hist, n_paths, whole, kinds, seed):
    rng = np.random.default_rng(seed)
    if whole:
        lo, n_out = 0, n_hist - 1
        n_lags = n_out
        M = simulator._fast_len(2 * n_lags)
    else:
        lo, n_out = n_hist, int(rng.integers(1, n_hist + 1))
        n_lags = n_hist + n_out
        M = simulator._fast_len(n_lags)
    index = np.arange(n_lags)
    kernels = np.zeros((2, n_lags, dim, dim))
    for (h, i, k), kind in zip(np.ndindex(2, dim, dim), kinds):
        rate = {"zero": 0.0, "decay": -1.0, "grow": 1.0}[kind] * rng.uniform(0.05, 0.3)
        kernels[h, :, i, k] = ((kind != "zero") * rng.choice([-1.0, 1.0])
                               * np.exp(rate * index) * (1.0 + 0.25 * np.cos(index)))
    hists = rng.standard_normal((2, dim, n_paths, n_hist))
    spectra = simulator._block_spectra(simulator._kernel_entries(*kernels), n_lags, M)
    out = np.zeros((dim, n_paths, n_out))
    simulator._causal_convolution(spectra, tuple(hists) if whole else hists, M, lo, out)
    ref = toeplitz_convolution(kernels, hists, lo, n_out)
    # row by row, relative to the largest output of the path so far, as in
    # test_march_matches_direct_sum_reference
    gap = np.max(np.abs(out - ref), axis=0)
    scale = np.maximum.accumulate(np.max(np.abs(ref), axis=0), axis=1)
    assert np.all(gap <= 1e-12 * scale), np.max(gap / scale)
    for i in range(dim):
        if not kernels[:, :, i].any():
            assert not out[i].any()


# The far field transforms the paths in batches: batches of 2^10 and 2^16
# real elements, each ending on a partial batch at P = 301, give the bits
# of the default batches
@pytest.mark.parametrize("fft_batch", [1 << 10, 1 << 16])
@pytest.mark.parametrize("scheme", ["mild", "integral_form"])
def test_far_field_batches_keep_the_bits_of_the_march(monkeypatch, scheme, fft_batch):
    system = planar_system(make_bounded_smooth(0.2, 0.3, 0.3))
    grid = TimeGrid(T=4.0, N=300)
    ens = brownian_increments(grid, 301, 12)
    base = SCHEMES[scheme](system, grid, ens)
    monkeypatch.setattr(simulator, "_FFT_BATCH", fft_batch)
    # the transforms of 128 and 256 points (blocks of 64 and 128 rows) end
    # on a partial batch of paths
    for M in (128, 256):
        assert 301 % max(1, fft_batch // (2 * M))
    assert SCHEMES[scheme](system, grid, ens).weighted.tobytes() == base.weighted.tobytes()


def plain(f, calls=None):
    """A wrapper without functools.wraps: it hides the matrix and the
    neutral solve that ``f`` declares."""

    def call(t, x):
        if calls is not None:
            calls.append(np.ndim(t))
        return f(t, x)

    return call


# The linear family folds its drift b - A g (b + A x, b + A g) into one
# matrix; behind plain wrappers it takes b, g and A one by one, and the two
# agree to roundoff.  A and G do not commute.
@pytest.mark.parametrize("scheme", sorted(SOLVERS))
def test_linear_family_behind_plain_wrappers_takes_the_generic_drift(scheme):
    G = np.array([[0.1, 0.05], [-0.05, 0.2]])
    lin = make_linear(G, [[0.05, 0.1], [0.02, -0.1]], 0.1 * np.eye(2))
    folded = planar_system(lin)
    assert not np.allclose(folded.A @ G, G @ folded.A)
    calls = []
    wrapped = planar_system(dataclasses.replace(lin, b=plain(lin.b, calls),
                                                sigma=plain(lin.sigma)))
    grid = TimeGrid(T=4.0, N=300)
    ens = brownian_increments(grid, 6, 17)
    out = SOLVERS[scheme](folded, grid, ens)
    assert not calls
    ref = SOLVERS[scheme](wrapped, grid, ens)
    # the generic drift calls b: once per step of a march, once per sweep
    # of Picard, on the whole path
    assert calls == ([2] * len(calls) if scheme == "picard" else [0] * grid.N)
    gap = np.max(np.abs(out.weighted - ref.weighted), axis=2)
    scale = np.maximum.accumulate(np.max(np.abs(ref.weighted), axis=2), axis=1)
    assert np.all(gap <= 1e-13 * scale), np.max(gap / scale)


# Four chunks of a budget of one 64-path block, the last of 8 paths, give
# each path the bits of the library schemes on the whole ensemble
@pytest.mark.parametrize("tag,scheme", [("mild", "mild"), ("integral_form", "integral_form")])
def test_ensemble_chunks_keep_the_bits_of_the_library_schemes(monkeypatch, tag, scheme):
    # the default budget marches the scalar_long shape (N = 2048, 1000 paths)
    # in two chunks, as its rings of 1024 rows leave no room for one
    assert simulator._chunk_edges(1000, 2048, 1) == [0, 512, 1000]
    system = planar_system(make_bounded_smooth(0.2, 0.3, 0.3))
    grid = TimeGrid(T=4.0, N=256)
    per_path = 8 * (grid.N + (grid.N + 1) * 2 + 2 * simulator._ring_rows(grid.N) * 2)
    monkeypatch.setattr(simulator, "_CHUNK_BYTES", 64 * per_path)
    assert simulator._chunk_edges(200, grid.N, 2) == [0, 64, 128, 192, 200]
    chunks = [(first, weighted.copy())
              for first, weighted in simulator._ensemble_chunks(system, grid, 200, 23, tag)]
    assert [first for first, _ in chunks] == [0, 64, 128, 192]
    whole = SCHEMES[scheme](system, grid, brownian_increments(grid, 200, 23))
    assert np.concatenate([w for _, w in chunks]).tobytes() == whole.weighted.tobytes()


def chunk_buffers(monkeypatch, system, grid, n_paths, tag):
    """(first path, paths, bytes of the buffers it is solved in) of each
    chunk of _ensemble_chunks, with _solve stubbed to hand back the states
    unsolved."""
    seen = []

    def recording(system, grid, tag, increments, built, states, flat, first):
        seen.append((first, states.shape[0],
                     increments.base.nbytes + states.base.nbytes + flat.nbytes))
        return states

    monkeypatch.setattr(simulator, "_solve", recording)
    for _ in simulator._ensemble_chunks(system, grid, n_paths, 1, tag):
        pass
    return seen


# The buffers of the first chunk, padded ring rows included, stay within the
# budget unless the chunk is a single 64-path block; every chunk reuses them.
# The budgets of 128 and 64 paths leave the padding out.
@pytest.mark.parametrize("tag,dim,n_steps,n_paths,budget_paths", [
    ("mild", 1, 2048, 1000, None), ("mild", 1, 1024, 1000, 128),
    ("integral_form", 2, 256, 300, 64)])
def test_first_chunk_buffers_fit_the_budget(monkeypatch, tag, dim, n_steps, n_paths,
                                            budget_paths):
    if budget_paths:
        per_path = 8 * (n_steps + (n_steps + 1) * dim + 2 * simulator._ring_rows(n_steps) * dim)
        monkeypatch.setattr(simulator, "_CHUNK_BYTES", budget_paths * per_path)
    system = scalar_system() if dim == 1 else planar_system(make_bounded_smooth(0.2, 0.3, 0.3))
    seen = chunk_buffers(monkeypatch, system, TimeGrid(T=4.0, N=n_steps), n_paths, tag)
    _, first_paths, nbytes = seen[0]
    assert nbytes <= simulator._CHUNK_BYTES or first_paths == simulator._PATH_BLOCK
    assert {b for _, _, b in seen} == {nbytes}
    assert sum(n for _, n, _ in seen) == n_paths


# ----------------------------------------------------------- second moment

# With G = B = 0 the mild scheme's second moment follows an exact recursion
# (tests/mean_square.py).  Node 1 does not depend on the noise, so every
# path matches it to roundoff; at the other nodes the sample mean of |w|^2
# lies within 4.5 standard errors of it (max |z| 1.7-2.5 here, 9-13 for the
# marches with kappa scaled by 1.1).  Picard solves the same system: on its
# first 8 paths it gives the march's weighted states to 1e-9.
@pytest.mark.parametrize("alpha", [0.6, 0.75, 0.9])
@pytest.mark.parametrize("scheme,n_paths", [("mild", 20000), ("picard", 8)])
def test_second_moment_matches_the_exact_recursion(scheme, n_paths, alpha):
    a_mat = np.array([[-1.0, 3.0], [-0.5, -2.0]])
    s_mat = np.array([[0.6, 0.2], [-0.3, 0.5]])
    rho = np.array([1.0, -0.5])
    zero = np.zeros((2, 2))
    system = SystemSpec(A=a_mat, rho=rho, coeffs=make_linear(zero, zero, s_mat),
                        order=FractionalOrder(alpha, 2))
    grid = TimeGrid(T=2.0, N=64)
    ens = brownian_increments(grid, n_paths, 1)
    out = simulate_mild(system, grid, ens)
    if scheme == "picard":
        assert np.max(np.abs(picard_paths(system, grid, ens).weighted - out.weighted)) <= 1e-9
        return
    values = np.sum(out.weighted[:, 1:] ** 2, axis=2)
    exact = mild_second_moment(a_mat, s_mat, rho, alpha, grid)
    assert np.max(np.abs(values[:, 0] - exact[0])) <= 1e-12 * exact[0]
    z = ((values[:, 1:].mean(axis=0) - exact[1:])
         / (values[:, 1:].std(axis=0, ddof=1) / math.sqrt(n_paths)))
    assert np.max(np.abs(z)) <= 4.5, np.max(np.abs(z))


# ------------------------------------------------------ neutral fixed point

# the exact solve does not call g, nor does the integral form's memory term
# A X; the mild march calls the sine g once per step, for the drift b - A g
# recorded for the history (none at the last node), and folds the linear
# family's drift into one matrix, found through the functools.wraps wrapper
@pytest.mark.parametrize("coeffs,mild_calls", [
    pytest.param(make_linear(0.05 * np.eye(2), 0.05 * np.eye(2), 0.05 * np.eye(2)), 0,
                 id="linear"),
    pytest.param(make_bounded_smooth(0.2, 0.1, 0.1), 1, id="bounded_smooth"),
])
def test_builtin_families_solve_the_neutral_term_without_calling_g(coeffs, mild_calls):
    calls = collections.Counter()

    @functools.wraps(coeffs.g)
    def g(t, x):
        calls[float(t)] += 1
        return coeffs.g(t, x)

    system = planar_system(dataclasses.replace(coeffs, g=g))
    grid = TimeGrid(T=4.0, N=100)
    ens = brownian_increments(grid, 20, 6)
    out = simulate_mild(system, grid, ens)
    assert calls == ({t: mild_calls for t in grid.nodes[:-1]} if mild_calls else {})
    calls.clear()
    simulate_integral_form(system, grid, ens)
    assert not calls
    # a traced g leaves every byte of the march as it is
    assert (out.weighted.tobytes()
            == simulate_mild(planar_system(coeffs), grid, ens).weighted.tobytes())


def affine_neutral_coeffs(slope, shift, L_g):
    """g = slope x + shift with declared constant L_g, linear b and sigma."""
    lin = make_linear(0.1 * np.eye(2), 0.1 * np.eye(2), 0.1 * np.eye(2))
    return CoefficientSet(g=lambda t, x: slope * np.asarray(x) + shift, b=lin.b,
                          sigma=lin.sigma, L_g=L_g, L_b=lin.L_b, L_sigma=lin.L_sigma)


# a declared L_g below the true rate, and g that does not vanish at 0:
# the a-priori sweep count no longer holds, the tested sweeps take over
@pytest.mark.parametrize("slope,shift,L_g", [
    pytest.param(0.1, 0.0, 0.01, id="understated-L_g"),
    pytest.param(0.1, 0.3, 0.1, id="not-vanishing"),
])
def test_neutral_solve_falls_back_to_tested_sweeps(slope, shift, L_g):
    coeffs = affine_neutral_coeffs(slope, shift, L_g)
    tol = NEUTRAL_TOL
    rhs = np.random.default_rng(5).normal(scale=3.0, size=(64, 2))
    x = _solve_neutral(rhs, coeffs.g, 0.5, L_g)
    ref = rhs.copy()
    for _ in range(200):
        ref = rhs - coeffs.g(0.5, ref)
    assert np.all(np.abs(x - ref).max(axis=1) <= tol * (1 + np.abs(ref).max(axis=1)))

    system = planar_system(coeffs)
    grid = TimeGrid(T=1.0, N=130)
    ens = brownian_increments(grid, 14, 3)
    base = simulate_mild(system, grid, ens).weighted
    for lo, hi in ((5, 6), (2, 9)):
        part = simulate_mild(system, grid, row_slice(ens, lo, hi))
        np.testing.assert_array_equal(base[lo:hi], part.weighted)


def test_custom_neutral_term_near_one_converges_with_defaults():
    # the declared L_g = 0.95 takes about 600 sweeps, so the default sweep
    # cap comes from that count; the exact linear solve gives the same states
    lin = make_linear([[0.95]], [[0.05]], [[0.05]])
    custom = CoefficientSet(g=lambda t, x: 0.95 * np.asarray(x), b=lin.b, sigma=lin.sigma,
                            L_g=0.95, L_b=lin.L_b, L_sigma=lin.L_sigma)
    grid = TimeGrid(T=1.0, N=16)
    ens = brownian_increments(grid, 2, 0)
    out = simulate_mild(scalar_system(coeffs=custom), grid, ens)
    ref = simulate_mild(scalar_system(coeffs=lin), grid, ens)
    np.testing.assert_allclose(unweighted(out), unweighted(ref), rtol=1e-10)


def test_expanding_neutral_term_raises_convergence_error():
    system = planar_system(affine_neutral_coeffs(1.5, 0.0, 0.5))
    grid = TimeGrid(T=1.0, N=16)
    with pytest.raises(ConvergenceError) as info:
        simulate_mild(system, grid, brownian_increments(grid, 4, 0))
    message = str(info.value)
    # the first node, every path, and how far from tolerance the worst one is
    assert "at t=0.0625:" in message
    assert "4 of 4 paths" in message
    worst = re.search(r"largest step/\(1\+\|x\|\) = (\S+) ", message)
    assert worst is not None and float(worst.group(1)) > 1.0
    # a Picard sweep solves all 16 nodes of the path at once
    with pytest.raises(ConvergenceError, match=r"at t=0.0625: 16 of 16 path nodes in the batch "):
        picard_path_solve(system, grid, brownian_increments(grid, 1, 0).increments[0])


def test_affine_scaling_in_initial_datum_and_noise():
    grid = TimeGrid(T=1.0, N=128)
    ens = brownian_increments(grid, 5, 77)
    # linear (multiplicative) family: X is homogeneous in rho at fixed noise
    out1 = simulate_mild(scalar_system(rho=0.7), grid, ens)
    out2 = simulate_mild(scalar_system(rho=1.4), grid, ens)
    np.testing.assert_allclose(unweighted(out2), 2.0 * unweighted(out1), rtol=1e-10)
    # additive diffusion: the map (rho, noise) -> X is jointly affine, so
    # doubling both doubles every nodal value
    doubled = BrownianEnsemble(increments=2.0 * ens.increments)
    lin = make_linear([[0.05]], [[0.05]], [[0.0]])
    coeffs_add = CoefficientSet(g=lin.g, b=lin.b, sigma=make_additive_noise(0.2).sigma,
                                L_g=lin.L_g, L_b=lin.L_b, L_sigma=0.0)
    sys_a1 = SystemSpec(A=np.array([[-1.0]]), rho=np.array([0.7]), coeffs=coeffs_add, order=ORDER)
    sys_a2 = SystemSpec(A=np.array([[-1.0]]), rho=np.array([1.4]), coeffs=coeffs_add, order=ORDER)
    a1 = simulate_mild(sys_a1, grid, ens)
    a2 = simulate_mild(sys_a2, grid, doubled)
    np.testing.assert_allclose(unweighted(a2), 2.0 * unweighted(a1), rtol=1e-10)


def test_additive_noise_variance_matches_ito_isometry():
    alpha = 0.75
    s = 0.3
    system = SystemSpec(A=np.zeros((1, 1)), rho=np.zeros(1),
                        coeffs=make_additive_noise(s), order=ORDER)
    grid = TimeGrid(T=1.0, N=256)
    n_paths = 4000
    ens = brownian_increments(grid, n_paths, 99)
    out = simulate_mild(system, grid, ens)
    emp = unweighted(out)[:, -1, 0].var(ddof=1)
    true = s**2 * grid.T ** (2 * alpha - 1) / ((2 * alpha - 1) * gamma_fn(alpha) ** 2)
    se = true * math.sqrt(2.0 / (n_paths - 1))
    assert abs(emp - true) <= 3.0 * se


def test_scheme_coincidence_shrinks_with_resolution():
    fine_grid = TimeGrid(T=1.0, N=1024)
    fine = brownian_increments(fine_grid, 100, 42)
    rel = {}
    for n_steps in (512, 1024):
        factor = fine_grid.N // n_steps
        grid = TimeGrid(T=1.0, N=n_steps)
        ens = BrownianEnsemble(
            increments=fine.increments.reshape(100, n_steps, factor).sum(axis=2))
        system = scalar_system()
        mild = simulate_mild(system, grid, ens)
        integral = simulate_integral_form(system, grid, ens)
        sel = grid.nodes[1:] >= grid.T / 4
        diff = mild.weighted[:, 1:][:, sel] - integral.weighted[:, 1:][:, sel]
        signal = np.sqrt(np.mean(mild.weighted[:, 1:][:, sel] ** 2))
        rel[n_steps] = np.sqrt(np.mean(diff**2)) / signal
    assert rel[512] <= 0.05
    assert rel[1024] < rel[512]


def test_picard_agrees_with_marching():
    system = scalar_system()
    grid = TimeGrid(T=1.0, N=256)
    ens = brownian_increments(grid, 2, 17)
    mild = simulate_mild(system, grid, ens)
    for i in range(2):
        res = picard_path_solve(system, grid, ens.increments[i])
        assert res.contraction_ratio < 1.0
        gap = np.max(np.abs(res.weighted[1:] - mild.weighted[i, 1:]))
        assert gap <= 1e-9


def test_picard_iteration_cap(monkeypatch):
    system = scalar_system()
    grid = TimeGrid(T=1.0, N=32)
    ens = brownian_increments(grid, 1, 1)
    assert picard_path_solve(system, grid, ens.increments[0]).iterations > 1
    monkeypatch.setattr(simulator, "_PICARD_MAX_SWEEPS", 1)
    with pytest.raises(ConvergenceError, match=r"in 1 sweeps; last contraction ratio"):
        picard_path_solve(system, grid, ens.increments[0])


def test_picard_stops_at_the_first_non_finite_sweep():
    # a NaN increment poisons every later node; the march refuses it at node 1
    system = scalar_system()
    grid = TimeGrid(T=1.0, N=32)
    inc = brownian_increments(grid, 1, 1).increments.copy()
    inc[0, 0] = np.nan
    with pytest.raises(SimulationNumericError, match="node 1 .* in sweep 1$") as info:
        picard_path_solve(system, grid, inc[0])
    assert info.value.node == 1
    with pytest.raises(SimulationNumericError) as info:
        simulate_mild(system, grid, BrownianEnsemble(increments=inc))
    assert info.value.node == 1


# a huge drift overflows the iterates within a few sweeps: the solve stops
# at the first non-finite one, not at its sweep cap, and names its one path
def test_non_finite_picard_iterate_names_its_paths():
    system = scalar_system(coeffs=make_linear([[0.05]], [[1e200]], [[0.05]]))
    grid = TimeGrid(T=1.0, N=16)
    inc = brownian_increments(grid, 1, 1).increments[0]
    refusal = r"^picard: non-finite iterate at node 1 .* in sweep \d+$"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SimulationNumericError, match=refusal) as info:
            picard_path_solve(system, grid, inc)
    assert info.value.path_indices == (0,)
    assert info.value.node == 1


def convolve_picard(system, grid, inc, c_g):
    """O(N^2) reference Picard: node-by-node coefficient calls and one
    np.convolve per kernel entry and history, with the package's quadrature,
    kernel and stopping rule.  The neutral term is the sine family
    g = c_g sin x, solved exactly at each node by :func:`sine_newton` as in
    :func:`direct_sum_march`.  Returns (values, iterations)."""
    alpha, dim, n_steps = ORDER.alpha, system.n, grid.N
    coeffs, times = system.coeffs, grid.nodes
    m = np.arange(n_steps + 1, dtype=float)
    d = grid.dt**alpha * np.diff(m**alpha) / alpha
    kappa = grid.dt ** (alpha - 1.0) * np.sqrt(np.diff(m ** (2 * alpha - 1)) / (2 * alpha - 1))
    E = ml_kernel(alpha, alpha, system.A, times)
    homog = np.zeros((n_steps + 1, dim))
    homog[1:] = times[1:, None] ** (alpha - 1) * (E[1:] @ system.rho)

    def conv(w, hist):
        out = np.zeros((n_steps + 1, dim))
        for i in range(dim):
            for k in range(dim):
                out[:, i] += np.convolve(np.concatenate(([0.0], w[:, i, k])),
                                         hist[:, k])[:n_steps + 1]
        return out

    def nodewise(fn, x):
        return np.concatenate([np.asarray(fn(t, x[j:j + 1])) for j, t in enumerate(times)])

    x = np.zeros((n_steps + 1, dim))
    for iterations in range(1, simulator._PICARD_MAX_SWEEPS + 1):
        g, b, s = (nodewise(fn, x) for fn in (coeffs.g, coeffs.b, coeffs.sigma))
        s[:-1] *= inc[:, None]
        s[-1] = 0.0
        rhs = (homog + conv(d[:, None, None] * E[1:], b - g @ system.A.T)
               + conv(kappa[:, None, None] * E[1:], s))
        x_new = np.zeros_like(x)
        x_new[1:] = sine_newton(rhs[1:], c_g)
        w_time = times[1:, None] ** (1 - alpha)
        change = np.max(np.abs(w_time * (x_new[1:] - x[1:])))
        x = x_new
        if change <= simulator._PICARD_TOL * (1 + np.max(np.abs(w_time * x[1:]))):
            return x, iterations
    raise ConvergenceError("reference Picard did not converge")


def unbalanced_spectra(entries, n_lags, M):
    """Kernel transforms of simulator._block_spectra without the balancing."""
    return [(0.0, [(h, i, k, sp_fft.rfft(w[h, :n_lags], M))
                   for h in (0, 1) for i, k, w in entries])]


def picard_gap(a_mat, T, n_steps):
    """Largest node-wise gap between the package's Picard solve and the
    reference, relative to the largest state of the path so far, over two
    paths; asserts that both take the same number of sweeps."""
    a_mat = np.array(a_mat)
    rho = np.array([1.0, -0.5])[:a_mat.shape[0]]
    system = SystemSpec(A=a_mat, rho=rho, coeffs=make_bounded_smooth(0.2, 0.3, 0.3),
                        order=ORDER)
    grid = TimeGrid(T=T, N=n_steps)
    ens = brownian_increments(grid, 2, 31)
    worst = 0.0
    for inc in ens.increments:
        res = picard_path_solve(system, grid, inc)
        ref, iterations = convolve_picard(system, grid, inc, 0.2)
        assert res.iterations == iterations
        gap = np.max(np.abs(unweighted(res) - ref[1:]), axis=1)
        scale = np.maximum.accumulate(np.max(np.abs(ref[1:]), axis=1))
        worst = max(worst, float(np.max(gap / scale)))
    return worst


# A decaying kernel, then two growing ones: two rates on the diagonal and a
# growing oscillation, over horizons where the state reaches 1e9 and 1e5.
# The sweeps stop on a change relative to the weighted sup norm, so the one
# tolerance holds whatever the size of the state.
PICARD_CASES = {
    "decaying": ([[-1.0]], 4.0, 256),
    "two-rates": ([[1.0, 0.0], [0.0, 0.3]], 20.0, 300),
    "rotation": ([[0.5, 0.3], [-0.2, 0.2]], 50.0, 300),
}


@pytest.mark.parametrize("case", sorted(PICARD_CASES))
def test_picard_matches_direct_convolution_reference(case):
    assert picard_gap(*PICARD_CASES[case]) <= 1e-12


def test_picard_growing_kernel_needs_balancing(monkeypatch):
    # the rotation case is sensitive to the balancing: unbalanced, the
    # whole-path transform's roundoff, set by the largest late values,
    # swamps the early nodes, so the sweeps stall above tol or land elsewhere
    monkeypatch.setattr(simulator, "_block_spectra", unbalanced_spectra)
    try:
        worst = picard_gap(*PICARD_CASES["rotation"])
    except ConvergenceError:
        return
    assert worst > 1e-12


def counted_coefficients(coeffs, calls, declared=True):
    """coeffs with each coefficient counting its calls in ``calls``; the
    counters declare the callable they wrap (``functools.wraps``) unless
    ``declared`` is False."""
    def counted(name, fn):
        def wrapped(t, x):
            calls[name] += 1
            return fn(t, x)
        return functools.wraps(fn)(wrapped) if declared else wrapped

    return dataclasses.replace(coeffs, g=counted("g", coeffs.g), b=counted("b", coeffs.b),
                               sigma=counted("sigma", coeffs.sigma))


def test_picard_calls_each_coefficient_once_per_sweep():
    calls = collections.Counter()
    coeffs = make_bounded_smooth(0.2, 0.1, 0.1)
    # the declared built-in g keeps its exact neutral solve, which does not call it
    system = planar_system(counted_coefficients(coeffs, calls))
    grid = TimeGrid(T=1.0, N=128)
    inc = brownian_increments(grid, 1, 4).increments[0]
    res = picard_path_solve(system, grid, inc)
    assert res.iterations > 2
    assert calls == {"g": res.iterations, "b": res.iterations, "sigma": res.iterations}
    # an undeclared g is a custom one: the march's tested sweeps solve its
    # neutral term, calling it more than once per Picard sweep, to the same
    # states at the neutral tolerance
    calls.clear()
    hidden = picard_path_solve(planar_system(counted_coefficients(coeffs, calls, False)),
                               grid, inc)
    assert calls["b"] == calls["sigma"] == hidden.iterations < calls["g"]
    assert np.max(np.abs(unweighted(hidden) - unweighted(res))) <= 1e-13


def test_picard_solves_a_time_dependent_custom_neutral_term():
    # the declared L_g = 0.3 understates the rate 0.6 |cos t| before t = pi/3,
    # so the tested sweeps freeze the nodes of a sweep at different steps and
    # each node keeps its own time
    lin = make_linear(0.1 * np.eye(2), 0.1 * np.eye(2), 0.1 * np.eye(2))
    coeffs = CoefficientSet(g=lambda t, x: 0.6 * np.sin(x) * np.cos(t), b=lin.b,
                            sigma=lin.sigma, L_g=0.3, L_b=lin.L_b, L_sigma=lin.L_sigma)
    system = planar_system(coeffs)
    grid = TimeGrid(T=4.0, N=64)
    ens = brownian_increments(grid, 3, 2)
    mild = simulate_mild(system, grid, ens)
    out = picard_paths(system, grid, ens)
    assert np.max(np.abs(out.weighted[:, 1:] - mild.weighted[:, 1:])) <= 1e-9


def test_multidimensional_system_runs_and_coincides():
    a_mat = np.array([[-1.0, 0.3], [0.0, -2.0]])
    coeffs = make_bounded_smooth(0.05, 0.05, 0.05)
    system = SystemSpec(A=a_mat, rho=np.array([1.0, -0.5]), coeffs=coeffs, order=ORDER)
    grid = TimeGrid(T=1.0, N=256)
    ens = brownian_increments(grid, 20, 8)
    mild = simulate_mild(system, grid, ens)
    integral = simulate_integral_form(system, grid, ens)
    assert np.all(np.isfinite(mild.weighted))
    sel = grid.nodes[1:] >= 0.25
    diff = mild.weighted[:, 1:][:, sel] - integral.weighted[:, 1:][:, sel]
    signal = np.sqrt(np.mean(mild.weighted[:, 1:][:, sel] ** 2))
    assert np.sqrt(np.mean(diff**2)) / signal < 0.05
    res = picard_path_solve(system, grid, ens.increments[0])
    assert np.max(np.abs(res.weighted - mild.weighted[0])) <= 1e-9


def test_closed_form_classical_limit():
    order1 = FractionalOrder(1.0, 2)
    grid = TimeGrid(T=1.0, N=64)
    out = closed_form_homogeneous(np.array([[-0.5]]), np.array([2.0]), 1.0, grid)
    np.testing.assert_allclose(unweighted(out, 1.0)[0, :, 0],
                               2.0 * np.exp(-0.5 * grid.nodes[1:]), rtol=1e-12)
    # weighted limit at the origin: rho / Gamma(1) = rho
    assert out.weighted[0, 0, 0] == pytest.approx(2.0)
    # and the marching scheme reduces to an exponential-kernel Euler method
    z = np.zeros((1, 1))
    system = SystemSpec(A=np.array([[-0.5]]), rho=np.array([2.0]),
                        coeffs=make_linear(z, z, z), order=order1)
    ens = brownian_increments(grid, 1, 0)
    mild = simulate_mild(system, grid, ens)
    np.testing.assert_allclose(unweighted(mild, 1.0)[0, :, 0],
                               2.0 * np.exp(-0.5 * grid.nodes[1:]), rtol=1e-12)


def test_non_finite_paths_are_reported():
    system = scalar_system()
    grid = TimeGrid(T=1.0, N=16)
    ens = brownian_increments(grid, 4, 1)
    bad = ens.increments.copy()
    bad[2, 3] = np.inf
    broken = BrownianEnsemble(increments=bad)
    with pytest.raises(SimulationNumericError) as info:
        simulate_mild(system, grid, broken)
    assert 2 in info.value.path_indices
    assert info.value.node is not None


def test_overflowed_mild_kernel_is_refused_up_front():
    # E_{a,a}(t^a 40) overflows from t = 5.2 on, the grid's node 7
    system = scalar_system(a=40.0)
    grid = TimeGrid(T=50.0, N=64)
    ens = brownian_increments(grid, 4, 1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for run in (lambda: simulate_mild(system, grid, ens),
                    lambda: picard_path_solve(system, grid, ens.increments[0])):
            with pytest.raises(SimulationNumericError, match="not finite at node 7 ") as info:
                run()
            assert info.value.node == 7


def test_strong_neutral_coefficient_rejected():
    system = scalar_system(coeffs=make_linear([[1.0]], [[0.0]], [[0.0]]))
    grid = TimeGrid(T=1.0, N=16)
    ens = brownian_increments(grid, 1, 0)
    with pytest.raises(ValueError):
        simulate_mild(system, grid, ens)


# Increments that are not a (paths >= 1, N) array are refused, the error
# naming their shape
@pytest.mark.parametrize("shape", [(8,), (2, 8, 1), (0, 8), (2, 7), (8, 2)])
@pytest.mark.parametrize("scheme", sorted(SCHEMES))
def test_schemes_refuse_increments_that_are_not_paths_by_steps(scheme, shape):
    grid = TimeGrid(T=1.0, N=8)
    ens = BrownianEnsemble(increments=np.zeros(shape))
    with pytest.raises(ValueError, match=re.escape(f"got {shape}")):
        SCHEMES[scheme](scalar_system(), grid, ens)


def test_self_convergence_toward_fine_reference():
    # reference 16x finer than the finest row, same Brownian paths coarsened
    fine_n = 8192
    fine_grid = TimeGrid(T=1.0, N=fine_n)
    fine = brownian_increments(fine_grid, 24, 9)
    system = scalar_system()
    ref = simulate_mild(system, fine_grid, fine)
    errors = []
    for n_steps in (128, 256, 512):
        factor = fine_n // n_steps
        ens = BrownianEnsemble(increments=fine.increments.reshape(24, n_steps, factor).sum(axis=2))
        out = simulate_mild(system, TimeGrid(T=1.0, N=n_steps), ens)
        gap = np.abs(out.weighted - ref.weighted[:, ::factor, :])
        errors.append(np.mean(np.max(gap, axis=(1, 2))))
    assert errors[0] > errors[1] > errors[2]
    order = math.log2(errors[1] / errors[2])
    assert order >= 0.2
