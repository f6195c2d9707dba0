"""Path schemes: determinism, degenerate collapse, variance, coincidence."""

import collections
import dataclasses
import functools
import math
import re

import numpy as np
import pytest
from scipy import fft as sp_fft
from scipy.special import betainc

from fracstab import (
    CoefficientSet,
    BrownianEnsemble,
    FractionalOrder,
    SystemSpec,
    TimeGrid,
    brownian_increments,
    closed_form_homogeneous,
    gamma_fn,
    make_additive_noise,
    make_bounded_smooth,
    make_linear,
    ml_kernel,
    ml_matrix,
    ml_scalar,
    picard_path_solve,
    simulate_integral_form,
    simulate_mild,
)
from fracstab import simulator
from fracstab.coefficients import NEUTRAL_TOL, _solve_neutral
from fracstab.errors import ConvergenceError, SimulationNumericError

ORDER = FractionalOrder(0.75, 2)


def scalar_system(a=-1.0, rho=1.0, L=0.05, coeffs=None):
    if coeffs is None:
        coeffs = make_linear([[L]], [[L]], [[L]])
    return SystemSpec(A=np.array([[a]]), rho=np.array([rho]), coeffs=coeffs, order=ORDER)


def zero_system(a=-1.0, rho=1.0):
    z = np.zeros((1, 1))
    return scalar_system(a=a, rho=rho, coeffs=make_linear(z, z, z))


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
    np.testing.assert_allclose(out.values[0, 1:, 0], expect, rtol=1e-13)


def test_weighted_initialisation_and_consistency():
    system = scalar_system()
    grid = TimeGrid(T=1.0, N=64)
    ens = brownian_increments(grid, 4, 3)
    for out in (simulate_mild(system, grid, ens), simulate_integral_form(system, grid, ens)):
        np.testing.assert_allclose(out.weighted[:, 0, 0], 1.0 / gamma_fn(0.75), rtol=1e-14)
        assert np.all(np.isnan(out.values[:, 0, :]))
        t = grid.nodes[1:]
        np.testing.assert_allclose(
            out.weighted[:, 1:, 0], t ** (1 - ORDER.alpha) * out.values[:, 1:, 0], rtol=1e-13
        )


SCHEMES = {
    "mild": simulate_mild,
    "integral_form": simulate_integral_form,
    "as_printed": lambda *args: simulate_integral_form(*args, as_printed=True),
}


def row_slice(ens, lo, hi):
    """The paths lo .. hi - 1 of an ensemble, as an ensemble of their own."""
    return BrownianEnsemble(increments=ens.increments[lo:hi], master_seed=ens.master_seed,
                            n_paths=hi - lo)


def planar_system(coeffs):
    a_mat = np.array([[-1.0, 0.3], [-0.2, -2.0]])
    return SystemSpec(A=a_mat, rho=np.array([1.0, -0.5]), coeffs=coeffs, order=ORDER)


def direct_sum_march(system, grid, ens, scheme, c_g):
    """O(N^2) reference march: the three history sums of the unfused scheme
    (neutral memory, drift, noise) taken directly over the whole history at
    every step, with the same quadrature as the package.  The neutral term
    is the sine family g = c_g sin x, solved exactly at each node by Newton's
    method run until each path's step falls to 1e-12 (1 + |x|)."""
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
            return ml_matrix(alpha, alpha, t**alpha * a_mat)

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
        if scheme == "as_printed":
            memory = lambda t, x: coeffs.g(t, x) @ a_mat.T
        else:
            memory = lambda t, x: x @ a_mat.T
            cell0 = (math.gamma(alpha) ** 2 / math.gamma(2 * alpha)
                     * betainc(alpha, alpha, grid.dt / t) * t ** (2 * alpha - 1))
            free[1:] += (inv_gamma * cell0)[:, None] * (a_mat @ rho) * inv_gamma
    n_paths = ens.n_paths
    x_hist = np.zeros((n_steps + 1, n_paths, dim))
    mem, b, s = (np.zeros((n_steps, n_paths, dim)) for _ in range(3))
    x = np.zeros((n_paths, dim))
    for n in range(n_steps + 1):
        if n:
            rhs = free[n] + sum(np.einsum("mik,mpk->pi", wt[:n][::-1], h[:n])
                                for wt, h in ((w_mem, mem), (w_b, b), (w_s, s)))
            x = rhs.copy()
            active = np.ones(n_paths, dtype=bool)
            while active.any():
                x_new = x - (x + c_g * np.sin(x) - rhs) / (1 + c_g * np.cos(x))
                step = np.max(np.abs(x_new - x), axis=1)
                x = np.where(active[:, None], x_new, x)
                active &= step > 1e-12 * (1 + np.max(np.abs(x_new), axis=1))
            x_hist[n] = x
        if n < n_steps:
            mem[n] = memory(times[n], x)
            b[n] = coeffs.b(times[n], x)
            s[n] = coeffs.sigma(times[n], x) * ens.increments[:, n, None]
    return x_hist.transpose(1, 0, 2)


# N = 256 and 300 run the far field at two and three block levels (base
# block 64); 300 also ends on a partial block
@pytest.mark.parametrize("dim,n_steps", [(1, 256), (2, 300)])
@pytest.mark.parametrize("scheme", sorted(SCHEMES))
def test_scheme_determinism_and_chunk_independence(scheme, dim, n_steps):
    coeffs = make_bounded_smooth(0.2, 0.1, 0.1)
    system = scalar_system(coeffs=coeffs) if dim == 1 else planar_system(coeffs)
    simulate = SCHEMES[scheme]
    grid = TimeGrid(T=1.0, N=n_steps)
    ens = brownian_increments(grid, 40, 123)
    base = simulate(system, grid, ens)
    again = simulate(system, grid, ens)
    np.testing.assert_array_equal(np.nan_to_num(base.values), np.nan_to_num(again.values))
    # a path's states do not depend on the other paths marched with it
    for lo, hi in ((3, 4), (10, 17), (1, 40)):
        part = simulate(system, grid, row_slice(ens, lo, hi))
        np.testing.assert_array_equal(np.nan_to_num(base.values[lo:hi]),
                                      np.nan_to_num(part.values))


# Decaying kernels at N = 256 and 300 (two and three block levels, the
# latter ending on a partial block), then matrices outside the stability
# sector, where the mild kernel grows like e^(c t): one rate, two rates on
# the diagonal, a growing oscillation.  At T = 50 one top-level far-field
# block spans 25 (N = 512) or 21 (N = 300) time units, so an unbalanced
# transform loses every digit on the growing paths.
@pytest.mark.parametrize("a_mat,T,n_steps", [
    pytest.param([[-1.0]], 4.0, 256, id="scalar-256"),
    pytest.param([[-1.0]], 4.0, 300, id="scalar-300"),
    pytest.param([[-1.0, 0.3], [-0.2, -2.0]], 4.0, 300, id="planar-300"),
    pytest.param([[1.0]], 50.0, 512, id="one-rate"),
    pytest.param([[1.0, 0.0], [0.0, 0.3]], 50.0, 300, id="two-rates"),
    pytest.param([[0.5, 0.3], [-0.2, 0.2]], 50.0, 300, id="rotation"),
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
    gap = np.max(np.abs(out.values[:, 1:] - ref[:, 1:]), axis=2)
    scale = np.maximum.accumulate(np.max(np.abs(ref[:, 1:]), axis=2), axis=1)
    assert np.all(gap <= 1e-12 * scale), np.max(gap / scale)


# ------------------------------------------------------ neutral fixed point

@pytest.mark.parametrize("coeffs", [
    pytest.param(make_linear(0.05 * np.eye(2), 0.05 * np.eye(2), 0.05 * np.eye(2)), id="linear"),
    pytest.param(make_bounded_smooth(0.2, 0.1, 0.1), id="bounded_smooth"),
])
def test_builtin_families_solve_the_neutral_term_without_calling_g(coeffs):
    calls = collections.Counter()

    @functools.wraps(coeffs.g)
    def g(t, x):
        calls[float(t)] += 1
        return coeffs.g(t, x)

    system = planar_system(dataclasses.replace(coeffs, g=g))
    grid = TimeGrid(T=4.0, N=100)
    ens = brownian_increments(grid, 20, 6)
    # the exact solve does not call g: the mild march calls it once per
    # step, for the drift b - A g recorded for the history (none at the
    # last node), and the integral form's memory term A X does not need it
    out = simulate_mild(system, grid, ens)
    assert calls == {t: 1 for t in grid.nodes[:-1]}
    calls.clear()
    simulate_integral_form(system, grid, ens)
    assert not calls
    # a traced g leaves every byte of the march as it is
    assert out.values.tobytes() == simulate_mild(planar_system(coeffs), grid, ens).values.tobytes()


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
    base = np.nan_to_num(simulate_mild(system, grid, ens).values)
    for lo, hi in ((5, 6), (2, 9)):
        part = simulate_mild(system, grid, row_slice(ens, lo, hi))
        np.testing.assert_array_equal(base[lo:hi], np.nan_to_num(part.values))


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
    np.testing.assert_allclose(out.values[:, 1:], ref.values[:, 1:], rtol=1e-10)


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


def test_affine_scaling_in_initial_datum_and_noise():
    grid = TimeGrid(T=1.0, N=128)
    ens = brownian_increments(grid, 5, 77)
    # linear (multiplicative) family: X is homogeneous in rho at fixed noise
    out1 = simulate_mild(scalar_system(rho=0.7), grid, ens)
    out2 = simulate_mild(scalar_system(rho=1.4), grid, ens)
    np.testing.assert_allclose(out2.values[:, 1:], 2.0 * out1.values[:, 1:], rtol=1e-10)
    # additive diffusion: the map (rho, noise) -> X is jointly affine, so
    # doubling both doubles every nodal value
    doubled = BrownianEnsemble(increments=2.0 * ens.increments,
                               master_seed=ens.master_seed, n_paths=ens.n_paths)
    lin = make_linear([[0.05]], [[0.05]], [[0.0]])
    coeffs_add = CoefficientSet(g=lin.g, b=lin.b, sigma=make_additive_noise(0.2).sigma,
                                L_g=lin.L_g, L_b=lin.L_b, L_sigma=0.0,
                                family_tag="custom")
    sys_a1 = SystemSpec(A=np.array([[-1.0]]), rho=np.array([0.7]), coeffs=coeffs_add, order=ORDER)
    sys_a2 = SystemSpec(A=np.array([[-1.0]]), rho=np.array([1.4]), coeffs=coeffs_add, order=ORDER)
    a1 = simulate_mild(sys_a1, grid, ens)
    a2 = simulate_mild(sys_a2, grid, doubled)
    np.testing.assert_allclose(a2.values[:, 1:], 2.0 * a1.values[:, 1:], rtol=1e-10)


def test_additive_noise_variance_matches_ito_isometry():
    alpha = 0.75
    s = 0.3
    system = SystemSpec(A=np.zeros((1, 1)), rho=np.zeros(1),
                        coeffs=make_additive_noise(s), order=ORDER)
    grid = TimeGrid(T=1.0, N=256)
    n_paths = 4000
    ens = brownian_increments(grid, n_paths, 99)
    out = simulate_mild(system, grid, ens)
    emp = out.values[:, -1, 0].var(ddof=1)
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
            increments=fine.increments.reshape(100, n_steps, factor).sum(axis=2),
            master_seed=42, n_paths=100)
        system = scalar_system()
        mild = simulate_mild(system, grid, ens)
        integral = simulate_integral_form(system, grid, ens)
        sel = grid.nodes[1:] >= grid.T / 4
        diff = mild.weighted[:, 1:][:, sel] - integral.weighted[:, 1:][:, sel]
        signal = np.sqrt(np.mean(mild.weighted[:, 1:][:, sel] ** 2))
        rel[n_steps] = np.sqrt(np.mean(diff**2)) / signal
    assert rel[512] <= 0.05
    assert rel[1024] < rel[512]


def test_as_printed_variant_semantics():
    grid = TimeGrid(T=1.0, N=256)
    ens = brownian_increments(grid, 3, 5)
    with_g = scalar_system(L=0.1)
    a = simulate_integral_form(with_g, grid, ens)
    b = simulate_integral_form(with_g, grid, ens, as_printed=True)
    assert np.nanmax(np.abs(a.values - b.values)) > 1e-6
    assert b.scheme_tag == "integral_form_as_printed"
    # with all coefficients zero the literal form has no memory term at all:
    # it degenerates to the drift-free curve t^(a-1) rho / Gamma(a), while
    # the self-consistent form tracks the Mittag-Leffler closed form
    system = zero_system()
    c = simulate_integral_form(system, grid, ens)
    d = simulate_integral_form(system, grid, ens, as_printed=True)
    t = grid.nodes[1:]
    driftless = t ** (ORDER.alpha - 1.0) / gamma_fn(ORDER.alpha)
    np.testing.assert_allclose(d.values[0, 1:, 0], driftless, rtol=1e-12)
    reference = closed_form_homogeneous(system.A, system.rho, ORDER.alpha, grid)
    assert np.nanmax(np.abs(c.weighted - reference.weighted[0])) < 5e-3


def test_picard_agrees_with_marching():
    system = scalar_system()
    grid = TimeGrid(T=1.0, N=256)
    ens = brownian_increments(grid, 2, 17)
    mild = simulate_mild(system, grid, ens)
    tol = 1e-10
    for i in range(2):
        res = picard_path_solve(system, grid, ens.increments[i], tol=tol)
        assert res.contraction_ratio < 1.0
        gap = np.max(np.abs(res.weighted[1:] - mild.weighted[i, 1:]))
        assert gap <= 10.0 * tol


def test_picard_iteration_cap():
    system = scalar_system()
    grid = TimeGrid(T=1.0, N=32)
    ens = brownian_increments(grid, 1, 1)
    with pytest.raises(ConvergenceError):
        picard_path_solve(system, grid, ens.increments[0], max_iter=1, tol=1e-14)


def convolve_picard(system, grid, inc, tol):
    """O(N^2) reference Picard: node-by-node coefficient calls and one
    np.convolve per kernel entry and history, with the package's quadrature,
    kernel and stopping rule.  Returns (values, iterations)."""
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
    for iterations in range(1, 201):
        g, b, s = (nodewise(fn, x) for fn in (coeffs.g, coeffs.b, coeffs.sigma))
        s[:-1] *= inc[:, None]
        s[-1] = 0.0
        x_new = (homog + conv(d[:, None, None] * E[1:], b - g @ system.A.T)
                 + conv(kappa[:, None, None] * E[1:], s) - g)
        x_new[0] = 0.0
        w_time = times[1:, None] ** (1 - alpha)
        change = np.max(np.abs(w_time * (x_new[1:] - x[1:])))
        x = x_new
        if change <= tol * (1 + np.max(np.abs(w_time * x[1:]))):
            return x, iterations
    raise ConvergenceError("reference Picard did not converge")


def unbalanced_spectra(kernels, L, n_targets, M):
    """Kernel transforms of simulator._block_spectra without the balancing."""
    n_lags = L + n_targets - 1
    return [(0.0, [(h, i, k, sp_fft.rfft(np.concatenate(([0.0], w[:n_lags])), M))
                   for h, entries in enumerate(kernels) for i, k, w in entries])]


def picard_gap(a_mat, T, n_steps, tol):
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
        res = picard_path_solve(system, grid, inc, tol=tol)
        ref, iterations = convolve_picard(system, grid, inc, tol)
        assert res.iterations == iterations
        gap = np.max(np.abs(res.values[1:] - ref[1:]), axis=1)
        scale = np.maximum.accumulate(np.max(np.abs(ref[1:]), axis=1))
        worst = max(worst, float(np.max(gap / scale)))
    return worst


# A decaying kernel, then two growing ones: two rates on the diagonal and a
# growing oscillation, over horizons where the state reaches 1e9 and 1e5.
# The sweeps stop on a change relative to the weighted sup norm, so the
# default tol holds whatever the size of the state; the rotation runs at
# 1e-6, where the unbalanced transform below stalls or lands elsewhere.
PICARD_CASES = {
    "decaying": ([[-1.0]], 4.0, 256, 1e-10),
    "two-rates": ([[1.0, 0.0], [0.0, 0.3]], 20.0, 300, 1e-10),
    "rotation": ([[0.5, 0.3], [-0.2, 0.2]], 50.0, 300, 1e-6),
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


def test_picard_calls_each_coefficient_once_per_sweep():
    calls = collections.Counter()

    def counted(name, fn):
        def wrapped(t, x):
            calls[name] += 1
            return fn(t, x)
        return wrapped

    coeffs = make_bounded_smooth(0.2, 0.1, 0.1)
    system = planar_system(dataclasses.replace(
        coeffs, g=counted("g", coeffs.g), b=counted("b", coeffs.b),
        sigma=counted("sigma", coeffs.sigma)))
    grid = TimeGrid(T=1.0, N=128)
    res = picard_path_solve(system, grid, brownian_increments(grid, 1, 4).increments[0])
    assert res.iterations > 2
    assert calls == {"g": res.iterations, "b": res.iterations, "sigma": res.iterations}


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
    np.testing.assert_allclose(out.values[0, 1:, 0],
                               2.0 * np.exp(-0.5 * grid.nodes[1:]), rtol=1e-12)
    # weighted limit at the origin: rho / Gamma(1) = rho
    assert out.weighted[0, 0, 0] == pytest.approx(2.0)
    # and the marching scheme reduces to an exponential-kernel Euler method
    z = np.zeros((1, 1))
    system = SystemSpec(A=np.array([[-0.5]]), rho=np.array([2.0]),
                        coeffs=make_linear(z, z, z), order=order1)
    ens = brownian_increments(grid, 1, 0)
    mild = simulate_mild(system, grid, ens)
    np.testing.assert_allclose(mild.values[0, 1:, 0],
                               2.0 * np.exp(-0.5 * grid.nodes[1:]), rtol=1e-12)


def test_non_finite_paths_are_reported():
    system = scalar_system()
    grid = TimeGrid(T=1.0, N=16)
    ens = brownian_increments(grid, 4, 1)
    bad = ens.increments.copy()
    bad[2, 3] = np.inf
    broken = BrownianEnsemble(increments=bad, master_seed=1, n_paths=4)
    with pytest.raises(SimulationNumericError) as info:
        simulate_mild(system, grid, broken)
    assert 2 in info.value.path_indices
    assert info.value.node is not None


def test_strong_neutral_coefficient_rejected():
    system = scalar_system(coeffs=make_linear([[1.0]], [[0.0]], [[0.0]]))
    grid = TimeGrid(T=1.0, N=16)
    ens = brownian_increments(grid, 1, 0)
    with pytest.raises(ValueError):
        simulate_mild(system, grid, ens)


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
        ens = BrownianEnsemble(increments=fine.increments.reshape(24, n_steps, factor).sum(axis=2),
                               master_seed=9, n_paths=24)
        out = simulate_mild(system, TimeGrid(T=1.0, N=n_steps), ens)
        gap = np.abs(out.weighted - ref.weighted[:, ::factor, :])
        errors.append(np.mean(np.max(gap, axis=(1, 2))))
    assert errors[0] > errors[1] > errors[2]
    order = math.log2(errors[1] / errors[2])
    assert order >= 0.2
