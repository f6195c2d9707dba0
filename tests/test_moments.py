"""Moment curves, weighted norms, decay fits, and stability verdicts."""

import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from fracstab import (
    DecayVerdict,
    FractionalOrder,
    MomentCurve,
    SystemSpec,
    TimeGrid,
    brownian_increments,
    gamma_fn,
    make_additive_noise,
    make_linear,
    pth_moment_curve,
    simulate_mild,
    stability_verdict,
)
from fracstab.errors import SimulationNumericError
from fracstab.moments import _MomentSums
from fracstab.simulator import PathEnsemble

from homogeneous import closed_form_homogeneous

ORDER = FractionalOrder(0.75, 2)


def weighted_sup(ensemble):
    """The supremum a verdict reports for the weighted second moment."""
    curve = pth_moment_curve(ensemble, 2)
    return stability_verdict(curve, epsilon=1.0, tail_tol=1e-2).sup


def plain_curve(ensemble, p, alpha=ORDER.alpha):
    """E||X(t)||^p from node 1, the weighted curve rescaled by t^(p(a-1)) as
    ``fracstab simulate`` writes moments.csv."""
    curve = pth_moment_curve(ensemble, p)
    t = curve.nodes[1:]
    scale = t ** (p * (alpha - 1.0))
    return MomentCurve(nodes=t, m=curve.m[1:] * scale, half_width=curve.half_width[1:] * scale)


def make_ensemble(weighted_values, grid):
    """Build a PathEnsemble from given weighted values (paths, N+1, n)."""
    w = np.asarray(weighted_values, dtype=float)
    return PathEnsemble(weighted=w, grid=grid)


def test_zero_ensemble_gives_zero_curves():
    z = np.zeros((1, 1))
    system = SystemSpec(A=np.array([[-1.0]]), rho=np.array([0.0]),
                        coeffs=make_linear(z, z, z), order=ORDER)
    grid = TimeGrid(T=1.0, N=32)
    out = simulate_mild(system, grid, brownian_increments(grid, 5, 0))
    for curve in (pth_moment_curve(out, 2), plain_curve(out, 2)):
        assert not curve.m.any()
    assert weighted_sup(out) == 0.0


def test_deterministic_replicated_paths_zero_half_width():
    grid = TimeGrid(T=1.0, N=16)
    single = closed_form_homogeneous(np.array([[-1.0]]), np.array([1.0]), 0.75, grid)
    stacked = PathEnsemble(weighted=np.repeat(single.weighted, 40, axis=0), grid=grid)
    # deviations are taken from path 0's value, so equal paths give exact zeros
    assert not pth_moment_curve(stacked, 2).half_width.any()
    curve = plain_curve(stacked, 2)
    assert not curve.half_width.any()
    values = single.weighted[0, 1:] * curve.nodes[:, None] ** (ORDER.alpha - 1.0)
    np.testing.assert_allclose(curve.m, np.linalg.norm(values, axis=1) ** 2, rtol=1e-14)


def two_pass_curve(weighted, p):
    """(mean, half-width) of the curve by a two-pass ddof=1 reduction of the
    whole array, each node's paths summed in path order."""
    powers = np.linalg.norm(weighted, axis=2) ** p
    mean = powers.mean(axis=0)
    n_paths = powers.shape[0]
    if n_paths < 30:
        return mean, np.full_like(mean, np.nan)
    return mean, 1.959963984540054 * powers.std(axis=0, ddof=1) / math.sqrt(n_paths)


def ulps(got, want):
    return float(np.max(np.abs(got - want) / np.spacing(np.abs(want))))


def random_states(n_paths, dim, n_nodes=1025):
    rng = np.random.default_rng(n_paths * 10 + dim)
    # magnitudes over ten decades, so the order of every sum shows in its bits
    scale = 10.0 ** rng.uniform(-5, 5, (n_paths, 1, 1))
    return rng.standard_normal((n_paths, n_nodes, dim)) * scale


# The curve is folded from blocks of 64 paths, so any split of the ensemble
# into chunks of whole blocks (16 blocks at P = 1000) gives the same bytes.
# Against the two-pass reduction the curve differs by at most 35 ulps in m
# and 162 ulps in the half-width on these ensembles (p = 3, P = 1000), most
# of it the two-pass sums' own roundoff (see the exact test below).
@pytest.mark.parametrize("n_paths", [1, 29, 30, 1000])
@pytest.mark.parametrize("dim", [1, 2, 3])
def test_moment_curve_is_chunk_invariant_and_near_the_two_pass_reduction(n_paths, dim):
    grid = TimeGrid(T=1.0, N=1024)
    w = random_states(n_paths, dim)
    ens = make_ensemble(w, grid)
    n_blocks = -(-n_paths // 64)
    for p in (1, 2, 3):
        curve = pth_moment_curve(ens, p)
        for n_chunks in (2, 7):
            edges = np.minimum(64 * np.linspace(0, n_blocks, n_chunks + 1).round().astype(int),
                               n_paths)
            sums = _MomentSums(grid.N + 1, p)
            for lo, hi in zip(edges, edges[1:]):
                sums.add(w[lo:hi])
            chunked = sums.curve(grid.nodes)
            assert chunked.m.tobytes() == curve.m.tobytes()
            assert chunked.half_width.tobytes() == curve.half_width.tobytes()
        mean, half = two_pass_curve(w, p)
        assert ulps(curve.m, mean) <= 40
        if n_paths < 30:
            assert np.isnan(curve.half_width).all()
        else:
            assert ulps(curve.half_width, half) <= 170


def test_moment_curve_is_within_a_few_ulps_of_exact_sums():
    w = random_states(1000, 1, n_nodes=64)
    curve = pth_moment_curve(make_ensemble(w, TimeGrid(T=1.0, N=63)), 3)
    powers = np.linalg.norm(w, axis=2) ** 3
    mean = [sum(map(Fraction, col)) / len(col) for col in powers.T]
    m2 = [sum((Fraction(v) - mu) ** 2 for v in col) for col, mu in zip(powers.T, mean)]
    half = 1.959963984540054 * np.sqrt([float(v / 999) for v in m2]) / math.sqrt(1000)
    # 6 and 7 ulps measured; the two-pass reduction misses them by 14 and 91
    assert ulps(curve.m, np.array([float(v) for v in mean])) <= 8
    assert ulps(curve.half_width, half) <= 8


@pytest.mark.parametrize("dim", [1, 2])
def test_moment_curve_allocates_well_below_an_ensemble(dim):
    n_paths, grid = 1000, TimeGrid(T=1.0, N=1024)
    w = np.random.default_rng(dim).standard_normal((n_paths, grid.N + 1, dim))
    ens = make_ensemble(w, grid)
    array_bytes = w.nbytes
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        pth_moment_curve(ens, 2)
        extra = tracemalloc.get_traced_memory()[1] - base
        # a whole-array reduction allocated 3 (dim 1) or 2 (dim 2) arrays
        assert extra <= 0.5 * array_bytes, extra / array_bytes
    finally:
        tracemalloc.stop()


def test_unweighted_curve_excludes_origin():
    grid = TimeGrid(T=1.0, N=8)
    single = closed_form_homogeneous(np.array([[-1.0]]), np.array([1.0]), 0.75, grid)
    curve = plain_curve(single, 2)
    assert curve.nodes[0] > 0.0
    assert len(curve.nodes) == grid.N
    weighted = pth_moment_curve(single, 2)
    assert weighted.nodes[0] == 0.0
    assert len(weighted.nodes) == grid.N + 1


def test_small_ensembles_report_nan_half_width():
    grid = TimeGrid(T=1.0, N=8)
    single = closed_form_homogeneous(np.array([[-1.0]]), np.array([1.0]), 0.75, grid)
    curve = pth_moment_curve(single, 2)
    assert np.all(np.isnan(curve.half_width))


def test_additive_noise_moment_curve_matches_ito_isometry():
    s, alpha = 0.3, 0.75
    system = SystemSpec(A=np.zeros((1, 1)), rho=np.zeros(1),
                        coeffs=make_additive_noise(s), order=ORDER)
    grid = TimeGrid(T=1.0, N=128)
    out = simulate_mild(system, grid, brownian_increments(grid, 4000, 31))
    curve = plain_curve(out, 2)
    expected = s**2 * curve.nodes ** (2 * alpha - 1) / ((2 * alpha - 1) * gamma_fn(alpha) ** 2)
    # every node within 3 half-widths of the closed form
    assert np.all(np.abs(curve.m - expected) <= 3.0 * curve.half_width / 1.96 * 3.0)


def test_fourth_moment_inequality_additive_benchmark():
    # E|I(T)|^4 <= C_4 (int (E|f|^4)^{1/2})^2 = 36 v^2; Gaussian value is 3 v^2
    s = 0.3
    system = SystemSpec(A=np.zeros((1, 1)), rho=np.zeros(1),
                        coeffs=make_additive_noise(s), order=ORDER)
    grid = TimeGrid(T=1.0, N=128)
    out = simulate_mild(system, grid, brownian_increments(grid, 4000, 13))
    curve4 = plain_curve(out, 4)
    v = s**2 * grid.T ** 0.5 / (0.5 * gamma_fn(0.75) ** 2)
    emp = curve4.m[-1]
    ci = curve4.half_width[-1] * 3.0 / 1.96
    assert emp <= 36.0 * v**2 + ci
    assert abs(emp - 3.0 * v**2) <= ci


def test_weighted_sup_homogeneous_at_origin_and_scaling():
    grid = TimeGrid(T=5.0, N=256)
    single = closed_form_homogeneous(np.array([[-1.0]]), np.array([1.0]), 0.75, grid)
    val = weighted_sup(single)
    assert val == pytest.approx((1.0 / gamma_fn(0.75)) ** 2, rel=1e-12)
    curve = pth_moment_curve(single, 2)
    assert int(np.argmax(curve.m)) == 0  # monotone decay confirmed by scan
    for c in (0.0, 0.5, 3.0):
        scaled = PathEnsemble(weighted=c * single.weighted, grid=grid)
        assert weighted_sup(scaled) == pytest.approx(c**2 * val, rel=1e-12)


def test_moment_monotonicity_in_p():
    grid = TimeGrid(T=1.0, N=8)
    big = make_ensemble(np.full((3, 9, 1), 2.0), grid)
    small = make_ensemble(np.full((3, 9, 1), 0.5), grid)
    m_big = [pth_moment_curve(big, p).m for p in (2, 3, 4)]
    m_small = [pth_moment_curve(small, p).m for p in (2, 3, 4)]
    assert np.all(m_big[0] <= m_big[1]) and np.all(m_big[1] <= m_big[2])
    assert np.all(m_small[0] >= m_small[1]) and np.all(m_small[1] >= m_small[2])


@pytest.mark.parametrize("p", [2.5, True, False, 0, float("nan")])
def test_moment_order_must_be_an_integer(p):
    grid = TimeGrid(T=1.0, N=8)
    ens = make_ensemble(np.full((3, 9, 1), 2.0), grid)
    with pytest.raises(ValueError, match="p must be an integer"):
        pth_moment_curve(ens, p)


# ||w||^p past the doubles: a mean that overflows to inf is refused at its
# first node, not printed as a NaN curve (inf minus path 0's shift)
def test_overflowing_moment_mean_is_refused():
    grid = TimeGrid(T=1.0, N=8)
    values = np.full((40, 9, 1), 1.0)
    values[:, 3:] = 816.0  # 816^150 ~ 1e437
    with pytest.raises(SimulationNumericError,
                       match=r"^the p-th moment \(p = 150\) .* mean is not finite at node 3 "):
        pth_moment_curve(make_ensemble(values, grid), 150)
    assert np.all(np.isfinite(pth_moment_curve(make_ensemble(values, grid), 100).m))


# ||w|| past 1.3e154, where the squared components overflow, is still
# finite: p = 1 takes it in every dim, and only p = 2, whose ||w||^2 leaves
# the doubles, is refused.  Norms that fit keep the bits of the plain norm.
@pytest.mark.parametrize("dim", [1, 2])
def test_moment_of_a_norm_whose_squares_overflow_is_taken(dim):
    grid = TimeGrid(T=1.0, N=8)
    values = np.full((3, 9, dim), 0.5)
    values[:, 2:] = 1e160
    curve = pth_moment_curve(make_ensemble(values, grid), 1)
    np.testing.assert_array_equal(curve.m[:2], np.linalg.norm(values[0, :2], axis=1))
    np.testing.assert_allclose(curve.m[2:], 1e160 * math.sqrt(dim), rtol=1e-15)
    with pytest.raises(SimulationNumericError, match=r"\(p = 2\) .* at node 2 "):
        pth_moment_curve(make_ensemble(values, grid), 2)


# a finite mean whose squared deviations overflow: refused where a
# half-width is printed (30 paths or more), kept below 30 paths
def test_overflowing_moment_variance_is_refused_where_a_half_width_is_given():
    grid = TimeGrid(T=1.0, N=8)
    values = np.zeros((30, 9, 1))
    values[1, 5:] = 1e100  # ||w||^2 = 1e200, its squared deviation 1e400
    with pytest.raises(SimulationNumericError, match="variance is not finite at node 5 ") as info:
        pth_moment_curve(make_ensemble(values, grid), 2)
    assert info.value.node == 5
    curve = pth_moment_curve(make_ensemble(values[:29], grid), 2)
    assert np.all(np.isfinite(curve.m)) and np.all(np.isnan(curve.half_width))


# A sum of no paths has no mean: the curve is refused, not read from the
# uninitialised shift
def test_moment_curve_of_no_paths_is_refused():
    grid = TimeGrid(T=1.0, N=8)
    with pytest.raises(ValueError, match="at least one path"):
        pth_moment_curve(make_ensemble(np.zeros((0, 9, 1)), grid), 2)
    with pytest.raises(ValueError, match="at least one path"):
        _MomentSums(9, 2).curve(grid.nodes)


def test_decay_fit_exact_power_law():
    t = np.linspace(0.0, 10.0, 101)
    m = np.zeros_like(t)
    m[1:] = t[1:] ** -2.0
    curve = MomentCurve(nodes=t, m=m, half_width=np.zeros_like(t))
    fit = stability_verdict(curve, 1.0, 1e-2, window_fraction=0.5)
    assert fit.slope == pytest.approx(-2.0, abs=1e-9)
    assert fit.slope_ci[1] - fit.slope_ci[0] < 1e-8


def test_decay_fit_constant_curve():
    t = np.linspace(0.0, 10.0, 101)
    m = np.full_like(t, 3.0)
    curve = MomentCurve(nodes=t, m=m, half_width=np.zeros_like(t))
    fit = stability_verdict(curve, 1.0, 1e-2, window_fraction=0.5)
    assert fit.slope == pytest.approx(0.0, abs=1e-12)


def test_decay_fit_homogeneous_benchmark_slope():
    # kernel bound ||X(t)|| <~ t^(-a-1): the second moment decays at least
    # like t^(-2(a+1)) = t^(-3.5); recorded against the closed-form curve
    grid = TimeGrid(T=50.0, N=2000)
    single = closed_form_homogeneous(np.array([[-1.0]]), np.array([1.0]), 0.75, grid)
    curve = plain_curve(single, 2)
    fit = stability_verdict(curve, 1.0, 1e-2, window_fraction=0.5)
    assert fit.slope <= -1.0
    # leading asymptote is t^(-3.5); the next-order t^(-a) correction still
    # steepens the fit on this horizon
    assert -4.2 < fit.slope < -3.3


def test_decay_fit_degenerate_window():
    t = np.linspace(0.0, 1.0, 5)
    curve = MomentCurve(nodes=t, m=np.ones_like(t), half_width=np.zeros_like(t))
    with pytest.raises(ValueError):
        stability_verdict(curve, 1.0, 1e-2, window_fraction=0.2)
    with pytest.raises(ValueError):
        stability_verdict(curve, 1.0, 1e-2, window_fraction=1.2)


def test_stability_verdict_closed_form_benchmark():
    # zero-coefficient stable scalar system
    rho = 0.5
    grid = TimeGrid(T=50.0, N=2000)
    single = closed_form_homogeneous(np.array([[-1.0]]), np.array([rho]), 0.75, grid)
    curve = pth_moment_curve(single, 2)
    verdict = stability_verdict(curve, epsilon=1.0, tail_tol=1e-3)
    assert verdict.stable_p
    assert verdict.asymptotically_stable_p
    assert verdict.slope_ci[1] < 0.0
    # the weighted moment decays from its value at t = 0, (rho / Gamma(a))^2
    assert verdict.sup == pytest.approx((rho / gamma_fn(0.75)) ** 2, rel=1e-12)
    tail = curve.m[grid.nodes >= 5.0]
    assert len(tail) == 1801 and verdict.tail_mean == float(np.mean(tail))
    window = curve.nodes[curve.nodes > 0.0][-1000:]  # the last half of 2000 nodes
    assert verdict.window == (window[0], window[-1])


def test_stability_verdict_growth_fails_asymptotics():
    grid = TimeGrid(T=10.0, N=400)
    single = closed_form_homogeneous(np.array([[1.0]]), np.array([0.1]), 0.75, grid)
    curve = pth_moment_curve(single, 2)
    verdict = stability_verdict(curve, epsilon=1.0, tail_tol=1e-3)
    assert not verdict.asymptotically_stable_p
    assert not verdict.stable_p  # the curve blows past epsilon
    assert verdict.sup == float(curve.m[-1]) > 1.0


def test_stability_verdict_zero_initial_datum():
    z = np.zeros((1, 1))
    system = SystemSpec(A=np.array([[-1.0]]), rho=np.array([0.0]),
                        coeffs=make_linear(z, z, z), order=ORDER)
    grid = TimeGrid(T=10.0, N=256)
    out = simulate_mild(system, grid, brownian_increments(grid, 40, 0))
    curve = pth_moment_curve(out, 2)
    verdict = stability_verdict(curve, epsilon=0.1, tail_tol=1e-12)
    assert verdict.stable_p and verdict.asymptotically_stable_p
    assert verdict.sup == verdict.tail_mean == 0.0


def test_stability_verdict_preconditions():
    t = np.linspace(0, 1, 64)
    curve = MomentCurve(nodes=t, m=np.ones_like(t), half_width=np.zeros_like(t))
    for epsilon, tail_tol in ((0.0, 1e-3), (-1.0, 1e-3), (1.0, 0.0), (1.0, -1e-3)):
        with pytest.raises(ValueError, match="must be positive"):
            stability_verdict(curve, epsilon, tail_tol)
    with pytest.raises(ValueError, match="window_fraction"):
        stability_verdict(curve, 1.0, 1e-3, window_fraction=1.0)
    short = MomentCurve(nodes=t[:5], m=np.ones(5), half_width=np.zeros(5))
    with pytest.raises(ValueError, match="degenerate fit"):
        stability_verdict(short, 1.0, 1e-3)


def test_verdict_implication_enforced_structurally():
    with pytest.raises(ValueError):
        DecayVerdict(slope=-1.0, slope_ci=(-1.1, -0.9), window=(1.0, 2.0),
                     stable_p=False, asymptotically_stable_p=True, sup=2.0, tail_mean=0.5)


def test_curve_length_validation():
    with pytest.raises(ValueError):
        MomentCurve(nodes=np.arange(3.0), m=np.arange(2.0),
                    half_width=np.arange(3.0))
