"""Spectra, sector membership, and long-horizon kernel profiles."""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fracstab import (
    beta_fn,
    eigenvalues,
    gamma_fn,
    kernel_bounds_profile,
    matrix_norm,
    ml_kernel,
    ml_norm_sup,
    ml_scalar,
    sector_check,
)
from fracstab.errors import ProfileDivergenceError
from fracstab.fraccalc import _betainc_aa
from fracstab.spectral import ML_NORM_NODES, PROFILE_NODES, PROFILE_T_MAX, _profile_cells

from oracle_fixtures import RECIP_GAMMA_0_75


def _sorted(ws):
    return np.array(sorted(ws, key=lambda w: (round(w.real, 9), round(w.imag, 9))))


def test_eigenvalues_examples():
    assert eigenvalues(np.array([[-1.0]])).eigenvalues == pytest.approx([-1.0])
    rot = eigenvalues(np.array([[0.0, 1.0], [-1.0, 0.0]]))
    np.testing.assert_allclose(_sorted(rot.eigenvalues), [-1j, 1j], atol=1e-12)
    tri = eigenvalues(np.array([[-2.0, 1.0], [0.0, -3.0]]))
    np.testing.assert_allclose(_sorted(tri.eigenvalues), [-3.0, -2.0], atol=1e-12)


def test_eigenvalue_residual_and_conjugate_pairs():
    rng = np.random.default_rng(3)
    for n in (2, 5, 12, 30):
        a = rng.normal(size=(n, n))
        spec = eigenvalues(a)
        assert spec.residual <= 1e-8 * matrix_norm(a)
        ws = spec.eigenvalues
        complex_ws = ws[np.abs(ws.imag) > 1e-9]
        np.testing.assert_allclose(
            _sorted(complex_ws), _sorted(np.conj(complex_ws)), atol=1e-7
        )


def test_spectrum_similarity_invariance():
    rng = np.random.default_rng(9)
    a = rng.normal(size=(6, 6))
    p = np.eye(6) + 0.2 * rng.normal(size=(6, 6))
    w1 = _sorted(eigenvalues(a).eigenvalues)
    w2 = _sorted(eigenvalues(p @ a @ np.linalg.inv(p)).eigenvalues)
    np.testing.assert_allclose(w1, w2, atol=1e-6)


def test_sector_check_examples():
    spec = eigenvalues(np.array([[-1.0]]))
    v = sector_check(spec, 0.75)
    assert v.in_sector and v.margin == pytest.approx(0.625 * math.pi, rel=1e-12)

    rot = eigenvalues(np.array([[0.0, 1.0], [-1.0, 0.0]]))
    v = sector_check(rot, 0.8)
    assert v.in_sector and v.margin == pytest.approx(0.1 * math.pi, rel=1e-9)

    from fracstab.spectral import Spectrum

    tilted = Spectrum(np.array([np.exp(1j * math.pi / 4)]), 0.0)
    v = sector_check(tilted, 0.6)
    assert not v.in_sector
    assert v.margin == pytest.approx(math.pi / 4 - 0.3 * math.pi, rel=1e-12)
    assert v.offending_eigenvalue is not None


def test_sector_zero_eigenvalue_excluded():
    spec = eigenvalues(np.array([[0.0, 1.0], [0.0, 0.0]]))
    v = sector_check(spec, 0.75)
    assert not v.in_sector
    assert v.offending_eigenvalue == 0


def test_sector_scale_covariance():
    a = np.array([[-2.0, 1.0], [0.5, -3.0]])
    base = sector_check(eigenvalues(a), 0.8)
    for c in (0.1, 3.0, 40.0):
        scaled = sector_check(eigenvalues(c * a), 0.8)
        assert scaled.in_sector == base.in_sector
        assert scaled.margin == pytest.approx(base.margin, abs=1e-9)


def test_sector_margin_decreases_in_alpha():
    spec = eigenvalues(np.diag([-1.0, -4.0]))
    margins = [sector_check(spec, a).margin for a in (0.6, 0.75, 0.9, 1.0)]
    assert all(m2 < m1 for m1, m2 in zip(margins, margins[1:]))


def test_ml_norm_sup_zero_matrix():
    val = ml_norm_sup(np.zeros((2, 2)), 0.75, T=3.0)
    assert val == pytest.approx(1.0 / gamma_fn(0.75), rel=1e-12)


def test_ml_norm_sup_stable_scalar_attained_at_origin():
    val = ml_norm_sup(np.array([[-1.0]]), 0.75, T=1.0)
    # E_{a,a}(-t^a) is maximal at t = 0 for this instance (grid-scan oracle)
    scan = [abs(ml_scalar(0.75, 0.75, -(t**0.75)))
            for t in np.linspace(0, 1, ML_NORM_NODES + 1)]
    assert np.argmax(scan) == 0
    assert val == pytest.approx(RECIP_GAMMA_0_75, rel=1e-12)


def test_ml_norm_sup_unstable_scalar_attained_at_horizon():
    t_grid = np.linspace(0.0, 1.0, ML_NORM_NODES + 1)
    scan = [abs(ml_scalar(0.75, 0.75, t**0.75)) for t in t_grid]
    assert np.argmax(scan) == len(scan) - 1
    val = ml_norm_sup(np.array([[1.0]]), 0.75, T=1.0)
    assert val == pytest.approx(scan[-1], rel=1e-10)


def test_ml_norm_sup_validation():
    with pytest.raises(ValueError):
        ml_norm_sup(np.eye(2), 0.75, T=0.0)


@pytest.mark.parametrize("T", [math.inf, math.nan])
def test_ml_norm_sup_refuses_non_finite_T(T):
    with pytest.raises(ValueError, match="ml_norm_sup requires a finite T"):
        ml_norm_sup(np.eye(2), 0.75, T=T)


# each malformed matrix or order is refused by name
@pytest.mark.parametrize("call,message", [
    pytest.param(lambda: eigenvalues(np.ones((2, 3))),
                 "eigenvalues requires a square matrix, got (2, 3)", id="non-square"),
    pytest.param(lambda: eigenvalues(np.array([[-1.0, math.inf], [0.0, -1.0]])),
                 "eigenvalues requires finite entries", id="non-finite"),
    pytest.param(lambda: sector_check(eigenvalues(-np.eye(2)), 0.5),
                 "sector_check requires alpha in (1/2, 1], got 0.5", id="alpha=0.5"),
    pytest.param(lambda: sector_check(eigenvalues(-np.eye(2)), 1.5),
                 "sector_check requires alpha in (1/2, 1], got 1.5", id="alpha=1.5"),
])
def test_malformed_spectral_inputs_are_refused(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()


def test_kernel_bounds_profile_stable_scalar():
    report = kernel_bounds_profile(np.array([[-1.0]]), 0.75)
    assert report.kernel_sup == pytest.approx(RECIP_GAMMA_0_75, rel=1e-9)
    assert 0.0 < report.t0 < PROFILE_T_MAX
    assert np.isfinite(report.tail_coefficient) and report.tail_coefficient > 0
    assert np.isfinite(report.conv_sup) and report.conv_sup > 0
    assert report.conv_running.shape == (PROFILE_NODES + 1,)
    # the algebraic tail t^(2a)||E|| approaches 1/|Gamma(-a)| from above
    assert report.tail_coefficient >= 1.0 / abs(gamma_fn(-0.75))


def test_kernel_bounds_profile_diagonal_matrix():
    report = kernel_bounds_profile(np.diag([-1.0, -2.0]), 0.8)
    for value in (report.kernel_sup, report.t0, report.tail_coefficient, report.conv_sup):
        assert np.isfinite(value) and value >= 0.0


def test_kernel_bounds_profile_out_of_sector_reports_divergence():
    with pytest.raises(ProfileDivergenceError):
        kernel_bounds_profile(np.array([[1.0]]), 0.75)


def reference_profile(a_mat, alpha):
    """(kernel_sup, t0, tail_coefficient, conv_sup, conv_running) of
    kernel_bounds_profile, each node's cells taken by its own incomplete
    beta call; None where the profile refuses (no plateau, or the running
    supremum grows more than 10% over the last decade).  The incomplete beta
    is the package's own I_x(a, a), whose accuracy test_fraccalc checks
    against scipy and mpmath, so this checks the cached table's rows, their
    mirror and their batching bit for bit."""
    t_max, n_nodes = PROFILE_T_MAX, PROFILE_NODES
    times = np.arange(n_nodes + 1) * (t_max / n_nodes)
    psi = matrix_norm(ml_kernel(alpha, alpha, a_mat, times))
    phi = times ** (2.0 * alpha) * psi
    increasing = np.diff(phi) > phi[:-1] * 1e-10
    if increasing[-1] or not np.any(~increasing):
        return None
    i0 = int(np.nonzero(increasing)[0][-1]) + 1
    b_aa = beta_fn(alpha, alpha)
    conv = np.zeros(n_nodes + 1)
    for n in range(1, n_nodes + 1):
        t = times[n]
        half = (n + 1) // 2
        low = np.diff(_betainc_aa(alpha, times[: half + 1] / t))
        cell = np.concatenate((low, low[: n - half][::-1])) * b_aa * t ** (2.0 * alpha - 1.0)
        smooth = psi[n::-1]
        q = float(cell @ (0.5 * (smooth[:-1] + smooth[1:])))
        conv[n] = t ** (1.0 - alpha) * q
    running = np.maximum.accumulate(conv)
    i_decade = int(np.searchsorted(times, t_max / 10.0))
    if (running[-1] - running[i_decade]) / max(running[-1], 1e-300) > 0.10:
        return None
    return (float(np.max(psi)), float(times[i0]), float(np.max(phi[i0:])), float(running[-1]),
            running)


def report_fields(report):
    return (report.kernel_sup, report.t0, report.tail_coefficient, report.conv_sup,
            report.conv_running)


@st.composite
def in_sector_matrices(draw):
    """Diagonal or upper-triangular matrices with a spectrum in [-4, -0.5]."""
    n = draw(st.integers(1, 3))
    mat = np.diag(draw(st.lists(st.floats(-4.0, -0.5), min_size=n, max_size=n)))
    if draw(st.booleans()):
        upper = np.triu_indices(n, 1)
        mat[upper] = draw(st.lists(st.floats(-1.0, 1.0), min_size=len(upper[0]),
                                   max_size=len(upper[0])))
    return mat


# alpha stops at 0.99: nearer 1 the kernel falls like e^(-|lambda| t) and
# its far values are below the evaluator's roundoff, which warns
@settings(max_examples=60, deadline=None)
@given(mat=in_sector_matrices(), alpha=st.floats(0.5, 0.99, exclude_min=True))
def test_kernel_bounds_profile_matches_per_node_reference(mat, alpha):
    # the kept cell table gives the per-node loop's values bit for bit
    want = reference_profile(mat, alpha)
    if want is None:
        with pytest.raises(ProfileDivergenceError):
            kernel_bounds_profile(mat, alpha)
        return
    got = report_fields(kernel_bounds_profile(mat, alpha))
    for g, w in zip(got, want):
        assert np.array_equal(g, w)


def test_kernel_bounds_profile_warm_call_equals_cold_call():
    mats = (np.array([[-1.0]]), np.array([[-1.0, 0.5], [0.0, -2.0]]))
    warm = [kernel_bounds_profile(m, 0.75) for m in mats]
    assert _profile_cells.cache_info().currsize == 1
    for mat, report in zip(mats, warm):
        _profile_cells.cache_clear()
        cold = kernel_bounds_profile(mat, 0.75)
        assert cold.conv_tail_change == report.conv_tail_change
        for c, w in zip(report_fields(cold), report_fields(report)):
            assert np.array_equal(c, w)


def test_profile_cells_are_read_only():
    rows = _profile_cells(0.75)
    assert len(rows) == PROFILE_NODES
    assert not any(row.flags.writeable for row in rows)
    with pytest.raises(ValueError):
        rows[0][0] = 0.0
