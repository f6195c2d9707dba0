"""Coefficient families and their empirical verifiers."""

import numpy as np
import pytest

from fracstab import (
    make_additive_noise,
    make_bounded_smooth,
    make_linear,
    verify_lipschitz,
    verify_vanishing,
)


def test_linear_family_constants():
    z = np.zeros((2, 2))
    zero = make_linear(z, z, z)
    assert zero.family_tag == "zero"
    assert zero.L_g == zero.L_b == zero.L_sigma == 0.0

    cs = make_linear(0.05 * np.eye(2), z, z)
    assert cs.family_tag == "linear"
    assert cs.L_g == pytest.approx(0.05)

    s = np.array([[0.0, 0.1], [0.0, 0.0]])
    cs = make_linear(z, z, s)
    assert cs.L_sigma == pytest.approx(0.1)


def test_linear_family_is_linear():
    g_mat = np.array([[0.2, -0.1], [0.3, 0.4]])
    cs = make_linear(g_mat, np.zeros((2, 2)), np.zeros((2, 2)))
    rng = np.random.default_rng(0)
    x, y = rng.normal(size=2), rng.normal(size=2)
    np.testing.assert_allclose(cs.g(0.3, x + y), cs.g(0.3, x) + cs.g(0.3, y), rtol=1e-14)
    np.testing.assert_allclose(cs.g(0.0, x), g_mat @ x, rtol=1e-15)


def test_linear_family_is_batch_invariant():
    # a path's coefficient value must not depend on the batch it is evaluated in
    rng = np.random.default_rng(1)
    g_mat = rng.normal(size=(3, 3))
    cs = make_linear(g_mat, g_mat, g_mat)
    x = rng.normal(size=(50, 3))
    whole = cs.g(0.0, x)
    rows = np.concatenate([cs.g(0.0, x[i:i + 1]) for i in range(50)])
    np.testing.assert_array_equal(whole, rows)
    np.testing.assert_allclose(whole, x @ g_mat.T, rtol=0.0, atol=1e-14)


def test_linear_shape_mismatch():
    with pytest.raises(ValueError):
        make_linear(np.eye(2), np.eye(3), np.eye(2))


def test_bounded_smooth_family():
    cs = make_bounded_smooth(0.0, 0.3, -0.2)
    x = np.array([0.5, -1.0])
    assert not cs.g(0.0, x).any()
    np.testing.assert_allclose(cs.b(1.0, x), 0.3 * np.sin(x), rtol=1e-15)
    assert cs.L_b == pytest.approx(0.3)
    assert cs.L_sigma == pytest.approx(0.2)
    # vanishing at the origin, exactly
    assert not cs.b(0.7, np.zeros(2)).any()
    # componentwise 1-Lipschitz scaling
    y = np.array([0.1, 0.2])
    assert np.all(np.abs(cs.b(0.0, x) - cs.b(0.0, y)) <= 0.3 * np.abs(x - y) + 1e-15)
    with pytest.raises(ValueError):
        make_bounded_smooth(np.inf, 0.0, 0.0)


def test_builtin_families_pass_verifiers():
    families = [
        make_linear(0.05 * np.eye(2), 0.1 * np.eye(2), np.array([[0.0, 0.1], [0.0, 0.0]])),
        make_bounded_smooth(0.2, 0.1, 0.05),
    ]
    for cs in families:
        for fn, L in ((cs.g, cs.L_g), (cs.b, cs.L_b), (cs.sigma, cs.L_sigma)):
            report = verify_lipschitz(fn, L, n=2, n_trials=400, seed=7)
            assert report.passed, (cs.family_tag, L, report.max_ratio)
            assert report.max_ratio <= L * (1 + 1e-9)
            assert verify_vanishing(fn, n=2)
        assert cs.assumptions_verified


def test_lipschitz_failure_reports_witness():
    cs = make_linear(0.4 * np.eye(2), np.zeros((2, 2)), np.zeros((2, 2)))
    report = verify_lipschitz(cs.g, cs.L_g / 2.0, n=2, n_trials=500, seed=1)
    assert not report.passed
    assert report.max_ratio > cs.L_g / 2.0
    t, x, y = report.witness
    assert np.linalg.norm(cs.g(t, x) - cs.g(t, y)) == pytest.approx(
        report.max_ratio * np.linalg.norm(x - y)
    )


def test_verify_lipschitz_needs_enough_trials():
    with pytest.raises(ValueError):
        verify_lipschitz(lambda t, x: x, 1.0, n=1, n_trials=10)


def test_verify_vanishing_on_custom_maps():
    assert not verify_vanishing(lambda t, x: x + 1.0, n=3)
    assert verify_vanishing(lambda t, x: t * x, n=3)


def test_additive_noise_family_flags():
    cs = make_additive_noise(0.3, dim=2)
    assert not cs.assumptions_verified
    assert cs.family_tag == "custom"
    x = np.ones((5, 2))
    np.testing.assert_array_equal(cs.sigma(0.0, x), np.full((5, 2), 0.3))
    assert not cs.g(0.0, x).any()
    assert not verify_vanishing(cs.sigma, n=2)


def test_negative_declared_constant_rejected():
    from fracstab import CoefficientSet

    with pytest.raises(ValueError):
        CoefficientSet(g=lambda t, x: x, b=lambda t, x: x, sigma=lambda t, x: x,
                       L_g=-1.0, L_b=0.0, L_sigma=0.0)
