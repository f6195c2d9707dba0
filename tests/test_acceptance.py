"""Acceptance suite: ten criteria, one pass/fail line each.

Run with ``pytest -v -s tests/test_acceptance.py`` to see the lines and per
criterion timings as they complete.  Tolerances are fixed here, not tuned:
each test states its bound next to the assertion.
"""

import hashlib
import json
import math
import time

import numpy as np

from fracstab import (
    BrownianEnsemble,
    CriterionInputs,
    FractionalOrder,
    SystemSpec,
    TimeGrid,
    brownian_increments,
    caputo_ms_criterion,
    certify,
    closed_form_homogeneous,
    contraction_constant,
    decay_fit,
    delta_for_epsilon,
    gamma_fn,
    kernel_bounds_profile,
    make_additive_noise,
    make_linear,
    ml_matrix,
    ml_scalar,
    picard_path_solve,
    pth_moment_curve,
    rl_derivative_grid,
    rl_integral_grid,
    simulate_integral_form,
    simulate_mild,
    stability_verdict,
    theta,
)
from fracstab.cli import main

ORDER = FractionalOrder(0.75, 2)


def report(n, ok, detail, t0):
    line = f"ACCEPTANCE {n:02d} {'PASS' if ok else 'FAIL'} ({time.perf_counter() - t0:.1f}s): {detail}"
    print(line, flush=True)
    assert ok, line


def stable_benchmark(L=0.05, rho=1.0):
    coeffs = make_linear([[L]], [[L]], [[L]])
    return SystemSpec(A=np.array([[-1.0]]), rho=np.array([rho]), coeffs=coeffs, order=ORDER)


def test_acceptance_01_special_functions():
    t0 = time.perf_counter()
    worst_exp = 0.0
    for z in np.linspace(-20.0, 20.0, 41):
        rel = abs(ml_scalar(1.0, 1.0, float(z)) - math.exp(z)) / abs(math.exp(z))
        worst_exp = max(worst_exp, rel)

    worst_rec = 0.0
    for alpha in (0.6, 0.75, 0.9):
        for beta in (0.75, 1.0):
            for z in np.linspace(-10.0, 10.0, 41):
                left = ml_scalar(alpha, beta, float(z))
                right = 1.0 / gamma_fn(beta) + z * ml_scalar(alpha, alpha + beta, float(z))
                worst_rec = max(worst_rec, abs(left - right) / (1.0 + abs(left)))

    rot = ml_matrix(1.0, 1.0, np.array([[0.0, 1.0], [-1.0, 0.0]]))
    expect = np.array([[math.cos(1.0), math.sin(1.0)], [-math.sin(1.0), math.cos(1.0)]])
    worst_rot = float(np.max(np.abs(rot - expect)))

    ok = worst_exp <= 1e-10 and worst_rec <= 1e-9 and worst_rot <= 1e-9
    report(1, ok, f"exp rel {worst_exp:.2e} (<=1e-10), recurrence {worst_rec:.2e} "
                  f"(<=1e-9), rotation {worst_rot:.2e} (<=1e-9)", t0)


def test_acceptance_02_fractional_operators():
    t0 = time.perf_counter()
    details = []
    ok = True
    for alpha in (0.6, 0.75, 0.9):
        errs = []
        for n_steps in (256, 512):
            dt = 1.0 / n_steps
            t = np.arange(n_steps + 1) * dt
            f = 1.0 + t + t**2
            back = rl_derivative_grid(rl_integral_grid(f, alpha, dt), alpha, dt)
            sel = t >= 0.25  # composition identity holds away from t = 0
            errs.append(float(np.max(np.abs(back[sel] - f[sel]))))
        ratio = errs[1] / errs[0]
        ok = ok and 0.4 <= ratio <= 0.6  # halves within +-20%
        details.append(f"a={alpha}: {ratio:.3f}")
    report(2, ok, "error ratio per halving " + ", ".join(details) + " (in [0.4,0.6])", t0)


def test_acceptance_03_closed_form_convergence():
    t0 = time.perf_counter()
    system = SystemSpec(A=np.array([[-1.0]]), rho=np.array([1.0]),
                        coeffs=make_linear([[0.0]], [[0.0]], [[0.0]]), order=ORDER)
    grid = TimeGrid(T=1.0, N=2048)
    ens = brownian_increments(grid, 4, 1)
    mild = simulate_mild(system, grid, ens)
    reference = closed_form_homogeneous(system.A, system.rho, ORDER.alpha, grid)
    err = float(np.nanmax(np.abs(mild.weighted - reference.weighted[0])))
    bound = 1e-3 / gamma_fn(0.75)
    report(3, err <= bound, f"weighted sup error {err:.2e} <= {bound:.2e}", t0)


def test_acceptance_04_ito_isometry_variance():
    t0 = time.perf_counter()
    s, n_paths = 0.3, 10_000
    system = SystemSpec(A=np.zeros((1, 1)), rho=np.zeros(1),
                        coeffs=make_additive_noise(s), order=ORDER)
    grid = TimeGrid(T=1.0, N=512)
    out = simulate_mild(system, grid, brownian_increments(grid, n_paths, 20240601))
    emp = float(out.values[:, -1, 0].var(ddof=1))
    true = s**2 * grid.T**0.5 / (0.5 * gamma_fn(0.75) ** 2)
    se = true * math.sqrt(2.0 / (n_paths - 1))
    dev = abs(emp - true) / se
    report(4, dev <= 3.0, f"Var[X(T)] = {emp:.6f} vs {true:.6f}, {dev:.2f} SE (<=3)", t0)


def test_acceptance_05_scheme_coincidence():
    t0 = time.perf_counter()
    n_paths = 1000
    fine_grid = TimeGrid(T=1.0, N=2048)
    fine = brownian_increments(fine_grid, n_paths, 777)
    system = stable_benchmark()
    rel = {}
    for n_steps in (1024, 2048):
        factor = fine_grid.N // n_steps
        grid = TimeGrid(T=1.0, N=n_steps)
        ens = BrownianEnsemble(
            increments=fine.increments.reshape(n_paths, n_steps, factor).sum(axis=2),
            master_seed=777, n_paths=n_paths)
        mild = simulate_mild(system, grid, ens)
        integral = simulate_integral_form(system, grid, ens)
        sel = grid.nodes[1:] >= grid.T / 4
        diff = mild.weighted[:, 1:][:, sel] - integral.weighted[:, 1:][:, sel]
        signal = math.sqrt(float(np.mean(mild.weighted[:, 1:][:, sel] ** 2)))
        rel[n_steps] = math.sqrt(float(np.mean(diff**2))) / signal
    ok = rel[1024] <= 0.05 and rel[2048] < rel[1024]
    report(5, ok, f"weighted RMS discrepancy {rel[1024]:.4%} at N=1024 (<=5%), "
                  f"{rel[2048]:.4%} at N=2048 (smaller)", t0)


def test_acceptance_06_certificate_numbers():
    t0 = time.perf_counter()
    inputs = CriterionInputs(order=ORDER, T=1.0, L_g=0.05, L_b=0.05, L_sigma=0.05,
                             A_norm=1.0, M=1.0)

    # independently coded oracle, math module only
    def ob(a, b):
        return math.gamma(a) * math.gamma(b) / math.gamma(a + b)

    p, alpha, T, L, an, m = 2, 0.75, 1.0, 0.05, 1.0, 1.0
    q = (p * alpha - 1) / (p - 1)
    o_theta = 4.0 ** (p - 1) * (
        L**p * an**p * m**p * ob(q, q) ** (p - 1) * T ** (p * alpha - 1)
        + L**p * m**p * ob(q, q) ** (p - 1) * T ** (p * alpha - 1)
        + 1.0 * L**p * m**p * T ** (p * (alpha - 1) + p / 2) * ob(2 * alpha - 1, 2 * alpha - 1) ** (p / 2)
    )
    o_contraction = o_theta / (1.0 - 4.0 ** (p - 1) * L**p)
    r = (p - 1) / (p * alpha - 1)
    o_k = 6.0 ** (p - 1) * (L**p + L**p * an**p * m**p * r ** (p - 1) * T ** (p * alpha - 1)
                            + L**p * m**p * r ** (p - 1) * T ** (p * alpha - 1)
                            + L**p * m**p * (T ** (2 * alpha - 1) / (2 * alpha - 1)) ** (p / 2))
    o_delta = 0.99 * min(1.0, (1.0 - o_k) / (6.0 ** (p - 1) * m**p * T ** (p * (alpha - 1))))
    o_caputo = 4.0 * (L**2 * an**2 + L**2 + L**2) * m**2 * T ** (2 * alpha - 1) / (2 * alpha - 1)

    got = (theta(inputs), contraction_constant(inputs),
           caputo_ms_criterion(inputs), delta_for_epsilon(inputs, 1.0))
    want = (o_theta, o_contraction, o_caputo, o_delta)
    rels = [abs(g - w) / abs(w) for g, w in zip(got, want)]
    ok = all(r_ <= 5e-7 for r_ in rels)  # 6 significant digits
    # and the oracle itself reproduces the worked constants
    ok = ok and abs(o_theta - 0.0942478) <= 5e-8
    ok = ok and abs(o_caputo - 0.06) <= 1e-12
    ok = ok and abs(o_delta - 0.14768) <= 6e-6  # 0.147675 printed as 0.14768
    ok = ok and abs(o_contraction - 0.0952) <= 5e-5
    report(6, ok, f"theta={got[0]:.7f}, contraction={got[1]:.6f}, caputo={got[2]:.6f}, "
                  f"delta={got[3]:.6f}; max oracle rel dev {max(rels):.1e} (<=5e-7)", t0)


def test_acceptance_07_stability_end_to_end():
    t0 = time.perf_counter()
    T, n_steps, n_paths, eps = 50.0, 4096, 1000, 1.0
    coeffs = make_linear([[0.05]], [[0.05]], [[0.05]])
    cert = certify(np.array([[-1.0]]), coeffs, ORDER, T)
    delta = delta_for_epsilon(cert.inputs, eps)
    system = SystemSpec(A=np.array([[-1.0]]), rho=np.array([delta]), coeffs=coeffs,
                        order=ORDER)
    grid = TimeGrid(T=T, N=n_steps)
    ens = brownian_increments(grid, n_paths, 4242)
    out = simulate_mild(system, grid, ens)

    curve_w = pth_moment_curve(out, 2, weighted=True, rho_norm=delta)
    curve_u = pth_moment_curve(out, 2, weighted=False, rho_norm=delta)
    sup_w = float(np.max(curve_w.m))
    fit = decay_fit(curve_w, 0.5)
    half_idx = np.argmin(np.abs(curve_u.nodes - T / 2))
    decreasing = curve_u.m[-1] < curve_u.m[half_idx]
    verdict = stability_verdict([curve_w], eps, delta / 0.99, tail_tol=1e-2)

    sys_unstable = SystemSpec(A=np.array([[1.0]]), rho=np.array([delta]), coeffs=coeffs,
                              order=ORDER)
    out_u = simulate_mild(sys_unstable, grid, ens)
    curve_bad = pth_moment_curve(out_u, 2, weighted=True, rho_norm=delta)
    verdict_bad = stability_verdict([curve_bad], eps, delta / 0.99, tail_tol=1e-2)

    ok = (sup_w < eps and fit.slope_ci[1] < 0.0 and decreasing
          and verdict.stable_p and verdict.asymptotically_stable_p
          and not verdict_bad.asymptotically_stable_p)
    report(7, ok, f"delta={delta:.4f}, weighted sup {sup_w:.4f} < {eps}, slope CI "
                  f"({fit.slope_ci[0]:.2f},{fit.slope_ci[1]:.2f}) < 0, "
                  f"E|X(T)|^2 < E|X(T/2)|^2: {decreasing}, drift +1 asymptotic verdict: "
                  f"{verdict_bad.asymptotically_stable_p}", t0)


def test_acceptance_08_kernel_profile():
    t0 = time.perf_counter()
    alpha, t_max, n_nodes = 0.75, 100.0, 1000
    rep = kernel_bounds_profile(np.array([[-1.0]]), alpha, t_max=t_max, n_nodes=n_nodes)
    times = np.arange(n_nodes + 1) * (t_max / n_nodes)
    i50 = int(np.searchsorted(times, 50.0))
    change = float((rep.conv_running[-1] - rep.conv_running[i50]) / rep.conv_running[-1])

    # independent 10x-density midpoint oracle (coded apart from the package
    # quadrature: evaluates the full singular integrand at cell midpoints)
    k_fine = 10 * n_nodes
    h = t_max / k_fine
    mid = (np.arange(k_fine) + 0.5) * h
    psi_mid = np.array([abs(ml_scalar(alpha, alpha, -(u**alpha))) for u in mid])
    kernel_mid = mid ** (alpha - 1.0) * psi_mid
    tau_pow = mid ** (alpha - 1.0)
    oracle_sup = 0.0
    for n in range(1, k_fine + 1):
        q = h * float(np.dot(kernel_mid[:n][::-1], tau_pow[:n]))
        oracle_sup = max(oracle_sup, (n * h) ** (1 - alpha) * q)
    rel = abs(oracle_sup - rep.conv_sup) / oracle_sup

    ok = (np.isfinite(rep.tail_coefficient) and rep.tail_coefficient > 0
          and change < 0.01 and rel <= 0.02)
    report(8, ok, f"tail_coefficient={rep.tail_coefficient:.4f} (finite), running-sup change over "
                  f"[50,100] {change:.3%} (<1%), 10x oracle dev {rel:.3%} (<=2%)", t0)


def test_acceptance_09_picard_vs_marching():
    t0 = time.perf_counter()
    system = stable_benchmark()
    grid = TimeGrid(T=1.0, N=512)
    ens = brownian_increments(grid, 3, 31)
    mild = simulate_mild(system, grid, ens)
    tol = 1e-10
    worst_gap, worst_ratio = 0.0, 0.0
    for i in range(3):
        res = picard_path_solve(system, grid, ens.increments[i], tol=tol)
        worst_gap = max(worst_gap, float(np.max(np.abs(res.weighted[1:] - mild.weighted[i, 1:]))))
        worst_ratio = max(worst_ratio, res.contraction_ratio)
    ok = worst_gap <= 10.0 * tol and worst_ratio < 1.0
    report(9, ok, f"per-path weighted gap {worst_gap:.2e} (<= {10 * tol:.0e}), "
                  f"contraction ratio {worst_ratio:.3f} (<1)", t0)


def test_acceptance_10_cli_determinism(tmp_path):
    t0 = time.perf_counter()
    doc = {
        "system": {"matrix": [[-1.0]], "rho": [0.5], "alpha": 0.75, "p": 2,
                   "coefficients": {"family": "linear", "G": [[0.05]],
                                    "B": [[0.05]], "S": [[0.05]]}},
        "grid": {"T": 1.0, "N": 256},
        "monte_carlo": {"n_paths": 100, "master_seed": 99, "scheme": "mild"},
        "criteria": {"epsilon": 1.0, "window_fraction": 0.5, "tail_tol": 0.01},
        "output": {"directory": ".", "emit_paths": True},
    }
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(doc))
    names = ["moments.csv", "moments_weighted.csv", "paths.csv", "verdict.txt", "meta.txt"]

    def run(out):
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
        return {n: hashlib.sha256((out / n).read_bytes()).hexdigest() for n in names}

    d1 = run(tmp_path / "r1")
    d2 = run(tmp_path / "r2")
    ok = d1 == d2
    report(10, ok, f"byte-identical digests across reruns ({len(names)} files)", t0)
