"""References the benchmark checks the package's outputs against.

Nothing here calls the package under test.  Kernel values come from
``reference.json`` (mpmath, see ``gen_reference.py``); eigenpairs from
mpmath; the certificate constants, the kernel profile post-processing and the
two marching schemes are re-derived from their documented formulas.
"""

import json
import math
import os

import mpmath as mp
import numpy as np
from scipy.special import betainc

import spec

_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")
_Z95 = 1.959963984540054


def load_tables():
    with open(_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def _grid_kernels(grid):
    """Scalar kernels of one grid: {lam: E_{a,a}(t^a lam)} plus the Jordan
    derivative column."""
    kern = {float(k): np.asarray(v) for k, v in grid["real"].items()}
    cplx = np.asarray(grid["complex"])
    kern[spec.COMPLEX_EIG] = cplx[:, 0] + 1j * cplx[:, 1]
    kern[spec.COMPLEX_EIG.conjugate()] = cplx[:, 0] - 1j * cplx[:, 1]
    return kern, np.asarray(grid["jordan_deriv"])


def _lookup(kern, lam):
    for key, col in kern.items():
        if abs(complex(key) - lam) <= 1e-12 * max(1.0, abs(lam)):
            return col
    raise KeyError(f"no reference kernel for eigenvalue {lam}")


def kernel_norms(tables, mat, alpha, profile):
    """||E_{a,a}(t^a A)||_inf on the certify grid of ``alpha`` or, with
    ``profile``, on the kernel-profile grid."""
    if profile:
        grid, times = tables["profile"], spec.profile_times()
    else:
        grid, times = tables["cert"][repr(alpha)], spec.cert_times()
    kern, jordan_deriv = _grid_kernels(grid)
    mat = np.atleast_2d(np.asarray(mat, dtype=float))
    if np.array_equal(mat, np.asarray(spec.JORDAN)):
        # E(t^a J) = [[e, t^a e'], [0, e]] for J = -I + N
        e = _lookup(kern, -1.0)
        return np.abs(e) + times**alpha * np.abs(jordan_deriv)
    with mp.workdps(40):
        w, v = mp.eig(mp.matrix(mat.tolist()))
        vinv = mp.inverse(v)
    n = mat.shape[0]
    vn = np.array([[complex(v[i, j]) for j in range(n)] for i in range(n)])
    vinvn = np.array([[complex(vinv[i, j]) for j in range(n)] for i in range(n)])
    cols = np.stack([_lookup(kern, complex(lam)) for lam in w], axis=1)  # (nodes, n)
    e = np.einsum("ik,tk,kj->tij", vn, cols, vinvn).real
    return np.max(np.sum(np.abs(e), axis=2), axis=1)


class Diverges(Exception):
    """The documented profile construction finds no plateau or no stable
    convolution supremum."""


def profile(psi, alpha):
    """Kernel-bound profile from ||E_{a,a}(t^a A)|| on the profile grid,
    following the construction documented in ``fracstab.spectral``."""
    times = spec.profile_times()
    phi = times ** (2.0 * alpha) * psi
    increasing = np.diff(phi) > phi[:-1] * 1e-10
    if increasing[-1] or increasing.all():
        raise Diverges("t^(2a) kernel norm still grows at the grid end")
    i0 = int(np.nonzero(increasing)[0][-1]) + 1 if increasing.any() else 0
    b_aa = math.gamma(alpha) ** 2 / math.gamma(2.0 * alpha)
    conv = np.zeros(len(times))
    for n in range(1, len(times)):
        t = times[n]
        cell = np.diff(betainc(alpha, alpha, times[: n + 1] / t)) * b_aa * t ** (2.0 * alpha - 1.0)
        smooth = psi[n::-1]
        conv[n] = t ** (1.0 - alpha) * float(cell @ (0.5 * (smooth[:-1] + smooth[1:])))
    running = np.maximum.accumulate(conv)
    i_decade = int(np.searchsorted(times, times[-1] / 10.0))
    if (running[-1] - running[i_decade]) / running[-1] > 0.10:
        raise Diverges("convolution supremum still grows over the last decade")
    return {
        "kernel_sup": float(np.max(psi)),
        "tail_coefficient": float(np.max(phi[i0:])),
        "conv_sup": float(running[-1]),
    }


def certificate(m, a_norm, alpha, T, L, epsilon, p=2):
    """Closed-form constants of ``fracstab.criteria`` for L_g = L_b = L_s = L."""
    q = (p * alpha - 1.0) / (p - 1.0)
    r = 1.0 / q
    cp = (p * (p - 1) / 2.0) ** (p / 2.0)

    def beta(x, y):
        return math.exp(math.lgamma(x) + math.lgamma(y) - math.lgamma(x + y))

    lp, mp_ = L**p, m**p
    theta = 4.0 ** (p - 1) * (
        lp * a_norm**p * mp_ * beta(q, q) ** (p - 1) * T ** (p * alpha - 1.0)
        + lp * mp_ * beta(q, q) ** (p - 1) * T ** (p * alpha - 1.0)
        + cp * lp * mp_ * T ** (p * (alpha - 1.0) + p / 2.0)
        * beta(2 * alpha - 1.0, 2 * alpha - 1.0) ** (p / 2.0)
    )
    gate = 4.0 ** (p - 1) * lp
    k = 6.0 ** (p - 1) * (
        lp + lp * a_norm**p * mp_ * r ** (p - 1) * T ** (p * alpha - 1.0)
        + lp * mp_ * r ** (p - 1) * T ** (p * alpha - 1.0)
        + cp * lp * mp_ * (T ** (2 * alpha - 1.0) / (2 * alpha - 1.0)) ** (p / 2.0)
    )
    delta = None
    if k < 1.0:
        denom = 6.0 ** (p - 1) * mp_ * T ** (p * (alpha - 1.0))
        delta = 0.99 * min(epsilon, (1.0 - k) * epsilon / denom)
    caputo = 4.0 * (lp * a_norm**2 + 2.0 * lp) * m**2 * T ** (2 * alpha - 1.0) / (2 * alpha - 1.0)
    return {"theta": theta, "contraction": theta / (1.0 - gate), "k_stab": k,
            "delta": delta, "caputo": caputo}


def increments(master_seed, n_paths, n_steps, dt):
    """Brownian increments keyed by (master_seed, path), as documented for
    ``fracstab.brownian_increments``."""
    out = np.empty((n_paths, n_steps))
    for i in range(n_paths):
        seq = np.random.SeedSequence(master_seed, spawn_key=(i,))
        out[i] = np.random.Generator(np.random.Philox(seq)).standard_normal(n_steps)
    return out * math.sqrt(dt)


def _cell_weights(alpha, n_steps, dt):
    m = np.arange(n_steps + 1, dtype=float)
    d = dt**alpha * np.diff(m**alpha) / alpha
    kappa = dt ** (alpha - 1.0) * np.sqrt(np.diff(m ** (2.0 * alpha - 1.0)) / (2.0 * alpha - 1.0))
    return d, kappa


def scalar_mild(tables, master_seed):
    """Mild scheme of the scalar_long system, time-major (N+1, P) states and
    weighted states.  The coefficients are linear, so the neutral equation is
    solved exactly and the three histories fold into two, each entering a
    step through one BLAS matrix-vector product."""
    cfg = spec.SCALAR
    alpha, a, rho, c = cfg["alpha"], cfg["A"], cfg["rho"], cfg["coef"]
    n_steps, n_paths = cfg["N"], cfg["n_paths"]
    dt = cfg["T"] / n_steps
    times = spec.scalar_times()
    e = np.asarray(tables["scalar_long"])
    d, kappa = _cell_weights(alpha, n_steps, dt)
    # by lag, reversed and contiguous: rev[n_steps - m] is the weight of lag m
    rev_x = (d * e[1:] * (c - a * c))[::-1].copy()   # drift cx plus memory -A g = -a c x
    rev_s = (kappa * e[1:] * c)[::-1].copy()
    dw = increments(master_seed, n_paths, n_steps, dt).T
    x = np.zeros((n_steps + 1, n_paths))
    xdw = np.zeros((n_steps + 1, n_paths))   # sigma(x) dW; X_0 := 0 adds nothing
    for n in range(1, n_steps + 1):
        lo = n_steps - n + 1
        # a (1, n) left operand takes the BLAS matrix-product path
        rhs = (times[n] ** (alpha - 1.0) * e[n] * rho
               + (rev_x[None, lo:] @ x[1:n] + rev_s[None, lo:] @ xdw[1:n])[0])
        x[n] = rhs / (1.0 + c)
        if n < n_steps:
            xdw[n] = x[n] * dw[n]
    weighted = np.empty_like(x)
    weighted[0] = rho / math.gamma(alpha)
    weighted[1:] = times[1:, None] ** (1.0 - alpha) * x[1:]
    return x, weighted


def moment_curve(block):
    """Mean of the squares over paths (axis 1) with its 95% half-width."""
    sq = block**2
    n_paths = block.shape[1]
    return sq.mean(axis=1), _Z95 * sq.std(axis=1, ddof=1) / math.sqrt(n_paths)


def decay_slope(t, m, window_fraction):
    pos = t > 0
    t, m = t[pos], np.maximum(m[pos], 1e-300)
    n = int(math.ceil(window_fraction * len(t)))
    return float(np.polyfit(np.log(t[-n:]), np.log(m[-n:]), 1)[0])


def vector_integral_form(system_a, rho, alpha, c_g, c_b, c_s, T, dw):
    """Integral-form scheme of the vector_neutral system for all paths of
    ``dw`` (P, N); returns weighted states (P, N+1, dim).  The neutral
    equation x + c_g sin x = rhs is solved by Newton to machine precision."""
    n_paths, n_steps = dw.shape
    dim = system_a.shape[0]
    dt = T / n_steps
    times = np.arange(n_steps + 1) * dt
    d, kappa = _cell_weights(alpha, n_steps, dt)
    inv_g = 1.0 / math.gamma(alpha)
    b_aa = math.gamma(alpha) ** 2 / math.gamma(2.0 * alpha)
    a_rho = system_a @ (rho * inv_g)
    drift = np.zeros((n_steps + 1, n_paths, dim))    # A x + b(x), node 0 := 0
    noise = np.zeros((n_steps + 1, n_paths, dim))    # sigma(x) dW
    x_all = np.zeros((n_steps + 1, n_paths, dim))
    for n in range(1, n_steps + 1):
        t = times[n]
        cell0 = b_aa * betainc(alpha, alpha, dt / t) * t ** (2.0 * alpha - 1.0)
        rhs = t ** (alpha - 1.0) * inv_g * rho + inv_g * cell0 * a_rho
        rhs = rhs + inv_g * (np.tensordot(d[n - 1::-1], drift[:n], axes=1)
                             + np.tensordot(kappa[n - 1::-1], noise[:n], axes=1))
        x = rhs.copy()
        for _ in range(50):
            step = (x + c_g * np.sin(x) - rhs) / (1.0 + c_g * np.cos(x))
            x = x - step
            if np.max(np.abs(step)) <= 1e-16 * max(1.0, float(np.max(np.abs(x)))):
                break
        x_all[n] = x
        drift[n] = x @ system_a.T + c_b * np.sin(x)
        if n < n_steps:
            noise[n] = c_s * np.sin(x) * dw[:, n, None]
    weighted = np.empty((n_paths, n_steps + 1, dim))
    weighted[:, 0] = rho * inv_g
    weighted[:, 1:] = np.transpose(times[1:, None, None] ** (1.0 - alpha) * x_all[1:], (1, 0, 2))
    return weighted
