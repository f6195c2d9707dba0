"""Exact second moment of the discrete mild scheme of the linear family with
G = B = 0, the tests' oracle for the stochastic convolution of the schemes."""

import numpy as np

from fracstab import TimeGrid, ml_kernel


def mild_second_moment(a_mat, s_mat, rho, alpha, grid: TimeGrid):
    """E|t_n^(1-a) X_n|^2 at the nodes n = 1..N of the discrete mild scheme
    with g = b = 0 and sigma(t, x) = S x.

    With K_m = kappa_m E_{a,a}((m dt)^a A) S and the free term
    free_n = t_n^(a-1) E_{a,a}(t_n^a A) rho, the scheme is
    X_n = free_n + sum_{1 <= j < n} K_{n-j} X_j dW_j (X_0 := 0 drops j = 0).
    X_j does not depend on dW_j, so P_n = E[X_n X_n^T] obeys exactly

        P_n = free_n free_n^T + dt sum_{1 <= j < n} K_{n-j} P_j K_{n-j}^T,

    and E|t_n^(1-a) X_n|^2 = t_n^(2(1-a)) tr P_n.  kappa_m is the
    variance-matched weight: kappa_m^2 dt is the integral of
    (t_n - s)^(2(a-1)) over the cell of lag m, taken here in closed form.
    """
    a_mat, s_mat = np.atleast_2d(a_mat), np.atleast_2d(s_mat)
    rho = np.atleast_1d(rho)
    dt, n_steps, dim = grid.dt, grid.N, len(rho)
    t = grid.nodes[1:]
    E = ml_kernel(alpha, alpha, a_mat, t)
    edges = np.arange(n_steps + 1) * dt
    kappa = np.sqrt(np.diff(edges ** (2.0 * alpha - 1.0)) / ((2.0 * alpha - 1.0) * dt))
    K = kappa[:, None, None] * (E @ s_mat)  # K[m - 1] for lag m
    free = t[:, None] ** (alpha - 1.0) * (E @ rho)
    P = np.empty((n_steps, dim, dim))  # P[n - 1] for node n
    for i in range(n_steps):
        lags = K[:i][::-1]  # K_{n-j} for j = 1 .. n - 1, n = i + 1
        P[i] = np.outer(free[i], free[i]) + dt * np.einsum("jab,jbc,jdc->ad", lags, P[:i], lags)
    return t ** (2.0 * (1.0 - alpha)) * np.trace(P, axis1=1, axis2=2)
