"""Exact homogeneous solution of the linear system, the tests' reference for
the schemes at g = b = sigma = 0."""

import numpy as np

from fracstab import PathEnsemble, TimeGrid, gamma_fn, ml_kernel


def closed_form_homogeneous(a_mat, rho, alpha, grid: TimeGrid) -> PathEnsemble:
    """X(t) = t^(a-1) E_{a,a}(t^a A) rho as a single deterministic path (NaN
    value at node 0; weighted value rho/Gamma(a) there).  For alpha = 1 this
    reduces to exp(t A) rho.
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
    return PathEnsemble(values=vals, weighted=weighted, grid=grid, scheme_tag="closed_form")
