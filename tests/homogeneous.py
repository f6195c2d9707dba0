"""Exact homogeneous solution of the linear system, the tests' reference for
the schemes at g = b = sigma = 0."""

import numpy as np

from fracstab import PathEnsemble, TimeGrid, gamma_fn, ml_kernel


def closed_form_homogeneous(a_mat, rho, alpha, grid: TimeGrid) -> PathEnsemble:
    """t^(1-a) X(t) = E_{a,a}(t^a A) rho as a single deterministic path of
    weighted states (rho/Gamma(a) at node 0).  For alpha = 1 this reduces to
    X(t) = exp(t A) rho.
    """
    a_mat = np.atleast_2d(np.asarray(a_mat, dtype=float))
    rho = np.atleast_1d(np.asarray(rho, dtype=float))
    dim = a_mat.shape[0]
    weighted = np.empty((1, grid.N + 1, dim))
    weighted[0, 0] = rho / gamma_fn(alpha)
    weighted[0, 1:] = np.einsum("nij,j->ni", ml_kernel(alpha, alpha, a_mat, grid.nodes[1:]), rho)
    return PathEnsemble(weighted=weighted, grid=grid)
