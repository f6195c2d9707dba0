"""Fixed sizes and parameters of the three benchmark workloads.

Only the seed-dependent parts (Brownian master seeds, off-diagonal entries of
the random matrices) are drawn at run time; everything here is shared by the
workloads, the reference checks and ``gen_reference.py``.  Importing this
module imports nothing from the package under test.
"""

import numpy as np

# scalar_long: in-process `fracstab simulate`
SCALAR = {
    "A": -1.0,
    "rho": 0.5,
    "alpha": 0.75,
    "coef": 0.05,  # G = B = S
    "T": 50.0,
    "N": 2048,
    "n_paths": 1000,
}

# vector_neutral: library marches plus Picard on a dim-4 non-normal system
VECTOR = {
    "diag": (-1.0, -1.5, -2.0, -3.0),
    "alpha": 0.75,
    "c_g": 0.2,
    "c_b": 0.1,
    "c_s": 0.2,
    "T": 10.0,
    "N": 256,
    "n_paths": 256,
    "n_picard": 8,
}

# certify_sweep: certificates over the stability sector, no simulation
CERT_ALPHAS = (0.6, 0.75, 0.9)
CERT_T = 50.0
CERT_NODES = 256          # ml_norm_sup default grid
CERT_COEF = 0.05          # linear G = B = S = CERT_COEF * I
CERT_EPSILON = 1.0
PROFILE_ALPHA = 0.75
PROFILE_T = 100.0
PROFILE_NODES = 1000      # kernel_bounds_profile default grid
RANDOM_DIAG = (-1.0, -2.0, -3.0)
COMPLEX_PAIR = ((-1.0, 3.0), (-3.0, -1.0))
JORDAN = ((-1.0, 1.0), (0.0, -1.0))

# eigenvalues whose scalar kernels the reference tables hold
REAL_EIGS = (-1.0, -2.0, -3.0, -10.0)
COMPLEX_EIG = complex(-1.0, 3.0)


def cert_times():
    return np.linspace(0.0, CERT_T, CERT_NODES + 1)


def profile_times():
    return np.arange(PROFILE_NODES + 1) * (PROFILE_T / PROFILE_NODES)


def scalar_times():
    return np.arange(SCALAR["N"] + 1) * (SCALAR["T"] / SCALAR["N"])


def random_triangular(diag, seed):
    """Upper-triangular matrix with the given diagonal (its spectrum) and
    seeded off-diagonal entries uniform in [-1, 1]."""
    rng = np.random.default_rng(seed)
    n = len(diag)
    mat = np.diag(np.asarray(diag, dtype=float))
    mat[np.triu_indices(n, 1)] = rng.uniform(-1.0, 1.0, n * (n - 1) // 2)
    return mat
