"""fracstab: mild solutions and pth-moment stability certificates for
fractional stochastic neutral systems of order alpha in (1/2, 1].

The package splits into:

* :mod:`fracstab.fraccalc`     Mittag-Leffler functions, Gamma/Beta, and
  discrete Riemann-Liouville operators,
* :mod:`fracstab.spectral`     spectra, the sector condition, long-horizon
  kernel profiles,
* :mod:`fracstab.coefficients` coefficient families and their neutral solves,
* :mod:`fracstab.criteria`     closed-form stability constants and the
  certificate,
* :mod:`fracstab.simulator`    Brownian ensembles and the path schemes,
* :mod:`fracstab.moments`      empirical moment curves and decay verdicts,
* :mod:`fracstab.cli`          the command-line front end.
"""

__version__ = "0.1.0"

from .coefficients import (
    CoefficientSet,
    make_additive_noise,
    make_bounded_smooth,
    make_linear,
)
from .criteria import (
    Certificate,
    CriterionInputs,
    caputo_ms_criterion,
    certify,
    delta_for_epsilon,
    stability_constant,
    theta,
)
from .fraccalc import (
    FractionalOrder,
    beta_fn,
    gamma_fn,
    ml_kernel,
    ml_scalar,
    rl_integral_grid,
)
from .moments import (
    DecayVerdict,
    MomentCurve,
    pth_moment_curve,
    stability_verdict,
)
from .simulator import (
    BrownianEnsemble,
    PathEnsemble,
    SystemSpec,
    TimeGrid,
    brownian_increments,
    picard_path_solve,
    simulate_integral_form,
    simulate_mild,
)
from .spectral import (
    KernelBoundsReport,
    SectorVerdict,
    Spectrum,
    eigenvalues,
    kernel_bounds_profile,
    matrix_norm,
    ml_norm_sup,
    sector_check,
)

__all__ = [name for name in dir() if not name.startswith("_")]
