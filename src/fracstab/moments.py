"""Empirical pth-moment curves, the weighted sup-norm, and stability verdicts.

The moment of interest is E||X(t)||^p (Euclidean norm).  Its weighted
variant E||t^(1-a) X(t)||^p is the one that stays finite at t = 0 (limit
(||rho||/Gamma(a))^p) and is the norm in which the contraction theory is
phrased; verdicts therefore operate on whichever curves the caller supplies
and record the choice in the curve itself.

A finite ensemble cannot take t -> infinity limits; asymptotic decay is
certified empirically by (i) the trailing-window log-log slope having a 95%
confidence interval entirely below zero and (ii) the tail mean (last decade
of time, t >= T/10) falling below a tolerance.  Both surrogates are reported
alongside the verdict.

Reductions over paths use numpy's pairwise summation with a fixed layout, so
moment curves are bit-reproducible for a given ensemble regardless of how
the simulation was chunked.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .simulator import PathEnsemble

__all__ = [
    "MomentCurve",
    "DecayVerdict",
    "pth_moment_curve",
    "weighted_moment_sup",
    "decay_fit",
    "stability_verdict",
]

_MOMENT_FLOOR = 1e-300


@dataclass(frozen=True)
class MomentCurve:
    """Sample mean of ||X(t_j)||^p with normal-approximation 95% half-widths.

    ``weighted`` records which coordinates were reduced; ``rho_norm`` tags
    the initial-datum size the ensemble was generated from (required by
    stability verdicts).  Half-widths are NaN below 30 paths.
    """

    nodes: np.ndarray
    m: np.ndarray
    half_width: np.ndarray
    p: int
    n_paths: int
    weighted: bool = False
    rho_norm: float | None = None

    def __post_init__(self):
        if not (len(self.nodes) == len(self.m) == len(self.half_width)):
            raise ValueError("nodes, m, half_width must have equal lengths")


def pth_moment_curve(ensemble: PathEnsemble, p: int, weighted: bool,
                     rho_norm: float | None = None) -> MomentCurve:
    """Per-node sample mean of ||.||^p over an ensemble.

    Unweighted curves start at node 1: X(0) is not finite (it diverges like
    t^(a-1)), so a node-0 unweighted request is rejected by construction and
    only the weighted curve covers t = 0.
    """
    if p < 1:
        raise ValueError(f"p must be >= 1, got {p}")
    if weighted:
        block = ensemble.weighted
        nodes = ensemble.grid.nodes
    else:
        block = ensemble.values[:, 1:, :]
        nodes = ensemble.grid.nodes[1:]
    powers = np.linalg.norm(block, axis=2) ** p  # (paths, nodes)
    mean = powers.mean(axis=0)
    n_paths = ensemble.n_paths
    if n_paths >= 30:
        half = 1.959963984540054 * powers.std(axis=0, ddof=1) / math.sqrt(n_paths)
    else:
        half = np.full_like(mean, np.nan)
    return MomentCurve(nodes=nodes.copy(), m=mean, half_width=half, p=int(p),
                       n_paths=n_paths, weighted=weighted, rho_norm=rho_norm)


def weighted_moment_sup(ensemble: PathEnsemble, p: int) -> float:
    """sup over grid nodes (node 0 included) of E||t^(1-a) X(t)||^p."""
    return float(np.max(pth_moment_curve(ensemble, p, weighted=True).m))


@dataclass(frozen=True)
class DecayVerdict:
    """Log-log tail slope with CI, plus the two moment-stability flags.

    ``stable_p`` / ``asymptotically_stable_p`` are None when the object only
    reports a slope fit.  The asymptotic flag implies the plain one by
    construction.
    """

    slope: float
    slope_ci: tuple[float, float]
    window: tuple[float, float]
    stable_p: bool | None = None
    asymptotically_stable_p: bool | None = None

    def __post_init__(self):
        if self.asymptotically_stable_p and self.stable_p is False:
            raise ValueError("asymptotic stability requires plain stability")


def decay_fit(curve: MomentCurve, window_fraction: float) -> DecayVerdict:
    """Least-squares slope of log m against log t over the trailing window.

    Zeros are floored at 1e-300 before taking logs; the CI is the normal
    95% band from the standard regression error.  Requires at least four
    window nodes with positive times.
    """
    if not 0.0 < window_fraction < 1.0:
        raise ValueError(f"window_fraction must lie in (0, 1), got {window_fraction}")
    pos = curve.nodes > 0.0
    t = curve.nodes[pos]
    m = np.maximum(curve.m[pos], _MOMENT_FLOOR)
    n_window = int(math.ceil(window_fraction * len(t)))
    if n_window < 4:
        raise ValueError(f"degenerate fit: only {n_window} window nodes")
    t = t[-n_window:]
    m = m[-n_window:]
    x = np.log(t)
    y = np.log(m)
    xc = x - x.mean()
    sxx = float(xc @ xc)
    slope = float(xc @ y) / sxx
    intercept = y.mean() - slope * x.mean()
    resid = y - (intercept + slope * x)
    dof = max(len(x) - 2, 1)
    se = math.sqrt(float(resid @ resid) / dof / sxx)
    half = 1.959963984540054 * se
    return DecayVerdict(slope=slope, slope_ci=(slope - half, slope + half),
                        window=(float(t[0]), float(t[-1])))


def stability_verdict(curves, epsilon: float, delta: float, tail_tol: float,
                      window_fraction: float = 0.5) -> DecayVerdict:
    """Moment-stability verdicts over one curve per initial datum.

    Every curve must be tagged with its ||rho||, all below ``delta`` (that is
    the hypothesis being exercised).  ``stable_p`` holds iff every curve's
    supremum stays below ``epsilon``; ``asymptotically_stable_p`` additionally
    needs every tail mean (t >= T/10) below ``tail_tol`` and every fitted
    slope CI entirely below zero.  The reported slope is the worst (largest
    CI upper end) among the curves.
    """
    if not (epsilon > 0 and delta > 0):
        raise ValueError("epsilon and delta must be positive")
    curves = list(curves)
    if not curves:
        raise ValueError("at least one moment curve is required")
    for c in curves:
        if c.rho_norm is None:
            raise ValueError("every curve must be tagged with its ||rho||")
        if c.rho_norm >= delta:
            raise ValueError(
                f"curve with ||rho||={c.rho_norm} violates the hypothesis ||rho|| < delta={delta}"
            )
    stable = all(float(np.max(c.m)) < epsilon for c in curves)
    worst_fit = None
    decays = True
    for c in curves:
        fit = decay_fit(c, window_fraction)
        t_tail = c.nodes >= c.nodes[-1] / 10.0
        tail_mean = float(np.mean(c.m[t_tail]))
        if not (tail_mean < tail_tol and fit.slope_ci[1] < 0.0):
            decays = False
        if worst_fit is None or fit.slope_ci[1] > worst_fit.slope_ci[1]:
            worst_fit = fit
    return DecayVerdict(
        slope=worst_fit.slope,
        slope_ci=worst_fit.slope_ci,
        window=worst_fit.window,
        stable_p=stable,
        asymptotically_stable_p=bool(stable and decays),
    )
