"""Empirical pth-moment curves and their stability verdict.

The curve of interest is the weighted moment E||t^(1-a) X(t)||^p (Euclidean
norm): it stays finite at t = 0 (limit (||rho||/Gamma(a))^p) and is the norm
in which the contraction theory is phrased.  The plain moment E||X(t)||^p,
t > 0, is that curve times t^(p(a-1)); the verdict judges whichever single
curve the caller supplies.

A finite ensemble cannot take t -> infinity limits; asymptotic decay is
judged empirically by (i) the trailing-window log-log slope having a 95%
confidence interval entirely below zero and (ii) the tail mean (last decade
of time, t >= T/10) falling below a tolerance.  :func:`stability_verdict`
is the one entry point: its :class:`DecayVerdict` reports the curve's
supremum, its tail mean and the fit with the two flags.  Whether
the curve's initial datum met ||rho|| < delta is the caller's to report.

Each node's mean and variance come from one streaming reduction,
:class:`_MomentSums`.  It takes the values ||t^(1-a) X||^p shifted by the
node's value on path 0, so a node where all paths are equal has a mean of
exactly that value and a half-width of exactly 0.  It reduces fixed blocks
of 64 paths to their count, mean and sum of squared deviations, and folds
the blocks in path order by the pairwise update of Chan, Golub & LeVeque
(1983).  A block takes its nodes in groups sized from dim alone, so the
temporaries stay near 2^14 elements whatever N and P, and each block is
reduced with the same shapes wherever the chunks of an ensemble start.
The curve is therefore bit-reproducible for a given ensemble, and the same
whether the ensemble is reduced whole (:func:`pth_moment_curve`) or chunk
by chunk of whole blocks, as ``fracstab simulate`` does.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import SimulationNumericError
from .simulator import _PATH_BLOCK, PathEnsemble

__all__ = [
    "MomentCurve",
    "DecayVerdict",
    "pth_moment_curve",
    "stability_verdict",
]

_MOMENT_FLOOR = 1e-300


@dataclass(frozen=True)
class MomentCurve:
    """Per-node sample mean of a p-th moment with normal-approximation 95%
    half-widths.

    Half-widths are NaN below 30 paths.
    """

    nodes: np.ndarray
    m: np.ndarray
    half_width: np.ndarray

    def __post_init__(self):
        if not (len(self.nodes) == len(self.m) == len(self.half_width)):
            raise ValueError("nodes, m, half_width must have equal lengths")


def pth_moment_curve(ensemble: PathEnsemble, p: int) -> MomentCurve:
    """Per-node sample mean of ||t^(1-a) X(t)||^p over an ensemble's
    weighted states, on every node from t = 0, for an integer p >= 1 (a
    bool or a non-integral number is refused with ``ValueError``, and so is
    an ensemble of no paths).  A moment that overflows a double raises
    :class:`SimulationNumericError` (see :meth:`_MomentSums.curve`).
    """
    sums = _MomentSums(ensemble.grid.N + 1, p)
    sums.add(ensemble.weighted)
    return sums.curve(ensemble.grid.nodes)


class _MomentSums:
    """Running per-node count, mean and sum of squared deviations (M2) of
    ||w||^p, shifted by path 0's value, over the weighted states w of the
    paths added so far."""

    def __init__(self, n_nodes, p):
        if isinstance(p, bool) or not (p >= 1 and float(p).is_integer()):
            raise ValueError(f"p must be an integer >= 1, got {p!r}")
        self.p = int(p)
        self.count = 0
        self.shift = np.empty(n_nodes)
        self.mean = np.zeros(n_nodes)
        self.m2 = np.zeros(n_nodes)

    def add(self, weighted):
        """Fold in the next paths, weighted states (paths, nodes, dim), in
        blocks of ``_PATH_BLOCK`` paths from the first: every call but the
        last must add a whole number of blocks."""
        n_paths, n_nodes, dim = weighted.shape
        step = max(2, (1 << 14) // (_PATH_BLOCK * dim))
        # sums that overflow leave inf or NaN in the curve, without warnings
        with np.errstate(over="ignore", invalid="ignore"):
            for b0 in range(0, n_paths, _PATH_BLOCK):
                block = weighted[b0:b0 + _PATH_BLOCK]
                n_a, n_b = self.count, block.shape[0]
                n = n_a + n_b
                for j0 in range(0, n_nodes, step):
                    j1 = min(j0 + step, n_nodes)
                    values = _norms(block[:, j0:j1]) ** self.p  # (paths, nodes)
                    if not n_a:
                        self.shift[j0:j1] = values[0]
                    values -= self.shift[j0:j1]
                    mean_b = values.sum(axis=0) / n_b
                    values -= mean_b
                    values *= values
                    delta = mean_b - self.mean[j0:j1]
                    self.mean[j0:j1] += delta * (n_b / n)
                    self.m2[j0:j1] += values.sum(axis=0) + delta * delta * (n_a * n_b / n)
                self.count = n

    def curve(self, nodes):
        """The :class:`MomentCurve` of the paths added, with normal 95%
        half-widths from the unbiased variance, NaN below 30 paths.  A sum
        of no paths has no curve: it raises ``ValueError``.  The first node
        whose mean, or whose variance where a half-width is given, is not
        finite (||w||^p overflowed) raises :class:`SimulationNumericError`
        naming p and the node."""
        if not self.count:
            raise ValueError("a moment curve needs at least one path, got 0")
        m = self.shift + self.mean
        half = np.full(len(nodes), np.nan)
        checks = [("mean", m)]
        if self.count >= 30:
            var = self.m2 / (self.count - 1)
            half = 1.959963984540054 * np.sqrt(var) / math.sqrt(self.count)
            checks.append(("variance", var))
        for name, values in checks:
            finite = np.isfinite(values)
            if not finite.all():
                n = int(np.argmin(finite))
                raise SimulationNumericError(
                    f"the p-th moment (p = {self.p}) overflows a double: its {name} is not "
                    f"finite at node {n} (t = {nodes[n]:.6g})", node=n)
        return MomentCurve(nodes=nodes, m=m, half_width=half)


def _norms(w):
    """||w|| over the last axis.  The plain norm squares the components, so
    past about 1.3e154 it is inf; where it is and w is finite, it is taken
    scaled by w's largest component.  Every other norm keeps its bits."""
    norms = np.linalg.norm(w, axis=-1)
    if not np.isfinite(norms).all():
        redo = ~np.isfinite(norms) & np.isfinite(w).all(axis=-1)
        scale = np.abs(w[redo]).max(axis=-1)
        norms[redo] = scale * np.linalg.norm(w[redo] / scale[:, None], axis=-1)
    return norms


@dataclass(frozen=True)
class DecayVerdict:
    """Log-log tail slope with CI over the fit window, plus the two
    moment-stability flags and the curve's supremum and tail mean they were
    judged on.  The asymptotic flag implies the plain one by construction.
    """

    slope: float
    slope_ci: tuple[float, float]
    window: tuple[float, float]
    stable_p: bool
    asymptotically_stable_p: bool
    sup: float
    tail_mean: float

    def __post_init__(self):
        if self.asymptotically_stable_p and not self.stable_p:
            raise ValueError("asymptotic stability requires plain stability")


def _fit_window(window_fraction: float, n_times: int) -> int:
    """Nodes of the trailing fit window over ``n_times`` positive times,
    ceil(window_fraction n_times); a window of fewer than four nodes, or a
    fraction outside (0, 1), raises ``ValueError``."""
    if not 0.0 < window_fraction < 1.0:
        raise ValueError(f"window_fraction must lie in (0, 1), got {window_fraction}")
    n_window = int(math.ceil(window_fraction * n_times))
    if n_window < 4:
        raise ValueError(f"degenerate fit: only {n_window} window nodes")
    return n_window


def _decay_fit(curve: MomentCurve, window_fraction: float):
    """(slope, slope_ci, window) of the least-squares fit of log m against
    log t over the trailing window of :func:`_fit_window`.

    Zeros are floored at 1e-300 before taking logs; the CI is the normal
    95% band from the standard regression error.
    """
    pos = curve.nodes > 0.0
    t = curve.nodes[pos]
    m = np.maximum(curve.m[pos], _MOMENT_FLOOR)
    n_window = _fit_window(window_fraction, len(t))
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
    return slope, (slope - half, slope + half), (float(t[0]), float(t[-1]))


def stability_verdict(curve: MomentCurve, epsilon: float, tail_tol: float,
                      window_fraction: float = 0.5) -> DecayVerdict:
    """Moment-stability verdict of one curve.

    ``stable_p`` holds iff the curve's supremum stays below ``epsilon``;
    ``asymptotically_stable_p`` additionally needs the tail mean (t >= T/10)
    below ``tail_tol`` and the fitted slope CI entirely below zero.
    """
    if not (epsilon > 0 and tail_tol > 0):
        raise ValueError(f"epsilon and tail_tol must be positive, got {epsilon} and {tail_tol}")
    slope, slope_ci, window = _decay_fit(curve, window_fraction)
    sup = float(np.max(curve.m))
    tail_mean = float(np.mean(curve.m[curve.nodes >= curve.nodes[-1] / 10.0]))
    stable = sup < epsilon
    decays = tail_mean < tail_tol and slope_ci[1] < 0.0
    return DecayVerdict(slope=slope, slope_ci=slope_ci, window=window, stable_p=stable,
                        asymptotically_stable_p=stable and decays, sup=sup,
                        tail_mean=tail_mean)
