#!/usr/bin/env python3
"""Regenerate ``perfbench/reference.json``: high-precision Mittag-Leffler
values for every kernel argument the benchmark checks against.

Offline tool; the benchmark only reads its output, and none of the package
under test is used.  Values are the power series summed in mpmath with the
working precision raised with |z|^(1/alpha), so the series survives its
pre-cancellation hump.  Far out on the negative real axis, where that
precision gets too costly, the spectral integral
E_{a,a}(-x) = sin(a pi)/(a pi) int_0^inf r^(1/a) exp(-r^(1/a)) /
(r^2 + 2 r x cos(a pi) + x^2) dr is integrated by mpmath instead; the two
are cross-checked where both apply.  Stored per grid node t_j and
eigenvalue lam:

* ``E_{a,a}(t_j^a lam)`` for the real eigenvalues in ``spec.REAL_EIGS``,
* the same for the complex eigenvalue ``spec.COMPLEX_EIG`` (as [re, im]),
* ``E'_{a,a}(-t_j^a)``, the derivative that fills the off-diagonal of the
  closed form of E_{a,a}(t^a J) for the Jordan block J = [[-1, 1], [0, -1]].

Grids: the ``ml_norm_sup`` grid of ``certify`` for each alpha of the sweep,
the ``kernel_bounds_profile`` grid at alpha = 0.75, and the grid of the
scalar_long workload.  Run from the repository root:

    python3 perfbench/gen_reference.py      # about five minutes on one core
"""

import json
import math
import os
import sys

import mpmath as mp

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import spec  # noqa: E402

OUT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")


class SeriesTable:
    """Reciprocal gammas 1/Gamma(a k + a), extended on demand."""

    def __init__(self, alpha, dps):
        self.alpha = mp.mpf(alpha)
        self.dps = dps
        self.rg = []

    def __getitem__(self, k):
        while len(self.rg) <= k:
            with mp.workdps(self.dps):
                j = len(self.rg)
                self.rg.append(mp.rgamma(self.alpha * (j + 1)))
        return self.rg[k]


def _digits(z, alpha, extra):
    return int(float(abs(z)) ** (1.0 / alpha) / math.log(10.0) * 1.3) + extra


def ml_aa(z, table, derivative=False):
    """E_{a,a}(z) or its z-derivative by direct summation at adequate precision."""
    alpha = float(table.alpha)
    dps = _digits(z, alpha, 45)
    if dps > table.dps:
        raise ValueError(f"table precision {table.dps} below the {dps} needed at z={z}")
    with mp.workdps(dps):
        total = mp.mpf(0)
        zk = mp.mpf(1)  # z^(k-1) for the derivative, z^k otherwise
        small = 0
        eps = mp.mpf(10) ** (-dps + 10)
        for k in range(1 if derivative else 0, 200000):
            term = (k * zk if derivative else zk) * table[k]
            zk *= z
            total += term
            small = small + 1 if abs(term) < eps * (1 + abs(total)) else 0
            if small >= 3 and k > 10:
                return total
    raise RuntimeError(f"series did not converge at z={z}")


# above this working precision a real negative argument goes to the integral
_SERIES_DPS_LIMIT = 150


def neg_real_integral(x, alpha):
    """E_{a,a}(-x), x > 0, 0 < a < 1, from the spectral integral."""
    with mp.workdps(30):
        a, x = mp.mpf(alpha), mp.mpf(x)
        s, c = mp.sin(a * mp.pi), mp.cos(a * mp.pi)
        inv = 1 / a

        def f(r):
            u = r**inv
            return u * mp.exp(-u) / (r * r + 2 * r * x * c + x * x)

        return mp.quad(f, [0, 1, mp.inf]) * s / (a * mp.pi)


def ml_real(z, table):
    if z < 0 and _digits(z, float(table.alpha), 45) > _SERIES_DPS_LIMIT:
        return neg_real_integral(-z, float(table.alpha))
    return ml_aa(z, table)


def _table_dps(alpha, times, lams):
    zmax = max(float(abs(lam)) * float(t) ** alpha for t in times for lam in lams)
    return _digits(zmax, alpha, 60)


def grid_values(alpha, times):
    # series cases only: real arguments past _SERIES_DPS_LIMIT use the integral
    lams = [-1.0, abs(spec.COMPLEX_EIG)]
    table = SeriesTable(alpha, max(_SERIES_DPS_LIMIT, _table_dps(alpha, times, lams)))
    a = mp.mpf(alpha)
    out = {"real": {}, "complex": [], "jordan_deriv": []}
    with mp.workdps(table.dps):
        scales = [mp.mpf(float(t)) ** a for t in times]
    for lam in spec.REAL_EIGS:
        out["real"][repr(lam)] = [float(ml_real(s * lam, table)) for s in scales]
        print(f"  alpha={alpha} lam={lam} done", file=sys.stderr, flush=True)
    lam_c = mp.mpc(spec.COMPLEX_EIG.real, spec.COMPLEX_EIG.imag)
    for s in scales:
        v = ml_aa(s * lam_c, table)
        out["complex"].append([float(v.real), float(v.imag)])
    print(f"  alpha={alpha} complex done", file=sys.stderr, flush=True)
    out["jordan_deriv"] = [float(ml_aa(-s, table, derivative=True)) for s in scales]
    return out


def _self_check():
    """Spot values against independent closed forms."""
    mp.mp.dps = 60
    t = SeriesTable(1.0, 80)
    # E_{1,1}(z) = exp(z), and so is its derivative
    for z in (-1.0, -7.5, -20.0):
        got = ml_aa(mp.mpf(z), t)
        want = mp.exp(z)
        assert abs(got - want) <= mp.mpf(10) ** -30 * abs(want), (z, got, want)
        got_d = ml_aa(mp.mpf(z), t, derivative=True)
        assert abs(got_d - want) <= mp.mpf(10) ** -30 * abs(want), (z, got_d, want)
    half = SeriesTable(0.5, 80)
    # E_{1/2,1/2}(z) = 1/sqrt(pi) + z exp(z^2) erfc(-z)
    for z in (-1.0, -4.0):
        zz = mp.mpf(z)
        want = 1 / mp.sqrt(mp.pi) + zz * mp.exp(zz**2) * mp.erfc(-zz)
        got = ml_aa(zz, half)
        assert abs(got - want) <= mp.mpf(10) ** -25, (z, got, want)
    # the integral branch against the series where both are affordable
    for alpha in spec.CERT_ALPHAS:
        table = SeriesTable(alpha, 260)
        for z in (-3.0, -12.0, -30.0):
            got = neg_real_integral(-z, alpha)
            want = ml_aa(mp.mpf(z), table)
            assert abs(got - want) <= mp.mpf(10) ** -22 * abs(want), (alpha, z, got, want)
    mp.mp.dps = 15


def main():
    _self_check()
    doc = {
        "about": "E_{a,a} values from perfbench/gen_reference.py (mpmath series)",
        "cert": {},
        "profile": None,
        "scalar_long": None,
    }
    for alpha in spec.CERT_ALPHAS:
        print(f"certify grid alpha={alpha}", file=sys.stderr, flush=True)
        doc["cert"][repr(alpha)] = grid_values(alpha, spec.cert_times())
    print("profile grid", file=sys.stderr, flush=True)
    doc["profile"] = grid_values(spec.PROFILE_ALPHA, spec.profile_times())
    alpha = spec.SCALAR["alpha"]
    table = SeriesTable(alpha, _table_dps(alpha, spec.scalar_times(), [spec.SCALAR["A"]]))
    with mp.workdps(table.dps):
        doc["scalar_long"] = [
            float(ml_real(mp.mpf(float(t)) ** mp.mpf(alpha) * spec.SCALAR["A"], table))
            for t in spec.scalar_times()
        ]
    with open(OUT, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(doc, fh, separators=(",", ":"))
        fh.write("\n")
    print(f"wrote {OUT}", file=sys.stderr)


if __name__ == "__main__":
    main()
