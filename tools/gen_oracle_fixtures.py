#!/usr/bin/env python3
"""Regenerate the frozen high-precision constants in tests/oracle_fixtures.py.

    python tools/gen_oracle_fixtures.py > tests/oracle_fixtures.py

Build-time tool only (needs the ``tools`` extra, mpmath); the package itself
never uses arbitrary precision.  Precision is scaled with |z|^(1/alpha) so
the Mittag-Leffler reference sums survive their pre-cancellation hump, and
alpha, beta stay mpf inside Gamma(alpha k + beta): a float alpha k + beta
spoils the derivative sums.
"""

import numpy as np
import mpmath as mp

ML_POINTS = [
    ("ML_A075_B075_ZM1", 0.75, 0.75, -1.0),
    ("ML_A075_B075_ZM15", 0.75, 0.75, -15.0),
    ("ML_A075_B075_ZM30", 0.75, 0.75, -30.0),
    ("ML_A06_B1_ZM8", 0.6, 1.0, -8.0),
    ("ML_A09_B09_ZM10", 0.9, 0.9, -10.0),
    ("ML_A06_B075_ZM40", 0.6, 0.75, -40.0),
    ("ML_A075_B1_ZM25", 0.75, 1.0, -2.5),
    ("ML_A075_B15_ZM12", 0.75, 1.5, -12.0),
    # near-pole peaks of the spectral integral (width x sin(a pi)) as a -> 1
    ("ML_A09_B09_ZM201", 0.9, 0.9, -2.01),
    ("ML_A095_B095_ZM25", 0.95, 0.95, -2.5),
    ("ML_A095_B095_ZM7", 0.95, 0.95, -7.0),
    ("ML_A099_B099_ZM25", 0.99, 0.99, -2.5),
    ("ML_A095_B1_ZM3", 0.95, 1.0, -3.0),
    ("ML_A09_B15_ZM5", 0.9, 1.5, -5.0),
]

# complex z on rays with |arg z| in (a pi/2, pi]
ML_COMPLEX_POINTS = [
    ("ML_A075_B075_ZM30P30J", 0.75, 0.75, -30 + 30j),
    ("ML_A075_B075_ZM100P50J", 0.75, 0.75, -100 + 50j),
    # arg z = 1.893, just above a pi = 1.885: no pole
    ("ML_A06_B06_ZM10P30J", 0.6, 0.6, -10 + 30j),
    # the same ray; the pole sits near the parabola mu = 1.5
    ("ML_A075_B075_ZM277P831J", 0.75, 0.75, -2.77 + 8.31j),
    ("ML_A09_B09_ZM277P831J", 0.9, 0.9, -2.77 + 8.31j),
    # arg z = 1.2, just above a pi/2 = 1.178
    ("ML_A075_B075_Z725P1864J", 0.75, 0.75, 7.25 + 18.64j),
    ("ML_A075_B1_ZM6P15J", 0.75, 1.0, -6 + 15j),
    ("ML_A09_B09_ZM25P1J", 0.9, 0.9, -25 + 1j),
    ("ML_A06_B15_ZM3P4J", 0.6, 1.5, -3 + 4j),
    ("ML_A099_B099_ZM40P30J", 0.99, 0.99, -40 + 30j),
    # t^a lambda of the rotation [[-1, 3], [-3, -1]] at t = 50
    ("ML_A075_B075_ROTATION_T50", 0.75, 0.75, complex(-(50.0**0.75), 3.0 * 50.0**0.75)),
]

# (E, E') of E_{a,a} at z = -t^a: E_{a,a}(t^a J) = [[E, t^a E'], [0, E]]
# for the Jordan block J = [[-1, 1], [0, -1]]
JORDAN_POINTS = [(alpha, t) for alpha in (0.6, 0.75, 0.9) for t in (0.5, 5.0, 50.0)]

# (E, E') of E_{0.75,0.75} at z = t^a lambda for the Jordan blocks J2(-1) and
# J2(-3) behind the near-defective matrices P diag(J2(-1), J2(-3)) P^-1
NEAR_DEFECTIVE_POINTS = [(lam, t) for lam in (-1.0, -3.0) for t in (0.5, 5.0, 20.0)]

# Gamma at a, 2a and a + 1 and Beta at (a, a) and (a, 2a), for a on a grid
# of (1/2, 1]: the arguments fraccalc.gamma_fn and beta_fn are called with
GAMMA_BETA_ALPHAS = [0.5 + k / 40 for k in range(1, 21)]

# regularised incomplete beta I_x(a, a) of fraccalc._betainc_aa: x from
# 1e-300 through 1/2, where the series switches to the mirror, up to
# 1 - 1e-12
BETAINC_ALPHAS = (0.55, 0.6, 0.75, 0.9, 0.99, 1.0)
BETAINC_XS = sorted({10.0**-e for e in (300, 200, 100, 50, 20, 10, 5)}
                    | {k / 16 for k in range(1, 16)}
                    | {1.0 / 3.0, 2.0 / 3.0, 0.4999999, 0.5000001}
                    | {1.0 - 10.0**-e for e in (2, 3, 4, 6, 9, 12)})

# grid suprema M = max_k ||E_{a,a}(t_k^a A)||_inf over np.linspace(0, T, 257),
# the default grid of spectral.ml_norm_sup
NORM_SUP_ALPHA, NORM_SUP_T = 0.75, 50.0


def ml_reference(alpha, beta, z, deriv=0):
    """d^deriv/dz^deriv E_{a,b}(z) by its power series."""
    digits = int(abs(z) ** (1.0 / alpha) / mp.log(10) * 1.3) + 60
    mp.mp.dps = max(60, digits)
    a, b = mp.mpf(alpha), mp.mpf(beta)
    zz = mp.mpc(z) if isinstance(z, complex) else mp.mpf(z)
    total = mp.mpf(0)
    for k in range(deriv, 20000):
        term = mp.ff(k, deriv) * zz ** (k - deriv) / mp.gamma(a * k + b)
        total += term
        if k > 10 + deriv and abs(term) < mp.mpf(10) ** (-mp.mp.dps + 8) * (1 + abs(total)):
            return total
    raise RuntimeError("reference series did not converge")


def norm_sups():
    """M of the Jordan block and of the rotation [[-1, 3], [-3, -1]]."""
    jordan = rotation = mp.mpf(0)
    for t in np.linspace(0.0, NORM_SUP_T, 257):
        tau = float(t) ** NORM_SUP_ALPHA
        a = NORM_SUP_ALPHA
        e, de = ml_reference(a, a, -tau), ml_reference(a, a, -tau, 1)
        jordan = max(jordan, abs(e) + tau * abs(de))
        # E(aI + bJ) = Re E(a + ib) I + Im E(a + ib) J with J = [[0, 1], [-1, 0]]
        r = ml_reference(a, a, complex(-tau, 3.0 * tau))
        rotation = max(rotation, abs(r.real) + abs(r.imag))
    return jordan, rotation


def main():
    mp.mp.dps = 40
    print('"""Frozen high-precision oracle values; regenerate with')
    print('tools/gen_oracle_fixtures.py (build-time, mpmath)."""')
    print()
    print("GAMMA_0_75 =", mp.nstr(mp.gamma(mp.mpf(3) / 4), 22))
    print("GAMMA_2_75 =", mp.nstr(mp.gamma(mp.mpf(11) / 4), 22))
    print("RECIP_GAMMA_0_75 =", mp.nstr(1 / mp.gamma(mp.mpf(3) / 4), 22))
    print("BETA_0625_0625 =", mp.nstr(mp.gamma(mp.mpf(5) / 8) ** 2 / mp.gamma(mp.mpf(5) / 4), 22))
    print("RL_INT_T_A075_AT1 =", mp.nstr(mp.gamma(2) / mp.gamma(mp.mpf(11) / 4), 22))
    for name, alpha, beta, z in ML_POINTS:
        value = ml_reference(alpha, beta, z)
        mp.mp.dps = 40
        print(f"{name} =", mp.nstr(value, 22))
    for name, alpha, beta, z in ML_COMPLEX_POINTS:
        value = ml_reference(alpha, beta, z)
        mp.mp.dps = 40
        print(f"{name} = complex({mp.nstr(value.real, 22)}, {mp.nstr(value.imag, 22)})")
    for alpha, t in JORDAN_POINTS:
        tau = t**alpha
        e, de = ml_reference(alpha, alpha, -tau), ml_reference(alpha, alpha, -tau, 1)
        mp.mp.dps = 40
        name = f"JORDAN_A{alpha:g}_T{t:g}".replace(".", "")
        print(f"{name} = ({mp.nstr(e, 22)}, {mp.nstr(de, 22)})")
    print("NEAR_DEFECTIVE_A075 = {")
    for lam, t in NEAR_DEFECTIVE_POINTS:
        z = lam * t**0.75
        e, de = ml_reference(0.75, 0.75, z), ml_reference(0.75, 0.75, z, 1)
        mp.mp.dps = 40
        print(f"    ({lam!r}, {t!r}): ({mp.nstr(e, 22)}, {mp.nstr(de, 22)}),")
    print("}")
    jordan, rotation = norm_sups()
    mp.mp.dps = 40
    print("M_JORDAN_A075_T50 =", mp.nstr(jordan, 22))
    print("M_ROTATION_A075_T50 =", mp.nstr(rotation, 22))
    print("GAMMA_VALUES = {")
    for x in sorted({x for a in GAMMA_BETA_ALPHAS for x in (a, 2.0 * a, a + 1.0)}):
        print(f"    {x!r}: {mp.nstr(mp.gamma(mp.mpf(x)), 22)},")
    print("}")
    print("BETA_VALUES = {")
    for a in GAMMA_BETA_ALPHAS:
        for b in (a, 2.0 * a):
            print(f"    ({a!r}, {b!r}): {mp.nstr(mp.beta(mp.mpf(a), mp.mpf(b)), 22)},")
    print("}")
    # beta_fn's lgamma fallback: Gamma(300) overflows
    print("BETA_300_05 =", mp.nstr(mp.beta(300, mp.mpf(0.5)), 22))
    print("BETAINC_AA = {")
    for a in BETAINC_ALPHAS:
        for x in BETAINC_XS:
            value = mp.betainc(mp.mpf(a), mp.mpf(a), 0, mp.mpf(x), regularized=True)
            print(f"    ({a!r}, {x!r}): {mp.nstr(value, 22)},")
    print("}")


if __name__ == "__main__":
    main()
