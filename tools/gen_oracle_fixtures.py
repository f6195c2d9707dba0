#!/usr/bin/env python3
"""Regenerate the frozen high-precision constants in tests/oracle_fixtures.py.

Build-time tool only; the package itself never uses arbitrary precision.
Precision is scaled with |z|^(1/alpha) so the Mittag-Leffler reference sums
survive their pre-cancellation hump.
"""

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


def ml_reference(alpha, beta, z):
    digits = int(abs(z) ** (1.0 / alpha) / mp.log(10) * 1.3) + 60
    mp.mp.dps = max(60, digits)
    a, b, zz = mp.mpf(alpha), mp.mpf(beta), mp.mpf(z)
    total = mp.mpf(0)
    for k in range(20000):
        term = zz**k / mp.gamma(a * k + b)
        total += term
        if k > 10 and abs(term) < mp.mpf(10) ** (-mp.mp.dps + 8) * (1 + abs(total)):
            return total
    raise RuntimeError("reference series did not converge")


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


if __name__ == "__main__":
    main()
