"""Independent oracles: brute-force series, finite differences, reflection, mpmath.

Everything here is deliberately naive and separate from the package's
evaluation routes, so expected values are derived by a different path than
the code under test.  The mpmath helpers take the module as an argument, so
tests obtain it through ``pytest.importorskip``.
"""

from __future__ import annotations

import cmath
import math

import numpy as np


def hurwitz_series_brute(s: complex, alpha: float, n_terms: int = 200_000):
    """Partial sum of sum_{n>=0} (n+alpha)^-s with an integral tail bound.

    Requires Re s > 1.  Returns (partial, tail_bound).
    """
    s = complex(s)
    sigma = s.real
    if sigma <= 1.0:
        raise ValueError("series oracle needs Re s > 1")
    n = np.arange(n_terms, dtype=float) + alpha
    partial = complex(np.sum(np.exp(-s * np.log(n))))
    edge = n_terms + alpha
    tail = edge ** (1.0 - sigma) / (sigma - 1.0) + edge ** (-sigma)
    return partial, float(tail)


def zeta_series_brute(s: complex, n_terms: int = 200_000):
    return hurwitz_series_brute(s, 1.0, n_terms)


def dirichlet_series_brute(values, s: complex, n_terms: int = 200_000):
    """chi-weighted partial sum with the zeta-majorant tail bound."""
    s = complex(s)
    sigma = s.real
    if sigma <= 1.0:
        raise ValueError("series oracle needs Re s > 1")
    m = len(values)
    n = np.arange(1, n_terms + 1, dtype=float)
    coeff = np.tile(np.asarray(values, dtype=complex), n_terms // m + 1)[:n_terms]
    partial = complex(np.sum(coeff * np.exp(-s * np.log(n))))
    tail = n_terms ** (1.0 - sigma) / (sigma - 1.0) + n_terms ** (-sigma)
    return partial, float(tail)


def euler_product_principal(zeta_fn, m: int, s: complex) -> complex:
    """zeta(s) prod_{p | m} (1 - p^-s), the principal L-function mod m.

    ``zeta_fn`` supplies zeta(s).
    """
    s = complex(s)
    val = complex(zeta_fn(s))
    p = 2
    while m > 1:
        if m % p == 0:
            val *= 1.0 - p ** (-s)
            while m % p == 0:
                m //= p
        p += 1
    return val


def leibniz_pi_over_4(n_terms: int = 2_000_000):
    """Alternating series 1 - 1/3 + 1/5 - ... with its next-term bound."""
    k = np.arange(n_terms, dtype=float)
    partial = float(np.sum((-1.0) ** k / (2.0 * k + 1.0)))
    return partial, 1.0 / (2.0 * n_terms + 1.0)


def central_difference(f, s: complex, h: float = 1e-5) -> complex:
    return (f(s + h) - f(s - h)) / (2.0 * h)


# Lanczos approximation (g = 7, n = 9), float accuracy ~1e-13 relative.
_LANCZOS = (
    0.99999999999980993, 676.5203681218851, -1259.1392167224028,
    771.32342877765313, -176.61502916214059, 12.507343278686905,
    -0.13857109526572012, 9.9843695780195716e-6, 1.5056327351493116e-7)


def gamma_complex(z: complex) -> complex:
    z = complex(z)
    if z.real < 0.5:
        return math.pi / (cmath.sin(math.pi * z) * gamma_complex(1.0 - z))
    z -= 1.0
    x = _LANCZOS[0]
    for i in range(1, 9):
        x += _LANCZOS[i] / (z + i)
    t = z + 7.5
    return math.sqrt(2.0 * math.pi) * t ** (z + 0.5) * cmath.exp(-t) * x


def zeta_reflection(zeta_fn, s: complex) -> complex:
    """Right side of zeta(s) = 2^s pi^(s-1) sin(pi s/2) Gamma(1-s) zeta(1-s).

    ``zeta_fn`` supplies zeta(1-s); used purely as a cross-check oracle for
    the analytic continuation.
    """
    s = complex(s)
    return (2.0 ** s * math.pi ** (s - 1.0) * cmath.sin(math.pi * s / 2.0)
            * gamma_complex(1.0 - s) * zeta_fn(1.0 - s))


def trivial_zero_deriv(n: int, zeta_fn) -> float:
    """(-1)^n n (2n-1)! / (2 pi)^(2n) * zeta(2n+1), evaluated independently."""
    z = zeta_fn(2 * n + 1).real
    return (-1.0) ** n * n * math.factorial(2 * n - 1) / (2.0 * math.pi) ** (2 * n) * z


def mp_zeta(mpmath, s: complex, alpha: float, deriv: int = 0) -> complex:
    """d^deriv/ds^deriv zeta(s, alpha) by mpmath at 30 digits."""
    with mpmath.workdps(30):
        return complex(mpmath.zeta(mpmath.mpc(s.real, s.imag), alpha, deriv))


def mp_l(mpmath, values, s: complex, deriv: int = 0) -> complex:
    """m^-s sum_r chi(r) zeta(s, r/m) by mpmath Hurwitz sums at 30 digits.

    At s = 1 (non-principal characters only, where sum_r chi(r) = 0) the
    pole terms cancel and zeta(s, a) - 1/(s-1) -> -digamma(a) leaves
    -sum_r chi(r) digamma(r/m) / m.  With ``deriv`` = 1 (s != 1) it returns
    L'(s) = m^-s sum_r chi(r) (zeta'(s, r/m) - ln(m) zeta(s, r/m)).
    """
    m = len(values)
    with mpmath.workdps(30):
        z = mpmath.mpc(s.real, s.imag)
        terms = [(complex(chi), mpmath.mpf(r) / m) for r, chi in enumerate(values, 1) if chi]
        if z == 1:
            if deriv:
                raise ValueError("the derivative oracle needs s != 1")
            total = -sum(chi * mpmath.digamma(a) for chi, a in terms)
        else:
            total = sum(chi * mpmath.zeta(z, a) for chi, a in terms)
        if deriv:
            total = sum(chi * mpmath.zeta(z, a, 1) for chi, a in terms) - mpmath.log(m) * total
        return complex(mpmath.power(m, -z) * total)
