"""Hurwitz/Riemann zeta evaluation and the explicit sup-norm bound constants.

One router, ``_split_many``, evaluates the regular part of zeta(s, a) (the
1/(s-1) pole term kept symbolic) with a per-point error estimate, for
batches and, as size-1 calls, for every scalar entry point.  One predicate,
``_on_h_rule``, picks the route of each point:

* "hermite" for |Im s| <= 15 and Re s < -3 (for a size-1 call, Re s < 8):
  the three-term split ``zeta(s, a) = 1/(s-1) + d(s, a) + h(s, a)`` where
  ``d`` is entire (closed form, with a power series across its removable
  singularity at s = 1) and ``h`` is a rapidly decaying integral over
  [0, inf), computed by one fixed-panel Gauss-Legendre rule vectorized over
  s.  Its panels are graded toward t = 0 on the scale a and run to a
  certified truncation point.  The integrand carries
  cosh(Im(s) arctan(t/a)) and, for small a, (a^2 + t^2)^(-Re(s)/2), so its
  absolute integral can lie many orders above ``|h|``; the estimate is the
  tail level plus the float64 floor of the panel sums, 16 eps times that
  integral, measured on the same nodes.  Right of Re s = -3 a point whose
  estimate exceeds the tolerance moves on to Euler-Maclaurin.
* "series-em" everywhere else: the defining series accelerated with an
  Euler-Maclaurin tail, which also provides the analytic continuation.  For
  a batch with Re s >= 0 the partial-sum length N and the number K <= 12 of
  Bernoulli corrections are planned in one pass from a remainder majorant
  over the batch (max|s| and min Re s in place of |s| and Re s), choosing
  the pair with the least work; the corrections are summed by Horner's rule
  and the majorant is the error estimate.  For Re s < 0 the partial-sum
  terms grow like (n+a)^(-Re s) and cancel against the boundary term, so N
  is the least count whose remainder after 12 corrections meets the
  tolerance, and the estimate adds the float64 rounding of those terms.

The scalar functions raise AccuracyError, naming s, a and the route, where
the estimate exceeds ``EvalConfig.abs_tol``; ``hermite_h`` raises
PrecisionFloorError where the rule's floor does.  The split form lets
consumers summing several Hurwitz zetas (Dirichlet L-functions) cancel pole
contributions exactly instead of numerically.

The module also evaluates the closed-form constants bounding |h|, |h'|, |d'|
and sup|f'| on boxes [-beta, beta]^2, consumed by the local-existence time
estimate of the PDE solver.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import AccuracyError, DomainError, PoleError, PrecisionFloorError

# float64 floor of a Gauss-Legendre sum, relative to the integral of |f|:
# 16 eps (eps = 2^-52) times int |f| bounds the rounding of the panel sums.
_EPS = 2.0 ** -52
_QUAD_FLOOR = 16.0 * _EPS

_TWO_PI = 2.0 * math.pi

# B_2, B_4, ..., B_28
_BERNOULLI = (
    1.0 / 6.0,
    -1.0 / 30.0,
    1.0 / 42.0,
    -1.0 / 30.0,
    5.0 / 66.0,
    -691.0 / 2730.0,
    7.0 / 6.0,
    -3617.0 / 510.0,
    43867.0 / 798.0,
    -174611.0 / 330.0,
    854513.0 / 138.0,
    -236364091.0 / 2730.0,
    8553103.0 / 6.0,
    -23749461029.0 / 870.0,
)
# B_{2j} / (2j)!  for j = 1..14
_EM_COEF = tuple(b / math.factorial(2 * (j + 1)) for j, b in enumerate(_BERNOULLI))
# Most corrections summed; the next coefficient bounds the remainder.
_EM_MAX_CORRECTIONS = 12
# Cost of one Horner step of the corrections, in units of one partial-sum
# term (a complex power): per point, and per call for numpy's dispatch on a
# short array.  Timed with numpy 2.4 on one x86-64 core at batch sizes 1 to
# 16384: about 0.08 per point and 180 per call, rounded here.
_EM_STEP_COST_PER_POINT = 0.1
_EM_STEP_OVERHEAD = 150.0


@dataclass(frozen=True)
class EvalConfig:
    """Tolerance for zeta evaluations.

    abs_tol   target absolute error of a scalar evaluation; the scalar entry
              points raise AccuracyError where the router's estimate exceeds it
    """

    abs_tol: float = 1e-10

    def __post_init__(self):
        if not self.abs_tol > 0:
            raise DomainError("abs_tol must be positive")

    @property
    def split_tol(self) -> float:
        """Tolerance handed to the router: min(1e-12, abs_tol / 10)."""
        return min(1e-12, self.abs_tol / 10.0)


DEFAULT_CONFIG = EvalConfig()


def _check_alpha(alpha) -> float:
    alpha = float(alpha)
    if not 0.0 < alpha <= 1.0:
        raise DomainError(f"alpha must lie in (0, 1], got {alpha}")
    return alpha


def _at(s, alpha, route: str) -> str:
    return f"at s={s!r}, alpha={alpha!r} (route {route})"


# ---------------------------------------------------------------------------
# The entire function f(u) = (e^u - 1)/u and its derivative.
# ---------------------------------------------------------------------------

_F_SERIES_RADIUS = 0.5
_F_SERIES_TERMS = 20


def _horner_series(u, coefs):
    acc = np.full_like(u, coefs[0])
    for c in coefs[1:]:
        acc = acc * u + c
    return acc


# f(u) = sum_{k>=0} u^k/(k+1)!  and  f'(u) = sum_{k>=1} k u^{k-1}/(k+1)!,
# coefficients from the highest power down
_F_COEFS = tuple(1.0 / math.factorial(k + 1) for k in range(_F_SERIES_TERMS, -1, -1))
_FP_COEFS = tuple(k / math.factorial(k + 1) for k in range(_F_SERIES_TERMS, 0, -1))


def _entire(u, coefs, closed):
    """Power series with ``coefs`` for |u| < 0.5, ``closed(u)`` elsewhere."""
    u = np.asarray(u, dtype=complex)
    scalar = u.shape == ()
    u = np.atleast_1d(u)
    out = np.empty_like(u)
    small = np.abs(u) < _F_SERIES_RADIUS
    if small.any():
        out[small] = _horner_series(u[small], coefs)
    if (~small).any():
        out[~small] = closed(u[~small])
    return complex(out[0]) if scalar else out


def expm1_over(u):
    """f(u) = (e^u - 1)/u, entire; power series for |u| < 0.5."""
    return _entire(u, _F_COEFS, lambda v: (np.exp(v) - 1.0) / v)


def expm1_over_deriv(u):
    """f'(u) = (e^u (u - 1) + 1)/u^2, entire; power series for |u| < 0.5."""
    return _entire(u, _FP_COEFS, lambda v: (np.exp(v) * (v - 1.0) + 1.0) / (v * v))


# ---------------------------------------------------------------------------
# The entire part d(s, alpha) = (alpha^(1-s) - 1)/(s - 1) + 1/(2 alpha^s).
# ---------------------------------------------------------------------------

def hermite_d_many(s, alpha: float) -> np.ndarray:
    alpha = _check_alpha(alpha)
    s = np.asarray(s, dtype=complex)
    if alpha == 1.0:
        return np.full_like(s, 0.5)
    ell = -math.log(alpha)  # > 0
    return ell * expm1_over(ell * (s - 1.0)) + 0.5 * np.exp(-s * math.log(alpha))


def hermite_d(s, alpha: float) -> complex:
    """Entire part d of the three-term split; d(1, a) = -ln(a) + 1/(2a)."""
    return complex(hermite_d_many(np.array([complex(s)]), alpha)[0])


def hermite_d_deriv_many(s, alpha: float) -> np.ndarray:
    alpha = _check_alpha(alpha)
    s = np.asarray(s, dtype=complex)
    if alpha == 1.0:
        return np.zeros_like(s)
    ell = -math.log(alpha)
    return (ell * ell * expm1_over_deriv(ell * (s - 1.0))
            + 0.5 * ell * np.exp(-s * math.log(alpha)))


def hermite_d_deriv(s, alpha: float) -> complex:
    """d/ds of hermite_d: (ln a)^2 f'(-ln(a)(s-1)) - ln(a)/(2 a^s)."""
    return complex(hermite_d_deriv_many(np.array([complex(s)]), alpha)[0])


# ---------------------------------------------------------------------------
# The integral part h(s, alpha) and its s-derivative: one graded fixed-panel
# Gauss-Legendre rule, vectorized over s.
# ---------------------------------------------------------------------------

_H_PANEL_WIDTH = 0.5
_H_PANEL_NODES = 16
# Share of the tolerance left to the dropped tail [T, inf) of the integral.
_H_TAIL_SHARE = 0.1


def _truncation_point(s: complex, alpha: float, threshold: float, deriv: bool) -> float:
    """Smallest T >= 1 on the 0.5 grid where the integrand envelope falls below ``threshold``.

    Envelope for h:   2 (a^2+t^2)^(|Re s|/2) (|s| pi/2 cosh(|Im s| pi/2)) e^{-2 pi t};
    for h' an extra factor (a^2+t^2)^(1/2) absorbs the arctan and log weights.
    For a batch, ``s`` is (max |Re s|) + i (max |Im s|), whose envelope
    dominates that of every point.
    """
    y = abs(s.imag)
    if y * math.pi / 2.0 > 700.0:
        raise AccuracyError(f"|Im s| too large for the integral {_at(s, alpha, 'hermite')}")
    ch = math.cosh(y * math.pi / 2.0)
    if deriv:
        amp = 2.1 * (math.pi / 2.0 + 0.5) * ch
        power = (abs(s.real) + 1.0) / 2.0
    else:
        amp = 2.0 * (abs(s) * math.pi / 2.0) * ch
        power = abs(s.real) / 2.0
    t = 1.0
    while t < 80.0:
        env = amp * (alpha * alpha + t * t) ** power * math.exp(-_TWO_PI * t)
        if env < threshold:
            return t
        t += 0.5
    raise AccuracyError("could not certify a truncation point for the h-integral "
                        + _at(s, alpha, "hermite"))


@lru_cache(maxsize=64)
def _h_panels(alpha: float, n_panels: int):
    """Node factors of the graded rule: (arctan(t/a), ln(a^2+t^2)/2, weights).

    The breakpoints alpha/2, alpha, 2 alpha, ... below 0.5 resolve the
    integrand's scale alpha near t = 0; ``n_panels`` panels of width 0.5
    follow, up to 0.5 n_panels (for alpha = 1 only those).  The weights
    carry the factor 2 of h and 1/(e^{2 pi t} - 1), so the rule multiplies
    by s-independent real factors.  The arrays are read-only.
    """
    edges = [0.0]
    b = alpha / 2.0
    while b < _H_PANEL_WIDTH:
        edges.append(b)
        b *= 2.0
    edges = np.array(edges + [_H_PANEL_WIDTH * k for k in range(1, n_panels + 1)])
    x0, w0 = np.polynomial.legendre.leggauss(_H_PANEL_NODES)
    lo = edges[:-1, None]
    half = 0.5 * (edges[1:, None] - lo)
    t = (lo + half * (x0 + 1.0)).ravel()
    factors = (np.arctan(t / alpha), 0.5 * np.log(alpha * alpha + t * t),
               (half * w0).ravel() * (2.0 / np.expm1(_TWO_PI * t)))
    for arr in factors:
        arr.setflags(write=False)
    return factors


def _h_rule(s: np.ndarray, alpha: float, tol: float, deriv: bool):
    """h (or h') at the 1-d points ``s``, with per-point error estimates.

    h(s, a) = 2 int_0^inf sin(s arctan(t/a)) / ((a^2+t^2)^(s/2) (e^{2 pi t} - 1)) dt.
    The panels run to the truncation point of the batch envelope at
    _H_TAIL_SHARE * tol.  Each estimate is that tail level plus the float64
    floor of the panel sums, _QUAD_FLOOR times the integral of |integrand|
    on the same nodes: the integrand carries cosh(Im(s) arctan(t/a)) and,
    for small a, (a^2+t^2)^(-Re(s)/2), so that integral can lie many orders
    above |h|.
    """
    tail = _H_TAIL_SHARE * tol
    worst = complex(float(np.max(np.abs(s.real))), float(np.max(np.abs(s.imag))))
    n_panels = math.ceil(_truncation_point(worst, alpha, tail, deriv) / _H_PANEL_WIDTH)
    angle, half_log, weights = _h_panels(alpha, n_panels)
    col = s[:, None]
    phase = col * angle
    num = np.sin(phase)
    if deriv:
        num = angle * np.cos(phase) - half_log * num
    vals = num * np.exp(-col * half_log)
    return vals @ weights, tail + _QUAD_FLOOR * (np.abs(vals) @ weights)


def _hermite_point(s, alpha: float, cfg: EvalConfig, deriv: bool) -> complex:
    alpha = _check_alpha(alpha)
    s = complex(s)
    h, est = _h_rule(np.array([s]), alpha, cfg.split_tol, deriv)
    value, est = complex(h[0]), float(est[0])
    if not est <= cfg.abs_tol:
        raise PrecisionFloorError(
            f"float64 floor of the h-rule: estimate {est:.1e} exceeds abs_tol "
            f"{cfg.abs_tol:.1e} {_at(s, alpha, 'hermite')}", estimate=value, residual=est)
    return value


def hermite_h(s, alpha: float, cfg: EvalConfig = DEFAULT_CONFIG) -> complex:
    """Integral part h of the three-term split, to within cfg.abs_tol.

    Raises PrecisionFloorError, naming s, alpha and the route, where the
    rule's estimate (tail level plus float64 floor) exceeds cfg.abs_tol.
    """
    return _hermite_point(s, alpha, cfg, deriv=False)


def hermite_h_deriv(s, alpha: float, cfg: EvalConfig = DEFAULT_CONFIG) -> complex:
    """d/ds of hermite_h, by the same rule and with the same check."""
    return _hermite_point(s, alpha, cfg, deriv=True)


# ---------------------------------------------------------------------------
# Euler-Maclaurin route (also the analytic continuation for large |Im s|).
# ---------------------------------------------------------------------------

def _em_plan(s: np.ndarray, alpha: float, tol: float, want_deriv: bool):
    """Term count N, correction count K and error bound for a group with Re s >= 0.

    After K corrections the remainder is R = int_N^inf P(x) (s)_{2K+2}
    (x+a)^(-s-2K-2) dx, where P = (B_{2K+2}({x}) - B_{2K+2})/(2K+2)! keeps
    one sign and averages -C_{K+1} over each period, so against decreasing
    convex weights it counts as |C_{K+1}| (Edwards, Riemann's Zeta Function,
    6.4).  Over the whole group, with S = max|s|, r = min Re s >= 0,
    p = r+2K+1 and |(s)_{2K+2}| <= Pi = prod_{i=0}^{2K+1} (S+i), the
    majorant

        |R|  <= M(N+a),   M(x) = |C_{K+1}| Pi x^(-p) / p,
        |R'| <= M(N+a) (sum_{i=0}^{2K+1} 1/(S+i) + ln(N+a) + 1/p)

    holds at every point; the first is also at least the usual estimate
    |first omitted correction| |s+2K+1|/(Re s+2K+1).  For each K it is
    solved for the least N meeting ``tol`` (for the value, and with
    ``want_deriv`` for the derivative as well).  The pair with the least
    work wins: one complex power per point and term, and per correction one
    Horner step costing _EM_STEP_COST_PER_POINT terms per point plus
    _EM_STEP_OVERHEAD per call.  Returns (N, K, bound at that pair).
    """
    big_s = max(float(np.max(np.abs(s))), 1e-300)  # s = 0 zeroes every correction
    re_min = float(np.min(s.real))
    log_tol = math.log(tol)
    # log Pi and sum 1/(S+i) over i = 0..2K+1, grown with K
    log_rising = math.log(big_s) + math.log(big_s + 1.0)
    harmonic = 1.0 / big_s + 1.0 / (big_s + 1.0)
    best = None
    for k in range(1, _EM_MAX_CORRECTIONS + 1):
        for i in (2 * k, 2 * k + 1):
            log_rising += math.log(big_s + i)
            harmonic += 1.0 / (big_s + i)
        power = re_min + 2 * k + 1
        log_amp = math.log(abs(_EM_COEF[k])) + log_rising - math.log(power)

        def factor(x):
            return max(1.0, harmonic + math.log(x) + 1.0 / power) if want_deriv else 1.0

        def bound(x):
            return math.exp(log_amp - power * math.log(x)) * factor(x)

        # M(x) factor(x) = tol; factor grows like ln x, so a few fixed-point
        # rounds from below leave at most a step or two to the loop
        x = 1.0 + alpha
        for _ in range(3 if want_deriv else 1):
            x = max(1.0 + alpha, math.exp((log_amp + math.log(factor(x)) - log_tol) / power))
        n_terms = math.ceil(x - alpha)  # >= 1, as x >= 1+a
        while bound(n_terms + alpha) > tol:
            n_terms += 1
        work = s.size * n_terms + k * (_EM_STEP_COST_PER_POINT * s.size + _EM_STEP_OVERHEAD)
        if best is None or work < best[0]:
            best = (work, n_terms, k, bound(n_terms + alpha))
    return best[1:]


def _em_negative_plan(s: np.ndarray, alpha: float, tol: float, want_deriv: bool):
    """Term count N and error estimate for a group with some Re s < 0.

    With K = 12 corrections the remainder at a point is at most
    A (N+a)^(-p), p = Re s + 2K + 1: the first omitted correction
    |C_{K+1} (s)_{2K+1}| (N+a)^(-p) times the remainder factor
    |s+2K+1| / max(p, 1); for the derivative |(s)_{2K+1}| becomes
    |d/ds (s)_{2K+1}| + |(s)_{2K+1}| ln(N+a).  N is the least count meeting
    ``tol`` for the value at every point, because the partial-sum terms
    grow like (n+a)^(-Re s) here and a larger N only adds cancellation
    against the boundary term (N+a)^(1-s)/(s-1).  The estimate adds the
    float64 rounding of those terms: each carries a relative error of about
    eps (3 + |s| ln(N+a)) from the rounded logarithm and the complex
    exponential, the sum a further eps log2(N) of its absolute sum, and the
    derivative's weights ln(n+a) scale that by up to 1 + ln(N+a).
    Returns (N, estimate).
    """
    k = _EM_MAX_CORRECTIONS
    power = s.real + 2 * k + 1
    factors = np.abs(s + np.arange(2 * k + 1)[:, None])
    rising = np.prod(factors, axis=0)
    drising = 0.0
    if want_deriv:
        # |d/ds (s)_{2K+1}| <= sum_i prod_{j != i} |s+j|, from prefix and
        # suffix products so that a zero factor stays exact
        ones = np.ones((1, s.size))
        prefix = np.cumprod(np.vstack([ones, factors[:-1]]), axis=0)
        suffix = np.cumprod(np.vstack([ones, factors[:0:-1]]), axis=0)[::-1]
        drising = (prefix * suffix).sum(axis=0)
    scale = abs(_EM_COEF[k]) * np.abs(s + 2 * k + 1) / np.maximum(power, 1.0)

    def amplitude(x):
        return scale * (rising * (math.log(x) if want_deriv else 1.0) + drising)

    # remainder amplitude(N+a) (N+a)^(-power) = tol; the ln(N+a) weight of
    # the derivative grows slowly, so a few fixed-point rounds from below.
    # Near Re s = -2K-1 no moderate N meets tol and a larger one only adds
    # cancellation, so N stops at 10 + max|s|; the estimate then says so.
    cap = 10.0 + float(np.max(np.abs(s)))
    x = 1.0 + alpha
    for _ in range(3 if want_deriv else 1):
        reach = (amplitude(max(x, math.e)) / tol) ** (1.0 / np.maximum(power, 1.0))
        x = min(cap, max(x, float(np.max(reach))))
    n_terms = math.ceil(x - alpha)
    big_a = n_terms + alpha
    la = math.log(big_a)
    remainder = amplitude(big_a) * np.exp(-power * la)
    # sum over n < N of |(n+a)^(-s)|: the integral bound where the terms
    # grow (Re s <= 0), else at most a^(-Re s) + N
    re = s.real
    terms = np.where(re <= 0.0, np.exp((1.0 - re) * la) / (1.0 - re), alpha ** -re + n_terms)
    boundary = np.exp((1.0 - re) * la) / np.abs(s - 1.0)
    rounding = _EPS * ((3.0 + np.abs(s) * la + math.log2(n_terms + 1)) * terms
                       + (3.0 + np.abs(s - 1.0) * la) * boundary)
    if want_deriv:
        rounding = rounding * (1.0 + la)
    return n_terms, float(np.max(remainder + rounding))


def _em_split(s: np.ndarray, alpha: float, n_terms: int, n_corr: int, want_deriv: bool):
    """Euler-Maclaurin evaluation with the 1/(s-1) pole kept symbolic.

    Returns (regular, d_regular or None) with
    zeta(s, alpha) = regular + 1/(s-1) and
    zeta'(s, alpha) = d_regular - 1/(s-1)^2, for ``n_terms`` partial-sum
    terms and ``n_corr`` corrections.
    """
    s = np.asarray(s, dtype=complex)
    flat = s.ravel()
    n = np.arange(n_terms, dtype=float)
    logb = np.log(n + alpha)

    # partial sum of the defining series (chunked to bound memory)
    partial = np.zeros_like(flat)
    dpartial = np.zeros_like(flat) if want_deriv else None
    chunk = max(1, int(4e6) // max(n_terms, 1))
    for i in range(0, flat.size, chunk):
        sl = flat[i:i + chunk, None]
        mat = np.exp(-sl * logb[None, :])
        partial[i:i + chunk] = mat.sum(axis=1)
        if want_deriv:
            dpartial[i:i + chunk] = -(mat * logb[None, :]).sum(axis=1)

    big_a = n_terms + alpha
    la = math.log(big_a)
    w = -(flat - 1.0) * la
    # (N+a)^(1-s)/(s-1) = -ln(N+a) f(-(s-1) ln(N+a)) + 1/(s-1)
    reg_int = -la * expm1_over(w)

    # (N+a)^(-s) [1/2 + sum_{j<=K} C_j (s)_{2j-1} (N+a)^(1-2j)], the sum by
    # Horner's rule: (s/(N+a)) (D_1 + v_1 (D_2 + v_2 (... + v_{K-1} D_K)))
    # with v_j = (s+2j-1)(s+2j) and D_j = C_j (N+a)^(2-2j)
    inv_a2 = 1.0 / (big_a * big_a)
    acc = np.full_like(flat, _EM_COEF[n_corr - 1] * inv_a2 ** (n_corr - 1))
    dacc = np.zeros_like(flat) if want_deriv else None
    for j in range(n_corr - 1, 0, -1):
        v = (flat + (2 * j - 1)) * (flat + 2 * j)
        if want_deriv:
            dacc = dacc * v + acc * (2.0 * flat + (4 * j - 1))
        acc = acc * v + _EM_COEF[j - 1] * inv_a2 ** (j - 1)
    decay = np.exp(-flat * la)          # (N+a)^{-s}
    tail = 0.5 + flat * acc / big_a
    regular = (partial + reg_int + decay * tail).reshape(s.shape)
    if not want_deriv:
        return regular, None
    dreg_int = la * la * expm1_over_deriv(w)
    dtail = (acc + flat * dacc) / big_a - la * tail
    return regular, (dpartial + dreg_int + decay * dtail).reshape(s.shape)


def euler_maclaurin_split(s, alpha: float, tol: float = 1e-12,
                          want_deriv: bool = False):
    """Euler-Maclaurin split evaluation (vectorized).

    Returns (regular, d_regular or None, error_estimate).  With Re s >= 0 on
    every point, N and K come from the remainder majorant of _em_plan, in
    one pass, and the estimate is that majorant (<= ``tol``); with
    ``want_deriv`` it bounds the derivative's remainder too; it does not
    count float64 rounding.  Otherwise N is the least count whose remainder
    bound after 12 corrections meets ``tol`` at every point, and the
    estimate adds the float64 rounding of the growing partial-sum terms
    (see _em_negative_plan).
    """
    alpha = _check_alpha(alpha)
    s = np.asarray(s, dtype=complex)
    if s.size == 0:
        return s.copy(), (s.copy() if want_deriv else None), 0.0
    if float(np.min(s.real)) >= 0.0:
        n_terms, n_corr, est = _em_plan(s.ravel(), alpha, tol, want_deriv)
        return (*_em_split(s, alpha, n_terms, n_corr, want_deriv), est)
    n_terms, est = _em_negative_plan(s.ravel(), alpha, tol, want_deriv)
    return (*_em_split(s, alpha, n_terms, _EM_MAX_CORRECTIONS, want_deriv), est)


# ---------------------------------------------------------------------------
# The Hurwitz router and the assembled Hurwitz / Riemann zeta.
# ---------------------------------------------------------------------------

# Left of Re s = -3 the Euler-Maclaurin boundary terms grow like
# (N+a)^(1-Re s) and their float64 cancellation against the partial sum
# costs about eps times that; the h-integrand is benign there while its
# envelope factor cosh(|Im s| pi/2) stays moderate, which it does up to
# |Im s| = 15 (cosh(15 pi/2) ~ 6e9).  A size-1 call pays numpy's per-call
# overhead on every Horner step of Euler-Maclaurin, so there the h-rule is
# also the cheaper route (about 2.5x at alpha = 1, s = 2) and the more
# accurate one, and it serves the strip up to Re s = 8, where the series
# needs few terms.  Batches keep Euler-Maclaurin right of Re s = -3: its
# cost per point falls below 1 us.
_H_RULE_RE_LIMIT = -3.0
_SINGLE_H_RULE_RE_LIMIT = 8.0
HERMITE_IM_LIMIT = 15.0


def _on_h_rule(s: np.ndarray) -> np.ndarray:
    """The route predicate: where the router tries the h-rule.

    |Im s| <= 15 and Re s < -3; for a size-1 call, Re s < 8.
    """
    re_limit = _SINGLE_H_RULE_RE_LIMIT if s.size == 1 else _H_RULE_RE_LIMIT
    return (s.real < re_limit) & (np.abs(s.imag) <= HERMITE_IM_LIMIT)


def _split_many(s, alpha: float, tol: float, deriv: bool):
    """The Hurwitz router: regular parts, per-point error estimates, routes.

    Where _on_h_rule holds a point takes d (or d') plus the graded h-rule;
    right of Re s = -3 it moves on to Euler-Maclaurin when the h-rule's
    estimate exceeds ``tol`` (its float64 floor).  Euler-Maclaurin takes
    the rest, grouped by the sign of Re s so a large-|Im| point cannot force
    a term count that degrades the cancellation-sensitive negative-Re group.
    Returns (values, estimates, h-rule mask), all shaped like ``s``.
    """
    alpha = _check_alpha(alpha)
    s = np.asarray(s, dtype=complex)
    flat = s.ravel()
    out = np.empty_like(flat)
    est = np.empty(flat.shape)
    on_h = _on_h_rule(flat)
    if on_h.any():
        sf = flat[on_h]
        h, est_h = _h_rule(sf, alpha, tol, deriv)
        keep = (est_h <= tol) | (sf.real < _H_RULE_RE_LIMIT)
        on_h[on_h] = keep
        sf = sf[keep]
        entire = hermite_d_deriv_many(sf, alpha) if deriv else hermite_d_many(sf, alpha)
        out[on_h] = entire + h[keep]
        est[on_h] = est_h[keep]
    rest, negative = ~on_h, flat.real < 0.0
    for group in (rest & negative, rest & ~negative):
        if group.any():
            reg, dreg, est[group] = euler_maclaurin_split(flat[group], alpha, tol=tol,
                                                          want_deriv=deriv)
            out[group] = dreg if deriv else reg
    return out.reshape(s.shape), est.reshape(s.shape), on_h.reshape(s.shape)


def hurwitz_split_many(s, alpha: float, tol: float = 1e-12):
    """Vectorized regular part R with zeta = R + 1/(s-1).

    Returns (R, est), est holding each point's error estimate.
    """
    return _split_many(s, alpha, tol, deriv=False)[:2]


def hurwitz_deriv_split_many(s, alpha: float, tol: float = 1e-12):
    """Vectorized regular part R' with zeta' = R' - 1/(s-1)^2. Returns (R', est)."""
    return _split_many(s, alpha, tol, deriv=True)[:2]


def _split_point(s, alpha: float, cfg: EvalConfig, deriv: bool):
    """One point through the router: (value, estimate, route).

    Raises AccuracyError, naming s, alpha and the route, when the value is
    not finite or its estimate exceeds cfg.abs_tol.
    """
    s = complex(s)
    reg, est, on_h = _split_many(np.array([s]), alpha, cfg.split_tol, deriv)
    value, est = complex(reg[0]), float(est[0])
    route = "hermite" if on_h[0] else "series-em"
    if not (est <= cfg.abs_tol and np.isfinite(value)):
        raise AccuracyError(f"estimate {est:.1e} exceeds abs_tol {cfg.abs_tol:.1e} "
                            + _at(s, alpha, route), estimate=value, residual=est)
    return value, est, route


def hurwitz_regular_split(s, alpha: float, cfg: EvalConfig = DEFAULT_CONFIG):
    """Regular part R with zeta(s, alpha) = R + 1/(s-1).

    Returns (value, error_estimate, route); valid at s = 1 as well, where R
    is the finite part of the Laurent expansion.
    """
    return _split_point(s, alpha, cfg, deriv=False)


def hurwitz_regular_split_deriv(s, alpha: float, cfg: EvalConfig = DEFAULT_CONFIG):
    """Regular part R' with zeta'(s, alpha) = R' - 1/(s-1)^2.

    Returns (value, error_estimate, route).
    """
    return _split_point(s, alpha, cfg, deriv=True)


def _check_pole(s: complex) -> complex:
    if s == 1:
        raise PoleError("zeta(s, alpha) has its pole at s = 1")
    return s


def eval_diagnostics(s, alpha: float, cfg: EvalConfig = DEFAULT_CONFIG):
    """(value, error_estimate, route) for one zeta(s, alpha) evaluation."""
    s = _check_pole(complex(s))
    reg, est, route = hurwitz_regular_split(s, alpha, cfg)
    return reg + 1.0 / (s - 1.0), est, route


def hurwitz_zeta(s, alpha: float, cfg: EvalConfig = DEFAULT_CONFIG) -> complex:
    """Hurwitz zeta(s, alpha) for s != 1, alpha in (0, 1]."""
    return eval_diagnostics(s, alpha, cfg)[0]


def hurwitz_zeta_deriv(s, alpha: float, cfg: EvalConfig = DEFAULT_CONFIG) -> complex:
    """d/ds of hurwitz zeta: R'(s, alpha) - 1/(s-1)^2."""
    s = _check_pole(complex(s))
    return hurwitz_regular_split_deriv(s, alpha, cfg)[0] - 1.0 / (s - 1.0) ** 2


def riemann_zeta(s, cfg: EvalConfig = DEFAULT_CONFIG) -> complex:
    """zeta(s) = zeta(s, 1)."""
    return hurwitz_zeta(s, 1.0, cfg)


def riemann_zeta_deriv(s, cfg: EvalConfig = DEFAULT_CONFIG) -> complex:
    """zeta'(s) = d/ds zeta(s, 1)."""
    return hurwitz_zeta_deriv(s, 1.0, cfg)


# ---------------------------------------------------------------------------
# Closed-form bound constants on [-beta, beta]^2.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BoundConstants:
    """Sup-norm bounds on the split pieces over [-beta, beta]^2.

    h1    bound on |h|          2 (a_{a,b} + b_b)
    h2    bound on |h'|         I_1 + I_2 (closed-form majorants)
    d2    bound on |d'|         (ln 1/a)^2 E_{ln(1/a)(b+1)} + ln(1/a)/(2 a^b)
    e_r   sup|f'| constant at r = ln(1/a)(b+1), as consumed by d2
    a_ab  small-t piece of the h-bound
    b_b   tail piece of the h-bound (alpha-independent)

    At alpha = 1 the d-branch degenerates (d is the constant 1/2), so d2 and
    e_r are 0 there.
    """

    alpha: float
    beta: float
    h1: float
    h2: float
    d2: float
    e_r: float
    a_ab: float
    b_b: float


def f_prime_sup_bound(r: float) -> float:
    """E_r = e^r (2 r^2 + 6 r + 4) / r^2, bounding sup |f'| on [-r, r]^2."""
    r = float(r)
    if r <= 0:
        raise DomainError("r must be positive")
    return math.exp(r) * (2.0 * r * r + 6.0 * r + 4.0) / (r * r)


def bound_constants(alpha: float, beta: float) -> BoundConstants:
    """Evaluate the closed-form bound constants for given alpha, beta."""
    alpha = _check_alpha(alpha)
    beta = float(beta)
    if beta <= 0:
        raise DomainError("beta must be positive")
    pi = math.pi
    a_ab = (1.0 / (2.0 * pi)) * (1.0 + 1.0 / alpha ** 2) ** (beta / 2.0) * (
        beta / alpha + math.sinh(beta / alpha))
    b_b = (beta * pi / 2.0 + math.sinh(beta * pi / 2.0)) * (
        (2.0 ** (beta / 2.0) + 1.0) / pi
        + 2.0 ** (beta / 2.0) * math.gamma(beta + 1.0) / pi ** (beta + 1.0)
        + 2.0 / pi ** 3)
    h1 = 2.0 * (a_ab + b_b)

    i1 = ((1.0 + math.sinh(beta * pi / 2.0)) * (2.0 / alpha ** beta) * (pi / 2.0)
          * (math.sqrt((beta + 2.0) ** 2 + 4.0 * pi * pi * alpha * alpha)
             / (2.0 * pi * alpha)) ** (beta + 2.0)
          * (1.0 + (pi / 2.0) / (math.exp(beta + 2.0) - 1.0)))
    i2 = ((4.0 / alpha ** beta) * (beta + (2.0 / pi) * math.sinh(beta * pi / 2.0))
          * (pi / 2.0)
          * (math.sqrt((beta + 3.0) ** 2 + 4.0 * pi * pi * alpha * alpha)
             / (2.0 * pi * alpha)) ** (beta + 3.0)
          * (1.0 + (pi / 2.0) / (math.exp(beta + 3.0) - 1.0)))
    h2 = i1 + i2

    if alpha == 1.0:
        d2 = 0.0
        e_r = 0.0
    else:
        ell = math.log(1.0 / alpha)
        e_r = f_prime_sup_bound(ell * (beta + 1.0))
        d2 = ell * ell * e_r + ell / (2.0 * alpha ** beta)
    return BoundConstants(alpha=alpha, beta=beta, h1=h1, h2=h2, d2=d2,
                          e_r=e_r, a_ab=a_ab, b_b=b_b)


def d_sup_bound(alpha: float, beta: float, grid: int = 101) -> float:
    """Numerical stand-in for the |d| bound: 1.1 x sampled sup on a grid.

    No closed form is available for sup |d|; the constant only feeds the
    local-existence time estimate, where a safe sampled sup suffices.
    """
    alpha = _check_alpha(alpha)
    if beta <= 0:
        raise DomainError("beta must be positive")
    if alpha == 1.0:
        return 1.1 * 0.5  # d is identically 1/2
    x = np.linspace(-beta, beta, grid)
    ss = x[:, None] + 1j * x[None, :]
    vals = hermite_d_many(ss.ravel(), alpha)
    return 1.1 * float(np.max(np.abs(vals)))
