"""Hurwitz/Riemann zeta evaluation and the explicit sup-norm bound constants.

One router, ``hurwitz_split_many``, evaluates the regular part of zeta(s, a)
(the 1/(s-1) pole term kept symbolic), its derivative, or both from one
call, with a per-point error estimate and route, for batches, for all
residues of an L-function at once and, as size-1 calls, for every scalar
entry point.  One predicate, ``_on_h_rule``, marks the points that leave
Euler-Maclaurin: |Im s| <= 15 and Re s < -3, or Re s < 8 for a size-1 call.
The routes, as the router names them:

* "reflect" for a batch left of Re s = -3 (|Im s| <= 15) when a = 1 or a
  is a residue r/m of a given period m, as LFunctionHandle passes them:
  Hurwitz's formula (Apostol, Introduction to Analytic Number Theory,
  Thm 12.6) read at u = 1 - s,
  zeta(s, r/m) = 2 Gamma(u) (2 pi m)^(-u) sum_k cos(pi u/2 - 2 pi k r/m) zeta(u, k/m),
  turns the batch into m Euler-Maclaurin evaluations at Re u > 4, shared
  by every residue r.  ln Gamma and psi come from Stirling's series after
  an upward shift, with explicit remainders.  The estimate adds the
  Euler-Maclaurin estimates and the float64 rounding of every factor, in
  absolute terms, so it holds at the trivial zeros too.
* "hermite" for the other points the predicate marks: a size-1 call, and
  a batch whose a is not a residue of a given period.  It is the three-term
  split ``zeta(s, a) = 1/(s-1) + d(s, a) + h(s, a)`` where ``d`` is entire
  (closed form, with a power series across its removable singularity at
  s = 1) and ``h`` is a rapidly decaying integral over [0, inf), computed
  by one fixed-panel Gauss-Legendre rule vectorized over s.  Its panels are
  graded toward t = 0 on the scale a and run to a certified truncation
  point.  The integrand carries cosh(Im(s) arctan(t/a)) and, for small a,
  (a^2 + t^2)^(-Re(s)/2), so its absolute integral can lie many orders
  above ``|h|``; the estimate is the tail level plus the float64 floor of
  the panel sums, 16 eps times that integral, measured on the same nodes.
  Right of Re s = -3 a point whose estimate exceeds the tolerance moves on
  to Euler-Maclaurin.
* "series-em" everywhere else: the defining series accelerated with an
  Euler-Maclaurin tail, which also provides the analytic continuation.  For
  a batch with Re s >= 0 the partial-sum length N and the number K <= 12 of
  Bernoulli corrections are planned in one pass from a remainder majorant
  over the batch (max|s| and min Re s in place of |s| and Re s), choosing
  the pair with the least work; the corrections are summed by Horner's
  rule.  For Re s < 0 the partial-sum terms grow like (n+a)^(-Re s) and
  cancel against the boundary term, so N is the least count whose
  remainder after 12 corrections meets the tolerance.  Either estimate is
  the remainder bound plus the float64 rounding of the kernel.  For a = 1 a
  wide batch takes the terms n^(-s), n = 1..N+1, from a sieved table
  (_sieved_sums): only the prime rows take a complex exp, every other row
  is the product of two earlier rows, and the rows are summed by pairwise
  halving.  It runs where the exps it saves pay for its passes
  (_sieve_pays); smaller batches, size-1 calls among them, keep one exp per
  term, bit for bit.  Where it runs the rounding counted per term grows
  from eps (3 + |s| ln n) to eps (4 Omega(n) + |s| ln n).

The scalar functions raise AccuracyError, naming s, a and the route, where
the estimate exceeds both ``EvalConfig.abs_tol`` and the float64 floor of
the value (``EvalConfig.accepts``, with the text of ``EvalConfig.rejection``,
which the L-function and the zero census share); ``hermite_h`` raises
PrecisionFloorError where the rule's floor exceeds abs_tol.  The split form
lets consumers summing several Hurwitz zetas (Dirichlet L-functions) cancel
pole contributions exactly instead of numerically.

The module also evaluates the closed-form constants bounding |h|, |h'|, |d'|
and sup|f'| on boxes [-beta, beta]^2, consumed by the local-existence time
estimate of the PDE solver.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache, reduce

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
# Cost of one pass of the sieved power table (a = 1), in the same units: a
# pass fills a set of rows, and its overhead is numpy's dispatch per call.
# The table runs where the complex powers it saves pay for its passes.
# Timed at 32 points, it breaks even near N = 30, and at 64 points near
# N = 13, where it saves about 1.6 times this cost per pass.
_SIEVE_PASS_OVERHEAD = 150.0
# Complex elements per block of the partial-sum kernels.  A 256 kB block
# stays in a core's L2 cache through the table's passes: blocks of 2^13 to
# 2^15 timed alike, and 2^18 1.6 to 2 times slower on the 1501-point sigma0
# row and the 5800-point census row (x86-64, 2 MB L2 per core).
_EM_BLOCK = 1 << 14


@dataclass(frozen=True)
class EvalConfig:
    """Tolerance for zeta evaluations.

    abs_tol   target absolute error of a scalar evaluation; the scalar entry
              points raise AccuracyError where the router's estimate exceeds
              it and the float64 floor of the value itself (see ``accepts``)
    """

    abs_tol: float = 1e-10

    def __post_init__(self):
        if not self.abs_tol > 0:
            raise DomainError("abs_tol must be positive")

    def accepts(self, value, est):
        """True iff ``value`` is finite and ``est`` <= max(abs_tol, 16 eps |value|).

        A float64 value is held only to half an ulp, and the rounding that
        the estimates count grows with it, so far above abs_tol / eps in
        size (|value| > 3e4 at the default) only a few ulps can be asked for.
        Elementwise on arrays, returning a boolean array.
        """
        ok = np.isfinite(value) & (est <= np.maximum(self.abs_tol, _QUAD_FLOOR * np.abs(value)))
        return bool(ok) if np.ndim(ok) == 0 else ok

    def rejection(self, value, est, where: str) -> AccuracyError:
        """The AccuracyError for an estimate ``accepts`` refuses.

        ``where`` names the point and route: "at s=..., ... (route ...)".
        """
        return AccuracyError(f"estimate {est:.1e} exceeds abs_tol {self.abs_tol:.1e} {where}",
                             estimate=value, residual=est)

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
    worst = complex(float(np.abs(s.real).max()), float(np.abs(s.imag).max()))
    n_panels = math.ceil(_truncation_point(worst, alpha, tail, deriv) / _H_PANEL_WIDTH)
    angle, half_log, weights = _h_panels(alpha, n_panels)
    col = s[:, None]
    phase = col * angle
    num = np.sin(phase)
    if deriv:
        num = angle * np.cos(phase) - half_log * num
    vals = num * np.exp(-col * half_log)
    return vals @ weights, tail + _QUAD_FLOOR * (np.abs(vals) @ weights)


def hermite_h(s, alpha: float, cfg: EvalConfig = DEFAULT_CONFIG) -> complex:
    """Integral part h of the three-term split, to within cfg.abs_tol.

    Raises PrecisionFloorError, naming s, alpha and the route, where the
    rule's estimate (tail level plus float64 floor) exceeds cfg.abs_tol.
    """
    alpha = _check_alpha(alpha)
    s = complex(s)
    h, est = _h_rule(np.array([s]), alpha, cfg.split_tol, False)
    value, est = complex(h[0]), float(est[0])
    if not est <= cfg.abs_tol:
        raise PrecisionFloorError(
            f"float64 floor of the h-rule: estimate {est:.1e} exceeds abs_tol "
            f"{cfg.abs_tol:.1e} {_at(s, alpha, 'hermite')}", estimate=value, residual=est)
    return value


# ---------------------------------------------------------------------------
# Euler-Maclaurin route (also the analytic continuation for large |Im s|).
# ---------------------------------------------------------------------------

def _em_tail_majorant(big_s: float, big_a: float, n_corr: int) -> float:
    """Bound on |1/2 + sum_{j<=K} C_j (s)_{2j-1} (N+a)^(1-2j)| over |s| <= big_s."""
    total, rising, power = 0.5, big_s, 1.0 / big_a
    for j in range(1, n_corr + 1):
        total += abs(_EM_COEF[j - 1]) * rising * power
        rising *= (big_s + 2 * j - 1) * (big_s + 2 * j)
        power /= big_a * big_a
    return total


@lru_cache(maxsize=32)
def _em_logs(alpha: float, n_terms: int):
    """ln(n+a) for n = 0..N, and the rounding weight columns of _em_rounding.

    The columns are (w, w |ln(n+a)|) with w = 1 for the value and with
    w = max(1, |ln(n+a)|) for the derivative.  The arrays are read-only.
    """
    logs = np.log(np.arange(n_terms + 1) + alpha)
    abs_logs = np.abs(logs)
    deriv_w = np.maximum(1.0, abs_logs)
    cols = (np.stack([np.ones_like(logs), abs_logs], axis=1),
            np.stack([deriv_w, deriv_w * abs_logs], axis=1))
    for arr in (logs, *cols):
        arr.setflags(write=False)
    return logs, cols


@lru_cache(maxsize=32)
def _sieve_plan(n_rows: int):
    """The plan of the sieved power table n^(-s), n = 1..``n_rows``, n in row n-1.

    n^(-s) is completely multiplicative, so only the prime rows need an
    exp; every other row is the product of the rows of its smallest prime
    factor and of its cofactor.  Returns (prime rows, their -ln p as a
    column, passes, Omega): the passes fill the composite rows grouped by
    Omega(n), the number of prime factors of n with multiplicity, in
    increasing order, each a (rows, factor rows, cofactor rows) triple whose
    factors an earlier pass or the primes filled, so there are
    floor(log2 n_rows) - 1 of them.  Omega(n), indexed by n, sizes the
    rounding.  The arrays are read-only.
    """
    spf = list(range(n_rows + 1))          # smallest prime factor
    for p in range(2, math.isqrt(n_rows) + 1):
        if spf[p] == p:
            for q in range(p * p, n_rows + 1, p):
                if spf[q] == q:
                    spf[q] = p
    omega = [0, 0]
    for n in range(2, n_rows + 1):
        omega.append(omega[n // spf[n]] + 1)
    omega = np.array(omega)
    primes = np.flatnonzero(omega == 1)
    passes = []
    for k in range(2, int(omega.max()) + 1):
        n = np.flatnonzero(omega == k)
        factor = np.array([spf[i] for i in n])
        passes.append((n - 1, factor - 1, n // factor - 1))
    prime_rows, neg_logs = primes - 1, -np.log(primes.astype(float))[:, None]
    for arr in (prime_rows, neg_logs, omega, *(a for step in passes for a in step)):
        arr.setflags(write=False)
    return prime_rows, neg_logs, tuple(passes), omega


def _sieve_pays(points: int, n_terms: int) -> bool:
    """The selection rule of the sieved table: where its saved exps pay for its passes.

    It saves points (N+1 - pi(N+1)) complex powers and costs
    _SIEVE_PASS_OVERHEAD per pass, the prime exp and the product passes,
    floor(log2(N+1)) in all.  The plan is built only where the rule can hold.
    """
    n_rows = n_terms + 1
    cost = _SIEVE_PASS_OVERHEAD * (n_rows.bit_length() - 1)
    return points * n_rows >= cost and points * (n_rows - len(_sieve_plan(n_rows)[0])) >= cost


def _halving_sum(rows: np.ndarray) -> np.ndarray:
    """Sum over the leading axis by pairwise halving, in place: depth ceil(log2 n)."""
    n = rows.shape[0]
    while n > 1:
        half = n // 2
        rows[:half] += rows[n - half:n]
        n -= half
    return rows[0]


def _sieved_sums(flat: np.ndarray, n_terms: int, want_deriv: bool):
    """Sums of n^(-s) and -ln n n^(-s) over n = 1..N, and (N+1)^(-s), from the sieved table.

    The table holds n^(-s), n = 1..N+1, as rows with the points along the
    contiguous axis, blocked over points to _EM_BLOCK elements; rows are
    summed by pairwise halving.  Returns (partial, dpartial or None, decay).
    """
    rows = n_terms + 1
    primes, neg_logs, passes, _ = _sieve_plan(rows)
    logs = _em_logs(1.0, n_terms)[0][:n_terms, None]         # ln n, n = 1..N
    partial = np.empty_like(flat)
    dpartial = np.empty_like(flat) if want_deriv else None
    decay = np.empty_like(flat)
    block = max(1, _EM_BLOCK // rows)
    for i in range(0, flat.size, block):
        sl = flat[i:i + block]
        table = np.empty((rows, sl.size), dtype=complex)
        table[0] = 1.0
        table[primes] = np.exp(neg_logs * sl)
        for dst, factor, cofactor in passes:
            table[dst] = table[factor] * table[cofactor]
        decay[i:i + block] = table[n_terms]
        if want_deriv:
            dpartial[i:i + block] = -_halving_sum(logs * table[:n_terms])
        partial[i:i + block] = _halving_sum(table[:n_terms])
    return partial, dpartial, decay


@lru_cache(maxsize=64)
def _em_weighted_sums(alpha: float, n_terms: int, ends: tuple, want_deriv: bool,
                      sieved: bool):
    """Sums over n = 1..N-1 of (n+a)^(-r) times the weight columns of _em_logs, per r in ``ends``.

    ``sieved`` (a = 1) appends the sum weighted by the first column times
    Omega(n+1).  Cached, as a census or a scan row repeats its real part.
    """
    logs, cols = _em_logs(alpha, n_terms)
    powers = np.exp(np.multiply.outer(ends, -logs[1:-1]))
    cols = cols[want_deriv][1:-1]
    sums = powers @ cols
    if sieved:
        omega = _sieve_plan(n_terms + 1)[3][2:-1]
        sums = np.column_stack([sums, powers @ (cols[:, 0] * omega)])
    return tuple(map(tuple, sums.tolist()))


def _em_rounding(re: np.ndarray, re_min: float, re_max: float, big_s: float, alpha: float,
                 n_terms: int, n_corr: int, exact_lead: bool, want_deriv: bool,
                 sieved: bool):
    """Float64 rounding of _em_split at points with real parts ``re`` and |s| <= big_s.

    Each partial-sum term (n+a)^(-s) = exp(-s ln(n+a)) carries a relative
    error of about eps (3 + |s| |ln(n+a)|), from the rounded logarithm and
    the product that forms the phase, and the sum adds eps log2 N; the
    derivative's terms ln(n+a) (n+a)^(-s) carry |ln(n+a)| times that.  With
    ``sieved`` (a = 1, the table of _sieved_sums ran) a term n^(-s) is a
    product of Omega(n) such powers, one per prime factor, and Omega(n) - 1
    complex products, so it carries eps (4 Omega(n) + |s| ln n); the
    halving sum adds eps log2 N.  The Horner tail (N+a)^(-s) (1/2 + ...)
    adds 2K+2 roundings of at most _em_tail_majorant (N+a)^(-Re s), beyond
    those of the power.  The boundary term -ln(N+a) f(w),
    w = (1-s) ln(N+a), f(w) = (e^w - 1)/w, is off by
    eps ln(N+a) ((|w|+3) |e^w| + 2) / max(|w|, 1/2), where
    |w| >= |Re s - 1| ln(N+a).  The first term, a^(-s), is taken at each
    point, as it dominates for small a; with ``exact_lead`` _leading_power
    forms it to a few eps.  The rest is one number for the group, summed
    exactly over n at ``re_min`` and ``re_max``: it is a positive sum of
    exponentials in Re s, so convex, and the larger end bounds the interval.
    Returns a number for a = 1, else an array like ``re``.
    """
    logs = _em_logs(alpha, n_terms)[0]
    la = float(logs[-1])
    ends = (re_min,) if re_min == re_max else (re_min, re_max)
    sums = _em_weighted_sums(alpha, n_terms, ends, want_deriv, sieved)
    scale = 1.0 + la if want_deriv else 1.0
    w_floor = max(0.5, max(1.0 - re_max, re_min - 1.0, 0.0) * la)
    step = math.log2(n_terms + 1)
    if sieved:
        power = 4.0 * float(_sieve_plan(n_terms + 1)[3][-1])
    else:
        step += 3.0
        power = 3.0
    tail = _em_tail_majorant(big_s, n_terms + alpha, n_corr)
    boundary = ((power + big_s * la + 2 * n_corr + 2) * tail
                + la * (1.0 + 3.0 / w_floor) * (n_terms + alpha))
    rest = max(step * plain + big_s * logged + scale * math.exp(-r * la) * boundary
               for r, (plain, logged, *_) in zip(ends, sums))
    if sieved:
        rest += 4.0 * max(omega for _, _, omega in sums)
    rest += scale * la * 2.0 / w_floor
    if alpha == 1.0:
        return _EPS * (step + rest)        # the first term is 1
    if exact_lead:
        # exp, the correction and the final sum, about 4 eps, and the
        # derivative's term ln(a) a^(-s), 6 eps |ln a|; with margin
        lead = max(6.0, 8.0 * abs(logs[0])) if want_deriv else 6.0
    else:
        lead = (step + big_s * abs(logs[0])) * (max(1.0, abs(logs[0])) if want_deriv else 1.0)
    return _EPS * (lead * np.exp(-logs[0] * re) + rest)


def _em_plan(s: np.ndarray, alpha: float, tol: float, want_deriv: bool, re_min: float):
    """Term count N, correction count K and error bounds for a group with Re s >= 0.

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
    _EM_STEP_OVERHEAD per call.  Returns (N, K, remainder bound at that
    pair, S).
    """
    big_s = max(float(np.abs(s).max()), 1e-300)  # s = 0 zeroes every correction
    log_tol = math.log(tol)
    # log Pi and sum 1/(S+i) over i = 0..2K+1, grown with K
    log_rising = math.log(big_s) + math.log(big_s + 1.0)
    harmonic = 1.0 / big_s + 1.0 / (big_s + 1.0)
    best = None
    step_cost = _EM_STEP_COST_PER_POINT * s.size + _EM_STEP_OVERHEAD
    for k in range(1, _EM_MAX_CORRECTIONS + 1):
        if best is not None and k * step_cost >= best[0]:
            break  # the corrections alone cost more than the best pair
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
        remainder = bound(n_terms + alpha)
        while remainder > tol:
            n_terms += 1
            remainder = bound(n_terms + alpha)
        work = s.size * n_terms + k * step_cost
        if best is None or work < best[0]:
            best = (work, n_terms, k, remainder)
    return (*best[1:], big_s)


def _em_negative_plan(s: np.ndarray, alpha: float, tol: float, want_deriv: bool):
    """Term count N and error estimate for a group with some Re s < 0.

    With K = 12 corrections the remainder at a point is at most
    A (N+a)^(-p), p = Re s + 2K + 1: the first omitted correction
    |C_{K+1} (s)_{2K+1}| (N+a)^(-p) times the remainder factor
    |s+2K+1| / max(p, 1); for the derivative |(s)_{2K+1}| becomes
    |d/ds (s)_{2K+1}| + |(s)_{2K+1}| ln(N+a).  N is the least count meeting
    ``tol`` for the value at every point, because the partial-sum terms
    grow like (n+a)^(-Re s) here and a larger N only adds cancellation
    against the boundary term (N+a)^(1-s)/(s-1).  Returns (N, remainder
    bound per point, max|s|).
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
    big_s = float(factors[0].max())                     # |s + 0|
    cap = 10.0 + big_s
    x = 1.0 + alpha
    for _ in range(3 if want_deriv else 1):
        reach = (amplitude(max(x, math.e)) / tol) ** (1.0 / np.maximum(power, 1.0))
        x = min(cap, max(x, float(np.max(reach))))
    n_terms = math.ceil(x - alpha)
    big_a = n_terms + alpha
    la = math.log(big_a)
    return n_terms, amplitude(big_a) * np.exp(-power * la), big_s


# Veltkamp's splitter 2^27 + 1: c = K x, x_hi = c - (c - x) keeps the upper 26
# bits of x, so products of halves are exact (Dekker's two-product)
_SPLITTER = 134217729.0


@lru_cache(maxsize=64)
def _log_parts(alpha: float):
    """ln(alpha) = hi + lo, hi = fl(ln alpha) and lo its residual, and hi split in halves."""
    import decimal  # only Hurwitz calls with alpha < 1 need it

    hi = math.log(alpha)
    with decimal.localcontext() as ctx:
        ctx.prec = 40
        lo = float(decimal.Decimal(alpha).ln() - decimal.Decimal(hi))
    c = _SPLITTER * hi
    hi_hi = c - (c - hi)
    return hi, lo, hi_hi, hi - hi_hi


def _leading_power(s: np.ndarray, alpha: float) -> np.ndarray:
    """alpha^(-s) with a relative error of a few eps.

    exp(-s fl(ln a)) alone is off by eps |s| |ln a| from the rounded
    logarithm and product.  Here -s ln(a) = w + delta, w = -fl(s hi) and
    delta = -(s lo + the exact residual of s hi, by Dekker's two-product,
    componentwise), and a^(-s) = e^w (1 + delta) to second order in |delta|
    ~ eps |s ln a|.
    """
    hi, lo, hi_hi, hi_lo = _log_parts(alpha)
    prod = s * hi
    c = _SPLITTER * s
    s_hi = c - (c - s)
    s_lo = s - s_hi
    residual = ((s_hi * hi_hi - prod) + s_hi * hi_lo + s_lo * hi_hi) + s_lo * hi_lo
    return np.exp(-prod) * (1.0 - (residual + s * lo))


def _em_split(s: np.ndarray, alpha: float, n_terms: int, n_corr: int, exact_lead: bool,
              want_deriv: bool, sieved: bool):
    """Euler-Maclaurin evaluation with the 1/(s-1) pole kept symbolic.

    Returns (regular, d_regular or None) with
    zeta(s, alpha) = regular + 1/(s-1) and
    zeta'(s, alpha) = d_regular - 1/(s-1)^2, for ``n_terms`` partial-sum
    terms and ``n_corr`` corrections; with ``exact_lead`` the n = 0 term
    comes from _leading_power.  With ``sieved`` (a = 1) the partial sums and
    (N+1)^(-s) come from the sieved table of _sieved_sums; otherwise every
    term is one complex exp.
    """
    s = np.asarray(s, dtype=complex)
    flat = s.ravel()
    big_a = n_terms + alpha
    la = math.log(big_a)
    if sieved:
        partial, dpartial, decay = _sieved_sums(flat, n_terms, want_deriv)
    else:
        first = 1 if exact_lead else 0
        logb = _em_logs(alpha, n_terms)[0][first:n_terms]
        # partial sum of the defining series (blocked to bound memory)
        partial = np.zeros_like(flat)
        dpartial = np.zeros_like(flat) if want_deriv else None
        block = max(1, _EM_BLOCK // max(n_terms, 1))
        for i in range(0, flat.size, block):
            sl = flat[i:i + block, None]
            mat = np.exp(-sl * logb[None, :])
            partial[i:i + block] = mat.sum(axis=1)
            if want_deriv:
                dpartial[i:i + block] = -(mat * logb[None, :]).sum(axis=1)
        if exact_lead:
            lead = _leading_power(flat, alpha)
            partial += lead
            if want_deriv:
                hi, lo = _log_parts(alpha)[:2]
                dpartial -= (hi + lo) * lead
        decay = np.exp(-flat * la)          # (N+a)^{-s}

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

    Returns (regular, d_regular or None, error_estimate), all shaped like
    ``s``.  With Re s >= 0 on every point, N and K come from the remainder
    majorant of _em_plan, in one pass, and the estimate is that majorant
    (<= ``tol``; with ``want_deriv`` it bounds the derivative's remainder
    too) plus the float64 rounding of the kernel, so it can exceed ``tol``
    where rounding alone does, as at large |Im s|.  Otherwise N is the least
    count whose remainder bound after 12 corrections meets ``tol`` at every
    point, and the estimate adds the rounding of the growing partial-sum
    terms (see _em_negative_plan).  For a = 1 the kernel takes the sieved
    table where _sieve_pays, and the rounding counted is that table's.
    """
    alpha = _check_alpha(alpha)
    s = np.asarray(s, dtype=complex)
    if s.size == 0:
        return s.copy(), (s.copy() if want_deriv else None), np.zeros(s.shape)
    flat = s.ravel()
    re_min, re_max = float(flat.real.min()), float(flat.real.max())
    if re_min >= 0.0:
        n_terms, n_corr, remainder, big_s = _em_plan(flat, alpha, tol, want_deriv, re_min)
    else:
        n_corr = _EM_MAX_CORRECTIONS
        n_terms, remainder, big_s = _em_negative_plan(flat, alpha, tol, want_deriv)
    # the leading term a^(-s) is formed to a few eps where its plain
    # rounding, eps |s| |ln a| a^(-Re s), could reach a tenth of tol
    exact_lead = alpha < 1.0 and _EPS * big_s * -math.log(alpha) * alpha ** -re_max > 0.1 * tol
    sieved = alpha == 1.0 and _sieve_pays(flat.size, n_terms)
    est = remainder + _em_rounding(flat.real, re_min, re_max, big_s, alpha, n_terms, n_corr,
                                   exact_lead, want_deriv, sieved)
    est = (np.zeros(s.size) + est).reshape(s.shape)
    return (*_em_split(s, alpha, n_terms, n_corr, exact_lead, want_deriv, sieved), est)


# ---------------------------------------------------------------------------
# ln Gamma and psi by Stirling's series, for the reflection route.
# ---------------------------------------------------------------------------

# Stirling's series is summed to J terms after an upward shift to Re z >= 10.
# The reflection meets |Im z| <= 15 there, so |arg z| <= arctan(1.5) and the
# remainders below stay under 2e-17.
_STIRLING_TERMS = 8
_STIRLING_RE = 10.0
# B_2j / (2j (2j-1)) and B_2j / (2j) for j = 1..J+1; the last bounds the remainder
_LOG_GAMMA_COEF = tuple(b / ((2 * j + 2) * (2 * j + 1))
                        for j, b in enumerate(_BERNOULLI[:_STIRLING_TERMS + 1]))
_DIGAMMA_COEF = tuple(b / (2 * j + 2) for j, b in enumerate(_BERNOULLI[:_STIRLING_TERMS + 1]))
_STIRLING_POWERS = np.arange(1, _STIRLING_TERMS + 1)[:, None]
_LOG_GAMMA_COEF_COL = np.array(_LOG_GAMMA_COEF[:_STIRLING_TERMS])[:, None]
_DIGAMMA_COEF_COL = np.array(_DIGAMMA_COEF[:_STIRLING_TERMS])[:, None]
_HALF_LOG_TWO_PI = 0.5 * math.log(_TWO_PI)


def _log_gamma(w: np.ndarray, want_digamma: bool):
    """ln Gamma(w), principal branch, for Re w > 0, with an error bound per point.

    With z = w + n, n the least shift putting the point at Re z >= 10,

        ln Gamma(w) = (z - 1/2) ln z - z + ln(2 pi)/2
                      + sum_{j=1..J} B_2j / (2j (2j-1) z^(2j-1)) - sum_{i<n} ln(w+i),
        psi(w)      = ln z - 1/(2z) - sum_{j=1..J} B_2j / (2j z^2j) - sum_{i<n} 1/(w+i).

    The remainder of the first is at most the first omitted term times
    sec^(2J+2)(arg z / 2) (DLMF 5.11.ii).  That of the second is at most the
    first omitted term |B_2J+2| / ((2J+2) |z|^(2J+2)) divided by
    min over t >= 0 of |t^2 + z^2| / |z|^2, which is 1 for |arg z| <= pi/4
    and |sin(2 arg z)| beyond (expand t/(t^2+z^2) in Binet's
    psi(z) = ln z - 1/(2z) - 2 int_0^inf t dt / ((t^2+z^2)(e^(2 pi t)-1))).
    Each bound adds the float64 rounding of the terms above, about eps times
    each of them.
    Returns (ln Gamma, bound) or, with ``want_digamma``, (ln Gamma, bound, psi, bound).
    """
    shift = np.maximum(0.0, np.ceil(_STIRLING_RE - w.real))
    z = w + shift
    x, abs_z = z.real, np.abs(z)
    log_z = np.log(z)
    inv = 1.0 / z
    powers = (inv * inv) ** _STIRLING_POWERS                 # z^-2j, j = 1..J
    series = z * (_LOG_GAMMA_COEF_COL * powers).sum(axis=0)
    lg = (z - 0.5) * log_z - z + _HALF_LOG_TWO_PI + series
    # sec^2(arg z / 2) = 2|z| / (|z| + Re z)
    sec2 = 2.0 * abs_z / (abs_z + x)
    lg_err = (abs(_LOG_GAMMA_COEF[_STIRLING_TERMS]) * abs_z ** -(2 * _STIRLING_TERMS + 1)
              * sec2 ** (_STIRLING_TERMS + 1))
    # rounding: the shifted point and (z - 1/2) ln z, about eps |z| |ln z|
    # each, then the sums, about eps of each summand
    rounding = 2.0 * abs_z * (np.abs(log_z) + 1.0) + 4.0
    most = int(shift.max())
    if most:
        # ln(w+i) for i < shift at each point, 0 past it
        i = np.arange(most)[:, None]
        steps = np.where(i < shift, w + i, 1.0)
        logs = np.log(steps)
        lg = lg - logs.sum(axis=0)
        rounding = rounding + 2.0 * np.abs(logs).sum(axis=0)
    lg_err = lg_err + _EPS * rounding
    if not want_digamma:
        return lg, lg_err
    psi = log_z - 0.5 * inv - (_DIGAMMA_COEF_COL * powers).sum(axis=0)
    abs_y = np.abs(z.imag)
    angle = np.where(x >= abs_y, 1.0, 2.0 * x * abs_y / (abs_z * abs_z))
    psi_err = abs(_DIGAMMA_COEF[_STIRLING_TERMS]) * abs_z ** -(2 * _STIRLING_TERMS + 2) / angle
    rounding = 2.0 * np.abs(log_z) + 3.0
    if most:
        recips = np.where(i < shift, 1.0 / steps, 0.0)
        psi = psi - recips.sum(axis=0)
        rounding = rounding + 2.0 * np.abs(recips).sum(axis=0)
    return lg, lg_err, psi, psi_err + _EPS * rounding


# ---------------------------------------------------------------------------
# The reflection route: Hurwitz's formula for a = r/m (Apostol, Introduction
# to Analytic Number Theory, Thm 12.6), read at u = 1 - s,
#
#     zeta(s, r/m) = 2 Gamma(u) (2 pi m)^(-u) sum_{k=1..m} cos(pi u/2 - 2 pi k r/m) zeta(u, k/m).
#
# Left of Re s = -3 it turns a batch into m Euler-Maclaurin evaluations at
# Re u > 4, where the series is cheap and well conditioned, and every residue
# r of the period shares them.
# ---------------------------------------------------------------------------

# sum_{n>=1} ln(n+1)^j n^-4 for j = 1, 2 (0.79 and 0.60), rounded up: with the
# n = 0 term |ln a|^j a^-Re u they bound |zeta^(j)(u, a)| for Re u >= 4
_ZETA_D1_TAIL = 0.8
_ZETA_D2_TAIL = 0.7


def _reflect(s: np.ndarray, period: int, alphas, tol: float, deriv: bool):
    """Regular parts of zeta(s, r/m) (or of zeta') for each a = r/m in ``alphas``.

    Returns (values, estimates) of shape (len(alphas), s.size).  Writing
    G = 2 Gamma(u) (2 pi m)^(-u), C_k, S_k = cos, sin(pi u/2 - 2 pi k r/m)
    and Z_k = zeta(u, k/m), the value is G sum_k C_k Z_k, and its
    s-derivative is -G ((psi(u) - ln(2 pi m)) sum_k C_k Z_k
    - (pi/2) sum_k S_k Z_k + sum_k C_k Z_k').  Euler-Maclaurin runs at
    _H_TAIL_SHARE ``tol`` over the largest weight |G| sum_k |C_k| (with the
    weights of the derivative), so its share of each estimate stays below
    that.  The estimate adds the float64 rounding of every factor: relative
    errors of G and of the products times |G| sum_k |C_k| |Z_k|, the error
    of the phase times |G| sum_k |S_k| |Z_k| (absolute near the trivial
    zeros, where C_k vanishes and the value is small), and u = 1 - s itself,
    off by eps |Re u| / 2, times a bound on the u-derivative.
    """
    m = period
    u = 1.0 - s
    abs_u = np.abs(u)
    big_l = math.log(_TWO_PI * m)
    gamma = _log_gamma(u, deriv)
    lg, lg_err = gamma[:2]
    with np.errstate(over="ignore", invalid="ignore"):      # checked below
        g = 2.0 * np.exp(lg - u * big_l)
    abs_g = np.abs(g)
    if not np.isfinite(abs_g).all():
        s_bad = complex(s[~np.isfinite(abs_g)][0])
        raise AccuracyError("2 Gamma(1-s) (2 pi m)^(s-1) overflows "
                            + _at(s_bad, alphas[0] if len(alphas) == 1 else alphas, "reflect"))
    k = np.arange(1, m + 1)
    residues = np.array([round(a * m) for a in alphas])
    q = (2 * np.multiply.outer(residues, k) % (2 * m)) / m          # 2kr/m mod 2
    half = np.remainder(0.5 * u.real, 2.0) + 0.5j * u.imag          # u/2 mod 2
    phase = math.pi * (half - q[:, :, None])                         # (R, m, n)
    cos, sin = np.cos(phase), np.sin(phase)
    abs_c, abs_s = np.abs(cos), np.abs(sin)
    if deriv:
        dlog = gamma[2] - big_l
        abs_dlog = np.abs(dlog)
        weight = abs_c * (abs_dlog + 1.0) + (0.5 * math.pi) * abs_s
    else:
        weight = abs_c
    tol_em = _H_TAIL_SHARE * tol / max(1.0, float(np.max(abs_g * weight.sum(axis=1))))
    pole = 1.0 / (u - 1.0)
    zs = np.empty((m, u.size), dtype=complex)
    dzs = np.empty_like(zs) if deriv else None
    em_est = np.empty((m, u.size))
    for i in range(m):
        reg, dreg, em_est[i] = euler_maclaurin_split(u, (i + 1) / m, tol=tol_em,
                                                     want_deriv=deriv)
        zs[i] = reg + pole
        if deriv:
            dzs[i] = dreg - pole * pole
    sums = (cos * zs).sum(axis=1)
    abs_z = np.abs(zs)
    # relative rounding of G (ln Gamma, u ln(2 pi m), exp) and of each term
    # (the products, the sum over k and a = k/m); absolute error of the phase
    rel_g = lg_err + _EPS * (np.abs(lg) + 2.0 * abs_u * big_l + 2.0)
    rel = rel_g + _EPS * (m + 6 + 0.5 * abs_u)
    dphase = _EPS * (4.0 * math.pi + 1.5 * np.abs(u.imag))
    # u = 1 - s is off by eps |Re u| / 2; |zeta'(u, a)| and |zeta''(u, a)|
    # are at most |ln a|^j a^-Re u plus the tails of _ZETA_D1_TAIL, _ZETA_D2_TAIL
    inexact_u = 0.5 * _EPS * np.abs(u.real)
    log_a = np.log(k / m)[:, None]
    a_pow = np.exp(-log_a * u.real)
    s_pole = 1.0 / (s - 1.0)
    if not deriv:
        # |dV/du| <= |G| sum_k ((|psi(u) - ln(2 pi m)| |C_k| + (pi/2) |S_k|) |Z_k|
        # + |C_k| |Z_k'|), and |psi(u) - ln u| < 0.2 for |u| >= 4
        dlog_bound = np.abs(np.log(u) - big_l) + 0.2
        d1 = np.abs(log_a) * a_pow + _ZETA_D1_TAIL
        est = (abs_g * (abs_c * (em_est + (rel + inexact_u * dlog_bound) * abs_z
                                 + inexact_u * d1)
                        + abs_s * (dphase + inexact_u * 0.5 * math.pi) * abs_z).sum(axis=1)
               + _EPS * np.abs(s_pole))
        return g * sums - s_pole, est
    dsums = (cos * dzs).sum(axis=1)
    ssums = (sin * zs).sum(axis=1)
    dvalue = -g * (dlog * sums - (0.5 * math.pi) * ssums + dsums)
    abs_dz = np.abs(dzs)
    # the terms of the bracket, and a bound on the u-derivative of V',
    # with |psi'(u)| < 0.3 for |u| >= 4
    c_part = abs_dlog * abs_z + abs_dz
    s_part = (0.5 * math.pi) * abs_z
    d2 = log_a * log_a * a_pow + _ZETA_D2_TAIL
    second = (abs_c * ((abs_dlog * abs_dlog + 0.3 + 0.25 * math.pi ** 2) * abs_z
                       + 2.0 * abs_dlog * abs_dz + d2)
              + abs_s * math.pi * (abs_dlog * abs_z + abs_dz))
    psi_err = gamma[3] + _EPS * (np.abs(gamma[2]) + big_l)
    est = (abs_g * (weight * em_est
                    + abs_c * (rel * c_part + psi_err * abs_z)
                    + abs_s * (rel * s_part + dphase * c_part)
                    + abs_c * dphase * s_part
                    + inexact_u * second).sum(axis=1)
           + _EPS * np.abs(s_pole) ** 2)
    return dvalue + s_pole * s_pole, est


# ---------------------------------------------------------------------------
# The Hurwitz router and the assembled Hurwitz / Riemann zeta.
# ---------------------------------------------------------------------------

# Left of Re s = -3 the Euler-Maclaurin boundary terms grow like
# (N+a)^(1-Re s) and their float64 cancellation against the partial sum
# costs about eps times that.  There a batch takes the reflection when a is
# 1 or a residue r/m of a given period, and the h-rule otherwise: the
# h-integrand is benign while its envelope factor cosh(|Im s| pi/2) stays
# moderate, which it does up to |Im s| = 15 (cosh(15 pi/2) ~ 6e9).  A
# size-1 call pays numpy's per-call overhead on every Horner step of
# Euler-Maclaurin and on every factor of the reflection, so there the
# h-rule is the cheaper route (about 2.5x against Euler-Maclaurin at
# alpha = 1, s = 2, and 115 against 299 us against the reflection at
# s = -5) and the more accurate one, and it serves the strip up to
# Re s = 8, where the series needs few terms.  Batches keep Euler-Maclaurin
# right of Re s = -3: its cost per point falls below 1 us.
_H_RULE_RE_LIMIT = -3.0
_SINGLE_H_RULE_RE_LIMIT = 8.0
HERMITE_IM_LIMIT = 15.0


# Route codes of hurwitz_split_many, indexing ROUTES
SERIES_EM, HERMITE, REFLECT = 0, 1, 2
ROUTES = ("series-em", "hermite", "reflect")
# hurwitz_split_many's ``deriv`` for R and R' together (False gives R, True R')
PAIR = 2


def route_names(codes) -> str:
    """The distinct ROUTES names of route ``codes``, in order of appearance, joined by '/'."""
    return "/".join(dict.fromkeys(ROUTES[c] for c in np.ravel(codes)))


def _on_h_rule(s: np.ndarray) -> np.ndarray:
    """The route predicate: where the router leaves Euler-Maclaurin.

    |Im s| <= 15 and Re s < -3 (the reflection or the h-rule); for a size-1
    call, Re s < 8 (the h-rule).
    """
    re_limit = _SINGLE_H_RULE_RE_LIMIT if s.size == 1 else _H_RULE_RE_LIMIT
    return (s.real < re_limit) & (np.abs(s.imag) <= HERMITE_IM_LIMIT)


def hurwitz_split_many(s, alpha, tol: float = 1e-12, deriv=False, period: int | None = None):
    """The Hurwitz router: regular parts, per-point error estimates, routes.

    The regular parts are R with zeta(s, a) = R + 1/(s-1) and R' with
    zeta'(s, a) = R' - 1/(s-1)^2.  ``alpha`` is one a in (0, 1] or a
    sequence of them; with ``period`` m every a must be a residue r/m, and
    a = 1 alone implies m = 1.  Where _on_h_rule holds, a batch with a
    period takes the reflection, one call for all residues; every other
    point there takes d (or d') plus the graded h-rule, and a size-1 call
    right of Re s = -3 moves on to Euler-Maclaurin where the h-rule's
    estimate exceeds ``tol`` (its float64 floor).  Euler-Maclaurin takes
    the rest, grouped by the sign of Re s so a large-|Im| point cannot
    force a term count that degrades the cancellation-sensitive negative-Re
    group.  ``deriv`` False gives R, True gives R', and PAIR both, stacked
    on a new leading axis (R first); a PAIR estimate bounds the error of
    each, and Euler-Maclaurin forms the two in one pass.  Returns (values,
    estimates, routes), routes holding a code per point (SERIES_EM, HERMITE or REFLECT, which index ROUTES); each is shaped
    like ``s``, with a leading axis over a sequence ``alpha``.
    """
    single_alpha = np.isscalar(alpha)
    alphas = (_check_alpha(alpha),) if single_alpha else tuple(map(_check_alpha, alpha))
    if period is None:
        period = 1 if alphas == (1.0,) else None
    elif any(abs(a * period - round(a * period)) > 1e-9 for a in alphas):
        raise DomainError(f"alpha {alpha!r} is not a residue r/{period}")
    orders = (False, True) if deriv == PAIR else (bool(deriv),)
    s = np.asarray(s, dtype=complex)
    flat = s.ravel()
    out = np.empty((len(orders), len(alphas), flat.size), dtype=complex)
    est = np.empty(out.shape[1:])
    routes = np.zeros(est.shape, dtype=np.int8)           # SERIES_EM
    on_h = _on_h_rule(flat)
    left = bool(on_h.any())
    reflect = left and period is not None and flat.size > 1
    if reflect:
        parts = [_reflect(flat[on_h], period, alphas, tol, order) for order in orders]
        for out_k, (values, _) in zip(out, parts):
            out_k[:, on_h] = values
        est[:, on_h] = reduce(np.maximum, (e for _, e in parts))
        routes[:, on_h] = REFLECT
    for i, a in enumerate(alphas):
        out_a, est_a, routes_a = out[:, i], est[i], routes[i]
        em = ~on_h
        if left and not reflect:
            sf = flat[on_h]
            parts = [_h_rule(sf, a, tol, order) for order in orders]
            est_h = reduce(np.maximum, (e for _, e in parts))
            # h-rule points right of Re s = -3 come from size-1 calls; they
            # move on where the rule's floor exceeds tol
            stay = (est_h <= tol) | (sf.real < _H_RULE_RE_LIMIT)
            hermite = on_h
            if not stay.all():
                hermite = on_h.copy()
                hermite[on_h] = stay
                sf, est_h = sf[stay], est_h[stay]
                parts = [(h[stay], e) for h, e in parts]
                em = ~hermite
            for out_k, order, (h, _) in zip(out_a, orders, parts):
                entire = hermite_d_deriv_many(sf, a) if order else hermite_d_many(sf, a)
                out_k[hermite] = entire + h
            est_a[hermite] = est_h
            routes_a[hermite] = HERMITE
        if not em.any():
            continue
        negative = flat.real < 0.0
        for group in (em & negative, em & ~negative):
            if group.any():
                reg, dreg, est_a[group] = euler_maclaurin_split(flat[group], a, tol=tol,
                                                                want_deriv=orders[-1])
                for out_k, order in zip(out_a, orders):
                    out_k[group] = dreg if order else reg
    shape = s.shape if single_alpha else (len(alphas),) + s.shape
    values = out.reshape((len(orders),) + shape)
    return (values if deriv == PAIR else values[0]), est.reshape(shape), routes.reshape(shape)


def _split_point(s, alpha: float, cfg: EvalConfig, deriv: bool):
    """One point through the router: (value, estimate, route).

    Raises AccuracyError, naming s, alpha and the route, unless
    cfg.accepts the value and its estimate.
    """
    s = complex(s)
    reg, est, route = hurwitz_split_many(np.array([s]), alpha, cfg.split_tol, deriv)
    value, est, route = complex(reg[0]), float(est[0]), ROUTES[route[0]]
    if not cfg.accepts(value, est):
        raise cfg.rejection(value, est, _at(s, alpha, route))
    return value, est, route


def hurwitz_regular_split(s, alpha: float, cfg: EvalConfig = DEFAULT_CONFIG):
    """Regular part R with zeta(s, alpha) = R + 1/(s-1).

    Returns (value, error_estimate, route); valid at s = 1 as well, where R
    is the finite part of the Laurent expansion.
    """
    return _split_point(s, alpha, cfg, deriv=False)


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
    return _split_point(s, alpha, cfg, deriv=True)[0] - 1.0 / (s - 1.0) ** 2


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
