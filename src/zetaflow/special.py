"""Hurwitz/Riemann zeta evaluation and the explicit sup-norm bound constants.

One router, ``hurwitz_split_many``, evaluates the regular part of zeta(s, a)
(the 1/(s-1) pole term kept symbolic), or it and its derivative from one
call, with a per-point error estimate and route, for batches, for all
residues of an L-function at once and, as size-1 calls, for every scalar
entry point.  One predicate, ``_route_masks``, gives each point one route,
which every residue takes; for a size-1 call right of Re s = -3 one bound,
``_h_rule_fits``, decides whether the h-rule runs.  Each route is one
kernel call for all the residues (Euler-Maclaurin one per sign of Re s),
with one contract: (R, R' or None, estimate), with a leading residue axis,
R and R' from one pass and one estimate bounding each.  The routes, as the
router names them:

* "reflect" left of Re s = -3, at every |Im s|, when a = 1 or a is a
  residue r/m of a given period m (size-1 calls keep "hermite" up to
  |Im s| = 15).  Hurwitz's formula (Apostol, Introduction to Analytic
  Number Theory, Thm 12.6) read at u = 1 - s,
  zeta(s, r/m) = 2 Gamma(u) (2 pi m)^(-u) sum_k cos(pi u/2 - 2 pi k r/m) zeta(u, k/m),
  turns the batch into one Euler-Maclaurin call for the m parameters k/m
  at Re u > 4, shared by every residue.  ln Gamma and psi come from
  Stirling's series with explicit remainders.  The estimate adds the
  float64 rounding of every factor in absolute terms, so it holds at the
  trivial zeros too; where a factor leaves the float64 range it raises
  AccuracyError.
* "hermite" where |Im s| <= 15, for a size-1 call with Re s < 8 and for a
  batch without a period left of Re s = -3: zeta(s, a) = 1/(s-1) + d + h,
  d entire and h an integral by one graded fixed-panel Gauss-Legendre
  rule, whose estimate is its tail level plus 16 eps times the integral of
  |integrand|.  The residues share one node set, graded at the least a and
  truncated at the largest truncation point over the residues and orders.
  Right of Re s = -3 a size-1 call takes the rule only where a bound on
  that estimate, from (s, a, tol) alone, meets the tolerance for every
  residue and order, and Euler-Maclaurin elsewhere, whatever came before.
* "series-em" everywhere else: the defining series with an Euler-Maclaurin
  tail, which also provides the analytic continuation.  One planner,
  _em_plan, picks the term count N and the K <= 12 corrections (summed by
  Horner's rule) for either sign of Re s, trading work against counted
  rounding; the router groups the points by that sign, and evaluates every
  residue in one call per group, planned at the least a, whose remainder
  bound holds for every larger a.  It plans a group for its cell: max|s|,
  the Re s hull and, left of Re s = 0, max|Im s| rounded outward on fixed
  ladders, the tolerance rounded down and the group size rounded up to a
  power of 2 (_CELL_LADDER).  A plan is a pure function of its cell, kept
  in a bounded cache (_cell_plan), so the small calls of the flows and
  marches, whose points move little from call to call, plan once per cell,
  and a value depends only on its group and tolerance, never on what was
  evaluated before.  The estimate is the
  cell's remainder bound plus the float64 rounding of the kernel at the
  group's own hull.  At Re s <= -25, where no K <= 12 bounds the
  remainder, and where a^(-s) leaves the float64 range, it raises
  AccuracyError; a point that is not finite is a DomainError.  For a = 1
  alone a wide batch takes the terms n^(-s) from a sieved table
  (_sieved_sums): only the prime rows take a complex exp, and every other
  row is the product of two earlier rows.

The scalar functions raise AccuracyError, naming s, a and the route, where
the estimate exceeds both ``EvalConfig.abs_tol`` and the float64 floor of
the value (``EvalConfig.accepts``; ``EvalConfig.rejection`` writes the
error for the L-function and the zero census too); ``hermite_h`` raises
PrecisionFloorError where the rule's floor exceeds abs_tol.  The module
also evaluates the closed-form constants bounding |h|, |h'|, |d'| and
sup|f'| on boxes [-beta, beta]^2, for the PDE solver's local existence time.
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
# B_{2j} / (2j)!  for j = 1..14, and their logarithms' absolute values
_EM_COEF = tuple(b / math.factorial(2 * (j + 1)) for j, b in enumerate(_BERNOULLI))
_EM_LOG_COEF = tuple(math.log(abs(c)) for c in _EM_COEF)
# Most corrections summed; the next coefficient bounds the remainder.
_EM_MAX_CORRECTIONS = 12
# ln of the most partial-sum terms a plan may take (2^31)
_EM_LOG_MAX_TERMS = 31.0 * math.log(2.0)
# An Euler-Maclaurin pair's counted rounding may reach this factor of the
# target (or of the rounding at K = 12): at tol 1e-12 the strip benchmark's
# size-1 calls (|Im s| <= 88) keep their least-work pairs, at up to 2.44
# tol, and zeta(0.04+300i) moves from K = 6 (rounding 1.3e-10, 3.6 times
# that at K = 12) to K = 7, N = 344 (9.2e-11).
_EM_ROUNDING_SLACK = 3.0
# Cost of one Horner step of the corrections, in units of one partial-sum
# term (a complex power): per point, and per call for numpy's dispatch on a
# short array.  Timed with numpy 2.4 on one x86-64 core at batch sizes 1 to
# 16384: about 0.08 per point and 180 per call, rounded here.
_EM_STEP_COST_PER_POINT = 0.1
_EM_STEP_OVERHEAD = 150.0
# Cost of one pass of the sieved power table (a = 1), in the same units:
# numpy's dispatch per call.  Timed at 32 points, the table breaks even near
# N = 30, and at 64 points near N = 13.
_SIEVE_PASS_OVERHEAD = 150.0
# Complex elements per block of the partial-sum kernels.  A 256 kB block
# stays in a core's L2 cache through the table's passes: blocks of 2^13 to
# 2^15 timed alike, and 2^18 1.6 to 2 times slower on the 1501-point sigma0
# row and the 5800-point census row (x86-64, 2 MB L2 per core).
_EM_BLOCK = 1 << 14
# ln of the largest float64
_LOG_FLOAT_MAX = math.log(np.finfo(float).max)


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
        """The AccuracyError for an estimate ``accepts`` refuses, ``where`` naming the point."""
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


def _check_alphas(alpha) -> tuple[tuple, bool]:
    """(the a of ``alpha`` checked, as a tuple; whether ``alpha`` is one a, not a sequence)."""
    if isinstance(alpha, (tuple, list)) or (isinstance(alpha, np.ndarray) and alpha.ndim):
        return tuple(map(_check_alpha, alpha)), False
    return (_check_alpha(alpha),), True


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
    small = np.abs(u) < _F_SERIES_RADIUS
    count = np.count_nonzero(small)
    if count == small.size:
        out = _horner_series(u, coefs)
    elif count == 0:
        out = closed(u)
    else:
        out = np.empty_like(u)
        out[small] = _horner_series(u[small], coefs)
        out[~small] = closed(u[~small])
    return complex(out) if u.ndim == 0 else out


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
def _h_panels(alphas: tuple, n_panels: int):
    """Node factors of the graded rule: (arctan(t/a), ln(a^2+t^2)/2, weights).

    One node set t for every a of ``alphas``: breakpoints a/2, a, 2a, ...
    below 0.5 at the least a, then ``n_panels`` panels of width 0.5.  The
    first two factors have a row per a, shape (R, nodes); the weights carry
    the factor 2 of h and 1/(e^{2 pi t} - 1).  The arrays are read-only.
    """
    edges = [0.0]
    b = min(alphas) / 2.0
    while b < _H_PANEL_WIDTH:
        edges.append(b)
        b *= 2.0
    edges = np.array(edges + [_H_PANEL_WIDTH * k for k in range(1, n_panels + 1)])
    x0, w0 = np.polynomial.legendre.leggauss(_H_PANEL_NODES)
    lo = edges[:-1, None]
    half = 0.5 * (edges[1:, None] - lo)
    t = (lo + half * (x0 + 1.0)).ravel()
    factors = (np.array([np.arctan(t / a) for a in alphas]),
               np.array([0.5 * np.log(a * a + t * t) for a in alphas]),
               (half * w0).ravel() * (2.0 / np.expm1(_TWO_PI * t)))
    for arr in factors:
        arr.setflags(write=False)
    return factors


@lru_cache(maxsize=16)
def _h_nodes(worst: complex, alphas: tuple, tol: float, want_deriv: bool):
    """_h_panels to the truncation point of the envelope at ``worst``, max|Re s| + i max|Im s|.

    The largest over the a and the orders; cached, as a size-1 call reads it
    in _h_rule_fits and again in _h_rule.
    """
    tail = max(_truncation_point(worst, a, _H_TAIL_SHARE * tol, deriv)
               for a in alphas for deriv in ((False, True) if want_deriv else (False,)))
    return _h_panels(alphas, math.ceil(tail / _H_PANEL_WIDTH))


def _h_rule(s: np.ndarray, alphas: tuple, tol: float, want_deriv: bool):
    """(h, h' or None, estimates) at the 1-d points ``s``, each shaped (len(alphas), s.size).

    h(s, a) = 2 int_0^inf sin(s arctan(t/a)) / ((a^2+t^2)^(s/2) (e^{2 pi t} - 1)) dt,
    on the nodes of _h_nodes; h' shares its sin and exp.  An estimate is the
    tail level _H_TAIL_SHARE * tol plus the float64 floor of the panel sums,
    _QUAD_FLOOR times the larger integral of |integrand| on the same nodes.
    """
    worst = complex(float(np.abs(s.real).max()), float(np.abs(s.imag).max()))
    angle, half_log, weights = _h_nodes(worst, alphas, tol, want_deriv)
    col = s[None, :, None]
    angle, half_log = angle[:, None, :], half_log[:, None, :]
    phase = col * angle                                     # (R, n, nodes)
    sin = np.sin(phase)
    shape, rows = (len(alphas), s.size), (len(alphas) * s.size, weights.size)
    if want_deriv:
        decay = np.exp(-col * half_log)
        vals = (sin * decay).reshape(rows)
        dvals = ((angle * np.cos(phase) - half_log * sin) * decay).reshape(rows)
        dh = (dvals @ weights).reshape(shape)
        mass = np.maximum(np.abs(vals) @ weights, np.abs(dvals) @ weights)
    else:
        # one a alone keeps its value bitwise: numpy rounds a complex a * b and
        # b * a differently, and writes a large product into a temporary operand
        vals = (sin * np.exp(-col * half_log)).reshape(rows)
        dh, mass = None, np.abs(vals) @ weights
    return ((vals @ weights).reshape(shape), dh,
            (_H_TAIL_SHARE * tol + _QUAD_FLOOR * mass).reshape(shape))


def _h_rule_fits(s: complex, alphas: tuple, tol: float, want_deriv: bool) -> bool:
    """Whether _h_rule's estimate at the point ``s`` meets ``tol`` for every a and order.

    Decided before the rule runs, on its nodes, from (s, alphas, tol) alone:
    |sin(s theta)| and |cos(s theta)| are at most cosh(Im s theta), so on
    each node |integrand| is at most cosh(|Im s| theta) e^(-Re s
    ln(a^2+t^2)/2), times theta + |ln(a^2+t^2)|/2 for h'.  That bounds the
    integral of |integrand| in the rule's floor, and it is tight where the
    floor matters, at cosh(|Im s| theta) >> 1.
    """
    worst = complex(abs(s.real), abs(s.imag))
    angle, half_log, weights = _h_nodes(worst, alphas, tol, want_deriv)
    bound = np.cosh(worst.imag * angle)
    bound *= np.exp(-s.real * half_log)
    mass = bound @ weights
    if want_deriv:
        mass = np.maximum(mass, (bound * (angle + np.abs(half_log))) @ weights)
    return _H_TAIL_SHARE * tol + _QUAD_FLOOR * float(mass.max()) <= tol


def hermite_h(s, alpha: float, cfg: EvalConfig = DEFAULT_CONFIG) -> complex:
    """Integral part h of the split; PrecisionFloorError, naming s, past abs_tol."""
    alpha = _check_alpha(alpha)
    s = complex(s)
    h, _, est = _h_rule(np.array([s]), (alpha,), cfg.split_tol, False)
    value, est = complex(h[0, 0]), float(est[0, 0])
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
    """ln(n+a), n = 0..N, and rounding weight columns (w, w |ln(n+a)|), read-only.

    w = 1 for the value and max(1, |ln(n+a)|) for the derivative.
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
def _em_columns(alphas: tuple, n_terms: int):
    """_em_split's constants for the parameters ``alphas`` at N terms, read-only.

    The rows ln(n+a), n = 0..N, stacked (R, N+1), and as (R, 1) columns
    ln(N+a), N+a and, on a leading axis j = 1.._EM_MAX_CORRECTIONS, the
    Horner constants D_j = C_j (N+a)^(2-2j), each formed in Python floats
    as for a single a.
    """
    logs = np.stack([_em_logs(a, n_terms)[0] for a in alphas])
    big_a = [n_terms + a for a in alphas]
    inv_a2 = [1.0 / (x * x) for x in big_a]
    horner = np.array([[_EM_COEF[j] * inv ** j for inv in inv_a2]
                       for j in range(_EM_MAX_CORRECTIONS)])[:, :, None]
    cols = (logs, np.array([math.log(x) for x in big_a])[:, None], np.array(big_a)[:, None],
            horner)
    for arr in cols:
        arr.setflags(write=False)
    return cols


@lru_cache(maxsize=32)
def _sieve_plan(n_rows: int):
    """The plan of the sieved power table n^(-s), n = 1..``n_rows``, n in row n-1.

    n^(-s) is completely multiplicative, so only the prime rows need an
    exp; every other row is the product of the rows of its smallest prime
    factor and of its cofactor.  Returns (prime rows, their -ln p as a
    column, passes, Omega): the floor(log2 n_rows) - 1 passes fill the
    composite rows by increasing Omega(n), the number of prime factors of n
    with multiplicity, each a (rows, factor rows, cofactor rows) triple.
    Omega is indexed by n.  The arrays are read-only.
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
    """Where the sieved table's points (N+1 - pi(N+1)) saved exps pay for its passes.

    Each of its floor(log2(N+1)) passes costs _SIEVE_PASS_OVERHEAD.
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

    Rows n = 1..N+1, points along the contiguous axis, blocked to _EM_BLOCK
    elements, summed by pairwise halving.  Returns (partial, dpartial or None, decay).
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


@lru_cache(maxsize=32)
def _term_rounding(n_rows: int, sieved: bool) -> np.ndarray:
    """c_n, n = 0..N: the term (n+a)^(-s) is off by eps (c_n + |s| ln(n+a)).

    One complex exp(-s ln(n+a)) carries c = 3: the rounded logarithm, the
    product that forms the phase, and the exp.  A row (n+1)^(-s) of the
    sieved table (a = 1) is the product of Omega(n+1) such powers and
    Omega(n+1) - 1 complex products, so c = 4 Omega(n+1).  Read-only.
    """
    own = 4.0 * _sieve_plan(n_rows)[3][1:] if sieved else np.full(n_rows, 3.0)
    own.setflags(write=False)
    return own


@lru_cache(maxsize=64)
def _em_weighted_sums(alpha: float, n_terms: int, re: float, want_deriv: bool,
                      sieved: bool):
    """(sum w, sum w |ln(n+a)|, sum w c_n) of (n+a)^(-re) over n = 1..N-1, and c_N.

    w is the first weight column of _em_logs, c_n the term's own rounding
    (_term_rounding).  Cached: _em_rounding reads it at min Re s floored to
    the 1/_SUMS_RE_GRID grid, and _em_plan at its cell's Re s floor.
    """
    logs, cols = _em_logs(alpha, n_terms)
    own = _term_rounding(n_terms + 1, sieved)
    powers = np.exp(-re * logs[1:-1])
    cols = cols[want_deriv][1:-1]
    plain, logged = (powers @ cols).tolist()
    own_sum = float(powers @ (cols[:, 0] * own[1:-1])) if sieved else float(own[0]) * plain
    return plain, logged, own_sum, float(own[-1])


def _em_group_rounding(re_min: float, re_max: float, big_s: float, alpha: float,
                       n_terms: int, n_corr: int, want_deriv: bool, sums: tuple) -> float:
    """_em_rounding less the first term, one number for the group.

    ``sums`` are those of _em_weighted_sums, or the bounds of _em_sums_bound.
    """
    la = math.log(n_terms + alpha)
    plain, logged, own, power = sums
    scale = 1.0 + la if want_deriv else 1.0
    w_floor = max(0.5, max(1.0 - re_max, re_min - 1.0, 0.0) * la)
    tail = _em_tail_majorant(big_s, n_terms + alpha, n_corr)
    boundary = ((power + big_s * la + 2 * n_corr + 2) * tail
                + la * (1.0 + 3.0 / w_floor) * (n_terms + alpha))
    rest = (math.log2(n_terms + 1) * plain + big_s * logged + own
            + scale * math.exp(-re_min * la) * boundary)
    return _EPS * (rest + scale * la * 2.0 / w_floor)


def _em_rounding(re: np.ndarray, re_min: float, re_max: float, big_s: float, alpha: float,
                 n_terms: int, n_corr: int, exact_lead: bool, want_deriv: bool,
                 sieved: bool):
    """Float64 rounding of _em_split at points with real parts ``re`` and |s| <= big_s.

    A term (n+a)^(-s) is off by eps (c_n + |s| |ln(n+a)|) (_term_rounding),
    the sum adds eps log2 N, and the derivative's terms carry |ln(n+a)|
    times that.  The Horner tail (N+a)^(-s) (1/2 + ...) adds 2K+2 roundings
    of at most _em_tail_majorant (N+a)^(-Re s); the boundary term
    -ln(N+a) f(w), w = (1-s) ln(N+a), f(w) = (e^w - 1)/w, is off by
    eps ln(N+a) ((|w|+3) |e^w| + 2) / max(|w|, 1/2), |w| >= |Re s - 1| ln(N+a).
    All but the first term is one number for the group, at ``re_min``, as
    each falls with Re s; its O(N) sums are read at ``re_min`` floored to
    the 1/_SUMS_RE_GRID grid, which over-counts them by at most
    (N+a)^(1/_SUMS_RE_GRID).  The first, a^(-s), is taken per point; with
    ``exact_lead`` _leading_power forms it to a few eps.  Returns a number
    for a = 1, else an array like ``re``.
    """
    sums = _em_weighted_sums(alpha, n_terms, math.floor(re_min * _SUMS_RE_GRID) / _SUMS_RE_GRID,
                             want_deriv, sieved)
    rest = _em_group_rounding(re_min, re_max, big_s, alpha, n_terms, n_corr, want_deriv, sums)
    step = math.log2(n_terms + 1) + (0.0 if sieved else 3.0)     # with c_0
    if alpha == 1.0:
        return _EPS * step + rest        # the first term is 1
    log_a = math.log(alpha)
    if exact_lead:
        # exp, the correction and the final sum, about 4 eps, and the
        # derivative's term ln(a) a^(-s), 6 eps |ln a|; with margin
        lead = max(6.0, 8.0 * abs(log_a)) if want_deriv else 6.0
    else:
        lead = (step + big_s * abs(log_a)) * (max(1.0, abs(log_a)) if want_deriv else 1.0)
    return _EPS * lead * np.exp(-log_a * re) + rest


def _em_sums_bound(points: int, re_min: float, alpha: float, want_deriv: bool,
                   n_terms: int) -> tuple:
    """Closed-form bounds on _em_weighted_sums, without its O(N) sums.

    sum_{n=1}^{N-1} (n+a)^(-r) <= (1+a)^(-r) + int_1^N (x+a)^(-r) dx, with
    |ln(n+a)| <= ln(N+a), and Omega(n) <= log2 n wherever the sieved table
    may run.
    """
    la, l1 = math.log(n_terms + alpha), math.log(1.0 + alpha)
    u = (1.0 - re_min) * (la - l1)
    growth = math.expm1(u) / u if u else 1.0
    plain = (1.0 + alpha) ** -re_min * (1.0 + (la - l1) * (1.0 + alpha) * growth)
    if want_deriv:
        plain *= max(1.0, la)
    n_rows = n_terms + 1
    sieve = alpha == 1.0 and points * n_rows >= _SIEVE_PASS_OVERHEAD * (n_rows.bit_length() - 1)
    own = 4.0 * math.log2(n_rows) if sieve else 3.0
    return plain, la * plain, own * plain, own


# The factors s + i, i = 0..2K+1, of (s)_(2K+2) for K <= 12, and the least
# |s + i| counted: it keeps the logarithm finite at the trivial zeros, and
# raising a factor only raises the bound
_POCHHAMMER_FACTORS = 2 * _EM_MAX_CORRECTIONS + 2
_POCHHAMMER_FLOOR = 2.0 ** -6

# The plan cell of an Euler-Maclaurin group (_em_plan): max|s| rounded up to
# a power of 2^(1/_CELL_LADDER); the Re s hull floored and ceiled to the
# 1/_CELL_RE_GRID grid; left of Re s = 0 also max|Im s|, rounded up like
# max|s| from at least _CELL_IM_FLOOR; tol rounded down to a power of
# 2^(1/_CELL_TOL_LADDER); and the batch size rounded up to a power of 2.
# Over one pass of perfbench's inputs (seed 1), the 24,282 groups of strip
# fell in 568 cells and the 32,445 of seeds_1d in 1,049; with the last 256
# cells' plans kept, 97.5% and 95.1% of the plans hit the cache (96.8% for
# seeds_1d without a bound).  The wider hull costs 2.1% and 3.1% more terms
# (7.9% on the 32-point groups left of 0, whose Pochhammer bound is the
# product of corner maxima).  A 1/256 Re grid cut that to 1.5% and 0.2%,
# but only 72.5% of seeds_1d's plans hit; 1/8 raised it to 2.8% and 4.6%.
# An entry costs about 0.5 kB.
_CELL_LADDER = 32
_CELL_RE_GRID = 16
_CELL_IM_FLOOR = 2.0 ** -8
_CELL_TOL_LADDER = 4
_PLAN_CACHE_SIZE = 256
# min Re s of _em_rounding's O(N) sums, floored to 1/256: at N = 400 they
# over-count by at most 400^(1/256), 2.4%
_SUMS_RE_GRID = 256


def _rung_up(x: float, ladder: int) -> int:
    """The least k with 2^(k/ladder) >= x > 0."""
    k = math.ceil(math.log2(x) * ladder)
    return k if 2.0 ** (k / ladder) >= x else k + 1


def _rung_down(x: float, ladder: int) -> int:
    """The greatest k with 2^(k/ladder) <= x, x > 0."""
    k = math.floor(math.log2(x) * ladder)
    return k if 2.0 ** (k / ladder) <= x else k - 1


def _least_corrections(re_min: float) -> int:
    """The least K >= 1 with re_min + 2K + 1 > 0."""
    return max(1, math.floor(-(re_min + 1.0) / 2.0) + 1)


def _em_plan(s: np.ndarray, alpha: float, tol: float, want_deriv: bool, re_min: float):
    """Term count N, correction count K and error bounds for an Euler-Maclaurin group.

    The group is planned for its cell (see _CELL_LADDER): N and K are a
    pure function of the cell, cached in _cell_plan, so the RK stages of a
    flow and the steps of a march, whose points move little from call to
    call, plan once per cell.  The remainder bound of _cell_plan holds at
    every point of the cell.  Raises AccuracyError, naming the group's
    point and route "series-em", at Re s <= -25, where no K <= 12 bounds
    the remainder, and where no N <= 2^31 meets it, and DomainError, naming
    the point, where |s| is not finite.  Returns (N, K, remainder bound,
    S), S = max|s| of the group itself, as the rounding counts it.
    """
    abs_s = np.abs(s)
    big_s = float(abs_s.max())
    if not math.isfinite(big_s):                # NaN propagates through the max
        raise DomainError("s must be finite "
                          + _at(complex(s[np.argmax(~np.isfinite(abs_s))]), alpha, "series-em"))
    big_s = max(big_s, 1e-300)                  # s = 0 zeroes every correction
    re_lo = math.floor(re_min * _CELL_RE_GRID)
    if _least_corrections(re_lo / _CELL_RE_GRID) > _EM_MAX_CORRECTIONS:
        raise AccuracyError(f"no remainder bound with K <= {_EM_MAX_CORRECTIONS} corrections "
                            + _at(complex(s[np.argmin(s.real)]), alpha, "series-em"))
    re_max = float(s.real.max()) if s.size > 1 else re_min
    im_rung = None
    if re_lo < 0:
        im_rung = _rung_up(max(float(np.abs(s.imag).max()), _CELL_IM_FLOOR), _CELL_LADDER)
    plan = _cell_plan(alpha, want_deriv, _rung_down(tol, _CELL_TOL_LADDER),
                      _rung_up(big_s, _CELL_LADDER), re_lo, math.ceil(re_max * _CELL_RE_GRID),
                      im_rung, (s.size - 1).bit_length())
    if plan is None:
        raise AccuracyError("no remainder bound with N <= 2^31 terms "
                            + _at(complex(s[np.argmax(abs_s)]), alpha, "series-em"))
    return (*plan, big_s)


@lru_cache(maxsize=_PLAN_CACHE_SIZE)
def _cell_plan(alpha: float, want_deriv: bool, tol_rung: int, s_rung: int, re_lo: int,
               re_hi: int, im_rung: int | None, size_class: int):
    """(N, K, remainder bound) of an Euler-Maclaurin cell, or None past 2^31 terms.

    The cell holds the points with |s| <= S = 2^(s_rung/_CELL_LADDER) and
    r = re_lo/_CELL_RE_GRID <= Re s <= re_hi/_CELL_RE_GRID, and for r < 0
    |Im s| <= 2^(im_rung/_CELL_LADDER), in groups of at most 2^size_class
    points; the target is tol = 2^(tol_rung/_CELL_TOL_LADDER).  After K
    corrections the remainder is R = int_N^inf P(x) (s)_{2K+2}
    (x+a)^(-s-2K-2) dx, where P = (B_{2K+2}({x}) - B_{2K+2})/(2K+2)! keeps
    one sign and averages -C_{K+1} over each period, so against decreasing
    convex weights it counts as |C_{K+1}| (Edwards, Riemann's Zeta Function,
    6.4).  With p = r+2K+1 > 0 and |(s)_{2K+2}| <= Pi,

        |R|  <= M(N+a),   M(x) = |C_{K+1}| Pi x^(-p) / p,
        |R'| <= M(N+a) (H + ln(N+a) + 1/p)

    at every point of the cell, Pi = prod_{i=0}^{2K+1} M_i and H = sum 1/M_i,
    M_i >= max|s+i|: S+i, and for r < 0 the least of S+i and the largest
    |s+i| at the corners of the cell's rectangle, floored at
    _POCHHAMMER_FLOOR, which sees the trivial zeros.  K runs from the least
    count with p > 0 to 12; per K, N is the least count whose majorant
    meets the target.  Work is one complex power per point and term, and
    per correction a Horner step of _EM_STEP_COST_PER_POINT terms per point
    plus _EM_STEP_OVERHEAD.  The least-work pair wins where its counted
    rounding (_em_group_rounding, at the cell's bounds) is within
    _EM_ROUNDING_SLACK of the target.  Elsewhere rounding limits the
    result: the least K past it whose rounding (_em_sums_bound) is within
    that slack of max(target, the rounding at K = 12, the fewest terms)
    wins.  For r < 0, where the terms grow, the target is raised to the
    rounding at the K = 12 balance point, the least N with M(N) below the
    rounding, so a tighter tol does not raise the estimate there.
    """
    target = 2.0 ** (tol_rung / _CELL_TOL_LADDER)
    big_s = 2.0 ** (s_rung / _CELL_LADDER)
    re_min, re_max = re_lo / _CELL_RE_GRID, re_hi / _CELL_RE_GRID
    points = 1 << size_class
    step_cost = _EM_STEP_COST_PER_POINT * points + _EM_STEP_OVERHEAD

    def rounding(n_terms, k):
        """_em_group_rounding at (N, K) from _em_sums_bound: the ranking of the pairs."""
        sums = _em_sums_bound(points, re_min, alpha, want_deriv, n_terms)
        return _em_group_rounding(re_min, re_max, big_s, alpha, n_terms, k, want_deriv, sums)

    factors = [big_s + i for i in range(_POCHHAMMER_FACTORS)]
    if im_rung is not None:
        big_im = 2.0 ** (im_rung / _CELL_LADDER)
        factors = [max(_POCHHAMMER_FLOOR,
                       min(f, math.hypot(max(abs(re_min + i), abs(re_max + i)), big_im)))
                   for i, f in enumerate(factors)]
    risings, log_rising, harmonic = [], 0.0, 0.0     # (ln Pi, H) for K = 0..12
    for i in range(0, _POCHHAMMER_FACTORS, 2):
        log_rising += math.log(factors[i]) + math.log(factors[i + 1])
        harmonic += 1.0 / factors[i] + 1.0 / factors[i + 1]
        risings.append((log_rising, harmonic))

    def plan(k, target):
        """(work, N, K, remainder): the least N whose majorant meets ``target``; None past 2^31."""
        log_rising, harmonic = risings[k]
        power = re_min + 2 * k + 1
        log_amp = _EM_LOG_COEF[k] + log_rising - math.log(power)
        log_target = math.log(target)
        # M(x) factor(x) = target; factor grows like ln x, so a few fixed-point
        # rounds from below leave at most a step or two to the loop
        x = 1.0 + alpha
        for _ in range(3 if want_deriv else 1):
            factor = max(1.0, harmonic + math.log(x) + 1.0 / power) if want_deriv else 1.0
            log_x = (log_amp + math.log(factor) - log_target) / power
            if log_x > _EM_LOG_MAX_TERMS:
                return None
            x = max(1.0 + alpha, math.exp(log_x))
        n_terms = math.ceil(x - alpha)  # >= 1, as x >= 1+a
        while True:
            x = n_terms + alpha
            remainder = math.exp(log_amp - power * math.log(x))
            if want_deriv:
                remainder *= max(1.0, harmonic + math.log(x) + 1.0 / power)
            if remainder <= target:
                return points * n_terms + k * step_cost, n_terms, k, remainder
            n_terms += 1

    if re_min < 0.0:
        # bisect for the balance point, the least N with M(N) <= rounding(N)
        # (the least N meeting rounding(N) is then at most N), below an N
        # with M(N) <= eps, which every rounding exceeds
        last = _EM_MAX_CORRECTIONS
        lo, hi = 1, (plan(last, _EPS) or (0, 2 ** 31))[1]
        while lo < hi:
            mid = (lo + hi) // 2
            if (plan(last, rounding(mid, last)) or (0, 2 ** 31))[1] <= mid:
                hi = mid
            else:
                lo = mid + 1
        target = max(target, rounding(lo, last))
    best = None
    for k in range(_least_corrections(re_min), _EM_MAX_CORRECTIONS + 1):
        if best is not None and k * step_cost >= best[0]:
            break  # the corrections alone cost more than the best pair
        if (candidate := plan(k, target)) and (best is None or candidate[0] < best[0]):
            best = candidate
    if best is None:
        return None
    work, n_terms, k, remainder = best
    sieved = alpha == 1.0 and _sieve_pays(points, n_terms)
    sums = _em_weighted_sums(alpha, n_terms, re_min, want_deriv, sieved)
    if (_em_group_rounding(re_min, re_max, big_s, alpha, n_terms, k, want_deriv, sums)
            > _EM_ROUNDING_SLACK * target):
        # past the least-work K the work grows with K and the rounding falls
        last = plan(_EM_MAX_CORRECTIONS, target) or best
        limit = _EM_ROUNDING_SLACK * max(target, rounding(last[1], last[2]))
        work, n_terms, k, remainder = next(
            candidate for candidate in (plan(j, target) for j in range(k, _EM_MAX_CORRECTIONS + 1))
            if candidate and rounding(candidate[1], candidate[2]) <= limit)
    return n_terms, k, remainder


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
    """alpha^(-s) with a relative error of a few eps, where exp(-s fl(ln a)) is off by eps |s ln a|.

    -s ln(a) = w + delta, w = -fl(s hi) and delta = -(s lo + the exact
    residual of s hi by Dekker's two-product), and a^(-s) = e^w (1 + delta).
    """
    hi, lo, hi_hi, hi_lo = _log_parts(alpha)
    prod = s * hi
    c = _SPLITTER * s
    s_hi = c - (c - s)
    s_lo = s - s_hi
    residual = ((s_hi * hi_hi - prod) + s_hi * hi_lo + s_lo * hi_hi) + s_lo * hi_lo
    return np.exp(-prod) * (1.0 - (residual + s * lo))


def _em_split(s: np.ndarray, alpha, n_terms: int, n_corr: int, exact_lead,
              want_deriv: bool, sieved: bool):
    """Euler-Maclaurin evaluation with the 1/(s-1) pole kept symbolic.

    Returns (regular, d_regular or None) with zeta(s, alpha) = regular +
    1/(s-1) and zeta'(s, alpha) = d_regular - 1/(s-1)^2, for ``n_terms``
    terms and ``n_corr`` corrections.  ``alpha`` is one a, or a tuple of them
    that gives the results a leading residue axis; ``exact_lead`` is then a
    tuple of flags, one per a.  Where an a's flag is set its n = 0 term
    comes from _leading_power, and with ``sieved`` (a = 1 alone) the terms
    come from _sieved_sums.  The residues share one exp over (residue, point, term),
    blocked to _EM_BLOCK elements, and one pass of every other step, with
    their constants held as columns (_em_columns); the arithmetic per
    element is that of a single a.
    """
    s = np.asarray(s, dtype=complex)
    single = not isinstance(alpha, tuple)
    alphas, leads = ((alpha,), (exact_lead,)) if single else (alpha, exact_lead)
    flat = s.ravel()
    # numpy's complex product rounds differently where an operand is
    # broadcast, so the products past the partial sums take every point
    # repeated per a
    grid = flat[None] if len(alphas) == 1 else np.repeat(flat[None], len(alphas), axis=0)
    logs, la, big_a, horner = _em_columns(alphas, n_terms)
    if sieved:
        partial, dpartial, decay = _sieved_sums(flat, n_terms, want_deriv)
    else:
        # partial sums of the defining series, each a from its own first term
        firsts = [1 if lead else 0 for lead in leads]
        start = min(firsts)
        terms = logs[:, None, start:n_terms]
        cuts = [first - start for first in firsts]

        def sums(sl):
            mat = np.exp(-sl[:, None] * terms)
            if not any(cuts):
                return mat.sum(axis=-1), (-(mat * terms).sum(axis=-1) if want_deriv else None)
            rows = [(mat[r, :, c:], terms[r, :, c:]) for r, c in enumerate(cuts)]
            return (np.array([m.sum(axis=-1) for m, _ in rows]),
                    np.array([-(m * t).sum(axis=-1) for m, t in rows]) if want_deriv else None)

        block = max(1, _EM_BLOCK // (len(alphas) * max(n_terms, 1)))
        if flat.size <= block:
            partial, dpartial = sums(flat)
        else:
            partial = np.empty((len(alphas), flat.size), dtype=complex)
            dpartial = np.empty_like(partial) if want_deriv else None
            for i in range(0, flat.size, block):
                partial[:, i:i + block], part = sums(flat[i:i + block])
                if want_deriv:
                    dpartial[:, i:i + block] = part
        for r, (a, lead) in enumerate(zip(alphas, leads)):
            if lead:
                power = _leading_power(flat, a)
                partial[r] += power
                if want_deriv:
                    hi, lo = _log_parts(a)[:2]
                    dpartial[r] -= (hi + lo) * power
        decay = np.exp(-grid * la)          # (N+a)^{-s}

    w = -(grid - 1.0) * la
    # (N+a)^(1-s)/(s-1) = -ln(N+a) f(-(s-1) ln(N+a)) + 1/(s-1)
    reg_int = -la * expm1_over(w)

    # (N+a)^(-s) [1/2 + sum_{j<=K} C_j (s)_{2j-1} (N+a)^(1-2j)], the sum by
    # Horner's rule: (s/(N+a)) (D_1 + v_1 (D_2 + v_2 (... + v_{K-1} D_K)))
    # with v_j = (s+2j-1)(s+2j) and D_j = C_j (N+a)^(2-2j)
    acc = horner[n_corr - 1]
    dacc = np.zeros_like(grid) if want_deriv else None
    for j in range(n_corr - 1, 0, -1):
        v = (grid + (2 * j - 1)) * (grid + 2 * j)
        if want_deriv:
            dacc = dacc * v + acc * (2.0 * grid + (4 * j - 1))
        acc = acc * v + horner[j - 1]
    tail = 0.5 + grid * acc / big_a
    shape = s.shape if single else (len(alphas),) + s.shape
    regular = (partial + reg_int + decay * tail).reshape(shape)
    if not want_deriv:
        return regular, None
    dreg_int = la * la * expm1_over_deriv(w)
    dtail = (acc + grid * dacc) / big_a - la * tail
    return regular, (dpartial + dreg_int + decay * dtail).reshape(shape)


def euler_maclaurin_split(s, alpha, tol: float = 1e-12, want_deriv: bool = False):
    """Euler-Maclaurin split evaluation (vectorized), for one a or several.

    Returns (regular, d_regular or None, error_estimate), all shaped like
    ``s``, with a leading residue axis where ``alpha`` is a sequence.  All
    the a of a sequence run in one kernel call (_em_split) on one plan,
    made by _em_plan at the least a.  That plan holds for every a: its
    remainder majorants M(x) = |C_{K+1}| Pi x^(-p) / p and, for the
    derivative, M(x) (H + ln x + 1/p), p > 0, are read at x = N + a and
    fall as x grows, the second as its x-derivative is
    -p x^(-p-1) (H + ln x) < 0 for x > 1.  Each a's estimate is that
    remainder bound plus the float64 rounding of the kernel with its own a
    (_em_rounding), so rounding alone can take it past ``tol``: at large
    |Im s|, and left of Re s = 0.  The leading term a^(-s) is formed to a
    few eps (_leading_power) for each a where its plain rounding could
    reach a tenth of ``tol``.  For a = 1 alone the kernel takes the sieved
    table where _sieve_pays.  Raises AccuracyError at Re s <= -25, and
    where a^(-s) leaves the float64 range; both name the point.
    """
    alphas, single = _check_alphas(alpha)
    s = np.asarray(s, dtype=complex)
    shape = s.shape if single else (len(alphas),) + s.shape
    if s.size == 0:
        empty = np.empty(shape, dtype=complex)
        return empty, (empty.copy() if want_deriv else None), np.zeros(shape)
    flat = s.ravel()
    re = flat.real
    re_min, re_max = float(re.min()), float(re.max())
    low = min(alphas)
    n_terms, n_corr, remainder, big_s = _em_plan(flat, low, tol, want_deriv, re_min)
    if -re_max * math.log(low) > _LOG_FLOAT_MAX:
        raise AccuracyError("a^(-s) leaves the float64 range "
                            + _at(complex(flat[np.argmax(re)]), low, "series-em"))
    # the plain rounding of a^(-s), eps |s| |ln a| a^(-Re s), against tol / 10
    log_tol = math.log(0.1 * tol)
    log_rounding = math.log(_EPS * big_s)
    leads = tuple(a < 1.0
                  and log_rounding + math.log(-math.log(a)) - re_max * math.log(a) > log_tol
                  for a in alphas)
    sieved = alphas == (1.0,) and _sieve_pays(flat.size, n_terms)
    est = np.empty((len(alphas), flat.size))
    for r, (a, lead) in enumerate(zip(alphas, leads)):
        est[r] = remainder + _em_rounding(re, re_min, re_max, big_s, a, n_terms, n_corr, lead,
                                          want_deriv, sieved)
    return (*_em_split(s, alphas[0] if single else alphas, n_terms, n_corr,
                       leads[0] if single else leads, want_deriv, sieved), est.reshape(shape))


# ---------------------------------------------------------------------------
# ln Gamma and psi by Stirling's series, for the reflection route.
# ---------------------------------------------------------------------------

# Stirling's series is summed to J terms after an upward shift to Re z >= 10.
# The remainder bounds below are taken per point and hold at every |Im z|;
# there they stay under 2e-17.
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
    sec^(2J+2)(arg z / 2) (DLMF 5.11.ii); that of the second the first
    omitted term over min_{t >= 0} |t^2 + z^2| / |z|^2, 1 for |arg z| <= pi/4
    and |sin(2 arg z)| beyond (Binet's integral for psi).  Each bound adds
    about eps times each term above.  Returns (ln Gamma, bound) or, with
    ``want_digamma``, (ln Gamma, bound, psi, bound).
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
# The reflection route: Hurwitz's formula for a = r/m at u = 1 - s (see the
# module docstring), m Euler-Maclaurin evaluations at Re u > 4 shared by
# every residue r of the period.
# ---------------------------------------------------------------------------

# sum_{n>=1} ln(n+1)^j n^-4 for j = 1, 2 (0.79 and 0.60), rounded up: with the
# n = 0 term |ln a|^j a^-Re u they bound |zeta^(j)(u, a)| for Re u >= 4
_ZETA_D1_TAIL = 0.8
_ZETA_D2_TAIL = 0.7


@lru_cache(maxsize=16)
def _reflect_tables(period: int, residues: tuple):
    """The constant factors of _reflect for a period m and its residues r, read-only.

    q = 2kr/m mod 2, shape (R, m, 1), and ln(k/m) as a column, k = 1..m.
    """
    k = np.arange(1, period + 1)
    q = (2 * np.multiply.outer(np.array(residues), k) % (2 * period)) / period
    tables = (q[:, :, None], np.log(k / period)[:, None])
    for arr in tables:
        arr.setflags(write=False)
    return tables


def _reflect(s: np.ndarray, period: int, alphas, tol: float, want_deriv: bool):
    """Regular parts of zeta(s, r/m), and with ``want_deriv`` of zeta', for each r/m in ``alphas``.

    Returns (values, derivatives or None, estimates), each of shape
    (len(alphas), s.size).  With G = 2 Gamma(u) (2 pi m)^(-u), C_k, S_k =
    cos, sin(pi u/2 - 2 pi k r/m) and Z_k = zeta(u, k/m), the value is
    G sum_k C_k Z_k and its s-derivative -G ((psi(u) - ln(2 pi m)) sum_k C_k
    Z_k - (pi/2) sum_k S_k Z_k + sum_k C_k Z_k'), both from one ln Gamma
    (with psi) and one Euler-Maclaurin call for every Z_k (and Z_k'),
    k = 1..m, planned at a = 1/m, at _H_TAIL_SHARE ``tol`` over the largest
    weight |G| sum_k |C_k| (for the derivative, |G| sum_k (|C_k| (|psi(u) -
    ln(2 pi m)| + 1) + (pi/2) |S_k|)).  The estimate adds the rounding of
    every factor: of G and the products times |G| sum_k |C_k| |Z_k|, of the
    phase times |G| sum_k |S_k| |Z_k| (absolute near the trivial zeros), and
    of u = 1 - s, eps |Re u| / 2, times a bound on the u-derivative; with
    ``want_deriv`` it bounds the error of the value and of the derivative.
    Raises AccuracyError where a factor leaves the float64 range.
    """
    m = period
    u = 1.0 - s

    def overflow(finite, what):
        if not finite.all():
            s_bad = complex(s[~finite][0])
            raise AccuracyError(f"{what} overflows "
                                + _at(s_bad, alphas[0] if len(alphas) == 1 else alphas, "reflect"))

    abs_u = np.abs(u)
    big_l = math.log(_TWO_PI * m)
    gamma = _log_gamma(u, want_deriv)
    lg, lg_err = gamma[:2]
    q, log_a = _reflect_tables(m, tuple(round(a * m) for a in alphas))
    half = np.remainder(0.5 * u.real, 2.0) + 0.5j * u.imag          # u/2 mod 2
    phase = math.pi * (half - q)                                     # (R, m, n)
    with np.errstate(over="ignore", invalid="ignore"):      # checked below
        g = 2.0 * np.exp(lg - u * big_l)
        cos, sin = np.cos(phase), np.sin(phase)
        abs_g, abs_c, abs_s = np.abs(g), np.abs(cos), np.abs(sin)
        overflow(np.isfinite(abs_g), "2 Gamma(1-s) (2 pi m)^(s-1)")
        # cosh(pi |Im s| / 2) passes the float64 range near |Im s| = 452
        overflow(np.isfinite(abs_g * (abs_c + abs_s).sum(axis=(0, 1))),
                 "2 Gamma(1-s) (2 pi m)^(s-1) cos(pi (1-s)/2 - 2 pi k r/m)")
    if want_deriv:
        dlog = gamma[2] - big_l
        abs_dlog = np.abs(dlog)
        weight = abs_c * (abs_dlog + 1.0) + (0.5 * math.pi) * abs_s
    else:
        weight = abs_c
    tol_em = _H_TAIL_SHARE * tol / max(1.0, float(np.max(abs_g * weight.sum(axis=1))))
    pole = 1.0 / (u - 1.0)
    regs, dregs, em_est = euler_maclaurin_split(u, tuple((k + 1) / m for k in range(m)),
                                                tol=tol_em, want_deriv=want_deriv)
    zs = regs + pole
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
    a_pow = np.exp(-log_a * u.real)
    s_pole = 1.0 / (s - 1.0)
    # |dV/du| <= |G| sum_k ((|psi(u) - ln(2 pi m)| |C_k| + (pi/2) |S_k|) |Z_k|
    # + |C_k| |Z_k'|), and |psi(u) - ln u| < 0.2 for |u| >= 4
    dlog_bound = np.abs(np.log(u) - big_l) + 0.2
    d1 = np.abs(log_a) * a_pow + _ZETA_D1_TAIL
    est = (abs_g * (abs_c * (em_est + (rel + inexact_u * dlog_bound) * abs_z
                             + inexact_u * d1)
                    + abs_s * (dphase + inexact_u * 0.5 * math.pi) * abs_z).sum(axis=1)
           + _EPS * np.abs(s_pole))
    value = g * sums - s_pole
    if not want_deriv:
        return value, None, est
    dzs = dregs - pole * pole
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
    dest = (abs_g * (weight * em_est
                     + abs_c * (rel * c_part + psi_err * abs_z)
                     + abs_s * (rel * s_part + dphase * c_part)
                     + abs_c * dphase * s_part
                     + inexact_u * second).sum(axis=1)
            + _EPS * np.abs(s_pole) ** 2)
    return value, dvalue + s_pole * s_pole, np.maximum(est, dest)


# ---------------------------------------------------------------------------
# The Hurwitz router and the assembled Hurwitz / Riemann zeta.
# ---------------------------------------------------------------------------

# Left of Re s = -3 the Euler-Maclaurin boundary terms grow like
# (N+a)^(1-Re s), and float64 cancellation against the partial sum costs eps
# times that.  There a point with a period takes the reflection; other a
# take the h-rule while its envelope factor cosh(|Im s| pi/2) stays
# moderate, up to |Im s| = 15 (cosh(15 pi/2) ~ 6e9).  numpy's per-call
# overhead makes the h-rule the cheaper route for a size-1 call up to
# |Im s| = 15 (2.5x against Euler-Maclaurin at s = 2, 115 against 299 us
# against the reflection at s = -5), so there it serves Re s < 8 as well.
_H_RULE_RE_LIMIT = -3.0
_SINGLE_H_RULE_RE_LIMIT = 8.0
HERMITE_IM_LIMIT = 15.0


# Route codes of hurwitz_split_many, indexing ROUTES
SERIES_EM, HERMITE, REFLECT = 0, 1, 2
ROUTES = ("series-em", "hermite", "reflect")


def _route_masks(s: np.ndarray, alphas: tuple, tol: float, want_deriv: bool,
                 has_period: bool):
    """(reflect, hermite) masks of the points that leave Euler-Maclaurin, one route per point.

    The h-rule takes |Im s| <= 15 with Re s < -3 (Re s < 8 for a size-1
    call, which right of Re s = -3 keeps the rule only where _h_rule_fits
    for every a and order); given a period, every point left of Re s = -3
    reflects instead, except a size-1 call on the h-rule.
    """
    re_limit = _SINGLE_H_RULE_RE_LIMIT if s.size == 1 else _H_RULE_RE_LIMIT
    hermite = (s.real < re_limit) & (np.abs(s.imag) <= HERMITE_IM_LIMIT)
    if s.size == 1 and hermite[0] and s.real[0] >= _H_RULE_RE_LIMIT:
        hermite[0] = _h_rule_fits(complex(s[0]), alphas, tol, want_deriv)
    if not has_period:
        return np.zeros_like(hermite), hermite
    reflect = s.real < _H_RULE_RE_LIMIT
    if s.size == 1:
        return reflect & ~hermite, hermite
    return reflect, np.zeros_like(hermite)


def hurwitz_split_many(s, alpha, tol: float = 1e-12, deriv: bool = False,
                       period: int | None = None):
    """The Hurwitz router: regular parts, per-point error estimates, routes.

    The regular parts are R with zeta(s, a) = R + 1/(s-1) and R' with
    zeta'(s, a) = R' - 1/(s-1)^2.  ``alpha`` is one a in (0, 1] or a
    sequence of them; with ``period`` m every a must be a residue r/m, and
    a = 1 alone implies m = 1.  _route_masks gives each point one route,
    shared by every residue; each route is one kernel call for all the
    residues: the reflection, d (or d') plus the h-rule, and Euler-Maclaurin
    once per sign of Re s: as one group, {-2.9, 0.5+300i} takes N = 179 and
    the -2.9 point comes out 3e-7 off, against 2.5e-13 alone.  ``deriv``
    False gives R, True the pair (R, R') from the same kernel calls, with
    one estimate bounding each.  Returns (values, estimates, routes), routes
    holding a code per point (SERIES_EM, HERMITE or REFLECT, indexing
    ROUTES), each shaped like ``s`` with a leading axis over a sequence
    ``alpha``.
    """
    alphas, single_alpha = _check_alphas(alpha)
    if period is None:
        period = 1 if alphas == (1.0,) else None
    elif any(abs(a * period - round(a * period)) > 1e-9 for a in alphas):
        raise DomainError(f"alpha {alpha!r} is not a residue r/{period}")
    s = np.asarray(s, dtype=complex)
    flat = s.ravel()
    out = np.empty((len(alphas), flat.size), dtype=complex)
    dout = np.empty_like(out) if deriv else None
    est = np.empty(out.shape)
    codes = np.zeros(flat.size, dtype=np.int8)              # SERIES_EM

    def put(at, values, dvalues, errors):
        """Store a kernel's (R, R' or None, estimates) at the points ``at``."""
        out[:, at], est[:, at] = values, errors
        if deriv:
            dout[:, at] = dvalues

    reflect, on_h = _route_masks(flat, alphas, tol, deriv, period is not None)
    n_reflect, n_hermite = np.count_nonzero(reflect), np.count_nonzero(on_h)
    if n_reflect:
        put(reflect, *_reflect(flat[reflect], period, alphas, tol, deriv))
        codes[reflect] = REFLECT
    if n_hermite:
        sf = flat[on_h]
        h, dh, errors = _h_rule(sf, alphas, tol, deriv)
        put(on_h, np.array([hermite_d_many(sf, a) for a in alphas]) + h,
            np.array([hermite_d_deriv_many(sf, a) for a in alphas]) + dh if deriv else None,
            errors)
        codes[on_h] = HERMITE
    n_em = flat.size - n_reflect - n_hermite
    if n_em:
        em = ~(reflect | on_h)
        negative = em & (flat.real < 0.0)
        n_negative = np.count_nonzero(negative)
        for size, group in ((n_negative, negative), (n_em - n_negative, em & ~negative)):
            if size:        # a group of every point, as in a size-1 call, is not copied
                at = slice(None) if size == flat.size else group
                put(at, *euler_maclaurin_split(flat[at], alphas, tol=tol, want_deriv=deriv))
    shape = s.shape if single_alpha else (len(alphas),) + s.shape
    values = (out.reshape(shape), dout.reshape(shape)) if deriv else out.reshape(shape)
    return values, est.reshape(shape), np.repeat(codes[None], len(alphas), axis=0).reshape(shape)


def _split_point(s, alpha: float, cfg: EvalConfig, deriv: bool):
    """One point through the router: (R or R', estimate, route); AccuracyError unless accepted."""
    s = complex(s)
    reg, est, route = hurwitz_split_many(np.array([s]), alpha, cfg.split_tol, deriv)
    value, est, route = complex((reg[1] if deriv else reg)[0]), float(est[0]), ROUTES[route[0]]
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


def d_sup_bound(alpha: float, beta: float) -> float:
    """1.1 x the sampled sup of |d| on a 101^2 grid (no closed form; feeds the existence time)."""
    alpha = _check_alpha(alpha)
    if beta <= 0:
        raise DomainError("beta must be positive")
    if alpha == 1.0:
        return 1.1 * 0.5  # d is identically 1/2
    x = np.linspace(-beta, beta, 101)
    ss = x[:, None] + 1j * x[None, :]
    vals = hermite_d_many(ss.ravel(), alpha)
    return 1.1 * float(np.max(np.abs(vals)))
