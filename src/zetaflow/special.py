"""Hurwitz/Riemann zeta evaluation and the explicit sup-norm bound constants.

One router, ``hurwitz_split_many``, evaluates the regular part of zeta(s, a)
(the 1/(s-1) pole term kept symbolic), or it and its derivative from one
call, with a per-point error estimate and route, for batches, for all
residues of an L-function at once and, as size-1 calls, for every scalar
entry point.  One predicate, ``_route_masks``, gives each point one route,
which every residue takes, from the point and whether the residues share a
period alone, so a point takes the same route at every batch size.  Each
route is one kernel call for all the residues (Euler-Maclaurin one per sign
of Re s), with one contract: (R, R' or None, estimate), with a leading
residue axis, R and R' from one pass and one estimate bounding each.  A call
whose points make one Euler-Maclaurin group, as a size-1 call right of
Re s = -3 does, or all reflect, returns that kernel call's arrays as they
are.  The routes, as the router names them:

* "reflect" left of Re s = -3, at every |Im s|, when a = 1 or a is a
  residue r/m of a given period m.  Hurwitz's formula (Apostol,
  Introduction to Analytic Number Theory, Thm 12.6) read at u = 1 - s,
  zeta(s, r/m) = 2 Gamma(u) (2 pi m)^(-u) sum_k cos(pi u/2 - 2 pi k r/m) zeta(u, k/m),
  turns the batch into one Euler-Maclaurin call for the m parameters k/m
  at Re u > 4, shared by every residue.  ln Gamma and psi come from
  Stirling's series with explicit remainders.  The estimate adds the
  float64 rounding of every factor in absolute terms, so it holds at the
  trivial zeros too; where a factor leaves the float64 range it raises
  AccuracyError.
* "hermite" left of Re s = -3 up to |Im s| = 15 where there is no period:
  zeta(s, a) = 1/(s-1) + d + h, d entire and h an integral by one graded
  fixed-panel Gauss-Legendre rule, whose estimate is its tail level plus
  16 eps times the integral of |integrand|.  The residues share one node
  set, graded at the least a and truncated at the largest truncation point
  over the residues and orders.
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
  row is the product of two earlier rows.  The partial sums are summed by
  pairwise halving, of depth log2 N.

The router's lattice twin, ``hurwitz_grid``, evaluates whole sigma x t
lattices, value only, for the sigma0 scan of the dirichlet module: the rows
where the router takes Euler-Maclaurin (Re s >= -3), split into its sign
groups by its own predicate (_em_left), one kernel call (_em_grid) each,
whose rows share one phase table per a.  The two routers are the only way
into the kernels: no other module calls a kernel or states a route rule.

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
_EM_ABS_COEF = tuple(abs(c) for c in _EM_COEF)
_EM_LOG_COEF = tuple(math.log(c) for c in _EM_ABS_COEF)
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
    if isinstance(alpha, tuple):
        return _checked_tuple(alpha), False
    if isinstance(alpha, list) or (isinstance(alpha, np.ndarray) and alpha.ndim):
        return tuple(map(_check_alpha, alpha)), False
    return (_check_alpha(alpha),), True


@lru_cache(maxsize=64)
def _checked_tuple(alphas: tuple) -> tuple:
    """The a of a tuple, checked.

    Cached: the tuple a router call checked and hands on to its kernel is
    not checked again.
    """
    return tuple(map(_check_alpha, alphas))


@lru_cache(maxsize=64)
def _all_residues(alphas: tuple, period: int) -> bool:
    """Whether every a of ``alphas`` is a residue r/``period``."""
    return all(abs(a * period - round(a * period)) <= 1e-9 for a in alphas)


def _re_hull(flat: np.ndarray) -> tuple[float, float]:
    """(min Re s, max Re s) over the 1-d points ``flat``, at least one; NaN if one is NaN.

    One point is read as it is: a reduction would cost a size-1 call more
    than its arithmetic.
    """
    if flat.size == 1:
        re = float(flat[0].real)
        return re, re
    re = flat.real
    return float(re.min()), float(re.max())


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
    """Power series with ``coefs`` for |u| < 0.5, ``closed(u)`` elsewhere; float64 stays real."""
    u = np.asarray(u)
    u = u if u.dtype == np.float64 else u.astype(complex, copy=False)
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

def _hermite_d(s: np.ndarray, alphas: tuple, want_deriv: bool):
    """(d, d' or None) at the 1-d points ``s``, each shaped (len(alphas), s.size).

    d = l f(l (s-1)) + a^(-s)/2 and d' = l^2 f'(l (s-1)) + l a^(-s)/2, l = ln(1/a), for
    every a from one exp and one pass of f (and f'); rows of a = 1 are 1/2 and 0 exactly.
    """
    d = np.full((len(alphas), s.size), 0.5, dtype=complex)
    dd = np.zeros_like(d) if want_deriv else None
    rows = [k for k, a in enumerate(alphas) if a != 1.0]
    if rows:
        log_a = np.array([[math.log(alphas[k])] for k in rows])
        ell, half_power = -log_a, 0.5 * np.exp(-s * log_a)
        u = ell * (s - 1.0)
        d[rows] = ell * expm1_over(u) + half_power
        if want_deriv:
            dd[rows] = ell * ell * expm1_over_deriv(u) + ell * half_power
    return d, dd


def hermite_d(s, alpha: float) -> complex:
    """Entire part d of the three-term split; d(1, a) = -ln(a) + 1/(2a)."""
    return complex(_hermite_d(np.array([complex(s)]), (_check_alpha(alpha),), False)[0][0, 0])


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


def _h_integral(s: np.ndarray, alphas: tuple, tol: float, want_deriv: bool):
    """(h, h' or None, estimates) at the 1-d points ``s``, each shaped (len(alphas), s.size).

    h(s, a) = 2 int_0^inf sin(s arctan(t/a)) / ((a^2+t^2)^(s/2) (e^{2 pi t} - 1)) dt,
    on the nodes of _h_panels to the largest truncation point over the a and
    the orders of the envelope at max|Re s| + i max|Im s|; h' shares its sin
    and exp.  An estimate is the tail level _H_TAIL_SHARE * tol plus the
    float64 floor of the panel sums, _QUAD_FLOOR times the larger integral
    of |integrand| on the same nodes.
    """
    worst = complex(float(np.abs(s.real).max()), float(np.abs(s.imag).max()))
    tail = max(_truncation_point(worst, a, _H_TAIL_SHARE * tol, deriv)
               for a in alphas for deriv in ((False, True) if want_deriv else (False,)))
    angle, half_log, weights = _h_panels(alphas, math.ceil(tail / _H_PANEL_WIDTH))
    col = s[None, :, None]
    angle, half_log = angle[:, None, :], half_log[:, None, :]
    phase = col * angle                                     # (R, n, nodes)
    sin = np.sin(phase)
    shape, rows = (len(alphas), s.size), (len(alphas) * s.size, weights.size)
    # named, so that numpy writes no product into it: it rounds a complex
    # a * b and b * a differently, and h would then depend on want_deriv
    decay = np.exp(-col * half_log)
    vals = (sin * decay).reshape(rows)
    if want_deriv:
        dvals = ((angle * np.cos(phase) - half_log * sin) * decay).reshape(rows)
        dh = (dvals @ weights).reshape(shape)
        mass = np.maximum(np.abs(vals) @ weights, np.abs(dvals) @ weights)
    else:
        dh, mass = None, np.abs(vals) @ weights
    return ((vals @ weights).reshape(shape), dh,
            (_H_TAIL_SHARE * tol + _QUAD_FLOOR * mass).reshape(shape))


def _h_rule(s: np.ndarray, alphas: tuple, tol: float, want_deriv: bool):
    """The h-rule route's kernel: (R, R' or None, estimates), R = d + h and R' = d' + h'."""
    d, dd = _hermite_d(s, alphas, want_deriv)
    h, dh, est = _h_integral(s, alphas, tol, want_deriv)
    return d + h, dd + dh if want_deriv else None, est


def hermite_h(s, alpha: float, cfg: EvalConfig = DEFAULT_CONFIG) -> complex:
    """Integral part h of the split; PrecisionFloorError, naming s, past abs_tol."""
    alpha = _check_alpha(alpha)
    s = complex(s)
    h, _, est = _h_integral(np.array([s]), (alpha,), cfg.split_tol, False)
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
    total, rising, power, big_a2 = 0.5, big_s, 1.0 / big_a, big_a * big_a
    for j, coef in enumerate(_EM_ABS_COEF[:n_corr], start=1):
        total += coef * rising * power
        rising *= (big_s + 2 * j - 1) * (big_s + 2 * j)
        power /= big_a2
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
    ln(N+a), -ln(N+a), N+a and, on a leading axis j = 1.._EM_MAX_CORRECTIONS,
    the Horner constants D_j = C_j (N+a)^(2-2j), each formed in Python floats
    as for a single a.  All are complex, x + 0i, the operand numpy would cast
    a real x to, so the kernel's complex arithmetic skips the cast and rounds
    alike; the lattice reads the rows' real parts.
    """
    logs = np.stack([_em_logs(a, n_terms)[0] for a in alphas])
    big_a = [n_terms + a for a in alphas]
    inv_a2 = [1.0 / (x * x) for x in big_a]
    horner = np.array([[_EM_COEF[j] * inv ** j for inv in inv_a2]
                       for j in range(_EM_MAX_CORRECTIONS)], dtype=complex)[:, :, None]
    la = [math.log(x) for x in big_a]
    cols = (logs.astype(complex), np.array(la, dtype=complex)[:, None],
            np.array([-x for x in la], dtype=complex)[:, None],
            np.array(big_a, dtype=complex)[:, None], horner)
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


def _sieved_table(s: np.ndarray, n_rows: int) -> np.ndarray:
    """The sieved power table n^(-s), n = 1..``n_rows`` in row n-1, at the 1-d points ``s``."""
    primes, neg_logs, passes, _ = _sieve_plan(n_rows)
    table = np.empty((n_rows, s.size), dtype=complex)
    table[0] = 1.0
    table[primes] = np.exp(neg_logs * s)
    for dst, factor, cofactor in passes:
        table[dst] = table[factor] * table[cofactor]
    return table


def _sieved_sums(flat: np.ndarray, n_terms: int, want_deriv: bool):
    """Sums of n^(-s) and -ln n n^(-s) over n = 1..N, and (N+1)^(-s), from the sieved table.

    Rows n = 1..N+1, points along the contiguous axis, blocked to _EM_BLOCK
    elements, summed by pairwise halving.  Returns (partial, dpartial or None, decay).
    """
    rows = n_terms + 1
    logs = _em_logs(1.0, n_terms)[0][:n_terms, None]         # ln n, n = 1..N
    partial = np.empty_like(flat)
    dpartial = np.empty_like(flat) if want_deriv else None
    decay = np.empty_like(flat)
    block = max(1, _EM_BLOCK // rows)
    for i in range(0, flat.size, block):
        table = _sieved_table(flat[i:i + block], rows)
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
                       n_terms: int, n_corr: int, want_deriv: bool, sums: tuple,
                       depth: float | None = None) -> float:
    """_em_rounding less the first term, one number for the group.

    ``sums`` are those of _em_weighted_sums, or the bounds of _em_sums_bound;
    ``depth`` is the sum's depth, log2(N+1) (pairwise) by default.
    """
    la = math.log(n_terms + alpha)
    plain, logged, own, power = sums
    scale = 1.0 + la if want_deriv else 1.0
    w_floor = max(0.5, max(1.0 - re_max, re_min - 1.0, 0.0) * la)
    tail = _em_tail_majorant(big_s, n_terms + alpha, n_corr)
    boundary = ((power + big_s * la + 2 * n_corr + 2) * tail
                + la * (1.0 + 3.0 / w_floor) * (n_terms + alpha))
    if depth is None:
        depth = math.log2(n_terms + 1)
    rest = (depth * plain + big_s * logged + own
            + scale * math.exp(-re_min * la) * boundary)
    return _EPS * (rest + scale * la * 2.0 / w_floor)


# The own rounding a lattice term w p of _em_grid adds to that of its phase p
# (_term_rounding): the real exp of the weight w = (n+a)^(-sigma), about 3
# eps as for a complex power, and the product w p, 1 eps.
_LATTICE_TERM_ROUNDING = 4.0


def _em_rounding(re: np.ndarray, re_min: float, re_max: float, big_s: float, alphas: tuple,
                 n_terms: int, n_corr: int, leads: tuple, want_deriv: bool, sieved: bool,
                 lattice: bool = False) -> np.ndarray:
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
    an a's flag in ``leads`` _leading_power forms it to a few eps.  With
    ``lattice`` it counts _em_grid instead: each term, and (N+a)^(-s), adds
    _LATTICE_TERM_ROUNDING to its c_n, the sum is sequential, of depth N,
    and ``big_s`` must bound |Re s| + |Im s|, which bounds the exponents'
    rounding of the weight and the phase.  Returns one row per a of
    ``alphas``, shaped (residue, point), in one pass for every residue;
    for a = 1 alone, where the first term is 1, a (1, 1) column.
    """
    re_sums = math.floor(re_min * _SUMS_RE_GRID) / _SUMS_RE_GRID
    depth, own = math.log2(n_terms + 1), 0.0 if sieved else 3.0      # c_0
    if lattice:
        depth, own = float(n_terms), own + _LATTICE_TERM_ROUNDING
    step = depth + own
    rests, leading, log_as = [], [], []
    for a, exact_lead in zip(alphas, leads):
        sums = _em_weighted_sums(a, n_terms, re_sums, want_deriv, sieved)
        if lattice:
            plain, logged, own_sum, power = sums
            sums = (plain, logged, own_sum + _LATTICE_TERM_ROUNDING * plain,
                    power + _LATTICE_TERM_ROUNDING)
        rest = _em_group_rounding(re_min, re_max, big_s, a, n_terms, n_corr, want_deriv, sums,
                                  depth)
        if a == 1.0:
            # the first term is 1: no per-point part, which 0 e^0 adds exactly
            rests.append(_EPS * step + rest)
            leading.append(0.0)
            log_as.append(0.0)
            continue
        log_a = math.log(a)
        if exact_lead:
            # exp, the correction and the final sum, about 4 eps, and the
            # derivative's term ln(a) a^(-s), 6 eps |ln a|; with margin
            lead = max(6.0, 8.0 * abs(log_a)) if want_deriv else 6.0
        else:
            lead = (step + big_s * abs(log_a)) * (max(1.0, abs(log_a)) if want_deriv else 1.0)
        rests.append(rest)
        leading.append(_EPS * lead)
        log_as.append(-log_a)
    if not any(leading):
        return np.array(rests)[:, None]
    cols = np.array((leading, log_as, rests))[..., None]
    return cols[0] * np.exp(cols[1] * re) + cols[2]


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
    grid = flat[None] if len(alphas) == 1 else flat[None].repeat(len(alphas), axis=0)
    logs, la, neg_la, big_a, horner = _em_columns(alphas, n_terms)
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

    boundary, tail, dboundary, dtail = _em_tail(grid, la, neg_la, big_a, horner, n_corr,
                                                want_deriv)
    shape = s.shape if single else (len(alphas),) + s.shape
    regular = (partial + boundary + decay * tail).reshape(shape)
    if not want_deriv:
        return regular, None
    return regular, (dpartial + dboundary + decay * dtail).reshape(shape)


def _em_tail(grid: np.ndarray, la, neg_la, big_a, horner, n_corr: int, want_deriv: bool):
    """(B, T, B' or None, T' or None): the boundary term and the Horner tail at the points ``grid``.

    The regular part is the partial sum + B + (N+a)^(-s) T, and its
    s-derivative the derivative's partial sum + B' + (N+a)^(-s) T'.  ``la``,
    ``neg_la``, ``big_a`` and ``horner`` are the columns ln(N+a), -ln(N+a),
    N+a and D_j of _em_columns, against the residue axis of ``grid``.
    """
    w = -(grid - _ONE) * la
    # (N+a)^(1-s)/(s-1) = -ln(N+a) f(-(s-1) ln(N+a)) + 1/(s-1)
    boundary = neg_la * expm1_over(w)

    acc, dacc = _em_horner(grid, horner, n_corr, want_deriv)
    tail = _HALF + grid * acc / big_a
    if not want_deriv:
        return boundary, tail, None, None
    return (boundary, tail, la * la * expm1_over_deriv(w),
            (acc + grid * dacc) / big_a - la * tail)


# v_j = (s+2j-1)(s+2j) and its s-derivative 2s+4j-1 add 2j-1, 2j and 4j-1,
# j = 1.._EM_MAX_CORRECTIONS-1, to s and 2s, on a leading axis over j; these
# and the tail's 1 and 1/2 are complex, as numpy would cast them
_V_ODD = np.arange(1.0, 2.0 * _EM_MAX_CORRECTIONS - 2.0, 2.0, dtype=complex)[:, None, None]
_V_EVEN = _V_ODD + 1.0
_DV_SHIFT = 2.0 * _V_ODD + 1.0
_ONE, _HALF = np.array(1.0, dtype=complex), np.array(0.5, dtype=complex)
for _const in (_V_ODD, _V_EVEN, _DV_SHIFT, _ONE, _HALF):
    _const.setflags(write=False)
# Elements of one stacked op of _em_horner: the v_j of up to this many
# (residue, point) elements are formed together, and of a larger grid one j
# at a time, so no array outgrows the grid or 64 kB
_HORNER_BLOCK = _EM_BLOCK // 4


def _em_horner(grid: np.ndarray, horner, n_corr: int, want_deriv: bool):
    """(A, A' or None): the Horner sum of _em_tail and its s-derivative at the points ``grid``.

    (N+a)^(-s) [1/2 + sum_{j<=K} C_j (s)_{2j-1} (N+a)^(1-2j)] = (N+a)^(-s)
    (1/2 + s A/(N+a)), A by Horner's rule: D_1 + v_1 (D_2 + v_2 (... +
    v_{K-1} D_K)) with v_j = (s+2j-1)(s+2j) and D_j = C_j (N+a)^(2-2j).
    The v_j, and the derivative's factors v_j' = 2s+4j-1, are formed in
    blocks of consecutive j, one op per block over (j, residue, point), of
    at most _HORNER_BLOCK elements or one j; the products are elementwise
    those of one v_j at a time, at every batch size.
    """
    steps = n_corr - 1
    acc = horner[steps]
    dacc = np.zeros_like(grid) if want_deriv else None
    two_grid = 2.0 * grid if want_deriv and steps else None
    block = max(1, _HORNER_BLOCK // grid.size)
    for top in range(steps, 0, -block):
        low = max(0, top - block)
        v = (grid + _V_ODD[low:top]) * (grid + _V_EVEN[low:top])
        dv = two_grid + _DV_SHIFT[low:top] if want_deriv else None
        for j in range(top - 1, low - 1, -1):
            if want_deriv:
                dacc = dacc * v[j - low] + acc * dv[j - low]
            acc = acc * v[j - low] + horner[j]
    return acc, dacc


def _exact_leads(flat: np.ndarray, alphas: tuple, tol: float, big_s: float,
                 re_max: float) -> tuple:
    """Per a, whether _leading_power forms a^(-s) at the points ``flat``.

    The points have |s| <= big_s and Re s <= re_max.  It does where the
    plain rounding of a^(-s), eps |s| |ln a| a^(-Re s), could reach a tenth
    of ``tol``.  Raises AccuracyError, naming the point,
    where a^(-s) leaves the float64 range.
    """
    low = min(alphas)
    if -re_max * math.log(low) > _LOG_FLOAT_MAX:
        raise AccuracyError("a^(-s) leaves the float64 range "
                            + _at(complex(flat[np.argmax(flat.real)]), low, "series-em"))
    log_tol = math.log(0.1 * tol)
    log_rounding = math.log(_EPS * big_s)
    return tuple(a < 1.0
                 and log_rounding + math.log(-math.log(a)) - re_max * math.log(a) > log_tol
                 for a in alphas)


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
    re_min, re_max = _re_hull(flat)
    n_terms, n_corr, remainder, big_s = _em_plan(flat, min(alphas), tol, want_deriv, re_min)
    leads = _exact_leads(flat, alphas, tol, big_s, re_max)
    sieved = alphas == (1.0,) and _sieve_pays(flat.size, n_terms)
    est = np.empty((len(alphas), flat.size))
    np.add(remainder, _em_rounding(flat.real, re_min, re_max, big_s, alphas, n_terms, n_corr,
                                   leads, want_deriv, sieved), out=est)
    return (*_em_split(s, alphas[0] if single else alphas, n_terms, n_corr,
                       leads[0] if single else leads, want_deriv, sieved), est.reshape(shape))


def _lattice_sums(sigmas: np.ndarray, ts: np.ndarray, logs: np.ndarray, sieved: bool):
    """(partial sums over n = first..N-1, (N+a)^(-s)) of one a on the lattice, (row, column).

    ``logs`` holds ln(n+a), n = first..N; the sieved table (a = 1) has the
    rows n = 1..N+1, the same terms.  The phase table is built in column
    blocks of _EM_BLOCK elements.
    """
    weights = np.exp(np.multiply.outer(-sigmas, logs))
    partial = np.empty((sigmas.size, ts.size), dtype=complex)
    decay = np.empty_like(partial)
    block = max(1, _EM_BLOCK // logs.size)
    for j in range(0, ts.size, block):
        col = ts[j:j + block]
        if sieved:
            phases = _sieved_table(1j * col, logs.size)
        else:
            phases = np.exp(np.multiply.outer(logs, -1j * col))
        sums = np.einsum("kn,nj->kj", weights[:, :-1], phases[:-1].view(float), optimize=False)
        partial[:, j:j + block] = sums.view(complex)
        decay[:, j:j + block] = np.multiply.outer(weights[:, -1], phases[-1])
    return partial, decay


def _em_grid(sigmas, ts, alphas: tuple, tol: float):
    """hurwitz_grid's kernel: regular parts R on one Euler-Maclaurin group of lattice rows.

    Returns (R, estimates) for the residues ``alphas``, shaped (residue,
    row, column) and (residue, row, 1), from float arrays; the rows are
    planned by _em_plan at the least a.  Every row shares the columns' t,
    so (n+a)^(-s) splits into a real weight (n+a)^(-sigma) per (row, term)
    and a phase (n+a)^(-it) per (term, column), one phase table per a: for
    a = 1 the sieved table (_sieved_table, where _sieve_pays), else one exp
    per term, the n = 0 term left to _leading_power where _exact_leads
    flags it.  The partial sums of all rows are one real contraction of the
    (row, term) weights with the (term, 2 column) table, an einsum in a
    fixed-order C loop; a BLAS product would round differently with the
    thread count and the CPU's kernel.  (N+a)^(-s) is the product of the
    last weight and phase, and _em_tail gives the rest.  An estimate is the
    plan's remainder bound plus _em_rounding's lattice count: a sequential
    sum, and the weight's exp and the product in each term.
    """
    flat = (sigmas[:, None] + 1j * ts[None, :]).ravel()
    re_min, re_max = float(sigmas.min()), float(sigmas.max())
    n_terms, n_corr, remainder, big_s = _em_plan(flat, min(alphas), tol, False, re_min)
    leads = _exact_leads(flat, alphas, tol, big_s, re_max)
    sieved = alphas == (1.0,) and _sieve_pays(ts.size, n_terms)
    logs, la, neg_la, big_a, horner = _em_columns(alphas, n_terms)
    # the exponents of the weight and the phase are off by eps |sigma| ln(n+a)
    # and eps |t| ln(n+a)
    big_st = float(np.abs(sigmas).max() + np.abs(ts).max())
    partial = np.empty((len(alphas), flat.size), dtype=complex)
    decay = np.empty_like(partial)
    for r, (a, lead) in enumerate(zip(alphas, leads)):
        sums, last = _lattice_sums(sigmas, ts, logs[r, 1 if lead else 0:].real, sieved)
        partial[r], decay[r] = sums.ravel(), last.ravel()
        if lead:
            partial[r] += _leading_power(flat, a)
    est = np.empty((len(alphas), sigmas.size, 1))
    np.add(remainder, _em_rounding(sigmas, re_min, re_max, big_st, alphas, n_terms, n_corr,
                                   leads, False, sieved, lattice=True), out=est[..., 0])
    grid = flat[None] if len(alphas) == 1 else np.repeat(flat[None], len(alphas), axis=0)
    boundary, tail = _em_tail(grid, la, neg_la, big_a, horner, n_corr, False)[:2]
    return (partial + boundary + decay * tail).reshape(len(alphas), sigmas.size, ts.size), est


# ---------------------------------------------------------------------------
# ln Gamma and psi by Stirling's series, for the reflection route.
# ---------------------------------------------------------------------------

# Stirling's series is summed to J terms after an upward shift to Re z >= X,
# at most 7 steps, and 3 on the reflection's Re w > 4.  The remainders'
# largest values over Re z >= X (see _log_gamma) are 0.1 eps and 0.3 eps.
_STIRLING_TERMS = 10
_STIRLING_RE = 7.0
# B_2j / (2j (2j-1)) and B_2j / (2j) for j = 1..J+1; the last bound the remainders
_LOG_GAMMA_COEF = tuple(b / ((2 * j + 2) * (2 * j + 1))
                        for j, b in enumerate(_BERNOULLI[:_STIRLING_TERMS + 1]))
_DIGAMMA_COEF = tuple(b / (2 * j + 2) for j, b in enumerate(_BERNOULLI[:_STIRLING_TERMS + 1]))
# sum_{j=1..J} c_j x^j = x (A(x^2) + x B(x^2)), A and B of the odd and the
# even j; for Horner's rule, their coefficients of y^i, from the highest i,
# as columns: A and B of ln Gamma, then of psi
_STIRLING_POLY = np.array([[coef[2 * i + odd] for coef in (_LOG_GAMMA_COEF, _DIGAMMA_COEF)
                            for odd in (0, 1)]
                           for i in range(_STIRLING_TERMS // 2 - 1, -1, -1)])[:, :, None]
_STIRLING_ROWS = {rows: tuple(_STIRLING_POLY[:, :rows]) for rows in (2, 4)}
_LOG_GAMMA_TAIL = abs(_LOG_GAMMA_COEF[-1]) * _STIRLING_RE ** -(2 * _STIRLING_TERMS + 1)
_DIGAMMA_TAIL = abs(_DIGAMMA_COEF[-1]) * _STIRLING_RE ** -(2 * _STIRLING_TERMS + 2)
_SHIFT_STEPS = np.arange(_STIRLING_RE)[:, None]                 # i = 0..X-1 as a column
_HALF_LOG_TWO_PI = 0.5 * math.log(_TWO_PI)


def _row_sum(rows: np.ndarray) -> np.ndarray:
    """The sum over the leading axis of a complex array, row by row in order.

    Summed as floats, so every point has two columns: numpy adds the rows
    of a complex array with one column in another order, so a size-1 call
    would round otherwise.
    """
    return rows.view(float).sum(axis=0).view(complex)


def _log_gamma(w: np.ndarray, want_digamma: bool):
    """ln Gamma(w), principal branch, for Re w > 0, with an error bound per point.

    With z = w + n, n the least shift putting the point at Re z >= X = 7,

        ln Gamma(w) = (z - 1/2) ln z - z + ln(2 pi)/2
                      + sum_{j=1..J} B_2j / (2j (2j-1) z^(2j-1)) - sum_{i<n} ln(w+i),
        psi(w)      = ln z - 1/(2z) - sum_{j=1..J} B_2j / (2j z^2j) - sum_{i<n} 1/(w+i),

    each ln(w+i) = ln|w+i| + i arg(w+i) principal, as Re(w+i) > 0, and
    ln z alike, from real functions.  The series are summed by Horner's rule
    in z^-4, the terms of odd and of even j side by side (_STIRLING_POLY).
    The remainder of the first series is at most the first omitted term
    c |z|^-(2J+1) times sec^(2J+2)(arg z / 2) (DLMF 5.11.ii); that is
    c 2^(J+1) |z|^-J (|z| + Re z)^-(J+1), which falls as |z| and Re z grow,
    so at most c X^-(2J+1) at every Re z >= X.  That of the second is at
    most the first omitted term d |z|^-(2J+2) over min_{t >= 0}
    |t^2 + z^2| / |z|^2, 1 for |arg z| <= pi/4 and 2 Re z |Im z| / |z|^2
    beyond (Binet's integral for psi), so at most d X^-(2J+2), as beyond
    pi/4 |z|^2 >= 2 X^2 and 2 Re z |Im z| >= 2 X^2.  Each bound adds about
    eps times each term above.  The sums over the shift run in row order
    (_row_sum), so a point's values do not depend on its batch.  Returns
    (ln Gamma, bound) or, with ``want_digamma``, (ln Gamma, bound, psi,
    bound).
    """
    shift = np.ceil(_STIRLING_RE - w.real)
    np.maximum(shift, 0.0, out=shift)
    z = w + shift
    abs_z = np.abs(z)
    log_z = np.empty_like(z)
    np.log(abs_z, out=log_z.real)
    np.arctan2(z.imag, z.real, out=log_z.imag)
    inv = 1.0 / z
    x = inv * inv
    # Horner's rule in y = x^2 for A and B (of psi too), then A + x B: the
    # series of ln Gamma is that times x z = 1/z, that of psi times x
    y = x * x
    top, *rest = _STIRLING_ROWS[4 if want_digamma else 2]
    acc = top * y
    for coef in rest[:-1]:
        acc += coef
        acc *= y
    acc += rest[-1]
    series = x * acc[1::2]
    series += acc[::2]
    lg = (z - 0.5) * log_z + (inv * series[0] - z) + _HALF_LOG_TWO_PI
    # rounding: the shifted point and (z - 1/2) ln z, about eps |z| |ln z|
    # each, then the sums, about eps of each summand
    abs_log_z = np.abs(log_z)
    rounding = (abs_log_z + 1.0) * abs_z
    most = int(shift.max())
    if most:
        # w + i and ln(w+i) for i < shift at each point, 1 and 0 past it
        inside = _SHIFT_STEPS[:most] < shift
        steps = np.where(inside, w + _SHIFT_STEPS[:most], 1.0)
        logs = np.empty_like(steps)
        np.log(np.abs(steps), out=logs.real)
        np.arctan2(steps.imag, steps.real, out=logs.imag)
        lg -= _row_sum(logs)
        rounding += np.abs(logs).sum(axis=0)
    lg_err = (2.0 * _EPS) * rounding + (4.0 * _EPS + _LOG_GAMMA_TAIL)
    if not want_digamma:
        return lg, lg_err
    psi = log_z - 0.5 * inv - x * series[1]
    rounding = 2.0 * abs_log_z + 3.0
    if most:
        recips = np.where(inside, 1.0 / steps, 0.0)
        psi -= _row_sum(recips)
        rounding += 2.0 * np.abs(recips).sum(axis=0)
    return lg, lg_err, psi, _EPS * rounding + _DIGAMMA_TAIL


# ---------------------------------------------------------------------------
# The reflection route: Hurwitz's formula for a = r/m at u = 1 - s (see the
# module docstring), m Euler-Maclaurin evaluations at Re u > 4 shared by
# every residue r of the period.
# ---------------------------------------------------------------------------

# (c1, c0): |zeta^(j)(u, a)| <= (c1 |ln a|^j + c0) |Z| for j = 1, 2 at
# Re u >= 4, Z the computed zeta(u, a) off by under 5% (see _reflect)
_ZETA_D1 = (1.2, 1.0)
_ZETA_D2 = (1.2, 0.8)


@lru_cache(maxsize=16)
def _reflect_tables(period: int, alphas: tuple):
    """The constant factors of _reflect for a period m and its residues a = r/m.

    q = 2kr/m mod 2, shape (R, m, 1), read-only, and the Euler-Maclaurin
    parameters k/m, k = 1..m.
    """
    k = np.arange(1, period + 1)
    residues = np.array([round(a * period) for a in alphas])
    q = (2 * np.multiply.outer(residues, k) % (2 * period) / period)[:, :, None]
    q.setflags(write=False)
    return q, tuple(int(j) / period for j in k)


def _reflect(s: np.ndarray, period: int, alphas: tuple, tol: float, want_deriv: bool):
    """Regular parts of zeta(s, r/m), and with ``want_deriv`` of zeta', for each r/m in ``alphas``.

    Returns (values, derivatives or None, estimates), each of shape
    (len(alphas), s.size).  With G = 2 Gamma(u) (2 pi m)^(-u), C_k, S_k =
    cos, sin(pi u/2 - 2 pi k r/m) and Z_k = zeta(u, k/m), the value is
    G sum_k C_k Z_k and its s-derivative -G ((psi(u) - ln(2 pi m)) sum_k C_k
    Z_k - (pi/2) sum_k S_k Z_k + sum_k C_k Z_k'), both from one ln Gamma
    (with psi) and one Euler-Maclaurin call for every Z_k (and Z_k'),
    k = 1..m, planned at a = 1/m, at _H_TAIL_SHARE ``tol`` over the weight
    m max |G| e^|Im phase|, which bounds |G| sum_k |C_k| and |G| sum_k |S_k|
    at every point, as |C_k|, |S_k| <= cosh(Im phase) (for the derivative,
    times max |psi(u) - ln(2 pi m)| + 1 + pi/2).  Both |G| e^|Im phase| and
    e^|Im phase| are tested in logs before any factor is formed: where one
    would leave the float64 range, AccuracyError names the first such point.

    The value's estimate is |G| (sum_k |C_k| (E_k + rel |Z_k|) + phase
    cosh(Im phase) sum_k |Z_k|) + eps/|1-s|, E_k the Euler-Maclaurin
    estimate and the last term the rounding of 1/(s-1).  rel counts the
    relative rounding of G (ln Gamma, u ln(2 pi m), exp) and of each term
    (the products, the sum over k, a = k/m), and u = 1 - s, off by
    eps Re u / 2, times bounds on the u-derivative over |G| |C_k| |Z_k|:
    |psi(u) - ln u| < 0.2 for |u| >= 4, so |psi(u) - ln(2 pi m)| <
    |ln u - ln(2 pi m)| + 0.2, and |zeta'(u, a)| <= (c1 |ln a| + c0) |Z|
    (_ZETA_D1, with |ln a| <= ln m).  phase counts the absolute error of
    the phase, and of u times (pi/2), times |S_k| <= cosh(Im phase), so
    the estimate holds at the trivial zeros too.  The bounds _ZETA_D1 and
    _ZETA_D2 on |zeta^(j)(u, a)|, j = 1, 2: for Re u >= 4 and a in (0, 1],
    |zeta^(j)(u, a)| <= |ln a|^j a^-Re u + T_j, T_j = sum_{n>=1}
    ln(n+1)^j n^-4 (0.79 and 0.60), and |zeta(u, a)| >= (2 - zeta(4))
    a^-Re u > 0.917 a^-Re u, as |sum_{n>=1} (a/(n+a))^u| <= zeta(4) - 1;
    so |zeta^(j)(u, a)| <= 1.09 (|ln a|^j + T_j) |zeta(u, a)|, and the
    constants hold for a computed Z off by up to 5%.  With ``want_deriv``
    the estimate bounds the error of the value and of the derivative, whose
    terms take the rounding of G and the phase's error without u's, and u's
    times a bound on the u-derivative of the derivative.
    """
    m = period
    u = 1.0 - s
    big_l = math.log(_TWO_PI * m)
    gamma = _log_gamma(u, want_deriv)
    lg = gamma[0]
    q, em_alphas = _reflect_tables(m, alphas)
    half = 0.5 * u
    abs_u = np.abs(u)
    # the relative rounding of G and the terms, and with that of u (see
    # above), eps Re u / 2 = eps Re(u/2), taken before u/2 is reduced mod 2
    rounding = gamma[1] + _EPS * (np.abs(lg) + (2.0 * big_l + 0.5) * abs_u + (m + 8.0))
    rel = rounding + _EPS * (np.hypot(np.log(abs_u) - big_l, np.arctan2(u.imag, u.real))
                             + (1.2 + _ZETA_D1[0] * math.log(m))) * half.real
    np.remainder(half.real, 2.0, out=half.real)                     # u/2 mod 2
    phase = math.pi * (half - q)                                     # (R, m, n)
    # ln(|G| e^|Im phase| / 2), and |Im phase|, which passes the float64
    # range near |Im s| = 452, tested before any factor is formed
    log_g = lg - u * big_l
    eta = np.abs(phase[0, 0].imag)                                  # pi |Im u| / 2
    reach = log_g.real + eta
    top, limit = float(reach.max()), _LOG_FLOAT_MAX - math.log(2.0 * m)
    if not (top < limit and float(eta.max()) < _LOG_FLOAT_MAX):
        s_bad = complex(s[np.argmin((reach < limit) & (eta < _LOG_FLOAT_MAX))])
        raise AccuracyError("2 Gamma(1-s) (2 pi m)^(s-1) cos(pi (1-s)/2 - 2 pi k r/m) overflows "
                            + _at(s_bad, alphas[0] if len(alphas) == 1 else alphas, "reflect"))
    # the phase's absolute error, 1.5 eps |Im u| + 4 pi eps, and with that
    # of u times pi/2, eps (pi/4) Re u
    dphase = (3.0 * _EPS / math.pi) * eta + 4.0 * math.pi * _EPS
    phase_err = dphase + (0.25 * math.pi * _EPS) * u.real
    g = 2.0 * np.exp(log_g)
    abs_g = np.abs(g)
    weight = 2.0 * m * math.exp(top)              # >= |G| sum_k (|C_k|, |S_k|)
    if want_deriv:
        dlog = gamma[2] - big_l
        abs_dlog = np.abs(dlog)
        weight *= float(abs_dlog.max()) + (1.0 + 0.5 * math.pi)
    regs, dregs, em_est = euler_maclaurin_split(
        u, em_alphas, tol=_H_TAIL_SHARE * tol / max(1.0, weight), want_deriv=want_deriv)
    pole = 1.0 / (u - 1.0)
    zs = regs + pole
    cos = np.cos(phase)
    sums = (cos * zs).sum(axis=1)
    inv_u = 1.0 / u                                     # -1/(s-1)
    value = g * sums + inv_u
    abs_c, abs_z = np.abs(cos), np.abs(zs)
    pole_err = _EPS / abs_u
    est = ((abs_c * (em_est + rel * abs_z)).sum(axis=1)
           + phase_err * np.cosh(eta) * abs_z.sum(axis=0)) * abs_g + pole_err
    if not want_deriv:
        return value, None, est
    dzs = dregs - pole * pole
    sin = np.sin(phase)
    abs_s = np.abs(sin)
    dsums = (cos * dzs).sum(axis=1)
    ssums = (sin * zs).sum(axis=1)
    bracket = dlog * sums - (0.5 * math.pi) * ssums + dsums
    dvalue = -(g * bracket)
    abs_dz = np.abs(dzs)
    # the terms of the bracket, and a bound on the u-derivative of V',
    # with |psi'(u)| < 0.3 for |u| >= 4
    c_part = abs_dlog * abs_z + abs_dz
    s_part = (0.5 * math.pi) * abs_z
    with_d2 = 0.3 + 0.25 * math.pi ** 2 + _ZETA_D2[0] * math.log(m) ** 2 + _ZETA_D2[1]
    second = (abs_c * ((abs_dlog * abs_dlog + with_d2) * abs_z + 2.0 * abs_dlog * abs_dz)
              + math.pi * abs_s * c_part)
    psi_err = gamma[3] + _EPS * (np.abs(gamma[2]) + big_l)
    dest = ((((abs_dlog + 1.0) * abs_c + (0.5 * math.pi) * abs_s) * em_est
             + abs_c * (rounding * c_part + psi_err * abs_z + dphase * s_part)
             + abs_s * (rounding * s_part + dphase * c_part)
             + (0.5 * _EPS) * u.real * second).sum(axis=1) * abs_g + pole_err / abs_u)
    return value, dvalue + inv_u * inv_u, np.maximum(est, dest)


# ---------------------------------------------------------------------------
# The Hurwitz router and the assembled Hurwitz / Riemann zeta.
# ---------------------------------------------------------------------------

# Left of Re s = -3 the Euler-Maclaurin boundary terms grow like
# (N+a)^(1-Re s), and float64 cancellation against the partial sum costs eps
# times that.  There a point with a period takes the reflection; other a
# take the h-rule while its envelope factor cosh(|Im s| pi/2) stays
# moderate, up to |Im s| = 15 (cosh(15 pi/2) ~ 6e9).
_H_RULE_RE_LIMIT = -3.0
HERMITE_IM_LIMIT = 15.0


def _em_left(re):
    """Whether real parts ``re`` (float or array) lie in the Euler-Maclaurin group left of 0."""
    return re < 0.0


# Route codes of hurwitz_split_many, indexing ROUTES
SERIES_EM, HERMITE, REFLECT = 0, 1, 2
ROUTES = ("series-em", "hermite", "reflect")


def _route_masks(s: np.ndarray, has_period: bool):
    """(reflect, hermite) masks of the points that leave Euler-Maclaurin, one route per point.

    Left of Re s = -3 a point reflects given a period, and takes the h-rule
    up to |Im s| = 15 without one; every other point takes Euler-Maclaurin.
    """
    left = s.real < _H_RULE_RE_LIMIT
    if has_period:
        return left, np.zeros_like(left)
    return np.zeros_like(left), left & (np.abs(s.imag) <= HERMITE_IM_LIMIT)


def hurwitz_split_many(s, alpha, tol: float = 1e-12, deriv: bool = False,
                       period: int | None = None):
    """The Hurwitz router: regular parts, per-point error estimates, routes.

    The regular parts are R with zeta(s, a) = R + 1/(s-1) and R' with
    zeta'(s, a) = R' - 1/(s-1)^2.  ``alpha`` is one a in (0, 1] or a
    sequence of them; with ``period`` m every a must be a residue r/m, and
    a = 1 alone implies m = 1.  _route_masks gives each point one route,
    shared by every residue; each route is one kernel call for all the
    residues: the reflection, the h-rule (d + h, d' + h'), and Euler-Maclaurin
    once per sign group (_em_left): as one group, {-2.9, 0.5+300i} takes
    N = 179 and the -2.9 point comes out 3e-7 off, against 2.5e-13 alone.
    ``deriv`` False gives R, True the pair (R, R') from the same kernel
    calls, with one estimate bounding each.  Where one kernel call holds
    every point, every point right of Re s = -3 in one sign group or every
    point reflecting, the kernel's arrays are the result, as they are.
    Returns (values, estimates, routes), routes holding a code per point
    (SERIES_EM, HERMITE or REFLECT, indexing ROUTES), each shaped like ``s``
    with a leading axis over a sequence ``alpha``.
    """
    alphas, single_alpha = _check_alphas(alpha)
    if period is None:
        period = 1 if alphas == (1.0,) else None
    elif not _all_residues(alphas, period):
        raise DomainError(f"alpha {alpha!r} is not a residue r/{period}")
    s = np.asarray(s, dtype=complex)
    flat = s.ravel()
    shape = s.shape if single_alpha else (len(alphas),) + s.shape
    lo, hi = _re_hull(flat) if flat.size else (math.nan, math.nan)
    # where one kernel call holds every point, its arrays are the result
    if lo >= _H_RULE_RE_LIMIT and _em_left(lo) == _em_left(hi):
        route, kernel = SERIES_EM, euler_maclaurin_split(flat, alphas, tol=tol, want_deriv=deriv)
    elif period is not None and hi < _H_RULE_RE_LIMIT:
        route, kernel = REFLECT, _reflect(flat, period, alphas, tol, deriv)
    else:
        kernel = None
    if kernel is not None:
        regular, dregular, est = kernel
        values = ((regular.reshape(shape), dregular.reshape(shape)) if deriv
                  else regular.reshape(shape))
        return values, est.reshape(shape), np.full(shape, route, dtype=np.int8)
    out = np.empty((len(alphas), flat.size), dtype=complex)
    dout = np.empty_like(out) if deriv else None
    est = np.empty(out.shape)
    codes = np.zeros(flat.size, dtype=np.int8)              # SERIES_EM

    def put(at, values, dvalues, errors):
        """Store a kernel's (R, R' or None, estimates) at the points ``at``."""
        out[:, at], est[:, at] = values, errors
        if deriv:
            dout[:, at] = dvalues

    reflect, on_h = _route_masks(flat, period is not None)
    if reflect.any():
        put(reflect, *_reflect(flat[reflect], period, alphas, tol, deriv))
        codes[reflect] = REFLECT
    if on_h.any():
        put(on_h, *_h_rule(flat[on_h], alphas, tol, deriv))
        codes[on_h] = HERMITE
    em, left = ~(reflect | on_h), _em_left(flat.real)
    for group in (em & left, em & ~left):
        if group.any():
            put(group, *euler_maclaurin_split(flat[group], alphas, tol=tol, want_deriv=deriv))
    values = (out.reshape(shape), dout.reshape(shape)) if deriv else out.reshape(shape)
    return values, est.reshape(shape), np.repeat(codes[None], len(alphas), axis=0).reshape(shape)


def hurwitz_grid(sigmas, ts, alphas: tuple, tol: float):
    """The router's lattice twin: (R, estimates) of zeta(sigma + it, a) on ``sigmas`` x ``ts``.

    R is the regular part, value only; both are shaped (residue, row,
    column) over ``alphas``.  Left of Re s = -3, where the router leaves
    Euler-Maclaurin, DomainError names the rows' range; the rows split into
    the router's sign groups (_em_left), one _em_grid call each.
    """
    alphas = _checked_tuple(alphas)
    sigmas = np.asarray(sigmas, dtype=float)
    ts = np.asarray(ts, dtype=float)
    lo, hi = float(sigmas.min()), float(sigmas.max())
    if not lo >= _H_RULE_RE_LIMIT:
        raise DomainError(f"the lattice takes Euler-Maclaurin rows, Re s >= {_H_RULE_RE_LIMIT:g}, "
                          f"got the rows [{lo!r}, {hi!r}]")
    values = np.empty((len(alphas), sigmas.size, ts.size), dtype=complex)
    est = np.empty((len(alphas), sigmas.size, 1))
    left = _em_left(sigmas)
    for rows in (left, ~left):
        if rows.any():
            values[:, rows], est[:, rows] = _em_grid(sigmas[rows], ts, alphas, tol)
    return values, np.broadcast_to(est, values.shape)


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
    x = np.linspace(-beta, beta, 101)
    d = _hermite_d((x[:, None] + 1j * x[None, :]).ravel(), (alpha,), False)[0]
    return 1.1 * float(np.max(np.abs(d)))  # 1.1 x 1/2 at a = 1, where d is 1/2
