"""Hurwitz/Riemann zeta evaluation and the explicit sup-norm bound constants.

Two independent evaluation routes are provided and cross-validated:

* a three-term split ``zeta(s, a) = 1/(s-1) + d(s, a) + h(s, a)`` where ``d``
  is entire (closed form, with a power series across its removable
  singularity at s = 1) and ``h`` is a rapidly decaying integral over
  [0, inf) computed by adaptive Gauss-Legendre panels with a certified
  truncation point;
* the defining series accelerated with an Euler-Maclaurin tail, which also
  provides the analytic continuation.  For a batch with Re s >= 0 the
  partial-sum length N and the number K <= 12 of Bernoulli corrections are
  planned in one pass from a remainder majorant over the batch (max|s| and
  min Re s in place of |s| and Re s), choosing the pair with the least work;
  the corrections are summed by Horner's rule and the majorant is the error
  estimate.  For Re s < 0, where cancellation against the partial sum grows
  like eps (N+a)^(1-Re s), N starts small and grows only until the
  per-point remainder of 12 corrections meets the tolerance; that estimate
  leaves the cancellation out.  This route takes over where the
  integral route loses precision in double arithmetic: the integrand of
  ``h`` carries the factor cosh(Im(s) arctan(t/alpha)) and, for small alpha,
  (alpha^2 + t^2)^(-Re(s)/2), so its absolute integral can be many orders
  above ``|h|``, and float64 rounding of the panel sums (about 16 eps times
  that integral) then exceeds the tolerance.  The quadrature measures that
  floor from its panel masses as it refines, and the scalar split switches
  to this route when the floor is above the tolerance; Re(s) >= series_cutoff_sigma and
  |Im(s)| > HERMITE_IM_LIMIT go to this route without trying the integral.

Both routes expose a "split" form that keeps the 1/(s-1) pole term symbolic,
so consumers summing several Hurwitz zetas (Dirichlet L-functions) can cancel
pole contributions exactly instead of numerically.

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

# Above this |Im s| the scalar split goes straight to Euler-Maclaurin.  The
# h-integrand envelope factor cosh(|Im s| pi/2) passes cosh(15 pi/2) ~ 6e9
# there, and the quadrature's float64 floor (see _QUAD_FLOOR) soon exceeds
# abs_tol: at Re s = 1/2 by |Im s| = 20 for alpha <= 3/4 and by 30 for
# alpha = 1.  Below the cap the floor is measured per point.
HERMITE_IM_LIMIT = 15.0

# float64 floor of a Gauss-Legendre panel sum, relative to the integral of
# |f|: below 16 eps * int |f| (eps = 2^-52) a discrepancy is rounding, not
# truncation.
_QUAD_FLOOR = 16.0 * 2.0 ** -52

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
    """Tolerances and truncation policy for zeta evaluations.

    abs_tol               target absolute error for function values
    quad_rule             quadrature scheme identifier, "gauss-legendre-<n>"
    quad_max_refinements  cap on dyadic panel-subdivision rounds
    trunc_threshold       integrand-envelope level below which the tail
                          [T, inf) of the h-integral is dropped
    series_cutoff_sigma   Re(s) at or above which the direct series route
                          (with Euler-Maclaurin tail) is used
    """

    abs_tol: float = 1e-10
    quad_rule: str = "gauss-legendre-15"
    quad_max_refinements: int = 30
    trunc_threshold: float = 1e-12
    series_cutoff_sigma: float = 8.0

    def __post_init__(self):
        if not self.abs_tol > 0:
            raise DomainError("abs_tol must be positive")
        if self.trunc_threshold > self.abs_tol / 10:
            raise DomainError("trunc_threshold must be <= abs_tol / 10")
        if not self.series_cutoff_sigma > 1:
            raise DomainError("series_cutoff_sigma must exceed 1")
        if self.quad_max_refinements < 1:
            raise DomainError("quad_max_refinements must be >= 1")
        self.quad_nodes()  # validate the rule identifier eagerly

    def quad_nodes(self) -> int:
        prefix = "gauss-legendre-"
        if not self.quad_rule.startswith(prefix):
            raise DomainError(f"unknown quadrature rule {self.quad_rule!r}")
        try:
            n = int(self.quad_rule[len(prefix):])
        except ValueError as exc:
            raise DomainError(f"unknown quadrature rule {self.quad_rule!r}") from exc
        if not 2 <= n <= 64:
            raise DomainError("gauss-legendre node count must be in [2, 64]")
        return n


DEFAULT_CONFIG = EvalConfig()


def _check_alpha(alpha) -> float:
    alpha = float(alpha)
    if not 0.0 < alpha <= 1.0:
        raise DomainError(f"alpha must lie in (0, 1], got {alpha}")
    return alpha


def _at(s, alpha, route: str) -> str:
    return f"at s={s!r}, alpha={alpha!r} (route {route})"


def _require_finite(value, what: str, s, alpha, route: str):
    arr = np.atleast_1d(np.asarray(value))
    if not (np.all(np.isfinite(arr.real)) and np.all(np.isfinite(arr.imag))):
        raise AccuracyError(f"{what} produced a non-finite value {_at(s, alpha, route)}",
                            estimate=value)
    return value


def _renamed(exc: AccuracyError, s, alpha, route: str) -> AccuracyError:
    """``exc`` again, with the point, alpha and route appended to its message."""
    return type(exc)(f"{exc} {_at(s, alpha, route)}",
                     estimate=exc.estimate, residual=exc.residual)


# ---------------------------------------------------------------------------
# The entire function f(u) = (e^u - 1)/u and its derivative.
# ---------------------------------------------------------------------------

_F_SERIES_RADIUS = 0.5
_F_SERIES_TERMS = 20


def _f_series(u):
    # sum_{k>=0} u^k/(k+1)!  via Horner
    acc = np.full_like(u, 1.0 / math.factorial(_F_SERIES_TERMS + 1))
    for k in range(_F_SERIES_TERMS, 0, -1):
        acc = acc * u + 1.0 / math.factorial(k)
    return acc


def _fp_series(u):
    # f'(u) = sum_{k>=1} k u^{k-1}/(k+1)!
    acc = np.full_like(u, _F_SERIES_TERMS / math.factorial(_F_SERIES_TERMS + 1))
    for k in range(_F_SERIES_TERMS - 1, 0, -1):
        acc = acc * u + k / math.factorial(k + 1)
    return acc


def expm1_over(u):
    """f(u) = (e^u - 1)/u, entire; power series for |u| < 0.5."""
    u = np.asarray(u, dtype=complex)
    scalar = u.shape == ()
    u = np.atleast_1d(u)
    out = np.empty_like(u)
    small = np.abs(u) < _F_SERIES_RADIUS
    if small.any():
        out[small] = _f_series(u[small])
    if (~small).any():
        ub = u[~small]
        out[~small] = (np.exp(ub) - 1.0) / ub
    return complex(out[0]) if scalar else out


def expm1_over_deriv(u):
    """f'(u) = (e^u (u - 1) + 1)/u^2, entire; power series for |u| < 0.5."""
    u = np.asarray(u, dtype=complex)
    scalar = u.shape == ()
    u = np.atleast_1d(u)
    out = np.empty_like(u)
    small = np.abs(u) < _F_SERIES_RADIUS
    if small.any():
        out[small] = _fp_series(u[small])
    if (~small).any():
        ub = u[~small]
        out[~small] = (np.exp(ub) * (ub - 1.0) + 1.0) / (ub * ub)
    return complex(out[0]) if scalar else out


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
# Adaptive Gauss-Legendre panels.
# ---------------------------------------------------------------------------

@lru_cache(maxsize=8)
def _leggauss(n: int):
    return np.polynomial.legendre.leggauss(n)


def adaptive_gauss_legendre(fvec, a: float, b: float, tol: float,
                            max_refinements: int, n_nodes: int = 15) -> complex:
    """Integrate a smooth vectorized complex integrand over [a, b].

    Panels are halved dyadically wherever the coarse/fine Gauss-Legendre
    discrepancy exceeds the panel's width-proportional share of the
    tolerance; ``tol`` is floored at a few ulps of the integrand's own scale,
    since float64 panel sums cannot certify below that.  The result is
    returned once every panel is accepted or the discrepancies of all panels
    sum to at most ``tol``.

    Raises PrecisionFloorError as soon as the float64 floor of the whole
    integral, 16 eps times int |f| as measured by the panel masses of the
    rounds so far, exceeds ``tol``, and AccuracyError when the refinement
    budget is exhausted; both carry the best estimate and a residual.
    """
    x0, w0 = _leggauss(n_nodes)

    def panel_values(lo, hi):
        mid = 0.5 * (lo + hi)[:, None]
        half = 0.5 * (hi - lo)[:, None]
        nodes = mid + half * x0[None, :]
        vals = fvec(nodes.ravel()).reshape(nodes.shape)
        integ = (vals * w0[None, :]).sum(axis=1) * half[:, 0]
        mass = (np.abs(vals) * w0[None, :]).sum(axis=1) * half[:, 0]
        return integ, mass

    lo = np.linspace(a, b, 9)[:-1]
    hi = np.linspace(a, b, 9)[1:]
    parent, mass = panel_values(lo, hi)
    total = 0.0 + 0.0j
    mass_accepted = 0.0
    err_accepted = 0.0
    pending_err = float("inf")
    for _ in range(max_refinements):
        # int |f| as resolved so far; a coarse round can miss a narrow peak,
        # so the floor is checked again after every round
        floor = _QUAD_FLOOR * (mass_accepted + float(mass.sum()))
        if floor > tol:
            raise PrecisionFloorError(
                f"float64 floor {floor:.1e} of the quadrature exceeds tol {tol:.1e}",
                estimate=complex(total + parent.sum()), residual=floor)
        mid = 0.5 * (lo + hi)
        # both halves of every panel in one integrand call
        half_lo, half_hi = np.concatenate([lo, mid]), np.concatenate([mid, hi])
        halves, halves_mass = panel_values(half_lo, half_hi)
        n = lo.size
        fine = halves[:n] + halves[n:]
        fine_mass = halves_mass[:n] + halves_mass[n:]
        err = np.abs(fine - parent)
        # a panel is done when it meets its width share of tol, or when its
        # discrepancy sits at the float64 noise floor of its own mass
        ok = (err <= tol * (hi - lo) / (b - a)) | (err <= 4e-16 * fine_mass)
        total += fine[ok].sum()
        err_accepted += float(err[ok].sum())
        if ok.all():
            return complex(total)
        keep = ~ok
        pending_err = float(err[keep].sum())
        if err_accepted + pending_err <= tol:
            # the shares are a refinement policy; the guarantee is the sum
            return complex(total + fine[keep].sum())
        mass_accepted += float(fine_mass[ok].sum())
        keep = np.concatenate([keep, keep])
        lo, hi, parent, mass = half_lo[keep], half_hi[keep], halves[keep], halves_mass[keep]
    raise AccuracyError(
        "quadrature did not converge within the refinement budget",
        estimate=complex(total + parent.sum()),
        residual=err_accepted + pending_err,
    )


# ---------------------------------------------------------------------------
# The integral part h(s, alpha) and its s-derivative.
# ---------------------------------------------------------------------------

def _h_integrand(t, s, alpha):
    # sin(s arctan(t/a)) / ((a^2+t^2)^(s/2) (e^{2 pi t} - 1)); finite limit at t=0
    w = np.arctan(t / alpha)
    num = np.sin(s * w)
    den = np.exp((s / 2.0) * np.log(alpha * alpha + t * t)) * np.expm1(_TWO_PI * t)
    return num / den


def _hp_integrand(t, s, alpha):
    # d/ds of the h-integrand:
    # [arctan(t/a) cos(s arctan(t/a)) - (1/2) ln(a^2+t^2) sin(s arctan(t/a))]
    #   / ((a^2+t^2)^(s/2) (e^{2 pi t} - 1))
    w = np.arctan(t / alpha)
    lg = np.log(alpha * alpha + t * t)
    num = w * np.cos(s * w) - 0.5 * lg * np.sin(s * w)
    den = np.exp((s / 2.0) * lg) * np.expm1(_TWO_PI * t)
    return num / den


def _truncation_point(s: complex, alpha: float, threshold: float, deriv: bool) -> float:
    """Smallest T >= 1 where the integrand envelope falls below ``threshold``.

    Envelope for h:   2 (a^2+t^2)^(|Re s|/2) (|s| pi/2 cosh(|Im s| pi/2)) e^{-2 pi t};
    for h' an extra factor (a^2+t^2)^(1/2) absorbs the arctan and log weights.
    """
    y = abs(s.imag)
    if y * math.pi / 2.0 > 700.0:
        raise AccuracyError("|Im s| too large for the integral route")
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
    raise AccuracyError("could not certify a truncation point for the h-integral")


def _hermite_integral(s: complex, alpha: float, cfg: EvalConfig, deriv: bool) -> complex:
    """h (or h') by adaptive quadrature; AccuracyErrors name s, alpha and the route."""
    integrand = _hp_integrand if deriv else _h_integrand
    try:
        T = _truncation_point(s, alpha, cfg.trunc_threshold, deriv=deriv)
        val = adaptive_gauss_legendre(
            lambda t: integrand(t, s, alpha), 0.0, T,
            tol=0.45 * cfg.abs_tol, max_refinements=cfg.quad_max_refinements,
            n_nodes=cfg.quad_nodes())
    except AccuracyError as exc:
        raise _renamed(exc, s, alpha, "hermite") from exc
    return _require_finite(2.0 * val, "hermite_h_deriv" if deriv else "hermite_h",
                           s, alpha, "hermite")


def hermite_h(s, alpha: float, cfg: EvalConfig = DEFAULT_CONFIG) -> complex:
    """Integral part h of the three-term split, to within cfg.abs_tol.

    Raises PrecisionFloorError where float64 cannot certify the integral to
    that tolerance (see adaptive_gauss_legendre).
    """
    alpha = _check_alpha(alpha)
    s = complex(s)
    if s == 0:
        return 0.0 + 0.0j
    return _hermite_integral(s, alpha, cfg, deriv=False)


def hermite_h_deriv(s, alpha: float, cfg: EvalConfig = DEFAULT_CONFIG) -> complex:
    """d/ds of hermite_h, same truncation/refinement policy."""
    alpha = _check_alpha(alpha)
    return _hermite_integral(complex(s), alpha, cfg, deriv=True)


# ---------------------------------------------------------------------------
# Euler-Maclaurin route (also the analytic continuation for large |Im s|).
# ---------------------------------------------------------------------------

def _em_start_terms(s: np.ndarray) -> int:
    # Re s < 0 only: boundary terms grow like (N+a)^(1-Re s), so N is kept
    # small to limit cancellation against the partial sum
    return int(6 + 0.45 * float(np.max(np.abs(s.imag)))) + 2


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


def _em_tail_estimate(s: np.ndarray, big_a: float, n_corr: int) -> float:
    """Largest per-point bound of the remainder after ``n_corr`` corrections.

    The first omitted correction C_{K+1} (s)_{2K+1} (N+a)^(-s-2K-1), inflated
    by the standard remainder factor |s+2K+1| / (Re s+2K+1).
    """
    rising = np.abs(np.prod(s + np.arange(2 * n_corr + 1)[:, None], axis=0))
    term = abs(_EM_COEF[n_corr]) * rising * np.exp(-(s.real + 2 * n_corr + 1) * math.log(big_a))
    safety = np.abs(s + 2 * n_corr + 1) / np.maximum(s.real + 2 * n_corr + 1, 1.0)
    return float(np.max(term * safety))


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
                          want_deriv: bool = False, strict: bool = False):
    """Euler-Maclaurin split evaluation (vectorized).

    Returns (regular, d_regular or None, error_estimate).  With Re s >= 0 on
    every point, N and K come from the remainder majorant of _em_plan, in
    one pass, and the estimate is that majorant (<= ``tol``); with
    ``want_deriv`` it bounds the derivative's remainder too.  Otherwise N
    starts small and grows (at most 5 rounds) until the largest per-point
    remainder bound of 12 corrections falls below ``tol``.  Neither
    estimate counts float64 rounding.  With ``strict``
    an AccuracyError is raised if the estimate cannot be brought below
    ``tol``; otherwise the best result is returned with its estimate.
    """
    alpha = _check_alpha(alpha)
    s = np.asarray(s, dtype=complex)
    if s.size == 0:
        return s.copy(), (s.copy() if want_deriv else None), 0.0
    if float(np.min(s.real)) >= 0.0:
        n_terms, n_corr, est = _em_plan(s.ravel(), alpha, tol, want_deriv)
        return (*_em_split(s, alpha, n_terms, n_corr, want_deriv), est)
    n_terms = _em_start_terms(s)
    for _ in range(5):
        reg, dreg = _em_split(s, alpha, n_terms, _EM_MAX_CORRECTIONS, want_deriv)
        est = _em_tail_estimate(s.ravel(), n_terms + alpha, _EM_MAX_CORRECTIONS)
        if est < tol:
            return reg, dreg, est
        n_terms = int(n_terms * 1.7) + 8
    if strict:
        raise AccuracyError("Euler-Maclaurin tail did not reach the requested tolerance",
                            estimate=reg, residual=est)
    return reg, dreg, est


# ---------------------------------------------------------------------------
# Assembled Hurwitz / Riemann zeta.
# ---------------------------------------------------------------------------

def _route(s: complex, cfg: EvalConfig) -> str:
    """The route the scalar split tries first.

    "series-em" for Re s >= series_cutoff_sigma and for |Im s| >
    HERMITE_IM_LIMIT.  Elsewhere "hermite", which the split keeps only while
    the integral's float64 floor stays below the tolerance; past it the
    quadrature raises PrecisionFloorError and the split falls back to
    "series-em".
    """
    if s.real >= cfg.series_cutoff_sigma or abs(s.imag) > HERMITE_IM_LIMIT:
        return "series-em"
    return "hermite"


def _regular_split(s, alpha: float, cfg: EvalConfig, deriv: bool):
    alpha = _check_alpha(alpha)
    s = complex(s)
    if _route(s, cfg) == "hermite":
        try:
            if deriv:
                h = hermite_h_deriv(s, alpha, cfg)
                return hermite_d_deriv(s, alpha) + h, cfg.abs_tol, "hermite"
            h = hermite_h(s, alpha, cfg)
            return hermite_d(s, alpha) + h, cfg.abs_tol, "hermite"
        except PrecisionFloorError:
            pass  # float64 cannot certify the integral here; Euler-Maclaurin can
    try:
        reg, dreg, est = euler_maclaurin_split(
            np.array([s]), alpha, tol=min(1e-12, cfg.abs_tol / 10.0),
            want_deriv=deriv, strict=True)
    except AccuracyError as exc:
        raise _renamed(exc, s, alpha, "series-em") from exc
    return complex((dreg if deriv else reg)[0]), est, "series-em"


def hurwitz_regular_split(s, alpha: float, cfg: EvalConfig = DEFAULT_CONFIG):
    """Regular part R with zeta(s, alpha) = R + 1/(s-1).

    Returns (value, error_estimate, route); valid at s = 1 as well, where R
    is the finite part of the Laurent expansion.
    """
    return _regular_split(s, alpha, cfg, deriv=False)


def hurwitz_regular_split_deriv(s, alpha: float, cfg: EvalConfig = DEFAULT_CONFIG):
    """Regular part R' with zeta'(s, alpha) = R' - 1/(s-1)^2.

    Returns (value, error_estimate, route).
    """
    return _regular_split(s, alpha, cfg, deriv=True)


def hurwitz_zeta(s, alpha: float, cfg: EvalConfig = DEFAULT_CONFIG) -> complex:
    """Hurwitz zeta(s, alpha) for s != 1, alpha in (0, 1]."""
    s = complex(s)
    if s == 1:
        raise PoleError("zeta(s, alpha) has its pole at s = 1")
    reg, _, route = hurwitz_regular_split(s, alpha, cfg)
    return _require_finite(reg + 1.0 / (s - 1.0), "hurwitz_zeta", s, alpha, route)


def hurwitz_zeta_deriv(s, alpha: float, cfg: EvalConfig = DEFAULT_CONFIG) -> complex:
    """d/ds of hurwitz zeta: -1/(s-1)^2 + d'(s, alpha) + h'(s, alpha)."""
    s = complex(s)
    if s == 1:
        raise PoleError("zeta(s, alpha) has its pole at s = 1")
    dreg, _, route = hurwitz_regular_split_deriv(s, alpha, cfg)
    return _require_finite(dreg - 1.0 / (s - 1.0) ** 2, "hurwitz_zeta_deriv",
                           s, alpha, route)


def riemann_zeta(s, cfg: EvalConfig = DEFAULT_CONFIG) -> complex:
    """zeta(s) = zeta(s, 1)."""
    return hurwitz_zeta(s, 1.0, cfg)


def riemann_zeta_deriv(s, cfg: EvalConfig = DEFAULT_CONFIG) -> complex:
    """zeta'(s) = d/ds zeta(s, 1)."""
    return hurwitz_zeta_deriv(s, 1.0, cfg)


def eval_diagnostics(s, alpha: float, cfg: EvalConfig = DEFAULT_CONFIG):
    """(value, error_estimate, route) for one zeta(s, alpha) evaluation."""
    s = complex(s)
    if s == 1:
        raise PoleError("zeta(s, alpha) has its pole at s = 1")
    reg, est, route = hurwitz_regular_split(s, alpha, cfg)
    return reg + 1.0 / (s - 1.0), est, route


# Fast vectorized route for flow fields.  Euler-Maclaurin covers most of the
# plane, but its boundary terms grow like (N+a)^(1+|Re s|) for Re s < 0 and
# the float64 cancellation against the partial sum costs ~1e-16 x that; left
# of Re s = -3 (trivial-zero territory) a fixed-panel Gauss-Legendre
# evaluation of the h-integral is used instead, which is benign there.  The
# scalar operations above remain the certified reference; agreement between
# the routes is covered by the test suite.

_FIXED_RULE_RE_LIMIT = -3.0
_FIXED_RULE_THRESHOLD = 1e-13
_FIXED_PANEL_WIDTH = 0.5
_FIXED_PANEL_NODES = 16


def _fixed_hermite_h_many(s_flat: np.ndarray, alpha: float, deriv: bool) -> np.ndarray:
    worst = complex(float(np.max(np.abs(s_flat.real))),
                    float(np.max(np.abs(s_flat.imag))))
    T = _truncation_point(worst, alpha, _FIXED_RULE_THRESHOLD, deriv=deriv)
    n_panels = int(math.ceil(T / _FIXED_PANEL_WIDTH))
    x0, w0 = _leggauss(_FIXED_PANEL_NODES)
    lo = np.arange(n_panels) * _FIXED_PANEL_WIDTH
    nodes = (lo[:, None] + 0.5 * _FIXED_PANEL_WIDTH * (x0[None, :] + 1.0)).ravel()
    weights = np.tile(0.5 * _FIXED_PANEL_WIDTH * w0, n_panels)
    integrand = _hp_integrand if deriv else _h_integrand
    vals = integrand(nodes[None, :], s_flat[:, None], alpha)
    return 2.0 * (vals @ weights)


def _split_many(s, alpha: float, tol: float, deriv: bool):
    """Shared routing for the vectorized split evaluation.

    Points with Re s < -3 and moderate |Im s| go through the fixed-panel
    integral rule; the rest through Euler-Maclaurin, grouped by the sign of
    Re s so a large-|Im| point cannot force a term count that degrades the
    cancellation-sensitive negative-Re group.
    """
    alpha = _check_alpha(alpha)
    s = np.asarray(s, dtype=complex)
    flat = s.ravel()
    out = np.empty_like(flat)
    est = 0.0
    fixed = (flat.real < _FIXED_RULE_RE_LIMIT) & (np.abs(flat.imag) <= HERMITE_IM_LIMIT)
    if fixed.any():
        sf = flat[fixed]
        entire = hermite_d_deriv_many(sf, alpha) if deriv else hermite_d_many(sf, alpha)
        out[fixed] = entire + _fixed_hermite_h_many(sf, alpha, deriv)
        est = _FIXED_RULE_THRESHOLD
    rest = ~fixed
    for group in (rest & (flat.real < 0.0), rest & (flat.real >= 0.0)):
        if not group.any():
            continue
        reg, dreg, est_em = euler_maclaurin_split(flat[group], alpha, tol=tol,
                                                  want_deriv=deriv)
        out[group] = dreg if deriv else reg
        est = max(est, est_em)
    return out.reshape(s.shape), est


def hurwitz_split_many(s, alpha: float, tol: float = 1e-12):
    """Vectorized regular part R with zeta = R + 1/(s-1). Returns (R, est)."""
    return _split_many(s, alpha, tol, deriv=False)


def hurwitz_deriv_split_many(s, alpha: float, tol: float = 1e-12):
    """Vectorized regular part R' with zeta' = R' - 1/(s-1)^2. Returns (R', est)."""
    return _split_many(s, alpha, tol, deriv=True)


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
