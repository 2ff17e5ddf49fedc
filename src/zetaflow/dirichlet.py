"""Dirichlet characters and L-functions built from finite Hurwitz-zeta sums.

A character of period m is stored as a validated table of its m values; the
associated L-function is evaluated through

    L_m(s) = m^{-s} sum_{r=1..m} chi(r) zeta(s, r/m),

with the 1/(s-1) residues of the Hurwitz terms combined symbolically: their
chi-weighted sum is phi(m) for the principal character and exactly 0
otherwise, so non-principal L-functions evaluate cleanly through s = 1.
One evaluator, ``LFunctionHandle.evaluate``, makes one Hurwitz router call
for all residues and returns L (and L') with an error estimate and the
routes; ``eval_many``, ``eval_point``, ``l_eval`` and the zero census call it.
Its lattice counterpart, ``LFunctionHandle._evaluate_grid``, evaluates L on
a sigma x t lattice for the sigma_0 scan, from one call of the router's
lattice twin ``special.hurwitz_grid``, which holds the route and group
rules; both share the chi-weighting, pole term and m^(-s) of
``LFunctionHandle._combine``.

Also here: the real root sigma_1 of zeta(sigma) = 2, a window-truncated scan
estimate of the abscissa sigma_0 below which Re L_m can vanish, and the
real/imaginary-part bound checks used as runtime oracles on flows.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Sequence

import numpy as np

from .errors import CharacterValidationError, DomainError, PoleError
from . import special
from .special import DEFAULT_CONFIG, EvalConfig

_UNITY_TOL = 1e-12
_EPS = 2.0 ** -52


@dataclass(frozen=True)
class CharacterTable:
    """A Dirichlet character of period m as an explicit value table.

    ``values[r - 1]`` holds chi(r) for r = 1..m; the last entry stands for
    chi(m), i.e. chi(0 mod m).  Construct through ``validate_character`` (or
    the ``principal_character`` / ``prime_character_group`` builders), which
    checks periodic multiplicativity, the gcd zero pattern, chi(1) = 1 and
    that nonzero values are roots of unity.
    """

    period: int
    values: tuple[complex, ...]
    is_principal: bool
    is_real: bool

    def value(self, n: int) -> complex:
        """chi(n) for any n >= 1, by periodicity."""
        return self.values[(n - 1) % self.period]


def validate_character(values: Sequence[complex]) -> CharacterTable:
    """Validate a raw period-m value list and cache the derived flags."""
    vals = tuple(complex(v) for v in values)
    m = len(vals)
    if m < 1:
        raise CharacterValidationError("a character table needs at least one entry")

    def chi(n: int) -> complex:
        return vals[(n - 1) % m]

    if abs(chi(1) - 1.0) > _UNITY_TOL:
        raise CharacterValidationError(f"chi(1) must be 1, got {chi(1)!r}")
    for r in range(1, m + 1):
        if math.gcd(r, m) > 1:
            if abs(vals[r - 1]) > _UNITY_TOL:
                raise CharacterValidationError(
                    f"chi({r}) must vanish: gcd({r}, {m}) > 1")
        else:
            mag = abs(vals[r - 1])
            if abs(mag - 1.0) > _UNITY_TOL:
                raise CharacterValidationError(
                    f"chi({r}) must be a root of unity, got modulus {mag!r}")
    for a in range(1, m + 1):
        for b in range(a, m + 1):
            lhs = chi(a * b)
            rhs = chi(a) * chi(b)
            if abs(lhs - rhs) > 10 * _UNITY_TOL:
                raise CharacterValidationError(
                    f"multiplicativity fails at pair ({a}, {b}): "
                    f"chi(ab)={lhs!r} vs chi(a)chi(b)={rhs!r}")
    coprime = [vals[r - 1] for r in range(1, m + 1) if math.gcd(r, m) == 1]
    is_principal = all(abs(v - 1.0) <= _UNITY_TOL for v in coprime)
    is_real = all(abs(v.imag) <= _UNITY_TOL for v in vals)
    return CharacterTable(period=m, values=vals,
                          is_principal=is_principal, is_real=is_real)


def principal_character(m: int) -> CharacterTable:
    """The period-m character equal to 1 on residues coprime to m."""
    if m < 1:
        raise DomainError("period must be a positive integer")
    vals = [1.0 + 0.0j if math.gcd(r, m) == 1 else 0.0 + 0.0j
            for r in range(1, m + 1)]
    return validate_character(vals)


def _primitive_root(p: int) -> int:
    order = p - 1
    factors = set()
    x, q = order, 2
    while q * q <= x:
        while x % q == 0:
            factors.add(q)
            x //= q
        q += 1
    if x > 1:
        factors.add(x)
    for g in range(2, p):
        if all(pow(g, order // f, p) != 1 for f in factors):
            return g
    raise DomainError(f"{p} is not prime")


def prime_character_group(p: int) -> list[CharacterTable]:
    """All p-1 characters of prime period p, built from a primitive root."""
    if p < 2 or any(p % q == 0 for q in range(2, int(math.isqrt(p)) + 1)):
        raise DomainError("period must be prime for the group builder")
    if p == 2:
        return [principal_character(2)]
    g = _primitive_root(p)
    # discrete logs: residue g^k mod p -> k
    dlog = {}
    acc = 1
    for k in range(p - 1):
        dlog[acc] = k
        acc = (acc * g) % p
    tables = []
    for j in range(p - 1):
        vals = []
        for r in range(1, p + 1):
            if r % p == 0:
                vals.append(0.0 + 0.0j)
            else:
                vals.append(np.exp(2j * math.pi * j * dlog[r % p] / (p - 1)))
        tables.append(validate_character(vals))
    return tables


def character_from_json(doc) -> CharacterTable:
    """Load {"period": m, "values": [[re, im], ...]} (dict or JSON text)."""
    if isinstance(doc, (str, bytes)):
        doc = json.loads(doc)
    try:
        m = int(doc["period"])
        pairs = doc["values"]
        vals = [complex(float(re), float(im)) for re, im in pairs]
    except (KeyError, TypeError, ValueError) as exc:
        raise CharacterValidationError(f"malformed character document: {exc}") from exc
    if len(vals) != m:
        raise CharacterValidationError(
            f"value list length {len(vals)} does not match period {m}")
    return validate_character(vals)


def character_to_json(table: CharacterTable) -> dict:
    return {"period": table.period,
            "values": [[v.real, v.imag] for v in table.values]}


# ---------------------------------------------------------------------------
# L-function evaluation.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LFunctionHandle:
    """An evaluatable Dirichlet L-function of a character."""

    character: CharacterTable
    eval_cfg: EvalConfig = DEFAULT_CONFIG

    @property
    def has_pole(self) -> bool:
        """True iff the character is principal: only then is s = 1 a pole."""
        return self.character.is_principal

    @property
    def period(self) -> int:
        return self.character.period

    @cached_property
    def _residues(self):
        """chi(r) and |chi(r)| as arrays, r/m and sum |chi(r)|, over the r coprime to m."""
        pairs = [(chi, r / self.period) for r, chi in enumerate(self.character.values, start=1)
                 if math.gcd(r, self.period) == 1]
        weights = [abs(chi) for chi, _ in pairs]
        return (np.array([chi for chi, _ in pairs]), np.array(weights),
                tuple(a for _, a in pairs), sum(weights))

    def evaluate(self, s, deriv: bool = False):
        """(values, estimates, routes) of L on an array of points, from one router call.

        values is L, or with ``deriv`` the pair (L, L'), where
        L' = m^(-s) [sum_r chi(r) R'_r - ln m sum_r chi(r) R_r] for the
        regular parts R_r of zeta(s, r/m); for a principal character
        phi(m)/(s-1) joins the sum over chi(r) R_r (so s != 1), and its
        derivative the sum over chi(r) R'_r.  Each Hurwitz estimate bounds
        the error of R_r and R'_r, so m^(-Re s) sum_r |chi(r)| est_r, times
        (1 + ln m) with ``deriv``, plus the rounding of m^(-s), bounds that
        of L and L'; the router runs at eval_cfg.split_tol times
        m^(min Re s) / sum_r |chi(r)| where that is below 1, for all
        residues at once; it gives each point one route for every residue,
        and with ``deriv`` R_r and R'_r from the same kernel calls.  Each
        sum over the residues is one elementwise sum, in the same order at
        every point and batch size, and the combination runs on point blocks
        (special._point_blocks) of special._TEMP_BLOCK / R points (R
        residues), so no temporary of a wide batch outgrows 64 kB.
        ``routes`` holds the route code per residue (leading axis) and
        point; the rows are equal.  Raises PoleError, naming the first such
        point and its index, where a principal character meets s = 1; only a
        batch whose Re s hull holds 1 is searched.
        """
        s = np.asarray(s, dtype=complex)
        flat = s.ravel()
        alphas = self._residues[2]
        lowest, highest = special._re_hull(flat) if flat.size else (math.inf, math.inf)
        if lowest <= 1.0 <= highest and self.has_pole and (at := np.flatnonzero(flat == 1.0)).size:
            index = ", ".join(str(int(i)) for i in np.unravel_index(at[0], s.shape))
            where = f"s[{index}]" if s.ndim else "s"
            raise PoleError(f"principal L-functions have a pole at s = 1: {where} = "
                            f"{complex(flat[at[0]])!r}")
        values, ests, routes = special.hurwitz_split_many(
            flat, alphas, self._router_tol(lowest), deriv, self.period)
        regs = values if deriv else (values,)
        est, *totals = special._point_blocks(self._combine, (flat, ests, *regs), len(alphas))
        totals = [total.reshape(s.shape) for total in totals]
        return ((tuple(totals) if deriv else totals[0]), est.reshape(s.shape),
                routes.reshape((len(alphas),) + s.shape))

    def _router_tol(self, lowest: float) -> float:
        """The Hurwitz tolerance for points whose least real part is ``lowest``.

        eval_cfg.split_tol times m^(min(lowest, 1)) / sum_r |chi(r)| where
        that is below 1; m^(min Re s) / weight is at least 1 from Re s = 1
        on, as weight is phi(m) <= m, so the power stays within the float64
        range.
        """
        weight = self._residues[3]
        return self.eval_cfg.split_tol * min(1.0, self.period ** min(lowest, 1.0) / weight)

    def _combine(self, flat: np.ndarray, ests: np.ndarray, *regs: np.ndarray):
        """(estimate, L, and L') at the 1-d points ``flat`` from the regular parts.

        ``ests`` holds the (residue, point) estimates of the (residue, point)
        arrays ``regs``: R_r, and R'_r after it for the derivative.  The
        chi-weighting, the pole term phi(m)/(s-1) of a principal character
        and the factor m^(-s), as ``evaluate`` states them.
        """
        m = self.period
        chis, weights, alphas, _ = self._residues
        deriv = len(regs) == 2
        totals = [np.multiply(r.T, chis, order="C").sum(axis=-1, initial=0.0) for r in regs]
        est = np.multiply(ests.T, weights, order="C").sum(axis=-1, initial=0.0)
        # the sums are this call's own arrays: the sums and real products below
        # update them in place (a complex product in place would round otherwise)
        if self.has_pole:
            shifted = flat - 1.0
            totals[0] += len(alphas) / shifted
            if deriv:
                totals[1] -= len(alphas) / shifted ** 2
        if m > 1:
            log_m = math.log(m)
            if deriv:
                totals[1] -= log_m * totals[0]
            scale = np.exp(-flat * log_m)
            totals = [scale * total for total in totals]
            est_scale = np.exp(flat.real * -log_m)
            if deriv:
                est_scale *= 1.0 + log_m
            est *= est_scale
            # m^(-s) = exp(-s fl(ln m)) is off by eps (|s| ln m + 2) relative
            # and the product by 2 eps, on L and on L' alike
            largest = np.maximum(*map(np.abs, totals)) if deriv else np.abs(totals[0])
            bound = np.abs(flat)
            bound *= _EPS * log_m
            bound += 4.0 * _EPS
            bound *= largest
            est += bound
        return (est, *totals)

    def _evaluate_grid(self, sigmas, ts):
        """(L, estimates) on the lattice of the arrays ``sigmas`` x ``ts``, shaped (row, column).

        The lattice counterpart of ``evaluate``, value only, with no point
        at the pole s = 1 of a principal character: one special.hurwitz_grid
        call, at the tolerance ``evaluate`` takes, and one _combine call.
        """
        regs, ests = special.hurwitz_grid(sigmas, ts, self._residues[2],
                                          self._router_tol(float(sigmas.min())))
        flat = (sigmas[:, None] + 1j * ts[None, :]).ravel()
        est, total = self._combine(flat, ests.reshape(len(regs), -1), regs.reshape(len(regs), -1))
        return total.reshape(regs.shape[1:]), est.reshape(regs.shape[1:])

    def eval_many(self, s) -> np.ndarray:
        """Vectorized evaluation on an array of points away from s = 1."""
        return self.evaluate(s)[0]

    def eval_point(self, s: complex) -> complex:
        return complex(self.eval_many(np.array([complex(s)]))[0])


def l_function(character: CharacterTable,
               cfg: EvalConfig = DEFAULT_CONFIG) -> LFunctionHandle:
    return LFunctionHandle(character=character, eval_cfg=cfg)


def zeta_function(cfg: EvalConfig = DEFAULT_CONFIG) -> LFunctionHandle:
    """The Riemann zeta as the m = 1 principal L-function."""
    return l_function(principal_character(1), cfg)


def l_eval(handle: LFunctionHandle, s) -> complex:
    """L_m(s) through the finite Hurwitz sum, pole residues combined exactly.

    Raises PoleError iff the character is principal and s = 1; non-principal
    L-functions are finite there because the chi-weighted residue sum
    vanishes identically and is dropped symbolically.  Raises AccuracyError,
    naming s, the period and the route, unless eval_cfg.accepts the value
    and its error estimate.
    """
    return l_eval_with_estimate(handle, s)[0]


def l_eval_with_estimate(handle: LFunctionHandle, s) -> tuple[complex, float, str]:
    """(L_m(s), its error estimate, its route) at one point; raises as ``l_eval`` does.

    The route is the router's route at s, which every residue takes.
    """
    s = complex(s)
    vals, est, routes = handle.evaluate(np.array(s))
    value, est, route = complex(vals), float(est), special.ROUTES[routes[0]]
    if not handle.eval_cfg.accepts(value, est):
        raise handle.eval_cfg.rejection(value, est,
                                        f"at s={s!r}, m={handle.period} (route {route})")
    return value, est, route


# ---------------------------------------------------------------------------
# sigma_1 and the window-truncated sigma_0 estimate.
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def sigma1_root(cfg: EvalConfig = DEFAULT_CONFIG) -> float:
    """The real root of zeta(sigma) = 2 on (1, 2), by bisection to 1e-8.

    zeta is strictly decreasing on (1, inf), so the root is unique.  It is
    computed once per (frozen, hashable) EvalConfig.
    """
    lo, hi = 1.01, 2.0
    flo = special.riemann_zeta(lo, cfg).real - 2.0
    fhi = special.riemann_zeta(hi, cfg).real - 2.0
    if not (flo > 0 > fhi):
        raise DomainError("bisection bracket lost; zeta evaluation suspect")
    while hi - lo > 1e-8:
        mid = 0.5 * (lo + hi)
        if special.riemann_zeta(mid, cfg).real - 2.0 > 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


# Resolution of the sigma_0 window scan.
_SIGMA_STEP = 0.005
_T_STEP = 0.2
_BISECT_TOL = 1e-4


@dataclass(frozen=True)
class Sigma0Result:
    sigma: float
    attained: bool     # False: no sign change anywhere in the window
    t_hit: float | None


def sigma0_estimate(handle: LFunctionHandle, sigma_lo: float, sigma_hi: float,
                    t_max: float) -> Sigma0Result:
    """Largest sigma in [sigma_lo, sigma_hi] where Re L_m(sigma + it) changes
    sign for some |t| <= t_max, refined by bisection in sigma.

    The scan takes the rows sigma_hi - 0.005 k while they are >= sigma_lo,
    then a row at sigma_lo, on a t-grid of step 0.2, and bisects the first
    row with a change, from the top down, to 1e-4.  A change is one between
    two sure points of opposite sign, sure where |Re L| exceeds its error
    estimate; a point within it, as at a zero of L on the grid, has no
    sign.  The window's Re L comes from the lattice evaluator
    (LFunctionHandle._evaluate_grid) in t-blocks of about
    special._TEMP_BLOCK points, a bisection row as a 1-row lattice;
    the pole of a principal character at s = 1 is dodged to 1 + 0.2i/7.
    Raises DomainError, naming the rows' range, left of Re s = -3, where
    the lattice (special.hurwitz_grid) does not reach.

    A lower estimate of the true abscissa, truncated to the t-window; when no
    sign change exists anywhere in the window the result carries
    ``attained=False`` and returns sigma_lo.
    """
    if not sigma_lo < sigma_hi:
        raise DomainError("need sigma_lo < sigma_hi")
    if t_max < 0:
        raise DomainError("t_max must be nonnegative")
    ts = np.arange(0.0, t_max + _T_STEP * 0.5, _T_STEP)
    if not handle.character.is_real:
        ts = np.concatenate([-ts[::-1], ts[1:]])  # conjugate symmetry fails: scan both signs
    # a principal character's rows at sigma = 1 take t = 0.2/7 for t = 0
    dodged = np.where(ts == 0.0, _T_STEP / 7.0, ts)

    def re_signs(sigmas: np.ndarray) -> np.ndarray:
        """Sign of Re L on the rows ``sigmas``, shaped (row, t); 0 where |Re L| <= its estimate."""
        out = np.empty((sigmas.size, ts.size))
        pole = handle.has_pole & (np.abs(sigmas - 1.0) < 1e-12)
        for rows, grid_ts in ((~pole, ts), (pole, dodged)):
            if rows.any():
                row_sigmas = sigmas[rows]

                def signs(block_ts: np.ndarray) -> tuple:
                    values, est = handle._evaluate_grid(row_sigmas, block_ts)
                    return (np.where(np.abs(values.real) > est, np.sign(values.real), 0.0),)

                # t-blocks of about special._TEMP_BLOCK lattice points:
                # Euler-Maclaurin's tail keeps about seven complex arrays of
                # the block alive, which stay near a core's L2 cache.  On the
                # strip benchmark's window (41 rows, t in [0, 300]; numpy
                # 2.4, one x86-64 core, 2 MB L2) blocks of 2^12 points timed
                # 13 ms a scan with a 1.3 MB allocation peak, 2^13 16 ms and
                # 2.0 MB, 2^14 20 ms and 3.5 MB, 2^11 17 ms.
                out[rows] = special._point_blocks(signs, (grid_ts,), row_sigmas.size)[0]
        return out

    def first_change(row: np.ndarray) -> float | None:
        """t of the last sure point before the first change between sure points, or None."""
        sure = np.flatnonzero(row)
        idx = np.flatnonzero(np.diff(row[sure]) != 0)
        return float(ts[sure[idx[0]]]) if idx.size else None

    sigmas = np.arange(sigma_hi, sigma_lo - _SIGMA_STEP * 0.5, -_SIGMA_STEP)
    sigmas = sigmas[sigmas >= sigma_lo]
    if sigmas[-1] != sigma_lo:
        sigmas = np.append(sigmas, sigma_lo)
    hit_sigma = None
    hit_t = None
    for sg, row in zip(sigmas, re_signs(sigmas)):
        t_hit = first_change(row)
        if t_hit is not None:
            hit_sigma, hit_t = float(sg), t_hit
            break
    if hit_sigma is None:
        return Sigma0Result(sigma=sigma_lo, attained=False, t_hit=None)
    # bisect upward: largest sigma with a sign change
    lo = hit_sigma
    hi = min(hit_sigma + _SIGMA_STEP, sigma_hi)
    while hi - lo > _BISECT_TOL:
        mid = 0.5 * (lo + hi)
        t_hit = first_change(re_signs(np.array([mid]))[0])
        if t_hit is None:
            hi = mid
        else:
            lo, hit_t = mid, t_hit
    return Sigma0Result(sigma=lo, attained=True, t_hit=hit_t)


# ---------------------------------------------------------------------------
# Real/imaginary part bound checks (runtime oracle on the right half-plane).
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ReBoundsReport:
    value: complex
    re_lower: float
    re_upper: float
    im_bound: float
    re_ok: bool
    im_ok: bool

    @property
    def ok(self) -> bool:
        return self.re_ok and self.im_ok


def re_bounds_check(handle: LFunctionHandle, s) -> ReBoundsReport:
    """Check max{0, 2 - zeta(Re s)} <= Re L <= zeta(Re s), |Im L| <= zeta(Re s) - 1.

    Valid for Re s > 1.  The bounds are attained with equality for the zeta
    itself at real s, so comparisons carry a 1e-12 slack.
    """
    s = complex(s)
    if not s.real > 1.0:
        raise DomainError("the bound check needs Re s > 1")
    z = special.riemann_zeta(complex(s.real), handle.eval_cfg).real
    val = l_eval(handle, s)
    re_lower = max(0.0, 2.0 - z)
    re_upper = z
    im_bound = z - 1.0
    eps = 1e-12
    re_ok = re_lower - eps <= val.real <= re_upper + eps
    im_ok = abs(val.imag) <= im_bound + eps
    return ReBoundsReport(value=val, re_lower=re_lower, re_upper=re_upper,
                          im_bound=im_bound, re_ok=re_ok, im_ok=im_ok)
