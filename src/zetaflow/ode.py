"""The holomorphic flow s' = lambda F(s) for F a Dirichlet L-function.

An embedded Dormand-Prince 4(5) pair with PI step-size control integrates
trajectories; accepted steps are monitored for pole proximity (the distance
surrogate P(s) = |Re s - 1| + |Im s|), norm escape, and convergence onto a
zero.  Zeros of the Riemann zeta on the critical line are located by a
grid scan of |zeta(1/2 + it)|, one call of the Hurwitz router
``special.hurwitz_split_many``, whose minima seed one lockstep Newton
iteration over all seeds (one ``LFunctionHandle.evaluate`` call per iteration
returns F, F' and the error estimate of every point still active, from one
router call), classified by the sign of Re F'(z0) from the last of those
calls, and independently counted with an argument-principle contour
integral on router values, which reflect left of Re s = -3 (the pole at
s = 1 is cancelled by counting zeros of (s - 1) zeta(s) instead, which has
the same zeros when the box excludes s = 1).  A seed that fails is
reported with a reason naming the point, and the others go on.  The same
Newton, on a size-1 batch, classifies a single zero (``classify_zero``)
and the zero a flow converged onto, with the flow's own L-function.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (AccuracyError, DegenerateZeroError, DomainError,
                     StiffnessError)
from . import dirichlet, special
from .special import DEFAULT_CONFIG, EvalConfig
from .dirichlet import LFunctionHandle

NORM_ESCAPE_LIMIT = 1.0e6
CONVERGED_STREAK = 10
DT_MIN = 1e-12  # the ODE step floor; a rejected step below it raises StiffnessError
DT_MAX = 5.0    # the ODE step cap, raised to dt_init where that is larger
ZERO_SCAN_T_CAP = 320.0  # keeps the census at desk scale; first sinks near t ~ 282 stay reachable
_SCAN_STEP = 0.05
_SEED_LEVEL = 0.5


def pole_distance(s):
    """P(s) = |Re s - 1| + |Im s|, the distance surrogate to the pole; elementwise on arrays."""
    return abs(s.real - 1.0) + abs(s.imag)


@dataclass(frozen=True)
class FlowConfig:
    """Settings shared by the ODE and PDE marches.

    ``lam`` is the sign of the nonlinearity (+1 defocusing, -1 focusing).
    ``dt_init`` is the first step of the adaptive ODE stepper and the fixed
    step of the PDE march; the ODE step control takes its tolerances as
    arguments of ``integrate_flow``.
    """

    nonlinearity: LFunctionHandle
    lam: int = 1
    dt_init: float = 1e-3
    t_end: float = 50.0
    pole_guard_eps: float = 1e-3

    def __post_init__(self):
        if self.lam not in (-1, 1):
            raise DomainError("lam must be -1 or +1")
        if not self.pole_guard_eps > 0:
            raise DomainError("pole_guard_eps must be positive")
        if not self.dt_init > 0:
            raise DomainError("dt_init must be positive")
        if self.t_end < 0:
            raise DomainError("t_end must be nonnegative")


@dataclass(frozen=True)
class ZeroRecord:
    """A located zero with its classification by the sign of Re F'(z0)."""

    location: complex
    deriv_re: float
    deriv_im: float
    kind: str            # sink | source | trivial_sink | trivial_source, for lam = +1
    residual: float


@dataclass
class FlowResult:
    times: list[float]
    states: list[complex]
    termination: str                     # completed | pole_proximity | norm_escape | converged
    converged_to: ZeroRecord | None = None
    checkpoint_states: dict[float, complex] = field(default_factory=dict)

    @property
    def final_state(self) -> complex:
        return self.states[-1]

    @property
    def final_time(self) -> float:
        return self.times[-1]


# Dormand-Prince 4(5) tableau
_DP_C = (0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0)
_DP_A = (
    (),
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
    (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84),
)
_DP_B5 = (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0)
_DP_ERR = (71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525, -1 / 40)


def integrate_flow(cfg: FlowConfig, s0: complex, record_at=None,
                   rtol: float = 1e-9, atol: float = 1e-9) -> FlowResult:
    """Integrate s' = lam L(s) from s0 with adaptive RK4(5).

    The local error of a step is held below atol + rtol |s|; steps lie
    between DT_MIN and max(cfg.dt_init, DT_MAX).  ``record_at`` lists times
    the stepper must land on exactly (they appear in ``checkpoint_states``).
    Terminates early on pole proximity (P < pole_guard_eps), norm escape
    (|s| > 1e6), or convergence (|F(s)| < atol on 10 consecutive accepted
    steps); otherwise runs to t_end.
    """
    if not (rtol > 0 and atol > 0):
        raise DomainError("rtol and atol must be positive")
    s0 = complex(s0)
    handle = cfg.nonlinearity
    if handle.has_pole and pole_distance(s0) <= cfg.pole_guard_eps:
        raise DomainError("initial state violates the pole guard")

    checkpoints = sorted(t for t in (record_at or ()) if 0.0 < t <= cfg.t_end)

    def rhs(z: complex) -> complex:
        return cfg.lam * handle.eval_point(z)

    t = 0.0
    y = s0
    times = [t]
    states = [y]
    checkpoint_states: dict[float, complex] = {}
    termination = "completed"
    converged_to = None
    if cfg.t_end == 0.0:
        return FlowResult(times, states, termination, None, checkpoint_states)

    dt_max = max(cfg.dt_init, DT_MAX)
    dt_nat = cfg.dt_init  # controller's preferred step, before checkpoint clamping
    err_prev = 1.0
    streak = 0
    k1 = rhs(y)
    pending = list(checkpoints)
    while t < cfg.t_end - 1e-14:
        target = pending[0] if pending else cfg.t_end
        dt = min(dt_nat, dt_max, max(target - t, DT_MIN))
        hit_target = t + dt >= target - 1e-14
        if hit_target:
            dt = target - t

        k = [k1]
        bad = False
        for i in range(1, 7):
            yi = y + dt * sum(a * kk for a, kk in zip(_DP_A[i], k))
            if not (math.isfinite(yi.real) and math.isfinite(yi.imag)):
                bad = True
                break
            k.append(rhs(yi))
            if not (math.isfinite(k[-1].real) and math.isfinite(k[-1].imag)):
                bad = True
                break
        if not bad:
            y_new = y + dt * sum(b * kk for b, kk in zip(_DP_B5, k))
            err = dt * sum(e * kk for e, kk in zip(_DP_ERR, k))
            scale = atol + rtol * max(abs(y), abs(y_new))
            err_norm = abs(err) / scale
            bad = not (math.isfinite(y_new.real) and math.isfinite(y_new.imag)
                       and math.isfinite(err_norm))
        if bad or err_norm > 1.0:
            fac = 0.2 if bad else max(0.2, 0.9 * err_norm ** -0.2)
            dt_nat = dt * fac
            if dt_nat < DT_MIN:
                raise StiffnessError("step size underflowed dt_min", t, y)
            continue

        # accepted
        t = target if hit_target else t + dt
        y = y_new
        k1 = k[6]  # FSAL: k7 = F(y_new)
        times.append(t)
        states.append(y)
        # every checkpoint at this time, so a repeated one takes no step of its own
        while pending and abs(t - pending[0]) <= 1e-13 * max(1.0, abs(pending[0])):
            checkpoint_states[pending.pop(0)] = y

        if handle.has_pole and pole_distance(y) < cfg.pole_guard_eps:
            termination = "pole_proximity"
            break
        if abs(y) > NORM_ESCAPE_LIMIT:
            termination = "norm_escape"
            break
        if abs(k1) < atol:
            streak += 1
            if streak >= CONVERGED_STREAK:
                termination = "converged"
                converged_to = _nearest_zero(y, handle)
                break
        else:
            streak = 0

        en = max(err_norm, 1e-12)
        grow = min(6.0, max(0.2, 0.9 * en ** -0.14 * err_prev ** 0.08))
        base = dt_nat if hit_target else dt  # clamped steps do not shrink the controller
        dt_nat = min(max(base * grow, DT_MIN), dt_max)
        err_prev = en

    return FlowResult(times, states, termination, converged_to, checkpoint_states)


def _nearest_zero(y: complex, handle: LFunctionHandle) -> ZeroRecord | None:
    try:
        record = _classify(handle, y)
    except (DomainError, DegenerateZeroError, AccuracyError):
        return None
    return record if abs(record.location - y) < 0.1 else None


# ---------------------------------------------------------------------------
# Zero classification and census.
# ---------------------------------------------------------------------------

_NEWTON_EVALS = 40     # evaluations a census seed gets to reach _NEWTON_TOL
_NEWTON_TOL = 1e-10
_STEP_LIMIT = 2.0      # a longer or non-finite Newton step abandons the seed
_REFINE_STEPS = 2      # steps taken before classification while |F| >= _REFINE_TOL
_REFINE_TOL = 1e-12
_CLASSIFY_SEED_TOL = 1e-4  # admits seeds quoted to ~4 decimals; Newton tightens them
_RESIDUAL_TOL = 1e-8
_DEGENERATE_TOL = 1e-10


def _lockstep_newton(handle: LFunctionHandle, z0, evals: int, tol: float):
    """Newton on F = L (the handle's L-function) from every point of ``z0`` at once.

    A point first iterates z <- z - F(z)/F'(z) until |F(z)| < ``tol``, for at
    most ``evals`` evaluations, and is abandoned after a non-finite step or
    one longer than 2.  It then takes up to 2 more steps while
    |F| >= 1e-12, and its last evaluation classifies it by the sign of
    Re F'(z) (trivial zeros of zeta, near negative even integers, tagged
    so).  Every iteration is one router call, on the points still active,
    that returns F, F' and the estimate; a point whose estimate its
    eval_cfg does not accept stops there.  Returns (found, outcomes):
    found[i] is where |F| < tol first held (nan if never), and outcomes[i]
    the ZeroRecord or the exception (DomainError, AccuracyError,
    DegenerateZeroError) that stopped the point, naming it.
    """
    start = np.array(z0, dtype=complex).ravel()
    z = start.copy()
    cfg = handle.eval_cfg
    found = np.full(z.size, complex(math.nan, math.nan))
    used = np.zeros(z.size, dtype=int)      # evaluations until |F| < tol
    refined = np.zeros(z.size, dtype=int)   # steps taken after that
    outcomes: list = [None] * z.size
    active = np.arange(z.size)
    while active.size:
        za = z[active]
        (f, df), est, routes = handle.evaluate(za, deriv=True)
        ok = cfg.accepts(f, est) & cfg.accepts(df, est)
        size = np.abs(f)
        seeking = ok & np.isnan(found[active])
        used[active[seeking]] += 1
        hit = seeking & (size < tol)
        found[active[hit]] = za[hit]
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            step = f / df
        lost = seeking & ~hit & ((used[active] >= evals) | ~(np.abs(step) <= _STEP_LIMIT))
        refining = ok & ~seeking | hit
        done = refining & ((size < _REFINE_TOL) | (refined[active] >= _REFINE_STEPS))
        for j in np.flatnonzero(~ok | lost | done):
            i, s = active[j], complex(za[j])
            if not ok[j]:
                outcomes[i] = cfg.rejection(
                    complex(f[j]), float(est[j]),
                    f"at s={s!r}, m={handle.period} (route {special.ROUTES[routes[0, j]]})")
            elif lost[j]:
                why = (f"|F| = {size[j]:.3e} not below {tol:g} after {used[i]} evaluations"
                       if used[i] >= evals else f"Newton step {complex(step[j])!r} rejected")
                outcomes[i] = DomainError(f"{why} at s={s!r} (seed {complex(start[i])!r})")
            else:
                outcomes[i] = _zero_record(handle, s, complex(f[j]), complex(df[j]))
        move = ok & ~lost & ~done
        z[active[move]] = za[move] - step[move]
        refined[active[move & refining]] += 1
        active = active[move]
    return found, outcomes


def _zero_record(handle: LFunctionHandle, z: complex, f: complex, d: complex):
    """The ZeroRecord of a refined zero z with F(z) = f and F'(z) = d, or the error."""
    residual = abs(f)
    if residual >= _RESIDUAL_TOL:
        return AccuracyError(f"Newton refinement left a residual above 1e-8 at s={z!r}",
                             estimate=z, residual=residual)
    if abs(d.real) < _DEGENERATE_TOL:
        return DegenerateZeroError(
            f"|Re F'| = {abs(d.real):.2e} at {z!r}: sink/source undecidable")
    trivial = handle.period == 1 and abs(z.imag) < 1e-8 \
        and abs(z.real / 2.0 - round(z.real / 2.0)) < 5e-7 and round(-z.real / 2.0) >= 1
    if d.real < 0:
        kind = "trivial_sink" if trivial else "sink"
    else:
        kind = "trivial_source" if trivial else "source"
    return ZeroRecord(location=z, deriv_re=d.real, deriv_im=d.imag,
                      kind=kind, residual=residual)


def _classify(handle: LFunctionHandle, z0: complex) -> ZeroRecord:
    outcome = _lockstep_newton(handle, [complex(z0)], 1, _CLASSIFY_SEED_TOL)[1][0]
    if isinstance(outcome, Exception):
        raise outcome
    return outcome


def classify_zero(z0: complex, cfg: EvalConfig = DEFAULT_CONFIG) -> ZeroRecord:
    """Classify a zeta zero as sink/source from the sign of Re zeta'(z0).

    A size-1 call of the census Newton: the seed must already satisfy
    |zeta(z0)| < 1e-4 (DomainError otherwise); it is tightened by up to two
    Newton steps while |zeta| >= 1e-12, and the last evaluation gives the
    residual (AccuracyError at 1e-8 or above) and zeta'(z) (DegenerateZeroError
    where |Re zeta'| < 1e-10).  Zeros on the negative real axis within 1e-6
    of an even integer are tagged trivial.  An estimate that ``cfg`` does not
    accept raises AccuracyError naming the point and the route.
    """
    return _classify(dirichlet.zeta_function(cfg), z0)


@dataclass
class SkippedSeed:
    t_seed: float
    reason: str


@dataclass
class ZeroScan:
    records: list[ZeroRecord]
    skipped: list[SkippedSeed]


def find_critical_zeros(t_max: float, cfg: EvalConfig = DEFAULT_CONFIG) -> ZeroScan:
    """Locate the critical-line zeros with 0 < Im z <= t_max.

    |zeta(1/2 + it)| is scanned on a grid of step 0.05, and its local minima
    below 0.5 seed Newton in lockstep (``_lockstep_newton``: one router call
    per iteration for all seeds still active).  A seed reaches |zeta| < 1e-10
    within 40 evaluations or is skipped; the zeros are deduplicated at
    distance 1e-4 in seed order, kept where 0 < Im z <= t_max, refined and
    classified as ``classify_zero`` does, and sorted by imaginary part.  A
    seed that fails (no convergence, a rejected step, an estimate ``cfg``
    does not accept, a residual or degenerate classification) is reported in
    ``skipped`` with a reason that names the point; the others go on.
    """
    if t_max < 0 or t_max > ZERO_SCAN_T_CAP:
        raise DomainError(f"t_max must lie in [0, {ZERO_SCAN_T_CAP:g}]")
    if t_max < _SCAN_STEP * 3:
        return ZeroScan([], [])
    # the scan runs two steps past t_max, so a zero just below t_max is
    # still an interior minimum; zeros above t_max are dropped below
    ts = np.arange(_SCAN_STEP, t_max + 3 * _SCAN_STEP, _SCAN_STEP)
    s = 0.5 + 1j * ts
    reg = special.hurwitz_split_many(s, 1.0, tol=1e-11)[0]
    mag = np.abs(reg + 1.0 / (s - 1.0))
    interior = ((mag[1:-1] < mag[:-2]) & (mag[1:-1] < mag[2:])
                & (mag[1:-1] < _SEED_LEVEL))
    seeds = ts[1:-1][interior]
    return _census(0.5 + 1j * seeds, t_max, cfg)


def _census(seeds: np.ndarray, t_max: float, cfg: EvalConfig) -> ZeroScan:
    """Lockstep Newton from ``seeds``, then dedup, the t-window and classification."""
    found, outcomes = _lockstep_newton(dirichlet.zeta_function(cfg), seeds,
                                       _NEWTON_EVALS, _NEWTON_TOL)
    records: list[ZeroRecord] = []
    skipped: list[SkippedSeed] = []
    for seed, z, outcome in zip(seeds, found, outcomes):
        if not np.isnan(z):
            if any(abs(z - r.location) < 1e-4 for r in records) \
                    or not 0.0 < z.imag <= t_max:
                continue
        if isinstance(outcome, ZeroRecord):
            records.append(outcome)
        else:
            skipped.append(SkippedSeed(float(seed.imag), str(outcome)))
    records.sort(key=lambda r: r.location.imag)
    return ZeroScan(records, skipped)


def count_zeros_box(re_lo: float, re_hi: float, im_lo: float, im_hi: float) -> int:
    """Argument-principle zero count for zeta on a rectangle.

    Integrates F'/F for F = (s-1) zeta(s) = 1 + (s-1) R, R the regular part,
    as (R + (s-1) R') / (1 + (s-1) R), which is regular at s = 1 (F(1) = 1),
    around the box with trapezoid sums of router values at tol 1e-11 (the
    reflection left of Re s = -3, so a box may enclose a trivial zero),
    halving the spacing until the winding stabilizes on an integer.
    An edge of length L starts with max(96, 16 L) intervals; the grids are
    nested, so each halving evaluates only the new midpoints, of all four
    edges in one call.  s = 1 may lie on the boundary but not inside the
    box, and the boundary must avoid zeros; nudge edges by ~1e-3.
    """
    if not (re_lo < re_hi and im_lo < im_hi):
        raise DomainError("degenerate box")
    if re_lo < 1.0 < re_hi and im_lo < 0.0 < im_hi:
        raise DomainError("box must exclude the pole s = 1")

    corners = [complex(re_lo, im_lo), complex(re_hi, im_lo),
               complex(re_hi, im_hi), complex(re_lo, im_hi),
               complex(re_lo, im_lo)]
    edges = [(a, b - a) for a, b in zip(corners[:-1], corners[1:])]

    def integrand(fractions):
        """The integrand at a + (b - a) u for each edge's array u, in one call."""
        s = np.concatenate([a + d * u for (a, d), u in zip(edges, fractions)])
        (reg, dreg), _, _ = special.hurwitz_split_many(s, 1.0, tol=1e-11, deriv=True)
        shifted = s - 1.0
        g = (reg + shifted * dreg) / (1.0 + shifted * reg)
        return np.split(g, np.cumsum([u.size for u in fractions])[:-1])

    n = [max(96, int(abs(d) * 16.0)) for _, d in edges]
    nodes = integrand([np.linspace(0.0, 1.0, k + 1) for k in n])
    trap = [d / k * (g.sum() - 0.5 * (g[0] + g[-1])) for (_, d), k, g in zip(edges, n, nodes)]
    prev = None
    for level in range(8):
        if level:
            mids = integrand([(np.arange(k) + 0.5) / k for k in n])
            n = [2 * k for k in n]
            trap = [0.5 * t + d / k * g.sum() for t, (_, d), k, g in zip(trap, edges, n, mids)]
        w = sum(trap) / (2j * math.pi)
        count = round(w.real)
        if abs(w - count) < 0.05 and prev == count:
            return int(count)
        prev = count
    raise AccuracyError("zero-count winding did not stabilize", estimate=prev)


def sink_proportion(zeros: list[ZeroRecord]) -> list[tuple[int, float]]:
    """Running proportion P_n of sinks among the first n records."""
    out = []
    sinks = 0
    for n, rec in enumerate(zeros, start=1):
        if rec.kind == "sink":
            sinks += 1
        out.append((n, sinks / n))
    return out


# ---------------------------------------------------------------------------
# Serialization helpers (CSV trajectories, JSON zero lists).
# ---------------------------------------------------------------------------

def trajectory_csv_lines(result: FlowResult):
    """CSV rows (t, re, im) with a header, floats at 17 significant digits."""
    yield "t,re,im"
    for t, z in zip(result.times, result.states):
        yield f"{t:.17g},{z.real:.17g},{z.imag:.17g}"


def zero_record_to_dict(rec: ZeroRecord) -> dict:
    return {
        "location": {"re": rec.location.real, "im": rec.location.imag},
        "deriv_re": rec.deriv_re,
        "deriv_im": rec.deriv_im,
        "kind": rec.kind,
        "residual": rec.residual,
    }
