"""The holomorphic flow s' = lambda F(s) for F a Dirichlet L-function.

An embedded Dormand-Prince 4(5) pair with PI step-size control integrates
trajectories; accepted steps are monitored for pole proximity (the distance
surrogate P(s) = |Re s - 1| + |Im s|), norm escape, and convergence onto a
zero.  Zeros of the Riemann zeta on the critical line are located by a
grid scan of |zeta(1/2 + it)| followed by Newton refinement, classified by
the sign of Re zeta'(z0), and independently counted with an
argument-principle contour integral (the pole at s = 1 is cancelled by
counting zeros of (s - 1) zeta(s) instead, which has the same zeros when the
box excludes s = 1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (AccuracyError, DegenerateZeroError, DomainError,
                     StiffnessError)
from . import special
from .special import DEFAULT_CONFIG, EvalConfig
from .dirichlet import LFunctionHandle

NORM_ESCAPE_LIMIT = 1.0e6
CONVERGED_STREAK = 10
DT_MIN = 1e-12  # the ODE step floor; a rejected step below it raises StiffnessError
DT_MAX = 5.0    # the ODE step cap, raised to dt_init where that is larger
ZERO_SCAN_T_CAP = 320.0  # keeps the census at desk scale; first sinks near t ~ 282 stay reachable
_SCAN_STEP = 0.05
_SEED_LEVEL = 0.5


def pole_distance(s: complex) -> float:
    """P(s) = |Re s - 1| + |Im s|, the distance surrogate to the pole."""
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
    kind: str            # sink | source | trivial_sink | trivial_source
    residual: float

    def is_sink(self) -> bool:
        return self.kind in ("sink", "trivial_sink")


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
        if pending and abs(t - pending[0]) <= 1e-13 * max(1.0, abs(pending[0])):
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
                converged_to = _nearest_zero(y)
                break
        else:
            streak = 0

        en = max(err_norm, 1e-12)
        grow = min(6.0, max(0.2, 0.9 * en ** -0.14 * err_prev ** 0.08))
        base = dt_nat if hit_target else dt  # clamped steps do not shrink the controller
        dt_nat = min(max(base * grow, DT_MIN), dt_max)
        err_prev = en

    return FlowResult(times, states, termination, converged_to, checkpoint_states)


def _nearest_zero(y: complex) -> ZeroRecord | None:
    try:
        record = classify_zero(y)
    except (DomainError, DegenerateZeroError, AccuracyError):
        return None
    return record if abs(record.location - y) < 0.1 else None


# ---------------------------------------------------------------------------
# Zero classification and census.
# ---------------------------------------------------------------------------

_CLASSIFY_SEED_TOL = 1e-4  # admits seeds quoted to ~4 decimals; Newton tightens them
_RESIDUAL_TOL = 1e-8
_DEGENERATE_TOL = 1e-10


def classify_zero(z0: complex, cfg: EvalConfig = DEFAULT_CONFIG) -> ZeroRecord:
    """Classify a zeta zero as sink/source from the sign of Re zeta'(z0).

    The seed must already satisfy |zeta(z0)| < 1e-4; it is tightened by up
    to two Newton steps before classification.  Zeros on the negative real
    axis within 1e-6 of an even integer are tagged trivial.
    """
    z = complex(z0)
    f = special.riemann_zeta(z, cfg)
    if abs(f) >= _CLASSIFY_SEED_TOL:
        raise DomainError(f"|zeta(z0)| = {abs(f):.3e} too large to classify")
    for _ in range(2):
        if abs(f) < 1e-12:
            break
        df = special.riemann_zeta_deriv(z, cfg)
        z = z - f / df
        f = special.riemann_zeta(z, cfg)
    d = special.riemann_zeta_deriv(z, cfg)
    residual = abs(f)
    if residual >= _RESIDUAL_TOL:
        raise AccuracyError("Newton refinement left a residual above 1e-8",
                            estimate=z, residual=residual)
    if abs(d.real) < _DEGENERATE_TOL:
        raise DegenerateZeroError(
            f"|Re zeta'| = {abs(d.real):.2e} at {z!r}: sink/source undecidable")
    trivial = abs(z.imag) < 1e-8 and abs(z.real / 2.0 - round(z.real / 2.0)) < 5e-7 \
        and round(-z.real / 2.0) >= 1
    if d.real < 0:
        kind = "trivial_sink" if trivial else "sink"
    else:
        kind = "trivial_source" if trivial else "source"
    return ZeroRecord(location=z, deriv_re=d.real, deriv_im=d.imag,
                      kind=kind, residual=residual)


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

    |zeta(1/2 + it)| is scanned on a grid of step 0.05; local minima below
    0.5 seed complex Newton iterations driven by the zeta derivative, the
    refined zeros are deduplicated (distance 1e-4), classified, and sorted
    by imaginary part.  Seeds whose Newton iteration fails are reported in
    ``skipped``.
    """
    if t_max < 0 or t_max > ZERO_SCAN_T_CAP:
        raise DomainError(f"t_max must lie in [0, {ZERO_SCAN_T_CAP:g}]")
    if t_max < _SCAN_STEP * 3:
        return ZeroScan([], [])
    # the scan runs two steps past t_max, so a zero just below t_max is
    # still an interior minimum; zeros above t_max are dropped below
    ts = np.arange(_SCAN_STEP, t_max + 3 * _SCAN_STEP, _SCAN_STEP)
    s = 0.5 + 1j * ts
    reg, _, _ = special.euler_maclaurin_split(s, 1.0, tol=1e-11)
    mag = np.abs(reg + 1.0 / (s - 1.0))
    interior = ((mag[1:-1] < mag[:-2]) & (mag[1:-1] < mag[2:])
                & (mag[1:-1] < _SEED_LEVEL))
    seeds = ts[1:-1][interior]

    records: list[ZeroRecord] = []
    skipped: list[SkippedSeed] = []
    for t_seed in seeds:
        z = 0.5 + 1j * float(t_seed)
        ok = False
        for _ in range(40):
            f = special.riemann_zeta(z, cfg)
            if abs(f) < 1e-10:
                ok = True
                break
            df = special.riemann_zeta_deriv(z, cfg)
            step = f / df
            if not (math.isfinite(step.real) and math.isfinite(step.imag)) \
                    or abs(step) > 2.0:
                break
            z = z - step
        if not ok:
            skipped.append(SkippedSeed(float(t_seed), "newton did not converge"))
            continue
        if any(abs(z - r.location) < 1e-4 for r in records):
            continue
        if not 0.0 < z.imag <= t_max:
            continue
        try:
            records.append(classify_zero(z, cfg))
        except (DegenerateZeroError, AccuracyError) as exc:
            skipped.append(SkippedSeed(float(t_seed), str(exc)))
    records.sort(key=lambda r: r.location.imag)
    return ZeroScan(records, skipped)


def count_zeros_box(re_lo: float, re_hi: float, im_lo: float, im_hi: float) -> int:
    """Argument-principle zero count for zeta on a rectangle.

    Integrates zeta'/zeta + 1/(s-1) (the log-derivative of (s-1) zeta, regular
    at the pole) around the box with trapezoid sums of Euler-Maclaurin values
    at tol 1e-11, doubling the sampling until the winding stabilizes on an
    integer.  The box must not contain s = 1, and its boundary must avoid
    zeros; nudge edges by ~1e-3.
    """
    if not (re_lo < re_hi and im_lo < im_hi):
        raise DomainError("degenerate box")
    if re_lo < 1.0 < re_hi and im_lo < 0.0 < im_hi:
        raise DomainError("box must exclude the pole s = 1")

    corners = [complex(re_lo, im_lo), complex(re_hi, im_lo),
               complex(re_hi, im_hi), complex(re_lo, im_hi),
               complex(re_lo, im_lo)]

    def winding(points_per_unit: float) -> complex:
        total = 0.0 + 0.0j
        for a, b in zip(corners[:-1], corners[1:]):
            n = max(96, int(abs(b - a) * points_per_unit))
            u = np.linspace(0.0, 1.0, n + 1)
            s = a + (b - a) * u
            reg, dreg, _ = special.euler_maclaurin_split(s, 1.0, tol=1e-11,
                                                         want_deriv=True)
            fs = reg + 1.0 / (s - 1.0)
            dfs = dreg - 1.0 / (s - 1.0) ** 2
            g = dfs / fs + 1.0 / (s - 1.0)
            total += np.trapezoid(g, s)
        return total / (2j * math.pi)

    prev = None
    ppu = 16.0
    for _ in range(8):
        w = winding(ppu)
        count = round(w.real)
        if (abs(w - count) < 0.05 and prev == count):
            return int(count)
        prev = count
        ppu *= 2.0
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
