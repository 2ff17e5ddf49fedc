"""Reaction-diffusion march for du/dt = Lap(u) + lambda L_m(u) on a torus.

The spatial domain is a periodic box (1-d or 2-d) handled spectrally, so the
heat semigroup is exact per step; time stepping is one-step exponential time
differencing (ETD-RK2) with phi-function Fourier multipliers and a power
series fallback near the zero eigenvalue.  The march monitors pole proximity
P(u) = |Re u - 1| + |Im u| (quench detection), field extrema, and sup |u|
(escape detection).

On top of the march sit the paper's theorem checks, one THEOREMS entry per
id (hypotheses on the datum, lambda, the nonlinearity and thm1.8's target
zero; a verdict on the run), the stability experiment around a stable zero,
and a short-time Picard (Duhamel fixed point) solver that cross-validates
the ETD march on [0, T_local].  Its contraction constants are closed-form
bounds except d1, a sampled sup (see SolverConstants), so they are not
certified.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass
from functools import lru_cache, partial

import numpy as np

from .errors import (ConfigurationError, CounterexampleError, DomainError,
                     ContractionError, NumericalFailureError, QuenchSignal)
from . import special
from .dirichlet import sigma1_root
from .ode import FlowConfig, ZeroRecord, _classify, pole_distance

ESCAPE_LIMIT = 1.0e6
_OVERSHOOT_JUMP = 1.0
_MAX_HALVINGS = 20
# About this many field snapshots are kept per run, for the artifacts (integrate_pde)
_SNAPSHOT_BUDGET = 200


def y_norm(values: np.ndarray) -> float:
    """max(sup |Re|, sup |Im|) over the grid."""
    values = np.asarray(values)
    return max(float(np.max(np.abs(values.real))),
               float(np.max(np.abs(values.imag))))


@dataclass
class GridField:
    """Complex field on a periodic grid; square in 2-d, period ``length``."""

    values: np.ndarray
    length: float = 2.0 * math.pi
    time: float = 0.0

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=complex)
        if self.values.ndim not in (1, 2):
            raise DomainError("only 1-d and 2-d grids are supported")
        for n in self.values.shape:
            if n < 16 or (n & (n - 1)) != 0:
                raise DomainError("grid size per axis must be a power of two >= 16")
        if self.values.ndim == 2 and self.values.shape[0] != self.values.shape[1]:
            raise DomainError("2-d grids must be square")
        if not self.length > 0:
            raise DomainError("length must be positive")
        if not np.isfinite(self.values).all():  # complex: both parts finite
            raise DomainError("field values must be finite")

    @property
    def dims(self) -> int:
        return self.values.ndim

    def copy(self) -> "GridField":
        return GridField(self.values.copy(), self.length, self.time)

    def mean(self) -> complex:
        return complex(np.mean(self.values))


def _laplacian_eigs(shape: tuple, length: float) -> np.ndarray:
    n = shape[0]
    k = 2.0 * math.pi * np.fft.fftfreq(n, d=length / n)
    if len(shape) == 1:
        return -(k ** 2)
    return -(k[:, None] ** 2 + k[None, :] ** 2)


def _by_axes(transform: Callable, values: np.ndarray) -> np.ndarray:
    """np.fft.fftn or ifftn, bitwise: the 1-d ``transform`` along each axis, the last first.

    That is fftn's own order, without its argument handling: about 30% of
    a 32-point transform.
    """
    for axis in range(values.ndim - 1, -1, -1):
        values = transform(values, axis=axis)
    return values


_fftn = partial(_by_axes, np.fft.fft)
_ifftn = partial(_by_axes, np.fft.ifft)


def heat_semigroup(field: GridField, t: float) -> GridField:
    """Apply exp(t Lap) spectrally; t = 0 is the identity, the mean is kept."""
    if t < 0:
        raise DomainError("the heat semigroup needs t >= 0")
    if t == 0:
        return field.copy()
    vhat = _fftn(field.values)
    vhat *= np.exp(_laplacian_eigs(field.values.shape, field.length) * t)
    return GridField(_ifftn(vhat), field.length, field.time)


# phi2(z) = (e^z - 1 - z)/z^2 = sum_{k>=0} z^k/(k+2)!, coefficients from the highest power down
_PHI2_COEFS = tuple(1.0 / math.factorial(k + 2) for k in range(special._F_SERIES_TERMS, -1, -1))


def _phi2(z: np.ndarray) -> np.ndarray:
    """phi2 by the rule of phi1 = special.expm1_over: the power series for |z| < 0.5."""
    return special._entire(z, _PHI2_COEFS, lambda v: (np.expm1(v) - v) / (v * v))


def _nonlinearity(cfg: FlowConfig, values: np.ndarray) -> np.ndarray:
    """lam L(values); QuenchSignal past the pole guard, NumericalFailureError where L is not finite."""
    handle = cfg.nonlinearity
    if handle.has_pole:
        p = pole_distance(values)
        min_p = float(p.min())
        if min_p < cfg.pole_guard_eps:
            idx = np.unravel_index(int(p.argmin()), p.shape)  # the first least P
            raise QuenchSignal(idx, complex(values[idx]), min_p)
    out = handle.eval_many(values)
    finite = np.isfinite(out)
    if not finite.all():
        idx = np.unravel_index(int(np.argmin(finite)), finite.shape)
        raise NumericalFailureError(f"L({complex(values[idx])!r}) = {complex(out[idx])!r} "
                                    f"is not finite at grid index {idx}")
    out *= cfg.lam  # in place, so that no second grid-sized array is held
    return out


@lru_cache(maxsize=32)
def _etd_multipliers(shape: tuple, length: float, dt: float):
    """Read-only e^{dt Lap}, dt phi1(dt Lap) and dt phi2(dt Lap) for one grid and step.

    A march reuses them every step, and the halved steps dt/2^k of _advance
    get entries of their own.
    """
    z = dt * _laplacian_eigs(shape, length)
    out = (np.exp(z), dt * special.expm1_over(z), dt * _phi2(z))
    for arr in out:
        arr.setflags(write=False)
    return out


def etd_step(field: GridField, dt: float, cfg: FlowConfig) -> GridField:
    """One ETD-RK2 step: exact diffusion, phi-weighted nonlinearity.

    a  = e^{dt Lap} u + dt phi1(dt Lap) N(u)
    u+ = a + dt phi2(dt Lap) (N(a) - N(u))

    Raises NumericalFailureError where N(u) or N(a) is not finite: short of
    an overflow, the one way a step from a finite field turns non-finite.
    """
    if dt <= 0:
        raise DomainError("dt must be positive")
    e, dt_phi1, dt_phi2 = _etd_multipliers(field.values.shape, field.length, dt)
    nu = _nonlinearity(cfg, field.values)
    # combined in place: the multipliers are real, so every product and sum
    # rounds as in the formulas above, and a 128x128 step allocates fewer
    # 256 kB arrays, which glibc trims and the next step faults back in
    ahat = _fftn(field.values)
    ahat *= e
    nuhat = _fftn(nu)
    nuhat *= dt_phi1
    ahat += nuhat
    a = _ifftn(ahat)
    na = _nonlinearity(cfg, a)
    na -= nu
    out_hat = _fftn(na)
    out_hat *= dt_phi2
    out_hat += ahat
    return GridField(_ifftn(out_hat), field.length, field.time + dt)


@dataclass
class QuenchInfo:
    """Where and when a march's pole guard tripped.

    ``time`` is the start of the macro step in which it tripped, the time
    of the last monitor row; the quench itself lies within that step.
    ``index``, ``value`` and ``min_p`` belong to the field or ETD stage
    whose P fell below cfg.pole_guard_eps, possibly inside a halved
    sub-step: its first grid index of least P, u there, and that P.
    """

    time: float
    index: tuple
    value: complex
    min_p: float


@dataclass
class MonitorSeries:
    """Per-step monitor samples, as parallel arrays."""

    time: np.ndarray
    min_p: np.ndarray
    re_min: np.ndarray
    re_max: np.ndarray
    im_min: np.ndarray
    im_max: np.ndarray
    sup_abs: np.ndarray
    sup_dist: np.ndarray | None = None  # only when a target point is tracked


@dataclass
class RunRecord:
    """Everything a PDE march produced: snapshots, monitors, termination."""

    termination: str                 # completed | quenched | escaped
    final: GridField
    snapshot_times: list[float]
    snapshots: list[np.ndarray]
    monitors: MonitorSeries
    quench: QuenchInfo | None
    error_estimate: float | None
    cfg: FlowConfig
    dt: float
    t_end: float
    length: float
    shadow_failure: str | None = None  # how a requested shadow run quenched or failed
    shadow: str | None = None  # the march that gave error_estimate: "coarse" (2 dt) or "fine" (dt/2)
    shadow_fallback: str | None = None  # why the fine shadow stood in for the coarse one


def _monitor_row(field: GridField, target: complex | None) -> tuple:
    """One field's MonitorSeries row: t, min P, Re and Im extrema, sup |u| [, sup |u - target|].

    The reductions are ndarray methods: the same reductions as np.min and
    np.max, without their dispatch.
    """
    v = field.values
    re, im = v.real, v.imag
    row = (field.time, float(pole_distance(v).min()), float(re.min()), float(re.max()),
           float(im.min()), float(im.max()), float(np.abs(v).max()))
    return row if target is None else row + (float(np.abs(v - target).max()),)


def _advance(field: GridField, dt: float, cfg: FlowConfig, min_p: float | None = None,
             depth: int = 0) -> GridField:
    """One macro step of size dt, halved locally on overshoot or a non-finite step.

    Near the pole the admissible jump shrinks with the pole distance, so the
    march cannot hop across s = 1 in a single step; the quench guard then
    trips during a resolved sub-step instead.  A step whose N(u) or N(a) is
    not finite (etd_step's NumericalFailureError) is halved as an overshoot
    is; after _MAX_HALVINGS halvings NumericalFailureError carries the time
    and the last finite field.

    ``min_p`` is inf P(field) where the caller has it (the march's last
    monitor row); otherwise it is computed here, where L has a pole.
    """
    if depth > _MAX_HALVINGS:
        raise NumericalFailureError(f"time step halving exhausted at t = {field.time!r}",
                                    last_time=field.time, last_state=field)
    limit = _OVERSHOOT_JUMP
    if cfg.nonlinearity.has_pole:
        if min_p is None:
            min_p = float(pole_distance(field.values).min())
        limit = min(limit, 0.5 * min_p)
    try:
        nxt = etd_step(field, dt, cfg)
    except NumericalFailureError:
        pass
    else:
        if float(np.abs(nxt.values - field.values).max()) <= limit:
            return nxt
    half = _advance(field, dt / 2.0, cfg, min_p, depth + 1)
    return _advance(half, dt / 2.0, cfg, None, depth + 1)


def _shadow_march(g: GridField, dt: float, n_steps: int, cfg: FlowConfig, depth: int = 0,
                  failed: str = "failed numerically") -> tuple:
    """(field, None) after n_steps macro steps of g at dt, or (None, how it quenched or failed).

    ``depth`` is _advance's: from _MAX_HALVINGS a step that would be halved
    raises NumericalFailureError at once, which ``failed`` then names.
    """
    shadow = g.copy()
    try:
        for _ in range(n_steps):
            shadow = _advance(shadow, dt, cfg, None, depth)
    except QuenchSignal:
        return None, f"quenched at t = {shadow.time:.6g}"
    except NumericalFailureError as exc:
        return None, f"{failed} at t = {exc.last_time:.6g}"
    return shadow, None


def integrate_pde(g: GridField, cfg: FlowConfig,
                  track_target: complex | None = None,
                  estimate_error: bool = False) -> RunRecord:
    """March the field to cfg.t_end with fixed step cfg.dt_init.

    Early terminations: 'quenched' when the pole guard trips (min P below
    cfg.pole_guard_eps), 'escaped' when sup |u| exceeds 1e6.  Monitors are
    sampled every step and feed the theorem checks; about _SNAPSHOT_BUDGET
    field snapshots are kept for run.json, fields.csv and the tests only.
    With ``estimate_error`` a shadow run of the datum to the same horizon
    supplies a self-convergence error estimate (only for completed runs).
    Where n_steps is even, the shadow takes n_steps / 2 steps of 2 dt, and
    ETD-RK2 being second order, |u_2dt - u_dt| / 3 reads u_dt's error (a
    run without a step reads 0).  Where n_steps is odd, or where a coarse
    step would be halved (an overshoot or a non-finite stage) or the coarse
    shadow quenches, the shadow takes 2 n_steps steps of dt / 2 and
    |u_dt/2 - u_dt| reads about 3/4 of the error.  ``shadow`` names the
    march that gave the estimate, ``shadow_fallback`` why the fine one
    stood in.  A fine shadow that quenches or fails numerically leaves the
    estimate None, the run standing and the reason in ``shadow_failure``.
    A step of the run itself that stays non-finite through every halving
    raises NumericalFailureError (see _advance).

    Each accepted field's P is taken once, in its monitor row, and that
    row's min P sets the overshoot limit of the next step.
    """
    field = g.copy()
    rows = [_monitor_row(field, track_target)]
    if cfg.nonlinearity.has_pole and rows[0][1] <= cfg.pole_guard_eps:
        raise DomainError("initial datum violates the pole guard")

    # a run to t_end = 0 takes no step: it holds the datum
    n_steps = max(1, round(cfg.t_end / cfg.dt_init)) if cfg.t_end else 0
    dt = cfg.t_end / max(n_steps, 1)
    snap_every = max(1, n_steps // _SNAPSHOT_BUDGET)

    snapshot_times, snapshots = [field.time], [field.values.copy()]
    termination = "completed"
    quench = None
    for step in range(1, n_steps + 1):
        try:
            field = _advance(field, dt, cfg, rows[-1][1])
        except QuenchSignal as sig:
            termination = "quenched"
            quench = QuenchInfo(time=field.time, index=sig.index,
                                value=sig.value, min_p=sig.min_p)
            break
        field.time = step * dt  # exact grid times, no accumulation drift
        rows.append(_monitor_row(field, track_target))
        if rows[-1][6] > ESCAPE_LIMIT:  # sup |u|
            termination = "escaped"
            break
        if step % snap_every == 0:
            snapshot_times.append(field.time)
            snapshots.append(field.values.copy())
    if snapshot_times[-1] != field.time:  # the final field of every run
        snapshot_times.append(field.time)
        snapshots.append(field.values.copy())

    err_est = shadow_kind = fallback = shadow_failure = None
    if estimate_error and termination == "completed":
        if n_steps % 2:
            fallback = "odd n"
        else:
            coarse, why = _shadow_march(g, 2.0 * dt, n_steps // 2, cfg, _MAX_HALVINGS,
                                        "would halve a step")
            if coarse is None:
                fallback = f"the coarse shadow {why}"
            else:
                err_est = float(np.max(np.abs(coarse.values - field.values))) / 3.0
                shadow_kind = "coarse"
        if fallback is not None:
            fine, shadow_failure = _shadow_march(g, dt / 2.0, 2 * n_steps, cfg)
            if fine is not None:
                err_est = float(np.max(np.abs(fine.values - field.values)))
                shadow_kind = "fine"

    return RunRecord(termination=termination, final=field,
                     snapshot_times=snapshot_times, snapshots=snapshots,
                     monitors=MonitorSeries(*map(np.array, zip(*rows))),
                     quench=quench, error_estimate=err_est, cfg=cfg,
                     dt=dt, t_end=cfg.t_end, length=g.length, shadow_failure=shadow_failure,
                     shadow=shadow_kind, shadow_fallback=fallback)


# ---------------------------------------------------------------------------
# The theorem checks: one table of hypotheses and verdicts.
# ---------------------------------------------------------------------------

_REAL_DATUM_TOL = 1e-12
_FINAL_TOL = 1e-3  # thm1.7iii: slack of the final bounds -4 n1 + 2 <= u <= -4 n2 + 2
_CONVERGED_TOL = 1e-6  # thm1.8: the final sup |u - z0| must lie below this


@dataclass(frozen=True)
class EnvelopeSpec:
    """Extrema of the initial datum and the derived cell/lattice indices.

    i1/s1 and i2/s2 are the real/imaginary extrema.  For real data, i/s are
    set, k1/k2 give the even-lattice barrier -2k1 <= u <= -2k2 (k2 None when
    the upper barrier is s itself), and n1/n2 the 4-cells containing i and s
    (None when i or s falls outside any admissible open cell).
    """

    i1: float
    s1: float
    i2: float
    s2: float
    i: float | None = None
    s: float | None = None
    k1: int | None = None
    k2: int | None = None
    n1: int | None = None
    n2: int | None = None

    def __post_init__(self):
        if self.i1 > self.s1 or self.i2 > self.s2:
            raise ConfigurationError("extrema must satisfy inf <= sup")

    @property
    def real_case(self) -> bool:
        return self.i is not None

    @classmethod
    def from_field(cls, g: GridField) -> "EnvelopeSpec":
        v = g.values
        i1, s1 = float(np.min(v.real)), float(np.max(v.real))
        i2, s2 = float(np.min(v.imag)), float(np.max(v.imag))
        if max(abs(i2), abs(s2)) >= _REAL_DATUM_TOL:
            return cls(i1, s1, i2, s2)
        i, s = i1, s1
        k1 = k2 = n1 = n2 = None
        if i < 1.0:
            k1 = max(1, math.ceil(-i / 2.0))
            if s <= -2.0:
                k2 = math.floor(-s / 2.0)
            n1 = _cell_index(i)
            n2 = _cell_index(s)
        return cls(i1, s1, i2, s2, i=i, s=s, k1=k1, k2=k2, n1=n1, n2=n2)


def _cell_index(x: float) -> int | None:
    """The positive n with x in the open cell (-4n, -4n+4), if any."""
    n = math.ceil(-x / 4.0)
    return n if n >= 1 and -4.0 * n < x < -4.0 * n + 4.0 else None


@dataclass
class EnvelopeReport:
    theorem: str
    passed: bool
    worst_margin: float
    slack: float
    bounds: dict


@dataclass(frozen=True)
class TheoremCheck:
    """One entry of THEOREMS: ``hypotheses``, (statement, holds(spec, cfg, target))
    pairs tested in order; ``verdict(run, spec, theorem)``, the summary's check
    block with ``passed`` and a one-line ``detail``; and for an envelope check
    ``margins(spec, zeta_at, mon)``, each bound's signed margin on every row of
    the MonitorSeries ``mon`` (thm1.7iii: its last): a row's extremum minus a
    function of t, bitwise the grid minimum of the difference, as rounding is monotone."""

    hypotheses: tuple
    verdict: Callable
    estimate_error: bool = False  # the verdict reads the self-convergence estimate
    margins: Callable | None = None


def _growth_margins(spec: EnvelopeSpec, zeta_at, mon: MonitorSeries,
                    im_positive: bool = False) -> dict:
    """thm1.5 and cor1.6: Re u and Im u between lines in t whose slopes are set by zeta(I1)."""
    z1, t = zeta_at(spec.i1), mon.time
    margins = {"re_lower": mon.re_min - (max(0.0, 2.0 - z1) * t + spec.i1),
               "re_upper": (z1 * t + spec.s1) - mon.re_max}
    if im_positive:
        margins["im_positive"] = mon.im_min
    else:
        margins["im_lower"] = mon.im_min - ((1.0 - z1) * t + spec.i2)
    margins["im_upper"] = ((z1 - 1.0) * t + spec.s2) - mon.im_max
    return margins


def _real_growth_margins(spec: EnvelopeSpec, zeta_at, mon: MonitorSeries) -> dict:
    """thm1.7i: I + t <= u <= S + zeta(I) t, and u stays real."""
    return {"lower": mon.re_min - (mon.time + spec.i),
            "upper": (zeta_at(spec.i) * mon.time + spec.s) - mon.re_max,
            "imag_confined": 0.0 - np.maximum(np.abs(mon.im_min), np.abs(mon.im_max))}


def _lattice_margins(spec: EnvelopeSpec, zeta_at, mon: MonitorSeries) -> dict:
    """thm1.7ii: -2 k1 <= u <= -2 k2 (or S)."""
    upper = -2.0 * spec.k2 if spec.k2 is not None else spec.s
    return {"lower": mon.re_min - (-2.0 * spec.k1), "upper": upper - mon.re_max}


def _limit_margins(spec: EnvelopeSpec, zeta_at, mon: MonitorSeries) -> dict:
    """thm1.7iii: -4 n1 + 2 <= u <= -4 n2 + 2 at the final time, within _FINAL_TOL."""
    lo, hi = -4.0 * spec.n1 + 2.0, -4.0 * spec.n2 + 2.0
    return {"final_lower": mon.re_min[-1] - lo + _FINAL_TOL,
            "final_upper": hi + _FINAL_TOL - mon.re_max[-1]}


def _envelope_verdict(run: RunRecord, spec: EnvelopeSpec, theorem: str) -> dict:
    report = envelope_check(run, spec, theorem)
    return {"passed": bool(report.passed), "worst_margin": report.worst_margin,
            "slack": report.slack, "bounds": report.bounds,
            "error_estimate": run.error_estimate, "shadow": run.shadow,
            "shadow_fallback": run.shadow_fallback,
            "detail": f"worst margin {report.worst_margin:.3g}"}


def _stability_verdict(run: RunRecord, spec: EnvelopeSpec, theorem: str) -> dict:
    final = float(run.monitors.sup_dist[-1])
    return {"passed": final < _CONVERGED_TOL, "sup_dist_final": final,
            "detail": f"final sup distance {final:.3g}"}


def _blowup_expected(spec: EnvelopeSpec) -> str | None:
    """thm1.9's termination: a quench for I > 1 or -2 < I <= S < 1, a global run for S < -2."""
    if spec.i > 1.0 or (-2.0 < spec.i and spec.s < 1.0):
        return "quenched"
    return "completed" if spec.s < -2.0 else None


def _blowup_verdict(run: RunRecord, spec: EnvelopeSpec, theorem: str) -> dict:
    expected = _blowup_expected(spec)
    out = {"passed": run.termination == expected,
           "detail": f"termination {run.termination} "
                     f"({'quench' if expected == 'quenched' else 'global run'} expected)"}
    if run.quench is not None:
        out["quench_time"] = run.quench.time
    return out


_DEFOCUSING = ("lambda = +1", lambda spec, cfg, target: cfg.lam == 1)
_FOCUSING = ("lambda = -1", lambda spec, cfg, target: cfg.lam == -1)
_ZETA = ("the zeta nonlinearity", lambda spec, cfg, target: cfg.nonlinearity.period == 1)
_REAL_CHARACTER = ("a real character", lambda spec, cfg, target: cfg.nonlinearity.character.is_real)
_REAL = ("real-valued data", lambda spec, cfg, target: spec.real_case)
# sigma_1 ~ 1.7286 > sigma0 ~ 1.19235: sufficient and stricter; a window scan of
# sigma0 gives a lower estimate of the abscissa, so it cannot stand in for it
_RIGHT_OF_POLE = ("I1 > max(1, sigma_1), where zeta(sigma_1) = 2", lambda spec, cfg, target:
                  spec.i1 > max(1.0, sigma1_root(cfg.nonlinearity.eval_cfg)))
_I2_POSITIVE = ("I2 > 0", lambda spec, cfg, target: spec.i2 > 0)
_I_ABOVE_1 = ("I > 1", lambda spec, cfg, target: spec.i > 1.0)
_I_BELOW_1 = ("I < 1", lambda spec, cfg, target: spec.i < 1.0)
_IN_CELLS = ("I and S each strictly inside a cell (-4n, -4n+4)",
             lambda spec, cfg, target: spec.n1 is not None and spec.n2 is not None)
_BLOWUP_CASE = ("I > 1, or -2 < I <= S < 1, or S < -2",
                lambda spec, cfg, target: _blowup_expected(spec) is not None)
# target is a ZeroRecord, or a disc center the census Newton classifies
# (DomainError, naming the point, where L is not small there)
_STABLE_ZERO = ("a disc datum around a zero z0 of L with lambda Re L'(z0) < 0",
                lambda spec, cfg, target: target is not None and cfg.lam * (
                    target if isinstance(target, ZeroRecord)
                    else _classify(cfg.nonlinearity, target)).deriv_re < 0)

# Every check id, in the order the CLI lists them
THEOREMS = {
    "thm1.5": TheoremCheck((_DEFOCUSING, _RIGHT_OF_POLE), _envelope_verdict, True, _growth_margins),
    "cor1.6": TheoremCheck((_DEFOCUSING, _REAL_CHARACTER, _RIGHT_OF_POLE, _I2_POSITIVE),
                           _envelope_verdict, True, partial(_growth_margins, im_positive=True)),
    "thm1.7i": TheoremCheck((_DEFOCUSING, _ZETA, _REAL, _I_ABOVE_1),
                            _envelope_verdict, True, _real_growth_margins),
    "thm1.7ii": TheoremCheck((_DEFOCUSING, _ZETA, _REAL, _I_BELOW_1),
                             _envelope_verdict, True, _lattice_margins),
    "thm1.7iii": TheoremCheck((_DEFOCUSING, _ZETA, _REAL, _I_BELOW_1, _IN_CELLS),
                              _envelope_verdict, True, _limit_margins),
    "thm1.8": TheoremCheck((_STABLE_ZERO,), _stability_verdict),
    "thm1.9": TheoremCheck((_FOCUSING, _ZETA, _REAL, _BLOWUP_CASE), _blowup_verdict),
}
THEOREM_IDS = tuple(THEOREMS)


def validate_envelope_hypotheses(spec: EnvelopeSpec, theorem: str, cfg: FlowConfig,
                                 target=None) -> TheoremCheck:
    """Raise ConfigurationError unless ``theorem``'s hypotheses hold; return its entry.

    They read the datum's extrema ``spec``, the run's ``cfg`` (lam, the
    nonlinearity and its EvalConfig) and, for thm1.8, ``target``.
    """
    if theorem not in THEOREMS:
        raise ConfigurationError(f"unknown check id {theorem!r}; expected one of {THEOREM_IDS}")
    for statement, holds in THEOREMS[theorem].hypotheses:
        try:
            met = holds(spec, cfg, target)
        except DomainError as exc:  # thm1.8's Newton, where L(target) is not small
            met, statement = False, f"{statement} ({exc})"
        if not met:
            raise ConfigurationError(
                f"{theorem} needs {statement}; the run has lambda = {cfg.lam:+d}, period "
                f"m = {cfg.nonlinearity.period}, Re u in [{spec.i1:.6g}, {spec.s1:.6g}] "
                f"and Im u in [{spec.i2:.6g}, {spec.s2:.6g}]")
    return THEOREMS[theorem]


def envelope_check(run: RunRecord, spec: EnvelopeSpec, theorem: str) -> EnvelopeReport:
    """Verify the affine-in-t (or constant) bounds on every step's monitor row.

    The hypotheses are those of validate_envelope_hypotheses under the run's
    FlowConfig, and the zeta values of the bounds are evaluated at its
    EvalConfig.  Margins are signed distances to the bounds, each bound's the
    worst over the rows of run.monitors after the first, the datum, where
    the run has any (thm1.7iii bounds the last row only): ``spec`` holds the
    datum's extrema, so the datum meets most bounds with equality, and a
    margin of 0 there would hide every later one.  The check passes when the
    worst margin stays above -(slack), with slack = 1e-6 + 7 e for the
    coarse shadow's self-convergence estimate e (integrate_pde), which reads
    about the run's error, and 1e-6 + 10 e for the fine shadow's, which
    reads about 3/4 of it: both about 7 to 7.5 times the error.
    """
    check = validate_envelope_hypotheses(spec, theorem, run.cfg)
    if check.margins is None:
        raise ConfigurationError(f"{theorem} is not an envelope check")
    slack = 1e-6 + (7.0 if run.shadow == "coarse" else 10.0) * (run.error_estimate or 0.0)
    eval_cfg = run.cfg.nonlinearity.eval_cfg
    margins = check.margins(spec, lambda x: special.riemann_zeta(complex(x), eval_cfg).real,
                            run.monitors)
    after = slice(1, None) if run.monitors.time.size > 1 else slice(None)
    bounds = {name: float(np.min(margin[after] if np.ndim(margin) else margin))
              for name, margin in margins.items()}
    worst = min(bounds.values())
    return EnvelopeReport(theorem=theorem, passed=bool(worst >= -slack),
                          worst_margin=worst, slack=slack, bounds=bounds)


# ---------------------------------------------------------------------------
# Random datum builders.
# ---------------------------------------------------------------------------

def constant_field(value: complex, shape=(64,), length: float = 2.0 * math.pi) -> GridField:
    return GridField(np.full(shape, complex(value)), length)


def fourier_field(mean: complex, modes, shape=(64,),
                  length: float = 2.0 * math.pi) -> GridField:
    """mean + sum of complex plane waves; ``modes`` is [(k, amplitude), ...].

    In 1-d ``k`` is an integer; in 2-d a pair.  Each contributes
    amplitude * exp(2 pi i k x / L).
    """
    axes = [np.arange(n) * (length / n) for n in shape]
    vals = np.full(shape, complex(mean))
    for k, amp in modes:
        if len(shape) == 1:
            vals = vals + complex(amp) * np.exp(2j * math.pi * k * axes[0] / length)
        else:
            kx, ky = k
            phase = (kx * axes[0][:, None] + ky * axes[1][None, :]) / length
            vals = vals + complex(amp) * np.exp(2j * math.pi * phase)
    return GridField(vals, length)


# Fourier modes k = 1.._RANDOM_MODES of the random data, and the range of the
# disc datum's perturbation as a fraction of the disc radius
_RANDOM_MODES = 3
_DISC_AMP_RANGE = (0.15, 0.45)


def _random_zero_mean(rng, shape, length, complex_parts: bool):
    axes = [np.arange(n) * (length / n) for n in shape]
    w = np.zeros(shape, dtype=complex)
    for k in range(1, _RANDOM_MODES + 1):
        if len(shape) == 1:
            theta = 2.0 * math.pi * k * axes[0] / length
            w = w + rng.uniform(-1, 1) * np.cos(theta + rng.uniform(0, 2 * math.pi))
            if complex_parts:
                w = w + 1j * rng.uniform(-1, 1) * np.cos(theta + rng.uniform(0, 2 * math.pi))
        else:
            tx = 2.0 * math.pi * k * axes[0][:, None] / length
            ty = 2.0 * math.pi * k * axes[1][None, :] / length
            w = w + (rng.uniform(-1, 1) * np.cos(tx + rng.uniform(0, 2 * math.pi))
                     + rng.uniform(-1, 1) * np.cos(ty + rng.uniform(0, 2 * math.pi)))
            if complex_parts:
                w = w + 1j * (rng.uniform(-1, 1) * np.cos(tx + rng.uniform(0, 2 * math.pi)))
    return w


def disc_random_field(center: complex, delta: float, seed: int, shape=(32,),
                      length: float = 2.0 * math.pi) -> GridField:
    """Random smooth zero-mean perturbation of ``center`` inside D(center, delta).

    The perturbation is scaled to a random fraction of delta in
    _DISC_AMP_RANGE (at most 0.45 delta), so the datum is strictly inside the
    disc and its spatial mean sits at the disc center.
    """
    if delta <= 0:
        raise DomainError("delta must be positive")
    rng = np.random.default_rng(seed)
    w = _random_zero_mean(rng, shape, length, complex_parts=True)
    sup = float(np.max(np.abs(w)))
    if sup == 0.0:
        w = np.zeros(shape, dtype=complex)
    else:
        w = w * (rng.uniform(*_DISC_AMP_RANGE) * delta / sup)
    return GridField(complex(center) + w, length)


def smooth_real_field(vmin: float, vmax: float, seed: int, shape=(64,),
                      length: float = 2.0 * math.pi) -> GridField:
    """Random smooth real field with range exactly [vmin, vmax]."""
    if not vmin < vmax:
        raise DomainError("need vmin < vmax")
    rng = np.random.default_rng(seed)
    w = _random_zero_mean(rng, shape, length, complex_parts=False).real
    lo, hi = float(np.min(w)), float(np.max(w))
    if hi - lo < 1e-12:
        w = np.cos(2.0 * math.pi * np.arange(shape[0]) / shape[0])
        lo, hi = -1.0, 1.0
    scaled = (w - lo) / (hi - lo)          # range [0, 1] attained
    return GridField((vmin + (vmax - vmin) * scaled).astype(complex), length)


# ---------------------------------------------------------------------------
# Stability experiment around a sink.
# ---------------------------------------------------------------------------

@dataclass
class StabilityReport:
    target: complex
    delta: float
    converged: bool
    convergence_time: float | None
    monotone_after_transient: bool
    shrinking_disc_ok: bool
    sup_initial: float
    sup_final: float
    run: RunRecord


_STABILITY_TRANSIENT = 1.0


def stability_experiment(z0: ZeroRecord, delta: float, datum: GridField,
                         cfg: FlowConfig) -> StabilityReport:
    """Integrate disc data around a stable zero and audit the contraction.

    thm1.8's hypotheses (else DomainError) and verdict (``converged``) come
    from THEOREMS.  Verifies that sup |u - z0| is non-increasing after an
    initial transient and stays inside the shrinking disc radius
    delta exp(-t delta^2 / 2); escape from D(z0, 2 delta) raises
    CounterexampleError (a discrete-level contradiction that flags step-size
    or tolerance review).
    """
    spec = EnvelopeSpec.from_field(datum)
    try:
        check = validate_envelope_hypotheses(spec, "thm1.8", cfg, z0)
    except ConfigurationError as exc:
        raise DomainError(f"stability experiment: {exc}") from exc
    if delta <= 0:
        raise DomainError("delta must be positive")
    target = z0.location
    sup0 = float(np.max(np.abs(datum.values - target)))
    if sup0 >= delta:
        raise ConfigurationError("datum values must lie inside D(z0, delta)")
    run = integrate_pde(datum, cfg, track_target=target)
    dist = run.monitors.sup_dist
    tgrid = run.monitors.time

    if float(np.max(dist)) > 2.0 * delta:
        raise CounterexampleError(
            "trajectory escaped D(z0, 2 delta); review dt/tolerances",
            report=run)

    converged = check.verdict(run, spec, "thm1.8")["passed"]
    below = np.flatnonzero(dist < _CONVERGED_TOL)
    conv_time = float(tgrid[below[0]]) if converged else None

    after = tgrid >= _STABILITY_TRANSIENT
    d_after = dist[after]
    monotone = bool(np.all(np.diff(d_after) <= 1e-12 + 1e-6 * d_after[:-1])) \
        if d_after.size > 1 else True

    radius = delta * np.exp(-tgrid * delta * delta / 2.0)
    disc_ok = bool(np.all(dist <= radius + 1e-6))

    return StabilityReport(target=target, delta=delta, converged=converged,
                           convergence_time=conv_time,
                           monotone_after_transient=monotone,
                           shrinking_disc_ok=disc_ok,
                           sup_initial=sup0, sup_final=float(dist[-1]), run=run)


# ---------------------------------------------------------------------------
# Local-existence constants and the Picard (Duhamel) solver.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SolverConstants:
    """Constants for the short-time fixed-point solve; not certified.

    z1/z2 bound the Hurwitz composition and its Lipschitz constant on the
    box [-beta, beta]^2 with pole margin eps; m1/m2 are their L-function
    counterparts at period m; t_local = min(1/(2 m2), beta/(2 m1),
    eps/(4 m1)) makes the Duhamel map contract with factor <= 1/2 where
    they are bounds.  h1, h2 and d2 are the paper's closed forms, but d1
    is special.d_sup_bound, 1.1 x the sup of |d| sampled on a 101^2 grid,
    which is not proven to bound it; so z1, m1 and t_local are not proven
    either.
    """

    beta: float
    eps: float
    m: int
    h1: float
    h2: float
    d1: float
    d2: float
    z1: float
    z2: float
    m1: float
    m2: float
    t_local: float


def local_constants(beta: float, eps: float, m: int) -> SolverConstants:
    if beta <= 0 or eps <= 0:
        raise DomainError("beta and eps must be positive")
    if m < 1:
        raise DomainError("m must be a positive integer")
    alpha = 1.0 / m
    bc = special.bound_constants(alpha, beta)
    d1 = special.d_sup_bound(alpha, beta)
    z1 = 1.0 / eps + bc.h1 + d1
    z2 = 1.0 / (eps * eps) + math.sqrt(2.0) * bc.h2 + math.sqrt(2.0) * bc.d2
    m1 = m ** (beta + 1.0) * z1
    m2 = (m ** (beta + 1.0) + m ** (beta + 2.0)) * z2
    t_local = min(1.0 / (2.0 * m2), beta / (2.0 * m1), eps / (4.0 * m1))
    return SolverConstants(beta=beta, eps=eps, m=m, h1=bc.h1, h2=bc.h2,
                           d1=d1, d2=bc.d2, z1=z1, z2=z2, m1=m1, m2=m2,
                           t_local=t_local)


def constants_for_datum(g: GridField, m: int) -> SolverConstants:
    """Constants at beta = 2 ||g||_Y and eps = inf P(g) / 3."""
    beta = 2.0 * y_norm(g.values)
    eps = float(np.min(pole_distance(g.values))) / 3.0
    return local_constants(beta, eps, m)


@dataclass
class PicardResult:
    final: GridField
    t_local: float
    distances: list[float]
    ratios: list[float]


def _barycentric_matrix(sources: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """Row-stochastic polynomial interpolation matrix (targets x sources)."""
    x = sources / max(sources[-1], 1e-300)  # scale to [0, 1] for conditioning
    t = targets / max(sources[-1], 1e-300)
    w = np.ones_like(x)
    for i in range(len(x)):
        diff = x[i] - np.delete(x, i)
        w[i] = 1.0 / np.prod(diff)
    mat = np.zeros((len(t), len(x)))
    for j, tj in enumerate(t):
        hits = np.where(np.abs(tj - x) < 1e-15)[0]
        if hits.size:
            mat[j, hits[0]] = 1.0
            continue
        terms = w / (tj - x)
        mat[j] = terms / terms.sum()
    return mat


def picard_local_solve(g: GridField, consts: SolverConstants, n_iter: int,
                       cfg: FlowConfig) -> PicardResult:
    """Iterate the Duhamel map u -> e^{t Lap} g + int_0^t e^{(t-s) Lap} lam L(u) ds
    on [0, t_local], with the time integral on 32 Gauss nodes.

    Successive iterates are compared in the sup-over-time Y-norm; observed
    contraction ratios above 1 raise ContractionError.  Iterates live on the
    Gauss nodes plus the endpoints, interpolated barycentrically where the
    nested quadrature needs values between nodes.
    """
    if 2.0 * y_norm(g.values) > consts.beta + 1e-12:
        raise ConfigurationError("datum violates 2 ||g||_Y <= beta")
    if float(np.min(pole_distance(g.values))) < 3.0 * consts.eps - 1e-12:
        raise ConfigurationError("datum violates inf P(g) >= 3 eps")
    if n_iter < 1:
        raise DomainError("n_iter must be >= 1")

    T = consts.t_local
    xg, wg = np.polynomial.legendre.leggauss(32)
    eigs = _laplacian_eigs(g.values.shape, g.length)
    ghat = _fftn(g.values)

    # representation nodes: 0, the 32 Gauss points of [0, T], and T
    nodes = np.concatenate([[0.0], T * (xg + 1.0) / 2.0, [T]])
    n_nodes = nodes.size

    def nonlin_hat(values: np.ndarray) -> np.ndarray:
        return _fftn(cfg.lam * cfg.nonlinearity.eval_many(values))

    # per-target quadrature: nodes tau_ij = t_i (x+1)/2, weights t_i w / 2
    interp = []
    quad_w = []
    prop = []
    for t_i in nodes:
        tau = t_i * (xg + 1.0) / 2.0
        interp.append(_barycentric_matrix(nodes, tau))
        quad_w.append(t_i * wg / 2.0)
        prop.append(np.stack([np.exp((t_i - tj) * eigs) for tj in tau]))
    semi_g = [np.exp(t_i * eigs) * ghat for t_i in nodes]

    current = [heat_semigroup(g, t_i).values for t_i in nodes]
    distances: list[float] = []
    ratios: list[float] = []
    floor = 1e-14 * max(1.0, y_norm(g.values))
    for _ in range(n_iter):
        nhat = np.stack([nonlin_hat(v) for v in current])
        flat_nhat = nhat.reshape(n_nodes, -1)
        new = []
        for i, t_i in enumerate(nodes):
            tau_hat = (interp[i] @ flat_nhat).reshape((32,) + g.values.shape)
            integral = np.tensordot(quad_w[i], prop[i] * tau_hat, axes=(0, 0))
            new.append(_ifftn(semi_g[i] + integral))
        dist = max(y_norm(a - b) for a, b in zip(new, current))
        if distances and distances[-1] > floor:
            ratio = dist / distances[-1]
            ratios.append(ratio)
            if ratio > 1.0:
                raise ContractionError(
                    f"Picard iteration expanded by factor {ratio:.3f}")
        distances.append(dist)
        current = new
        if dist < floor:
            break
    final = GridField(current[-1], g.length, T)
    return PicardResult(final=final, t_local=T, distances=distances, ratios=ratios)
