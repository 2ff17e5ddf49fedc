"""Reaction-diffusion march for du/dt = Lap(u) + lambda L_m(u) on a torus.

The spatial domain is a periodic box (1-d or 2-d) handled spectrally, so the
heat semigroup is exact per step; time stepping is one-step exponential time
differencing (ETD-RK2) with phi-function Fourier multipliers and a power
series fallback near the zero eigenvalue.  The march monitors pole proximity
P(u) = |Re u - 1| + |Im u| (quench detection), field extrema, and sup |u|
(escape detection).

On top of the march sit the theorem-shaped checks: affine-in-t envelope
verification for the global-existence bounds, the shrinking-disc stability
experiment around a sink, and a short-time Picard (Duhamel fixed point)
solver with certified contraction constants, used to cross-validate the ETD
integrator on [0, T_local].
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import (ConfigurationError, CounterexampleError, DomainError,
                     ContractionError, NumericalFailureError, QuenchSignal)
from . import special
from .dirichlet import sigma1_root
from .ode import FlowConfig, ZeroRecord, pole_distance

ESCAPE_LIMIT = 1.0e6
_PHI_SERIES_CUT = 1e-4
_OVERSHOOT_JUMP = 1.0
_MAX_HALVINGS = 20
# About this many field snapshots are kept per run (integrate_pde)
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
        if not np.all(np.isfinite(self.values.real)) or not np.all(np.isfinite(self.values.imag)):
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


def heat_semigroup(field: GridField, t: float) -> GridField:
    """Apply exp(t Lap) spectrally; t = 0 is the identity, the mean is kept."""
    if t < 0:
        raise DomainError("the heat semigroup needs t >= 0")
    if t == 0:
        return field.copy()
    vhat = np.fft.fftn(field.values)
    vhat *= np.exp(_laplacian_eigs(field.values.shape, field.length) * t)
    return GridField(np.fft.ifftn(vhat), field.length, field.time)


def _phi1(z: np.ndarray) -> np.ndarray:
    small = np.abs(z) < _PHI_SERIES_CUT
    zs = np.where(small, 1.0, z)
    out = (np.expm1(zs)) / zs
    series = 1.0 + z / 2.0 + z * z / 6.0 + z ** 3 / 24.0
    return np.where(small, series, out)


def _phi2(z: np.ndarray) -> np.ndarray:
    small = np.abs(z) < _PHI_SERIES_CUT
    zs = np.where(small, 1.0, z)
    out = (np.expm1(zs) - zs) / (zs * zs)
    series = 0.5 + z / 6.0 + z * z / 24.0 + z ** 3 / 120.0
    return np.where(small, series, out)


def _nonlinearity(cfg: FlowConfig, values: np.ndarray) -> np.ndarray:
    handle = cfg.nonlinearity
    if handle.has_pole:
        p = pole_distance(values)
        idx = np.unravel_index(int(np.argmin(p)), p.shape)
        min_p = float(p[idx])
        if min_p < cfg.pole_guard_eps:
            raise QuenchSignal(idx, complex(values[idx]), min_p)
    return cfg.lam * handle.eval_many(values)


@lru_cache(maxsize=32)
def _etd_multipliers(shape: tuple, length: float, dt: float):
    """Read-only e^{dt Lap}, dt phi1(dt Lap) and dt phi2(dt Lap) for one grid and step.

    A march reuses them every step, and the halved steps dt/2^k of _advance
    get entries of their own.
    """
    z = dt * _laplacian_eigs(shape, length)
    out = (np.exp(z), dt * _phi1(z), dt * _phi2(z))
    for arr in out:
        arr.setflags(write=False)
    return out


def etd_step(field: GridField, dt: float, cfg: FlowConfig) -> GridField:
    """One ETD-RK2 step: exact diffusion, phi-weighted nonlinearity.

    a  = e^{dt Lap} u + dt phi1(dt Lap) N(u)
    u+ = a + dt phi2(dt Lap) (N(a) - N(u))
    """
    if dt <= 0:
        raise DomainError("dt must be positive")
    e, dt_phi1, dt_phi2 = _etd_multipliers(field.values.shape, field.length, dt)
    nu = _nonlinearity(cfg, field.values)
    uhat = np.fft.fftn(field.values)
    ahat = e * uhat + dt_phi1 * np.fft.fftn(nu)
    a = np.fft.ifftn(ahat)
    na = _nonlinearity(cfg, a)
    out_hat = ahat + dt_phi2 * np.fft.fftn(na - nu)
    return GridField(np.fft.ifftn(out_hat), field.length, field.time + dt)


@dataclass
class QuenchInfo:
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
    lam: int
    dt: float
    t_end: float
    length: float


def _advance(field: GridField, dt: float, cfg: FlowConfig, depth: int = 0) -> GridField:
    """One macro step of size dt, halved locally on overshoot or non-finite output.

    Near the pole the admissible jump shrinks with the pole distance, so the
    march cannot hop across s = 1 in a single step; the quench guard then
    trips during a resolved sub-step instead.
    """
    if depth > _MAX_HALVINGS:
        raise NumericalFailureError("time step halving exhausted",
                                    last_time=field.time, last_state=field)
    limit = _OVERSHOOT_JUMP
    if cfg.nonlinearity.has_pole:
        limit = min(limit, 0.5 * float(np.min(pole_distance(field.values))))
    nxt = etd_step(field, dt, cfg)
    finite = np.all(np.isfinite(nxt.values.real)) and np.all(np.isfinite(nxt.values.imag))
    if finite and float(np.max(np.abs(nxt.values - field.values))) <= limit:
        return nxt
    half = _advance(field, dt / 2.0, cfg, depth + 1)
    return _advance(half, dt / 2.0, cfg, depth + 1)


def integrate_pde(g: GridField, cfg: FlowConfig,
                  track_target: complex | None = None,
                  estimate_error: bool = False) -> RunRecord:
    """March the field to cfg.t_end with fixed step cfg.dt_init.

    Early terminations: 'quenched' when the pole guard trips (min P below
    cfg.pole_guard_eps), 'escaped' when sup |u| exceeds 1e6.  Monitors are
    sampled every step; about _SNAPSHOT_BUDGET field snapshots are kept.
    With ``estimate_error`` a halved-step shadow run at the same horizon
    supplies a self-convergence error estimate (only for completed runs).
    """
    handle = cfg.nonlinearity
    if handle.has_pole:
        if float(np.min(pole_distance(g.values))) <= cfg.pole_guard_eps:
            raise DomainError("initial datum violates the pole guard")

    n_steps = max(1, round(cfg.t_end / cfg.dt_init))
    dt = cfg.t_end / n_steps
    snap_every = max(1, n_steps // _SNAPSHOT_BUDGET)

    times, mins_p, re_mins, re_maxs, im_mins, im_maxs, sups, dists = \
        [], [], [], [], [], [], [], []
    snapshot_times: list[float] = []
    snapshots: list[np.ndarray] = []

    def sample(fld: GridField):
        v = fld.values
        times.append(fld.time)
        mins_p.append(float(np.min(pole_distance(v))))
        re_mins.append(float(np.min(v.real)))
        re_maxs.append(float(np.max(v.real)))
        im_mins.append(float(np.min(v.imag)))
        im_maxs.append(float(np.max(v.imag)))
        sups.append(float(np.max(np.abs(v))))
        if track_target is not None:
            dists.append(float(np.max(np.abs(v - track_target))))

    def snap(fld: GridField):
        snapshot_times.append(fld.time)
        snapshots.append(fld.values.copy())

    field = g.copy()
    sample(field)
    snap(field)
    termination = "completed"
    quench = None
    for step in range(1, n_steps + 1):
        try:
            field = _advance(field, dt, cfg)
        except QuenchSignal as sig:
            termination = "quenched"
            quench = QuenchInfo(time=field.time, index=sig.index,
                                value=sig.value, min_p=sig.min_p)
            break
        field.time = step * dt  # exact grid times, no accumulation drift
        sample(field)
        if step % snap_every == 0 or step == n_steps:
            snap(field)
        if sups[-1] > ESCAPE_LIMIT:
            termination = "escaped"
            break
    if termination != "completed" and snapshot_times[-1] != field.time:
        snap(field)

    err_est = None
    if estimate_error and termination == "completed":
        try:
            shadow = g.copy()
            for _ in range(2 * n_steps):
                shadow = _advance(shadow, dt / 2.0, cfg)
            err_est = float(np.max(np.abs(shadow.values - field.values)))
        except QuenchSignal:
            err_est = None

    mon = MonitorSeries(
        time=np.array(times), min_p=np.array(mins_p),
        re_min=np.array(re_mins), re_max=np.array(re_maxs),
        im_min=np.array(im_mins), im_max=np.array(im_maxs),
        sup_abs=np.array(sups),
        sup_dist=np.array(dists) if track_target is not None else None)
    return RunRecord(termination=termination, final=field,
                     snapshot_times=snapshot_times, snapshots=snapshots,
                     monitors=mon, quench=quench, error_estimate=err_est,
                     lam=cfg.lam, dt=dt, t_end=cfg.t_end, length=g.length)


# ---------------------------------------------------------------------------
# Envelope specifications and checks.
# ---------------------------------------------------------------------------

_REAL_DATUM_TOL = 1e-12
_FINAL_TOL = 1e-3  # thm1.7iii: slack of the final bounds -4 n1 + 2 <= u <= -4 n2 + 2


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
    if n >= 1 and -4.0 * n < x < -4.0 * n + 4.0:
        return n
    return None


@dataclass
class EnvelopeReport:
    theorem: str
    passed: bool
    worst_margin: float
    slack: float
    bounds: dict


# The theorems whose envelopes envelope_check verifies.
THEOREM_IDS = ("thm1.5", "cor1.6", "thm1.7i", "thm1.7ii", "thm1.7iii")


def validate_envelope_hypotheses(spec: EnvelopeSpec, theorem: str,
                                 character_real: bool | None = None) -> None:
    """Raise ConfigurationError unless the selected theorem's hypotheses hold.

    The complex-data theorems need I1 > max(1, sigma0); the barrier used is
    max(1, sigma_1), as sigma_1 > sigma0 ~ 1.19235 (sufficient, stricter).
    A window scan of sigma0 gives a lower estimate of the abscissa, so it
    cannot stand in for it.  A check is only meaningful under its
    hypotheses, so callers validate before integrating.
    """
    if theorem not in THEOREM_IDS:
        raise ConfigurationError(f"unknown theorem id {theorem!r}; "
                                 f"expected one of {THEOREM_IDS}")
    if theorem in ("thm1.5", "cor1.6"):
        barrier = max(1.0, sigma1_root())
        if not spec.i1 > barrier:
            raise ConfigurationError(
                f"hypothesis I1 > max(1, sigma0) not met: I1 = {spec.i1:.6g}, "
                f"barrier max(1, sigma_1) = {barrier:.6g}")
        if theorem == "cor1.6":
            if not spec.i2 > 0:
                raise ConfigurationError("hypothesis I2 > 0 not met")
            if character_real is False:
                raise ConfigurationError("this bound needs a real-valued character")
    elif theorem == "thm1.7i":
        _require_real_case(spec)
        if not spec.i > 1.0:
            raise ConfigurationError("hypothesis I > 1 not met")
    elif theorem == "thm1.7ii":
        _require_real_case(spec)
        if not spec.i < 1.0:
            raise ConfigurationError("hypothesis I < 1 not met")
    else:  # thm1.7iii
        _require_real_case(spec)
        if not spec.i < 1.0:
            raise ConfigurationError("hypothesis I < 1 not met")
        if spec.n1 is None or spec.n2 is None:
            raise ConfigurationError(
                "I and S must each lie strictly inside a cell (-4n, -4n+4)")


def envelope_check(run: RunRecord, spec: EnvelopeSpec, theorem: str) -> EnvelopeReport:
    """Verify the affine-in-t (or constant) bounds on every stored snapshot.

    The hypotheses are those of validate_envelope_hypotheses.  Margins are
    signed distances to the bounds; the check passes when the worst margin
    stays above -(slack), with slack = 1e-6 plus ten times the run's
    self-convergence error estimate.
    """
    validate_envelope_hypotheses(spec, theorem)
    slack = 1e-6 + 10.0 * (run.error_estimate or 0.0)
    times = np.array(run.snapshot_times)
    re_parts = [snap.real for snap in run.snapshots]
    im_parts = [snap.imag for snap in run.snapshots]
    bounds: dict[str, float] = {}

    def zeta_at(x: float) -> float:
        return special.riemann_zeta(complex(x)).real

    def record(name: str, margins) -> None:
        bounds[name] = float(min(margins))

    if theorem in ("thm1.5", "cor1.6"):
        z1 = zeta_at(spec.i1)
        lo_slope = max(0.0, 2.0 - z1)
        record("re_lower", [np.min(re_parts[k] - (lo_slope * t + spec.i1))
                            for k, t in enumerate(times)])
        record("re_upper", [np.min((z1 * t + spec.s1) - re_parts[k])
                            for k, t in enumerate(times)])
        if theorem == "thm1.5":
            record("im_lower", [np.min(im_parts[k] - ((1.0 - z1) * t + spec.i2))
                                for k, t in enumerate(times)])
        else:
            record("im_positive", [np.min(im_parts[k]) for k in range(len(times))])
        record("im_upper", [np.min(((z1 - 1.0) * t + spec.s2) - im_parts[k])
                            for k, t in enumerate(times)])
    elif theorem == "thm1.7i":
        zi = zeta_at(spec.i)
        record("lower", [np.min(re_parts[k] - (t + spec.i))
                         for k, t in enumerate(times)])
        record("upper", [np.min((zi * t + spec.s) - re_parts[k])
                         for k, t in enumerate(times)])
        record("imag_confined", [-np.max(np.abs(im_parts[k])) for k in range(len(times))])
    elif theorem == "thm1.7ii":
        upper = -2.0 * spec.k2 if spec.k2 is not None else spec.s
        record("lower", [np.min(re_parts[k] - (-2.0 * spec.k1))
                         for k in range(len(times))])
        record("upper", [np.min(upper - re_parts[k]) for k in range(len(times))])
    else:  # thm1.7iii
        lo = -4.0 * spec.n1 + 2.0
        hi = -4.0 * spec.n2 + 2.0
        record("final_lower", [float(np.min(re_parts[-1])) - lo + _FINAL_TOL])
        record("final_upper", [hi + _FINAL_TOL - float(np.max(re_parts[-1]))])

    worst = min(bounds.values())
    return EnvelopeReport(theorem=theorem, passed=bool(worst >= -slack),
                          worst_margin=worst, slack=slack, bounds=bounds)


def _require_real_case(spec: EnvelopeSpec) -> None:
    if not spec.real_case:
        raise ConfigurationError("this check applies to real-valued data only")


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


_STABILITY_CONV_TOL = 1e-6
_STABILITY_TRANSIENT = 1.0


def stability_experiment(z0: ZeroRecord, delta: float, datum: GridField,
                         cfg: FlowConfig) -> StabilityReport:
    """Integrate disc data around a sink and audit the contraction.

    Verifies that sup |u - z0| is non-increasing after an initial transient
    and stays inside the shrinking disc radius delta exp(-t delta^2 / 2);
    escape from D(z0, 2 delta) raises CounterexampleError (a discrete-level
    contradiction that flags step-size or tolerance review).
    """
    if not z0.is_sink():
        raise DomainError("stability experiment needs a sink")
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

    below = np.where(dist < _STABILITY_CONV_TOL)[0]
    converged = below.size > 0
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
    """Certified constants for the short-time fixed-point solve.

    z1/z2 bound the Hurwitz composition and its Lipschitz constant on the
    box [-beta, beta]^2 with pole margin eps; m1/m2 are their L-function
    counterparts at period m; t_local = min(1/(2 m2), beta/(2 m1),
    eps/(4 m1)) guarantees the Duhamel map contracts with factor <= 1/2.
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
    ghat = np.fft.fftn(g.values)

    # representation nodes: 0, the 32 Gauss points of [0, T], and T
    nodes = np.concatenate([[0.0], T * (xg + 1.0) / 2.0, [T]])
    n_nodes = nodes.size

    def nonlin_hat(values: np.ndarray) -> np.ndarray:
        return np.fft.fftn(cfg.lam * cfg.nonlinearity.eval_many(values))

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
            new.append(np.fft.ifftn(semi_g[i] + integral))
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
