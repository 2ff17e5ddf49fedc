import dataclasses
import json
import math

import numpy as np
import pytest

import zetaflow as zf
import zetaflow.pde as pm
from zetaflow.cli import main as cli_main


def flow_cfg(handle, **kw):
    kw.setdefault("nonlinearity", handle)
    return zf.FlowConfig(**kw)


def inject_inf(monkeypatch, injected):
    """Make LFunctionHandle.eval_many put inf at one point on call n wherever injected(n)."""
    count = [0]
    original = zf.LFunctionHandle.eval_many

    def eval_many(self, s):
        values = original(self, s)
        count[0] += 1
        if injected(count[0]):
            values.flat[3] = np.inf
        return values
    monkeypatch.setattr(zf.LFunctionHandle, "eval_many", eval_many)


def count_etd_steps(monkeypatch) -> list:
    calls = []
    original = pm.etd_step
    monkeypatch.setattr(pm, "etd_step", lambda *args: calls.append(args[1]) or original(*args))
    return calls


class TestGridField:
    def test_rejects_bad_sizes(self):
        with pytest.raises(zf.DomainError):
            zf.GridField(np.zeros(12, dtype=complex))
        with pytest.raises(zf.DomainError):
            zf.GridField(np.zeros(20, dtype=complex))  # not a power of two
        with pytest.raises(zf.DomainError):
            zf.GridField(np.zeros((16, 32), dtype=complex))

    def test_rejects_nonfinite(self):
        vals = np.zeros(16, dtype=complex)
        vals[3] = np.nan
        with pytest.raises(zf.DomainError):
            zf.GridField(vals)

    @pytest.mark.parametrize("bad", [complex(np.nan, 0.0), complex(np.inf, 0.0),
                                     complex(0.0, np.nan), complex(0.0, -np.inf)])
    def test_rejects_a_nonfinite_part(self, bad):
        # one complex isfinite pass must see either part alone
        vals = np.zeros(16, dtype=complex)
        vals[3] = bad
        with pytest.raises(zf.DomainError):
            zf.GridField(vals)

    def test_rejects_3d(self):
        with pytest.raises(zf.DomainError):
            zf.GridField(np.zeros((16, 16, 16), dtype=complex))

    def test_mean(self):
        f = zf.constant_field(2.0 + 1.0j, shape=(16,))
        assert f.mean() == 2.0 + 1.0j


class TestHeatSemigroup:
    def test_identity_at_zero(self):
        f = zf.fourier_field(1.0, [(1, 0.5)], shape=(32,))
        g = zf.heat_semigroup(f, 0.0)
        assert np.array_equal(g.values, f.values)

    def test_constant_unchanged(self):
        f = zf.constant_field(3.0 - 2.0j, shape=(32,))
        g = zf.heat_semigroup(f, 1.7)
        assert np.max(np.abs(g.values - f.values)) < 1e-14

    def test_single_mode_eigenvalue(self):
        L = 2.0 * math.pi
        f = zf.fourier_field(0.0, [(1, 1.0)], shape=(64,), length=L)
        t = 0.8
        g = zf.heat_semigroup(f, t)
        expected = f.values * math.exp(-((2 * math.pi / L) ** 2) * t)
        assert np.max(np.abs(g.values - expected)) < 1e-14

    def test_mean_preserved_exactly(self):
        rng = np.random.default_rng(0)
        f = zf.GridField(rng.normal(size=32) + 1j * rng.normal(size=32))
        g = zf.heat_semigroup(f, 2.3)
        assert abs(g.mean() - f.mean()) < 1e-14

    def test_nonmean_energy_decay(self):
        rng = np.random.default_rng(1)
        f = zf.GridField(rng.normal(size=32) + 1j * rng.normal(size=32))
        g = zf.heat_semigroup(f, 1.0)
        def nonmean_energy(field):
            hat = np.fft.fft(field.values)
            hat[0] = 0.0
            return float(np.sum(np.abs(hat) ** 2))
        assert nonmean_energy(g) <= math.exp(-2.0) * nonmean_energy(f) + 1e-12

    def test_semigroup_law(self):
        rng = np.random.default_rng(2)
        f = zf.GridField(rng.normal(size=32) + 1j * rng.normal(size=32))
        a = zf.heat_semigroup(zf.heat_semigroup(f, 0.4), 0.9)
        b = zf.heat_semigroup(f, 1.3)
        assert np.max(np.abs(a.values - b.values)) < 1e-12

    def test_negative_time_rejected(self):
        with pytest.raises(zf.DomainError):
            zf.heat_semigroup(zf.constant_field(0.0, shape=(16,)), -0.1)

    def test_2d_mode(self):
        f = zf.fourier_field(0.0, [((1, 2), 1.0)], shape=(16, 16))
        g = zf.heat_semigroup(f, 0.5)
        expected = f.values * math.exp(-(1 + 4) * 0.5)
        assert np.max(np.abs(g.values - expected)) < 1e-13


class TestEtdStep:
    def test_equilibrium_fixed(self, zeta_handle):
        cfg = flow_cfg(zeta_handle, lam=1)
        f = zf.constant_field(-2.0, shape=(32,))
        g = zf.etd_step(f, 0.01, cfg)
        assert np.max(np.abs(g.values + 2.0)) < 1e-13

    def test_constant_is_heun_step(self, zeta_handle):
        cfg = flow_cfg(zeta_handle, lam=1)
        f = zf.constant_field(2.0, shape=(32,))
        g = zf.etd_step(f, 0.01, cfg)
        fc = zeta_handle.eval_point(2.0)
        pred = 2.0 + 0.01 * fc
        heun = 2.0 + 0.005 * (fc + zeta_handle.eval_point(pred))
        assert abs(g.values[0] - heun) < 1e-13

    def test_quench_signal_carries_index(self, zeta_handle):
        cfg = flow_cfg(zeta_handle, lam=1)
        vals = np.full(16, -2.0, dtype=complex)
        vals[5] = 1.0 + 2e-4
        with pytest.raises(zf.QuenchSignal) as sig:
            zf.etd_step(zf.GridField(vals), 0.01, cfg)
        assert sig.value.index == (5,)
        assert sig.value.min_p < 1e-3

    @pytest.mark.parametrize("shape, first, second", [((16,), (5,), (9,)),
                                                      ((16, 16), (3, 7), (7, 3))])
    def test_quench_signal_names_the_first_of_a_tie(self, zeta_handle, shape, first, second):
        # two points of exactly equal P = 2^-11 below the guard, different values
        cfg = flow_cfg(zeta_handle, lam=1)
        vals = np.full(shape, -2.0, dtype=complex)
        vals[first] = 1.0 - 2.0 ** -11
        vals[second] = 1.0 + 2.0 ** -11 * 1j
        p = pm.pole_distance(vals)
        assert p[first] == p[second] == p.min() == 2.0 ** -11
        with pytest.raises(zf.QuenchSignal) as sig:
            zf.etd_step(zf.GridField(vals), 0.01, cfg)
        assert sig.value.index == first == np.unravel_index(np.argmin(p), shape)
        assert sig.value.value == vals[first]
        assert sig.value.min_p == 2.0 ** -11

    @pytest.mark.parametrize("shape,dt", [((32,), 0.04), ((32,), 0.02), ((16, 16), 1e-3)])
    def test_cached_multipliers_bitwise(self, zeta_handle, shape, dt):
        # the step with multipliers recomputed from scratch is the reference
        cfg = flow_cfg(zeta_handle, lam=1)
        f = zf.disc_random_field(-2.0 + 0.5j, 0.05, seed=3, shape=shape)
        z = dt * pm._laplacian_eigs(shape, f.length)
        nu = zeta_handle.eval_many(f.values)
        ahat = np.exp(z) * np.fft.fftn(f.values) + dt * zf.expm1_over(z) * np.fft.fftn(nu)
        a = np.fft.ifftn(ahat)
        ref = np.fft.ifftn(ahat + dt * pm._phi2(z) * np.fft.fftn(zeta_handle.eval_many(a) - nu))
        for _ in range(2):  # the first call fills the cache, the second reads it
            got = zf.etd_step(f, dt, cfg).values
            assert np.array_equal(got.view(float), ref.view(float))
        assert not any(m.flags.writeable for m in pm._etd_multipliers(shape, f.length, dt))

    @pytest.mark.parametrize("z", [1.01e-4, -1.01e-4, 1e-3, -1e-3, 0.3, -0.3])
    def test_phi_functions_against_mpmath(self, z):
        # (expm1(z) - z)/z^2 was used down to |z| = 1e-4, 8.8e-13 off there
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(40):
            x = mpmath.mpf(z)
            exact = (mpmath.expm1(x) / x, (mpmath.expm1(x) - x) / (x * x))
        got = (zf.expm1_over(np.array([z])), pm._phi2(np.array([z])))
        for value, ref in zip(got, exact):
            assert value.dtype == np.float64  # the multipliers stay real
            assert abs(value[0] - float(ref)) <= 1e-15 * abs(float(ref))

    def test_second_order_self_convergence(self, zeta_handle):
        x = 2.0 * math.pi * np.arange(64) / 64
        datum = zf.GridField((-3.0 + 0.5 * np.cos(x)).astype(complex))
        def final(dt):
            cfg = flow_cfg(zeta_handle, lam=1, t_end=0.5, dt_init=dt)
            return zf.integrate_pde(datum, cfg).final.values
        ref = final(0.5e-3)
        ratio = (np.max(np.abs(final(8e-3) - ref))
                 / np.max(np.abs(final(4e-3) - ref)))
        assert 3.5 <= ratio <= 4.5


class TestIntegratePde:
    def test_constant_datum_matches_ode(self, zeta_handle):
        pde_cfg = flow_cfg(zeta_handle, lam=1, t_end=1.0, dt_init=2.5e-4)
        run = zf.integrate_pde(zf.constant_field(2.0, shape=(32,)), pde_cfg)
        ode_cfg = flow_cfg(zeta_handle, lam=1, t_end=1.0)
        res = zf.integrate_flow(ode_cfg, 2.0, record_at=run.snapshot_times,
                                rtol=1e-11, atol=1e-12)
        worst = max(np.max(np.abs(snap - res.checkpoint_states[t]))
                    for t, snap in zip(run.snapshot_times, run.snapshots) if t > 0)
        assert worst < 1e-6

    def test_zero_horizon_holds_the_datum(self, zeta_handle):
        # t_end = 0 once made one step of dt = 0, which raised DomainError
        datum = zf.disc_random_field(-3.0, 0.1, 1, shape=(16,))
        run = zf.integrate_pde(datum, flow_cfg(zeta_handle, lam=1, t_end=0.0),
                               estimate_error=True)
        assert run.termination == "completed" and run.final.time == 0.0
        assert run.final.values.tobytes() == datum.values.tobytes()
        assert run.snapshot_times == [0.0] and run.monitors.time.tolist() == [0.0]
        assert run.error_estimate == 0.0

    def test_initial_guard(self, zeta_handle):
        cfg = flow_cfg(zeta_handle, lam=1, t_end=1.0)
        with pytest.raises(zf.DomainError):
            zf.integrate_pde(zf.constant_field(1.0 + 5e-4, shape=(16,)), cfg)

    def test_quench_run(self, zeta_handle):
        cfg = flow_cfg(zeta_handle, lam=-1, t_end=5.0, dt_init=1e-3)
        run = zf.integrate_pde(zf.constant_field(0.5, shape=(32,)), cfg)
        assert run.termination == "quenched"
        assert run.quench is not None
        assert run.quench.min_p < 1e-3
        assert run.t_end > run.monitors.time[-1]
        # pole acts as attractor: the pole distance decreases monotonically
        # on the approach (tail of the monitor series)
        tail = run.monitors.min_p[-30:]
        assert np.all(np.diff(tail) < 0)

    @pytest.mark.parametrize("call", [7, 8])  # N(u), then N(a), of the fourth step
    def test_non_finite_stage_halves_the_step(self, zeta_handle, monkeypatch, call):
        datum = zf.disc_random_field(2.5 + 0.5j, 0.1, seed=1, shape=(16,))
        cfg = flow_cfg(zeta_handle, lam=1, t_end=0.1, dt_init=0.01)
        ref = zf.integrate_pde(datum, cfg)
        inject_inf(monkeypatch, lambda n: n == call)
        steps = count_etd_steps(monkeypatch)
        run = zf.integrate_pde(datum, cfg)
        assert run.termination == "completed"
        assert steps[3:6] == [0.01, 0.005, 0.005] and len(steps) == 12
        assert np.max(np.abs(run.final.values - ref.final.values)) < 1e-6

    def test_persistent_non_finite_step_raises_with_time(self, zeta_handle, monkeypatch):
        datum = zf.disc_random_field(2.5 + 0.5j, 0.1, seed=1, shape=(16,))
        cfg = flow_cfg(zeta_handle, lam=1, t_end=0.1, dt_init=0.01)
        inject_inf(monkeypatch, lambda n: n > 8)   # every step from the fifth
        steps = count_etd_steps(monkeypatch)
        with pytest.raises(zf.NumericalFailureError) as err:
            zf.integrate_pde(datum, cfg)
        assert len(steps) == 4 + 1 + pm._MAX_HALVINGS
        assert err.value.last_time == pytest.approx(0.04)
        assert f"t = {err.value.last_time!r}" in str(err.value)
        last = err.value.last_state
        assert last.time == err.value.last_time and np.all(np.isfinite(last.values))

    def test_escape_guard(self, zeta_handle, monkeypatch):
        monkeypatch.setattr(pm, "ESCAPE_LIMIT", 3.0)
        cfg = flow_cfg(zeta_handle, lam=1, t_end=10.0, dt_init=1e-2)
        run = zf.integrate_pde(zf.constant_field(2.5, shape=(16,)), cfg)
        assert run.termination == "escaped"

    def test_real_data_stay_real_and_confined(self, zeta_handle):
        datum = zf.smooth_real_field(-7.3, -2.7, seed=9, shape=(32,))
        cfg = flow_cfg(zeta_handle, lam=1, t_end=5.0, dt_init=0.01)
        run = zf.integrate_pde(datum, cfg)
        assert run.termination == "completed"
        assert max(abs(run.monitors.im_min).max(), abs(run.monitors.im_max).max()) < 1e-10
        assert run.monitors.re_min.min() >= -8.0 - 1e-6
        assert run.monitors.re_max.max() <= -2.0 + 1e-6

    def test_error_estimate_available(self, zeta_handle):
        cfg = flow_cfg(zeta_handle, lam=1, t_end=0.2, dt_init=5e-3)
        run = zf.integrate_pde(zf.constant_field(3.0, shape=(16,)), cfg,
                               estimate_error=True)
        assert run.error_estimate is not None
        assert run.error_estimate < 1e-7

    def test_shadow_failure_leaves_the_run_standing(self, zeta_handle, monkeypatch, tmp_path):
        # the halved-step shadow of a completed run failed numerically at
        # every step below the run's dt, and that ended the whole run
        original = pm.etd_step

        def etd_step(field, dt, cfg):
            if dt < cfg.dt_init:
                raise zf.NumericalFailureError("injected")
            return original(field, dt, cfg)
        monkeypatch.setattr(pm, "etd_step", etd_step)
        cfg = flow_cfg(zeta_handle, lam=1, t_end=0.05, dt_init=1e-2)
        run = zf.integrate_pde(zf.constant_field(3.0, shape=(16,)), cfg, estimate_error=True)
        assert run.termination == "completed"
        assert run.error_estimate is None
        assert run.shadow_failure == "failed numerically at t = 0"
        # the summary names the failed shadow; its flags were always empty
        out = tmp_path / "shadow"
        assert cli_main(["flow", "--datum", "const:3", "--check", "thm1.5", "--tend", "0.05",
                         "--dt", "0.01", "--grid", "16", "--out", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["flags"] == [
            "no error estimate: the shadow run failed numerically at t = 0"]
        assert summary["check"]["slack"] == 1e-6

    def test_snapshot_budget(self, zeta_handle):
        cfg = flow_cfg(zeta_handle, lam=1, t_end=1.0, dt_init=1e-3)
        run = zf.integrate_pde(zf.constant_field(2.0, shape=(16,)), cfg)
        assert pm._SNAPSHOT_BUDGET <= len(run.snapshots) <= pm._SNAPSHOT_BUDGET + 2
        assert run.snapshot_times[0] == 0.0
        assert run.snapshot_times[-1] == pytest.approx(1.0)

    def test_2d_constant_matches_1d(self, zeta_handle):
        cfg = flow_cfg(zeta_handle, lam=1, t_end=0.2, dt_init=2e-3)
        run1 = zf.integrate_pde(zf.constant_field(2.0, shape=(16,)), cfg)
        run2 = zf.integrate_pde(zf.constant_field(2.0, shape=(16, 16)), cfg)
        assert abs(run1.final.values[0] - run2.final.values[0, 0]) < 1e-12


def reference_march(g, cfg, track_target=None, estimate_error=False):
    """integrate_pde as it was before its per-step bookkeeping was cut, a reference
    written out here: np.fft.fftn and ifftn, each ETD product a new array, P taken
    for the monitor row, the overshoot limit and the guard each, the guard by
    argmin, and the monitor rows by np.min and np.max."""
    def nonlinearity(values):
        if cfg.nonlinearity.has_pole:
            p = pm.pole_distance(values)
            idx = np.unravel_index(int(np.argmin(p)), p.shape)
            min_p = float(p[idx])
            if min_p < cfg.pole_guard_eps:
                raise zf.QuenchSignal(idx, complex(values[idx]), min_p)
        out = cfg.nonlinearity.eval_many(values)
        if not np.all(np.isfinite(out)):
            raise zf.NumericalFailureError("not finite")
        out *= cfg.lam
        return out

    def etd_step(field, dt):
        e, dt_phi1, dt_phi2 = pm._etd_multipliers(field.values.shape, field.length, dt)
        nu = nonlinearity(field.values)
        ahat = e * np.fft.fftn(field.values) + dt_phi1 * np.fft.fftn(nu)
        na = nonlinearity(np.fft.ifftn(ahat))
        out_hat = ahat + dt_phi2 * np.fft.fftn(na - nu)
        return zf.GridField(np.fft.ifftn(out_hat), field.length, field.time + dt)

    def advance(field, dt, depth=0):
        if depth > pm._MAX_HALVINGS:
            raise zf.NumericalFailureError("halving exhausted", last_time=field.time,
                                           last_state=field)
        limit = pm._OVERSHOOT_JUMP
        if cfg.nonlinearity.has_pole:
            limit = min(limit, 0.5 * float(np.min(pm.pole_distance(field.values))))
        try:
            nxt = etd_step(field, dt)
        except zf.NumericalFailureError:
            pass
        else:
            if float(np.max(np.abs(nxt.values - field.values))) <= limit:
                return nxt
        return advance(advance(field, dt / 2.0, depth + 1), dt / 2.0, depth + 1)

    def monitor_row(field):
        v = field.values
        row = (field.time, float(np.min(pm.pole_distance(v))),
               float(np.min(v.real)), float(np.max(v.real)),
               float(np.min(v.imag)), float(np.max(v.imag)), float(np.max(np.abs(v))))
        return row if track_target is None else row + (float(np.max(np.abs(v - track_target))),)

    n_steps = max(1, round(cfg.t_end / cfg.dt_init)) if cfg.t_end else 0
    dt = cfg.t_end / max(n_steps, 1)
    snap_every = max(1, n_steps // pm._SNAPSHOT_BUDGET)
    field = g.copy()
    rows = [monitor_row(field)]
    snapshot_times, snapshots = [field.time], [field.values.copy()]
    termination, quench = "completed", None
    for step in range(1, n_steps + 1):
        try:
            field = advance(field, dt)
        except zf.QuenchSignal as sig:
            termination = "quenched"
            quench = pm.QuenchInfo(field.time, sig.index, sig.value, sig.min_p)
            break
        field.time = step * dt
        rows.append(monitor_row(field))
        if rows[-1][6] > pm.ESCAPE_LIMIT:
            termination = "escaped"
            break
        if step % snap_every == 0:
            snapshot_times.append(field.time)
            snapshots.append(field.values.copy())
    if snapshot_times[-1] != field.time:
        snapshot_times.append(field.time)
        snapshots.append(field.values.copy())
    err_est = None
    if estimate_error and termination == "completed":
        shadow = g.copy()
        for _ in range(2 * n_steps):
            shadow = advance(shadow, dt / 2.0)
        err_est = float(np.max(np.abs(shadow.values - field.values)))
    return pm.RunRecord(termination=termination, final=field, snapshot_times=snapshot_times,
                        snapshots=snapshots, monitors=pm.MonitorSeries(*map(np.array, zip(*rows))),
                        quench=quench, error_estimate=err_est, cfg=cfg, dt=dt,
                        t_end=cfg.t_end, length=g.length)


def run_bytes(run) -> dict:
    """Every output of a RunRecord as bytes, so that signed zeros count."""
    f64 = lambda *xs: np.array(xs, dtype=float).tobytes()
    out = {"termination": run.termination, "final": run.final.values.tobytes(),
           "final_time": f64(run.final.time), "snapshot_times": f64(*run.snapshot_times),
           "snapshots": [snap.tobytes() for snap in run.snapshots],
           "error_estimate": None if run.error_estimate is None else f64(run.error_estimate),
           "shadow_failure": run.shadow_failure, "dt": f64(run.dt)}
    for column in dataclasses.fields(pm.MonitorSeries):
        values = getattr(run.monitors, column.name)
        out[column.name] = None if values is None else values.tobytes()
    if run.quench is not None:
        q = run.quench
        out["quench"] = (f64(q.time), tuple(int(i) for i in q.index),
                         np.array(q.value, dtype=complex).tobytes(), f64(q.min_p))
    return out


class TestMarchReference:
    """integrate_pde, bitwise against the march written out in reference_march."""

    @staticmethod
    def case(name, zeta_handle, chi4):
        smooth = zf.smooth_real_field
        if name == "disc":
            datum = zf.disc_random_field(-2.0, 0.05, seed=5, shape=(32,))
            return datum, flow_cfg(zeta_handle, lam=1, t_end=1.0, dt_init=0.04), -2.0, False
        if name == "confine":  # Re u on both sides of -3: reflection and Euler-Maclaurin
            datum = smooth(-7.3, -2.6, seed=6, shape=(32,))
            return datum, flow_cfg(zeta_handle, lam=1, t_end=1.0, dt_init=0.04), None, False
        if name == "quench":
            datum = smooth(0.4, 0.6, seed=2, shape=(32,))
            return datum, flow_cfg(zeta_handle, lam=-1, t_end=1.0, dt_init=2e-3), None, False
        if name == "global":
            datum = smooth(-6.9, -3.1, seed=7, shape=(32,))
            return datum, flow_cfg(zeta_handle, lam=-1, t_end=0.5, dt_init=5e-3), None, False
        if name == "chi4":  # no pole, so no guard; the shadow run too
            datum = zf.fourier_field(2.2 + 0.5j, [(1, 0.08 + 0.06j)], shape=(32,))
            handle = zf.l_function(chi4)
            return datum, flow_cfg(handle, lam=1, t_end=0.2, dt_init=2e-3), None, True
        datum = zf.disc_random_field(3.0 + 1.0j, 0.5, seed=8, shape=(32, 32))
        return datum, flow_cfg(zeta_handle, lam=1, t_end=0.01, dt_init=1e-3), None, True

    @pytest.mark.parametrize("name", ["disc", "confine", "quench", "global", "chi4", "2d"])
    def test_run_record_bitwise(self, zeta_handle, chi4, monkeypatch, name):
        datum, cfg, target, estimate = self.case(name, zeta_handle, chi4)
        want = reference_march(datum, cfg, track_target=target, estimate_error=estimate)
        steps = count_etd_steps(monkeypatch)
        got = zf.integrate_pde(datum, cfg, track_target=target, estimate_error=estimate)
        assert run_bytes(got) == run_bytes(want)
        expected = {"quench": "quenched"}.get(name, "completed")
        assert got.termination == expected
        if name == "quench":  # the guard trips inside a halved sub-step
            assert len(steps) > len(got.monitors.time) and min(steps) < cfg.dt_init / 2
            assert got.quench.min_p < cfg.pole_guard_eps
        if estimate:
            assert got.error_estimate is not None


class TestEnvelopeSpec:
    def test_complex_field(self):
        g = zf.fourier_field(2.0 + 1.0j, [(1, 0.25)], shape=(32,))
        spec = zf.EnvelopeSpec.from_field(g)
        assert not spec.real_case
        assert spec.i1 == pytest.approx(1.75)
        assert spec.s1 == pytest.approx(2.25)

    def test_real_lattice_indices(self):
        g = zf.smooth_real_field(-7.5, -2.5, seed=1, shape=(32,))
        spec = zf.EnvelopeSpec.from_field(g)
        assert spec.real_case
        assert (spec.k1, spec.k2, spec.n1, spec.n2) == (4, 1, 2, 1)

    def test_upper_barrier_is_s_above_minus_two(self):
        g = zf.smooth_real_field(-3.5, -1.5, seed=2, shape=(32,))
        spec = zf.EnvelopeSpec.from_field(g)
        assert spec.k2 is None
        assert spec.k1 == 2  # -2k1 = -4 <= I

    def test_positive_small_datum(self):
        g = zf.smooth_real_field(0.2, 0.8, seed=3, shape=(32,))
        spec = zf.EnvelopeSpec.from_field(g)
        assert spec.k1 == 1 and spec.n1 is None

    def test_cell_boundary_has_no_index(self):
        assert pm._cell_index(-4.0) is None
        assert pm._cell_index(-7.5) == 2
        assert pm._cell_index(-2.5) == 1


def snapshot_loop_bounds(run, spec, theorem) -> dict:
    """Each bound's worst margin over the snapshots' grid values after the datum's,
    as the envelope check took it before it read the monitor rows, and skipping
    the datum as it does now: a reference written out here."""
    zeta_at = lambda x: zf.riemann_zeta(complex(x), run.cfg.nonlinearity.eval_cfg).real
    if theorem == "thm1.7i":
        zi = zeta_at(spec.i)
        margins = lambda t, re, im: {"lower": np.min(re - (t + spec.i)),
                                     "upper": np.min((zi * t + spec.s) - re),
                                     "imag_confined": -np.max(np.abs(im))}
    elif theorem == "thm1.7ii":
        upper = -2.0 * spec.k2 if spec.k2 is not None else spec.s
        margins = lambda t, re, im: {"lower": np.min(re - (-2.0 * spec.k1)),
                                     "upper": np.min(upper - re)}
    else:  # thm1.5 and cor1.6
        z1 = zeta_at(spec.i1)

        def margins(t, re, im):
            out = {"re_lower": np.min(re - (max(0.0, 2.0 - z1) * t + spec.i1)),
                   "re_upper": np.min((z1 * t + spec.s1) - re)}
            if theorem == "cor1.6":
                out["im_positive"] = np.min(im)
            else:
                out["im_lower"] = np.min(im - ((1.0 - z1) * t + spec.i2))
            out["im_upper"] = np.min(((z1 - 1.0) * t + spec.s2) - im)
            return out
    per_snapshot = [margins(t, snap.real, snap.imag)
                    for t, snap in zip(run.snapshot_times, run.snapshots)]
    per_snapshot = per_snapshot[1:] or per_snapshot
    return {name: min(float(m[name]) for m in per_snapshot) for name in per_snapshot[0]}


def pin_to_snapshot_loop(run, spec, theorem, report):
    """The monitor-row bounds are at most the snapshot loop's, and equal to them
    where every row is a snapshot; on the snapshot rows alone they are equal."""
    reference = snapshot_loop_bounds(run, spec, theorem)
    rows = np.searchsorted(run.monitors.time, run.snapshot_times)
    columns = [getattr(run.monitors, f.name) for f in dataclasses.fields(pm.MonitorSeries)]
    at_snapshots = dataclasses.replace(run, monitors=pm.MonitorSeries(
        *(None if col is None else col[rows] for col in columns)))
    assert zf.envelope_check(at_snapshots, spec, theorem).bounds == reference
    assert set(report.bounds) == set(reference)
    assert all(report.bounds[name] <= reference[name] for name in reference)
    if len(rows) == len(run.monitors.time):
        assert report.bounds == reference


class TestEnvelopeCheck:
    def test_real_growth_envelope(self, zeta_handle):
        datum = zf.constant_field(2.0, shape=(32,))
        cfg = flow_cfg(zeta_handle, lam=1, t_end=2.0, dt_init=2e-3)
        run = zf.integrate_pde(datum, cfg, estimate_error=True)
        spec = zf.EnvelopeSpec.from_field(datum)
        report = zf.envelope_check(run, spec, "thm1.7i")
        assert report.passed
        assert report.worst_margin >= -report.slack
        assert set(report.bounds) == {"lower", "upper", "imag_confined"}
        pin_to_snapshot_loop(run, spec, "thm1.7i", report)

    @pytest.mark.parametrize("imag, passed", [(0.5e-6, True), (1.5e-6, False)])
    def test_imag_confined_counts_the_slack_once(self, zeta_handle, imag, passed):
        # the margin was slack - max|Im u|, checked against -slack, so
        # |Im u| up to twice the slack of 1e-6 passed
        datum = zf.constant_field(2.0, shape=(16,))
        cfg = flow_cfg(zeta_handle, lam=1, t_end=0.1, dt_init=1e-2)
        run = zf.integrate_pde(datum, cfg)
        mon = dataclasses.replace(run.monitors, im_min=run.monitors.im_min + imag,
                                  im_max=run.monitors.im_max + imag)
        run = dataclasses.replace(run, error_estimate=None, monitors=mon)
        report = zf.envelope_check(run, zf.EnvelopeSpec.from_field(datum), "thm1.7i")
        assert report.slack == 1e-6
        assert report.bounds["imag_confined"] == pytest.approx(-imag, rel=1e-12)
        assert report.passed is passed

    def test_complex_growth_envelope(self, zeta_handle):
        datum = zf.fourier_field(2.1 + 0.2j, [(1, 0.1 + 0.05j)], shape=(32,))
        cfg = flow_cfg(zeta_handle, lam=1, t_end=1.0, dt_init=2e-3)
        run = zf.integrate_pde(datum, cfg, estimate_error=True)
        spec = zf.EnvelopeSpec.from_field(datum)
        report = zf.envelope_check(run, spec, "thm1.5")
        assert report.passed
        pin_to_snapshot_loop(run, spec, "thm1.5", report)

    def test_real_character_keeps_upper_half_plane(self, chi4):
        handle = zf.l_function(chi4)
        datum = zf.fourier_field(2.2 + 0.5j, [(1, 0.08 + 0.06j)], shape=(32,))
        cfg = flow_cfg(handle, lam=1, t_end=1.0, dt_init=2e-3)
        run = zf.integrate_pde(datum, cfg, estimate_error=True)
        spec = zf.EnvelopeSpec.from_field(datum)
        report = zf.envelope_check(run, spec, "cor1.6")
        assert report.passed
        assert "im_positive" in report.bounds
        pin_to_snapshot_loop(run, spec, "cor1.6", report)

    def test_lattice_confinement(self, zeta_handle):
        # 300 steps: every row is a snapshot
        datum = zf.smooth_real_field(-7.4, -2.6, seed=4, shape=(32,))
        cfg = flow_cfg(zeta_handle, lam=1, t_end=3.0, dt_init=0.01)
        run = zf.integrate_pde(datum, cfg, estimate_error=True)
        spec = zf.EnvelopeSpec.from_field(datum)
        report = zf.envelope_check(run, spec, "thm1.7ii")
        assert report.passed
        assert len(run.snapshot_times) == len(run.monitors.time)
        pin_to_snapshot_loop(run, spec, "thm1.7ii", report)

    @pytest.mark.parametrize("theorem, passed", [("thm1.7ii", False), ("thm1.7iii", True)])
    def test_a_dip_between_snapshots(self, zeta_handle, theorem, passed):
        # 600 steps keep every third field, so the snapshots never see row 301;
        # thm1.7ii bounds every row, thm1.7iii the last row only
        datum = zf.smooth_real_field(-7.4, -2.6, seed=4, shape=(32,))
        cfg = flow_cfg(zeta_handle, lam=1, t_end=3.0, dt_init=0.005)
        run = zf.integrate_pde(datum, cfg)
        spec = zf.EnvelopeSpec.from_field(datum)
        assert len(run.monitors.time) > pm._SNAPSHOT_BUDGET
        assert run.monitors.time[301] not in run.snapshot_times
        re_min = run.monitors.re_min.copy()
        re_min[301] = -2.0 * spec.k1 - 1e-3
        dipped = dataclasses.replace(run, monitors=dataclasses.replace(run.monitors,
                                                                       re_min=re_min))
        report = zf.envelope_check(dipped, spec, theorem)
        assert report.passed is passed
        if passed:
            assert report.bounds == zf.envelope_check(run, spec, theorem).bounds
        else:
            assert report.bounds["lower"] == pytest.approx(-1e-3, rel=1e-9)

    def test_second_validation_makes_no_zeta_call(self, monkeypatch, zeta_handle):
        # sigma_1 was a 29-call bisection on every thm1.5 and cor1.6 validation
        spec = zf.EnvelopeSpec.from_field(zf.constant_field(3.0 + 0.5j, shape=(16,)))
        cfg = flow_cfg(zeta_handle, lam=1)
        zf.validate_envelope_hypotheses(spec, "thm1.5", cfg)
        calls = []
        original = zf.special.riemann_zeta
        monkeypatch.setattr(zf.special, "riemann_zeta",
                            lambda *args: calls.append(args) or original(*args))
        zf.validate_envelope_hypotheses(spec, "thm1.5", cfg)
        zf.validate_envelope_hypotheses(spec, "cor1.6", cfg)
        assert calls == []

    def test_hypothesis_errors(self, zeta_handle):
        datum = zf.constant_field(1.5, shape=(16,))
        cfg = flow_cfg(zeta_handle, lam=1, t_end=0.1, dt_init=1e-3)
        run = zf.integrate_pde(datum, cfg)
        spec = zf.EnvelopeSpec.from_field(datum)
        with pytest.raises(zf.ConfigurationError):
            zf.envelope_check(run, spec, "thm1.5")

    def test_unknown_theorem(self, zeta_handle):
        datum = zf.constant_field(2.0, shape=(16,))
        cfg = flow_cfg(zeta_handle, lam=1, t_end=0.1, dt_init=1e-3)
        run = zf.integrate_pde(datum, cfg)
        with pytest.raises(zf.ConfigurationError):
            zf.envelope_check(run, zf.EnvelopeSpec.from_field(datum), "thm9.9")

    def test_real_only_checks_reject_complex_data(self, zeta_handle):
        datum = zf.fourier_field(2.0 + 0.5j, [(1, 0.1)], shape=(16,))
        spec = zf.EnvelopeSpec.from_field(datum)
        with pytest.raises(zf.ConfigurationError):
            zf.validate_envelope_hypotheses(spec, "thm1.7i", flow_cfg(zeta_handle, lam=1))

    def test_cell_boundary_rejected_for_limits(self, zeta_handle):
        vals = np.full(16, -4.0, dtype=complex)  # I = S = -4, a cell boundary
        spec = zf.EnvelopeSpec.from_field(zf.GridField(vals))
        with pytest.raises(zf.ConfigurationError):
            zf.validate_envelope_hypotheses(spec, "thm1.7iii", flow_cfg(zeta_handle, lam=1))


class TestStability:
    def test_disc_datum_properties(self):
        f = zf.disc_random_field(-2.0 + 0j, 0.05, seed=3, shape=(32,))
        dev = np.abs(f.values + 2.0)
        assert float(dev.max()) < 0.05
        assert abs(f.mean() + 2.0) < 1e-14

    def test_trivial_sink_attracts(self, zeta_handle):
        sink = zf.classify_zero(-2.0)
        datum = zf.disc_random_field(-2.0 + 0j, 0.05, seed=4, shape=(32,))
        cfg = flow_cfg(zeta_handle, lam=1, t_end=30.0, dt_init=0.02)
        rep = zf.stability_experiment(sink, 0.05, datum, cfg)
        assert rep.monotone_after_transient
        assert rep.shrinking_disc_ok
        assert rep.sup_final < 1e-4

    def test_datum_at_equilibrium_converges_immediately(self, zeta_handle):
        sink = zf.classify_zero(-2.0)
        datum = zf.constant_field(-2.0, shape=(16,))
        cfg = flow_cfg(zeta_handle, lam=1, t_end=1.0, dt_init=1e-2)
        rep = zf.stability_experiment(sink, 0.05, datum, cfg)
        assert rep.converged
        assert rep.convergence_time == 0.0

    def test_source_is_rejected(self):
        source = zf.classify_zero(-4.0)
        datum = zf.constant_field(-4.01, shape=(16,))
        cfg = flow_cfg(zf.zeta_function(), lam=1, t_end=1.0)
        with pytest.raises(zf.DomainError):
            zf.stability_experiment(source, 0.05, datum, cfg)

    def test_mislabeled_sink_raises_counterexample(self, zeta_handle):
        # a record claiming -4 is a sink: disc data are repelled, escape 2 delta
        fake = zf.ZeroRecord(location=-4.0 + 0j, deriv_re=-1.0, deriv_im=0.0,
                             kind="sink", residual=0.0)
        # mean offset 0.03 seeds the repelling direction; still inside the disc
        datum = zf.fourier_field(-4.0 + 0.03, [(1, 0.01)], shape=(32,))
        cfg = flow_cfg(zeta_handle, lam=1, t_end=400.0, dt_init=0.1)
        with pytest.raises(zf.CounterexampleError):
            zf.stability_experiment(fake, 0.05, datum, cfg)

    def test_stability_reads_lambda(self, zeta_handle, monkeypatch):
        # the sink test read the record's kind, which holds for lambda = +1
        # only: under lambda = -1 the sink -2 repels and the source -4 attracts
        monkeypatch.setattr(pm, "integrate_pde", lambda *a, **k: pytest.fail("marched"))
        cfg = flow_cfg(zeta_handle, lam=-1, t_end=1.0)
        with pytest.raises(zf.DomainError):
            zf.stability_experiment(zf.classify_zero(-2.0), 0.05,
                                    zf.constant_field(-2.01, shape=(16,)), cfg)

    def test_source_is_stable_for_focusing_flow(self, zeta_handle):
        source = zf.classify_zero(-4.0)
        cfg = flow_cfg(zeta_handle, lam=-1, t_end=1.0, dt_init=1e-2)
        rep = zf.stability_experiment(source, 0.05, zf.constant_field(-4.0, shape=(16,)), cfg)
        assert rep.converged and rep.convergence_time == 0.0

    def test_datum_outside_disc_rejected(self, zeta_handle):
        sink = zf.classify_zero(-2.0)
        datum = zf.constant_field(-2.2, shape=(16,))
        cfg = flow_cfg(zeta_handle, lam=1, t_end=1.0)
        with pytest.raises(zf.ConfigurationError):
            zf.stability_experiment(sink, 0.05, datum, cfg)


class TestLocalConstants:
    def test_positive_and_min_formula(self):
        c = zf.local_constants(4.0, 0.5, 1)
        assert min(c.z1, c.z2, c.m1, c.m2, c.t_local) > 0
        assert c.t_local == pytest.approx(
            min(1 / (2 * c.m2), 4.0 / (2 * c.m1), 0.5 / (4 * c.m1)))

    def test_horizon_nonincreasing_in_eps(self):
        a = zf.local_constants(4.0, 0.5, 1)
        b = zf.local_constants(4.0, 0.25, 1)
        assert b.t_local <= a.t_local

    def test_period_scaling_identity(self):
        c1 = zf.local_constants(2.0, 0.5, 1)
        c2 = zf.local_constants(2.0, 0.5, 2)
        assert c2.m1 / c1.m1 == pytest.approx(2 ** 3.0 * c2.z1 / c1.z1)

    def test_datum_constants(self):
        g = zf.constant_field(3.0, shape=(16,))
        c = zf.constants_for_datum(g, 1)
        assert c.beta == pytest.approx(6.0)
        assert c.eps == pytest.approx(2.0 / 3.0)

    def test_domain(self):
        with pytest.raises(zf.DomainError):
            zf.local_constants(0.0, 0.5, 1)
        with pytest.raises(zf.DomainError):
            zf.local_constants(1.0, 0.5, 0)


class TestPicard:
    def test_fixed_point(self, zeta_handle):
        g = zf.constant_field(-2.0, shape=(32,))
        consts = zf.constants_for_datum(g, 1)
        cfg = flow_cfg(zeta_handle, lam=1, t_end=consts.t_local,
                       dt_init=consts.t_local / 8)
        res = zf.picard_local_solve(g, consts, 4, cfg)
        assert np.max(np.abs(res.final.values + 2.0)) < 1e-14
        assert all(d < 1e-14 for d in res.distances)

    def test_contraction_and_etd_agreement(self, zeta_handle):
        g = zf.constant_field(3.0, shape=(32,))
        consts = zf.constants_for_datum(g, 1)
        cfg = flow_cfg(zeta_handle, lam=1, t_end=consts.t_local,
                       dt_init=consts.t_local / 16)
        res = zf.picard_local_solve(g, consts, 6, cfg)
        assert res.ratios and all(r <= 0.5 for r in res.ratios)
        etd = zf.integrate_pde(g, cfg)
        assert np.max(np.abs(res.final.values - etd.final.values)) < 1e-5

    def test_admissibility_checks(self, zeta_handle):
        small = zf.constants_for_datum(zf.constant_field(1.5, shape=(16,)), 1)
        big = zf.constant_field(4.0, shape=(16,))
        cfg = flow_cfg(zeta_handle, lam=1, t_end=small.t_local,
                       dt_init=small.t_local / 4)
        with pytest.raises(zf.ConfigurationError):
            zf.picard_local_solve(big, small, 3, cfg)


class TestDatumBuilders:
    def test_smooth_real_range_attained(self):
        f = zf.smooth_real_field(-7.5, -2.5, seed=0, shape=(64,))
        assert float(f.values.real.min()) == pytest.approx(-7.5)
        assert float(f.values.real.max()) == pytest.approx(-2.5)
        assert np.all(f.values.imag == 0.0)

    def test_determinism(self):
        a = zf.disc_random_field(-2 + 0j, 0.05, seed=7, shape=(32,))
        b = zf.disc_random_field(-2 + 0j, 0.05, seed=7, shape=(32,))
        assert np.array_equal(a.values, b.values)
        c = zf.disc_random_field(-2 + 0j, 0.05, seed=8, shape=(32,))
        assert not np.array_equal(a.values, c.values)

    def test_disc_radius_respected(self):
        for seed in range(5):
            f = zf.disc_random_field(0.5 + 21j, 0.02, seed=seed, shape=(32,))
            assert float(np.max(np.abs(f.values - (0.5 + 21j)))) < 0.02
