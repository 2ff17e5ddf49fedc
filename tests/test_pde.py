import dataclasses
import math

import numpy as np
import pytest

import zetaflow as zf
import zetaflow.pde as pm


def flow_cfg(handle, **kw):
    kw.setdefault("nonlinearity", handle)
    return zf.FlowConfig(**kw)


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

    @pytest.mark.parametrize("shape,dt", [((32,), 0.04), ((32,), 0.02), ((16, 16), 1e-3)])
    def test_cached_multipliers_bitwise(self, zeta_handle, shape, dt):
        # the step with multipliers recomputed from scratch is the reference
        cfg = flow_cfg(zeta_handle, lam=1)
        f = zf.disc_random_field(-2.0 + 0.5j, 0.05, seed=3, shape=shape)
        z = dt * pm._laplacian_eigs(shape, f.length)
        nu = zeta_handle.eval_many(f.values)
        ahat = np.exp(z) * np.fft.fftn(f.values) + dt * pm._phi1(z) * np.fft.fftn(nu)
        a = np.fft.ifftn(ahat)
        ref = np.fft.ifftn(ahat + dt * pm._phi2(z) * np.fft.fftn(zeta_handle.eval_many(a) - nu))
        for _ in range(2):  # the first call fills the cache, the second reads it
            got = zf.etd_step(f, dt, cfg).values
            assert np.array_equal(got.view(float), ref.view(float))
        assert not any(m.flags.writeable for m in pm._etd_multipliers(shape, f.length, dt))

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


class TestEnvelopeCheck:
    def test_real_growth_envelope(self, zeta_handle):
        datum = zf.constant_field(2.0, shape=(32,))
        cfg = flow_cfg(zeta_handle, lam=1, t_end=2.0, dt_init=2e-3)
        run = zf.integrate_pde(datum, cfg, estimate_error=True)
        report = zf.envelope_check(run, zf.EnvelopeSpec.from_field(datum), "thm1.7i")
        assert report.passed
        assert report.worst_margin >= -report.slack
        assert set(report.bounds) == {"lower", "upper", "imag_confined"}

    @pytest.mark.parametrize("imag, passed", [(0.5e-6, True), (1.5e-6, False)])
    def test_imag_confined_counts_the_slack_once(self, zeta_handle, imag, passed):
        # the margin was slack - max|Im u|, checked against -slack, so
        # |Im u| up to twice the slack of 1e-6 passed
        datum = zf.constant_field(2.0, shape=(16,))
        cfg = flow_cfg(zeta_handle, lam=1, t_end=0.1, dt_init=1e-2)
        run = zf.integrate_pde(datum, cfg)
        run = dataclasses.replace(run, error_estimate=None,
                                  snapshots=[snap + 1j * imag for snap in run.snapshots])
        report = zf.envelope_check(run, zf.EnvelopeSpec.from_field(datum), "thm1.7i")
        assert report.slack == 1e-6
        assert report.bounds["imag_confined"] == pytest.approx(-imag, rel=1e-12)
        assert report.passed is passed

    def test_complex_growth_envelope(self, zeta_handle):
        datum = zf.fourier_field(2.1 + 0.2j, [(1, 0.1 + 0.05j)], shape=(32,))
        cfg = flow_cfg(zeta_handle, lam=1, t_end=1.0, dt_init=2e-3)
        run = zf.integrate_pde(datum, cfg, estimate_error=True)
        report = zf.envelope_check(run, zf.EnvelopeSpec.from_field(datum), "thm1.5")
        assert report.passed

    def test_real_character_keeps_upper_half_plane(self, chi4):
        handle = zf.l_function(chi4)
        datum = zf.fourier_field(2.2 + 0.5j, [(1, 0.08 + 0.06j)], shape=(32,))
        cfg = flow_cfg(handle, lam=1, t_end=1.0, dt_init=2e-3)
        run = zf.integrate_pde(datum, cfg, estimate_error=True)
        report = zf.envelope_check(run, zf.EnvelopeSpec.from_field(datum), "cor1.6")
        assert report.passed
        assert "im_positive" in report.bounds

    def test_lattice_confinement(self, zeta_handle):
        datum = zf.smooth_real_field(-7.4, -2.6, seed=4, shape=(32,))
        cfg = flow_cfg(zeta_handle, lam=1, t_end=3.0, dt_init=0.01)
        run = zf.integrate_pde(datum, cfg, estimate_error=True)
        spec = zf.EnvelopeSpec.from_field(datum)
        report = zf.envelope_check(run, spec, "thm1.7ii")
        assert report.passed

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
            zf.validate_envelope_hypotheses(spec, "thm1.7i")

    def test_cell_boundary_rejected_for_limits(self):
        vals = np.full(16, -4.0, dtype=complex)  # I = S = -4, a cell boundary
        spec = zf.EnvelopeSpec.from_field(zf.GridField(vals))
        with pytest.raises(zf.ConfigurationError):
            zf.validate_envelope_hypotheses(spec, "thm1.7iii")


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
