"""Acceptance suite: every headline behavior, one pass/fail line per criterion.

Run with ``pytest tests/test_acceptance.py -s`` to see the lines as they
print.  Shared heavy computations (the critical-line census) are session
fixtures.  Criteria with stated runtime budgets assert wall time as well.
"""

import math
import time

import numpy as np
import pytest

import zetaflow as zf

import oracles


def report(name: str, ok: bool, detail: str = "") -> bool:
    print(f"criterion {name}: {'PASS' if ok else 'FAIL'}  {detail}")
    return ok


@pytest.fixture(scope="module")
def zeta_cfg():
    return zf.zeta_function()


@pytest.fixture(scope="module")
def sink_scan():
    """Census out to t = 290, far enough to contain the first sinks."""
    return zf.find_critical_zeros(290.0)


def test_criterion_01_zeta_values(zeta_cfg):
    t0 = time.perf_counter()
    basel_err = abs(zf.riemann_zeta(2.0) - math.pi ** 2 / 6)
    trivial_errs = [abs(zf.riemann_zeta(-2.0 * k)) for k in range(1, 5)]
    elapsed = time.perf_counter() - t0
    ok = basel_err < 1e-9 and all(e < 1e-8 for e in trivial_errs) and elapsed < 1.0
    assert report("1 (zeta values)", ok,
                  f"|zeta(2)-pi^2/6|={basel_err:.1e}, trivial zeros "
                  f"max {max(trivial_errs):.1e}, {elapsed:.2f}s")


def test_criterion_02a_sigma1_root():
    t0 = time.perf_counter()
    s1 = zf.sigma1_root()
    elapsed = time.perf_counter() - t0
    ok = 1.70 <= s1 <= 1.74 and elapsed < 60.0
    assert report("2a (sigma1 root)", ok, f"sigma1={s1:.6f}, {elapsed:.1f}s")


def test_criterion_02b_sigma0_window(zeta_cfg):
    # Re zeta(sigma + it) has no sign change with sigma >= 1 and |t| <= 500
    # (min Re zeta(1 + it) there is ~0.272, near t = 110.8), so the scan must
    # report sigma_lo with attained=False: a lower estimate, truncated to the
    # window, of the abscissa sigma0 ~ 1.19235 (the root of
    # sum_p arcsin(p^-sigma) = pi/2, van de Lune 1983).
    t0 = time.perf_counter()
    res = zf.sigma0_estimate(zeta_cfg, 1.0, 1.3, 500.0)
    elapsed = time.perf_counter() - t0
    ok = (not res.attained and res.sigma == 1.0 and res.t_hit is None
          and res.sigma <= 1.19235 and elapsed < 60.0)
    assert report("2b (sigma0 window estimate)", ok,
                  f"estimate={res.sigma:.4f}, attained={res.attained}, "
                  f"t_hit={res.t_hit}, {elapsed:.1f}s; no sign change of "
                  "Re zeta with sigma >= 1 and |t| <= 500, lower estimate of "
                  "sigma0 ~ 1.19235")


def test_criterion_03_first_zero_and_count(zeros_to_100):
    t0 = time.perf_counter()
    records = zeros_to_100.records
    first = records[0]
    oracle_count = zf.count_zeros_box(-1e-3, 1.0 + 1e-3, 1e-3, 100.0 + 1e-3)
    elapsed = time.perf_counter() - t0
    ok = (abs(first.location - (0.5 + 14.13j)) <= 0.01
          and first.kind == "source"
          and len(records) == oracle_count == 29
          and elapsed < 300.0)
    assert report("3 (first zero + census)", ok,
                  f"first={first.location:.6f} ({first.kind}), "
                  f"count={len(records)}, oracle={oracle_count}, {elapsed:.1f}s")


def test_criterion_04_trivial_alternation():
    kinds = [zf.classify_zero(-2.0 * k).kind for k in range(1, 7)]
    expected = ["trivial_sink" if k % 2 else "trivial_source" for k in range(1, 7)]
    z3, bound = oracles.zeta_series_brute(3.0, 400_000)
    formula = -z3.real / (4.0 * math.pi ** 2)
    deriv_err = abs(zf.classify_zero(-2.0).deriv_re - formula)
    ok = kinds == expected and deriv_err < 1e-6 + bound
    assert report("4 (trivial alternation)", ok,
                  f"kinds={['/'.join(k.split('_')) for k in kinds]}, "
                  f"|Re zeta'(-2) - formula|={deriv_err:.1e}")


def test_criterion_05_pde_ode_reduction(zeta_cfg):
    pde_cfg = zf.FlowConfig(nonlinearity=zeta_cfg, lam=1, t_end=1.0, dt_init=2.5e-4)
    run = zf.integrate_pde(zf.constant_field(2.0, shape=(32,)), pde_cfg)
    ode_cfg = zf.FlowConfig(nonlinearity=zeta_cfg, lam=1, t_end=1.0)
    res = zf.integrate_flow(ode_cfg, 2.0, record_at=run.snapshot_times,
                            rtol=1e-11, atol=1e-12)
    worst = max(float(np.max(np.abs(snap - res.checkpoint_states[t])))
                for t, snap in zip(run.snapshot_times, run.snapshots) if t > 0)
    ok = worst < 1e-6
    assert report("5 (PDE/ODE reduction)", ok, f"sup diff {worst:.2e}")


def test_criterion_06_growth_envelope(zeta_cfg):
    datum = zf.constant_field(3.0, shape=(32,))
    cfg = zf.FlowConfig(nonlinearity=zeta_cfg, lam=1, t_end=5.0, dt_init=2e-3)
    run = zf.integrate_pde(datum, cfg, estimate_error=True)
    rep = zf.envelope_check(run, zf.EnvelopeSpec.from_field(datum), "thm1.7i")
    ok = rep.passed and run.termination == "completed"
    assert report("6 (affine growth envelope)", ok,
                  f"worst margin {rep.worst_margin:.2e}, slack {rep.slack:.1e}")


def test_criterion_07_real_line_confinement(zeta_cfg):
    rng = np.random.default_rng(20260809)
    worst_outside = 0.0
    final_gap = 0.0
    for seed in range(10):
        vmin = float(rng.uniform(-7.45, -6.5))
        vmax = float(rng.uniform(-3.5, -2.55))
        datum = zf.smooth_real_field(vmin, vmax, seed=seed, shape=(32,))
        cfg = zf.FlowConfig(nonlinearity=zeta_cfg, lam=1, t_end=100.0, dt_init=0.04)
        run = zf.integrate_pde(datum, cfg)
        assert run.termination == "completed"
        worst_outside = max(worst_outside,
                            -8.0 - float(run.monitors.re_min.min()),
                            float(run.monitors.re_max.max()) + 2.0)
        fin = run.final.values.real
        final_gap = max(final_gap, -6.0 - float(fin.min()), float(fin.max()) + 2.0)
    confinement_ok = worst_outside <= 1e-6
    endpoint_ok = final_gap <= 1e-3
    # single-cell data converge to the cell midpoint -4n + 2
    cell_gap = 0.0
    for seed in (101, 102, 103):
        datum = zf.smooth_real_field(-3.4, -0.7, seed=seed, shape=(32,))
        cfg = zf.FlowConfig(nonlinearity=zeta_cfg, lam=1, t_end=400.0, dt_init=0.05)
        run = zf.integrate_pde(datum, cfg)
        cell_gap = max(cell_gap, float(np.max(np.abs(run.final.values.real + 2.0))))
    cell_ok = cell_gap <= 1e-3
    ok = confinement_ok and endpoint_ok and cell_ok
    assert report("7 (real-line confinement + limits)", ok,
                  f"barrier overshoot {worst_outside:.1e}, final gap to [-6,-2] "
                  f"{final_gap:.1e}, single-cell gap {cell_gap:.1e}")


def test_criterion_08_sink_stability(zeta_cfg, sink_scan):
    # twenty seeded disc data around the trivial sink -2
    worst = 0.0
    for seed in range(20):
        datum = zf.disc_random_field(-2.0 + 0j, 0.05, seed=seed, shape=(32,))
        cfg = zf.FlowConfig(nonlinearity=zeta_cfg, lam=1, t_end=100.0, dt_init=0.04)
        run = zf.integrate_pde(datum, cfg, track_target=-2.0 + 0j)
        worst = max(worst, float(run.monitors.sup_dist[-1]))
    trivial_ok = worst < 1e-6
    # one critical-line sink, found and classified in-house, attracts disc data
    sinks = [r for r in sink_scan.records if r.kind == "sink"]
    assert sinks, "no critical-line sink found in the census window"
    sink = sinks[0]
    datum = zf.disc_random_field(sink.location, 0.02, seed=77, shape=(32,))
    cfg = zf.FlowConfig(nonlinearity=zeta_cfg, lam=1, t_end=120.0, dt_init=0.02)
    rep = zf.stability_experiment(sink, 0.02, datum, cfg)
    sink_ok = rep.converged and rep.monotone_after_transient
    ok = trivial_ok and sink_ok
    assert report("8 (asymptotic stability)", ok,
                  f"worst sup|u+2| at t=100: {worst:.2e}; critical sink at "
                  f"{sink.location:.4f} (Re zeta'={sink.deriv_re:.4f}) converged "
                  f"at t={rep.convergence_time}")


def test_criterion_09_quench_and_global(zeta_cfg):
    times = {}
    for c0 in (0.5, 2.0):
        cfg = zf.FlowConfig(nonlinearity=zeta_cfg, lam=-1, t_end=10.0, dt_init=1e-3)
        run = zf.integrate_pde(zf.constant_field(c0, shape=(32,)), cfg)
        ok_run = run.termination == "quenched" and run.quench.min_p < 1e-3
        times[c0] = run.quench.time if ok_run else None
        assert ok_run, f"g={c0} did not quench"
    datum = zf.smooth_real_field(-5.5, -2.8, seed=13, shape=(32,))
    cfg = zf.FlowConfig(nonlinearity=zeta_cfg, lam=-1, t_end=50.0, dt_init=5e-3)
    run = zf.integrate_pde(datum, cfg)
    global_ok = run.termination == "completed"
    ok = global_ok and all(t is not None for t in times.values())
    assert report("9 (focusing quench / global)", ok,
                  f"quench times {times}, S<-2 run: {run.termination}")


def test_criterion_10_picard_vs_etd(zeta_cfg):
    g = zf.constant_field(3.0, shape=(32,))
    consts = zf.constants_for_datum(g, 1)
    cfg = zf.FlowConfig(nonlinearity=zeta_cfg, lam=1, t_end=consts.t_local,
                        dt_init=consts.t_local / 16.0)
    res = zf.picard_local_solve(g, consts, 6, cfg)
    etd = zf.integrate_pde(g, cfg)
    dev = float(np.max(np.abs(res.final.values - etd.final.values)))
    ratios_ok = bool(res.ratios) and all(r <= 0.5 for r in res.ratios)
    ok = ratios_ok and dev < 1e-5
    assert report("10 (Picard/ETD cross-validation)", ok,
                  f"t_local={consts.t_local:.3g}, ratios "
                  f"{[f'{r:.2g}' for r in res.ratios]}, deviation {dev:.2e}")


def test_criterion_11_bound_suite():
    cheap = zf.EvalConfig(abs_tol=1e-8)
    grid = np.linspace(-2.0, 2.0, 41)
    sup_ok = True
    details = []
    for alpha in (0.25, 0.5, 1.0):
        h1 = zf.bound_constants(alpha, 2.0).h1
        sup = max(abs(zf.hermite_h(complex(x, y), alpha, cheap))
                  for x in grid for y in grid)
        details.append(f"alpha={alpha}: sup|h|={sup:.2f} <= H1={h1:.1f}")
        sup_ok = sup_ok and sup <= h1
    fp_ok = True
    for r in (0.5, 1.0, 2.0):
        edge = np.linspace(-r, r, 201)
        border = np.concatenate([edge + 1j * r, edge - 1j * r,
                                 r + 1j * edge, -r + 1j * edge])
        fp_ok = fp_ok and float(np.max(np.abs(zf.expm1_over_deriv(border)))) \
            <= zf.f_prime_sup_bound(r)
    h1s = [zf.bound_constants(a, 2.0).h1 for a in np.linspace(0.1, 1.0, 10)]
    mono_ok = all(x >= y - 1e-12 for x, y in zip(h1s, h1s[1:]))
    ok = sup_ok and fp_ok and mono_ok
    assert report("11 (bound suite)", ok, "; ".join(details))


def test_criterion_12_sink_proportion(zeros_to_100, tmp_path):
    records = zeros_to_100.records
    series = zf.sink_proportion(records)
    path = tmp_path / "pn.csv"
    path.write_text("n,p_n\n" + "\n".join(f"{n},{p:.17g}" for n, p in series) + "\n")
    p29 = series[-1][1]
    # desk scale stops at the first 29 zeros; the 10000-zero proportion curves
    # are intentionally not reproduced here
    ok = len(series) == 29 and p29 < 0.5 and path.exists()
    assert report("12 (sink proportion)", ok,
                  f"P_29={p29:.4f} (sinks are a strict minority)")
