import math

import numpy as np
import pytest

import zetaflow as zf
import zetaflow.ode as om

import oracles


class StubHandle:
    """An L-function stand-in: F from ``f`` and F' from ``df``, with a zero estimate."""

    period = 1
    has_pole = False
    eval_cfg = zf.EvalConfig()

    def __init__(self, f, df=lambda s: 1.0):
        self.f, self.df = f, df

    def eval_point(self, s):
        return complex(self.f(complex(s)))

    def evaluate(self, s, deriv=False):
        s = np.asarray(s, dtype=complex)
        f = np.array([self.f(complex(z)) for z in s.ravel()], dtype=complex).reshape(s.shape)
        df = np.array([self.df(complex(z)) for z in s.ravel()], dtype=complex).reshape(s.shape)
        routes = np.zeros((1,) + s.shape, dtype=np.int8)
        return ((f, df) if deriv else f), np.zeros(s.shape), routes


def flow_cfg(zeta_handle, **kw):
    kw.setdefault("nonlinearity", zeta_handle)
    return zf.FlowConfig(**kw)


class TestFlowConfig:
    def test_lam_validation(self, zeta_handle):
        with pytest.raises(zf.DomainError):
            zf.FlowConfig(nonlinearity=zeta_handle, lam=2)

    def test_step_bounds(self, zeta_handle):
        for dt in (0.0, -1e-3):
            with pytest.raises(zf.DomainError):
                zf.FlowConfig(nonlinearity=zeta_handle, dt_init=dt)
        cfg = zf.FlowConfig(nonlinearity=zeta_handle, t_end=1.0)
        with pytest.raises(zf.DomainError):
            zf.integrate_flow(cfg, 2.0, rtol=0.0)
        with pytest.raises(zf.DomainError):
            zf.integrate_flow(cfg, 2.0, atol=-1e-9)

    def test_guard_positive(self, zeta_handle):
        with pytest.raises(zf.DomainError):
            zf.FlowConfig(nonlinearity=zeta_handle, pole_guard_eps=0.0)


class TestIntegrateFlow:
    def test_equilibria_fixed(self, zeta_handle):
        for k in range(1, 7):
            cfg = flow_cfg(zeta_handle, lam=1, t_end=50.0)
            res = zf.integrate_flow(cfg, -2.0 * k)
            assert max(abs(z + 2.0 * k) for z in res.states) < 1e-8

    def test_defocusing_cell_converges_to_center(self, zeta_handle):
        # start in (-4, 0): increasing toward the stable zero -2
        cfg = flow_cfg(zeta_handle, lam=1, t_end=400.0)
        res = zf.integrate_flow(cfg, -3.0)
        assert res.termination == "completed"
        assert abs(res.final_state + 2.0) < 1e-3
        xs = np.array([z.real for z in res.states])
        assert np.all(np.diff(xs) > 0)           # strictly monotone increasing
        assert np.all((xs > -4.0) & (xs < 0.0))  # never leaves the open cell
        assert max(abs(z.imag) for z in res.states) < 1e-10

    def test_defocusing_upper_half_cell_decreases(self, zeta_handle):
        cfg = flow_cfg(zeta_handle, lam=1, t_end=150.0)
        res = zf.integrate_flow(cfg, -1.0)
        xs = np.array([z.real for z in res.states])
        assert np.all(np.diff(xs) < 0)
        assert np.all((xs > -2.0) & (xs < 0.0))

    def test_focusing_converges_to_even_zero(self, zeta_handle):
        # lam = -1 from (-6, -2): decreasing toward -4
        cfg = flow_cfg(zeta_handle, lam=-1, t_end=1500.0)
        res = zf.integrate_flow(cfg, -3.0)
        assert abs(res.final_state + 4.0) < 1e-3
        xs = np.array([z.real for z in res.states])
        assert np.all(np.diff(xs) < 0)
        assert np.all((xs > -6.0) & (xs < -2.0))

    def test_equilibrium_exact_constant(self, zeta_handle):
        cfg = flow_cfg(zeta_handle, lam=1, t_end=10.0)
        res = zf.integrate_flow(cfg, -4.0)
        assert max(abs(z + 4.0) for z in res.states) < 1e-10

    def test_pole_guard_precondition(self, zeta_handle):
        cfg = flow_cfg(zeta_handle, lam=1, t_end=1.0)
        with pytest.raises(zf.DomainError):
            zf.integrate_flow(cfg, 1.0 + 5e-4)

    def test_pole_proximity_termination(self, zeta_handle):
        cfg = flow_cfg(zeta_handle, lam=-1, t_end=10.0)
        res = zf.integrate_flow(cfg, 1.5)
        assert res.termination == "pole_proximity"
        assert om.pole_distance(res.final_state) < 2e-3

    def test_norm_escape_guard(self, zeta_handle, monkeypatch):
        monkeypatch.setattr(om, "NORM_ESCAPE_LIMIT", 3.0)
        cfg = flow_cfg(zeta_handle, lam=1, t_end=10.0)
        res = zf.integrate_flow(cfg, 2.0)
        assert res.termination == "norm_escape"
        assert abs(res.final_state) > 3.0

    def test_chi4_convergence_classified_with_its_own_l(self, chi4):
        # the flow's zero is one of L(s, chi4), where |zeta| = 0.91, so it
        # must be located and classified with the flow's nonlinearity
        mpmath = pytest.importorskip("mpmath")
        cfg = zf.FlowConfig(nonlinearity=zf.l_function(chi4), lam=-1, t_end=400.0)
        res = zf.integrate_flow(cfg, 0.5 + 6.020948904697597j + 0.03, atol=1e-6)
        assert res.termination == "converged"
        rec = res.converged_to
        assert rec is not None
        with mpmath.workdps(30):
            root = complex(mpmath.findroot(
                lambda z: mpmath.zeta(z, 0.25) - mpmath.zeta(z, 0.75),
                mpmath.mpc(rec.location.real, rec.location.imag)))
        deriv = oracles.mp_l(mpmath, chi4.values, root, deriv=1)
        assert abs(rec.location - root) < 1e-6
        assert rec.kind == ("sink" if deriv.real < 0 else "source")
        assert abs(rec.deriv_re - deriv.real) < 1e-8

    def test_converged_termination_reports_zero(self, zeta_handle):
        cfg = flow_cfg(zeta_handle, lam=1, t_end=600.0)
        res = zf.integrate_flow(cfg, -2.5, atol=1e-6)
        assert res.termination == "converged"
        assert res.converged_to is not None
        assert res.converged_to.kind == "trivial_sink"
        assert abs(res.converged_to.location + 2.0) < 1e-8

    def test_stiffness_error(self, zeta_handle):
        cfg = flow_cfg(zeta_handle, lam=-1, t_end=10.0, pole_guard_eps=1e-13)
        with pytest.raises(zf.StiffnessError) as err:
            zf.integrate_flow(cfg, 1.5)
        assert err.value.last_state.real > 1.0

    def test_checkpoints_hit_exactly(self, zeta_handle):
        cfg = flow_cfg(zeta_handle, lam=1, t_end=1.0)
        marks = [0.125, 0.25, 0.7]
        res = zf.integrate_flow(cfg, 2.0, record_at=marks)
        assert sorted(res.checkpoint_states) == marks
        for t in marks:
            assert t in res.times

    def test_repeated_checkpoint_is_landed_on_once(self, zeta_handle):
        # a repeated time once took a zero-length step, whose floored error
        # norm grew the next step six-fold: 26 samples instead of 24
        cfg = flow_cfg(zeta_handle, lam=1, t_end=2.0)
        once = zf.integrate_flow(cfg, 2.0, record_at=[0.5, 1.0])
        twice = zf.integrate_flow(cfg, 2.0, record_at=[0.5, 0.5, 1.0])
        assert twice.times == once.times and twice.states == once.states
        assert twice.checkpoint_states == once.checkpoint_states

    @pytest.mark.parametrize("outside", [complex("nan"), 1e308], ids=["nan-stage", "inf-stage"])
    def test_non_finite_stage_rejects_the_step(self, outside):
        # F = -s on |s| < 2: the first step, dt = 5, puts a stage at -15, where
        # F (nan) or the next stage (1e308 times a tableau weight) is not
        # finite; the step is rejected and the run goes on, from smaller steps
        visits = []

        def f(s):
            if abs(s) < 2.0:
                return -s
            visits.append(s)
            return outside
        cfg = zf.FlowConfig(nonlinearity=StubHandle(f), lam=1, t_end=5.0, dt_init=5.0)
        res = zf.integrate_flow(cfg, 1.0)
        assert visits and res.termination == "completed"
        assert abs(res.final_state - math.exp(-5.0)) < 1e-7

    def test_zero_horizon(self, zeta_handle):
        cfg = flow_cfg(zeta_handle, lam=1, t_end=0.0)
        res = zf.integrate_flow(cfg, 2.0)
        assert res.termination == "completed"
        assert res.times == [0.0]


class TestClassifyZero:
    def test_trivial_alternation(self):
        for k in range(1, 7):
            rec = zf.classify_zero(-2.0 * k)
            expected = "trivial_sink" if k % 2 == 1 else "trivial_source"
            assert rec.kind == expected
            assert rec.residual < 1e-8
            assert (rec.deriv_re < 0) == (k % 2 == 1)

    def test_deriv_value_matches_formula(self):
        rec = zf.classify_zero(-2.0)
        expected = oracles.trivial_zero_deriv(1, lambda s: zf.riemann_zeta(s))
        assert abs(rec.deriv_re - expected) < 1e-9

    def test_first_zero_is_source(self):
        rec = zf.classify_zero(0.5 + 14.1347j)  # 4-decimal seed is admissible
        assert rec.kind == "source"
        assert rec.residual < 1e-8
        assert abs(rec.location - (0.5 + 14.134725141734693j)) < 1e-9

    def test_residual_above_the_limit_is_an_accuracy_error(self):
        # |F| = 1e-6 admits the seed, and two refinement steps leave it there
        with pytest.raises(zf.AccuracyError, match="residual above 1e-8"):
            om._classify(StubHandle(lambda s: 1e-6), 0.5 + 14.0j)

    def test_vanishing_re_derivative_is_degenerate(self):
        with pytest.raises(zf.DegenerateZeroError, match="sink/source undecidable"):
            om._classify(StubHandle(lambda s: 1e-13, lambda s: 1e-11 + 1.0j), 0.5 + 14.0j)

    def test_rejects_non_zero(self):
        with pytest.raises(zf.DomainError):
            zf.classify_zero(0.3)

    def test_conjugate_classification_matches(self, zeros_to_100):
        for rec in zeros_to_100.records[:3]:
            mirror = zf.classify_zero(rec.location.conjugate())
            assert mirror.kind == rec.kind
            assert abs(mirror.deriv_re - rec.deriv_re) < 1e-9


@pytest.fixture(scope="module")
def census_290():
    return zf.find_critical_zeros(290.0)


class TestZeroCensus:
    def test_window_to_15(self):
        scan = zf.find_critical_zeros(15.0)
        assert len(scan.records) == 1
        assert not scan.skipped
        rec = scan.records[0]
        assert abs(rec.location - (0.5 + 14.13j)) < 0.01
        assert rec.kind == "source"

    def test_empty_window(self):
        assert zf.find_critical_zeros(0.0).records == []

    def test_cap_enforced(self):
        with pytest.raises(zf.DomainError):
            zf.find_critical_zeros(400.0)

    def test_zero_just_below_t_max_is_found(self):
        # the zero at 284.83596 lies 0.003 below t_max, less than one scan
        # step, so the scan must reach past t_max to seed it
        scan = zf.find_critical_zeros(284.8392528693265)
        assert abs(scan.records[-1].location - (0.5 + 284.83596j)) < 1e-5
        assert all(r.location.imag <= 284.8392528693265 for r in scan.records)

    def test_census_to_100(self, zeros_to_100):
        records = zeros_to_100.records
        assert len(records) == 29
        assert not zeros_to_100.skipped
        ims = [r.location.imag for r in records]
        assert ims == sorted(ims)
        assert all(abs(r.location.real - 0.5) < 1e-9 for r in records)
        assert all(r.residual < 1e-8 for r in records)

    def test_census_to_100_at_abs_tol_1e_11(self):
        # each zero's estimates meet abs_tol 1e-11: all 29 found, none skipped
        # (at 1e-12 the counted rounding still skips every seed)
        scan = zf.find_critical_zeros(100.0, zf.EvalConfig(abs_tol=1e-11))
        assert len(scan.records) == 29
        assert not scan.skipped

    def test_census_to_290_matches_mpmath(self, census_290):
        # mpmath counts 132 zeros with 0 < t <= 290 (nzeros), and each census
        # zero lies within 1e-9 of one by the Newton correction zeta/zeta' at
        # 30 digits; so the census holds zetazero(1..132), in order
        mpmath = pytest.importorskip("mpmath")
        records = census_290.records
        assert not census_290.skipped
        assert len(records) == mpmath.nzeros(290) == 132
        ims = [r.location.imag for r in records]
        assert all(b - a > 1e-3 for a, b in zip(ims, ims[1:]))
        for rec in records:
            value = oracles.mp_zeta(mpmath, rec.location, 1.0)
            deriv = oracles.mp_zeta(mpmath, rec.location, 1.0, deriv=1)
            assert abs(value / deriv) < 1e-9
            assert rec.kind == ("sink" if deriv.real < 0 else "source")

    def test_classify_zero_agrees_with_census(self, census_290):
        for rec in census_290.records:
            alone = zf.classify_zero(rec.location)
            assert abs(alone.location - rec.location) < 1e-12
            assert abs(alone.deriv_re - rec.deriv_re) < 1e-9
            assert alone.kind == rec.kind

    def test_failing_seeds_leave_the_others_unchanged(self):
        # at 3 and 4+1i the Newton step zeta/zeta' is longer than 2
        good = [0.5 + 14.15j, 0.5 + 21.0j, 0.5 + 25.0j, 0.5 + 30.45j, 0.5 + 32.95j]
        bad = [3.0 + 0.0j, 4.0 + 1.0j]
        alone = om._census(np.array(good), 40.0, zf.EvalConfig())
        mixed = om._census(np.array(good[:2] + bad[:1] + good[2:] + bad[1:]), 40.0,
                           zf.EvalConfig())
        assert not alone.skipped and len(alone.records) == len(good)
        assert [s.t_seed for s in mixed.skipped] == [0.0, 1.0]
        assert all("rejected at s=" in s.reason for s in mixed.skipped)
        for a, b in zip(alone.records, mixed.records, strict=True):
            assert abs(a.location - b.location) < 1e-12
            assert a.kind == b.kind

    def test_rejected_estimate_skips_the_seed(self):
        # at abs_tol 1e-14 no estimate on the line is accepted: each seed is
        # skipped, naming its point and route, and the census still returns
        scan = zf.find_critical_zeros(40.0, zf.EvalConfig(abs_tol=1e-14))
        assert scan.records == []
        assert len(scan.skipped) == len(zf.find_critical_zeros(40.0).records) == 6
        first = scan.skipped[0]
        assert abs(first.t_seed - 14.15) < 1e-9
        assert "exceeds abs_tol 1.0e-14 at s=(0.5+14.15" in first.reason
        assert all("(route " in s.reason for s in scan.skipped)

    def test_one_router_call_per_iteration(self, monkeypatch):
        calls = []
        router = om.special.hurwitz_split_many

        def counted(s, *args, **kwargs):
            calls.append(np.size(s))
            return router(s, *args, **kwargs)

        monkeypatch.setattr(om.special, "hurwitz_split_many", counted)
        scan = zf.find_critical_zeros(290.0)
        assert len(scan.records) == 132
        assert 0 < len(calls) <= 12

    def test_box_count_matches_census(self, zeros_to_100):
        count = zf.count_zeros_box(-1e-3, 1.0 + 1e-3, 1e-3, 100.0 + 1e-3)
        assert count == len(zeros_to_100.records) == 29

    def test_box_count_small_windows(self):
        assert zf.count_zeros_box(-1e-3, 1.001, 1e-3, 15.001) == 1
        assert zf.count_zeros_box(-1e-3, 1.001, 1e-3, 30.001) == 3

    @pytest.mark.parametrize("box, want", [((-26.5, -25.5, -0.5, 0.5), 1),
                                           ((-60.5, -59.5, -0.5, 0.5), 1),
                                           ((-5.5, -0.5, -1.0, 1.0), 2)])
    def test_box_count_around_trivial_zeros(self, box, want):
        # left of Re s = -3 the router reflects; Euler-Maclaurin alone found
        # no remainder bound at Re s <= -25
        assert zf.count_zeros_box(*box) == want

    def test_box_count_evaluates_each_level_once(self, monkeypatch):
        # nested grids: the first level and each halving are one router call each
        calls = []
        router = om.special.hurwitz_split_many

        def counted(s, *args, **kwargs):
            calls.append(np.size(s))
            return router(s, *args, **kwargs)

        monkeypatch.setattr(om.special, "hurwitz_split_many", counted)
        assert zf.count_zeros_box(-1e-3, 1.001, 1e-3, 30.001) == 3
        assert calls == [2 * 97 + 2 * 481, 2 * 96 + 2 * 480]

    def test_second_seed_on_a_found_zero_is_dropped(self):
        # both seeds converge on the zero at 14.1347: one record, no skip
        scan = om._census(np.array([0.5 + 14.10j, 0.5 + 14.17j]), 40.0, zf.EvalConfig())
        assert scan.skipped == []
        (rec,) = scan.records
        assert abs(rec.location - (0.5 + 14.134725141734693j)) < 1e-9

    @pytest.mark.parametrize("box", [(0.0, 0.0, 1.0, 2.0), (0.0, 1.0, 2.0, 2.0),
                                     (1.0, 0.0, 1.0, 2.0)])
    def test_degenerate_box_is_a_domain_error(self, box):
        with pytest.raises(zf.DomainError, match="degenerate box"):
            zf.count_zeros_box(*box)

    def test_box_must_exclude_pole(self):
        with pytest.raises(zf.DomainError):
            zf.count_zeros_box(0.0, 2.0, -1.0, 1.0)

    def test_pole_on_the_boundary(self):
        # a node at s = 1 turned the winding into NaN; (s - 1) zeta(s) is 1 there
        assert zf.count_zeros_box(0.0, 2.0, 0.0, 15.0) == 1
        assert zf.count_zeros_box(1.0, 2.0, -1.0, 1.0) == 0


class TestSinkProportion:
    def test_empty(self):
        assert zf.sink_proportion([]) == []

    def test_single_source(self):
        rec = zf.classify_zero(0.5 + 14.1347j)
        assert zf.sink_proportion([rec]) == [(1, 0.0)]

    def test_running_proportions(self):
        def fake(kind):
            return zf.ZeroRecord(location=0.5 + 20j, deriv_re=-1.0 if "sink" in kind else 1.0,
                                 deriv_im=0.0, kind=kind, residual=0.0)
        seq = [fake("source"), fake("sink"), fake("sink"), fake("source")]
        assert zf.sink_proportion(seq) == [(1, 0.0), (2, 0.5), (3, 2 / 3), (4, 0.5)]


class TestSerialization:
    def test_trajectory_csv(self, zeta_handle):
        cfg = flow_cfg(zeta_handle, lam=1, t_end=0.1)
        res = zf.integrate_flow(cfg, 2.0)
        lines = list(om.trajectory_csv_lines(res))
        assert lines[0] == "t,re,im"
        assert lines[1].startswith("0,2")
        assert len(lines) == len(res.times) + 1

    def test_zero_record_dict(self):
        rec = zf.classify_zero(-2.0)
        doc = om.zero_record_to_dict(rec)
        assert doc["kind"] == "trivial_sink"
        assert doc["location"]["im"] == 0.0
        assert doc["deriv_re"] == rec.deriv_re
