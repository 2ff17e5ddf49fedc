import math

import numpy as np
import pytest

import zetaflow as zf
from zetaflow import special as sp
from zetaflow.special import DEFAULT_CONFIG as CFG

import oracles

RHO1 = 0.5 + 14.134725141734693j  # first critical-line zero (standard value)


def _em_one(pts, alpha, tol=1e-12, want_deriv=False):
    """euler_maclaurin_split for the one a ``alpha``, its arrays shaped like ``pts``."""
    reg, dreg, est = sp.euler_maclaurin_split(pts, (alpha,), tol, want_deriv)
    return reg[0], None if dreg is None else dreg[0], est[0]


def _order(values, deriv):
    """R, or R' of the pair (R, R') that a router call with ``deriv`` returns."""
    return values[1] if deriv else values


class TestEvalConfig:
    def test_defaults_valid(self):
        assert CFG.abs_tol == 1e-10
        assert CFG.split_tol == 1e-12

    @pytest.mark.parametrize("kwargs", [
        {"abs_tol": 0.0},
        {"abs_tol": -1e-10},
        {"abs_tol": float("nan")},
    ])
    def test_invariants_rejected(self, kwargs):
        with pytest.raises(zf.DomainError):
            zf.EvalConfig(**kwargs)


class TestHermiteD:
    def test_alpha_one_kills_first_term(self):
        assert sp.hermite_d(3.0, 1.0) == 0.5

    def test_removable_singularity_at_one(self):
        assert sp.hermite_d(1.0, 1.0) == 0.5
        expected = -math.log(0.5) + 1.0 / (2.0 * 0.5)
        assert abs(sp.hermite_d(1.0, 0.5) - expected) < 1e-14

    def test_closed_form_value(self):
        # (0.5^{-1} - 1)/1 + 1/(2 * 0.25) = 3
        assert abs(sp.hermite_d(2.0, 0.5) - 3.0) < 1e-14

    def test_consistency_with_series_oracle(self):
        # zeta(2, 1/2) = sum (n + 1/2)^-2 = pi^2/2; check d = zeta - 1/(s-1) - h
        partial, bound = oracles.hurwitz_series_brute(2.0, 0.5, 400_000)
        assert abs(partial - math.pi ** 2 / 2) < bound + 1e-12
        expected_d = math.pi ** 2 / 2 - 1.0 - sp.hermite_h(2.0, 0.5, CFG)
        assert abs(sp.hermite_d(2.0, 0.5) - expected_d) < CFG.abs_tol

    def test_series_switch_is_seamless(self):
        # compare power series and closed form on both sides of |u| = 0.5
        alpha = 0.9
        ell = -math.log(alpha)
        for radius in (0.49, 0.51):
            s = 1.0 + radius / ell * np.exp(1j * np.linspace(0.1, 6.0, 7))
            direct = (alpha ** (1.0 - s) - 1.0) / (s - 1.0) + 0.5 * alpha ** (-s)
            via = sp._hermite_d(s, (alpha,), False)[0][0]
            assert np.max(np.abs(direct - via)) < 1e-13

    def test_domain_errors(self):
        with pytest.raises(zf.DomainError):
            sp.hermite_d(2.0, 0.0)
        with pytest.raises(zf.DomainError):
            sp.hermite_d(2.0, 1.5)


class TestHermiteH:
    def test_zero_at_s_zero(self):
        assert sp.hermite_h(0.0, 1.0, CFG) == 0.0

    def test_basel_decomposition_value(self):
        # h(2,1) = zeta(2) - 1/(s-1) - d(2,1) = pi^2/6 - 1.5
        got = sp.hermite_h(2.0, 1.0, CFG)
        assert abs(got - (math.pi ** 2 / 6 - 1.5)) < CFG.abs_tol

    def test_assembled_vanishes_at_first_zero(self):
        total = 1.0 / (RHO1 - 1.0) + sp.hermite_d(RHO1, 1.0) + sp.hermite_h(RHO1, 1.0, CFG)
        assert abs(total) < 10 * CFG.abs_tol


class TestHurwitzZeta:
    def test_half_alpha_basel(self):
        assert abs(sp.hurwitz_zeta(2.0, 0.5, CFG) - math.pi ** 2 / 2) < 1e-9

    def test_trivial_zero(self):
        assert abs(sp.hurwitz_zeta(-2.0, 1.0, CFG)) < 1e-10

    def test_against_direct_series(self):
        s = 3.0 + 4.0j
        partial, bound = oracles.zeta_series_brute(s, 400_000)
        assert abs(sp.hurwitz_zeta(s, 1.0, CFG) - partial) < bound + CFG.abs_tol

    def test_pole_error(self):
        with pytest.raises(zf.PoleError):
            sp.hurwitz_zeta(1.0, 0.5, CFG)

    def test_decomposition_property(self):
        rng = np.random.default_rng(42)
        count = 0
        while count < 200:
            s = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
            if abs(s - 1.0) <= 0.1:
                continue
            alpha = rng.choice([0.25, 0.5, 1.0])
            assembled = (1.0 / (s - 1.0) + sp.hermite_d(s, alpha)
                         + sp.hermite_h(s, alpha, CFG))
            assert abs(sp.hurwitz_zeta(s, alpha, CFG) - assembled) < 2 * CFG.abs_tol
            count += 1

    def test_series_agreement_above_two(self):
        # integral route vs Euler-Maclaurin series route
        rng = np.random.default_rng(7)
        for _ in range(25):
            s = complex(rng.uniform(2.0, 3.0), rng.uniform(-3.0, 3.0))
            alpha = rng.choice([0.25, 0.5, 1.0])
            hermite = (1.0 / (s - 1.0) + sp.hermite_d(s, alpha)
                       + sp.hermite_h(s, alpha, CFG))
            reg, _, _ = _em_one(np.array([s]), float(alpha), tol=1e-13)
            series = complex(reg[0]) + 1.0 / (s - 1.0)
            assert abs(hermite - series) < CFG.abs_tol

    def test_route_dispatch_above_cutoff(self):
        s = 9.0 + 0.3j
        _, _, route = sp.eval_diagnostics(s, 1.0, CFG)
        assert route == "series-em"
        hermite = 1.0 / (s - 1.0) + sp.hermite_d(s, 1.0) + sp.hermite_h(s, 1.0, CFG)
        assert abs(sp.hurwitz_zeta(s, 1.0, CFG) - hermite) < CFG.abs_tol

    def test_route_dispatch_large_imag(self):
        _, _, route = sp.eval_diagnostics(0.5 + 40.0j, 1.0, CFG)
        assert route == "series-em"

    def test_integral_floor_above_tol_switches_route(self):
        # |Im s| <= 15 but int |h-integrand| ~ 1e5: float64 rounding of the
        # quadrature alone exceeds abs_tol, so the split leaves the integral
        s = 1.5261380061299539 + 13.797072058944401j
        with pytest.raises(zf.PrecisionFloorError) as err:
            sp.hermite_h(s, 0.25, CFG)
        assert "alpha=0.25" in str(err.value) and "route hermite" in str(err.value)
        assert err.value.estimate is not None and err.value.residual > 0
        assert sp.hurwitz_regular_split(s, 0.25, CFG)[2] == "series-em"
        assert sp._split_point(s, 0.25, CFG, deriv=True)[2] == "series-em"

    def test_size_one_call_runs_one_route_per_residue(self, chi4, monkeypatch):
        # the route is chosen before any kernel runs; chi4 at 0.5+12.99i once
        # ran the h-rule, refused its estimate, then Euler-Maclaurin.  A size-1
        # call runs the kernel the batch gives its point, once for both residues
        kernels = {sp.SERIES_EM: "euler_maclaurin_split", sp.HERMITE: "_h_rule"}
        calls = []
        for name in kernels.values():
            def counting(s, alpha, *args, _name=name, _fn=getattr(sp, name), **kwargs):
                calls.append((_name, tuple(alpha) if np.ndim(alpha) else (alpha,)))
                return _fn(s, alpha, *args, **kwargs)
            monkeypatch.setattr(sp, name, counting)
        handle = zf.l_function(chi4)
        pts = np.array([complex(re, im) for re in (0.5, 2.0, 5.0)
                        for im in np.linspace(0.0, 15.0, 61)])
        batch_routes = handle.evaluate(pts)[2]
        for i in range(pts.size):
            calls.clear()
            routes = handle.evaluate(pts[i:i + 1])[2]
            assert (routes[:, 0] == batch_routes[:, i]).all(), pts[i]
            assert calls == [(kernels[routes[0, 0]], (0.25, 0.75))], (pts[i], calls)

    def test_ill_conditioned_integral_point_against_series(self):
        # the integral route returned this point 3.3e-10 off while reporting
        # an estimate of abs_tol
        s = 7.381248050402734 + 12.411334521471098j
        partial, bound = oracles.hurwitz_series_brute(s, 0.25)
        assert abs(sp.hurwitz_zeta(s, 0.25, CFG) - partial) < CFG.abs_tol + bound

    def test_against_mpmath_below_series_cutoff(self):
        mpmath = pytest.importorskip("mpmath")
        rng = np.random.default_rng(2026)
        for _ in range(150):
            s = complex(rng.uniform(-3.0, 8.0), rng.uniform(-15.0, 15.0))
            alpha = 1.0 - rng.random()
            for deriv in (0, 1):
                with mpmath.workdps(30):
                    ref = complex(mpmath.zeta(mpmath.mpc(s.real, s.imag), alpha, deriv))
                got = (sp.hurwitz_zeta_deriv if deriv else sp.hurwitz_zeta)(s, alpha, CFG)
                if abs(ref) <= 1e4:
                    assert abs(got - ref) < CFG.abs_tol, (s, alpha, deriv)

    def test_conjugate_symmetry(self):
        for s in (1.3 + 2.2j, -2.0 + 7.0j, 0.5 + 30.0j, -4.5 + 2.0j):
            for alpha in (0.25, 1.0):
                a = sp.hurwitz_zeta(s, alpha, CFG)
                b = sp.hurwitz_zeta(s.conjugate(), alpha, CFG)
                assert abs(b - a.conjugate()) < 1e-10

    def test_reflection_oracle_on_continuation(self):
        # zeta(s) = 2^s pi^(s-1) sin(pi s/2) Gamma(1-s) zeta(1-s)
        def zeta(s):
            return sp.riemann_zeta(s, CFG)
        for s in (-2.5 + 20.0j, 0.5 + 50.0j, -0.5 + 90.0j, 0.3 + 8.0j):
            lhs = zeta(s)
            rhs = oracles.zeta_reflection(zeta, s)
            assert abs(lhs - rhs) <= 1e-9 * max(1.0, abs(lhs))


class TestRiemannZeta:
    def test_basel(self):
        assert abs(sp.riemann_zeta(2.0, CFG) - math.pi ** 2 / 6) < 1e-9

    def test_trivial_zeros(self):
        for k in (1, 2, 3, 4):
            assert abs(sp.riemann_zeta(-2.0 * k, CFG)) < 1e-8

    def test_large_imag_spot_value(self):
        # cross-checked via the reflection oracle rather than a quoted table
        v = sp.riemann_zeta(0.5 + 100.0j, CFG)
        r = oracles.zeta_reflection(lambda s: sp.riemann_zeta(s, CFG), 0.5 + 100.0j)
        assert abs(v - r) < 1e-9 * abs(v)


class TestDerivative:
    def test_trivial_zero_derivatives(self):
        z3, b3 = oracles.zeta_series_brute(3.0, 400_000)
        expected = -z3.real / (4.0 * math.pi ** 2)
        got = sp.riemann_zeta_deriv(-2.0, CFG)
        assert abs(got - expected) < 1e-9 + b3
        got4 = sp.riemann_zeta_deriv(-4.0, CFG)
        expected4 = oracles.trivial_zero_deriv(2, lambda s: sp.riemann_zeta(s, CFG))
        assert abs(got4 - expected4) < 1e-9
        assert got4.real > 0  # alternation flips the sign at -4

    def test_matches_central_difference(self):
        fd = oracles.central_difference(lambda z: sp.riemann_zeta(z, CFG), 2.0)
        assert abs(sp.riemann_zeta_deriv(2.0, CFG) - fd) < 1e-6

    def test_fd_property_across_routes(self):
        rng = np.random.default_rng(11)
        tol = max(1e-6, 100 * CFG.abs_tol)
        count = 0
        while count < 30:
            s = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
            if abs(s - 1.0) <= 0.15:
                continue
            alpha = rng.choice([0.25, 0.5, 1.0])
            fd = oracles.central_difference(lambda z: sp.hurwitz_zeta(z, alpha, CFG), s)
            assert abs(sp.hurwitz_zeta_deriv(s, alpha, CFG) - fd) < tol
            count += 1
        for _ in range(8):
            s = complex(rng.uniform(0, 2), rng.uniform(16, 60))
            alpha = rng.choice([0.5, 1.0])
            fd = oracles.central_difference(lambda z: sp.hurwitz_zeta(z, alpha, CFG), s)
            assert abs(sp.hurwitz_zeta_deriv(s, alpha, CFG) - fd) < tol

    def test_pole_error(self):
        with pytest.raises(zf.PoleError):
            sp.hurwitz_zeta_deriv(1.0, 1.0, CFG)


class TestVectorizedFieldRoute:
    # scalar calls are size-1 calls of the same router, so the batch is
    # checked against mpmath rather than against them

    def test_matches_scalar_reference(self):
        mpmath = pytest.importorskip("mpmath")
        rng = np.random.default_rng(3)
        pts = []
        for _ in range(40):
            s = complex(rng.uniform(-9, 4), rng.uniform(-3, 3))
            if abs(s - 1.0) > 0.2:
                pts.append(s)
        pts += [0.5 + 40.0j, 0.5 + 150.0j, 2.0 - 25.0j]
        arr = np.array(pts)
        reg, _, _ = sp.hurwitz_split_many(arr, 1.0)
        fast = reg + 1.0 / (arr - 1.0)
        for s, v in zip(pts, fast):
            assert abs(v - oracles.mp_zeta(mpmath, s, 1.0)) < 5e-10, s

    def test_deriv_matches_scalar_reference(self):
        mpmath = pytest.importorskip("mpmath")
        arr = np.array([-6.5 + 0.2j, -2.0 + 0.0j, 0.5 + 30.0j, 2.5 + 1.0j])
        (_, dreg), _, _ = sp.hurwitz_split_many(arr, 1.0, deriv=True)
        fast = dreg - 1.0 / (arr - 1.0) ** 2
        for s, v in zip(arr, fast):
            assert abs(v - oracles.mp_zeta(mpmath, complex(s), 1.0, 1)) < 5e-10, s

    def test_deep_negative_accuracy(self):
        arr = np.array([complex(-12.0), complex(-8.0), complex(-11.3)])
        reg, _, _ = sp.hurwitz_split_many(arr, 1.0)
        vals = reg + 1.0 / (arr - 1.0)
        assert abs(vals[0]) < 1e-12
        assert abs(vals[1]) < 1e-12


class TestPlannedEulerMaclaurin:
    """Re s >= 0: N and K from the remainder majorant, corrections by Horner."""

    ALPHAS = (0.25, 0.5, 0.75, 1.0)

    @staticmethod
    def _points(seed, n):
        rng = np.random.default_rng(seed)
        low = rng.uniform(0.0, 8.0, n) + 1j * rng.uniform(-20.0, 20.0, n)
        high = (rng.uniform(0.0, 3.0, n)
                + 1j * rng.choice([-1.0, 1.0], n) * rng.uniform(20.0, 320.0, n))
        return np.concatenate([low, high])

    def _check(self, mpmath, pts, alpha, tol, want_deriv):
        reg, dreg, est = _em_one(pts, alpha, tol=tol, want_deriv=want_deriv)
        # the planned remainder meets tol; the estimate adds float64 rounding
        assert sp._em_plan(pts, alpha, tol, want_deriv, float(pts.real.min()),
                           float(pts.real.max()))[2] <= tol
        assert (dreg is None) != want_deriv
        for i, s in enumerate(pts):
            s = complex(s)
            ref = oracles.mp_zeta(mpmath, s, alpha, 0)
            assert abs(reg[i] + 1.0 / (s - 1.0) - ref) <= est[i], (s, alpha)
            if want_deriv:
                assert abs(dreg[i] - 1.0 / (s - 1.0) ** 2
                           - oracles.mp_zeta(mpmath, s, alpha, 1)) <= est[i], (s, alpha)

    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_single_points_within_estimate(self, alpha):
        mpmath = pytest.importorskip("mpmath")
        for s in self._points(int(alpha * 100), 12):
            self._check(mpmath, np.array([s]), alpha, 1e-12, want_deriv=True)

    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_batch_within_group_estimate(self, alpha):
        mpmath = pytest.importorskip("mpmath")
        pts = self._points(int(alpha * 100) + 1, 12)
        for tol in (1e-12, 1e-8):
            for want_deriv in (False, True):
                self._check(mpmath, pts, alpha, tol, want_deriv)

    def test_rounding_counted_at_large_imaginary_part(self):
        # at tol 1e-14 the remainder is negligible, and the float64 rounding
        # of the phases Im(s) ln(n+a) carries the error: 1.6e-12 at
        # 0.04-300i, alpha = 1/2, and 1.6e-12 for zeta'(0.5+280i)
        mpmath = pytest.importorskip("mpmath")
        for s in (0.04 - 300.0j, 0.3 - 250.0j, 0.5 + 280.0j):
            for alpha in (0.5, 0.75, 1.0):
                self._check(mpmath, np.array([s]), alpha, 1e-14, want_deriv=True)

    @pytest.mark.parametrize("size", [1, 12])
    def test_residue_axis_runs_every_a_on_the_plan_of_the_least(self, size):
        # one call for a sequence of a, planned at the least a: the remainder
        # bound holds for every a, and an a whose own plan is the shared one
        # keeps the value of its single-a call bit for bit
        mpmath = pytest.importorskip("mpmath")
        pts = self._points(size, size)[::2]
        alphas = (0.75, 0.25, 0.5, 1.0)
        for want_deriv in (False, True):
            reg, dreg, est = sp.euler_maclaurin_split(pts, alphas, 1e-12, want_deriv)
            assert reg.shape == est.shape == (len(alphas), pts.size)
            hull = float(pts.real.min()), float(pts.real.max())
            plan = sp._em_plan(pts, 0.25, 1e-12, want_deriv, *hull)
            kept = 0
            for r, alpha in enumerate(alphas):
                own = sp._em_plan(pts, alpha, 1e-12, want_deriv, *hull)
                assert own[2] <= 1e-12 and plan[2] <= 1e-12
                if own[:2] == plan[:2] and alpha < 1.0:     # a = 1 alone may take the table
                    one, done, _ = _em_one(pts, alpha, want_deriv=want_deriv)
                    assert np.array_equal(one, reg[r]), alpha
                    assert not want_deriv or np.array_equal(done, dreg[r]), alpha
                    kept += 1
                for i, s in enumerate(pts):
                    s = complex(s)
                    ref = oracles.mp_zeta(mpmath, s, alpha, 0)
                    assert abs(reg[r, i] + 1.0 / (s - 1.0) - ref) <= est[r, i], (s, alpha)
                    if want_deriv:
                        dref = oracles.mp_zeta(mpmath, s, alpha, 1)
                        assert abs(dreg[r, i] - 1.0 / (s - 1.0) ** 2 - dref) <= est[r, i]
            assert kept >= 2

    def test_leading_power_past_float64_raises_naming_the_point(self):
        # alpha ** -re_max raised a bare OverflowError
        assert abs(sp.hurwitz_zeta(300.0, 0.25) / 4.0 ** 300 - 1.0) < 1e-13
        with pytest.raises(zf.AccuracyError) as err:
            sp.hurwitz_zeta(600.0, 0.25)
        assert "s=(600+0j), alpha=0.25" in str(err.value)
        with pytest.raises(zf.AccuracyError) as err:
            sp.euler_maclaurin_split(np.array([0.5 + 1.0j, 800.0]), (0.25, 0.75), 1e-12, False)
        assert "s=(800+0j)" in str(err.value)
        assert sp.riemann_zeta(600.0) == 1.0

    @pytest.mark.parametrize("bad", [complex("nan"), complex("inf"), complex(0.0, float("nan")),
                                     complex(float("inf"), 1.0)])
    def test_non_finite_point_is_a_domain_error(self, bad):
        # _em_plan died converting NaN to an integer
        for alphas in ((1.0,), (0.25, 0.75)):
            with pytest.raises(zf.DomainError) as err:
                sp.euler_maclaurin_split(np.array([0.5 + 1.0j, bad]), alphas, 1e-12, False)
            assert f"s={bad!r}" in str(err.value)

    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_negative_real_part_holds_its_accuracy(self, alpha):
        # Re s < 0 keeps the small-N rule; 3e-12 relative to max(1, |ref|)
        # is the accuracy measured there before the corrections moved to Horner
        mpmath = pytest.importorskip("mpmath")
        rng = np.random.default_rng(int(alpha * 100) + 2)
        pts = rng.uniform(-3.0, 0.0, 12) + 1j * rng.uniform(-20.0, 20.0, 12)
        for s in pts:
            reg, dreg, _ = _em_one(np.array([s]), alpha, tol=1e-12, want_deriv=True)
            for got, deriv in ((reg[0] + 1.0 / (s - 1.0), 0),
                               (dreg[0] - 1.0 / (s - 1.0) ** 2, 1)):
                ref = oracles.mp_zeta(mpmath, s, alpha, deriv)
                assert abs(got - ref) <= 3e-12 * max(1.0, abs(ref)), (s, alpha, deriv)

    @pytest.mark.parametrize("alpha", (0.25, 0.75))
    def test_negative_real_part_estimate_does_not_grow_as_tol_tightens(self, alpha):
        # left of 0 the terms grow, and N stops where the remainder falls
        # below the counted rounding; the least N meeting tol read 4.1e-11
        # at tol 1e-12 and 7.9e-11 at tol 9e-15 for alpha = 1/4
        mpmath = pytest.importorskip("mpmath")
        s = -2.9 + 14.0j
        ref = oracles.mp_zeta(mpmath, s, alpha)
        ests = []
        for tol in (1e-12, 1e-13, 9e-15):
            reg, _, est = _em_one(np.array([s]), alpha, tol=tol)
            assert abs(reg[0] + 1.0 / (s - 1.0) - ref) <= est[0], (alpha, tol)
            ests.append(est[0])
        assert ests[0] >= ests[1] >= ests[2], ests

    @staticmethod
    def _horner_by_loop(grid, horner, n_corr, want_deriv):
        """_em_horner's sums as the tail once formed them: one v_j at a time, real D_j."""
        acc = horner[n_corr - 1]
        dacc = np.zeros_like(grid) if want_deriv else None
        for j in range(n_corr - 1, 0, -1):
            v = (grid + (2 * j - 1)) * (grid + 2 * j)
            if want_deriv:
                dacc = dacc * v + acc * (2.0 * grid + (4 * j - 1))
            acc = acc * v + horner[j - 1]
        return acc, dacc

    @pytest.mark.parametrize("size, alphas", [(1, (1.0,)), (7, (0.25, 0.75)),
                                              (33, (0.2, 0.4, 0.6, 0.8)), (4096, (0.25, 0.75))])
    @pytest.mark.parametrize("want_deriv", [False, True])
    def test_stacked_horner_is_the_loop_bitwise(self, size, alphas, want_deriv):
        # the v_j stacked over j (in blocks of j for a large grid) and the
        # complex D_j give the loop's bits
        rng = np.random.default_rng(size)
        flat = rng.uniform(-2.99, 8.0, size) + 1j * rng.uniform(-320.0, 320.0, size)
        flat[::5] = flat[::5].real
        grid = flat[None].repeat(len(alphas), axis=0)
        horner = sp._em_columns(alphas, 150)[-1]
        for n_corr in range(1, sp._EM_MAX_CORRECTIONS + 1):
            got = sp._em_horner(grid, horner, n_corr, want_deriv)
            want = self._horner_by_loop(grid, horner.real, n_corr, want_deriv)
            for a, b in zip(got, want):
                if b is not None:       # at K = 1 the loop's sum is the real D_1
                    b = np.broadcast_to(b, grid.shape).astype(complex)
                    assert np.broadcast_to(a, grid.shape).tobytes() == b.tobytes(), n_corr

    @pytest.mark.parametrize("want_deriv", [False, True])
    def test_horner_is_batch_size_invariant_bitwise(self, want_deriv):
        # at 4 x 4096 points, from 256 kB on, numpy once took over a fresh
        # derivative factor 2s+4j-1 in place, which swapped the operands of
        # its product: 4,210 of these 16,384 values differed from the same
        # points in 256-point calls
        rng = np.random.default_rng(4096)
        flat = rng.uniform(-2.9, 8.0, 4096) + 1j * rng.uniform(-300.0, 300.0, 4096)
        grid = flat[None].repeat(4, axis=0)
        horner = sp._em_columns((0.2, 0.4, 0.6, 0.8), 300)[-1]
        whole = sp._em_horner(grid, horner, sp._EM_MAX_CORRECTIONS, want_deriv)
        parts = [sp._em_horner(np.ascontiguousarray(grid[:, i:i + 256]), horner,
                               sp._EM_MAX_CORRECTIONS, want_deriv) for i in range(0, 4096, 256)]
        for k, got in enumerate(whole[:1 + want_deriv]):
            assert got.tobytes() == np.concatenate([part[k] for part in parts], axis=1).tobytes()

    def test_rounding_limited_point_trades_work_for_rounding(self):
        # the least-work pair, K = 6 and N = 468, counted 1.3e-10 of
        # rounding, past abs_tol; zeta' counts at least 1.7e-10 at every K
        mpmath = pytest.importorskip("mpmath")
        s = 0.04 + 300.0j
        value, est, route = sp.eval_diagnostics(s, 1.0, CFG)
        assert route == "series-em"
        assert abs(value - oracles.mp_zeta(mpmath, s, 1.0)) <= est <= CFG.abs_tol
        with pytest.raises(zf.AccuracyError) as err:
            sp.riemann_zeta_deriv(s, CFG)
        assert repr(s) in str(err.value) and "route series-em" in str(err.value)


class TestRouteBoundary:
    """Both sides of the router's switches against mpmath (dps 30).

    Left of Re s = -3, points with a = 1 or a residue r/m of a period take
    the reflection at every |Im s|, except size-1 calls up to |Im s| = 15,
    which take the h-rule, as batches of other a do up to |Im s| = 15;
    Euler-Maclaurin takes the rest.  Size-1 calls also leave the h-rule
    where its floor exceeds the tolerance.  On each side the reported
    estimate alone must cover the error.
    """

    ALPHAS = (0.05, 0.1, 0.25, 0.5, 1.0)

    @staticmethod
    def _points(seed):
        rng = np.random.default_rng(seed)
        near_re = -3.0 + rng.uniform(-0.05, 0.05, 8) + 1j * rng.uniform(-15.0, 15.0, 8)
        near_im = rng.uniform(-5.0, 2.0, 8) + 1j * (rng.choice([-1.0, 1.0], 8)
                                                    * rng.uniform(14.95, 15.05, 8))
        return np.concatenate([near_re, near_im])

    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_estimate_covers_error_on_both_sides(self, alpha):
        mpmath = pytest.importorskip("mpmath")
        pts = self._points(int(alpha * 1000))
        for deriv in (0, 1):
            ref = [oracles.mp_zeta(mpmath, complex(s), alpha, deriv) for s in pts]
            batch = sp.hurwitz_split_many(pts, alpha, deriv=bool(deriv))
            single = [sp.hurwitz_split_many(pts[i:i + 1], alpha, deriv=bool(deriv))
                      for i in range(pts.size)]
            for i, s in enumerate(pts):
                s = complex(s)
                pole = -1.0 / (s - 1.0) ** 2 if deriv else 1.0 / (s - 1.0)
                for reg, est in ((_order(batch[0], deriv)[i], batch[1][i]),
                                 (_order(single[i][0], deriv)[0], single[i][1][0])):
                    assert abs(reg + pole - ref[i]) <= est, (s, alpha, deriv, est)

    # (period, residues): a = 1, 1/2, and 1/4 with 3/4
    RESIDUES = ((1, (1,)), (2, (1,)), (4, (1, 3)))

    @staticmethod
    def _reflection_points(seed):
        rng = np.random.default_rng(seed)
        near_re = -3.0 + rng.uniform(-0.05, 0.05, 8) + 1j * rng.uniform(-15.0, 15.0, 8)
        near_im = rng.uniform(-6.0, -3.0, 6) + 1j * (rng.choice([-1.0, 1.0], 6)
                                                     * rng.uniform(14.95, 15.05, 6))
        trivial = np.array([-4.0, -6.0], dtype=complex)
        return np.concatenate([near_re, near_im, trivial])

    @pytest.mark.parametrize("period, residues", RESIDUES)
    def test_reflection_switch_covers_error(self, period, residues):
        mpmath = pytest.importorskip("mpmath")
        pts = self._reflection_points(period)
        left = pts.real < -3.0
        alphas = [r / period for r in residues]
        for deriv in (0, 1):
            got, est, routes = sp.hurwitz_split_many(pts, alphas, deriv=bool(deriv), period=period)
            vals = _order(got, deriv)
            assert (routes == np.where(left, sp.REFLECT, sp.SERIES_EM)).all()
            for j, alpha in enumerate(alphas):
                for i, s in enumerate(pts):
                    s = complex(s)
                    pole = -1.0 / (s - 1.0) ** 2 if deriv else 1.0 / (s - 1.0)
                    err = abs(vals[j, i] + pole - oracles.mp_zeta(mpmath, s, alpha, deriv))
                    # absolute at the trivial zeros, where the value vanishes
                    assert 0.0 < est[j, i] and err <= est[j, i], (s, alpha, deriv)
                    if left[i]:
                        h_est = sp._h_rule(np.array([s]), (alpha,), 1e-12, bool(deriv))[2][0, 0]
                        assert est[j, i] <= 10.0 * h_est, (s, alpha, deriv)

    @pytest.mark.parametrize("pts, route", [
        (np.array([-5.0 + 1.0j, -4.2 - 3.0j, -4.0 + 0.0j]), sp.REFLECT),
        (np.array([-2.0 + 0.5j]), sp.SERIES_EM),
        (np.array([0.5 + 14.0j, 2.0 - 3.0j, 0.5 + 280.0j]), sp.SERIES_EM)])
    def test_pair_covers_value_and_derivative(self, pts, route):
        # one call gives R and R', with one estimate bounding each
        mpmath = pytest.importorskip("mpmath")
        alphas = [0.25, 0.75]
        (vals, dvals), est, routes = sp.hurwitz_split_many(pts, alphas, deriv=True, period=4)
        assert (routes == route).all()
        for j, alpha in enumerate(alphas):
            for i, s in enumerate(pts):
                s = complex(s)
                ref = oracles.mp_zeta(mpmath, s, alpha) - 1.0 / (s - 1.0)
                dref = oracles.mp_zeta(mpmath, s, alpha, 1) + 1.0 / (s - 1.0) ** 2
                assert abs(vals[j, i] - ref) <= est[j, i], (s, alpha)
                assert abs(dvals[j, i] - dref) <= est[j, i], (s, alpha)

    def test_chi4_reflection_covers_error(self, chi4):
        mpmath = pytest.importorskip("mpmath")
        pts = self._reflection_points(44)
        vals, est, _ = zf.l_function(chi4).evaluate(pts)
        for i, s in enumerate(pts):
            assert abs(vals[i] - oracles.mp_l(mpmath, chi4.values, complex(s))) <= est[i], s

    def test_chi4_batch_shares_four_em_evaluations(self, chi4, monkeypatch):
        # both residues 1/4 and 3/4 read zeta(1-s, k/4), k = 1..4, from one
        # Euler-Maclaurin call
        calls = []
        em = sp.euler_maclaurin_split

        def counting(s, alpha, *args, **kwargs):
            calls.append((float(np.min(np.real(s))), alpha))
            return em(s, alpha, *args, **kwargs)

        monkeypatch.setattr(sp, "euler_maclaurin_split", counting)
        zf.l_function(chi4).evaluate(np.array([-5.0 + 1.0j, -4.2 - 3.0j, -7.1]))
        (re, alphas), = calls
        assert tuple(alphas) == (0.25, 0.5, 0.75, 1.0) and re > 4.0

    FAR_LEFT = (-5.96 + 26.9j, -8.0 + 60.0j, -5.0 + 100.0j, -5.0 + 300.0j)

    @staticmethod
    def _check_pair(mpmath, pts, alphas, got, routes_expected):
        (vals, dvals), est, routes = got
        assert (routes == routes_expected).all(), routes
        for j, alpha in enumerate(alphas):
            for i, s in enumerate(pts):
                s = complex(s)
                ref = oracles.mp_zeta(mpmath, s, alpha) - 1.0 / (s - 1.0)
                dref = oracles.mp_zeta(mpmath, s, alpha, 1) + 1.0 / (s - 1.0) ** 2
                assert abs(vals[j, i] - ref) <= est[j, i], (s, alpha, est[j, i])
                assert abs(dvals[j, i] - dref) <= est[j, i], (s, alpha, est[j, i])

    @pytest.mark.parametrize("period, residues", ((1, (1,)), (4, (1, 3))))
    def test_reflection_at_every_imaginary_part(self, period, residues):
        # Euler-Maclaurin read zeta(-8+60i) 54 off with an estimate of 3.5e2
        mpmath = pytest.importorskip("mpmath")
        pts = np.array(self.FAR_LEFT)
        alphas = [r / period for r in residues]
        for group in [pts] + [pts[i:i + 1] for i in range(pts.size)]:
            got = sp.hurwitz_split_many(group, alphas, deriv=True, period=period)
            self._check_pair(mpmath, group, alphas, got, sp.REFLECT)

    def test_chi4_reflection_at_every_imaginary_part(self, chi4):
        mpmath = pytest.importorskip("mpmath")
        handle = zf.l_function(chi4)
        pts = np.array(self.FAR_LEFT)
        batch = handle.evaluate(pts)
        for i, s in enumerate(self.FAR_LEFT):
            ref = oracles.mp_l(mpmath, chi4.values, s)
            for (vals, est, routes), k in ((batch, i), (handle.evaluate(pts[i:i + 1]), 0)):
                assert (routes[:, k] == sp.REFLECT).all(), s
                assert abs(vals[k] - ref) <= est[k], s

    # (period, residues); None: a without a period
    LEFT_ALPHAS = ((1, (1.0,)), (2, (0.5,)), (4, (0.25, 0.75)), (None, (0.3,)))

    @pytest.mark.parametrize("period, alphas", LEFT_ALPHAS)
    def test_left_half_plane_covers_error(self, period, alphas):
        # both sides of Re s = -3 at 15 < |Im s| <= 100, and within 1e-3 of
        # s = 0 on both sides of Re s = 0; as a batch and one point a call
        mpmath = pytest.importorskip("mpmath")
        rng = np.random.default_rng(31)
        near = (-3.0 + rng.uniform(-0.05, 0.05, 8)
                + 1j * rng.choice([-1.0, 1.0], 8) * rng.uniform(15.5, 100.0, 8))
        origin = 1e-3 * rng.uniform(0.05, 1.0, 6) * np.exp(2j * np.pi * rng.uniform(0.0, 1.0, 6))
        left = np.where((near.real < -3.0) & bool(period), sp.REFLECT, sp.SERIES_EM)
        for pts, routes in ((near, left), (origin, np.full(origin.size, sp.SERIES_EM))):
            self._check_pair(mpmath, pts, alphas,
                             sp.hurwitz_split_many(pts, list(alphas), deriv=True, period=period),
                             routes)
            for i in range(pts.size):
                self._check_pair(mpmath, pts[i:i + 1], alphas,
                                 sp.hurwitz_split_many(pts[i:i + 1], list(alphas), deriv=True,
                                                       period=period), routes[i])

    def test_non_residue_past_the_last_correction_raises(self):
        # at Re s <= -25 no K <= 12 bounds the Euler-Maclaurin remainder
        s = -30.0 + 20.0j
        for call in (lambda: sp.hurwitz_split_many(np.array([s, s + 1.0j]), 0.3),
                     lambda: sp.hurwitz_zeta(s, 0.3, CFG)):
            with pytest.raises(zf.AccuracyError) as err:
                call()
            msg = str(err.value)
            assert repr(s) in msg and "alpha=0.3" in msg and "route series-em" in msg

    def test_reflection_phase_overflow_raises_with_point_and_route(self):
        # cosh(pi Im(s) / 2) passes the float64 range near |Im s| = 452
        s = -5.0 + 460.0j
        for call in (lambda: sp.hurwitz_split_many(np.array([s, -5.0 + 1.0j]), [0.25, 0.75],
                                                   period=4),
                     lambda: sp.hurwitz_split_many(np.array([s]), 1.0),
                     lambda: sp.riemann_zeta(s, CFG)):
            with pytest.raises(zf.AccuracyError) as err:
                call()
            msg = str(err.value)
            assert repr(s) in msg and "route reflect" in msg

    def test_h_rule_value_does_not_depend_on_deriv(self):
        # 90 points on 416 nodes, a 599 kB product: numpy wrote sin * exp into
        # exp's temporary as exp * sin for R alone, up to 5.5e-12 off the pair's R
        rng = np.random.default_rng(5)
        s = rng.uniform(-7.0, -3.2, 90) + 1j * rng.uniform(-15.0, 15.0, 90)
        value, _, routes = sp.hurwitz_split_many(s, 0.3)
        (pair_value, _), _, _ = sp.hurwitz_split_many(s, 0.3, deriv=True)
        assert np.all(routes == sp.HERMITE)
        assert np.array_equal(value.view(float), pair_value.view(float))

    def test_reflection_overflow_raises_with_point_and_route(self):
        with pytest.raises(zf.AccuracyError) as err:
            sp.hurwitz_split_many(np.array([-5.0, -300.0]), 1.0)
        msg = str(err.value)
        assert "s=(-300+0j)" in msg and "route reflect" in msg

    def test_residue_must_match_period(self):
        with pytest.raises(zf.DomainError):
            sp.hurwitz_split_many(np.array([-5.0, -6.0]), [0.3], period=4)

    def test_ill_conditioned_batch_point_reports_its_error(self):
        # the fixed-panel rule returned this point 3.1e-2 off with est 1e-13
        mpmath = pytest.importorskip("mpmath")
        s = -3.265210533608892 + 13.657991793781747j
        reg, est, _ = sp.hurwitz_split_many(np.array([s, -4.0 + 1.0j]), 0.1)
        err = abs(reg[0] + 1.0 / (s - 1.0) - oracles.mp_zeta(mpmath, s, 0.1))
        assert est[0] >= err

    def test_scalar_past_tolerance_raises_with_point_and_route(self):
        # the scalar split fell back to Euler-Maclaurin here and returned a
        # value 2.5e-3 off with an estimate of 2e-16
        s = -7.747747931709895 - 14.49969485188287j
        with pytest.raises(zf.AccuracyError) as err:
            sp.hurwitz_zeta(s, 0.1, CFG)
        msg = str(err.value)
        assert repr(s) in msg and "alpha=0.1" in msg and "route hermite" in msg
        assert err.value.residual > CFG.abs_tol

    # a = 1 batches on both sides of the sieved table's rule: (points, deriv,
    # the table runs, N+1 prime or None for either).  The plan fixes N; the
    # last table row (N+1)^(-s) is the boundary factor: 150 and 167 on the
    # critical-line rows, and 171 on the direct row, where the table would
    # pay at 8 points but not at 7
    _RNG = np.random.default_rng(11)
    TABLE_CASES = [
        pytest.param(0.5 + 1j * np.linspace(250.0, 310.0, 128), False, True, False,
                     id="critical-line-to-310"),
        pytest.param(0.5 + 1j * np.linspace(280.0, 320.0, 128), True, True, True,
                     id="critical-line-to-320-pair"),
        pytest.param(0.5 + 1j * np.linspace(300.0, 320.0, 7), False, False, None,
                     id="direct-to-320"),
        pytest.param(_RNG.uniform(-2.9, -0.1, 256) + 1j * _RNG.uniform(15.0, 40.0, 256),
                     False, True, False, id="negative-re"),
        pytest.param(_RNG.uniform(-2.9, -0.1, 256) + 1j * _RNG.uniform(-30.0, 30.0, 256),
                     True, True, True, id="negative-re-pair"),
        pytest.param(_RNG.uniform(-9.0, -3.1, 1024) + 1j * _RNG.uniform(-15.0, 15.0, 1024),
                     True, True, None, id="reflection-1024-pair"),
    ]

    @staticmethod
    def _recording_kernel(monkeypatch):
        """Record (N, K, sieved) of every _em_split call."""
        kernels = []
        em_split = sp._em_split

        def recording(s, alpha, n_terms, n_corr, *rest):
            kernels.append((n_terms, n_corr, rest[-1]))
            return em_split(s, alpha, n_terms, n_corr, *rest)

        monkeypatch.setattr(sp, "_em_split", recording)
        return kernels, em_split

    @pytest.mark.parametrize("pts, deriv, table, prime_row", TABLE_CASES)
    def test_sieved_table_switch_covers_error(self, pts, deriv, table, prime_row, monkeypatch):
        mpmath = pytest.importorskip("mpmath")
        kernels, _ = self._recording_kernel(monkeypatch)
        got, est, routes = sp.hurwitz_split_many(pts, 1.0, deriv=deriv)
        left = (pts.real < -3.0) & (np.abs(pts.imag) <= 15.0)
        assert (routes == np.where(left, sp.REFLECT, sp.SERIES_EM)).all()
        assert kernels and all(sieved == table for _, _, sieved in kernels), kernels
        if prime_row is not None:
            # the plan moved if this fails: choose a row with the other N+1
            assert all(all((n + 1) % p for p in range(2, math.isqrt(n + 1) + 1)) == prime_row
                       for n, _, _ in kernels), kernels
        orders = enumerate(got) if deriv else ((0, got),)
        for order, vals in orders:
            for i in range(0, pts.size, max(1, pts.size // 16)):
                s = complex(pts[i])
                pole = -1.0 / (s - 1.0) ** 2 if order else 1.0 / (s - 1.0)
                err = abs(vals[i] + pole - oracles.mp_zeta(mpmath, s, 1.0, order))
                assert err <= est[i], (s, order, est[i])

    def test_batch_below_the_rule_matches_its_singletons(self, monkeypatch):
        # 32 points at N = 25 keep the direct kernel, whose value at a point
        # does not depend on the rest of the batch
        kernels, em_split = self._recording_kernel(monkeypatch)
        pts = 0.5 + 1j * np.linspace(14.0, 20.0, 32)
        reg, dreg, _ = _em_one(pts, 1.0, want_deriv=True)
        (n_terms, n_corr, sieved), = kernels
        assert not sieved and not sp._sieve_pays(pts.size, n_terms)
        for i in range(pts.size):
            one, done = em_split(pts[i:i + 1], (1.0,), n_terms, n_corr, (False,), True, False)
            assert one[0, 0] == reg[i] and done[0, 0] == dreg[i], pts[i]

    @pytest.mark.parametrize("deriv", [False, True])
    def test_table_kernel_agrees_with_direct_kernel(self, deriv):
        # every N to 64 and beyond, N+1 prime and composite: the two kernels
        # differ by at most the sum of their counted rounding
        rng = np.random.default_rng(12)
        pts = rng.uniform(0.0, 1.0, 48) + 1j * rng.uniform(-40.0, 40.0, 48)
        lo, hi, big_s = float(pts.real.min()), float(pts.real.max()), float(np.abs(pts).max())
        for n_terms in (*range(1, 65), 126, 127, 148, 163):
            rounding = [sp._em_rounding(pts.real, lo, hi, big_s, (1.0,), n_terms, 6, (False,),
                                        deriv, sieved)[0] for sieved in (False, True)]
            direct, table = (sp._em_split(pts, (1.0,), n_terms, 6, (False,), deriv,
                                          sieved)[deriv][0]
                             for sieved in (False, True))
            assert np.all(np.abs(table - direct) <= sum(rounding)), n_terms

    def test_table_rows_within_their_counted_rounding(self):
        # every row n^(-s), n <= 160, of the sieved table, read as the
        # boundary row (N+1)^(-s) with N = n - 1.  At small |s| the count's
        # own term c_n = 4 Omega(n) (_term_rounding) must carry each row's
        # rounding, as the boundary factor and summed over the rows
        mpmath = pytest.importorskip("mpmath")
        n_max = 160
        for s in (0.01 + 0.02j, -0.03 + 0.01j, 0.02 - 0.04j):
            need = 0.0
            for n in range(2, n_max + 1):
                row = sp._sieved_sums(np.array([s]), n - 1, False)[2][0]
                with mpmath.workdps(30):
                    ref = complex(mpmath.power(n, -mpmath.mpc(s.real, s.imag)))
                excess = abs(row - ref) / (sp._EPS * abs(ref)) - abs(s) * math.log(n)
                own = sp._em_weighted_sums(1.0, n - 1, s.real, False, True)[3]
                assert excess <= own, (s, n, excess, own)
                if n < n_max:
                    need += max(excess, 0.0) * n ** -s.real
            assert sp._em_weighted_sums(1.0, n_max - 1, s.real, False, True)[2] >= need, s


class TestLogGamma:
    def test_against_mpmath_within_stated_bound(self):
        mpmath = pytest.importorskip("mpmath")
        rng = np.random.default_rng(12)
        w = np.concatenate([rng.uniform(0.1, 20.0, 40) + 1j * rng.uniform(-15.0, 15.0, 40),
                            [4.0, 10.0, 4.0 + 15.0j, 4.0 - 15.0j, 0.5]])
        lg, lg_err, psi, psi_err = sp._log_gamma(w, True)
        assert (sp._log_gamma(w, False)[0] == lg).all()
        for i, x in enumerate(w):
            with mpmath.workdps(30):
                z = mpmath.mpc(x.real, x.imag)
                ref_lg, ref_psi = complex(mpmath.loggamma(z)), complex(mpmath.digamma(z))
            assert abs(lg[i] - ref_lg) <= lg_err[i] < 1e-12, x
            assert abs(psi[i] - ref_psi) <= psi_err[i] < 1e-13, x

    @staticmethod
    def _wide_points():
        # Re w just above and just below each integer in (0, 30], so every
        # count of the upward shift occurs, at |Im w| up to 450
        rng = np.random.default_rng(21)
        re = np.concatenate([np.arange(30.0) + 0.02, np.arange(30.0) + 0.98])
        im = np.concatenate([rng.uniform(0.0, 20.0, 30), rng.uniform(20.0, 450.0, 30)])
        return re + 1j * rng.permutation(rng.choice([-1.0, 1.0], 60) * im)

    def test_wide_range_batch_and_single_points_within_stated_bound(self):
        # the branch of the shift term: ln Gamma is the principal one
        mpmath = pytest.importorskip("mpmath")
        w = self._wide_points()
        batch = sp._log_gamma(w, True)
        for i, x in enumerate(w):
            with mpmath.workdps(30):
                z = mpmath.mpc(x.real, x.imag)
                ref_lg, ref_psi = complex(mpmath.loggamma(z)), complex(mpmath.digamma(z))
            for lg, lg_err, psi, psi_err in ([part[i] for part in batch],
                                             [part[0] for part in sp._log_gamma(w[i:i + 1], True)]):
                assert abs(lg - ref_lg) <= lg_err <= 1e-13 * max(1.0, abs(ref_lg)), x
                assert abs(psi - ref_psi) <= psi_err <= 1e-13 * max(1.0, abs(ref_psi)), x

    @pytest.mark.parametrize("want_digamma", [False, True])
    def test_size_one_calls_equal_the_batch_bitwise(self, want_digamma):
        w = self._wide_points()
        batch = sp._log_gamma(w, want_digamma)
        singles = [sp._log_gamma(w[i:i + 1], want_digamma) for i in range(w.size)]
        for k, part in enumerate(batch):
            assert np.array_equal(part, np.concatenate([one[k] for one in singles])), k


class TestBoundConstants:
    def test_e_r_at_one(self):
        assert abs(sp.f_prime_sup_bound(1.0) - 12.0 * math.e) < 1e-12

    def test_h1_closed_form_alpha_one_beta_two(self):
        bc = sp.bound_constants(1.0, 2.0)
        a = (1.0 / (2 * math.pi)) * 2.0 * (2.0 + math.sinh(2.0))
        b = (math.pi + math.sinh(math.pi)) * (
            3.0 / math.pi + 2.0 * math.gamma(3.0) / math.pi ** 3 + 2.0 / math.pi ** 3)
        assert abs(bc.h1 - 2.0 * (a + b)) < 1e-12
        assert abs(bc.h1 - 37.3) < 0.1

    def test_h1_decreasing_in_alpha(self):
        grid = np.linspace(0.1, 1.0, 10)
        h1s = [sp.bound_constants(a, 2.0).h1 for a in grid]
        assert all(x >= y - 1e-12 for x, y in zip(h1s, h1s[1:]))
        assert sp.bound_constants(0.5, 1.0).h1 >= sp.bound_constants(0.9, 1.0).h1

    def test_alpha_one_degenerates_d_branch(self):
        bc = sp.bound_constants(1.0, 2.0)
        assert bc.d2 == 0.0 and bc.e_r == 0.0
        bc2 = sp.bound_constants(0.5, 1.0)
        assert bc2.d2 > 0 and bc2.e_r > 0 and bc2.h2 > 0

    def test_domain_errors(self):
        with pytest.raises(zf.DomainError):
            sp.bound_constants(0.0, 1.0)
        with pytest.raises(zf.DomainError):
            sp.bound_constants(0.5, 0.0)
        with pytest.raises(zf.DomainError):
            sp.f_prime_sup_bound(0.0)

    def test_h_bound_dominates_samples(self):
        cheap = zf.EvalConfig(abs_tol=1e-8)
        grid = np.linspace(-2.0, 2.0, 11)
        for alpha in (0.25, 0.5, 1.0):
            h1 = sp.bound_constants(alpha, 2.0).h1
            sup = max(abs(sp.hermite_h(complex(x, y), alpha, cheap))
                      for x in grid for y in grid)
            assert sup <= h1

    def test_fprime_bound_on_box_boundary(self):
        for r in (0.5, 1.0, 2.0):
            e_r = sp.f_prime_sup_bound(r)
            edge = np.linspace(-r, r, 201)
            border = np.concatenate([
                edge + 1j * r, edge - 1j * r, r + 1j * edge, -r + 1j * edge])
            sup = float(np.max(np.abs(sp.expm1_over_deriv(border))))
            assert sup <= e_r

    def test_d_sup_bound(self):
        assert sp.d_sup_bound(1.0, 4.0) == pytest.approx(0.55)
        val = sp.d_sup_bound(0.5, 2.0)
        assert val >= 1.1 * abs(sp.hermite_d(2.0 + 0.0j, 0.5))
