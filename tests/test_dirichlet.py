import json
import math

import numpy as np
import pytest

import zetaflow as zf
from zetaflow import dirichlet as dd

import oracles


class TestCharacterValidation:
    def test_trivial_modulus(self):
        table = zf.validate_character([1])
        assert table.period == 1 and table.is_principal and table.is_real

    def test_mod4_nontrivial(self):
        table = zf.validate_character([1, 0, -1, 0])
        assert not table.is_principal
        assert table.is_real
        assert table.value(7) == table.values[2]  # periodicity

    def test_zero_pattern_rejected(self):
        with pytest.raises(zf.CharacterValidationError, match="chi\\(4\\)"):
            zf.validate_character([1, 0, 1, 1])

    def test_multiplicativity_rejected(self):
        # unit-modulus values with the right zero pattern but chi(3)^2 != chi(9 mod 4)=chi(1)
        with pytest.raises(zf.CharacterValidationError, match="pair"):
            zf.validate_character([1, 0, 1j, 0])

    def test_chi_one_must_be_one(self):
        with pytest.raises(zf.CharacterValidationError, match="chi\\(1\\)"):
            zf.validate_character([-1, 0, 1, 0])

    def test_modulus_must_be_unit(self):
        with pytest.raises(zf.CharacterValidationError, match="root of unity"):
            zf.validate_character([1, 0, -0.5, 0])

    def test_empty_rejected(self):
        with pytest.raises(zf.CharacterValidationError):
            zf.validate_character([])


class TestBuilders:
    @pytest.mark.parametrize("m,expected", [
        (1, [1]),
        (2, [1, 0]),
        (6, [1, 0, 0, 0, 1, 0]),
    ])
    def test_principal_tables(self, m, expected):
        got = zf.principal_character(m)
        assert [int(v.real) for v in got.values] == expected
        assert got.is_principal

    def test_prime_group(self):
        group = zf.prime_character_group(5)
        assert len(group) == 4
        assert sum(t.is_principal for t in group) == 1
        # the order-2 character is the only nonprincipal real one
        real_nonprincipal = [t for t in group if t.is_real and not t.is_principal]
        assert len(real_nonprincipal) == 1
        # group values are 4th roots of unity on coprime residues
        for t in group:
            for r in (1, 2, 3, 4):
                assert abs(abs(t.values[r - 1]) - 1.0) < 1e-12

    def test_prime_group_rejects_composite(self):
        with pytest.raises(zf.DomainError):
            zf.prime_character_group(6)

    def test_json_round_trip(self, chi4):
        doc = zf.character_to_json(chi4)
        back = zf.character_from_json(json.dumps(doc))
        assert back == chi4

    def test_json_malformed(self):
        with pytest.raises(zf.CharacterValidationError):
            zf.character_from_json({"period": 3, "values": [[1, 0]]})
        with pytest.raises(zf.CharacterValidationError):
            zf.character_from_json({"values": [[1, 0]]})


class TestLEval:
    def test_zeta_case(self, zeta_handle):
        assert abs(zf.l_eval(zeta_handle, 2.0) - math.pi ** 2 / 6) < 1e-9

    def test_principal_two(self):
        handle = zf.l_function(zf.principal_character(2))
        got = zf.l_eval(handle, 2.0)
        # odd-n series oracle: sum over odd n of n^-2 = pi^2/8
        partial, bound = oracles.dirichlet_series_brute([1, 0], 2.0, 400_000)
        assert abs(partial - math.pi ** 2 / 8) < bound + 1e-12
        assert abs(got - math.pi ** 2 / 8) < 1e-9

    def test_mod4_at_one_is_pi_over_4(self, chi4):
        handle = zf.l_function(chi4)
        assert not handle.has_pole
        got = zf.l_eval(handle, 1.0)
        partial, bound = oracles.leibniz_pi_over_4()
        assert abs(partial - math.pi / 4) < bound
        assert abs(got - math.pi / 4) < 1e-9

    def test_mod4_continuous_through_one(self, chi4):
        handle = zf.l_function(chi4)
        at_one = zf.l_eval(handle, 1.0)
        near = zf.l_eval(handle, 1.0 + 1e-9)
        assert abs(at_one - near) < 1e-6

    def test_with_estimate_names_the_routes_evaluate_took(self, chi4):
        # near |Im s| = 13 the residue 1/4 leaves the h-rule, so both residues
        # take Euler-Maclaurin: a point takes one route for every residue
        handle = zf.l_function(chi4)
        routes = handle.evaluate(np.array([1.5 + 13.2j]))[2]
        assert dd.l_eval_with_estimate(handle, 1.5 + 13.2j)[2] == "series-em"
        assert (routes == zf.special.SERIES_EM).all()
        with pytest.raises(zf.AccuracyError) as err:
            dd.l_eval_with_estimate(zf.zeta_function(zf.EvalConfig(abs_tol=1e-14)), 0.5 + 3j)
        assert str(err.value).endswith("at s=(0.5+3j), m=1 (route series-em)")

    def test_pole_flag(self, zeta_handle, chi4):
        with pytest.raises(zf.PoleError):
            zf.l_eval(zeta_handle, 1.0)
        with pytest.raises(zf.PoleError):
            zf.l_eval(zf.l_function(zf.principal_character(2)), 1.0)
        assert np.isfinite(zf.l_eval(zf.l_function(chi4), 1.0).real)

    def test_handle_flag_consistency(self, chi4):
        # the pole flag follows the character, so a bare handle builds
        handle = zf.LFunctionHandle(character=chi4)
        assert handle.has_pole is False
        for s in (2.0, 1.0, 0.5 + 3j):
            assert zf.l_eval(handle, s) == zf.l_eval(zf.l_function(chi4), s)

    def test_eval_many_matches_scalar(self, chi4):
        # l_eval is a size-1 call of eval_many, so the reference is mpmath
        mpmath = pytest.importorskip("mpmath")
        handle = zf.l_function(chi4)
        pts = np.array([2.0 + 0j, 1.0 + 0j, 0.5 + 3j, -1.5 + 0.5j, -5.0 + 0j])
        many = handle.eval_many(pts)
        for s, v in zip(pts, many):
            assert abs(v - oracles.mp_l(mpmath, chi4.values, complex(s))) < 5e-10, s

    @pytest.mark.parametrize("values", [(1, 0, -1, 0), (1, 1, 0), (1,)])
    def test_eval_with_derivative_within_estimate(self, values):
        # chi4, the principal character mod 3 (its pole term and ln 3) and zeta,
        # on a batch and on size-1 calls on both sides of Re s = -3
        mpmath = pytest.importorskip("mpmath")
        handle = zf.l_function(zf.validate_character(values))
        for pts in (np.array([0.5 + 6.0j, 2.0 - 3.0j, -1.5 + 2.0j, 0.5 + 250.0j]),
                    np.array([0.5 + 6.0j]), np.array([-5.0 + 1.0j]),
                    np.array([-5.0 + 1.0j, -4.2 - 3.0j])):
            (vals, derivs), est, routes = handle.evaluate(pts, deriv=True)
            assert routes.shape == (sum(1 for v in values if v), pts.size)
            for s, v, d, e in zip(pts, vals, derivs, est):
                s = complex(s)
                assert abs(v - oracles.mp_l(mpmath, values, s)) <= e, s
                assert abs(d - oracles.mp_l(mpmath, values, s, deriv=1)) <= e, s


def _residue_tables(chi4):
    """chi4 and the four characters mod 5: principal, quadratic and two complex."""
    return [chi4] + zf.prime_character_group(5)


class TestResidueAxis:
    """All residues of a sign group run in one Euler-Maclaurin call."""

    @staticmethod
    def _counting_kernel(monkeypatch):
        calls = []
        kernel = zf.special._em_split

        def counting(s, alpha, *args):
            calls.append((np.size(s), alpha if isinstance(alpha, tuple) else (alpha,)))
            return kernel(s, alpha, *args)

        monkeypatch.setattr(zf.special, "_em_split", counting)
        return calls

    @pytest.mark.parametrize("size", [1, 32])
    @pytest.mark.parametrize("table", [0, 2], ids=["chi4", "mod5-complex"])
    def test_one_kernel_call_per_sign_group(self, chi4, table, size, monkeypatch):
        character = _residue_tables(chi4)[table]
        assert table == 0 or not character.is_real
        handle = zf.l_function(character)
        calls = self._counting_kernel(monkeypatch)
        rng = np.random.default_rng(size)
        batches = [rng.uniform(-2.9, 3.0, size) + 1j * rng.uniform(-60.0, 60.0, size)
                   for _ in range(12)]
        if size == 1:
            batches += [np.array([s]) for s in (0.5 + 280j, -1.0 + 20j, 2.0 + 5j, 6.0)]
        for pts in batches:
            for deriv in (False, True):
                calls.clear()
                _, _, routes = handle.evaluate(pts, deriv=deriv)
                em = routes == zf.special.SERIES_EM
                groups = [side for side in (pts.real < 0.0, pts.real >= 0.0) if em[:, side].any()]
                assert len(calls) == len(groups), (pts, calls)
                # every call holds every residue that takes Euler-Maclaurin
                served = tuple(a for a, row in zip(handle._residues[2], em) if row.any())
                assert all(alphas == served for _, alphas in calls), (calls, served)
                assert sum(n for n, _ in calls) == (pts.size if calls else 0)

    def test_far_right_points_are_accepted_or_named(self, chi4):
        # m ** (min Re s) raised OverflowError from Re s ~ 512 on for m = 4;
        # there the Hurwitz term zeta(s, 1/4) ~ 4^s leaves float64
        handle = zf.l_function(chi4)
        vals, est, _ = handle.evaluate(np.array([500.0, 60.0 + 300.0j]))
        assert abs(vals[0] - 1.0) <= est[0]
        for pts in ([600.0], [0.5 + 1.0j, 800.0]):
            with pytest.raises(zf.AccuracyError) as err:
                handle.evaluate(np.array(pts, dtype=complex))
            assert f"s={complex(pts[-1])!r}" in str(err.value)
        assert zf.zeta_function().evaluate(np.array([1e5]))[0][0] == 1.0

    def test_non_finite_point_is_a_domain_error(self, chi4):
        for handle in (zf.zeta_function(), zf.l_function(chi4)):
            with pytest.raises(zf.DomainError) as err:
                handle.evaluate(np.array([float("nan")]))
            assert "s=(nan+0j)" in str(err.value)

    def test_values_within_estimate_against_mpmath(self, chi4):
        # the merged call plans at the least a; each residue's estimate must
        # still bound its error, right of Re s = -3 and in the merged
        # reflection left of it, as one batch and as size-1 calls
        mpmath = pytest.importorskip("mpmath")
        ims = (0.0, 14.0, 40.0, 300.0)
        grid = [complex(re, im) for re in (-2.5, 0.5, 2.0, 6.0) for im in ims]
        grid += [complex(re, im) for re in (-4.5, -8.0) for im in ims[:3]]
        for character in _residue_tables(chi4):
            handle = zf.l_function(character)
            pts = np.array(grid if character.is_real else grid + [s.conjugate() for s in grid])
            refs = [oracles.mp_l(mpmath, character.values, complex(s)) for s in pts]
            for group in [pts] + [pts[i:i + 1] for i in range(pts.size)]:
                vals, est, _ = handle.evaluate(group)
                for s, v, e in zip(group, vals, est):
                    ref = refs[int(np.flatnonzero(pts == s)[0])]
                    assert abs(v - ref) <= e, (character.values, complex(s), abs(v - ref), e)


def _builtin_handles(chi4):
    handles = [zf.zeta_function(),
               zf.l_function(zf.principal_character(2)),
               zf.l_function(zf.principal_character(6)),
               zf.l_function(chi4)]
    handles += [zf.l_function(t) for t in zf.prime_character_group(5)]
    return handles


class TestSeriesInvariants:
    def test_formula_vs_series(self, chi4):
        rng = np.random.default_rng(17)
        n_terms = 1 << 16
        for handle in _builtin_handles(chi4):
            for _ in range(100 // 8 + 6):
                s = complex(rng.uniform(1.5, 6.0), rng.uniform(-8.0, 8.0))
                partial, tail = oracles.dirichlet_series_brute(handle.character.values, s,
                                                               n_terms)
                assert abs(zf.l_eval(handle, s) - partial) <= tail + 10 * 1e-10

    def test_euler_factor_oracle(self):
        # near s = 1 the pole term phi(m)/(s-1) dominates (|L| ~ 570 for
        # m = 12).  Validation admits |chi(r)| <= 1e-12 where gcd(r, m) > 1;
        # the pole weight phi(4) = 2 of the last table must not count it.
        rng = np.random.default_rng(23)
        tables = [zf.principal_character(m) for m in (2, 6, 12)]
        tables.append(zf.validate_character([1, 1e-13, 1, 0]))
        for table in tables:
            handle = zf.l_function(table)
            points = [complex(rng.uniform(1.3, 5.0), rng.uniform(-6.0, 6.0)) for _ in range(10)]
            for s in points + [1.0 + 4e-4 + 4e-4j]:
                via_product = oracles.euler_product_principal(zf.riemann_zeta, table.period, s)
                assert abs(zf.l_eval(handle, s) - via_product) < 10 * 1e-10, (table.period, s)

    def test_conjugate_symmetry_real_characters(self, chi4):
        for handle in (zf.zeta_function(), zf.l_function(chi4)):
            for s in (1.7 + 2.5j, 3.0 - 4.0j, 0.2 + 9.0j):
                a = zf.l_eval(handle, s)
                b = zf.l_eval(handle, s.conjugate())
                assert abs(b - a.conjugate()) < 1e-9

    def test_series_oracle_needs_right_halfplane(self, zeta_handle):
        with pytest.raises(ValueError):
            oracles.dirichlet_series_brute(zeta_handle.character.values, 0.5)


class TestSigma:
    def test_sigma1_bracket_and_residual(self):
        s1 = zf.sigma1_root()
        assert 1.70 <= s1 <= 1.74
        assert abs(zf.riemann_zeta(s1).real - 2.0) < 1e-6
        assert abs(s1 - 1.71) < 0.02

    def test_sigma0_below_sigma1(self, zeta_handle, chi4):
        s1 = zf.sigma1_root()
        for handle in (zeta_handle, zf.l_function(chi4),
                       zf.l_function(zf.principal_character(3))):
            res = zf.sigma0_estimate(handle, 0.5, 1.8, 30.0)
            assert res.sigma <= s1 + 1e-4

    def test_no_sign_change_right_of_sigma1(self, zeta_handle):
        # Re zeta(1.8 + it) > 0 throughout any window
        res = zf.sigma0_estimate(zeta_handle, 1.75, 2.2, 60.0)
        assert not res.attained
        assert res.sigma == 1.75

    def test_degenerate_window(self, zeta_handle):
        res = zf.sigma0_estimate(zeta_handle, 1.0, 1.3, 0.0)
        assert not res.attained

    def test_window_scan_finds_pole_side_changes(self, zeta_handle):
        res = zf.sigma0_estimate(zeta_handle, 0.9, 1.3, 50.0)
        assert res.attained
        assert 0.9 <= res.sigma < 1.005

    def test_bad_window(self, zeta_handle):
        with pytest.raises(zf.DomainError):
            zf.sigma0_estimate(zeta_handle, 1.3, 1.0, 10.0)


class TestReBounds:
    def test_complex_point(self, zeta_handle):
        report = zf.re_bounds_check(zeta_handle, 2.0 + 5.0j)
        assert report.ok

    def test_real_point_zeta3(self, zeta_handle):
        report = zf.re_bounds_check(zeta_handle, 3.0)
        assert report.ok
        z3, b3 = oracles.zeta_series_brute(3.0)
        assert abs(report.value.real - z3.real) < b3 + 1e-9
        assert report.re_lower < report.value.real

    def test_principal_two(self):
        handle = zf.l_function(zf.principal_character(2))
        report = zf.re_bounds_check(handle, 2.0)
        assert report.ok
        assert abs(report.value - math.pi ** 2 / 8) < 1e-9

    def test_domain(self, zeta_handle):
        with pytest.raises(zf.DomainError):
            zf.re_bounds_check(zeta_handle, 0.9 + 3.0j)

    def test_property_sample(self, chi4):
        rng = np.random.default_rng(5)
        for handle in (zf.zeta_function(), zf.l_function(chi4)):
            for _ in range(15):
                s = complex(rng.uniform(1.2, 5.0), rng.uniform(-20.0, 20.0))
                assert zf.re_bounds_check(handle, s).ok
