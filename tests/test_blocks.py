"""Wide batches in blocks: the same values as one kernel call, a bounded allocation peak.

A group of more than special._TEMP_BLOCK / R points (R residues) runs the
Euler-Maclaurin kernel, and LFunctionHandle.evaluate its L-combination, on
point blocks, so that no temporary of a wide batch outgrows 64 kB.  The
blocks share the group's one plan, so the values must equal those of one
kernel call on the whole group bit for bit, and the estimates the group's.
"""

import math
import tracemalloc

import numpy as np
import pytest

import zetaflow as zf
from zetaflow import pde
from zetaflow import special as sp

import oracles

# (residues, sizes just below, at and above one block, and of three blocks)
ZETA = ((1.0,), (4095, 4096, 4097, 10_000))
CHI4 = ((0.25, 0.75), (2047, 2048, 2049, 10_000))
# the two sign groups of the router, as (Re s range, |Im s| bound)
GROUPS = {"right": ((0.0, 4.0), 60.0), "left": ((-2.9, -0.01), 30.0)}


def _points(group: str, size: int) -> np.ndarray:
    (lo, hi), im = GROUPS[group]
    rng = np.random.default_rng(size)
    return rng.uniform(lo, hi, size) + 1j * rng.uniform(-im, im, size)


def _recording_kernel(monkeypatch):
    """Record (points, N, K, leads, sieved) of every _em_split call."""
    calls = []
    kernel = sp._em_split

    def recording(s, alpha, n_terms, n_corr, leads, want_deriv, sieved):
        calls.append((np.size(s), n_terms, n_corr, leads, sieved))
        return kernel(s, alpha, n_terms, n_corr, leads, want_deriv, sieved)

    monkeypatch.setattr(sp, "_em_split", recording)
    return calls, kernel


@pytest.mark.parametrize("group", sorted(GROUPS))
@pytest.mark.parametrize("deriv", [False, True], ids=["value", "pair"])
@pytest.mark.parametrize("alphas, sizes", [ZETA, CHI4], ids=["zeta", "chi4"])
def test_blocked_group_equals_one_whole_kernel_call(alphas, sizes, deriv, group, monkeypatch):
    block = sp._TEMP_BLOCK // len(alphas)
    tol = 1e-12
    calls, kernel = _recording_kernel(monkeypatch)
    for size in sizes:
        pts = _points(group, size)
        calls.clear()
        reg, dreg, est = sp.euler_maclaurin_split(pts, alphas, tol=tol, want_deriv=deriv)
        assert [points for points, *_ in calls] == [
            min(block, size - i) for i in range(0, size, block)], size
        # the group's plan, as euler_maclaurin_split makes it
        re_min, re_max = sp._re_hull(pts)
        n_terms, n_corr, remainder, big_s = sp._em_plan(pts, min(alphas), tol, deriv, re_min,
                                                       re_max)
        leads = sp._exact_leads(pts, alphas, tol, big_s, re_max)
        sieved = alphas == (1.0,) and sp._sieve_pays(size, n_terms)
        assert {tuple(plan) for _, *plan in calls} == {(n_terms, n_corr, leads, sieved)}
        whole, dwhole = kernel(pts, alphas, n_terms, n_corr, leads, deriv, sieved)
        assert reg.tobytes() == whole.tobytes(), size
        if deriv:
            assert dreg.tobytes() == dwhole.tobytes(), size
        want = remainder + sp._em_rounding(pts.real, re_min, re_max, big_s, alphas, n_terms,
                                           n_corr, leads, deriv, sieved)
        assert est.tobytes() == np.broadcast_to(want, est.shape).tobytes(), size


@pytest.mark.parametrize("deriv", [False, True], ids=["value", "pair"])
@pytest.mark.parametrize("character", [[1, 0, -1, 0], [1, 1, 1, 1, 0]],
                         ids=["chi4", "principal5"])
def test_blocked_combination_equals_one_whole_call(character, deriv):
    handle = zf.l_function(zf.validate_character(character))
    alphas = handle._residues[2]
    for size in (sp._TEMP_BLOCK // len(alphas) + 1, 10_000):
        pts = _points("right", size)
        values, est, _ = handle.evaluate(pts, deriv=deriv)
        regs, ests, _ = sp.hurwitz_split_many(pts, alphas, handle._router_tol(pts.real.min()),
                                              deriv, handle.period)
        whole_est, *totals = handle._combine(pts, ests, *(regs if deriv else (regs,)))
        for total, value in zip(totals, values if deriv else (values,)):
            assert value.tobytes() == total.tobytes(), size
        assert est.tobytes() == whole_est.tobytes(), size


@pytest.mark.parametrize("group", sorted(GROUPS))
@pytest.mark.parametrize("alphas, sieved", [((1.0,), True), ((1.0,), False),
                                            ((0.25, 0.75), False)],
                         ids=["zeta-sieved", "zeta", "chi4"])
def test_one_point_blocks_equal_the_whole_call(alphas, sieved, group):
    # a group of block + 1 points ends in a one-point block, where numpy's
    # complex product of (1,) and (1, 1) operands rounds otherwise than that
    # of (n,) and (1, n): with the sieved table's (N+1)^(-s) as a bare 1-d
    # array, about a third of these points came out an ulp off
    pts = _points(group, 300)
    re_min, re_max = sp._re_hull(pts)
    n_terms, n_corr, _, big_s = sp._em_plan(pts, min(alphas), 1e-12, True, re_min, re_max)
    leads = sp._exact_leads(pts, alphas, 1e-12, big_s, re_max)
    whole = sp._em_split(pts, alphas, n_terms, n_corr, leads, True, sieved)
    for i in range(pts.size):
        one = sp._em_split(pts[i:i + 1], alphas, n_terms, n_corr, leads, True, sieved)
        assert (one[0][:, 0] == whole[0][:, i]).all() and (one[1][:, 0] == whole[1][:, i]).all(), \
            pts[i]


@pytest.mark.parametrize("group", sorted(GROUPS))
@pytest.mark.parametrize("alphas, sizes", [ZETA, CHI4], ids=["zeta", "chi4"])
def test_blocked_group_within_its_estimate(alphas, sizes, group):
    # both sides of each block boundary, and the last point
    mpmath = pytest.importorskip("mpmath")
    size = sizes[-1]
    block = sp._TEMP_BLOCK // len(alphas)
    pts = _points(group, size)
    reg, dreg, est = sp.euler_maclaurin_split(pts, alphas, 1e-12, True)
    sample = sorted({0, size - 1} | {i + d for i in range(block, size, block) for d in (-1, 0)})
    for order, vals in enumerate((reg, dreg)):
        for j, alpha in enumerate(alphas):
            for i in sample:
                s = complex(pts[i])
                pole = -1.0 / (s - 1.0) ** 2 if order else 1.0 / (s - 1.0)
                err = abs(vals[j, i] + pole - oracles.mp_zeta(mpmath, s, alpha, order))
                assert err <= est[j, i], (s, alpha, order, err, est[j, i])


@pytest.mark.parametrize("deriv", [False, True], ids=["value", "pair"])
def test_evaluate_at_the_pole_names_the_point(deriv):
    handle = zf.zeta_function()
    with pytest.raises(zf.PoleError, match=r"s\[0\] = \(1\+0j\)"):
        handle.evaluate(np.array([1.0 + 0j]), deriv=deriv)
    with pytest.raises(zf.PoleError, match=r": s = \(1\+0j\)"):
        handle.evaluate(np.array(1.0 + 0j), deriv=deriv)
    with pytest.raises(zf.PoleError, match=r"s\[2\] = \(1\+0j\)"):
        handle.evaluate(np.array([2.0, 0.5 + 3j, 1.0, 1.0, 4.0]), deriv=deriv)
    grid = np.full((3, 4), 2.0 + 1j)
    grid[1, 2] = 1.0
    with pytest.raises(zf.PoleError, match=r"s\[1, 2\]"):
        zf.l_function(zf.principal_character(3)).evaluate(grid, deriv=deriv)


def test_pole_test_spares_other_batches(chi4):
    # a non-principal character is finite at s = 1, and a principal one
    # anywhere else
    values = zf.l_function(chi4).evaluate(np.array([1.0 + 0j, 0.5 + 2j]))[0]
    assert np.isfinite(values).all()
    assert abs(values[0] - math.pi / 4) < 1e-12
    values = zf.zeta_function().evaluate(np.array([1.0 + 1e-9j, 1.5, 0.5]))[0]
    assert np.isfinite(values).all()


# Allocation peak of one evaluate call on a 128x128 disc field, less the
# arrays it returns: the whole-field temporaries took 1.78 MB (zeta, value)
# and 6.2 MB (chi4, pair), and the blocks about 0.8 MB and 1.7 MB.
PEAK_CASES = [
    pytest.param(lambda: zf.zeta_function(), False, 1 << 20, id="zeta-value"),
    pytest.param(lambda: zf.l_function(zf.validate_character([1, 0, -1, 0])), True, 2 << 20,
                 id="chi4-pair"),
]


@pytest.mark.parametrize("make_handle, deriv, limit", PEAK_CASES)
def test_wide_evaluate_allocation_peak(make_handle, deriv, limit):
    handle = make_handle()
    field = pde.disc_random_field(3 + 1j, 0.5, 1, shape=(128, 128)).values
    handle.evaluate(field, deriv=deriv)           # plans and tables cached
    tracemalloc.start()
    try:
        values, est, routes = handle.evaluate(field, deriv=deriv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    returned = sum(v.nbytes for v in (values if deriv else (values,))) + est.nbytes + routes.nbytes
    assert peak - returned < limit, (peak, returned)
