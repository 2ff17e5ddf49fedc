"""The router's contract: one route per point, and one kernel call per route for every residue."""

import collections

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

from zetaflow import special as sp  # noqa: E402

import oracles  # noqa: E402

KERNELS = ("_reflect", "_h_rule", "euler_maclaurin_split")
# the residues r/m, r coprime to m, of the characters mod 3, 4 and 5
RESIDUES = {3: (1 / 3, 2 / 3), 4: (0.25, 0.75), 5: (0.2, 0.4, 0.6, 0.8)}
# (period, alphas): zeta, chi4's residues, and an a without a period
ROUTE_CASES = ((1, (1.0,)), (4, (0.25, 0.75)), (None, (0.3,)))


def _counted_call(*args, **kwargs):
    """hurwitz_split_many(*args, **kwargs) and the count of each kernel's calls."""
    calls = collections.Counter()
    with pytest.MonkeyPatch.context() as patch:
        for name in KERNELS:
            def counting(*a, _name=name, _fn=getattr(sp, name), **kw):
                calls[_name] += 1
                return _fn(*a, **kw)
            patch.setattr(sp, name, counting)
        return sp.hurwitz_split_many(*args, **kwargs), calls


@settings(max_examples=40, deadline=None)
@given(re=st.floats(-2.999, 7.999), im=st.floats(-15.0, 15.0),
       period=st.sampled_from(sorted(RESIDUES)))
def test_size_one_call_takes_one_route_for_every_residue(re, im, period):
    mpmath = pytest.importorskip("mpmath")
    s = complex(re, im)
    hypothesis.assume(abs(s - 1.0) > 0.1)
    alphas = RESIDUES[period]
    ((vals, dvals), est, routes), calls = _counted_call(np.array([s]), alphas, deriv=True,
                                                        period=period)
    assert (routes == routes[0]).all(), routes
    assert calls["_h_rule"] + calls["euler_maclaurin_split"] == 1, calls
    assert routes[0, 0] == (sp.HERMITE if calls["_h_rule"] else sp.SERIES_EM)
    for j, alpha in enumerate(alphas):
        ref = oracles.mp_zeta(mpmath, s, alpha) - 1.0 / (s - 1.0)
        dref = oracles.mp_zeta(mpmath, s, alpha, 1) + 1.0 / (s - 1.0) ** 2
        assert abs(vals[j, 0] - ref) <= est[j, 0], (s, alpha, est[j, 0])
        assert abs(dvals[j, 0] - dref) <= est[j, 0], (s, alpha, est[j, 0])


@pytest.mark.parametrize("period, alphas", [(4, RESIDUES[4]), (5, RESIDUES[5]), (None, (0.3, 0.7))])
@pytest.mark.parametrize("deriv", [False, True])
def test_batch_makes_one_kernel_call_per_route(period, alphas, deriv):
    # left of Re s = -3 the reflection (the h-rule without a period), and
    # Euler-Maclaurin once per sign of Re s; the reflection makes one more
    pts = np.array([-5.0 + 1.0j, -4.2 - 3.0j, -2.0 + 0.5j, 0.5 + 14.0j, 2.0 + 300.0j])
    (got, est, routes), calls = _counted_call(pts, alphas, deriv=deriv, period=period)
    left = sp.REFLECT if period else sp.HERMITE
    assert (routes == np.where(pts.real < -3.0, left, sp.SERIES_EM)).all(), routes
    assert calls == collections.Counter(
        {"_reflect": left == sp.REFLECT, "_h_rule": left == sp.HERMITE,
         "euler_maclaurin_split": 2 + (left == sp.REFLECT)}), calls
    for values in (got if deriv else (got,)):
        assert values.shape == est.shape == (len(alphas), pts.size)


# up to 8 points and an order of them
_BATCHES = st.lists(st.builds(complex, st.floats(-23.99, 9.99), st.floats(-320.0, 320.0)),
                    min_size=1, max_size=8).flatmap(
    lambda pts: st.tuples(st.just(pts), st.permutations(range(len(pts)))))


@settings(max_examples=40, deadline=None)
@given(batch=_BATCHES, case=st.sampled_from(ROUTE_CASES))
@example(batch=([2.0, -5.0 + 1.0j, 0.5 + 14.0j], [2, 0, 1]), case=ROUTE_CASES[0])
def test_route_is_the_same_at_every_batch_size(batch, case):
    # a point's route code depends on the point, the residues and the period
    # alone: the same in the whole batch, in a shuffled batch and one point a call
    period, alphas = case
    pts, order = np.array(batch[0], dtype=complex), np.array(batch[1])
    hypothesis.assume(np.all(np.abs(pts - 1.0) > 0.1))
    whole = sp.hurwitz_split_many(pts, alphas, period=period)[2]
    shuffled = sp.hurwitz_split_many(pts[order], alphas, period=period)[2]
    assert (shuffled == whole[:, order]).all(), (pts, whole, shuffled)
    for i in range(pts.size):
        single = sp.hurwitz_split_many(pts[i:i + 1], alphas, period=period)[2]
        assert (single[:, 0] == whole[:, i]).all(), (pts[i], whole[:, i], single[:, 0])


# one Euler-Maclaurin group: every point right of Re s = -3, one sign of Re s
_ONE_GROUP = st.tuples(st.booleans(), st.integers(1, 64)).flatmap(
    lambda case: st.lists(
        st.builds(complex, st.floats(-2.99, -0.01) if case[0] else st.floats(0.0, 8.0),
                  st.floats(-60.0, 60.0) if case[0] else st.floats(-320.0, 320.0)),
        min_size=case[1], max_size=case[1]))
# zeta, chi4's residues and those of a complex character mod 5
ONE_GROUP_CASES = ((1, (1.0,)), (4, RESIDUES[4]), (5, RESIDUES[5]))


@settings(max_examples=40, deadline=None)
@given(pts=_ONE_GROUP, case=st.sampled_from(ONE_GROUP_CASES), deriv=st.booleans())
def test_one_group_batch_is_the_kernels_call(pts, case, deriv):
    # the router hands a batch that is one kernel group to the kernel and
    # returns its arrays: bitwise the kernel's own call, all of it SERIES_EM
    period, alphas = case
    pts = np.array(pts, dtype=complex)
    values, est, routes = sp.hurwitz_split_many(pts, alphas, deriv=deriv, period=period)
    reg, dreg, em_est = sp.euler_maclaurin_split(pts, alphas, 1e-12, deriv)
    assert (routes == sp.SERIES_EM).all(), routes
    for got, want in zip(values if deriv else (values,), (reg, dreg) if deriv else (reg,)):
        assert got.shape == want.shape and got.tobytes() == want.tobytes(), pts
    assert est.tobytes() == em_est.tobytes(), pts
