"""The router's contract: one route per point, and one kernel call per route for every residue."""

import collections

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from zetaflow import special as sp  # noqa: E402

import oracles  # noqa: E402

KERNELS = ("_reflect", "_h_rule", "euler_maclaurin_split")
# the residues r/m, r coprime to m, of the characters mod 3, 4 and 5
RESIDUES = {3: (1 / 3, 2 / 3), 4: (0.25, 0.75), 5: (0.2, 0.4, 0.6, 0.8)}


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
