"""The reflection route: drawn batches within their estimates, and the overflow that raises."""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

import zetaflow as zf  # noqa: E402
from zetaflow import special as sp  # noqa: E402

import oracles  # noqa: E402

# (period, residues): zeta, and chi4's residues 1/4 and 3/4
CASES = ((1, (1.0,)), (4, (0.25, 0.75)))
RE_LEFT = st.floats(-12.0, -3.0, exclude_max=True)
POINTS = st.builds(complex, RE_LEFT, st.floats(-60.0, 60.0))


@settings(max_examples=10, deadline=None)
@given(pts=st.lists(POINTS, min_size=1, max_size=32), case=st.sampled_from(CASES),
       deriv=st.booleans())
def test_reflected_batch_within_its_estimate(pts, case, deriv):
    mpmath = pytest.importorskip("mpmath")
    period, alphas = case
    pts = np.array(pts)
    got, est, routes = sp.hurwitz_split_many(pts, list(alphas), deriv=deriv, period=period)
    assert (routes == sp.REFLECT).all()
    for order, vals in enumerate(got if deriv else (got,)):
        for j, alpha in enumerate(alphas):
            for i, s in enumerate(pts):
                s = complex(s)
                pole = -1.0 / (s - 1.0) ** 2 if order else 1.0 / (s - 1.0)
                err = abs(vals[j, i] + pole - oracles.mp_zeta(mpmath, s, alpha, order))
                assert err <= est[j, i], (s, alpha, order, err, est[j, i])


@settings(max_examples=10, deadline=None)
@given(pts=st.lists(POINTS, max_size=31), far=st.builds(complex, RE_LEFT, st.floats(455.0, 470.0)),
       conjugate=st.booleans(), at=st.integers(0, 31), case=st.sampled_from(CASES))
def test_phase_overflow_raises_naming_the_point(pts, far, conjugate, at, case):
    # cosh(pi Im s / 2) passes the float64 range near |Im s| = 452
    period, alphas = case
    far = far.conjugate() if conjugate else far
    pts.insert(at, far)
    with pytest.raises(zf.AccuracyError) as err:
        sp.hurwitz_split_many(np.array(pts), list(alphas), period=period)
    msg = str(err.value)
    assert repr(far) in msg and "route reflect" in msg
