"""The Euler-Maclaurin plan cells: estimates that hold, and plans that depend on the cell alone."""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

import zetaflow as zf  # noqa: E402
from zetaflow import special as sp  # noqa: E402

import oracles  # noqa: E402

ALPHAS = (0.25, 0.5, 0.75, 1.0)
TRIVIAL_ZEROS = (-2.0, -4.0, -6.0)


@st.composite
def cell_batches(draw):
    """3 to 12 points about a centre in Re s in [-20, 8], |Im s| <= 320, or by a trivial zero."""
    if draw(st.booleans()):
        centre = complex(draw(st.floats(-20.0, 8.0)), draw(st.floats(-320.0, 320.0)))
        width = draw(st.floats(1e-4, 0.5))
    else:
        centre = complex(draw(st.sampled_from(TRIVIAL_ZEROS)), 0.0)
        width = draw(st.floats(1e-4, 0.035))
    unit = st.floats(-1.0, 1.0)
    offsets = draw(st.lists(st.tuples(unit, unit), min_size=3, max_size=12))
    pts = np.array([centre + width * complex(x, y) for x, y in offsets])
    pts = np.clip(pts.real, -20.0, 8.0) + 1j * np.clip(pts.imag, -320.0, 320.0)
    hypothesis.assume(np.abs(pts - 1.0).min() > 0.1)
    return pts


def _extremes(pts):
    """Indices of the points that fix the hull a plan cell is read from."""
    return {int(np.argmin(pts.real)), int(np.argmax(pts.real)),
            int(np.argmax(np.abs(pts))), int(np.argmax(np.abs(pts.imag)))}


def _plan(pts, alpha, deriv):
    try:
        return sp._em_plan(pts, alpha, 1e-12, deriv, float(pts.real.min()),
                           float(pts.real.max()))[:3]
    except zf.AccuracyError as err:
        return str(err).split(" at s=")[0]


@settings(max_examples=25, deadline=None)
@given(pts=cell_batches(), alpha=st.sampled_from(ALPHAS), with_period=st.booleans(),
       deriv=st.booleans(), data=st.data())
def test_cells_plan_alike_and_estimates_hold(pts, alpha, with_period, deriv, data):
    mpmath = pytest.importorskip("mpmath")
    # every sub-batch with the batch's hull and size class has its cell, so its plan
    whole = _plan(pts, alpha, deriv)
    keep = _extremes(pts)
    size_class = (pts.size - 1).bit_length()
    rest = [i for i in range(pts.size) if i not in keep]
    extra = data.draw(st.lists(st.sampled_from(rest), unique=True) if rest else st.just([]))
    sub = pts[sorted(keep | set(extra))]
    if (sub.size - 1).bit_length() == size_class:
        assert _plan(sub, alpha, deriv) == whole
    # every value lies within its estimate, or the router raises naming a point
    period = 4 if with_period else None
    try:
        got, est, _ = sp.hurwitz_split_many(pts, alpha, deriv=deriv, period=period)
    except zf.AccuracyError as err:
        assert any(repr(complex(s)) in str(err) for s in pts), str(err)
        return
    vals = got[1] if deriv else got
    for i, s in enumerate(pts):
        s = complex(s)
        pole = -1.0 / (s - 1.0) ** 2 if deriv else 1.0 / (s - 1.0)
        ref = oracles.mp_zeta(mpmath, s, alpha, int(deriv))
        assert abs(vals[i] + pole - ref) <= est[i], (s, alpha, period, deriv, est[i])


def test_nearby_size_one_calls_plan_once():
    # the RK stages of a flow: 100 scalar calls within 1e-3 of 0.5+48i fall in
    # the two cells either side of Re s = 1/2
    rng = np.random.default_rng(5)
    pts = 0.5 + 48.0j + 1e-3 * rng.uniform(0.0, 1.0, 100) * np.exp(2j * np.pi * rng.random(100))
    sp._cell_plan.cache_clear()
    for s in pts:
        sp.riemann_zeta(complex(s))
    assert sp._cell_plan.cache_info().misses <= 2


def test_value_does_not_depend_on_what_came_before():
    # a plan is a function of its cell alone: the same point evaluates
    # bitwise alike on a cold cache and after a neighbour filled its cell
    s, neighbour = np.array([0.5001 + 48.0003j]), np.array([0.5003 + 48.0008j])
    fresh = []
    for first in (None, neighbour, np.array([-2.01 + 0.02j, 0.5 + 48.0j])):
        sp._cell_plan.cache_clear()
        if first is not None:
            sp.hurwitz_split_many(first, [0.25, 0.75], deriv=True, period=4)
        (vals, dvals), est, _ = sp.hurwitz_split_many(s, [0.25, 0.75], deriv=True, period=4)
        fresh.append((vals.tobytes(), dvals.tobytes(), est.tobytes()))
    assert fresh[0] == fresh[1] == fresh[2]


def test_cached_failure_names_the_callers_point():
    # both points share a cell whose plan needs more than 2^31 terms: the
    # second reads the cached outcome and still names its own point
    sp._cell_plan.cache_clear()
    for s in (0.5001 + 10.0j, 0.5002 + 10.0001j):
        with pytest.raises(zf.AccuracyError) as err:
            sp.euler_maclaurin_split(np.array([s]), (1.0,), 1e-300, False)
        assert repr(s) in str(err.value) and "route series-em" in str(err.value)
    assert sp._cell_plan.cache_info().hits == 1
