"""Layer probes: direct timings of single calls, reported with the traced run.

Each probe calls one public function on fixed inputs until it has run for
``PROBE_SECONDS`` (and at least ``MIN_REPEATS`` times), and reports the
median call.  The inputs do not depend on the run's seed, so the numbers
compare across runs and commits.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

import zetaflow

PROBE_SECONDS = 0.05
MIN_REPEATS = 3

# Evaluation regions, named after the route eval_many takes there: the
# fixed-panel h-quadrature left of Re s = -3, Euler-Maclaurin with Re s < 0
# and with Re s >= 0, and Euler-Maclaurin above |Im s| = 15.
REGIONS = {
    "fixed": ((-6.0, -3.5), (-10.0, 10.0)),
    "em_neg": ((-2.5, -0.5), (-10.0, 10.0)),
    "em_pos": ((0.5, 6.0), (-10.0, 10.0)),
    "high_im": ((0.2, 3.0), (15.5, 40.0)),
}
BATCHES = (1, 32, 1024, 16384)
# one scalar point per region; the scalar router sends all but high_im to
# the adaptive h-quadrature
SCALAR_POINTS = {"fixed": -5.0 + 2.0j, "em_neg": -1.5 + 3.0j,
                 "em_pos": 0.5 + 10.0j, "high_im": 0.5 + 100.0j}


def _median_call(fn, *args) -> float:
    times = []
    start = time.perf_counter()
    while len(times) < MIN_REPEATS or time.perf_counter() - start < PROBE_SECONDS:
        t0 = time.perf_counter()
        fn(*args)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def region_points(region: str, batch: int) -> np.ndarray:
    """``batch`` points spread over the region on a fixed lattice."""
    (re_lo, re_hi), (im_lo, im_hi) = REGIONS[region]
    k = np.arange(batch)
    golden = (np.sqrt(5.0) - 1.0) / 2.0
    u = (k + 0.5) / batch
    v = (k * golden) % 1.0
    return (re_lo + (re_hi - re_lo) * u) + 1j * (im_lo + (im_hi - im_lo) * v)


def run_probes() -> dict:
    out = {}
    zeta = zetaflow.dirichlet.zeta_function()
    for region in REGIONS:
        for batch in BATCHES:
            pts = region_points(region, batch)
            t = _median_call(zeta.eval_many, pts)
            out[f"probe.eval_many.{region}.{batch}.us_per_pt"] = t * 1e6 / batch
    for label, shape in (("n32", (32,)), ("n128x128", (128, 128))):
        field = zetaflow.pde.disc_random_field(3.0 + 1.0j, 0.5, seed=0, shape=shape)
        out[f"probe.heat_semigroup.{label}.us"] = \
            _median_call(zetaflow.pde.heat_semigroup, field, 0.01) * 1e6
    for region, s in SCALAR_POINTS.items():
        out[f"probe.riemann_zeta.{region}.us"] = \
            _median_call(zetaflow.special.riemann_zeta, s) * 1e6
    return out
