"""Spans around zetaflow's public callables, installed from outside the program.

``Tracer.installed()`` replaces each target attribute (a module function or
an ``LFunctionHandle`` method) with a wrapper that records a span and puts
the original back on exit.  Because the program calls its layers through
module and class attributes, the wrappers see nested calls too: an
``etd_step`` span contains the ``eval_many`` spans of its nonlinearity, and
those contain the ``hurwitz_split_many`` and Euler-Maclaurin spans.

A span is ``[name, start, end, parent, points, ok, info]``: ``parent`` is the
index of the enclosing span (-1 at the top), ``points`` the number of
evaluation points or grid points of the call, ``ok`` False when the call
raised, ``info`` what the benchmark reads from the call's result.  The
benchmark drives one thread, so spans nest strictly and nothing waits in a
queue; no wait metric exists.
"""

from __future__ import annotations

import statistics
import time
from contextlib import contextmanager

import numpy as np

from zetaflow import cli, dirichlet, ode, pde, special

EM_SMALL_MAX_POINTS = 64


def _points_of(arg_index: int):
    return lambda args: int(np.size(args[arg_index]))


def _field_points(args) -> int:
    return int(args[0].values.size)


def _pde_info(run):
    """(termination, macro steps attempted) of a RunRecord.

    A quenched run attempted one more macro step than it sampled; a run with
    a self-convergence estimate also ran the shadow march at dt/2.
    """
    steps = len(run.monitors.time) - 1 + (run.termination == "quenched")
    if run.error_estimate is not None:
        steps += 2 * round(run.t_end / run.dt)
    return run.termination, steps


# (owner, attribute, span name, points(args) or None, info(result) or None)
TARGETS = (
    (special, "euler_maclaurin_split", "special.em", _points_of(0), None),
    (special, "hurwitz_split_many", "special.split_many", _points_of(0), None),
    (special, "riemann_zeta", "special.scalar", None, None),
    (special, "riemann_zeta_deriv", "special.scalar", None, None),
    (special, "hurwitz_regular_split", "special.scalar", None, None),
    (dirichlet.LFunctionHandle, "eval_many", "dirichlet.eval_many", _points_of(1), None),
    (dirichlet.LFunctionHandle, "eval_point", "dirichlet.eval_point", None, None),
    (dirichlet, "l_eval", "dirichlet.l_eval", None, None),
    (dirichlet, "sigma0_estimate", "dirichlet.sigma0", None, None),
    (pde, "etd_step", "pde.etd_step", _field_points, None),
    (pde, "integrate_pde", "pde.integrate_pde", None, _pde_info),
    (pde, "envelope_check", "pde.envelope_check", None, None),
    (ode, "integrate_flow", "ode.integrate_flow", None, lambda res: len(res.times) - 1),
    (ode, "find_critical_zeros", "ode.census", None,
     lambda scan: (len(scan.records), len(scan.skipped))),
    (ode, "count_zeros_box", "ode.count_zeros_box", None, None),
    (cli, "main", "cli.main", None, None),
)


class Tracer:
    """Records spans in memory while its wrappers are installed."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    def _wrap(self, name, fn, points, info):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1,
                    points(args) if points else 0, True, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[5] = False
                raise
            finally:
                span[2] = clock()
                stack.pop()
            if info is not None:
                span[6] = info(result)
            return result

        return traced

    @contextmanager
    def installed(self):
        """Record spans into a fresh ``self.spans`` until the block exits."""
        self.spans = []
        self._stack = []
        saved = []
        try:
            for owner, attr, name, points, info in TARGETS:
                fn = owner.__dict__[attr]
                saved.append((owner, attr, fn))
                setattr(owner, attr, self._wrap(name, fn, points, info))
            yield self.spans
        finally:
            for owner, attr, fn in reversed(saved):
                setattr(owner, attr, fn)


def layer_metrics(spans: list[list], wall: float, extra: dict) -> dict:
    """Per-layer counts and self times of one traced sweep.

    ``self`` time is a span's duration minus the durations of its direct
    children.  ``extra`` supplies what the spans cannot see
    (``cli.bytes_written``).
    """
    n = len(spans)
    dur = np.array([s[2] - s[1] for s in spans]) if n else np.zeros(0)
    child = np.zeros(n)
    for s, d in zip(spans, dur):
        if s[3] >= 0:
            child[s[3]] += d
    self_t = dur - child
    names = [s[0] for s in spans]

    def ancestors(i):
        p = spans[i][3]
        while p >= 0:
            yield p
            p = spans[p][3]

    def idx(name, pred=lambda i: True):
        return [i for i in range(n) if names[i] == name and pred(i)]

    def total(ix, arr=self_t):
        return float(sum(arr[i] for i in ix))

    def pts(ix):
        return int(sum(spans[i][4] for i in ix))

    def ratio(a, b):
        return float(a) / b if b else 0.0

    m: dict[str, float] = {}
    em = idx("special.em")
    small = [i for i in em if spans[i][4] <= EM_SMALL_MAX_POINTS]
    large = [i for i in em if spans[i][4] > EM_SMALL_MAX_POINTS]
    m["special.em_small.calls"] = len(small)
    m["special.em_small.points"] = pts(small)
    m["special.em_small.self_s"] = total(small)
    m["special.em_large.calls"] = len(large)
    m["special.em_large.points"] = pts(large)
    m["special.em_large.self_s"] = total(large)
    m["special.em_large.us_per_pt"] = ratio(total(large) * 1e6, pts(large))
    m["special.split_many.self_s"] = total(idx("special.split_many"))
    scalar = idx("special.scalar")
    outer = [i for i in scalar if spans[i][3] < 0 or names[spans[i][3]] != "special.scalar"]
    m["special.scalar.calls"] = len(outer)
    m["special.scalar.self_s"] = total(scalar)
    m["special.scalar.failures"] = sum(1 for i in outer if not spans[i][5])

    ev = idx("dirichlet.eval_many")
    m["dirichlet.eval_many.calls"] = len(ev)
    m["dirichlet.eval_many.points"] = pts(ev)
    m["dirichlet.eval_many.self_s"] = total(ev)
    # per point with the Hurwitz children included: the cost of one evaluation
    m["dirichlet.eval_many.us_per_pt"] = ratio(total(ev, dur) * 1e6, pts(ev))
    le = idx("dirichlet.l_eval")
    m["dirichlet.l_eval.calls"] = len(le)
    m["dirichlet.l_eval.self_s"] = total(le)
    m["dirichlet.sigma0.self_s"] = total(idx("dirichlet.sigma0"))

    runs = idx("pde.integrate_pde", lambda i: spans[i][6] is not None)
    macro = sum(spans[i][6][1] for i in runs)
    etd = idx("pde.etd_step")
    m["pde.macro_steps"] = macro
    m["pde.etd_step.calls"] = len(etd)
    m["pde.etd_step.self_s"] = total(etd)
    m["pde.etd_step.ns_per_pt"] = ratio(total(etd) * 1e9, pts(etd))
    m["pde.etd_calls_per_step"] = ratio(len(etd), macro)
    m["pde.integrate_pde.self_s"] = total(idx("pde.integrate_pde"))
    m["pde.envelope_check.self_s"] = total(idx("pde.envelope_check"))
    for kind in ("completed", "quenched", "escaped"):
        m[f"pde.terminations.{kind}"] = sum(1 for i in runs if spans[i][6][0] == kind)

    flows = idx("ode.integrate_flow")
    rhs = idx("dirichlet.eval_point",
              lambda i: any(names[a] == "ode.integrate_flow" for a in ancestors(i)))
    accepted = sum(spans[i][6] for i in flows if spans[i][6] is not None)
    m["ode.integrate_flow.calls"] = len(flows)
    m["ode.integrate_flow.self_s"] = total(flows)
    m["ode.rhs_evals"] = len(rhs)
    m["ode.accepted_steps"] = accepted
    m["ode.rhs_evals_per_step"] = ratio(len(rhs), accepted)
    census = idx("ode.census")
    found = sum(spans[i][6][0] for i in census if spans[i][6] is not None)
    newton = [i for i in outer if any(names[a] == "ode.census" for a in ancestors(i))]
    m["ode.census.self_s"] = total(census)
    m["ode.zeros_found"] = found
    m["ode.seeds_skipped"] = sum(spans[i][6][1] for i in census if spans[i][6] is not None)
    m["ode.newton_evals_per_zero"] = ratio(len(newton), found)
    m["ode.count_zeros_box.self_s"] = total(idx("ode.count_zeros_box"))

    mains = idx("cli.main")
    m["cli.main.calls"] = len(mains)
    m["cli.main.self_s"] = total(mains)
    m["cli.bytes_written"] = extra.get("cli.bytes_written", 0)

    covered = float(sum(dur[i] for i in range(n) if spans[i][3] < 0))
    m["trace.unattributed_s"] = wall - covered
    return m


# Metrics that count work: they must repeat exactly between traced sweeps of
# the same inputs.  The rest are times, reported as medians.
COUNT_METRICS = (
    "special.em_small.calls", "special.em_small.points", "special.em_large.calls",
    "special.em_large.points", "special.scalar.calls", "special.scalar.failures",
    "dirichlet.eval_many.calls", "dirichlet.eval_many.points", "dirichlet.l_eval.calls",
    "pde.macro_steps", "pde.etd_step.calls", "pde.etd_calls_per_step",
    "pde.terminations.completed", "pde.terminations.quenched", "pde.terminations.escaped",
    "ode.integrate_flow.calls", "ode.rhs_evals", "ode.accepted_steps",
    "ode.rhs_evals_per_step", "ode.zeros_found", "ode.seeds_skipped",
    "ode.newton_evals_per_zero", "cli.main.calls",
)


def combine(per_sweep: list[dict]) -> tuple[dict, bool]:
    """Counts from the first traced sweep, times as medians over all of them.

    Returns the metrics and whether every count repeated exactly.
    """
    first = per_sweep[0]
    repeat = all(m[k] == first[k] for m in per_sweep for k in COUNT_METRICS)
    out = {}
    for key in first:
        if key in COUNT_METRICS:
            out[key] = first[key]
        else:
            out[key] = statistics.median(m[key] for m in per_sweep)
    return out, repeat
