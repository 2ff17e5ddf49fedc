"""The three benchmark workloads: inputs, one timed sweep, output checks.

Each workload draws ``n_inputs`` sweep inputs from the run's seed.  A
*sweep* is the fixed unit of work that ``wall_s`` times; ``sweep(i, meter)``
times each operation of input ``i`` through a ``speed.Meter``, and
``check`` checks the outputs afterwards, outside the timed region.
Per-member inputs come from pools whose reference outputs are committed in
``reference.json``; the seed picks which pool entries a sweep uses.  Every
call into the program goes through ``zetaflow.<module>.<function>`` so that
the tracing wrappers installed by ``tracing.py`` see it, nested calls
included.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import shutil
from pathlib import Path

import numpy as np

import zetaflow
import zetaflow.cli  # the package does not import its CLI module itself
from zetaflow import dirichlet, ode, pde


class Tally:
    """Operations attempted, and those that raised or failed their check."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.mismatched = 0     # wrong outputs with no known cause: the run is incorrect
        self.causes: dict[str, int] = {}

    def record(self, what: str, error: str | None = None, ok: bool = True):
        """Count one operation.

        ``error`` names a known cause of failure: an exception the operation
        raised, or a program defect documented in README.md.  Such a failure
        counts in ``failed``; a wrong output without a known cause also
        counts in ``mismatched``.
        """
        self.attempted += 1
        if error is not None:
            self.failed += 1
            key = f"{what}: {error}"
            self.causes[key] = self.causes.get(key, 0) + 1
        elif not ok:
            self.failed += 1
            self.mismatched += 1
            key = f"{what}: output check failed"
            self.causes[key] = self.causes.get(key, 0) + 1


def _attempt(fn, *args, **kwargs):
    """(result, None) or (None, error name) for one operation.

    This is the boundary where one operation's failure is recorded and the
    sweep goes on with the next operation.
    """
    try:
        return fn(*args, **kwargs), None
    except Exception as exc:  # noqa: BLE001 - counted as a failed operation
        return None, type(exc).__name__


def deal(rng, n: int, count: int) -> list[int]:
    """``count`` indices into a pool of ``n``, dealt from seeded permutations.

    A run's draws then cover the pool evenly, as far as ``count`` allows, so
    the work of a run changes little from seed to seed.
    """
    decks = [rng.permutation(n) for _ in range(-(-count // n))]
    return [int(i) for i in np.concatenate(decks)[:count]]


def _digest(parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part if isinstance(part, bytes) else repr(part).encode())
    return h.hexdigest()


def final_summary(values: np.ndarray) -> list[float]:
    """The final-state statistics compared against the references."""
    return [float(np.min(values.real)), float(np.max(values.real)),
            float(np.min(values.imag)), float(np.max(values.imag)),
            float(np.mean(values.real)), float(np.mean(values.imag))]


# ---------------------------------------------------------------------------
# seeds_1d: a serial loop of seeded 32-point marches, as criteria 07-09 run.
# ---------------------------------------------------------------------------

# Members per sweep, by kind.  Together the kinds cover the EM route near the
# sink -2, the fixed-panel route left of Re s = -3, and the focusing flow with
# its pole guard, step halving and global runs.
SEEDS_1D_MIX = (("disc", 4), ("confine", 2), ("quench_low", 1),
                ("quench_high", 1), ("global", 1))
GRID_1D = (32,)

# (lambda, dt, t_end) per kind
SEEDS_1D_RUNS = {
    "disc": (1, 0.04, 4.0),
    "confine": (1, 0.04, 4.0),
    "quench_low": (-1, 1e-3, 10.0),
    "quench_high": (-1, 1e-3, 10.0),
    "global": (-1, 5e-3, 1.0),
}
DISC_CENTER = -2.0
DISC_RADIUS = 0.05
POLE_GUARD = 1e-3


def seeds_1d_datum(kind: str, entry: dict) -> "pde.GridField":
    if kind == "disc":
        return pde.disc_random_field(DISC_CENTER, DISC_RADIUS, seed=entry["seed"],
                                     shape=GRID_1D)
    if kind in ("confine", "global"):
        return pde.smooth_real_field(entry["vmin"], entry["vmax"], seed=entry["seed"],
                                     shape=GRID_1D)
    return pde.constant_field(entry["c0"], shape=GRID_1D)


def seeds_1d_member(kind: str, datum, handle):
    """One member march; the disc kind tracks its distance to the sink."""
    lam, dt, t_end = SEEDS_1D_RUNS[kind]
    cfg = ode.FlowConfig(nonlinearity=handle, lam=lam, t_end=t_end, dt_init=dt,
                         pole_guard_eps=POLE_GUARD)
    track = DISC_CENTER if kind == "disc" else None
    return zetaflow.pde.integrate_pde(datum, cfg, track_target=track)


# Each workload has ``n_inputs`` distinct sweep inputs per run, about 20 s of
# work on a contended core.  A run cycles through them, so the operations it
# counts, and their failures, depend on the seed alone, not on how many
# sweeps fit in the run; and many inputs keep the work per run nearly the
# same from seed to seed.

class Seeds1D:
    name = "seeds_1d"
    n_inputs = 12

    def __init__(self, seed: int, reference: dict):
        ref = reference["seeds_1d"]
        self.tol = reference["tolerances"]
        self.pools = {kind: ref[kind] for kind, _ in SEEDS_1D_MIX}
        self.handle = dirichlet.zeta_function()
        self.data = {kind: [seeds_1d_datum(kind, e) for e in pool]
                     for kind, pool in self.pools.items()}
        rng = np.random.default_rng(seed)
        # quench_high reuses the quench_low index: entry k of quench_low
        # quenches sooner as k grows and entry k of quench_high later, so the
        # pair keeps the steps per sweep nearly constant
        decks = {kind: deal(rng, len(self.pools[kind]), count * self.n_inputs)
                 for kind, count in SEEDS_1D_MIX if kind != "quench_high"}
        decks["quench_high"] = decks["quench_low"]
        self.schedule = [[(kind, i) for kind, count in SEEDS_1D_MIX
                          for i in decks[kind][k * count:(k + 1) * count]]
                         for k in range(self.n_inputs)]

    def warm_up(self):
        for kind, _ in SEEDS_1D_MIX:
            lam, dt, _ = SEEDS_1D_RUNS[kind]
            cfg = ode.FlowConfig(nonlinearity=self.handle, lam=lam, t_end=2 * dt,
                                 dt_init=dt)
            zetaflow.pde.integrate_pde(self.data[kind][0], cfg)

    def sweep(self, i: int, meter):
        """(seconds, outputs) of sweep input ``i``; each member is timed."""
        busy = meter.busy
        outputs = [(kind, idx, *_attempt(meter.timed, seeds_1d_member, kind,
                                         self.data[kind][idx], self.handle))
                   for kind, idx in self.schedule[i]]
        return meter.busy - busy, outputs

    def digest(self, outputs) -> str:
        parts = []
        for kind, idx, run, err in outputs:
            parts += [kind, idx, err]
            if run is not None:
                parts += [run.termination, run.final.values.tobytes(),
                          run.monitors.sup_abs.tobytes(),
                          run.quench.time if run.quench else None]
        return _digest(parts)

    def check(self, outputs, tally: Tally):
        for kind, idx, run, err in outputs:
            what = f"seeds_1d.{kind}"
            if err is not None:
                tally.record(what, error=err)
                continue
            tally.record(what, ok=self._member_ok(kind, self.pools[kind][idx], run))

    def _member_ok(self, kind: str, entry: dict, run) -> bool:
        tol = self.tol
        if kind.startswith("quench"):
            _, dt, _ = SEEDS_1D_RUNS[kind]
            return (run.termination == "quenched"
                    and run.quench.min_p < POLE_GUARD
                    and abs(run.quench.time - entry["quench_time"])
                    <= tol["quench_time_steps"] * dt + 1e-12)
        if run.termination != "completed":
            return False
        if not np.allclose(final_summary(run.final.values), entry["final"],
                           rtol=0.0, atol=tol["pde_final_abs"]):
            return False
        mon = run.monitors
        if kind == "disc":
            # Theorem 1.8 shape: disc data contract onto the sink -2 and stay
            # inside the shrinking disc delta exp(-t delta^2 / 2).
            dist = mon.sup_dist
            radius = DISC_RADIUS * np.exp(-mon.time * DISC_RADIUS ** 2 / 2.0)
            return bool(dist[-1] < dist[0] and np.all(dist <= radius + 1e-6))
        if kind == "confine":
            # Theorem 1.7(ii) shape: real data in [-8, -2] stay on that lattice
            # segment and stay real.
            return bool(mon.re_min.min() >= -8.0 - 1e-6
                        and mon.re_max.max() <= -2.0 + 1e-6
                        and max(abs(mon.im_min.min()), abs(mon.im_max.max())) <= 1e-9)
        return True  # global: S < -2 focusing data run to t_end (checked above)


# ---------------------------------------------------------------------------
# field_2d: one in-process CLI run of the 2-d 128^2 march with a theorem check.
# ---------------------------------------------------------------------------

FIELD_2D_DATUM = "disc:3+1i:0.5"
FIELD_2D_TEND = "0.01"
FIELD_2D_DT = "1e-3"


def field_2d_argv(seed: int, out: Path, tend: str = FIELD_2D_TEND) -> list[str]:
    return ["flow", "--mode", "pde", "--dims", "2", "--grid", "128",
            "--datum", FIELD_2D_DATUM, "--seed", str(seed), "--check", "thm1.5",
            "--tend", tend, "--dt", FIELD_2D_DT, "--out", str(out)]


def run_cli(argv: list[str]):
    """(exit code, captured stdout) of one in-process CLI run."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = zetaflow.cli.main(argv)
    return code, buf.getvalue()


class Field2D:
    name = "field_2d"
    n_inputs = 12

    def __init__(self, seed: int, reference: dict, scratch: Path):
        self.pool = reference["field_2d"]
        self.tol = reference["tolerances"]
        self.out = scratch / "field_2d"
        rng = np.random.default_rng(seed)
        self.schedule = [int(i) for i in rng.choice(len(self.pool), size=self.n_inputs,
                                                     replace=False)]
        self.bytes_written = 0

    def warm_up(self):
        self._clear()
        run_cli(field_2d_argv(self.pool[0]["seed"], self.out, tend=FIELD_2D_DT))
        self._clear()

    def _clear(self):
        if self.out.exists():
            shutil.rmtree(self.out)

    def sweep(self, i: int, meter):
        """(seconds, outputs) of sweep input ``i``; only the CLI call is timed."""
        self._clear()
        argv = field_2d_argv(self.pool[self.schedule[i]]["seed"], self.out)
        busy = meter.busy
        result, err = _attempt(meter.timed, run_cli, argv)
        elapsed = meter.busy - busy
        files = {}
        if self.out.is_dir():
            files = {p.name: p.read_bytes() for p in sorted(self.out.iterdir())}
        self._clear()
        return elapsed, (self.schedule[i], result, err, files)

    def digest(self, outputs) -> str:
        _, result, err, files = outputs
        parts = [err, result]
        for name, data in files.items():
            if name == "summary.json":
                doc = json.loads(data)
                doc.pop("wall_time_s", None)   # a clock reading, not an output
                data = json.dumps(doc, sort_keys=True)
            parts += [name, data]
        return _digest(parts)

    def check(self, outputs, tally: Tally):
        idx, result, err, files = outputs
        self.bytes_written = sum(len(d) for d in files.values())
        if err is not None:
            tally.record("field_2d.cli", error=err)
            return
        tally.record("field_2d.cli", ok=self._run_ok(self.pool[idx], result, files))

    def _run_ok(self, entry: dict, result, files) -> bool:
        code, text = result
        if code != 0 or "summary.json" not in files or "run.json" not in files:
            return False
        summary = json.loads(files["summary.json"])
        check = summary.get("check", {})
        if summary.get("termination") != "completed" or check.get("passed") is not True:
            return False
        if "check thm1.5: pass" not in text:
            return False
        got = summary["monitor_extrema"]
        want = entry["monitor_extrema"]
        rel = self.tol["cli_extrema_rel"]
        return set(got) == set(want) and all(
            abs(got[k] - want[k]) <= rel * max(1.0, abs(want[k])) for k in want)


# ---------------------------------------------------------------------------
# strip: critical-strip analysis with scalar and wide-row evaluations.
# ---------------------------------------------------------------------------

CHI4 = (1, 0, -1, 0)
STRIP_TRAJECTORIES = 3          # per L-function
STRIP_BOUND_POINTS = 60
STRIP_BOXES = 2
BOX_HEIGHT = 30.0
SIGMA0_WIDTH = 0.2
SIGMA0_TMAX = 300.0
FLOW_START_RADIUS = 0.03
FLOW_T_END = 30.0
# find_critical_zeros seeds Newton from interior minima of a 0.05-step scan,
# so it misses a zero that lies within one step below t_max (a program defect)
CENSUS_EDGE_MISS = "missed: zero within 0.05 below t_max"
CENSUS_SCAN_STEP = 0.05


def chi4_oracle(s: complex, n: int = 48) -> complex:
    """L(s, chi_4) = sum_k (-1)^k (2k+1)^-s by Cohen-Villegas-Zagier acceleration.

    Independent of the Hurwitz route.  For 1 < Re s <= 3 and |Im s| <= 20 the
    truncation error is below 1e13 / (3 + sqrt 8)^n, about 1e-24 at n = 48.
    """
    d = (3.0 + math.sqrt(8.0)) ** n
    d = (d + 1.0 / d) / 2.0
    b, c, acc = -1.0, -d, 0.0 + 0.0j
    for k in range(n):
        c = b - c
        acc += c * (2 * k + 1) ** (-s)
        b = (k + n) * (k - n) * b / ((k + 0.5) * (k + 1.0))
    return acc / d


class Strip:
    name = "strip"
    n_inputs = 8

    def __init__(self, seed: int, reference: dict):
        ref = reference["strip"]
        self.tol = reference["tolerances"]
        self.zeta_zeros = ref["zeta_zeros"]             # [t, kind] on Re s = 1/2
        self.flow_targets = {"zeta": [complex(*z) for z in ref["zeta_flow_targets"]],
                             "chi4": [complex(*z) for z in ref["chi4_zeros"]]}
        self.census_range = ref["census_tmax_range"]
        self.handles = {"zeta": dirichlet.zeta_function(),
                        "chi4": dirichlet.l_function(dirichlet.validate_character(CHI4))}
        ordinates = np.array([t for t, _ in self.zeta_zeros])
        rng = np.random.default_rng(seed)
        decks = {which: deal(rng, len(targets), STRIP_TRAJECTORIES * self.n_inputs)
                 for which, targets in self.flow_targets.items()}
        self.schedule = []
        for k in range(self.n_inputs):
            lo, hi = self.census_range
            boxes = []
            for _ in range(STRIP_BOXES):
                a = float(rng.uniform(1.0, 270.0))
                # box edges keep 0.1 away from every zero ordinate
                while np.min(np.abs(ordinates - a)) < 0.1 or \
                        np.min(np.abs(ordinates - (a + BOX_HEIGHT))) < 0.1:
                    a += 0.2
                boxes.append((a, a + BOX_HEIGHT))
            flows = []
            for which in ("zeta", "chi4"):
                targets = self.flow_targets[which]
                for j in decks[which][k * STRIP_TRAJECTORIES:(k + 1) * STRIP_TRAJECTORIES]:
                    angle = float(rng.uniform(0.0, 2.0 * math.pi))
                    start = targets[j] + FLOW_START_RADIUS * complex(math.cos(angle),
                                                                     math.sin(angle))
                    flows.append((which, int(j), start))
            # uniform over 1 < Re s <= 3, |Im s| <= 20, not narrowed anywhere
            points = [complex(3.0 - 2.0 * float(rng.random()), float(rng.uniform(-20.0, 20.0)))
                      for _ in range(STRIP_BOUND_POINTS)]
            sigma_lo = 1.0 + 0.05 * float(rng.random())
            self.schedule.append({"tmax": float(rng.uniform(lo, hi)), "boxes": boxes,
                                  "flows": flows, "points": points, "sigma_lo": sigma_lo})

    def warm_up(self):
        zetaflow.ode.find_critical_zeros(15.0)
        zetaflow.ode.count_zeros_box(-1e-3, 1.001, 1e-3, 15.001)
        zetaflow.ode.integrate_flow(self._flow_cfg("chi4", t_end=0.1), 0.5 + 6.0j)
        zetaflow.dirichlet.re_bounds_check(self.handles["chi4"], 2.0 + 3.0j)
        zetaflow.dirichlet.sigma0_estimate(self.handles["zeta"], 1.0, 1.01, 5.0)

    def _flow_cfg(self, which: str, t_end: float = FLOW_T_END):
        return ode.FlowConfig(nonlinearity=self.handles[which], lam=-1, t_end=t_end,
                              dt_init=1e-2)

    def sweep(self, i: int, meter):
        """(seconds, outputs) of sweep input ``i``; each operation is timed."""
        job = self.schedule[i]
        timed = meter.timed
        busy = meter.busy
        census = _attempt(timed, zetaflow.ode.find_critical_zeros, job["tmax"])
        boxes = [_attempt(timed, zetaflow.ode.count_zeros_box, -1e-3, 1.001, a, b)
                 for a, b in job["boxes"]]
        flows = [_attempt(timed, zetaflow.ode.integrate_flow, self._flow_cfg(which), start)
                 for which, _, start in job["flows"]]
        bounds = [_attempt(timed, zetaflow.dirichlet.re_bounds_check, self.handles["chi4"], s)
                  for s in job["points"]]
        sigma = _attempt(timed, zetaflow.dirichlet.sigma0_estimate, self.handles["zeta"],
                         job["sigma_lo"], job["sigma_lo"] + SIGMA0_WIDTH, SIGMA0_TMAX)
        return meter.busy - busy, (i, census, boxes, flows, bounds, sigma)

    def digest(self, outputs) -> str:
        _, census, boxes, flows, bounds, sigma = outputs
        parts = [census[1], boxes, sigma]
        if census[0] is not None:
            parts += [(r.location, r.kind, r.deriv_re) for r in census[0].records]
            parts += [len(census[0].skipped)]
        for res, err in flows:
            parts += [err, None if res is None else (res.final_state, res.termination,
                                                     len(res.times))]
        for rep, err in bounds:
            parts += [err, None if rep is None else (rep.value, rep.ok)]
        return _digest(parts)

    def check(self, outputs, tally: Tally):
        i, census, boxes, flows, bounds, sigma = outputs
        job = self.schedule[i]
        tol = self.tol
        self._check_census(job["tmax"], census, tally)
        for (a, b), (count, err) in zip(job["boxes"], boxes):
            want = sum(1 for t, _ in self.zeta_zeros if a < t < b)
            tally.record("strip.count_zeros_box", err, ok=count == want)
        for (which, j, _), (res, err) in zip(job["flows"], flows):
            ok = res is not None and res.termination in ("completed", "converged") \
                and abs(res.final_state - self.flow_targets[which][j]) <= tol["flow_final_abs"]
            tally.record(f"strip.integrate_flow.{which}", err, ok=ok)
        for s, (rep, err) in zip(job["points"], bounds):
            ok = rep is not None and rep.ok \
                and abs(rep.value - chi4_oracle(s)) <= tol["l_value_abs"]
            tally.record("strip.re_bounds_check.chi4", err, ok=ok)
        res, err = sigma
        # Re zeta(sigma + it) has no sign change for sigma >= 1, |t| <= 500
        ok = res is not None and not res.attained and res.sigma == job["sigma_lo"]
        tally.record("strip.sigma0_estimate", err, ok=ok)

    def _check_census(self, tmax: float, census, tally: Tally):
        """Each reference zero below tmax is one operation: found, placed, classified."""
        scan, err = census
        want = [(t, kind) for t, kind in self.zeta_zeros if t <= tmax]
        if err is not None:
            for _ in want:
                tally.record("strip.census.zero", error=err)
            return
        found = list(scan.records)
        for t, kind in want:
            hit = next((r for r in found
                        if abs(r.location - complex(0.5, t)) <= self.tol["zero_abs"]), None)
            if hit is not None:
                found.remove(hit)
            edge = hit is None and tmax - t < CENSUS_SCAN_STEP
            tally.record("strip.census.zero", CENSUS_EDGE_MISS if edge else None,
                         ok=hit is not None and hit.kind == kind)
        for _ in found:   # located but not a reference zero
            tally.record("strip.census.zero", ok=False)


def build(name: str, seed: int, reference: dict, scratch: Path):
    if name == "seeds_1d":
        return Seeds1D(seed, reference)
    if name == "field_2d":
        return Field2D(seed, reference, scratch)
    return Strip(seed, reference)
