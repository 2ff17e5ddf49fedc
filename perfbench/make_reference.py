"""Regenerate perfbench/reference.json: input pools and their reference outputs.

    python3 perfbench/make_reference.py

Needs mpmath (installed, not a zetaflow dependency) for the independent
zero lists; the benchmark itself reads only the JSON it writes.  The PDE and
CLI references are the program's own outputs at the commit that generated
them; the benchmark compares later runs against them within the
``tolerances`` written here, which were fixed before any run.  Rerunning the
script on another commit overwrites those regression references, so do it
only in a change that redefines the benchmark.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import mpmath as mp  # noqa: E402
import numpy as np  # noqa: E402

from zetaflow import dirichlet  # noqa: E402
import workloads as wl  # noqa: E402

POOL_SIZE = {"disc": 64, "confine": 64, "quench_low": 16, "quench_high": 16,
             "global": 16, "field_2d": 16}
CENSUS_TMAX = (283.0, 290.0)     # past the first sink at t = 282.465
ZETA_ZERO_TMAX = 300.0
FLOW_TARGET_TMAX = 100.0
CHI4_TMAX = 40.0
# a flow target must contract a start at radius 0.03 below 1e-6 by t_end = 30
MIN_FLOW_RATE = 1.0

TOLERANCES = {
    "pde_final_abs": 1e-9,       # final-state statistics of a 1-d member
    "quench_time_steps": 1,      # quench time, in macro steps
    "cli_extrema_rel": 1e-9,     # CLI monitor extrema, relative to max(1, |value|)
    "zero_abs": 1e-8,            # located zero vs mpmath
    "flow_final_abs": 1e-6,      # trajectory end vs the zero it was started near
    "l_value_abs": 1e-8,         # L(s, chi_4) vs the alternating-series oracle
}


def _require(ok: bool, what) -> None:
    if not ok:
        raise RuntimeError(f"reference run failed: {what}")


def seeds_1d_pools() -> dict:
    rng = np.random.default_rng(20260809)
    pools = {"disc": [{"seed": i} for i in range(POOL_SIZE["disc"])]}
    pools["confine"] = [{"vmin": float(rng.uniform(-7.45, -6.5)),
                         "vmax": float(rng.uniform(-3.5, -2.55)), "seed": 100 + i}
                        for i in range(POOL_SIZE["confine"])]
    pools["quench_low"] = [{"c0": 0.45 + 0.1 * k / (POOL_SIZE["quench_low"] - 1)}
                           for k in range(POOL_SIZE["quench_low"])]
    pools["quench_high"] = [{"c0": 1.9 + 0.2 * k / (POOL_SIZE["quench_high"] - 1)}
                            for k in range(POOL_SIZE["quench_high"])]
    pools["global"] = [{"vmin": float(rng.uniform(-5.5, -5.0)),
                        "vmax": float(rng.uniform(-3.0, -2.5)), "seed": 200 + i}
                       for i in range(POOL_SIZE["global"])]
    handle = dirichlet.zeta_function()
    for kind, pool in pools.items():
        for entry in pool:
            run = wl.seeds_1d_member(kind, wl.seeds_1d_datum(kind, entry), handle)
            if kind.startswith("quench"):
                _require(run.termination == "quenched", (kind, entry))
                entry["quench_time"] = run.quench.time
            else:
                _require(run.termination == "completed", (kind, entry))
                entry["final"] = wl.final_summary(run.final.values)
    return pools


def field_2d_pool() -> list:
    pool = []
    with tempfile.TemporaryDirectory(dir=HERE.parent) as tmp:
        for seed in range(POOL_SIZE["field_2d"]):
            out = Path(tmp) / str(seed)
            code, _ = wl.run_cli(wl.field_2d_argv(seed, out))
            summary = json.loads((out / "summary.json").read_text())
            _require(code == 0 and summary["check"]["passed"], seed)
            pool.append({"seed": seed, "monitor_extrema": summary["monitor_extrema"]})
    return pool


def strip_reference() -> dict:
    mp.mp.dps = 30
    zeros = []
    n = 1
    while True:
        z = mp.zetazero(n)
        if z.imag > ZETA_ZERO_TMAX:
            break
        d = mp.zeta(z, derivative=1)
        zeros.append((z, d))
        n += 1
    zeta_zeros = [[float(z.imag), "sink" if d.real < 0 else "source"] for z, d in zeros]
    targets = [[float(z.real), float(z.imag)] for z, d in zeros
               if z.imag < FLOW_TARGET_TMAX and d.real >= MIN_FLOW_RATE]

    chi = [0, 1, 0, -1]       # chi_4(n) for n = 0, 1, 2, 3 (mpmath's indexing)
    ts = np.arange(0.05, CHI4_TMAX, 0.05)
    mags = [abs(mp.dirichlet(mp.mpc(0.5, t), chi)) for t in ts]
    chi4 = []
    for i in range(1, len(ts) - 1):
        if mags[i] < mags[i - 1] and mags[i] < mags[i + 1] and mags[i] < 0.5:
            z = mp.findroot(lambda s: mp.dirichlet(s, chi), mp.mpc(0.5, ts[i]))
            if mp.re(mp.dirichlet(z, chi, derivative=1)) >= MIN_FLOW_RATE:
                chi4.append([float(z.real), float(z.imag)])
    return {"zeta_zeros": zeta_zeros, "zeta_flow_targets": targets, "chi4_zeros": chi4,
            "census_tmax_range": list(CENSUS_TMAX)}


def main() -> None:
    ref = {"tolerances": TOLERANCES,
           "seeds_1d": seeds_1d_pools(),
           "field_2d": field_2d_pool(),
           "strip": strip_reference()}
    path = HERE / "reference.json"
    path.write_text(json.dumps(ref, indent=1) + "\n")
    print(f"wrote {path}")


if __name__ == "__main__":
    main()
