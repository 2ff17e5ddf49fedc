"""The sigma0 scan's lattice evaluator and the scan's results.

``LFunctionHandle._evaluate_grid`` evaluates L on a sigma x t lattice, the
rows sharing one phase table per residue (``special.hurwitz_grid``).  Its values
are checked against mpmath and against ``evaluate`` at the same points, each
within the estimates; ``sigma0_estimate``, which scans with it, is pinned to
the results the per-row scan gave before the lattice.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import zetaflow as zf
from zetaflow import dirichlet as dd

import oracles

SRC = Path(__file__).resolve().parent.parent / "src"


def _handles():
    return {"zeta": zf.zeta_function(),
            "chi4": zf.l_function(zf.validate_character([1, 0, -1, 0])),
            "chi5": zf.l_function(zf.prime_character_group(5)[1]),      # complex
            "p3": zf.l_function(zf.principal_character(3))}


HANDLES = _handles()
DODGE = dd._T_STEP / 7.0

# (handle, rows, columns): t up to 500 (criterion 02b's window), both signs
# of t for the complex character, the dodged pole point (1, 0.2/7) of a
# principal character, and rows on both sides of Re s = 0 down to -3
LATTICES = [
    ("zeta", [1.3, 1.0, 0.5], [0.2, 14.1, 137.4, 300.0, 499.8, 500.0]),
    ("zeta", [0.3, 0.1, -0.1, -1.5, -3.0], [0.0, 3.0, 20.0, 41.2]),
    ("chi4", [1.8, 0.7, 0.05], [0.0, 5.4, 250.0, 500.0]),
    ("chi4", [0.4, -0.9, -2.5], [0.0, 1.0, 6.0]),
    ("chi5", [1.2, 0.68, 0.0], [-500.0, -26.4, 0.0, 26.4, 499.8]),
    ("chi5", [0.3, -0.4, -2.9], [-12.0, -0.4, 0.0, 3.0]),
    ("p3", [1.0], [DODGE, 0.2, 10.0, 300.0]),
    ("p3", [1.2, 0.999, -0.3], [0.0, 0.4, 9.0, 120.0]),
]


def _lattice(name, sigmas, ts):
    handle = HANDLES[name]
    values, est = handle._evaluate_grid(np.array(sigmas), np.array(ts))
    points = np.array(sigmas)[:, None] + 1j * np.array(ts)[None, :]
    return handle, values, est, points


@pytest.mark.parametrize("name, sigmas, ts", LATTICES)
def test_lattice_within_its_estimate_of_mpmath(name, sigmas, ts):
    mpmath = pytest.importorskip("mpmath")
    handle, values, est, points = _lattice(name, sigmas, ts)
    assert values.shape == est.shape == (len(sigmas), len(ts))
    for value, bound, s in zip(values.ravel(), est.ravel(), points.ravel()):
        want = oracles.mp_l(mpmath, handle.character.values, complex(s))
        assert abs(value - want) <= bound, (s, value, want, bound)


@pytest.mark.parametrize("name, sigmas, ts", LATTICES)
def test_lattice_agrees_with_evaluate(name, sigmas, ts):
    handle, values, est, points = _lattice(name, sigmas, ts)
    direct, direct_est, _ = handle.evaluate(points)
    assert (np.abs(values - direct) <= est + direct_est).all()


# Sigma0Result per window, recorded with the per-row scan before the lattice
# (sigma, attained, t_hit): the TestSigma windows, criterion 02b, windows
# with a hit that bisect, and windows across Re s = 0
PINNED = [
    ("zeta", 0.5, 1.8, 30.0, (0.9999218750000172, True, 0.0)),
    ("chi4", 0.5, 1.8, 30.0, (0.5729687500000262, True, 29.6)),
    ("p3", 0.5, 1.8, 30.0, (0.9999218750000172, True, 0.0)),
    ("zeta", 1.75, 2.2, 60.0, (1.75, False, None)),
    ("zeta", 1.0, 1.3, 0.0, (1.0, False, None)),
    ("zeta", 0.9, 1.3, 50.0, (0.9999218750000065, True, 0.0)),
    ("zeta", 1.0, 1.3, 500.0, (1.0, False, None)),
    ("chi5", 0.5, 1.8, 30.0, (0.677968750000024, True, -26.400000000000002)),
    ("chi5", 0.2, 1.1, 60.0, (0.7471093750000076, True, 54.6)),
    ("zeta", 0.3, 0.7, 40.0, (0.7, True, 0.6000000000000001)),
    ("chi4", 0.6, 1.0, 100.0, (0.6536718749999997, True, 67.2)),
    ("p3", 0.8, 1.2, 20.0, (0.9999218750000043, True, 0.0)),
    ("zeta", -0.5, 0.3, 20.0, (0.3, True, 0.8)),
    ("chi4", -1.0, 0.2, 30.0, (0.2, True, 5.4)),
    ("zeta", -2.9, -1.0, 15.0, (-1.0, True, 0.8)),
    ("chi5", -0.4, 0.3, 25.0, (0.3, True, -24.0)),
    ("p3", -0.3, 0.3, 10.0, (0.3, True, 0.4)),
    ("chi5", -0.4, 0.3, 3.0, (-0.4, False, None)),
    ("chi4", -0.9, 0.4, 3.0, (-0.9, False, None)),
    ("chi5", -1.2, 0.6, 8.0, (0.5917187500000001, True, -4.800000000000001)),
    # zeta(-2) = 0 is on the grid: its rounding-level Re once made a change
    # at t = 0; the first change between sure points is at t = 12.8
    ("zeta", -3.0, -2.0, 40.0, (-2.0, True, 12.8)),
    ("chi5", -2.9, 0.3, 3.0, (-0.8611718750000009, True, 0.4)),
    ("zeta", -2.9, 0.3, 0.4, (-1.8248437500000017, True, 0.2)),
]

# sigma_lo of the strip benchmark's sigma0 windows [sigma_lo, sigma_lo + 0.2]
# at t_max = 300, seeds 1 and 2: Re zeta has no sign change there
STRIP_SIGMA_LO = [
    1.011594993923107, 1.033515332336924, 1.04340190478146, 1.0112968749945614,
    1.02161995290944, 1.0243081107506988, 1.0405384765395957, 1.002317004678419,
    1.0076597158666594, 1.0362492158932743, 1.0074190904200577, 1.0001063601839368,
    1.0306858890656512, 1.0317843482399298, 1.0208478388070852, 1.0468293256328671,
]


@pytest.mark.parametrize("name, lo, hi, t_max, want", PINNED)
def test_sigma0_results_are_pinned(name, lo, hi, t_max, want):
    res = zf.sigma0_estimate(HANDLES[name], lo, hi, t_max)
    assert (res.sigma, res.attained, res.t_hit) == want


def test_sigma0_strip_windows_are_pinned():
    zeta = HANDLES["zeta"]
    for lo in STRIP_SIGMA_LO:
        res = zf.sigma0_estimate(zeta, lo, lo + 0.2, 300.0)
        assert (res.sigma, res.attained, res.t_hit) == (lo, False, None)


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_sigma0_rounding_level_value_has_no_sign(monkeypatch, sign):
    # L(-1, chi4) = 0 is on the grid, where Re L is 8.5e-14 against an
    # estimate of 2.4e-12: with its sign forced either way the scan must
    # return the change just below -1, between Re L < 0 at t = 0 and > 0 at
    # t = 0.2; the sign it once counted made sigma = -1 with one of them
    grid = dd.LFunctionHandle._evaluate_grid

    def forced(self, sigmas, ts):
        values, est = grid(self, sigmas, ts)
        rounding = np.abs(values.real) <= est
        return np.where(rounding, sign * np.abs(values.real) + 1j * values.imag, values), est

    monkeypatch.setattr(dd.LFunctionHandle, "_evaluate_grid", forced)
    res = zf.sigma0_estimate(HANDLES["chi4"], -2.9, 0.4, 4.0)
    assert (res.sigma, res.attained, res.t_hit) == (-1.0000781250000013, True, 0.0)


def test_sigma0_scan_stays_in_its_window():
    # 0.299 is no multiple of the 0.005 step: the last row is sigma_lo
    # itself, not 0.999, where Re zeta(0.999) < 0 changes sign
    res = zf.sigma0_estimate(HANDLES["zeta"], 1.0, 1.299, 50.0)
    assert (res.sigma, res.attained, res.t_hit) == (1.0, False, None)


def test_sigma0_window_left_of_minus_three_is_a_domain_error():
    with pytest.raises(zf.DomainError, match=r"\[-3\.5, -2\.0\]"):
        zf.sigma0_estimate(HANDLES["zeta"], -3.5, -2.0, 10.0)


# ---------------------------------------------------------------------------
# Byte-identical CLI output: the same numpy build, dispatch level, OpenBLAS
# core type and thread count give the same bytes, in one process and across
# processes.
# ---------------------------------------------------------------------------

SIGMA_ARGS = ["sigma", "--which", "sigma0", "--slo", "0.9", "--shi", "1.3", "--tmax", "50"]
FLOW_ARGS = ["flow", "--mode", "pde", "--datum", "disc:-2:0.05", "--seed", "3",
             "--tend", "0.2", "--dt", "0.01", "--grid", "16", "--dump-fields"]


def _artifacts(out: Path) -> dict:
    files = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
    summary = json.loads(files.pop("summary.json"))
    summary.pop("wall_time_s")
    return {**files, "summary.json": summary}


def _in_process(args, capsys):
    from zetaflow.cli import main
    assert main(args) == 0
    return capsys.readouterr().out


def _in_subprocess(args):
    # the environment carries the dispatch level, core type and thread count
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    done = subprocess.run([sys.executable, "-m", "zetaflow", *args], env=env,
                          capture_output=True, text=True, check=True)
    return done.stdout


def test_cli_output_is_byte_identical_in_and_across_processes(tmp_path, capsys):
    runs = []
    for k, call in enumerate((lambda a: _in_process(a, capsys), lambda a: _in_process(a, capsys),
                              _in_subprocess, _in_subprocess)):
        out = tmp_path / f"run{k}"
        runs.append((call(SIGMA_ARGS), call(FLOW_ARGS + ["--out", str(out)]), _artifacts(out)))
    assert "witness" in runs[0][0] and "termination" in runs[0][1]
    assert all(run == runs[0] for run in runs[1:])
