import json
import math

import numpy as np
import pytest

import zetaflow as zf
from zetaflow.cli import main


def run(args):
    return main(args)


def _within_printed_estimate(out: str, reference: float):
    """Assert that the value ``eval`` or ``l`` printed lies within its printed estimate."""
    value_line, est_line, path_line = out.splitlines()
    re_part, sign, im_part = value_line.split(" = ")[1].split()
    value = complex(float(re_part), (1.0 if sign == "+" else -1.0) * float(im_part[:-1]))
    est = float(est_line.split(":")[1])
    assert abs(value - reference) <= est, (value, est)
    assert path_line == "path: series-em"


class TestEval:
    def test_zeta_basel(self, capsys):
        assert run(["eval", "zeta", "--s", "2"]) == 0
        _within_printed_estimate(capsys.readouterr().out, math.pi ** 2 / 6)

    def test_zeta_trivial_zero(self, capsys):
        assert run(["eval", "zeta", "--s", "-2"]) == 0
        value = float(capsys.readouterr().out.splitlines()[0].split("=")[1].split()[0])
        assert abs(value) < 1e-8

    def test_l_subcommand_alias(self, capsys):
        assert run(["l", "--principal", "2", "--s", "2"]) == 0
        _within_printed_estimate(capsys.readouterr().out, math.pi ** 2 / 8)

    def test_l_prints_reported_estimate(self, capsys):
        # the router's estimate at pi^2/8 is far below the 1e-10 tolerance
        assert run(["l", "--principal", "2", "--s", "2"]) == 0
        line = [l for l in capsys.readouterr().out.splitlines()
                if l.startswith("abs error estimate:")][0]
        assert float(line.split(":")[1]) <= 1e-12

    def test_eval_l_form(self, capsys):
        assert run(["eval", "l", "--principal", "2", "--s", "2"]) == 0
        assert "1.23370055" in capsys.readouterr().out

    def test_l_path_names_the_router_route(self, capsys):
        assert run(["eval", "l", "--principal", "2", "--s", "2"]) == 0
        assert "path: series-em" in capsys.readouterr().out
        assert run(["eval", "l", "--principal", "2", "--s=-5+1i"]) == 0
        assert "path: reflect" in capsys.readouterr().out
        assert run(["l", "--principal", "3", "--s", "0.5+40i"]) == 0
        assert "path: series-em" in capsys.readouterr().out

    def test_pole_is_config_error(self):
        assert run(["eval", "zeta", "--s", "1"]) == 2

    def test_bad_complex(self):
        assert run(["eval", "zeta", "--s", "two"]) == 2

    @pytest.mark.parametrize("text", ["inf", "nan", "-inf", "1+infi", "nan,0", "0,inf"])
    def test_non_finite_complex_is_config_error(self, text, capsys):
        # "inf" once failed only as the unparseable "jnf"
        assert run(["eval", "zeta", f"--s={text}"]) == 2
        assert "not finite" in capsys.readouterr().err

    def test_hurwitz_term_past_float64_is_numerical_failure(self, capsys):
        # 4^s leaves the float64 range; m ** (min Re s) raised OverflowError
        assert run(["eval", "l", "--principal", "4", "--s", "1e5"]) == 3
        err = capsys.readouterr().err
        assert err.startswith("numerical failure:") and "s=(100000+0j)" in err

    def test_hurwitz_form(self, capsys):
        assert run(["eval", "hurwitz", "--s", "2", "--alpha", "0.5"]) == 0
        _within_printed_estimate(capsys.readouterr().out, math.pi ** 2 / 2)

    def test_character_file(self, tmp_path, capsys, chi4):
        import zetaflow as zf
        doc = zf.character_to_json(chi4)
        path = tmp_path / "chi4.json"
        path.write_text(json.dumps(doc))
        assert run(["l", "--character-file", str(path), "--s", "1"]) == 0
        out = capsys.readouterr().out
        assert f"{math.pi / 4:.8f}"[:8] in out


class TestZeros:
    def test_window_15(self, tmp_path, capsys):
        out = tmp_path / "z"
        assert run(["zeros", "--tmax", "15", "--out", str(out)]) == 0
        stdout = capsys.readouterr().out
        assert "1 zeros located" in stdout
        assert "source" in stdout
        zeros = json.loads((out / "zeros.json").read_text())
        assert len(zeros) == 1
        assert abs(zeros[0]["location"]["im"] - 14.134725) < 1e-3
        pn = (out / "pn.csv").read_text().splitlines()
        assert pn[0] == "n,p_n"
        assert pn[1] == "1,0"
        summary = json.loads((out / "summary.json").read_text())
        assert summary["zero_count"] == 1
        assert summary["schema"] == 1

    def test_empty_window(self, tmp_path):
        out = tmp_path / "z0"
        assert run(["zeros", "--tmax", "0", "--out", str(out)]) == 0
        assert json.loads((out / "zeros.json").read_text()) == []
        assert (out / "pn.csv").read_text() == "n,p_n\n"

    def test_cap_is_config_error(self, tmp_path):
        assert run(["zeros", "--tmax", "500", "--out", str(tmp_path / "zz")]) == 2

    def test_summary_names_skipped_seeds(self, tmp_path):
        # at abs_tol 1e-14 every seed's estimate is refused; each is reported
        out = tmp_path / "skip"
        assert run(["zeros", "--tmax", "40", "--abs-tol", "1e-14", "--out", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["zero_count"] == 0
        assert summary["skipped_seeds"] == len(summary["skipped"]) == 6
        for entry in summary["skipped"]:
            assert set(entry) == {"t_seed", "reason"}
            assert "s=" in entry["reason"] and "(route " in entry["reason"]
        assert abs(summary["skipped"][0]["t_seed"] - 14.15) < 1e-9


class TestFlow:
    def test_ode_trajectory(self, tmp_path):
        out = tmp_path / "ode"
        assert run(["flow", "--mode", "ode", "--datum", "const:-3",
                    "--tend", "50", "--out", str(out)]) == 0
        lines = (out / "trajectory.csv").read_text().splitlines()
        assert lines[0] == "t,re,im"
        last = lines[-1].split(",")
        assert float(last[0]) == pytest.approx(50.0)
        summary = json.loads((out / "summary.json").read_text())
        assert summary["termination"] == "completed"

    def test_tolerances_enter_config_hash(self, tmp_path):
        # rtol changes the trajectory, so it must change the run's identity
        outs = []
        for rtol in ("1e-6", "1e-12"):
            out = tmp_path / f"rtol{rtol}"
            assert run(["flow", "--mode", "ode", "--datum", "const:-3", "--tend", "20",
                        "--rtol", rtol, "--out", str(out)]) == 0
            outs.append(out)
        trajectories = [(o / "trajectory.csv").read_text() for o in outs]
        assert trajectories[0] != trajectories[1]
        hashes = [json.loads((o / "summary.json").read_text())["config_hash"] for o in outs]
        assert hashes[0] != hashes[1]

    @pytest.mark.parametrize("mode", ["ode", "pde"])
    def test_zero_horizon_returns_the_datum(self, tmp_path, mode):
        out = tmp_path / mode
        assert run(["flow", "--mode", mode, "--datum", "const:-3", "--tend", "0",
                    "--grid", "16", "--out", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["termination"] == "completed"
        if mode == "ode":
            assert summary["final_state"] == {"re": -3.0, "im": 0.0, "t": 0.0}
        else:
            assert summary["monitor_extrema"]["sup_abs"] == 3.0
            assert json.loads((out / "run.json").read_text())["snapshots"][-1]["t"] == 0.0

    def test_ode_needs_constant_datum(self, tmp_path):
        assert run(["flow", "--mode", "ode", "--datum", "range:-3,-2", "--seed", "1",
                    "--out", str(tmp_path / "x")]) == 2

    def test_pde_envelope_check(self, tmp_path, capsys):
        out = tmp_path / "pde"
        assert run(["flow", "--mode", "pde", "--datum", "const:3", "--lambda", "+1",
                    "--check", "thm1.7i", "--tend", "1", "--dt", "0.002",
                    "--out", str(out)]) == 0
        assert "check thm1.7i: pass" in capsys.readouterr().out
        summary = json.loads((out / "summary.json").read_text())
        assert summary["check"]["passed"] is True
        assert summary["termination"] == "completed"
        run_doc = json.loads((out / "run.json").read_text())
        assert run_doc["snapshots"][0]["re_min"] == 3.0

    def test_pde_quench_exit_zero(self, tmp_path):
        out = tmp_path / "q"
        assert run(["flow", "--mode", "pde", "--datum", "const:0.5",
                    "--lambda", "-1", "--tend", "5", "--out", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["termination"] == "quenched"
        assert summary["quench"]["min_p"] < 1e-3

    def test_hypothesis_rejected_before_run(self, tmp_path):
        # the refused run once left its directory with a summary.json
        assert run(["flow", "--mode", "pde", "--datum", "const:1.5",
                    "--check", "thm1.5", "--tend", "1",
                    "--out", str(tmp_path / "h")]) == 2
        assert not (tmp_path / "h").exists()

    @pytest.mark.parametrize("argv, needs", [
        (["--datum", "const:0.5", "--lambda", "+1", "--check", "thm1.9"],
         "thm1.9 needs lambda = -1"),
        (["--datum", "const:3", "--lambda", "-1", "--check", "thm1.7i"],
         "thm1.7i needs lambda = +1"),
        (["--datum", "const:3", "--lambda", "-1", "--check", "thm1.5"],
         "thm1.5 needs lambda = +1"),
        (["--datum", "const:3", "--nonlinearity", "principal:3", "--check", "thm1.7i"],
         "thm1.7i needs the zeta nonlinearity"),
        (["--datum", "disc:-2:0.05", "--seed", "1", "--lambda", "-1", "--check", "thm1.8"],
         "thm1.8 needs a disc datum around a zero z0 of L with lambda Re L'(z0) < 0;"),
        (["--datum", "disc:3:0.05", "--seed", "1", "--check", "thm1.8"],
         "thm1.8 needs a disc datum around a zero z0 of L with lambda Re L'(z0) < 0 (|F|"),
    ], ids=["thm1.9-defocusing", "thm1.7i-focusing", "thm1.5-focusing",
            "thm1.7i-principal3", "thm1.8-repelling", "thm1.8-not-a-zero"])
    def test_check_outside_its_theorem_rejected_before_run(self, tmp_path, monkeypatch, capsys,
                                                           argv, needs):
        # each ran the march and reported a false counterexample (or a pass
        # for an L the theorem is not about) with exit 0
        def march(*args, **kwargs):
            raise AssertionError("integrate_pde ran")
        monkeypatch.setattr(zf.pde, "integrate_pde", march)
        out = tmp_path / "outside"
        assert run(["flow", "--mode", "pde", "--grid", "16", "--tend", "0.05"] + argv
                   + ["--out", str(out)]) == 2
        assert needs in capsys.readouterr().err
        assert not out.exists()

    def test_thm19_hypothesis_rejected_before_run(self, tmp_path, monkeypatch):
        # I = -3 and S = 0.5 meet no case of thm1.9; the march once ran to its
        # end and wrote run.json before the check refused the datum
        def march(*args, **kwargs):
            raise AssertionError("integrate_pde ran")
        monkeypatch.setattr(zf.pde, "integrate_pde", march)
        out = tmp_path / "t19"
        assert run(["flow", "--mode", "pde", "--datum", "range:-3,0.5", "--seed", "1",
                    "--check", "thm1.9", "--tend", "0.05", "--grid", "32",
                    "--lambda", "-1", "--out", str(out)]) == 2
        assert not (out / "run.json").exists()

    def test_theorem_check_evaluates_at_the_run_tolerance(self, tmp_path, monkeypatch):
        # sigma_1 in the hypothesis and zeta(I1) in the margins were taken
        # at the default abs_tol 1e-10, whatever --abs-tol the run set
        tols = []
        original = zf.special.riemann_zeta

        def riemann_zeta(s, cfg=zf.special.DEFAULT_CONFIG):
            tols.append(cfg.abs_tol)
            return original(s, cfg)
        monkeypatch.setattr(zf.special, "riemann_zeta", riemann_zeta)
        zf.sigma1_root.cache_clear()
        assert run(["flow", "--mode", "pde", "--datum", "const:3", "--check", "thm1.5",
                    "--tend", "0.05", "--dt", "0.01", "--grid", "16", "--abs-tol", "1e-6",
                    "--out", str(tmp_path / "tol")]) == 0
        assert tols and set(tols) == {1e-6}

    def test_unknown_check(self, tmp_path):
        assert run(["flow", "--mode", "pde", "--datum", "const:3",
                    "--check", "thm7.7", "--out", str(tmp_path / "u")]) == 2

    def test_seed_required_for_random_datum(self, tmp_path):
        assert run(["flow", "--mode", "pde", "--datum", "disc:-2:0.05",
                    "--out", str(tmp_path / "s")]) == 2

    def test_fourier_datum_and_2d_grid(self, tmp_path):
        out = tmp_path / "f2"
        assert run(["flow", "--mode", "pde", "--datum", "fourier:2.5:1,0.1,0.05",
                    "--tend", "0.1", "--dt", "0.01", "--grid", "16",
                    "--out", str(out)]) == 0
        assert run(["flow", "--mode", "pde", "--datum", "fourier:2.5:1,0.1,0.05",
                    "--dims", "2", "--grid", "16",
                    "--out", str(tmp_path / "f3")]) == 2
        assert run(["flow", "--mode", "pde", "--datum", "const:2.5", "--dims", "2",
                    "--grid", "16", "--tend", "0.1", "--dt", "0.01",
                    "--out", str(tmp_path / "f4")]) == 0

    def test_numerical_failure_exit_code(self, tmp_path):
        # an absurdly small pole guard lets the trajectory run into the pole
        # until the step size underflows: stiffness is a numerical failure
        out = tmp_path / "stiff"
        code = run(["flow", "--mode", "ode", "--datum", "const:1.5",
                    "--lambda", "-1", "--tend", "10",
                    "--pole-guard", "1e-13", "--out", str(out)])
        assert code == 3
        summary = json.loads((out / "summary.json").read_text())
        assert summary["termination"].startswith("error:")

    def test_non_finite_march_is_numerical_failure(self, tmp_path, monkeypatch):
        # a step that stays non-finite through every halving ended as a
        # configuration error (exit 2) from the evaluator
        original = zf.LFunctionHandle.eval_many

        def eval_many(self, s):
            values = original(self, s)
            values.flat[3] = np.inf
            return values
        monkeypatch.setattr(zf.LFunctionHandle, "eval_many", eval_many)
        out = tmp_path / "nan"
        assert run(["flow", "--mode", "pde", "--datum", "const:2.5", "--tend", "0.1",
                    "--dt", "0.01", "--grid", "16", "--out", str(out)]) == 3
        summary = json.loads((out / "summary.json").read_text())
        assert summary["termination"].startswith("error: time step halving exhausted at t = 0.0")

    def test_picard_mode(self, tmp_path, capsys):
        out = tmp_path / "pic"
        assert run(["flow", "--mode", "picard", "--datum", "const:3",
                    "--out", str(out)]) == 0
        assert "picard horizon" in capsys.readouterr().out
        summary = json.loads((out / "summary.json").read_text())
        assert all(r <= 0.5 for r in summary["contraction_ratios"])
        assert summary["etd_deviation"] < 1e-5

    def test_field_dump(self, tmp_path):
        out = tmp_path / "fd"
        assert run(["flow", "--mode", "pde", "--datum", "const:2", "--tend", "0.05",
                    "--dt", "0.01", "--grid", "16", "--dump-fields",
                    "--out", str(out)]) == 0
        lines = (out / "fields.csv").read_text().splitlines()
        assert lines[0] == "snapshot,t,index,re,im"
        assert len(lines) > 16
        # run.json takes its rows from the monitors at the snapshot times; 500
        # steps keep every other field, so a row off by one would show
        out = tmp_path / "rows"
        assert run(["flow", "--mode", "pde", "--datum", "disc:-2:0.05", "--seed", "5",
                    "--tend", "1", "--dt", "0.002", "--grid", "16", "--dump-fields",
                    "--out", str(out)]) == 0
        fields = np.loadtxt(out / "fields.csv", delimiter=",", skiprows=1)
        snapshots = json.loads((out / "run.json").read_text())["snapshots"]
        assert 200 <= len(snapshots) < 500
        for k, row in enumerate(snapshots):
            mine = fields[fields[:, 0] == k]
            values = mine[:, 3] + 1j * mine[:, 4]
            assert row == {"t": mine[0, 1],
                           "re_min": values.real.min(), "re_max": values.real.max(),
                           "im_min": values.imag.min(), "im_max": values.imag.max(),
                           "sup_abs": np.abs(values).max()}

    def test_stability_check(self, tmp_path, capsys):
        out = tmp_path / "st"
        assert run(["flow", "--mode", "pde", "--datum", "disc:-2:0.05",
                    "--seed", "3", "--grid", "16", "--tend", "100",
                    "--dt", "0.05", "--check", "thm1.8", "--out", str(out)]) == 0
        assert "check thm1.8: pass" in capsys.readouterr().out
        summary = json.loads((out / "summary.json").read_text())
        assert summary["check"]["sup_dist_final"] < 1e-6

    def test_stability_check_tracks_the_refined_zero(self, tmp_path, capsys):
        # the disc center 0.5+14.1347i is 2.5e-5 from the zero; the run once
        # tracked the center as typed and reported FAIL at that distance
        out = tmp_path / "z1"
        assert run(["flow", "--mode", "pde", "--datum", "disc:0.5+14.1347i:0.01",
                    "--seed", "1", "--lambda", "-1", "--grid", "32", "--tend", "40",
                    "--dt", "0.02", "--check", "thm1.8", "--out", str(out)]) == 0
        assert "check thm1.8: pass" in capsys.readouterr().out
        summary = json.loads((out / "summary.json").read_text())
        assert summary["check"]["sup_dist_final"] < 1e-10

    def test_quench_check(self, tmp_path, capsys):
        out = tmp_path / "qc"
        assert run(["flow", "--mode", "pde", "--datum", "const:0.5",
                    "--lambda", "-1", "--tend", "5", "--check", "thm1.9",
                    "--out", str(out)]) == 0
        assert "check thm1.9: pass" in capsys.readouterr().out

    def test_global_check(self, tmp_path, capsys):
        out = tmp_path / "gc"
        assert run(["flow", "--mode", "pde", "--datum", "range:-5,-3",
                    "--seed", "2", "--grid", "16", "--lambda", "-1",
                    "--tend", "5", "--dt", "0.01", "--check", "thm1.9",
                    "--out", str(out)]) == 0
        assert "check thm1.9: pass" in capsys.readouterr().out

    def test_determinism(self, tmp_path):
        args = ["flow", "--mode", "pde", "--datum", "disc:-2:0.05", "--seed", "5",
                "--tend", "0.5", "--dt", "0.01", "--grid", "32", "--dump-fields"]
        out1, out2 = tmp_path / "d1", tmp_path / "d2"
        assert run(args + ["--out", str(out1)]) == 0
        assert run(args + ["--out", str(out2)]) == 0
        assert (out1 / "fields.csv").read_bytes() == (out2 / "fields.csv").read_bytes()
        assert (out1 / "run.json").read_bytes() == (out2 / "run.json").read_bytes()
        s1 = json.loads((out1 / "summary.json").read_text())
        s2 = json.loads((out2 / "summary.json").read_text())
        s1.pop("wall_time_s"), s2.pop("wall_time_s")
        assert s1 == s2
        assert s1["config_hash"] == s2["config_hash"]


class TestConfigDocument:
    def test_document_supplies_flags(self, tmp_path):
        cfg = {"schema": 1, "command": "flow", "mode": "pde",
               "datum": "const:2", "tend": 0.1, "dt": 0.01,
               "grid": 16, "out": str(tmp_path / "c1")}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert run(["--config", str(path)]) == 0
        summary = json.loads((tmp_path / "c1" / "summary.json").read_text())
        assert summary["config"]["tend"] == 0.1

    def test_flags_override_document(self, tmp_path):
        cfg = {"schema": 1, "command": "flow", "mode": "pde",
               "datum": "const:2", "tend": 0.1, "dt": 0.01, "grid": 16,
               "out": str(tmp_path / "c2")}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert run(["flow", "--config", str(path), "--tend", "0.2"]) == 0
        summary = json.loads((tmp_path / "c2" / "summary.json").read_text())
        assert summary["config"]["tend"] == 0.2

    def test_summary_config_replays(self, tmp_path):
        out1 = tmp_path / "r1"
        assert run(["flow", "--mode", "pde", "--datum", "disc:-2:0.05", "--seed", "5",
                    "--tend", "0.2", "--dt", "0.01", "--grid", "16",
                    "--out", str(out1)]) == 0
        first = json.loads((out1 / "summary.json").read_text())
        out2 = tmp_path / "r2"
        path = tmp_path / "replay.json"
        path.write_text(json.dumps(dict(first["config"], out=str(out2))))
        assert run(["--config", str(path)]) == 0
        second = json.loads((out2 / "summary.json").read_text())
        assert second["config_hash"] == first["config_hash"]
        assert (out2 / "run.json").read_bytes() == (out1 / "run.json").read_bytes()

    def test_dump_fields_enters_config_hash(self, tmp_path):
        # --dump-fields adds fields.csv, so it must change the run's identity
        argv = ["flow", "--mode", "pde", "--datum", "const:2", "--tend", "0.05",
                "--dt", "0.01", "--grid", "16"]
        plain, dumped = tmp_path / "plain", tmp_path / "dumped"
        assert run(argv + ["--out", str(plain)]) == 0
        assert run(argv + ["--dump-fields", "--out", str(dumped)]) == 0
        assert not (plain / "fields.csv").exists() and (dumped / "fields.csv").exists()
        hashes = [json.loads((o / "summary.json").read_text())["config_hash"]
                  for o in (plain, dumped)]
        assert hashes[0] != hashes[1]

    def test_summary_config_replays_fields(self, tmp_path):
        out1 = tmp_path / "f1"
        assert run(["flow", "--mode", "pde", "--datum", "disc:-2:0.05", "--seed", "3",
                    "--tend", "0.05", "--dt", "0.01", "--grid", "16", "--dump-fields",
                    "--out", str(out1)]) == 0
        first = json.loads((out1 / "summary.json").read_text())
        assert first["config"]["dump_fields"] is True
        out2 = tmp_path / "f2"
        path = tmp_path / "replay.json"
        path.write_text(json.dumps(dict(first["config"], out=str(out2))))
        assert run(["--config", str(path)]) == 0
        second = json.loads((out2 / "summary.json").read_text())
        assert second["config_hash"] == first["config_hash"]
        assert (out2 / "fields.csv").read_bytes() == (out1 / "fields.csv").read_bytes()

    def test_bad_schema(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"schema": 99, "command": "flow"}))
        assert run(["--config", str(path)]) == 2

    def test_missing_file(self):
        assert run(["--config", "/nonexistent/cfg.json"]) == 2


@pytest.mark.parametrize("argv, spec", [
    (["flow", "--datum", "range:1", "--seed", "1"], "range:1"),
    (["flow", "--datum", "fourier:3:1,2"], "fourier:3:1,2"),
    (["flow", "--datum", "const:1,x"], "const:1,x"),
    (["flow", "--datum", "const:2", "--nonlinearity", "principal:x"], "principal:x"),
    (["eval", "zeta", "--s", "2,x"], "2,x"),
    (["--config", "{dir}/bad.json", "eval"], "bad.json"),
])
def test_malformed_input_is_config_error(tmp_path, capsys, argv, spec):
    (tmp_path / "bad.json").write_text("{not json")
    argv = [a.format(dir=tmp_path) for a in argv]
    if argv[0] == "flow":
        argv += ["--out", str(tmp_path / "out")]
    assert run(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error:") and spec in err


@pytest.mark.parametrize("argv", [
    ["flow", "--datum", "range:1", "--seed", "1"],
    ["flow", "--datum", "const:2", "--nonlinearity", "principal:x"],
    ["flow", "--datum", "const:2", "--lambda", "2"],
    ["flow", "--datum", "const:2", "--dt", "-1"],
    ["zeros", "--tmax", "400"],
])
def test_config_error_leaves_no_out_directory(tmp_path, argv):
    out = tmp_path / "out"
    assert run(argv + ["--out", str(out)]) == 2
    assert not out.exists()


class TestBoundsAndSigma:
    def test_bounds_table(self, capsys):
        assert run(["bounds", "--alpha", "1", "--beta", "2"]) == 0
        out = capsys.readouterr().out
        assert "37.32" in out
        assert "closed-form" in out and "numerical-sup" in out

    def test_bounds_with_horizon(self, capsys):
        assert run(["bounds", "--m", "1", "--beta", "4", "--eps", "0.5"]) == 0
        out = capsys.readouterr().out
        assert "T (local horizon)" in out
        t_line = [l for l in out.splitlines() if l.startswith("T ")][0]
        assert float(t_line.split()[3]) > 0

    def test_bounds_h1_nonincreasing_in_alpha(self, capsys):
        assert run(["bounds", "--alpha", "0.5", "--beta", "1"]) == 0
        h1_a = float([l for l in capsys.readouterr().out.splitlines()
                      if l.startswith("H1")][0].split()[3])
        assert run(["bounds", "--alpha", "0.9", "--beta", "1"]) == 0
        h1_b = float([l for l in capsys.readouterr().out.splitlines()
                      if l.startswith("H1")][0].split()[3])
        assert h1_a >= h1_b

    def test_bounds_needs_alpha_or_m(self):
        assert run(["bounds", "--beta", "2"]) == 2

    @pytest.mark.parametrize("m", ["0", "-2"])
    def test_bounds_m_must_be_positive(self, capsys, m):
        assert run(["bounds", "--m", m, "--beta", "1"]) == 2
        assert f"--m must be a positive integer, got {m}" in capsys.readouterr().err

    def test_bounds_alpha_gives_the_period_of_the_assembled_rows(self, capsys):
        # the assembled rows of --alpha 0.5 were once those of m = 1
        def assembled(argv):
            assert run(["bounds", "--beta", "1", "--eps", "0.1"] + argv) == 0
            return [line for line in capsys.readouterr().out.splitlines()
                    if line.endswith("assembled")]

        rows = assembled(["--alpha", "0.5"])
        assert len(rows) == 5 and rows == assembled(["--m", "2"])
        assert float(rows[0].split()[1]) == pytest.approx(23.43, abs=0.01)

    def test_bounds_alpha_and_m_conflict(self, capsys):
        # --alpha 0.5 --m 3 once printed the rows of alpha = 1/3
        assert run(["bounds", "--alpha", "0.5", "--m", "3", "--beta", "1"]) == 2
        err = capsys.readouterr().err
        assert "--alpha" in err and "--m" in err

    def test_bounds_alpha_without_a_period_needs_m(self, capsys):
        assert run(["bounds", "--alpha", "0.3", "--beta", "1", "--eps", "0.1"]) == 2
        assert "give --m" in capsys.readouterr().err

    def test_sigma1(self, capsys):
        assert run(["sigma", "--which", "sigma1"]) == 0
        out = capsys.readouterr().out
        value = float(out.split("=")[1].split()[0])
        assert 1.70 <= value <= 1.74

    def test_sigma0_window_flag(self, capsys):
        assert run(["sigma", "--which", "sigma0", "--tmax", "1",
                    "--slo", "1.0", "--shi", "1.2"]) == 0
        assert "not attained in window" in capsys.readouterr().out
