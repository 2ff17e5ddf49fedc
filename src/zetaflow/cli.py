"""Command-line interface: eval | l | zeros | flow | bounds | sigma.

One command per process.  Run-producing commands (zeros, flow) write their
artifacts plus a run summary JSON under --out; a JSON config document can
supply any flag (explicit flags win).  ``flow --check ID`` makes two calls
into ID's entry of pde.THEOREMS: its hypotheses before the march, its verdict
after it, and a configuration error leaves no output directory.  Exit codes:
0 success (quenching is a scientific outcome, not a failure), 2 configuration
error, 3 numerical failure.  Floats in CSV artifacts carry 17 significant
digits; JSON numbers use the shortest exact round-trip form.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import math
import re
import sys
import time
from pathlib import Path

import numpy as np

from .errors import (AccuracyError, CharacterValidationError,
                     ConfigurationError, ContractionError,
                     CounterexampleError, DomainError, NumericalFailureError,
                     PoleError, StiffnessError, ZetaflowError)
from . import dirichlet, ode, pde, special
from .special import EvalConfig

SCHEMA_VERSION = 1


def _fmt(x: float) -> str:
    return f"{float(x):.17g}"


def _parse_complex(text: str) -> complex:
    """'re,im' or a complex literal with i or j as the unit; only finite values."""
    text = text.strip()
    try:
        if "," in text:
            re_s, im_s = text.split(",", 1)
            value = complex(float(re_s), float(im_s))
        else:
            # a trailing i is the imaginary unit; the i of inf is not
            value = complex(re.sub(r"i(?=\)?$)", "j", text.replace(" ", "")))
    except ValueError as exc:
        raise ConfigurationError(f"cannot parse complex number {text!r}") from exc
    if not (math.isfinite(value.real) and math.isfinite(value.imag)):
        raise ConfigurationError(f"complex number {text!r} is not finite")
    return value


def _parse_lambda(text: str) -> int:
    t = str(text).strip()
    if t in ("+1", "1"):
        return 1
    if t == "-1":
        return -1
    raise ConfigurationError("lambda must be +1 or -1")


def _nonlinearity_from_spec(spec: str, cfg: EvalConfig) -> dirichlet.LFunctionHandle:
    if spec == "zeta":
        return dirichlet.zeta_function(cfg)
    if spec.startswith("principal:"):
        try:
            m = int(spec.split(":", 1)[1])
        except ValueError as exc:
            raise ConfigurationError(f"malformed nonlinearity spec {spec!r}") from exc
        return dirichlet.l_function(dirichlet.principal_character(m), cfg)
    if spec.startswith("file:"):
        path = Path(spec.split(":", 1)[1])
        if not path.exists():
            raise ConfigurationError(f"character file not found: {path}")
        table = dirichlet.character_from_json(path.read_text())
        return dirichlet.l_function(table, cfg)
    raise ConfigurationError(f"unknown nonlinearity spec {spec!r}")


def _l_spec(args) -> str:
    """The nonlinearity spec named by the --principal / --character-file flags."""
    if args.principal is not None:
        return f"principal:{args.principal}"
    return f"file:{args.character_file}" if args.character_file else "zeta"


def _datum_from_spec(spec: str, seed, shape, length) -> pde.GridField:
    parts = spec.split(":")
    kind = parts[0]
    try:
        if kind == "const" and len(parts) == 2:
            return pde.constant_field(_parse_complex(parts[1]), shape, length)
        if kind == "disc" and len(parts) == 3:
            if seed is None:
                raise ConfigurationError("a seed is mandatory for randomized data")
            return pde.disc_random_field(_parse_complex(parts[1]), float(parts[2]),
                                         int(seed), shape, length)
        if kind == "range" and len(parts) == 2:
            if seed is None:
                raise ConfigurationError("a seed is mandatory for randomized data")
            vmin, vmax = (float(x) for x in parts[1].split(","))
            return pde.smooth_real_field(vmin, vmax, int(seed), shape, length)
        if kind == "fourier" and len(parts) >= 2:
            if len(shape) != 1:
                raise ConfigurationError("the fourier datum spec is one-dimensional")
            mean = _parse_complex(parts[1])
            modes = []
            for chunk in parts[2:]:
                k_s, re_s, im_s = chunk.split(",")
                modes.append((int(k_s), complex(float(re_s), float(im_s))))
            return pde.fourier_field(mean, modes, shape, length)
    except DomainError:
        raise
    except ValueError as exc:  # a malformed number or field count, or one of the above
        raise ConfigurationError(f"datum spec {spec!r}: {exc}") from exc
    raise ConfigurationError(f"unknown datum spec {spec!r}")


def _config_hash(doc: dict) -> str:
    return hashlib.sha256(
        json.dumps(doc, sort_keys=True, separators=(",", ":")).encode()).hexdigest()


def _write_summary(out_dir: Path, summary: dict) -> None:
    (out_dir / "summary.json").write_text(json.dumps(summary, sort_keys=True, indent=1) + "\n")


def _monitor_extrema(run: pde.RunRecord) -> dict:
    mon = run.monitors
    out = {"min_p": float(np.min(mon.min_p)),
           "re_min": float(np.min(mon.re_min)), "re_max": float(np.max(mon.re_max)),
           "im_min": float(np.min(mon.im_min)), "im_max": float(np.max(mon.im_max)),
           "sup_abs": float(np.max(mon.sup_abs))}
    if mon.sup_dist is not None:
        out["sup_dist_final"] = float(mon.sup_dist[-1])
    return out


# ---------------------------------------------------------------------------
# Subcommand implementations.
# ---------------------------------------------------------------------------

def cmd_eval(args) -> int:
    cfg = EvalConfig(abs_tol=args.abs_tol)
    s = _parse_complex(args.s)
    if args.function == "zeta":
        value, est, path = special.eval_diagnostics(s, 1.0, cfg)
        label = f"zeta({args.s})"
    elif args.function == "hurwitz":
        value, est, path = special.eval_diagnostics(s, args.alpha, cfg)
        label = f"zeta({args.s}, {args.alpha:g})"
    else:  # l; argparse restricts the choices
        handle = _nonlinearity_from_spec(_l_spec(args), cfg)
        value, est, path = dirichlet.l_eval_with_estimate(handle, s)
        label = f"L[m={handle.period}]({args.s})"
    print(f"{label} = {_fmt(value.real)} {'+' if value.imag >= 0 else '-'} {_fmt(abs(value.imag))}i")
    print(f"abs error estimate: {est:.3g}")
    print(f"path: {path}")
    return 0


def cmd_zeros(args) -> int:
    t0 = time.perf_counter()
    cfg = EvalConfig(abs_tol=args.abs_tol)
    scan = ode.find_critical_zeros(args.tmax, cfg)      # validates t_max first
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    records = [ode.zero_record_to_dict(r) for r in scan.records]
    (out_dir / "zeros.json").write_text(json.dumps(records, sort_keys=True, indent=1) + "\n")
    lines = ["n,p_n"] + [f"{n},{_fmt(p)}" for n, p in ode.sink_proportion(scan.records)]
    (out_dir / "pn.csv").write_text("\n".join(lines) + "\n")
    doc = {"command": "zeros", "tmax": args.tmax, "abs_tol": args.abs_tol,
           "schema": SCHEMA_VERSION}
    summary = {
        "schema": SCHEMA_VERSION,
        "command": "zeros",
        "config": doc,
        "config_hash": _config_hash(doc),
        "termination": "completed",
        "zero_count": len(scan.records),
        "skipped_seeds": len(scan.skipped),
        "skipped": [dataclasses.asdict(s) for s in scan.skipped],
        "artifacts": ["zeros.json", "pn.csv"],
        "wall_time_s": round(time.perf_counter() - t0, 3),
    }
    _write_summary(out_dir, summary)
    print(f"{len(scan.records)} zeros located (skipped seeds: {len(scan.skipped)})")
    for rec in scan.records[:5]:
        print(f"  {rec.location.real:.6f} + {rec.location.imag:.6f}i  {rec.kind}")
    if len(scan.records) > 5:
        print(f"  ... ({len(scan.records) - 5} more in zeros.json)")
    return 0


def cmd_flow(args) -> int:
    t0 = time.perf_counter()
    handle = _nonlinearity_from_spec(args.nonlinearity, EvalConfig(abs_tol=args.abs_tol))
    shape = (args.grid,) if args.dims == 1 else (args.grid, args.grid)
    datum = _datum_from_spec(args.datum, args.seed, shape, args.length)
    cfg = ode.FlowConfig(nonlinearity=handle, lam=_parse_lambda(args.lam), dt_init=args.dt,
                         t_end=args.tend, pole_guard_eps=args.pole_guard)
    if args.mode == "ode" and not args.datum.startswith("const:"):
        raise ConfigurationError("ode mode needs a constant datum")
    spec = check = None
    target = _track_target(args)
    if args.check is not None:
        if args.mode != "pde":
            raise ConfigurationError("--check applies to --mode pde")
        spec = pde.EnvelopeSpec.from_field(datum)
        if args.check == "thm1.8" and target is not None:
            # the run tracks the zero z0 that Newton refines from the disc
            # center; where L is not small there, the check below says so
            try:
                target = ode._classify(handle, target)
            except DomainError:
                pass
        check = pde.validate_envelope_hypotheses(spec, args.check, cfg, target)
        if isinstance(target, ode.ZeroRecord):
            target = target.location
    # created once the configuration is valid, so a configuration error
    # leaves no directory behind
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    doc = {"command": "flow", "mode": args.mode, "datum": args.datum,
           "lambda": cfg.lam, "tend": args.tend, "dt": args.dt,
           "grid": args.grid, "dims": args.dims, "length": args.length,
           "seed": args.seed, "nonlinearity": args.nonlinearity,
           "check": args.check, "rtol": args.rtol, "atol": args.atol,
           "abs_tol": args.abs_tol, "pole_guard": args.pole_guard,
           "picard_iters": args.picard_iters, "dump_fields": args.dump_fields,
           "schema": SCHEMA_VERSION}
    summary = {"schema": SCHEMA_VERSION, "command": "flow", "config": doc,
               "config_hash": _config_hash(doc), "artifacts": [], "flags": []}

    try:
        return _run_flow(args, datum, cfg, spec, check, target, out_dir, summary, t0)
    except ZetaflowError as exc:
        summary["termination"] = f"error: {exc}"
        summary["wall_time_s"] = round(time.perf_counter() - t0, 3)
        _write_summary(out_dir, summary)
        raise


def _run_flow(args, datum, cfg, spec, check, target, out_dir, summary, t0) -> int:
    if args.mode == "ode":
        result = ode.integrate_flow(cfg, datum.values.flat[0],
                                    rtol=args.rtol, atol=args.atol)
        (out_dir / "trajectory.csv").write_text("\n".join(ode.trajectory_csv_lines(result)) + "\n")
        summary["termination"] = result.termination
        summary["final_state"] = {"re": result.final_state.real,
                                  "im": result.final_state.imag,
                                  "t": result.final_time}
        if result.converged_to is not None:
            summary["converged_to"] = ode.zero_record_to_dict(result.converged_to)
        summary["artifacts"].append("trajectory.csv")
    elif args.mode == "picard":
        consts = pde.constants_for_datum(datum, cfg.nonlinearity.period)
        picard_cfg = dataclasses.replace(cfg, dt_init=consts.t_local / 16.0,
                                         t_end=consts.t_local)
        result = pde.picard_local_solve(datum, consts, args.picard_iters, picard_cfg)
        etd_run = pde.integrate_pde(datum, picard_cfg)
        dev = float(np.max(np.abs(result.final.values - etd_run.final.values)))
        summary.update(termination="completed", t_local=consts.t_local, etd_deviation=dev,
                       contraction_distances=result.distances, contraction_ratios=result.ratios)
        print(f"picard horizon t_local = {consts.t_local:.6g}; "
              f"ratios {['%.3g' % r for r in result.ratios]}; "
              f"ETD deviation {dev:.3g}")
    else:  # pde
        run = pde.integrate_pde(datum, cfg, track_target=target,
                                estimate_error=check is not None and check.estimate_error)
        summary["termination"] = run.termination
        summary["monitor_extrema"] = _monitor_extrema(run)
        if run.quench is not None:
            summary["quench"] = {"time": run.quench.time,
                                 "min_p": run.quench.min_p,
                                 "value": {"re": run.quench.value.real,
                                           "im": run.quench.value.imag}}
        # each snapshot's monitor row: a snapshot is taken at a monitor time
        rows = np.searchsorted(run.monitors.time, run.snapshot_times)
        columns = ("re_min", "re_max", "im_min", "im_max", "sup_abs")
        run_doc = {
            "termination": run.termination,
            "dt": run.dt, "t_end": run.t_end, "lambda": run.cfg.lam,
            "snapshots": [dict(t=t, **{c: getattr(run.monitors, c)[k].item() for c in columns})
                          for t, k in zip(run.snapshot_times, rows)],
        }
        (out_dir / "run.json").write_text(
            json.dumps(run_doc, sort_keys=True, indent=1) + "\n")
        summary["artifacts"].append("run.json")
        if args.dump_fields:
            lines = ["snapshot,t,index,re,im"]
            for k, (t, snap) in enumerate(zip(run.snapshot_times, run.snapshots)):
                for idx, v in enumerate(snap.ravel()):
                    lines.append(f"{k},{_fmt(t)},{idx},{_fmt(v.real)},{_fmt(v.imag)}")
            (out_dir / "fields.csv").write_text("\n".join(lines) + "\n")
            summary["artifacts"].append("fields.csv")
        if run.shadow_failure is not None:
            summary["flags"].append(f"no error estimate: the shadow run {run.shadow_failure}")
        if check is not None:
            block = summary["check"] = check.verdict(run, spec, args.check)
            print(f"check {args.check}: {'pass' if block['passed'] else 'FAIL'} "
                  f"({block['detail']})")
        print(f"termination: {run.termination}")

    summary["wall_time_s"] = round(time.perf_counter() - t0, 3)
    _write_summary(out_dir, summary)
    return 0


def _track_target(args) -> complex | None:
    if args.datum.startswith("disc:"):
        return _parse_complex(args.datum.split(":")[1])
    return None


def cmd_bounds(args) -> int:
    if (args.m is None) == (args.alpha is None):
        raise ConfigurationError("give one of --alpha and --m: both set the period")
    if args.m is not None and args.m < 1:
        raise ConfigurationError(f"--m must be a positive integer, got {args.m}")
    alpha = args.alpha if args.m is None else 1.0 / args.m
    bc = special.bound_constants(alpha, args.beta)
    d1 = special.d_sup_bound(alpha, args.beta)
    rows = [
        ("a(alpha,beta)", bc.a_ab, "closed-form"),
        ("b(beta)", bc.b_b, "closed-form"),
        ("H1 = 2(a+b)", bc.h1, "closed-form"),
        ("H2 (|h'| bound)", bc.h2, "closed-form"),
        ("D1 (|d| bound)", d1, "numerical-sup"),
        ("D2 (|d'| bound)", bc.d2, "closed-form"),
    ]
    if alpha < 1.0:
        r_d2 = float(np.log(1.0 / alpha) * (args.beta + 1.0))
        rows.append((f"E(r) at r={r_d2:.6g} (feeds D2)", bc.e_r, "closed-form"))
    for r in (0.5, 1.0, 2.0):
        rows.append((f"E({r:g})", special.f_prime_sup_bound(r), "closed-form"))
    if args.eps is not None:
        m = args.m if args.m is not None else round(1.0 / alpha)
        if abs(m * alpha - 1.0) > 1e-12:
            raise ConfigurationError(f"1/alpha = {1.0 / alpha:g} is no period: give --m")
        consts = pde.local_constants(args.beta, args.eps, m)
        rows += [
            ("Z1", consts.z1, "assembled"),
            ("Z2", consts.z2, "assembled"),
            ("M1", consts.m1, "assembled"),
            ("M2", consts.m2, "assembled"),
            ("T (local horizon)", consts.t_local, "assembled"),
        ]
    width = max(len(r[0]) for r in rows) + 2
    print(f"{'constant':<{width}}{'value':<26}provenance")
    for name, value, prov in rows:
        print(f"{name:<{width}}{_fmt(value):<26}{prov}")
    return 0


def cmd_sigma(args) -> int:
    cfg = EvalConfig(abs_tol=args.abs_tol)
    if args.which == "sigma1":
        s1 = dirichlet.sigma1_root(cfg)
        print(f"sigma1 = {s1:.8f}  (real root of zeta(sigma) = 2, bisection to 1e-8)")
        return 0
    handle = _nonlinearity_from_spec(args.nonlinearity, cfg)
    res = dirichlet.sigma0_estimate(handle, args.slo, args.shi, args.tmax)
    print(f"sigma0 window estimate = {res.sigma:.6f}  "
          f"(window |t| <= {args.tmax:g}, sigma in [{args.slo:g}, {args.shi:g}])")
    if res.attained:
        print(f"witness: Re L changes sign near t = {res.t_hit:.4g}")
    else:
        print("flag: not attained in window (no sign change of Re L found); "
              "the true abscissa may require a far larger t-window")
    return 0


# ---------------------------------------------------------------------------
# Parser assembly, config-document merge, entry point.
# ---------------------------------------------------------------------------

def _add_eval_args(p, with_function=True):
    if with_function:
        p.add_argument("function", choices=("zeta", "hurwitz", "l"))
    p.add_argument("--s", required=True, help="complex point, e.g. 2 or 0.5+14.13i")
    p.add_argument("--alpha", type=float, default=1.0)
    p.add_argument("--principal", type=int, default=None,
                   help="use the principal character of this period")
    p.add_argument("--character-file", default=None,
                   help="JSON character table {period, values}")
    p.add_argument("--abs-tol", type=float, default=1e-10)


def build_parser() -> argparse.ArgumentParser:
    root = argparse.ArgumentParser(
        prog="zetaflow",
        description="Zeta/Dirichlet heat-flow simulator and special-function CLI")
    root.add_argument("--config", default=None,
                      help="JSON document supplying flag values (flags override)")
    sub = root.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", help="evaluate zeta / Hurwitz zeta / L-function")
    _add_eval_args(p_eval)
    p_eval.set_defaults(func=cmd_eval)

    p_l = sub.add_parser("l", help="evaluate a Dirichlet L-function")
    _add_eval_args(p_l, with_function=False)
    p_l.set_defaults(func=cmd_eval, function="l")

    p_zeros = sub.add_parser("zeros", help="locate and classify critical-line zeros")
    p_zeros.add_argument("--tmax", type=float, required=True)
    p_zeros.add_argument("--out", default="zetaflow-out")
    p_zeros.add_argument("--abs-tol", type=float, default=1e-10)
    p_zeros.set_defaults(func=cmd_zeros)

    p_flow = sub.add_parser("flow", help="integrate the ODE/PDE flow")
    p_flow.add_argument("--mode", choices=("ode", "pde", "picard"), default="pde")
    p_flow.add_argument("--datum", required=True,
                        help="const:C | disc:C:R | range:A,B | fourier:MEAN:k,re,im...")
    p_flow.add_argument("--lambda", dest="lam", default="+1")
    p_flow.add_argument("--tend", type=float, default=1.0)
    p_flow.add_argument("--dt", type=float, default=1e-3)
    p_flow.add_argument("--grid", type=int, default=64)
    p_flow.add_argument("--dims", type=int, choices=(1, 2), default=1)
    p_flow.add_argument("--length", type=float, default=2.0 * np.pi)
    p_flow.add_argument("--seed", type=int, default=None)
    p_flow.add_argument("--nonlinearity", default="zeta",
                        help="zeta | principal:m | file:chars.json")
    p_flow.add_argument("--check", default=None, help="|".join(pde.THEOREM_IDS))
    p_flow.add_argument("--rtol", type=float, default=1e-9)
    p_flow.add_argument("--atol", type=float, default=1e-9)
    p_flow.add_argument("--abs-tol", type=float, default=1e-10)
    p_flow.add_argument("--pole-guard", type=float, default=1e-3)
    p_flow.add_argument("--picard-iters", type=int, default=8)
    p_flow.add_argument("--dump-fields", action="store_true")
    p_flow.add_argument("--out", default="zetaflow-out")
    p_flow.set_defaults(func=cmd_flow)

    p_bounds = sub.add_parser("bounds", help="print the explicit bound constants")
    p_bounds.add_argument("--alpha", type=float, default=None)
    p_bounds.add_argument("--m", type=int, default=None)
    p_bounds.add_argument("--beta", type=float, required=True)
    p_bounds.add_argument("--eps", type=float, default=None)
    p_bounds.set_defaults(func=cmd_bounds)

    p_sigma = sub.add_parser("sigma", help="sigma1 root / sigma0 window estimate")
    p_sigma.add_argument("--which", choices=("sigma0", "sigma1"), required=True)
    p_sigma.add_argument("--tmax", type=float, default=500.0)
    p_sigma.add_argument("--slo", type=float, default=1.0)
    p_sigma.add_argument("--shi", type=float, default=1.3)
    p_sigma.add_argument("--nonlinearity", default="zeta")
    p_sigma.add_argument("--abs-tol", type=float, default=1e-10)
    p_sigma.set_defaults(func=cmd_sigma)
    return root


def _merge_config_document(argv: list[str]) -> list[str]:
    """Prepend flag values from a --config JSON document (flags override)."""
    if "--config" not in argv:
        return argv
    idx = argv.index("--config")
    try:
        path = Path(argv[idx + 1])
    except IndexError as exc:
        raise ConfigurationError("--config needs a path") from exc
    if not path.exists():
        raise ConfigurationError(f"config document not found: {path}")
    try:
        doc = json.loads(path.read_text())
    except ValueError as exc:
        raise ConfigurationError(f"config document {str(path)!r} is not JSON: {exc}") from exc
    if doc.get("schema", SCHEMA_VERSION) != SCHEMA_VERSION:
        raise ConfigurationError(f"unsupported config schema {doc.get('schema')!r}")
    command = argv[0] if argv and not argv[0].startswith("-") else doc.get("command")
    if command is None:
        raise ConfigurationError("config document needs a 'command' field")
    injected: list[str] = []
    positional: list[str] = []
    for key, value in doc.items():
        if key in ("schema", "command"):
            continue
        if key == "function":
            positional.append(str(value))
            continue
        if value is None:  # an unset flag, as a summary's config records it
            continue
        flag = "--" + key.replace("_", "-")
        if isinstance(value, bool):
            if value:
                injected.append(flag)
        else:
            injected += [flag, str(value)]
    rest = [a for i, a in enumerate(argv) if i not in (idx, idx + 1)]
    if rest and not rest[0].startswith("-"):
        return [rest[0]] + positional + injected + rest[1:]
    return [command] + positional + injected + rest


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        argv = _merge_config_document(argv)
        args = parser.parse_args(argv)
        return args.func(args)
    except (ConfigurationError, CharacterValidationError, DomainError,
            PoleError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except (AccuracyError, StiffnessError, NumericalFailureError,
            ContractionError, CounterexampleError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except ZetaflowError as exc:  # pragma: no cover - catch-all safety net
        print(f"error: {exc}", file=sys.stderr)
        return 3


def entrypoint() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entrypoint()
