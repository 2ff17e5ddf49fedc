"""zetaflow benchmark: one workload per process, end-to-end or traced.

    python3 perfbench/run.py --workload seeds_1d --seed 1 --seconds 30 --trace 0

Run from the root of a zetaflow checkout; the program is imported from
``src/`` of that checkout, never from an installed copy.  With ``--trace 0``
the run cycles through the seed's sweep inputs for ``--seconds`` and reports
the end-to-end metrics, with times scaled to a reference machine speed (see
speed.py); with ``--trace 1`` it repeats the seed's first sweep,
alternately untraced and traced, and reports the per-layer metrics, the
tracing overhead and the layer probes.  Human-readable lines come first; the
last line of standard output is the JSON result.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
WORKLOADS = ("seeds_1d", "field_2d", "strip")
DEFAULT_SEED = 1
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
M_MMAP_THRESHOLD = -3               # glibc mallopt parameter
MMAP_THRESHOLD_BYTES = 32 << 20     # the ceiling of glibc's dynamic threshold
SETUP_SAMPLES = 7          # one in this process, the rest in fresh interpreters
SETUP_KERNEL_SAMPLES = 40  # kernel samples that rate the speed during one set-up
MIN_SWEEPS = 3
MAX_SWEEPS = 200
SUBPROCESS_TIMEOUT_S = 120


class SetupError(Exception):
    """The checkout cannot run the benchmark (no program source, no reference)."""


def fix_mmap_threshold() -> int | None:
    """Start glibc's mmap threshold at the value its dynamic rule ends at.

    glibc raises the threshold each time a large block is freed, so which
    arrays land on the heap, and the heap's high-water mark, depended on the
    order of the first large allocations: peak RSS on ``strip`` took one of
    three levels between 66 and 79 MB by seed.  A fixed threshold removes
    that order dependence.  Returns the threshold, or None off glibc.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return None
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    return MMAP_THRESHOLD_BYTES if mallopt(M_MMAP_THRESHOLD, MMAP_THRESHOLD_BYTES) == 1 else None


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="time one set-up in this interpreter, print it (scaled, raw) and exit")
    return p.parse_args(argv)


def setup(workload: str, seed: int, scratch: Path):
    """Import the program, build handles and inputs, warm up. Returns the workload."""
    if not (SRC / "zetaflow" / "__init__.py").is_file():
        raise SetupError(f"no program source at {SRC}")
    ref_path = HERE / "reference.json"
    if not ref_path.is_file():
        raise SetupError(f"missing {ref_path}")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import zetaflow
    if Path(zetaflow.__file__).resolve().parent != (SRC / "zetaflow").resolve():
        raise SetupError(f"zetaflow imported from {zetaflow.__file__}, not {SRC}")
    import workloads
    reference = json.loads(ref_path.read_text())
    wl = workloads.build(workload, seed, reference, scratch)
    wl.warm_up()
    return wl


def scaled_setup(seconds: float) -> tuple[float, float]:
    """(set-up time at the reference speed, raw set-up time).

    The kernel samples taken right after the set-up rate the machine's speed
    while it ran.
    """
    import speed
    meter = speed.Meter()
    meter.sample(SETUP_KERNEL_SAMPLES)
    return seconds * meter.scale(), seconds


def setup_samples(args, n: int) -> list[tuple[float, float]]:
    """Scaled and raw set-up times of ``n`` fresh interpreters, one after another."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    out = []
    for _ in range(n):
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=SUBPROCESS_TIMEOUT_S, check=True)
        out.append(tuple(json.loads(proc.stdout.strip().splitlines()[-1])))
    return out


def provenance(args) -> dict:
    import numpy as np
    h = hashlib.sha256()
    for path in sorted((SRC / "zetaflow").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas_name = "unknown"
    return {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "nproc": os.cpu_count(),
            "python": platform.python_version(), "numpy": np.__version__,
            "blas": blas_name, "threads": {v: os.environ.get(v) for v in THREAD_VARS},
            "malloc_mmap_threshold": args.mmap_threshold,
            "source_sha256": h.hexdigest()[:16]}


def run_end_to_end(wl, seconds: float, tally, meter):
    """Cycle through the sweep inputs until ``seconds`` have passed.

    The first pass over the inputs is checked and counted in ``tally``; each
    later sweep must reproduce the digest of its input's first pass, or it
    counts as a wrong output.  Returns the sweep times by input, scaled to
    the reference speed by the kernel samples around each sweep, and the
    raw ones.
    """
    n_inputs = len(wl.schedule)
    times: list[list[float]] = [[] for _ in range(n_inputs)]
    raw: list[list[float]] = [[] for _ in range(n_inputs)]
    first: list[str] = []
    start = time.perf_counter()
    for i in range(MAX_SWEEPS):
        j = i % n_inputs
        window = meter.window_start()
        elapsed, outputs = wl.sweep(j, meter)
        times[j].append(elapsed * meter.scale(window))
        raw[j].append(elapsed)
        if i < n_inputs:
            wl.check(outputs, tally)
            first.append(wl.digest(outputs))
        elif wl.digest(outputs) != first[j]:
            tally.mismatched += 1
        if i + 1 >= n_inputs and time.perf_counter() - start >= seconds:
            break
    return times, raw


def run_traced(wl, seconds: float, tally, tracing, meter):
    """Repeat sweep 0 untraced and traced, alternating which goes first.

    Returns (per-layer metrics, untraced times, traced times, all spans,
    whether outputs were identical and counts repeated).
    """
    tracer = tracing.Tracer()
    plain, traced, per_sweep, all_spans = [], [], [], []
    digests = set()
    start = time.perf_counter()
    rep = 0
    while rep < MIN_SWEEPS or time.perf_counter() - start < seconds:
        for mode in (("plain", "traced") if rep % 2 == 0 else ("traced", "plain")):
            if mode == "plain":
                elapsed, outputs = wl.sweep(0, meter)
                plain.append(elapsed)
            else:
                with tracer.installed() as spans:
                    elapsed, outputs = wl.sweep(0, meter)
                traced.append(elapsed)
                all_spans.append(spans)
            if not digests:         # later sweeps must reproduce this one
                wl.check(outputs, tally)
            digests.add(wl.digest(outputs))
            if mode == "traced":
                extra = {"cli.bytes_written": getattr(wl, "bytes_written", 0)}
                per_sweep.append(tracing.layer_metrics(spans, elapsed, extra))
        rep += 1
        if rep >= MAX_SWEEPS:
            break
    metrics, counts_repeat = tracing.combine(per_sweep)
    metrics["trace.overhead_frac"] = statistics.median(traced) / statistics.median(plain) - 1.0
    return metrics, plain, traced, all_spans, len(digests) == 1 and counts_repeat


def write_spans(path: Path, all_spans) -> None:
    doc = {"fields": ["name", "start_s", "end_s", "parent", "points", "ok"],
           "sweeps": [[s[:6] for s in spans] for spans in all_spans]}
    path.write_text(json.dumps(doc, separators=(",", ":")) + "\n")


def main(argv=None) -> int:
    args = parse_args(argv)
    for var in THREAD_VARS:          # before numpy loads its BLAS
        os.environ[var] = "1"
    args.mmap_threshold = fix_mmap_threshold()
    OUT.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        t0 = time.perf_counter()
        try:
            wl = setup(args.workload, args.seed, scratch)
        except (SetupError, ImportError) as exc:
            print(f"perfbench: cannot set up: {exc}", file=sys.stderr)
            return 2
        own_setup = scaled_setup(time.perf_counter() - t0)
        if args.setup_only:
            print(json.dumps(own_setup))
            return 0
        return report(args, wl, own_setup)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def report(args, wl, own_setup: float) -> int:
    import workloads
    import tracing
    import probes
    import speed
    info = provenance(args)
    print("provenance " + json.dumps(info, sort_keys=True))
    tally = workloads.Tally()
    meter = speed.Meter()
    if args.trace:
        metrics, plain, traced, all_spans, same = run_traced(wl, args.seconds, tally,
                                                             tracing, meter)
        metrics.update(probes.run_probes())
        spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.json"
        write_spans(spans_path, all_spans)
        print(f"traced sweeps {len(traced)}, untraced {len(plain)}; outputs identical "
              f"and counts repeated: {same}; spans written to {spans_path}")
        correct = same
    else:
        times, raw = run_end_to_end(wl, args.seconds, tally, meter)
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        setups = [own_setup] + setup_samples(args, SETUP_SAMPLES - 1)
        # mean sweep time per input, averaged over the inputs: the fixed work
        # of one sweep
        raw_wall = statistics.fmean(statistics.fmean(t) for t in raw)
        metrics = {"setup_s": statistics.median(s for s, _ in setups),
                   "wall_s": statistics.fmean(statistics.fmean(t) for t in times),
                   "ok_frac": (tally.attempted - tally.failed) / tally.attempted,
                   "peak_rss_mb": peak_mb}
        print(f"sweeps {sum(map(len, times))} over {len(times)} inputs; raw wall "
              f"{raw_wall:.4f} s, mean speed scale {meter.scale():.4f} from "
              f"{len(meter.samples)} kernel samples")
        print("setup samples (scaled/raw s): "
              + ", ".join(f"{s:.3f}/{r:.3f}" for s, r in setups))
        correct = True
    correct = correct and tally.mismatched == 0
    fail_frac = tally.failed / tally.attempted
    print(f"operations {tally.attempted}, failed {tally.failed} "
          f"(fail_frac {fail_frac:.4f}), wrong outputs {tally.mismatched}")
    for cause, count in sorted(tally.causes.items()):
        print(f"  failure: {cause} x{count}")
    out_metrics = {}
    for name, value in metrics.items():
        unit = unit_of(name)
        print(f"{name:44s} {value:.6g} {unit}")
        out_metrics[name] = {"value": value, "unit": unit}
    print(json.dumps({"correct": bool(correct), "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": out_metrics}))
    return 0


def unit_of(name: str) -> str:
    """A metric's unit, read from the suffix of its name."""
    for suffix, unit in (("_s", "s"), ("_mb", "MB"), (".us_per_pt", "us"),
                         (".ns_per_pt", "ns"), (".us", "us"), (".bytes_written", "B"),
                         ("_frac", "ratio"), ("_per_step", "ratio"),
                         ("_per_zero", "ratio")):
        if name.endswith(suffix):
            return unit
    return "count"


if __name__ == "__main__":
    sys.exit(main())
