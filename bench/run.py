"""oscpert benchmark: four closed-loop workloads, end to end or traced per layer.

Usage, from the repository root:

    python3 bench/run.py --workload sweep --seed 1 --seconds 20 --trace 0

One client runs operations back to back in one process, each starting
when the previous one returns, until the operations' own time reaches
``--seconds``.  Every output is checked between operations (outside the
timed operation) against a golden hash in ``bench/golden.json`` or a numpy
oracle.  The last stdout line is a JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines above it are a
human-readable summary.

``--trace 0`` reports the end-to-end metrics: ``setup_s`` (median over
fresh processes of start-up through ``import oscpert``, input generation,
reference values and warm-up), ``ops_per_s`` (correct operations per
second of operation time), ``op_p50_ms``, ``op_tail_ms`` (the highest
percentile with at least 10 operations beyond it; the percentile and the
sample count are printed above the JSON) and ``peak_rss_mb``.

``--trace 1`` spends half of ``--seconds`` untraced and half with every
public layer function wrapped (``layertrace.py``), and reports per-layer
calls, self time and failures per operation, derived work counts, the
tracing overhead, and a coverage check of which layers each workload
should and should not reach.

The BLAS thread count is pinned to 1 and OSC_PERT_TOL is cleared before
the library loads, so runs measure one thread and verify uses its default
tolerances.  The library is imported from ``src/`` of this checkout and
nowhere else; without it the benchmark exits with status 2.
"""
from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("OSC_PERT_TOL", None)

import argparse
import json
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
GOLDEN = BENCH / "golden.json"
WORKLOAD_NAMES = ("sweep", "verify", "resum", "decompose")
SETUP_PROBES = 5
WALL_LIMIT = 3.0  # a run also stops at this multiple of --seconds of wall time
TAIL_BEYOND = 10
CALIBRATE_EVERY_S = 0.25

# Which workloads each layer should reach (work) and which it should not
# (zero), as predicted for the seed; the traced run reports every mismatch.
ALL = set(WORKLOAD_NAMES)
PREDICTED = {
    "linalg.eigenvalues": ({"sweep"}, {"resum", "decompose"}),
    "eigenfreq.matched_path": ({"sweep"}, {"resum", "decompose"}),
    "eigenfreq.estimate_increments": ({"sweep"}, {"verify", "resum", "decompose"}),
    "eigenfreq.estimate": ({"sweep"}, {"verify", "resum", "decompose"}),
    "threemode.cyclic_view": ({"sweep"}, {"decompose"}),
    "threemode.xyz": ({"sweep"}, {"decompose"}),
    "threemode.effective_frequencies": ({"sweep"}, {"decompose"}),
    "threemode.omega_matrix": ({"sweep"}, {"decompose"}),
    "threemode.psi1_infinite": ({"resum", "verify"}, {"sweep", "decompose"}),
    "threemode.series_block": ({"resum", "verify"}, {"sweep", "decompose"}),
    "threemode.psi1_analytic": ({"verify"}, {"sweep", "resum"}),
    "dyson.term": ({"verify"}, {"sweep", "resum", "decompose"}),
    "dyson.partial_sum": ({"verify"}, {"sweep", "resum", "decompose"}),
    "dyson.convergence_report": ({"verify"}, {"sweep", "resum", "decompose"}),
    # resum computes its propagator references during set-up only
    "linalg.propagator": ({"verify"}, {"sweep", "resum", "decompose"}),
    "linalg.matrix_exponential_apply": ({"verify"}, {"sweep", "resum", "decompose"}),
    "graph.laplacian": ({"decompose"}, ALL - {"decompose"}),
    "graph.decompose": ({"decompose"}, ALL - {"decompose"}),
    "graph.symmetrizability_certificate": ({"decompose"}, ALL - {"decompose"}),
    "graph.validate_decomposition": ({"decompose"}, ALL - {"decompose"}),
    "cli.main": ({"sweep", "verify", "decompose"}, {"resum"}),
    "cli.sweep_rows": ({"sweep"}, {"resum"}),
    "benchmarks.registry": ({"sweep", "verify"}, {"resum", "decompose"}),
    "threemode.ThreeModeModel": ({"sweep"}, {"decompose"}),
}
# Seed call-count identities of the 1001-point sweep over [0, 1].
ESTIMATE_INCREMENTS_PER_POINT = 12
EIGENVALUES_PER_SWEEP = 1000


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if not args.seconds > 0:
        p.error("--seconds must be positive")
    return args


def import_oscpert() -> float:
    """Import the library from this checkout's src/; returns the import time."""
    if not (SRC / "oscpert" / "__init__.py").is_file():
        print(f"error: no oscpert sources under {SRC}", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(SRC))
    start = perf_counter()
    import oscpert

    elapsed = perf_counter() - start
    if Path(oscpert.__file__).resolve().parent != SRC / "oscpert":
        print(f"error: oscpert imported from {oscpert.__file__}", file=sys.stderr)
        raise SystemExit(2)
    return elapsed


def load_golden() -> dict:
    try:
        with open(GOLDEN, encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: cannot read {GOLDEN}: {exc}", file=sys.stderr)
        raise SystemExit(2)


def probe_setup(args) -> float:
    """Median over SETUP_PROBES fresh processes of their wall time to finish set-up.

    Unlike operation times these are not rescaled: a short calibration
    sample next to a process start tracks the start's speed poorly.
    """
    argv = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds), "--probe-setup"]
    times = []
    for _ in range(SETUP_PROBES):
        start = perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        try:
            line = proc.stdout.readline()
            times.append(perf_counter() - start)
            proc.stdout.read()
            rc = proc.wait(timeout=60)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            proc.stdout.close()
        if rc != 0 or line.strip() != "ready":
            raise RuntimeError(f"set-up probe failed with exit code {rc}")
    print(f"setup probes: {' '.join(f'{t:.3f}' for t in times)} s")
    return statistics.median(times)


def prepare(wl, seed: int) -> None:
    """Set-up: inputs and references (errors here end the run), then a
    warm-up whose failures are left for the timed operations to count."""
    wl.setup(seed)
    try:
        wl.warm_up()
    except (Exception, SystemExit):
        print(f"warm-up failed:\n{traceback.format_exc(limit=3)}", file=sys.stderr)


def measure(wl, seconds: float, tracer=None) -> dict:
    """Closed loop of operations until their summed time reaches `seconds`.

    A calibration sample is taken whenever CALIBRATE_EVERY_S of operation
    time has passed.  Each operation's time is rescaled by the samples
    around it, and "cost" gives every operation the median rescaled time of
    its input: a run repeats each input several times, so what is left of
    the host's noise drops out and the spread of costs is the inputs'.
    """
    import calibrate

    lat, marks, errs, failures = [], [], [], []
    calibrate.sample()  # warm-up
    samples = [calibrate.sample()]
    busy, since_sample, points, i = 0.0, 0.0, 0, 0
    stop_wall = perf_counter() + WALL_LIMIT * seconds
    run = wl.op if tracer is None else (lambda k: tracer.run_op(wl.op, k))
    while busy < seconds and perf_counter() < stop_wall:
        start = perf_counter()
        try:
            out = run(i)
            ok = True
        except (Exception, SystemExit):
            ok = False
            failures.append(traceback.format_exc(limit=3))
        dt = perf_counter() - start
        if ok:
            try:
                errs.append(wl.check(i, out))
            except Exception:
                ok = False
                failures.append(traceback.format_exc(limit=3))
        lat.append(dt)
        marks.append(len(samples) - 1)
        busy += dt
        since_sample += dt
        if since_sample >= CALIBRATE_EVERY_S:
            samples.append(calibrate.sample())
            since_sample = 0.0
        points += wl.points_per_op
        i += 1
    samples.append(calibrate.sample())
    by_input = {}
    for k, (dt, f) in enumerate(zip(lat, calibrate.scales(samples, marks))):
        by_input.setdefault(k % wl.pool, []).append(dt * f)
    typical = {key: statistics.median(v) for key, v in by_input.items()}
    cost = [typical[k % wl.pool] for k in range(len(lat))]
    return {"lat": lat, "cost": cost, "failed": len(failures), "failures": failures[:3],
            "max_err_ratio": max(errs, default=0.0), "points": points}


def tail(lat: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples): highest percentile with TAIL_BEYOND samples above.

    With TAIL_BEYOND samples or fewer no such percentile exists; the maximum
    stands in and reads as p100.
    """
    ordered = sorted(lat)
    k = len(ordered) - TAIL_BEYOND - 1
    if k < 0:
        k = len(ordered) - 1
    return ordered[k], 100.0 * (k + 1) / len(ordered), len(ordered)


def ops_per_s(run: dict) -> float:
    return (len(run["lat"]) - run["failed"]) / sum(run["cost"])


def end_to_end(run: dict, setup_s: float) -> dict:
    tail_s, pct, n = tail(run["cost"])
    print(f"op_tail_ms is p{pct:.1f} of {n} ops; raw wall p50 "
          f"{statistics.median(run['lat']) * 1e3:.4g} ms, max {max(run['lat']) * 1e3:.4g} ms")
    return {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (ops_per_s(run), "1/s"),
        "op_p50_ms": (statistics.median(run["cost"]) * 1e3, "ms"),
        "op_tail_ms": (tail_s * 1e3, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def coverage(workload: str, stats: dict, n_ops: int, points: int) -> list[str]:
    """Mismatches between traced call counts and PREDICTED / the seed identities."""
    bad = []
    for name, (work, zero) in PREDICTED.items():
        calls = stats[name][0]
        if workload in work and calls == 0:
            bad.append(f"{name}: no calls, predicted work")
        if workload in zero and calls != 0:
            bad.append(f"{name}: {calls} calls, predicted none")
    if workload == "sweep":
        inc = stats["eigenfreq.estimate_increments"][0]
        if inc != ESTIMATE_INCREMENTS_PER_POINT * points:
            bad.append(f"estimate_increments: {inc} calls for {points} grid points")
        eig = stats["linalg.eigenvalues"][0]
        if eig != EIGENVALUES_PER_SWEEP * n_ops:
            bad.append(f"eigenvalues: {eig} calls for {n_ops} sweeps")
    return bad


def layer_metrics(workload: str, tracer, plain: dict, traced: dict, import_s: float):
    """Per-layer metrics of the traced phase, plus the trace's own soundness."""
    from layertrace import SPAN_NAMES

    n = len(traced["lat"])
    stats = tracer.stats
    out = {}
    for name in SPAN_NAMES:
        calls, self_s, failed = stats[name]
        out[f"{name}.calls"] = (calls / n, "calls/op")
        out[f"{name}.self_s"] = (self_s / n, "s/op")
        out[f"{name}.failed"] = (failed / n, "calls/op")
    points = traced["points"]
    eig = stats["linalg.eigenvalues"][0]
    inc = stats["eigenfreq.estimate_increments"][0]
    graph_s = sum(v[1] for k, v in stats.items() if k.startswith("graph."))
    out["linalg.eigenvalues.per_point"] = (eig / points if points else 0.0, "calls/point")
    out["eigenfreq.estimate_increments.per_point"] = (inc / points if points else 0.0, "calls/point")
    out["eigenfreq.estimate_useful_ratio"] = (3 * points / inc if inc else 0.0, "ratio")
    out["dyson.node_orders"] = (tracer.node_orders / n, "nodes/op")
    out["dyson.bytes_computed"] = (tracer.state_bytes / n, "B/op")
    out["graph.edges_per_s"] = (tracer.edges / graph_s if graph_s else 0.0, "1/s")
    out["oscpert.import_s"] = (import_s, "s")
    out["trace.ops_per_s_untraced"] = (ops_per_s(plain), "1/s")
    out["trace.ops_per_s_traced"] = (ops_per_s(traced), "1/s")
    out["trace.overhead_ops_per_s"] = (ops_per_s(traced) - ops_per_s(plain), "1/s")
    out["trace.harness_frac"] = (1.0 - tracer.op_covered / tracer.op_wall, "ratio")
    mismatches = coverage(workload, stats, n, points)
    out["coverage.mismatches"] = (len(mismatches), "count")
    tail_s, pct, samples = tail(plain["cost"])
    out["op.tail_percentile"] = (pct, "%")
    out["op.tail_samples"] = (samples, "count")
    attempted = len(plain["lat"]) + n
    out["ops.failed_frac"] = ((plain["failed"] + traced["failed"]) / attempted, "ratio")
    out["oracle.max_err_ratio"] = (max(plain["max_err_ratio"], traced["max_err_ratio"]), "ratio")
    for line in mismatches:
        print(f"coverage mismatch: {line}")
    print(f"coverage: {len(mismatches)} mismatches against the seed predictions")
    return out


def describe_environment(golden: dict) -> None:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    src_lines = sum(len(p.read_text(encoding="utf-8").splitlines()) for p in (SRC / "oscpert").glob("*.py"))
    now = {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": os.cpu_count(),
    }
    print(f"environment: {json.dumps(now)} blas_threads=1 src_lines={src_lines}")
    captured = golden.get("captured", {})
    for key, value in now.items():
        if key in ("python", "numpy", "blas") and captured.get(key) != value:
            print(f"note: golden files were captured with {key} {captured.get(key)}, "
                  f"this run has {value}; the sweep CSV bytes may depend on the LAPACK build")


def main(argv=None) -> int:
    args = parse_args(argv)
    # One CPU for this process, its calibration samples and its set-up
    # probes (which inherit the mask): the CPUs of a shared host are loaded
    # unevenly, so a sample taken on one says little about another.
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    import_s = import_oscpert()
    golden = load_golden()
    from workloads import WORKLOADS

    workdir = tempfile.mkdtemp(prefix=".bench-work-", dir=ROOT)
    try:
        wl = WORKLOADS[args.workload](golden, workdir)
        if args.probe_setup:
            prepare(wl, args.seed)
            print("ready", flush=True)
            return 0
        setup_s = None if args.trace else probe_setup(args)
        prepare(wl, args.seed)
        describe_environment(golden)
        if args.trace:
            from layertrace import Tracer

            plain = measure(wl, args.seconds / 2)
            tracer = Tracer()
            tracer.install()
            try:
                unbound = tracer.unbound_names()
                traced = measure(wl, args.seconds / 2, tracer)
            finally:
                tracer.uninstall()
            metrics = layer_metrics(args.workload, tracer, plain, traced, import_s)
            runs = (plain, traced)
            sound = not unbound and tracer.reconcile_err <= 1e-9
            if unbound:
                print(f"error: unwrapped layer bindings: {unbound}", file=sys.stderr)
            if tracer.reconcile_err > 1e-9:
                print(f"error: span self times miss op time by {tracer.reconcile_err:.3g} s",
                      file=sys.stderr)
        else:
            run = measure(wl, args.seconds)
            metrics = end_to_end(run, setup_s)
            runs = (run,)
            sound = True
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    attempted = sum(len(r["lat"]) for r in runs)
    failed = sum(r["failed"] for r in runs)
    for r in runs:
        for text in r["failures"]:
            print(text, file=sys.stderr)
    print(f"{args.workload}: {attempted} ops, failed_frac {failed / attempted:.4g}, "
          f"max_err_ratio {max(r['max_err_ratio'] for r in runs):.4g}")
    result = {
        "correct": failed == 0 and sound,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
