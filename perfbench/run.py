"""Benchmark harness: one workload of ggflow CLI ops, closed loop, in-process.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

One client calls ``ggflow.cli.main([scenario, "--config", ..., "--out",
...])`` for each op of the workload, back to back; a pass runs every op
once.  Passes repeat until ``--seconds`` have passed, so the last pass may
run over (with ``--trace 1``, at least one pass of each kind runs).
Each op writes into a fresh output directory under ``.perfbench_out/``,
which is checked and then deleted.

``--trace 0`` reports the end-to-end metrics: ``setup_s`` (median of
several fresh-process set-ups, see prepare.py), ``wall_s`` (median pass
time) and ``peak_rss_mib`` (peak resident memory of this process).
``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics of tracing.py (medians over traced passes) and
``trace.overhead_frac``; the spans of the last traced pass are written to
``.perfbench_out/spans-<workload>-s<seed>.csv``.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; an op fails when the CLI exits
nonzero, raises, or its output fails the workload's check.  ``--smoke``
runs tiny sizes; ``--known-failures`` adds ops that fail at the commit
that introduced the benchmark (see workloads.py).  Without a ggflow
package under ``src/`` the harness exits 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

from prepare import ROOT, MissingProgram, import_ggflow, prepare
import workloads

OUT = ROOT / ".perfbench_out"
SETUP_REPS = 25
SETUP_TIMEOUT_S = 60


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--smoke", action="store_true", help="tiny sizes, for the self-test")
    p.add_argument("--known-failures", action="store_true",
                   help="also run the ops known to fail (counted as failed)")
    return p.parse_args(argv)


def openblas_threads():
    import ctypes
    import glob

    import numpy as np

    libdir = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for lib in glob.glob(os.path.join(libdir, "*openblas*")):
        dll = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(dll, sym):
                return int(getattr(dll, sym)())
    return None


def machine_info():
    import numpy
    import scipy

    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "openblas_threads": openblas_threads()}


def setup_seconds(args, run_dir):
    """Median set-up time over SETUP_REPS fresh processes."""
    times = []
    for k in range(SETUP_REPS):
        probe = subprocess.run(
            [sys.executable, str(ROOT / "perfbench" / "prepare.py"), args.workload,
             str(args.seed), str(int(args.smoke)), str(int(args.known_failures)),
             str(run_dir / f"probe{k}")],
            capture_output=True, text=True, timeout=SETUP_TIMEOUT_S, check=True,
        )
        times.append(float(probe.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


def _tree_bytes(path):
    return sum(os.path.getsize(os.path.join(d, f))
               for d, _, files in os.walk(path) for f in files)


def run_pass(cli, ops, run_dir, index, tracer=None):
    """Run every op once; returns (seconds in the CLI, failed op count)."""
    busy, failed = 0.0, 0
    for k, op in enumerate(ops):
        outdir = str(run_dir / f"p{index}-{k:02d}-{op.tag}")
        argv = [op.scenario, "--config", op.config_path, "--out", outdir]
        start = time.perf_counter()
        try:
            rc = tracer.call("cli.main", cli.main, argv) if tracer else cli.main(argv)
            reason = None if rc == 0 else f"exit status {rc}"
        except (Exception, SystemExit):
            reason = "raised:\n" + traceback.format_exc()
        busy += time.perf_counter() - start
        if reason is None and op.check is not None:
            try:
                reason = op.check(outdir)
            except (OSError, ValueError, KeyError, TypeError):
                reason = "output check raised:\n" + traceback.format_exc()
        if reason is not None:
            failed += 1
            print(f"perfbench: op {op.tag} failed: {reason}", file=sys.stderr)
        if tracer:
            tracer.counts["cli.out_bytes"] += _tree_bytes(outdir)
        shutil.rmtree(outdir, ignore_errors=True)
    return busy, failed


def measure(cli, ops, seconds, trace, run_dir):
    """Repeat passes until ``seconds`` have passed.

    Returns the untraced and traced pass times, the per-layer metrics of
    each traced pass, the failed op count and the tracer.
    """
    from tracing import Tracer, layer_metrics

    tracer = Tracer() if trace else None
    plain, traced, per_layer, failed = [], [], [], 0
    start = time.perf_counter()
    while True:
        use_trace = trace and len(plain) > len(traced)
        if use_trace:
            tracer.reset()
            tracer.install()
            try:
                busy, bad = run_pass(cli, ops, run_dir, len(plain) + len(traced), tracer)
            finally:
                tracer.uninstall()
            traced.append(busy)
            per_layer.append(layer_metrics(tracer.spans, tracer.counts, tracer.absent))
        else:
            busy, bad = run_pass(cli, ops, run_dir, len(plain) + len(traced))
            plain.append(busy)
        failed += bad
        if time.perf_counter() - start >= seconds and (not trace or traced):
            break
    return plain, traced, per_layer, failed, tracer


def main(argv=None):
    args = parse_args(argv)
    try:
        ggflow = import_ggflow()
    except MissingProgram as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 2
    run_dir = OUT / f"{args.workload}-s{args.seed}-{os.getpid()}"
    try:
        ops = prepare(args.workload, args.seed, args.smoke, str(run_dir / "configs"),
                      known_failures=args.known_failures)
        plain, traced, per_layer, failed, tracer = measure(
            ggflow.cli, ops, args.seconds, args.trace, run_dir)
        # probed after the passes, away from the previous run's exit and cleanup
        setup_s = None if args.trace else setup_seconds(args, run_dir)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    attempted = len(ops) * (len(plain) + len(traced))
    if args.trace:
        from tracing import OVERHEAD, PER_LAYER, write_spans

        metrics = {
            name: {"value": statistics.median(p[name] for p in per_layer), "unit": unit}
            for name, (unit, _, _) in PER_LAYER.items() if name in per_layer[0]
        }
        metrics[OVERHEAD[0]] = {
            "value": statistics.median(traced) / statistics.median(plain) - 1.0,
            "unit": OVERHEAD[1]}
        write_spans(OUT / f"spans-{args.workload}-s{args.seed}.csv", tracer.spans)
        if tracer.absent:
            print("perfbench: hooks absent, their metrics left out: "
                  f"{sorted(tracer.absent)}", file=sys.stderr)
    else:
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics = {"setup_s": {"value": setup_s, "unit": "s"},
                   "wall_s": {"value": statistics.median(plain), "unit": "s"},
                   "peak_rss_mib": {"value": peak, "unit": "MiB"}}
    summary = {"workload": args.workload, "seed": args.seed, "ops_per_pass": len(ops),
               "passes": len(plain) + len(traced), "fail_frac": failed / attempted,
               "machine": machine_info()}
    print(f"perfbench: {json.dumps(summary)}", file=sys.stderr)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
