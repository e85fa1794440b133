"""Run every workload and print its metrics by name, with units.

    python3 perfbench/report.py

Each workload runs with seed 1 for BENCHMARK.json's ``run_seconds``, in a
fresh process twice: once with tracing off and the known-failing ops
included (so ``fail_frac`` shows them), printing the op counts,
``fail_frac`` and the end-to-end metrics; then traced, printing the
per-layer metrics of the layers the workload reaches (zero-valued layers
are left out) and ``trace.overhead_frac``.

``launch`` is the one place that starts run.py; spread.py and selftest.py
use it too.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEED = 1


def launch(*args, cwd=ROOT):
    """Run ``perfbench/run.py`` with ``args`` in a fresh process in ``cwd``.

    Returns the finished process and its result, the JSON object on the last
    line of stdout; the result is None when the process exited nonzero.
    """
    proc = subprocess.run([sys.executable, "perfbench/run.py", *map(str, args)],
                          cwd=cwd, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        return proc, None
    return proc, json.loads(proc.stdout.strip().splitlines()[-1])


def run(workload, seconds, trace):
    args = ["--workload", workload, "--seed", SEED, "--seconds", seconds, "--trace", trace]
    proc, result = launch(*args, *([] if trace else ["--known-failures"]))
    if result is None:
        sys.exit(f"run.py {' '.join(map(str, args))} exited {proc.returncode}:\n{proc.stderr}")
    summary = next(json.loads(line.split(" ", 1)[1]) for line in proc.stderr.splitlines()
                   if line.startswith("perfbench: {"))
    return result, summary


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    machine = None
    for w in bench["workloads"]:
        name = w["name"]
        result, summary = run(name, seconds, trace=0)
        machine = summary["machine"]
        print(f"== {name}: {summary['ops_per_pass']} ops per pass, {summary['passes']} "
              f"passes, {result['attempted']} attempted, {result['failed']} failed")
        print(f"   {'fail_frac':28s} {result['failed'] / result['attempted']:14.6g} ratio")
        for metric, m in result["metrics"].items():
            print(f"   {metric:28s} {m['value']:14.6g} {m['unit']}")
        traced, _ = run(name, seconds, trace=1)
        print("   traced:")
        for metric, m in traced["metrics"].items():
            if m["value"] or metric == "trace.overhead_frac":
                print(f"   {metric:28s} {m['value']:14.6g} {m['unit']}")
    print(f"machine: {json.dumps(machine)}")


if __name__ == "__main__":
    main()
