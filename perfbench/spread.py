"""Run-to-run spread of the end-to-end metrics over seeds 1-10.

    python3 perfbench/spread.py [--sets 1] [workload ...]

Runs ``run.py --trace 0`` once per seed for each workload (all workloads of
BENCHMARK.json by default), at the benchmark's ``run_seconds``, and prints
for each end-to-end metric its median and its quartile spread, the distance
between the first and third quartile (``statistics.quantiles(n=4)``) as a
share of the median, next to the metric's bound.  ``--sets 2`` repeats the
seeds and also prints how far the second median moved from the first.
A spread above a third of the bound is flagged; so is a median shift above
the bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys

from report import ROOT, launch

SEEDS = range(1, 11)


def run_once(workload, seed, seconds):
    proc, result = launch("--workload", workload, "--seed", seed, "--seconds", seconds,
                          "--trace", 0)
    if result is None:
        sys.exit(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    values = {k: v["value"] for k, v in result["metrics"].items()}
    print(f"{workload} seed {seed}: {json.dumps(values)}\n  "
          f"{proc.stderr.strip().splitlines()[-1]}", file=sys.stderr)
    if not result["correct"] or result["failed"]:
        print(f"{workload} seed {seed}: {result['failed']} of {result['attempted']} "
              f"ops failed", file=sys.stderr)
    return values


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("workloads", nargs="*", default=[w["name"] for w in bench["workloads"]])
    p.add_argument("--sets", type=int, choices=(1, 2), default=1)
    args = p.parse_args()
    for workload in args.workloads:
        sets = [[run_once(workload, s, bench["run_seconds"]) for s in SEEDS]
                for _ in range(args.sets)]
        for metric in bench["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            medians, spreads = [], []
            for runs in sets:
                values = [r[name] for r in runs]
                medians.append(statistics.median(values))
                spreads.append(spread(values))
            flag = "" if max(spreads) < bound / 3 else "  <-- spread over bound/3"
            line = (f"{workload:14s} {name:14s} median {medians[0]:10.4f} {metric['unit']:5s}"
                    f" spread {max(spreads):6.3f} (bound {bound})")
            if args.sets == 2:
                shift = medians[1] / medians[0] - 1.0
                line += f" shift {shift:+.3f}"
                if shift > bound:
                    flag += "  <-- median shift over bound"
            print(line + flag, flush=True)


if __name__ == "__main__":
    main()
