"""Paired perfbench runs of a parent checkout and of this checkout, into one JSON file.

    python3 tools/bench_pr.py --parent <checkout> --out <file.json> \
        --workloads dvt-families jko-taus --seeds 1 2 3 [--trace 0|1]

Per workload and seed, ``perfbench/run.py`` runs once in each checkout for
BENCHMARK.json's ``run_seconds``, in a fresh process started by perfbench's
``launch``; odd seeds run the parent first, even seeds this checkout, so a
slow period of a shared machine hits both sides.  Each run appends a record to
``--out`` (kept across calls): side, workload, seed, trace, run duration and
run.py's result line (null when it exits nonzero).  Stdlib only.
"""

import argparse
import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

from report import launch  # noqa: E402


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--parent", required=True, type=Path, help="checkout of the parent commit")
    p.add_argument("--out", required=True, type=Path)
    p.add_argument("--workloads", nargs="+", required=True)
    p.add_argument("--seeds", nargs="+", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    records = json.loads(args.out.read_text())["runs"] if args.out.exists() else []
    for workload in args.workloads:
        for seed in args.seeds:
            sides = [("parent", args.parent.resolve()), ("change", ROOT)]
            for side, root in sides if seed % 2 else sides[::-1]:
                start = time.perf_counter()
                proc, result = launch("--workload", workload, "--seed", seed, "--seconds",
                                      seconds, "--trace", args.trace, cwd=root)
                run_s = round(time.perf_counter() - start, 3)
                records.append({"side": side, "workload": workload, "seed": seed,
                                "trace": args.trace, "run_s": run_s, "result": result})
                args.out.write_text(json.dumps({"runs": records}, indent=1) + "\n")
                print(f"{side:6s} {workload} seed {seed}: {run_s:.1f} s"
                      + ("" if result else f", exit {proc.returncode}:\n{proc.stderr}"),
                      flush=True)


if __name__ == "__main__":
    main()
