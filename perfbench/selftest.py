"""Self-test of the benchmark harness, at smoke sizes (well under a minute).

    python3 perfbench/selftest.py

Checks that:

* every workload runs with ``--smoke``, untraced and traced, and its last
  stdout line has exactly the keys ``correct``, ``attempted``, ``failed``
  and ``metrics``, with every end-to-end (untraced) or per-layer (traced)
  metric of BENCHMARK.json present with its unit and a finite value;
* broken ops are counted as failed and not fatal: one the CLI rejects
  (exit 2), one whose output fails the workload's check, and one that
  raises out of ``cli.main`` (a stand-in CLI that always raises);
* a hook whose target is missing, or whose result lacks the counted
  fields, leaves out its metrics, and only those;
* in a directory holding only BENCHMARK.json and perfbench/, the harness
  exits nonzero without printing a result.

Exits 1 on the first failed check.
"""

from __future__ import annotations

import copy
import json
import math
import os
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from report import ROOT, launch  # noqa: E402


def fail(msg):
    print(f"selftest: FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def check_metrics(bench):
    for w in bench["workloads"]:
        for trace, wanted in ((0, bench["end_to_end"]), (1, bench["per_layer"])):
            out, result = launch("--workload", w["name"], "--seed", 1, "--seconds", 1,
                                 "--trace", trace, "--smoke")
            if result is None:
                fail(f"{w['name']} trace {trace} exited {out.returncode}:\n{out.stderr}")
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                fail(f"{w['name']}: result keys {sorted(result)}")
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                fail(f"{w['name']} trace {trace}: {result['failed']} of "
                     f"{result['attempted']} ops failed:\n{out.stderr}")
            got = result["metrics"]
            if set(got) != {m["name"] for m in wanted}:
                fail(f"{w['name']} trace {trace}: metrics {sorted(got)}")
            for m in wanted:
                value = got[m["name"]]["value"]
                if got[m["name"]]["unit"] != m["unit"] or not math.isfinite(value):
                    fail(f"{w['name']}: {m['name']} = {got[m['name']]}")
            print(f"selftest: {w['name']} trace {trace}: {len(got)} metrics, "
                  f"{result['attempted']} ops ok")


def check_broken_ops():
    import run
    from prepare import import_ggflow, prepare

    ggflow = import_ggflow()
    run_dir = run.OUT / f"selftest-{os.getpid()}"
    try:
        ops = prepare("jko-taus", 1, True, str(run_dir / "configs"))
        good = ops[0]
        rejected = copy.copy(good)
        rejected.tag, rejected.config_path = "rejected", str(run_dir / "rejected.json")
        bad_cfg = {k: v for k, v in good.config.items() if k != "T"}
        Path(rejected.config_path).write_text(json.dumps(bad_cfg))
        wrong = copy.copy(good)
        wrong.tag, wrong.check = "wrong-output", lambda outdir: "deliberately wrong"
        broken = [rejected, wrong]
        plain, _, _, failed, _ = run.measure(ggflow.cli, ops + broken, 0.0, 0, run_dir)
        attempted = len(ops + broken) * len(plain)
        if failed != len(broken) * len(plain):
            fail(f"{failed} failed ops counted, expected {len(broken) * len(plain)}")
        print(f"selftest: broken ops counted: fail_frac {failed / attempted:.3f} "
              f"({failed} of {attempted})")

        class RaisingCli:
            @staticmethod
            def main(argv):
                raise RuntimeError("deliberately raised")

        if run.run_pass(RaisingCli, ops, run_dir, len(plain))[1] != len(ops):
            fail("an op raising out of cli.main was not counted as failed")
        print("selftest: an op raising out of cli.main counts as failed")
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


def check_absent_hook():
    """A hook whose target is gone drops its metrics instead of failing."""
    import tracing
    from prepare import import_ggflow

    cli = import_ggflow().cli
    original = cli.path_rate
    del cli.path_rate
    tracer = tracing.Tracer()
    try:
        tracer.install()
        tracer.uninstall()
    finally:
        cli.path_rate = original
    metrics = tracing.layer_metrics([], tracer.counts, tracer.absent)
    if tracer.absent != {"ggflow.cli.path_rate"} or "ldp.path_rate_s" in metrics \
            or "ldp.gillespie_s" not in metrics:
        fail(f"absent hooks {tracer.absent}, metrics {sorted(metrics)}")
    # a result without the counted field (here: no n_events) marks its hook absent
    tracer = tracing.Tracer()
    tracer.wrap("ldp.gillespie", object, tracing._after_gillespie)()
    if tracer.absent != {"ggflow.cli.gillespie"}:
        fail(f"a result without counted fields gave absent hooks {tracer.absent}")
    print("selftest: a missing hook target or counted field leaves out only its metrics")


def check_without_program():
    bare = ROOT / ".perfbench_out" / f"bare-{os.getpid()}"
    try:
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        out, _ = launch("--workload", "jko-taus", "--seed", 1, "--seconds", 1,
                        "--trace", 0, cwd=bare)
        if out.returncode == 0 or '"metrics"' in out.stdout:
            fail(f"harness without ggflow exited {out.returncode}: {out.stdout!r}")
        print(f"selftest: without src/ the harness exits {out.returncode}, no result")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    check_metrics(bench)
    check_broken_ops()
    check_absent_hook()
    check_without_program()
    print("selftest: ok")


if __name__ == "__main__":
    main()
