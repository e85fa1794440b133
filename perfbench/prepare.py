"""Benchmark set-up: import ggflow from the checkout and prepare a workload.

``prepare`` is the work counted as ``setup_s``: it generates the workload's
configs from the seed, writes them as the JSON files the CLI reads, and
builds every ``GraphSystem`` and every dissipation/entropy structure the
ops will use (the Stolarsky family runs its sampled-concavity check here).

Run as a script it times one set-up in a fresh process, from ``import
ggflow`` to the last structure built, and prints the seconds; the harness
runs it several times and reports the median:

    python3 perfbench/prepare.py <workload> <seed> <smoke 0|1> <known failures 0|1> <dir>
"""

from __future__ import annotations

import json
import os
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


class MissingProgram(RuntimeError):
    pass


def import_ggflow():
    """Import ggflow from this checkout's ``src``, never from elsewhere."""
    if not (SRC / "ggflow" / "__init__.py").is_file():
        raise MissingProgram(f"no ggflow package under {SRC}")
    sys.path.insert(0, str(SRC))
    import ggflow
    import ggflow.cli

    if Path(ggflow.__file__).resolve().parent != (SRC / "ggflow").resolve():
        raise MissingProgram(f"imported ggflow from {ggflow.__file__}, not {SRC}")
    return ggflow


def prepare(workload, seed, smoke, workdir, known_failures=False):
    """Write the workload's configs under ``workdir`` and build its structures.

    Returns the ops, each with ``config_path`` set.
    """
    import workloads
    from ggflow import GraphSystem, dissipation_from_dict, entropy_from_dict

    ops = workloads.build(workload, seed, smoke=smoke, known_failures=known_failures)
    os.makedirs(workdir, exist_ok=True)
    for k, op in enumerate(ops):
        op.config_path = os.path.join(workdir, f"{k:02d}-{op.tag}.json")
        with open(op.config_path, "w") as fh:
            json.dump(op.config, fh)
        dissipation_from_dict(op.config.get("dissipation", {"family": "cosh"}))
        entropy_from_dict(op.config.get("entropy", {"family": "boltzmann"}))
    # ops of one fixture share its system dict: build each system once
    for system in {id(op.config["system"]): op.config["system"] for op in ops}.values():
        GraphSystem.from_dict(system)
    return ops


if __name__ == "__main__":
    workload, seed, smoke, known_failures, workdir = sys.argv[1:6]
    start = time.perf_counter()
    import_ggflow()
    prepare(workload, int(seed), smoke == "1", workdir, known_failures == "1")
    print(repr(time.perf_counter() - start))
