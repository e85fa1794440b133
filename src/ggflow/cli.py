"""Reproducible experiment runner: `ggflow <scenario> --config cfg.json`.

Scenarios: evolve, dvt, jko, ldp, check.  Configuration is a JSON object
(schema documented in the README); --seed and --out override config keys.
Every run writes a deterministic report.json (schema "ggflow/1", no
timestamps, byte-identical across runs with the same config and seed) plus
CSV data files, all written atomically.  Exit status: 0 when every embedded
invariant check passes, 1 on a numeric check failure (the failing check is
named on stderr), 2 on configuration errors.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile

import numpy as np

from . import __version__
from .errors import GGFlowError
from .graph import GraphSystem, Measure, ce_residual
from .potentials import (
    compatibility_residual,
    dissipation_from_dict,
    entropy_from_dict,
    make_dissipation,
    make_entropy,
)
from .functionals import energy, energy_dissipation_report, fisher_information
from .evolution import solve_forward, stationarity_report
from .dvt import DVTProblem, dvt_cost, poincare_constant
from .jko import mm_solve
from .ldp import empirical_path, gillespie, path_rate

SCENARIOS = ("evolve", "dvt", "jko", "ldp", "check")


class ConfigError(Exception):
    pass


# ---------------------------------------------------------------------------
# io helpers
# ---------------------------------------------------------------------------

# rows formatted and written per chunk: the memory of one chunk's strings
_CSV_CHUNK_ROWS = 65536


def _atomic_write(path, chunks):
    """Write the strings of `chunks` to a temp file, then move it to path."""
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".ggflow-", text=True)
    try:
        with os.fdopen(fd, "w") as fh:
            fh.writelines(chunks)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def _write_csv(path, header, columns):
    """CSV of equal-length columns: float cells by repr, integer cells by str."""
    columns = [np.asarray(c) for c in columns]
    fmts = [repr if c.dtype.kind == "f" else str for c in columns]

    def chunks():
        yield ",".join(header) + "\n"
        for lo in range(0, columns[0].size, _CSV_CHUNK_ROWS):
            cells = [map(f, c[lo:lo + _CSV_CHUNK_ROWS].tolist())
                     for f, c in zip(fmts, columns)]
            yield "\n".join(map(",".join, zip(*cells))) + "\n"

    _atomic_write(path, chunks())


def _write_report(outdir, report):
    report = dict(report, schema="ggflow/1", version=__version__)
    if "config_echo" in report:
        # the output directory is not part of the scientific configuration;
        # keeping it out preserves byte-identical reports across run dirs
        report["config_echo"] = {k: v for k, v in report["config_echo"].items() if k != "out"}
    _atomic_write(os.path.join(outdir, "report.json"),
                  [json.dumps(report, sort_keys=True, indent=2) + "\n"])


def _node_csv(path, system, times, measures):
    """One row (t, state_index, u) per time and state."""
    _write_csv(path, ["t", "state_index", "u"], [
        np.repeat(np.asarray(times, dtype=float), system.n),
        np.tile(np.arange(system.n), len(measures)),
        np.reshape([m.u for m in measures], -1),
    ])


def _curve_csvs(outdir, system, curve):
    _node_csv(os.path.join(outdir, "trajectory.csv"), system, curve.times, curve.states)
    times = np.asarray(curve.times, dtype=float)
    mask = system.edge_mask
    w = np.reshape([f.w(system)[mask] for f in curve.fluxes], (-1, mask.sum()))
    step, edge = np.nonzero(w)
    i, j = np.nonzero(mask)
    _write_csv(os.path.join(outdir, "fluxes.csv"), ["t", "i", "j", "w"],
               [0.5 * (times[:-1] + times[1:])[step], i[edge], j[edge], w[step, edge]])


# ---------------------------------------------------------------------------
# config handling
# ---------------------------------------------------------------------------

def _load_config(path):
    if not os.path.exists(path):
        raise ConfigError(f"config file not found: {path}")
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except json.JSONDecodeError as e:
        raise ConfigError(f"config is not valid JSON: {e}") from e
    if not isinstance(cfg, dict):
        raise ConfigError("config must be a JSON object")
    return cfg


def _require(cfg, key, typ=None):
    if key not in cfg:
        raise ConfigError(f"missing config field: {key!r}")
    val = cfg[key]
    if typ is not None and not isinstance(val, typ):
        raise ConfigError(f"config field {key!r} has wrong type")
    return val


def _positive(cfg, key, default=None):
    val = cfg.get(key, default)
    if val is None:
        raise ConfigError(f"missing config field: {key!r}")
    val = float(val)
    if val <= 0 or not np.isfinite(val):
        raise ConfigError(f"config field {key!r} must be positive, got {val}")
    return val


def _integer(cfg, key, default, minimum=None):
    val = cfg.get(key, default)
    if type(val) is not int or (minimum is not None and val < minimum):
        least = "" if minimum is None else f" >= {minimum}"
        raise ConfigError(f"config field {key!r} must be an integer{least}, got {val!r}")
    return val


def _distribution(cfg, key, n):
    """Weights of an initial distribution: n finite, nonnegative, positive sum."""
    try:
        vec = np.asarray(cfg[key], dtype=float)
    except (TypeError, ValueError):
        vec = None
    if vec is None or vec.shape != (n,) or not np.all(np.isfinite(vec)) \
            or np.any(vec < 0) or vec.sum() <= 0:
        raise ConfigError(f"config field {key!r} must be {n} finite nonnegative "
                          f"numbers with a positive sum, got {cfg[key]!r}")
    return vec


def _build_system(cfg):
    src = _require(cfg, "system", dict)
    if "file" in src:
        if not os.path.exists(src["file"]):
            raise ConfigError(f"system file not found: {src['file']}")
        with open(src["file"]) as fh:
            src = json.load(fh)
    try:
        return GraphSystem.from_dict(src)
    except GGFlowError as e:
        raise ConfigError(f"invalid system: {e}") from e


def _build_structure(cfg):
    try:
        spec = dissipation_from_dict(cfg.get("dissipation", {"family": "cosh"}))
        entropy = entropy_from_dict(cfg.get("entropy", {"family": "boltzmann"}))
    except GGFlowError as e:
        raise ConfigError(f"invalid structure: {e}") from e
    return spec, entropy


# ---------------------------------------------------------------------------
# scenarios
# ---------------------------------------------------------------------------

def run_evolve(cfg, outdir):
    system = _build_system(cfg)
    spec, entropy = _build_structure(cfg)
    u0 = np.asarray(_require(cfg, "u0", list), dtype=float)
    T = _positive(cfg, "T")
    dt = None if cfg.get("dt") is None else _positive(cfg, "dt")
    rtol = cfg.get("rtol", 1e-8)
    curve = solve_forward(system, spec, entropy, u0, T, rtol=float(rtol), dt=dt)
    rep_ce = ce_residual(system, curve.times, curve.states, curve.fluxes)
    edb = energy_dissipation_report(
        spec, entropy, system, curve.times, curve.states, curve.fluxes, ce_tol=None
    )
    stat = stationarity_report(system, spec, entropy, curve)
    _curve_csvs(outdir, system, curve)
    _write_csv(os.path.join(outdir, "energies.csv"), ["t", "energy", "fisher"], [
        np.asarray(curve.times, dtype=float),
        [energy(entropy, system, state) for state in curve.states],
        [fisher_information(spec, entropy, system, state) for state in curve.states],
    ])
    e0 = max(abs(edb.energy_start), 1e-30)
    checks = {
        "mass_conservation": {
            "passed": bool(curve.meta["mass_drift_rel"] <= 1e-9),
            "value": curve.meta["mass_drift_rel"],
        },
        "continuity_equation": {
            "passed": bool(rep_ce.residual <= 1e-5),
            "value": rep_ce.residual,
        },
        "energy_monotone": {
            "passed": bool(stat["energy_monotone"]),
            "value": stat["energy_end"] - stat["energy_start"],
        },
        "edb_deficit": {
            "passed": bool(abs(edb.deficit) <= 1e-3 * e0 + 1e-10),
            "value": edb.deficit,
        },
    }
    report = {
        "scenario": "evolve",
        "config_echo": cfg,
        "edb": edb.to_dict(),
        "stationarity": stat,
        "integrator": {k: v for k, v in curve.meta.items()},
        "checks": checks,
    }
    _write_report(outdir, report)
    return checks


def run_dvt(cfg, outdir):
    system = _build_system(cfg)
    spec, _ = _build_structure(cfg)
    rho0 = Measure.from_rho(system, np.asarray(_require(cfg, "rho0", list), float))
    rho1 = Measure.from_rho(system, np.asarray(_require(cfg, "rho1", list), float))
    problem = DVTProblem(
        system=system,
        spec=spec,
        tau=_positive(cfg, "tau", 1.0),
        rho0=rho0,
        rho1=rho1,
        M=int(cfg.get("M", 8)),
    )
    sol = dvt_cost(problem)
    rep_ce = ce_residual(system, sol.curve.times, sol.curve.states, sol.curve.fluxes)
    _curve_csvs(outdir, system, sol.curve)
    checks = {
        "solver_converged": {"passed": bool(sol.converged), "value": sol.kkt_residual},
        "discrete_continuity": {
            "passed": bool(rep_ce.residual <= 1e-8),
            "value": rep_ce.residual,
        },
    }
    report = {
        "scenario": "dvt",
        "config_echo": cfg,
        "value": sol.value,
        "values_by_epsilon": list(sol.values_by_epsilon),
        "epsilon_schedule": list(sol.epsilon_schedule),
        "kkt_residual": sol.kkt_residual,
        "status": sol.status,
        "iterations": sol.iterations,
        "checks": checks,
    }
    _write_report(outdir, report)
    return checks


def run_jko(cfg, outdir):
    system = _build_system(cfg)
    spec, entropy = _build_structure(cfg)
    rho0 = Measure.from_rho(system, np.asarray(_require(cfg, "rho0", list), float))
    T = _positive(cfg, "T")
    taus = cfg.get("tau_list")
    if taus is None:
        taus = [cfg.get("tau")]
    if any(t is None or float(t) <= 0 for t in taus):
        raise ConfigError("config field 'tau'/'tau_list' must give positive steps")
    taus = [float(t) for t in taus]
    reference = solve_forward(system, spec, entropy, rho0.u, T, dt=min(taus) / 20.0)

    table, steps = [], []
    edi_ok = monotone_ok = True
    for tau in taus:
        run = mm_solve(system, spec, entropy, rho0, T, tau, M=int(cfg.get("M", 8)))
        gap = 0.0
        for t, m in zip(run.times, run.steps):
            k = int(np.argmin(np.abs(reference.times - t)))
            gap = max(gap, float(np.abs(m.rho - reference.states[k].rho).sum()))
        edi_ok = edi_ok and run.discrete_energy_inequality_slack() == 0.0
        monotone_ok = monotone_ok and bool(np.all(np.diff(run.energies) <= 1e-8))
        table.append({"tau": tau, "sup_tv_gap": gap,
                      "final_energy": float(run.energies[-1])})
        steps.append(np.column_stack([
            run.times[1:], np.full(len(run.w_values), tau), run.w_values,
            run.energies[1:], [d["slope_sample"] for d in run.diagnostics],
        ]))
    steps = np.vstack(steps)
    _write_csv(os.path.join(outdir, "mm_steps.csv"),
               ["n", "t", "tau", "w_value", "energy", "slope_sample"],
               [np.arange(len(steps)), *steps.T])
    gaps = [entry["sup_tv_gap"] for entry in table]
    converging = all(gaps[k + 1] <= gaps[k] for k in range(len(gaps) - 1))
    checks = {
        "discrete_energy_inequality": {"passed": bool(edi_ok), "value": 0.0},
        "energies_nonincreasing": {"passed": bool(monotone_ok), "value": 0.0},
        "gap_decreases_with_tau": {"passed": bool(converging), "value": gaps[-1]},
    }
    report = {
        "scenario": "jko",
        "config_echo": cfg,
        "convergence_table": table,
        "checks": checks,
    }
    _write_report(outdir, report)
    return checks


def run_ldp(cfg, outdir):
    system = _build_system(cfg)
    spec, entropy = _build_structure(cfg)
    n = _integer(cfg, "n", 1000, minimum=1)
    T = _positive(cfg, "T")
    seed = _integer(cfg, "seed", 0)
    bins = _integer(cfg, "bins", 100, minimum=1)
    rho0 = None if cfg.get("rho0") is None else _distribution(cfg, "rho0", system.n)
    ens = gillespie(system, n, T, seed=seed, rho0=rho0)
    edges, measures, fluxes = empirical_path(system, ens, bins=bins)
    rate = path_rate(system, edges, measures, fluxes)

    _write_csv(os.path.join(outdir, "events.csv"), ["t", "particle", "from", "to"],
               [ens.event_times, ens.event_particles, ens.event_from, ens.event_to])
    _node_csv(os.path.join(outdir, "empirical.csv"), system, edges, measures)

    counting = max(float(np.abs(measures[m + 1].rho - measures[m].rho
                                + f.j.sum(axis=1) - f.j.sum(axis=0)).max())
                   for m, f in enumerate(fluxes))
    checks = {
        "counting_identity": {"passed": bool(counting <= 1e-12), "value": counting},
        "rate_finite": {"passed": bool(np.isfinite(rate)), "value": rate},
    }
    report = {"scenario": "ldp", "config_echo": cfg, "n_particles": n,
              "n_events": int(ens.n_events), "seed": seed, "path_rate": rate,
              "checks": checks}
    _write_report(outdir, report)
    return checks


def run_check(cfg, outdir):
    """Self-test on the shipped two-state fixture."""
    system = GraphSystem.from_dict({"pi": [0.5, 0.5], "kappa": [[0.0, 1.0], [1.0, 0.0]]})
    spec = make_dissipation("cosh")
    entropy = make_entropy("boltzmann")

    grid = np.logspace(-2, 2, 50)
    compat = compatibility_residual(spec, entropy, grid)

    curve = solve_forward(system, spec, entropy, np.array([1.6, 0.4]), T=1.0, dt=1e-3)
    edb = energy_dissipation_report(
        spec, entropy, system, curve.times, curve.states, curve.fluxes
    )
    e0 = abs(edb.energy_start)

    quad = make_dissipation("constant_alpha")
    sol = dvt_cost(
        DVTProblem(
            system=system, spec=quad, tau=1.0,
            rho0=Measure.from_rho(system, [0.8, 0.2]),
            rho1=Measure.from_rho(system, [0.5, 0.5]),
        )
    )
    cp = poincare_constant(system, q=2.0)

    checks = {
        "compatibility": {"passed": bool(compat <= 1e-10), "value": compat},
        "edb_deficit": {
            "passed": bool(abs(edb.deficit) <= 1e-4 * e0),
            "value": edb.deficit,
        },
        "dvt_closed_form": {
            "passed": bool(abs(sol.value - 0.09) <= 1e-4),
            "value": sol.value,
        },
        "poincare_quarter": {"passed": bool(abs(cp - 0.25) <= 1e-10), "value": cp},
    }
    report = {"scenario": "check", "config_echo": cfg, "checks": checks}
    _write_report(outdir, report)
    return checks


_RUNNERS = {
    "evolve": run_evolve,
    "dvt": run_dvt,
    "jko": run_jko,
    "ldp": run_ldp,
    "check": run_check,
}


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def build_parser():
    p = argparse.ArgumentParser(
        prog="ggflow",
        description="Gradient-flow experiments on finite jump-process graphs.",
    )
    p.add_argument("scenario", choices=SCENARIOS, help="what to run")
    p.add_argument("--config", help="path to the JSON configuration")
    p.add_argument("--seed", type=int, help="override the config seed")
    p.add_argument("--out", help="output directory (default: config 'out' or '.')")
    return p


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        cfg = _load_config(args.config) if args.config else {}
        if args.scenario != "check" and not args.config:
            raise ConfigError("--config is required for this scenario")
        cfg["scenario"] = args.scenario
        if args.seed is not None:
            cfg["seed"] = args.seed
        outdir = args.out or cfg.get("out") or "."
        cfg["out"] = outdir
        os.makedirs(outdir, exist_ok=True)
        checks = _RUNNERS[args.scenario](cfg, outdir)
    except ConfigError as e:
        print(f"ggflow: config error: {e}", file=sys.stderr)
        return 2
    except GGFlowError as e:
        print(f"ggflow: {type(e).__name__}: {e}", file=sys.stderr)
        return 1
    failing = [name for name, entry in checks.items() if not entry["passed"]]
    if failing:
        print(
            f"ggflow: numeric check failed: {', '.join(failing)}", file=sys.stderr
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
