"""Span tracing of ggflow's layers, installed from outside the package.

``Tracer.install`` swaps the public functions each layer exposes for
wrappers that record a span (name, start, end, parent) and a few counts.
A function is swapped in every ``ggflow`` module that holds it, so calls
between modules (``functionals`` calling ``ce_residual``, ``evolution``
calling ``fisher_information``) are seen too.  ``uninstall`` puts the
originals back, so untraced passes in the same process run unwrapped code.

A hook whose target no longer exists (renamed or removed by a refactor),
or whose result lacks the fields it counts, is recorded in
``Tracer.absent``; the metrics that need it are then left out instead of
failing the run.

Span names are ``<layer>.<function>``; ``layer_metrics`` turns one pass
worth of spans and counts into the per-layer metrics.  A span's self time
is its duration minus the durations of its direct children.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import sys
import time
from collections import defaultdict

import numpy as np

MIB = float(2**20)


def flux_bytes(fluxes):
    """Computed bytes of flux data held by a sequence of Flux (or arrays)."""
    return sum(np.asarray(getattr(f, "j", f)).nbytes for f in fluxes)


class Tracer:
    """Spans and counts of one pass, and the hooks that record them."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1]
        self.counts = defaultdict(float)
        self.absent = set()
        self._stack = []
        self._restore = []

    # -- recording ------------------------------------------------------------

    def call(self, name, fn, *args, **kwargs):
        rec = [name, time.perf_counter(), 0.0, self._stack[-1] if self._stack else -1]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            return fn(*args, **kwargs)
        finally:
            rec[2] = time.perf_counter()
            self._stack.pop()

    def wrap(self, name, fn, after=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            out = self.call(name, fn, *args, **kwargs)
            if after is not None:
                try:
                    after(self.counts, args, out)
                except (AttributeError, KeyError, IndexError, TypeError):
                    # the result no longer has the fields counted here
                    self.absent.add(_SPAN_SOURCE.get(name, name))
            return out

        return traced

    def reset(self):
        """Start a new pass: drop the spans and counts recorded so far."""
        self.spans = []
        self.counts = defaultdict(float)

    # -- hooks -----------------------------------------------------------------

    def _patch(self, path, make):
        modname, attr = path.rsplit(".", 1)
        try:
            original = getattr(importlib.import_module(modname), attr)
        except (ImportError, AttributeError):
            self.absent.add(path)
            return
        wrapped = make(original)
        for name, mod in list(sys.modules.items()):
            if name.split(".")[0] == "ggflow" and getattr(mod, attr, None) is original:
                setattr(mod, attr, wrapped)
                self._restore.append((mod, attr, original))

    def install(self):
        def plain(name, after=None):
            return lambda fn: self.wrap(name, fn, after)

        for path, name, after in _HOOKS:
            self._patch(path, plain(name, after))
        self._patch("ggflow.cli.dissipation_from_dict", self._traced_spec_factory)
        self._patch("ggflow.evolution.continuous_field", self._traced_field_factory)

    def uninstall(self):
        for mod, attr, original in reversed(self._restore):
            setattr(mod, attr, original)
        self._restore = []

    def _traced_spec_factory(self, make_spec):
        def count_elems(counts, args, out):
            counts["psi_elems"] += np.size(args[0])

        def traced(*args, **kwargs):
            spec = self.call("potentials.make", make_spec, *args, **kwargs)
            try:
                return dataclasses.replace(
                    spec,
                    psi=self.wrap("potentials.psi", spec.psi, count_elems),
                    psi_prime=self.wrap("potentials.psi", spec.psi_prime, count_elems),
                    alpha=self.wrap("potentials.alpha", spec.alpha),
                    alpha_grad_u=None if spec.alpha_grad_u is None
                    else self.wrap("potentials.alpha", spec.alpha_grad_u),
                )
            except (TypeError, AttributeError):
                self.absent.add("DissipationSpec.psi/psi_prime/alpha/alpha_grad_u")
                return spec

        return traced

    def _traced_field_factory(self, continuous_field):
        def traced(*args, **kwargs):
            field = self.call("potentials.continuous_field", continuous_field,
                              *args, **kwargs)
            return self.wrap("potentials.field", field)

        return traced


def _after_solve_forward(counts, args, curve):
    counts["evolution.steps"] += curve.meta["steps"]
    counts["evolution.rejections"] += curve.meta["rejections"]
    counts["flux_bytes"] += flux_bytes(curve.fluxes)


def _after_dvt_cost(counts, args, sol):
    counts["dvt.iters"] += sol.iterations
    counts["dvt.unconverged"] += not sol.converged
    counts["dvt.kkt_max"] = max(counts["dvt.kkt_max"], sol.kkt_residual)
    counts["flux_bytes"] += flux_bytes(sol.curve.fluxes)


def _after_free_endpoint_step(counts, args, out):
    diag = out[1]
    counts["dvt.iters"] += diag["iterations"]
    counts["dvt.unconverged"] += not diag["converged"]
    counts["dvt.kkt_max"] = max(counts["dvt.kkt_max"], diag["kkt_residual"])
    counts["flux_bytes"] += flux_bytes(diag["curve"].fluxes)


def _after_gillespie(counts, args, ens):
    counts["ldp.events"] += ens.n_events


def _after_empirical_path(counts, args, out):
    counts["flux_bytes"] += flux_bytes(out[2])


# (target, span name, count hook).  Targets are looked up where the CLI or
# the calling layer finds them, so the swap reaches the calls that run.
_HOOKS = (
    ("ggflow.graph.build_system", "graph.build_system", None),
    ("ggflow.cli.ce_residual", "graph.ce_residual", None),
    ("ggflow.cli.entropy_from_dict", "potentials.make", None),
    ("ggflow.cli.energy_dissipation_report", "functionals.edb", None),
    ("ggflow.functionals.action_rate", "functionals.action_rate", None),
    ("ggflow.functionals.fisher_information", "functionals.fisher", None),
    ("ggflow.cli.solve_forward", "evolution.solve_forward", _after_solve_forward),
    ("ggflow.cli.stationarity_report", "evolution.stationarity", None),
    ("ggflow.cli.dvt_cost", "dvt.dvt_cost", _after_dvt_cost),
    ("ggflow.jko.free_endpoint_step", "dvt.free_endpoint_step",
     _after_free_endpoint_step),
    ("ggflow.cli.mm_solve", "jko.mm_solve", None),
    ("ggflow.cli.gillespie", "ldp.gillespie", _after_gillespie),
    ("ggflow.cli.empirical_path", "ldp.empirical_path", _after_empirical_path),
    ("ggflow.cli.path_rate", "ldp.path_rate", None),
)

# hook target each span name comes from, to leave out metrics of absent hooks
_SPAN_SOURCE = {name: path for path, name, _ in _HOOKS}
_SPAN_SOURCE.update({
    "potentials.psi": "DissipationSpec.psi/psi_prime/alpha/alpha_grad_u",
    "potentials.alpha": "DissipationSpec.psi/psi_prime/alpha/alpha_grad_u",
    "potentials.field": "ggflow.evolution.continuous_field",
})


def _summarize(spans):
    """Per span name: call count, total duration, total self time."""
    child = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    calls, total, self_time = defaultdict(int), defaultdict(float), defaultdict(float)
    for k, (name, start, end, parent) in enumerate(spans):
        calls[name] += 1
        total[name] += end - start
        self_time[name] += end - start - child[k]
    return calls, total, self_time


# name -> (unit, span names it needs, value from (calls, total, self, counts))
PER_LAYER = {
    "cli.self_s": ("s", ["cli.main"], lambda c, t, s, n: s["cli.main"]),
    "cli.out_mib": ("MiB", [], lambda c, t, s, n: n["cli.out_bytes"] / MIB),
    "graph.ce_residual_s": ("s", ["graph.ce_residual"],
                            lambda c, t, s, n: t["graph.ce_residual"]),
    "graph.ce_residual_calls": ("count", ["graph.ce_residual"],
                                lambda c, t, s, n: c["graph.ce_residual"]),
    "graph.flux_mib": ("MiB", ["evolution.solve_forward", "dvt.dvt_cost",
                               "dvt.free_endpoint_step", "ldp.empirical_path"],
                       lambda c, t, s, n: n["flux_bytes"] / MIB),
    "graph.build_s": ("s", ["graph.build_system"],
                      lambda c, t, s, n: t["graph.build_system"]),
    "potentials.psi_calls": ("count", ["potentials.psi"],
                             lambda c, t, s, n: c["potentials.psi"]),
    "potentials.psi_elems": ("count", ["potentials.psi"],
                             lambda c, t, s, n: n["psi_elems"]),
    "potentials.psi_s": ("s", ["potentials.psi"], lambda c, t, s, n: t["potentials.psi"]),
    "potentials.alpha_s": ("s", ["potentials.alpha"],
                           lambda c, t, s, n: t["potentials.alpha"]),
    "potentials.field_calls": ("count", ["potentials.field"],
                               lambda c, t, s, n: c["potentials.field"]),
    "potentials.field_s": ("s", ["potentials.field"],
                           lambda c, t, s, n: t["potentials.field"]),
    "potentials.make_s": ("s", ["potentials.make"], lambda c, t, s, n: t["potentials.make"]),
    "functionals.edb_s": ("s", ["functionals.edb"], lambda c, t, s, n: t["functionals.edb"]),
    "functionals.action_rate_calls": ("count", ["functionals.action_rate"],
                                      lambda c, t, s, n: c["functionals.action_rate"]),
    "functionals.action_rate_s": ("s", ["functionals.action_rate"],
                                  lambda c, t, s, n: t["functionals.action_rate"]),
    "functionals.fisher_calls": ("count", ["functionals.fisher"],
                                 lambda c, t, s, n: c["functionals.fisher"]),
    "functionals.fisher_s": ("s", ["functionals.fisher"],
                             lambda c, t, s, n: t["functionals.fisher"]),
    "evolution.solve_s": ("s", ["evolution.solve_forward"],
                          lambda c, t, s, n: t["evolution.solve_forward"]),
    "evolution.steps": ("count", ["evolution.solve_forward"],
                        lambda c, t, s, n: n["evolution.steps"]),
    "evolution.rejections": ("count", ["evolution.solve_forward"],
                             lambda c, t, s, n: n["evolution.rejections"]),
    "evolution.stationarity_s": ("s", ["evolution.stationarity"],
                                 lambda c, t, s, n: t["evolution.stationarity"]),
    "dvt.solve_s": ("s", ["dvt.dvt_cost", "dvt.free_endpoint_step"],
                    lambda c, t, s, n: t["dvt.dvt_cost"] + t["dvt.free_endpoint_step"]),
    "dvt.solves": ("count", ["dvt.dvt_cost", "dvt.free_endpoint_step"],
                   lambda c, t, s, n: c["dvt.dvt_cost"] + c["dvt.free_endpoint_step"]),
    "dvt.fista_iters": ("count", ["dvt.dvt_cost", "dvt.free_endpoint_step"],
                        lambda c, t, s, n: n["dvt.iters"]),
    "dvt.s_per_iter": ("s", ["dvt.dvt_cost", "dvt.free_endpoint_step"],
                       lambda c, t, s, n: (t["dvt.dvt_cost"] + t["dvt.free_endpoint_step"])
                       / n["dvt.iters"] if n["dvt.iters"] else 0.0),
    "dvt.unconverged": ("count", ["dvt.dvt_cost", "dvt.free_endpoint_step"],
                        lambda c, t, s, n: n["dvt.unconverged"]),
    "dvt.kkt_max": ("1", ["dvt.dvt_cost", "dvt.free_endpoint_step"],
                    lambda c, t, s, n: n["dvt.kkt_max"]),
    "jko.mm_solve_s": ("s", ["jko.mm_solve"], lambda c, t, s, n: t["jko.mm_solve"]),
    "jko.steps": ("count", ["dvt.free_endpoint_step"],
                  lambda c, t, s, n: c["dvt.free_endpoint_step"]),
    "jko.self_s": ("s", ["jko.mm_solve"], lambda c, t, s, n: s["jko.mm_solve"]),
    "ldp.gillespie_s": ("s", ["ldp.gillespie"], lambda c, t, s, n: t["ldp.gillespie"]),
    "ldp.events": ("count", ["ldp.gillespie"], lambda c, t, s, n: n["ldp.events"]),
    "ldp.events_per_s": ("1/s", ["ldp.gillespie"],
                         lambda c, t, s, n: n["ldp.events"] / t["ldp.gillespie"]
                         if t["ldp.gillespie"] else 0.0),
    "ldp.empirical_path_s": ("s", ["ldp.empirical_path"],
                             lambda c, t, s, n: t["ldp.empirical_path"]),
    "ldp.path_rate_s": ("s", ["ldp.path_rate"], lambda c, t, s, n: t["ldp.path_rate"]),
}
# derived by the harness from traced against untraced passes
OVERHEAD = ("trace.overhead_frac", "ratio")


def layer_metrics(spans, counts, absent):
    """Per-layer metric values for one pass, without those of absent hooks."""
    calls, total, self_time = _summarize(spans)
    missing = {name for name, src in _SPAN_SOURCE.items() if src in absent}
    return {
        metric: float(value(calls, total, self_time, counts))
        for metric, (unit, needs, value) in PER_LAYER.items()
        if not missing.intersection(needs)
    }


def write_spans(path, spans):
    with open(path, "w") as fh:
        fh.write("name,start,end,parent\n")
        for name, start, end, parent in spans:
            fh.write(f"{name},{start!r},{end!r},{parent}\n")
