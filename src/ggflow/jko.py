"""Minimizing-movement time stepping driven by the transport cost.

One step from rho solves  min_v  W(tau, rho, v) + E(v)  with the same convex
machinery as the transport cost, the right endpoint left free and the energy
added to the objective.  Iterating yields the implicit scheme whose
piecewise-constant interpolants converge to the semigroup as tau -> 0; the
per-step and cumulative energy inequalities certify each run.  The value of
a single step of size r is the Moreau-Yosida approximation gen(r, rho), and
difference quotients (E(rho) - gen(r, rho))/r lower-bound the generalized
slope, which in turn dominates the Fisher information.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dvt import free_endpoint_step
from .functionals import energy
from .graph import Measure


@dataclass(frozen=True)
class MMRun:
    """Record of a minimizing-movement run with uniform step tau."""

    tau: float
    times: np.ndarray
    steps: tuple  # Measures rho^0 .. rho^N
    w_values: np.ndarray
    energies: np.ndarray
    diagnostics: tuple

    def interpolant(self, t, which="left"):
        """Piecewise-constant interpolants: 'left' jumps at step ends
        (value rho^n on ((n-1) tau, n tau]), 'right' holds rho^{n-1}."""
        t = float(t)
        if which == "left":
            idx = int(np.ceil(t / self.tau - 1e-12))
        elif which == "right":
            idx = int(np.floor(t / self.tau + 1e-12))
        else:
            raise ValueError("which must be 'left' or 'right'")
        idx = min(max(idx, 0), len(self.steps) - 1)
        return self.steps[idx]

    def discrete_energy_inequality_slack(self, inner_tol=1e-6):
        """max(0, sum_n W_n + E(rho^N) - E(rho^0) - N*inner_tol)."""
        lhs = float(self.w_values.sum() + self.energies[-1])
        rhs = float(self.energies[0] + len(self.w_values) * inner_tol)
        return max(0.0, lhs - rhs)


def mm_step(system, spec, entropy, tau, rho_prev, M=8,
            epsilon_schedule=(1e-2, 1e-3, 1e-4), kkt_tol=1e-8, max_iter=20000):
    """One minimizing-movement step; returns (next measure, diagnostics)."""
    return free_endpoint_step(
        system, spec, entropy, tau, rho_prev, M=M,
        epsilon_schedule=epsilon_schedule, kkt_tol=kkt_tol, max_iter=max_iter,
    )


def mm_solve(system, spec, entropy, rho0, T, tau, M=8,
             epsilon_schedule=(1e-2, 1e-3, 1e-4), kkt_tol=1e-8, max_iter=20000,
             keep_curves=False):
    """Iterate mm_step on a uniform grid covering [0, T].

    Each step records a slope sample (E(rho^{n-1}) - objective)/tau, the
    difference quotient whose limsup defines the generalized slope.  With
    keep_curves=True the inner transport curves are retained so the
    concatenated run can be fed to the energy-dissipation certificate.
    """
    n_steps = max(1, int(round(T / tau)))
    rho = rho0 if isinstance(rho0, Measure) else Measure.from_rho(system, rho0)
    steps = [rho]
    w_values = []
    diags = []
    energies = [energy(entropy, system, rho)]
    for _ in range(n_steps):
        rho, diag = mm_step(
            system, spec, entropy, tau, rho, M=M,
            epsilon_schedule=epsilon_schedule, kkt_tol=kkt_tol, max_iter=max_iter,
        )
        if not keep_curves:
            diag = {k: v for k, v in diag.items() if k != "curve"}
        diag["slope_sample"] = max(
            (energies[-1] - diag["objective"]) / tau, 0.0
        )
        steps.append(rho)
        w_values.append(max(diag["w_value"], 0.0))
        energies.append(diag["energy"])
        diags.append(diag)
    return MMRun(
        tau=float(tau),
        times=np.linspace(0.0, n_steps * tau, n_steps + 1),
        steps=tuple(steps),
        w_values=np.asarray(w_values),
        energies=np.asarray(energies),
        diagnostics=tuple(diags),
    )


def concatenated_curve(run):
    """Stitch the per-step inner curves of a keep_curves=True run together."""
    times = [np.asarray([0.0])]
    states = [run.steps[0]]
    fluxes = []
    offset = 0.0
    for diag in run.diagnostics:
        curve = diag["curve"]
        times.append(offset + np.asarray(curve.times[1:]))
        states.extend(curve.states[1:])
        fluxes.extend(curve.fluxes)
        offset += float(curve.times[-1])
    from .graph import CurveWithFlux

    return CurveWithFlux(
        times=np.concatenate(times), states=tuple(states), fluxes=tuple(fluxes)
    )


def variational_interpolant(system, spec, entropy, run, t, M=8,
                            epsilon_schedule=(1e-2, 1e-3, 1e-4), kkt_tol=1e-8):
    """De Giorgi interpolant of a run at time t = (n-1) tau + r.

    Samples argmin_mu W(r, rho^{n-1}, mu) + E(mu) on demand (one inner solve
    per requested time; nothing is stored densely).  At r = tau it coincides
    with the next step, at r -> 0 with the base point.
    """
    t = float(t)
    if t <= 0.0:
        return run.steps[0]
    n = min(int(np.ceil(t / run.tau - 1e-12)), len(run.steps) - 1)
    r = t - (n - 1) * run.tau
    if r >= run.tau - 1e-12:
        return run.steps[n]
    mu, _ = free_endpoint_step(
        system, spec, entropy, r, run.steps[n - 1], M=M,
        epsilon_schedule=epsilon_schedule, kkt_tol=kkt_tol,
    )
    return mu


def moreau_yosida(system, spec, entropy, r, rho, M=8,
                  epsilon_schedule=(1e-2, 1e-3, 1e-4), kkt_tol=1e-8,
                  max_iter=20000):
    """gen(r, rho) = inf_mu W(r, rho, mu) + E(mu); returns (value, minimizer).

    Nonincreasing in r with gen(r, rho) <= E(rho) and gen(r, rho) -> E(rho)
    as r -> 0 (the stay-put candidate costs exactly E(rho)).
    """
    if r <= 0:
        raise ValueError("step size r must be positive")
    minimizer, diag = free_endpoint_step(
        system, spec, entropy, r, rho, M=M,
        epsilon_schedule=epsilon_schedule, kkt_tol=kkt_tol, max_iter=max_iter,
    )
    value = min(diag["objective"], energy(entropy, system, rho))
    return value, minimizer


def generalized_slope_estimate(system, spec, entropy, rho, r_list, M=8,
                               epsilon_schedule=(1e-2, 1e-3, 1e-4),
                               kkt_tol=1e-8, max_iter=20000):
    """Finite-r lower bound of the generalized slope at rho.

    Returns max over r in r_list of (E(rho) - gen(r, rho))/r together with
    the per-r quotients.  The quotients increase as r decreases and
    lower-bound the limsup; no claim of computing the slope itself.
    """
    e0 = energy(entropy, system, rho)
    quotients = {}
    for r in r_list:
        val, _ = moreau_yosida(
            system, spec, entropy, r, rho, M=M,
            epsilon_schedule=epsilon_schedule, kkt_tol=kkt_tol, max_iter=max_iter,
        )
        quotients[float(r)] = (e0 - val) / r
    return {
        "estimate": max(quotients.values()),
        "per_r": quotients,
        "energy": e0,
    }
