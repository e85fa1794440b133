"""Variational functionals: energy, dissipation rate, Fisher information,
chain-rule diagnostics, and the energy-dissipation certificate.

The convention lock used throughout: the energy is E(rho) = sum phi(u_i) pi_i
with no prefactor, while the dissipation rate and the Fisher information both
carry the 1/2 double-sum prefactor.  Under this normalization
-dE/dt = R + D holds exactly along solutions, which is what the deficit
report certifies (up to quadrature on a time grid).
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import ContinuityEquationViolated, GridMismatch
from .graph import CEReport, EdgeFluxes, Measure, _ce_report, edge_fluxes
from .potentials import edge_force, flux_cost, mul_zero_inf

__all__ = [
    "EDBReport",
    "action_rate",
    "chain_rule_residual",
    "edge_diagnostics_csv",
    "edge_force",
    "energy",
    "energy_dissipation_report",
    "fisher_information",
    "fisher_integrands",
]


def energy(entropy, system, measure):
    """Relative entropy of the measure against pi: sum_i phi(u_i) pi_i."""
    u = measure.u if isinstance(measure, Measure) else np.asarray(measure, float)
    return float(_energy_rows(entropy, system, u))


def _psi_star_ext(spec, a):
    """Psi*(a) with Psi*(+-inf) = +inf (a may carry infinities)."""
    a = np.atleast_1d(np.asarray(a, dtype=float))
    out = np.full(a.shape, np.inf)
    finite = np.isfinite(a)
    if np.any(finite):
        with np.errstate(over="ignore"):
            out[finite] = spec.psi_star(a[finite])
    return out


class FisherTriple(NamedTuple):
    lower: np.ndarray
    upper: np.ndarray
    envelope: np.ndarray


def fisher_envelope_closed_form(spec, entropy):
    """Closed-form lower-semicontinuous Fisher integrand, where known.

    Shipped for cosh(q) x boltzmann(gamma) and quadratic x boltzmann; returns
    None otherwise, in which case callers fall back to the upper integrand
    (which may overestimate on the boundary of the quadrant).
    """
    if spec.name == "cosh" and entropy.name == "boltzmann":
        q = spec.params["q"]
        gam = entropy.params["scale"]
        a = 0.5 * q * (1.0 - gam)
        b = 0.5 * q * (1.0 + gam)

        def env(u, v, q=q, a=a, b=b):
            u = np.asarray(u, dtype=float)
            v = np.asarray(v, dtype=float)
            return (2.0 / q) * (
                u ** a * v ** b + u ** b * v ** a - 2.0 * (u * v) ** (0.5 * q)
            )

        return env

    if spec.name == "quadratic" and entropy.name == "boltzmann":
        gam = entropy.params["scale"]

        def env(u, v, gam=gam):
            u, v = np.broadcast_arrays(
                np.asarray(u, dtype=float), np.asarray(v, dtype=float)
            )
            out = np.full(u.shape, np.inf)
            both = (u > 0) & (v > 0)
            with np.errstate(divide="ignore", invalid="ignore"):
                ell = np.log(np.maximum(u, 1e-300)) - np.log(np.maximum(v, 1e-300))
            out[both] = 0.5 * gam * gam * (u - v)[both] * ell[both]
            near = both & (np.abs(u - v) <= 1e-12 * (u + v))
            out[near] = 0.0
            out[(u == 0) & (v == 0)] = 0.0
            return out

        return env

    return None


def fisher_integrands(spec, entropy, u, v):
    """The three edgewise Fisher integrands (lower, upper, envelope).

    lower vanishes wherever alpha does; upper is +inf there unless u = v = 0;
    envelope is the lower-semicontinuous interpolation between them (closed
    form for the shipped structure/entropy pairs, upper otherwise).
    lower <= envelope <= upper pointwise.
    """
    u, v = np.broadcast_arrays(np.asarray(u, dtype=float), np.asarray(v, dtype=float))
    scalar = u.ndim == 0
    u, v = np.atleast_1d(u, v)
    al = np.atleast_1d(spec.alpha(u, v))
    body = _psi_star_ext(spec, edge_force(entropy, u, v))
    lower = mul_zero_inf(body, al)
    upper = np.where(al > 0.0, lower, np.where((u == 0) & (v == 0), 0.0, np.inf))
    env_fn = fisher_envelope_closed_form(spec, entropy)
    envelope = np.asarray(env_fn(u, v), dtype=float) if env_fn is not None else upper
    if scalar:
        return FisherTriple(float(lower[0]), float(upper[0]), float(envelope[0]))
    return FisherTriple(lower, upper, envelope)


def _half_theta_sum(vals, th):
    """(1/2) sum_k vals_k theta_k along the last axis; +inf if a term is."""
    with np.errstate(invalid="ignore"):
        out = 0.5 * (vals * th).sum(axis=-1)
    return np.where(np.isinf(vals).any(axis=-1), np.inf, out)


def _edge_ends(system, U):
    """Densities at both ends of each edge, per row of U.  np.take keeps rows
    C-contiguous (U[:, ii] would not), so a row sums as that row alone does."""
    ii, jj = np.nonzero(system.edge_mask)
    return np.take(U, ii, axis=-1), np.take(U, jj, axis=-1)


def _energy_rows(entropy, system, U):
    """Energy of each row of the densities U."""
    return np.sum(entropy.phi(U) * system.pi, axis=-1)


def _fisher_rows(spec, entropy, system, U):
    """Fisher information of each row of the densities U."""
    env = fisher_integrands(spec, entropy, *_edge_ends(system, U)).envelope
    return _half_theta_sum(env, system.theta[system.edge_mask])


def _action_rows(spec, system, U, J, off_edge):
    """Action rate of each row pair of densities U and edge fluxes J; +inf
    where the flux leaves the edge set (off_edge) or the cost blows up."""
    th = system.theta[system.edge_mask]
    costs = flux_cost(spec, *_edge_ends(system, U), 2.0 * J / th)
    return np.where(off_edge, np.inf, _half_theta_sum(costs, th))


def _midpoint_edges(entropy, system, U, flux):
    """Per interval and edge: the average densities u_i, u_j, the skew part
    w of the scaled flux 2 j / theta, and the chain-rule integrand
    edge_force * w (with 0 * inf = 0)."""
    ii, jj = np.nonzero(system.edge_mask)
    ui, uj = _edge_ends(system, 0.5 * (U[:-1] + U[1:]))
    w = 2.0 * flux.values / system.theta[ii, jj]
    w = 0.5 * (w - np.take(w, np.lexsort((ii, jj)), axis=-1))
    return ui, uj, w, mul_zero_inf(edge_force(entropy, ui, uj), np.abs(w)) * np.sign(w)


class _Certificate(NamedTuple):
    times: np.ndarray
    flux: EdgeFluxes
    ce: CEReport
    energy: np.ndarray  # (T+1,) at the nodes
    fisher: np.ndarray  # (T+1,) at the nodes
    action: np.ndarray  # (T,) action rate per interval
    chain: np.ndarray  # (T,) chain-rule rate per interval


def _certify(spec, entropy, system, times, states, fluxes):
    """Read a gridded curve once and evaluate every curve functional on it.

    Energy and Fisher information at the nodes (Fisher enters the
    certificate by the trapezoid rule); the action and chain-rule rates at
    each interval's average state with the interval flux (midpoint rule),
    the action's state clipped at 0.
    """
    times = np.asarray(times, dtype=float)
    flux = edge_fluxes(system, fluxes)
    ce = _ce_report(system, times, states, flux)
    U = np.stack([m.u for m in states])
    chain = _midpoint_edges(entropy, system, U, flux)[-1]
    return _Certificate(
        times, flux, ce, _energy_rows(entropy, system, U),
        _fisher_rows(spec, entropy, system, U),
        _action_rows(spec, system, np.maximum(0.5 * (U[:-1] + U[1:]), 0.0),
                     flux.values, flux.off_edge),
        0.5 * (chain * system.theta[system.edge_mask]).sum(axis=1),
    )


def fisher_information(spec, entropy, system, measure):
    """Fisher information: (1/2) sum_ij envelope(u_i, u_j) theta_ij."""
    u = measure.u if isinstance(measure, Measure) else np.asarray(measure, float)
    return float(_fisher_rows(spec, entropy, system, u))


def action_rate(spec, system, measure, flux):
    """Instantaneous dissipation R(rho, j) = (1/2) sum flux_cost * theta.

    +inf if any edge with theta = 0 carries flux, or if the perspective cost
    blows up (flux across a dead edge of the weight alpha).
    """
    u = measure.u if isinstance(measure, Measure) else np.asarray(measure, float)
    read = edge_fluxes(system, [flux])
    return float(_action_rows(spec, system, u, read.values[0], read.off_edge[0]))


def chain_rule_residual(spec, entropy, system, times, states, fluxes):
    """Defect of the entropy chain rule along a time-gridded curve.

    Per interval: | Delta(sum phi(u) pi)  -  dt * (1/2) sum_ij
    edge_force(u_i, u_j) * w_flat_ij * theta_ij | evaluated at the interval
    average state; returns the max over intervals.
    """
    cert = _certify(spec, entropy, system, times, states, fluxes)
    gap = np.abs(np.diff(cert.energy) - np.diff(cert.times) * cert.chain)
    return float(np.fmax.reduce(gap, initial=0.0))  # NaN intervals are skipped


@dataclass(frozen=True)
class EDBReport:
    """Energy-dissipation balance certificate for a curve with fluxes.

    deficit = integral(R) + integral(D) + E(end) - E(start); nonnegative up
    to quadrature error, and ~0 exactly on solution curves.
    """

    energy_start: float
    energy_end: float
    action_integral: float
    fisher_integral: float
    deficit: float
    quadrature_order: int
    dt_max: float
    ce_residual_value: float

    def to_dict(self):
        return {
            "energy_start": self.energy_start,
            "energy_end": self.energy_end,
            "action_integral": self.action_integral,
            "fisher_integral": self.fisher_integral,
            "deficit": self.deficit,
            "quadrature_order": self.quadrature_order,
            "dt_max": self.dt_max,
            "ce_residual": self.ce_residual_value,
        }


def _edb_report(cert):
    """EDBReport of a certificate: midpoint action, trapezoid Fisher."""
    dt = np.diff(cert.times)
    # the action is summed left to right, interval by interval
    action = float(np.cumsum(dt * cert.action)[-1])
    fisher = float(np.sum(0.5 * dt * (cert.fisher[:-1] + cert.fisher[1:])))
    e0, eT = float(cert.energy[0]), float(cert.energy[-1])
    return EDBReport(energy_start=e0, energy_end=eT, action_integral=action,
                     fisher_integral=fisher, deficit=float(action + fisher + eT - e0),
                     quadrature_order=2, dt_max=float(dt.max()),
                     ce_residual_value=cert.ce.residual)


def energy_dissipation_report(
    spec, entropy, system, times, states, fluxes, ce_tol=1e-6
):
    """Assemble the energy-dissipation certificate for a gridded curve.

    Raises ContinuityEquationViolated when the curve/flux pair fails the
    continuity-equation residual check at ce_tol (pass ce_tol=None to skip).
    The action integral uses the midpoint rule (interval-average state with
    the interval flux), the Fisher integral the trapezoid rule on the nodes;
    both are second order, so the deficit of a solution curve scales as
    O(dt^2).
    """
    cert = _certify(spec, entropy, system, times, states, fluxes)
    if ce_tol is not None and cert.ce.residual > ce_tol:
        raise ContinuityEquationViolated(
            f"continuity residual {cert.ce.residual:.3g} exceeds {ce_tol:.3g}"
        )
    return _edb_report(cert)


def edge_diagnostics_csv(path, spec, entropy, system, times, states, fluxes):
    """Dump per-edge diagnostics: t, i, j, u_i, u_j, w, cost, fisher, chain."""
    times = np.asarray(times, dtype=float)
    if len(states) != times.size or len(fluxes) != times.size - 1:
        raise GridMismatch(f"{len(states)} states and {len(fluxes)} "
                           f"fluxes on {times.size} times")
    ii, jj = np.nonzero(system.edge_mask)
    ui, uj, w, chain = _midpoint_edges(entropy, system, np.stack([m.u for m in states]),
                                       edge_fluxes(system, fluxes))
    cost = flux_cost(spec, ui, uj, w)
    fish = fisher_integrands(spec, entropy, ui, uj).envelope
    t = np.repeat(0.5 * (times[:-1] + times[1:]), ii.size)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t", "i", "j", "u_i", "u_j", "w", "cost", "fisher", "chain"])
        writer.writerows(zip(
            map(repr, t), np.tile(ii, len(w)), np.tile(jj, len(w)),
            *(map(repr, a.ravel()) for a in (ui, uj, w)),
            *(map(repr, a.ravel().tolist()) for a in (cost, fish, chain)),
        ))
