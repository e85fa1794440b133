"""Finite graph systems with detailed balance, graph calculus, and
continuity-equation residuals.

A system is a finite state space {0,...,n-1} carrying a strictly positive
invariant measure ``pi`` and a bounded jump kernel ``kappa`` satisfying
detailed balance, so that the edge measure ``theta[i,j] = pi[i]*kappa[i,j]``
is symmetric.  Everything downstream (dissipation functionals, transport
costs, evolutions) is built on the gradient/divergence pair defined here.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import (
    DetailedBalanceViolation,
    GridMismatch,
    NegativeRate,
    NonPositivePi,
)


def _frozen(a):
    a = np.asarray(a, dtype=float)
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class GraphSystem:
    """Finite state space with invariant measure, rates, and edge measure.

    Attributes
    ----------
    pi : (n,) strictly positive masses.
    kappa : (n, n) nonnegative rate matrix, zero diagonal.
    theta : (n, n) symmetric edge measure, theta[i,j] = pi[i]*kappa[i,j].
    kappa_row_max : max_i sum_j kappa[i,j] (the uniform kernel bound).
    """

    pi: np.ndarray
    kappa: np.ndarray
    theta: np.ndarray
    kappa_row_max: float

    @property
    def n(self):
        return self.pi.shape[0]

    @property
    def mass(self):
        return float(self.pi.sum())

    @property
    def edge_mask(self):
        return self.theta > 0.0

    def components(self):
        """Connected components of the theta > 0 graph, as a label array."""
        n = self.n
        labels = -np.ones(n, dtype=int)
        adj = self.edge_mask | self.edge_mask.T
        comp = 0
        for start in range(n):
            if labels[start] >= 0:
                continue
            stack = [start]
            labels[start] = comp
            while stack:
                i = stack.pop()
                for j in np.nonzero(adj[i])[0]:
                    if labels[j] < 0:
                        labels[j] = comp
                        stack.append(j)
            comp += 1
        return labels

    def is_connected(self):
        return self.components().max() == 0

    def to_dict(self):
        return {"pi": self.pi.tolist(), "kappa": self.kappa.tolist()}

    def to_json(self):
        return json.dumps(self.to_dict(), sort_keys=True)

    @staticmethod
    def from_dict(d, tol_db=1e-10):
        return build_system(d["pi"], d["kappa"], tol_db=tol_db)

    @staticmethod
    def from_json(s, tol_db=1e-10):
        return GraphSystem.from_dict(json.loads(s), tol_db=tol_db)


def build_system(pi, kappa, tol_db=1e-10, eps_abs=1e-15):
    """Validate (pi, kappa) and assemble a GraphSystem.

    Detailed balance is enforced edgewise:
    |theta_ij - theta_ji| <= tol_db * (theta_ij + theta_ji + eps_abs).
    Self-loops (diagonal rates) are zeroed: the graph gradient vanishes on
    them, so they never move mass.
    """
    pi = np.asarray(pi, dtype=float).copy()
    kappa = np.asarray(kappa, dtype=float).copy()
    if pi.ndim != 1 or kappa.shape != (pi.size, pi.size):
        raise GridMismatch(
            f"pi has length {pi.size} but kappa has shape {kappa.shape}"
        )
    if np.any(pi <= 0) or not np.all(np.isfinite(pi)):
        raise NonPositivePi(f"pi must be strictly positive, got {pi}")
    if np.any(kappa < 0) or not np.all(np.isfinite(kappa)):
        bad = np.unravel_index(np.argmin(kappa), kappa.shape)
        raise NegativeRate(f"kappa[{bad[0]},{bad[1]}] = {kappa[bad]} < 0")
    np.fill_diagonal(kappa, 0.0)

    theta = pi[:, None] * kappa
    asym = np.abs(theta - theta.T)
    bound = tol_db * (theta + theta.T + eps_abs)
    if np.any(asym > bound):
        viol = asym - bound
        i, j = np.unravel_index(np.argmax(viol), viol.shape)
        denom = theta[i, j] + theta[j, i]
        rel = asym[i, j] / denom if denom > 0 else np.inf
        raise DetailedBalanceViolation(int(i), int(j), theta[i, j], theta[j, i], rel)
    # exact symmetrization so downstream identities hold to machine precision
    theta = 0.5 * (theta + theta.T)

    return GraphSystem(
        pi=_frozen(pi),
        kappa=_frozen(kappa),
        theta=_frozen(theta),
        kappa_row_max=float(kappa.sum(axis=1).max(initial=0.0)),
    )


@dataclass(frozen=True)
class Measure:
    """Nonnegative vertex measure rho with density u = rho/pi."""

    rho: np.ndarray
    u: np.ndarray

    @property
    def mass(self):
        return float(self.rho.sum())

    @staticmethod
    def from_rho(system, rho):
        rho = np.asarray(rho, dtype=float)
        if rho.shape != system.pi.shape:
            raise GridMismatch("rho has wrong length")
        if np.any(rho < 0):
            raise ValueError(f"negative mass in measure: {rho}")
        return Measure(rho=_frozen(rho), u=_frozen(rho / system.pi))

    @staticmethod
    def from_u(system, u):
        u = np.asarray(u, dtype=float)
        if u.shape != system.pi.shape:
            raise GridMismatch("u has wrong length")
        if np.any(u < 0):
            raise ValueError(f"negative density in measure: {u}")
        return Measure(rho=_frozen(u * system.pi), u=_frozen(u))


@dataclass(frozen=True)
class Flux:
    """Signed edge measure j (n x n, zero diagonal)."""

    j: np.ndarray

    @staticmethod
    def from_matrix(j):
        j = np.asarray(j, dtype=float).copy()
        np.fill_diagonal(j, 0.0)
        return Flux(j=_frozen(j))

    @property
    def skew(self):
        """Skew-symmetrization (j - j^T)/2; divergence is unchanged by it."""
        return 0.5 * (self.j - self.j.T)

    def w(self, system):
        """Scaled density w with 2*j = w*theta on edges (0 off the edge set)."""
        out = np.zeros_like(self.j)
        mask = system.edge_mask
        out[mask] = 2.0 * self.j[mask] / system.theta[mask]
        return out


def graph_grad(phi_vec):
    """Graph gradient: out[i,j] = phi[j] - phi[i] (skew-symmetric)."""
    phi_vec = np.asarray(phi_vec, dtype=float)
    return phi_vec[None, :] - phi_vec[:, None]


def graph_div(flux):
    """Graph divergence: out[i] = sum_j (j[i,j] - j[j,i]).

    Adjoint to the gradient:  sum_ij grad(phi)_ij * j_ij = -sum_i phi_i div(j)_i.
    """
    j = flux.j if isinstance(flux, Flux) else np.asarray(flux, dtype=float)
    return j.sum(axis=1) - j.sum(axis=0)


class CEReport(NamedTuple):
    residual: float
    tv_bound_ok: bool
    mass_drift: float


class EdgeFluxes(NamedTuple):
    """A sequence of fluxes read once, one row per interval."""

    values: np.ndarray  # (T, K) j on the edges np.nonzero(system.edge_mask)
    divergence: np.ndarray  # (T, n) row sums minus column sums of every entry
    off_edge: np.ndarray  # (T,) whether j is nonzero off the edge set
    abs_sum: np.ndarray  # (T,) sum of |j| over every entry


def edge_fluxes(system, fluxes):
    """Read a sequence of dense n x n fluxes, the one place that does, into
    rows.  Off-edge entries (the diagonal aside) count in the divergence and
    in abs_sum, so the continuity residual and its TV bound still see them,
    and raise the off_edge flag."""
    ii, jj = np.nonzero(system.edge_mask)
    values, div, nonzero, abs_sum = [], [], [], []
    for f in fluxes:  # each matrix is read while it sits in cache
        j = f.j if isinstance(f, Flux) else np.asarray(f, dtype=float)
        values.append(j[ii, jj])
        div.append(graph_div(j))
        nonzero.append(np.count_nonzero(j) - np.count_nonzero(j.diagonal()))
        abs_sum.append(np.abs(j).sum())
    values = np.reshape(values, (len(div), ii.size))
    return EdgeFluxes(values, np.reshape(div, (len(div), system.n)),
                      np.array(nonzero, dtype=int) > np.count_nonzero(values, axis=1),
                      np.array(abs_sum, dtype=float))


@dataclass(frozen=True)
class CurveWithFlux:
    """Time grid of measures with one piecewise-constant flux per interval."""

    times: np.ndarray
    states: tuple
    fluxes: tuple
    meta: dict = field(default_factory=dict)

    @property
    def densities(self):
        return np.stack([m.u for m in self.states])

    @property
    def masses(self):
        return np.array([m.mass for m in self.states])


def _ce_report(system, times, states, flux):
    """ce_residual of the states on the float grid times, with read fluxes."""
    if len(states) != times.size or len(flux.values) != times.size - 1:
        raise GridMismatch(f"{len(states)} states and {len(flux.values)} "
                           f"fluxes on {times.size} times")
    rho = np.stack([m.rho for m in states])
    drho = np.diff(rho, axis=0)
    div_int = np.diff(times)[:, None] * flux.divergence
    # e_m = rho_m - rho_0 + cumulative divergence integral; the residual over
    # the pair (t_a, t_b) is max_i |e_b - e_a|, so the max over all pairs is
    # the componentwise spread of e.
    e = rho - rho[0]
    e[1:] += np.cumsum(div_int, axis=0)
    residual = float((e.max(axis=0) - e.min(axis=0)).max())
    # adjacent-interval TV bound implies the bound on every subinterval
    res_m = np.abs(drho + div_int).max(axis=1, initial=0.0)
    tv_j = np.diff(times) * flux.abs_sum
    tv_ok = not np.any(np.abs(drho).sum(axis=1) > 2.0 * tv_j + res_m * system.n + 1e-13)
    mass_drift = float(np.abs(rho.sum(axis=1) - rho[0].sum()).max())
    return CEReport(residual=residual, tv_bound_ok=tv_ok, mass_drift=mass_drift)


def ce_residual(system, times, states, fluxes):
    """Continuity-equation residual of a time-gridded (measure, flux) pair.

    Tests the integrated equation against the coordinate-indicator basis
    (which spans all test functions on a finite space): on each interval,
    residual_i = |(rho_t2 - rho_t1)_i + integral of div(j)_i dt|, with one
    piecewise-constant flux per interval.  Also checks the total-variation bound
    ||rho_t2 - rho_t1||_TV <= 2 * integral |j|(E) dt up to the residual.
    """
    return _ce_report(system, np.asarray(times, dtype=float), states,
                      edge_fluxes(system, fluxes))
