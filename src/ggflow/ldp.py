"""Particle-level grounding: simulation of independent jump processes by
uniformization, empirical measures and fluxes, and the sample-path rate
functional.

n independent walkers follow the jump kernel; the empirical measure is the
fraction of walkers per state and the empirical flux counts jumps per edge.
The rate functional integrates the relative-entropy perspective of the
observed flux against its instantaneous expectation rho_t(dx) kappa(x, dy);
it vanishes exactly on expectation-matching paths and measures the
exponential unlikeliness of everything else.  `net_flux_cost` performs the
per-edge reduction of that rate over one-way splits of a prescribed net
flux, whose closed form is built from the cosh dissipation pair.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import GridMismatch, InvalidDistribution
from .graph import Flux, Measure

__all__ = [
    "ParticleEnsemble",
    "empirical_path",
    "eta_perspective",
    "gillespie",
    "net_flux_cost",
    "path_rate",
]


@dataclass(frozen=True)
class ParticleEnsemble:
    """Event log of n independent walkers on [0, horizon]."""

    n: int
    horizon: float
    seed: int
    initial_states: np.ndarray
    event_times: np.ndarray
    event_particles: np.ndarray
    event_from: np.ndarray
    event_to: np.ndarray

    @property
    def n_events(self):
        return self.event_times.size


def _initial_weights(system, rho0):
    """rho0 (default pi) as n finite nonnegative weights with a positive sum."""
    if rho0 is None:
        return system.pi
    try:
        weights = np.asarray(rho0, dtype=float)
    except (TypeError, ValueError):
        weights = np.empty(0)
    if weights.shape != (system.n,) or not np.all(np.isfinite(weights)) \
            or np.any(weights < 0) or weights.sum() <= 0:
        raise InvalidDistribution(f"rho0 must be {system.n} finite nonnegative "
                                  f"numbers with a positive sum, got {rho0!r}")
    return weights


def gillespie(system, n, T, seed=0, rho0=None):
    """Simulate n i.i.d. walkers with kernel kappa by uniformization.

    Each walker sees Poisson(Lambda T) clock ticks, Lambda the largest exit
    rate, and at each tick moves by the kernel I + L / Lambda; ticks that
    stay put are dropped, so the log is that of the jump process itself.
    Initial states are sampled from rho0 (default: pi), n nonnegative
    finite weights with a positive sum (else InvalidDistribution).  Each
    particle owns a counter-based substream Philox(key=[seed, particle]),
    so its path does not depend on n or on the other particles.
    """
    if n < 1:
        raise ValueError("need at least one particle")
    n_states = system.n
    exit_rates = system.kappa.sum(axis=1)
    lam = float(exit_rates.max())
    kernel = np.eye(n_states) + (system.kappa - np.diag(exit_rates)) / (lam or 1.0)
    # row s of the flat table is offset by s and ends at exactly s + 1 (x / x
    # is 1), so the draw s + u lands in no cell of zero mass, unless it rounds
    # up to s + 1: then it falls back to the row's last cell with mass
    cum = np.cumsum(kernel, axis=1)
    flat = (cum / cum[:, -1:] + np.arange(n_states)[:, None]).ravel()
    last_cell = np.arange(n_states) * n_states + n_states - 1 \
        - np.argmax(kernel[:, ::-1] > 0, axis=1)
    p0 = np.cumsum(_initial_weights(system, rho0))

    u0, ticks = np.empty(n), np.empty(n, dtype=np.int64)
    clocks, draws = [], []
    for i in range(n):
        rng = np.random.Generator(np.random.Philox(key=[seed, i]))
        u0[i] = rng.random()
        ticks[i] = k = rng.poisson(lam * T)
        u = rng.random(2 * k)
        u[:k].sort()
        clocks.append(u[:k])
        draws.append(u[k:])
    init = np.searchsorted(p0 / p0[-1], u0, side="right")
    times, draws = T * np.concatenate(clocks), np.concatenate(draws)
    src, dst = np.empty((2, times.size), dtype=np.int64)

    # one array step per tick index; by tick count, live walkers form a prefix
    order = np.argsort(-ticks, kind="stable")
    first = (np.cumsum(ticks) - ticks)[order]
    state = init[order]
    live = n - np.cumsum(np.bincount(ticks))
    for m, count in enumerate(live[:-1]):
        pos = first[:count] + m
        s = src[pos] = state[:count]
        cell = np.searchsorted(flat, s + draws[pos], side="right")
        dst[pos] = state[:count] = np.minimum(cell, last_cell[s]) - s * n_states

    moved = src != dst
    times = times[moved]
    order = np.argsort(times, kind="stable")
    return ParticleEnsemble(n, float(T), int(seed), init, times[order],
                            np.repeat(np.arange(n), ticks)[moved][order],
                            src[moved][order], dst[moved][order])


def empirical_path(system, ensemble, bins=100):
    """Bin the event log: measures at bin edges, one flux matrix per bin.

    An event at time t counts in the bin of the first edge with t <= edge.
    Node occupations and jump counts are separate reductions of the log, and
    the measure increment over each bin equals minus the divergence of the
    binned flux (a counting identity, exact up to the division by n).
    """
    n_states, bins = system.n, int(bins)
    edges = np.linspace(0.0, ensemble.horizon, bins + 1)
    cell = np.searchsorted(edges[1:-1], ensemble.event_times, side="left") * n_states
    size = bins * n_states
    moves = (np.bincount(cell + ensemble.event_to, minlength=size)
             - np.bincount(cell + ensemble.event_from, minlength=size))
    start = np.bincount(ensemble.initial_states, minlength=n_states)
    occupation = np.cumsum(np.vstack([start, moves.reshape(bins, n_states)]), axis=0)
    jumps = np.bincount((cell + ensemble.event_from) * n_states + ensemble.event_to,
                        minlength=size * n_states).reshape(bins, n_states, n_states)
    measures = [Measure.from_rho(system, c / ensemble.n) for c in occupation]
    fluxes = [Flux.from_matrix(j / ensemble.n) for j in jumps]
    return edges, measures, fluxes


def eta_perspective(a, b):
    """Perspective of eta(s) = s log s - s + 1:  a log(a/b) - a + b.

    Lower-semicontinuous extension: the value at a = 0 is b (a flux-free
    cell still pays its expected intensity, b * eta(0) = b), and a > 0 with
    b = 0 costs +inf.
    """
    if a < 0 or b < 0:
        raise ValueError("eta perspective needs nonnegative arguments")
    if a == 0.0:
        return float(b)
    if b == 0.0:
        return math.inf
    return float(a * math.log(a / b) - a + b)


def path_rate(system, times, measures, fluxes):
    """Sample-path rate: sum over bins and edges of the eta-perspective of
    the observed flux against its expected intensity rho_i kappa_ij dt.

    Zero exactly when every binned flux matches its expectation; grows with
    the squared relative fluctuation, so empirical paths of n walkers score
    O(#bins * #edges / n).  Conventions are `eta_perspective`'s, so flux
    on a pair with kappa_ij = 0 costs +inf.
    """
    times = np.asarray(times, dtype=float)
    if len(measures) != times.size or len(fluxes) != times.size - 1:
        raise GridMismatch("need measures on bin edges and one flux per bin")
    n_states = system.n
    src, dst = np.nonzero(system.kappa)
    rho = np.reshape([m.rho for m in measures[:-1]], (-1, n_states))
    expected = rho[:, src] * system.kappa[src, dst] * np.diff(times)[:, None]
    j_all = np.reshape([f.j for f in fluxes], (-1, n_states, n_states))
    observed = j_all[:, src, dst]
    if np.any(j_all < 0) or np.any(expected < 0):
        raise ValueError("eta perspective needs nonnegative arguments")
    flowing = observed > 0
    if np.any(j_all.max(axis=0, initial=0.0)[system.kappa == 0] > 0) \
            or np.any(expected[flowing] == 0.0):
        return math.inf
    a, b = observed[flowing], expected[flowing]
    return float(expected[~flowing].sum() + np.sum(a * np.log(a / b) - a + b))


def _golden_minimize(f, lo, hi, tol=1e-10):
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = f(c), f(d)
    while b - a > tol:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = f(d)
    x = 0.5 * (a + b)
    return f(x)


def net_flux_cost(spec, s, c, d):
    """Minimal two-clock rate cost of a prescribed net flux s between rates
    c and d:  inf over a - b = 2s, a, b >= 0 of eta_persp(a, c) + eta_persp(b, d).

    Returns (closed_form, brute_force).  The closed form is expressed with
    the cosh dissipation pair (pass the cosh spec); the brute force is an
    independent golden-section minimization of the one-dimensional convex
    objective.
    """
    if c <= 0 or d <= 0:
        raise ValueError("rates c, d must be positive")
    s = float(s)
    root = math.sqrt(c * d)
    closed = 0.5 * root * (
        float(spec.psi(2.0 * s / root)) + float(spec.psi_star(-math.log(d / c)))
    ) + s * math.log(d / c)

    def objective(a):
        return eta_perspective(a, c) + eta_perspective(a - 2.0 * s, d)

    lo = max(0.0, 2.0 * s)
    span = max(1.0, 4.0 * abs(s), 4.0 * root, 4.0 * c, 4.0 * d)
    hi = lo + span
    for _ in range(200):
        if objective(hi) > objective(0.5 * (lo + hi)):
            break
        hi = lo + 2.0 * (hi - lo)
    brute = _golden_minimize(objective, lo, hi)
    return closed, brute
