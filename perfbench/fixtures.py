"""Seeded fixture generator for the benchmark.

Every input the benchmark feeds to ``ggflow`` is drawn here from one
``numpy.random.Generator`` seeded by the workload seed, so the same seed
always gives the same JSON configs.  The program only ever sees those
configs: it never receives the seed itself, apart from the particle seed
of an ``ldp`` op, which is itself drawn from the generator.

Systems are detailed-balance jump processes on rings and tori: invariant
masses pi ~ U(0.5, 1.5) normalized to total mass 1, and a symmetric edge
measure theta_e ~ U(0.5, 1.5) / n on every edge, so kappa_ij = theta_ij / pi_i.
The edge draws are rescaled to mean exactly 1/n, as pi is to total mass 1:
the total jump rate sum_ij theta_ij then depends on the graph only, so the
event count of a particle op, and with it its run time, does not swing
with the seed.
"""

from __future__ import annotations

import numpy as np


def _system(n, edges, rng):
    pi = rng.uniform(0.5, 1.5, size=n)
    pi /= pi.sum()
    theta = rng.uniform(0.5, 1.5, size=len(edges))
    theta /= n * theta.mean()
    kappa = np.zeros((n, n))
    for (i, j), th in zip(edges, theta):
        kappa[i, j] = th / pi[i]
        kappa[j, i] = th / pi[j]
    return {"pi": pi.tolist(), "kappa": kappa.tolist()}


def ring(n, rng):
    """Ring of n states (n >= 3), one edge between neighbours."""
    return _system(n, [(i, (i + 1) % n) for i in range(n)], rng)


def torus(rows, cols, rng):
    """rows x cols periodic grid (both >= 3), edges to the right and below."""
    idx = np.arange(rows * cols).reshape(rows, cols)
    edges = []
    for r in range(rows):
        for c in range(cols):
            edges.append((idx[r, c], idx[r, (c + 1) % cols]))
            edges.append((idx[r, c], idx[(r + 1) % rows, c]))
    return _system(rows * cols, edges, rng)


def density(n, rng):
    """Relative density u = rho / pi with entries in U(0.5, 1.5)."""
    return rng.uniform(0.5, 1.5, size=n)


def probability(system, rng):
    """Mass vector rho = u * pi, normalized to total mass 1."""
    rho = density(len(system["pi"]), rng) * np.asarray(system["pi"])
    rho /= rho.sum()
    return rho


def particle_seed(rng):
    return int(rng.integers(0, 2**31 - 1))
