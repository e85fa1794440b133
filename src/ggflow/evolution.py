"""Forward evolution of densities: du_i/dt = sum_j F(u_i, u_j) kappa_ij.

The field F is the continuous extension of the flux response generated by a
dissipation structure and an entropy (see potentials.continuous_field).
Because F is skew-symmetric and theta is symmetric, the total mass
sum_i u_i pi_i is a linear invariant of the flow, conserved to rounding by
any Runge-Kutta step.  Componentwise bounds propagate (comparison
principle), and the L1(pi) distance of two solutions grows at most like
exp(2 * ||kappa||_inf * ell * t) for the one-sided Lipschitz constant ell
of the field.
"""

from __future__ import annotations

import numpy as np

from .errors import NonFiniteField, StepSizeUnderflow
from .graph import CurveWithFlux, Flux, Measure
from .functionals import _energy_rows, fisher_information
from .potentials import continuous_field


def _pairwise(field, u):
    return np.asarray(field(u[:, None], u[None, :]), dtype=float)


def _make_rhs(system, field):
    kappa = system.kappa

    def rhs(u):
        f = _pairwise(field, u)
        if not np.all(np.isfinite(f)):
            raise NonFiniteField("field produced non-finite values")
        return (f * kappa).sum(axis=1)

    return rhs


def _rk4_step(rhs, u, h):
    k1 = rhs(u)
    k2 = rhs(u + 0.5 * h * k1)
    k3 = rhs(u + 0.5 * h * k2)
    k4 = rhs(u + h * k3)
    return u + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _advance_guarded(rhs, u, h, atol, t, depth=0):
    """One RK4 step, recursively halved if positivity would be violated."""
    if depth > 40:
        raise StepSizeUnderflow(t, u, h)
    unew = _rk4_step(rhs, u, h)
    if not np.all(np.isfinite(unew)):
        raise NonFiniteField(f"non-finite state at t={t:.6g}")
    if unew.min() < -atol:
        mid = _advance_guarded(rhs, u, 0.5 * h, atol, t, depth + 1)
        return _advance_guarded(rhs, mid, 0.5 * h, atol, t + 0.5 * h, depth + 1)
    return unew


def _interval_fluxes(system, field, times, dens):
    """Fluxes at the interval-average state: 2 j = -F(u_i, u_j) theta."""
    fluxes = []
    for m in range(len(times) - 1):
        ubar = 0.5 * (dens[m] + dens[m + 1])
        f = _pairwise(field, ubar)
        fluxes.append(Flux.from_matrix(-0.5 * f * system.theta))
    return fluxes


def sampled_one_sided_lipschitz(field, lo, hi, n_samples=1000, seed=0):
    """Sampled one-sided Lipschitz estimate of u -> F(u, v) on [lo, hi]^2.

    Returns max(0, sup (F(u', v) - F(u, v)) / (u' - u)) over samples with
    u < u'; zero for fields nonincreasing in their first argument.
    """
    rng = np.random.default_rng(seed)
    span = max(hi - lo, 1e-12)
    u = rng.uniform(lo, hi, size=n_samples)
    du = rng.uniform(1e-6 * span, span, size=n_samples)
    up = np.minimum(u + du, hi)
    v = rng.uniform(lo, hi, size=n_samples)
    good = up > u
    quot = (np.asarray(field(up[good], v[good])) - np.asarray(field(u[good], v[good]))) / (
        up[good] - u[good]
    )
    return float(max(0.0, quot.max(initial=0.0)))


def solve_forward(
    system,
    spec,
    entropy,
    u0,
    T,
    rtol=1e-6,
    atol=1e-12,
    dt=None,
    field=None,
    lipschitz_warn=50.0,
    max_steps=2_000_000,
):
    """Integrate the evolution from density u0 over [0, T].

    dt=None runs adaptive RK4 (step doubling, local error atol + rtol*|u|,
    reject-and-halve on negativity); a concrete dt forces that uniform
    output grid (positivity still guarded by internal substepping).  Fluxes
    are recorded per output interval at the interval-average state, so a
    solution curve passes the continuity-equation and energy-dissipation
    checks to second order in the grid spacing.
    """
    u0 = np.asarray(u0, dtype=float)
    if np.any(u0 < 0):
        raise ValueError("initial density must be nonnegative")
    if field is None:
        field = continuous_field(spec, entropy)
    rhs = _make_rhs(system, field)

    ell = sampled_one_sided_lipschitz(field, float(u0.min()), float(u0.max()) + 1e-9)
    meta = {"ell_hat": ell, "rtol": rtol, "atol": atol}
    if ell > lipschitz_warn:
        meta["lipschitz_warning"] = (
            f"sampled one-sided Lipschitz estimate {ell:.3g} exceeds "
            f"{lipschitz_warn}; the contraction bound may be useless"
        )

    times = [0.0]
    dens = [u0.copy()]
    rejections = 0

    if dt is not None:
        n_steps = max(1, int(round(T / dt)))
        grid = np.linspace(0.0, T, n_steps + 1)
        u = u0.copy()
        for m in range(n_steps):
            u = _advance_guarded(rhs, u, grid[m + 1] - grid[m], atol, grid[m])
            times.append(grid[m + 1])
            dens.append(u.copy())
    else:
        t, u = 0.0, u0.copy()
        h = T / 64.0
        steps = 0
        while t < T:
            steps += 1
            if steps > max_steps:
                raise StepSizeUnderflow(t, u, h)
            h = min(h, T - t)
            big = _rk4_step(rhs, u, h)
            half = _rk4_step(rhs, u, 0.5 * h)
            two = _rk4_step(rhs, half, 0.5 * h)
            if not np.all(np.isfinite(two)) or not np.all(np.isfinite(big)):
                h *= 0.5
                rejections += 1
                if h < 1e-13 * T:
                    raise StepSizeUnderflow(t, u, h)
                continue
            scale = atol + rtol * np.maximum(np.abs(u), np.abs(two))
            err = float(np.max(np.abs(big - two) / scale)) / 15.0
            if err <= 1.0 and two.min() >= -atol:
                t += h
                u = two
                times.append(t)
                dens.append(u.copy())
                h *= float(np.clip(0.9 * (err + 1e-16) ** -0.2, 0.2, 5.0))
            elif two.min() < -atol:
                # positivity rejection: the error estimate says nothing
                # useful here, so halve outright
                rejections += 1
                h *= 0.5
            else:
                rejections += 1
                h *= float(np.clip(0.9 * err ** -0.2, 0.2, 0.9))
            if h < 1e-13 * T:
                raise StepSizeUnderflow(t, u, h)

    times = np.asarray(times)
    clipped = [np.where(d < 0.0, 0.0, d) for d in dens]
    states = tuple(Measure.from_u(system, d) for d in clipped)
    fluxes = tuple(_interval_fluxes(system, field, times, clipped))
    masses = np.array([s.mass for s in states])
    drift = float(np.max(np.abs(masses - masses[0]))) / max(masses[0], 1e-300)
    meta.update({"steps": len(times) - 1, "rejections": rejections,
                 "mass_drift_rel": drift})
    if drift > 1e-8:
        raise NonFiniteField(f"mass drift {drift:.3g} exceeds 1e-8; field not skew?")
    return CurveWithFlux(times=times, states=states, fluxes=fluxes, meta=meta)


def l1_contraction_check(
    system, spec, entropy, u0, v0, T, dt=1e-2, field=None, seed=0
):
    """Ratio of the observed L1(pi) divergence to its Gronwall bound.

    Solves from u0 and v0 on a common grid, estimates the one-sided
    Lipschitz constant of the field by sampling on the joint range box, and
    returns max_t ||u_t - v_t||_{L1(pi)} / (exp(2 ||kappa|| ell t) ||u0 - v0||).
    A value <= 1 + tol certifies the contraction estimate; 0 when u0 = v0.
    """
    u0 = np.asarray(u0, dtype=float)
    v0 = np.asarray(v0, dtype=float)
    if field is None:
        field = continuous_field(spec, entropy)
    cu = solve_forward(system, spec, entropy, u0, T, dt=dt, field=field)
    cv = solve_forward(system, spec, entropy, v0, T, dt=dt, field=field)
    U, V = cu.densities, cv.densities
    lo = float(min(U.min(), V.min()))
    hi = float(max(U.max(), V.max()))
    ell = sampled_one_sided_lipschitz(field, lo, hi, seed=seed)
    d0 = float(np.sum(np.abs(u0 - v0) * system.pi))
    if d0 == 0.0:
        return {"ratio": 0.0, "ell_hat": ell, "initial_distance": 0.0}
    dist = np.sum(np.abs(U - V) * system.pi, axis=1)
    bound = np.exp(2.0 * system.kappa_row_max * ell * cu.times) * d0
    ratio = float(np.max(dist / bound, initial=0.0))
    return {"ratio": ratio, "ell_hat": ell, "initial_distance": d0}


def stationarity_report(system, spec, entropy, curve):
    """Diagnostics of the long-time behaviour of a trajectory.

    Returns the final Fisher information, the total-variation distance to
    the mass-matched multiple of pi, and whether the energy was
    nonincreasing along the grid (up to rounding).
    """
    final = curve.states[-1]
    c = final.mass / system.mass
    tv = float(np.abs(final.rho - c * system.pi).sum())
    energies = _energy_rows(entropy, system, curve.densities)
    tol = 1e-10 * (1.0 + abs(energies[0]))
    monotone = bool(np.all(np.diff(energies) <= tol))
    return {
        "fisher_final": fisher_information(spec, entropy, system, final),
        "tv_distance_to_c_pi": tv,
        "energy_monotone": monotone,
        "c": c,
        "energy_start": float(energies[0]),
        "energy_end": float(energies[-1]),
    }
