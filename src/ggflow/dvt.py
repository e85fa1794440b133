"""Dynamical transport costs by convex minimization over discretized curves.

W(tau, rho0, rho1) is the minimal time-integrated dissipation over curves
solving the discrete continuity equation between the endpoints.  The
discretization uses piecewise-linear densities and piecewise-constant edge
fluxes; the action of such a curve is integrated *exactly* in time
(3-point Gauss per interval), so every discrete value is the true action of
an admissible curve: values are upper bounds on the continuum cost, decrease
under nested grid refinement, and converge at O(1/M^2).  One objective
evaluation stacks the three Gauss nodes, so it makes one psi and one psi_prime
call, which for a numeric Legendre dual share one inversion (`DissipationSpec`).

The smoothed weight alpha + eps removes the infinite cells of the
perspective cost; the solver runs a decreasing eps schedule with warm
starts and reports a Richardson extrapolation of the value at eps -> 0.
Minimization is L-BFGS on the projected gradient with a monotone Armijo
line search (Liu & Nocedal, Math. Program. 45, 1989), on NumPy alone; the
affine continuity constraints reduce, after eliminating the interior states,
to a single divergence constraint on the time-aggregated flux, whose
projection uses a precomputed pseudo-inverse of a theta^2-weighted graph
Laplacian.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    Disconnected,
    Infeasible,
    SingularLaplacian,
    SolverStalled,
    UnsupportedParameter,
)
from .graph import CurveWithFlux, Flux, Measure
from .functionals import action_rate, energy

_FLOOR = 1e-12
_GAUSS_NODES = np.array([0.5 - np.sqrt(15.0) / 10.0, 0.5, 0.5 + np.sqrt(15.0) / 10.0])
_GAUSS_WEIGHTS = np.array([5.0 / 18.0, 8.0 / 18.0, 5.0 / 18.0])
_LBFGS_MEMORY = 10  # curvature pairs kept by the transport solver
_ARMIJO = 1e-4  # its sufficient-decrease constant
_F_NOISE = 1e-14  # relative rounding level of the objective
_STEPS = 0.5 ** np.arange(67)  # line-search steps 1, 1/2, ..., ~1e-20, then a stall


# ---------------------------------------------------------------------------
# problem/solution records
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DVTProblem:
    """A transport problem between two equal-mass measures in time tau."""

    system: object
    spec: object
    tau: float
    rho0: Measure
    rho1: Measure
    M: int = 8
    epsilon_schedule: tuple = (1e-2, 1e-3, 1e-4)
    kkt_tol: float = 1e-8
    max_iter: int = 20000

    def __post_init__(self):
        if self.M < 1:
            raise ValueError("M >= 1 required")
        if abs(self.rho0.mass - self.rho1.mass) > 1e-12 * max(1.0, self.rho0.mass):
            raise Infeasible(
                f"endpoint masses differ: {self.rho0.mass} vs {self.rho1.mass}"
            )


@dataclass(frozen=True)
class DVTSolution:
    value: float
    values_by_epsilon: tuple
    epsilon_schedule: tuple
    curve: CurveWithFlux
    kkt_residual: float
    converged: bool
    status: str
    iterations: int


# ---------------------------------------------------------------------------
# discrete transport machinery
# ---------------------------------------------------------------------------

class _Transport:
    """Shared solver for pinned-endpoint and free-endpoint problems.

    Variables are the per-interval edge flux densities W (M x K, ordered
    edges with theta > 0).  Interior states are eliminated through the
    continuity recursion U[m+1] = U[m] - (dt/pi) * div(W[m]); in the pinned
    case the endpoint condition becomes the affine constraint
    B @ sum_m W[m] = pi (u0 - u1)/dt on the aggregated flux.
    """

    def __init__(self, system, spec, tau, u0, M, u1=None, entropy=None,
                 time_dilation=1.0, neg_penalty=1e8):
        self.system = system
        self.spec = spec
        self.tau = float(tau)
        self.M = int(M)
        self.dt = self.tau / self.M
        self.u0 = np.asarray(u0, dtype=float)
        self.u1 = None if u1 is None else np.asarray(u1, dtype=float)
        self.entropy = entropy
        self.dilation = float(time_dilation)
        self.neg_penalty = float(neg_penalty)

        mask = system.edge_mask
        self.ei, self.ej = np.nonzero(mask)
        self.K = self.ei.size
        self.th = system.theta[self.ei, self.ej]
        n = system.n
        B = np.zeros((n, self.K))
        cols = np.arange(self.K)
        np.add.at(B, (self.ei, cols), 0.5 * self.th)
        np.add.at(B, (self.ej, cols), -0.5 * self.th)
        self.B = B
        # flat (Gauss node, interval, state) index of the i-ends, then j-ends
        base = n * np.arange(len(_GAUSS_NODES) * self.M)[:, None]
        self._scatter = np.concatenate([(base + self.ei).ravel(), (base + self.ej).ravel()])
        self.BBt_pinv = np.linalg.pinv(B @ B.T, rcond=1e-12)
        self.pinned = self.u1 is not None
        if self.pinned:
            self.rhs = self.system.pi * (self.u0 - self.u1) / self.dt
            # feasibility needs mass balance on every connected component
            labels = system.components()
            for c in range(labels.max() + 1):
                sel = labels == c
                gap = abs(float(self.rhs[sel].sum()))
                if gap > 1e-9 * max(1.0, float(np.abs(self.rhs).sum())):
                    raise Infeasible(
                        f"mass must balance on each connected component; "
                        f"component {c} (states {np.nonzero(sel)[0].tolist()}) "
                        f"is off by {gap * self.dt:.3g}"
                    )

    # -- states from fluxes ------------------------------------------------

    def states(self, W):
        """Densities U (M+1, n) from the continuity recursion."""
        cum = np.vstack([np.zeros(self.K), np.cumsum(W, axis=0)])
        return self.u0[None, :] - (self.dt / self.system.pi)[None, :] * (
            cum @ self.B.T
        )

    # -- objective ----------------------------------------------------------

    def value_and_grad(self, W, eps):
        spec = self.spec
        U = self.states(W)
        s = _GAUSS_NODES[:, None, None]  # arrays are (Gauss node, interval, edge)
        Ug = (1.0 - s) * U[None, :-1] + s * U[None, 1:]
        ui = np.maximum(Ug[..., self.ei], 0.0)
        uj = np.maximum(Ug[..., self.ej], 0.0)
        aeps = self.dilation * (np.asarray(spec.alpha(ui, uj)) + eps)
        what = W[None] / aeps
        psi_v = np.asarray(spec.psi(what))
        psi_p = np.asarray(spec.psi_prime(what))
        coeff = _GAUSS_WEIGHTS[:, None, None] * self.dt * 0.5 * self.th
        total = float((coeff * psi_v * aeps).sum())
        gW = (coeff * psi_p).sum(axis=0)
        hval = (psi_v - what * psi_p) * self.dilation
        contrib_i = coeff * hval * np.asarray(spec.alpha_grad_u(ui, uj)) * (ui > 0.0)
        contrib_j = coeff * hval * np.asarray(spec.alpha_grad_u(uj, ui)) * (uj > 0.0)
        contrib = np.concatenate([contrib_i.ravel(), contrib_j.ravel()])
        gUg = np.bincount(self._scatter, contrib, Ug.size).reshape(Ug.shape)
        gU = np.zeros((self.M + 1, self.system.n))
        for g, node in enumerate(_GAUSS_NODES):
            gU[:-1] += (1.0 - node) * gUg[g]
            gU[1:] += node * gUg[g]

        # negativity penalty keeps the eliminated states in the quadrant
        neg = np.minimum(U[1:], 0.0)
        total += self.neg_penalty * float((self.system.pi * neg ** 2).sum()) * self.dt
        gU[1:] += 2.0 * self.neg_penalty * self.dt * self.system.pi * neg

        if not self.pinned:
            uT = np.maximum(U[-1], _FLOOR)
            total += float((self.entropy.phi(uT) * self.system.pi).sum())
            gU[-1] += np.asarray(self.entropy.phi_prime(uT)) * self.system.pi

        # adjoint of the elimination: dU[m]/dW[l] = -(dt/pi) B for l < m
        R = np.cumsum(gU[1:][::-1], axis=0)[::-1]  # R[l] = sum_{m > l} gU[m]
        gW -= self.dt * ((R / self.system.pi) @ self.B)
        return total, gW

    def value(self, W, eps):
        return self.value_and_grad(W, eps)[0]

    # -- constraint projection ----------------------------------------------

    def project(self, W, linear=False):
        """Orthogonal projection onto B @ sum_m W[m] = rhs, or onto its null space
        (`linear`, mapping g to P(g)): W - B^T (B B^T)^+ r / M in every interval."""
        if not self.pinned:
            return W
        r = self.B @ W.sum(axis=0) - (0.0 if linear else self.rhs)
        return W - (self.B.T @ (self.BBt_pinv @ r))[None, :] / self.M

    def initial_point(self):
        if self.pinned:
            return np.tile(self.B.T @ (self.BBt_pinv @ self.rhs) / self.M, (self.M, 1))
        return np.zeros((self.M, self.K))

    # -- L-BFGS ---------------------------------------------------------------

    def minimize(self, eps, W0=None, kkt_tol=1e-8, max_iter=20000):
        """L-BFGS on P(g), Armijo backtracking from step 1, one value_and_grad per trial.

        Steps stay in the constraint's null space and f never rises beyond rounding,
        so the last iterate is the best; `self.backtracks` counts rejected trials."""
        x = self.initial_point() if W0 is None else self.project(W0)
        f, g = self.value_and_grad(x, eps)
        g = self.project(g, linear=True)
        pairs = []  # curvature pairs (s, y, 1/s.y), oldest first
        self.backtracks = 0
        for it in range(max_iter + 1):
            kkt = float(np.abs(g).max())
            if kkt <= kkt_tol or it == max_iter:
                return x, f, kkt, it, kkt <= kkt_tol
            d = _two_loop(g, pairs)
            slope = float((g * d).sum())
            if not slope < 0.0:
                d, slope = -g, -float((g * g).sum())
            for t in _STEPS:
                x_new = self.project(x + t * d)  # no rounding drift off the affine set
                f_new, g_new = self.value_and_grad(x_new, eps)
                g_new = self.project(g_new, linear=True)
                # Armijo, or its derivative form once f changes by rounding only
                if f_new <= f + _ARMIJO * t * slope or (
                    f_new <= f + _F_NOISE * abs(f)
                    and float((g_new * d).sum()) <= (2.0 * _ARMIJO - 1.0) * slope
                ):
                    break
                self.backtracks += 1
            else:
                return x, f, kkt, it, False
            s, y = x_new - x, g_new - g
            sy = float((s * y).sum())
            if sy > 0.0:
                pairs.append((s, y, 1.0 / sy))
                del pairs[:-_LBFGS_MEMORY]
            x, f, g = x_new, f_new, g_new


def _two_loop(g, pairs):
    """-H g for the L-BFGS inverse Hessian H of the curvature pairs (s, y, 1/s.y)."""
    q, alphas = g.copy(), []
    for s, y, rho in reversed(pairs):
        alphas.append(rho * float((s * q).sum()))
        q -= alphas[-1] * y
    if pairs:
        q /= pairs[-1][2] * float((pairs[-1][1] ** 2).sum())
    for (s, y, rho), a in zip(pairs, reversed(alphas)):
        q += (a - rho * float((y * q).sum())) * s
    return -q


def _solve_schedule(tr, schedule, kkt_tol, max_iter):
    values = []
    W = None
    iters = 0
    ok_all = True
    for eps in schedule:
        W, val, kkt, it, ok = tr.minimize(
            eps, W0=W, kkt_tol=kkt_tol, max_iter=max_iter
        )
        values.append(val)
        iters += it
        ok_all = ok_all and ok
    if len(values) >= 2:
        e1, e2 = schedule[-2], schedule[-1]
        v1, v2 = values[-2], values[-1]
        value = v2 + (v2 - v1) * e2 / (e1 - e2)
    else:
        value = values[-1]
    return W, value, values, kkt, iters, ok_all


def _curve_from_solution(system, tau, W, tr):
    U = np.maximum(tr.states(W), 0.0)
    times = np.linspace(0.0, tau, tr.M + 1)
    states = tuple(Measure.from_u(system, u) for u in U)
    fluxes = []
    for m in range(tr.M):
        j = np.zeros((system.n, system.n))
        j[tr.ei, tr.ej] = 0.5 * W[m] * tr.th
        fluxes.append(Flux.from_matrix(j))
    return CurveWithFlux(times=times, states=states, fluxes=tuple(fluxes))


def dvt_cost(problem, time_dilation=1.0, strict=False):
    """Solve the transport problem and return a DVTSolution.

    `time_dilation` s replaces the perspective cost by its s-rescaled
    version (alpha -> s * alpha inside the perspective); the cost on [0, 1]
    with dilation tau reproduces the cost on [0, tau], which is the scaling
    identity checked by `cost_axioms_check`.  A stalled solve returns the
    best iterate with its KKT residual in the status (or raises
    SolverStalled when strict=True).
    """
    tr = _Transport(
        problem.system,
        problem.spec,
        problem.tau,
        problem.rho0.u,
        problem.M,
        u1=problem.rho1.u,
        time_dilation=time_dilation,
    )
    W, value, values, kkt, iters, ok = _solve_schedule(
        tr, problem.epsilon_schedule, problem.kkt_tol, problem.max_iter
    )
    curve = _curve_from_solution(problem.system, problem.tau, W, tr)
    status = "converged" if ok else (
        f"stalled: best iterate value {value:.6g}, kkt residual {kkt:.3g}"
    )
    if strict and not ok:
        raise SolverStalled(status)
    return DVTSolution(
        value=float(value),
        values_by_epsilon=tuple(float(v) for v in values),
        epsilon_schedule=tuple(problem.epsilon_schedule),
        curve=curve,
        kkt_residual=float(kkt),
        converged=ok,
        status=status,
        iterations=iters,
    )


def free_endpoint_step(system, spec, entropy, tau, rho_prev, M=8,
                       epsilon_schedule=(1e-2, 1e-3, 1e-4), kkt_tol=1e-8,
                       max_iter=20000):
    """Minimize W(tau, rho_prev, .) + E(.) jointly over curves.

    Returns (endpoint Measure, diagnostics).  This is the inner solve of
    both the minimizing-movement step and the Moreau-Yosida value.
    """
    tr = _Transport(
        system, spec, tau, rho_prev.u, M, u1=None, entropy=entropy
    )
    W, value, values, kkt, iters, ok = _solve_schedule(
        tr, epsilon_schedule, kkt_tol, max_iter
    )
    curve = _curve_from_solution(system, tau, W, tr)
    endpoint = curve.states[-1]
    e_end = energy(entropy, system, endpoint)
    transport = value - e_end
    diag = {
        "objective": float(value),
        "objective_by_epsilon": tuple(float(v) for v in values),
        "w_value": float(transport),
        "energy": float(e_end),
        "kkt_residual": float(kkt),
        "iterations": iters,
        "converged": ok,
        "curve": curve,
    }
    return endpoint, diag


# ---------------------------------------------------------------------------
# curve action, feasibility, Poincare, axioms
# ---------------------------------------------------------------------------

def _interp_measure(system, times, states, t):
    k = int(np.searchsorted(times, t, side="right")) - 1
    k = min(max(k, 0), len(times) - 2)
    lam = (t - times[k]) / (times[k + 1] - times[k])
    rho = (1.0 - lam) * states[k].rho + lam * states[k + 1].rho
    return Measure.from_rho(system, np.maximum(rho, 0.0))


def w_action(system, spec, times, states, depth=3, M_inner=8,
             epsilon_schedule=(1e-2, 1e-3, 1e-4), kkt_tol=1e-8):
    """Supremum over dyadic partitions of summed transport costs of a curve.

    Evaluates levels d = 0..depth (2^d equal subintervals of the curve's time
    span, endpoint measures linearly interpolated from the given grid) and
    returns a dict with the per-level values, the finest value, and a
    monotonicity flag (values should not decrease under refinement, up to
    solver tolerance).
    """
    times = np.asarray(times, dtype=float)
    t0, t1 = float(times[0]), float(times[-1])
    levels = []
    for d in range(depth + 1):
        pieces = 2 ** d
        cuts = np.linspace(t0, t1, pieces + 1)
        total = 0.0
        for a, b in zip(cuts[:-1], cuts[1:]):
            ma = _interp_measure(system, times, states, a)
            mb = _interp_measure(system, times, states, b)
            prob = DVTProblem(
                system=system, spec=spec, tau=b - a, rho0=ma, rho1=mb,
                M=M_inner, epsilon_schedule=epsilon_schedule, kkt_tol=kkt_tol,
            )
            total += dvt_cost(prob).value
        levels.append(total)
    monotone = all(
        levels[d + 1] >= levels[d] * (1.0 - 5e-3) - 1e-10
        for d in range(len(levels) - 1)
    )
    return {
        "values_by_level": levels,
        "value": levels[-1],
        "monotone_under_refinement": monotone,
    }


def minimal_gradient_flux(system, rho0, rho1):
    """Least-squares edge field w = grad(xi) moving rho0 to rho1 in unit time.

    Solves the theta-weighted Laplacian system L xi = rho1 - rho0; raises
    SingularLaplacian when the graph is disconnected and mass must cross
    components.
    """
    b = np.asarray(rho1, dtype=float) - np.asarray(rho0, dtype=float)
    labels = system.components()
    if labels.max() > 0:
        comps = [np.nonzero(labels == c)[0].tolist() for c in range(labels.max() + 1)]
        for c, comp in enumerate(comps):
            if abs(b[comp].sum()) > 1e-12 * max(1.0, np.abs(b).sum()):
                raise SingularLaplacian(comps)
    L = np.diag(system.theta.sum(axis=1)) - system.theta
    xi, *_ = np.linalg.lstsq(L, b, rcond=None)
    if np.abs(L @ xi - b).max() > 1e-9 * max(1.0, np.abs(b).max()):
        comps = [np.nonzero(labels == c)[0].tolist() for c in range(labels.max() + 1)]
        raise SingularLaplacian(comps, "Laplacian system is inconsistent")
    return xi[None, :] - xi[:, None]


def feasible_curve(system, spec, rho0, rho1, tau, gamma=2.0, p=2, n_time=400):
    """Explicit admissible curve between positive measures + its action.

    Linear interpolation driven by the minimal-L2(theta) gradient flux, with
    the time reparametrization t -> (t/tau)^gamma; the returned action is an
    upper bound for the transport cost W(tau, rho0, rho1), evaluated by
    trapezoid quadrature of the dissipation rate.  p is the growth exponent
    of the dissipation (gamma > p - 1 keeps the rescaled action integrable
    when the weight vanishes at an endpoint); only the p = 2 minimal-norm
    construction is implemented.
    """
    if p != 2:
        raise UnsupportedParameter(
            "only the p = 2 graph-Laplacian construction is implemented"
        )
    if gamma <= p - 1:
        raise UnsupportedParameter(f"need gamma > p - 1 = {p - 1}, got {gamma}")
    r0 = rho0.rho if isinstance(rho0, Measure) else np.asarray(rho0, dtype=float)
    r1 = rho1.rho if isinstance(rho1, Measure) else np.asarray(rho1, dtype=float)
    if abs(r0.sum() - r1.sum()) > 1e-12 * max(1.0, r0.sum()):
        raise Infeasible("endpoint masses differ")
    w = minimal_gradient_flux(system, r0, r1)
    base_j = 0.5 * w * system.theta  # unit-speed flux for the linear path

    times = np.linspace(0.0, tau, n_time + 1)
    s_of_t = (times / tau) ** gamma
    speed = (gamma / tau) * (times / tau) ** (gamma - 1.0)
    states, rates = [], []
    for t, s, sp in zip(times, s_of_t, speed):
        rho_t = (1.0 - s) * r0 + s * r1
        m = Measure.from_rho(system, np.maximum(rho_t, 0.0))
        states.append(m)
        rates.append(action_rate(spec, system, m, Flux.from_matrix(sp * base_j)))
    rates = np.asarray(rates)
    dt = np.diff(times)
    bound = float(np.sum(0.5 * dt * (rates[:-1] + rates[1:])))
    fluxes = tuple(
        Flux.from_matrix(0.5 * (speed[k] + speed[k + 1]) * base_j)
        for k in range(n_time)
    )
    curve = CurveWithFlux(
        times=times, states=tuple(states), fluxes=fluxes,
        meta={"gamma": gamma, "bound": bound},
    )
    return curve, bound


def poincare_constant(system, q=2.0, n_restarts=8, n_iter=4000, seed=0):
    """Best constant in  sum |xi|^q pi <= C sum |grad xi|^q theta  (mean-zero xi).

    q = 2 is exact: C = 1/(2 lambda_2) with lambda_2 the second-smallest
    generalized eigenvalue of the theta-Laplacian against diag(pi).  Other
    q in (1, inf) are estimated by projected gradient ascent on the Rayleigh
    ratio and reported as a lower bound.
    """
    if q <= 1.0 or not np.isfinite(q):
        raise ValueError("q must lie in (1, inf)")
    if not system.is_connected():
        raise Disconnected("Poincare constant needs a connected graph")
    L = np.diag(system.theta.sum(axis=1)) - system.theta
    if q == 2.0:
        from scipy.linalg import eigh

        vals = eigh(L, np.diag(system.pi), eigvals_only=True)
        lam2 = float(vals[1])
        if lam2 <= 1e-14:
            raise Disconnected("zero spectral gap")
        return 1.0 / (2.0 * lam2)

    rng = np.random.default_rng(seed)
    pi = system.pi
    best = 0.0
    mask = system.edge_mask
    for _ in range(n_restarts):
        xi = rng.normal(size=system.n)
        xi -= (xi * pi).sum() / pi.sum()
        xi /= np.abs(xi).max() + 1e-300
        step = 0.1
        for _ in range(n_iter):
            g = xi[None, :] - xi[:, None]
            num = float((np.abs(xi) ** q * pi).sum())
            den = float((np.abs(g[mask]) ** q * system.theta[mask]).sum())
            if den <= 1e-300:
                break
            best = max(best, num / den)
            # gradient of log(num/den)
            gn = q * np.sign(xi) * np.abs(xi) ** (q - 1) * pi / num
            gd_edge = q * np.sign(g) * np.abs(g) ** (q - 1) * system.theta
            gd = (gd_edge * mask).sum(axis=0) - (gd_edge * mask).sum(axis=1)
            gd /= den
            xi = xi + step * (gn - gd)
            xi -= (xi * pi).sum() / pi.sum()
            norm = np.abs(xi).max()
            if not np.isfinite(norm) or norm <= 1e-300:
                break
            xi /= norm
            step *= 0.999
    return best


def cost_axioms_check(system, spec, n_triples=20, tau=1.0, M=8, seed=0,
                      epsilon_schedule=(1e-2, 1e-3, 1e-4), kkt_tol=1e-8):
    """Worst-case violations of the cost axioms over random measure triples.

    Checked: W(tau, rho, rho) ~ 0; the two-time triangle inequality;
    monotonicity and midpoint convexity in tau; symmetry of the endpoints;
    the time-dilation scaling identity (dilation 2 on [0, tau] against
    W(2 tau)).  Nine solves per triple.  Each reported violation already
    subtracts the per-solve tolerance 4*value/M^2 + 10*kkt_tol (the
    discretization-bias estimate plus the solver tolerance).
    """
    rng = np.random.default_rng(seed)

    def cost(t, a, b, dilation=1.0):
        prob = DVTProblem(
            system=system, spec=spec, tau=t, rho0=a, rho1=b, M=M,
            epsilon_schedule=epsilon_schedule, kkt_tol=kkt_tol,
        )
        sol = dvt_cost(prob, time_dilation=dilation)
        tol = 4.0 * abs(sol.value) / (M * M) + 10.0 * kkt_tol
        return sol.value, tol

    def random_measure():
        r = rng.uniform(0.2, 1.0, size=system.n)
        return Measure.from_rho(system, r / r.sum())

    report = {
        "zero_self": 0.0,
        "triangle": 0.0,
        "tau_monotone": 0.0,
        "tau_midpoint_convexity": 0.0,
        "symmetry": 0.0,
        "scaling_identity": 0.0,
    }
    for _ in range(n_triples):
        r1, r2, r3 = random_measure(), random_measure(), random_measure()

        v_self, tol_self = cost(tau, r1, r1)
        report["zero_self"] = max(report["zero_self"], v_self - tol_self)

        # W(f tau, r1, r2), shared by the tau, triangle, symmetry and scaling checks
        vs, ts = {}, {}
        for f in (0.5, 0.75, 1.0, 2.0):
            vs[f], ts[f] = cost(f * tau, r1, r2)

        v13, t13 = cost(tau, r1, r3)
        v23, t23 = cost(0.5 * tau, r2, r3)
        report["triangle"] = max(
            report["triangle"], v13 - (vs[0.5] + v23) - (t13 + ts[0.5] + t23)
        )

        report["tau_monotone"] = max(
            report["tau_monotone"],
            vs[1.0] - vs[0.5] - 2.0 * ts[0.5],
            vs[2.0] - vs[1.0] - 2.0 * ts[0.5],
        )
        midpoint = vs[0.75] - 0.5 * (vs[0.5] + vs[1.0])
        report["tau_midpoint_convexity"] = max(
            report["tau_midpoint_convexity"], midpoint - 2.0 * ts[0.5]
        )

        v_bwd, tb = cost(tau, r2, r1)
        report["symmetry"] = max(report["symmetry"], abs(vs[1.0] - v_bwd) - (ts[1.0] + tb))

        # dilation 2 on [0, tau] is W(2 tau); a factor of 1 would compare a solve with itself
        v_dil, td = cost(tau, r1, r2, dilation=2.0)
        report["scaling_identity"] = max(
            report["scaling_identity"], abs(vs[2.0] - v_dil) - 2.0 * (ts[2.0] + td)
        )
    return report
