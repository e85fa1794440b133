import numpy as np
import pytest

from conftest import three_state_system, two_state_system

from ggflow import (
    Disconnected,
    Infeasible,
    Measure,
    SingularLaplacian,
    build_system,
    ce_residual,
    make_dissipation,
    make_entropy,
)
import ggflow.dvt
from ggflow.dvt import (
    DVTProblem,
    _Transport,
    cost_axioms_check,
    dvt_cost,
    feasible_curve,
    free_endpoint_step,
    minimal_gradient_flux,
    poincare_constant,
    w_action,
)
from ggflow.functionals import energy

COSH = make_dissipation("cosh")
UNIT = make_dissipation("constant_alpha")
BOLTZ = make_entropy("boltzmann")


def quadratic_two_state_problem(M=8):
    sys2 = two_state_system()
    return DVTProblem(
        system=sys2,
        spec=UNIT,
        tau=1.0,
        rho0=Measure.from_rho(sys2, [0.8, 0.2]),
        rho1=Measure.from_rho(sys2, [0.5, 0.5]),
        M=M,
    )


def small_ring(n=6, seed=0):
    """Ring with random pi and edge weights, and two random endpoint measures."""
    rng = np.random.default_rng(seed)
    pi = rng.uniform(0.5, 1.5, size=n)
    pi /= pi.sum()
    theta = np.zeros((n, n))
    for i in range(n):
        j = (i + 1) % n
        theta[i, j] = theta[j, i] = rng.uniform(0.5, 1.5)
    system = build_system(pi, theta / pi[:, None])
    r0, r1 = (r / r.sum() for r in rng.uniform(0.2, 1.0, size=(2, n)))
    return system, Measure.from_rho(system, r0), Measure.from_rho(system, r1)


class TestTransportInternals:
    def test_states_recursion_endpoint(self):
        prob = quadratic_two_state_problem()
        tr = _Transport(
            prob.system, prob.spec, prob.tau, prob.rho0.u, prob.M, u1=prob.rho1.u
        )
        W = tr.initial_point()
        U = tr.states(W)
        np.testing.assert_allclose(U[0], prob.rho0.u)
        np.testing.assert_allclose(U[-1], prob.rho1.u, atol=1e-12)

    def test_gradient_against_finite_differences(self):
        sys3 = three_state_system()
        rng = np.random.default_rng(5)
        u0 = rng.uniform(0.5, 2.0, size=3)
        u0 *= 1.0 / (u0 * sys3.pi).sum()
        u1 = rng.uniform(0.5, 2.0, size=3)
        u1 *= 1.0 / (u1 * sys3.pi).sum()
        for spec, entropy, pinned in [
            (COSH, None, True),
            (UNIT, None, True),
            (COSH, BOLTZ, False),
        ]:
            tr = _Transport(
                sys3, spec, 0.7, u0, M=4,
                u1=u1 if pinned else None, entropy=entropy,
            )
            W = 0.1 * rng.normal(size=(4, tr.K))
            val, grad = tr.value_and_grad(W, eps=1e-3)
            h = 1e-6
            for idx in [(0, 0), (1, 3), (3, 5), (2, 2)]:
                Wp = W.copy()
                Wp[idx] += h
                Wm = W.copy()
                Wm[idx] -= h
                fd = (tr.value(Wp, 1e-3) - tr.value(Wm, 1e-3)) / (2 * h)
                assert abs(fd - grad[idx]) < 1e-5 * (1.0 + abs(fd))

    @pytest.mark.parametrize("family, params", [
        ("cosh", {}), ("cosh", {"q": 0.5}), ("quadratic", {}),
        ("power_mean", {"p": -0.5}), ("power_mean", {"p": -1.0}),
        ("power_mean", {"p": -np.inf}), ("power_mean", {"p": 0.5}),
        ("stolarsky", {"p": 1.0, "q": 0.0}), ("stolarsky", {"p": 2.0, "q": 1.0}),
        ("constant_alpha", {}),
    ])
    def test_gradient_along_projected_directions(self, family, params):
        # central differences of the stacked-node objective, every family
        spec = make_dissipation(family, **params)
        sys3 = three_state_system()
        rng = np.random.default_rng(17)
        u0, u1 = (u / (u * sys3.pi).sum() for u in rng.uniform(0.5, 2.0, size=(2, 3)))
        eps, h = 1e-2, 1e-5
        for pinned in (True, False):
            tr = _Transport(sys3, spec, 0.7, u0, M=4, u1=u1 if pinned else None,
                            entropy=None if pinned else BOLTZ)
            W = tr.project(tr.initial_point() + 0.05 * rng.normal(size=(4, tr.K)))
            _, grad = tr.value_and_grad(W, eps)
            for _ in range(2):
                D = tr.project(W + rng.normal(size=W.shape)) - W
                fd = (tr.value(W + h * D, eps) - tr.value(W - h * D, eps)) / (2 * h)
                assert abs(fd - (grad * D).sum()) <= 1e-6 * abs(fd)

    @pytest.mark.parametrize("pinned", [True, False])
    def test_one_objective_evaluation_per_trial_point(self, pinned):
        # each eps level: the start point, one accepted trial per iteration,
        # and one per backtrack; the accepted trial's gradient is reused
        sys3 = three_state_system()
        u0, u1 = np.array([2.1, 0.6, 0.3]), np.array([0.6, 0.9, 1.5])
        tr = _Transport(sys3, COSH, 0.2, u0, M=8, u1=u1 if pinned else None,
                        entropy=None if pinned else BOLTZ)
        real, points = tr.value_and_grad, []

        def counting(W, eps):
            points.append(W.copy())
            return real(W, eps)

        tr.value_and_grad = counting
        W, backtracks = None, 0
        for eps in (1e-2, 1e-3, 1e-4):
            points.clear()
            W, _, kkt, it, ok = tr.minimize(eps, W0=W)
            assert ok and kkt <= 1e-8 and it > 0
            assert len(points) == 1 + it + tr.backtracks
            assert not any(np.array_equal(a, b) for a, b in zip(points, points[1:]))
            backtracks += tr.backtracks
        if pinned:  # this fixture backtracks, so rejected trials are counted too
            assert backtracks > 0

    def test_projection_restores_constraint(self):
        prob = quadratic_two_state_problem()
        tr = _Transport(
            prob.system, prob.spec, prob.tau, prob.rho0.u, prob.M, u1=prob.rho1.u
        )
        rng = np.random.default_rng(6)
        W = tr.project(rng.normal(size=(prob.M, tr.K)))
        np.testing.assert_allclose(tr.states(W)[-1], prob.rho1.u, atol=1e-12)


class TestDVTCost:
    def test_identical_endpoints_cost_zero(self):
        sys2 = two_state_system()
        m = Measure.from_rho(sys2, [0.6, 0.4])
        prob = DVTProblem(system=sys2, spec=COSH, tau=1.0, rho0=m, rho1=m)
        sol = dvt_cost(prob)
        assert abs(sol.value) <= 1e-8
        for f in sol.curve.fluxes:
            np.testing.assert_allclose(f.j, 0.0, atol=1e-6)

    def test_quadratic_closed_form(self):
        # alpha = 1, psi = s^2/2: optimal cost is m^2/(2 theta tau) = 0.09
        sol = dvt_cost(quadratic_two_state_problem())
        assert abs(sol.value - 0.09) <= 1e-4

    def test_grid_refinement_monotone_and_cauchy(self):
        values = {M: dvt_cost(quadratic_two_state_problem(M)).value for M in (4, 8, 16)}
        assert values[8] <= values[4] + 1e-7
        assert values[16] <= values[8] + 1e-7
        gap1 = abs(values[8] - values[4])
        gap2 = abs(values[16] - values[8])
        assert gap2 <= 0.3 * gap1 + 1e-7

    def test_epsilon_values_monotone(self):
        sol = dvt_cost(quadratic_two_state_problem())
        vals = sol.values_by_epsilon
        assert all(vals[k + 1] >= vals[k] - 1e-9 for k in range(len(vals) - 1))

    def test_optimal_flux_skew_symmetric(self):
        sol = dvt_cost(quadratic_two_state_problem())
        for f in sol.curve.fluxes:
            num = np.abs(f.j + f.j.T).max()
            den = np.abs(f.j).max() + 1e-30
            assert num <= 1e-6 * den + 1e-10

    def test_solution_satisfies_continuity(self):
        sol = dvt_cost(quadratic_two_state_problem())
        rep = ce_residual(
            sol.curve.meta.get("system", two_state_system()),
            sol.curve.times, sol.curve.states, sol.curve.fluxes,
        )
        assert rep.residual <= 1e-10

    def test_cosh_cost_against_quadratic_comparison_value(self):
        # psi*_cosh(xi) >= xi^2/2 pointwise, so the dual satisfies
        # psi_cosh(s) <= s^2/2 and the cosh cost sits at or below the
        # alpha = 1 quadratic cost (and close to it for small fluxes)
        sys2 = two_state_system()
        rho0 = Measure.from_rho(sys2, [0.8, 0.2])
        rho1 = Measure.from_rho(sys2, [0.5, 0.5])
        cosh_unit = make_dissipation(
            "custom",
            alpha=lambda u, v: np.ones(np.broadcast(np.asarray(u), np.asarray(v)).shape),
            alpha_grad_u=lambda u, v: np.zeros(np.broadcast(np.asarray(u), np.asarray(v)).shape),
            psi_star=COSH.psi_star,
            psi_star_prime=COSH.psi_star_prime,
            psi=COSH.psi,
            psi_prime=COSH.psi_prime,
            alpha_concave_asserted=True,
        )
        v_cosh = dvt_cost(
            DVTProblem(system=sys2, spec=cosh_unit, tau=1.0, rho0=rho0, rho1=rho1)
        ).value
        v_quad = dvt_cost(
            DVTProblem(system=sys2, spec=UNIT, tau=1.0, rho0=rho0, rho1=rho1)
        ).value
        assert np.isfinite(v_cosh) and v_cosh > 0.0
        assert v_cosh <= v_quad + 1e-5
        assert v_cosh >= 0.9 * v_quad

    def test_unequal_mass_infeasible(self):
        sys2 = two_state_system()
        with pytest.raises(Infeasible):
            DVTProblem(
                system=sys2,
                spec=COSH,
                tau=1.0,
                rho0=Measure.from_rho(sys2, [0.8, 0.2]),
                rho1=Measure.from_rho(sys2, [0.5, 0.6]),
            )

    def test_stalled_solver_reports_best_iterate(self):
        from ggflow import SolverStalled

        prob = DVTProblem(
            system=three_state_system(),
            spec=COSH,
            tau=1.0,
            rho0=Measure.from_rho(three_state_system(), [0.7, 0.2, 0.1]),
            rho1=Measure.from_rho(three_state_system(), [0.2, 0.3, 0.5]),
            kkt_tol=1e-16,  # unreachable on purpose
            max_iter=2,  # and too few iterations to get near it
        )
        sol = dvt_cost(prob)
        assert not sol.converged
        assert "stalled" in sol.status and np.isfinite(sol.value)
        with pytest.raises(SolverStalled):
            dvt_cost(prob, strict=True)

    @pytest.mark.parametrize("family, params, n", [
        ("cosh", {}, 6), ("cosh", {}, 50), ("power_mean", {"p": -0.5}, 6),
    ])
    def test_pinned_endpoint_stays_on_constraint(self, family, params, n):
        # unprojected trial points drift off the affine set by 2e-12 at n = 50
        system, rho0, rho1 = small_ring(n=n)
        sol = dvt_cost(DVTProblem(system=system, spec=make_dissipation(family, **params),
                                  tau=1.0, rho0=rho0, rho1=rho1))
        assert sol.converged
        assert np.abs(sol.curve.states[-1].u - rho1.u).max() <= 1e-12

    @pytest.mark.parametrize("family, params", [("cosh", {}), ("power_mean", {"p": -0.5})])
    def test_default_tolerance_value_matches_tight_solve(self, family, params):
        system, rho0, rho1 = small_ring()
        spec = make_dissipation(family, **params)
        sol, ref = (
            dvt_cost(DVTProblem(system=system, spec=spec, tau=1.0, rho0=rho0, rho1=rho1,
                                kkt_tol=tol))
            for tol in (1e-8, 1e-11)
        )
        assert sol.converged and ref.converged
        assert abs(sol.value - ref.value) <= 1e-9 * ref.value

    def test_cross_component_transport_infeasible(self):
        sysd = build_system(
            [0.25, 0.25, 0.25, 0.25],
            [
                [0.0, 1.0, 0.0, 0.0],
                [1.0, 0.0, 0.0, 0.0],
                [0.0, 0.0, 0.0, 1.0],
                [0.0, 0.0, 1.0, 0.0],
            ],
        )
        rho0 = Measure.from_rho(sysd, [0.5, 0.2, 0.2, 0.1])
        rho1 = Measure.from_rho(sysd, [0.2, 0.2, 0.3, 0.3])
        with pytest.raises(Infeasible):
            dvt_cost(DVTProblem(system=sysd, spec=COSH, tau=1.0, rho0=rho0, rho1=rho1))


class TestCostAxioms:
    def test_nine_solves_per_triple_and_scaling_check_can_fail(self, monkeypatch):
        # with time_dilation ignored, W on [0, tau] stands in for W(2 tau)
        solves = []
        real = ggflow.dvt.dvt_cost

        def no_dilation(problem, time_dilation=1.0, strict=False):
            solves.append(time_dilation)
            return real(problem, strict=strict)

        monkeypatch.setattr(ggflow.dvt, "dvt_cost", no_dilation)
        report = cost_axioms_check(three_state_system(), COSH, n_triples=1, M=8, seed=3)
        assert len(solves) == 9 and solves.count(2.0) == 1
        assert report["scaling_identity"] > 0.0


class TestFreeEndpoint:
    def test_stationary_point_is_fixed(self):
        sys3 = three_state_system()
        m = Measure.from_u(sys3, np.full(3, 1.0))
        end, diag = free_endpoint_step(sys3, COSH, BOLTZ, 0.2, m)
        np.testing.assert_allclose(end.u, 1.0, atol=1e-5)
        assert abs(diag["w_value"]) < 1e-6

    def test_energy_strictly_decreases_off_equilibrium(self):
        sys3 = three_state_system()
        m = Measure.from_u(sys3, np.array([2.0, 0.6, 0.4]))
        end, diag = free_endpoint_step(sys3, COSH, BOLTZ, 0.2, m)
        assert diag["energy"] < energy(BOLTZ, sys3, m) - 1e-4
        assert diag["w_value"] >= -1e-8

    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("tau", [0.2, 0.05])
    def test_endpoint_matches_tight_solve(self, seed, tau):
        # the endpoint is poorly conditioned at kkt 1e-8: on 6- and 20-state
        # rings its max-norm error against a kkt 1e-11 solve is up to 9e-7
        system, rho0, _ = small_ring(seed=seed)
        (end, diag), (ref, rdiag) = (
            free_endpoint_step(system, COSH, BOLTZ, tau, rho0, kkt_tol=tol)
            for tol in (1e-8, 1e-11)
        )
        assert diag["converged"] and rdiag["converged"]
        assert np.abs(end.u - ref.u).max() <= 1e-6 * np.abs(ref.u).max()
        assert abs(diag["objective"] - rdiag["objective"]) <= 1e-9 * abs(rdiag["objective"])


class TestWAction:
    def test_constant_curve(self):
        sys2 = two_state_system()
        m = Measure.from_rho(sys2, [0.6, 0.4])
        out = w_action(sys2, COSH, [0.0, 1.0], [m, m], depth=2, M_inner=4)
        assert abs(out["value"]) < 1e-7
        assert out["monotone_under_refinement"]


class TestFeasibleCurve:
    def test_identical_endpoints(self):
        sys2 = two_state_system()
        m = Measure.from_rho(sys2, [0.6, 0.4])
        curve, bound = feasible_curve(sys2, UNIT, m, m, tau=1.0)
        assert bound == 0.0

    def test_two_state_quadratic_bound(self):
        # gamma = 2 rescaling of the straight line: action 0.12 >= optimum 0.09
        sys2 = two_state_system()
        rho0 = Measure.from_rho(sys2, [0.8, 0.2])
        rho1 = Measure.from_rho(sys2, [0.5, 0.5])
        curve, bound = feasible_curve(sys2, UNIT, rho0, rho1, tau=1.0, gamma=2.0)
        assert bound >= 0.09 - 1e-6
        assert bound <= 2.0 * 0.09 + 1e-3
        rep = ce_residual(sys2, curve.times, curve.states, curve.fluxes)
        assert rep.residual < 1e-4

    def test_disconnected_graph_raises(self):
        sysd = build_system(
            [0.25, 0.25, 0.25, 0.25],
            [
                [0.0, 1.0, 0.0, 0.0],
                [1.0, 0.0, 0.0, 0.0],
                [0.0, 0.0, 0.0, 1.0],
                [0.0, 0.0, 1.0, 0.0],
            ],
        )
        with pytest.raises(SingularLaplacian) as exc:
            minimal_gradient_flux(sysd, [0.5, 0.2, 0.2, 0.1], [0.2, 0.2, 0.3, 0.3])
        assert len(exc.value.components) == 2


class TestPoincare:
    def test_two_state_exact_value(self):
        assert abs(poincare_constant(two_state_system(), q=2.0) - 0.25) <= 1e-10

    def test_scaling_with_rates(self):
        sys_a = two_state_system()
        sys_b = build_system([0.5, 0.5], [[0.0, 2.0], [2.0, 0.0]])
        ca = poincare_constant(sys_a, q=2.0)
        cb = poincare_constant(sys_b, q=2.0)
        assert abs(cb - 0.5 * ca) <= 1e-12

    def test_disconnected_raises(self):
        sysd = build_system(
            [0.5, 0.5], [[0.0, 0.0], [0.0, 0.0]]
        )
        with pytest.raises(Disconnected):
            poincare_constant(sysd, q=2.0)

    def test_q3_estimate_lower_bounds_rayleigh(self):
        # the ascent estimate must dominate the value of any fixed test vector
        sys2 = two_state_system()
        est = poincare_constant(sys2, q=3.0, n_restarts=4, n_iter=1500)
        xi = np.array([1.0, -1.0])
        num = float((np.abs(xi) ** 3 * sys2.pi).sum())
        den = float(
            (np.abs(xi[None, :] - xi[:, None])[sys2.edge_mask] ** 3
             * sys2.theta[sys2.edge_mask]).sum()
        )
        assert est >= num / den - 1e-9
