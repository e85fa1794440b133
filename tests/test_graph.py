import json

import numpy as np
import pytest

from ggflow import (
    DetailedBalanceViolation,
    Flux,
    GraphSystem,
    GridMismatch,
    Measure,
    NegativeRate,
    NonPositivePi,
    build_system,
    ce_residual,
    graph_div,
    graph_grad,
)


def two_state():
    return build_system([0.5, 0.5], [[0.0, 1.0], [1.0, 0.0]])


class TestBuildSystem:
    def test_symmetric_two_state(self):
        sys2 = two_state()
        np.testing.assert_allclose(sys2.theta, [[0.0, 0.5], [0.5, 0.0]])
        assert sys2.kappa_row_max == 1.0

    def test_asymmetric_rates_balanced_by_pi(self):
        # pi_i * k_ij = 2/3 * 1 = 1/3 * 2 = pi_j * k_ji
        sysb = build_system([2 / 3, 1 / 3], [[0.0, 1.0], [2.0, 0.0]])
        np.testing.assert_allclose(sysb.theta[0, 1], 2 / 3)
        np.testing.assert_allclose(sysb.theta, sysb.theta.T)

    def test_detailed_balance_violation(self):
        with pytest.raises(DetailedBalanceViolation) as exc:
            build_system([0.5, 0.5], [[0.0, 1.0], [3.0, 0.0]])
        assert exc.value.edge in ((0, 1), (1, 0))

    def test_bad_inputs(self):
        with pytest.raises(NonPositivePi):
            build_system([1.0, 0.0], [[0.0, 1.0], [1.0, 0.0]])
        with pytest.raises(NegativeRate):
            build_system([0.5, 0.5], [[0.0, -1.0], [1.0, 0.0]])

    def test_self_loops_removed(self):
        sysl = build_system([0.5, 0.5], [[5.0, 1.0], [1.0, 5.0]])
        assert sysl.kappa[0, 0] == 0.0 and sysl.kappa[1, 1] == 0.0

    def test_json_round_trip_revalidates(self):
        sys2 = two_state()
        again = GraphSystem.from_json(sys2.to_json())
        np.testing.assert_allclose(again.theta, sys2.theta)
        bad = json.loads(sys2.to_json())
        bad["kappa"][1][0] = 3.0
        with pytest.raises(DetailedBalanceViolation):
            GraphSystem.from_dict(bad)


class TestGraphCalculus:
    def test_gradient_of_constant_is_zero(self):
        np.testing.assert_array_equal(graph_grad(np.full(4, 2.5)), np.zeros((4, 4)))

    def test_gradient_definition(self):
        np.testing.assert_array_equal(
            graph_grad([0.0, 1.0]), [[0.0, 1.0], [-1.0, 0.0]]
        )

    def test_gradient_skew_symmetry_exact(self):
        rng = np.random.default_rng(3)
        g = graph_grad(rng.normal(size=17))
        np.testing.assert_array_equal(g, -g.T)

    def test_divergence_kills_symmetric_part(self):
        rng = np.random.default_rng(4)
        a = rng.normal(size=(6, 6))
        sym = a + a.T
        np.testing.assert_allclose(graph_div(sym), np.zeros(6), atol=1e-12)

    def test_divergence_definition(self):
        j = np.array([[0.0, 1.0], [0.0, 0.0]])
        np.testing.assert_array_equal(graph_div(j), [1.0, -1.0])

    def test_grad_div_duality(self):
        # <grad(phi), j> = -<phi, div(j)> against the direct double sum
        rng = np.random.default_rng(5)
        for _ in range(25):
            n = rng.integers(2, 9)
            phi = rng.normal(size=n)
            j = rng.normal(size=(n, n))
            lhs = float((graph_grad(phi) * j).sum())
            rhs = -float((phi * graph_div(j)).sum())
            brute = sum(
                (phi[b] - phi[a]) * j[a, b] for a in range(n) for b in range(n)
            )
            assert abs(lhs - rhs) < 1e-12 * (1 + abs(lhs))
            assert abs(lhs - brute) < 1e-12 * (1 + abs(lhs))

    def test_divergence_of_skew_and_positive_parts(self):
        # div(j) = div((j - j^T)/2) = div((j - j^T)_+): the symmetric part is
        # silent and the negative part is the transpose of the positive one
        rng = np.random.default_rng(6)
        j = rng.normal(size=(5, 5))
        jflat = 0.5 * (j - j.T)
        jplus = np.clip(j - j.T, 0.0, None)
        np.testing.assert_allclose(graph_div(j), graph_div(jflat), atol=1e-12)
        np.testing.assert_allclose(graph_div(j), graph_div(jplus), atol=1e-12)


class TestMeasureFlux:
    def test_measure_consistency(self):
        sys2 = two_state()
        m = Measure.from_rho(sys2, [0.8, 0.2])
        np.testing.assert_allclose(m.u, [1.6, 0.4])
        m2 = Measure.from_u(sys2, [1.6, 0.4])
        np.testing.assert_allclose(m2.rho, m.rho)

    def test_negative_mass_rejected(self):
        with pytest.raises(ValueError):
            Measure.from_rho(two_state(), [-0.1, 1.1])

    def test_flux_skew_and_w(self):
        sys2 = two_state()
        f = Flux.from_matrix([[0.0, 1.0], [0.25, 0.0]])
        np.testing.assert_allclose(f.skew, [[0.0, 0.375], [-0.375, 0.0]])
        np.testing.assert_allclose(f.w(sys2), [[0.0, 4.0], [1.0, 0.0]])


class TestContinuityResidual:
    def test_constant_curve_zero_flux(self):
        sys2 = two_state()
        m = Measure.from_rho(sys2, [0.7, 0.3])
        zero = Flux.from_matrix(np.zeros((2, 2)))
        rep = ce_residual(sys2, [0.0, 0.5, 1.0], [m, m, m], [zero, zero])
        assert rep.residual == 0.0
        assert rep.tv_bound_ok
        assert rep.mass_drift == 0.0

    def test_exact_piecewise_transport(self):
        # move mass 0.3 from state 0 to 1 with the matching constant flux
        sys2 = two_state()
        tgrid = np.linspace(0.0, 1.0, 11)
        states = [
            Measure.from_rho(sys2, [0.8 - 0.3 * t, 0.2 + 0.3 * t]) for t in tgrid
        ]
        fluxes = [
            Flux.from_matrix([[0.0, 0.15], [-0.15, 0.0]]) for _ in range(10)
        ]
        rep = ce_residual(sys2, tgrid, states, fluxes)
        assert rep.residual < 1e-15
        assert rep.tv_bound_ok
        # total mass varies by at most the residual on conforming curves
        assert rep.mass_drift <= rep.residual + 1e-15

    def test_corrupted_flux_detected(self):
        sys2 = two_state()
        tgrid = np.linspace(0.0, 1.0, 11)
        states = [
            Measure.from_rho(sys2, [0.8 - 0.3 * t, 0.2 + 0.3 * t]) for t in tgrid
        ]
        fluxes = [
            Flux.from_matrix([[0.0, 0.30], [-0.30, 0.0]]) for _ in range(10)
        ]
        rep = ce_residual(sys2, tgrid, states, fluxes)
        assert rep.residual > 1e-3

    def test_off_edge_flux_counts_in_tv_bound(self):
        # path 0 - 1 - 2: flux on the theta = 0 pair (0, 2) still moves rho
        # through the divergence, so it counts in 2 * integral |j| as well
        path = build_system(np.full(3, 1 / 3), [[0, 1, 0], [1, 0, 1], [0, 1, 0]])
        tgrid = np.linspace(0.0, 1.0, 5)
        states = [Measure.from_rho(path, [0.5 - 0.2 * t, 0.3, 0.2 + 0.2 * t])
                  for t in tgrid]
        j = np.zeros((3, 3))
        j[0, 2] = 0.2
        rep = ce_residual(path, tgrid, states, [Flux.from_matrix(j)] * 4)
        assert rep.residual < 1e-15
        assert rep.tv_bound_ok

    @pytest.mark.parametrize("n_fluxes", [11, 9])
    def test_fluxes_not_one_per_interval_rejected(self, n_fluxes):
        # one flux per time node (11) or one too few (9) on 10 intervals
        sys2 = two_state()
        tgrid = np.linspace(0.0, 1.0, 11)
        states = [Measure.from_rho(sys2, [0.5, 0.5]) for _ in tgrid]
        fluxes = [Flux.from_matrix(np.zeros((2, 2))) for _ in range(n_fluxes)]
        with pytest.raises(GridMismatch, match=f"{n_fluxes} fluxes"):
            ce_residual(sys2, tgrid, states, fluxes)
