"""Structural identities that single out solution curves.

Along a trajectory of the forward evolution: the flux is the unique zero of
the edgewise optimality condition -w = (Psi*)'(force) * alpha, the envelope
and lower Fisher integrands coincide on every edge, the chain-rule
integrand is nonpositive edgewise, and the chain-rule defect vanishes to
quadrature order.  The minimizing-movement curves inherit the
energy-dissipation certificate as tau shrinks.
"""

import numpy as np
import pytest

from conftest import three_state_system

from ggflow import GridMismatch, Measure, make_dissipation, make_entropy
from ggflow.evolution import solve_forward
from ggflow.functionals import (
    chain_rule_residual,
    edge_diagnostics_csv,
    edge_force,
    energy,
    energy_dissipation_report,
    fisher_integrands,
)
from ggflow.jko import concatenated_curve, mm_solve

COSH = make_dissipation("cosh")
BOLTZ = make_entropy("boltzmann")


def solution_curve(dt=1e-3, T=1.0):
    system = three_state_system()
    u0 = np.array([1.9, 0.5, 0.6])
    return system, solve_forward(system, COSH, BOLTZ, u0, T=T, dt=dt)


class TestSolutionIdentities:
    def test_chain_rule_residual_solver_order(self):
        system, curve = solution_curve()
        res = chain_rule_residual(
            COSH, BOLTZ, system, curve.times, curve.states, curve.fluxes
        )
        assert res <= 1e-6

    def test_edgewise_optimality_condition(self):
        # deficit ~ 0 forces -w = (Psi*)'(force) * alpha on every live edge
        system, curve = solution_curve()
        ii, jj = np.nonzero(system.edge_mask)
        for m in range(0, len(curve.fluxes), 100):
            ubar = 0.5 * (curve.densities[m] + curve.densities[m + 1])
            w = curve.fluxes[m].w(system)
            force = edge_force(BOLTZ, ubar[ii], ubar[jj])
            target = -np.asarray(COSH.psi_star_prime(force)) * np.asarray(
                COSH.alpha(ubar[ii], ubar[jj])
            )
            np.testing.assert_allclose(w[ii, jj], target, atol=1e-6)

    def test_fisher_envelope_equals_lower_along_solutions(self):
        system, curve = solution_curve(dt=0.01)
        ii, jj = np.nonzero(system.edge_mask)
        for state in curve.states[:: len(curve.states) // 10]:
            tri = fisher_integrands(COSH, BOLTZ, state.u[ii], state.u[jj])
            np.testing.assert_allclose(tri.lower, tri.envelope, atol=1e-12)

    def test_chain_rule_integrand_nonpositive_edgewise(self):
        system, curve = solution_curve(dt=0.01)
        ii, jj = np.nonzero(system.edge_mask)
        for m in range(len(curve.fluxes)):
            ubar = 0.5 * (curve.densities[m] + curve.densities[m + 1])
            wflat = 0.5 * (curve.fluxes[m].w(system) - curve.fluxes[m].w(system).T)
            force = np.asarray(edge_force(BOLTZ, ubar[ii], ubar[jj]))
            assert np.all(force * wflat[ii, jj] <= 1e-12)

    def test_edge_diagnostics_csv(self, tmp_path):
        system, curve = solution_curve(dt=0.1)
        path = tmp_path / "edges.csv"
        edge_diagnostics_csv(
            path, COSH, BOLTZ, system, curve.times, curve.states, curve.fluxes
        )
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "t,i,j,u_i,u_j,w,cost,fisher,chain"
        n_edges = int(np.count_nonzero(system.edge_mask))
        assert len(lines) == 1 + n_edges * len(curve.fluxes)

    @pytest.mark.parametrize("n_states, n_fluxes", [(2, None), (None, -1)])
    def test_edge_diagnostics_csv_rejects_misaligned_grid(self, tmp_path, n_states,
                                                          n_fluxes):
        system, curve = solution_curve(dt=0.1)
        with pytest.raises(GridMismatch):
            edge_diagnostics_csv(tmp_path / "edges.csv", COSH, BOLTZ, system, curve.times,
                                 curve.states[:n_states], curve.fluxes[:n_fluxes])


class TestMMLimitCurve:
    def test_concatenated_run_approaches_energy_dissipation_balance(self):
        system = three_state_system()
        rho0 = Measure.from_u(system, np.array([1.9, 0.5, 0.6]))
        e0 = energy(BOLTZ, system, rho0)
        deficits = {}
        for tau in (0.2, 0.1, 0.05):
            run = mm_solve(system, COSH, BOLTZ, rho0, T=0.4, tau=tau,
                           keep_curves=True)
            curve = concatenated_curve(run)
            rep = energy_dissipation_report(
                COSH, BOLTZ, system, curve.times, curve.states, curve.fluxes,
                ce_tol=1e-6,
            )
            deficits[tau] = abs(rep.deficit)
        assert deficits[0.05] <= deficits[0.2] + 1e-9
        assert deficits[0.05] <= 0.05 * e0
