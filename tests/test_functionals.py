import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import three_state_system, two_state_system

from ggflow import (
    ContinuityEquationViolated,
    Flux,
    Measure,
    build_system,
    ce_residual,
    flux_cost,
    make_dissipation,
    make_entropy,
    solve_forward,
)
from ggflow.functionals import (
    _certify,
    action_rate,
    chain_rule_residual,
    edge_force,
    energy,
    energy_dissipation_report,
    fisher_information,
    fisher_integrands,
)

COSH = make_dissipation("cosh")
QUAD = make_dissipation("quadratic")
UNIT = make_dissipation("constant_alpha")
BOLTZ = make_entropy("boltzmann")


class TestEnergy:
    def test_invariant_measure_has_zero_energy(self):
        sys2 = two_state_system()
        assert energy(BOLTZ, sys2, Measure.from_u(sys2, [1.0, 1.0])) == 0.0

    def test_boltzmann_value(self):
        sys2 = two_state_system()
        val = energy(BOLTZ, sys2, Measure.from_u(sys2, [4.0, 1.0]))
        assert abs(val - 0.5 * (4.0 * math.log(4.0) - 3.0)) < 1e-12

    def test_quadratic_value(self):
        sys2 = two_state_system()
        val = energy(make_entropy("quadratic"), sys2, Measure.from_u(sys2, [2.0, 0.0]))
        assert abs(val - 1.0) < 1e-15


class TestEdgeForce:
    def test_diagonal_zero(self):
        assert edge_force(BOLTZ, 0.7, 0.7) == 0.0

    def test_boltzmann_log_gap(self):
        assert abs(edge_force(BOLTZ, 1.0, math.e) - 1.0) < 1e-14

    def test_boundary_infinities(self):
        assert edge_force(BOLTZ, 0.0, 1.0) == np.inf
        assert edge_force(BOLTZ, 1.0, 0.0) == -np.inf


class TestActionRate:
    def test_zero_flux(self):
        sys2 = two_state_system()
        m = Measure.from_u(sys2, [1.3, 0.7])
        assert action_rate(COSH, sys2, m, Flux.from_matrix(np.zeros((2, 2)))) == 0.0

    def test_hand_value_two_state(self):
        sys2 = two_state_system()
        m = Measure.from_u(sys2, [1.0, 1.0])
        # w = +-1 means j = w * theta / 2
        j = Flux.from_matrix([[0.0, 0.25], [-0.25, 0.0]])
        assert abs(action_rate(UNIT, sys2, m, j) - 0.25) < 1e-15

    def test_dead_edge_flux_is_infinite(self):
        sys2 = two_state_system()
        m = Measure.from_u(sys2, [0.0, 2.0])
        j = Flux.from_matrix([[0.0, 0.1], [0.0, 0.0]])
        assert action_rate(COSH, sys2, m, j) == np.inf

    def test_diagonal_flux_is_ignored(self):
        sys3 = three_state_system()
        m = Measure.from_u(sys3, [1.5, 0.5, 1.0])
        j = np.array([[0.0, 0.05, -0.02], [0.01, 0.0, 0.03], [0.0, -0.04, 0.0]])
        on_diagonal = j + np.diag([0.3, -0.2, 0.1])
        assert action_rate(COSH, sys3, m, on_diagonal) == action_rate(COSH, sys3, m, j) < np.inf

    def test_joint_convexity_in_measure_and_flux(self):
        sys3 = three_state_system()
        rng = np.random.default_rng(8)
        for _ in range(40):
            ua, ub = rng.uniform(0.1, 3.0, size=(2, 3))
            ja, jb = rng.uniform(-0.2, 0.2, size=(2, 3, 3))
            lam = rng.uniform()
            args = lambda u, j: (
                COSH,
                sys3,
                Measure.from_u(sys3, u),
                Flux.from_matrix(j),
            )
            mid = action_rate(*args(lam * ua + (1 - lam) * ub, lam * ja + (1 - lam) * jb))
            split = lam * action_rate(*args(ua, ja)) + (1 - lam) * action_rate(
                *args(ub, jb)
            )
            assert mid <= split + 1e-10


class TestFisherIntegrands:
    def test_cosh_boltzmann_closed_form(self):
        tri = fisher_integrands(COSH, BOLTZ, 4.0, 1.0)
        assert abs(tri.envelope - 2.0) < 1e-14
        assert abs(tri.lower - 2.0) < 1e-14

    def test_quadratic_boltzmann_closed_form(self):
        tri = fisher_integrands(QUAD, BOLTZ, math.e, 1.0)
        assert abs(tri.envelope - 0.5 * (math.e - 1.0)) < 1e-14

    def test_boundary_splitting_cosh(self):
        tri = fisher_integrands(COSH, BOLTZ, 0.0, 1.0)
        assert tri.lower == 0.0
        assert tri.envelope == 2.0
        assert tri.upper == np.inf

    def test_boundary_quadratic(self):
        tri = fisher_integrands(QUAD, BOLTZ, 0.0, 1.0)
        assert tri.lower == 0.0
        assert tri.envelope == np.inf and tri.upper == np.inf
        tri0 = fisher_integrands(QUAD, BOLTZ, 0.0, 0.0)
        assert tri0.upper == 0.0 and tri0.envelope == 0.0

    def test_ordering_on_samples(self):
        rng = np.random.default_rng(9)
        u = rng.uniform(0.0, 4.0, size=300)
        v = rng.uniform(0.0, 4.0, size=300)
        for spec in (COSH, QUAD):
            tri = fisher_integrands(spec, BOLTZ, u, v)
            assert np.all(tri.lower <= tri.envelope + 1e-12)
            assert np.all(tri.envelope <= tri.upper + 1e-12)

    def test_scaled_boltzmann_envelope_vanishes_on_boundary(self):
        half = make_entropy("boltzmann", scale=0.5)
        tri = fisher_integrands(COSH, half, 0.0, 1.0)
        assert tri.envelope == 0.0

    def test_homogeneous_cosh_envelope_matches_interior_values(self):
        # the closed-form envelope must coincide with psi*(force)*alpha in
        # the interior, for every (q, gamma) pair with a shipped formula
        rng = np.random.default_rng(10)
        u = rng.uniform(0.05, 4.0, size=200)
        v = rng.uniform(0.05, 4.0, size=200)
        for q in (1.0, 0.5):
            for gam in (1.0, 0.5):
                spec = make_dissipation("cosh", q=q)
                ent = make_entropy("boltzmann", scale=gam)
                tri = fisher_integrands(spec, ent, u, v)
                np.testing.assert_allclose(tri.envelope, tri.lower, atol=1e-11)


class TestFisherInformation:
    def test_multiples_of_pi_are_stationary(self):
        sys3 = three_state_system()
        for c in (0.5, 1.0, 2.0):
            m = Measure.from_u(sys3, np.full(3, c))
            assert fisher_information(COSH, BOLTZ, sys3, m) == 0.0

    def test_hand_value_two_state(self):
        sys2 = two_state_system()
        m = Measure.from_u(sys2, [4.0, 1.0])
        assert abs(fisher_information(COSH, BOLTZ, sys2, m) - 1.0) < 1e-14

    def test_boundary_finite_for_cosh(self):
        sys2 = two_state_system()
        m = Measure.from_u(sys2, [0.0, 1.0])
        assert abs(fisher_information(COSH, BOLTZ, sys2, m) - 1.0) < 1e-14


class TestChainRuleAndDeficit:
    def test_constant_curve(self):
        sys2 = two_state_system()
        m = Measure.from_u(sys2, [1.5, 0.5])
        zero = Flux.from_matrix(np.zeros((2, 2)))
        times = np.linspace(0.0, 1.0, 5)
        states = [m] * 5
        fluxes = [zero] * 4
        assert chain_rule_residual(COSH, BOLTZ, sys2, times, states, fluxes) == 0.0
        rep = energy_dissipation_report(COSH, BOLTZ, sys2, times, states, fluxes)
        # not a solution: the deficit is exactly the (positive) Fisher integral
        assert rep.action_integral == 0.0
        assert rep.deficit == rep.fisher_integral > 0.0

    def test_stationary_multiple_of_pi(self):
        sys3 = three_state_system()
        m = Measure.from_u(sys3, np.full(3, 2.0))
        zero = Flux.from_matrix(np.zeros((3, 3)))
        times = np.linspace(0.0, 1.0, 4)
        rep = energy_dissipation_report(COSH, BOLTZ, sys3, times, [m] * 4, [zero] * 3)
        assert rep.deficit == 0.0
        assert rep.action_integral == 0.0 and rep.fisher_integral == 0.0

    def test_ce_gate(self):
        sys2 = two_state_system()
        zero = Flux.from_matrix(np.zeros((2, 2)))
        states = [
            Measure.from_u(sys2, [1.5, 0.5]),
            Measure.from_u(sys2, [0.5, 1.5]),
        ]
        with pytest.raises(ContinuityEquationViolated):
            energy_dissipation_report(
                COSH, BOLTZ, sys2, [0.0, 1.0], states, [zero]
            )


# ---------------------------------------------------------------------------
# the certificate kernel against a pairwise double loop
# ---------------------------------------------------------------------------

PROPERTY = settings(max_examples=12, deadline=None, derandomize=True, database=None)
DENSITY = st.one_of(st.just(0.0), st.floats(0.05, 3.0))


@st.composite
def detailed_balance_systems(draw):
    """Random pi and symmetric theta on 2-6 states, some pairs with theta = 0."""
    n = draw(st.integers(2, 6))
    pi = np.array(draw(st.lists(st.floats(0.2, 2.0), min_size=n, max_size=n)))
    theta = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            theta[i, j] = theta[j, i] = draw(st.one_of(st.just(0.0), st.floats(0.1, 2.0)))
    return build_system(pi, theta / pi[:, None])


@st.composite
def curves_with_flux(draw):
    """A system and three nodes with two arbitrary (not skew) interval fluxes.

    Densities may vanish, so alpha may be dead under a flux; with `leak`
    the fluxes may also sit on pairs with theta = 0.
    """
    system = draw(detailed_balance_systems())
    n = system.n
    states = [Measure.from_u(system, draw(st.lists(DENSITY, min_size=n, max_size=n)))
              for _ in range(3)]
    leak = draw(st.booleans())
    fluxes = []
    for _ in range(2):
        j = np.reshape(draw(st.lists(st.one_of(st.just(0.0), st.floats(-1.0, 1.0)),
                                     min_size=n * n, max_size=n * n)), (n, n))
        fluxes.append(Flux.from_matrix(j if leak else j * system.edge_mask))
    times = np.array([0.0, draw(st.floats(0.1, 1.0)), 1.5])
    return system, times, states, fluxes


def _pairwise_rows(spec, entropy, system, times, states, fluxes):
    """Energy, Fisher, action and chain rows, one (i, j) pair at a time."""
    n, th = system.n, system.theta
    edges = [(i, j) for i in range(n) for j in range(n) if th[i, j] > 0]

    def half_sum(terms):
        return np.inf if np.inf in terms else 0.5 * sum(terms)

    energy_rows = [sum(float(entropy.phi(u)) * p for u, p in zip(m.u, system.pi))
                   for m in states]
    fisher_rows = [half_sum([fisher_integrands(spec, entropy, m.u[i], m.u[j]).envelope
                             * th[i, j] for i, j in edges]) for m in states]
    action_rows, chain_rows = [], []
    for m, f in enumerate(fluxes):
        u = 0.5 * (states[m].u + states[m + 1].u)
        w = np.zeros((n, n))
        for i, j in edges:
            w[i, j] = 2.0 * f.j[i, j] / th[i, j]
        leaks = any(f.j[i, j] != 0 for i in range(n) for j in range(n)
                    if i != j and th[i, j] == 0)
        costs = [flux_cost(spec, u[i], u[j], w[i, j]) * th[i, j] for i, j in edges]
        action_rows.append(np.inf if leaks else half_sum(costs))
        chain = 0.0
        for i, j in edges:
            skew = 0.5 * (w[i, j] - w[j, i])
            if skew != 0.0:
                chain += edge_force(entropy, u[i], u[j]) * skew * th[i, j]
        chain_rows.append(0.5 * chain)
    return energy_rows, fisher_rows, action_rows, chain_rows


@pytest.mark.parametrize("spec", [
    COSH,
    make_dissipation("cosh", q=0.5),
    QUAD,
    make_dissipation("power_mean", p=-0.5),
    UNIT,
], ids=["cosh", "cosh-q0.5", "quadratic", "power_mean-0.5", "constant_alpha"])
@PROPERTY
@given(curve=curves_with_flux())
def test_kernel_rows_match_pairwise_loop(spec, curve):
    system, times, states, fluxes = curve
    cert = _certify(spec, BOLTZ, system, times, states, fluxes)
    expected = _pairwise_rows(spec, BOLTZ, system, times, states, fluxes)
    for got, want in zip((cert.energy, cert.fisher, cert.action, cert.chain), expected):
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-14)


def test_kernel_infinite_action_cases():
    sys3 = three_state_system()
    sparse = build_system(np.full(3, 1 / 3), np.array(
        [[0.0, 0.6, 0.0], [0.6, 0.0, 0.45], [0.0, 0.45, 0.0]]))
    flat = [Measure.from_u(sparse, [1.0, 1.0, 1.0])] * 2
    leak = Flux.from_matrix([[0.0, 0.0, 0.1], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
    assert _certify(COSH, BOLTZ, sparse, [0.0, 1.0], flat, [leak]).action[0] == np.inf
    dead = [Measure.from_u(sys3, [0.0, 1.0, 1.0])] * 2
    across = Flux.from_matrix([[0.0, 0.1, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
    assert _certify(COSH, BOLTZ, sys3, [0.0, 1.0], dead, [across]).action[0] == np.inf
    assert _certify(UNIT, BOLTZ, sys3, [0.0, 1.0], dead, [across]).action[0] < np.inf


@PROPERTY
@given(system=detailed_balance_systems(), data=st.data())
def test_solver_curves_conserve_mass_and_continuity(system, data):
    n = system.n
    u0 = np.array(data.draw(st.lists(st.floats(0.1, 3.0), min_size=n, max_size=n)))
    curve = solve_forward(system, COSH, BOLTZ, u0, T=0.2, dt=0.05)
    rep = ce_residual(system, curve.times, curve.states, curve.fluxes)
    mass = float(u0 @ system.pi)
    assert rep.residual >= 0.0
    assert rep.mass_drift <= 1e-12 * mass
    assert np.all(np.abs(curve.masses - mass) <= 1e-12 * mass)
