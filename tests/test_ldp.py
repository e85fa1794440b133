import math

import numpy as np
import pytest
from scipy.linalg import expm

from conftest import three_state_system, two_state_system

from ggflow import (
    InvalidDistribution,
    build_system,
    graph_div,
    make_dissipation,
    make_entropy,
)
from ggflow.evolution import solve_forward
from ggflow.ldp import (
    empirical_path,
    eta_perspective,
    gillespie,
    net_flux_cost,
    path_rate,
)

COSH = make_dissipation("cosh")
BOLTZ = make_entropy("boltzmann")


class TestGillespie:
    def test_zero_rates_no_events(self):
        sysz = build_system([0.5, 0.5], [[0.0, 0.0], [0.0, 0.0]])
        ens = gillespie(sysz, n=50, T=1.0, seed=0)
        assert ens.n_events == 0

    @pytest.mark.parametrize("rho0", [
        [1.0, 1.0],  # too short: would sample states 0-1 only
        [1.0, -1.0, 1.0],  # negative weight: would put every walker in state 2
        [1.0, 1.0, 1.0, 5.0],  # too long: would raise a bare IndexError
        [1.0, math.nan, 1.0],
        [0.0, 0.0, 0.0],
        "abc",
    ])
    def test_bad_rho0_raises(self, rho0):
        with pytest.raises(InvalidDistribution, match="rho0"):
            gillespie(three_state_system(), n=20, T=1.0, seed=0, rho0=rho0)

    def test_reproducible_from_seed(self):
        sys3 = three_state_system()
        a = gillespie(sys3, n=40, T=1.0, seed=7)
        b = gillespie(sys3, n=40, T=1.0, seed=7)
        np.testing.assert_array_equal(a.event_times, b.event_times)
        np.testing.assert_array_equal(a.event_to, b.event_to)
        c = gillespie(sys3, n=40, T=1.0, seed=8)
        assert c.n_events != a.n_events or not np.array_equal(
            a.event_times, c.event_times
        )

    def test_event_log_consistency(self):
        sys3 = three_state_system()
        ens = gillespie(sys3, n=30, T=2.0, seed=1)
        assert np.all(np.diff(ens.event_times) >= 0)
        state = ens.initial_states.copy()
        order = np.argsort(ens.event_times, kind="stable")
        for k in order:
            p = ens.event_particles[k]
            assert state[p] == ens.event_from[k]
            state[p] = ens.event_to[k]

    def test_poisson_event_count(self):
        # symmetric 2-state chain with unit exit rates: total events are
        # Poisson with mean n*T, so a 3 sigma band is n*T +- 3 sqrt(n*T)
        sys2 = two_state_system()
        n, T = 10_000, 1.0
        ens = gillespie(sys2, n=n, T=T, seed=0)
        mean = n * T
        assert abs(ens.n_events - mean) <= 3.0 * math.sqrt(mean)

    def test_stationary_time_average(self):
        # time-averaged occupation of state 0 for the symmetric 2-state
        # chain: Var = (2/T^2) int (T-s) pi1 pi2 e^(-2s) ds / n ~ 0.1419/n
        sys2 = two_state_system()
        n, T = 10_000, 1.0
        ens = gillespie(sys2, n=n, T=T, seed=3)
        edges, measures, _ = empirical_path(sys2, ens, bins=200)
        occ = np.array([m.rho[0] for m in measures])
        avg = float(np.trapezoid(occ, edges)) / T
        sigma = math.sqrt(0.1419 / n)
        assert abs(avg - 0.5) <= 3.0 * sigma


class TestUniformizedSampler:
    RHO0 = np.array([0.6, 0.25, 0.15])

    @staticmethod
    def _occupations(system, rho0, T):
        """rho(T) and int_0^T rho dt of the forward equation, from one expm."""
        gen = (system.kappa - np.diag(system.kappa.sum(axis=1))).T
        aug = np.zeros((2 * system.n, 2 * system.n))
        aug[:system.n, :system.n] = gen
        aug[:system.n, system.n:] = np.eye(system.n)
        big = expm(T * aug)
        return big[:system.n, :system.n] @ rho0, big[:system.n, system.n:] @ rho0

    def test_occupation_at_horizon_matches_expm(self):
        sys3 = three_state_system()
        n, T = 4000, 1.5
        ens = gillespie(sys3, n=n, T=T, seed=21, rho0=self.RHO0)
        _, measures, _ = empirical_path(sys3, ens, bins=5)
        p, _ = self._occupations(sys3, self.RHO0, T)
        sigma = np.sqrt(p * (1.0 - p) / n)
        assert np.all(np.abs(measures[-1].rho - p) <= 4.0 * sigma)

    def test_edge_counts_match_expected_flux(self):
        sys3 = three_state_system()
        n, T = 4000, 1.5
        ens = gillespie(sys3, n=n, T=T, seed=22, rho0=self.RHO0)
        _, integral = self._occupations(sys3, self.RHO0, T)
        for i, j in zip(*np.nonzero(sys3.kappa)):
            hit = (ens.event_from == i) & (ens.event_to == j)
            per_particle = np.bincount(ens.event_particles[hit], minlength=n)
            mean = n * integral[i] * sys3.kappa[i, j]
            sigma = math.sqrt(n * per_particle.var(ddof=1))
            assert abs(per_particle.sum() - mean) <= 4.0 * sigma

    def test_particle_paths_do_not_depend_on_n(self):
        sys3 = three_state_system()
        small = gillespie(sys3, n=10, T=2.0, seed=4)
        large = gillespie(sys3, n=40, T=2.0, seed=4)
        mine = large.event_particles < 10
        np.testing.assert_array_equal(small.initial_states, large.initial_states[:10])
        np.testing.assert_array_equal(small.event_times, large.event_times[mine])
        np.testing.assert_array_equal(small.event_particles, large.event_particles[mine])
        np.testing.assert_array_equal(small.event_from, large.event_from[mine])
        np.testing.assert_array_equal(small.event_to, large.event_to[mine])

    def test_zero_rates_divide_nothing(self):
        sysz = build_system([0.25, 0.75], [[0.0, 0.0], [0.0, 0.0]])
        with np.errstate(all="raise"):
            ens = gillespie(sysz, n=200, T=3.0, seed=1)
            _, measures, _ = empirical_path(sysz, ens, bins=4)
        assert ens.n_events == 0
        assert set(ens.initial_states.tolist()) == {0, 1}
        assert measures[0].rho[0] == measures[-1].rho[0]


class TestEmpiricalPath:
    def test_counting_identity_exact(self):
        sys3 = three_state_system()
        ens = gillespie(sys3, n=200, T=1.0, seed=5)
        edges, measures, fluxes = empirical_path(sys3, ens, bins=20)
        for m in range(20):
            drho = measures[m + 1].rho - measures[m].rho
            np.testing.assert_allclose(drho, -graph_div(fluxes[m].j), atol=1e-14)

    def test_no_events_constant_path(self):
        sysz = build_system([0.5, 0.5], [[0.0, 0.0], [0.0, 0.0]])
        ens = gillespie(sysz, n=50, T=1.0, seed=0)
        _, measures, fluxes = empirical_path(sysz, ens, bins=10)
        for m in measures[1:]:
            np.testing.assert_array_equal(m.rho, measures[0].rho)
        for f in fluxes:
            assert np.all(f.j == 0.0)

    def test_law_of_large_numbers_gap(self):
        sys3 = three_state_system()
        rho0 = np.array([0.6, 0.25, 0.15])
        ode = solve_forward(sys3, COSH, BOLTZ, rho0 / sys3.pi, T=1.0, dt=0.01)
        ens = gillespie(sys3, n=10_000, T=1.0, seed=2, rho0=rho0)
        edges, measures, _ = empirical_path(sys3, ens, bins=100)
        gap = 0.0
        for t, m in zip(edges, measures):
            k = int(np.argmin(np.abs(ode.times - t)))
            gap = max(gap, float(np.abs(m.rho - ode.states[k].rho).sum()))
        assert gap <= 0.05


class TestPathRate:
    def test_expectation_matching_path_scores_zero(self):
        sys3 = three_state_system()
        from ggflow import Flux, Measure

        times = np.linspace(0.0, 1.0, 11)
        rho = np.array([0.5, 0.3, 0.2])
        measures = [Measure.from_rho(sys3, rho)] * 11
        fluxes = [
            Flux.from_matrix(rho[:, None] * sys3.kappa * 0.1) for _ in range(10)
        ]
        assert path_rate(sys3, times, measures, fluxes) == 0.0

    def test_doubled_flux_pays_eta_of_two(self):
        sys3 = three_state_system()
        from ggflow import Flux, Measure

        times = np.linspace(0.0, 1.0, 11)
        rho = np.array([0.5, 0.3, 0.2])
        measures = [Measure.from_rho(sys3, rho)] * 11
        expected = rho[:, None] * sys3.kappa * 0.1
        fluxes = [Flux.from_matrix(2.0 * expected) for _ in range(10)]
        rate = path_rate(sys3, times, measures, fluxes)
        eta2 = 2.0 * math.log(2.0) - 1.0
        total_intensity = float((rho[:, None] * sys3.kappa).sum())
        assert abs(rate - eta2 * total_intensity) < 1e-12
        assert rate > 0.5 * total_intensity * eta2

    def test_empirical_rate_decreases_with_n(self):
        sys3 = three_state_system()
        rates = {}
        for n in (1_000, 10_000):
            ens = gillespie(sys3, n=n, T=1.0, seed=11)
            edges, measures, fluxes = empirical_path(sys3, ens, bins=100)
            rates[n] = path_rate(sys3, edges, measures, fluxes)
        assert rates[10_000] < rates[1_000]
        assert rates[10_000] <= 0.05


class TestNetFluxCost:
    def test_zero_flux_equal_rates(self):
        closed, brute = net_flux_cost(COSH, 0.0, 1.3, 1.3)
        assert abs(closed) < 1e-14
        assert abs(brute) < 1e-9

    def test_symmetric_example(self):
        closed, brute = net_flux_cost(COSH, 0.5, 1.0, 1.0)
        assert abs(closed - 0.5 * float(COSH.psi(1.0))) < 1e-14
        assert abs(closed - brute) < 1e-8

    def test_asymmetric_example(self):
        closed, brute = net_flux_cost(COSH, 0.3, 2.0, 0.5)
        assert abs(closed - brute) < 1e-8

    def test_random_sweep(self):
        rng = np.random.default_rng(17)
        for _ in range(100):
            s = rng.uniform(-2.0, 2.0)
            c = float(np.exp(rng.uniform(np.log(0.05), np.log(5.0))))
            d = float(np.exp(rng.uniform(np.log(0.05), np.log(5.0))))
            closed, brute = net_flux_cost(COSH, s, c, d)
            assert abs(closed - brute) < 1e-8

    def test_eta_perspective_conventions(self):
        assert eta_perspective(0.0, 0.7) == 0.7
        assert eta_perspective(0.3, 0.0) == math.inf
        assert eta_perspective(0.5, 0.5) == 0.0
