import math

import numpy as np
import pytest
from scipy.integrate import quad

from ggflow import (
    NonConcaveAlpha,
    UnsupportedParameter,
    compatibility_residual,
    edge_force,
    flux_cost,
    flux_field,
    make_dissipation,
    make_entropy,
)
import ggflow.potentials
from ggflow.potentials import (
    _gauss_quad_odd,
    _numeric_conjugate,
    dissipation_from_dict,
    entropy_from_dict,
    invert_increasing_odd,
    logarithmic_mean,
    power_mean,
    stolarsky_mean,
)

COSH = make_dissipation("cosh")
QUAD = make_dissipation("quadratic")
BOLTZ = make_entropy("boltzmann")


def admissible_specs():
    return [
        COSH,
        QUAD,
        make_dissipation("power_mean", p=-1.0),
        make_dissipation("power_mean", p=-0.5),
        make_dissipation("constant_alpha"),
    ]


class TestFamilies:
    def test_cosh_closed_value(self):
        # cosh(log 2) = (2 + 1/2)/2 = 5/4, so psi*(2 log 2) = 4(5/4 - 1) = 1
        assert abs(float(COSH.psi_star(2.0 * math.log(2.0))) - 1.0) < 1e-14

    def test_geometric_mean_value(self):
        pm0 = make_dissipation("power_mean", p=0.0)
        assert abs(float(pm0.alpha(4.0, 1.0)) - 2.0) < 1e-14

    def test_logarithmic_mean_value(self):
        assert abs(float(QUAD.alpha(math.e, 1.0)) - (math.e - 1.0)) < 1e-14

    def test_psi_star_vanishes_at_zero(self):
        for spec in admissible_specs():
            assert abs(float(spec.psi_star(0.0))) < 1e-12

    def test_arithmetic_mean_rejected(self):
        with pytest.raises(UnsupportedParameter):
            make_dissipation("power_mean", p=1.0)

    def test_nonconcave_custom_rejected(self):
        with pytest.raises(NonConcaveAlpha):
            make_dissipation(
                "custom",
                alpha=lambda u, v: np.asarray(u) ** 2 + np.asarray(v) ** 2,
                psi_star=lambda x: 0.5 * np.asarray(x) ** 2,
                psi_star_prime=lambda x: np.asarray(x),
                alpha_concave_asserted=True,
            )

    def test_serialization_round_trip(self):
        spec = dissipation_from_dict(make_dissipation("power_mean", p=-1.0).to_dict())
        assert spec.params["p"] == -1.0
        ent = entropy_from_dict(make_entropy("boltzmann", scale=0.5).to_dict())
        assert ent.params["scale"] == 0.5


class TestDualityInvariants:
    def test_superlinearity_at_large_arguments(self):
        for spec in admissible_specs():
            for xi in (1e3, -1e3):
                ratio = float(spec.psi_star(xi)) / abs(xi)
                assert ratio > 10.0 * float(spec.psi_star(1.0))

    def test_psi_star_even(self):
        xs = np.linspace(0.0, 6.0, 13)
        for spec in admissible_specs():
            np.testing.assert_allclose(
                np.asarray(spec.psi_star(xs), dtype=float),
                np.asarray(spec.psi_star(-xs), dtype=float),
                rtol=1e-10,
            )

    def test_psi_star_prime_odd_increasing(self):
        xs = np.linspace(-8.0, 8.0, 41)
        for spec in admissible_specs():
            g = np.asarray(spec.psi_star_prime(xs), dtype=float)
            np.testing.assert_allclose(g, -g[::-1], atol=1e-9)
            assert np.all(np.diff(g) > 0)

    def test_psi_even_positive_strictly_convex(self):
        ss = np.linspace(-5.0, 5.0, 21)
        for spec in admissible_specs():
            vals = np.asarray(spec.psi(ss), dtype=float)
            np.testing.assert_allclose(vals, vals[::-1], atol=1e-9)
            assert abs(float(spec.psi(0.0))) < 1e-10
            assert np.all(vals[ss != 0] > 0)
            # strict midpoint convexity and monotonicity on [0, inf)
            mids = 0.5 * (vals[:-2] + vals[2:])
            assert np.all(mids - vals[1:-1] > 1e-12)
            pos = np.asarray(spec.psi(np.linspace(0.1, 6.0, 15)), dtype=float)
            assert np.all(np.diff(pos) > 0)

    def test_fenchel_young(self):
        rng = np.random.default_rng(7)
        ss = rng.uniform(-4.0, 4.0, size=12)
        xis = rng.uniform(-4.0, 4.0, size=12)
        for spec in admissible_specs():
            for s in ss:
                ps = float(spec.psi(s))
                for xi in xis:
                    assert ps + float(spec.psi_star(xi)) >= s * xi - 1e-10
                xi_star = float(spec.psi_prime(s))
                gap = ps + float(spec.psi_star(xi_star)) - s * xi_star
                assert abs(gap) < 1e-8

    def test_cosh_closed_psi_matches_numeric_conjugate(self):
        # the closed form must be the true conjugate (psi(0) = 0 pins the
        # additive constant)
        ss = np.linspace(-6.0, 6.0, 25)
        xi = invert_increasing_odd(COSH.psi_star_prime, ss)
        numeric = ss * xi - np.asarray(COSH.psi_star(xi))
        np.testing.assert_allclose(np.asarray(COSH.psi(ss)), numeric, atol=1e-10)
        assert float(COSH.psi(0.0)) == 0.0

    def test_harmonic_mean_dual_is_shifted_cosh(self):
        # independent quadrature of the generating integral
        pm = make_dissipation("power_mean", p=-1.0)
        for xi in (0.3, 1.0, 2.5, 4.0):
            integral = quad(
                lambda r: (r - 1.0) / (2.0 * r / (1.0 + r)) / r, 1.0, math.exp(xi)
            )[0]
            assert abs(integral - (math.cosh(xi) - 1.0)) < 1e-8
            assert abs(float(pm.psi_star(xi)) - (math.cosh(xi) - 1.0)) < 1e-8

    def test_harmonic_numeric_conjugate_against_closed_form(self):
        pm = make_dissipation("power_mean", p=-1.0)
        psi, _ = _numeric_conjugate(pm.psi_star, pm.psi_star_prime)
        ss = np.linspace(-3.0, 3.0, 13)
        expected = ss * np.arcsinh(ss) - np.sqrt(1.0 + ss * ss) + 1.0
        np.testing.assert_allclose(np.asarray(psi(ss)), expected, atol=1e-9)

    def test_min_mean_numeric_conjugate_against_closed_form(self):
        pm = make_dissipation("power_mean", p=-np.inf)
        psi, _ = _numeric_conjugate(pm.psi_star, pm.psi_star_prime)
        ss = np.linspace(-3.0, 3.0, 13)
        expected = (1.0 + np.abs(ss)) * np.log(1.0 + np.abs(ss)) - np.abs(ss)
        np.testing.assert_allclose(np.asarray(psi(ss)), expected, atol=1e-9)

    @pytest.mark.parametrize("p", [-1.0, -np.inf])
    def test_closed_form_duals_match_numeric_conjugate(self, p):
        pm = make_dissipation("power_mean", p=p)
        psi, psi_prime = _numeric_conjugate(pm.psi_star, pm.psi_star_prime)
        ss = np.linspace(-6.0, 6.0, 25)
        np.testing.assert_allclose(np.asarray(pm.psi(ss)), psi(ss), atol=1e-9)
        np.testing.assert_allclose(np.asarray(pm.psi_prime(ss)), psi_prime(ss), atol=1e-12)


NUMERIC_DUALS = [("power_mean", {"p": -0.5}), ("stolarsky", {"p": 1.0, "q": 0.0}),
                 ("stolarsky", {"p": 2.0, "q": 1.0})]


class TestNumericDual:
    @pytest.mark.parametrize("family, params", NUMERIC_DUALS)
    def test_panel_quadrature_against_scipy_quad(self, family, params):
        g = make_dissipation(family, **params).psi_star_prime
        finite = np.array([0.0, 1e-6, -1e-6, 0.3, -0.3, 2.5, -2.5, 40.0, -40.0])
        got = _gauss_quad_odd(g, np.append(finite, [np.inf, -np.inf]))
        for x, val in zip(finite, got):
            want = quad(lambda t: float(g(t)), 0.0, abs(x), epsabs=0.0, epsrel=1e-11,
                        limit=200)[0]
            # to the reference's own requested accuracy
            assert abs(val - want) <= 1e-11 * abs(want)
            assert _gauss_quad_odd(g, x) == val
        assert np.all(got[-2:] == np.inf)

    @pytest.mark.parametrize("family, params, f_of_s", [
        ("power_mean", {"p": -0.5}, lambda s: (0.5 * (math.exp(-0.5 * s) + 1.0)) ** -2.0),
        ("stolarsky", {"p": 1.0, "q": 0.0}, lambda s: math.expm1(s) / s),
    ], ids=["power_mean", "stolarsky"])
    def test_generating_derivative_near_zero(self, family, params, f_of_s):
        # (Psi*)'(s) = (e^s - 1)/f(e^s); e^s - 1 must not cancel
        g = make_dissipation(family, **params).psi_star_prime
        for s in (1e-4, -1e-4, 1e-6, -1e-6, 1e-8, -1e-8):
            want = math.expm1(s) / f_of_s(s)
            assert abs(float(g(s)) - want) <= 1e-14 * abs(want)

    @pytest.mark.parametrize("s", [1e-4, 1e-6, 1e-8])
    def test_stolarsky_general_branch_near_diagonal(self, s):
        # stolarsky(2, 1) is the arithmetic mean; u ~ v must not cancel
        for u, v in ((1.0, math.exp(s)), (math.exp(s), 1.0), (3.0, 3.0 * math.exp(-s))):
            got = float(stolarsky_mean(u, v, 2.0, 1.0))
            assert abs(got - 0.5 * (u + v)) <= 1e-14 * 0.5 * (u + v)

    def test_panel_quadrature_across_chunks(self):
        g = make_dissipation("power_mean", p=-0.5).psi_star_prime
        xs = np.linspace(-40.0, 40.0, 801).reshape(3, 267)
        panels = np.ceil(2.0 * np.abs(xs)).sum()
        assert panels > ggflow.potentials._QUAD_CHUNK
        got = _gauss_quad_odd(g, xs)
        assert got.shape == xs.shape
        singles = np.array([_gauss_quad_odd(g, x) for x in xs.ravel()]).reshape(xs.shape)
        np.testing.assert_allclose(got, singles, rtol=1e-14, atol=0.0)

    @pytest.mark.parametrize("family, params", NUMERIC_DUALS)
    def test_psi_pair_shares_one_inversion(self, family, params, monkeypatch):
        ss = np.random.default_rng(3).uniform(-5.0, 5.0, size=(3, 4, 6))
        fresh_psi = make_dissipation(family, **params).psi(ss)
        fresh_prime = make_dissipation(family, **params).psi_prime(ss)
        spec = make_dissipation(family, **params)
        calls = []
        real = ggflow.potentials.invert_increasing_odd
        monkeypatch.setattr(ggflow.potentials, "invert_increasing_odd",
                            lambda g, s: calls.append(1) or real(g, s))
        psi, prime = spec.psi(ss), spec.psi_prime(ss)
        assert len(calls) == 1
        assert np.array_equal(psi, fresh_psi) and np.array_equal(prime, fresh_prime)
        prime[...] = 0.0  # the caller owns what it gets back
        assert np.array_equal(spec.psi_prime(ss), fresh_prime)

    def test_mutated_argument_is_inverted_again(self):
        spec = make_dissipation("power_mean", p=-0.5)
        ss = np.linspace(-4.0, 4.0, 9)
        spec.psi(ss)
        ss *= 0.5
        want = make_dissipation("power_mean", p=-0.5).psi_prime(ss)
        assert np.array_equal(spec.psi_prime(ss), want)


class TestAlphaProperties:
    def test_symmetry_and_interior_positivity(self):
        rng = np.random.default_rng(11)
        u = rng.uniform(0.01, 10.0, size=200)
        v = rng.uniform(0.01, 10.0, size=200)
        for spec in admissible_specs():
            np.testing.assert_allclose(spec.alpha(u, v), spec.alpha(v, u), atol=1e-12)
            assert np.all(np.asarray(spec.alpha(u, v)) > 0)

    def test_sampled_concavity(self):
        rng = np.random.default_rng(12)
        a = rng.uniform(0.0, 5.0, size=(500, 2))
        b = rng.uniform(0.0, 5.0, size=(500, 2))
        for spec in admissible_specs():
            mid = np.asarray(spec.alpha(*(0.5 * (a + b)).T))
            avg = 0.5 * (np.asarray(spec.alpha(*a.T)) + np.asarray(spec.alpha(*b.T)))
            assert np.all(mid >= avg - 1e-10)

    def test_power_mean_monotone_in_p(self):
        rng = np.random.default_rng(13)
        u = rng.uniform(0.1, 5.0, size=50)
        v = rng.uniform(0.1, 5.0, size=50)
        ps = [-np.inf, -2.0, -1.0, -0.5, 0.0, 0.5]
        vals = [power_mean(u, v, p) for p in ps]
        for lo, hi in zip(vals[:-1], vals[1:]):
            assert np.all(hi >= lo - 1e-12)

    def test_logarithmic_mean_between_geometric_and_arithmetic(self):
        rng = np.random.default_rng(14)
        u = rng.uniform(0.01, 20.0, size=100)
        v = rng.uniform(0.01, 20.0, size=100)
        lm = logarithmic_mean(u, v)
        assert np.all(lm >= np.sqrt(u * v) - 1e-12)
        assert np.all(lm <= 0.5 * (u + v) + 1e-12)

    def test_stolarsky_family_constructs_and_matches_special_cases(self):
        st = make_dissipation("stolarsky", p=0.0, q=0.0)
        assert abs(float(st.alpha(4.0, 1.0)) - 2.0) < 1e-12
        st2 = make_dissipation("stolarsky", p=1.0, q=0.0)  # logarithmic mean
        assert abs(float(st2.alpha(math.e, 1.0)) - (math.e - 1.0)) < 1e-9


class TestPerspectiveCost:
    def test_zero_flux_costs_nothing(self):
        rng = np.random.default_rng(21)
        u = rng.uniform(0.0, 3.0, size=20)
        v = rng.uniform(0.0, 3.0, size=20)
        for spec in admissible_specs():
            assert np.all(np.asarray(flux_cost(spec, u, v, 0.0)) == 0.0)

    def test_unit_alpha_reduces_to_psi(self):
        ss = np.linspace(-3.0, 3.0, 11)
        vals = flux_cost(COSH, 1.0, 1.0, ss)
        np.testing.assert_allclose(vals, np.asarray(COSH.psi(ss)), atol=1e-12)

    def test_vanishing_alpha_with_flux_is_infinite(self):
        assert flux_cost(COSH, 0.0, 1.0, 0.1) == np.inf
        assert flux_cost(COSH, 0.0, 1.0, 0.0) == 0.0

    def test_joint_convexity_on_samples(self):
        rng = np.random.default_rng(22)
        for spec in (COSH, QUAD):
            a = rng.uniform(0.05, 4.0, size=(200, 2))
            b = rng.uniform(0.05, 4.0, size=(200, 2))
            wa = rng.uniform(-2.0, 2.0, size=200)
            wb = rng.uniform(-2.0, 2.0, size=200)
            lam = rng.uniform(0.0, 1.0, size=200)
            mid_u = lam * a[:, 0] + (1 - lam) * b[:, 0]
            mid_v = lam * a[:, 1] + (1 - lam) * b[:, 1]
            mid_w = lam * wa + (1 - lam) * wb
            lhs = np.asarray(flux_cost(spec, mid_u, mid_v, mid_w))
            rhs = lam * np.asarray(flux_cost(spec, a[:, 0], a[:, 1], wa)) + (
                1 - lam
            ) * np.asarray(flux_cost(spec, b[:, 0], b[:, 1], wb))
            assert np.all(lhs <= rhs + 1e-10)

    def test_one_homogeneity(self):
        rng = np.random.default_rng(23)
        u = rng.uniform(0.1, 3.0, size=30)
        v = rng.uniform(0.1, 3.0, size=30)
        w = rng.uniform(-2.0, 2.0, size=30)
        base = np.asarray(flux_cost(COSH, u, v, w))
        for lam in (0.5, 2.0, 10.0):
            scaled = np.asarray(flux_cost(COSH, lam * u, lam * v, lam * w))
            np.testing.assert_allclose(scaled, lam * base, rtol=1e-10)


class TestFieldAndCompatibility:
    def test_edge_force_conventions(self):
        assert edge_force(BOLTZ, 1.0, 1.0) == 0.0
        assert abs(edge_force(BOLTZ, 1.0, math.e) - 1.0) < 1e-14
        assert edge_force(BOLTZ, 0.0, 1.0) == np.inf
        assert edge_force(BOLTZ, 1.0, 0.0) == -np.inf
        assert edge_force(BOLTZ, 0.0, 0.0) == 0.0

    def test_cosh_boltzmann_field_value(self):
        # 2 sqrt(uv) sinh(log(v/u)/2) collapses to v - u
        assert abs(flux_field(COSH, BOLTZ, 4.0, 1.0) + 3.0) < 1e-12

    def test_field_vanishes_on_diagonal(self):
        rng = np.random.default_rng(31)
        for spec in admissible_specs():
            for u in rng.uniform(0.05, 5.0, size=10):
                assert abs(flux_field(spec, BOLTZ, u, u)) < 1e-12

    def test_quadratic_boltzmann_field_value(self):
        assert abs(flux_field(QUAD, BOLTZ, math.e, 1.0) - (1.0 - math.e)) < 1e-12

    def test_field_zero_when_alpha_vanishes(self):
        assert flux_field(COSH, BOLTZ, 0.0, 1.0) == 0.0

    def test_compatibility_cosh_and_quadratic(self):
        grid = np.logspace(-2, 2, 100)
        assert compatibility_residual(COSH, BOLTZ, grid) <= 1e-10
        assert compatibility_residual(QUAD, BOLTZ, grid) <= 1e-10

    def test_incompatible_pair_has_large_residual(self):
        grid = np.logspace(-2, 2, 30)
        res = compatibility_residual(COSH, make_entropy("quadratic"), grid)
        assert res > 0.1

    def test_power_mean_compatibility(self):
        grid = np.logspace(-1, 1, 20)
        pm = make_dissipation("power_mean", p=-1.0)
        assert compatibility_residual(pm, BOLTZ, grid) <= 1e-8


class TestEntropies:
    def test_nonnegative_convex_superlinear(self):
        specs = [BOLTZ, make_entropy("quadratic"), make_entropy("power", a=2.5)]
        ss = np.linspace(0.0, 10.0, 41)
        for ent in specs:
            vals = np.asarray(ent.phi(ss))
            assert np.all(vals >= -1e-14)
            mids = 0.5 * (vals[:-2] + vals[2:])
            assert np.all(mids >= vals[1:-1] - 1e-12)
            assert float(ent.phi(1e6)) / 1e6 > float(ent.phi(1e3)) / 1e3

    def test_boltzmann_values(self):
        assert abs(float(BOLTZ.phi(1.0))) < 1e-15
        assert float(BOLTZ.phi(0.0)) == 1.0
        assert BOLTZ.phi_prime_zero == -np.inf

    def test_scaled_boltzmann(self):
        half = make_entropy("boltzmann", scale=0.5)
        assert abs(float(half.phi(2.0)) - 0.5 * (2 * math.log(2) - 1)) < 1e-14
