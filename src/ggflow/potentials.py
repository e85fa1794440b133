"""Dissipation structures (Psi*, alpha), entropy densities, and the fields
they generate.

A dissipation structure pairs an even convex superlinear function Psi* (with
Legendre dual Psi) and a concave symmetric nonnegative edge weight
alpha(u, v).  Together with an entropy density phi they induce

* the perspective cost  flux_cost(u, v, w) = Psi(w / alpha) * alpha,
* the edge force        edge_force(u, v)   = phi'(v) - phi'(u),
* the flux field        flux_field(u, v)   = (Psi*)'(force) * alpha,

with the boundary conventions 0 * inf = 0 and alpha = 0, w != 0 -> +inf.
Structures whose flux field reduces to v - u reproduce the linear forward
equation of the underlying jump process; `compatibility_residual` measures
the defect from that identity.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cache
from typing import Callable, Optional

import numpy as np

from .errors import NonConcaveAlpha, UnsupportedParameter

_TINY = 1e-300


# ---------------------------------------------------------------------------
# entropy densities
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EntropySpec:
    """Convex energy density phi on [0, inf), C^1 on (0, inf), min phi = 0."""

    name: str
    params: dict
    phi: Callable
    phi_prime: Callable
    phi_prime_zero: float  # limit of phi' at 0+, may be -inf

    def to_dict(self):
        if self.name == "custom":
            raise ValueError("custom entropies are not serializable")
        return {"family": self.name, "params": self.params}

    def to_json(self):
        return json.dumps(self.to_dict(), sort_keys=True)


def make_entropy(name, **params):
    """Catalogue of entropy densities.

    boltzmann(scale=1): scale * (s log s - s + 1)
    quadratic:          s^2 / 2
    power(a):           (s^a - a s + a - 1)/(a - 1), a > 1
    custom:             phi, phi_prime callables plus phi_prime_zero
    """
    if name == "boltzmann":
        scale = float(params.get("scale", 1.0))
        if not 0.0 < scale <= 1.0:
            raise UnsupportedParameter(f"boltzmann scale must be in (0,1], got {scale}")

        def phi(s, scale=scale):
            s = np.asarray(s, dtype=float)
            slog = np.where(s > 0, s * np.log(np.maximum(s, _TINY)), 0.0)
            return scale * (slog - s + 1.0)

        def phi_prime(s, scale=scale):
            s = np.asarray(s, dtype=float)
            with np.errstate(divide="ignore"):
                return scale * np.log(s)

        return EntropySpec("boltzmann", {"scale": scale}, phi, phi_prime, -np.inf)

    if name == "quadratic":
        return EntropySpec(
            "quadratic", {},
            lambda s: 0.5 * np.asarray(s, dtype=float) ** 2,
            lambda s: np.asarray(s, dtype=float),
            0.0,
        )

    if name == "power":
        a = float(params["a"])
        if a <= 1.0:
            raise UnsupportedParameter(f"power entropy needs a > 1, got {a}")

        def phi(s, a=a):
            s = np.asarray(s, dtype=float)
            return (s ** a - a * s + a - 1.0) / (a - 1.0)

        def phi_prime(s, a=a):
            s = np.asarray(s, dtype=float)
            return a * (s ** (a - 1.0) - 1.0) / (a - 1.0)

        return EntropySpec("power", {"a": a}, phi, phi_prime, -a / (a - 1.0))

    if name == "custom":
        return EntropySpec(
            "custom", {}, params["phi"], params["phi_prime"],
            float(params.get("phi_prime_zero", params["phi_prime"](1e-12))),
        )

    raise UnsupportedParameter(f"unknown entropy family {name!r}")


def entropy_from_dict(d):
    return make_entropy(d["family"], **d.get("params", {}))


# ---------------------------------------------------------------------------
# stable means
# ---------------------------------------------------------------------------

def logarithmic_mean(u, v):
    """(u - v)/(log u - log v), continued by u on the diagonal, 0 on zeros."""
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    u, v = np.broadcast_arrays(u, v)
    out = np.zeros(u.shape)
    pos = (u > 0) & (v > 0)
    near = pos & (np.abs(u - v) <= 1e-8 * (u + v))
    gen = pos & ~near
    with np.errstate(divide="ignore", invalid="ignore"):
        out[gen] = (u[gen] - v[gen]) / (np.log(u[gen]) - np.log(v[gen]))
    out[near] = 0.5 * (u[near] + v[near])
    return out


def _logmean_grad_u(u, v):
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    u, v = np.broadcast_arrays(u, v)
    uc = np.maximum(u, _TINY)
    vc = np.maximum(v, _TINY)
    ell = np.log(uc) - np.log(vc)
    near = np.abs(u - v) <= 1e-6 * (u + v)
    with np.errstate(divide="ignore", invalid="ignore"):
        lm = logarithmic_mean(uc, vc)
        g = (1.0 - lm / uc) / ell
    return np.where(near, 0.5, g)


def power_mean(u, v, p):
    """m_p(u, v); m_0 is the geometric mean, m_{-inf} the minimum."""
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    u, v = np.broadcast_arrays(u, v)
    if p == 0.0:
        return np.sqrt(u * v)
    if np.isneginf(p):
        return np.minimum(u, v)
    both = (u > 0) & (v > 0)
    out = np.zeros(u.shape)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        vals = (0.5 * (u ** p + v ** p)) ** (1.0 / p)
    out[both] = vals[both]
    if p > 0:
        only_u = (u > 0) & (v == 0)
        only_v = (v > 0) & (u == 0)
        out[only_u] = u[only_u] * 0.5 ** (1.0 / p)
        out[only_v] = v[only_v] * 0.5 ** (1.0 / p)
    return out


def stolarsky_mean(u, v, p, q):
    """Two-parameter Stolarsky mean family; symmetric and 1-homogeneous."""
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    u, v = np.broadcast_arrays(u, v)
    uc = np.maximum(u, _TINY)
    vc = np.maximum(v, _TINY)
    near = np.abs(u - v) <= 1e-9 * (u + v)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        if p == 0.0 and q == 0.0:
            vals = np.sqrt(uc * vc)
        elif p == q:
            ell = uc ** p - vc ** p
            vals = np.exp(-1.0 / p) * np.exp(
                (uc ** p * np.log(uc) - vc ** p * np.log(vc)) / ell
            )
        elif q == 0.0:
            vals = ((vc ** p - uc ** p) / (p * (np.log(vc) - np.log(uc)))) ** (1.0 / p)
        elif p == 0.0:
            vals = ((uc ** q - vc ** q) / (q * (np.log(uc) - np.log(vc)))) ** (1.0 / q)
        else:
            # base * f(s) with s = log(other/base) and expm1 does not cancel
            # for u ~ v; the mean is symmetric, so the base is the larger value
            # when p + q >= 0 (the smaller otherwise), so expm1 stays finite
            # whenever p and q share a sign
            lo, hi = np.minimum(uc, vc), np.maximum(uc, vc)
            base, other = (hi, lo) if p + q >= 0 else (lo, hi)
            s = np.log(other / base)
            vals = base * ((p / q) * np.expm1(q * s) / np.expm1(p * s)) ** (1.0 / (q - p))
    vals = np.where(near, 0.5 * (u + v), vals)
    both = (u > 0) & (v > 0)
    # boundary by continuity: evaluate the formula at a tiny floor
    return np.where(both, vals, np.where((u == 0) & (v == 0), 0.0, vals))


# ---------------------------------------------------------------------------
# numeric Legendre machinery
# ---------------------------------------------------------------------------

def invert_increasing_odd(g, s, iters=80):
    """Solve g(x) = s for an odd, strictly increasing g (vectorized bisection)."""
    s = np.asarray(s, dtype=float)
    sa = np.abs(s)
    hi = np.ones_like(sa)
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(1100):
            need = g(hi) < sa
            if not need.any():
                break
            hi = np.where(need, 2.0 * hi, hi)
    lo = np.zeros_like(sa)
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        with np.errstate(over="ignore", invalid="ignore"):
            below = g(mid) < sa
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
    return np.sign(s) * 0.5 * (lo + hi)


_QUAD_CHUNK = 2 ** 14  # panels per call of the integrand
# 16-point Gauss-Legendre nodes and weights, on first use: numpy.polynomial
# takes about 3.6 ms to import, which set-ups without a numeric dual skip
_leggauss16 = cache(lambda: np.polynomial.legendre.leggauss(16))


def _gauss_quad_odd(g, xi):
    """Integral of an odd integrand g from 0 to xi, vectorized in xi.

    ceil(2 |xi|) panels of 16-point Gauss-Legendre per element, laid end to
    end over all elements; g sees _QUAD_CHUNK panels at a time.
    """
    nodes, weights = _leggauss16()
    xi = np.asarray(xi, dtype=float)
    xa = np.abs(xi).ravel()
    out = np.where(np.isfinite(xa), 0.0, np.inf)
    live = np.flatnonzero(np.isfinite(xa) & (xa > 0.0))
    b = xa[live]
    npan = np.maximum(1, np.ceil(2.0 * b)).astype(np.int64)
    owner = np.repeat(np.arange(b.size), npan)
    k = np.arange(owner.size) - np.repeat(np.cumsum(npan) - npan, npan)
    sums = np.zeros(b.size)
    for a in range(0, owner.size, _QUAD_CHUNK):
        o, kk = owner[a:a + _QUAD_CHUNK], k[a:a + _QUAD_CHUNK]
        # the panel edges of np.linspace(0, b, npan + 1)
        h = b[o] / npan[o]
        lo, hi = kk * h, np.where(kk + 1 == npan[o], b[o], (kk + 1) * h)
        mid, half = 0.5 * (hi + lo), 0.5 * (hi - lo)
        pts = mid[:, None] + half[:, None] * nodes[None, :]
        with np.errstate(over="ignore", invalid="ignore"):
            panel = (half[:, None] * weights[None, :] * g(pts)).sum(axis=1)
            sums += np.bincount(o, weights=panel, minlength=b.size)
    out[live] = np.where(np.isfinite(sums), sums, np.inf)  # overflow: superlinear blowup
    return float(out[0]) if xi.ndim == 0 else out.reshape(xi.shape)


# ---------------------------------------------------------------------------
# dissipation structures
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DissipationSpec:
    """A (Psi*, alpha) pair with derived objects.

    psi / psi_prime are the Legendre dual and its derivative, in closed form
    where the family admits one and otherwise via the numeric conjugate: a
    bisection for xi = ((Psi*)')^{-1}(s) that psi and psi_prime share on one
    array, and Psi* by Gauss-Legendre panels over all elements at once.
    alpha_grad_u gives d alpha / d u, clamped near the boundary of the
    quadrant; it exists for every shipped family and is what the transport
    solvers differentiate.
    """

    name: str
    params: dict
    psi_star: Callable
    psi_star_prime: Callable
    psi: Callable
    psi_prime: Callable
    alpha: Callable
    alpha_grad_u: Optional[Callable]
    alpha_recession_vanishes: bool
    one_homogeneous: bool = True

    def to_dict(self):
        if self.name == "custom":
            raise ValueError("custom dissipation structures are not serializable")
        params = {k: v for k, v in self.params.items() if not callable(v)}
        return {"family": self.name, "params": params}

    def to_json(self):
        return json.dumps(self.to_dict(), sort_keys=True)


def dissipation_from_dict(d):
    return make_dissipation(d["family"], **d.get("params", {}))


def _cosh_family(q=1.0):
    if not 0.0 < q <= 1.0:
        raise UnsupportedParameter(f"cosh homogeneity must be in (0,1], got {q}")

    def psi_star(xi, q=q):
        xi = np.asarray(xi, dtype=float)
        with np.errstate(over="ignore"):
            return (4.0 / q) * (np.cosh(0.5 * q * xi) - 1.0)

    def psi_star_prime(xi, q=q):
        xi = np.asarray(xi, dtype=float)
        with np.errstate(over="ignore"):
            return 2.0 * np.sinh(0.5 * q * xi)

    def psi(s, q=q):
        s = np.asarray(s, dtype=float)
        return (2.0 * s * np.arcsinh(0.5 * s) - 2.0 * np.sqrt(s * s + 4.0) + 4.0) / q

    def psi_prime(s, q=q):
        return (2.0 / q) * np.arcsinh(0.5 * np.asarray(s, dtype=float))

    def alpha(u, v, q=q):
        return (np.asarray(u, dtype=float) * np.asarray(v, dtype=float)) ** (0.5 * q)

    def alpha_grad_u(u, v, q=q):
        u = np.maximum(np.asarray(u, dtype=float), 1e-12)
        v = np.maximum(np.asarray(v, dtype=float), 0.0)
        return 0.5 * q * u ** (0.5 * q - 1.0) * v ** (0.5 * q)

    return DissipationSpec(
        "cosh", {"q": q}, psi_star, psi_star_prime, psi, psi_prime,
        alpha, alpha_grad_u, alpha_recession_vanishes=True,
        one_homogeneous=(q == 1.0),
    )


def _quadratic_family():
    return DissipationSpec(
        "quadratic", {},
        psi_star=lambda xi: 0.5 * np.asarray(xi, dtype=float) ** 2,
        psi_star_prime=lambda xi: np.asarray(xi, dtype=float),
        psi=lambda s: 0.5 * np.asarray(s, dtype=float) ** 2,
        psi_prime=lambda s: np.asarray(s, dtype=float),
        alpha=logarithmic_mean,
        alpha_grad_u=_logmean_grad_u,
        alpha_recession_vanishes=True,
    )


def _generating_derivative(f_of_r):
    """(Psi*)' from a concave generating function f: g(s) = expm1(s)/f(e^s)."""

    def g(s):
        s = np.asarray(s, dtype=float)
        with np.errstate(over="ignore", invalid="ignore"):
            val = np.expm1(s) / f_of_r(np.exp(s))
            blowup = np.where(s > 0, np.inf, np.where(s < 0, -np.inf, 0.0))
        return np.where(np.isfinite(val), val, blowup)

    return g


def _numeric_conjugate(psi_star, psi_star_prime):
    """Psi, Psi' via xi = ((Psi*)')^{-1}(s), memoizing the last inversion."""
    last = []  # [copy of s, xi] of the last inversion

    def invert(s):
        s = np.asarray(s, dtype=float)
        if not (last and np.array_equal(last[0], s)):
            last[:] = [s.copy(), invert_increasing_odd(psi_star_prime, s)]
        return last[1]

    def psi(s):
        xi = invert(s)
        return np.asarray(s, dtype=float) * xi - psi_star(xi)

    def psi_prime(s):
        return invert(s).copy()

    return psi, psi_prime


def _power_mean_family(p):
    if p == 1.0:
        raise UnsupportedParameter(
            "p = 1 (arithmetic mean) generates a dual that is not superlinear"
        )
    if p > 1.0:
        raise UnsupportedParameter(f"power mean index must satisfy p < 1, got {p}")

    if p == 0.0:
        return _cosh_family(1.0)

    def alpha(u, v, p=p):
        return power_mean(u, v, p)

    def alpha_grad_u(u, v, p=p):
        u = np.maximum(np.asarray(u, dtype=float), 1e-12)
        v = np.maximum(np.asarray(v, dtype=float), 1e-12)
        if np.isneginf(p):
            return (u < v).astype(float)
        m = power_mean(u, v, p)
        return 0.5 * (u / m) ** (p - 1.0)

    if np.isneginf(p):
        def psi_star(xi):
            xi = np.asarray(xi, dtype=float)
            with np.errstate(over="ignore"):
                return np.exp(np.abs(xi)) - np.abs(xi) - 1.0

        def psi_star_prime(xi):
            xi = np.asarray(xi, dtype=float)
            with np.errstate(over="ignore"):
                return np.sign(xi) * (np.exp(np.abs(xi)) - 1.0)

        psi = lambda s: (1.0 + np.abs(s)) * np.log1p(np.abs(s)) - np.abs(s)
        psi_prime = lambda s: np.sign(s) * np.log1p(np.abs(s))
    elif p == -1.0:
        def psi_star(xi):
            with np.errstate(over="ignore"):
                return np.cosh(np.asarray(xi, dtype=float)) - 1.0

        def psi_star_prime(xi):
            with np.errstate(over="ignore"):
                return np.sinh(np.asarray(xi, dtype=float))

        psi = lambda s: s * np.arcsinh(s) - np.sqrt(1.0 + np.square(s)) + 1.0
        psi_prime = np.arcsinh
    else:
        def f_of_r(r, p=p):
            r = np.asarray(r, dtype=float)
            with np.errstate(over="ignore", divide="ignore"):
                logf = (np.logaddexp(p * np.log(np.maximum(r, _TINY)), 0.0)
                        - np.log(2.0)) / p
            return np.exp(logf)

        psi_star_prime = _generating_derivative(f_of_r)

        def psi_star(xi, g=psi_star_prime):
            return _gauss_quad_odd(g, xi)

        psi, psi_prime = _numeric_conjugate(psi_star, psi_star_prime)
    return DissipationSpec(
        "power_mean", {"p": p}, psi_star, psi_star_prime, psi, psi_prime,
        alpha, alpha_grad_u, alpha_recession_vanishes=(p <= 0.0),
    )


def _sampled_concavity_check(alpha, rng, n_samples=10_000, tol=1e-9):
    x = rng.uniform(0.0, 5.0, size=(n_samples, 2))
    y = rng.uniform(0.0, 5.0, size=(n_samples, 2))
    mid = 0.5 * (x + y)
    a_mid = alpha(mid[:, 0], mid[:, 1])
    a_avg = 0.5 * (alpha(x[:, 0], x[:, 1]) + alpha(y[:, 0], y[:, 1]))
    gap = a_avg - a_mid
    if np.any(gap > tol * (1.0 + np.abs(a_mid))):
        k = int(np.argmax(gap))
        raise NonConcaveAlpha(
            f"midpoint concavity fails at {tuple(x[k])} / {tuple(y[k])} "
            f"(gap {gap[k]:.3g})"
        )


def _stolarsky_family(p, q):
    def alpha(u, v, p=p, q=q):
        return stolarsky_mean(u, v, p, q)

    _sampled_concavity_check(alpha, np.random.default_rng(0))

    def alpha_grad_u(u, v, h=1e-7):
        u = np.maximum(np.asarray(u, dtype=float), 1e-9)
        v = np.asarray(v, dtype=float)
        return (alpha(u + h, v) - alpha(u - h, v)) / (2.0 * h)

    def f_of_r(r, p=p, q=q):
        return stolarsky_mean(np.asarray(r, dtype=float), np.ones_like(np.asarray(r, dtype=float)), p, q)

    psi_star_prime = _generating_derivative(f_of_r)

    def psi_star(xi, g=psi_star_prime):
        return _gauss_quad_odd(g, xi)

    psi, psi_prime = _numeric_conjugate(psi_star, psi_star_prime)
    vanishes = bool(stolarsky_mean(1.0, 1e-12, p, q) < 1e-6)
    return DissipationSpec(
        "stolarsky", {"p": p, "q": q}, psi_star, psi_star_prime, psi, psi_prime,
        alpha, alpha_grad_u, alpha_recession_vanishes=vanishes,
    )


def _constant_alpha_family(**params):
    psi_star = params.get("psi_star")
    psi_star_prime = params.get("psi_star_prime")
    if psi_star is None:
        psi_star = lambda xi: 0.5 * np.asarray(xi, dtype=float) ** 2
        psi_star_prime = lambda xi: np.asarray(xi, dtype=float)
        psi = lambda s: 0.5 * np.asarray(s, dtype=float) ** 2
        psi_prime = lambda s: np.asarray(s, dtype=float)
    else:
        psi = params.get("psi")
        psi_prime = params.get("psi_prime")
        if psi is None:
            psi, psi_prime = _numeric_conjugate(psi_star, psi_star_prime)

    def alpha(u, v):
        u, v = np.broadcast_arrays(np.asarray(u, dtype=float), np.asarray(v, dtype=float))
        return np.ones(u.shape)

    def alpha_grad_u(u, v):
        u, v = np.broadcast_arrays(np.asarray(u, dtype=float), np.asarray(v, dtype=float))
        return np.zeros(u.shape)

    # constant alpha is bounded, so its recession vanishes identically
    return DissipationSpec(
        "constant_alpha", params, psi_star, psi_star_prime, psi, psi_prime,
        alpha, alpha_grad_u, alpha_recession_vanishes=True,
        one_homogeneous=False,
    )


def _custom_family(**params):
    alpha = params["alpha"]
    if not params.get("alpha_concave_asserted", False):
        raise NonConcaveAlpha(
            "custom alpha requires alpha_concave_asserted=True plus the sampled check"
        )
    _sampled_concavity_check(alpha, np.random.default_rng(params.get("check_seed", 0)))
    sym = np.random.default_rng(1).uniform(0.0, 5.0, size=(256, 2))
    if np.max(np.abs(alpha(sym[:, 0], sym[:, 1]) - alpha(sym[:, 1], sym[:, 0]))) > 1e-10:
        raise NonConcaveAlpha("custom alpha is not symmetric")
    psi_star = params["psi_star"]
    psi_star_prime = params["psi_star_prime"]
    psi = params.get("psi")
    psi_prime = params.get("psi_prime")
    if psi is None:
        psi, psi_prime = _numeric_conjugate(psi_star, psi_star_prime)
    return DissipationSpec(
        "custom", params, psi_star, psi_star_prime, psi, psi_prime,
        alpha, params.get("alpha_grad_u"),
        alpha_recession_vanishes=bool(params.get("alpha_recession_vanishes", True)),
        one_homogeneous=bool(params.get("one_homogeneous", False)),
    )


_FAMILIES = {
    "cosh": _cosh_family,
    "quadratic": _quadratic_family,
    "power_mean": _power_mean_family,
    "stolarsky": _stolarsky_family,
    "constant_alpha": _constant_alpha_family,
    "custom": _custom_family,
}


def make_dissipation(family, **params):
    """Build a DissipationSpec from the named family.

    Families: cosh(q=1), quadratic, power_mean(p), stolarsky(p, q),
    constant_alpha(psi_star=..., psi_star_prime=...), custom(...).
    cosh(q) with q < 1 is the q-homogeneous variant whose flux field with
    Boltzmann entropy is v^q - u^q.
    """
    if family not in _FAMILIES:
        raise UnsupportedParameter(f"unknown dissipation family {family!r}")
    spec = _FAMILIES[family](**params)
    if abs(float(spec.psi_star(0.0))) > 1e-12:
        raise UnsupportedParameter(f"{family}: psi*(0) != 0")
    return spec


# ---------------------------------------------------------------------------
# derived objects: perspective cost, force, field
# ---------------------------------------------------------------------------

def flux_cost(spec, u, v, w):
    """Perspective cost Psi(w/alpha(u,v)) * alpha(u,v).

    Equals 0 when alpha = 0 and w = 0, and +inf when alpha = 0 but w != 0:
    edges with no weight cannot carry flux.  Jointly convex and, when alpha
    is 1-homogeneous, positively 1-homogeneous in (u, v, w).
    """
    u, v, w = np.broadcast_arrays(
        np.asarray(u, dtype=float), np.asarray(v, dtype=float),
        np.asarray(w, dtype=float),
    )
    scalar = u.ndim == 0
    u, v, w = np.atleast_1d(u, v, w)
    al = np.atleast_1d(spec.alpha(u, v))
    out = np.where(w == 0.0, 0.0, np.inf)
    pos = al > 0.0
    if np.any(pos):
        with np.errstate(over="ignore", invalid="ignore"):
            out[pos] = spec.psi(w[pos] / al[pos]) * al[pos]
    return float(out[0]) if scalar else out


def edge_force(entropy, u, v):
    """Entropy-gradient gap phi'(v) - phi'(u) across an edge.

    Extended-real valued: (0,0) maps to 0; when phi'(0) = -inf the value is
    +inf for u = 0 < v and -inf for v = 0 < u.
    """
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    u, v = np.broadcast_arrays(u, v)
    with np.errstate(divide="ignore", invalid="ignore"):
        a = entropy.phi_prime(v) - entropy.phi_prime(u)
    a = np.where((u == 0) & (v == 0), 0.0, a)
    if a.ndim == 0:
        return float(a)
    return a


def _psi_star_prime_ext(spec, a):
    """(Psi*)' extended by (Psi*)'(+-inf) = +-inf."""
    a = np.atleast_1d(np.asarray(a, dtype=float))
    finite = np.isfinite(a)
    out = np.where(finite, 0.0, a)
    if np.any(finite):
        out[finite] = spec.psi_star_prime(a[finite])
    return out


def mul_zero_inf(g, al):
    """g * al with the convention 0 * (+-inf) = 0 (al >= 0)."""
    g = np.asarray(g, dtype=float)
    al = np.asarray(al, dtype=float)
    with np.errstate(invalid="ignore"):
        prod = g * al
    return np.where(al == 0.0, 0.0, prod)


def flux_field(spec, entropy, u, v):
    """Stationary flux response F0(u,v) = (Psi*)'(edge_force) * alpha.

    Vanishes wherever alpha does; elsewhere infinite forces propagate to
    +-inf values.  This is the zero-of-the-dissipation field: the evolution
    flux at density u is -F0(u_i, u_j) * theta_ij / 2.
    """
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    scalar = np.broadcast(u, v).ndim == 0
    al = spec.alpha(u, v)
    g = _psi_star_prime_ext(spec, edge_force(entropy, u, v))
    out = mul_zero_inf(g, al)
    return float(out.reshape(-1)[0]) if scalar else out.reshape(np.broadcast(u, v).shape)


def compatibility_residual(spec, entropy, grid):
    """max |F(u,v) - (v - u)| over the grid x grid of positive densities.

    Zero (to rounding) exactly when the pair generates the linear forward
    equation of the jump process.
    """
    grid = np.asarray(grid, dtype=float)
    uu, vv = np.meshgrid(grid, grid, indexing="ij")
    f = flux_field(spec, entropy, uu, vv)
    return float(np.max(np.abs(f - (vv - uu))))


# ---------------------------------------------------------------------------
# continuous field extensions used by the evolution solver
# ---------------------------------------------------------------------------

def continuous_field(spec, entropy):
    """Vectorized continuous extension of the flux field to the closed quadrant.

    Known structure/entropy pairs get exact closed forms (numerically stable
    for small densities); anything else falls back to elementwise F0, which
    is continuous whenever phi'(0) is finite or alpha kills the boundary.
    """
    if spec.name == "cosh" and entropy.name == "boltzmann":
        q = spec.params["q"]
        gam = entropy.params["scale"]
        a = 0.5 * q * (1.0 - gam)
        b = 0.5 * q * (1.0 + gam)

        def f(u, v, a=a, b=b):
            u = np.asarray(u, dtype=float)
            v = np.asarray(v, dtype=float)
            return u ** a * v ** b - u ** b * v ** a

        return f

    if spec.name == "quadratic" and entropy.name == "boltzmann":
        gam = entropy.params["scale"]

        def f(u, v, gam=gam):
            return gam * (np.asarray(v, dtype=float) - np.asarray(u, dtype=float))

        return f

    if spec.name in ("power_mean", "stolarsky") and entropy.name == "boltzmann" \
            and entropy.params["scale"] == 1.0:
        # any concave 1-homogeneous weight with its generated dual is
        # compatible with the Boltzmann entropy
        def f(u, v):
            return np.asarray(v, dtype=float) - np.asarray(u, dtype=float)

        return f

    def f(u, v):
        val = flux_field(spec, entropy, u, v)
        if not np.all(np.isfinite(val)):
            from .errors import NonFiniteField
            raise NonFiniteField(
                "flux field is not finite on the requested states; supply a "
                "continuous extension explicitly"
            )
        return val

    return f
