"""Shared slow oracles for the test suite: literal summation mirrors of the
conjugate updates, pair-enumeration agreement index, set-partition
enumeration, the expectation-level tilde map, the inverse Gaussian
density, a column-by-column Cholesky, log-scale Bessel K and GIG moments
through the generic ``kve`` at three orders, and the univariate log score
of one bundle written out term by term."""

import itertools
import math

import numpy as np
from scipy.special import kve

from nigmix.linalg import NotPositiveDefinite
from nigmix.special import log_bessel_k
from nigmix.vb_mnig import ComponentHyperM, ExpectationBundleM, flat_priors_m
from nigmix.vb_unig import ComponentHyper, flat_priors


def random_u(seed, n=25, k=3):
    rng = np.random.default_rng(seed)
    data = rng.normal(0.0, 3.0, n)
    resp = rng.dirichlet(np.ones(k), size=n)
    e_u = rng.uniform(0.2, 3.0, (n, k))
    e_uinv = 1.0 / e_u + rng.uniform(0.05, 1.0, (n, k))
    return data, resp, (e_u, e_uinv), flat_priors(k, 1e-8)


def random_m(seed, n=20, k=2, d=3):
    rng = np.random.default_rng(seed)
    data = rng.normal(0.0, 2.0, (n, d))
    resp = rng.dirichlet(np.ones(k), size=n)
    e_u = rng.uniform(0.3, 2.5, (n, k))
    e_uinv = 1.0 / e_u + rng.uniform(0.05, 0.8, (n, k))
    priors = flat_priors_m(k, d, 1e-8, float(np.trace(np.cov(data.T))))
    return data, resp, (e_u, e_uinv), priors


def naive_update_u(priors, resp, lat, data):
    e_u, e_uinv = lat
    out = []
    for g, p in enumerate(priors):
        a0, a1, a2, a3, a4 = p.a0, p.a1, p.a2, p.a3, p.a4
        for i in range(len(data)):
            z = resp[i, g]
            a0 += z
            a1 += z * data[i]
            a2 += z * e_uinv[i, g] * data[i]
            a3 += 0.5 * z * e_u[i, g]
            a4 += 0.5 * z * e_uinv[i, g]
        out.append(ComponentHyper(a0, a1, a2, a3, a4))
    return out


def log_score_u(y, b):
    """One component's univariate log score and GIG parameters (e_a, e_b),
    written out for a single bundle in the order the engine evaluates it."""
    e_a = b.delta_sq + y * y - 2.0 * y * b.mu + b.mu_sq
    e_b = b.gamma_sq + b.beta_sq
    e_c = b.delta_gamma + y * b.beta - (b.mu * b.beta + b.cov_mu_beta)
    score = (
        b.log_pi
        + 0.5 * b.log_delta_sq
        + e_c
        + math.log(2.0)
        - 0.5 * (np.log(e_a) - math.log(e_b))
        + log_bessel_k(-1.0, np.sqrt(e_a * e_b))
    )
    return score, e_a, e_b


def naive_update_m(priors, resp, lat, data):
    e_u, e_uinv = lat
    n, d = data.shape
    out = []
    for g, p in enumerate(priors):
        a0, a3, a4 = p.a0, p.a3, p.a4
        a1 = p.a1.copy()
        a2 = p.a2.copy()
        scatter = np.zeros((d, d))
        for i in range(n):
            z = resp[i, g]
            a0 += z
            a1 = a1 + z * data[i]
            a2 = a2 + z * e_uinv[i, g] * data[i]
            a3 += z * e_u[i, g]
            a4 += z * e_uinv[i, g]
            scatter += z * e_uinv[i, g] * np.outer(data[i], data[i])
        D = a3 * a4 - a0**2
        mu = (a3 * a2 - a0 * a1) / D
        beta = (a4 * a1 - a0 * a2) / D
        V = (
            p.V
            + scatter
            - np.outer(a2, mu) - np.outer(mu, a2)
            + a4 * np.outer(mu, mu)
            - np.outer(beta, a1) - np.outer(a1, beta)
            + a0 * (np.outer(beta, mu) + np.outer(mu, beta))
            + a3 * np.outer(beta, beta)
        )
        out.append(ComponentHyperM(a0, a1, a2, a3, a4, 0.5 * (V + V.T)))
    return out


def set_partitions(n):
    def rec(prefix, k):
        i = len(prefix)
        if i == n:
            yield list(prefix)
            return
        for lab in range(k + 1):
            yield from rec(prefix + [lab], max(k, lab + 1))
    yield from rec([], 0)


def ari_pair_oracle(a, b):
    n = len(a)
    both = same_a = same_b = 0
    pairs = 0
    for i, j in itertools.combinations(range(n), 2):
        pairs += 1
        sa = a[i] == a[j]
        sb = b[i] == b[j]
        both += sa and sb
        same_a += sa
        same_b += sb
    expected = same_a * same_b / pairs
    max_index = 0.5 * (same_a + same_b)
    if max_index == expected:
        return 0.0
    return (both - expected) / (max_index - expected)


def unig_bundle_to_mnig(b) -> ExpectationBundleM:
    """Tilde map at the expectation level: scale = exp(E[log delta^2])."""
    s = math.exp(b.log_delta_sq)
    return ExpectationBundleM(
        log_pi=b.log_pi,
        elog_det_prec=-b.log_delta_sq,
        e_prec=np.array([[1.0 / s]]),
        mu_bar=np.array([b.mu]),
        beta_bar=np.array([s * b.beta]),
        c_mu=(b.delta_sq - s + b.var_mu) / s,
        c_beta=s * b.var_beta,
        c_cross=-b.cov_mu_beta,
        gamma_t=b.delta_gamma,
        gamma_t_sq=s * b.gamma_sq,
    )


def ig_density(u, delta: float, gamma: float):
    """Inverse Gaussian density f(u) with E[U] = delta/gamma."""
    if not (delta > 0.0 and gamma > 0.0):
        raise ValueError("IG requires delta > 0 and gamma > 0")
    u = np.asarray(u, dtype=float)
    if np.any(u <= 0.0):
        raise ValueError("IG density requires u > 0")
    logf = (
        -0.5 * math.log(2.0 * math.pi)
        + math.log(delta)
        - 1.5 * np.log(u)
        + delta * gamma
        - 0.5 * (delta**2 / u + gamma**2 * u)
    )
    return np.exp(logf)


def cholesky_loop(m):
    """Lower Cholesky factor, one column at a time; raises
    NotPositiveDefinite at the first pivot that is not > 0, NaN included."""
    m = np.asarray(m, dtype=float)
    d = m.shape[0]
    L = np.zeros_like(m)
    for j in range(d):
        pivot = m[j, j] - L[j, :j] @ L[j, :j]
        if not pivot > 0.0:
            raise NotPositiveDefinite(j)
        L[j, j] = math.sqrt(pivot)
        L[j + 1 :, j] = (m[j + 1 :, j] - L[j + 1 :, :j] @ L[j, :j]) / L[j, j]
    return L


def log_bessel_k_kve(nu, x):
    """log K_nu(x) from the exponentially scaled generic ``kve``; NaN where
    ``kve`` is (above x of about 1e9) and inf where it overflows."""
    with np.errstate(over="ignore", divide="ignore"):
        return np.log(kve(abs(nu), np.asarray(x, dtype=float))) - x


def gig_moments_kve(lam, chi, psi):
    """E[U] and E[1/U] of GIG(lam, chi, psi) from K at orders lam - 1, lam
    and lam + 1, each through ``kve``."""
    omega = np.sqrt(chi * psi)
    log_k = log_bessel_k_kve(lam, omega)
    half_log_ratio = 0.5 * (np.log(chi) - np.log(psi))
    e_u = np.exp(half_log_ratio + log_bessel_k_kve(lam + 1.0, omega) - log_k)
    e_uinv = np.exp(-half_log_ratio + log_bessel_k_kve(lam - 1.0, omega) - log_k)
    return e_u, e_uinv
