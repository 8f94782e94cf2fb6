"""Variational engine for multivariate NIG mixtures.

Runs the sweep of ``_vbcore.run_sweep``, as the univariate engine does,
with the multivariate conjugate families: Dirichlet weights, a Wishart
posterior on each component precision, a joint conditional normal on
(location, drift) whose covariance blocks are scalar multiples of the
component scale, and a truncated normal on the tail weight.  The latent
subordinator posterior is GIG of order -(d+1)/2.

Conventions pinned here (the displays leave them implicit):

* Wishart(df, V) is parameterized so that E[precision] = df * V^{-1} and
  E[log det precision] = sum_s psi((df+1-s)/2) + d log 2 - log det V.
* The scale-matrix accumulator V is evaluated with the current posterior
  means of location and drift plugged in, and the data term is the outer
  product sum(z * u^{-1} * y y^T).
* The three trace terms reduce to d times the scalars a3/D, a4/D, -a0/D
  with D = a3 a4 - a0^2, from the 2x2 block inverse of the joint normal
  precision.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._vbcore import (
    DegenerateComponent,
    DegenerateFit,
    FitResult,
    gig_log_k,
    initial_partition,
    normalize_log_scores,
    run_sweep,
)
from .config import FitConfig
from .distributions import MNIGParams, gig_moments, mnig_log_density
from .linalg import NotPositiveDefinite, as_spd, spd_inverse_logdet_jittered
from .special import digamma, log_bessel_k, trunc_normal_moments

__all__ = [
    "ComponentHyperM",
    "ExpectationBundleM",
    "init_fit_m",
    "update_hypers_m",
    "expectations_from_hypers_m",
    "update_responsibilities_m",
    "fit_m",
    "plug_in_params_m",
    "fitted_density_m",
]


@dataclass(frozen=True)
class ComponentHyperM:
    """Posterior hyperparameters of one multivariate component."""

    a0: float
    a1: np.ndarray
    a2: np.ndarray
    a3: float
    a4: float
    V: np.ndarray

    @property
    def dim(self) -> int:
        return self.a1.shape[0]

    @property
    def disc(self) -> float:
        return self.a3 * self.a4 - self.a0**2

    def validate(self) -> None:
        if not (self.a0 > 0.0 and self.a3 > 0.0 and self.a4 > 0.0):
            raise DegenerateComponent("non-positive hyperparameter")
        if not self.disc > 0.0:
            raise DegenerateComponent("joint-normal precision not positive")
        if not self.a0 > self.dim - 1.0:
            raise DegenerateComponent("Wishart degrees of freedom too small")


@dataclass(frozen=True)
class ExpectationBundleM:
    """Expectations entering the multivariate scores."""

    log_pi: float
    elog_det_prec: float
    e_prec: np.ndarray
    mu_bar: np.ndarray
    beta_bar: np.ndarray
    c_mu: float
    c_beta: float
    c_cross: float
    gamma_t: float
    gamma_t_sq: float

    @property
    def var_gamma_t(self) -> float:
        return self.gamma_t_sq - self.gamma_t**2


def posterior_means(h: ComponentHyperM) -> tuple[np.ndarray, np.ndarray]:
    """Posterior means of location and drift from the joint conditional."""
    D = h.disc
    mu_bar = (h.a3 * h.a2 - h.a0 * h.a1) / D
    beta_bar = (h.a4 * h.a1 - h.a0 * h.a2) / D
    return mu_bar, beta_bar


def flat_priors_m(
    g: int, d: int, hyper_init: float, data_cov_trace: float
) -> list[ComponentHyperM]:
    """Flat scalar/vector priors with a scale-aware Wishart accumulator.

    A pure 1e-8 identity seed for V makes the early Wishart mean explode on
    low-variance data, so the seed is 1e-2 of the average data variance.
    """
    h = float(hyper_init)
    v0 = 1e-2 * (data_cov_trace / d) * np.eye(d)
    return [
        ComponentHyperM(h, np.full(d, h), np.full(d, h), h, h, v0.copy())
        for _ in range(g)
    ]


def init_fit_m(
    data: np.ndarray,
    g_init: int,
    init_mode: str = "kmeans",
    hyper_init: float = 1e-8,
    seed: int = 0,
):
    """Initial responsibilities, latent moments, and priors for (n, d) data.

    Per-component sample means and covariances seed the distance scale of
    the initial GIG latent posterior; drift starts at zero and the tail
    weight at one.
    """
    data = np.atleast_2d(np.asarray(data, dtype=float))
    n, d = data.shape
    if n == 0:
        raise ValueError("empty data")
    rng = np.random.default_rng(seed)
    resp = initial_partition(data, g_init, init_mode, rng)
    lam = -(d + 1) / 2.0
    chi = np.empty((n, g_init))
    for g in range(g_init):
        z = resp[:, g]
        total = z.sum()
        mu = data.T @ z / total if total > 0 else data.mean(axis=0)
        centered = data - mu
        if total > 1:
            cov = (centered * z[:, None]).T @ centered / total
        else:
            cov = np.cov(data.T).reshape(d, d)
        cov = as_spd(cov + 1e-10 * np.trace(cov) / d * np.eye(d))
        try:
            prec, _ = spd_inverse_logdet_jittered(cov)
        except NotPositiveDefinite:
            prec = np.eye(d) / (np.trace(cov) / d)
        chi[:, g] = 1.0 + np.einsum("ij,ij->i", centered @ prec, centered)
    e_u, e_uinv = gig_moments(lam, chi, np.ones_like(chi))
    cov_trace = float(np.trace(np.atleast_2d(np.cov(data.T))))
    priors = flat_priors_m(g_init, d, hyper_init, cov_trace)
    return resp, (e_u, e_uinv), priors


def update_hypers_m(
    priors: list[ComponentHyperM],
    resp: np.ndarray,
    lat: tuple[np.ndarray, np.ndarray],
    data: np.ndarray,
) -> list[ComponentHyperM]:
    """Conjugate updates; note the scalar accumulators carry no 1/2 factors,
    unlike their univariate counterparts."""
    data = np.atleast_2d(np.asarray(data, dtype=float))
    e_u, e_uinv = lat
    out = []
    for g, p in enumerate(priors):
        z = resp[:, g]
        zu_inv = z * e_uinv[:, g]
        a0 = p.a0 + z.sum()
        a1 = p.a1 + data.T @ z
        a2 = p.a2 + data.T @ zu_inv
        a3 = p.a3 + float(z @ e_u[:, g])
        a4 = p.a4 + float(zu_inv.sum())
        h = ComponentHyperM(a0, a1, a2, a3, a4, p.V)
        mu_bar, beta_bar = posterior_means(h)
        scatter = (data * zu_inv[:, None]).T @ data
        V = (
            p.V
            + scatter
            - np.outer(a2, mu_bar)
            - np.outer(mu_bar, a2)
            + a4 * np.outer(mu_bar, mu_bar)
            - np.outer(beta_bar, a1)
            - np.outer(a1, beta_bar)
            + a0 * (np.outer(beta_bar, mu_bar) + np.outer(mu_bar, beta_bar))
            + a3 * np.outer(beta_bar, beta_bar)
        )
        out.append(ComponentHyperM(a0, a1, a2, a3, a4, 0.5 * (V + V.T)))
    return out


def expectations_from_hypers_m(
    h: ComponentHyperM, total_count_mass: float
) -> ExpectationBundleM:
    """Expectation bundle for one component; may raise DegenerateComponent."""
    h.validate()
    d = h.dim
    try:
        v_inv, logdet_v = spd_inverse_logdet_jittered(h.V)
    except NotPositiveDefinite as exc:
        raise DegenerateComponent(f"scale accumulator not SPD: {exc}") from exc
    elog_det_prec = (
        float(np.sum(digamma((h.a0 + 1.0 - np.arange(1, d + 1)) / 2.0)))
        + d * math.log(2.0)
        - logdet_v
    )
    mu_bar, beta_bar = posterior_means(h)
    gamma_t, gamma_t_sq = trunc_normal_moments(
        h.a0 / h.a3, math.sqrt(1.0 / (2.0 * h.a3))
    )
    D = h.disc
    return ExpectationBundleM(
        log_pi=float(digamma(h.a0) - digamma(total_count_mass)),
        elog_det_prec=elog_det_prec,
        e_prec=h.a0 * v_inv,
        mu_bar=mu_bar,
        beta_bar=beta_bar,
        c_mu=h.a3 / D,
        c_beta=h.a4 / D,
        c_cross=-h.a0 / D,
        gamma_t=gamma_t,
        gamma_t_sq=gamma_t_sq,
    )


def _log_score_terms_m(data: np.ndarray, b: ExpectationBundleM):
    """Every term of ``component_log_scores_m`` but log K_lam(omega), plus
    the GIG parameters (e_a, e_b) of the latent posterior."""
    d = data.shape[1]
    lam = -(d + 1) / 2.0
    centered = data - b.mu_bar
    e_a = (
        1.0
        + np.einsum("ij,ij->i", centered @ b.e_prec, centered)
        + d * b.c_mu
    )
    e_b = (
        b.gamma_t_sq
        + float(b.beta_bar @ b.e_prec @ b.beta_bar)
        + d * b.c_beta
    )
    e_c = b.gamma_t + centered @ (b.e_prec @ b.beta_bar) + d * b.c_cross
    terms = (
        b.log_pi
        + 0.5 * b.elog_det_prec
        + e_c
        + math.log(2.0)
        + 0.5 * lam * (np.log(e_a) - math.log(e_b))
    )
    return terms, e_a, e_b


def component_log_scores_m(data: np.ndarray, b: ExpectationBundleM):
    """Per-observation log marginal score of one component and the GIG
    parameters of its latent posterior."""
    data = np.atleast_2d(np.asarray(data, dtype=float))
    lam = -(data.shape[1] + 1) / 2.0
    terms, e_a, e_b = _log_score_terms_m(data, b)
    return terms + log_bessel_k(lam, np.sqrt(e_a * e_b)), e_a, e_b


def update_responsibilities_m(data: np.ndarray, bundles: list[ExpectationBundleM]):
    """New responsibilities and order -(d+1)/2 GIG latent moments.

    log K_lam is evaluated once over all (component, observation) pairs and
    serves both the scores and the latent moments.
    """
    if not bundles:
        raise DegenerateFit("no live components")
    data = np.atleast_2d(np.asarray(data, dtype=float))
    n, d = data.shape
    lam = -(d + 1) / 2.0
    k = len(bundles)
    terms = np.empty((k, n))
    chi = np.empty((k, n))
    psi = np.empty((k, 1))
    for g, b in enumerate(bundles):
        terms[g], chi[g], psi[g] = _log_score_terms_m(data, b)
    log_k = gig_log_k(lam, chi, psi)
    resp, flags = normalize_log_scores((terms + log_k).T.copy())
    e_u, e_uinv = gig_moments(lam, chi, psi, log_k)
    return resp, (e_u.T.copy(), e_uinv.T.copy()), flags


def fit_m(data: np.ndarray, config: FitConfig) -> FitResult:
    """Run the multivariate variational sweep (``_vbcore.run_sweep``) on
    (n, d) data; contract identical to the univariate ``fit``."""
    return run_sweep(
        "mnig",
        np.atleast_2d(np.asarray(data, dtype=float)),
        config,
        init_fit_m,
        update_hypers_m,
        expectations_from_hypers_m,
        update_responsibilities_m,
    )


def plug_in_params_m(result: FitResult) -> list[MNIGParams]:
    """Posterior-mean plug-in parameters; the scale is the inverse of the
    posterior-mean precision.  Reporting convention only."""
    out = []
    for h, b in zip(result.hypers, result.bundles):
        sigma, _ = spd_inverse_logdet_jittered(b.e_prec)
        out.append(
            MNIGParams(
                mu_t=b.mu_bar,
                beta_t=b.beta_bar,
                sigma_t=sigma,
                gamma_t=b.gamma_t,
            )
        )
    return out


def fitted_density_m(result: FitResult, grid: np.ndarray) -> np.ndarray:
    """Plug-in mixture density at the rows of ``grid``."""
    grid = np.atleast_2d(np.asarray(grid, dtype=float))
    weights = result.weights
    out = np.zeros(grid.shape[0])
    for w, p in zip(weights, plug_in_params_m(result)):
        out += w * np.exp(mnig_log_density(grid, p))
    return out
