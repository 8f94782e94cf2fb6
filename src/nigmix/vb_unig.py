"""Variational engine for univariate NIG mixtures.

One sweep (``_vbcore.run_sweep``, shared with the multivariate engine)
alternates three moves until the responsibilities stop moving:

1. conjugate hyperparameter updates from the current responsibilities and
   latent moments,
2. closed-form expectations of every parameter functional the scores need,
3. responsibility and latent-moment updates through the GIG posterior of
   the subordinator, followed by pruning of components whose effective
   count drops below the threshold.

Model selection is a by-product: the engine starts with more components
than expected and the Dirichlet log-weight expectation starves redundant
ones until pruning removes them.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, fields

import numpy as np
from scipy.special import gammaincinv, gammaln, xlogy

from ._vbcore import (
    DegenerateComponent,
    FitResult,
    gig_responsibilities,
    initial_latent_moments,
    initial_partition,
    prune,
    run_sweep,
)
from .config import FitConfig
from .distributions import UNIGParams, unig_density
from .special import digamma, sqrt_gamma_moment, trunc_normal_moments

__all__ = [
    "ComponentHyper",
    "ExpectationBundle",
    "init_fit",
    "update_hypers",
    "expectations_from_hypers",
    "update_responsibilities",
    "prune",
    "fit",
    "fitted_density",
]

# Location-to-scale ratio above which the truncation of the tail-weight
# posterior is numerically invisible and the untruncated closed forms apply.
_TRUNC_SAFE_RATIO = 6.0
_QUAD_NODES = 96


@dataclass(frozen=True)
class ComponentHyper:
    """Posterior hyperparameters of one component (count mass plus the four
    sufficient-statistic accumulators)."""

    a0: float
    a1: float
    a2: float
    a3: float
    a4: float

    @property
    def gamma_rate(self) -> float:
        return self.a4 - self.a0**2 / (4.0 * self.a3)

    def validate(self) -> None:
        if not (self.a0 > 0.0 and self.a3 > 0.0 and self.a4 > 0.0):
            raise DegenerateComponent("non-positive hyperparameter")
        if not self.gamma_rate > 0.0:
            raise DegenerateComponent("non-positive gamma rate")


@dataclass(frozen=True)
class ExpectationBundle:
    """Expectations of the parameter functionals entering the scores."""

    log_pi: float
    log_delta_sq: float
    delta_sq: float
    delta: float
    mu: float
    mu_sq: float
    beta: float
    beta_sq: float
    cov_mu_beta: float
    gamma: float
    gamma_sq: float
    delta_gamma: float


def flat_priors(g: int, hyper_init: float) -> list[ComponentHyper]:
    h = float(hyper_init)
    return [ComponentHyper(h, h, h, h, h) for _ in range(g)]


def init_fit(
    data: np.ndarray, g_init: int, init_mode: str, hyper_init: float, seed: int
):
    """Initial responsibilities, latent moments, and flat priors.

    The initial hard partition fixes per-component sample means; asymmetry
    starts at zero and both scale and tail weight at one, and the latent
    moments follow from the GIG posterior those values induce.
    """
    data = np.asarray(data, dtype=float).reshape(-1)
    if data.size == 0:
        raise ValueError("empty data")
    rng = np.random.default_rng(seed)
    resp = initial_partition(data, g_init, init_mode, rng)
    counts = resp.sum(axis=0)
    mus = np.where(
        counts > 0, resp.T @ data / np.maximum(counts, 1.0), data.mean()
    )
    # delta = gamma = 1, beta = 0: A_ig = 1 + (y_i - mu_g)^2, B_g = 1.
    chi = 1.0 + (data[:, None] - mus[None, :]) ** 2
    return resp, initial_latent_moments(-1.0, chi), flat_priors(g_init, hyper_init)


def update_hypers(
    priors: list[ComponentHyper],
    resp: np.ndarray,
    lat: tuple[np.ndarray, np.ndarray],
    data: np.ndarray,
) -> list[ComponentHyper]:
    """Conjugate updates: priors plus responsibility-weighted statistics."""
    data = np.asarray(data, dtype=float).reshape(-1)
    e_u, e_uinv = lat
    out = []
    for g, p in enumerate(priors):
        z = resp[:, g]
        out.append(
            ComponentHyper(
                a0=p.a0 + z.sum(),
                a1=p.a1 + z @ data,
                a2=p.a2 + z @ (e_uinv[:, g] * data),
                a3=p.a3 + 0.5 * (z @ e_u[:, g]),
                a4=p.a4 + 0.5 * (z @ e_uinv[:, g]),
            )
        )
    return out


def _posterior_mu_beta(h: ComponentHyper):
    rho = -h.a0 / (2.0 * math.sqrt(h.a3 * h.a4))
    one_minus = 1.0 - rho * rho
    if not one_minus > 0.0:
        raise DegenerateComponent("correlation at the boundary")
    s2_mu = 1.0 / (2.0 * one_minus * h.a4)
    s2_beta = 1.0 / (2.0 * one_minus * h.a3)
    mu_bar = s2_mu * (h.a2 - h.a0 * h.a1 / (2.0 * h.a3))
    beta_bar = s2_beta * (h.a1 - h.a0 * h.a2 / (2.0 * h.a4))
    cov = rho * math.sqrt(s2_mu * s2_beta)
    return mu_bar, beta_bar, s2_mu, s2_beta, cov


@functools.cache
def _legendre_nodes() -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights of ``_gamma_moments``, built on
    first use and shared read-only."""
    nodes, weights = np.polynomial.legendre.leggauss(_QUAD_NODES)
    nodes.flags.writeable = weights.flags.writeable = False
    return nodes, weights


def _gamma_moments(h: ComponentHyper, e_delta: float, e_delta_sq: float):
    """E[gamma], E[gamma^2], E[delta*gamma] under the conditional
    truncated-normal posterior of the tail weight.

    Far from the truncation boundary the untruncated closed forms are
    exact to machine precision; near it the truncated-normal moments are
    averaged over the scale posterior by Gauss-Legendre quadrature.
    """
    ratio = h.a0 / (2.0 * h.a3)
    s = math.sqrt(1.0 / (2.0 * h.a3))
    if ratio * e_delta / s >= _TRUNC_SAFE_RATIO:
        return (
            ratio * e_delta,
            ratio**2 * e_delta_sq + s * s,
            ratio * e_delta_sq,
        )
    shape = h.a0 / 2.0 + 1.0
    scale = 1.0 / h.gamma_rate
    lo = gammaincinv(shape, 1e-10) * scale
    hi = gammaincinv(shape, 1.0 - 1e-10) * scale
    nodes, weights = _legendre_nodes()
    t = 0.5 * (hi - lo) * nodes + 0.5 * (hi + lo)
    x = t / scale
    pdf = np.exp(xlogy(shape - 1.0, x) - x - gammaln(shape)) / scale
    w = weights * 0.5 * (hi - lo) * pdf
    w /= w.sum()
    deltas = np.sqrt(t)
    means = np.empty_like(deltas)
    seconds = np.empty_like(deltas)
    for i, dlt in enumerate(deltas):
        means[i], seconds[i] = trunc_normal_moments(ratio * dlt, s)
    return float(w @ means), float(w @ seconds), float(w @ (deltas * means))


def expectations_from_hypers(
    h: ComponentHyper, total_count_mass: float
) -> ExpectationBundle:
    """All expectations a score evaluation needs, from one hyper state.

    ``total_count_mass`` is the summed Dirichlet mass over live components
    (prior mass plus n), the normalizer of the log-weight expectation.
    """
    h.validate()
    shape = h.a0 / 2.0 + 1.0
    rate = h.gamma_rate
    delta_sq = shape / rate
    delta = sqrt_gamma_moment(shape, rate)
    mu_bar, beta_bar, s2_mu, s2_beta, cov = _posterior_mu_beta(h)
    gamma, gamma_sq, delta_gamma = _gamma_moments(h, delta, delta_sq)
    return ExpectationBundle(
        log_pi=float(digamma(h.a0) - digamma(total_count_mass)),
        log_delta_sq=float(digamma(shape)) - math.log(rate),
        delta_sq=delta_sq,
        delta=delta,
        mu=mu_bar,
        mu_sq=mu_bar**2 + s2_mu,
        beta=beta_bar,
        beta_sq=beta_bar**2 + s2_beta,
        cov_mu_beta=cov,
        gamma=gamma,
        gamma_sq=gamma_sq,
        delta_gamma=delta_gamma,
    )


def update_responsibilities(data: np.ndarray, bundles: list[ExpectationBundle]):
    """New responsibilities and latent GIG moments from the current bundles,
    through the shared ``_vbcore.gig_responsibilities`` at order -1.

    Each row of the score head and of the latent GIG parameters takes the
    floating-point steps of one bundle alone, so it does not depend on the
    other bundles.
    """
    y = np.asarray(data, dtype=float).reshape(-1)
    # One bundle whose fields are (k, 1) columns: every broadcast then runs
    # along n, where a (k,) inner axis would cost a loop turn per row.  The
    # reshape keeps k = 0 at the right shape for the shared empty check.
    rows = np.array([list(vars(c).values()) for c in bundles])
    columns = rows.reshape(len(bundles), len(fields(ExpectationBundle))).T
    b = ExpectationBundle(*columns[..., None])
    e_a = b.delta_sq + y * y - 2.0 * y * b.mu + b.mu_sq
    e_b = b.gamma_sq + b.beta_sq
    e_c = b.delta_gamma + y * b.beta - (b.mu * b.beta + b.cov_mu_beta)
    head = b.log_pi + 0.5 * b.log_delta_sq + e_c
    return gig_responsibilities(-1.0, head, e_a, e_b)


def fit(data: np.ndarray, config: FitConfig) -> FitResult:
    """Run the univariate variational sweep (``_vbcore.run_sweep``) to
    convergence."""
    return run_sweep(
        "unig",
        np.asarray(data, dtype=float).reshape(-1),
        config,
        init_fit,
        update_hypers,
        expectations_from_hypers,
        update_responsibilities,
    )


def plug_in_params(result: FitResult) -> list[UNIGParams]:
    """Posterior-mean plug-in parameters, a reporting convention only."""
    return [
        UNIGParams(mu=b.mu, beta=b.beta, delta=b.delta, gamma=b.gamma)
        for b in result.bundles
    ]


def fitted_density(result: FitResult, grid) -> np.ndarray:
    """Mixture density on a grid using plug-in parameters and mean weights."""
    grid = np.asarray(grid, dtype=float)
    weights = result.weights
    out = np.zeros_like(grid)
    for w, p in zip(weights, plug_in_params(result)):
        out += w * unig_density(grid, p)
    return out
