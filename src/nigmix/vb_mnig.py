"""Variational engine for multivariate NIG mixtures.

Runs the sweep of ``_vbcore.run_sweep``, as the univariate engine does,
with the multivariate conjugate families: Dirichlet weights, a Wishart
posterior on each component precision, a joint conditional normal on
(location, drift) whose covariance blocks are scalar multiples of the
component scale, and a truncated normal on the tail weight.  The latent
subordinator posterior is GIG of order -(d+1)/2.

The hyper and responsibility steps work on all components at once, in
(k, ...) stacks, and take each component through the floating-point steps of
its own update: the batched products make the BLAS calls, over the same
strides, that one column of the responsibilities would.  Their answers are
bit for bit those of a loop over the components.

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
    FitResult,
    gig_responsibilities,
    initial_latent_moments,
    initial_partition,
    run_sweep,
)
from .config import FitConfig
from .distributions import MNIGParams, mnig_log_density
from .linalg import NotPositiveDefinite, as_spd, spd_inverse_logdet_jittered
from .special import digamma, trunc_normal_moments

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
    data: np.ndarray, g_init: int, init_mode: str, hyper_init: float, seed: int
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
    lat = initial_latent_moments(lam, chi)
    cov_trace = float(np.trace(np.atleast_2d(np.cov(data.T))))
    return resp, lat, flat_priors_m(g_init, d, hyper_init, cov_trace)


def _outer(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Outer products of the rows of two (k, d) stacks."""
    return x[:, :, None] * y[:, None, :]


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
    stacked = (np.array(f) for f in zip(*(vars(p).values() for p in priors)))
    p0, p1, p2, p3, p4, p_v = stacked
    z = resp.T
    # numpy sums a contiguous row pairwise, as it sums one strided column,
    # but it would sum the columns of resp in turn.
    z_rows = z.copy()
    # Contiguous rows, as the product for one column is: strided rows would
    # take another BLAS path and move a2.
    zu_inv = np.multiply(z_rows, e_uinv.T, order="C")
    a0 = p0 + z_rows.sum(axis=1)
    a1 = p1 + (data.T @ z[:, :, None])[..., 0]
    a2 = p2 + (data.T @ zu_inv[:, :, None])[..., 0]
    a3 = p3 + (z[:, None, :] @ e_u.T[:, :, None])[:, 0, 0]
    a4 = p4 + zu_inv.sum(axis=1)
    # Squared by pow, as ComponentHyperM.disc squares a scalar a0; the array
    # square x * x differs from it in the last bit on about 1e-3 of values.
    disc = (a3 * a4 - np.float_power(a0, 2))[:, None]
    mu_bar = (a3[:, None] * a2 - a0[:, None] * a1) / disc
    beta_bar = (a4[:, None] * a1 - a0[:, None] * a2) / disc
    scatter = (data * zu_inv[:, :, None]).transpose(0, 2, 1) @ data
    c0, c3, c4 = (a[:, None, None] for a in (a0, a3, a4))
    V = (
        p_v
        + scatter
        - _outer(a2, mu_bar)
        - _outer(mu_bar, a2)
        + c4 * _outer(mu_bar, mu_bar)
        - _outer(beta_bar, a1)
        - _outer(a1, beta_bar)
        + c0 * (_outer(beta_bar, mu_bar) + _outer(mu_bar, beta_bar))
        + c3 * _outer(beta_bar, beta_bar)
    )
    V = 0.5 * (V + V.transpose(0, 2, 1))
    return [ComponentHyperM(*h) for h in zip(a0, a1, a2, a3.tolist(), a4.tolist(), V)]


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
        float(digamma((h.a0 + 1.0 - np.arange(1, d + 1)) / 2.0).sum())
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


def update_responsibilities_m(data: np.ndarray, bundles: list[ExpectationBundleM]):
    """New responsibilities and latent GIG moments from the current bundles,
    through the shared ``_vbcore.gig_responsibilities`` at order -(d+1)/2."""
    data = np.atleast_2d(np.asarray(data, dtype=float))
    d = data.shape[1]
    k = len(bundles)
    # The reshapes keep k = 0 at the right shape for the shared empty check.
    e_prec = np.array([b.e_prec for b in bundles]).reshape(k, d, d)
    mu_bar = np.array([b.mu_bar for b in bundles]).reshape(k, 1, d)
    beta_bar = np.array([b.beta_bar for b in bundles]).reshape(k, d, 1)
    scalars = [(b.log_pi, b.elog_det_prec, b.c_mu, b.c_beta, b.c_cross, b.gamma_t,
                b.gamma_t_sq) for b in bundles]
    log_pi, elog_det_prec, c_mu, c_beta, c_cross, gamma_t, gamma_t_sq = (
        np.array(scalars).reshape(k, 7).T[..., None])
    centered = data - mu_bar
    chi = 1.0 + np.einsum("kij,kij->ki", centered @ e_prec, centered) + d * c_mu
    psi = (
        gamma_t_sq
        + (beta_bar.transpose(0, 2, 1) @ e_prec @ beta_bar)[:, :, 0]
        + d * c_beta
    )
    e_c = gamma_t + (centered @ (e_prec @ beta_bar))[..., 0] + d * c_cross
    head = log_pi + 0.5 * elog_det_prec + e_c
    return gig_responsibilities(-(d + 1) / 2.0, head, chi, psi)


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
