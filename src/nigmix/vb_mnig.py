"""Variational engine for multivariate NIG mixtures.

Runs the sweep of ``_vbcore.run_sweep``, as the univariate engine does,
with the multivariate conjugate families: Dirichlet weights, a Wishart
posterior on each component precision, a joint conditional normal on
(location, drift) whose covariance blocks are scalar multiples of the
component scale, and a truncated normal on the tail weight.  The latent
subordinator posterior is GIG of order -(d+1)/2.

Every step keeps its components in (k, ...) stacks and takes each
component through the floating-point steps of its own update: the batched
products make the BLAS calls, over the same strides, that one column of
the responsibilities would, and a0 is squared by ``np.float_power``, as a
scalar ``a0**2`` is.  Per component run the expectation step's scalar
checks of the hyper rows, and the terms that are (d, n) for each
component, in buffers made once per call and laid out as ``data.T`` so
that elementwise work runs along n: the weighted columns of the hyper
update's scatter and the centred columns of the score step.
The scale accumulators of the rows that pass go to one stacked
``linalg.spd_inverse_logdet_jittered`` call per sweep, whose jitter retry
is linalg's; a row that fails even so is dropped and the rest are
inverted again.

Conventions pinned here (the displays leave them implicit):

* Wishart(df, V) is parameterized so that E[precision] = df * V^{-1} and
  E[log det precision] = sum_s psi((df+1-s)/2) + d log 2 - log det V.
* The scale-matrix accumulator is V = V0 + S - a2a2'/a4 - (a4/D) ww',
  with w = a1 - (a0/a4) a2 and the data term S = sum(z * u^{-1} * y y^T):
  the joint-normal quadratic form [a3 a2a2' - a0(a1a2' + a2a1') + a4 a1a1']/D
  pivoted on a4, so it needs no posterior means.  Near D << a3 a4 its
  terms cancel, and V loses digits in proportion to a3 a4 / D.  Against a
  50-digit V from the same accumulators, on 90 rows at d = 2, 3 and 10
  with D / (a3 a4) from 1e-2 down to 1e-10, the median relative error is
  3.1e-13, against 1.4e-12 with the posterior means plugged in and 5.2e-10
  for the unpivoted form; the worst row is 0.96 eps a3 a4 / D (1.12 with
  the means plugged in).
* The three trace terms reduce to d times the scalars a3/D, a4/D, -a0/D
  with D = a3 a4 - a0^2, from the 2x2 block inverse of the joint normal
  precision.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._vbcore import (
    FitResult,
    gig_responsibilities,
    real_array,
    run_sweep,
    take,
)
from .config import FitConfig, InvalidData
from .distributions import MNIGParams, mnig_log_density
from .linalg import NotPositiveDefinite, as_spd, spd_inverse_logdet_jittered
from .special import psi, trunc_normal_moments

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


@dataclass
class ComponentHyperM:
    """Posterior hyperparameters of k components; a1, a2 are (k, d), V (k, d, d)."""

    a0: np.ndarray
    a1: np.ndarray
    a2: np.ndarray
    a3: np.ndarray
    a4: np.ndarray
    V: np.ndarray

    @property
    def disc(self) -> np.ndarray:
        return self.a3 * self.a4 - np.float_power(self.a0, 2)


@dataclass
class ExpectationBundleM:
    """Expectations entering the scores; e_prec is (k, d, d), mu_bar (k, d)."""

    log_pi: np.ndarray
    elog_det_prec: np.ndarray
    e_prec: np.ndarray
    mu_bar: np.ndarray
    beta_bar: np.ndarray
    c_mu: np.ndarray
    c_beta: np.ndarray
    c_cross: np.ndarray
    gamma_t: np.ndarray
    gamma_t_sq: np.ndarray


def flat_priors_m(
    g: int, d: int, hyper_init: float, data_cov_trace: float
) -> ComponentHyperM:
    """Flat scalar/vector priors with a scale-aware Wishart accumulator.

    A pure 1e-8 identity seed for V makes the early Wishart mean explode on
    low-variance data, so the seed is 1e-2 of the average data variance.
    """
    h = float(hyper_init)
    v0 = 1e-2 * (data_cov_trace / d) * np.eye(d)
    return ComponentHyperM(
        np.full(g, h), np.full((g, d), h), np.full((g, d), h),
        np.full(g, h), np.full(g, h), np.tile(v0, (g, 1, 1)),
    )


def init_fit_m(data: np.ndarray, resp: np.ndarray, hyper_init: float):
    """GIG order, (n, g) ``chi`` and priors of the start from the (n, g)
    initial partition ``resp`` of the (n, d) data ``fit_m`` passes.

    Per-component sample means and covariances seed the distance scale of
    the latent GIG(-(d+1)/2, chi, 1) posterior of ``_vbcore.run_sweep``'s
    first sweep; drift starts at zero and the tail weight at one.
    """
    d = data.shape[1]
    chi = np.empty(resp.shape)
    for g, z in enumerate(resp.T):
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
    cov_trace = float(np.trace(np.atleast_2d(np.cov(data.T))))
    return -(d + 1) / 2.0, chi, flat_priors_m(resp.shape[1], d, hyper_init, cov_trace)


def _outer(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Outer products of the rows of two (k, d) stacks."""
    return x[:, :, None] * y[:, None, :]


def update_hypers_m(
    priors: ComponentHyperM,
    resp: np.ndarray,
    lat: tuple[np.ndarray, np.ndarray],
    data: np.ndarray,
) -> ComponentHyperM:
    """Conjugate updates; note the scalar accumulators carry no 1/2 factors,
    unlike their univariate counterparts."""
    e_u, e_uinv = lat
    z = resp.T
    # numpy sums a contiguous row pairwise, as it sums one strided column,
    # but it would sum the columns of resp in turn.
    z_rows = z.copy()
    # Contiguous rows, as the product for one column is: strided rows would
    # take another BLAS path and move a2.
    zu_inv = np.multiply(z_rows, e_uinv.T, order="C")
    a0 = priors.a0 + z_rows.sum(axis=1)
    a1 = priors.a1 + (data.T @ z[:, :, None])[..., 0]
    a2 = priors.a2 + (data.T @ zu_inv[:, :, None])[..., 0]
    a3 = priors.a3 + (z[:, None, :] @ e_u.T[:, :, None])[:, 0, 0]
    a4 = priors.a4 + zu_inv.sum(axis=1)
    h = ComponentHyperM(a0, a1, a2, a3, a4, priors.V)
    # One component's weighted columns at a time, in one (d, n) buffer, so
    # the elementwise work runs along n.
    scatter = np.empty(priors.V.shape)
    weighted = np.empty(data.T.shape)
    for g, row in enumerate(zu_inv):
        np.multiply(data.T, row, out=weighted)
        np.matmul(weighted, data, out=scatter[g])
    del weighted
    # The joint-normal quadratic form, pivoted on a4 (see the module
    # docstring): a2 a2'/a4 + (a4/D) w w' with w = a1 - (a0/a4) a2.
    w = a1 - (a0 / a4)[:, None] * a2
    V = (
        priors.V
        + scatter
        - _outer(a2, a2) / a4[:, None, None]
        - (a4 / h.disc)[:, None, None] * _outer(w, w)
    )
    h.V = 0.5 * (V + V.transpose(0, 2, 1))
    return h


def expectations_from_hypers_m(
    h: ComponentHyperM, total_count_mass: float
) -> tuple[ExpectationBundleM, list[tuple[int, str]]]:
    """The bundle stack of the valid hyper rows, and the (row, reason) of
    the others; only rows that pass the scalar checks reach the Cholesky."""
    d = h.a1.shape[1]
    live, dropped = [], []
    D = h.disc
    checked = zip(h.a0.tolist(), h.a3.tolist(), h.a4.tolist(), D.tolist())
    for g, (a0, a3, a4, disc) in enumerate(checked):
        if not (a0 > 0.0 and a3 > 0.0 and a4 > 0.0):
            dropped.append((g, "non-positive hyperparameter"))
        elif not disc > 0.0:
            dropped.append((g, "joint-normal precision not positive"))
        elif not a0 > d - 1.0:
            dropped.append((g, "Wishart degrees of freedom too small"))
        else:
            live.append(g)
    # A row that fails even with its jitter is dropped with its own pivot.
    while True:
        try:
            v_inv, logdet_v = spd_inverse_logdet_jittered(h.V[live])
            break
        except NotPositiveDefinite as exc:
            dropped.append((live.pop(exc.row), f"scale accumulator not SPD: {exc}"))
    dropped.sort()
    if dropped:
        h, D = take(h, live), D[live]
    elog_det_prec = (
        psi((h.a0[:, None] + 1.0 - np.arange(1, d + 1)) / 2.0).sum(axis=1)
        + d * math.log(2.0)
        - logdet_v
    )
    s = np.sqrt(1.0 / (2.0 * h.a3))
    gamma_t, gamma_t_sq = trunc_normal_moments(h.a0 / h.a3, s)
    # The posterior means of location and drift, from the joint conditional.
    D_col = D[:, None]
    mu_bar = (h.a3[:, None] * h.a2 - h.a0[:, None] * h.a1) / D_col
    beta_bar = (h.a4[:, None] * h.a1 - h.a0[:, None] * h.a2) / D_col
    return ExpectationBundleM(
        log_pi=psi(h.a0) - psi(total_count_mass),
        elog_det_prec=elog_det_prec,
        e_prec=h.a0[:, None, None] * v_inv,
        mu_bar=mu_bar,
        beta_bar=beta_bar,
        c_mu=h.a3 / D,
        c_beta=h.a4 / D,
        c_cross=-h.a0 / D,
        gamma_t=gamma_t,
        gamma_t_sq=gamma_t_sq,
    ), dropped


def update_responsibilities_m(data: np.ndarray, bundles: ExpectationBundleM):
    """New responsibilities and latent GIG moments from the bundle stack,
    through the shared ``_vbcore.gig_responsibilities`` at order -(d+1)/2.

    Each component's centred rows are formed in the (d, n) layout of
    ``data.T``, so the elementwise work runs along n, in two buffers made
    once per call and released before the shared step runs.
    """
    d = data.shape[1]
    e_prec, mu_bar = bundles.e_prec, bundles.mu_bar
    drift = e_prec @ bundles.beta_bar[:, :, None]
    psi = bundles.gamma_t_sq[:, None] + (bundles.beta_bar[:, None, :] @ drift)[:, :, 0]
    psi += d * bundles.c_beta[:, None]
    chi = np.empty((len(mu_bar), data.shape[0]))
    head = np.empty_like(chi)
    centered = np.empty(data.T.shape)
    scaled = np.empty(data.T.shape)
    for g in range(len(mu_bar)):
        np.subtract(data.T, mu_bar[g][:, None], out=centered)
        # e_prec is exactly symmetric (linalg forms W^T W by the symmetric
        # update), so e_prec @ centered is the transpose of centered @ e_prec.
        np.matmul(e_prec[g], centered, out=scaled)
        np.einsum("ij,ij->j", scaled, centered, out=chi[g])
        np.matmul(drift[g, :, 0], centered, out=head[g])
    del centered, scaled
    # Each row's constants are summed first and added in one pass.
    chi += (1.0 + d * bundles.c_mu)[:, None]
    head += (bundles.gamma_t + d * bundles.c_cross + bundles.log_pi
             + 0.5 * bundles.elog_det_prec)[:, None]
    return gig_responsibilities(-(d + 1) / 2.0, head, chi, psi)


def _check_rank(data: np.ndarray) -> None:
    """Raise InvalidData unless the (n, d) columns have full rank.

    The Wishart posteriors need full-rank columns, tested centred and scaled
    to a largest magnitude of one.  The test comes before the start, whose
    k-means can overflow on a column it rejects; empty or non-finite data
    are left to run_sweep's checks, and an overflowing square to DegenerateFit.
    Its (n, d) copies are released on return, before the sweep.
    """
    if data.size and np.isfinite(data).all():
        centred = data - data.mean(axis=0)
        scale = np.abs(centred).max(axis=0)
        if np.isfinite(scale * scale).all() and not (
            scale.all() and np.linalg.matrix_rank(centred / scale) == data.shape[1]
        ):
            raise InvalidData("mnig needs linearly independent, non-constant columns")


def fit_m(data: np.ndarray, config: FitConfig) -> FitResult:
    """Run the multivariate variational sweep (``_vbcore.run_sweep``) on
    (n, d) data, d >= 1; bad data or settings raise InvalidData, and so do
    columns that are not of full rank."""
    data = real_array(data)
    if data.ndim != 2 or not data.shape[1]:
        raise InvalidData(f"mnig needs (n, d) data, d >= 1, got shape {data.shape}")
    _check_rank(data)
    return run_sweep(
        "mnig",
        data,
        config,
        init_fit_m,
        update_hypers_m,
        expectations_from_hypers_m,
        update_responsibilities_m,
    )


def plug_in_params_m(result: FitResult) -> list[MNIGParams]:
    """Posterior-mean plug-in parameters; the scale is the inverse of the
    posterior-mean precision.  Reporting convention only."""
    b = result.bundles
    sigma_t, _ = spd_inverse_logdet_jittered(b.e_prec)
    return [
        MNIGParams(
            mu_t=b.mu_bar[g],
            beta_t=b.beta_bar[g],
            sigma_t=sigma_t[g],
            gamma_t=b.gamma_t[g],
        )
        for g in range(len(b.gamma_t))
    ]


def fitted_density_m(result: FitResult, grid: np.ndarray) -> np.ndarray:
    """Plug-in mixture density at the rows of ``grid``."""
    grid = np.atleast_2d(np.asarray(grid, dtype=float))
    weights = result.weights
    out = np.zeros(grid.shape[0])
    for w, p in zip(weights, plug_in_params_m(result)):
        out += w * np.exp(mnig_log_density(grid, p))
    return out
