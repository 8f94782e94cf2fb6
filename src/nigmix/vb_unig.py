"""Variational engine for univariate NIG mixtures.

One sweep (``_vbcore.run_sweep``, shared with the multivariate engine)
alternates three moves until the responsibilities stop moving:

1. conjugate hyperparameter updates from the current responsibilities and
   latent moments,
2. closed-form expectations of every parameter functional the scores need,
3. responsibility and latent-moment updates through the GIG posterior of
   the subordinator, followed by pruning of components whose effective
   count drops below the threshold.

The first and third moves take all components at once, as (k,) stacks.
The second makes one pass over the hyper rows in Python floats: it checks
each row, records the reason of a row that fails, and forms the closed
forms of the others, which the pass stacks once at its end.

Model selection is a by-product: the engine starts with more components
than expected and the Dirichlet log-weight expectation starves redundant
ones until pruning removes them.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaincinv, gammaln, psi, xlogy

from ._vbcore import (
    FitResult,
    gig_responsibilities,
    prune,
    real_array,
    run_sweep,
    take,
)
from .config import FitConfig, InvalidData
from .distributions import UNIGParams, unig_density
from .special import trunc_normal_moments

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

# Location-to-scale ratio from which the untruncated closed forms stand in
# for the tail-weight posterior's truncated moments.  They are not exact
# there: the truncated mean differs from them by 1.0e-9 relative at the
# ratio 6, 1.3e-12 at 7 and 6.3e-16 at 8, and falls below machine precision
# only from about 8.5.
_TRUNC_SAFE_RATIO = 6.0
_QUAD_NODES = 96


@dataclass
class ComponentHyper:
    """Posterior hyperparameters of k components (count mass plus the four
    sufficient-statistic accumulators), each field of shape (k,)."""

    a0: np.ndarray
    a1: np.ndarray
    a2: np.ndarray
    a3: np.ndarray
    a4: np.ndarray


@dataclass
class ExpectationBundle:
    """Expectations of the parameter functionals entering the scores."""

    log_pi: np.ndarray
    log_delta_sq: np.ndarray
    delta_sq: np.ndarray
    delta: np.ndarray
    mu: np.ndarray
    mu_sq: np.ndarray
    beta: np.ndarray
    beta_sq: np.ndarray
    cov_mu_beta: np.ndarray
    gamma: np.ndarray
    gamma_sq: np.ndarray
    delta_gamma: np.ndarray


def flat_priors(g: int, hyper_init: float) -> ComponentHyper:
    return ComponentHyper(*(np.full(g, float(hyper_init)) for _ in range(5)))


def init_fit(data: np.ndarray, resp: np.ndarray, hyper_init: float):
    """GIG order, (n, g) ``chi`` and flat priors of the start from the (n, g)
    initial partition ``resp`` of the (n,) data ``fit`` passes.

    The partition fixes per-component sample means; asymmetry starts at
    zero and both scale and tail weight at one, which gives the latent
    GIG(-1, chi, 1) posterior of ``_vbcore.run_sweep``'s first sweep.
    """
    counts = resp.sum(axis=0)
    mus = np.where(
        counts > 0, resp.T @ data / np.maximum(counts, 1.0), data.mean()
    )
    # delta = gamma = 1, beta = 0: A_ig = 1 + (y_i - mu_g)^2, B_g = 1.
    chi = 1.0 + (data[:, None] - mus[None, :]) ** 2
    return -1.0, chi, flat_priors(resp.shape[1], hyper_init)


def update_hypers(
    priors: ComponentHyper,
    resp: np.ndarray,
    lat: tuple[np.ndarray, np.ndarray],
    data: np.ndarray,
) -> ComponentHyper:
    """Conjugate updates: priors plus responsibility-weighted statistics,
    each summed over one column of ``resp`` as one component's update is."""
    e_u, e_uinv = lat
    z = resp.T[:, None, :]

    def dot(w):
        return (z @ w.T[:, :, None])[:, 0, 0]

    return ComponentHyper(
        a0=priors.a0 + resp.T.copy().sum(axis=1),
        a1=priors.a1 + dot(data[:, None]),
        a2=priors.a2 + dot(e_uinv * data[:, None]),
        a3=priors.a3 + 0.5 * dot(e_u),
        a4=priors.a4 + 0.5 * dot(e_uinv),
    )


@functools.cache
def _legendre_nodes() -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights of ``_gamma_quadrature``, built on
    first use and shared read-only."""
    nodes, weights = np.polynomial.legendre.leggauss(_QUAD_NODES)
    nodes.flags.writeable = weights.flags.writeable = False
    return nodes, weights


def _gamma_quadrature(a0: float, rate: float, ratio: float, s: float):
    """E[gamma], E[gamma^2], E[delta*gamma] of one component near the
    truncation boundary: the tail weight's truncated-normal moments averaged
    over the scale posterior by Gauss-Legendre quadrature."""
    shape = a0 / 2.0 + 1.0
    scale = 1.0 / rate
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
) -> tuple[ExpectationBundle, list[tuple[int, str]]]:
    """All expectations a score evaluation needs: the bundle stack of the
    valid hyper rows, and the (row, reason) of the others.  The normalizer
    ``total_count_mass`` is the summed Dirichlet mass (prior mass plus n)."""
    psi_total = psi(total_count_mass)
    rows, dropped = [], []
    columns = zip(*(v.tolist() for v in vars(h).values()))
    for g, (a0, a1, a2, a3, a4) in enumerate(columns):
        if not (a0 > 0.0 and a3 > 0.0 and a4 > 0.0):
            dropped.append((g, "non-positive hyperparameter"))
            continue
        # A float square that overflows raises, where numpy would carry inf.
        try:
            rate = a4 - a0**2 / (4.0 * a3)
            if not rate > 0.0:
                dropped.append((g, "non-positive gamma rate"))
                continue
            # a3 * a4 can underflow to zero, which leaves rho at the boundary.
            rho = -a0 / (2.0 * math.sqrt(a3 * a4)) if a3 * a4 > 0.0 else -math.inf
            one_minus = 1.0 - rho * rho
            if not one_minus > 0.0:
                dropped.append((g, "correlation at the boundary"))
                continue
            shape = a0 / 2.0 + 1.0
            delta_sq = shape / rate
            # E[sqrt(delta^2)] under its Gamma(shape, rate) posterior.
            delta = math.exp(gammaln(shape + 0.5) - gammaln(shape)) / math.sqrt(rate)
            two_a3 = 2.0 * a3
            s2_mu = 1.0 / (2.0 * one_minus * a4)
            s2_beta = 1.0 / (2.0 * one_minus * a3)
            mu_bar = s2_mu * (a2 - a0 * a1 / two_a3)
            beta_bar = s2_beta * (a1 - a0 * a2 / (2.0 * a4))
            # Tail-weight moments: far from the truncation boundary, the
            # untruncated closed forms (see _TRUNC_SAFE_RATIO for their error).
            ratio = a0 / two_a3
            s = math.sqrt(1.0 / two_a3)
            gamma = ratio * delta
            if gamma / s >= _TRUNC_SAFE_RATIO:
                gamma_sq, delta_gamma = ratio**2 * delta_sq + s * s, ratio * delta_sq
            else:
                gamma, gamma_sq, delta_gamma = _gamma_quadrature(a0, rate, ratio, s)
            rows += [
                psi(a0) - psi_total, psi(shape) - math.log(rate), delta_sq, delta,
                mu_bar, mu_bar**2 + s2_mu, beta_bar, beta_bar**2 + s2_beta,
                rho * math.sqrt(s2_mu * s2_beta), gamma, gamma_sq, delta_gamma,
            ]
        except OverflowError:
            dropped.append((g, "expectations overflow"))
    return ExpectationBundle(*np.array(rows, dtype=float).reshape(-1, 12).T), dropped


def update_responsibilities(y: np.ndarray, bundles: ExpectationBundle):
    """New responsibilities and latent GIG moments of ``y`` from the bundle
    stack, through the shared ``_vbcore.gig_responsibilities`` at order -1."""
    # (k, 1) columns: every broadcast then runs along n, where a (k,) inner
    # axis would cost a loop turn per row.
    b = take(bundles, np.s_[:, None])
    e_a = b.delta_sq + y * y - 2.0 * y * b.mu + b.mu_sq
    e_b = b.gamma_sq + b.beta_sq
    head = b.delta_gamma + y * b.beta - (b.mu * b.beta + b.cov_mu_beta)
    # The (k, 1) constants plus E[c], in E[c]'s buffer.
    head += b.log_pi + 0.5 * b.log_delta_sq
    return gig_responsibilities(-1.0, head, e_a, e_b)


def fit(data: np.ndarray, config: FitConfig) -> FitResult:
    """Run the univariate variational sweep (``_vbcore.run_sweep``) on (n,)
    or (n, 1) data; bad data or settings raise InvalidData."""
    data = real_array(data)
    if data.ndim not in (1, 2) or data.shape[1:] not in ((), (1,)):
        raise InvalidData(f"unig needs (n,) or (n, 1) data, got shape {data.shape}")
    return run_sweep(
        "unig",
        data.reshape(-1),
        config,
        init_fit,
        update_hypers,
        expectations_from_hypers,
        update_responsibilities,
    )


def plug_in_params(result: FitResult) -> list[UNIGParams]:
    """Posterior-mean plug-in parameters, a reporting convention only."""
    b = result.bundles
    return [
        UNIGParams(mu=mu, beta=beta, delta=delta, gamma=gamma)
        for mu, beta, delta, gamma in zip(b.mu, b.beta, b.delta, b.gamma)
    ]


def fitted_density(result: FitResult, grid) -> np.ndarray:
    """Mixture density on a grid using plug-in parameters and mean weights."""
    grid = np.asarray(grid, dtype=float)
    weights = result.weights
    out = np.zeros_like(grid)
    for w, p in zip(weights, plug_in_params(result)):
        out += w * unig_density(grid, p)
    return out
