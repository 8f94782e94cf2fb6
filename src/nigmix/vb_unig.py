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
forms of the others, which the pass stacks once at its end.  A row near
the tail weight's truncation boundary takes its tail-weight moments from a
96-node quadrature over the scale posterior instead, evaluated as one
array call on nodes pinned in this module.

Model selection is a by-product: the engine starts with more components
than expected and the Dirichlet log-weight expectation starves redundant
ones until pruning removes them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._vbcore import (
    FitResult,
    gig_responsibilities,
    prune,
    real_array,
    run_sweep,
)
from .config import FitConfig, InvalidData
from .distributions import UNIGParams, unig_density
from .special import gammaincinv, gammaln, psi, trunc_normal_moments, xlogy

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


# The positive half of the 96-point Gauss-Legendre rule, (node, weight) in
# shortest repr: numpy's ``leggauss(96)`` symmetrizes its output, so these
# rebuild its nodes and weights bit for bit without its eigenvalue solve.
_LEGENDRE_HALF = (
    (0.016276744849602967, 0.03255061449236328),
    (0.04881298513604974, 0.03251611871386895),
    (0.08129749546442555, 0.0324471637140644),
    (0.11369585011066592, 0.03234382256857602),
    (0.14597371465489695, 0.03220620479403032),
    (0.17809688236761861, 0.032034456231992796),
    (0.2100313104605672, 0.03182875889441112),
    (0.24174315616384, 0.03158933077072725),
    (0.27319881259104917, 0.03131642559686141),
    (0.30436494435449635, 0.03101033258631393),
    (0.3352085228926254, 0.030671376123669266),
    (0.3656968614723136, 0.03029991542082777),
    (0.3957976498289086, 0.029896344136328506),
    (0.42547898840730053, 0.029461089958168016),
    (0.454709422167743, 0.02899461415055532),
    (0.48345797392059636, 0.028497411065085413),
    (0.5116941771546677, 0.02797000761684837),
    (0.5393881083243575, 0.027412962726029232),
    (0.5665104185613972, 0.02682686672559185),
    (0.593032364777572, 0.026212340735672593),
    (0.6189258401254686, 0.025570036005349364),
    (0.6441634037849671, 0.024900633222483814),
    (0.6687183100439161, 0.02420484179236482),
    (0.6925645366421715, 0.023483399085926292),
    (0.7156768123489676, 0.022737069658329466),
    (0.7380306437444001, 0.02196664443874457),
    (0.7596023411766475, 0.021172939892191354),
    (0.7803690438674332, 0.020356797154333365),
    (0.8003087441391408, 0.019519081140145382),
    (0.8194003107379316, 0.01866067962741174),
    (0.8376235112281871, 0.017782502316045286),
    (0.8549590334346014, 0.016885479864245195),
    (0.8713885059092965, 0.015970562902562345),
    (0.8868945174024204, 0.015038721026994927),
    (0.9014606353158523, 0.014090941772314894),
    (0.9150714231208981, 0.013128229566961646),
    (0.9277124567223087, 0.012151604671088057),
    (0.9393703397527552, 0.01116210209983861),
    (0.9500327177844377, 0.010160770535008306),
    (0.9596882914487426, 0.009148671230783011),
    (0.9683268284632642, 0.0081268769256983),
    (0.9759391745851365, 0.007096470791153821),
    (0.9825172635630147, 0.006058545504235195),
    (0.9880541263296237, 0.005014202742928604),
    (0.9925439003237626, 0.003964554338444405),
    (0.9959818429872093, 0.0029107318179352943),
    (0.9983643758631817, 0.0018539607889441585),
    (0.9996895038832307, 0.0007967920655518723),
)
# Nodes and weights of ``_gamma_quadrature``, ascending and read-only.
_NODES, _WEIGHTS = np.array(_LEGENDRE_HALF).T
_NODES = np.concatenate((-_NODES[::-1], _NODES))
_WEIGHTS = np.concatenate((_WEIGHTS[::-1], _WEIGHTS))
_NODES.flags.writeable = _WEIGHTS.flags.writeable = False


def _gamma_quadrature(a0: float, rate: float, ratio: float, s: float):
    """E[gamma], E[gamma^2], E[delta*gamma] of one component near the
    truncation boundary: the tail weight's truncated-normal moments averaged
    over the scale posterior by Gauss-Legendre quadrature, with the moments
    of every node from one array call."""
    shape = a0 / 2.0 + 1.0
    scale = 1.0 / rate
    lo = gammaincinv(shape, 1e-10) * scale
    hi = gammaincinv(shape, 1.0 - 1e-10) * scale
    t = 0.5 * (hi - lo) * _NODES + 0.5 * (hi + lo)
    x = t / scale
    pdf = np.exp(xlogy(shape - 1.0, x) - x - gammaln(shape)) / scale
    w = _WEIGHTS * 0.5 * (hi - lo) * pdf
    w /= w.sum()
    deltas = np.sqrt(t)
    means, seconds = trunc_normal_moments(ratio * deltas, s)
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
    # (k, 1) column views: every broadcast then runs along n, where a (k,)
    # inner axis would cost a loop turn per row.
    b = bundles
    mu, beta = b.mu[:, None], b.beta[:, None]
    e_a = b.delta_sq[:, None] + y * y - 2.0 * y * mu + b.mu_sq[:, None]
    e_b = b.gamma_sq[:, None] + b.beta_sq[:, None]
    head = b.delta_gamma[:, None] + y * beta - (mu * beta + b.cov_mu_beta[:, None])
    # The (k, 1) constants plus E[c], in E[c]'s buffer.
    head += b.log_pi[:, None] + 0.5 * b.log_delta_sq[:, None]
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
