"""Moments of the latent GIG law, UNIG and MNIG densities, and sampling.

The univariate normal inverse Gaussian (UNIG) arises as the normal
mean-variance mixture

    Y | u ~ N(mu + beta*u, u),      U ~ IG(delta, gamma),

and its multivariate counterpart (MNIG) is handled throughout in the
unconstrained "tilde" parameterization

    Y | u ~ N(mu_t + u*beta_t, u*Sigma_t),   U ~ IG(1, gamma_t),

which is the form the conjugate inference machinery works with.  Densities
are evaluated on the log scale; only moments of the latent generalized
inverse Gaussian (GIG) posterior are ever needed, so no GIG sampler is
provided.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import as_spd, cholesky, spd_inverse_logdet
from .special import log_bessel_k

__all__ = [
    "UNIGParams",
    "MNIGParams",
    "MixtureSpec",
    "LabeledSample",
    "gig_moments",
    "unig_log_density",
    "unig_density",
    "mnig_log_density",
    "sample_ig",
    "sample_mixture",
]


@dataclass(frozen=True)
class UNIGParams:
    """Univariate NIG parameters (mu, beta, delta, gamma); alpha is derived."""

    mu: float
    beta: float
    delta: float
    gamma: float

    def __post_init__(self):
        if not (math.isfinite(self.mu) and math.isfinite(self.beta)
                and 0.0 < self.delta < math.inf and 0.0 < self.gamma < math.inf):
            raise ValueError("UNIG requires finite parameters, delta > 0 and gamma > 0")

    @property
    def alpha(self) -> float:
        return math.hypot(self.gamma, self.beta)

    @property
    def mean(self) -> float:
        return self.mu + self.delta * self.beta / self.gamma

    @property
    def variance(self) -> float:
        return self.delta * self.alpha**2 / self.gamma**3


@dataclass(frozen=True)
class MNIGParams:
    """Multivariate NIG in the tilde parameterization."""

    mu_t: np.ndarray
    beta_t: np.ndarray
    sigma_t: np.ndarray
    gamma_t: float

    def __post_init__(self):
        object.__setattr__(self, "mu_t", np.asarray(self.mu_t, dtype=float))
        object.__setattr__(self, "beta_t", np.asarray(self.beta_t, dtype=float))
        object.__setattr__(self, "sigma_t", as_spd(self.sigma_t))
        cholesky(self.sigma_t)
        if not (np.isfinite(self.mu_t).all() and np.isfinite(self.beta_t).all()
                and 0.0 < self.gamma_t < math.inf):
            raise ValueError("MNIG requires finite parameters and gamma_t > 0")
        if self.mu_t.shape != self.beta_t.shape or self.mu_t.ndim != 1:
            raise ValueError("mu_t and beta_t must be vectors of equal length")
        if self.sigma_t.shape[0] != self.mu_t.shape[0]:
            raise ValueError("sigma_t dimension mismatch")

    @property
    def dim(self) -> int:
        return self.mu_t.shape[0]


@dataclass(frozen=True)
class MixtureSpec:
    """Finite mixture: positive weights summing to one plus components."""

    weights: np.ndarray
    components: tuple

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "components", tuple(self.components))
        if len(self.components) != w.shape[0]:
            raise ValueError("one weight per component required")
        if not (np.all(w > 0.0) and abs(w.sum() - 1.0) <= 1e-12):
            raise ValueError("weights must be finite, positive and sum to 1")
        # One kind and one dimension: samples fill one (n, d) array.
        if len({type(c) for c in self.components}) > 1:
            raise ValueError("components must be all unig or all mnig")
        if len({c.dim for c in self.components if isinstance(c, MNIGParams)}) > 1:
            raise ValueError("mnig components must have one dimension")

    @property
    def n_components(self) -> int:
        return len(self.components)

    @property
    def is_multivariate(self) -> bool:
        return isinstance(self.components[0], MNIGParams)


@dataclass
class LabeledSample:
    """Simulator output: observations and 1-based labels."""

    observations: np.ndarray
    labels: np.ndarray


# ---------------------------------------------------------------------------
# Generalized inverse Gaussian moments
# ---------------------------------------------------------------------------

def gig_moments(lam: float, chi, psi, omega=None, ratio=None):
    """First moment and inverse moment of GIG(lam, chi, psi), the law with
    density proportional to u^(lam-1) exp(-(chi/u + psi*u)/2).

    E[U]     = sqrt(chi/psi) K_{lam+1}(w) / K_lam(w),
    E[1/U]   = sqrt(psi/chi) K_{lam-1}(w) / K_lam(w),   w = sqrt(chi*psi).

    With nu = |lam|, the two ratios are K_{|nu-1|}/K_nu and, through the
    recurrence K_{nu+1} = K_{nu-1} + (2 nu / w) K_nu, the same ratio plus
    2 nu / w; which moment takes which depends on the sign of lam.  Every
    term is positive, and only the orders nu and |nu-1| are evaluated, on
    the log scale, so arguments deep in the underflow region of the raw
    function are fine.  ``chi`` and ``psi`` broadcast elementwise and are
    only read.
    ``omega`` and ``ratio``, given together, are w and
    K_|nu-1|(w)/K_nu(w), as the caller has already formed and checked them
    with ``log_bessel_k(nu, w, pair=True)``.  The step consumes both: the
    moments are written into their buffers, and the caller must not read
    them afterwards.  Without them chi and psi are checked here, and w and
    the ratio are formed in new arrays by that same call, so no argument
    is written.

    Returns
    -------
    (e_u, e_uinv)
    """
    chi = np.asarray(chi, dtype=float)
    psi = np.asarray(psi, dtype=float)
    nu = abs(lam)
    if omega is None:
        if not (chi.min(initial=math.inf) > 0.0 and psi.min(initial=math.inf) > 0.0):
            raise ValueError("GIG moments require chi > 0 and psi > 0")
        omega = _in_place(np.sqrt, chi * psi)
        _, ratio = log_bessel_k(nu, omega, pair=True)
    # From here one new array, the scale: 2 nu / w goes into w's buffer.
    down = ratio
    up = _in_place(np.divide, 2.0 * nu, omega)
    up += down
    if lam < 0.0:
        down, up = up, down
    scale = _in_place(np.sqrt, chi / psi)
    up *= scale
    down /= scale
    return up, down


def _in_place(ufunc, *args):
    """``ufunc(*args)``, written over the last argument when it is an array
    (a scalar, as 0-d operands give, cannot be written)."""
    x = args[-1]
    return ufunc(*args, out=x) if isinstance(x, np.ndarray) else ufunc(*args)


# ---------------------------------------------------------------------------
# NIG densities
# ---------------------------------------------------------------------------

def unig_log_density(y, p: UNIGParams):
    """Log density of the univariate NIG distribution."""
    y = np.asarray(y, dtype=float)
    alpha = p.alpha
    phi = 1.0 + ((y - p.mu) / p.delta) ** 2
    arg = p.delta * alpha * np.sqrt(phi)
    return (
        math.log(alpha / math.pi)
        + p.delta * p.gamma
        - p.beta * p.mu
        - 0.5 * np.log(phi)
        + log_bessel_k(1.0, arg)
        + p.beta * y
    )


def unig_density(y, p: UNIGParams):
    return np.exp(unig_log_density(y, p))


def mnig_log_density(y, p: MNIGParams):
    """Log density of the multivariate NIG in the tilde parameterization.

    Derived by integrating the latent subordinator out of the generative
    definition; at d = 1 it coincides with ``unig_log_density`` under the
    tilde map mu_t = mu, beta_t = beta delta^2, sigma_t = delta^2,
    gamma_t = gamma delta.  ``y`` may be a single d-vector or an (n, d)
    array.
    """
    y_in = np.asarray(y, dtype=float)
    y = np.atleast_2d(y_in)
    d = p.dim
    if y.shape[1] != d:
        raise ValueError("observation dimension mismatch")
    siginv, logdet = spd_inverse_logdet(p.sigma_t)
    lam = -(d + 1) / 2.0
    centered = y - p.mu_t
    mahal = np.einsum("ij,ij->i", centered @ siginv, centered)
    chi = 1.0 + mahal
    psi = p.gamma_t**2 + float(p.beta_t @ siginv @ p.beta_t)
    omega = np.sqrt(chi * psi)
    out = (
        -(d + 1) / 2.0 * math.log(2.0 * math.pi)
        - 0.5 * logdet
        + p.gamma_t
        + centered @ (siginv @ p.beta_t)
        + math.log(2.0)
        + 0.5 * lam * (np.log(chi) - math.log(psi))
        + log_bessel_k(lam, omega)
    )
    return float(out[0]) if y_in.ndim == 1 else out


# ---------------------------------------------------------------------------
# Sampling
# ---------------------------------------------------------------------------

def sample_ig(delta: float, gamma: float, size: int, rng: np.random.Generator):
    """Draw IG(delta, gamma) variates via the Michael-Schucany-Haas transform.

    The many-to-one transform produces the two roots of the defining
    quadratic; the standard uniform acceptance step picks between them.
    """
    if not (delta > 0.0 and gamma > 0.0):
        raise ValueError("IG requires delta > 0 and gamma > 0")
    mean = delta / gamma
    shape = delta**2
    nu = rng.standard_normal(size) ** 2
    root = mean + mean**2 * nu / (2.0 * shape) - mean / (2.0 * shape) * np.sqrt(
        4.0 * mean * shape * nu + mean**2 * nu**2
    )
    accept = rng.uniform(size=size) <= mean / (mean + root)
    return np.where(accept, root, mean**2 / root)


def sample_mixture(
    spec: MixtureSpec,
    n: int,
    seed: int,
    counts: tuple[int, ...] | None = None,
) -> LabeledSample:
    """Draw n observations from a UNIG or MNIG mixture.

    Labels are categorical draws from the weights unless exact per-component
    ``counts`` are given (the simulation-study presets fix the component
    sizes).  Deterministic for a fixed seed.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    rng = np.random.default_rng(seed)
    G = spec.n_components
    if counts is not None:
        if len(counts) != G or sum(counts) != n:
            raise ValueError("counts must have one entry per component summing to n")
        labels = np.repeat(np.arange(1, G + 1), counts)
    else:
        labels = rng.choice(G, size=n, p=spec.weights) + 1

    if spec.is_multivariate:
        d = spec.components[0].dim
        obs = np.empty((n, d))
    else:
        obs = np.empty((n, 1))

    for g, comp in enumerate(spec.components, start=1):
        idx = np.nonzero(labels == g)[0]
        if idx.size == 0:
            continue
        if isinstance(comp, MNIGParams):
            u = sample_ig(1.0, comp.gamma_t, idx.size, rng)
            z = rng.standard_normal((idx.size, comp.dim))
            L = cholesky(comp.sigma_t)
            obs[idx] = (
                comp.mu_t
                + u[:, None] * comp.beta_t
                + np.sqrt(u)[:, None] * (z @ L.T)
            )
        else:
            u = sample_ig(comp.delta, comp.gamma, idx.size, rng)
            z = rng.standard_normal(idx.size)
            obs[idx, 0] = comp.mu + comp.beta * u + np.sqrt(u) * z

    return LabeledSample(observations=obs, labels=labels)
