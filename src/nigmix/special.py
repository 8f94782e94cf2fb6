"""Numerically robust scalar special functions used throughout inference.

Everything Bessel-related is kept on the log scale: the inference loops
multiply quantities whose product argument can push ``K_nu`` far below the
smallest representable double, so the raw function value is never
materialized.  ``log_bessel_k`` works from the exponentially scaled
``K_nu(x) e^x`` and dispatches on the order:

* integer orders recurse upward from ``k0e`` / ``k1e``;
* half-integer orders recurse upward from the closed form
  ``K_{1/2}(x) e^x = sqrt(pi / (2x))``;
* any other order goes through the generic ``kve``.

Upward recurrence ``K_{m+1} = K_{m-1} + (2m/x) K_m`` is the stable direction
for ``K`` and only adds positive terms.  Both the unig engine (order 1) and
the mnig engine (order (d+1)/2) take one of the first two paths, which stay
finite for every argument a double can hold, whereas ``kve`` gives NaN above
x of about 1e9.  Every value that still comes out non-finite, which is the
small-argument / large-order corner where even the scaled function
overflows, is recomputed in arbitrary precision.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import erfcx, gammaln, k0e, k1e, kve, psi

__all__ = [
    "log_bessel_k",
    "digamma",
    "trunc_normal_moments",
    "sqrt_gamma_moment",
]

_SQRT_2PI = math.sqrt(2.0 * math.pi)
_MAX_ORDER = 64.0


def log_bessel_k(nu: float, x):
    """log K_nu(x), the modified Bessel function of the third kind.

    Symmetric in the order (``K_{-nu} = K_{nu}``) and safe for arguments
    where the unscaled function under- or overflows.  ``x`` may be a scalar
    or an ndarray; the order is scalar.

    Parameters
    ----------
    nu : float
        Order, ``|nu| <= 64``.
    x : float or ndarray
        Argument, strictly positive.

    Returns
    -------
    float or ndarray
    """
    nu = abs(float(nu))
    if not math.isfinite(nu) or nu > _MAX_ORDER:
        raise ValueError(f"order out of range: {nu}")
    scalar = np.isscalar(x)
    x = np.asarray(x, dtype=float)
    # The minimum is NaN when any element is, so NaN fails here too.
    if not (x.min() > 0.0 and x.max() < math.inf):
        raise ValueError("argument of log_bessel_k must be finite and > 0")

    with np.errstate(over="ignore", divide="ignore"):
        out = np.asarray(np.log(_scaled_k(nu, x)) - x)

    bad = ~np.isfinite(out)
    if np.any(bad):
        flat = out.reshape(-1)
        xf = x.reshape(-1)
        for i in np.nonzero(bad.reshape(-1))[0]:
            flat[i] = _log_k_mpmath(nu, float(xf[i]))
    return float(out) if scalar else out


def _scaled_k(nu: float, x: np.ndarray):
    """K_nu(x) e^x for nu >= 0, by order (see the module docstring)."""
    if nu == 0.0:
        return k0e(x)
    if nu == 1.0:
        return k1e(x)
    if nu.is_integer():
        m, lower, k = 1.0, k0e(x), k1e(x)
    elif (nu - 0.5).is_integer():
        # K_{-1/2} = K_{1/2}
        m, lower = 0.5, np.sqrt(math.pi / (2.0 * x))
        k = lower
    else:
        return kve(nu, x)
    while m < nu:
        lower, k = k, lower + (2.0 * m / x) * k
        m += 1.0
    return k


def _log_k_mpmath(nu: float, x: float) -> float:
    # The scaled value overflowed: tiny x with a large order.  Arbitrary
    # precision is slow, so only the elements that need it come here.
    import mpmath as mp

    with mp.workdps(40):
        return float(mp.log(mp.besselk(nu, x)))


def digamma(x):
    """Digamma function Psi(x) for x > 0; a float (``np.float64`` too) skips
    the array checks, which cost far more than ``psi`` on a scalar."""
    if isinstance(x, float) and math.isfinite(x) and x > 0.0:
        return float(psi(x))
    xa = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(xa)) or np.any(xa <= 0.0):
        raise ValueError("digamma requires x > 0")
    return psi(x)


def trunc_normal_moments(m: float, s: float) -> tuple[float, float]:
    """Mean and second moment of N(m, s^2) truncated to (0, inf).

    The inverse Mills ratio is computed through the scaled complementary
    error function, so locations many scales below or above the truncation
    point never suffer cancellation or underflow.

    Returns
    -------
    (mean, second_moment)
    """
    if not (s > 0.0) or not math.isfinite(m) or not math.isfinite(s):
        raise ValueError("truncated normal requires finite m and s > 0")
    h = m / s
    # phi(h) / Phi(h) without forming either factor.
    denom = erfcx(-h / math.sqrt(2.0))
    if not math.isfinite(denom):
        # Location so far above zero that the scaled erfc overflows; the
        # truncation correction is below double precision there.
        return m, s * s + m * m
    if denom == 0.0:
        raise FloatingPointError(
            "truncated normal survival mass underflowed (all mass below 0)"
        )
    mills = math.sqrt(2.0 / math.pi) / denom
    mean = m + s * mills
    # Var = s^2 (1 + alpha*lambda - lambda^2) with alpha = -h, lambda = mills.
    var = s * s * (1.0 - h * mills - mills * mills)
    var = max(var, 0.0)
    return mean, var + mean * mean


def sqrt_gamma_moment(shape: float, rate: float) -> float:
    """E[sqrt(X)] for X ~ Gamma(shape, rate), shape-rate convention."""
    if not (shape > 0.0 and rate > 0.0):
        raise ValueError("gamma moment requires shape > 0 and rate > 0")
    return math.exp(gammaln(shape + 0.5) - gammaln(shape)) / math.sqrt(rate)
