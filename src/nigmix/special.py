"""Numerically robust special functions used throughout inference, each
taking a float or an ndarray.

Everything Bessel-related is kept on the log scale: the inference loops
multiply quantities whose product argument can push ``K_nu`` far below the
smallest representable double, so the raw function value is never
materialized.  ``log_bessel_k`` works from the exponentially scaled
``K_nu(x) e^x`` and takes integer and half-integer orders only, the orders
of the unig engine (1) and the mnig engine ((d+1)/2):

* integer orders recurse upward from ``k0e`` / ``k1e``;
* half-integer orders recurse upward from the closed form
  ``K_{1/2}(x) e^x = sqrt(pi / (2x))``.

Upward recurrence ``K_{m+1} = K_{m-1} + (2m/x) K_m`` is the stable direction
for ``K`` and only adds positive terms.  Both paths stay finite for every
argument a double can hold, whereas the generic ``kve`` gives NaN above x
of about 1e9.  Every value that still comes out non-finite, which is the
small-argument / large-order corner where even the scaled function
overflows, is recomputed in arbitrary precision.

This is also the one module that names scipy.  The engines need seven of
its special functions (``k0e``, ``k1e`` and ``erfcx`` here, ``gammaincinv``,
``gammaln``, ``psi`` and ``xlogy`` in ``vb_unig``, ``psi`` in ``vb_mnig``),
each a compiled ufunc that scipy 1.17 defines in the extension module
``scipy.special._special_ufuncs``; ``scipy.special._ufuncs`` and the
package only re-export those objects.  Importing the extension the usual
way runs ``scipy.special``'s ``__init__`` first, which loads scipy's
array-API layer (about 280 modules nigmix never calls), ``_ufuncs`` with
its helpers and scipy's own second OpenBLAS; with OpenBLAS threading at
its default, that OpenBLAS starts nproc - 1 idle threads.

So the extension is loaded straight from its file, under its full name:
``importlib.util.find_spec("scipy")`` gives scipy's directory without
importing scipy, ``PathFinder`` finds the file in ``special/`` and an
``ExtensionFileLoader`` named ``scipy.special._special_ufuncs`` loads it.
The extension links only the C and C++ runtimes.  CPython's single-phase
init of such a module records it under that name in ``sys.modules`` and
in its own cache of extensions; the ``sys.modules`` entry alone is
removed again.  A later ``import scipy.special`` then loads the extension
itself, from that cache, which gives it the same ufunc objects, and binds
it as a package attribute, which ``scipy.special.seterr`` reads (left in
place, the entry keeps the attribute from being set, and ``seterr``
raises).  So nigmix calls the same functions in either import order, and
``seterr`` governs both.  When ``scipy.special`` was imported first, the
module it holds is reused.  An older scipy whose ``_special_ufuncs`` is
missing or lacks one of the seven names gets a plain
``import scipy.special`` instead.

On scipy 1.17.1 (2-core host, Python 3.11) a process running only
``import numpy, nigmix`` peaks at 33.6 MB RSS and imports in about
0.08 s (medians of 10 processes).  With ``OPENBLAS_NUM_THREADS`` unset it
runs 2 OS threads, the main one and numpy's OpenBLAS worker; loading
``scipy.special._ufuncs`` gave 37.4 MB, 0.15 s and 3 threads, and the
package init about 54 MB.

The ``sys.modules`` entry lives from the end of the extension's init to
its removal, a few lines of Python later.  A thread that imports
``scipy.special`` inside that window finds it there and leaves the
package without the attribute ``seterr`` reads.  A second thread that
spins until the entry appears and then imports ``scipy.special`` never
saw it in 50 runs (30 at the default switch interval, 20 at 1 us), but
the window is not closed: a threaded program imports nigmix before it
starts threads that import ``scipy.special``.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import math
import os
import sys

import numpy as np

_UFUNCS = ("erfcx", "gammaincinv", "gammaln", "k0e", "k1e", "psi", "xlogy")


def _special_ufuncs():
    """scipy's ``special._special_ufuncs`` extension, loaded without its
    package (see the module docstring), or None when scipy has no such
    extension with all seven ufuncs."""
    name = "scipy.special._special_ufuncs"
    module = sys.modules.get(name)
    if module is None:
        scipy = importlib.util.find_spec("scipy")
        spec = scipy and importlib.machinery.PathFinder.find_spec(
            "_special_ufuncs",
            [os.path.join(path, "special") for path in scipy.submodule_search_locations],
        )
        if spec is None:
            return None
        loader = importlib.machinery.ExtensionFileLoader(name, spec.origin)
        module = importlib.util.module_from_spec(
            importlib.util.spec_from_file_location(name, spec.origin, loader=loader)
        )
        if sys.modules.get(name) is module:
            del sys.modules[name]
    return module if all(hasattr(module, attr) for attr in _UFUNCS) else None


_scipy = _special_ufuncs()
if _scipy is None:
    import scipy.special as _scipy

erfcx = _scipy.erfcx
gammaincinv = _scipy.gammaincinv
gammaln = _scipy.gammaln
k0e = _scipy.k0e
k1e = _scipy.k1e
psi = _scipy.psi
xlogy = _scipy.xlogy

__all__ = [
    "log_bessel_k",
    "trunc_normal_moments",
]

_MAX_ORDER = 64.0


def log_bessel_k(nu: float, x, pair: bool = False):
    """log K_nu(x), the modified Bessel function of the third kind.

    Symmetric in the order (``K_{-nu} = K_{nu}``) and safe for arguments
    where the unscaled function under- or overflows.  ``x`` may be a scalar
    or an ndarray; the order is scalar.

    Parameters
    ----------
    nu : float
        Order, an integer or half-integer with ``|nu| <= 64``.
    x : float or ndarray
        Argument, strictly positive.
    pair : bool
        Also return K_{||nu| - 1|}(x) / K_nu(x), which the GIG moments need,
        as exp of the difference of the two logs, so it loses digits as x
        grows: 1e-14 relative at nu = 1, x = 1e3, and 5e-9 at x = 1e8.

    Returns
    -------
    float or ndarray; with ``pair``, the tuple (log K_nu(x), the ratio)
    """
    nu = abs(float(nu))
    if not (nu <= _MAX_ORDER and (2.0 * nu).is_integer()):
        raise ValueError(f"order must be a whole or half-integer <= 64: {nu}")
    scalar = np.isscalar(x)
    x = np.asarray(x, dtype=float)
    # The minimum is NaN when any element is, so NaN fails here too; an
    # empty array passes and gives an empty result.
    if not (x.min(initial=math.inf) > 0.0 and x.max(initial=-math.inf) < math.inf):
        raise ValueError("argument of log_bessel_k must be finite and > 0")

    # At least 1-d, so that every scaled value is an array the log can
    # overwrite: no step allocates more than its result.
    x1 = np.atleast_1d(x)
    with np.errstate(over="ignore", divide="ignore"):
        logs = _scaled_k(nu, x1, pair)
        for out in logs:
            np.log(out, out=out)
            out -= x1
    for order, out in zip((nu, abs(nu - 1.0)), logs):
        for i in np.flatnonzero(~np.isfinite(out)):
            out.flat[i] = _log_k_mpmath(order, float(x1.flat[i]))
    if pair:
        # K_||nu|-1| / K_nu, in the buffer of its numerator's log.
        ratio = np.subtract(logs[1], logs[0], out=logs[1])
        np.exp(ratio, out=ratio)
    outs = [float(out[0]) if scalar else out.reshape(x.shape) for out in logs]
    return tuple(outs) if pair else outs[0]


def _scaled_k(nu: float, x: np.ndarray, pair: bool):
    """K_nu(x) e^x for an integer or half-integer nu >= 0, by order (see the
    module docstring), and with ``pair`` K_|nu-1|(x) e^x after it, each a
    new array of the shape of the array ``x``."""
    if nu.is_integer():
        if nu <= 1.0 and not pair:
            return ((k1e if nu else k0e)(x),)
        m, lower, k = 1.0, k0e(x), k1e(x)
        if nu == 0.0:
            return lower, k
    else:
        # K_{-1/2} = K_{1/2} = sqrt(pi / (2x)) e^-x
        m, lower = 0.5, 2.0 * x
        np.divide(math.pi, lower, out=lower)
        np.sqrt(lower, out=lower)
        k = lower
    while m < nu:
        # lower + (2m / x) k, written into the one new array.
        step = 2.0 * m / x
        step *= k
        step += lower
        lower, k = k, step
        m += 1.0
    if not pair:
        return (k,)
    # At nu = 1/2 both orders are the one array, which the caller logs in place.
    return k, (lower.copy() if lower is k else lower)


def _log_k_mpmath(nu: float, x: float) -> float:
    # The scaled value overflowed: tiny x with a large order.  Arbitrary
    # precision is slow, so only the elements that need it come here.
    import mpmath as mp

    with mp.workdps(40):
        return float(mp.log(mp.besselk(nu, x)))


def trunc_normal_moments(m, s):
    """Mean and second moment of N(m, s^2) truncated to (0, inf).

    ``m`` and ``s`` are floats or ndarrays, broadcast against each other;
    each element gets the bits of its own float computation.  The inverse
    Mills ratio is computed through the scaled complementary error
    function, so it does not underflow at locations many scales below or
    above the truncation point.  The mean ``m + s * mills`` is accurate for
    m >= 0, which every engine call passes (unig passes ratio * delta and
    mnig passes a0 / a3, both positive).  Far below zero its two terms
    cancel: at (m, s) = (-1e5, 1) it loses 3.4e-7 relative, and at
    (-1e8, 1) it comes out negative.

    Returns
    -------
    (mean, second_moment), floats when both inputs are 0-d and arrays
    otherwise
    """
    m = np.asarray(m, dtype=float)
    s = np.asarray(s, dtype=float)
    # One reduction: the engines pass a few rows, where each call costs more
    # than its arithmetic.
    if not (np.isfinite(m) & np.isfinite(s) & (s > 0.0)).all():
        raise ValueError("truncated normal requires finite m and s > 0")
    # Overflow and inf * 0 carry inf and NaN silently, as float arithmetic
    # does: m / s can overflow, and so can the second moment.
    with np.errstate(over="ignore", invalid="ignore"):
        h = m / s
        # phi(h) / Phi(h) without either factor; 0 where erfcx overflows,
        # which leaves (m, s^2 + m^2).
        denom = erfcx(-h / math.sqrt(2.0))
        if not denom.all():
            raise FloatingPointError(
                "truncated normal survival mass underflowed (all mass below 0)"
            )
        mills = math.sqrt(2.0 / math.pi) / denom
        mean = m + s * mills
        # Var = s^2 (1 + alpha*lambda - lambda^2), alpha = -h, lambda = mills.
        var = s * s * (1.0 - h * mills - mills * mills)
        # 0 for a negative variance and for the NaN of inf * 0 where m / s
        # overflows, as max(0.0, var) gives (fmax drops a NaN, and a -0.0 it
        # may keep adds to mean^2 as 0.0 does).
        second = np.fmax(var, 0.0)
        second += mean * mean
    if m.ndim == s.ndim == 0:
        return float(mean), float(second)
    return mean, second
