"""Machinery shared by the univariate and multivariate engines.

Holds the result containers, ``real_array``, the one conversion of fit
input both engine entries make, the component-stack helper ``take``, the
deterministic initial-partition helpers (one-hot random assignment and a
small seeded Lloyd k-means, which checks for squared distances that
overflow), the log-sum-exp row normalization with its uniform-row
underflow fallback, ``gig_responsibilities``, the responsibilities step
both engines finish with, ``prune``, and ``run_sweep``, which checks the
shared input, draws the start (the initial partition and its latent
moments) and runs the variational sweep with each engine's update steps.
The responsibilities step works in place: it sums the scores into the
engine's score head, takes the Bessel ratio with log K from
``log_bessel_k``, and hands its buffers on to ``gig_moments`` and
``normalize_log_scores``, which write into them.  So a unig fit holds at
most about 6.5 arrays of n x g_init doubles at once (tracemalloc: 1.55 MB
at n = 3000 and 14.8 MB at n = 30000, g_init 10), and an mnig fit 7.2
(2.0 MB at n = 3500, d = 10, g_init 10): its (n, d) terms, and the
k-means distances, are formed one component or centre at a time.
A component stack is a dataclass whose every field has a leading axis of
one row per component.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .config import FitConfig, InvalidData
from .distributions import gig_moments
from .special import log_bessel_k

__all__ = [
    "DegenerateComponent",
    "DegenerateFit",
    "FitResult",
    "gig_responsibilities",
    "initial_partition",
    "kmeans_labels",
    "normalize_log_scores",
    "one_hot",
    "prune",
    "real_array",
    "run_sweep",
    "take",
]


class DegenerateComponent(Exception):
    """A component's latent posterior left the valid region."""


class DegenerateFit(Exception):
    """Every component was pruned, or a score lost its Bessel argument."""


@dataclass
class FitResult:
    """Converged (or flagged) state of a fit; hypers and bundles are stacks."""

    model: str
    surviving: list[int]
    hypers: object
    bundles: object
    resp: np.ndarray
    labels: np.ndarray
    iterations: int
    converged: bool
    trace: list[dict] = field(default_factory=list)
    flags: list[str] = field(default_factory=list)

    @property
    def n_components(self) -> int:
        return len(self.surviving)

    @property
    def weights(self) -> np.ndarray:
        return self.hypers.a0 / self.hypers.a0.sum()


def real_array(data) -> np.ndarray:
    """``data`` as a float array; complex, string, object or ragged input
    raises InvalidData rather than being cast or failing inside numpy."""
    try:
        data = np.asarray(data)
    except ValueError as exc:
        raise InvalidData(f"data must be a rectangular array: {exc}") from None
    if data.dtype.kind not in "biuf":
        raise InvalidData(f"data must be real numbers, got dtype {data.dtype}")
    return data.astype(float, copy=False)


def take(stack, index):
    """``stack`` with every field indexed by ``index``, such as kept rows."""
    return type(stack)(*(v[index] for v in vars(stack).values()))


def one_hot(labels: np.ndarray, k: int) -> np.ndarray:
    resp = np.zeros((labels.shape[0], k))
    resp[np.arange(labels.shape[0]), labels] = 1.0
    return resp


def kmeans_labels(data: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    """Plain seeded Lloyd iteration with k-means++ style seeding.

    Deterministic for a fixed generator state; entirely sufficient for
    producing an initial hard partition.
    """
    data = np.atleast_2d(data.T).T if data.ndim == 1 else data
    n = data.shape[0]
    centers = np.empty((k, data.shape[1]))
    centers[0] = data[rng.integers(n)]
    d2 = np.sum((data - centers[0]) ** 2, axis=1)
    # The seeding draws in proportion to d2, which an overflow in the squared
    # distances or in their sum leaves undefined.
    if not d2.sum() < math.inf:
        raise DegenerateFit("squared distances between observations overflow")
    for j in range(1, k):
        probs = d2 / d2.sum() if d2.sum() > 0 else np.full(n, 1.0 / n)
        centers[j] = data[rng.choice(n, p=probs)]
        d2 = np.minimum(d2, np.sum((data - centers[j]) ** 2, axis=1))
    labels = np.zeros(n, dtype=int)
    # One centre's (n, d) squares at a time, summed along d as the seeding
    # sums them, into the columns of the (n, k) distances.
    diff = np.empty(data.shape)
    dist = np.empty((n, k))
    for _ in range(100):
        for j, center in enumerate(centers):
            np.subtract(data, center, out=diff)
            np.square(diff, out=diff)
            dist[:, j] = diff.sum(axis=1)
        new_labels = dist.argmin(axis=1)
        if np.array_equal(new_labels, labels):
            break
        labels = new_labels
        for j in range(k):
            mask = labels == j
            if mask.any():
                centers[j] = data[mask].mean(axis=0)
    return labels


def initial_partition(
    data: np.ndarray, g_init: int, init_mode: str, rng: np.random.Generator
) -> np.ndarray:
    """One-hot initial responsibilities from a random or k-means partition."""
    n = data.shape[0]
    if init_mode == "random":
        labels = rng.integers(0, g_init, size=n)
    else:
        labels = kmeans_labels(data, g_init, rng)
    return one_hot(labels, g_init)


def normalize_log_scores(log_scores: np.ndarray) -> tuple[np.ndarray, list[str]]:
    """Softmax over the components of (k, n) log scores, returned as (n, k)
    C-ordered responsibilities, with a uniform fallback.

    The softmax runs in the buffer of ``log_scores``, which it consumes:
    the caller must not read it afterwards.  The one new (k, n) array is
    the returned (n, k) copy.  Observations where every score is non-finite
    (transient underflow at far outliers) become uniform and are reported
    in the returned flags.  The result is bit for bit the row-wise softmax
    of the (n, k) scores.
    """
    finite = np.isfinite(log_scores).any(axis=0)
    flags = [f"underflow_row:{i}" for i in np.nonzero(~finite)[0]]
    if flags:
        log_scores[:, ~finite] = 0.0
    resp = log_scores
    resp -= resp.max(axis=0)
    np.exp(resp, out=resp)
    # numpy sums a contiguous row of k values in turn below 8 and pairwise
    # from 8 on; only the second needs the row-major copy.
    if resp.shape[0] < 8:
        resp /= resp.sum(axis=0)
        return resp.T.copy(), flags
    resp = resp.T.copy()
    resp /= resp.sum(axis=1, keepdims=True)
    return resp, flags


def gig_responsibilities(lam: float, head: np.ndarray, chi: np.ndarray, psi):
    """New responsibilities and latent GIG moments from each engine's score
    head: the engines' shared responsibilities step.

    A component's log score at an observation is its ``head`` plus the log
    normalizer of the latent GIG(lam, chi, psi) posterior,
    log 2 + (lam/2) log(chi/psi) + log K_lam(sqrt(chi psi)).  ``head`` and
    ``chi`` are (k, n), one row per component, and ``psi`` is (k, 1).
    The step consumes ``head``, whose buffer becomes the scores, and the
    caller must not read it afterwards; ``chi`` and ``psi`` are only read.
    The argument sqrt(chi psi) and log K_lam are formed once and serve both
    the scores and the latent moments.  Both engines build ``psi`` positive,
    so the one check that the argument is positive and finite is a check of
    ``chi``: cancellation at a far outlier can leave it zero or not finite,
    and the first such row raises DegenerateComponent(row, reason).
    """
    if head.shape[0] == 0:
        raise DegenerateFit("no live components")
    omega = chi * psi
    np.sqrt(omega, out=omega)
    # math.log, not np.log, which differs from it in the last bit on about
    # 1e-4 of arguments: study2 responsibilities would move by up to 5e-11.
    log_psi = np.array([math.log(v) for v in psi.flat])[:, None]
    # head + log 2 + lam/2 (log chi - log psi) + log K, summed into head in
    # that order; the last term is added once log K exists.
    scores = head
    scores += math.log(2.0)
    # A cancelled chi is reported by log K below, so its log must not warn.
    with np.errstate(divide="ignore", invalid="ignore"):
        log_ratio = np.log(chi)
    log_ratio -= log_psi
    log_ratio *= 0.5 * lam
    scores += log_ratio
    del log_ratio
    try:
        log_k, ratio = log_bessel_k(lam, omega, pair=True)
    except ValueError as exc:
        row = int(np.argmin(((omega > 0.0) & (omega < np.inf)).all(axis=1)))
        raise DegenerateComponent(row, str(exc)) from None
    scores += log_k
    del log_k
    # The moments come before the softmax, while no responsibilities are
    # alive yet; they are written into the buffers of omega and the ratio.
    e_u, e_uinv = gig_moments(lam, chi, psi, omega, ratio)
    del omega, ratio
    # C-ordered (n, k) copies, one at a time: update_hypers' dot products
    # over strided columns would sum in another order and move the answers.
    e_u = e_u.T.copy()
    e_uinv = e_uinv.T.copy()
    resp, flags = normalize_log_scores(scores)
    return resp, (e_u, e_uinv), flags


def prune(resp: np.ndarray, threshold: float):
    """Drop components whose effective count falls below the threshold.

    ``threshold`` is positive, as ``FitConfig`` checks.  Returns the
    renormalized responsibilities and the indices of the kept components;
    removing every component raises DegenerateFit.
    """
    keep = np.nonzero(resp.sum(axis=0) >= threshold)[0].tolist()
    if not keep:
        raise DegenerateFit("pruning removed every component")
    if len(keep) == resp.shape[1]:
        return resp, keep
    resp = resp[:, keep]
    row_sums = resp.sum(axis=1, keepdims=True)
    dead_rows = row_sums[:, 0] <= 0.0
    if dead_rows.any():
        resp[dead_rows] = 1.0 / len(keep)
        row_sums = resp.sum(axis=1, keepdims=True)
    return resp / row_sums, keep


def run_sweep(
    model: str,
    data: np.ndarray,
    config: FitConfig,
    init,
    update_hypers,
    expectations,
    responsibilities,
) -> FitResult:
    """Run one engine's variational sweep to convergence.

    ``data`` comes shaped by ``fit`` or ``fit_m``; a ``config`` for the other
    engine, a non-finite value or no more rows than ``config.g_init`` raise
    InvalidData, and every step trusts ``data`` after these checks.  Then
    the start is drawn: the initial partition from ``config.seed``, and
    ``init``'s GIG order, (n, g) ``chi`` and priors for it, whose latent
    GIG(order, chi, 1) moments begin the sweep; a ``chi`` that overflowed
    raises DegenerateFit.
    ``expectations`` returns the bundle stack of the valid hyper rows and
    the (row, reason) of the others, which are dropped; ``responsibilities``
    raising DegenerateComponent(g, reason) for bundle row g ends the fit
    with DegenerateFit, and so does a sweep that dropped every row: the
    responsibilities step raises it on an empty stack.  Convergence means
    the largest absolute responsibility change in a sweep that neither
    dropped nor pruned a component fell below ``config.tol``; hitting
    ``max_iter`` first flags the result instead of raising.
    """
    if config.model != model:
        raise InvalidData(f"config.model is {config.model!r}, not {model!r}")
    if not np.isfinite(data).all():
        raise InvalidData("data must be finite")
    if data.shape[0] <= config.g_init:
        n, g = data.shape[0], config.g_init
        raise InvalidData(f"{n} rows, but a fit needs more rows than g_init ({g})")
    rng = np.random.default_rng(config.seed)
    # Called through the module global, which a tracer rebinds.
    resp = initial_partition(data, config.g_init, config.init_mode, rng)
    lam, chi, priors = init(data, resp, config.hyper_init)
    if not chi.max() < math.inf:
        raise DegenerateFit("squared distances to the initial centres overflow")
    lat = gig_moments(lam, chi, 1.0)
    del chi
    ids = np.arange(1, config.g_init + 1)
    trace: list[dict] = []
    all_flags: list[str] = []
    converged = False
    iterations = 0
    hypers = bundles = None

    for iterations in range(1, config.max_iter + 1):
        hypers = update_hypers(priors, resp, lat, data)
        # Dropped before the responsibilities step forms the next moments.
        del lat
        # Left to right: numpy sums eight or more values pairwise.
        total_mass = sum(hypers.a0.tolist())
        bundles, dropped = expectations(hypers, total_mass)
        live = np.arange(len(ids))
        if dropped:
            all_flags += [f"degenerate_component:{ids[g]}:{why}" for g, why in dropped]
            live = np.delete(live, [g for g, _ in dropped])

        try:
            new_resp, lat, flags = responsibilities(data, bundles)
        except DegenerateComponent as exc:
            g, reason = exc.args
            raise DegenerateFit(f"component {ids[live[g]]}: {reason}") from exc
        all_flags.extend(flags)

        new_resp, keep = prune(new_resp, config.prune_threshold)
        # A sweep that dropped or pruned components has no change to report;
        # None keeps the run record strict JSON, where inf would not.
        kept = live[keep]
        same_shape = len(kept) == len(ids)
        max_change = float(np.abs(new_resp - resp).max()) if same_shape else None
        if not same_shape:
            ids, priors, hypers = ids[kept], take(priors, kept), take(hypers, kept)
            bundles = take(bundles, keep)
            lat = (lat[0][:, keep], lat[1][:, keep])
        resp = new_resp
        trace.append(
            {
                "iteration": iterations,
                "g_alive": len(ids),
                "max_resp_change": max_change,
                "count_mass": total_mass,
            }
        )
        if same_shape and max_change < config.tol:
            converged = True
            break

    if not converged:
        all_flags.append("non_convergence")
    return FitResult(
        model=model,
        surviving=ids.tolist(),
        hypers=hypers,
        bundles=bundles,
        resp=resp,
        labels=resp.argmax(axis=1) + 1,
        iterations=iterations,
        converged=converged,
        trace=trace,
        flags=all_flags,
    )
