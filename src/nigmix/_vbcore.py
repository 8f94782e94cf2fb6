"""Machinery shared by the univariate and multivariate engines.

Holds the result containers, the deterministic initial-partition helpers
(one-hot random assignment and a small seeded Lloyd k-means), the
log-sum-exp row normalization with its uniform-row underflow fallback,
``prune``, and ``run_sweep``, the variational sweep both engines run with
their own update steps.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .config import FitConfig
from .special import log_bessel_k

__all__ = [
    "DegenerateComponent",
    "DegenerateFit",
    "FitResult",
    "gig_log_k",
    "initial_partition",
    "kmeans_labels",
    "normalize_log_scores",
    "one_hot",
    "prune",
    "run_sweep",
]


class DegenerateComponent(Exception):
    """A component's hyperparameters left the valid region; prune it."""


class DegenerateFit(Exception):
    """Every component was pruned, or a score lost its Bessel argument."""


@dataclass
class FitResult:
    """Converged (or flagged) state of a variational fit."""

    model: str
    surviving: list[int]
    hypers: list
    bundles: list
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
        a0 = np.array([h.a0 for h in self.hypers])
        return a0 / a0.sum()


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
    for j in range(1, k):
        probs = d2 / d2.sum() if d2.sum() > 0 else np.full(n, 1.0 / n)
        centers[j] = data[rng.choice(n, p=probs)]
        d2 = np.minimum(d2, np.sum((data - centers[j]) ** 2, axis=1))
    labels = np.zeros(n, dtype=int)
    for _ in range(100):
        dist = ((data[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
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
    if g_init >= n:
        raise ValueError("g_init must be smaller than the number of observations")
    if init_mode == "random":
        labels = rng.integers(0, g_init, size=n)
    elif init_mode == "kmeans":
        labels = kmeans_labels(np.asarray(data, dtype=float), g_init, rng)
    else:
        raise ValueError(f"unknown init_mode {init_mode!r}")
    return one_hot(labels, g_init)


def normalize_log_scores(log_scores: np.ndarray) -> tuple[np.ndarray, list[str]]:
    """Row-wise softmax of log scores with a uniform fallback.

    Rows where every score is non-finite (transient underflow at far
    outliers) become uniform and are reported in the returned flags.
    """
    n, k = log_scores.shape
    flags: list[str] = []
    scores = np.array(log_scores, dtype=float)
    finite_row = np.isfinite(scores).any(axis=1)
    if not finite_row.all():
        for i in np.nonzero(~finite_row)[0]:
            flags.append(f"underflow_row:{i}")
        scores[~finite_row] = 0.0
    scores -= scores.max(axis=1, keepdims=True)
    resp = np.exp(scores)
    resp /= resp.sum(axis=1, keepdims=True)
    return resp, flags


def gig_log_k(lam: float, chi: np.ndarray, psi) -> np.ndarray:
    """log K_lam(sqrt(chi * psi)) over a sweep's latent posteriors, one row
    per component: chi is (k, n) and psi (k, 1).

    Cancellation at a far outlier can leave an argument that is zero or not
    finite: the first such row raises DegenerateComponent(row, reason).
    """
    omega = np.sqrt(chi * psi)
    try:
        return log_bessel_k(lam, omega)
    except ValueError as exc:
        row = int(np.argmin(((omega > 0.0) & (omega < np.inf)).all(axis=1)))
        raise DegenerateComponent(row, str(exc)) from None


def prune(resp: np.ndarray, hypers: list, threshold: float = 1.0):
    """Drop components whose effective count falls below the threshold.

    Rows are renormalized afterwards; removing every component raises
    DegenerateFit.
    """
    if not threshold > 0.0:
        raise ValueError("threshold must be positive")
    col = resp.sum(axis=0)
    keep = np.nonzero(col >= threshold)[0]
    removed = [g for g in range(resp.shape[1]) if g not in set(keep.tolist())]
    if keep.size == 0:
        raise DegenerateFit("pruning removed every component")
    if not removed:
        return resp, list(hypers), []
    resp = resp[:, keep]
    row_sums = resp.sum(axis=1, keepdims=True)
    dead_rows = row_sums[:, 0] <= 0.0
    if dead_rows.any():
        resp[dead_rows] = 1.0 / keep.size
        row_sums = resp.sum(axis=1, keepdims=True)
    resp = resp / row_sums
    return resp, [hypers[g] for g in keep], removed


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

    Components whose ``expectations`` raise DegenerateComponent are dropped
    before the responsibilities are updated; ``responsibilities`` raising
    DegenerateComponent(g, reason) for component g ends the fit with
    DegenerateFit.  Convergence means the largest absolute responsibility
    change in a sweep that neither dropped nor pruned a component fell below
    ``config.tol``; hitting ``max_iter`` first flags the result instead of
    raising.
    """
    resp, lat, priors = init(
        data, config.g_init, config.init_mode, config.hyper_init, config.seed
    )
    ids = list(range(1, config.g_init + 1))
    trace: list[dict] = []
    all_flags: list[str] = []
    converged = False
    iterations = 0
    hypers: list = []
    bundles: list = []

    for iterations in range(1, config.max_iter + 1):
        hypers = update_hypers(priors, resp, lat, data)
        total_mass = sum(h.a0 for h in hypers)
        bundles = []
        live = []
        for g, h in enumerate(hypers):
            try:
                bundles.append(expectations(h, total_mass))
                live.append(g)
            except DegenerateComponent as exc:
                all_flags.append(f"degenerate_component:{ids[g]}:{exc}")
        if not live:
            raise DegenerateFit("all components degenerate")
        dropped = len(live) < len(hypers)
        if dropped:
            resp = resp[:, live]
            resp /= np.maximum(resp.sum(axis=1, keepdims=True), 1e-300)
            hypers = [hypers[g] for g in live]
            priors = [priors[g] for g in live]
            ids = [ids[g] for g in live]

        try:
            new_resp, lat, flags = responsibilities(data, bundles)
        except DegenerateComponent as exc:
            g, reason = exc.args
            raise DegenerateFit(f"component {ids[g]}: {reason}") from exc
        all_flags.extend(flags)

        pruned_resp, hypers, removed = prune(
            new_resp, hypers, config.prune_threshold
        )
        # A sweep that dropped or pruned components has no change to report:
        # the drop re-slices ``resp`` before it is compared.  None keeps the
        # run record strict JSON, where inf would not.
        same_shape = not (dropped or removed)
        max_change = (
            float(np.abs(pruned_resp - resp).max()) if same_shape else None
        )
        if removed:
            keep = [g for g in range(new_resp.shape[1]) if g not in removed]
            priors = [priors[g] for g in keep]
            bundles = [bundles[g] for g in keep]
            ids = [ids[g] for g in keep]
            lat = (lat[0][:, keep], lat[1][:, keep])
        resp = pruned_resp
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
        surviving=ids,
        hypers=hypers,
        bundles=bundles,
        resp=resp,
        labels=resp.argmax(axis=1) + 1,
        iterations=iterations,
        converged=converged,
        trace=trace,
        flags=all_flags,
    )
