"""Shared slow oracles for the test suite: literal summation mirrors of the
conjugate updates, the hyper, expectation and responsibility steps of both
engines one component at a time (with the scalar E[sqrt(X)] of a gamma
variable, and the tail-weight quadrature with one scalar truncated-normal
call per node), the row-by-row softmax with log K at each order from its
own call, pair-enumeration agreement index, set-partition enumeration, the
d = 1 tilde map of parameters and of expectations, the inverse Gaussian
and GIG densities, a column-by-column Cholesky, log-scale Bessel K and GIG
moments through the generic ``kve`` at three orders, and the univariate
and multivariate log scores of one bundle written out term by term, the
start of a fit's first sweep, the k-means start with its Lloyd
distances to all centres broadcast at once, and a 50-digit mpmath scale
accumulator of the multivariate hyper update."""

import itertools
import math
from dataclasses import fields
from types import SimpleNamespace

import mpmath
import numpy as np
from scipy.special import erfcx, gammaincinv, gammaln, kve, psi, xlogy

from nigmix._vbcore import DegenerateComponent, initial_partition
from nigmix.distributions import MNIGParams, UNIGParams, gig_moments
from nigmix.linalg import NotPositiveDefinite, spd_inverse_logdet_jittered
from nigmix.special import log_bessel_k
from nigmix.vb_mnig import ComponentHyperM, ExpectationBundleM, flat_priors_m
from nigmix.vb_unig import _TRUNC_SAFE_RATIO, ComponentHyper, flat_priors


def row(stack, g):
    """Component g of a stack, as a namespace of its fields' rows."""
    return SimpleNamespace(**{f.name: getattr(stack, f.name)[g] for f in fields(stack)})


def rows(stack):
    """Every component of a stack, as ``row`` gives it."""
    return [row(stack, g) for g in range(len(getattr(stack, fields(stack)[0].name)))]


def assert_stacks_equal(got, ref):
    """Every field of two stacks equal, bit for bit."""
    for field in fields(got):
        name = field.name
        assert np.array_equal(getattr(got, name), getattr(ref, name)), name


def stack(cls, components):
    """The stack of ``cls`` whose rows are the namespaces ``components``."""
    return cls(*(np.array([getattr(c, f.name) for c in components])
                 for f in fields(cls)))


def first_sweep_state(init, data, g_init, hyper_init, seed):
    """(resp, lat, priors) of a k-means start, composed as
    ``_vbcore.run_sweep`` composes it: the seeded initial partition, the
    engine ``init``'s order, chi and priors for it, and the latent
    GIG(order, chi, 1) moments."""
    resp = initial_partition(data, g_init, "kmeans", np.random.default_rng(seed))
    lam, chi, priors = init(data, resp, hyper_init)
    return resp, gig_moments(lam, chi, np.ones_like(chi)), priors


def kmeans_labels_broadcast(data, k, rng):
    """``kmeans_labels`` with each Lloyd step's squared distances to every
    centre broadcast as one (n, k, d) array and summed along d."""
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


def random_u(seed, n=25, k=3):
    rng = np.random.default_rng(seed)
    data = rng.normal(0.0, 3.0, n)
    resp = rng.dirichlet(np.ones(k), size=n)
    e_u = rng.uniform(0.2, 3.0, (n, k))
    e_uinv = 1.0 / e_u + rng.uniform(0.05, 1.0, (n, k))
    return data, resp, (e_u, e_uinv), flat_priors(k, 1e-8)


def random_m(seed, n=20, k=2, d=3):
    rng = np.random.default_rng(seed)
    data = rng.normal(0.0, 2.0, (n, d))
    resp = rng.dirichlet(np.ones(k), size=n)
    e_u = rng.uniform(0.3, 2.5, (n, k))
    e_uinv = 1.0 / e_u + rng.uniform(0.05, 0.8, (n, k))
    priors = flat_priors_m(k, d, 1e-8, float(np.trace(np.atleast_2d(np.cov(data.T)))))
    return data, resp, (e_u, e_uinv), priors


def random_hypers_u(seed, k):
    """A stack of k valid univariate hyper states at the scales of fits of
    up to a few hundred observations."""
    rng = np.random.default_rng(seed)
    a0 = rng.uniform(2.0, 400.0, k)
    a3 = 0.5 * a0 * rng.uniform(0.2, 3.0, k)
    a4 = a0**2 / (4.0 * a3) * rng.uniform(1.001, 4.0, k)
    a1 = a0 * rng.normal(0.0, 5.0, k)
    return ComponentHyper(a0, a1, a1 * rng.uniform(0.3, 3.0, k), a3, a4)


def random_hypers_m(seed, k, d):
    """A stack of k valid multivariate hyper states in d dimensions."""
    rng = np.random.default_rng(seed)
    a0 = rng.uniform(d + 1.0, 400.0, k)
    a3 = a0 * rng.uniform(0.2, 3.0, k)
    a4 = a0**2 / a3 * rng.uniform(1.001, 4.0, k)
    a1 = a0[:, None] * rng.normal(0.0, 5.0, (k, d))
    x = rng.normal(0.0, 1.0, (k, d + 3, d))
    V = a0[:, None, None] * (x.transpose(0, 2, 1) @ x)
    return ComponentHyperM(a0, a1, a1 * rng.uniform(0.3, 3.0, (k, d)), a3, a4,
                           0.5 * (V + V.transpose(0, 2, 1)))


def naive_update_u(priors, resp, lat, data):
    e_u, e_uinv = lat
    out = []
    for g, p in enumerate(rows(priors)):
        a0, a1, a2, a3, a4 = p.a0, p.a1, p.a2, p.a3, p.a4
        for i in range(len(data)):
            z = resp[i, g]
            a0 += z
            a1 += z * data[i]
            a2 += z * e_uinv[i, g] * data[i]
            a3 += 0.5 * z * e_u[i, g]
            a4 += 0.5 * z * e_uinv[i, g]
        out.append(SimpleNamespace(a0=a0, a1=a1, a2=a2, a3=a3, a4=a4))
    return stack(ComponentHyper, out)


def update_hypers_loop(priors, resp, lat, data):
    """``update_hypers`` one component at a time, through the dot products
    of one strided column of ``resp``: the steps the stacked update
    repeats."""
    e_u, e_uinv = lat
    out = []
    for g, p in enumerate(rows(priors)):
        z = resp[:, g]
        out.append(
            SimpleNamespace(
                a0=p.a0 + z.sum(),
                a1=p.a1 + z @ data,
                a2=p.a2 + z @ (e_uinv[:, g] * data),
                a3=p.a3 + 0.5 * (z @ e_u[:, g]),
                a4=p.a4 + 0.5 * (z @ e_uinv[:, g]),
            )
        )
    return stack(ComponentHyper, out)


def expectations_loop(one, cls, hypers, total_count_mass):
    """An expectation step one component at a time: ``one`` forms the
    bundle of one component or raises DegenerateComponent(reason)."""
    bundles, dropped = [], []
    for g, h in enumerate(rows(hypers)):
        try:
            bundles.append(one(h, total_count_mass))
        except DegenerateComponent as exc:
            dropped.append((g, str(exc)))
    return stack(cls, bundles), dropped


def sqrt_gamma_moment(shape: float, rate: float) -> float:
    """E[sqrt(X)] for X ~ Gamma(shape, rate), shape-rate convention."""
    if not (shape > 0.0 and rate > 0.0):
        raise ValueError("gamma moment requires shape > 0 and rate > 0")
    return math.exp(gammaln(shape + 0.5) - gammaln(shape)) / math.sqrt(rate)


def trunc_normal_moments_scalar(m: float, s: float) -> tuple[float, float]:
    """Mean and second moment of N(m, s^2) truncated to (0, inf), in Python
    floats, one (m, s) at a time."""
    if not (s > 0.0) or not math.isfinite(m) or not math.isfinite(s):
        raise ValueError("truncated normal requires finite m and s > 0")
    h = m / s
    # Python floats overflow to inf with no warning, and inf * 0 is NaN.
    denom = float(erfcx(-h / math.sqrt(2.0)))
    if denom == 0.0:
        raise FloatingPointError(
            "truncated normal survival mass underflowed (all mass below 0)"
        )
    mills = math.sqrt(2.0 / math.pi) / denom
    mean = m + s * mills
    var = s * s * (1.0 - h * mills - mills * mills)
    var = max(0.0, var)
    return mean, var + mean * mean


def gamma_quadrature_loop(a0: float, rate: float, ratio: float, s: float):
    """``vb_unig._gamma_quadrature`` on the nodes of ``leggauss(96)``, with
    the truncated-normal moments of one node per scalar call."""
    shape = a0 / 2.0 + 1.0
    scale = 1.0 / rate
    lo = gammaincinv(shape, 1e-10) * scale
    hi = gammaincinv(shape, 1.0 - 1e-10) * scale
    nodes, weights = np.polynomial.legendre.leggauss(96)
    t = 0.5 * (hi - lo) * nodes + 0.5 * (hi + lo)
    x = t / scale
    pdf = np.exp(xlogy(shape - 1.0, x) - x - gammaln(shape)) / scale
    w = weights * 0.5 * (hi - lo) * pdf
    w /= w.sum()
    deltas = np.sqrt(t)
    means = np.empty_like(deltas)
    seconds = np.empty_like(deltas)
    for i, dlt in enumerate(deltas):
        means[i], seconds[i] = trunc_normal_moments_scalar(ratio * dlt, s)
    return float(w @ means), float(w @ seconds), float(w @ (deltas * means))


def _posterior_mu_beta(h):
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


def _gamma_moments(h, rate, e_delta, e_delta_sq):
    ratio = h.a0 / (2.0 * h.a3)
    s = math.sqrt(1.0 / (2.0 * h.a3))
    if ratio * e_delta / s >= _TRUNC_SAFE_RATIO:
        return (
            ratio * e_delta,
            ratio**2 * e_delta_sq + s * s,
            ratio * e_delta_sq,
        )
    return gamma_quadrature_loop(h.a0, rate, ratio, s)


def expectations_one(h, total_count_mass):
    """The univariate expectation bundle of one component, with scalar
    squares, logs and exps."""
    if not (h.a0 > 0.0 and h.a3 > 0.0 and h.a4 > 0.0):
        raise DegenerateComponent("non-positive hyperparameter")
    rate = h.a4 - h.a0**2 / (4.0 * h.a3)
    if not rate > 0.0:
        raise DegenerateComponent("non-positive gamma rate")
    shape = h.a0 / 2.0 + 1.0
    delta_sq = shape / rate
    delta = sqrt_gamma_moment(shape, rate)
    mu_bar, beta_bar, s2_mu, s2_beta, cov = _posterior_mu_beta(h)
    gamma, gamma_sq, delta_gamma = _gamma_moments(h, rate, delta, delta_sq)
    return SimpleNamespace(
        log_pi=float(psi(h.a0) - psi(total_count_mass)),
        log_delta_sq=float(psi(shape)) - math.log(rate),
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


def expectations_one_m(h, total_count_mass):
    """The multivariate expectation bundle of one component, with the
    scalar square of a0."""
    d = h.a1.shape[0]
    if not (h.a0 > 0.0 and h.a3 > 0.0 and h.a4 > 0.0):
        raise DegenerateComponent("non-positive hyperparameter")
    disc = h.a3 * h.a4 - h.a0**2
    if not disc > 0.0:
        raise DegenerateComponent("joint-normal precision not positive")
    if not h.a0 > d - 1.0:
        raise DegenerateComponent("Wishart degrees of freedom too small")
    try:
        v_inv, logdet_v = spd_inverse_logdet_jittered(h.V)
    except NotPositiveDefinite as exc:
        raise DegenerateComponent(f"scale accumulator not SPD: {exc}") from exc
    elog_det_prec = (
        float(psi((h.a0 + 1.0 - np.arange(1, d + 1)) / 2.0).sum())
        + d * math.log(2.0)
        - logdet_v
    )
    gamma_t, gamma_t_sq = trunc_normal_moments_scalar(
        h.a0 / h.a3, math.sqrt(1.0 / (2.0 * h.a3))
    )
    return SimpleNamespace(
        log_pi=float(psi(h.a0) - psi(total_count_mass)),
        elog_det_prec=elog_det_prec,
        e_prec=h.a0 * v_inv,
        mu_bar=(h.a3 * h.a2 - h.a0 * h.a1) / disc,
        beta_bar=(h.a4 * h.a1 - h.a0 * h.a2) / disc,
        c_mu=h.a3 / disc,
        c_beta=h.a4 / disc,
        c_cross=-h.a0 / disc,
        gamma_t=gamma_t,
        gamma_t_sq=gamma_t_sq,
    )


def log_score_u(y, b):
    """One component's univariate log score and GIG parameters (e_a, e_b),
    written out for a single bundle in the order the engine evaluates it."""
    e_a = b.delta_sq + y * y - 2.0 * y * b.mu + b.mu_sq
    e_b = b.gamma_sq + b.beta_sq
    e_c = b.delta_gamma + y * b.beta - (b.mu * b.beta + b.cov_mu_beta)
    score = (
        b.log_pi
        + 0.5 * b.log_delta_sq
        + e_c
        + math.log(2.0)
        - 0.5 * (np.log(e_a) - math.log(e_b))
        + log_bessel_k(-1.0, np.sqrt(e_a * e_b))
    )
    return score, e_a, e_b


def log_score_m(data, b):
    """One component's multivariate log score and GIG parameters (e_a, e_b)
    at the rows of (n, d) ``data``, written out for a single bundle in the
    order the engine evaluates it."""
    d = data.shape[1]
    lam = -(d + 1) / 2.0
    centered = np.subtract(data.T, b.mu_bar[:, None], order="C")
    drift = b.e_prec @ b.beta_bar
    e_a = np.einsum("ij,ij->j", b.e_prec @ centered, centered) + (1.0 + d * b.c_mu)
    e_b = b.gamma_t_sq + float(b.beta_bar @ drift) + d * b.c_beta
    # E[c] plus the terms of the score that do not depend on the row.
    head = drift @ centered + (
        b.gamma_t + d * b.c_cross + b.log_pi + 0.5 * b.elog_det_prec
    )
    score = (
        head
        + math.log(2.0)
        + 0.5 * lam * (np.log(e_a) - math.log(e_b))
        + log_bessel_k(lam, np.sqrt(e_a * e_b))
    )
    return score, e_a, e_b


def naive_update_m(priors, resp, lat, data):
    e_u, e_uinv = lat
    n, d = data.shape
    out = []
    for g, p in enumerate(rows(priors)):
        a0, a3, a4 = p.a0, p.a3, p.a4
        a1 = p.a1.copy()
        a2 = p.a2.copy()
        scatter = np.zeros((d, d))
        for i in range(n):
            z = resp[i, g]
            a0 += z
            a1 = a1 + z * data[i]
            a2 = a2 + z * e_uinv[i, g] * data[i]
            a3 += z * e_u[i, g]
            a4 += z * e_uinv[i, g]
            scatter += z * e_uinv[i, g] * np.outer(data[i], data[i])
        D = a3 * a4 - a0**2
        mu = (a3 * a2 - a0 * a1) / D
        beta = (a4 * a1 - a0 * a2) / D
        V = (
            p.V
            + scatter
            - np.outer(a2, mu) - np.outer(mu, a2)
            + a4 * np.outer(mu, mu)
            - np.outer(beta, a1) - np.outer(a1, beta)
            + a0 * (np.outer(beta, mu) + np.outer(mu, beta))
            + a3 * np.outer(beta, beta)
        )
        out.append(
            SimpleNamespace(a0=a0, a1=a1, a2=a2, a3=a3, a4=a4, V=0.5 * (V + V.T))
        )
    return stack(ComponentHyperM, out)


def scale_accumulator_mp(priors, hypers, zu_inv, data):
    """The (k, d, d) scale accumulators V0 + S - [a3 a2 a2' - a0 (a1 a2' +
    a2 a1') + a4 a1 a1'] / D of ``hypers``, each entry evaluated in 50
    digits from the doubles of the prior V0, the accumulators a0..a4 and
    the (n, k) weights ``zu_inv`` (resp times E[1/u]) of the scatter S, and
    rounded once to a double."""
    mpf = mpmath.mpf
    k, d = hypers.a1.shape
    out = np.empty((k, d, d))
    with mpmath.workdps(50):
        for g, h in enumerate(rows(hypers)):
            a0, a3, a4 = mpf(h.a0), mpf(h.a3), mpf(h.a4)
            a1, a2 = [mpf(x) for x in h.a1], [mpf(x) for x in h.a2]
            disc = a3 * a4 - a0 * a0
            w = [mpf(x) for x in zu_inv[:, g]]
            for i, j in itertools.combinations_with_replacement(range(d), 2):
                scatter = mpmath.fsum(wt * mpf(y[i]) * mpf(y[j])
                                      for wt, y in zip(w, data))
                means = (a3 * a2[i] * a2[j] - a0 * (a1[i] * a2[j] + a2[i] * a1[j])
                         + a4 * a1[i] * a1[j]) / disc
                v = mpf(priors.V[g, i, j]) + scatter - means
                out[g, i, j] = out[g, j, i] = float(v)
    return out


def update_hypers_m_loop(priors, resp, lat, data):
    """``update_hypers_m`` one component at a time, through the products of
    one strided column of ``resp``: the steps the stacked update repeats."""
    e_u, e_uinv = lat
    out = []
    for g, p in enumerate(rows(priors)):
        z = resp[:, g]
        zu_inv = z * e_uinv[:, g]
        a0 = p.a0 + z.sum()
        a1 = p.a1 + data.T @ z
        a2 = p.a2 + data.T @ zu_inv
        a3 = p.a3 + float(z @ e_u[:, g])
        a4 = p.a4 + float(zu_inv.sum())
        disc = a3 * a4 - a0**2
        scatter = np.multiply(data.T, zu_inv, order="C") @ data
        w = a1 - (a0 / a4) * a2
        V = p.V + scatter - np.outer(a2, a2) / a4 - (a4 / disc) * np.outer(w, w)
        out.append(
            SimpleNamespace(a0=a0, a1=a1, a2=a2, a3=a3, a4=a4, V=0.5 * (V + V.T))
        )
    return stack(ComponentHyperM, out)


def softmax_rows(log_scores):
    """Row-wise softmax of (n, k) log scores, with an observation whose
    scores are all non-finite made uniform and flagged.  The scores are
    copied to C order, so each row sums as a contiguous row."""
    flags = []
    scores = np.array(log_scores, dtype=float, order="C")
    finite_row = np.isfinite(scores).any(axis=1)
    for i in np.nonzero(~finite_row)[0]:
        flags.append(f"underflow_row:{i}")
    scores[~finite_row] = 0.0
    scores -= scores.max(axis=1, keepdims=True)
    resp = np.exp(scores)
    resp /= resp.sum(axis=1, keepdims=True)
    return resp, flags


def gig_responsibilities_two_calls(lam, head, chi, psi):
    """The shared responsibilities step with log K at |lam| and at
    ||lam| - 1| from two calls and the softmax taken over (n, k) rows."""
    nu = abs(lam)
    omega = np.sqrt(chi * psi)
    log_k = log_bessel_k(lam, omega)
    log_psi = np.array([math.log(v) for v in psi.flat])[:, None]
    scores = head + math.log(2.0) + 0.5 * lam * (np.log(chi) - log_psi) + log_k
    resp, flags = softmax_rows(scores.T.copy())
    down = np.exp(log_bessel_k(abs(nu - 1.0), omega) - log_k)
    up = down + 2.0 * nu / omega
    if lam < 0.0:
        down, up = up, down
    scale = np.sqrt(chi / psi)
    return resp, ((scale * up).T.copy(), (down / scale).T.copy()), flags


def update_responsibilities_m_loop(data, bundles):
    """``update_responsibilities_m`` one bundle at a time, finished by
    ``gig_responsibilities_two_calls``."""
    n, d = data.shape
    k = len(bundles.log_pi)
    head = np.empty((k, n))
    chi = np.empty((k, n))
    psi = np.empty((k, 1))
    for g, b in enumerate(rows(bundles)):
        centered = np.subtract(data.T, b.mu_bar[:, None], order="C")
        drift = b.e_prec @ b.beta_bar
        chi[g] = np.einsum("ij,ij->j", b.e_prec @ centered, centered) + (
            1.0 + d * b.c_mu
        )
        psi[g] = b.gamma_t_sq + float(b.beta_bar @ drift) + d * b.c_beta
        head[g] = drift @ centered + (
            b.gamma_t + d * b.c_cross + b.log_pi + 0.5 * b.elog_det_prec
        )
    return gig_responsibilities_two_calls(-(d + 1) / 2.0, head, chi, psi)


def set_partitions(n):
    """All set partitions of range(n) as label vectors (restricted growth)."""
    def rec(prefix, k):
        i = len(prefix)
        if i == n:
            yield list(prefix)
            return
        for lab in range(k + 1):
            yield from rec(prefix + [lab], max(k, lab + 1))
    yield from rec([], 0)


def ari_pair_oracle(a, b):
    """ARI from explicit enumeration of all observation pairs."""
    n = len(a)
    both = same_a = same_b = 0
    pairs = 0
    for i, j in itertools.combinations(range(n), 2):
        pairs += 1
        sa = a[i] == a[j]
        sb = b[i] == b[j]
        both += sa and sb
        same_a += sa
        same_b += sb
    expected = same_a * same_b / pairs
    max_index = 0.5 * (same_a + same_b)
    if max_index == expected:
        return 0.0
    return (both - expected) / (max_index - expected)


def unig_bundle_to_mnig(b) -> ExpectationBundleM:
    """Tilde map at the expectation level, row by row of a bundle stack:
    scale = exp(E[log delta^2])."""
    s = np.exp(b.log_delta_sq)
    return ExpectationBundleM(
        log_pi=b.log_pi,
        elog_det_prec=-b.log_delta_sq,
        e_prec=(1.0 / s)[:, None, None],
        mu_bar=b.mu[:, None],
        beta_bar=(s * b.beta)[:, None],
        c_mu=(b.delta_sq - s + b.mu_sq - b.mu**2) / s,
        c_beta=s * (b.beta_sq - b.beta**2),
        c_cross=-b.cov_mu_beta,
        gamma_t=b.delta_gamma,
        gamma_t_sq=s * b.gamma_sq,
    )


def unig_to_tilde(p: UNIGParams) -> MNIGParams:
    """Map (mu, beta, delta, gamma) to the d = 1 tilde parameterization."""
    sigma = p.delta**2
    return MNIGParams(
        mu_t=np.array([p.mu]),
        beta_t=np.array([p.beta * sigma]),
        sigma_t=np.array([[sigma]]),
        gamma_t=p.gamma * p.delta,
    )


def log_gig_normalizer(lam: float, chi: float, psi: float) -> float:
    """log of int_0^inf u^(lam-1) exp(-(chi/u + psi*u)/2) du."""
    omega = math.sqrt(chi * psi)
    return (
        math.log(2.0)
        + 0.5 * lam * (math.log(chi) - math.log(psi))
        + log_bessel_k(lam, omega)
    )


def gig_log_density(u, lam: float, chi: float, psi: float):
    """Log density of GIG with order lam and parameters (chi, psi),
    proportional to ``u^(lam-1) exp(-(chi/u + psi*u)/2)``."""
    if not (chi > 0.0 and psi > 0.0):
        raise ValueError("GIG requires chi > 0 and psi > 0")
    u = np.asarray(u, dtype=float)
    if np.any(u <= 0.0):
        raise ValueError("GIG density requires u > 0")
    return (
        -log_gig_normalizer(lam, chi, psi)
        + (lam - 1.0) * np.log(u)
        - 0.5 * (chi / u + psi * u)
    )


def ig_density(u, delta: float, gamma: float):
    """Inverse Gaussian density f(u) with E[U] = delta/gamma."""
    if not (delta > 0.0 and gamma > 0.0):
        raise ValueError("IG requires delta > 0 and gamma > 0")
    u = np.asarray(u, dtype=float)
    if np.any(u <= 0.0):
        raise ValueError("IG density requires u > 0")
    logf = (
        -0.5 * math.log(2.0 * math.pi)
        + math.log(delta)
        - 1.5 * np.log(u)
        + delta * gamma
        - 0.5 * (delta**2 / u + gamma**2 * u)
    )
    return np.exp(logf)


def cholesky_loop(m):
    """Lower Cholesky factor, one column at a time; raises
    NotPositiveDefinite at the first pivot that is not > 0, NaN included."""
    m = np.asarray(m, dtype=float)
    d = m.shape[0]
    L = np.zeros_like(m)
    for j in range(d):
        pivot = m[j, j] - L[j, :j] @ L[j, :j]
        if not pivot > 0.0:
            raise NotPositiveDefinite(j)
        L[j, j] = math.sqrt(pivot)
        L[j + 1 :, j] = (m[j + 1 :, j] - L[j + 1 :, :j] @ L[j, :j]) / L[j, j]
    return L


def log_bessel_k_kve(nu, x):
    """log K_nu(x) from the exponentially scaled generic ``kve``; NaN where
    ``kve`` is (above x of about 1e9) and inf where it overflows."""
    with np.errstate(over="ignore", divide="ignore"):
        return np.log(kve(abs(nu), np.asarray(x, dtype=float))) - x


def gig_moments_kve(lam, chi, psi):
    """E[U] and E[1/U] of GIG(lam, chi, psi) from K at orders lam - 1, lam
    and lam + 1, each through ``kve``."""
    omega = np.sqrt(chi * psi)
    log_k = log_bessel_k_kve(lam, omega)
    half_log_ratio = 0.5 * (np.log(chi) - np.log(psi))
    e_u = np.exp(half_log_ratio + log_bessel_k_kve(lam + 1.0, omega) - log_k)
    e_uinv = np.exp(-half_log_ratio + log_bessel_k_kve(lam - 1.0, omega) - log_k)
    return e_u, e_uinv
