"""Dirichlet and Beta mathematics that the library does not need but the
tests check it against: density, predictive mean, Fisher information,
sampling, KL divergence, the local Renyi approximation and Beta moments;
the masked form of the logistic sigmoid that the network's one-pass form
must equal bit for bit; the FGSM sweep as one independent attack per noise
level, which `evaluation.attack_reports` must equal bit for bit; the
csv.writer and json.dump forms whose bytes the CLI's artifact writers must
equal; `save_csv`, the writer of the CSV container that `iad.data.load_csv`
reads; min-max scaling of a whole dataset, which `iad.data.split_scaled`
must equal bit for bit; the value-only bodies of F, R and the nll, edl and
rkl baselines, which the `[0]` views of the library's value+grad kernels
must equal bit for bit; the training objective as two R calls, one per
kind of row, with the validation values from those value-only bodies,
which `iad.training`'s one R call must equal bit for bit; the summary from
`np.percentile` and two masked copies of the values, which the one-sort
`evaluation.summarize` must equal field for field, bit for bit; and the
forward pass that keeps every layer's pre-activation, with the backprop that
reads each hidden ReLU mask from them, which the library's forward and
backprop, whose trace keeps only the layer inputs and the head's
pre-activation, must equal bit for bit.

Criterion 2's Monte Carlo draws from `sample`, and the reverse-KL loss is
checked against `kl_divergence`.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, replace

import numpy as np

from iad import losses, network
from iad.dirichlet import DirichletParams
from iad.evaluation import DistributionSummary, _reports
from iad.specfun import (DomainError, _as_positive_array, digamma, log_gamma,
                         log_gamma_digamma, log_rising, trigamma)

_SIMPLEX_TOL = 1e-9


def _check_simplex(p: np.ndarray, k: int) -> np.ndarray:
    p = np.asarray(p, dtype=np.float64)
    if p.shape != (k,):
        raise ValueError(f"probability vector must have shape ({k},)")
    if np.any(p < 0.0) or abs(p.sum() - 1.0) > _SIMPLEX_TOL:
        raise DomainError("p is not on the probability simplex")
    return p


def log_b(alpha: np.ndarray) -> float:
    """log of the multivariate Beta function B(alpha)."""
    return float(np.sum(log_gamma(alpha)) - log_gamma(alpha.sum()))


def log_pdf(d: DirichletParams, p) -> float:
    """log f(p; alpha) = sum_j (alpha_j - 1) ln p_j - ln B(alpha)."""
    p = _check_simplex(p, d.k)
    zero = p == 0.0
    if np.any(zero & (d.alpha < 1.0)):
        raise DomainError("density diverges: p_j = 0 with alpha_j < 1")
    terms = np.zeros(d.k)
    pos = ~zero
    terms[pos] = (d.alpha[pos] - 1.0) * np.log(p[pos])
    if np.any(zero & (d.alpha > 1.0)):
        return -np.inf
    return float(terms.sum() - log_b(d.alpha))


def predictive_mean(d: DirichletParams) -> np.ndarray:
    """Expected class probabilities alpha_j / alpha_0."""
    return d.alpha / d.alpha0


def fisher_information(d: DirichletParams) -> np.ndarray:
    """Fisher information matrix J = diag(psi'(alpha_i)) - psi'(alpha_0) 11^T."""
    t0 = trigamma(d.alpha0)
    return np.diag(trigamma(d.alpha)) - t0 * np.ones((d.k, d.k))


def sample(d: DirichletParams, rng: np.random.Generator, n: int) -> np.ndarray:
    """n Dirichlet draws (rows) via normalized Gamma variates."""
    if n < 1:
        raise ValueError("n must be >= 1")
    g = rng.gamma(shape=d.alpha, size=(n, d.k))
    return g / g.sum(axis=1, keepdims=True)


def kl_divergence(d1: DirichletParams, d2: DirichletParams) -> float:
    """KL(f(.; alpha) || f(.; beta)) between two Dirichlet distributions."""
    if d1.k != d2.k:
        raise ValueError("dimension mismatch between Dirichlet parameters")
    a, b = d1.alpha, d2.alpha
    return float(
        log_b(b) - log_b(a)
        + np.sum((a - b) * (digamma(a) - digamma(d1.alpha0)))
    )


def renyi_local_approx(d: DirichletParams, correct_class: int, u: float) -> float:
    """Local approximation of the order-u Renyi divergence of the off-class
    concentration vector from the uniform Dirichlet: the full quadratic form
    (u/2) s^T J s with s = alpha_tilde - 1, cross terms included."""
    if not 0 <= correct_class < d.k:
        raise IndexError("correct_class out of range")
    if u <= 0.0:
        raise ValueError("Renyi order u must be positive")
    a_t = d.alpha.copy()
    a_t[correct_class] = 1.0
    a_t0 = a_t.sum()
    s = a_t - 1.0
    t0 = trigamma(a_t0)
    diag_term = np.sum(s * s * (trigamma(a_t) - t0))
    cross_term = t0 * (s.sum() ** 2 - np.sum(s * s))
    return float(0.5 * u * (diag_term - cross_term))


def beta_moment(a, b, q):
    """q-th moment of Beta(a, b): E[p^q] = B(a+q, b) / B(a, b).

    Computed as exp of log-gamma differences, from one log_gamma call over
    the four stacked arguments, so concentrations up to ~1e6 do not overflow.
    """
    aa, sa = _as_positive_array(a, "a")
    bb, sb = _as_positive_array(b, "b")
    qq, sq = _as_positive_array(q, "q")
    aa, bb, qq = np.broadcast_arrays(aa, bb, qq)
    lg = log_gamma(np.stack([aa + qq, aa + bb, aa, aa + bb + qq]))
    out = np.exp(lg[0] + lg[1] - lg[2] - lg[3])
    return float(out[0]) if sa and sb and sq else out


def sigmoid_masked(z: np.ndarray) -> np.ndarray:
    """1 / (1 + e^-z) at z >= 0 and e^z / (1 + e^z) elsewhere, each branch
    over its own masked elements."""
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def attack_reports_per_epsilon(net, dataset, epsilons, cfg) -> list:
    """(eps, reports) per noise level, each level attacked on its own: the
    clean inputs at eps = 0, else a fresh grad_x F at the clean inputs, a
    step of eps * sgn(grad) clipped to dataset.feature_range, and a forward
    over the result."""
    labels = dataset.label_indices
    out = []
    for eps in (float(e) for e in epsilons):
        x = dataset.features
        if eps != 0.0:
            g = network.input_gradient(net, x, labels, cfg)
            x = x + eps * np.sign(g)
            if dataset.feature_range is not None:
                x = np.clip(x, dataset.feature_range[0], dataset.feature_range[1])
        out.append((eps, _reports(network.forward(net, x).alpha, labels)))
    return out


def csv_writer_file(path, header: list[str], rows) -> None:
    """The header and rows through csv.writer with newline line ends, each
    field as given (floats as their repr strings)."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def json_dump_file(path, doc) -> None:
    """json.dump with two-space indent and sorted keys, then a newline."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def save_csv(dataset, path) -> None:
    """A dataset as the native CSV container: one header row
    (f0..fD-1[,label]), then repr-formatted floats, so that load_csv reads
    back the same values bit for bit; it refuses the file of an unlabeled
    dataset, which has no label column."""
    header = [f"f{i}" for i in range(dataset.d)]
    rows = [[repr(float(v)) for v in row] for row in dataset.features]
    if dataset.labels is not None:
        header.append("label")
        for row, c in zip(rows, dataset.label_indices.tolist()):
            row.append(str(c))
    csv_writer_file(path, header, rows)


def reference_scale_unit(dataset):
    """Every feature column min-max scaled to [0, 1] over all rows (a
    constant column is shifted to 0)."""
    lo = dataset.features.min(axis=0)
    hi = dataset.features.max(axis=0)
    rng_ = np.where(hi > lo, hi - lo, 1.0)
    return replace(dataset, features=(dataset.features - lo) / rng_,
                   feature_range=(0.0, 1.0))


def reference_iad_loss(alpha, c, p_norm) -> np.ndarray:
    """F_i from its own log_rising call over (alpha_0, s, alpha): the value
    alone, without the gradient's terms."""
    alpha, c = losses._check_batch(alpha, c)
    p = float(p_norm)
    n, k = alpha.shape
    rows = np.arange(n)
    a0 = np.add.reduce(alpha, axis=1)
    log_mu, _ = log_rising(np.concatenate([a0, a0 - alpha[rows, c], alpha.ravel()]), p)
    terms = np.empty((n, k + 1))
    terms[:, 0] = log_mu[n:2 * n]
    terms[:, 1:] = log_mu[2 * n:].reshape(n, k)
    terms[rows, c + 1] = -np.inf
    top = np.maximum.reduce(terms, axis=1, keepdims=True)
    lse = (top + np.log(np.add.reduce(np.exp(terms - top), axis=1, keepdims=True)))[:, 0]
    return np.exp((lse - log_mu[:n]) / p)


def reference_info_regularizer(alpha, c=None) -> np.ndarray:
    """R_i from one trigamma call over the stacked (alpha~, alpha~_0)."""
    off = np.array(alpha, dtype=np.float64)
    if c is not None:
        off[np.arange(off.shape[0]), c] = 1.0
    n, k = off.shape
    d = off - 1.0
    tri = trigamma(np.concatenate([off.ravel(), np.add.reduce(off, axis=1)]))
    return 0.5 * np.add.reduce(d * d * (tri[:n * k].reshape(n, k) - tri[n * k:, None]), axis=1)


def reference_nll_marginal_loss(alpha, c) -> np.ndarray:
    alpha, c = losses._check_batch(alpha, c)
    return -np.log(alpha[np.arange(c.size), c] / alpha.sum(axis=1))


def reference_edl_mse_loss(alpha, c) -> np.ndarray:
    alpha, c = losses._check_batch(alpha, c)
    a0 = np.add.reduce(alpha, axis=1)[:, None]
    m = alpha / a0
    err = np.zeros(alpha.shape)
    err[np.arange(c.size), c] = 1.0
    err -= m
    return np.add.reduce(err ** 2 + m * (1.0 - m) / (a0 + 1.0), axis=1)


def reference_rkl_prior_loss(alpha, c, beta) -> np.ndarray:
    """KL to the one-hot prior target from one log_gamma_digamma call over
    (alpha, alpha_0, beta + 1, beta + K)."""
    alpha, c = losses._check_batch(alpha, c)
    n, k = alpha.shape
    rows = np.arange(n)
    diff = alpha - 1.0
    diff[rows, c] = alpha[rows, c] - (beta + 1.0)
    lg, dg = log_gamma_digamma(
        np.concatenate([alpha.ravel(), alpha.sum(axis=1), [beta + 1.0, beta + k]]))
    log_b_a = lg[:n * k].reshape(n, k).sum(axis=1) - lg[n * k:-2]
    dg_a, dg_a0 = dg[:n * k].reshape(n, k), dg[n * k:-2, None]
    return lg[-2] - lg[-1] - log_b_a + (diff * (dg_a - dg_a0)).sum(axis=1)


# loss selector -> (value(alpha, c, cfg), value_grad(alpha, c, cfg)); each
# value is a body of its own, bayes_ce's the library's value-only function
REFERENCE_LOSSES = {
    "iad": (lambda a, c, cfg: reference_iad_loss(a, c, cfg.p_norm),
            lambda a, c, cfg: losses.iad_value_grad_batch(a, c, cfg.p_norm)),
    "edl": (lambda a, c, cfg: reference_edl_mse_loss(a, c),
            lambda a, c, cfg: losses.edl_mse_value_grad_batch(a, c)),
    "nll": (lambda a, c, cfg: reference_nll_marginal_loss(a, c),
            lambda a, c, cfg: losses.nll_marginal_value_grad_batch(a, c)),
    "bayes_ce": (lambda a, c, cfg: losses.bayes_ce_loss_batch(a, c),
                 lambda a, c, cfg: losses.bayes_ce_value_grad_batch(a, c)),
    "rkl": (lambda a, c, cfg: reference_rkl_prior_loss(a, c, cfg.kl_beta),
            lambda a, c, cfg: losses.rkl_prior_value_grad_batch(a, c, cfg.kl_beta)),
}


def reference_objective(alpha, c, cfg, lam: float, loss: str):
    """Per-row values and alpha-gradients of the training objective: F +
    lam * R(alpha, c) on the first len(c) rows, and lam * ood_weight *
    R(alpha, None) on the noise rows after them, from one R call each."""
    n = c.size
    lab, noise = alpha[:n], alpha[n:]
    vals, grads = REFERENCE_LOSSES[loss][1](lab, c, cfg)
    if lam > 0.0:
        r, dr = losses.info_value_grad_batch(lab, c)
        vals = vals + lam * r
        grads = grads + lam * dr
    if noise.shape[0]:
        w = lam * cfg.ood_weight
        r, dr = losses.info_value_grad_batch(noise)
        vals = np.concatenate([vals, w * r])
        grads = np.concatenate([grads, w * dr])
    return vals, grads


def reference_validation_values(alpha, c, cfg, lam: float, loss: str) -> np.ndarray:
    """The labeled objective F + lam * R(alpha, c) per row, from the
    value-only bodies."""
    vals = REFERENCE_LOSSES[loss][0](alpha, c, cfg)
    if lam > 0.0:
        vals = vals + lam * reference_info_regularizer(alpha, c)
    return vals


def reference_summarize(values, threshold: float) -> DistributionSummary:
    """Quartiles from np.percentile's linear interpolation; each whisker the
    extreme of the values inside its 1.5*IQR fence, from a masked copy."""
    v = np.asarray(values, dtype=np.float64)
    if v.size == 0:
        raise ValueError("cannot summarize an empty list")
    if not np.isfinite(v).all():
        raise ValueError("values must be finite")
    q1, med, q3 = np.percentile(v, [25.0, 50.0, 75.0])
    iqr = q3 - q1
    in_lo = v[v >= q1 - 1.5 * iqr]
    in_hi = v[v <= q3 + 1.5 * iqr]
    return DistributionSummary(
        count=int(v.size),
        min=float(v.min()),
        q1=float(q1),
        median=float(med),
        q3=float(q3),
        whisker_lo=float(in_lo.min()),
        whisker_hi=float(in_hi.max()),
        mean=float(v.mean()),
        threshold=float(threshold),
        fraction_above_threshold=float(np.count_nonzero(v >= threshold) / v.size),
    )


@dataclass
class PreactTrace:
    """A forward trace that keeps every layer's pre-activation."""

    inputs: list[np.ndarray]    # input to each layer, inputs[0] is x
    preacts: list[np.ndarray]   # z of each layer
    alpha: np.ndarray           # softplus(z_last) + 1
    head_e: np.ndarray          # e^-|z_last|


def reference_forward(net, x) -> PreactTrace:
    """network.forward with a fresh ReLU output per hidden layer, each
    layer's z kept beside it."""
    a = np.asarray(x, dtype=np.float64)
    d = net.weights[0].shape[0]
    if a.ndim != 2 or a.shape[1] != d:
        raise ValueError(f"input must have shape (N, {d}), got {a.shape}")
    if np.count_nonzero(np.isfinite(a)) != a.size:
        raise ValueError("non-finite input")
    inputs, preacts = [], []
    last = len(net.weights) - 1
    for i, (w, b) in enumerate(zip(net.weights, net.biases)):
        inputs.append(a)
        z = a @ w
        z += b
        preacts.append(z)
        if i < last:
            a = np.maximum(z, 0.0)
    alpha, e = network._softplus_e(z)
    alpha += 1.0
    return PreactTrace(inputs, preacts, alpha, e)


def reference_backprop(net, trace: PreactTrace, dloss_dalpha, grads, input_delta: bool):
    """network._backprop over a PreactTrace: each hidden ReLU mask from the
    kept pre-activation, z > 0."""
    d = np.asarray(dloss_dalpha, dtype=np.float64)
    if d.shape != trace.alpha.shape:
        raise ValueError("dloss_dalpha shape does not match the trace output")
    clip = network._GRAD_ALPHA_CLIP
    if np.count_nonzero(np.abs(d) > clip):
        network.log.warning("clipping dloss/dalpha components beyond %g", clip)
        d = np.clip(d, -clip, clip)
    delta = network._sigmoid(trace.preacts[-1], trace.head_e)
    delta *= d
    for i in range(len(net.weights) - 1, -1, -1):
        if grads is not None:
            np.matmul(trace.inputs[i].T, delta, out=grads.weights[i])
            np.add.reduce(delta, axis=0, out=grads.biases[i])
        if i == 0 and not input_delta:
            return None
        delta = delta @ net.weights[i].T
        if i > 0:
            delta *= trace.preacts[i - 1] > 0.0
    return delta
