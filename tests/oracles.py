"""Dirichlet and Beta mathematics that the library does not need but the
tests check it against: density, predictive mean, Fisher information,
sampling, KL divergence, the local Renyi approximation and Beta moments;
the masked form of the logistic sigmoid that the network's one-pass form
must equal bit for bit; the FGSM sweep as one independent attack per noise
level, which `evaluation.attack_reports` must equal bit for bit; the
csv.writer and json.dump forms whose bytes the CLI's artifact writers must
equal; and `save_csv`, the writer of the CSV container that
`iad.data.load_csv` reads.

Criterion 2's Monte Carlo draws from `sample`, and the reverse-KL loss is
checked against `kl_divergence`.
"""

from __future__ import annotations

import csv
import json

import numpy as np

from iad import network
from iad.dirichlet import DirichletParams
from iad.evaluation import _reports
from iad.specfun import DomainError, _as_positive_array, digamma, log_gamma, trigamma

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
    back the same values bit for bit."""
    header = [f"f{i}" for i in range(dataset.d)]
    rows = [[repr(float(v)) for v in row] for row in dataset.features]
    if dataset.labels is not None:
        header.append("label")
        for row, c in zip(rows, dataset.label_indices.tolist()):
            row.append(str(c))
    csv_writer_file(path, header, rows)
