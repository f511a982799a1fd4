"""Dirichlet distribution object: density, predictive posterior, uncertainty
metrics, Fisher information, sampling, KL divergence and the local Renyi
approximation."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .specfun import DomainError, digamma, log_gamma, trigamma

__all__ = [
    "DirichletParams",
    "log_b",
    "log_pdf",
    "predictive_mean",
    "predictive_entropy",
    "mutual_information",
    "fisher_information",
    "sample",
    "kl_divergence",
    "renyi_local_approx",
]

# Ratios alpha_j / alpha_0 below this contribute zero to entropy-like sums
# (the 0 * log 0 = 0 convention).
_RATIO_FLOOR = 1e-300

_SIMPLEX_TOL = 1e-9


@dataclass(frozen=True)
class DirichletParams:
    """Concentration vector alpha with cached strength alpha0 = sum(alpha).

    Accepts any alpha_j > 0; network output heads guarantee alpha_j >= 1.
    """

    alpha: np.ndarray
    alpha0: float = field(init=False)

    def __post_init__(self):
        alpha = np.asarray(self.alpha, dtype=np.float64)
        if alpha.ndim != 1 or alpha.size < 2:
            raise ValueError("alpha must be a vector with K >= 2 entries")
        if not np.all(np.isfinite(alpha)) or np.any(alpha <= 0.0):
            raise DomainError("all concentration parameters must be positive and finite")
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "alpha0", float(alpha.sum()))

    @property
    def k(self) -> int:
        return self.alpha.size


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


def _rows(d) -> tuple[np.ndarray, bool]:
    """(N, K) concentration rows and whether d was one DirichletParams.
    A matrix is checked for positive, finite entries once, here."""
    if isinstance(d, DirichletParams):
        return d.alpha[None, :], True
    alpha = np.asarray(d, dtype=np.float64)
    if alpha.ndim != 2 or alpha.shape[1] < 2:
        raise ValueError("alpha must be an (N, K) matrix with K >= 2")
    if not np.all(np.isfinite(alpha)) or np.any(alpha <= 0.0):
        raise DomainError("all concentration parameters must be positive and finite")
    return alpha, False


def predictive_entropy(d):
    """Entropy (nats) of the predictive posterior; total uncertainty.
    Takes a DirichletParams (returns a float) or an (N, K) matrix of
    concentration rows (returns an (N,) array)."""
    alpha, one = _rows(d)
    r = alpha / alpha.sum(axis=1, keepdims=True)
    r = np.where(r > _RATIO_FLOOR, r, 1.0)  # 1 * ln 1 = 0 drops the term
    h = -np.sum(r * np.log(r), axis=1)
    return float(h[0]) if one else h


def mutual_information(d):
    """Mutual information between label and probability vector (nats);
    epistemic share of the predictive entropy. Same call forms as
    predictive_entropy."""
    alpha, one = _rows(d)
    alpha0 = alpha.sum(axis=1)
    r = alpha / alpha0[:, None]
    keep = r > _RATIO_FLOOR
    r = np.where(keep, r, 1.0)
    terms = r * (np.log(r) - digamma(alpha + 1.0) + digamma(alpha0 + 1.0)[:, None])
    mi = -np.sum(np.where(keep, terms, 0.0), axis=1)
    return float(mi[0]) if one else mi


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
