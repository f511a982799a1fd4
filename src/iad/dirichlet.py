"""Dirichlet distribution object and the two uncertainty metrics of its
predictive posterior: predictive entropy (total uncertainty) and mutual
information (its epistemic share)."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .specfun import DomainError, digamma

__all__ = [
    "DirichletParams",
    "predictive_entropy",
    "mutual_information",
]

# Ratios alpha_j / alpha_0 below this contribute zero to entropy-like sums
# (the 0 * log 0 = 0 convention).
_RATIO_FLOOR = 1e-300


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


def _rows(d) -> tuple[np.ndarray, bool]:
    """(N, K) concentration rows and whether d was one DirichletParams.
    A matrix is checked for positive, finite entries once, here."""
    if isinstance(d, DirichletParams):
        return d.alpha[None, :], True
    alpha = np.asarray(d, dtype=np.float64)
    if alpha.ndim != 2 or alpha.shape[1] < 2:
        raise ValueError("alpha must be an (N, K) matrix with K >= 2")
    if not np.isfinite(alpha).all() or (alpha <= 0.0).any():
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
