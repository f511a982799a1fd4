"""Classification losses over Dirichlet outputs.

The max-norm-approximating loss F (an L_p relaxation of the expected max
prediction error), the information regularizer R, their analytic gradients
with respect to alpha, and the baseline losses (negative log-marginal
likelihood, Bayes-risk cross-entropy, evidential mean-square, reverse-KL
prior target).

Every function takes an (N, K) alpha matrix and an (N,) class vector and
works row by row. F and R each have one value+gradient kernel
(`iad_value_grad_batch`, `info_value_grad_batch`), which the training step
calls; the gradient functions are views of them, and the value functions stop
before the gradient's special-function call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .specfun import DomainError, digamma, log_gamma, tetragamma, trigamma

__all__ = [
    "LossConfig",
    "LossOverflowError",
    "iad_loss_batch",
    "iad_value_grad_batch",
    "iad_loss_grad_alpha_batch",
    "info_regularizer_batch",
    "info_value_grad_batch",
    "info_regularizer_grad_alpha_batch",
    "nll_marginal_loss_batch",
    "nll_marginal_grad_alpha_batch",
    "bayes_ce_loss_batch",
    "bayes_ce_grad_alpha_batch",
    "edl_mse_loss_batch",
    "edl_mse_grad_alpha_batch",
    "rkl_prior_loss_batch",
    "rkl_prior_grad_alpha_batch",
]

# Log values beyond this would overflow/underflow exp(); raising beats masking.
_LOG_CLIP = 700.0


class LossOverflowError(FloatingPointError):
    """A log-space intermediate exceeded the exp() clip threshold."""


@dataclass(frozen=True)
class LossConfig:
    """p_norm: order of the L_p relaxation of F (finite, >= 1)."""

    p_norm: float = 4.0

    def __post_init__(self):
        if not 1.0 <= self.p_norm < math.inf:
            raise ValueError("p_norm must be finite and >= 1")


def _check_batch(alpha: np.ndarray, c: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    alpha = np.atleast_2d(np.asarray(alpha, dtype=np.float64))
    c = np.atleast_1d(np.asarray(c, dtype=np.intp))
    if alpha.ndim != 2 or c.shape != (alpha.shape[0],):
        raise ValueError("alpha must be (N, K) and c must be (N,)")
    if np.any(c < 0) or np.any(c >= alpha.shape[1]):
        raise IndexError("correct_class out of range")
    return alpha, c


def _logsumexp(terms: np.ndarray, axis: int) -> np.ndarray:
    m = np.max(terms, axis=axis, keepdims=True)
    return (m + np.log(np.sum(np.exp(terms - m), axis=axis, keepdims=True))).squeeze(axis)


def _iad_pieces(alpha, c, p: float):
    """log F_i and what its gradient reuses, from one log_gamma call over the
    stacked arguments (alpha_0, s, alpha) || (alpha_0 + p, s + p, alpha + p),
    where s = alpha_0 - alpha_c is the off-class sum.

    Returns (log F, terms, lse, args): terms[:, 0] = log mu(s) and
    terms[:, 1:] = log mu(alpha_j), -inf at c, with log mu(a) = ln Gamma(a+p)
    - ln Gamma(a); lse is their row log-sum-exp. alpha and c come checked."""
    n, k = alpha.shape
    rows = np.arange(n)
    a0 = alpha.sum(axis=1)
    x = np.concatenate([a0, a0 - alpha[rows, c], alpha.ravel()])
    args = np.concatenate([x, x + p])
    lg = log_gamma(args)
    log_mu = lg[x.size:] - lg[:x.size]
    terms = np.empty((n, k + 1))
    terms[:, 0] = log_mu[n:2 * n]
    terms[:, 1:] = log_mu[2 * n:].reshape(n, k)
    terms[rows, c + 1] = -np.inf
    lse = _logsumexp(terms, axis=1)
    log_f = (lse - log_mu[:n]) / p
    if np.any(np.abs(log_f) > _LOG_CLIP):
        raise LossOverflowError("log F exceeded the exp() clip threshold")
    return log_f, terms, lse, args


def iad_loss_batch(alpha, c, p_norm: float) -> np.ndarray:
    """F_i for each row: the closed-form L_p upper bound on the expected
    max-norm prediction error, computed in log space."""
    return np.exp(_iad_pieces(*_check_batch(alpha, c), float(p_norm))[0])


def iad_value_grad_batch(alpha, c, p_norm: float) -> tuple[np.ndarray, np.ndarray]:
    """(F_i, dF_i/dalpha) for each row: one log_gamma and one digamma call.

    d log F / d alpha_c = (1/p)(psi(a0) - psi(a0+p)); off-class components add
    the derivative of the log-sum through mu(s) and mu(alpha_j), with
    mu'(a) = mu(a) (psi(a+p) - psi(a)).
    """
    alpha, c = _check_batch(alpha, c)
    n, k = alpha.shape
    p = float(p_norm)
    log_f, terms, lse, args = _iad_pieces(alpha, c, p)
    f = np.exp(log_f)
    dg = digamma(args)
    m = args.size // 2
    nu = dg[m:] - dg[:m]  # psi(a+p) - psi(a)
    w = np.exp(terms - lse[:, None])
    common = -nu[:n]
    grad_log = (common[:, None] + w[:, :1] * nu[n:2 * n, None]
                + w[:, 1:] * nu[2 * n:].reshape(n, k)) / p
    grad_log[np.arange(n), c] = common / p
    return f, f[:, None] * grad_log


def iad_loss_grad_alpha_batch(alpha, c, p_norm: float) -> np.ndarray:
    """Analytic gradient of F with respect to alpha, rowwise."""
    return iad_value_grad_batch(alpha, c, p_norm)[1]


def _info_args(alpha, c):
    """alpha~ for R: alpha with a one substituted at the correct class c, or
    all of alpha when c is None (no outcome is correct, so every component
    counts as misleading evidence). Returns (alpha~, c)."""
    if c is None:
        off = np.atleast_2d(np.asarray(alpha, dtype=np.float64))
        if off.ndim != 2:
            raise ValueError("alpha must be (N, K)")
    else:
        alpha, c = _check_batch(alpha, c)
        off = alpha.copy()
        off[np.arange(alpha.shape[0]), c] = 1.0
    if np.any(off < 1.0):
        raise DomainError("info regularizer requires off-class alpha_j >= 1")
    return off, c


def _split(vals: np.ndarray, n: int, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Values over the stacked (alpha~, alpha~_0) -> ((N, K), (N, 1))."""
    return vals[:n * k].reshape(n, k), vals[n * k:, None]


def _info_pieces(alpha, c):
    """R_i and what its gradient reuses, from one trigamma call over the
    stacked arguments (alpha~, alpha~_0). Returns (R, d, tri, tri0, args, c)
    with d = alpha~ - 1."""
    off, c = _info_args(alpha, c)
    n, k = off.shape
    # off has a one substituted at c, so sum(off) = 1 + sum_{j != c} alpha_j
    # (alpha_0 when c is None).
    args = np.concatenate([off.ravel(), off.sum(axis=1)])
    tri, tri0 = _split(trigamma(args), n, k)
    d = off - 1.0
    r = 0.5 * np.sum(d * d * (tri - tri0), axis=1)
    return r, d, tri, tri0, args, c


def info_regularizer_batch(alpha, c=None) -> np.ndarray:
    """R_i = (1/2) sum_{j != c} (alpha_j - 1)^2 (psi'(alpha_j) - psi'(alpha~_0)).

    With c=None the sum runs over every j and alpha~_0 = alpha_0: the penalty
    for inputs that belong to no class."""
    return _info_pieces(alpha, c)[0]


def info_value_grad_batch(alpha, c=None) -> tuple[np.ndarray, np.ndarray]:
    """(R_i, dR_i/dalpha) for each row (component c of the gradient is zero):
    one trigamma and one tetragamma call."""
    r, d, tri, tri0, args, c = _info_pieces(alpha, c)
    tet, tet0 = _split(tetragamma(args), *d.shape)
    sum_sq = np.sum(d * d, axis=1)[:, None]
    grad = (
        d * (tri - tri0)
        + 0.5 * d * d * (tet - tet0)
        - 0.5 * tet0 * (sum_sq - d * d)
    )
    if c is not None:
        grad[np.arange(d.shape[0]), c] = 0.0
    return r, grad


def info_regularizer_grad_alpha_batch(alpha, c=None) -> np.ndarray:
    """Analytic gradient of R with respect to alpha (component c is zero)."""
    return info_value_grad_batch(alpha, c)[1]


# ---------------------------------------------------------------------------
# baseline losses


def nll_marginal_loss_batch(alpha, c) -> np.ndarray:
    """Negative log-marginal likelihood -ln(alpha_c / alpha_0)."""
    alpha, c = _check_batch(alpha, c)
    a0 = alpha.sum(axis=1)
    ac = np.take_along_axis(alpha, c[:, None], axis=1)[:, 0]
    return -np.log(ac / a0)


def nll_marginal_grad_alpha_batch(alpha, c) -> np.ndarray:
    alpha, c = _check_batch(alpha, c)
    a0 = alpha.sum(axis=1)
    ac = np.take_along_axis(alpha, c[:, None], axis=1)[:, 0]
    grad = np.broadcast_to((1.0 / a0)[:, None], alpha.shape).copy()
    grad[np.arange(alpha.shape[0]), c] -= 1.0 / ac
    return grad


def bayes_ce_loss_batch(alpha, c) -> np.ndarray:
    """Bayes risk of the cross-entropy loss: psi(alpha_0) - psi(alpha_c)."""
    alpha, c = _check_batch(alpha, c)
    a0 = alpha.sum(axis=1)
    ac = np.take_along_axis(alpha, c[:, None], axis=1)[:, 0]
    return digamma(a0) - digamma(ac)


def bayes_ce_grad_alpha_batch(alpha, c) -> np.ndarray:
    alpha, c = _check_batch(alpha, c)
    a0 = alpha.sum(axis=1)
    ac = np.take_along_axis(alpha, c[:, None], axis=1)[:, 0]
    grad = np.broadcast_to(trigamma(a0)[:, None], alpha.shape).copy()
    grad[np.arange(alpha.shape[0]), c] -= trigamma(ac)
    return grad


def edl_mse_loss_batch(alpha, c) -> np.ndarray:
    """Evidential mean-square loss: squared bias plus marginal Beta variances."""
    alpha, c = _check_batch(alpha, c)
    a0 = alpha.sum(axis=1)[:, None]
    m = alpha / a0
    y = np.zeros_like(alpha)
    y[np.arange(alpha.shape[0]), c] = 1.0
    var = m * (1.0 - m) / (a0 + 1.0)
    return np.sum((y - m) ** 2 + var, axis=1)


def edl_mse_grad_alpha_batch(alpha, c) -> np.ndarray:
    alpha, c = _check_batch(alpha, c)
    n = alpha.shape[0]
    a0 = alpha.sum(axis=1)[:, None]
    m = alpha / a0
    y = np.zeros_like(alpha)
    y[np.arange(n), c] = 1.0
    # dL/dm_k folded with dm_k/dalpha_j = (delta_kj - m_k)/a0, plus the
    # explicit 1/(a0+1) dependence of the variance term.
    inner = -2.0 * (y - m) + (1.0 - 2.0 * m) / (a0 + 1.0)  # (N, K) = dL/dm_k
    var_sum = np.sum(m * (1.0 - m), axis=1)[:, None]
    grad = (inner - np.sum(inner * m, axis=1)[:, None]) / a0 - var_sum / (a0 + 1.0) ** 2
    return grad


def rkl_prior_loss_batch(alpha, c, beta: float) -> np.ndarray:
    """Forward KL from the model Dirichlet to the one-hot prior target
    (beta + 1 at c, 1 elsewhere)."""
    alpha, c = _check_batch(alpha, c)
    if beta <= 0.0:
        raise ValueError("beta must be > 0")
    n, k = alpha.shape
    target = np.ones((n, k))
    target[np.arange(n), c] = beta + 1.0
    a0 = alpha.sum(axis=1)
    diff = alpha - target
    log_b_a = np.sum(log_gamma(alpha), axis=1) - log_gamma(a0)
    log_b_t = np.sum(log_gamma(target), axis=1) - log_gamma(target.sum(axis=1))
    return (
        log_b_t - log_b_a
        + np.sum(diff * (digamma(alpha) - digamma(a0)[:, None]), axis=1)
    )


def rkl_prior_grad_alpha_batch(alpha, c, beta: float) -> np.ndarray:
    alpha, c = _check_batch(alpha, c)
    n, k = alpha.shape
    target = np.ones((n, k))
    target[np.arange(n), c] = beta + 1.0
    a0 = alpha.sum(axis=1)
    diff = alpha - target
    return diff * trigamma(alpha) - trigamma(a0)[:, None] * diff.sum(axis=1)[:, None]
