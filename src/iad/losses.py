"""Classification losses over Dirichlet outputs.

The max-norm-approximating loss F (an L_p relaxation of the expected max
prediction error), the information regularizer R, and the baseline losses
(negative log-marginal likelihood, Bayes-risk cross-entropy, evidential
mean-square, reverse-KL prior target), with their analytic gradients with
respect to alpha.

Every function takes an (N, K) alpha matrix and an (N,) class vector and
works row by row. Each loss has one body, its value+gradient kernel
(`*_value_grad_batch`): it checks its arguments once and shares alpha_0 and
its special-function arguments between value and gradient. The value
functions are its [0] and the gradient functions its [1]. The one exception
is `bayes_ce_loss_batch`, which keeps a digamma-only body: it is the one
user of this module's `digamma` import, which the benchmark harness's
tracer is pinned to rebind. R's c argument is a convenience: R(alpha, c) is
R(alpha~, None) on alpha~, alpha with a one at c, apart from gradient
component c, which it zeroes; training passes alpha~ so that one call
covers its labeled and its off-support rows. F's kernel makes one
`log_rising` call, (ln (a)_p, psi(a+p) - psi(a)), over the stacked
(alpha_0, s, alpha). R's kernel makes one paired (psi', psi'') call, the
Bayes-risk kernel one paired (psi, psi') call, and the reverse-KL kernel
one (ln Gamma, psi) and one psi' call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .specfun import (DomainError, digamma, digamma_trigamma, log_gamma_digamma, log_rising,
                      trigamma, trigamma_tetragamma)

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
    "nll_marginal_value_grad_batch",
    "nll_marginal_grad_alpha_batch",
    "bayes_ce_loss_batch",
    "bayes_ce_value_grad_batch",
    "bayes_ce_grad_alpha_batch",
    "edl_mse_loss_batch",
    "edl_mse_value_grad_batch",
    "edl_mse_grad_alpha_batch",
    "rkl_prior_loss_batch",
    "rkl_prior_value_grad_batch",
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
        _check_p_norm(self.p_norm)


def _check_p_norm(p_norm) -> float:
    p = float(p_norm)
    if not 1.0 <= p < math.inf:
        raise ValueError("p_norm must be finite and >= 1")
    return p


def _check_batch(alpha: np.ndarray, c: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    alpha = np.asarray(alpha, dtype=np.float64)
    c = np.asarray(c)
    # the kinds numpy counts as np.integer: signed, unsigned and timedelta64;
    # casting first would truncate a class index of 1.7 to 1
    if c.dtype.kind not in "ium":
        raise ValueError(f"class indices must be integers, got dtype {c.dtype}")
    c = c.astype(np.intp, copy=False)
    if alpha.ndim != 2 or c.shape != (alpha.shape[0],):
        raise ValueError("alpha must be (N, K) and c must be (N,)")
    if c.size and (np.minimum.reduce(c) < 0 or np.maximum.reduce(c) >= alpha.shape[1]):
        raise IndexError("correct_class out of range")
    return alpha, c


def _logsumexp(terms: np.ndarray, axis: int) -> np.ndarray:
    m = np.maximum.reduce(terms, axis=axis, keepdims=True)
    return (m + np.log(np.add.reduce(np.exp(terms - m), axis=axis, keepdims=True))).squeeze(axis)


def _split(vals: np.ndarray, n: int, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Values over a stacked (alpha-like (N, K), row sum) -> ((N, K), (N, 1))."""
    return vals[:n * k].reshape(n, k), vals[n * k:, None]


def iad_value_grad_batch(alpha, c, p_norm: float) -> tuple[np.ndarray, np.ndarray]:
    """(F_i, dF_i/dalpha) for each row: the closed-form L_p upper bound on the
    expected max-norm prediction error, computed in log space from one
    log_rising call over (alpha_0, s, alpha), where s = alpha_0 - alpha_c is
    the off-class sum. p_norm must be finite and >= 1.

    d log F / d alpha_c = -(1/p) nu(a0); off-class components add the
    derivative of the log-sum through mu(s) and mu(alpha_j), with
    mu(a) = (a)_p, mu'(a) = mu(a) nu(a) and nu(a) = psi(a+p) - psi(a).
    """
    alpha, c = _check_batch(alpha, c)
    n, k = alpha.shape
    p = _check_p_norm(p_norm)
    rows = np.arange(n)
    a0 = np.add.reduce(alpha, axis=1)
    log_mu, nu = log_rising(np.concatenate([a0, a0 - alpha[rows, c], alpha.ravel()]), p)
    # terms[:, 0] = log mu(s) and terms[:, 1:] = log mu(alpha_j), -inf at c
    terms = np.empty((n, k + 1))
    terms[:, 0] = log_mu[n:2 * n]
    terms[:, 1:] = log_mu[2 * n:].reshape(n, k)
    terms[rows, c + 1] = -np.inf
    lse = _logsumexp(terms, axis=1)
    log_f = (lse - log_mu[:n]) / p
    if np.count_nonzero(np.abs(log_f) > _LOG_CLIP):
        raise LossOverflowError("log F exceeded the exp() clip threshold")
    f = np.exp(log_f)
    w = np.exp(terms - lse[:, None])
    common = -nu[:n]
    grad_log = (common[:, None] + w[:, :1] * nu[n:2 * n, None]
                + w[:, 1:] * nu[2 * n:].reshape(n, k)) / p
    grad_log[rows, c] = common / p
    return f, f[:, None] * grad_log


def iad_loss_batch(alpha, c, p_norm: float) -> np.ndarray:
    """F_i for each row."""
    return iad_value_grad_batch(alpha, c, p_norm)[0]


def iad_loss_grad_alpha_batch(alpha, c, p_norm: float) -> np.ndarray:
    """Analytic gradient of F with respect to alpha, rowwise."""
    return iad_value_grad_batch(alpha, c, p_norm)[1]


def info_value_grad_batch(alpha, c=None) -> tuple[np.ndarray, np.ndarray]:
    """(R_i, dR_i/dalpha) for each row (component c of the gradient is zero),
    R_i = (1/2) sum_{j != c} (alpha_j - 1)^2 (psi'(alpha_j) - psi'(alpha~_0)),
    from one trigamma_tetragamma call over the stacked (alpha~, alpha~_0).

    alpha~ is alpha with a one substituted at the correct class c. With
    c=None it is alpha itself: the sum runs over every j and alpha~_0 =
    alpha_0, the penalty for inputs that belong to no class."""
    if c is None:
        off = np.asarray(alpha, dtype=np.float64)
        if off.ndim != 2:
            raise ValueError("alpha must be (N, K)")
    else:
        alpha, c = _check_batch(alpha, c)
        off = alpha.copy()
        off[np.arange(alpha.shape[0]), c] = 1.0
    if np.count_nonzero(off < 1.0):
        raise DomainError("info regularizer requires off-class alpha_j >= 1")
    d = off - 1.0
    # off has a one substituted at c, so sum(off) = 1 + sum_{j != c} alpha_j
    # (alpha_0 when c is None).
    psi1, psi2 = trigamma_tetragamma(np.concatenate([off.ravel(), np.add.reduce(off, axis=1)]))
    tri, tri0 = _split(psi1, *d.shape)
    tet, tet0 = _split(psi2, *d.shape)
    sum_sq = np.add.reduce(d * d, axis=1)[:, None]
    grad = (
        d * (tri - tri0)
        + 0.5 * d * d * (tet - tet0)
        - 0.5 * tet0 * (sum_sq - d * d)
    )
    if c is not None:
        grad[np.arange(d.shape[0]), c] = 0.0
    return 0.5 * np.add.reduce(d * d * (tri - tri0), axis=1), grad


def info_regularizer_batch(alpha, c=None) -> np.ndarray:
    """R_i for each row; c=None penalizes every component."""
    return info_value_grad_batch(alpha, c)[0]


def info_regularizer_grad_alpha_batch(alpha, c=None) -> np.ndarray:
    """Analytic gradient of R with respect to alpha (component c is zero)."""
    return info_value_grad_batch(alpha, c)[1]


# ---------------------------------------------------------------------------
# baseline losses


def nll_marginal_value_grad_batch(alpha, c) -> tuple[np.ndarray, np.ndarray]:
    """(-ln(alpha_c / alpha_0), its gradient) for each row."""
    alpha, c = _check_batch(alpha, c)
    a0, ac = alpha.sum(axis=1), alpha[np.arange(c.size), c]
    grad = np.repeat((1.0 / a0)[:, None], alpha.shape[1], axis=1)
    grad[np.arange(c.size), c] -= 1.0 / ac
    return -np.log(ac / a0), grad


def nll_marginal_loss_batch(alpha, c) -> np.ndarray:
    """Negative log-marginal likelihood -ln(alpha_c / alpha_0)."""
    return nll_marginal_value_grad_batch(alpha, c)[0]


def nll_marginal_grad_alpha_batch(alpha, c) -> np.ndarray:
    return nll_marginal_value_grad_batch(alpha, c)[1]


def _bayes_ce_args(alpha, c):
    """Checked alpha and c, and the stacked (alpha_0, alpha_c)."""
    alpha, c = _check_batch(alpha, c)
    return alpha, c, np.concatenate([alpha.sum(axis=1), alpha[np.arange(c.size), c]])


def bayes_ce_loss_batch(alpha, c) -> np.ndarray:
    """Bayes risk of the cross-entropy loss: psi(alpha_0) - psi(alpha_c).

    The one value function with a body of its own: its digamma call is the
    only use of this module's `digamma` import, which the benchmark
    harness's tracer test checks that it rebinds."""
    _, c, args = _bayes_ce_args(alpha, c)
    dg = digamma(args)
    return dg[:c.size] - dg[c.size:]


def bayes_ce_value_grad_batch(alpha, c) -> tuple[np.ndarray, np.ndarray]:
    """(psi(alpha_0) - psi(alpha_c), its gradient) for each row: one
    digamma_trigamma call."""
    alpha, c, args = _bayes_ce_args(alpha, c)
    n = c.size
    dg, tg = digamma_trigamma(args)
    grad = np.repeat(tg[:n, None], alpha.shape[1], axis=1)
    grad[np.arange(n), c] -= tg[n:]
    return dg[:n] - dg[n:], grad


def bayes_ce_grad_alpha_batch(alpha, c) -> np.ndarray:
    return bayes_ce_value_grad_batch(alpha, c)[1]


def edl_mse_value_grad_batch(alpha, c) -> tuple[np.ndarray, np.ndarray]:
    """(evidential mean-square loss, its gradient) for each row: the squared
    error of the mean m against the one-hot target plus the marginal Beta
    variances m (1 - m) / (alpha_0 + 1)."""
    alpha, c = _check_batch(alpha, c)
    a0 = np.add.reduce(alpha, axis=1)[:, None]
    a0_1 = a0 + 1.0
    m = alpha / a0
    err = np.zeros(alpha.shape)
    err[np.arange(c.size), c] = 1.0
    err -= m
    m_var = m * (1.0 - m)
    # dL/dm_k folded with dm_k/dalpha_j = (delta_kj - m_k)/a0, plus the
    # explicit 1/(a0+1) dependence of the variance term.
    inner = -2.0 * err + (1.0 - 2.0 * m) / a0_1  # (N, K) = dL/dm_k
    grad = ((inner - np.add.reduce(inner * m, axis=1)[:, None]) / a0
            - np.add.reduce(m_var, axis=1)[:, None] / a0_1 ** 2)
    return np.add.reduce(err ** 2 + m_var / a0_1, axis=1), grad


def edl_mse_loss_batch(alpha, c) -> np.ndarray:
    """Evidential mean-square loss: squared bias plus marginal Beta variances."""
    return edl_mse_value_grad_batch(alpha, c)[0]


def edl_mse_grad_alpha_batch(alpha, c) -> np.ndarray:
    return edl_mse_value_grad_batch(alpha, c)[1]


def rkl_prior_value_grad_batch(alpha, c, beta: float) -> tuple[np.ndarray, np.ndarray]:
    """(KL to the prior target, its gradient) for each row, for the one-hot
    prior target (beta + 1 at c, 1 elsewhere, 0 < beta < inf): one
    log_gamma_digamma call over (alpha, alpha_0, beta + 1, beta + K), where
    ln B(target) = ln Gamma(beta + 1) - ln Gamma(beta + K) as ln Gamma(1) = 0,
    and one trigamma call over (alpha, alpha_0)."""
    alpha, c = _check_batch(alpha, c)
    if not 0.0 < beta < math.inf:
        raise ValueError(f"beta must be finite and > 0, got {beta!r}")
    n, k = alpha.shape
    rows = np.arange(n)
    diff = alpha - 1.0
    diff[rows, c] = alpha[rows, c] - (beta + 1.0)
    args = np.concatenate([alpha.ravel(), alpha.sum(axis=1), [beta + 1.0, beta + k]])
    lg, dg = log_gamma_digamma(args)
    lg_a, lg_a0 = _split(lg[:-2], n, k)
    dg_a, dg_a0 = _split(dg[:-2], n, k)
    log_b_a = lg_a.sum(axis=1) - lg_a0[:, 0]
    log_b_t = lg[-2] - lg[-1]
    tri, tri0 = _split(trigamma(args[:-2]), n, k)
    return (log_b_t - log_b_a + (diff * (dg_a - dg_a0)).sum(axis=1),
            diff * tri - tri0 * diff.sum(axis=1)[:, None])


def rkl_prior_loss_batch(alpha, c, beta: float) -> np.ndarray:
    """Forward KL from the model Dirichlet to the one-hot prior target."""
    return rkl_prior_value_grad_batch(alpha, c, beta)[0]


def rkl_prior_grad_alpha_batch(alpha, c, beta: float) -> np.ndarray:
    return rkl_prior_value_grad_batch(alpha, c, beta)[1]
